//! E15: quorum choice vs GET staleness (§6.1).
//!
//! "Dynamo always accepts a PUT to the store even if this may result in
//! an inconsistent GET later on." How inconsistent is a knob: with
//! R + W > N a read quorum must intersect the latest write quorum; with
//! R + W ≤ N reads can miss it. A serial writer and a polling reader
//! measure the stale-read rate per configuration — exactly, because the
//! simulator's clock lets us pair every read with the set of writes that
//! had been acknowledged when it was issued.

use dynamo::{build_cluster, store_nodes, DynamoConfig, DynamoMsg, VectorClock};
use sim::{Actor, Context, LinkConfig, NodeId, SimDuration, SimTime, Simulation};

use crate::table::{f, Table};

const KEY: u64 = 42;
const TAG_TICK: u64 = 1;

/// Writes 1, 2, 3, ... through GET→PUT cycles, one at a time, recording
/// when each value's PUT was acknowledged.
struct SerialWriter {
    coordinators: Vec<NodeId>,
    total: u64,
    next_value: u64,
    req: u64,
    getting: bool,
    /// (ack time, value) for every acknowledged write.
    acks: Vec<(SimTime, u64)>,
}

impl SerialWriter {
    fn begin_cycle(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        if self.next_value > self.total {
            return;
        }
        self.req += 1;
        self.getting = true;
        let me = ctx.me();
        let coord = self.coordinators[(self.req % self.coordinators.len() as u64) as usize];
        ctx.send(coord, DynamoMsg::ClientGet { req: self.req, key: KEY, resp_to: me });
    }
}

impl Actor<DynamoMsg<u64>> for SerialWriter {
    fn on_start(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        self.begin_cycle(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DynamoMsg<u64>>,
        _from: NodeId,
        msg: DynamoMsg<u64>,
    ) {
        match msg {
            DynamoMsg::GetOk { req, versions, .. } if req == self.req && self.getting => {
                self.getting = false;
                let context =
                    versions.iter().fold(VectorClock::new(), |c, v| c.merged(&v.effective_clock()));
                let value = self.next_value;
                self.req += 1;
                let me = ctx.me();
                let coord = self.coordinators[(self.req % self.coordinators.len() as u64) as usize];
                ctx.send(
                    coord,
                    DynamoMsg::ClientPut { req: self.req, key: KEY, value, context, resp_to: me },
                );
            }
            DynamoMsg::GetFailed { req } if req == self.req && self.getting => {
                self.getting = false;
                self.begin_cycle(ctx); // retry the whole cycle
            }
            DynamoMsg::PutOk { req } if req == self.req && !self.getting => {
                self.acks.push((ctx.now(), self.next_value));
                self.next_value += 1;
                self.begin_cycle(ctx);
            }
            DynamoMsg::PutFailed { req } if req == self.req && !self.getting => {
                self.begin_cycle(ctx);
            }
            _ => {}
        }
    }
}

/// Polls the key, recording (issue time, highest value seen).
struct PollingReader {
    coordinators: Vec<NodeId>,
    every: SimDuration,
    req: u64,
    /// req → issue time for in-flight reads.
    issued: std::collections::HashMap<u64, SimTime>,
    /// (issue time, max value returned) per completed read.
    samples: Vec<(SimTime, u64)>,
    failed: u64,
}

impl Actor<DynamoMsg<u64>> for PollingReader {
    fn on_start(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        ctx.set_timer(self.every, TAG_TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>, _tag: u64) {
        self.req += 1;
        self.issued.insert(self.req, ctx.now());
        let me = ctx.me();
        let coord = self.coordinators[(self.req % self.coordinators.len() as u64) as usize];
        ctx.send(coord, DynamoMsg::ClientGet { req: self.req, key: KEY, resp_to: me });
        ctx.set_timer(self.every, TAG_TICK);
    }

    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, DynamoMsg<u64>>,
        _from: NodeId,
        msg: DynamoMsg<u64>,
    ) {
        match msg {
            DynamoMsg::GetOk { req, versions, .. } => {
                if let Some(at) = self.issued.remove(&req) {
                    let seen = versions.iter().map(|v| v.value).max().unwrap_or(0);
                    self.samples.push((at, seen));
                }
            }
            DynamoMsg::GetFailed { req } if self.issued.remove(&req).is_some() => {
                self.failed += 1;
            }
            _ => {}
        }
    }
}

struct QuorumRun {
    writes: u64,
    reads: u64,
    stale: u64,
    reads_failed: u64,
}

fn run_quorum(r: usize, w: usize, seed: u64) -> QuorumRun {
    let cfg = DynamoConfig {
        n: 3,
        r,
        w,
        gossip_interval: None, // isolate the quorum effect from anti-entropy
        sloppy: false,         // strict quorums: the textbook property
        request_timeout: SimDuration::from_millis(40),
        ..DynamoConfig::default()
    };
    let mut sim: Simulation<DynamoMsg<u64>> = Simulation::new(seed);
    let cluster = build_cluster(&mut sim, store_nodes(5, 0, &cfg));
    // Inter-store links are slow, jittery, and lossy (replication lag is
    // what staleness is made of); client links stay crisp so the
    // measurement itself is clean.
    let lossy = LinkConfig::lossy(SimDuration::from_millis(1), SimDuration::from_millis(12), 0.10);
    for i in 0..cluster.stores.len() {
        for j in (i + 1)..cluster.stores.len() {
            sim.network_mut().set_link(cluster.stores[i], cluster.stores[j], lossy);
        }
    }
    let writer = sim.add_node(SerialWriter {
        coordinators: cluster.stores.clone(),
        total: 60,
        next_value: 1,
        req: 0,
        getting: false,
        acks: Vec::new(),
    });
    let reader = sim.add_node(PollingReader {
        coordinators: cluster.stores.clone(),
        every: SimDuration::from_millis(7),
        req: 1 << 32,
        issued: std::collections::HashMap::new(),
        samples: Vec::new(),
        failed: 0,
    });
    sim.run_until(SimTime::from_secs(20));

    let w_actor: &SerialWriter = sim.actor(writer);
    let r_actor: &PollingReader = sim.actor(reader);
    // Exact staleness: a read issued at time t is stale iff it returned
    // less than the highest value acknowledged strictly before t (the
    // writer had been told that write was durable; a fresh quorum read
    // must see it).
    let mut stale = 0u64;
    for (at, seen) in &r_actor.samples {
        let acked_before = w_actor
            .acks
            .iter()
            .filter(|(ack_at, _)| ack_at < at)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        if *seen < acked_before {
            stale += 1;
        }
    }
    QuorumRun {
        writes: w_actor.acks.len() as u64,
        reads: r_actor.samples.len() as u64,
        stale,
        reads_failed: r_actor.failed,
    }
}

/// E15: stale reads per quorum configuration.
pub fn e15(seed: u64) -> Table {
    let mut t = Table::new(
        "E15",
        "Quorum configuration vs stale GETs (N=3)",
        "\"Dynamo always accepts a PUT to the store even if this may result in an \
         inconsistent GET later on\" (§6.1) — R+W>N makes read and write quorums intersect; \
         R+W≤N trades freshness for latency",
        &["R", "W", "R+W>N", "writes acked", "reads ok", "reads failed", "stale reads", "stale %"],
    );
    for (r, w) in [(1usize, 1usize), (1, 2), (2, 2), (3, 1), (1, 3)] {
        let run = run_quorum(r, w, seed);
        t.row(vec![
            r.to_string(),
            w.to_string(),
            if r + w > 3 { "yes" } else { "no" }.to_string(),
            run.writes.to_string(),
            run.reads.to_string(),
            run.reads_failed.to_string(),
            run.stale.to_string(),
            f(run.stale as f64 * 100.0 / run.reads.max(1) as f64),
        ]);
    }
    t
}
