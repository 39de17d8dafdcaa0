//! A fault-plan-driven PUT workload over a plain cluster, for chaos
//! sweeps: a retrying loader blind-writes uniquely-valued versions
//! while a [`FaultPlan`] partitions, crashes, and degrades the ring,
//! then the report audits what the availability posture promised —
//! every acked write survives somewhere, and (once the plan has healed
//! and anti-entropy has run) replicas agree.

use std::collections::BTreeMap;

use rand::Rng;
use sim::chaos::FaultPlan;
use sim::{
    Actor, Context, FlightRecorder, LedgerAccounting, NodeId, SimDuration, SimTime, Simulation,
    SpanId, SpanStatus, SpanStore,
};

use crate::harness::{build_cluster, store_nodes, Cluster};
use crate::msg::DynamoMsg;
use crate::node::{DynamoConfig, StoreNode};
use crate::vclock::VectorClock;
use crate::version::same_versions;

const TAG_SHIFT: u64 = 48;
const TAG_NEXT: u64 = 1;
const TAG_STUCK: u64 = 2;

fn tag(kind: u64, payload: u64) -> u64 {
    (kind << TAG_SHIFT) | (payload & ((1 << TAG_SHIFT) - 1))
}

/// Configuration for one chaos workload run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Store parameters.
    pub dynamo: DynamoConfig,
    /// Cluster size.
    pub n_stores: u32,
    /// Standby stores provisioned outside the ring (ids
    /// `n_stores..n_stores+spares`), available as `AddNode` targets.
    pub spares: u32,
    /// Keys the loader cycles through.
    pub n_keys: u64,
    /// Blind PUTs the loader issues (each with a globally unique value).
    pub puts: u64,
    /// Mean think time between acked PUTs.
    pub mean_interarrival: SimDuration,
    /// The fault timeline.
    pub faults: FaultPlan,
    /// Minimum run length; the run is extended past the plan's last
    /// heal so convergence is a fair question to ask.
    pub horizon: SimTime,
    /// Enable the forensic flight recorder (causal event graph). Off by
    /// default; chaos explainers re-run failing seeds with it on.
    pub flight: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            dynamo: DynamoConfig::default(),
            n_stores: 5,
            spares: 0,
            n_keys: 4,
            puts: 40,
            mean_interarrival: SimDuration::from_millis(10),
            faults: FaultPlan::none(),
            horizon: SimTime::from_secs(30),
            flight: false,
        }
    }
}

/// What the workload observed and what the post-run audit found.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// PUTs the loader saw acknowledged.
    pub acked: u64,
    /// PUTs still unacknowledged at the end of the run.
    pub unacked: u64,
    /// `PutFailed` responses (each was retried).
    pub put_failures: u64,
    /// Cycles restarted because the coordinator never answered.
    pub stuck_retries: u64,
    /// Acked values absent from *every* store at the end of the run —
    /// promised durability that evaporated.
    pub acked_lost: u64,
    /// Acked values absent from every store the **final** ring's
    /// preference list names for their key — the
    /// `no-acked-write-lost-across-rebalance` invariant: surviving only
    /// on a departed or demoted store does not count, because no read
    /// will ever route there again.
    pub acked_lost_in_ring: u64,
    /// Rebalance transfers still unacked at the end of the run (each is
    /// also an open `membership.transfer` guess in the ledger).
    pub transfers_unacked: u64,
    /// Keys on which two stores still hold conflicting sibling sets.
    pub diverged_keys: u64,
    /// Hinted writes still parked on a stand-in store.
    pub hints_undelivered: u64,
    /// Total simulated messages.
    pub messages: u64,
    /// Guess/apology accounting. Parked hints are **durable** guesses
    /// (`dynamo.hint_handoff`): a hint stranded by the stranded-hint bug
    /// shows up here as a guess still open after quiescence.
    pub ledger: LedgerAccounting,
    /// Every span the run recorded.
    pub spans: SpanStore,
    /// The causal event graph, when `WorkloadConfig::flight` was set.
    pub flight: Option<FlightRecorder>,
}

impl WorkloadReport {
    /// Every store that holds a key agrees on its sibling set.
    pub fn converged(&self) -> bool {
        self.diverged_keys == 0 && self.hints_undelivered == 0
    }
}

/// A client that issues `puts` blind PUTs, one at a time, retrying a
/// failed or stuck PUT (same value, fresh request id) until it is
/// acknowledged — the shopping-cart posture: the writer never gives up.
pub struct Loader {
    coordinators: Vec<NodeId>,
    puts: u64,
    n_keys: u64,
    think: SimDuration,
    stuck_timeout: SimDuration,

    next_value: u64,
    /// The in-flight (value, key), kept across retries.
    current: Option<(u64, u64)>,
    /// The `workload.put` span covering the current cycle's attempts.
    cycle_span: Option<SpanId>,
    outstanding_req: Option<u64>,
    req_counter: u64,
    /// Acked value → key.
    pub acked: BTreeMap<u64, u64>,
    /// `PutFailed` responses seen.
    pub put_failures: u64,
    /// Cycles restarted on timeout.
    pub stuck_retries: u64,
}

impl Loader {
    /// A loader cycling over `n_keys` keys via any of `coordinators`.
    pub fn new(coordinators: Vec<NodeId>, puts: u64, n_keys: u64, think: SimDuration) -> Self {
        Loader {
            coordinators,
            puts,
            n_keys: n_keys.max(1),
            think,
            stuck_timeout: SimDuration::from_millis(500),
            next_value: 0,
            current: None,
            cycle_span: None,
            outstanding_req: None,
            req_counter: 0,
            acked: BTreeMap::new(),
            put_failures: 0,
            stuck_retries: 0,
        }
    }

    /// True when every planned PUT has been acknowledged.
    pub fn done(&self) -> bool {
        self.next_value >= self.puts && self.current.is_none()
    }

    fn begin(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        if self.current.is_none() {
            if self.next_value >= self.puts {
                return;
            }
            let value = self.next_value;
            self.next_value += 1;
            self.current = Some((value, value % self.n_keys));
            let span = ctx.start_span("workload.put");
            ctx.span_field(span, "value", value);
            self.cycle_span = Some(span);
        }
        let (value, key) = self.current.expect("cycle in progress");
        self.req_counter += 1;
        let req = self.req_counter;
        self.outstanding_req = Some(req);
        let me = ctx.me();
        let coord = self.coordinators[ctx.rng().gen_range(0..self.coordinators.len())];
        ctx.set_current_span(self.cycle_span);
        ctx.send(
            coord,
            DynamoMsg::ClientPut { req, key, value, context: VectorClock::new(), resp_to: me },
        );
        ctx.set_timer(self.stuck_timeout, tag(TAG_STUCK, req));
    }

    fn retry(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        if let Some(span) = self.cycle_span {
            ctx.span_field(span, "retried", "true");
        }
        self.outstanding_req = None;
        let backoff = self.think / 2 + SimDuration::from_micros(ctx.rng().gen_range(0..10_000));
        ctx.set_timer(backoff, tag(TAG_NEXT, 0));
    }
}

impl Actor<DynamoMsg<u64>> for Loader {
    fn on_start(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>) {
        let jitter = ctx.rng().gen_range(0..=self.think.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), tag(TAG_NEXT, 0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DynamoMsg<u64>>, t: u64) {
        match t >> TAG_SHIFT {
            TAG_NEXT if self.outstanding_req.is_none() => {
                self.begin(ctx);
            }
            TAG_STUCK => {
                let req = t & ((1 << TAG_SHIFT) - 1);
                if self.outstanding_req == Some(req) {
                    self.stuck_retries += 1;
                    ctx.metrics().inc("workload.stuck_retries");
                    self.retry(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DynamoMsg<u64>>,
        _from: NodeId,
        msg: DynamoMsg<u64>,
    ) {
        match msg {
            DynamoMsg::PutOk { req } if self.outstanding_req == Some(req) => {
                self.outstanding_req = None;
                let (value, key) = self.current.take().expect("an ack implies a cycle");
                self.acked.insert(value, key);
                if let Some(span) = self.cycle_span.take() {
                    ctx.finish_span_with(span, SpanStatus::Ok);
                }
                ctx.metrics().inc("workload.puts_acked");
                if self.next_value < self.puts {
                    let jitter = ctx.rng().gen_range(0..=self.think.as_micros());
                    ctx.set_timer(self.think + SimDuration::from_micros(jitter), tag(TAG_NEXT, 0));
                }
            }
            DynamoMsg::PutFailed { req } if self.outstanding_req == Some(req) => {
                self.put_failures += 1;
                ctx.metrics().inc("workload.put_failures");
                self.retry(ctx);
            }
            _ => {}
        }
    }
}

/// Build the cluster + loader, apply the plan, and run. The returned
/// simulation has advanced past both `cfg.horizon` and the plan's last
/// heal plus a gossip-settling margin.
pub fn run_workload_sim(cfg: &WorkloadConfig, seed: u64) -> (Simulation<DynamoMsg<u64>>, Cluster) {
    let mut sim: Simulation<DynamoMsg<u64>> = Simulation::new(seed);
    let cluster = build_cluster(&mut sim, store_nodes(cfg.n_stores, cfg.spares, &cfg.dynamo));
    // Coordinators are the boot-time ring members; spares (and leavers)
    // are reachable through the ring, not addressed directly.
    let loader = Loader::new(
        cluster.stores[..cfg.n_stores as usize].to_vec(),
        cfg.puts,
        cfg.n_keys.min(cfg.puts.max(1)),
        cfg.mean_interarrival,
    );
    let id = sim.add_node(loader);
    debug_assert_eq!(id, NodeId((cfg.n_stores + cfg.spares) as usize));
    if cfg.flight {
        sim.enable_flight(1 << 16);
    }
    cfg.faults.apply(&mut sim);
    // The plan engine applies crashes and partitions itself but is
    // mechanism-agnostic about membership; the scenario owns the
    // translation of AddNode/RemoveNode clauses into the data plane's
    // control messages.
    for f in &cfg.faults.faults {
        match f {
            sim::chaos::Fault::AddNode { at, node } => {
                sim.inject_at(*at, *node, *node, DynamoMsg::CtlJoin);
            }
            sim::chaos::Fault::RemoveNode { at, node } => {
                sim.inject_at(*at, *node, *node, DynamoMsg::CtlLeave);
            }
            _ => {}
        }
    }
    let settle = SimDuration::from_secs(5);
    let end = cfg.horizon.max(cfg.faults.ends_by() + settle);
    sim.run_until(end);
    (sim, cluster)
}

/// Run the workload under `cfg.faults` and audit the outcome.
pub fn run_workload(cfg: &WorkloadConfig, seed: u64) -> WorkloadReport {
    let (mut sim, cluster) = run_workload_sim(cfg, seed);
    let loader: &Loader = sim.actor(NodeId((cfg.n_stores + cfg.spares) as usize));

    let mut report = WorkloadReport {
        acked: loader.acked.len() as u64,
        unacked: cfg.puts - loader.acked.len() as u64,
        put_failures: loader.put_failures,
        stuck_retries: loader.stuck_retries,
        ..WorkloadReport::default()
    };

    // Durability: every acked value must survive in some store's
    // sibling set for its key. Blind writes are pairwise concurrent, so
    // a correct store never supersedes one with another.
    for (value, key) in &loader.acked {
        let held = cluster.stores.iter().any(|s| {
            sim.actor::<StoreNode<u64>>(*s).versions(*key).iter().any(|v| v.value == *value)
        });
        if !held {
            report.acked_lost += 1;
        }
    }

    // Rebalance durability: route each acked value by the **final** ring
    // (as converged on by a surviving in-ring member) and require it on
    // a store reads would actually reach. Catches the subtler loss mode
    // where a value survives only on a node the ring no longer names.
    let final_ring = cluster
        .stores
        .iter()
        .map(|s| sim.actor::<StoreNode<u64>>(*s))
        .find(|n| n.gossiper.status().in_ring())
        .map(|n| n.ring().clone())
        .unwrap_or_else(|| cluster.ring.clone());
    for (value, key) in &loader.acked {
        let held = final_ring.preference_list(*key, cfg.dynamo.n).iter().any(|s| {
            sim.actor::<StoreNode<u64>>(cluster.stores[*s as usize])
                .versions(*key)
                .iter()
                .any(|v| v.value == *value)
        });
        if !held {
            report.acked_lost_in_ring += 1;
        }
    }
    report.transfers_unacked = cluster
        .stores
        .iter()
        .map(|s| sim.actor::<StoreNode<u64>>(*s).transfer_count() as u64)
        .sum();

    // Convergence: with the plan healed and anti-entropy settled, every
    // **in-ring** store holding a key agrees with every other holder,
    // and no hinted write is still parked on a stand-in. Departed
    // stores are expected to go stale — anti-entropy stops routing to
    // them the moment the ring forgets them.
    for key in 0..cfg.n_keys {
        let holders: Vec<&StoreNode<u64>> = cluster
            .stores
            .iter()
            .map(|s| sim.actor::<StoreNode<u64>>(*s))
            .filter(|n| n.gossiper.status().in_ring())
            .filter(|n| !n.versions(key).is_empty())
            .collect();
        if let Some(first) = holders.first() {
            let reference = first.versions(key);
            if holders[1..].iter().any(|n| !same_versions(n.versions(key), reference)) {
                report.diverged_keys += 1;
            }
        }
    }
    report.hints_undelivered =
        cluster.stores.iter().map(|s| sim.actor::<StoreNode<u64>>(*s).hint_count() as u64).sum();
    report.messages = sim.metrics().counter("sim.messages_sent");
    sim.export_ledger_metrics();
    report.ledger = sim.ledger().accounting();
    report.spans = sim.spans().clone();
    report.flight = sim.take_flight();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::chaos::Fault;

    fn base() -> WorkloadConfig {
        WorkloadConfig { puts: 30, ..WorkloadConfig::default() }
    }

    #[test]
    fn calm_run_acks_everything_and_converges() {
        let r = run_workload(&base(), 11);
        assert_eq!(r.acked, 30, "{r:?}");
        assert_eq!(r.acked_lost, 0, "{r:?}");
        assert!(r.converged(), "{r:?}");
    }

    #[test]
    fn partitioned_run_still_acks_and_converges_after_heal() {
        let mut cfg = base();
        cfg.faults = FaultPlan::partition_window(
            SimTime::from_millis(50),
            SimTime::from_millis(400),
            &[NodeId(0), NodeId(1)],
            &[NodeId(2), NodeId(3), NodeId(4)],
        );
        let r = run_workload(&cfg, 12);
        assert_eq!(r.acked, 30, "sloppy quorum keeps accepting writes: {r:?}");
        assert_eq!(r.acked_lost, 0, "{r:?}");
        assert!(r.converged(), "hinted handoff + gossip must reconcile: {r:?}");
    }

    #[test]
    fn crashed_coordinator_is_routed_around() {
        let mut cfg = base();
        cfg.faults = FaultPlan::from_faults(vec![Fault::Crash {
            at: SimTime::from_millis(40),
            node: NodeId(2),
            restart_at: Some(SimTime::from_millis(900)),
        }]);
        let r = run_workload(&cfg, 13);
        assert_eq!(r.acked, 30, "the loader retries through other coordinators: {r:?}");
        assert_eq!(r.acked_lost, 0, "{r:?}");
    }

    #[test]
    fn disabling_gossip_strands_hints_under_partition() {
        // The planted-bug knob the chaos sweep must catch: without
        // anti-entropy, a partition-era hinted write never reaches its
        // preferred store, so replicas stay diverged after the heal.
        let mut cfg = base();
        cfg.dynamo.gossip_interval = None;
        cfg.faults = FaultPlan::partition_window(
            SimTime::from_millis(20),
            SimTime::from_millis(600),
            &[NodeId(0), NodeId(1)],
            &[NodeId(2), NodeId(3), NodeId(4)],
        );
        let r = run_workload(&cfg, 14);
        assert!(!r.converged(), "without gossip the damage must persist: {r:?}");
    }

    #[test]
    fn join_and_leave_mid_run_lose_nothing() {
        // A spare joins while the loader is writing, then a founding
        // member drains out — the acceptance shape of
        // `no-acked-write-lost-across-rebalance` in miniature.
        let mut cfg = base();
        cfg.spares = 1;
        cfg.faults = FaultPlan::from_faults(vec![
            Fault::AddNode { at: SimTime::from_millis(60), node: NodeId(5) },
            Fault::RemoveNode { at: SimTime::from_millis(200), node: NodeId(1) },
        ]);
        let r = run_workload(&cfg, 21);
        assert_eq!(r.acked, 30, "{r:?}");
        assert_eq!(r.acked_lost, 0, "{r:?}");
        assert_eq!(r.acked_lost_in_ring, 0, "acked writes must follow the ring: {r:?}");
        assert_eq!(r.transfers_unacked, 0, "{r:?}");
        assert!(r.converged(), "{r:?}");
        assert_eq!(r.ledger.open(), 0, "every transfer and hint guess settles: {r:?}");
    }

    #[test]
    fn deterministic_reports() {
        let mut cfg = base();
        cfg.faults = sim::chaos::FaultPlan::generate(
            3,
            &sim::chaos::FaultSpec::new((0..5).map(NodeId).collect()),
        );
        let a = run_workload(&cfg, 3);
        let b = run_workload(&cfg, 3);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.diverged_keys, b.diverged_keys);
    }
}
