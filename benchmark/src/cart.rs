//! The cart-service workloads: three sibling-squashing
//! `StoreNode<CrdtCart>` on the wall-clock runtime, driven by one actor
//! holding sixteen closed-loop sessions.
//!
//! Everything is the shipped configuration — `RuntimeBuilder::new()`,
//! `DynamoConfig::default()` — so a later change to a default shows up
//! as a gain or a regression here.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cart::{CartAction, CrdtCart};
use crdt::Crdt;
use dynamo::{standby_view, DynamoConfig, DynamoMsg, StoreNode, VectorClock};
use quicksand_runtime::{RuntimeBuilder, RuntimeReport, TransportKind};
use sim::{Actor, Context, NodeId, SimDuration};

use crate::measure::{EngineCounts, Measured, Mode, Outcome, MAX_ATTEMPTS};
use crate::stats::SplitMix64;
use crate::traced::{Describe, Gate, Traced};

/// The message type of the cart service.
pub type Msg = DynamoMsg<CrdtCart>;

impl Describe for Msg {
    fn kind(&self) -> &'static str {
        match self {
            DynamoMsg::ClientPut { .. } => "client_put",
            DynamoMsg::PutOk { .. } => "put_ok",
            DynamoMsg::PutFailed { .. } => "put_failed",
            DynamoMsg::ClientGet { .. } => "client_get",
            DynamoMsg::GetOk { .. } => "get_ok",
            DynamoMsg::GetFailed { .. } => "get_failed",
            DynamoMsg::ReplicaPut { .. } => "replica_put",
            DynamoMsg::ReplicaPutAck { .. } => "replica_put_ack",
            DynamoMsg::ReplicaGet { .. } => "replica_get",
            DynamoMsg::ReplicaGetResp { .. } => "replica_get_resp",
            DynamoMsg::HintDeliver { .. } => "hint_deliver",
            DynamoMsg::HintAck { .. } => "hint_ack",
            // A one-entry push is the read repair every GET sends its
            // replicas; a many-entry push is the periodic full-store
            // gossip. Told apart by the public shape of the message.
            DynamoMsg::SyncPush { entries } if entries.len() <= 1 => "read_repair",
            DynamoMsg::SyncPush { .. } => "sync_push",
            DynamoMsg::SyncDigest { .. } => "sync_digest",
            DynamoMsg::CtlJoin => "ctl_join",
            DynamoMsg::CtlLeave => "ctl_leave",
            DynamoMsg::ViewGossip { .. } => "view_gossip",
            DynamoMsg::TransferKeys { .. } => "transfer_keys",
            DynamoMsg::TransferAck { .. } => "transfer_ack",
        }
    }

    fn req(&self) -> Option<u64> {
        match self {
            DynamoMsg::ClientPut { req, .. }
            | DynamoMsg::PutOk { req }
            | DynamoMsg::PutFailed { req }
            | DynamoMsg::ClientGet { req, .. }
            | DynamoMsg::GetOk { req, .. }
            | DynamoMsg::GetFailed { req }
            | DynamoMsg::ReplicaPutAck { req }
            | DynamoMsg::ReplicaGet { req, .. }
            | DynamoMsg::ReplicaGetResp { req, .. } => Some(*req),
            DynamoMsg::ReplicaPut { req, .. } => *req,
            _ => None,
        }
    }
}

/// Closed-loop sessions held by the one driver actor.
pub const SESSIONS: usize = 16;
/// Stores in the ring (N/R/W = 3/2/2 over exactly three).
pub const STORES: u32 = 3;
/// A request unanswered this long has failed, like one answered
/// `GetFailed`/`PutFailed`: its operation starts over.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);
/// How often the driver looks for timed-out requests.
const SWEEP_EVERY: SimDuration = SimDuration::from_millis(100);
/// CRDT replica id for preload and quantity changes. One id for all
/// sessions keeps every cart's encoded size constant through the
/// measured phase (a PN-counter holds one slot per replica id).
const DRIVER_REPLICA: u64 = 0xD0;
/// Audit adds mint dots; each uses a replica id of its own, so two adds
/// can never mint the same dot whatever state their GETs observed.
const AUDIT_REPLICA_BASE: u64 = 0xA0_0000_0000;
/// Audit items sit above every preloaded item id.
const AUDIT_ITEM_BASE: u64 = 1 << 32;

/// The frozen shape of one cart workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Loopback channels or real TCP sockets on localhost.
    pub transport: TransportKind,
    /// Cart keys preloaded and then drawn from uniformly.
    pub keys: u64,
    /// Items preloaded into every cart.
    pub items: u64,
    /// Unmeasured ops of the measured mix run after preload.
    pub warmup_ops: u64,
    /// Measured ops per second of `--seconds`: the work of a run is a
    /// fixed op count, `ops_per_second × seconds`, never a duration, so
    /// allocation and span-store growth repeat exactly from run to run.
    /// Tuned once so the measured phases last about `--seconds` on the
    /// reference sandbox, then frozen.
    pub ops_per_second: u64,
    /// Unique-item adds appended for the acked-work audit.
    pub audit_ops: u64,
}

impl Plan {
    /// `cart_small_*`: 64 keys × 4 items.
    pub fn small(transport: TransportKind) -> Plan {
        let ops_per_second = if transport == TransportKind::Tcp { 5_500 } else { 16_000 };
        Plan { transport, keys: 64, items: 4, warmup_ops: 8_000, ops_per_second, audit_ops: 2_000 }
    }

    /// `cart_large_loopback`: 512 keys × 8 items, where the 100 ms
    /// full-store gossip takes a quarter of the stores' time and halves
    /// throughput. With 2048 keys gossip takes most of the CPU, and a
    /// time-driven load that saturates amplifies every wobble of the
    /// host: legs interleaved with these spread 18 % on `write_p50_us`
    /// and 7 % on `rss_kb_per_op` between quartiles, against 8 % and 2 %
    /// here — the latter outside the 5 % the benchmark holds it to.
    pub fn large() -> Plan {
        Plan {
            transport: TransportKind::Loopback,
            keys: 512,
            items: 8,
            warmup_ops: 5_000,
            ops_per_second: 8_000,
            audit_ops: 2_000,
        }
    }

    /// The same shape with every op count divided by `by` (tests).
    pub fn scaled_down(self, by: u64) -> Plan {
        Plan {
            warmup_ops: (self.warmup_ops / by).max(SESSIONS as u64),
            ops_per_second: (self.ops_per_second / by).max(SESSIONS as u64),
            audit_ops: (self.audit_ops / by).max(SESSIONS as u64),
            ..self
        }
    }
}

/// The cart every key is preloaded with: `items` members, each counter
/// already holding both an increment and a decrement slot for the
/// driver's replica, so later quantity changes never grow the state.
pub fn preload_cart(items: u64) -> CrdtCart {
    let mut cart = CrdtCart::new();
    for item in 0..items {
        cart.apply(DRIVER_REPLICA, &CartAction::Add { item, qty: 5 });
        cart.apply(DRIVER_REPLICA, &CartAction::ChangeQty { item, qty: 3 });
    }
    cart
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Preload,
    Warmup,
    Measured,
    Audit,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Blind PUT of the preload cart.
    Preload,
    /// GET, then for `Some(item)` a quantity change and PUT.
    Mix { item: Option<u64> },
    /// GET, add a never-seen item, PUT.
    AuditAdd { item: u64, replica: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    Idle,
    Get,
    Put,
}

#[derive(Debug, Clone, Copy)]
struct Session {
    waiting: Waiting,
    op: Op,
    key: u64,
    req: u64,
    /// Requests of the current op that failed.
    attempts: u32,
    sent: Instant,
    op_started: Instant,
}

/// Everything the cart driver recorded.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Phase boundaries and latency samples.
    pub measured: Measured,
    /// Acknowledged audit adds, `(key, item)`.
    pub acked_adds: Vec<(u64, u64)>,
}

/// The load generator: one actor, [`SESSIONS`] logical sessions, each
/// sending its next request only when the previous one completed.
pub struct Driver {
    plan: Plan,
    measured_ops: u64,
    stores: Vec<NodeId>,
    /// `Some` in a traced leg: opened for exactly the measured phase.
    gate: Option<Gate>,
    /// Told once the audit phase has been acknowledged in full.
    done: mpsc::Sender<()>,
    rng: SplitMix64,
    phase: Phase,
    sessions: Vec<Session>,
    next_req: u64,
    issued: u64,
    /// Results, read by the main thread after shutdown.
    pub record: Record,
}

impl Driver {
    /// A driver for `plan` with a measured phase of `measured_ops` ops
    /// (0: straight from warm-up to the audit), its request stream a
    /// function of `seed`.
    pub fn new(
        plan: Plan,
        seed: u64,
        measured_ops: u64,
        stores: Vec<NodeId>,
        gate: Option<Gate>,
        done: mpsc::Sender<()>,
    ) -> Self {
        let now = Instant::now();
        let idle = Session {
            waiting: Waiting::Idle,
            op: Op::Preload,
            key: 0,
            req: 0,
            attempts: 0,
            sent: now,
            op_started: now,
        };
        Driver {
            plan,
            measured_ops,
            stores,
            gate,
            done,
            rng: SplitMix64::new(seed),
            phase: Phase::Preload,
            sessions: vec![idle; SESSIONS],
            next_req: 0,
            issued: 0,
            record: Record::default(),
        }
    }

    /// The next op of the current phase, or `None` when the phase has
    /// issued everything it will.
    fn draw(&mut self) -> Option<(Op, u64)> {
        let n = self.issued;
        let drawn = match self.phase {
            Phase::Preload if n < self.plan.keys => (Op::Preload, n),
            Phase::Warmup if n < self.plan.warmup_ops => self.draw_mix(),
            Phase::Measured if n < self.measured_ops => self.draw_mix(),
            Phase::Audit if n < self.plan.audit_ops => {
                let key = self.rng.below(self.plan.keys);
                (Op::AuditAdd { item: AUDIT_ITEM_BASE + n, replica: AUDIT_REPLICA_BASE + n }, key)
            }
            _ => return None,
        };
        self.issued += 1;
        Some(drawn)
    }

    fn draw_mix(&mut self) -> (Op, u64) {
        let key = self.rng.below(self.plan.keys);
        let write = self.rng.below(100) < 50;
        let item = self.rng.below(self.plan.items);
        (Op::Mix { item: write.then_some(item) }, key)
    }

    fn send(&mut self, ctx: &mut Context<'_, Msg>, s: usize, msg_for: impl FnOnce(u64) -> Msg) {
        self.next_req += 1;
        let req = self.next_req * SESSIONS as u64 + s as u64;
        let to = self.stores[self.rng.below(self.stores.len() as u64) as usize];
        self.sessions[s].req = req;
        self.sessions[s].sent = Instant::now();
        ctx.send(to, msg_for(req));
    }

    /// (Re)start session `s`'s current op from its first request.
    fn start_op(&mut self, ctx: &mut Context<'_, Msg>, s: usize) {
        let me = ctx.me();
        let Session { op, key, .. } = self.sessions[s];
        match op {
            Op::Preload => {
                let value = preload_cart(self.plan.items);
                self.sessions[s].waiting = Waiting::Put;
                self.send(ctx, s, |req| DynamoMsg::ClientPut {
                    req,
                    key,
                    value,
                    context: VectorClock::new(),
                    resp_to: me,
                });
            }
            Op::Mix { .. } | Op::AuditAdd { .. } => {
                self.sessions[s].waiting = Waiting::Get;
                self.send(ctx, s, |req| DynamoMsg::ClientGet { req, key, resp_to: me });
            }
        }
    }

    /// Give every idle session the phase's next op; when the phase has
    /// none left and every session is idle, move to the next phase.
    fn fill(&mut self, ctx: &mut Context<'_, Msg>) {
        loop {
            for s in 0..SESSIONS {
                if self.sessions[s].waiting != Waiting::Idle {
                    continue;
                }
                let Some((op, key)) = self.draw() else { break };
                self.sessions[s].op = op;
                self.sessions[s].key = key;
                self.sessions[s].attempts = 0;
                self.sessions[s].op_started = Instant::now();
                self.record.measured.attempted += 1;
                self.start_op(ctx, s);
            }
            let drained = self.sessions.iter().all(|s| s.waiting == Waiting::Idle);
            if !drained || self.phase == Phase::Done || !self.advance() {
                return;
            }
        }
    }

    /// Enter the next phase. Returns `false` when the driver is to stop.
    fn advance(&mut self) -> bool {
        self.issued = 0;
        self.phase = match self.phase {
            Phase::Preload => Phase::Warmup,
            Phase::Warmup => {
                self.record.measured.begin(self.gate.as_ref());
                Phase::Measured
            }
            // Every session is idle here: the last measured op has
            // just completed.
            Phase::Measured => {
                self.record.measured.finish(self.gate.as_ref());
                Phase::Audit
            }
            Phase::Audit => {
                self.done.send(()).ok();
                Phase::Done
            }
            Phase::Done => Phase::Done,
        };
        self.phase != Phase::Done
    }

    fn op_completed(&mut self, ctx: &mut Context<'_, Msg>, s: usize) {
        let Session { op, key, op_started, .. } = self.sessions[s];
        self.sessions[s].waiting = Waiting::Idle;
        match (self.phase, op) {
            (Phase::Measured, _) => {
                self.record.measured.op_ns.push(op_started.elapsed().as_nanos() as u32);
            }
            (Phase::Audit, Op::AuditAdd { item, .. }) => self.record.acked_adds.push((key, item)),
            _ => {}
        }
        self.fill(ctx);
    }

    /// Session `s`'s request failed: start its op over, or after
    /// [`MAX_ATTEMPTS`] give the op up and take the phase's next.
    fn attempt_failed(&mut self, ctx: &mut Context<'_, Msg>, s: usize) {
        self.record.measured.retried += 1;
        self.sessions[s].attempts += 1;
        if self.sessions[s].attempts < MAX_ATTEMPTS {
            return self.start_op(ctx, s);
        }
        self.record.measured.failed += 1;
        self.sessions[s].waiting = Waiting::Idle;
        self.fill(ctx);
    }

    /// The session waiting on `req` in state `want`, if any.
    fn session_for(&self, req: u64, want: Waiting) -> Option<usize> {
        let s = (req % SESSIONS as u64) as usize;
        (self.sessions[s].req == req && self.sessions[s].waiting == want).then_some(s)
    }
}

impl Actor<Msg> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SWEEP_EVERY, 0);
        self.fill(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
        for s in 0..SESSIONS {
            let sess = &self.sessions[s];
            if sess.waiting != Waiting::Idle && sess.sent.elapsed() > REQUEST_TIMEOUT {
                self.attempt_failed(ctx, s);
            }
        }
        if self.phase != Phase::Done {
            ctx.set_timer(SWEEP_EVERY, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            DynamoMsg::GetOk { req, versions, .. } => {
                let Some(s) = self.session_for(req, Waiting::Get) else { return };
                if self.phase == Phase::Measured {
                    self.record
                        .measured
                        .read_ns
                        .push(self.sessions[s].sent.elapsed().as_nanos() as u32);
                }
                let Session { op, key, .. } = self.sessions[s];
                let action = match op {
                    Op::Mix { item: None } => return self.op_completed(ctx, s),
                    Op::Mix { item: Some(item) } => {
                        // A target that always differs from the current
                        // quantity, so every write changes the state.
                        let current = versions
                            .first()
                            .and_then(|v| v.value.materialize().get(&item).copied())
                            .unwrap_or(0);
                        (DRIVER_REPLICA, CartAction::ChangeQty { item, qty: current % 9 + 1 })
                    }
                    Op::AuditAdd { item, replica } => (replica, CartAction::Add { item, qty: 1 }),
                    Op::Preload => unreachable!("preload never GETs"),
                };
                let mut cart = CrdtCart::new();
                let mut context = VectorClock::new();
                for v in &versions {
                    cart.merge(&v.value);
                    context = context.merged(&v.effective_clock());
                }
                cart.apply(action.0, &action.1);
                let me = ctx.me();
                self.sessions[s].waiting = Waiting::Put;
                self.send(ctx, s, |req| DynamoMsg::ClientPut {
                    req,
                    key,
                    value: cart,
                    context,
                    resp_to: me,
                });
            }
            DynamoMsg::PutOk { req } => {
                let Some(s) = self.session_for(req, Waiting::Put) else { return };
                if self.phase == Phase::Measured {
                    self.record
                        .measured
                        .write_ns
                        .push(self.sessions[s].sent.elapsed().as_nanos() as u32);
                }
                self.op_completed(ctx, s);
            }
            DynamoMsg::GetFailed { req } => {
                if let Some(s) = self.session_for(req, Waiting::Get) {
                    self.attempt_failed(ctx, s);
                }
            }
            DynamoMsg::PutFailed { req } => {
                if let Some(s) = self.session_for(req, Waiting::Put) {
                    self.attempt_failed(ctx, s);
                }
            }
            _ => {}
        }
    }
}

/// Run one leg of a cart workload: build the shipped cluster, let the
/// driver go through its phases (`measured_ops` may be 0), shut down,
/// audit the stores.
pub fn run(plan: Plan, seed: u64, measured_ops: u64, mode: Mode) -> Outcome {
    let launched = Instant::now();
    let traced = mode == Mode::Traced;
    let gate = traced.then(Gate::new);
    let mut b = RuntimeBuilder::<Msg>::new().seed(seed);
    let view = standby_view(STORES, 0);
    let stores: Vec<NodeId> = (0..STORES as usize).map(NodeId).collect();
    for s in 0..STORES {
        let node =
            StoreNode::<CrdtCart>::new(s, view.clone(), stores.clone(), DynamoConfig::default())
                .with_sibling_squash();
        match &gate {
            Some(g) => b.add_node(Traced::new(node, "dynamo", g.clone(), launched)),
            None => b.add_node(node),
        };
    }
    let (tx, done) = mpsc::channel();
    let driver = Driver::new(plan, seed, measured_ops, stores.clone(), gate.clone(), tx);
    let driver_id = match &gate {
        Some(g) => b.add_node(Traced::new(driver, "driver", g.clone(), launched)),
        None => b.add_node(driver),
    };
    let rt = b.launch_transport(plan.transport).expect("launch the cart cluster");
    done.recv_timeout(Duration::from_secs(150)).expect("driver stalled");
    // Three gossip intervals, so the audit reads settled stores.
    let gossip = DynamoConfig::default().gossip_interval.expect("gossip is on by default");
    std::thread::sleep(Duration::from_micros(3 * gossip.as_micros()));
    let report = rt.shutdown();

    let stores_final: Vec<&StoreNode<CrdtCart>> =
        stores.iter().map(|&n| actor_of(&report, n, traced)).collect();
    let driver: &Driver = actor_of(&report, driver_id, traced);

    // The audit: every preloaded pair and every acked add must be in
    // the join of the three stores' sibling sets.
    let held: Vec<BTreeSet<u64>> = (0..plan.keys)
        .map(|key| {
            let mut joined = CrdtCart::new();
            for v in stores_final.iter().flat_map(|s| s.versions(key)) {
                joined.merge(&v.value);
            }
            joined.materialize().into_keys().collect()
        })
        .collect();
    let missing = |&(key, item): &(u64, u64)| !held[key as usize].contains(&item);
    let preloads = (0..plan.keys).flat_map(|k| (0..plan.items).map(move |i| (k, i)));
    let lost_preloads = preloads.filter(missing).count();
    let lost_adds = driver.record.acked_adds.iter().filter(|a| missing(a)).count();
    let acked = driver.record.acked_adds.len() as u64;
    let mut violations = Vec::new();
    if lost_preloads > 0 {
        violations.push(format!("{lost_preloads} preloaded (key, item) pairs lost"));
    }
    if lost_adds > 0 {
        violations.push(format!("{lost_adds} of {acked} acknowledged adds lost"));
    }
    if acked != plan.audit_ops {
        violations.push(format!("{acked} of {} audit adds acknowledged", plan.audit_ops));
    }

    let mut traces = Vec::new();
    if traced {
        for &n in &stores {
            let t = report.actor::<Traced<StoreNode<CrdtCart>>>(n);
            traces.push((n.0, t.layer(), t.trace().clone()));
        }
        let t = report.actor::<Traced<Driver>>(driver_id);
        traces.push((driver_id.0, t.layer(), t.trace().clone()));
    }
    let measured = driver.record.measured.clone();
    let began = measured.start.expect("the driver reached the measured phase").at;
    Outcome {
        setup_s: (began - launched).as_secs_f64(),
        ops: measured_ops,
        measured,
        traces,
        engine: EngineCounts::read(&report.core),
        violations,
        recover_ms: None,
    }
}

/// A node's final actor, looking through the [`Traced`] wrapper when the
/// run was traced.
fn actor_of<A: Actor<Msg>>(report: &RuntimeReport<Msg>, node: NodeId, traced: bool) -> &A {
    if traced {
        report.actor::<Traced<A>>(node).inner()
    } else {
        report.actor::<A>(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{SimTime, Simulation};

    /// A store that refuses every request.
    struct Refusing;

    impl Actor<Msg> for Refusing {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                DynamoMsg::ClientGet { req, resp_to, .. } => {
                    ctx.send(resp_to, DynamoMsg::GetFailed { req });
                }
                DynamoMsg::ClientPut { req, resp_to, .. } => {
                    ctx.send(resp_to, DynamoMsg::PutFailed { req });
                }
                _ => {}
            }
        }
    }

    #[test]
    fn an_op_is_given_up_after_max_attempts_and_counted_failed_once() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let store = sim.add_node(Refusing);
        let plan = Plan::small(TransportKind::Loopback).scaled_down(100);
        let (tx, done) = mpsc::channel();
        let driver = sim.add_node(Driver::new(plan, 1, 40, vec![store], None, tx));
        sim.run_until(SimTime::from_secs(5));
        done.try_recv().expect("the driver went through every phase");
        let m = &sim.actor::<Driver>(driver).record.measured;
        assert_eq!(m.attempted, plan.keys + plan.warmup_ops + 40 + plan.audit_ops);
        assert_eq!(m.failed, m.attempted, "no op can succeed");
        assert_eq!(m.retried, m.attempted * u64::from(MAX_ATTEMPTS));
        assert!(m.op_ns.is_empty() && sim.actor::<Driver>(driver).record.acked_adds.is_empty());
    }
}
