//! # quicksand::service — the cart service on the wall-clock runtime
//!
//! The wall-clock peer of [`crate::chaos`]: the same
//! [`dynamo::StoreNode`] + [`cart::CrdtCart`] actors the simulator
//! sweeps, stood up as real worker threads and held to the paper's one
//! hard promise — *acked work is never lost; every guess ends
//! confirmed, apologized or orphaned* (§5, §6.4). Every wall-clock
//! driver (`serve`, `loadgen`, `chaos_rt`, E19, the root and bench
//! tests) goes through the four steps here, so the check exists once:
//!
//! 1. **construct** — [`add_stores`] (the simulator's own store
//!    constructor, [`dynamo::crdt_store_nodes`]), then clients:
//!    [`LoadClient`], or [`cart::CrdtShopper`] via [`run_shoppers`].
//! 2. **drive** — [`wait_done`], for any actor type.
//! 3. **settle** — [`settle`]: fault plan finished, membership change
//!    drained, then one fixed anti-entropy tail.
//! 4. **audit** — [`audit`] reads the shut-down runtime into a
//!    [`ServiceAudit`], whose [`check`](ServiceAudit::check) is the
//!    verdict.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use cart::{CartAction, CartScenario, CrdtCart, CrdtShopper, CART_KEY};
use crdt::Crdt;
use dynamo::{crdt_store_nodes, DynamoConfig, DynamoMsg, StoreNode, VectorClock};
use membership::MemberStatus;
use quicksand_runtime::{Runtime, RuntimeBuilder, RuntimeReport};
use rand::Rng;
use sim::{
    Actor, Context, EngineCore, FaultPlan, FaultSpec, FlightId, FlightKind, IncidentKind, NodeId,
    SimDuration, SimTime,
};

/// The message type the whole service speaks.
pub type ServiceMsg = DynamoMsg<CrdtCart>;

/// Add `n_stores` sibling-squashing cart stores plus `spares` standbys
/// (see [`dynamo::crdt_store_nodes`]) to a fresh builder. Stores must
/// take node ids `0..n_stores+spares`: add clients afterwards.
pub fn add_stores(b: &mut RuntimeBuilder<ServiceMsg>, n_stores: u32, spares: u32) -> Vec<NodeId> {
    let nodes = crdt_store_nodes(n_stores, spares, &DynamoConfig::default());
    nodes.into_iter().map(|n| b.add_node(n)).collect()
}

/// The chaos spec for `n_stores` stores followed by `n_others` other
/// nodes (spares, clients): any node can be partitioned or degraded,
/// but only the founding *stores* are crashable — the clients hold the
/// audit's ground truth (acked adds) in process memory, and the
/// invariant is "the service never loses an acked op", not "the
/// auditor survives". One-way partitions join once there is room for a
/// fourth kind, so 3 clauses can cover crash + partition + degrade.
pub fn fault_spec(n_stores: u32, n_others: u32, window_ms: u64, clauses: usize) -> FaultSpec {
    let nodes = |n: u32| (0..n as usize).map(NodeId).collect::<Vec<_>>();
    FaultSpec::new(nodes(n_stores + n_others))
        .crashable(nodes(n_stores))
        .window(SimTime::from_millis(150), SimTime::from_millis(window_ms))
        .faults(clauses, clauses)
        .oneway(clauses >= 4)
}

const TAG_SHIFT: u64 = 48;
const TAG_NEXT: u64 = 1;
const TAG_STUCK: u64 = 2;

fn tag(kind: u64, payload: u64) -> u64 {
    (kind << TAG_SHIFT) | payload
}

#[derive(Debug)]
enum Phase {
    Idle,
    Getting { req: u64 },
    Putting { req: u64 },
}

/// The operation currently in flight (kept across retries).
#[derive(Debug)]
struct CurrentOp {
    key: u64,
    /// `Some(first_item)` for an add-edit op (`items_per_put`
    /// consecutive ids starting here), `None` for a read-only op.
    item: Option<u64>,
    /// Whether the add was already applied into the session cache —
    /// retries re-PUT the session state instead of re-applying (which
    /// would inflate the item's PN-counter quantity).
    applied: bool,
    issued_at: SimTime,
}

/// A closed-loop load-generating client: GET the cart at a random key,
/// optionally apply one unique-item add, PUT it back, repeat. One op
/// completes before the next begins, so offered load self-regulates to
/// what the service sustains — throughput is the measurement, not a
/// knob.
///
/// Per-op latencies land in the shared metric histograms `load.get_us`
/// and `load.put_us`; acked adds are remembered for the loss audit
/// (`loadgen` fails the run if any acked add is missing from the
/// reconciled stores).
#[derive(Debug)]
pub struct LoadClient {
    /// Client id (namespaces items, request ids, and the CRDT replica).
    pub id: u32,
    stores: Vec<NodeId>,
    ops_total: u64,
    keys: u64,
    put_pct: u32,
    think: SimDuration,
    stuck_timeout: SimDuration,
    /// Unique items added per PUT — the payload-size knob: carts (and
    /// wire frames, on TCP) grow proportionally.
    items_per_put: u64,

    phase: Phase,
    current: Option<CurrentOp>,
    req_counter: u64,
    next_item: u64,
    /// Per-key session cache (join of everything this client wrote or
    /// observed) — required for dot uniqueness, exactly as documented on
    /// [`cart::CrdtShopper`]'s session field.
    session: BTreeMap<u64, CrdtCart>,

    /// Completed operations.
    pub ops_done: u64,
    /// Adds acknowledged by the store, as `(key, item)`.
    pub acked_adds: Vec<(u64, u64)>,
    /// GETs that failed (op proceeded on the session view).
    pub get_failures: u64,
    /// PUTs that failed (op retried).
    pub put_failures: u64,
    /// Ops restarted by the stuck-request timeout.
    pub stuck_retries: u64,
}

impl LoadClient {
    /// A client that will run `ops_total` operations against `stores`,
    /// spreading edits over `keys` cart keys, with `put_pct`% of ops
    /// being add-edits (the rest read-only).
    pub fn new(id: u32, stores: Vec<NodeId>, ops_total: u64, keys: u64, put_pct: u32) -> Self {
        LoadClient {
            id,
            stores,
            ops_total,
            keys: keys.max(1),
            put_pct: put_pct.min(100),
            think: SimDuration::ZERO,
            stuck_timeout: SimDuration::from_millis(500),
            items_per_put: 1,
            phase: Phase::Idle,
            current: None,
            req_counter: 0,
            next_item: 0,
            session: BTreeMap::new(),
            ops_done: 0,
            acked_adds: Vec::new(),
            get_failures: 0,
            put_failures: 0,
            stuck_retries: 0,
        }
    }

    /// Think time between ops (default zero: fully closed loop).
    pub fn with_think(mut self, think: SimDuration) -> Self {
        self.think = think;
        self
    }

    /// Unique items added per PUT (default 1). Larger values fatten the
    /// cart payload per op — the payload axis of the BENCH_6 sweep.
    pub fn with_items_per_put(mut self, items: u64) -> Self {
        self.items_per_put = items.max(1);
        self
    }

    /// True when every planned op has completed.
    pub fn done(&self) -> bool {
        self.ops_done >= self.ops_total
    }

    fn replica(&self) -> u64 {
        0x4C_0000 + self.id as u64
    }

    fn new_req(&mut self) -> u64 {
        self.req_counter += 1;
        ((self.id as u64) << 32) | self.req_counter
    }

    fn begin_op(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        if self.current.is_none() {
            if self.done() {
                return;
            }
            let key = ctx.rng().gen_range(0..self.keys);
            let is_put = ctx.rng().gen_range(0..100) < self.put_pct as u64;
            let item = is_put.then(|| {
                let item = ((self.id as u64) << 32) | self.next_item;
                self.next_item += self.items_per_put;
                item
            });
            self.current = Some(CurrentOp { key, item, applied: false, issued_at: ctx.now() });
        }
        let op_key = self.current.as_ref().expect("op in progress").key;
        let req = self.new_req();
        self.phase = Phase::Getting { req };
        self.current.as_mut().expect("op in progress").issued_at = ctx.now();
        let me = ctx.me();
        let coord = self.stores[ctx.rng().gen_range(0..self.stores.len())];
        ctx.send(coord, DynamoMsg::ClientGet { req, key: op_key, resp_to: me });
        ctx.set_timer(self.stuck_timeout, tag(TAG_STUCK, req));
    }

    fn put_back(
        &mut self,
        ctx: &mut Context<'_, ServiceMsg>,
        mut cart: CrdtCart,
        context: VectorClock,
    ) {
        let (key, item, already_applied) = {
            let op = self.current.as_ref().expect("op in progress");
            (op.key, op.item.expect("put_back only runs for add ops"), op.applied)
        };
        // Fold in the session cache first (dot uniqueness), then apply
        // the add exactly once per op — a retry re-PUTs the session
        // state, which already carries the item.
        if let Some(s) = self.session.get(&key) {
            cart.merge(s);
        }
        if !already_applied {
            for k in 0..self.items_per_put {
                cart.apply(self.replica(), &CartAction::Add { item: item + k, qty: 1 });
            }
            self.current.as_mut().expect("op in progress").applied = true;
        }
        self.session.insert(key, cart.clone());
        let req = self.new_req();
        self.phase = Phase::Putting { req };
        self.current.as_mut().expect("op in progress").issued_at = ctx.now();
        let me = ctx.me();
        let coord = self.stores[ctx.rng().gen_range(0..self.stores.len())];
        ctx.send(coord, DynamoMsg::ClientPut { req, key, value: cart, context, resp_to: me });
        ctx.set_timer(self.stuck_timeout, tag(TAG_STUCK, req));
    }

    fn finish_op(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        let op = self.current.take().expect("op in progress");
        if let Some(item) = op.item {
            for k in 0..self.items_per_put {
                self.acked_adds.push((op.key, item + k));
            }
        }
        self.ops_done += 1;
        self.phase = Phase::Idle;
        ctx.metrics().inc("load.ops_done");
        if self.done() {
            return;
        }
        if self.think == SimDuration::ZERO {
            self.begin_op(ctx);
        } else {
            let jitter = ctx.rng().gen_range(0..=self.think.as_micros());
            ctx.set_timer(self.think + SimDuration::from_micros(jitter), tag(TAG_NEXT, 0));
        }
    }

    fn retry_op(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        self.phase = Phase::Idle;
        ctx.metrics().inc("load.retries");
        let backoff = SimDuration::from_micros(ctx.rng().gen_range(1_000..20_000));
        ctx.set_timer(backoff, tag(TAG_NEXT, 0));
    }
}

impl Actor<ServiceMsg> for LoadClient {
    fn on_start(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        // Small jitter so a fleet of clients does not start in lockstep.
        let jitter = ctx.rng().gen_range(0..5_000);
        ctx.set_timer(SimDuration::from_micros(jitter), tag(TAG_NEXT, 0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>, t: u64) {
        match t >> TAG_SHIFT {
            TAG_NEXT => {
                if matches!(self.phase, Phase::Idle) {
                    self.begin_op(ctx);
                }
            }
            TAG_STUCK => {
                let req = t & ((1 << TAG_SHIFT) - 1);
                let stuck = match self.phase {
                    Phase::Getting { req: r } | Phase::Putting { req: r } => r == req,
                    Phase::Idle => false,
                };
                if stuck {
                    self.stuck_retries += 1;
                    ctx.metrics().inc("load.stuck_retries");
                    self.retry_op(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ServiceMsg>, _from: NodeId, msg: ServiceMsg) {
        match msg {
            DynamoMsg::GetOk { req, versions, .. } => {
                if !matches!(self.phase, Phase::Getting { req: r } if r == req) {
                    return;
                }
                let issued = self.current.as_ref().expect("op in progress").issued_at;
                let lat = (ctx.now() - issued).as_micros() as f64;
                ctx.metrics().record("load.get_us", lat);
                let is_put = self.current.as_ref().expect("op in progress").item.is_some();
                if !is_put {
                    self.finish_op(ctx);
                    return;
                }
                let mut cart = CrdtCart::new();
                let mut context = VectorClock::new();
                for v in &versions {
                    cart.merge(&v.value);
                    context = context.merged(&v.effective_clock());
                }
                self.put_back(ctx, cart, context);
            }
            DynamoMsg::GetFailed { req } => {
                if !matches!(self.phase, Phase::Getting { req: r } if r == req) {
                    return;
                }
                self.get_failures += 1;
                ctx.metrics().inc("load.get_failures");
                if self.current.as_ref().expect("op in progress").item.is_some() {
                    // Availability over consistency: proceed on the
                    // session view (the lattice join absorbs the races).
                    self.put_back(ctx, CrdtCart::new(), VectorClock::new());
                } else {
                    self.finish_op(ctx);
                }
            }
            DynamoMsg::PutOk { req } => {
                if !matches!(self.phase, Phase::Putting { req: r } if r == req) {
                    return;
                }
                let issued = self.current.as_ref().expect("op in progress").issued_at;
                let lat = (ctx.now() - issued).as_micros() as f64;
                ctx.metrics().record("load.put_us", lat);
                self.finish_op(ctx);
            }
            DynamoMsg::PutFailed { req } => {
                if !matches!(self.phase, Phase::Putting { req: r } if r == req) {
                    return;
                }
                self.put_failures += 1;
                ctx.metrics().inc("load.put_failures");
                self.retry_op(ctx);
            }
            _ => {}
        }
    }
}

// ------------------------------------------------------------------ drive

/// A wait ran out of time; the message says what for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stalled(pub String);

impl fmt::Display for Stalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Stalled {}

const POLL: Duration = Duration::from_millis(5);

/// Poll `cond` until it holds (true) or `timeout` runs out (false).
pub fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(POLL);
    }
    true
}

/// Block until `done` holds on every one of `nodes` (each a `T`), e.g.
/// `wait_done(&rt, &clients, LoadClient::done, timeout)`.
pub fn wait_done<M, T, F>(
    rt: &Runtime<M>,
    nodes: &[NodeId],
    done: F,
    timeout: Duration,
) -> Result<(), Stalled>
where
    M: Send + 'static,
    T: Actor<M>,
    F: Fn(&T) -> bool + Copy + Send + 'static,
{
    if wait_until(timeout, || nodes.iter().all(|&n| rt.inspect::<T, bool, _>(n, done))) {
        Ok(())
    } else {
        Err(Stalled(format!("{} node(s) still running after {timeout:?}", nodes.len())))
    }
}

// ----------------------------------------------------------------- settle

/// How long [`settle`] lets anti-entropy run once nothing else is
/// pending: enough 100 ms gossip rounds and hinted-handoff retries to
/// repair what a just-healed fault tore.
pub const ANTI_ENTROPY_TAIL: Duration = Duration::from_millis(900);

/// Block until the attached fault plan (if any) has applied its last
/// edge — every heal done, every crashed node restarted.
pub fn wait_chaos<M: Send + 'static>(rt: &Runtime<M>, timeout: Duration) -> Result<(), Stalled> {
    match rt.chaos() {
        Some(chaos) if !chaos.wait_finished(timeout) => {
            Err(Stalled(format!("fault plan still running after {timeout:?}")))
        }
        _ => Ok(()),
    }
}

/// Quiesce the driven service so the audit is fair: the fault plan has
/// run out; when a `joiner`/`leaver` was directed to change the ring,
/// every rebalance transfer anywhere is acked, the joiner is in the
/// ring and the leaver has departed; then [`ANTI_ENTROPY_TAIL`].
pub fn settle(
    rt: &Runtime<ServiceMsg>,
    store_ids: &[NodeId],
    joiner: Option<NodeId>,
    leaver: Option<NodeId>,
    timeout: Duration,
) -> Result<(), Stalled> {
    type Store = StoreNode<CrdtCart>;
    wait_chaos(rt, timeout)?;
    if joiner.is_some() || leaver.is_some() {
        let settled = wait_until(timeout, || {
            store_ids.iter().all(|&s| rt.inspect(s, |n: &Store| n.transfer_count() == 0))
                && joiner.is_none_or(|j| rt.inspect(j, |n: &Store| n.gossiper.status().in_ring()))
                && leaver.is_none_or(|l| rt.inspect(l, |n: &Store| n.gossiper.departed()))
        });
        if !settled {
            let mut msg = format!("membership change did not settle in {timeout:?}");
            for &s in store_ids {
                let end = rt.inspect(s, move |n: &Store| MemberEnd::of(s, n));
                msg.push_str(&format!("\n    {end:?}"));
            }
            return Err(Stalled(msg));
        }
    }
    std::thread::sleep(ANTI_ENTROPY_TAIL);
    Ok(())
}

// ------------------------------------------------------------------ audit

/// The reconciled view of one key: the join of every store's sibling
/// set, materialized. The loss audit runs against this.
pub fn reconciled_cart(stores: &[&StoreNode<CrdtCart>], key: u64) -> BTreeMap<u64, u32> {
    let mut joined = CrdtCart::new();
    for s in stores {
        for v in s.versions(key) {
            joined.merge(&v.value);
        }
    }
    joined.materialize()
}

fn stores_of<'a>(
    report: &'a RuntimeReport<ServiceMsg>,
    store_ids: &[NodeId],
) -> Vec<&'a StoreNode<CrdtCart>> {
    store_ids.iter().map(|&s| report.actor(s)).collect()
}

/// Where a store directed to join or leave ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberEnd {
    /// The store's node id.
    pub node: NodeId,
    /// Its own final membership status.
    pub status: MemberStatus,
    /// Whether it left by choice (a completed `CtlLeave` drain).
    pub departed: bool,
    /// Rebalance transfers it still holds unacked.
    pub transfers: usize,
    /// Keys it stores.
    pub keys: usize,
    /// The ring digest it routes by (`membership.ring_version`).
    pub ring_version: u64,
}

impl MemberEnd {
    fn of(node: NodeId, n: &StoreNode<CrdtCart>) -> Self {
        MemberEnd {
            node,
            status: n.gossiper.status(),
            departed: n.gossiper.departed(),
            transfers: n.transfer_count(),
            keys: n.key_count(),
            ring_version: n.ring_version(),
        }
    }
}

/// What a finished run left behind, measured against what it promised.
/// Built by [`audit`]; [`ServiceAudit::check`] is the verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceAudit {
    /// Adds the clients saw acknowledged.
    pub acked: u64,
    /// Acked adds missing from the reconciled stores, as `(key, item)`.
    pub lost: Vec<(u64, u64)>,
    /// Guesses still open after quiescence.
    pub open_guesses: u64,
    /// Guesses a crash voided (booked, not a failure).
    pub orphaned_guesses: u64,
    /// `runtime.restarts`: crash/restart cycles the runtime performed.
    pub restarts: u64,
    /// `runtime.chaos_clauses`: clause edges the chaos layer applied.
    pub clause_edges: u64,
    /// Chaos-crash incidents the black box filed, by sequence number.
    pub incidents: Vec<u64>,
    /// Chaos-crash incidents whose causal slice lacks the crash edge
    /// itself, as `(seq, node, crash edge)`.
    pub edgeless_incidents: Vec<(u64, NodeId, FlightId)>,
    /// The plan's `(crash clauses, timeline edges)`, when one ran.
    pub planned: Option<(u64, u64)>,
    /// End state of the store directed to join, if any.
    pub joiner: Option<MemberEnd>,
    /// End state of the store directed to leave, if any.
    pub leaver: Option<MemberEnd>,
}

impl ServiceAudit {
    /// The engine-side half of the audit — ledger, chaos accounting,
    /// incident ring — which holds for any service on the runtime.
    pub fn of_core(core: &EngineCore, plan: Option<&FaultPlan>) -> Self {
        let acc = core.ledger.accounting();
        let crashes = || core.incidents.iter().filter(|i| i.kind == IncidentKind::ChaosCrash);
        ServiceAudit {
            open_guesses: acc.open(),
            orphaned_guesses: acc.orphaned(),
            restarts: core.metrics.counter("runtime.restarts"),
            clause_edges: core.metrics.counter("runtime.chaos_clauses"),
            incidents: crashes().map(|inc| inc.seq).collect(),
            edgeless_incidents: crashes()
                .filter(|inc| {
                    let slice = &inc.explanation.slice.events;
                    !slice.iter().any(|e| e.id == inc.target && e.kind == FlightKind::Crash)
                })
                .map(|inc| (inc.seq, inc.node, inc.target))
                .collect(),
            planned: plan.map(|p| (p.count_kind("crash") as u64, p.timeline().len() as u64)),
            ..ServiceAudit::default()
        }
    }

    /// Every promise at once; `Err` lists each broken one on its own
    /// line: an acked add missing from the join of the stores' sibling
    /// sets, an open guess, a skipped or double-applied clause edge, a
    /// planned crash not restarted or not filed as exactly one
    /// incident, a post-mortem whose causal slice lacks the crash it
    /// explains, a joiner outside the ring, a leaver not departed.
    pub fn check(&self) -> Result<(), String> {
        let mut broken = Vec::new();
        if !self.lost.is_empty() {
            let shown = &self.lost[..self.lost.len().min(10)];
            broken.push(format!("LOST ACKED ADDS (first 10): {shown:?}"));
        }
        if self.open_guesses > 0 {
            broken.push(format!("OPEN GUESSES AFTER QUIESCENCE: {}", self.open_guesses));
        }
        if let Some((crashes, edges)) = self.planned {
            if self.restarts != crashes || self.clause_edges != edges {
                broken.push(format!(
                    "CHAOS ACCOUNTING MISMATCH: {} restarts (want {crashes}), \
                     {} clause edges (want {edges})",
                    self.restarts, self.clause_edges
                ));
            }
            if self.incidents.len() as u64 != crashes {
                broken.push(format!(
                    "INCIDENT AUDIT FAILED: {} chaos-crash incident(s) filed (want {crashes})",
                    self.incidents.len()
                ));
            }
        }
        for (seq, node, edge) in &self.edgeless_incidents {
            broken.push(format!(
                "INCIDENT AUDIT FAILED: incident #{seq} (node n{}) slice is missing its \
                 crash edge E{}",
                node.0, edge.0
            ));
        }
        if let Some(j) = self.joiner.as_ref().filter(|j| !j.status.in_ring() || j.transfers != 0) {
            broken.push(format!(
                "JOIN AUDIT FAILED: n{} ended {:?} with {} transfer(s) unacked",
                j.node.0, j.status, j.transfers
            ));
        }
        if let Some(l) =
            self.leaver.as_ref().filter(|l| l.status.in_ring() || !l.departed || l.transfers != 0)
        {
            broken.push(format!(
                "LEAVE AUDIT FAILED: n{} ended {:?} (departed: {}) with {} transfer(s) unacked",
                l.node.0, l.status, l.departed, l.transfers
            ));
        }
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken.join("\n"))
        }
    }
}

fn audit_of(
    core: &EngineCore,
    stores: &[&StoreNode<CrdtCart>],
    acked: &[(u64, u64)],
    plan: Option<&FaultPlan>,
    joiner: Option<NodeId>,
    leaver: Option<NodeId>,
) -> ServiceAudit {
    // One join per key, however many adds it took.
    let mut reconciled: BTreeMap<u64, BTreeMap<u64, u32>> = BTreeMap::new();
    let lost = acked.iter().copied().filter(|&(key, item)| {
        let cart = reconciled.entry(key).or_insert_with(|| reconciled_cart(stores, key));
        !cart.contains_key(&item)
    });
    ServiceAudit {
        acked: acked.len() as u64,
        lost: lost.collect(),
        joiner: joiner.map(|j| MemberEnd::of(j, stores[j.0])),
        leaver: leaver.map(|l| MemberEnd::of(l, stores[l.0])),
        ..ServiceAudit::of_core(core, plan)
    }
}

/// Audit a shut-down service: `store_ids` as [`add_stores`] returned
/// them, `client_ids` the [`LoadClient`]s, `plan` the fault plan that
/// ran (if any), `joiner`/`leaver` the stores directed to change the
/// ring (if any).
pub fn audit(
    report: &RuntimeReport<ServiceMsg>,
    store_ids: &[NodeId],
    client_ids: &[NodeId],
    plan: Option<&FaultPlan>,
    joiner: Option<NodeId>,
    leaver: Option<NodeId>,
) -> ServiceAudit {
    let acked: Vec<(u64, u64)> = client_ids
        .iter()
        .flat_map(|&c| report.actor::<LoadClient>(c).acked_adds.iter().copied())
        .collect();
    audit_of(&report.core, &stores_of(report, store_ids), &acked, plan, joiner, leaver)
}

// --------------------------------------------------------------- shoppers

/// The runtime half of the sim-vs-runtime cross-checks (E19,
/// `tests/sim_vs_runtime.rs`): the stores, shopper plans and think time
/// of an ORSet `scenario` — what [`cart::run`] simulates — stood up on
/// the loopback transport. `during` runs once the cluster is live
/// (inject faults there). Returns (edits acked, the reconciled
/// materialized cart).
pub fn run_shoppers(
    scenario: &CartScenario,
    seed: u64,
    during: impl FnOnce(&Runtime<ServiceMsg>),
) -> (u64, BTreeMap<u64, u32>) {
    let mut b = RuntimeBuilder::new().seed(seed);
    let stores = add_stores(&mut b, scenario.n_stores, 0);
    let shoppers: Vec<NodeId> = (0u32..)
        .zip(&scenario.plans)
        .map(|(i, plan)| {
            let coords = stores.clone();
            b.add_node(CrdtShopper::new(i, CART_KEY, coords, plan.clone(), scenario.think))
        })
        .collect();
    let rt = b.launch();
    during(&rt);
    let timeout = Duration::from_secs(60);
    wait_done(&rt, &shoppers, CrdtShopper::done, timeout).expect("shoppers work through plans");
    settle(&rt, &stores, None, None, timeout).expect("no fault plan, no membership change");
    let report = rt.shutdown();
    let acked = shoppers.iter().map(|&s| report.actor::<CrdtShopper>(s).acked.len() as u64).sum();
    (acked, reconciled_cart(&stores_of(&report, &stores), CART_KEY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{CausalSlice, Explanation, Fault, FlightEvent, SpanStore};

    /// One crash clause with a restart: 1 crash, 2 timeline edges.
    fn plan() -> FaultPlan {
        FaultPlan::from_faults(vec![Fault::Crash {
            at: SimTime::from_millis(10),
            node: NodeId(1),
            restart_at: Some(SimTime::from_millis(20)),
        }])
    }

    /// An engine core as a run under [`plan`] leaves it: `edges` clause
    /// edges applied, one restart, and — per `incident` — no chaos-crash
    /// incident, or one whose slice does (`true`) or does not (`false`)
    /// contain the crash edge it explains.
    fn core(edges: u64, incident: Option<bool>) -> EngineCore {
        let mut core = EngineCore::new(0);
        core.metrics.inc("runtime.restarts");
        for _ in 0..edges {
            core.metrics.inc("runtime.chaos_clauses");
        }
        if let Some(with_edge) = incident {
            let target = FlightId(7);
            let crash = FlightEvent {
                id: target,
                at: SimTime::from_millis(10),
                kind: FlightKind::Crash,
                node: Some(NodeId(1)),
                from: None,
                span: None,
                cause: None,
                label: None,
                fields: Vec::new(),
            };
            let slice = CausalSlice {
                target,
                events: if with_edge { vec![crash] } else { Vec::new() },
                truncated: false,
                missing_ancestors: 0,
                total_recorded: 1,
            };
            core.incidents.push(
                NodeId(1),
                1,
                IncidentKind::ChaosCrash,
                SimTime::from_millis(10),
                target,
                Vec::new(),
                Explanation::new(0, slice, plan(), &SpanStore::new()),
            );
        }
        core
    }

    /// Audit `core` against three (empty) stores plus one standby.
    fn audited(core: &EngineCore, acked: &[(u64, u64)], joiner: Option<NodeId>) -> ServiceAudit {
        let nodes = crdt_store_nodes::<CrdtCart>(3, 1, &DynamoConfig::default());
        let stores: Vec<&StoreNode<CrdtCart>> = nodes.iter().collect();
        audit_of(core, &stores, acked, Some(&plan()), joiner, None)
    }

    #[test]
    fn check_passes_a_clean_run_and_rejects_each_broken_promise() {
        assert_eq!(audited(&core(2, Some(true)), &[], None).check(), Ok(()));
        let mut open_guess = core(2, Some(true));
        open_guess.ledger.open("cart.put", Some(NodeId(0)), "stale view", SimTime::ZERO);
        // Store 3 is the standby: never told to join, it is still Down.
        let standby = Some(NodeId(3));
        let cases = [
            // An acked add absent from every store.
            (core(2, Some(true)), vec![(3, 9)], None, "LOST ACKED ADDS (first 10): [(3, 9)]"),
            (open_guess, vec![], None, "OPEN GUESSES AFTER QUIESCENCE: 1"),
            // One clause edge skipped (`clause_edges > 0` used to pass).
            (
                core(1, Some(true)),
                vec![],
                None,
                "CHAOS ACCOUNTING MISMATCH: 1 restarts (want 1), 1 clause edges (want 2)",
            ),
            // A crash clause the black box missed.
            (
                core(2, None),
                vec![],
                None,
                "INCIDENT AUDIT FAILED: 0 chaos-crash incident(s) filed (want 1)",
            ),
            (
                core(2, Some(false)),
                vec![],
                None,
                "INCIDENT AUDIT FAILED: incident #0 (node n1) slice is missing its crash edge E7",
            ),
            (
                core(2, Some(true)),
                vec![],
                standby,
                "JOIN AUDIT FAILED: n3 ended Down with 0 transfer(s) unacked",
            ),
        ];
        for (core, acked, joiner, verdict) in &cases {
            assert_eq!(audited(core, acked, *joiner).check(), Err(verdict.to_string()));
        }
        // Several at once: one line each.
        let all = audited(&core(1, None), &[(3, 9)], standby).check().unwrap_err();
        assert_eq!(all.lines().count(), 4, "{all}");
    }

    #[test]
    fn wait_done_times_out_with_an_error() {
        struct Never;
        impl Actor<()> for Never {
            fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeId, _: ()) {}
        }
        let mut b = RuntimeBuilder::new();
        let n = b.add_node(Never);
        let rt = b.launch();
        let waited = wait_done(&rt, &[n], |_: &Never| false, Duration::from_millis(30));
        assert!(waited.is_err(), "{waited:?}");
        assert_eq!(wait_done(&rt, &[n], |_: &Never| true, Duration::ZERO), Ok(()));
        rt.shutdown();
    }
}
