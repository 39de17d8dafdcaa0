//! The E6 scenario: concurrent shoppers on one cart across a partition,
//! with convergence verification and anomaly accounting.
//!
//! The harness runs the same shopper plans in either of two cart
//! representations — [`CartMode::OpLog`] (the paper-faithful §6.1
//! operation ledger with canonical-order replay) or [`CartMode::OrSet`]
//! (the CRDT cart of [`crate::crdt_cart`]) — producing the same
//! [`CartReport`], so the §6.4 reappearing-delete anomaly becomes a
//! measured ablation rather than an anecdote.

use std::collections::BTreeMap;

use dynamo::{build_cluster, crdt_store_nodes, store_nodes, DynamoConfig, DynamoMsg, StoreNode};
use sim::chaos::FaultPlan;
use sim::{
    FlightRecorder, LedgerAccounting, MetricSet, NodeId, SimDuration, SimTime, Simulation,
    SpanStore,
};

use crate::crdt_cart::CrdtCart;
use crate::crdt_shopper::CrdtShopper;
use crate::op::{Cart, CartAction, CartBlob};
use crate::shopper::{AckedEdit, Shopper};
use crdt::Crdt;

/// Which cart representation the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CartMode {
    /// The paper-faithful §6.1 ledger: sibling reconciliation is op-set
    /// union and the view replays the union in uniquifier order —
    /// exhibiting the §6.4 reappearing-delete anomaly.
    #[default]
    OpLog,
    /// The ACID 2.0 cart: add-wins ORSet membership plus PN-counter
    /// quantities; reconciliation is the lattice join and the store
    /// squashes siblings server-side.
    OrSet,
}

/// Configuration of a cart scenario.
#[derive(Debug, Clone)]
pub struct CartScenario {
    /// Store configuration (quorums, sloppiness, gossip).
    pub dynamo: DynamoConfig,
    /// Cart representation (op-log ledger or CRDT).
    pub mode: CartMode,
    /// Number of stores.
    pub n_stores: u32,
    /// Shopper edit plans (one shopper each).
    pub plans: Vec<Vec<CartAction>>,
    /// Think time between a shopper's edits.
    pub think: SimDuration,
    /// Declarative fault timeline (partitions, crashes, degrades).
    pub faults: FaultPlan,
    /// Run until here.
    pub horizon: SimTime,
    /// Record the sim+app event trace (needed for JSONL export).
    pub trace: bool,
    /// Enable the forensic flight recorder (causal event graph). Off by
    /// default; chaos explainers re-run failing seeds with it on.
    pub flight: bool,
}

impl Default for CartScenario {
    fn default() -> Self {
        CartScenario {
            dynamo: DynamoConfig::default(),
            mode: CartMode::OpLog,
            n_stores: 5,
            plans: vec![
                vec![
                    CartAction::Add { item: 1, qty: 1 },
                    CartAction::Add { item: 2, qty: 2 },
                    CartAction::Remove { item: 1 },
                ],
                vec![
                    CartAction::Add { item: 3, qty: 1 },
                    CartAction::ChangeQty { item: 3, qty: 4 },
                    CartAction::Add { item: 1, qty: 5 },
                ],
            ],
            think: SimDuration::from_millis(50),
            faults: FaultPlan::none(),
            horizon: SimTime::from_secs(30),
            trace: false,
            flight: false,
        }
    }
}

impl CartScenario {
    /// The §6.4 ablation scenario: one shopper adds six SKUs, the other
    /// — after enough filler edits that every add has propagated —
    /// deletes each of them. Every delete therefore causally *observes*
    /// the add it deletes, yet in op-log mode the replay order is
    /// uniquifier order (a stable hash), so roughly half the deletes
    /// sort before the adds they observed and the items reappear. In
    /// ORSet mode an observed add can never survive its delete, so the
    /// same plans yield zero resurrections.
    pub fn contended(mode: CartMode) -> CartScenario {
        let filler = 100;
        let mut deleter = vec![
            CartAction::Add { item: filler, qty: 1 },
            CartAction::ChangeQty { item: filler, qty: 2 },
            CartAction::ChangeQty { item: filler, qty: 3 },
            CartAction::ChangeQty { item: filler, qty: 2 },
            CartAction::ChangeQty { item: filler, qty: 4 },
            CartAction::ChangeQty { item: filler, qty: 1 },
        ];
        deleter.extend((0..6).map(|item| CartAction::Remove { item }));
        let adder = (0..6).map(|item| CartAction::Add { item, qty: 1 }).collect();
        CartScenario { mode, plans: vec![deleter, adder], ..CartScenario::default() }
    }

    /// The engine cross-check workload (E19, `tests/sim_vs_runtime.rs`):
    /// three ORSet shoppers on four stores, eight adds each, all items
    /// distinct (shopper `i` adds `100*i + j` with quantity `j + 1`).
    /// Add-only keeps the reconciled view schedule-independent — the
    /// OR-Set join is commutative and no remove can race an add — so
    /// the simulator and the wall-clock runtime must agree on it.
    pub fn distinct_adds() -> CartScenario {
        let add = |i: u64, j: u64| CartAction::Add { item: 100 * i + j, qty: j as u32 + 1 };
        CartScenario {
            mode: CartMode::OrSet,
            n_stores: 4,
            plans: (0..3).map(|i| (0..8).map(|j| add(i, j)).collect()).collect(),
            think: SimDuration::from_millis(5),
            ..CartScenario::default()
        }
    }

    /// One two-sided `Fault::Partition` clause over `[at, until)` that
    /// cuts the scenario in half: the store fleet split down the middle,
    /// shoppers dealt alternately — each shopper coordinates only
    /// through its own half's stores, so it is cut off along with them.
    /// (Stores are nodes `0..n_stores`; shoppers follow in plan order.)
    pub fn split(&self, at: SimTime, until: SimTime) -> FaultPlan {
        let n = self.n_stores as usize;
        let (mut left, mut right): (Vec<NodeId>, Vec<NodeId>) =
            (0..n).map(NodeId).partition(|s| s.0 < n.div_ceil(2));
        for i in 0..self.plans.len() {
            let side = if i % 2 == 0 { &mut left } else { &mut right };
            side.push(NodeId(n + i));
        }
        FaultPlan::partition_window(at, until, &left, &right)
    }
}

/// What the scenario measured.
#[derive(Debug, Clone, Default)]
pub struct CartReport {
    /// Edits acknowledged to shoppers.
    pub edits_acked: u64,
    /// Acked edits missing from the converged ledger — must be zero:
    /// "items added to the cart will not be lost" (§6.4).
    pub lost_edits: u64,
    /// GETs that surfaced siblings for the application to reconcile.
    pub sibling_reconciliations: u64,
    /// GETs that failed; the shopper proceeded on an empty view.
    pub get_failures: u64,
    /// PUTs that failed outright.
    pub put_failures: u64,
    /// PUT attempts (availability denominator).
    pub put_attempts: u64,
    /// Items in the final cart whose latest real-time acked edit was a
    /// Remove — the documented resurrection anomaly (§6.4).
    pub resurrected_items: u64,
    /// The converged materialized cart.
    pub final_cart: BTreeMap<u64, u32>,
    /// True if all replicas converged to the same sibling set.
    pub converged: bool,
    /// Metrics the simulator gathered (`cart.*`, `dynamo.*`, `net.*`).
    pub metrics: MetricSet,
    /// Every span the run recorded: `cart.edit` → `dynamo.put`/`get` →
    /// `net.hop` causal trees with per-hop latency.
    pub spans: SpanStore,
    /// The sim+app event trace as JSONL, when `CartScenario::trace` was
    /// set.
    pub trace_jsonl: Option<String>,
    /// Guess/apology accounting (`cart.put` guesses: edits acted on a
    /// possibly-stale view).
    pub ledger: LedgerAccounting,
    /// The causal event graph, when `CartScenario::flight` was set.
    pub flight: Option<FlightRecorder>,
}

impl CartReport {
    /// Fraction of PUT attempts that succeeded.
    pub fn put_availability(&self) -> f64 {
        if self.put_attempts == 0 {
            1.0
        } else {
            1.0 - self.put_failures as f64 / self.put_attempts as f64
        }
    }
}

/// The cart key every shopper edits.
pub const CART_KEY: u64 = 777;

/// Per-item wall-clock-latest acked edit: (ack time, was it a remove).
fn latest_acked(acked: &[AckedEdit]) -> BTreeMap<u64, (SimTime, bool)> {
    let mut latest: BTreeMap<u64, (SimTime, bool)> = BTreeMap::new();
    for e in acked {
        let is_remove =
            matches!(e.action, CartAction::Remove { .. } | CartAction::ChangeQty { qty: 0, .. });
        let entry = latest.entry(e.action.item()).or_insert((e.at, is_remove));
        if e.at >= entry.0 {
            *entry = (e.at, is_remove);
        }
    }
    latest
}

/// Resurrections: items present although their latest acked edit removed
/// them (§6.4: "occasionally deleted items will reappear").
fn count_resurrections(acked: &[AckedEdit], final_cart: &Cart) -> u64 {
    latest_acked(acked)
        .iter()
        .filter(|(item, (_, removed_last))| *removed_last && final_cart.contains_key(item))
        .count() as u64
}

/// Run a cart scenario and verify convergence.
pub fn run(scenario: &CartScenario, seed: u64) -> CartReport {
    match scenario.mode {
        CartMode::OpLog => run_oplog(scenario, seed),
        CartMode::OrSet => run_orset(scenario, seed),
    }
}

/// The half of a run both cart representations share: the simulation
/// with its recorders, the store cluster, one shopper per plan attached
/// to its own half of the store fleet (so a [`CartScenario::split`]
/// separates shoppers along with their stores), the fault plan, and
/// the run itself. Returns the finished simulation, the store nodes
/// and the shopper nodes.
fn drive<V, A>(
    scenario: &CartScenario,
    seed: u64,
    stores: Vec<StoreNode<V>>,
    shopper: impl Fn(u32, Vec<NodeId>, Vec<CartAction>) -> A,
) -> (Simulation<DynamoMsg<V>>, Vec<NodeId>, Vec<NodeId>)
where
    V: Clone + std::fmt::Debug + 'static,
    A: sim::Actor<DynamoMsg<V>>,
{
    let mut sim = Simulation::new(seed);
    if scenario.trace {
        sim.enable_trace(1 << 20);
    }
    if scenario.flight {
        sim.enable_flight(1 << 16);
    }
    let stores = build_cluster(&mut sim, stores).stores;
    let (left, right) = stores.split_at(stores.len().div_ceil(2));
    let mut shoppers = Vec::new();
    for (i, plan) in scenario.plans.iter().enumerate() {
        let coords = if i % 2 == 0 { left } else { right };
        shoppers.push(sim.add_node(shopper(i as u32, coords.to_vec(), plan.clone())));
    }
    scenario.faults.apply(&mut sim);
    sim.run_until(scenario.horizon);
    (sim, stores, shoppers)
}

/// Move the run's observability state into the report.
fn observe<M: Clone + 'static>(mut sim: Simulation<M>, mut report: CartReport) -> CartReport {
    sim.export_ledger_metrics();
    report.ledger = sim.ledger().accounting();
    report.metrics = sim.metrics().clone();
    report.spans = sim.spans().clone();
    report.trace_jsonl = sim.trace().map(|t| t.to_jsonl());
    report.flight = sim.take_flight();
    report
}

fn run_oplog(scenario: &CartScenario, seed: u64) -> CartReport {
    let nodes = store_nodes(scenario.n_stores, 0, &scenario.dynamo);
    let (sim, stores, shopper_nodes) = drive(scenario, seed, nodes, |i, coords, plan| {
        Shopper::new(i, CART_KEY, coords, plan, scenario.think)
    });

    let mut report = CartReport::default();

    // Collect shopper-side accounting.
    let mut acked = Vec::new();
    for n in &shopper_nodes {
        let s: &Shopper = sim.actor(*n);
        report.edits_acked += s.acked.len() as u64;
        report.get_failures += s.get_failures;
        report.put_failures += s.put_failures;
        report.put_attempts += s.put_attempts;
        report.sibling_reconciliations += s.sibling_gets;
        acked.extend(s.acked.iter().cloned());
    }

    // Converged ledger: union across every store's sibling set.
    let mut ledger = CartBlob::new();
    for s in &stores {
        let node: &StoreNode<CartBlob> = sim.actor(*s);
        for v in node.versions(CART_KEY) {
            ledger.merge(&v.value);
        }
    }
    // Convergence: every store holds an equivalent sibling set.
    report.converged = {
        let reference = sim.actor::<StoreNode<CartBlob>>(stores[0]).versions(CART_KEY).to_vec();
        stores.iter().all(|s| {
            let node: &StoreNode<CartBlob> = sim.actor(*s);
            dynamo::same_versions(node.versions(CART_KEY), &reference)
        })
    };

    // Lost edits: acked but absent from the union.
    for e in &acked {
        if !ledger.contains(e.id) {
            report.lost_edits += 1;
        }
    }

    report.final_cart = ledger.materialize();
    report.resurrected_items = count_resurrections(&acked, &report.final_cart);
    observe(sim, report)
}

fn run_orset(scenario: &CartScenario, seed: u64) -> CartReport {
    // The CRDT stores squash sibling sets server-side — sound here
    // because CrdtCart's merge is the application's reconciliation.
    let nodes = crdt_store_nodes(scenario.n_stores, 0, &scenario.dynamo);
    let (sim, stores, shopper_nodes) = drive(scenario, seed, nodes, |i, coords, plan| {
        CrdtShopper::new(i, CART_KEY, coords, plan, scenario.think)
    });

    let mut report = CartReport::default();

    let mut acked = Vec::new();
    for n in &shopper_nodes {
        let s: &CrdtShopper = sim.actor(*n);
        report.edits_acked += s.acked.len() as u64;
        report.get_failures += s.get_failures;
        report.put_failures += s.put_failures;
        report.put_attempts += s.put_attempts;
        report.sibling_reconciliations += s.sibling_gets;
        acked.extend(s.acked.iter().cloned());
    }

    // The converged cart: the join across every store's versions.
    let mut joined = CrdtCart::new();
    let mut per_store: Vec<CrdtCart> = Vec::new();
    for s in &stores {
        let node: &StoreNode<CrdtCart> = sim.actor(*s);
        let mut local = CrdtCart::new();
        for v in node.versions(CART_KEY) {
            local.merge(&v.value);
        }
        joined.merge(&local);
        per_store.push(local);
    }
    // Convergence for a CRDT store is *value* convergence: every store's
    // joined state is the same lattice point (squash dots may differ
    // transiently, the value may not).
    report.converged = per_store.iter().all(|c| *c == per_store[0]);

    report.final_cart = joined.materialize();

    // Lost edits: an acked Add whose item vanished although no
    // later-acked edit removed it.
    let latest = latest_acked(&acked);
    for e in &acked {
        if let CartAction::Add { item, .. } = e.action {
            let removed_later = latest.get(&item).map(|(_, r)| *r).unwrap_or(false);
            if !removed_later && !report.final_cart.contains_key(&item) {
                report.lost_edits += 1;
            }
        }
    }

    report.resurrected_items = count_resurrections(&acked, &report.final_cart);
    observe(sim, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(at: SimTime, until: SimTime) -> FaultPlan {
        CartScenario::default().split(at, until)
    }

    #[test]
    fn calm_scenario_converges_with_no_anomalies() {
        let r = run(&CartScenario::default(), 3);
        assert_eq!(r.edits_acked, 6, "{r:?}");
        assert_eq!(r.lost_edits, 0);
        assert!(r.converged, "{r:?}");
        assert_eq!(r.put_availability(), 1.0);
        // Plan: shopper 0 adds 1, adds 2, removes 1; shopper 1 adds 3,
        // changes 3→4, adds 1(qty 5). Item 2 is uncontended; item 3 must
        // be present but its quantity depends on the canonical order of
        // the ChangeQty relative to the Add (op-reordering semantics:
        // the replay order is uniquifier order, not wall-clock order).
        assert_eq!(r.final_cart.get(&2), Some(&2));
        assert!(matches!(r.final_cart.get(&3), Some(1) | Some(4)), "{r:?}");
    }

    #[test]
    fn partition_is_ridden_out_and_every_edit_survives() {
        let scenario = CartScenario {
            faults: split(SimTime::from_millis(20), SimTime::from_secs(5)),
            horizon: SimTime::from_secs(40),
            ..CartScenario::default()
        };
        let r = run(&scenario, 5);
        assert_eq!(r.edits_acked, 6, "all edits eventually ack: {r:?}");
        assert_eq!(r.lost_edits, 0, "union loses nothing: {r:?}");
        assert!(r.converged, "gossip must reconverge after heal: {r:?}");
    }

    #[test]
    fn strict_quorum_store_fails_puts_under_partition() {
        let scenario = CartScenario {
            dynamo: DynamoConfig { sloppy: false, ..DynamoConfig::default() },
            faults: split(SimTime::from_millis(20), SimTime::from_secs(10)),
            horizon: SimTime::from_secs(40),
            ..CartScenario::default()
        };
        let sloppy = CartScenario {
            faults: split(SimTime::from_millis(20), SimTime::from_secs(10)),
            horizon: SimTime::from_secs(40),
            ..CartScenario::default()
        };
        let strict_r = run(&scenario, 8);
        let sloppy_r = run(&sloppy, 8);
        assert!(
            strict_r.put_failures > sloppy_r.put_failures,
            "strict {strict_r:?} vs sloppy {sloppy_r:?}"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(&CartScenario::default(), 11);
        let b = run(&CartScenario::default(), 11);
        assert_eq!(a.edits_acked, b.edits_acked);
        assert_eq!(a.final_cart, b.final_cart);
    }

    #[test]
    fn orset_calm_scenario_converges_with_no_anomalies() {
        let r = run(&CartScenario { mode: CartMode::OrSet, ..CartScenario::default() }, 3);
        assert_eq!(r.edits_acked, 6, "{r:?}");
        assert_eq!(r.lost_edits, 0, "{r:?}");
        assert_eq!(r.resurrected_items, 0, "{r:?}");
        assert!(r.converged, "{r:?}");
        assert_eq!(r.put_availability(), 1.0);
        assert_eq!(r.final_cart.get(&2), Some(&2));
        // Unlike replay order, the CRDT cart applies ChangeQty to the
        // observed state, so item 3's quantity is deterministic.
        assert_eq!(r.final_cart.get(&3), Some(&4), "{r:?}");
    }

    #[test]
    fn orset_deterministic() {
        let scenario = CartScenario { mode: CartMode::OrSet, ..CartScenario::default() };
        let a = run(&scenario, 11);
        let b = run(&scenario, 11);
        assert_eq!(a.edits_acked, b.edits_acked);
        assert_eq!(a.final_cart, b.final_cart);
    }

    #[test]
    fn orset_rides_out_a_partition_without_losing_adds() {
        let scenario = CartScenario {
            mode: CartMode::OrSet,
            faults: split(SimTime::from_millis(20), SimTime::from_secs(5)),
            horizon: SimTime::from_secs(40),
            ..CartScenario::default()
        };
        let r = run(&scenario, 5);
        assert_eq!(r.edits_acked, 6, "all edits eventually ack: {r:?}");
        assert_eq!(r.lost_edits, 0, "add-wins loses nothing: {r:?}");
        assert!(r.converged, "gossip must reconverge after heal: {r:?}");
    }

    #[test]
    fn the_ablation_oplog_resurrects_deletes_and_orset_does_not() {
        // Same seed, same plans, only the cart representation differs.
        let seed = 21;
        let oplog = run(&CartScenario::contended(CartMode::OpLog), seed);
        let orset = run(&CartScenario::contended(CartMode::OrSet), seed);
        assert!(oplog.converged && orset.converged, "{oplog:?}\n{orset:?}");
        assert_eq!(oplog.lost_edits, 0);
        assert_eq!(orset.lost_edits, 0, "{orset:?}");
        assert!(oplog.resurrected_items > 0, "op-log replay must reproduce §6.4: {oplog:?}");
        assert_eq!(
            orset.resurrected_items, 0,
            "an observed-remove can never be replay-inverted: {orset:?}"
        );
    }
}
