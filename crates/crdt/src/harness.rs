//! Experiment harness: a fleet of [`Replicated`] OR-Sets converging
//! through lossy links and a partition, instrumented for the
//! delta-vs-full-state ablation (`crdt_exp`).
//!
//! The driver runs the simulation in short slices and records the first
//! instant at which every replica holds the *same* state with every
//! local plan exhausted — the convergence time anti-entropy modes are
//! compared at. Bytes-on-wire come from the `crdt.bytes_sent` counters
//! the actor meters through [`Crdt::wire_size`].

use sim::{LinkConfig, MetricSet, Network, NodeId, SimDuration, SimTime, Simulation, SpanStore};

use crate::orset::ORSet;
use crate::replicated::{CrdtMsg, Mutator, Replicated, ReplicatedConfig, ShipMode};

/// Scenario for one replication run.
#[derive(Clone, Debug)]
pub struct ReplicationScenario {
    /// Number of replicas (full mesh).
    pub n_replicas: usize,
    /// Local plan steps per replica (a deterministic add/remove mix).
    pub ops_per_replica: usize,
    /// How anti-entropy ships state.
    pub ship_mode: ShipMode,
    /// Interval between plan steps.
    pub think: SimDuration,
    /// Interval between anti-entropy rounds.
    pub sync_every: SimDuration,
    /// Delta-buffer cap (see [`ReplicatedConfig::max_buffer`]).
    pub max_buffer: usize,
    /// Link characteristics between replicas.
    pub link: LinkConfig,
    /// Optional partition window splitting the fleet in half.
    pub partition: Option<(SimTime, SimTime)>,
    /// Hard stop.
    pub horizon: SimTime,
}

impl Default for ReplicationScenario {
    fn default() -> Self {
        ReplicationScenario {
            n_replicas: 5,
            ops_per_replica: 40,
            ship_mode: ShipMode::Delta,
            think: SimDuration::from_millis(10),
            sync_every: SimDuration::from_millis(25),
            max_buffer: 1024,
            link: LinkConfig::lossy(SimDuration::from_millis(1), SimDuration::from_millis(5), 0.05),
            partition: None,
            horizon: SimTime::from_secs(30),
        }
    }
}

/// What one replication run produced.
#[derive(Debug)]
pub struct ReplicationReport {
    /// True if every replica held the same state before the horizon.
    pub converged: bool,
    /// First slice boundary at which the fleet was converged.
    pub converged_at: Option<SimTime>,
    /// Total anti-entropy payload shipped (all kinds).
    pub bytes_shipped: u64,
    /// Bytes shipped as delta groups.
    pub delta_bytes: u64,
    /// Bytes shipped as full states.
    pub full_bytes: u64,
    /// Number of delta-group ships.
    pub delta_ships: u64,
    /// Number of full-state ships (baseline rounds or fallbacks).
    pub full_ships: u64,
    /// Full-state ships forced by a peer lagging the delta buffer.
    pub full_fallbacks: u64,
    /// Elements present in the converged set.
    pub final_elements: usize,
    /// The run's metrics (JSON-exportable).
    pub metrics: MetricSet,
    /// The run's span store.
    pub spans: SpanStore,
}

/// The deterministic per-replica workload: a mix of adds and removes
/// over a small element space, varied by replica id so the sets
/// genuinely conflict. Every fourth step removes the element added two
/// steps earlier (if still present), so removes race adds across
/// replicas — the §6.4 shape.
fn orset_plan(replica: u64, ops: usize) -> Vec<Mutator<ORSet<u64>>> {
    (0..ops)
        .map(|k| {
            let step: Mutator<ORSet<u64>> = if k % 4 == 3 {
                let element = (replica * 3 + k as u64 - 2) % 16;
                Box::new(move |s: &mut ORSet<u64>| s.remove(&element))
            } else {
                let element = (replica * 3 + k as u64) % 16;
                Box::new(move |s: &mut ORSet<u64>| s.insert(replica, element))
            };
            step
        })
        .collect()
}

/// Run a fleet of OR-Set replicas under `scenario` and measure
/// convergence and bytes-on-wire.
pub fn run_orset_replication(scenario: &ReplicationScenario, seed: u64) -> ReplicationReport {
    let net = Network::new(scenario.link);
    let mut sim: Simulation<CrdtMsg<ORSet<u64>>> = Simulation::with_network(seed, net);

    let nodes: Vec<NodeId> = (0..scenario.n_replicas).map(NodeId).collect();
    for (i, &me) in nodes.iter().enumerate() {
        let peers: Vec<NodeId> = nodes.iter().copied().filter(|&p| p != me).collect();
        let cfg = ReplicatedConfig {
            ship_mode: scenario.ship_mode,
            think: scenario.think,
            sync_every: scenario.sync_every,
            max_buffer: scenario.max_buffer,
        };
        let plan = orset_plan(i as u64, scenario.ops_per_replica);
        sim.add_node(Replicated::new(i as u64, peers, plan, cfg));
    }

    if let Some((start, end)) = scenario.partition {
        let mid = scenario.n_replicas / 2;
        sim.schedule_partition(start, &nodes[..mid], &nodes[mid..]);
        sim.schedule_heal(end);
    }

    // Run in slices; stop at the first boundary where every plan has
    // drained and every replica holds the same state.
    let slice = SimDuration::from_millis(5);
    let mut converged_at = None;
    let mut t = SimTime::ZERO;
    while t < scenario.horizon {
        t += slice;
        sim.run_until(t);
        let all_done = nodes.iter().all(|&n| sim.actor::<Replicated<ORSet<u64>>>(n).plan_done());
        if !all_done {
            continue;
        }
        let first = sim.actor::<Replicated<ORSet<u64>>>(nodes[0]).state();
        if nodes[1..].iter().all(|&n| sim.actor::<Replicated<ORSet<u64>>>(n).state() == first) {
            converged_at = Some(t);
            break;
        }
    }

    let metrics = sim.metrics().clone();
    let final_elements = sim.actor::<Replicated<ORSet<u64>>>(nodes[0]).state().len();
    ReplicationReport {
        converged: converged_at.is_some(),
        converged_at,
        bytes_shipped: metrics.counter("crdt.bytes_sent"),
        delta_bytes: metrics.counter_with("crdt.bytes_sent", &[("kind", "delta")]),
        full_bytes: metrics.counter_with("crdt.bytes_sent", &[("kind", "full")]),
        delta_ships: metrics.counter("crdt.ship.delta"),
        full_ships: metrics.counter("crdt.ship.full"),
        full_fallbacks: metrics.counter("crdt.full_fallback"),
        final_elements,
        metrics,
        spans: sim.spans().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_fleet_converges_through_loss() {
        let scenario = ReplicationScenario::default();
        let report = run_orset_replication(&scenario, 42);
        assert!(report.converged, "fleet must converge before the horizon");
        assert!(report.delta_ships > 0);
        assert!(report.bytes_shipped > 0);
    }

    #[test]
    fn full_state_fleet_converges_but_ships_more_bytes() {
        let mut scenario = ReplicationScenario::default();
        let delta = run_orset_replication(&scenario, 42);
        scenario.ship_mode = ShipMode::FullState;
        let full = run_orset_replication(&scenario, 42);
        assert!(full.converged);
        assert!(delta.converged);
        assert!(
            delta.bytes_shipped < full.bytes_shipped,
            "delta {} >= full {}",
            delta.bytes_shipped,
            full.bytes_shipped
        );
    }

    #[test]
    fn partition_forces_full_state_fallback_and_still_converges() {
        let scenario = ReplicationScenario {
            partition: Some((SimTime::from_millis(50), SimTime::from_millis(400))),
            max_buffer: 4,
            ..ReplicationScenario::default()
        };
        let report = run_orset_replication(&scenario, 7);
        assert!(report.converged, "fleet must reconverge after the heal");
        assert!(
            report.full_fallbacks > 0,
            "a 4-delta buffer across a 350ms partition must overflow"
        );
    }

    #[test]
    fn anti_entropy_rounds_are_spanned() {
        let report = run_orset_replication(&ReplicationScenario::default(), 11);
        assert!(report.spans.spans().any(|s| s.name == "crdt.anti_entropy"));
    }
}
