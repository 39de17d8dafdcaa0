//! The wall-clock chaos acceptance test: a [`FaultPlan`] with one store
//! crash, one partition, and one degraded link runs against the *live*
//! TCP cart service under closed-loop client traffic, and the paper's
//! invariant holds — no acked add is lost, no guess stays open after
//! quiescence — while the chaos layer accounts for every clause it
//! applied. Ephemeral ports only (`launch_tcp` binds port 0 per node),
//! so these run in parallel with the other service tests.

use std::time::Duration;

use quicksand::service::{add_stores, audit, fault_spec, settle, wait_done, LoadClient};
use quicksand_runtime::RuntimeBuilder;
use sim::{Fault, FaultPlan, LinkConfig, NodeId, SimDuration, SimTime};

const STORES: u32 = 4;
const CLIENTS: u32 = 2;
const KEYS: u64 = 32;

/// Launch the TCP cart service under `plan`, drive `ops_per_client`
/// closed-loop ops per client, settle, shut down, and require the
/// audit to pass: nothing acked lost, ledger settled, every clause edge
/// applied exactly once, every crash clause restarted and filed as one
/// incident. Returns the clause edges as applied.
fn run_service(plan: &FaultPlan, seed: u64, ops_per_client: u64) -> Vec<String> {
    let mut b = RuntimeBuilder::new().chaos(plan.clone(), seed);
    let store_ids = add_stores(&mut b, STORES, 0);
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|c| b.add_node(LoadClient::new(c, store_ids.clone(), ops_per_client, KEYS, 60)))
        .collect();
    let rt = b.launch_tcp().expect("tcp launch on ephemeral ports");
    wait_done(&rt, &clients, LoadClient::done, Duration::from_secs(90))
        .expect("clients stalled under the fault plan");
    settle(&rt, &store_ids, None, None, Duration::from_secs(60))
        .expect("fault plan never finished");
    let applied = rt.chaos().expect("chaos attached").applied();
    let a = audit(&rt.shutdown(), &store_ids, &clients, Some(plan), None, None);
    assert!(a.acked > 0, "the workload acked nothing — test proves nothing");
    a.check().expect("the service broke a promise");
    applied
}

/// The ISSUE's acceptance plan, written out clause by clause: crash a
/// store (with restart), partition the ring down the middle, and run a
/// lossy duplicating link — all overlapping the client traffic.
fn explicit_plan() -> FaultPlan {
    FaultPlan::from_faults(vec![
        Fault::Crash {
            at: SimTime::from_millis(200),
            node: NodeId(1),
            restart_at: Some(SimTime::from_millis(650)),
        },
        Fault::Partition {
            at: SimTime::from_millis(300),
            until: SimTime::from_millis(850),
            left: vec![NodeId(0), NodeId(1)],
            right: vec![NodeId(2), NodeId(3)],
        },
        Fault::Degrade {
            at: SimTime::from_millis(350),
            until: SimTime::from_millis(950),
            a: NodeId(0),
            b: NodeId(3),
            link: LinkConfig {
                latency_min: SimDuration::from_millis(1),
                latency_max: SimDuration::from_millis(8),
                drop_prob: 0.4,
                duplicate_prob: 0.2,
            },
        },
    ])
}

#[test]
fn acked_adds_survive_crash_partition_and_degrade_on_live_tcp() {
    run_service(&explicit_plan(), 0xACCE97, 900);
}

#[test]
fn generated_covering_plan_replays_identically_and_stays_lossless() {
    // A generated plan (reproducible from its seed alone) that is
    // guaranteed to exercise crash, partition, and degrade.
    let spec = fault_spec(STORES, CLIENTS, 1000, 3);
    let seed = FaultPlan::covering_seed(0, &spec);
    let plan = FaultPlan::generate(seed, &spec);
    assert!(plan.count_kind("crash") >= 1);
    assert!(plan.count_kind("partition") >= 1);
    assert!(plan.count_kind("degrade") >= 1);

    let first = run_service(&plan, seed, 500);
    // The reproducibility contract: same seed, same plan, same applied
    // clause sequence — and both runs keep every promise.
    assert_eq!(first, quicksand_runtime::rendered_timeline(&plan));
    assert_eq!(first, run_service(&plan, seed, 300));
}
