//! Cross-validation of the two engines on the same unmodified actors:
//! the deterministic simulator and the wall-clock multi-threaded
//! runtime both drive [`dynamo::StoreNode`] + [`cart::CrdtShopper`]
//! through an identical workload, and the application-level outcome —
//! which acked edits survive into the reconciled cart — must agree.
//!
//! Two checks:
//! 1. fault-free: the reconciled materialized carts are *exactly*
//!    equal (same items, same quantities);
//! 2. with an induced crash+restart of one store on both engines:
//!    the reconciled item sets are equal and **zero acked adds are
//!    lost** — the §6.4 promise, engine-independent.
//!
//! The workload is add-only with distinct items so the reconciled view
//! is schedule-independent (the OR-Set join is commutative and no
//! remove can race an add); quantities may legitimately exceed the
//! plan under faults because a shopper that retries an unacked edit
//! re-applies it (at-least-once on purpose — §5's "at-least-once +
//! idempotence", where membership, not count, is the idempotent part).

use std::collections::BTreeMap;
use std::time::Duration;

use cart::{CartAction, CartScenario};
use quicksand::service::run_shoppers;
use sim::{Fault, FaultPlan, NodeId, SimTime};

fn scenario(faults: FaultPlan) -> CartScenario {
    CartScenario { horizon: SimTime::from_secs(60), faults, ..CartScenario::distinct_adds() }
}

/// Total quantity each planned item should reach when applied exactly
/// once (retries may inflate it, never deflate it).
fn planned_qtys() -> BTreeMap<u64, u32> {
    let mut m = BTreeMap::new();
    for plan in scenario(FaultPlan::none()).plans {
        for a in plan {
            if let CartAction::Add { item, qty } = a {
                m.insert(item, qty);
            }
        }
    }
    m
}

#[test]
fn fault_free_runs_agree_exactly() {
    let seed = 0xC1DE2009;
    let scenario = scenario(FaultPlan::none());
    let sim = cart::run(&scenario, seed);
    assert_eq!(sim.lost_edits, 0, "sim lost acked edits fault-free");

    let (rt_acked, rt_cart) = run_shoppers(&scenario, seed, |_| {});

    let total_planned: u64 = scenario.plans.iter().map(|p| p.len() as u64).sum();
    assert_eq!(rt_acked, total_planned, "every planned edit must ack");
    // Fault-free on a reliable loopback there are no retries, so the
    // reconciled carts agree item-for-item *and* quantity-for-quantity.
    assert_eq!(rt_cart, sim.final_cart, "reconciled carts diverged between engines");
}

#[test]
fn induced_crash_loses_no_acked_adds_on_either_engine() {
    let seed = 0xDEAD2009;
    let victim = NodeId(1);

    // Sim half: crash store 1 at t=30ms, restart at t=130ms.
    let faults = FaultPlan::from_faults(vec![Fault::Crash {
        at: SimTime::from_millis(30),
        node: victim,
        restart_at: Some(SimTime::from_millis(130)),
    }]);
    let sim = cart::run(&scenario(faults), seed);
    assert_eq!(sim.lost_edits, 0, "sim lost acked edits under crash");

    // Runtime half: same crash/restart induced in wall time.
    let (rt_acked, rt_cart) = run_shoppers(&scenario(FaultPlan::none()), seed, |rt| {
        std::thread::sleep(Duration::from_millis(30));
        rt.crash(victim);
        std::thread::sleep(Duration::from_millis(100));
        rt.restart(victim);
    });

    // The §6.4 promise on both engines: nothing acked may be lost.
    // With distinct add-only items both reconciled item *sets* are the
    // full plan; quantities may exceed the plan on either engine when a
    // timed-out edit was retried (at-least-once), so only the lower
    // bound is engine-independent.
    let planned = planned_qtys();
    let sim_items: Vec<u64> = sim.final_cart.keys().copied().collect();
    let rt_items: Vec<u64> = rt_cart.keys().copied().collect();
    let want: Vec<u64> = planned.keys().copied().collect();
    assert_eq!(sim_items, want, "sim cart item set incomplete under crash");
    assert_eq!(rt_items, want, "runtime cart item set incomplete under crash");
    assert!(rt_acked >= planned.len() as u64, "every planned edit must ack at least once");
    for (item, qty) in &planned {
        assert!(
            rt_cart[item] >= *qty,
            "item {item} qty {} below planned {qty} on the runtime",
            rt_cart[item]
        );
        assert!(
            sim.final_cart[item] >= *qty,
            "item {item} qty {} below planned {qty} on the sim",
            sim.final_cart[item]
        );
    }
}
