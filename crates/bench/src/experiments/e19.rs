//! E19: the same unmodified cart actors on both engines.
//!
//! The tentpole claim of the runtime subsystem: a [`sim::Actor`] written
//! once runs under the deterministic simulator *and* under the
//! wall-clock multi-threaded runtime with no `#[cfg]` forks, and the
//! application-level outcome — which acked edits survive into the
//! reconciled cart — is the same. E19 runs one fixed add-only workload
//! ([`CartScenario::distinct_adds`]: distinct items, so the reconciled
//! view is schedule-independent) through [`cart::harness::run`] on the simulator and through the same
//! [`dynamo::StoreNode`]/[`cart::CrdtShopper`] actors on the runtime's
//! loopback transport ([`quicksand::service::run_shoppers`]), then
//! compares the reconciled item sets.
//!
//! Only schedule-independent columns are reported (counts and set
//! equality, never timings), so the table stays byte-deterministic even
//! though the runtime half really runs on OS threads and a host clock.

use cart::CartScenario;
use quicksand::service::run_shoppers;
use sim::SimTime;

use crate::table::Table;

/// E19: sim-vs-runtime cross-check on the shared actor contract.
pub fn e19(seed: u64) -> Table {
    let mut t = Table::new(
        "E19",
        "One actor contract, two engines: sim vs wall-clock runtime",
        "\"the application is responsible for its own consistency\" — and that responsibility is \
         engine-independent: the same unmodified store and shopper actors must keep the §6.4 \
         no-lost-adds promise whether the machinery underneath is a deterministic simulation or \
         OS threads, sockets, and a host clock",
        &["engine", "edits acked", "lost acked adds", "cart items", "item set matches sim"],
    );

    let scenario =
        CartScenario { horizon: SimTime::from_secs(30), ..CartScenario::distinct_adds() };
    let sim_report = cart::run(&scenario, seed);
    let sim_items: Vec<u64> = sim_report.final_cart.keys().copied().collect();
    t.row(vec![
        "sim (deterministic)".into(),
        sim_report.edits_acked.to_string(),
        sim_report.lost_edits.to_string(),
        sim_report.final_cart.len().to_string(),
        "-".into(),
    ]);

    let (rt_acked, rt_cart) = run_shoppers(&scenario, seed, |_| {});
    let rt_items: Vec<u64> = rt_cart.keys().copied().collect();
    // Acked adds must all survive; with distinct add-only items the two
    // engines' reconciled item sets must be identical.
    let total_planned: u64 = scenario.plans.iter().map(|p| p.len() as u64).sum();
    let lost = total_planned.saturating_sub(rt_cart.len() as u64);
    t.row(vec![
        "runtime (wall-clock)".into(),
        rt_acked.to_string(),
        lost.to_string(),
        rt_cart.len().to_string(),
        if rt_items == sim_items { "yes" } else { "NO" }.to_string(),
    ]);
    t
}
