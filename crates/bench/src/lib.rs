//! # bench — the experiment harness for the *Building on Quicksand*
//! reproduction.
//!
//! The paper is a position essay with no tables or figures, so the
//! evaluation here is the derived suite defined in DESIGN.md: every
//! qualitative claim becomes a table (E1–E16 plus ablations), and
//! EXPERIMENTS.md records each table alongside the paper's prediction.
//!
//! Regenerate everything with `cargo run -p quicksand-bench --release --bin report`
//! or a single table with `... --bin report -- e7`. Criterion
//! micro-benchmarks of the hot data structures live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cli;
pub mod experiments;
pub mod http;
pub mod incidents;
pub mod table;

pub use table::{metrics_appendix, Table};

/// The default seed used by the report binary (any seed works; tables
/// are deterministic per seed).
pub const DEFAULT_SEED: u64 = 20090107; // CIDR '09: January 7, 2009

/// Run every experiment and return the tables in report order.
pub fn all_tables(seed: u64) -> Vec<Table> {
    use experiments::*;
    vec![
        tandem_exp::e1(seed),
        tandem_exp::e2(seed),
        tandem_exp::e3(seed),
        logship_exp::e4(seed),
        logship_exp::e5(seed),
        cart_exp::e6(seed),
        bank_exp::e7(seed),
        bank_exp::e8(seed),
        escrow_exp::e9(seed),
        stock_exp::e10(seed),
        seats_exp::e11(seed),
        mga_exp::e12(seed),
        deposits_exp::e13(seed),
        twopc_exp::e14(seed),
        quorum_exp::e15(seed),
        crdt_exp::e16(seed),
        forensics_exp::e18(seed),
        e19::e19(seed),
        eventlog_exp::e20(seed),
        ablations::a1(seed),
        ablations::a2(seed),
        gossip_exp::a3(seed),
    ]
}

/// The observability appendix: one representative run per substrate,
/// each rendered through `MetricSet`'s own `Display` (see
/// [`metrics_appendix`]) so the report shows the same `p50/p99/max`
/// lines the metrics layer computes. Returns `(appendix_text, json)`
/// where `json` is the bank run's `MetricSet::to_json()` export —
/// the run whose `guess.outstanding_us` histogram measures the paper's
/// act-on-guess → confirmation/apology window.
pub fn observability_report(seed: u64) -> (String, String) {
    let bank_run = bank::run_clearing(&bank::ClearingConfig::default(), seed);
    let json = bank_run.metrics.to_json();
    let mut out = metrics_appendix(
        "M1",
        "bank clearing observability (guess windows per §5.5/§6.2)",
        &bank_run.metrics,
    );
    out.push('\n');
    let cart_run = cart::run(&cart::CartScenario::default(), seed);
    out.push_str(&metrics_appendix(
        "M2",
        "shopping-cart observability (dynamo + cart spans)",
        &cart_run.metrics,
    ));
    (out, json)
}

/// Run one experiment by id ("e1".."e16", "e18".."e20", "a1".."a3"), if it
/// exists. ("e17" is the chaos sweep — a driver, not a table; run it
/// with the `chaos` bin.)
pub fn table_by_id(id: &str, seed: u64) -> Option<Table> {
    use experiments::*;
    let t = match id.to_ascii_lowercase().as_str() {
        "e1" => tandem_exp::e1(seed),
        "e2" => tandem_exp::e2(seed),
        "e3" => tandem_exp::e3(seed),
        "e4" => logship_exp::e4(seed),
        "e5" => logship_exp::e5(seed),
        "e6" => cart_exp::e6(seed),
        "e7" => bank_exp::e7(seed),
        "e8" => bank_exp::e8(seed),
        "e9" => escrow_exp::e9(seed),
        "e10" => stock_exp::e10(seed),
        "e11" => seats_exp::e11(seed),
        "e12" => mga_exp::e12(seed),
        "e13" => deposits_exp::e13(seed),
        "e14" => twopc_exp::e14(seed),
        "e15" => quorum_exp::e15(seed),
        "e16" => crdt_exp::e16(seed),
        "e18" => forensics_exp::e18(seed),
        "e19" => e19::e19(seed),
        "e20" => eventlog_exp::e20(seed),
        "a1" => ablations::a1(seed),
        "a2" => ablations::a2(seed),
        "a3" => gossip_exp::a3(seed),
        _ => return None,
    };
    Some(t)
}
