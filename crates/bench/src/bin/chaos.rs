//! Seed-swept chaos driver: runs every substrate's `ChaosRun` over a
//! configurable seed range and emits a deterministic JSON report of
//! seeds swept, faults injected, invariants checked, and — for every
//! failing seed — the shrunk minimal reproducing plan.
//!
//! ```text
//! cargo run -p quicksand-bench --release --bin chaos -- --seeds 500
//! cargo run -p quicksand-bench --release --bin chaos -- --seeds 500 --json-out chaos.json
//! cargo run -p quicksand-bench --release --bin chaos -- --seeds 500 --deny-failures
//! cargo run -p quicksand-bench --release --bin chaos -- --explain 17 --scenario cart_oplog
//! cargo run -p quicksand-bench --release --bin chaos -- --seeds 500 --artifacts-dir artifacts
//! ```
//!
//! Forensics: `--artifacts-dir DIR` makes every failing seed drop
//! `explain-<seed>.txt` / `explain-<seed>.json` causal-slice artifacts
//! under `DIR/<scenario>/` before shrinking. `--explain SEED` skips the
//! sweep entirely and re-runs that one seed through each scenario's
//! explainer, dumping the annotated slice to stdout (restrict with
//! `--scenario NAME`). `--ledger-json PATH` writes the merged
//! guess/apology accounting per scenario. `--deny-failures` exits
//! non-zero when any invariant was violated, `--deny-open-guesses` when
//! any scenario's ledger still holds unresolved guesses after
//! quiescence — the CI nightly job's tripwires. The JSON report depends
//! only on the seed count: same `--seeds N`, same bytes.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use quicksand_bench::artifacts::ArtifactStream;
use quicksand_bench::cli::{arg_flag, arg_value};

use quicksand::cart::CartMode;
use quicksand::chaos::{
    bank_chaos, cart_chaos, dynamo_chaos, escrow_chaos, eventlog_harness, logship_chaos,
    membership_chaos, tandem_chaos, ChaosReport, ChaosRun,
};
use quicksand::dynamo::WorkloadConfig;
use quicksand::eventlog::AckPolicy;
use quicksand::logship::ShipMode;
use quicksand::sim::Explanation;
use quicksand::tandem::Mode;

/// A type-erased sweep: seed count + optional artifacts dir in, report out.
type SweepFn = Box<dyn Fn(u64, Option<&Path>) -> ChaosReport>;

/// One substrate scenario, type-erased so the driver can sweep and
/// explain a heterogeneous list.
struct Scenario {
    name: &'static str,
    sweep: SweepFn,
    explain: Box<dyn Fn(u64) -> Option<Explanation>>,
}

fn scenario<R: 'static>(name: &'static str, make: impl Fn() -> ChaosRun<R> + 'static) -> Scenario {
    let make = Rc::new(make);
    let mk = make.clone();
    Scenario {
        name,
        sweep: Box::new(move |n, dir| {
            let run = mk();
            let run = match dir {
                Some(d) => run.artifacts_into(d.join(name)),
                None => run,
            };
            run.sweep(0..n)
        }),
        explain: Box::new(move |seed| make().explain_seed(seed)),
    }
}

/// Every substrate scenario the sweep hammers, in a fixed order so the
/// report is byte-stable.
fn scenarios() -> Vec<Scenario> {
    vec![
        scenario("cart_oplog", || cart_chaos(CartMode::OpLog)),
        scenario("cart_orset", || cart_chaos(CartMode::OrSet)),
        scenario("dynamo_workload", || dynamo_chaos(WorkloadConfig::default())),
        scenario("membership_rebalance", membership_chaos),
        scenario("tandem_dp1", || tandem_chaos(Mode::Dp1)),
        scenario("tandem_dp2", || tandem_chaos(Mode::Dp2)),
        scenario("logship_async", || logship_chaos(ShipMode::Asynchronous)),
        scenario("logship_sync", || logship_chaos(ShipMode::Synchronous)),
        scenario("eventlog_immediate", || eventlog_harness(AckPolicy::Immediate)),
        scenario("eventlog_fsync", || eventlog_harness(AckPolicy::OnFsync)),
        scenario("eventlog_replicate2", || eventlog_harness(AckPolicy::OnReplicate(2))),
        scenario("bank_clearing", bank_chaos),
        scenario("escrow_fleet", escrow_chaos),
    ]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 = match arg_value(&mut args, "--seeds") {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("--seeds needs a number");
            std::process::exit(2);
        }),
        None => 50,
    };
    let deny_failures = arg_flag(&mut args, "--deny-failures");
    let deny_open_guesses = arg_flag(&mut args, "--deny-open-guesses");
    let json_out = arg_value(&mut args, "--json-out");
    let ledger_json = arg_value(&mut args, "--ledger-json");
    let artifacts_dir = arg_value(&mut args, "--artifacts-dir").map(PathBuf::from);
    let explain_seed: Option<u64> = arg_value(&mut args, "--explain").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--explain needs a seed number");
            std::process::exit(2);
        })
    });
    let only_scenario = arg_value(&mut args, "--scenario");
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        eprintln!(
            "usage: chaos [--seeds N] [--deny-failures] [--deny-open-guesses] \
             [--json-out PATH] [--ledger-json PATH] [--artifacts-dir DIR] \
             [--explain SEED] [--scenario NAME]"
        );
        std::process::exit(2);
    }

    let selected: Vec<Scenario> = scenarios()
        .into_iter()
        .filter(|s| only_scenario.as_deref().is_none_or(|n| n == s.name))
        .collect();
    if selected.is_empty() {
        eprintln!("no scenario named {:?}", only_scenario.unwrap_or_default());
        std::process::exit(2);
    }

    // --explain SEED: no sweep, just the forensic re-run of one seed.
    if let Some(seed) = explain_seed {
        let mut found = false;
        for sc in &selected {
            match (sc.explain)(seed) {
                Some(e) => {
                    found = true;
                    println!("=== [{}] seed {seed} ===", sc.name);
                    println!("{}", e.render_text());
                    if let Some(dir) = &artifacts_dir {
                        match ChaosRun::<()>::write_artifacts(&dir.join(sc.name), &e) {
                            Ok((txt, json)) => {
                                eprintln!("artifacts: {} and {}", txt.display(), json.display())
                            }
                            Err(err) => {
                                eprintln!("writing artifacts for {}: {err}", sc.name);
                                std::process::exit(1);
                            }
                        }
                        ArtifactStream::open(&dir.join("stream")).append(sc.name, &e);
                    }
                }
                None => println!("=== [{}] seed {seed}: no explainer/slice ===", sc.name),
            }
        }
        std::process::exit(if found { 0 } else { 1 });
    }

    // The durable artifact stream rides along with the loose explain
    // files: every failure's causal slice is appended (idempotently,
    // keyed by scenario × seed) to a crash-recoverable event log under
    // `DIR/stream/`. A torn tail from a killed sweep is truncated here,
    // on the next open — and reported, because a forensic channel that
    // silently loses forensics would be its own §5 violation.
    let mut stream = artifacts_dir.as_deref().map(|dir| {
        let s = ArtifactStream::open(&dir.join("stream"));
        let rec = s.recovered();
        if rec.truncated_bytes > 0 {
            eprintln!(
                "artifact stream: recovered, truncated {} torn byte(s) from a previous run",
                rec.truncated_bytes
            );
        }
        s
    });

    println!("chaos sweep: {seeds} seeds per scenario\n");
    let mut json = format!("{{\"seeds_per_scenario\":{seeds},\"scenarios\":[");
    let mut ledgers = String::from("{\"scenarios\":[");
    let mut total_failures = 0usize;
    let mut total_faults = 0u64;
    let mut open_guesses = 0u64;
    for (i, sc) in selected.iter().enumerate() {
        let report = (sc.sweep)(seeds, artifacts_dir.as_deref());
        println!("[{}] {report}", sc.name);
        if let Some(stream) = &mut stream {
            for failure in &report.failures {
                if let Some(e) = &failure.explanation {
                    stream.append(sc.name, e);
                }
            }
        }
        total_failures += report.failures.len();
        total_faults += report.faults_injected.values().sum::<u64>();
        open_guesses += report.ledger.open();
        if i > 0 {
            json.push(',');
            ledgers.push(',');
        }
        json.push_str(&format!("{{\"name\":\"{}\",\"report\":{}}}", sc.name, report.to_json()));
        ledgers.push_str(&format!(
            "{{\"name\":\"{}\",\"ledger\":{}}}",
            sc.name,
            report.ledger.to_json()
        ));
    }
    json.push_str(&format!(
        "],\"total_faults_injected\":{total_faults},\"total_failures\":{total_failures}}}"
    ));
    ledgers.push_str(&format!("],\"open_guesses\":{open_guesses}}}"));

    if let Some(path) = &json_out {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("chaos report JSON written to {path}");
    }
    if let Some(path) = &ledger_json {
        std::fs::write(path, &ledgers).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("ledger accounting JSON written to {path}");
    }

    println!(
        "total: {total_faults} faults injected, {total_failures} invariant failure(s), \
         {open_guesses} guess(es) left open across all scenarios"
    );
    let mut fail = false;
    if deny_failures && total_failures > 0 {
        eprintln!("--deny-failures: failing the run");
        fail = true;
    }
    if deny_open_guesses && open_guesses > 0 {
        eprintln!("--deny-open-guesses: a ledger ended with unresolved guesses");
        fail = true;
    }
    if fail {
        std::process::exit(1);
    }
}
