//! Observability determinism: the span trees, trace exports, and metric
//! dumps are part of the simulation's deterministic output. Two runs
//! with the same seed must produce byte-identical artifacts, or traces
//! can't be diffed across code changes and repro seeds lose their value.

use quicksand::cart::{run as run_cart, CartScenario};
use quicksand::sim::SimTime;

fn traced_scenario() -> CartScenario {
    CartScenario {
        faults: CartScenario::default().split(SimTime::from_millis(20), SimTime::from_secs(5)),
        horizon: SimTime::from_secs(40),
        trace: true,
        ..CartScenario::default()
    }
}

/// Same seed ⇒ byte-identical span JSONL, Chrome trace, rendered span
/// trees, event-trace JSONL, and metrics JSON.
#[test]
fn same_seed_runs_produce_byte_identical_observability_artifacts() {
    let scenario = traced_scenario();
    let a = run_cart(&scenario, 42);
    let b = run_cart(&scenario, 42);

    assert_eq!(a.spans.to_jsonl(), b.spans.to_jsonl());
    assert_eq!(a.spans.to_chrome_trace(), b.spans.to_chrome_trace());
    let trees = |r: &quicksand::cart::CartReport| -> String {
        r.spans.roots().map(|s| r.spans.render_tree(s.id)).collect()
    };
    assert_eq!(trees(&a), trees(&b));
    assert_eq!(a.trace_jsonl, b.trace_jsonl);
    assert!(a.trace_jsonl.is_some(), "tracing was enabled");
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    // And the run actually produced something to compare.
    assert!(!a.spans.is_empty());
}

/// Different seeds do diverge — the determinism above isn't because the
/// artifacts are degenerate.
#[test]
fn different_seeds_diverge() {
    let scenario = traced_scenario();
    let a = run_cart(&scenario, 42);
    let b = run_cart(&scenario, 43);
    assert_ne!(a.trace_jsonl, b.trace_jsonl);
}
