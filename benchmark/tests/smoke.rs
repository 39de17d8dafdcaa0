//! A 1/100-scale run of every workload — plain, traced and base legs,
//! audits, cells — and the check that what a run emits is what
//! `BENCHMARK.json` names.

use quicksand_benchmark::cells::{self, Scale};
use quicksand_benchmark::evlog::WINDOW;
use quicksand_benchmark::measure::Mode;
use quicksand_benchmark::report::{self, Leg, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, TIMED};
use quicksand_benchmark::traced::write_chrome_trace;

const SCALE_DOWN: u64 = 100;

fn smoke(w: Workload) {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "out/smoke-{}-{}",
        w.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&out).unwrap();

    // On the event log at least eight windows of appends, so the phase
    // holds several fsyncs.
    let floor = if w == Workload::EvlogFsync { 8 * WINDOW as u64 } else { 1 };
    let ops = (w.leg_ops(RUN_SECONDS as f64) / SCALE_DOWN).max(floor);
    let plain = w.run(3, ops, Mode::Plain, SCALE_DOWN, &out);
    let traced = w.run(3, ops, Mode::Traced, SCALE_DOWN, &out);
    let base = w.run(3, 0, Mode::Traced, SCALE_DOWN, &out);
    for leg in [&plain, &traced, &base] {
        assert_eq!(leg.violations, Vec::<String>::new(), "{} audit", w.name());
        let m = &leg.measured;
        assert!(m.attempted > 0 && m.failed == 0, "{} of {} ops failed", m.failed, m.attempted);
        assert!(m.retried * 100 <= m.attempted, "{} requests retried", m.retried);
        assert!(leg.setup_s > 0.0);
    }
    assert!(plain.traces.is_empty() && !traced.traces.is_empty());
    assert!(base.measured.write_ns.is_empty(), "a base leg measures nothing");
    assert!(base.engine.spans <= traced.engine.spans && base.engine.flight < traced.engine.flight);

    // End to end: every gated metric of the schema and the timed
    // totals, each a positive number.
    let legs = [Leg::of(&plain), Leg::of(&plain), Leg::of(&traced)];
    let values = report::run_values(&legs);
    let reads = if w == Workload::EvlogFsync { 0 } else { 1 };
    assert_eq!(values.len(), END_TO_END.len() + TIMED.len() - 1 + reads);
    for (name, value) in &values {
        // Resident-set growth is process-wide and these tests share a
        // process, so at this scale it may read 0; everything else is
        // a time or a rate and must be positive.
        let floor_ok = *value > 0.0 || *name == "rss_kb_per_op";
        assert!(floor_ok && value.is_finite(), "{} {name} = {value}", w.name());
    }
    assert!(report::result_line(true, 1, 0, &END_TO_END, &values).is_some());

    // Per layer: exactly the schema's names, in its order.
    let cells = cells::run_all(w.shape(), Scale::full().scaled_down(SCALE_DOWN), &out);
    let layers =
        report::per_layer_values(&Leg::of(&plain), &Leg::of(&traced), &Leg::of(&base), &cells);
    let names: Vec<_> = layers.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, PER_LAYER.map(|d| d.name));
    let value = |name: &str| layers.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(layers.iter().all(|(_, v)| v.is_finite()));
    assert!(value("flight.events_per_op") > 0.0 && value("wire.bytes_per_op") > 0.0);
    assert!(value("driver.busy_us_per_op") > 0.0 && value("alloc.count_per_op") > 0.0);
    if w == Workload::EvlogFsync {
        assert!(value("broker.append_us") > 0.0 && value("broker.appends_per_fsync") > 1.0);
        assert!(value("broker.bus_wait_mean_us") > 0.0 && value("evlog.recover_ms") > 0.0);
        assert_eq!(value("dynamo.msgs_per_op"), 0.0);
        assert_eq!(value("read_p50_us"), 0.0, "the event log has no reads");
    } else {
        assert!(value("dynamo.msgs_per_op") > 5.0 && value("dynamo.client_get_us") > 0.0);
        assert!(value("span.per_op") > 5.0 && value("read_p50_us") > 0.0);
        assert_eq!(value("broker.busy_us_per_op"), 0.0);
    }

    // The span file parses as a JSON array of complete events.
    let path = out.join("trace.json");
    let nodes: Vec<_> = traced.traces.iter().map(|(n, l, t)| (*n, *l, t)).collect();
    write_chrome_trace(&path, &nodes).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.matches("\"ph\":\"X\"").count() > 100, "{} spans", w.name());
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn cart_small_loopback_smoke() {
    smoke(Workload::CartSmallLoopback);
}

#[test]
fn cart_small_tcp_smoke() {
    smoke(Workload::CartSmallTcp);
}

#[test]
fn cart_large_loopback_smoke() {
    smoke(Workload::CartLargeLoopback);
}

#[test]
fn evlog_fsync_smoke() {
    smoke(Workload::EvlogFsync);
}
