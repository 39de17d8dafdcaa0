//! Integration test for the live operator surface: boot the cart
//! service on the wall-clock runtime with the telemetry endpoint
//! enabled, drive a loadgen burst, and hit every route over real HTTP —
//! both metric formats, schema stability, counter monotonicity, crash /
//! restart visibility, and span-schema parity between `/trace` and the
//! simulator's Perfetto exporter.

use std::time::Duration;

use quicksand::service::{add_stores, wait_done, wait_until, LoadClient};
use quicksand_bench::http::{http_get, json_number};
use quicksand_runtime::{RuntimeBuilder, DEFAULT_SPAN_CAP};
use sim::{Actor, Context, NodeId};

/// Poll `f` until it returns true or 5s elapse.
fn wait_for(f: impl FnMut() -> bool) -> bool {
    wait_until(Duration::from_secs(5), f)
}

#[test]
fn telemetry_surface_serves_all_endpoints_under_load() {
    let mut b = RuntimeBuilder::new()
        .seed(11)
        .telemetry("127.0.0.1:0")
        .expect("bind telemetry")
        .snapshot_interval(Duration::from_millis(100))
        .flight(2048)
        .trace(2048);
    let stores = add_stores(&mut b, 3, 0);
    let mut clients = Vec::new();
    for c in 0..2 {
        clients.push(b.add_node(LoadClient::new(c, stores.clone(), 300, 64, 50)));
    }
    let rt = b.launch();
    let addr = rt.telemetry_addr().expect("telemetry enabled");

    // Route index.
    let (code, body) = http_get(addr, "/").expect("GET /");
    assert_eq!(code, 200);
    assert!(body.contains("/metrics") && body.contains("/ledger"), "{body}");

    // Unknown route: 404, server keeps serving.
    let (code, _) = http_get(addr, "/nope").expect("GET /nope");
    assert_eq!(code, 404);

    // Health while everything is up: 200, every node present and up.
    let (code, health) = http_get(addr, "/health").expect("GET /health");
    assert_eq!(code, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert_eq!(json_number(&health, "nodes_total"), Some(5.0), "{health}");
    assert_eq!(json_number(&health, "nodes_up"), Some(5.0), "{health}");
    for n in 0..5 {
        assert!(health.contains(&format!("\"node\":\"n{n}\"")), "{health}");
    }

    // Counters mid-burst, then after the burst: strictly monotone.
    // (Poll: the counter is born with the first send.)
    let mut sent1 = 0.0;
    assert!(
        wait_for(|| {
            http_get(addr, "/metrics?format=json").is_ok_and(|(_, m)| {
                match json_number(&m, "sim.messages_sent") {
                    Some(v) => {
                        sent1 = v;
                        true
                    }
                    None => false,
                }
            })
        }),
        "sim.messages_sent never appeared in /metrics"
    );
    wait_done(&rt, &clients, LoadClient::done, Duration::from_secs(5))
        .expect("load burst did not complete");
    let (_, m2) = http_get(addr, "/metrics?format=json").expect("GET /metrics json again");
    let sent2 = json_number(&m2, "sim.messages_sent").expect("messages_sent in JSON");
    assert!(sent2 > sent1, "counter went {sent1} -> {sent2}, not monotone-increasing");

    // JSON exposition schema: every top-level section present, braces
    // balanced, runtime gauges included.
    for key in [
        "\"uptime_us\"",
        "\"counters\"",
        "\"labeled_counters\"",
        "\"gauges\"",
        "\"ledger\"",
        "\"rates_per_sec\"",
        "\"window_histograms\"",
        "\"histograms\"",
    ] {
        assert!(m2.contains(key), "missing {key} in {m2}");
    }
    assert_eq!(m2.matches('{').count(), m2.matches('}').count(), "unbalanced JSON");
    assert_eq!(json_number(&m2, "runtime.nodes_up"), Some(5.0), "{m2}");
    assert!(m2.contains("\"runtime.mailbox_depth{node=n0}\""), "{m2}");
    assert!(m2.contains("\"load.get_us\""), "{m2}");

    // Prometheus exposition: well-formed families, histogram summaries
    // with quantile labels, runtime gauges as labeled series.
    let (code, prom) = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("# TYPE quicksand_sim_messages_sent counter"), "{prom}");
    assert!(prom.contains("quicksand_uptime_seconds"), "{prom}");
    assert!(prom.contains("quicksand_load_get_us{quantile=\"0.99\"}"), "{prom}");
    assert!(prom.contains("quicksand_load_get_us_count"), "{prom}");
    assert!(prom.contains("quicksand_runtime_mailbox_depth{node=\"n0\"}"), "{prom}");
    for line in prom.lines() {
        assert!(
            line.starts_with('#')
                || line.is_empty()
                || line.split_once(' ').is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line:?}"
        );
    }

    // Ledger: accounting present; nothing left open on a healthy run.
    let (code, ledger) = http_get(addr, "/ledger").expect("GET /ledger");
    assert_eq!(code, 200);
    assert!(ledger.contains("\"accounting\""), "{ledger}");
    assert!(ledger.contains("\"open_guesses\""), "{ledger}");
    assert_eq!(json_number(&ledger, "open"), Some(0.0), "{ledger}");

    // Trace: a JSON array of Chrome trace events in exactly the sim
    // exporter's span schema (complete events with span/trace/status
    // args; `cat` marks them as spans).
    let (code, trace) = http_get(addr, "/trace?limit=500").expect("GET /trace");
    assert_eq!(code, 200);
    let trimmed = trace.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{trimmed}");
    assert!(trace.contains("\"ph\":\"X\""), "no completed spans in {trace}");
    assert!(trace.contains("\"cat\":\"span\""), "{trace}");
    for key in ["\"name\":", "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":", "\"args\":"] {
        assert!(trace.contains(key), "span schema missing {key} in {trace}");
    }
    assert!(trace.contains("\"span\":") && trace.contains("\"status\":"), "{trace}");

    // Malformed query params are a 400, never a silent default.
    for bad in [
        "/trace?limit=abc",
        "/trace?span=xyz",
        "/metrics?format=yaml",
        "/explain",
        "/explain?incident=abc",
        "/explain?guess=x9",
        "/explain?incident=0&guess=1",
        "/explain?incident=0&format=protobuf",
    ] {
        let (code, body) = http_get(addr, bad).expect(bad);
        assert_eq!(code, 400, "{bad} should be a 400, got {code}: {body}");
    }

    // `?span=` narrows /trace to one span's subtree: the root and its
    // child are both present, and the filtered view is a strict subset
    // of the full tail. An unknown span is a 404.
    let (root, child) = rt.with_core(|c| {
        let child = c.spans.spans().find(|s| s.parent.is_some()).expect("a child span under load");
        (child.parent.unwrap(), child.id)
    });
    let (code, sub) = http_get(addr, &format!("/trace?span=S{}", root.0)).expect("GET /trace?span");
    assert_eq!(code, 200);
    assert!(sub.contains(&format!("\"span\":\"S{}\"", root.0)), "{sub}");
    assert!(sub.contains(&format!("\"span\":\"S{}\"", child.0)), "{sub}");
    let (_, full) = http_get(addr, "/trace").expect("GET /trace full");
    let count = |s: &str| s.matches("\"ph\":\"X\"").count();
    assert!(count(&sub) < count(&full), "subtree filter did not narrow the trace");
    let (code, _) = http_get(addr, "/trace?span=S99999999").expect("unknown span");
    assert_eq!(code, 404);

    // The ledger's open→resolve latency quantiles are exposed per
    // substrate in the Prometheus text (satellite of the apology-
    // latency surfacing; the JSON side carries them inside "ledger").
    // A healthy cart burst opens no guesses (hinted handoff needs a
    // down node), so settle one each way directly on the core ledger.
    rt.with_core(|c| {
        let t0 = sim::SimTime::from_micros(0);
        let a = c.ledger.open("probe.write", None, "quorum ack pending", t0);
        c.ledger.resolve(a, sim::SimTime::from_micros(1500), sim::GuessOutcome::Confirmed);
        let b = c.ledger.open("probe.write", None, "quorum ack pending", t0);
        c.ledger.resolve(b, sim::SimTime::from_micros(2500), sim::GuessOutcome::Apologized);
    });
    let (_, prom2) = http_get(addr, "/metrics").expect("GET /metrics for latency series");
    assert!(
        prom2.contains("quicksand_ledger_confirm_latency_us{substrate=\"probe\",quantile=\"0.5\"}"),
        "{prom2}"
    );
    assert!(
        prom2
            .contains("quicksand_ledger_apology_latency_us{substrate=\"probe\",quantile=\"0.99\"}"),
        "{prom2}"
    );
    assert!(
        prom2.contains("quicksand_ledger_apology_latency_us_count{substrate=\"probe\"} 1"),
        "{prom2}"
    );
    let (_, ledger2) = http_get(addr, "/ledger").expect("GET /ledger with latency");
    assert!(ledger2.contains("\"apology_latency_us\""), "{ledger2}");

    // Crash a store: /health flips to 503 with the node marked down,
    // restart flips it back and the labeled restart counter appears.
    rt.crash(stores[2]);
    assert!(
        wait_for(|| http_get(addr, "/health").is_ok_and(|(c, _)| c == 503)),
        "health never reported the crash"
    );
    let (_, degraded) = http_get(addr, "/health").expect("GET /health degraded");
    assert!(degraded.contains("\"status\":\"degraded\""), "{degraded}");
    assert_eq!(json_number(&degraded, "nodes_up"), Some(4.0), "{degraded}");
    rt.restart(stores[2]);
    assert!(
        wait_for(|| http_get(addr, "/health").is_ok_and(|(c, _)| c == 200)),
        "health never recovered after restart"
    );
    let (_, prom) = http_get(addr, "/metrics").expect("GET /metrics after restart");
    assert!(prom.contains("quicksand_runtime_restarts{node=\"n2\"} 1"), "{prom}");

    rt.shutdown();
}

/// The span store is a window: drive the service past
/// [`DEFAULT_SPAN_CAP`] spans and every route that reads it must say
/// what was dropped — gauges on `/metrics`, a bounded and labelled
/// `/trace`, and a 404 that tells "evicted" from "never recorded".
#[test]
fn span_window_is_bounded_and_self_describing_over_http() {
    let mut b = RuntimeBuilder::new()
        .seed(13)
        .telemetry("127.0.0.1:0")
        .expect("bind telemetry")
        .snapshot_interval(Duration::from_millis(100));
    let stores = add_stores(&mut b, 3, 0);
    let clients: Vec<NodeId> =
        (0..2).map(|c| b.add_node(LoadClient::new(c, stores.clone(), 800, 64, 50))).collect();
    let rt = b.launch();
    let addr = rt.telemetry_addr().expect("telemetry enabled");
    wait_done(&rt, &clients, LoadClient::done, Duration::from_secs(30))
        .expect("load burst did not complete");
    let (opened, open) = rt.with_core(|c| (c.spans.len(), c.spans.open_spans().count()));
    assert!(opened > DEFAULT_SPAN_CAP, "load too small to move the window: {opened} spans");

    // The two gauges, in both formats. Gossip keeps opening spans, so
    // the bound is checked, not an exact count.
    let (_, m) = http_get(addr, "/metrics?format=json").expect("GET /metrics json");
    let retained = json_number(&m, "runtime.spans_retained").expect("spans_retained gauge");
    let evicted = json_number(&m, "runtime.spans_evicted").expect("spans_evicted gauge");
    assert!(retained <= (DEFAULT_SPAN_CAP + open + 64) as f64, "retained {retained}: {m}");
    assert!(evicted >= (opened - DEFAULT_SPAN_CAP - open) as f64, "evicted {evicted}: {m}");
    let (_, prom) = http_get(addr, "/metrics").expect("GET /metrics");
    assert!(prom.contains("\nquicksand_runtime_spans_retained "), "{prom}");
    assert!(prom.contains("\nquicksand_runtime_spans_evicted "), "{prom}");

    // /trace serves at most what is retained however much is asked
    // for, and opens by saying how much is gone.
    let (code, trace) = http_get(addr, "/trace?limit=1000000").expect("GET /trace");
    assert_eq!(code, 200);
    let served = trace.matches("\"cat\":\"span\"").count();
    assert!(served > 0 && served <= DEFAULT_SPAN_CAP + open + 64, "{served} spans served");
    assert!(trace.contains("\"name\":\"quicksand.spans_evicted\",\"ph\":\"M\""), "no drop notice");
    let (_, tail) = http_get(addr, "/trace?limit=10").expect("GET /trace?limit=10");
    assert_eq!(tail.matches("\"cat\":\"span\"").count(), 10);

    // A subtree rooted in the window still streams; ids are absolute,
    // far from positions by now.
    let (root, child) = rt.with_core(|c| {
        let child =
            c.spans.spans().rev().find(|s| s.parent.is_some_and(|p| c.spans.get(p).is_some()));
        let child = child.expect("a retained child with a retained parent");
        (child.parent.unwrap(), child.id)
    });
    assert!(root.0 > DEFAULT_SPAN_CAP as u64 / 2, "{root} is not past the first window");
    let (code, sub) = http_get(addr, &format!("/trace?span={root}")).expect("GET /trace?span");
    assert_eq!(code, 200, "{sub}");
    assert!(sub.contains(&format!("\"span\":\"{root}\"")), "{sub}");
    assert!(sub.contains(&format!("\"span\":\"{child}\"")), "{sub}");
    assert!(sub.matches("\"cat\":\"span\"").count() < served, "subtree filter did not narrow");

    // Two different operator facts, two different answers.
    let (code, body) = http_get(addr, "/trace?span=S0").expect("evicted span");
    assert_eq!(code, 404);
    assert!(body.contains("span S0 evicted"), "{body}");
    let (code, body) = http_get(addr, "/trace?span=S99999999").expect("unknown span");
    assert_eq!(code, 404);
    assert!(body.contains("span S99999999 never recorded"), "{body}");

    rt.shutdown();
}

/// An actor that panics on its first message — the fail-fast path.
struct Boom;
impl Actor<u64> for Boom {
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        panic!("boom on {msg}");
    }
}

#[test]
fn panic_crashes_show_up_in_health_and_labeled_metrics() {
    let mut b = RuntimeBuilder::new()
        .telemetry("127.0.0.1:0")
        .expect("bind telemetry")
        .snapshot_interval(Duration::from_millis(100));
    let a = b.add_node(Boom);
    let z = b.add_node(Boom);
    let rt = b.launch();
    let addr = rt.telemetry_addr().expect("telemetry enabled");

    rt.inject(a, z, 7);
    assert!(
        wait_for(|| http_get(addr, "/health").is_ok_and(|(c, _)| c == 503)),
        "panic crash never reached /health"
    );
    let (_, health) = http_get(addr, "/health").expect("GET /health");
    assert_eq!(json_number(&health, "panic_crashes"), Some(1.0), "{health}");
    assert!(health.contains("\"up\":false"), "{health}");

    let (_, prom) = http_get(addr, "/metrics").expect("GET /metrics");
    assert!(prom.contains("quicksand_runtime_panic_crashes{node=\"n0\"} 1"), "{prom}");
    assert!(prom.contains("# TYPE quicksand_runtime_panic_crashes counter"), "{prom}");

    let (_, json) = http_get(addr, "/metrics?format=json").expect("GET /metrics json");
    assert_eq!(json_number(&json, "runtime.panic_crashes"), Some(1.0), "{json}");
    assert!(json.contains("\"runtime.panic_crashes{node=n0}\""), "{json}");

    // The black box filed the panic as an incident, and /explain serves
    // the post-mortem in all three renderings while the node is down.
    let (code, idx) = http_get(addr, "/incidents").expect("GET /incidents");
    assert_eq!(code, 200);
    assert!(json_number(&idx, "count").unwrap_or(0.0) >= 1.0, "{idx}");
    assert!(idx.contains("\"kind\":\"panic-crash\""), "{idx}");
    let (code, text) = http_get(addr, "/explain?incident=0").expect("GET /explain text");
    assert_eq!(code, 200);
    assert!(text.contains("panic-crash"), "{text}");
    assert!(text.contains("causal slice"), "{text}");
    let (code, pf) =
        http_get(addr, "/explain?incident=0&format=perfetto").expect("GET /explain perfetto");
    assert_eq!(code, 200);
    assert!(pf.trim_start().starts_with('['), "{pf}");
    let (code, j) = http_get(addr, "/explain?incident=0&format=json").expect("GET /explain json");
    assert_eq!(code, 200);
    assert!(j.contains("\"explanation\""), "{j}");
    let (code, _) = http_get(addr, "/explain?incident=99").expect("missing incident");
    assert_eq!(code, 404);
    let (code, _) = http_get(addr, "/explain?guess=G999999").expect("unknown guess");
    assert_eq!(code, 404);

    rt.shutdown();
}

/// The accept loop hands sockets to a small fixed worker pool — a
/// burst of concurrent clients must all get served (queued, not
/// dropped, and no thread-per-connection explosion).
#[test]
fn worker_pool_serves_a_concurrent_burst() {
    let mut b = RuntimeBuilder::new()
        .telemetry("127.0.0.1:0")
        .expect("bind telemetry")
        .snapshot_interval(Duration::from_millis(100));
    b.add_node(Boom);
    let rt = b.launch();
    let addr = rt.telemetry_addr().expect("telemetry enabled");

    let handles: Vec<_> =
        (0..16).map(|_| std::thread::spawn(move || http_get(addr, "/health"))).collect();
    for h in handles {
        let (code, _) = h.join().expect("client thread").expect("request served");
        assert!(code == 200 || code == 503, "unexpected status {code}");
    }
    rt.shutdown();
}
