//! Closed-loop load generator for the wall-clock cart service.
//!
//! Launches an N-store dynamo ring of CRDT carts plus C closed-loop
//! clients (every node is its own OS worker thread), drives a
//! configurable get/put mix, then holds the run to
//! [`quicksand::service::ServiceAudit::check`] — a lost acked add, an
//! open guess, a mis-accounted fault plan or a botched join/leave is a
//! nonzero exit, not a log line. Standing the service up, driving it,
//! settling it and auditing it is [`quicksand::service`]; this bin owns
//! the flags, the view from *outside* the process (every HTTP
//! cross-check below), and the output files.
//!
//! ```text
//! cargo run -p quicksand-bench --release --bin loadgen -- \
//!     --stores 4 --clients 8 --ops 6250 --keys 512 --put-pct 50 \
//!     --transport loopback --json-out loadgen.json
//! ```
//!
//! Reported: total ops, wall-clock throughput, and p50/p99 GET/PUT
//! latencies from the log-bucketed [`sim::LogHistogram`]s — the same
//! estimator the telemetry endpoint serves, so `loadgen` and a `curl`
//! of `/metrics` report the same shape. The `--json-out` file is
//! byte-stable across runs except for the timing fields
//! (`elapsed_secs`, `throughput_ops_per_sec`, `*_us` percentiles).
//!
//! - `--watch` attaches the telemetry surface (binding
//!   `--telemetry-addr`, or an ephemeral port if unset) and polls it
//!   over real HTTP while the run is in flight, rendering a one-line
//!   dashboard from `/metrics`, `/ledger` and `/health`. After
//!   quiescence it re-reads `/ledger` and exits nonzero if the
//!   *endpoint* still shows an open guess (§5).
//! - `--fault-plan SEED` runs a generated [`FaultPlan`] under the load.
//!   With telemetry up, `/health` must be 200 after the last heal with
//!   crash counters summing to the plan's crash clauses, and
//!   `/incidents` + `/explain?incident=N` must serve every chaos-crash
//!   post-mortem live, text and Perfetto both. `--incidents-dir DIR`
//!   drains the incident ring to a durable [`IncidentStream`] under
//!   `DIR/stream/`, reopens it to prove the records survive the
//!   process, and renders `incidents.json` plus one `incident-*.txt`
//!   per record for the CI artifact tab.
//! - `--spares N` provisions standby stores; `--join-at MS` /
//!   `--leave-at MS` fire a live `CtlJoin` (first spare) / `CtlLeave`
//!   (last member) at those wall-clock offsets while the clients drive
//!   load. `membership.ring_version` — sampled via HTTP `/metrics`
//!   when telemetry is up — must advance. `--leave-at` requires
//!   `--stores 4` or more so an N=3 quorum survives the departure.
//! - `--sweep-out BENCH_6.json` runs the threads × payload grid
//!   (clients × items-per-put) and writes one JSON table with
//!   throughput and latency percentiles per cell — the repo's BENCH_6
//!   artifact. Key order and all non-timing fields are deterministic.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quicksand::service::{
    add_stores, audit, fault_spec, settle, wait_done, LoadClient, ServiceAudit, ServiceMsg, Stalled,
};
use quicksand_bench::cli::{arg_flag, arg_value};
use quicksand_bench::http::{http_get, json_number};
use quicksand_bench::incidents::IncidentStream;
use quicksand_runtime::{RuntimeBuilder, TransportKind};
use sim::{FaultPlan, Incident, LogHistogram, NodeId, SimDuration};

#[derive(Clone)]
struct Config {
    stores: u32,
    /// Standby stores provisioned outside the ring (`--join-at` targets).
    spares: u32,
    /// Wall-clock ms after launch at which the first spare joins.
    join_at_ms: Option<u64>,
    /// Wall-clock ms after launch at which the last member leaves.
    leave_at_ms: Option<u64>,
    clients: u32,
    ops_per_client: Option<u64>,
    keys: u64,
    put_pct: u32,
    think_us: u64,
    items_per_put: u64,
    transport: TransportKind,
    seed: Option<u64>,
    timeout_secs: u64,
    json_out: Option<String>,
    sweep_out: Option<String>,
    telemetry_addr: Option<String>,
    watch: bool,
    /// Seed for a generated [`FaultPlan`] run under the load (chaos).
    fault_plan: Option<u64>,
    fault_clauses: usize,
    fault_window_ms: u64,
    /// Persist the run's incident ring to a durable [`IncidentStream`]
    /// under this directory (plus text/index artifacts for CI).
    incidents_dir: Option<String>,
}

fn parse_args() -> Config {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = Config {
        stores: arg_value(&mut args, "--stores").map_or(4, |v| v.parse().expect("--stores")),
        spares: arg_value(&mut args, "--spares").map_or(0, |v| v.parse().expect("--spares")),
        join_at_ms: arg_value(&mut args, "--join-at").map(|v| v.parse().expect("--join-at")),
        leave_at_ms: arg_value(&mut args, "--leave-at").map(|v| v.parse().expect("--leave-at")),
        clients: arg_value(&mut args, "--clients").map_or(8, |v| v.parse().expect("--clients")),
        ops_per_client: arg_value(&mut args, "--ops").map(|v| v.parse().expect("--ops")),
        keys: arg_value(&mut args, "--keys").map_or(512, |v| v.parse().expect("--keys")),
        put_pct: arg_value(&mut args, "--put-pct").map_or(50, |v| v.parse().expect("--put-pct")),
        think_us: arg_value(&mut args, "--think-us").map_or(0, |v| v.parse().expect("--think-us")),
        items_per_put: arg_value(&mut args, "--items-per-put")
            .map_or(1, |v| v.parse().expect("--items-per-put")),
        transport: arg_value(&mut args, "--transport")
            .map_or(TransportKind::Loopback, |v| v.parse().unwrap_or_else(|e| panic!("{e}"))),
        seed: arg_value(&mut args, "--seed").map(|v| v.parse().expect("--seed")),
        timeout_secs: arg_value(&mut args, "--timeout-secs")
            .map_or(300, |v| v.parse().expect("--timeout-secs")),
        json_out: arg_value(&mut args, "--json-out"),
        sweep_out: arg_value(&mut args, "--sweep-out"),
        telemetry_addr: arg_value(&mut args, "--telemetry-addr"),
        watch: arg_flag(&mut args, "--watch"),
        fault_plan: arg_value(&mut args, "--fault-plan").map(|v| v.parse().expect("--fault-plan")),
        fault_clauses: arg_value(&mut args, "--fault-clauses")
            .map_or(3, |v| v.parse().expect("--fault-clauses")),
        fault_window_ms: arg_value(&mut args, "--fault-window-ms")
            .map_or(2500, |v| v.parse().expect("--fault-window-ms")),
        incidents_dir: arg_value(&mut args, "--incidents-dir"),
    };
    if !args.is_empty() {
        eprintln!("unknown args: {args:?}");
        std::process::exit(2);
    }
    if cfg.join_at_ms.is_some() && cfg.spares == 0 {
        eprintln!("--join-at needs at least one standby store (--spares N)");
        std::process::exit(2);
    }
    if cfg.leave_at_ms.is_some() && cfg.stores < 4 {
        eprintln!("--leave-at needs --stores >= 4 so an N=3 quorum survives the leave");
        std::process::exit(2);
    }
    cfg
}

/// Everything one closed-loop run produces.
struct RunResult {
    total_ops: u64,
    elapsed: Duration,
    throughput: f64,
    gets: u64,
    puts: u64,
    get_p50: f64,
    get_p99: f64,
    put_p50: f64,
    put_p99: f64,
    /// The shared audit of the shut-down service.
    audit: ServiceAudit,
    get_failures: u64,
    put_failures: u64,
    stuck: u64,
    /// Last ops/s the telemetry endpoint reported, when watching.
    telemetry_rate: Option<f64>,
    /// Open-guess count `/ledger` reported after quiescence, when
    /// watching (the endpoint's answer, cross-checked against the core).
    ledger_open_via_http: Option<u64>,
    /// `membership.ring_version` before and after a `--join-at` /
    /// `--leave-at` change, as the metrics surface reported it.
    ring_versions: Option<(f64, f64)>,
}

/// Poll the telemetry surface and keep a one-line dashboard fresh on
/// stderr until `stop` flips. Records the last observed ops/s so the
/// caller can cross-check it against its own measurement.
fn watch_loop(addr: SocketAddr, stop: Arc<AtomicBool>, last_rate_bits: Arc<AtomicU64>) {
    // A section-scoped numeric read: the first `"key"` match *after*
    // `section` (plain `json_number` would hit the counters section).
    fn section_number(body: &str, section: &str, key: &str) -> Option<f64> {
        let at = body.find(&format!("\"{section}\""))?;
        json_number(&body[at..], key)
    }
    while !stop.load(Ordering::SeqCst) {
        let metrics = http_get(addr, "/metrics?format=json").ok();
        let ledger = http_get(addr, "/ledger").ok();
        let health = http_get(addr, "/health").ok();
        let rate =
            metrics.as_ref().and_then(|(_, b)| section_number(b, "rates_per_sec", "load.ops_done"));
        let p99_us = metrics.as_ref().and_then(|(_, b)| {
            let at = b.find("\"window_histograms\"")?;
            section_number(&b[at..], "load.get_us", "p99")
        });
        let open = ledger.as_ref().and_then(|(_, b)| json_number(b, "open"));
        // Worst-case apology p99 across substrates, from the ledger's
        // per-substrate open→apology histograms (§5: how long did a
        // customer wait to hear "sorry"?).
        let apology_p99 = ledger.as_ref().and_then(|(_, b)| {
            b.match_indices("\"apology_latency_us\"")
                .filter_map(|(at, _)| json_number(&b[at..], "p99"))
                .fold(None, |best: Option<f64>, v| Some(best.map_or(v, |b| b.max(v))))
        });
        let (up, total) = health
            .as_ref()
            .map(|(_, b)| (json_number(b, "nodes_up"), json_number(b, "nodes_total")))
            .unwrap_or((None, None));
        if let Some(r) = rate {
            last_rate_bits.store(r.to_bits(), Ordering::SeqCst);
        }
        let mut line = String::from("watch:");
        match rate {
            Some(r) => {
                let _ = write!(line, " {r:7.0} ops/s");
            }
            None => line.push_str(" (rates warming up)"),
        }
        if let Some(p) = p99_us {
            let _ = write!(line, " | get p99 {:.1}ms", p / 1000.0);
        }
        if let Some(o) = open {
            let _ = write!(line, " | open guesses {o:.0}");
        }
        if let Some(p) = apology_p99 {
            let _ = write!(line, " | apology p99 {:.1}ms", p / 1000.0);
        }
        if let (Some(u), Some(t)) = (up, total) {
            let _ = write!(line, " | nodes {u:.0}/{t:.0} up");
        }
        eprint!("\r{line}    ");
        let mut slept = Duration::ZERO;
        while slept < Duration::from_millis(500) && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            slept += Duration::from_millis(50);
        }
    }
    eprintln!();
}

fn run_once(cfg: &Config, ops_per_client: u64) -> RunResult {
    let mut b = RuntimeBuilder::new();
    if let Some(s) = cfg.seed {
        b = b.seed(s);
    }
    if cfg.watch || cfg.telemetry_addr.is_some() {
        let addr = cfg.telemetry_addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_owned());
        b = b
            .telemetry(addr.as_str())
            .unwrap_or_else(|e| {
                eprintln!("cannot bind telemetry on {addr}: {e}");
                std::process::exit(2);
            })
            .snapshot_interval(Duration::from_millis(500));
    }
    let chaos_plan = match cfg.fault_plan {
        Some(fseed) => {
            let others = cfg.spares + cfg.clients;
            let spec = fault_spec(cfg.stores, others, cfg.fault_window_ms, cfg.fault_clauses);
            let plan = FaultPlan::generate(fseed, &spec);
            eprintln!("fault plan (seed {fseed}, {} clauses): {plan}", plan.len());
            b = b.chaos(plan.clone(), fseed);
            Some(plan)
        }
        None => None,
    };
    let store_ids = add_stores(&mut b, cfg.stores, cfg.spares);
    // Clients route through the founding members only; a spare becomes
    // reachable through *them* once it joins the ring (that's the point
    // of the audit — no client ever learns the spare's address).
    let member_ids: Vec<NodeId> = store_ids[..cfg.stores as usize].to_vec();
    let mut client_ids = Vec::new();
    for c in 0..cfg.clients {
        let client = LoadClient::new(c, member_ids.clone(), ops_per_client, cfg.keys, cfg.put_pct)
            .with_think(SimDuration::from_micros(cfg.think_us))
            .with_items_per_put(cfg.items_per_put);
        client_ids.push(b.add_node(client));
    }

    let total_ops = cfg.clients as u64 * ops_per_client;
    let started = Instant::now();
    let rt = b.launch_transport(cfg.transport).expect("launch");
    if let Some(addr) = rt.telemetry_addr() {
        eprintln!(
            "telemetry: http://{addr}  (/health /metrics /ledger /trace /incidents /explain)"
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let last_rate_bits = Arc::new(AtomicU64::new(f64::NAN.to_bits()));
    let watcher = (cfg.watch && rt.telemetry_addr().is_some()).then(|| {
        let addr = rt.telemetry_addr().expect("telemetry enabled for watch");
        let stop = stop.clone();
        let bits = last_rate_bits.clone();
        std::thread::spawn(move || watch_loop(addr, stop, bits))
    });

    // The ring digest every store publishes as `membership.ring_version`
    // — read through the live `/metrics` endpoint when it's up (the
    // operator's view), falling back to the engine core's gauge.
    let ring_version_now = || -> f64 {
        if let Some(addr) = rt.telemetry_addr() {
            if let Ok((_, body)) = http_get(addr, "/metrics?format=json") {
                if let Some(v) = json_number(&body, "membership.ring_version") {
                    return v;
                }
            }
        }
        rt.with_core(|c| c.metrics.gauge("membership.ring_version"))
    };
    let timeout = Duration::from_secs(cfg.timeout_secs);
    let give_up = |e: Stalled| -> ! {
        eprintln!("TIMEOUT: {e}");
        std::process::exit(1);
    };

    // The CLI-timed membership changes: the first spare joins, the last
    // founding member leaves. Each fires at its wall-clock mark or at
    // the end of client work, whichever comes first — the audit wants
    // the change to happen, not to silently miss the window.
    let joiner = cfg.join_at_ms.map(|_| NodeId(cfg.stores as usize));
    let leaver = cfg.leave_at_ms.map(|_| NodeId(cfg.stores as usize - 1));
    let mut marks = vec![
        (cfg.join_at_ms, joiner, "CtlJoin", ServiceMsg::CtlJoin),
        (cfg.leave_at_ms, leaver, "CtlLeave", ServiceMsg::CtlLeave),
    ];
    marks.sort_by_key(|m| m.0);
    let mut ring_before: Option<f64> = None;
    for (at_ms, node, what, msg) in marks {
        let (Some(at_ms), Some(node)) = (at_ms, node) else { continue };
        let until_mark = Duration::from_millis(at_ms).saturating_sub(started.elapsed());
        let _ = wait_done(&rt, &client_ids, LoadClient::done, until_mark);
        let v = *ring_before.get_or_insert_with(&ring_version_now);
        let at = started.elapsed().as_millis();
        eprintln!("  membership: {what} -> n{} at {at}ms (ring v{v:.0})", node.0);
        rt.inject(node, node, msg);
    }
    // Closed loop: every client works through its ops.
    let left = timeout.saturating_sub(started.elapsed());
    wait_done(&rt, &client_ids, LoadClient::done, left).unwrap_or_else(|e| give_up(e));
    let elapsed = started.elapsed();

    settle(&rt, &store_ids, joiner, leaver, timeout).unwrap_or_else(|e| give_up(e));
    if let Some(chaos) = rt.chaos() {
        for line in chaos.applied() {
            eprintln!("  fault: {line}");
        }
    }
    // Read the operator-visible ring version back once every survivor
    // has converged on the new view.
    let ring_after = ring_before.map(|before| {
        let after = ring_version_now();
        if before == after {
            eprintln!("RING VERSION DID NOT ADVANCE: v{before:.0} before and after the change");
            std::process::exit(1);
        }
        eprintln!("  membership settled: ring v{before:.0} -> v{after:.0}, all transfers acked");
        after
    });

    // The quiescent ledger as the *endpoint* sees it, before teardown.
    let ledger_open_via_http = rt
        .telemetry_addr()
        .and_then(|addr| http_get(addr, "/ledger").ok())
        .and_then(|(_, body)| json_number(&body, "open"))
        .map(|v| v as u64);
    // After the plan has fully run out, every crashed node is back up:
    // `/health` must say 200 and its per-node crash counters must sum
    // to exactly the plan's crash clauses.
    if let (Some(plan), Some(addr)) = (&chaos_plan, rt.telemetry_addr()) {
        match http_get(addr, "/health") {
            Ok((status, body)) => {
                let total: u64 = body
                    .match_indices("\"crashes\":")
                    .map(|(i, pat)| {
                        body[i + pat.len()..]
                            .chars()
                            .take_while(char::is_ascii_digit)
                            .collect::<String>()
                            .parse()
                            .unwrap_or(0)
                    })
                    .sum();
                let want = plan.count_kind("crash") as u64;
                if status != 200 || total != want {
                    eprintln!(
                        "HEALTH CHECK FAILED after chaos: status {status}, \
                         node crash counters sum to {total} (want {want})"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "  /health 200 after heal; node crash counters sum to {total} \
                     (= plan's crash clauses)"
                );
            }
            Err(e) => {
                eprintln!("/health after chaos: {e}");
                std::process::exit(1);
            }
        }
        // Live forensics check: while the surface is still up, the
        // black box must already hold every chaos crash, and `/explain`
        // must serve both renderings for each.
        let crash_seqs = rt.with_core(|c| ServiceAudit::of_core(c, None)).incidents;
        match http_get(addr, "/incidents") {
            Ok((200, body)) => {
                let count = json_number(&body, "count").unwrap_or(-1.0) as i64;
                if count < crash_seqs.len() as i64 {
                    eprintln!(
                        "/incidents reports {count} incidents; core holds {} chaos crashes",
                        crash_seqs.len()
                    );
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("/incidents did not serve the index: {other:?}");
                std::process::exit(1);
            }
        }
        for &seq in &crash_seqs {
            match http_get(addr, &format!("/explain?incident={seq}")) {
                Ok((200, text)) if text.contains("crash") => {}
                other => {
                    eprintln!("/explain?incident={seq} bad text rendering: {other:?}");
                    std::process::exit(1);
                }
            }
            match http_get(addr, &format!("/explain?incident={seq}&format=perfetto")) {
                Ok((200, body)) if body.trim_start().starts_with('[') => {}
                other => {
                    eprintln!("/explain?incident={seq}&format=perfetto not a trace: {other:?}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!(
            "  /incidents + /explain serve {} chaos-crash post-mortem(s) live",
            crash_seqs.len()
        );
    }
    stop.store(true, Ordering::SeqCst);
    if let Some(w) = watcher {
        w.join().ok();
    }
    let report = rt.shutdown();

    let audit = audit(&report, &store_ids, &client_ids, chaos_plan.as_ref(), joiner, leaver);
    let (mut get_failures, mut put_failures, mut stuck) = (0u64, 0u64, 0u64);
    for &c in &client_ids {
        let cl = report.actor::<LoadClient>(c);
        get_failures += cl.get_failures;
        put_failures += cl.put_failures;
        stuck += cl.stuck_retries;
    }
    if audit.check().is_ok() {
        if let Some(j) = &audit.joiner {
            let (n, keys) = (j.node.0, j.keys);
            eprintln!("  join audit: n{n} is {:?} in the ring holding {keys} key(s)", j.status);
        }
        if let Some(l) = &audit.leaver {
            let n = l.node.0;
            eprintln!("  leave audit: n{n} departed cleanly, every owed key streamed out");
        }
        if let Some((crashes, edges)) = audit.planned {
            eprintln!(
                "  chaos accounted: {edges} clause edges applied, {crashes} crash/restart cycles"
            );
            eprintln!(
                "  incident audit: {crashes} planned crash(es), {crashes} incident(s), every \
                 slice contains its crash edge"
            );
        }
    }

    let mut core = report.core;
    // Percentiles via the log-bucketed estimator — the exact same shape
    // the telemetry endpoint serves for these histograms.
    let mut latency = |name| {
        let lh = LogHistogram::from_exact(core.metrics.histogram(name));
        (lh.count(), lh.percentile(50.0), lh.percentile(99.0))
    };
    let (gets, get_p50, get_p99) = latency("load.get_us");
    let (puts, put_p50, put_p99) = latency("load.put_us");
    if let Some(dir) = &cfg.incidents_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("creating {}: {e}", dir.display());
            std::process::exit(1);
        });
        let all: Vec<Incident> = core.incidents.iter().cloned().collect();
        let mut stream = IncidentStream::open(&dir.join("stream"));
        let fresh = all.iter().filter(|i| stream.append(i)).count();
        drop(stream);
        // Reopen from disk: the black box must survive the process
        // that wrote it, and a re-drain must be a pure dedup no-op.
        let mut reopened = IncidentStream::open(&dir.join("stream"));
        let redrained = all.iter().filter(|i| reopened.append(i)).count();
        if redrained != 0 {
            eprintln!("INCIDENT STREAM NOT IDEMPOTENT: {redrained} records re-appended");
            std::process::exit(1);
        }
        let held = reopened.replay();
        if held.len() < all.len() {
            eprintln!(
                "INCIDENT STREAM LOST RECORDS: appended {} but only {} survive reopen",
                all.len(),
                held.len()
            );
            std::process::exit(1);
        }
        std::fs::write(dir.join("incidents.json"), reopened.index_json()).unwrap_or_else(|e| {
            eprintln!("writing incidents.json: {e}");
            std::process::exit(1);
        });
        for rec in &held {
            let name = format!("incident-n{}-e{}-{}.txt", rec.node, rec.epoch, rec.seq);
            std::fs::write(dir.join(name), &rec.text).unwrap_or_else(|e| {
                eprintln!("writing incident text: {e}");
                std::process::exit(1);
            });
        }
        eprintln!(
            "  incidents: {} durable under {} ({} new this run, reopen verified)",
            held.len(),
            dir.display(),
            fresh
        );
    }
    let throughput = total_ops as f64 / elapsed.as_secs_f64();
    let watched_rate = f64::from_bits(last_rate_bits.load(Ordering::SeqCst));

    RunResult {
        total_ops,
        elapsed,
        throughput,
        gets,
        puts,
        get_p50,
        get_p99,
        put_p50,
        put_p99,
        audit,
        get_failures,
        put_failures,
        stuck,
        telemetry_rate: watched_rate.is_finite().then_some(watched_rate),
        ledger_open_via_http,
        ring_versions: ring_before.zip(ring_after),
    }
}

/// The BENCH_6 grid: worker-thread count (clients) × payload size
/// (unique items per PUT).
const SWEEP_CLIENTS: [u32; 3] = [1, 4, 8];
const SWEEP_ITEMS: [u64; 2] = [1, 8];
/// Total ops per sweep cell (split across that cell's clients).
const SWEEP_OPS_PER_CELL: u64 = 4000;

fn run_sweep(cfg: &Config, path: &str) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"BENCH_6\",");
    let _ = writeln!(
        json,
        "  \"description\": \"wall-clock cart service, closed loop: worker threads (clients) x payload (items per PUT)\","
    );
    let _ = writeln!(json, "  \"transport\": \"{:?}\",", cfg.transport);
    let _ = writeln!(json, "  \"stores\": {},", cfg.stores);
    let _ = writeln!(json, "  \"keys\": {},", cfg.keys);
    let _ = writeln!(json, "  \"put_pct\": {},", cfg.put_pct);
    let _ = writeln!(json, "  \"ops_per_cell\": {SWEEP_OPS_PER_CELL},");
    json.push_str("  \"cells\": [\n");
    let mut first = true;
    for &clients in &SWEEP_CLIENTS {
        for &items in &SWEEP_ITEMS {
            let cell_cfg = Config { clients, items_per_put: items, watch: false, ..cfg.clone() };
            let ops_per_client = (SWEEP_OPS_PER_CELL / clients as u64).max(1);
            eprintln!("sweep cell: {clients} clients x {items} items/put");
            let r = run_once(&cell_cfg, ops_per_client);
            eprintln!(
                "  {:>6.0} ops/s | get p99 {:>7.0} us | put p99 {:>7.0} us | lost {} | open {}",
                r.throughput,
                r.get_p99,
                r.put_p99,
                r.audit.lost.len(),
                r.audit.open_guesses
            );
            if let Err(e) = r.audit.check() {
                eprintln!("SWEEP CELL FAILED:\n{e}");
                std::process::exit(1);
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"clients\": {clients}, \"items_per_put\": {items}, \
                 \"worker_threads\": {}, \"ops_total\": {}, \"acked_adds\": {}, \
                 \"lost_acked_adds\": {}, \"open_guesses_after_quiescence\": {}, \
                 \"elapsed_secs\": {:.3}, \"throughput_ops_per_sec\": {:.0}, \
                 \"get_p50_us\": {:.0}, \"get_p99_us\": {:.0}, \
                 \"put_p50_us\": {:.0}, \"put_p99_us\": {:.0}}}",
                cfg.stores + clients,
                r.total_ops,
                r.audit.acked,
                r.audit.lost.len(),
                r.audit.open_guesses,
                r.elapsed.as_secs_f64(),
                r.throughput,
                r.get_p50,
                r.get_p99,
                r.put_p50,
                r.put_p99,
            );
        }
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("sweep table written to {path}");
}

fn main() {
    let cfg = parse_args();
    if let Some(path) = cfg.sweep_out.clone() {
        run_sweep(&cfg, &path);
        return;
    }

    let ops_per_client = cfg.ops_per_client.unwrap_or(6250);
    let total_ops = cfg.clients as u64 * ops_per_client;
    eprintln!(
        "loadgen: {} stores + {} clients on {:?} ({} worker threads), {} ops total, {}% puts, {} items/put",
        cfg.stores,
        cfg.clients,
        cfg.transport,
        cfg.stores + cfg.clients,
        total_ops,
        cfg.put_pct,
        cfg.items_per_put,
    );

    let r = run_once(&cfg, ops_per_client);

    eprintln!(
        "completed {} ops in {:.2}s — {:.0} ops/s across {} worker threads",
        r.total_ops,
        r.elapsed.as_secs_f64(),
        r.throughput,
        cfg.stores + cfg.clients,
    );
    eprintln!("  GET ({}): p50 {:.0} us, p99 {:.0} us", r.gets, r.get_p50, r.get_p99);
    eprintln!("  PUT ({}): p50 {:.0} us, p99 {:.0} us", r.puts, r.put_p50, r.put_p99);
    eprintln!(
        "  acked adds {} | lost {} | get failures {} | put failures {} | stuck retries {}",
        r.audit.acked,
        r.audit.lost.len(),
        r.get_failures,
        r.put_failures,
        r.stuck,
    );
    if let Some(rate) = r.telemetry_rate {
        eprintln!(
            "  telemetry endpoint saw {rate:.0} ops/s (loadgen measured {:.0} ops/s overall)",
            r.throughput
        );
    }

    if let Some(path) = &cfg.json_out {
        // Key order is fixed and all non-timing fields are functions of
        // the workload, so two runs of the same config differ only in
        // the timing values.
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"stores\": {},", cfg.stores);
        let _ = writeln!(json, "  \"clients\": {},", cfg.clients);
        let _ = writeln!(json, "  \"worker_threads\": {},", cfg.stores + cfg.clients);
        let _ = writeln!(json, "  \"transport\": \"{:?}\",", cfg.transport);
        let _ = writeln!(json, "  \"ops_total\": {},", r.total_ops);
        let _ = writeln!(json, "  \"put_pct\": {},", cfg.put_pct);
        let _ = writeln!(json, "  \"items_per_put\": {},", cfg.items_per_put);
        let _ = writeln!(json, "  \"acked_adds\": {},", r.audit.acked);
        let _ = writeln!(json, "  \"lost_acked_adds\": {},", r.audit.lost.len());
        let _ = writeln!(json, "  \"open_guesses_after_quiescence\": {},", r.audit.open_guesses);
        let _ = writeln!(json, "  \"elapsed_secs\": {:.3},", r.elapsed.as_secs_f64());
        let _ = writeln!(json, "  \"throughput_ops_per_sec\": {:.0},", r.throughput);
        let _ = writeln!(json, "  \"get_p50_us\": {:.0},", r.get_p50);
        let _ = writeln!(json, "  \"get_p99_us\": {:.0},", r.get_p99);
        let _ = writeln!(json, "  \"put_p50_us\": {:.0},", r.put_p50);
        let _ = writeln!(json, "  \"put_p99_us\": {:.0}", r.put_p99);
        json.push_str("}\n");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
    }

    // The verdict: every promise the shared audit checks, at once.
    if let Err(e) = r.audit.check() {
        eprintln!("{e}");
        std::process::exit(1);
    }
    if cfg.fault_plan.is_some() {
        eprintln!("  chaos run clean: 0 lost acked adds, 0 open guesses");
    }
    if let Some((before, after)) = r.ring_versions {
        eprintln!(
            "  membership run clean: ring v{before:.0} -> v{after:.0}, \
             0 lost acked adds, 0 open guesses"
        );
    }
    if cfg.watch {
        // The §5 invariant, enforced from the *outside*: the endpoint's
        // post-quiescence ledger must agree that nothing is open.
        if let Some(open) = r.ledger_open_via_http.filter(|&open| open > 0) {
            eprintln!("OPEN GUESSES AFTER QUIESCENCE: endpoint saw {open}, core has 0");
            std::process::exit(1);
        }
        eprintln!("  ledger settled: 0 open guesses after quiescence");
    }
}
