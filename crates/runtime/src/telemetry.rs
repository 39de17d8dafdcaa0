//! The live operator surface: an embedded HTTP/1.1 endpoint over the
//! runtime's own telemetry.
//!
//! *Building on Quicksand* systems run on guesses and apologies, which
//! means an operator needs to see the guesses outstanding and the
//! apologies issued **while traffic flows**, not in a post-mortem
//! export. This module gives every [`crate::Runtime`] an optional,
//! dependency-free HTTP server (std `TcpListener`, a small fixed pool
//! of worker threads behind a bounded accept queue) exposing:
//!
//! - `GET /health` — per-node up/down, crash epoch, restart and
//!   panic-crash counts, mailbox depth; `200` when every node is up,
//!   `503` otherwise (so a probe can alarm without parsing).
//! - `GET /metrics` — Prometheus text exposition by default, JSON with
//!   `?format=json`: every [`sim::EngineCore`] counter/gauge/histogram,
//!   the runtime-only gauges (mailbox depths, timer-wheel size, nodes
//!   up), ledger accounting with per-substrate confirm/apology latency
//!   quantiles, and **snapshot-derived rates** (ops/s and windowed
//!   p50/p99 over roughly the last ten seconds).
//! - `GET /ledger` — the guess/apology books, per substrate, plus every
//!   still-open guess: the §5 accounting, live.
//! - `GET /trace` — a bounded tail of the span store streamed as Chrome
//!   `trace_event` JSON (chunked transfer), loadable in Perfetto with
//!   the exact schema the simulator's exporter emits
//!   ([`sim::SpanRecord::to_chrome_event`]); `?span=S7` narrows to one
//!   request's span subtree.
//! - `GET /incidents` — the black box: every crash post-mortem the
//!   runtime filed ([`sim::IncidentLog`]), as an index with per-incident
//!   guess/crash summaries.
//! - `GET /explain?incident=N` / `?guess=G7` — the causal-slice
//!   rendering for one incident or one guess, as a text timeline by
//!   default, `?format=perfetto` for a Chrome trace, `?format=json` for
//!   the full structured record.
//!
//! Malformed query parameters (`?limit=`, `?format=`, `?incident=`,
//! `?guess=`, `?span=`) are a `400`, never a silent default.
//!
//! ## The snapshot layer
//!
//! Rates and windowed percentiles need two points in time. A background
//! thread captures the counter map and log-bucketed
//! ([`sim::LogHistogram`]) forms of every histogram at a fixed interval
//! into a small ring; request handlers derive `Δcount/Δt` and
//! bucket-wise histogram deltas from the ring instead of touching raw
//! samples. Histogram conversion is incremental — each tick only the
//! samples recorded since the previous tick are folded in — so the
//! capture cost per interval is proportional to new traffic, not run
//! length.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sim::{EngineCore, GuessId, LogHistogram, SimTime, SpanId, SpanStore};

/// Live status of one node, updated by its worker thread and read by
/// the telemetry surface without taking the core lock.
#[derive(Debug, Default)]
pub struct NodeStatus {
    up: AtomicBool,
    epoch: AtomicU64,
    crashes: AtomicU64,
    restarts: AtomicU64,
    panic_crashes: AtomicU64,
}

impl NodeStatus {
    pub(crate) fn new() -> Self {
        NodeStatus { up: AtomicBool::new(true), ..Default::default() }
    }

    /// Is the node currently serving?
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Crash epoch (bumped once per crash).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Crashes of any kind (injected or panic).
    pub fn crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
    }

    /// Restarts after crashes.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Crashes caused by a panicking callback (§2.2 fail-fast).
    pub fn panic_crashes(&self) -> u64 {
        self.panic_crashes.load(Ordering::Relaxed)
    }

    pub(crate) fn note_crash(&self, epoch: u64, panicked: bool) {
        self.up.store(false, Ordering::Relaxed);
        self.epoch.store(epoch, Ordering::Relaxed);
        self.crashes.fetch_add(1, Ordering::Relaxed);
        if panicked {
            self.panic_crashes.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_restart(&self) {
        self.up.store(true, Ordering::Relaxed);
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the telemetry surface needs from the runtime, type-erased so
/// the HTTP server is not generic over the message type.
pub(crate) trait CoreHandle: Send + Sync {
    /// Lock the shared engine core.
    fn lock_core(&self) -> MutexGuard<'_, EngineCore>;
    /// Wall time since launch on the sim axis.
    fn uptime(&self) -> SimTime;
    /// Per-node live status.
    fn nodes(&self) -> &[NodeStatus];
    /// Current mailbox depth of `node`.
    fn mailbox_depth(&self, node: usize) -> u64;
    /// Timers armed and not yet fired.
    fn timer_wheel_len(&self) -> usize;
}

/// One periodic capture of the core's counters and histograms.
struct Snapshot {
    taken: Instant,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, LogHistogram>,
}

/// State shared between the snapshot thread and request handlers.
struct SnapRing {
    ring: Vec<Snapshot>,
    /// Samples already folded into the cumulative log histograms, per
    /// histogram name (incremental conversion cursor).
    consumed: BTreeMap<String, usize>,
    cumulative: BTreeMap<String, LogHistogram>,
}

/// How many snapshots the ring retains (at the default 1s interval this
/// comfortably covers the ~10s rate window).
const RING_CAP: usize = 16;

/// The rate/percentile window the surface aims to report over.
const WINDOW_TARGET: Duration = Duration::from_secs(10);

impl SnapRing {
    fn capture(&mut self, core: &dyn CoreHandle) {
        let taken = Instant::now();
        let mut counters = BTreeMap::new();
        {
            let core = core.lock_core();
            for (name, v) in core.metrics.counters() {
                counters.insert(name.to_owned(), v);
            }
            for (name, h) in core.metrics.histograms() {
                let consumed = self.consumed.entry(name.to_owned()).or_insert(0);
                let lh = self.cumulative.entry(name.to_owned()).or_default();
                for v in h.values().skip(*consumed) {
                    lh.record(v);
                }
                *consumed = h.count();
            }
        }
        let snap = Snapshot { taken, counters, hists: self.cumulative.clone() };
        if self.ring.len() == RING_CAP {
            self.ring.remove(0);
        }
        self.ring.push(snap);
    }

    /// The newest snapshot and the retained one whose age is closest to
    /// the target window, for rate derivation.
    fn window(&self) -> Option<(&Snapshot, &Snapshot)> {
        let newest = self.ring.last()?;
        let base = self.ring[..self.ring.len() - 1].iter().min_by_key(|s| {
            let age = newest.taken.saturating_duration_since(s.taken);
            age.abs_diff(WINDOW_TARGET)
        })?;
        Some((newest, base))
    }
}

/// Derived view of the snapshot ring: per-counter rates and windowed
/// histogram deltas over `window_secs`.
struct Derived {
    window_secs: f64,
    rates: BTreeMap<String, f64>,
    window_hists: BTreeMap<String, LogHistogram>,
}

fn derive(ring: &SnapRing) -> Option<Derived> {
    let (newest, base) = ring.window()?;
    let dt = newest.taken.saturating_duration_since(base.taken).as_secs_f64();
    if dt <= 0.0 {
        return None;
    }
    let mut rates = BTreeMap::new();
    for (name, &v) in &newest.counters {
        let prev = base.counters.get(name).copied().unwrap_or(0);
        rates.insert(name.clone(), (v.saturating_sub(prev)) as f64 / dt);
    }
    let mut window_hists = BTreeMap::new();
    for (name, h) in &newest.hists {
        let delta = match base.hists.get(name) {
            Some(earlier) => h.delta_since(earlier),
            None => h.clone(),
        };
        window_hists.insert(name.clone(), delta);
    }
    Some(Derived { window_secs: dt, rates, window_hists })
}

/// Fixed number of request-handling worker threads: enough for a
/// scraper plus a human poking around, small enough that a curl storm
/// cannot exhaust the process's thread budget.
const WORKER_POOL: usize = 4;

/// Accepted-but-unserved connections the pool will queue before the
/// acceptor starts shedding load with `503`s.
const PENDING_CAP: usize = 32;

/// A running telemetry endpoint. Created by
/// [`crate::RuntimeBuilder::telemetry`]; shut down with the runtime.
pub(crate) struct TelemetrySurface {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    snap_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TelemetrySurface {
    /// Start serving on a pre-bound listener.
    pub fn start(
        listener: TcpListener,
        core: Arc<dyn CoreHandle>,
        interval: Duration,
    ) -> std::io::Result<TelemetrySurface> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ring = Arc::new(Mutex::new(SnapRing {
            ring: Vec::new(),
            consumed: BTreeMap::new(),
            cumulative: BTreeMap::new(),
        }));
        let snap_stop = stop.clone();
        let snap_core = core.clone();
        let snap_ring = ring.clone();
        let snap_thread = std::thread::spawn(move || {
            // First capture immediately so rates exist after one interval.
            lock(&snap_ring).capture(snap_core.as_ref());
            while !snap_stop.load(Ordering::SeqCst) {
                // Chunked sleep so shutdown is prompt.
                let mut slept = Duration::ZERO;
                while slept < interval && !snap_stop.load(Ordering::SeqCst) {
                    let step = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(step);
                    slept += step;
                }
                if snap_stop.load(Ordering::SeqCst) {
                    break;
                }
                lock(&snap_ring).capture(snap_core.as_ref());
            }
        });

        // Bounded worker pool: the acceptor only hands sockets to a
        // fixed-size channel; when every worker is busy and the queue
        // is full it sheds load with a 503 instead of spawning an
        // unbounded thread per connection.
        let (tx, rx) = sync_channel::<TcpStream>(PENDING_CAP);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..WORKER_POOL)
            .map(|_| {
                let rx = rx.clone();
                let core = core.clone();
                let ring = ring.clone();
                std::thread::spawn(move || loop {
                    let next = lock(&rx).recv();
                    match next {
                        Ok(stream) => handle_connection(stream, core.clone(), ring.clone()),
                        Err(_) => break, // acceptor gone, pool drains out
                    }
                })
            })
            .collect();

        let accept_stop = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        respond(&mut stream, 503, "text/plain", "telemetry worker pool full\n");
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Dropping `tx` here unblocks every idle worker's recv().
        });

        Ok(TelemetrySurface {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            snap_thread: Some(snap_thread),
            workers,
        })
    }

    /// The bound address (real port even when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the acceptor observes the flag.
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.accept_thread.take() {
            h.join().ok();
        }
        if let Some(h) = self.snap_thread.take() {
            h.join().ok();
        }
        // The acceptor dropped its channel sender on exit, so each
        // worker finishes its in-flight request and sees Disconnected.
        for h in std::mem::take(&mut self.workers) {
            h.join().ok();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------

fn handle_connection(stream: TcpStream, core: Arc<dyn CoreHandle>, ring: Arc<Mutex<SnapRing>>) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers (we route on the request line alone).
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut stream = stream;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return,
    };
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", "method not allowed (GET only)\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/" => respond(
            &mut stream,
            200,
            "text/plain",
            "quicksand runtime telemetry\n\
             GET /health     per-node liveness (200 iff all up)\n\
             GET /metrics    Prometheus exposition (?format=json for JSON)\n\
             GET /ledger     guess/apology accounting + open guesses\n\
             GET /trace      span tail as Perfetto/Chrome trace JSON (?limit=N, ?span=S7)\n\
             GET /incidents  crash post-mortem index (the black box)\n\
             GET /explain    ?incident=N or ?guess=G7; ?format=text|perfetto|json\n",
        ),
        "/health" => {
            let (all_up, body) = render_health(core.as_ref());
            respond(&mut stream, if all_up { 200 } else { 503 }, "application/json", &body);
        }
        "/metrics" => {
            let json = match query_param(query, "format") {
                None | Some("prom") => false,
                Some("json") => true,
                Some(other) => {
                    let msg = format!("bad format {:?}: expected json or prom\n", other);
                    respond(&mut stream, 400, "text/plain", &msg);
                    return;
                }
            };
            let derived = derive(&lock(&ring));
            if json {
                let body = render_metrics_json(core.as_ref(), derived.as_ref());
                respond(&mut stream, 200, "application/json", &body);
            } else {
                let body = render_metrics_prom(core.as_ref(), derived.as_ref());
                respond(&mut stream, 200, "text/plain; version=0.0.4", &body);
            }
        }
        "/ledger" => {
            let body = render_ledger(core.as_ref());
            respond(&mut stream, 200, "application/json", &body);
        }
        "/trace" => {
            let limit = match query_param(query, "limit") {
                None => 20_000,
                Some(v) => match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        let msg = format!("bad limit {:?}: expected a non-negative integer\n", v);
                        respond(&mut stream, 400, "text/plain", &msg);
                        return;
                    }
                },
            };
            let span = match query_param(query, "span") {
                None => None,
                Some(v) => match parse_id(v, 'S') {
                    Some(id) => Some(SpanId(id)),
                    None => {
                        let msg = format!("bad span {:?}: expected S<n> or a span number\n", v);
                        respond(&mut stream, 400, "text/plain", &msg);
                        return;
                    }
                },
            };
            if let Some(id) = span {
                // Two different operator facts: the window moved past
                // it, or it never existed.
                let gone = {
                    let core = core.lock_core();
                    match core.spans.get(id) {
                        Some(_) => None,
                        None if core.spans.was_evicted(id) => Some(format!(
                            "span {id} evicted (oldest retained: S{})\n",
                            core.spans.first_retained()
                        )),
                        None => Some(format!(
                            "span {id} never recorded ({} opened so far)\n",
                            core.spans.len()
                        )),
                    }
                };
                if let Some(msg) = gone {
                    respond(&mut stream, 404, "text/plain", &msg);
                    return;
                }
            }
            stream_trace(&mut stream, core.as_ref(), limit, span);
        }
        "/incidents" => {
            let body = core.lock_core().incidents.index_json();
            respond(&mut stream, 200, "application/json", &body);
        }
        "/explain" => handle_explain(&mut stream, core.as_ref(), query),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// `"G7"`/`"S7"`/`"E7"` (any single-letter prefix matching `tag`,
/// case-insensitive) or a bare `"7"` → `7`.
fn parse_id(v: &str, tag: char) -> Option<u64> {
    let digits =
        v.strip_prefix(tag).or_else(|| v.strip_prefix(tag.to_ascii_lowercase())).unwrap_or(v);
    digits.parse::<u64>().ok()
}

/// `GET /explain?incident=N` or `?guess=G7` — render the causal slice
/// behind one filed incident or one guess, live.
fn handle_explain(stream: &mut TcpStream, core: &dyn CoreHandle, query: &str) {
    let format = match query_param(query, "format") {
        None | Some("text") => "text",
        Some(f @ ("perfetto" | "json")) => f,
        Some(other) => {
            let msg = format!("bad format {:?}: expected text, perfetto, or json\n", other);
            respond(stream, 400, "text/plain", &msg);
            return;
        }
    };
    let incident = query_param(query, "incident");
    let guess = query_param(query, "guess");
    let (code, content_type, body) = match (incident, guess) {
        (Some(_), Some(_)) => {
            (400, "text/plain", "pass either ?incident=N or ?guess=G7, not both\n".to_owned())
        }
        (None, None) => {
            (400, "text/plain", "pass ?incident=N or ?guess=G7 (see /incidents)\n".to_owned())
        }
        (Some(v), None) => match parse_id(v, '#') {
            None => (400, "text/plain", format!("bad incident {:?}: expected a sequence\n", v)),
            Some(seq) => {
                let c = core.lock_core();
                match c.incidents.get(seq) {
                    None => (404, "text/plain", format!("no incident #{} retained\n", seq)),
                    Some(inc) => match format {
                        "perfetto" => (200, "application/json", inc.explanation.perfetto_json()),
                        "json" => (200, "application/json", inc.to_json()),
                        _ => (200, "text/plain", inc.render_text()),
                    },
                }
            }
        },
        (None, Some(v)) => match parse_id(v, 'G') {
            None => (400, "text/plain", format!("bad guess {:?}: expected G<n>\n", v)),
            Some(id) => {
                let c = core.lock_core();
                match c.explain_guess(GuessId(id)) {
                    None => (
                        404,
                        "text/plain",
                        format!("guess G{} has no recorded flight events\n", id),
                    ),
                    Some(e) => match format {
                        "perfetto" => (200, "application/json", e.perfetto_json()),
                        "json" => (200, "application/json", e.to_json()),
                        _ => (200, "text/plain", e.render_text()),
                    },
                }
            }
        },
    };
    respond(stream, code, content_type, &body);
}

fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        code,
        status_text(code),
        content_type,
        body.len()
    );
    stream.write_all(head.as_bytes()).and_then(|_| stream.write_all(body.as_bytes())).ok();
}

/// Stream the most recent `limit` retained spans as a Chrome trace
/// array using chunked transfer encoding. With `root` set, only the
/// subtree under that span (the span plus its transitive descendants —
/// one request's causal footprint) is emitted; a descendant whose
/// parent has been evicted cannot be linked to it and is left out. Once
/// the store has evicted anything the array opens with a metadata
/// (`"ph":"M"`) event saying how much, so a tail is never mistaken for
/// the whole run. The span JSON is rendered under the core lock
/// (bounded by `limit` and the store's capacity), but socket writes
/// happen after release so a slow reader cannot stall the runtime.
fn stream_trace(stream: &mut TcpStream, core: &dyn CoreHandle, limit: usize, root: Option<SpanId>) {
    let events: Vec<String> = {
        let core = core.lock_core();
        let store = &core.spans;
        let mut events = Vec::new();
        if store.evicted() > 0 {
            events.push(format!(
                "{{\"name\":\"quicksand.spans_evicted\",\"ph\":\"M\",\"pid\":0,\"args\":\
                 {{\"evicted\":{},\"retained\":{},\"first_retained\":\"S{}\"}}}}",
                store.evicted(),
                store.retained(),
                store.first_retained()
            ));
        }
        match root {
            None => {
                let skip = store.retained().saturating_sub(limit);
                events.extend(store.spans().skip(skip).map(|s| s.to_chrome_event()));
            }
            Some(root) => {
                // Spans are stored in open order, so a parent always
                // precedes its children: one forward pass with a
                // membership set covers the whole subtree.
                let mut member = BTreeSet::new();
                for s in store.spans() {
                    if s.id == root || s.parent.is_some_and(|p| member.contains(&p)) {
                        member.insert(s.id);
                        if member.len() <= limit {
                            events.push(s.to_chrome_event());
                        }
                    }
                }
            }
        }
        events
    };
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut write_chunk = |data: &str| -> std::io::Result<()> {
        stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
        stream.write_all(data.as_bytes())?;
        stream.write_all(b"\r\n")
    };
    if write_chunk("[\n").is_err() {
        return;
    }
    for (i, ev) in events.iter().enumerate() {
        let mut piece = String::with_capacity(ev.len() + 2);
        if i > 0 {
            piece.push_str(",\n");
        }
        piece.push_str(ev);
        if write_chunk(&piece).is_err() {
            return;
        }
    }
    write_chunk("\n]\n").ok();
    stream.write_all(b"0\r\n\r\n").ok();
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jfloat(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{}", v)
        }
    } else {
        "null".to_owned()
    }
}

fn render_health(core: &dyn CoreHandle) -> (bool, String) {
    let nodes = core.nodes();
    let up = nodes.iter().filter(|n| n.is_up()).count();
    let panics: u64 = nodes.iter().map(|n| n.panic_crashes()).sum();
    let mut out = format!(
        "{{\"status\":{},\"uptime_us\":{},\"nodes_total\":{},\"nodes_up\":{},\
         \"panic_crashes\":{},\"nodes\":[",
        jstr(if up == nodes.len() { "ok" } else { "degraded" }),
        core.uptime().as_micros(),
        nodes.len(),
        up,
        panics,
    );
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"node\":\"n{}\",\"up\":{},\"epoch\":{},\"crashes\":{},\"restarts\":{},\
             \"panic_crashes\":{},\"mailbox_depth\":{}}}",
            i,
            n.is_up(),
            n.epoch(),
            n.crashes(),
            n.restarts(),
            n.panic_crashes(),
            core.mailbox_depth(i),
        ));
    }
    out.push_str("]}\n");
    (up == nodes.len(), out)
}

/// Runtime-only gauges, as (name, labels-suffix-or-empty, value).
/// `spans` is the locked core's store: the caller holds the lock.
fn runtime_gauges(core: &dyn CoreHandle, spans: &SpanStore) -> Vec<(String, f64)> {
    let nodes = core.nodes();
    let mut out = vec![
        ("runtime.nodes_up".to_owned(), nodes.iter().filter(|n| n.is_up()).count() as f64),
        ("runtime.timer_wheel_size".to_owned(), core.timer_wheel_len() as f64),
        ("runtime.spans_retained".to_owned(), spans.retained() as f64),
        ("runtime.spans_evicted".to_owned(), spans.evicted() as f64),
    ];
    let mut total = 0u64;
    for i in 0..nodes.len() {
        let d = core.mailbox_depth(i);
        total += d;
        out.push((format!("runtime.mailbox_depth{{node=n{i}}}"), d as f64));
    }
    out.push(("runtime.mailbox_depth_total".to_owned(), total as f64));
    out
}

fn render_metrics_json(core: &dyn CoreHandle, derived: Option<&Derived>) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"uptime_us\": {},\n", core.uptime().as_micros()));
    {
        let c = core.lock_core();
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in c.metrics.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", jstr(k), v));
        }
        out.push_str("\n  },\n  \"labeled_counters\": {");
        for (i, (k, v)) in c.metrics.labeled_counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", jstr(k), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (k, v) in c.metrics.gauges().chain(c.metrics.labeled_gauges()) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", jstr(k), jfloat(v)));
        }
        for (k, v) in runtime_gauges(core, &c.spans) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", jstr(&k), jfloat(v)));
        }
        out.push_str("\n  },\n  \"ledger\": ");
        out.push_str(&c.ledger.accounting().to_json());
        out.push_str(",\n");
    }
    match derived {
        Some(d) => {
            out.push_str(&format!("  \"window_secs\": {},\n", jfloat(d.window_secs)));
            out.push_str("  \"rates_per_sec\": {");
            for (i, (k, v)) in d.rates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {}: {}", jstr(k), jfloat((*v * 10.0).round() / 10.0)));
            }
            out.push_str("\n  },\n  \"window_histograms\": {");
            for (i, (k, h)) in d.window_hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {}: {}", jstr(k), h.to_json()));
            }
            out.push_str("\n  },\n");
        }
        None => out.push_str(
            "  \"window_secs\": null,\n  \"rates_per_sec\": {},\n  \"window_histograms\": {},\n",
        ),
    }
    {
        let c = core.lock_core();
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in c.metrics.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", jstr(k), LogHistogram::from_exact(h).to_json()));
        }
        out.push_str("\n  }\n}\n");
    }
    out
}

/// `a.b.c` → `quicksand_a_b_c`; anything exotic becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("quicksand_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Split a canonical `name{k=v,k2=v2}` series key into Prometheus form:
/// `quicksand_name{k="v",k2="v2"}`.
fn prom_series(key: &str) -> String {
    match key.split_once('{') {
        Some((name, labels)) => {
            let labels = labels.trim_end_matches('}');
            let rendered: Vec<String> = labels
                .split(',')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| format!("{}=\"{}\"", k, v.replace('"', "'")))
                .collect();
            format!("{}{{{}}}", prom_name(name), rendered.join(","))
        }
        None => prom_name(key),
    }
}

fn render_metrics_prom(core: &dyn CoreHandle, derived: Option<&Derived>) -> String {
    let mut out = String::new();
    out.push_str("# TYPE quicksand_uptime_seconds gauge\n");
    out.push_str(&format!("quicksand_uptime_seconds {}\n", core.uptime().as_micros() as f64 / 1e6));
    let gauges = {
        let c = core.lock_core();
        for (k, v) in c.metrics.counters() {
            out.push_str(&format!("# TYPE {} counter\n{} {}\n", prom_name(k), prom_name(k), v));
        }
        for (k, v) in c.metrics.labeled_counters() {
            out.push_str(&format!("{} {}\n", prom_series(k), v));
        }
        for (k, v) in c.metrics.gauges() {
            out.push_str(&format!(
                "# TYPE {} gauge\n{} {}\n",
                prom_name(k),
                prom_name(k),
                fmt_prom(v)
            ));
        }
        for (k, v) in c.metrics.labeled_gauges() {
            out.push_str(&format!("{} {}\n", prom_series(k), fmt_prom(v)));
        }
        for (k, h) in c.metrics.histograms() {
            let lh = LogHistogram::from_exact(h);
            let base = prom_name(k);
            out.push_str(&format!("# TYPE {base} summary\n"));
            for (q, p) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
                out.push_str(&format!(
                    "{base}{{quantile=\"{q}\"}} {}\n",
                    fmt_prom(lh.percentile(p))
                ));
            }
            out.push_str(&format!("{base}_count {}\n", lh.count()));
        }
        for (substrate, a) in &c.ledger.accounting().per_substrate {
            for (what, v) in [
                ("opened", a.opened),
                ("confirmed", a.confirmed),
                ("apologized", a.apologized),
                ("orphaned", a.orphaned),
                ("open", a.open),
            ] {
                out.push_str(&format!(
                    "quicksand_ledger_{what}{{substrate=\"{substrate}\"}} {v}\n"
                ));
            }
            // Open→resolve windows: how long a guess lived before it was
            // confirmed, and how long a customer waited for the apology.
            for (what, h) in
                [("confirm", &a.confirm_latency_us), ("apology", &a.apology_latency_us)]
            {
                let s = h.summary();
                for (q, v) in [("0.5", s.p50), ("0.99", s.p99)] {
                    out.push_str(&format!(
                        "quicksand_ledger_{what}_latency_us{{substrate=\"{substrate}\",\
                         quantile=\"{q}\"}} {}\n",
                        fmt_prom(v)
                    ));
                }
                out.push_str(&format!(
                    "quicksand_ledger_{what}_latency_us_count{{substrate=\"{substrate}\"}} {}\n",
                    s.count
                ));
            }
        }
        runtime_gauges(core, &c.spans)
    };
    for (k, v) in gauges {
        out.push_str(&format!("{} {}\n", prom_series(&k), fmt_prom(v)));
    }
    if let Some(d) = derived {
        out.push_str("# TYPE quicksand_rate_per_sec gauge\n");
        for (k, v) in &d.rates {
            out.push_str(&format!("quicksand_rate_per_sec{{name=\"{k}\"}} {}\n", fmt_prom(*v)));
        }
        out.push_str(&format!("quicksand_rate_window_seconds {}\n", fmt_prom(d.window_secs)));
        out.push_str("# TYPE quicksand_window_quantile gauge\n");
        for (k, h) in &d.window_hists {
            for (q, p) in [("0.5", 50.0), ("0.99", 99.0)] {
                out.push_str(&format!(
                    "quicksand_window_quantile{{name=\"{k}\",quantile=\"{q}\"}} {}\n",
                    fmt_prom(h.percentile(p))
                ));
            }
        }
    }
    out
}

fn fmt_prom(v: f64) -> String {
    if v.is_finite() {
        format!("{}", (v * 1000.0).round() / 1000.0)
    } else {
        "NaN".to_owned()
    }
}

/// How many open guesses `/ledger` lists in full before truncating
/// (truncation is declared in the payload).
const OPEN_GUESS_LIMIT: usize = 200;

fn render_ledger(core: &dyn CoreHandle) -> String {
    let c = core.lock_core();
    let acc = c.ledger.accounting();
    let open: Vec<&sim::GuessRecord> = c.ledger.records().iter().filter(|r| r.is_open()).collect();
    let mut out = format!(
        "{{\"open\":{},\"opened\":{},\"confirmed\":{},\"apologized\":{},\"orphaned\":{},\
         \"accounting\":{},\"open_guesses\":[",
        acc.open(),
        acc.opened(),
        acc.confirmed(),
        acc.apologized(),
        acc.orphaned(),
        acc.to_json(),
    );
    for (i, rec) in open.iter().take(OPEN_GUESS_LIMIT).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rec.to_json());
    }
    out.push(']');
    if open.len() > OPEN_GUESS_LIMIT {
        out.push_str(&format!(",\"open_guesses_truncated\":{}", open.len() - OPEN_GUESS_LIMIT));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_mangling_is_exposition_safe() {
        assert_eq!(prom_name("sim.messages_sent"), "quicksand_sim_messages_sent");
        assert_eq!(
            prom_series("ledger.open{substrate=dynamo}"),
            "quicksand_ledger_open{substrate=\"dynamo\"}"
        );
        assert_eq!(prom_series("plain.name"), "quicksand_plain_name");
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(query_param("format=json&limit=5", "format"), Some("json"));
        assert_eq!(query_param("format=json&limit=5", "limit"), Some("5"));
        assert_eq!(query_param("", "format"), None);
    }

    #[test]
    fn id_parsing_accepts_prefixed_and_bare() {
        assert_eq!(parse_id("G7", 'G'), Some(7));
        assert_eq!(parse_id("g7", 'G'), Some(7));
        assert_eq!(parse_id("7", 'G'), Some(7));
        assert_eq!(parse_id("S12", 'S'), Some(12));
        assert_eq!(parse_id("x7", 'G'), None);
        assert_eq!(parse_id("", 'G'), None);
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
