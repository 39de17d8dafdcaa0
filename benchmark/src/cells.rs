//! Cells: one isolated timed loop per layer, calling the layer's public
//! functions on values shaped like the workload's. They run as part of
//! the traced run and say how the runtime's per-op overhead divides.
//!
//! Every cell reports the median of [`BATCHES`] equal batches, so one
//! preempted batch does not move the number.

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cart::CartAction;
use crdt::Crdt;
use dynamo::{Dot, DynamoMsg, VectorClock, Versioned};
use eventlog::{DirKind, EvMsg, EventLog, LogConfig, MemKind};
use membership::HashRing;
use quicksand_core::uniquifier::UniquifierSource;
use quicksand_core::wire::{from_bytes, to_bytes};
use quicksand_core::WireCodec;
use quicksand_runtime::{RuntimeBuilder, TransportKind};
use sim::{
    Action, Actor, Context, EngineCore, FlightRecorder, MetricSet, NodeId, SimDuration, SimTime,
    SpanStatus, SpanStore,
};

use crate::cart::{preload_cart, Msg};
use crate::evlog::{PAYLOAD_BYTES, WINDOW};
use crate::stats::{median, percentile, sorted};

/// Batches per cell.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call.
fn ns_per_call(calls_per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..calls_per_batch {
            f(i);
            i += 1;
        }
        t.elapsed().as_nanos() as f64 / calls_per_batch as f64
    };
    batch(); // warm caches and the allocator
    median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// Which workload's values the wire and cart cells use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A cart workload with this many items per cart.
    Cart {
        /// Items per cart.
        items: u64,
    },
    /// The event-log workload (128-byte appends; cart cells use 4 items).
    Evlog,
}

/// How much work the cells do. [`Scale::full`] is what a traced run
/// uses; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Calls per batch of the in-memory cells.
    pub calls: u64,
    /// Messages per batch of the loopback relay (TCP does a tenth).
    pub relay_msgs: u64,
    /// 1 ms timers the timer cell arms.
    pub timers: u64,
    /// Records in the small file-backed log (also the in-memory one).
    pub log_records: u64,
    /// Records the file-backed log is grown to for the `_1m` cell.
    pub big_log_records: u64,
}

impl Scale {
    /// The scale of a real traced run.
    pub fn full() -> Scale {
        Scale {
            calls: 20_000,
            relay_msgs: 80_000,
            timers: 200,
            log_records: 100_000,
            big_log_records: 1_000_000,
        }
    }

    /// Divide every count by `by`.
    pub fn scaled_down(self, by: u64) -> Scale {
        Scale {
            calls: (self.calls / by).max(50),
            relay_msgs: (self.relay_msgs / by).max(800),
            timers: (self.timers / by).max(5),
            log_records: (self.log_records / by).max(2 * WINDOW as u64),
            big_log_records: (self.big_log_records / by).max(4 * WINDOW as u64),
        }
    }
}

/// Run every cell; returns `(metric name, value)` pairs.
pub fn run_all(shape: Shape, scale: Scale, out_dir: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    wire(shape, scale, &mut out);
    out.push(("dispatch.relay_ns", relay(TransportKind::Loopback, scale.relay_msgs)));
    out.push(("dispatch.relay_tcp_ns", relay(TransportKind::Tcp, scale.relay_msgs / 10)));
    timers(scale, &mut out);
    engine(scale, &mut out);
    let ring = HashRing::new(3, 64);
    out.push((
        "ring.preference_list_ns",
        ns_per_call(scale.calls, |i| {
            black_box(ring.preference_list(black_box(i.wrapping_mul(0x9E37_79B9)), 3));
        }),
    ));
    carts(shape, scale, &mut out);
    event_log(scale, out_dir, &mut out);
    out
}

fn wire(shape: Shape, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    fn cell<M: WireCodec>(msg: &M, calls: u64, out: &mut Vec<(&'static str, f64)>) {
        let bytes = to_bytes(msg);
        out.push(("wire.encode_ns", ns_per_call(calls, |_| drop(black_box(to_bytes(msg))))));
        out.push((
            "wire.decode_ns",
            ns_per_call(calls, |_| {
                black_box(from_bytes::<M>(black_box(&bytes)).expect("round trip"));
            }),
        ));
    }
    match shape {
        Shape::Cart { items } => {
            let version = Versioned::new(
                VectorClock::new().incremented(0).incremented(1),
                Dot { node: 1, counter: 9 },
                preload_cart(items),
            );
            let msg: Msg = DynamoMsg::ReplicaPut {
                req: Some(1 << 20),
                key: 17,
                versions: vec![version],
                hint_for: None,
                resp_to: NodeId(2),
            };
            cell(&msg, scale.calls, out);
        }
        Shape::Evlog => {
            let id = UniquifierSource::new(1).next_id();
            let msg = EvMsg::Append { id, payload: vec![0xA5; PAYLOAD_BYTES], resp_to: NodeId(1) };
            cell(&msg, scale.calls, out);
        }
    }
}

/// Forwards a countdown token around the ring of relays.
struct Relay {
    next: NodeId,
    done: mpsc::Sender<()>,
}

impl Actor<u64> for Relay {
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, hops_left: u64) {
        if hops_left == 0 {
            self.done.send(()).ok();
        } else {
            ctx.send(self.next, hops_left - 1);
        }
    }
}

/// Four no-op actors passing eight tokens: nanoseconds per message
/// through the runtime's whole dispatch path (mailbox, core lock,
/// bookkeeping, transport), median of [`BATCHES`] batches.
fn relay(kind: TransportKind, msgs_per_batch: u64) -> f64 {
    const NODES: usize = 4;
    const TOKENS: u64 = 8;
    let (tx, done) = mpsc::channel();
    let mut b = RuntimeBuilder::<u64>::new().seed(1);
    for n in 0..NODES {
        b.add_node(Relay { next: NodeId((n + 1) % NODES), done: tx.clone() });
    }
    let rt = b.launch_transport(kind).expect("launch the relay ring");
    let hops = msgs_per_batch / TOKENS;
    let batch = || {
        let t = Instant::now();
        for token in 0..TOKENS {
            rt.inject(NodeId(token as usize % NODES), NodeId(0), hops);
        }
        for _ in 0..TOKENS {
            done.recv_timeout(Duration::from_secs(60)).expect("relay stalled");
        }
        t.elapsed().as_nanos() as f64 / (hops * TOKENS) as f64
    };
    batch(); // dials the TCP connections
    let per_msg = median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>());
    rt.shutdown();
    per_msg
}

/// Arms timers and reports how they fire.
struct TimerProbe {
    delay: SimDuration,
    remaining: u64,
    armed_at: Instant,
    /// Arm → fire, nanoseconds, per timer.
    fired_after_ns: Vec<u64>,
    done: mpsc::Sender<Vec<u64>>,
}

impl Actor<u64> for TimerProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.armed_at = Instant::now();
        ctx.set_timer(self.delay, 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _tag: u64) {
        self.fired_after_ns.push(self.armed_at.elapsed().as_nanos() as u64);
        self.remaining -= 1;
        if self.remaining == 0 {
            self.done.send(std::mem::take(&mut self.fired_after_ns)).ok();
        } else {
            self.armed_at = Instant::now();
            ctx.set_timer(self.delay, 0);
        }
    }
}

fn timer_run(delay: SimDuration, count: u64) -> Vec<u64> {
    let (tx, done) = mpsc::channel();
    let mut b = RuntimeBuilder::<u64>::new().seed(1);
    b.add_node(TimerProbe {
        delay,
        remaining: count,
        armed_at: Instant::now(),
        fired_after_ns: Vec::with_capacity(count as usize),
        done: tx,
    });
    let rt = b.launch();
    let fired = done.recv_timeout(Duration::from_secs(60)).expect("timer probe stalled");
    rt.shutdown();
    fired
}

fn timers(scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let ms = SimDuration::from_millis(1);
    let late: Vec<f64> = timer_run(ms, scale.timers)
        .into_iter()
        .map(|ns| (ns as f64 - 1e6).max(0.0) / 1e3)
        .collect();
    out.push(("timer.overshoot_p50_us", percentile(&sorted(late), 50.0)));
    let rearm: Vec<f64> =
        timer_run(SimDuration::ZERO, scale.calls).into_iter().map(|ns| ns as f64).collect();
    out.push(("timer.arm_fire_ns", percentile(&sorted(rearm), 50.0)));
}

/// One message's worth of `EngineCore` bookkeeping exactly as a runtime
/// worker drives it: deliver (closes the hop span, records the flight
/// event), a callback that opens and closes one span and sends one
/// message, then the send's metric and hop span.
fn engine_callback(core: &mut EngineCore, calls: u64) -> f64 {
    let (a, b) = (NodeId(0), NodeId(1));
    let mut hop = None;
    let mut cause = None;
    ns_per_call(calls, |i| {
        let now = SimTime::from_micros(i);
        cause = core.deliver_bookkeeping(a, b, hop, cause, now);
        let ((), actions) = core.run_callback::<u64, _>(a, now, hop, cause, |ctx| {
            let span = ctx.start_span("cell.op");
            ctx.send(b, 7);
            ctx.finish_span(span);
        });
        for action in actions {
            if let Action::Send { to, span, .. } = action {
                core.metrics.inc("sim.messages_sent");
                hop = core.plan_hop(span, to, now);
            }
        }
    })
}

fn engine(scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let mut core = EngineCore::new(1);
    core.flight = Some(FlightRecorder::new(quicksand_runtime::DEFAULT_FLIGHT_CAP));
    out.push(("engine.callback_ns", engine_callback(&mut core, scale.calls)));
    out.push((
        "engine.callback_noflight_ns",
        engine_callback(&mut EngineCore::new(1), scale.calls),
    ));

    let mut metrics = MetricSet::new();
    out.push(("metrics.inc_ns", ns_per_call(scale.calls, |_| metrics.inc("sim.messages_sent"))));
    out.push((
        "metrics.inc_labeled_ns",
        ns_per_call(scale.calls, |_| metrics.inc_with("dynamo.gets_ok", &[("node", "n1")])),
    ));
    out.push((
        "metrics.record_ns",
        ns_per_call(scale.calls, |i| metrics.record("load.get_us", i as f64)),
    ));
    let mut spans = SpanStore::new();
    out.push((
        "span.open_close_ns",
        ns_per_call(scale.calls, |i| {
            let now = SimTime::from_micros(i);
            let id = spans.open_span("dynamo.get", Some(NodeId(0)), None, now);
            spans.finish_span(id, now, SpanStatus::Ok);
        }),
    ));
}

fn carts(shape: Shape, scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let items = match shape {
        Shape::Cart { items } => items,
        Shape::Evlog => 4,
    };
    let base = preload_cart(items);
    let mut other = base.clone();
    other.apply(0xD0, &CartAction::ChangeQty { item: 0, qty: 7 });
    let mut acc = base.clone();
    out.push(("cart.merge_ns", ns_per_call(scale.calls, |_| acc.merge(black_box(&other)))));
    out.push(("cart.clone_ns", ns_per_call(scale.calls, |_| drop(black_box(base.clone())))));
    let mut edited = base.clone();
    out.push((
        "cart.apply_ns",
        ns_per_call(scale.calls, |i| {
            let action = CartAction::ChangeQty { item: i % items, qty: (i % 9 + 1) as u32 };
            edited.apply(0xD0, &action);
        }),
    ));
    out.push(("cart.encoded_bytes", to_bytes(&base).len() as f64));
    black_box((acc, edited));
}

/// Append `n` more records of [`PAYLOAD_BYTES`] bytes, one fsync per
/// [`WINDOW`]; returns `(mean append ns, mean fsync µs)`.
fn append_run<K: eventlog::StorageKind>(
    log: &mut EventLog<K>,
    ids: &mut UniquifierSource,
    n: u64,
) -> (f64, f64) {
    let (mut append_ns, mut fsync_ns, mut fsyncs) = (0u128, 0u128, 0u64);
    for i in 0..n {
        let id = ids.next_id();
        let payload = vec![0xA5; PAYLOAD_BYTES];
        let t = Instant::now();
        black_box(log.append(id, payload));
        append_ns += t.elapsed().as_nanos();
        if (i + 1) % WINDOW as u64 == 0 {
            let t = Instant::now();
            log.fsync();
            fsync_ns += t.elapsed().as_nanos();
            fsyncs += 1;
        }
    }
    (append_ns as f64 / n as f64, fsync_ns as f64 / fsyncs.max(1) as f64 / 1e3)
}

fn event_log(scale: Scale, out_dir: &Path, out: &mut Vec<(&'static str, f64)>) {
    let mut ids = UniquifierSource::new(0xCE11);
    let (mut mem, _) = EventLog::open(MemKind, LogConfig::default());
    out.push(("evlog.append_mem_ns", append_run(&mut mem, &mut ids, scale.log_records).0));
    drop(mem);

    let dir = out_dir.join(format!("cell-evlog-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear a stale cell directory");
    }
    std::fs::create_dir_all(&dir).expect("create the cell directory");
    let (mut log, _) = EventLog::open(DirKind::new(&dir), LogConfig::default());
    let (append_ns, fsync_us) = append_run(&mut log, &mut ids, scale.log_records);
    out.push(("evlog.append_dir_ns", append_ns));
    out.push(("evlog.fsync_us", fsync_us));
    log.fsync();
    let stored = log.byte_len() as f64 / (log.record_count() * PAYLOAD_BYTES) as f64;
    out.push(("evlog.stored_bytes_per_payload_byte", stored));
    let per_partition = log.next_offset(0).saturating_sub(128).max(1);
    out.push((
        "evlog.read_ns_per_record",
        ns_per_call((scale.calls / 128).max(4), |i| {
            black_box(log.read(0, i.wrapping_mul(131) % per_partition, 128));
        }) / 128.0,
    ));
    drop(log);
    let t = Instant::now();
    let (mut log, report) = EventLog::open(DirKind::new(&dir), LogConfig::default());
    out.push(("evlog.recover_ms", t.elapsed().as_secs_f64() * 1e3));
    assert_eq!(report.records, scale.log_records, "the cell's reopen replays every record");

    // Grow the same log and time the last stretch: what an append costs
    // once the log is large.
    let grow = scale.big_log_records.saturating_sub(2 * scale.log_records);
    append_run(&mut log, &mut ids, grow);
    out.push(("evlog.append_dir_ns_1m", append_run(&mut log, &mut ids, scale.log_records).0));
    drop(log);
    std::fs::remove_dir_all(&dir).expect("remove the cell directory");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_reports_a_positive_number_once() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-cells-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scale = Scale::full().scaled_down(100);
        for shape in [Shape::Cart { items: 8 }, Shape::Evlog] {
            let cells = run_all(shape, scale, &dir);
            let mut names: Vec<_> = cells.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate cell name");
            for (name, value) in &cells {
                assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
