//! `Traced<A>`: an actor wrapper that records one span per callback from
//! outside the program — the layer boundary of the wall-clock runtime is
//! "a worker calls into an actor", and this is where the benchmark can
//! stand without touching the crates under test.
//!
//! Each wrapped actor owns its buffers (an actor lives on exactly one
//! worker thread, so these are per-thread buffers with no sharing). A
//! run-wide [`Gate`] restricts recording to the measured phase, so the
//! per-kind totals divide by the measured op count.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use quicksand_core::WireCodec;
use sim::{Actor, Context, NodeId, SimTime};

/// What the tracer needs to know about a message: a stable kind name and
/// the client request it belongs to, when it carries one. Spans of one
/// request share that id.
pub trait Describe {
    /// Kind name, e.g. `client_get`.
    fn kind(&self) -> &'static str;
    /// The client request id, if the message carries one.
    fn req(&self) -> Option<u64>;
}

/// Run-wide switch: spans and totals are recorded only while it is open.
/// `Relaxed` throughout — it publishes no data, it only bounds a
/// statistic, and a callback racing the flip lands on either side.
#[derive(Clone, Debug, Default)]
pub struct Gate(Arc<AtomicBool>);

impl Gate {
    /// A closed gate.
    pub fn new() -> Self {
        Gate::default()
    }
    /// Open or close it.
    pub fn set(&self, open: bool) {
        self.0.store(open, Ordering::Relaxed);
    }
    /// Whether recording is on.
    pub fn is_open(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Count and total duration of one callback kind on one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStat {
    /// Callbacks of this kind.
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub ns: u64,
}

/// One recorded callback.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Kind name (the layer prefix is the node's).
    pub kind: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Client request id, when the message carried one.
    pub req: Option<u64>,
}

/// Spans kept verbatim per node for the Chrome-trace file. Totals cover
/// every callback; only the file is capped (a cart leg makes ~2 M
/// callbacks, which no trace viewer opens).
pub const SPAN_FILE_CAP: usize = 25_000;

/// Everything one wrapped actor recorded.
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// Per-kind totals over the whole gated interval.
    pub kinds: BTreeMap<&'static str, KindStat>,
    /// The first [`SPAN_FILE_CAP`] spans of the gated interval.
    pub spans: Vec<Span>,
    /// Messages received while gated.
    pub msgs: u64,
    /// Σ wire-encoded length of those messages, bytes.
    pub wire_bytes: u64,
}

impl NodeTrace {
    /// Summed callback time, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.kinds.values().map(|k| k.ns).sum()
    }
    /// Totals for one kind (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindStat {
        self.kinds.get(kind).copied().unwrap_or_default()
    }
}

/// The wrapper. Forwards every callback to `inner` unchanged; the only
/// effects are the clock reads around it and, for messages, one encode
/// into a scratch buffer to learn the wire length.
pub struct Traced<A> {
    inner: A,
    layer: &'static str,
    gate: Gate,
    epoch: Instant,
    scratch: Vec<u8>,
    trace: NodeTrace,
}

impl<A> Traced<A> {
    /// Wrap `inner`; its spans are named `<layer>.<kind>` and timed from
    /// `epoch`.
    pub fn new(inner: A, layer: &'static str, gate: Gate, epoch: Instant) -> Self {
        Traced { inner, layer, gate, epoch, scratch: Vec::new(), trace: NodeTrace::default() }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The layer name given at construction.
    pub fn layer(&self) -> &'static str {
        self.layer
    }

    /// What was recorded.
    pub fn trace(&self) -> &NodeTrace {
        &self.trace
    }

    fn timed(&mut self, kind: &'static str, req: Option<u64>, f: impl FnOnce(&mut A)) {
        if !self.gate.is_open() {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        f(&mut self.inner);
        let end = Instant::now();
        let stat = self.trace.kinds.entry(kind).or_default();
        stat.count += 1;
        stat.ns += (end - start).as_nanos() as u64;
        if self.trace.spans.len() < SPAN_FILE_CAP {
            self.trace.spans.push(Span {
                kind,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                req,
            });
        }
    }
}

impl<M, A> Actor<M> for Traced<A>
where
    M: Describe + WireCodec + 'static,
    A: Actor<M>,
{
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.timed("start", None, |a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        if self.gate.is_open() {
            self.scratch.clear();
            msg.encode(&mut self.scratch);
            self.trace.msgs += 1;
            self.trace.wire_bytes += self.scratch.len() as u64;
        }
        self.timed(msg.kind(), msg.req(), |a| a.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        self.timed("timer", None, |a| a.on_timer(ctx, tag));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.timed("restart", None, |a| a.on_restart(ctx));
    }
}

/// Write the kept spans of every node as Chrome-trace JSON (one complete
/// `"ph":"X"` event per callback; `tid` is the node, `args.req` the
/// client request). Loadable in `chrome://tracing` or Perfetto.
pub fn write_chrome_trace(
    path: &std::path::Path,
    nodes: &[(usize, &'static str, &NodeTrace)],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"[")?;
    let mut first = true;
    for (node, layer, trace) in nodes {
        for s in &trace.spans {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"name\":\"{layer}.{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{node},\
                 \"ts\":{:.3},\"dur\":{:.3}",
                s.kind,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )?;
            match s.req {
                Some(r) => write!(w, ",\"args\":{{\"req\":{r}}}}}")?,
                None => w.write_all(b"}")?,
            }
        }
    }
    w.write_all(b"\n]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cart::CrdtCart;
    use dynamo::{DynamoConfig, DynamoMsg, StoreNode};
    use sim::Simulation;

    type Msg = DynamoMsg<CrdtCart>;

    /// A fixed client script against a 3-store ring in the simulator,
    /// with the stores optionally wrapped; returns each store's final
    /// state rendered with `Debug`.
    fn run_sim(wrap: bool) -> Vec<String> {
        use crate::cart::{Driver, Plan};
        use quicksand_runtime::TransportKind;
        let gate = Gate::new();
        gate.set(true);
        let epoch = Instant::now();
        let mut sim: Simulation<Msg> = Simulation::new(42);
        let view = dynamo::standby_view(3, 0);
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        for s in 0..3u32 {
            let node =
                StoreNode::<CrdtCart>::new(s, view.clone(), peers.clone(), DynamoConfig::default())
                    .with_sibling_squash();
            if wrap {
                sim.add_node(Traced::new(node, "dynamo", gate.clone(), epoch));
            } else {
                sim.add_node(node);
            }
        }
        // The benchmark's own driver supplies the script: preload, a
        // short mix, a short measured phase, the audit adds.
        let plan = Plan::small(TransportKind::Loopback).scaled_down(100);
        let (tx, _rx) = std::sync::mpsc::channel();
        sim.add_node(Driver::new(plan, 7, 35, peers, None, tx));
        sim.run_until(SimTime::from_secs(2));
        (0..3)
            .map(|s| {
                if wrap {
                    format!("{:?}", sim.actor::<Traced<StoreNode<CrdtCart>>>(NodeId(s)).inner())
                } else {
                    format!("{:?}", sim.actor::<StoreNode<CrdtCart>>(NodeId(s)))
                }
            })
            .collect()
    }

    #[test]
    fn wrapping_changes_nothing_the_actor_can_see() {
        let plain = run_sim(false);
        let wrapped = run_sim(true);
        assert!(plain[0].len() > 200, "the script must have stored something: {}", plain[0]);
        assert_eq!(plain, wrapped);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut t = NodeTrace::default();
        t.spans.push(Span { kind: "client_get", start_ns: 1_500, end_ns: 4_000, req: Some(9) });
        t.spans.push(Span { kind: "timer", start_ns: 5_000, end_ns: 5_250, req: None });
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_chrome_trace(&path, &[(2, "dynamo", &t)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
        assert!(text.contains("\"name\":\"dynamo.client_get\""));
        assert!(text.contains("\"ts\":1.500,\"dur\":2.500,\"args\":{\"req\":9}}"));
        assert!(text.contains("\"name\":\"dynamo.timer\",\"ph\":\"X\",\"pid\":1,\"tid\":2"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    }
}
