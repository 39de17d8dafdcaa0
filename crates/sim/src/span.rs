//! Causal spans: following one operation through the simulation.
//!
//! *Building on Quicksand* reasons about where time goes — how long a
//! write sits "stuck in the primary" (§4.2), how long a system acts on a
//! guess before the apology arrives (§5). Counters can say *how often*;
//! only causal attribution can say *where*. This module gives every
//! instrumented operation a [`SpanId`] and stitches the causal tree
//! together automatically:
//!
//! - [`crate::actor::Context::start_span`] opens a span under whatever
//!   span is currently ambient (the one the triggering message or timer
//!   was sent under), allocating ids deterministically from the
//!   simulation — same seed, same tree, byte for byte.
//! - Every `Context::send` issued while a span is ambient produces a
//!   `net.hop` child span whose duration is that message's simulated
//!   network latency (or a zero-length `dropped` span when the network
//!   eats it), so per-hop latency falls out of the tree.
//! - `Context::set_timer` propagates the ambient span into the timer's
//!   callback, covering retry/checkpoint loops.
//! - When a node crashes fail-fast, every span it still has open is
//!   closed with [`SpanStatus::Crashed`] — in-flight work is visible,
//!   not leaked.
//!
//! The **guess-outstanding** span (`Context::begin_guess` /
//! `Context::resolve_guess`) makes the paper's memories/guesses/apologies
//! cycle a measured quantity: it runs from the moment a node acts on
//! local knowledge to the moment the guess is confirmed or apologized
//! for, and lands in the `guess.outstanding_us` histogram.
//!
//! Span names follow `<crate>.<operation>` (`dynamo.put`,
//! `tandem.checkpoint`, `bank.clear_check`); see README.md's
//! Observability section. Export with [`SpanStore::to_jsonl`] (one span
//! per line) or [`SpanStore::to_chrome_trace`] (loadable in Perfetto /
//! `about://tracing`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::actor::NodeId;
use crate::json;
use crate::time::SimTime;

/// Identifies one causal tree (assigned to each root span).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies one span. Allocated densely and deterministically by the
/// simulation, so ids are stable across same-seed runs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// How a span ended (or that it hasn't).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SpanStatus {
    /// Still running.
    Open,
    /// Finished normally.
    Ok,
    /// Finished with an application-level failure.
    Failed,
    /// Closed by the simulator because its owning node crashed.
    Crashed,
    /// A network hop that was dropped (loss, partition, or dead
    /// receiver).
    Dropped,
}

impl SpanStatus {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Open => "open",
            SpanStatus::Ok => "ok",
            SpanStatus::Failed => "failed",
            SpanStatus::Crashed => "crashed",
            SpanStatus::Dropped => "dropped",
        }
    }
}

impl fmt::Display for SpanStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One span: a named interval of simulated time on one node, with a
/// causal parent and free-form string fields.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The causal tree it belongs to.
    pub trace: TraceId,
    /// The span it is causally under, if any.
    pub parent: Option<SpanId>,
    /// Operation name (`<crate>.<operation>`, or `net.hop`).
    pub name: String,
    /// The node that owns the span (`None` for network hops).
    pub node: Option<NodeId>,
    /// When it started.
    pub start: SimTime,
    /// When it finished (`None` while open).
    pub end: Option<SimTime>,
    /// How it ended.
    pub status: SpanStatus,
    /// Extra key/value context (kept in insertion order).
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Duration, if finished.
    pub fn duration_us(&self) -> Option<u64> {
        self.end.map(|e| e.saturating_since(self.start).as_micros())
    }

    /// This span as one Chrome `trace_event` object (the element
    /// [`SpanStore::to_chrome_trace`] emits per span, no trailing
    /// separator). Public so the runtime's telemetry endpoint can
    /// stream a bounded tail of spans in the identical schema.
    pub fn to_chrome_event(&self) -> String {
        let tid = self.node.map(|n| n.0 as i64).unwrap_or(-1);
        let mut args = format!(
            "\"span\":\"{}\",\"trace\":\"{}\",\"status\":\"{}\"",
            self.id, self.trace, self.status
        );
        if let Some(p) = self.parent {
            args.push_str(&format!(",\"parent\":\"{p}\""));
        }
        for (k, v) in &self.fields {
            args.push(',');
            args.push_str(&json::string(k));
            args.push(':');
            args.push_str(&json::string(v));
        }
        match self.end {
            Some(end) => format!(
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
                json::string(&self.name),
                self.start.as_micros(),
                end.saturating_since(self.start).as_micros(),
                tid,
                args
            ),
            None => format!(
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{{}}}}}",
                json::string(&self.name),
                self.start.as_micros(),
                tid,
                args
            ),
        }
    }

    /// One JSON object describing this span (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"span\":\"{}\",\"trace\":\"{}\",\"parent\":{},\"name\":{},\"node\":{},\"start_us\":{},\"end_us\":{},\"status\":\"{}\"",
            self.id,
            self.trace,
            match self.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_owned(),
            },
            json::string(&self.name),
            match self.node {
                Some(n) => format!("\"{n}\""),
                None => "null".to_owned(),
            },
            self.start.as_micros(),
            match self.end {
                Some(e) => e.as_micros().to_string(),
                None => "null".to_owned(),
            },
            self.status,
        ));
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json::string(k));
                out.push(':');
                out.push_str(&json::string(v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The spans of one run, in allocation order.
///
/// [`SpanStore::new`] keeps every span: the simulator's exporters and
/// byte-identity tests need the whole run. [`SpanStore::bounded`] keeps
/// a retention window, with the contract
/// [`crate::flight::FlightRecorder`] has: ids stay dense and
/// allocation-ordered whatever is retained, every span opened evicts
/// the oldest *finished* one, a lookup of an evicted id is `None` (a
/// mutation of one, a no-op), and the store says what it dropped
/// ([`SpanStore::evicted`], [`SpanStore::first_retained`]).
///
/// **Open spans are never evicted** — guesses and crash-closes read
/// their `start` and `node`. One that eviction reaches is set aside
/// instead, so it does not shield the finished spans behind it; having
/// outlived the window it is dropped when it finishes. So
/// `retained() <= capacity + open`, however long a guess stays stuck.
#[derive(Debug, Default, Clone)]
pub struct SpanStore {
    /// The dense retention window: `window[i]` is span `window_base + i`.
    window: VecDeque<SpanRecord>,
    window_base: u64,
    /// Spans still open when eviction reached them (all older than the
    /// window, all open).
    held: BTreeMap<u64, SpanRecord>,
    /// `None` retains everything.
    capacity: Option<usize>,
    next_id: u64,
    next_trace: u64,
    /// Ids of spans not yet finished, kept sorted for deterministic
    /// crash-close order.
    open: Vec<u64>,
}

impl SpanStore {
    /// An empty store that retains every span.
    pub fn new() -> Self {
        SpanStore::default()
    }

    /// An empty store that retains the `capacity` most recently opened
    /// spans, plus every older span that is still open.
    pub fn bounded(capacity: usize) -> Self {
        SpanStore { capacity: Some(capacity), ..SpanStore::default() }
    }

    /// Open a new span. `parent: None` makes it a root of a fresh trace;
    /// so does a parent that has been evicted (the span keeps the
    /// dangling `parent`, but which trace that was is no longer known).
    ///
    /// Actor code should go through [`crate::actor::Context`] (which
    /// handles ambient propagation); this is public for round-based
    /// harnesses that model time themselves.
    pub fn open_span(
        &mut self,
        name: &str,
        node: Option<NodeId>,
        parent: Option<SpanId>,
        start: SimTime,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let trace = match parent.and_then(|p| self.get(p)) {
            Some(p) => p.trace,
            None => {
                let t = TraceId(self.next_trace);
                self.next_trace += 1;
                t
            }
        };
        if self.capacity.is_some_and(|cap| self.window.len() >= cap) {
            self.evict_oldest_finished();
        }
        self.window.push_back(SpanRecord {
            id,
            trace,
            parent,
            name: name.to_owned(),
            node,
            start,
            end: None,
            status: SpanStatus::Open,
            fields: Vec::new(),
        });
        self.open.push(id.0);
        id
    }

    /// Drop the oldest finished span of the window, setting aside the
    /// open ones in front of it.
    fn evict_oldest_finished(&mut self) {
        while let Some(rec) = self.window.pop_front() {
            self.window_base += 1;
            if rec.status != SpanStatus::Open {
                return;
            }
            self.held.insert(rec.id.0, rec);
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        match id.0.checked_sub(self.window_base) {
            Some(i) => self.window.get_mut(i as usize),
            None => self.held.get_mut(&id.0),
        }
    }

    /// Finish `id` (idempotent: finishing a finished span is a no-op, so
    /// a crash-closed span keeps its `crashed` status; so is finishing
    /// an evicted one).
    pub fn finish_span(&mut self, id: SpanId, end: SimTime, status: SpanStatus) {
        let Some(rec) = self.get_mut(id) else { return };
        if rec.status != SpanStatus::Open {
            return;
        }
        rec.end = Some(end);
        rec.status = status;
        if let Ok(i) = self.open.binary_search(&id.0) {
            self.open.remove(i);
        }
        if id.0 < self.window_base {
            // Only its being open kept a held span from eviction.
            self.held.remove(&id.0);
        }
    }

    /// Append a field to `id` (a no-op on an evicted span).
    pub fn add_field(&mut self, id: SpanId, key: &str, value: String) {
        if let Some(rec) = self.get_mut(id) {
            rec.fields.push((key.to_owned(), value));
        }
    }

    /// Close every open span owned by `node` with `Crashed` status.
    pub(crate) fn close_node_spans(&mut self, node: NodeId, at: SimTime) {
        let to_close: Vec<SpanId> =
            self.open_spans().filter(|s| s.node == Some(node)).map(|s| s.id).collect();
        for id in to_close {
            self.finish_span(id, at, SpanStatus::Crashed);
        }
    }

    /// The retained spans, in allocation order.
    pub fn spans(&self) -> impl DoubleEndedIterator<Item = &SpanRecord> {
        self.held.values().chain(&self.window)
    }

    /// Look up one span (`None` if evicted or never recorded).
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        match id.0.checked_sub(self.window_base) {
            Some(i) => self.window.get(i as usize),
            None => self.held.get(&id.0),
        }
    }

    /// Spans opened over the run's lifetime, including evicted ones.
    pub fn len(&self) -> usize {
        self.next_id as usize
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.next_id == 0
    }

    /// Number of retained spans.
    pub fn retained(&self) -> usize {
        self.held.len() + self.window.len()
    }

    /// How many recorded spans have been evicted.
    pub fn evicted(&self) -> u64 {
        self.next_id - self.retained() as u64
    }

    /// The id of the oldest retained span (equals [`SpanStore::len`]
    /// when nothing is retained). Every id below it is evicted. When
    /// the oldest is an open span older than the window, so are the
    /// finished ones between it and the window: ask
    /// [`SpanStore::was_evicted`] about one id.
    pub fn first_retained(&self) -> u64 {
        self.held.keys().next().copied().unwrap_or(self.window_base)
    }

    /// True when `id` was recorded and has since been evicted.
    pub fn was_evicted(&self, id: SpanId) -> bool {
        id.0 < self.next_id && self.get(id).is_none()
    }

    /// Spans still open (e.g. in-flight at the end of the run).
    pub fn open_spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.open.iter().filter_map(|&i| self.get(SpanId(i)))
    }

    /// Retained direct children of `id`, in allocation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &SpanRecord> {
        self.spans().filter(move |s| s.parent == Some(id))
    }

    /// The retained roots (spans with no parent), in allocation order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans().filter(|s| s.parent.is_none())
    }

    /// JSONL export: one span object per line, allocation order.
    /// Byte-identical across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (the legacy format Perfetto and
    /// `about://tracing` load). Each finished span becomes a complete
    /// (`"ph":"X"`) event on the track of its owning node; open spans
    /// are emitted as instant events so nothing is silently missing.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&s.to_chrome_event());
        }
        out.push_str("\n]\n");
        out
    }

    /// Render the subtree under `id` as an indented text tree with
    /// per-span duration — the thing to print when debugging a latency.
    /// A span whose parent has been evicted hangs under an `(evicted)`
    /// line, so an orphan is not mistaken for a root.
    pub fn render_tree(&self, id: SpanId) -> String {
        let mut out = String::new();
        match self.get(id).and_then(|s| s.parent).filter(|&p| self.was_evicted(p)) {
            Some(p) => {
                out.push_str(&format!("(evicted) [{p}]\n"));
                self.render_into(id, 1, &mut out);
            }
            None => self.render_into(id, 0, &mut out),
        }
        out
    }

    fn render_into(&self, id: SpanId, depth: usize, out: &mut String) {
        let Some(s) = self.get(id) else { return };
        for _ in 0..depth {
            out.push_str("  ");
        }
        match s.duration_us() {
            Some(d) => out.push_str(&format!("{} [{}] {}us ({})\n", s.name, s.id, d, s.status)),
            None => out.push_str(&format!("{} [{}] open\n", s.name, s.id)),
        }
        let children: Vec<SpanId> = self.children(id).map(|c| c.id).collect();
        for c in children {
            self.render_into(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_get_fresh_traces_and_children_inherit() {
        let mut st = SpanStore::new();
        let a = st.open_span("op.a", Some(NodeId(0)), None, SimTime::ZERO);
        let b = st.open_span("op.b", Some(NodeId(1)), Some(a), SimTime::from_micros(5));
        let c = st.open_span("op.c", Some(NodeId(2)), None, SimTime::from_micros(9));
        assert_eq!(st.get(a).unwrap().trace, st.get(b).unwrap().trace);
        assert_ne!(st.get(a).unwrap().trace, st.get(c).unwrap().trace);
        assert_eq!(st.children(a).count(), 1);
        assert_eq!(st.roots().count(), 2);
    }

    #[test]
    fn finish_is_idempotent_and_keeps_first_status() {
        let mut st = SpanStore::new();
        let a = st.open_span("op", Some(NodeId(0)), None, SimTime::ZERO);
        st.finish_span(a, SimTime::from_micros(3), SpanStatus::Crashed);
        st.finish_span(a, SimTime::from_micros(9), SpanStatus::Ok);
        let rec = st.get(a).unwrap();
        assert_eq!(rec.status, SpanStatus::Crashed);
        assert_eq!(rec.duration_us(), Some(3));
    }

    #[test]
    fn close_node_spans_only_touches_that_node() {
        let mut st = SpanStore::new();
        let a = st.open_span("op.a", Some(NodeId(0)), None, SimTime::ZERO);
        let b = st.open_span("op.b", Some(NodeId(1)), None, SimTime::ZERO);
        st.close_node_spans(NodeId(0), SimTime::from_micros(7));
        assert_eq!(st.get(a).unwrap().status, SpanStatus::Crashed);
        assert_eq!(st.get(b).unwrap().status, SpanStatus::Open);
        assert_eq!(st.open_spans().count(), 1);
    }

    #[test]
    fn exports_are_wellformed() {
        let mut st = SpanStore::new();
        let a = st.open_span("dynamo.put", Some(NodeId(0)), None, SimTime::ZERO);
        st.add_field(a, "key", "\"k1\"".to_owned());
        st.finish_span(a, SimTime::from_micros(42), SpanStatus::Ok);
        st.open_span("net.hop", None, Some(a), SimTime::from_micros(1));
        let jsonl = st.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"dynamo.put\""), "{jsonl}");
        assert!(jsonl.contains("\\\"k1\\\""), "escaping: {jsonl}");
        let chrome = st.to_chrome_trace();
        assert!(chrome.starts_with('[') && chrome.trim_end().ends_with(']'));
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"i\""), "open span as instant: {chrome}");
    }

    #[test]
    fn render_tree_shows_nesting() {
        let mut st = SpanStore::new();
        let a = st.open_span("cart.edit", Some(NodeId(0)), None, SimTime::ZERO);
        let h = st.open_span("net.hop", None, Some(a), SimTime::from_micros(1));
        st.finish_span(h, SimTime::from_micros(4), SpanStatus::Ok);
        st.finish_span(a, SimTime::from_micros(9), SpanStatus::Ok);
        let tree = st.render_tree(a);
        assert!(tree.contains("cart.edit"), "{tree}");
        assert!(tree.contains("  net.hop"), "{tree}");
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Open and finish one span, the way a delivered hop does.
    fn churn(st: &mut SpanStore, n: u64) {
        for i in 0..n {
            let s = st.open_span("net.hop", None, None, at(i));
            st.finish_span(s, at(i + 1), SpanStatus::Ok);
        }
    }

    #[test]
    fn eviction_is_oldest_finished_first_and_ids_stay_dense() {
        let mut st = SpanStore::bounded(4);
        for i in 0..10u64 {
            let s = st.open_span("op", Some(NodeId(0)), None, at(i));
            assert_eq!(s, SpanId(i), "ids are allocation order whatever was evicted");
            st.finish_span(s, at(i + 1), SpanStatus::Ok);
        }
        assert_eq!((st.len(), st.retained(), st.evicted(), st.first_retained()), (10, 4, 6, 6));
        assert_eq!(st.spans().map(|s| s.id.0).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        for i in 0..10u64 {
            assert_eq!(st.get(SpanId(i)).map(|s| s.id.0), (i >= 6).then_some(i));
            assert_eq!(st.was_evicted(SpanId(i)), i < 6);
        }
        assert!(st.get(SpanId(10)).is_none() && !st.was_evicted(SpanId(10)), "never recorded");
        assert_eq!(SpanStore::new().first_retained(), 0);
    }

    #[test]
    fn an_open_span_outlives_the_window_and_does_not_shield_finished_ones() {
        let cap = 8u64;
        let mut st = SpanStore::bounded(cap as usize);
        let stuck = st.open_span("guess.outstanding", Some(NodeId(1)), None, at(3));
        churn(&mut st, 10 * cap);
        // Still there, still writable, and the finished spans behind it
        // were evicted all the same: one stuck guess costs one record.
        assert_eq!(st.get(stuck).map(|s| (s.start, s.node)), Some((at(3), Some(NodeId(1)))));
        assert_eq!(st.retained() as u64, cap + 1);
        assert_eq!(st.first_retained(), stuck.0);
        assert_eq!(st.open_spans().map(|s| s.id).collect::<Vec<_>>(), vec![stuck]);
        assert_eq!(st.spans().next().map(|s| s.id), Some(stuck), "allocation order");
        st.add_field(stuck, "resolution", "confirmed".to_owned());
        assert_eq!(st.get(stuck).unwrap().fields.len(), 1);
        let before = st.evicted();
        st.finish_span(stuck, at(999), SpanStatus::Ok);
        // Finished and older than the whole window: gone at once.
        assert!(st.was_evicted(stuck));
        assert_eq!(st.evicted(), before + 1);
        assert_eq!(st.open_spans().count(), 0);
        assert_eq!(st.first_retained(), st.len() as u64 - cap);
    }

    #[test]
    fn evicted_ids_are_inert_never_a_panic() {
        let mut st = SpanStore::bounded(2);
        let old = st.open_span("op", Some(NodeId(0)), None, at(0));
        st.finish_span(old, at(1), SpanStatus::Ok);
        churn(&mut st, 5);
        assert!(st.get(old).is_none());
        st.finish_span(old, at(9), SpanStatus::Failed);
        st.add_field(old, "k", "v".to_owned());
        assert_eq!(st.children(old).count(), 0);
        assert_eq!(st.render_tree(old), "");
        let never = SpanId(1_000_000);
        st.finish_span(never, at(9), SpanStatus::Ok);
        st.add_field(never, "k", "v".to_owned());
        assert!(st.get(never).is_none());
        // A child of an evicted parent keeps the dangling link and roots
        // a trace of its own.
        let newest_trace = st.spans().map(|s| s.trace).max().unwrap();
        let orphan = st.open_span("op.child", Some(NodeId(0)), Some(old), at(10));
        let rec = st.get(orphan).unwrap();
        assert_eq!(rec.parent, Some(old));
        assert!(rec.trace > newest_trace, "fresh trace, got {}", rec.trace);
        let tree = st.render_tree(orphan);
        assert_eq!(tree, format!("(evicted) [{old}]\n  op.child [{orphan}] open\n"));
        // Zero capacity keeps only what is open (and the newest span).
        let mut none = SpanStore::bounded(0);
        let held = none.open_span("held", None, None, at(0));
        churn(&mut none, 3);
        assert!(none.get(held).is_some());
        assert_eq!(none.len() as u64, none.evicted() + none.retained() as u64);
    }

    #[test]
    fn crash_close_reaches_an_open_span_older_than_the_window() {
        let mut st = SpanStore::bounded(4);
        let mine = st.open_span("dynamo.put", Some(NodeId(0)), None, at(0));
        let theirs = st.open_span("dynamo.put", Some(NodeId(1)), None, at(0));
        churn(&mut st, 40);
        st.close_node_spans(NodeId(0), at(50));
        assert!(st.was_evicted(mine), "crash-closed, so no longer held");
        assert_eq!(st.open_spans().map(|s| s.id).collect::<Vec<_>>(), vec![theirs]);
        assert_eq!(st.get(theirs).unwrap().status, SpanStatus::Open);
        // In the window a crash-close is visible as one.
        let young = st.open_span("dynamo.get", Some(NodeId(1)), None, at(60));
        st.close_node_spans(NodeId(1), at(61));
        assert_eq!(st.get(young).unwrap().status, SpanStatus::Crashed);
        assert_eq!(st.open_spans().count(), 0);
    }

    #[test]
    fn accounting_adds_up_at_every_step() {
        let mut st = SpanStore::bounded(3);
        let mut open = Vec::new();
        for i in 0..200u64 {
            let parent = open.last().copied().filter(|_| i % 3 == 0);
            let s = st.open_span("op", Some(NodeId((i % 2) as usize)), parent, at(i));
            if i % 7 == 0 {
                open.push(s); // left open for a while
            } else {
                st.finish_span(s, at(i + 1), SpanStatus::Ok);
            }
            if i % 31 == 30 {
                st.finish_span(open.remove(0), at(i + 1), SpanStatus::Failed);
            }
            assert_eq!(st.len() as u64, st.evicted() + st.retained() as u64);
            assert_eq!(st.retained(), st.spans().count());
            assert!(st.retained() <= 3 + st.open_spans().count(), "bounded by cap + open");
            assert!(st.spans().map(|s| s.id).is_sorted());
        }
        // The unbounded store is the same type with nothing to evict.
        let mut all = SpanStore::new();
        churn(&mut all, 200);
        assert_eq!((all.len(), all.retained(), all.evicted()), (200, 200, 0));
    }
}
