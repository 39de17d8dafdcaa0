//! The forensic flight recorder: a bounded ring over the **causal event
//! graph** of a run.
//!
//! The plain [`crate::trace::Trace`] ring answers "what happened, in
//! order" — but a chaos failure needs the sharper question: "what chain
//! of events *made* this happen?" The flight recorder answers it. Every
//! dispatched event (a delivery, a timer firing, a crash, a guess
//! opening) is recorded as a [`FlightEvent`] carrying a `cause` edge:
//!
//! - a **delivery**'s cause is the event that was being dispatched when
//!   the send was issued (message send→deliver edges);
//! - a **timer firing**'s cause is the event during which the timer was
//!   armed (timer set→fire edges) — so a restart that re-arms a gossip
//!   timer is a causal ancestor of everything that gossip later does;
//! - **application events** and **guess markers** are caused by the
//!   event whose callback recorded them.
//!
//! Fault injections (crash, partition, degrade, heal) are plan-driven
//! and have no cause; they are the roots bad luck grows from.
//!
//! Together with the span parent links in [`crate::span::SpanStore`],
//! these edges form the happens-before graph. [`FlightRecorder::slice`]
//! walks it *backwards* from any event — O(ancestors), not O(history) —
//! to extract the minimal [`CausalSlice`] that explains the event. The
//! ring is bounded; when the walk would cross into evicted history the
//! slice says so explicitly (`truncated`) instead of silently dropping
//! ancestors.
//!
//! Everything is deterministic: ids are dense dispatch-order indices, so
//! the same seed yields byte-identical slices and artifacts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::actor::NodeId;
use crate::json;
use crate::span::{SpanId, SpanStore};
use crate::time::SimTime;

/// Identifies a recorded flight event. Ids are dense and monotonically
/// increasing in dispatch order; an id below
/// [`FlightRecorder::first_retained`] refers to an evicted event.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlightId(pub u64);

impl fmt::Display for FlightId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// What kind of event a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A message was delivered to a node.
    Deliver,
    /// A message addressed to a down node was dropped.
    DropDown,
    /// A timer fired on a node.
    Timer,
    /// A node crashed (fault-plan injected).
    Crash,
    /// A node restarted.
    Restart,
    /// The network was partitioned.
    Partition,
    /// A link was degraded.
    Degrade,
    /// Partitions healed or a degraded link was restored.
    Heal,
    /// A structured application event (see
    /// [`crate::actor::Context::trace_event`]).
    App,
    /// A guess was opened (optimistic action on local memory).
    GuessOpen,
    /// A guess was resolved (confirmed, apologized, or orphaned).
    GuessResolve,
}

impl FlightKind {
    /// Short stable label (used in text rendering and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Deliver => "deliver",
            FlightKind::DropDown => "drop(down)",
            FlightKind::Timer => "timer",
            FlightKind::Crash => "crash",
            FlightKind::Restart => "restart",
            FlightKind::Partition => "partition",
            FlightKind::Degrade => "degrade",
            FlightKind::Heal => "heal",
            FlightKind::App => "app",
            FlightKind::GuessOpen => "guess?",
            FlightKind::GuessResolve => "guess!",
        }
    }
}

impl fmt::Display for FlightKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node in the causal event graph.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// This event's id (dense dispatch order).
    pub id: FlightId,
    /// When it was dispatched.
    pub at: SimTime,
    /// What happened.
    pub kind: FlightKind,
    /// The node it happened to (the receiver, for deliveries).
    pub node: Option<NodeId>,
    /// The sender, for deliveries.
    pub from: Option<NodeId>,
    /// The span ambient when the event ran (the `net.hop` for
    /// deliveries, the arming span for timers).
    pub span: Option<SpanId>,
    /// The direct causal predecessor, if any: the event whose callback
    /// issued the send / armed the timer / recorded the marker.
    pub cause: Option<FlightId>,
    /// A name, for app events and guess markers
    /// (`<crate>.<what-happened>`).
    pub label: Option<String>,
    /// Structured context, for app events and guess markers.
    pub fields: Vec<(String, String)>,
}

impl FlightEvent {
    /// One JSON object describing this event (no trailing newline).
    /// Byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"at_us\":{},\"kind\":\"{}\"",
            self.id.0,
            self.at.as_micros(),
            self.kind
        );
        if let Some(n) = self.node {
            out.push_str(&format!(",\"node\":\"{n}\""));
        }
        if let Some(f) = self.from {
            out.push_str(&format!(",\"from\":\"{f}\""));
        }
        if let Some(s) = self.span {
            out.push_str(&format!(",\"span\":\"{s}\""));
        }
        if let Some(c) = self.cause {
            out.push_str(&format!(",\"cause\":{}", c.0));
        }
        if let Some(label) = &self.label {
            out.push_str(",\"label\":");
            out.push_str(&json::string(label));
        }
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

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.id, self.at, self.kind)?;
        if let Some(label) = &self.label {
            write!(f, " {label}")?;
        }
        if let (Some(from), Some(node)) = (self.from, self.node) {
            write!(f, " {from} -> {node}")?;
        } else if let Some(node) = self.node {
            write!(f, " @{node}")?;
        }
        if let Some(span) = self.span {
            write!(f, " [{span}]")?;
        }
        if let Some(cause) = self.cause {
            write!(f, " <- {cause}")?;
        }
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// The minimal happens-before slice explaining one target event: the
/// backward transitive closure over cause edges and span parent links,
/// in dispatch order. Extracted by [`FlightRecorder::slice`].
#[derive(Debug, Clone)]
pub struct CausalSlice {
    /// The event being explained.
    pub target: FlightId,
    /// The slice, oldest first (always contains the target, unless the
    /// target itself was evicted).
    pub events: Vec<FlightEvent>,
    /// True when the walk crossed into evicted history: some causal
    /// ancestors exist but are no longer retained.
    pub truncated: bool,
    /// How many distinct evicted ancestors the walk touched: events
    /// gone from the flight ring plus spans gone from the span store.
    pub missing_ancestors: u64,
    /// Events recorded over the whole run (the slice's denominator).
    pub total_recorded: u64,
}

impl CausalSlice {
    /// The slice's share of the full recorded history, in `[0, 1]`.
    pub fn fraction_of_total(&self) -> f64 {
        if self.total_recorded == 0 {
            return 0.0;
        }
        self.events.len() as f64 / self.total_recorded as f64
    }
}

/// The bounded causal-event ring. Enabled per run via
/// `Simulation::enable_flight`; costs nothing when never enabled.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    next_id: u64,
    /// Span id → retained event ids stamped with that span, oldest
    /// first. Pruned on eviction, so it only ever indexes the ring.
    by_span: BTreeMap<u64, Vec<u64>>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            next_id: 0,
            by_span: BTreeMap::new(),
        }
    }

    /// Record an event and return its id. Evicts the oldest retained
    /// event when full; the id still counts toward
    /// [`FlightRecorder::total_recorded`] either way.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        at: SimTime,
        kind: FlightKind,
        node: Option<NodeId>,
        from: Option<NodeId>,
        span: Option<SpanId>,
        cause: Option<FlightId>,
        label: Option<String>,
        fields: Vec<(String, String)>,
    ) -> FlightId {
        let id = FlightId(self.next_id);
        self.next_id += 1;
        if self.capacity == 0 {
            return id;
        }
        if self.ring.len() == self.capacity {
            if let Some(old) = self.ring.pop_front() {
                if let Some(s) = old.span {
                    if let Some(ids) = self.by_span.get_mut(&s.0) {
                        ids.retain(|&e| e != old.id.0);
                        if ids.is_empty() {
                            self.by_span.remove(&s.0);
                        }
                    }
                }
            }
        }
        if let Some(s) = span {
            self.by_span.entry(s.0).or_default().push(id.0);
        }
        self.ring.push_back(FlightEvent { id, at, kind, node, from, span, cause, label, fields });
        id
    }

    /// Events recorded over the run's lifetime, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_id
    }

    /// How many recorded events have been evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.next_id - self.ring.len() as u64
    }

    /// The id of the oldest retained event (equals
    /// [`FlightRecorder::total_recorded`] when nothing is retained).
    pub fn first_retained(&self) -> u64 {
        self.ring.front().map_or(self.next_id, |e| e.id.0)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Look up a retained event (`None` if evicted or never recorded).
    pub fn get(&self, id: FlightId) -> Option<&FlightEvent> {
        let first = self.first_retained();
        if id.0 < first || id.0 >= self.next_id {
            return None;
        }
        self.ring.get((id.0 - first) as usize)
    }

    /// Retained events stamped with `span`, oldest first.
    pub fn events_for_span(&self, span: SpanId) -> Vec<&FlightEvent> {
        self.by_span
            .get(&span.0)
            .map(|ids| ids.iter().filter_map(|&e| self.get(FlightId(e))).collect())
            .unwrap_or_default()
    }

    /// The most recent retained event matching `pred`, if any.
    pub fn last_matching(&self, pred: impl Fn(&FlightEvent) -> bool) -> Option<FlightId> {
        self.ring.iter().rev().find(|e| pred(e)).map(|e| e.id)
    }

    /// The most recent [`FlightKind::GuessOpen`] whose span never saw a
    /// [`FlightKind::GuessResolve`] — the natural forensic target when a
    /// run ends with promises still outstanding.
    pub fn last_unresolved_guess(&self) -> Option<FlightId> {
        // Volatile guesses correlate open↔resolve through the guess
        // span; durable guesses (which outlive spans and crashes) carry
        // an explicit `guess` field instead.
        let guess_key =
            |e: &FlightEvent| e.fields.iter().find(|(k, _)| k == "guess").map(|(_, v)| v.clone());
        let mut resolved_spans: BTreeSet<u64> = BTreeSet::new();
        let mut resolved_guesses: BTreeSet<String> = BTreeSet::new();
        for e in self.ring.iter().rev() {
            match e.kind {
                FlightKind::GuessResolve => {
                    if let Some(s) = e.span {
                        resolved_spans.insert(s.0);
                    }
                    if let Some(g) = guess_key(e) {
                        resolved_guesses.insert(g);
                    }
                }
                FlightKind::GuessOpen => {
                    let resolved = match guess_key(e) {
                        Some(g) => resolved_guesses.contains(&g),
                        None => e.span.is_some_and(|s| resolved_spans.contains(&s.0)),
                    };
                    if !resolved {
                        return Some(e.id);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Extract the minimal happens-before slice explaining `target`.
    ///
    /// Walks backwards over (a) each event's `cause` edge and (b) the
    /// span-parent chain of each event's span, pulling in the retained
    /// events of every ancestor span — O(ancestors), never a scan of the
    /// full history. When the walk reaches an evicted ancestor — an
    /// event gone from this ring, or a span gone from a bounded `spans`
    /// and its parent link with it — the slice is flagged `truncated`
    /// and the dangling edges are counted in `missing_ancestors`, so a
    /// bounded ring can never silently pass off a partial explanation as
    /// a complete one.
    pub fn slice(&self, target: FlightId, spans: &SpanStore) -> CausalSlice {
        let mut member: BTreeSet<u64> = BTreeSet::new();
        let mut missing: BTreeSet<u64> = BTreeSet::new();
        let mut seen_spans: BTreeSet<u64> = BTreeSet::new();
        let mut missing_spans = 0u64;
        let mut work: Vec<u64> = vec![target.0];
        if self.get(target).is_none() {
            missing.insert(target.0);
            work.clear();
        }
        while let Some(id) = work.pop() {
            if !member.insert(id) {
                continue;
            }
            let Some(ev) = self.get(FlightId(id)) else {
                member.remove(&id);
                missing.insert(id);
                continue;
            };
            if let Some(cause) = ev.cause {
                if !member.contains(&cause.0) && !missing.contains(&cause.0) {
                    work.push(cause.0);
                }
            }
            // Span-parent edges: the events of every ancestor span are
            // part of the story (they are the contexts the work ran
            // under), e.g. a `guess.outstanding` resolve pulls in its
            // open, and a hop pulls in the operation span that sent it.
            let mut span = ev.span;
            while let Some(s) = span {
                if !seen_spans.insert(s.0) {
                    break;
                }
                if let Some(ids) = self.by_span.get(&s.0) {
                    for &e in ids {
                        if e <= target.0 && !member.contains(&e) && !missing.contains(&e) {
                            work.push(e);
                        }
                    }
                }
                span = match spans.get(s) {
                    Some(rec) => rec.parent,
                    None => {
                        missing_spans += u64::from(spans.was_evicted(s));
                        None
                    }
                };
            }
        }
        let missing_ancestors = missing.len() as u64 + missing_spans;
        let events: Vec<FlightEvent> =
            member.iter().filter_map(|&id| self.get(FlightId(id)).cloned()).collect();
        CausalSlice {
            target,
            events,
            truncated: missing_ancestors > 0,
            missing_ancestors,
            total_recorded: self.next_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        fr: &mut FlightRecorder,
        us: u64,
        kind: FlightKind,
        span: Option<u64>,
        cause: Option<u64>,
    ) -> FlightId {
        fr.record(
            SimTime::from_micros(us),
            kind,
            Some(NodeId(0)),
            None,
            span.map(SpanId),
            cause.map(FlightId),
            None,
            Vec::new(),
        )
    }

    #[test]
    fn ids_are_dense_and_survive_eviction() {
        let mut fr = FlightRecorder::new(2);
        let a = rec(&mut fr, 1, FlightKind::Deliver, None, None);
        let b = rec(&mut fr, 2, FlightKind::Deliver, None, None);
        let c = rec(&mut fr, 3, FlightKind::Deliver, None, None);
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(fr.total_recorded(), 3);
        assert_eq!(fr.evicted(), 1);
        assert!(fr.get(a).is_none(), "evicted");
        assert!(fr.get(c).is_some());
    }

    #[test]
    fn slice_follows_cause_chains_only() {
        let mut fr = FlightRecorder::new(64);
        let spans = SpanStore::new();
        let root = rec(&mut fr, 1, FlightKind::Timer, None, None);
        let hop = rec(&mut fr, 2, FlightKind::Deliver, None, Some(root.0));
        let _noise = rec(&mut fr, 3, FlightKind::Deliver, None, None);
        let target = rec(&mut fr, 4, FlightKind::Deliver, None, Some(hop.0));
        let slice = fr.slice(target, &spans);
        let ids: Vec<u64> = slice.events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![root.0, hop.0, target.0]);
        assert!(!slice.truncated);
    }

    #[test]
    fn slice_reports_truncation_when_ancestors_were_evicted() {
        let mut fr = FlightRecorder::new(2);
        let spans = SpanStore::new();
        let a = rec(&mut fr, 1, FlightKind::Timer, None, None);
        let b = rec(&mut fr, 2, FlightKind::Deliver, None, Some(a.0));
        let c = rec(&mut fr, 3, FlightKind::Deliver, None, Some(b.0));
        // `a` has been evicted; the walk from c reaches b, then dangles.
        let slice = fr.slice(c, &spans);
        assert!(slice.truncated, "evicted ancestor must be reported");
        assert_eq!(slice.missing_ancestors, 1);
        assert_eq!(slice.events.len(), 2);
    }

    #[test]
    fn span_index_pulls_in_guess_open_for_resolve() {
        let mut fr = FlightRecorder::new(64);
        let mut spans = SpanStore::new();
        let s = spans.open_span("guess.outstanding", Some(NodeId(0)), None, SimTime::ZERO);
        let open = rec(&mut fr, 1, FlightKind::GuessOpen, Some(s.0), None);
        let _noise = rec(&mut fr, 2, FlightKind::Deliver, None, None);
        let resolve = rec(&mut fr, 3, FlightKind::GuessResolve, Some(s.0), None);
        let slice = fr.slice(resolve, &spans);
        let ids: Vec<u64> = slice.events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![open.0, resolve.0]);
    }

    #[test]
    fn slice_reports_truncation_when_a_span_parent_was_evicted() {
        use crate::span::SpanStatus;
        let mut fr = FlightRecorder::new(64);
        let mut spans = SpanStore::bounded(2);
        let op = spans.open_span("dynamo.put", Some(NodeId(0)), None, SimTime::ZERO);
        let in_op = rec(&mut fr, 1, FlightKind::Timer, Some(op.0), None);
        let hop = spans.open_span("net.hop", None, Some(op), SimTime::from_micros(2));
        let deliver = rec(&mut fr, 3, FlightKind::Deliver, Some(hop.0), None);
        // While `op` is retained the hop's delivery pulls in the event
        // that ran under its parent, and the slice is complete.
        let whole = fr.slice(deliver, &spans);
        assert_eq!(whole.events.iter().map(|e| e.id).collect::<Vec<_>>(), vec![in_op, deliver]);
        assert!(!whole.truncated);
        // Push `hop` out of the window: its parent link goes with it.
        spans.finish_span(op, SimTime::from_micros(4), SpanStatus::Ok);
        spans.finish_span(hop, SimTime::from_micros(4), SpanStatus::Ok);
        for _ in 0..3 {
            let s = spans.open_span("noise", None, None, SimTime::from_micros(5));
            spans.finish_span(s, SimTime::from_micros(6), SpanStatus::Ok);
        }
        assert!(spans.was_evicted(hop));
        let cut = fr.slice(deliver, &spans);
        assert_eq!(cut.events.iter().map(|e| e.id).collect::<Vec<_>>(), vec![deliver]);
        assert!(cut.truncated, "a walk that ends at an evicted span must say so");
        assert_eq!(cut.missing_ancestors, 1);
    }

    #[test]
    fn last_unresolved_guess_skips_resolved_ones() {
        let mut fr = FlightRecorder::new(64);
        let open_a = rec(&mut fr, 1, FlightKind::GuessOpen, Some(7), None);
        let _open_b = rec(&mut fr, 2, FlightKind::GuessOpen, Some(8), None);
        rec(&mut fr, 3, FlightKind::GuessResolve, Some(8), None);
        assert_eq!(fr.last_unresolved_guess(), Some(open_a));
    }

    #[test]
    fn json_is_deterministic() {
        let mut fr = FlightRecorder::new(8);
        let id = rec(&mut fr, 5, FlightKind::Deliver, Some(3), Some(0));
        let ev = fr.get(id).unwrap();
        assert_eq!(ev.to_json(), ev.to_json());
        assert!(ev.to_json().contains("\"kind\":\"deliver\""));
    }
}
