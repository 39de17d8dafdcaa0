//! The explain engine: rendering a [`CausalSlice`] as something a human
//! (or a CI artifact reviewer) can actually read.
//!
//! The flight recorder (see [`crate::flight`]) can extract the minimal
//! happens-before slice behind any event. This module turns that slice
//! into an [`Explanation`]:
//!
//! - an **annotated text timeline** — one line per slice event, laid out
//!   in per-node lanes, with the active [`FaultPlan`]'s clauses
//!   interleaved at their onset and end times and guess markers
//!   (`guess?` / `guess!`) called out where optimism was extended and
//!   where the verdict landed;
//! - a **filtered Perfetto trace** (Chrome `trace_event` JSON) holding
//!   only the spans and events the slice touches, so loading it shows
//!   the story without the other ten thousand spans of the run.
//!
//! Renderings are pure functions of the slice, plan, and span store —
//! same seed, byte-identical artifacts. Chaos sweeps write them next to
//! failing seeds as `explain-<seed>.txt` / `explain-<seed>.json` (see
//! [`crate::chaos::ChaosRun::artifacts_into`]).

use std::collections::BTreeSet;

use crate::chaos::FaultPlan;
use crate::flight::{CausalSlice, FlightEvent, FlightKind};
use crate::json;
use crate::span::{SpanRecord, SpanStore};
use crate::time::SimTime;

/// A rendered forensic explanation of one event: the causal slice, the
/// fault plan that was active, and the invariants the run violated.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The sweep seed the run was driven by.
    pub seed: u64,
    /// The minimal happens-before slice explaining the target event.
    pub slice: CausalSlice,
    /// The fault plan active during the run.
    pub plan: FaultPlan,
    /// The spans the slice touches, ancestors included, in allocation
    /// order — the filtered Perfetto export. A copy of these few, not
    /// of the run's store, so a retained explanation stays small.
    pub spans: Vec<SpanRecord>,
    /// How many spans the slice touches that a bounded store had
    /// already evicted (their share of `slice.missing_ancestors`).
    pub evicted_spans: u64,
    /// Names of the invariants the run violated (empty when the
    /// explanation was requested out of curiosity rather than failure).
    pub violations: Vec<String>,
}

impl Explanation {
    /// Package a slice with the plan that produced it and the spans of
    /// `store` it touches.
    pub fn new(seed: u64, slice: CausalSlice, plan: FaultPlan, store: &SpanStore) -> Self {
        let mut touched = BTreeSet::new();
        for ev in &slice.events {
            let mut span = ev.span;
            while let Some(s) = span {
                if !touched.insert(s) {
                    break;
                }
                span = store.get(s).and_then(|rec| rec.parent);
            }
        }
        let evicted_spans = touched.iter().filter(|&&s| store.was_evicted(s)).count() as u64;
        let spans = touched.iter().filter_map(|&s| store.get(s).cloned()).collect();
        Explanation { seed, slice, plan, spans, evicted_spans, violations: Vec::new() }
    }

    /// Attach the violated invariant names (builder-style).
    pub fn with_violations(mut self, violations: Vec<String>) -> Self {
        self.violations = violations;
        self
    }

    /// The annotated text timeline. One lane per node (columns shift
    /// right with the node id), fault clauses interleaved at onset and
    /// end, guess markers flagged in the margin.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let pct = self.slice.fraction_of_total() * 100.0;
        out.push_str(&format!(
            "causal slice for {} — {} of {} recorded events ({:.1}%)\n",
            self.slice.target,
            self.slice.events.len(),
            self.slice.total_recorded,
            pct
        ));
        out.push_str(&format!("seed: {}\n", self.seed));
        if !self.violations.is_empty() {
            out.push_str(&format!("violated: {}\n", self.violations.join(", ")));
        }
        if self.evicted_spans > 0 {
            out.push_str(&format!(
                "TRUNCATED: {} causal ancestor(s) evicted ({} from the flight ring, {} from the span store)\n",
                self.slice.missing_ancestors,
                self.slice.missing_ancestors.saturating_sub(self.evicted_spans),
                self.evicted_spans
            ));
        } else if self.slice.truncated {
            out.push_str(&format!(
                "TRUNCATED: {} causal ancestor(s) evicted from the flight ring\n",
                self.slice.missing_ancestors
            ));
        }
        if self.plan.is_empty() {
            out.push_str("fault plan: (no faults)\n");
        } else {
            out.push_str(&format!("fault plan ({} clause(s)):\n", self.plan.len()));
            for f in &self.plan.faults {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out.push_str("timeline (one lane per node):\n");
        // Interleave fault-clause markers with the slice events by time.
        // Markers sort before events at the same instant: the fault is
        // the cause, the events are the effect.
        let mut markers: Vec<(SimTime, String)> = Vec::new();
        for f in &self.plan.faults {
            markers.push((f.at(), format!("---- fault onset: {f} ----")));
            if f.ends_at() > f.at() {
                markers.push((f.ends_at(), format!("---- fault ends:  {f} ----")));
            }
        }
        markers.sort_by_key(|(at, _)| *at);
        let mut mi = 0;
        for ev in &self.slice.events {
            while mi < markers.len() && markers[mi].0 <= ev.at {
                out.push_str(&format!("{:>11} {}\n", markers[mi].0.to_string(), markers[mi].1));
                mi += 1;
            }
            out.push_str(&self.render_event_line(ev));
        }
        for (at, m) in &markers[mi..] {
            out.push_str(&format!("{:>11} {m}\n", at.to_string()));
        }
        out
    }

    fn render_event_line(&self, ev: &FlightEvent) -> String {
        let lane = ev.node.map_or(0, |n| n.0);
        let mut line = format!("{:>11} {}", ev.at.to_string(), "  ".repeat(lane));
        match ev.kind {
            FlightKind::GuessOpen => line.push_str("(?) "),
            FlightKind::GuessResolve => line.push_str("(!) "),
            _ => {}
        }
        if let Some(n) = ev.node {
            line.push_str(&format!("{n}| "));
        } else {
            line.push_str("-| ");
        }
        line.push_str(&format!("{} {}", ev.id, ev.kind));
        if let Some(label) = &ev.label {
            line.push_str(&format!(" {label}"));
        }
        if let Some(from) = ev.from {
            line.push_str(&format!(" (from {from})"));
        }
        if let Some(span) = ev.span {
            line.push_str(&format!(" [{span}]"));
        }
        if let Some(cause) = ev.cause {
            line.push_str(&format!(" <- {cause}"));
        }
        for (k, v) in &ev.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line.push('\n');
        line
    }

    /// The filtered Perfetto trace: Chrome `trace_event` JSON holding
    /// only the spans the slice touches (as complete/instant events, as
    /// in [`SpanStore::to_chrome_trace`]) plus each slice event as an
    /// instant event on its node's track, with its cause edge in `args`.
    pub fn perfetto_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&s);
        };
        for s in &self.spans {
            push(s.to_chrome_event(), &mut first);
        }
        for ev in &self.slice.events {
            let tid = ev.node.map(|n| n.0 as i64).unwrap_or(-1);
            let name = match &ev.label {
                Some(l) => format!("{} {}", ev.kind, l),
                None => ev.kind.to_string(),
            };
            let mut args = format!("\"id\":\"{}\"", ev.id);
            if let Some(c) = ev.cause {
                args.push_str(&format!(",\"cause\":\"{c}\""));
            }
            if let Some(s) = ev.span {
                args.push_str(&format!(",\"span\":\"{s}\""));
            }
            for (k, v) in &ev.fields {
                args.push(',');
                args.push_str(&json::string(k));
                args.push(':');
                args.push_str(&json::string(v));
            }
            let rendered = format!(
                "{{\"name\":{},\"cat\":\"flight\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{{}}}}}",
                json::string(&name),
                ev.at.as_micros(),
                tid,
                args
            );
            push(rendered, &mut first);
        }
        out.push_str("\n]\n");
        out
    }

    /// The full forensic record as one deterministic JSON object: seed,
    /// violations, fault plan, slice events, and the embedded Perfetto
    /// trace.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seed\":{},\"target\":{}", self.seed, self.slice.target.0);
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(v));
        }
        out.push_str(&format!(
            "],\"truncated\":{},\"missing_ancestors\":{}",
            self.slice.truncated, self.slice.missing_ancestors,
        ));
        // Only a bounded store evicts: the simulator's artifacts stay
        // byte-identical without the key.
        if self.evicted_spans > 0 {
            out.push_str(&format!(",\"evicted_spans\":{}", self.evicted_spans));
        }
        out.push_str(&format!(
            ",\"total_recorded\":{},\"plan\":{}",
            self.slice.total_recorded,
            self.plan.to_json()
        ));
        out.push_str(",\"events\":[");
        for (i, ev) in self.slice.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push_str("],\"perfetto\":");
        out.push_str(self.perfetto_json().trim_end());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::NodeId;
    use crate::chaos::Fault;
    use crate::flight::FlightRecorder;
    use crate::span::SpanStatus;

    fn build() -> Explanation {
        let mut spans = SpanStore::new();
        let op = spans.open_span("guess.outstanding", Some(NodeId(1)), None, SimTime::ZERO);
        spans.finish_span(op, SimTime::from_micros(400), SpanStatus::Ok);
        // A span the slice never touches.
        spans.open_span("noise.op", Some(NodeId(3)), None, SimTime::from_micros(9));
        let mut fr = FlightRecorder::new(64);
        let root = fr.record(
            SimTime::from_micros(100),
            FlightKind::Timer,
            Some(NodeId(0)),
            None,
            None,
            None,
            None,
            Vec::new(),
        );
        fr.record(
            SimTime::from_micros(150),
            FlightKind::GuessOpen,
            Some(NodeId(1)),
            None,
            Some(op),
            Some(root),
            Some("cart.put".to_owned()),
            vec![("basis".to_owned(), "view".to_owned())],
        );
        let target = fr.record(
            SimTime::from_micros(400),
            FlightKind::GuessResolve,
            Some(NodeId(1)),
            None,
            Some(op),
            Some(root),
            None,
            vec![("outcome".to_owned(), "confirmed".to_owned())],
        );
        let slice = fr.slice(target, &spans);
        let plan = FaultPlan::from_faults(vec![Fault::Crash {
            at: SimTime::from_micros(200),
            node: NodeId(2),
            restart_at: Some(SimTime::from_micros(300)),
        }]);
        Explanation::new(7, slice, plan, &spans)
            .with_violations(vec!["eventual-convergence".to_owned()])
    }

    #[test]
    fn text_interleaves_faults_and_marks_guesses() {
        let e = build();
        let text = e.render_text();
        assert!(text.contains("violated: eventual-convergence"), "{text}");
        assert!(text.contains("fault onset: crash[n2]"), "{text}");
        assert!(text.contains("fault ends:"), "{text}");
        assert!(text.contains("(?)"), "guess-open marker: {text}");
        assert!(text.contains("(!)"), "guess-resolve marker: {text}");
        assert!(text.contains("cart.put"), "{text}");
        // Fault onset (t=200us) lands between the open (150) and the
        // resolve (400).
        let open_ix = text.find("(?)").unwrap();
        let fault_ix = text.find("fault onset").unwrap();
        let resolve_ix = text.find("(!)").unwrap();
        assert!(open_ix < fault_ix && fault_ix < resolve_ix, "{text}");
    }

    #[test]
    fn perfetto_is_filtered_to_slice_spans() {
        let e = build();
        assert_eq!(e.spans.len(), 1, "the store's other span is not copied: {:?}", e.spans);
        let p = e.perfetto_json();
        assert!(p.starts_with("[\n") && p.trim_end().ends_with(']'), "{p}");
        assert!(p.contains("guess.outstanding"), "{p}");
        assert!(!p.contains("noise.op"), "filtered: {p}");
        assert!(p.contains("\"cat\":\"flight\""), "{p}");
        assert!(p.contains("\"cause\":\"E0\""), "{p}");
    }

    #[test]
    fn renderings_are_deterministic() {
        let e = build();
        assert_eq!(e.render_text(), build().render_text());
        assert_eq!(e.to_json(), build().to_json());
        assert!(e.to_json().contains("\"perfetto\":["), "{}", e.to_json());
    }

    #[test]
    fn span_side_truncation_is_reported_beside_the_flight_side() {
        let whole = build();
        assert_eq!(whole.evicted_spans, 0);
        assert!(!whole.to_json().contains("evicted_spans"), "sim artifacts keep their bytes");
        // The same story told from a store whose window has moved on.
        let mut spans = SpanStore::bounded(1);
        let op = spans.open_span("guess.outstanding", Some(NodeId(1)), None, SimTime::ZERO);
        spans.finish_span(op, SimTime::from_micros(400), SpanStatus::Ok);
        for _ in 0..2 {
            let s = spans.open_span("noise.op", None, None, SimTime::from_micros(9));
            spans.finish_span(s, SimTime::from_micros(9), SpanStatus::Ok);
        }
        let mut fr = FlightRecorder::new(64);
        let target = fr.record(
            SimTime::from_micros(400),
            FlightKind::GuessResolve,
            Some(NodeId(1)),
            None,
            Some(op),
            None,
            None,
            Vec::new(),
        );
        let e = Explanation::new(7, fr.slice(target, &spans), FaultPlan::none(), &spans);
        assert!(e.slice.truncated);
        assert_eq!((e.evicted_spans, e.spans.len()), (1, 0));
        let text = e.render_text();
        assert!(
            text.contains("TRUNCATED: 1 causal ancestor(s) evicted (0 from the flight ring, 1 from the span store)"),
            "{text}"
        );
        assert!(
            e.to_json().contains("\"missing_ancestors\":1,\"evicted_spans\":1,"),
            "{}",
            e.to_json()
        );
    }

    #[test]
    fn truncated_slices_say_so_in_text() {
        let mut e = build();
        e.slice.truncated = true;
        e.slice.missing_ancestors = 3;
        assert!(e.render_text().contains("TRUNCATED: 3 causal ancestor(s)"));
    }
}
