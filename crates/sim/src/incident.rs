//! Incident forensics: the always-on black box shared by both engines.
//!
//! *Building on Quicksand* §5 says every guess is a promise and every
//! broken promise owes an apology. The ledger accounts for them; the
//! flight recorder can explain any single event; this module closes the
//! loop for *operations*: whenever something apology-worthy happens — a
//! panic converted to a fail-fast crash, a fault-plan clause crashing a
//! node, a guess left open past its deadline — the engine snapshots the
//! causal [`Explanation`] **at that moment** (before ring eviction can
//! eat the ancestors) and files it as an [`Incident`] in a bounded
//! [`IncidentLog`].
//!
//! The log is engine-agnostic state on [`crate::engine::EngineCore`], so
//! the deterministic simulator and the wall-clock runtime share one
//! recording path. The runtime surfaces it live (`GET /incidents`,
//! `GET /explain?incident=N`) and the bench harness persists each record
//! durably through the eventlog-backed `IncidentStream`, keyed by
//! `(node, epoch, seq)` so a restarted process recovers its own black
//! box without duplicating entries.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use crate::actor::NodeId;
use crate::explain::Explanation;
use crate::flight::FlightId;
use crate::json;
use crate::time::SimTime;

/// Why an incident was filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// An actor callback panicked and the engine converted the panic
    /// into a fail-fast crash (§2.2).
    PanicCrash,
    /// A fault-plan clause (or an explicit operator action) crashed the
    /// node.
    ChaosCrash,
    /// A guess stayed open past the configured deadline — the apology
    /// is overdue.
    GuessDeadline,
}

impl IncidentKind {
    /// Stable lowercase label used in JSON and text renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentKind::PanicCrash => "panic-crash",
            IncidentKind::ChaosCrash => "chaos-crash",
            IncidentKind::GuessDeadline => "guess-deadline",
        }
    }

    /// Parse the stable label back (the inverse of
    /// [`IncidentKind::as_str`]).
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s {
            "panic-crash" => Some(IncidentKind::PanicCrash),
            "chaos-crash" => Some(IncidentKind::ChaosCrash),
            "guess-deadline" => Some(IncidentKind::GuessDeadline),
            _ => None,
        }
    }
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One filed incident: what happened, to whom, and the causal
/// explanation extracted when it happened.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Dense per-run sequence number — the `?incident=N` handle.
    pub seq: u64,
    /// The node the incident happened on.
    pub node: NodeId,
    /// The node's crash epoch when the incident was filed (restarts
    /// bump it, so `(node, epoch, seq)` is stable across recoveries).
    pub epoch: u64,
    /// Why it was filed.
    pub kind: IncidentKind,
    /// When it was filed.
    pub at: SimTime,
    /// The flight event the explanation targets: the crash event, or
    /// the overdue guess's open.
    pub target: FlightId,
    /// Ops of the volatile guesses a crash orphaned; for
    /// guess-deadline incidents, the overdue guess's op.
    pub orphaned_guesses: Vec<String>,
    /// The explanation, snapshotted at filing time so the slice
    /// survives later ring eviction.
    pub explanation: Explanation,
}

impl Incident {
    /// The index entry: everything except the (potentially large)
    /// embedded explanation. Deterministic.
    pub fn summary_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"node\":\"{}\",\"epoch\":{},\"kind\":\"{}\",\"at_us\":{},\
             \"target\":{},\"slice_events\":{},\"truncated\":{}",
            self.seq,
            self.node,
            self.epoch,
            self.kind,
            self.at.as_micros(),
            self.target.0,
            self.explanation.slice.events.len(),
            self.explanation.slice.truncated,
        );
        out.push_str(",\"orphaned_guesses\":[");
        for (i, op) in self.orphaned_guesses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(op));
        }
        out.push_str("]}");
        out
    }

    /// The full durable record: the summary plus the embedded
    /// explanation (its slice, plan, and Perfetto rendering).
    pub fn to_json(&self) -> String {
        let mut out = self.summary_json();
        out.pop(); // drop the closing brace; extend the same object
        out.push_str(",\"explanation\":");
        out.push_str(&self.explanation.to_json());
        out.push('}');
        out
    }

    /// The text post-mortem: an incident header on top of the
    /// explanation's annotated timeline.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "incident #{}: {} on {} (epoch {}) at {}\n",
            self.seq, self.kind, self.node, self.epoch, self.at
        );
        if !self.orphaned_guesses.is_empty() {
            out.push_str(&format!("orphaned guesses: {}\n", self.orphaned_guesses.join(", ")));
        }
        out.push_str(&self.explanation.render_text());
        out
    }
}

/// The bounded in-memory incident log. Sequence numbers are dense and
/// survive eviction (like flight ids), so a durable sink keyed by
/// `(node, epoch, seq)` dedups across drains and process restarts.
#[derive(Debug, Default)]
pub struct IncidentLog {
    ring: VecDeque<Incident>,
    capacity: usize,
    next_seq: u64,
    /// Guess ids that already produced a guess-deadline incident, so
    /// repeated sweeps do not file duplicates.
    flagged_guesses: BTreeSet<u64>,
}

impl IncidentLog {
    /// A log retaining the most recent `capacity` incidents.
    pub fn new(capacity: usize) -> Self {
        IncidentLog {
            ring: VecDeque::new(),
            capacity,
            next_seq: 0,
            flagged_guesses: BTreeSet::new(),
        }
    }

    /// File an incident; returns its sequence number. Evicts the oldest
    /// retained incident when full (the seq still counts).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        node: NodeId,
        epoch: u64,
        kind: IncidentKind,
        at: SimTime,
        target: FlightId,
        orphaned_guesses: Vec<String>,
        explanation: Explanation,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            return seq;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(Incident {
            seq,
            node,
            epoch,
            kind,
            at,
            target,
            orphaned_guesses,
            explanation,
        });
        seq
    }

    /// Mark a guess id as having produced a deadline incident. Returns
    /// `true` the first time (i.e. the incident should be filed).
    pub fn flag_guess(&mut self, guess: u64) -> bool {
        self.flagged_guesses.insert(guess)
    }

    /// Look up a retained incident (`None` if evicted or never filed).
    pub fn get(&self, seq: u64) -> Option<&Incident> {
        let first = self.first_retained();
        if seq < first || seq >= self.next_seq {
            return None;
        }
        self.ring.get((seq - first) as usize)
    }

    /// Retained incidents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Incident> {
        self.ring.iter()
    }

    /// Incidents filed over the run's lifetime, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// The seq of the oldest retained incident (equals
    /// [`IncidentLog::total_recorded`] when nothing is retained).
    pub fn first_retained(&self) -> u64 {
        self.ring.front().map_or(self.next_seq, |i| i.seq)
    }

    /// Number of retained incidents.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The `/incidents` index body: totals plus one summary per
    /// retained incident, oldest first. Deterministic.
    pub fn index_json(&self) -> String {
        let mut out = format!(
            "{{\"count\":{},\"total_recorded\":{},\"first_retained\":{},\"incidents\":[",
            self.ring.len(),
            self.next_seq,
            self.first_retained()
        );
        for (i, inc) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&inc.summary_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::CausalSlice;
    use crate::plan::FaultPlan;
    use crate::span::SpanStore;

    fn incident_parts() -> Explanation {
        let slice = CausalSlice {
            target: FlightId(3),
            events: Vec::new(),
            truncated: false,
            missing_ancestors: 0,
            total_recorded: 10,
        };
        Explanation::new(7, slice, FaultPlan::none(), &SpanStore::new())
    }

    #[test]
    fn seqs_are_dense_and_survive_eviction() {
        let mut log = IncidentLog::new(2);
        for i in 0..3 {
            let seq = log.push(
                NodeId(1),
                0,
                IncidentKind::ChaosCrash,
                SimTime::from_micros(i),
                FlightId(i),
                Vec::new(),
                incident_parts(),
            );
            assert_eq!(seq, i);
        }
        assert_eq!(log.total_recorded(), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.first_retained(), 1);
        assert!(log.get(0).is_none(), "evicted");
        assert_eq!(log.get(2).unwrap().seq, 2);
    }

    #[test]
    fn guess_flags_dedup() {
        let mut log = IncidentLog::new(8);
        assert!(log.flag_guess(5));
        assert!(!log.flag_guess(5), "second sweep must not refile");
    }

    #[test]
    fn index_and_record_json_are_wellformed() {
        let mut log = IncidentLog::new(8);
        log.push(
            NodeId(2),
            1,
            IncidentKind::PanicCrash,
            SimTime::from_micros(42),
            FlightId(3),
            vec!["cart.put".to_owned()],
            incident_parts(),
        );
        let index = log.index_json();
        assert!(index.contains("\"count\":1"), "{index}");
        assert!(index.contains("\"kind\":\"panic-crash\""), "{index}");
        assert!(index.contains("\"orphaned_guesses\":[\"cart.put\"]"), "{index}");
        let full = log.get(0).unwrap().to_json();
        assert!(full.contains("\"explanation\":{\"seed\":7"), "{full}");
        let text = log.get(0).unwrap().render_text();
        assert!(text.contains("incident #0: panic-crash on n2 (epoch 1)"), "{text}");
        assert!(text.contains("orphaned guesses: cart.put"), "{text}");
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in [IncidentKind::PanicCrash, IncidentKind::ChaosCrash, IncidentKind::GuessDeadline] {
            assert_eq!(IncidentKind::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(IncidentKind::from_str_opt("nope"), None);
    }
}
