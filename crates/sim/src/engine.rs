//! The engine core shared by the deterministic simulator and the
//! wall-clock runtime.
//!
//! *Building on Quicksand*'s whole argument is that the application
//! protocol, not the substrate, carries the guarantees — so the same
//! actor code must run unchanged under simulated time **and** on real
//! threads. The risk in having two engines is drift: if each one
//! hand-rolls how a callback's effects (sends, timer arms and cancels,
//! span/metric/ledger bookkeeping) are applied, their semantics will
//! diverge one bugfix at a time.
//!
//! [`EngineCore`] eliminates that drift by construction. It owns every
//! piece of callback state that is engine-independent — the RNG, the
//! metric registry, the span store, the optional trace and flight
//! recorders, the guess/apology ledger, and the timer-id allocator —
//! and exposes the bookkeeping transitions (deliver, drop-to-down,
//! timer fire, crash, restart) as methods. The simulator drives it from
//! its event loop ([`crate::world::Simulation`]); the `quicksand-runtime`
//! crate drives the identical methods from worker threads. What stays
//! engine-specific is only *when* events happen (virtual clock vs wall
//! clock) and *how* messages travel (network model vs channels/TCP).
//!
//! Determinism is a property of the driver, not of this core: under the
//! simulator one seed replays bit-for-bit; under the runtime the OS
//! scheduler orders callbacks, and only outcome-level guarantees
//! (op-set union convergence, zero lost acked work) are promised.

use crate::actor::{Action, Context, NodeId, TimerId};
use crate::explain::Explanation;
use crate::flight::{FlightId, FlightKind, FlightRecorder};
use crate::incident::{IncidentKind, IncidentLog};
use crate::ledger::{GuessId, GuessOutcome, Ledger};
use crate::metrics::MetricSet;
use crate::plan::FaultPlan;
use crate::rng::SimRng;
use crate::span::{SpanId, SpanStatus, SpanStore};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceKind};

/// How many incidents [`EngineCore`] retains by default.
pub const DEFAULT_INCIDENT_CAP: usize = 64;

/// What a fail-fast crash left behind: the crash flight event (when the
/// recorder is enabled) and the ops of the volatile guesses it
/// orphaned. Returned by [`EngineCore::crash_bookkeeping`] so the
/// engine driving the crash can file the incident.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// The recorded [`FlightKind::Crash`] event, when the flight
    /// recorder is on.
    pub flight: Option<FlightId>,
    /// Ops of the volatile guesses the crash orphaned — promises whose
    /// owed apology died with the node's memory.
    pub orphaned: Vec<String>,
}

/// The engine-independent half of an actor engine: all run-wide
/// observability state plus the rules for applying callback effects.
///
/// Both engines hold exactly one of these per run. Fields are public so
/// harnesses can read metrics, spans, and the ledger after a run ends.
pub struct EngineCore {
    /// The seed the run was driven by (stamped into every explanation
    /// and incident, so artifacts are replayable).
    pub seed: u64,
    /// The run's random source. Seeded deterministically under the
    /// simulator; seeded from OS entropy by the runtime (unless pinned
    /// for a cross-validation run).
    pub rng: SimRng,
    /// The run-wide metric registry.
    pub metrics: MetricSet,
    /// Every causal span recorded during the run.
    pub spans: SpanStore,
    /// The bounded event trace, when enabled.
    pub trace: Option<Trace>,
    /// The forensic flight recorder, when enabled.
    pub flight: Option<FlightRecorder>,
    /// The guess/apology ledger. Always on.
    pub ledger: Ledger,
    /// The fault plan active during the run (empty when none is
    /// attached). Set by `FaultPlan::apply` under the simulator and by
    /// the runtime builder's chaos hook, so explanations render the
    /// clauses that were actually in force.
    pub plan: FaultPlan,
    /// The bounded incident log — the run's black box. Always on;
    /// incidents are only *filed* when the flight recorder is enabled
    /// (an incident without a slice explains nothing).
    pub incidents: IncidentLog,
    /// Timer-id sequence allocator (ids are globally unique per run).
    pub(crate) next_timer_id: u64,
}

impl EngineCore {
    /// A fresh core seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        EngineCore {
            seed,
            rng: SimRng::new(seed),
            metrics: MetricSet::new(),
            spans: SpanStore::new(),
            trace: None,
            flight: None,
            ledger: Ledger::new(),
            plan: FaultPlan::none(),
            incidents: IncidentLog::new(DEFAULT_INCIDENT_CAP),
            next_timer_id: 0,
        }
    }

    /// Run one actor callback with a fresh [`Context`] (ambient span =
    /// `ambient`, causal predecessor = `cause`) and return the
    /// callback's result together with the effects it issued, in issue
    /// order. The caller applies the effects through its own clock and
    /// transport — that split is the entire sim/runtime contract.
    pub fn run_callback<M, R>(
        &mut self,
        me: NodeId,
        now: SimTime,
        ambient: Option<SpanId>,
        cause: Option<FlightId>,
        f: impl FnOnce(&mut Context<'_, M>) -> R,
    ) -> (R, Vec<Action<M>>) {
        let mut ctx = Context {
            me,
            now,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            actions: Vec::new(),
            next_timer_id: &mut self.next_timer_id,
            spans: &mut self.spans,
            current_span: ambient,
            trace: &mut self.trace,
            flight: &mut self.flight,
            ledger: &mut self.ledger,
            cause,
        };
        let r = f(&mut ctx);
        (r, ctx.actions)
    }

    /// Record one engine event into the trace ring, if enabled.
    pub fn record_trace(
        &mut self,
        now: SimTime,
        kind: TraceKind,
        node: Option<NodeId>,
        from: Option<NodeId>,
    ) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent::sim(now, kind, node, from));
        }
    }

    /// Record one engine event into the flight recorder, if enabled.
    /// Returns the new event's id (the `cause` for whatever the event's
    /// callback records).
    pub fn record_flight(
        &mut self,
        now: SimTime,
        kind: FlightKind,
        node: Option<NodeId>,
        from: Option<NodeId>,
        span: Option<SpanId>,
        cause: Option<FlightId>,
    ) -> Option<FlightId> {
        self.flight.as_mut().map(|f| f.record(now, kind, node, from, span, cause, None, Vec::new()))
    }

    /// Open the `net.hop` span for one physical delivery of a send
    /// issued under `parent`. Duplicated messages get one hop each, so
    /// duplication is visible in the span tree.
    pub fn plan_hop(&mut self, parent: Option<SpanId>, to: NodeId, now: SimTime) -> Option<SpanId> {
        parent.map(|p| {
            let h = self.spans.open_span("net.hop", None, Some(p), now);
            self.spans.add_field(h, "to", to.to_string());
            h
        })
    }

    /// Close a delivery's hop span with the given status. Safe on
    /// `None` and on already-finished spans.
    pub fn finish_hop(&mut self, hop: Option<SpanId>, now: SimTime, status: SpanStatus) {
        if let Some(h) = hop {
            self.spans.finish_span(h, now, status);
        }
    }

    /// A send that the transport dropped before delivery (partition,
    /// loss, dead connection): the hop — opened fresh if the send had a
    /// span but no hop yet — closes as dropped and the loss is counted.
    pub fn drop_send(&mut self, parent: Option<SpanId>, to: NodeId, now: SimTime) {
        let hop = self.plan_hop(parent, to, now);
        self.finish_hop(hop, now, SpanStatus::Dropped);
        self.metrics.inc("sim.messages_dropped");
    }

    /// Bookkeeping for a message arriving at a live node. Returns the
    /// flight cause the receiving callback should run under.
    pub fn deliver_bookkeeping(
        &mut self,
        to: NodeId,
        from: NodeId,
        hop: Option<SpanId>,
        cause: Option<FlightId>,
        now: SimTime,
    ) -> Option<FlightId> {
        self.finish_hop(hop, now, SpanStatus::Ok);
        self.record_trace(now, TraceKind::Deliver, Some(to), Some(from));
        self.record_flight(now, FlightKind::Deliver, Some(to), Some(from), hop, cause)
    }

    /// Bookkeeping for a message addressed to a down node: the delivery
    /// silently vanishes — exactly the §4.2 "stuck in the primary"
    /// window — but the loss is visible in spans and metrics.
    pub fn dropped_to_down(
        &mut self,
        to: NodeId,
        from: NodeId,
        hop: Option<SpanId>,
        cause: Option<FlightId>,
        now: SimTime,
    ) {
        self.finish_hop(hop, now, SpanStatus::Dropped);
        self.metrics.inc("sim.dropped_to_down_node");
        self.record_trace(now, TraceKind::DropDown, Some(to), Some(from));
        self.record_flight(now, FlightKind::DropDown, Some(to), Some(from), hop, cause);
    }

    /// Bookkeeping for a live timer firing. Returns the flight cause
    /// the timer callback should run under.
    pub fn timer_bookkeeping(
        &mut self,
        node: NodeId,
        span: Option<SpanId>,
        cause: Option<FlightId>,
        now: SimTime,
    ) -> Option<FlightId> {
        self.record_trace(now, TraceKind::Timer, Some(node), None);
        self.record_flight(now, FlightKind::Timer, Some(node), None, span, cause)
    }

    /// Bookkeeping for a fail-fast crash (§2.2), run *after* the
    /// actor's `on_crash` hook: every span still open on the node
    /// closes as crashed (fail-fast means nothing keeps running), and
    /// the node's volatile guesses are orphaned — the memory that owed
    /// the apology is gone, which is itself an auditable event. The
    /// returned [`CrashOutcome`] is what
    /// [`EngineCore::record_crash_incident`] files.
    pub fn crash_bookkeeping(&mut self, node: NodeId, now: SimTime) -> CrashOutcome {
        self.spans.close_node_spans(node, now);
        self.metrics.inc("sim.crashes");
        self.record_trace(now, TraceKind::Crash, Some(node), None);
        let fid = self.record_flight(now, FlightKind::Crash, Some(node), None, None, None);
        let mut orphaned = Vec::new();
        for (span, op) in self.ledger.orphan_node(node, now) {
            if let Some(f) = &mut self.flight {
                f.record(
                    now,
                    FlightKind::GuessResolve,
                    Some(node),
                    None,
                    Some(span),
                    fid,
                    Some(op.clone()),
                    vec![("outcome".to_owned(), "orphaned".to_owned())],
                );
            }
            orphaned.push(op);
        }
        CrashOutcome { flight: fid, orphaned }
    }

    /// Bookkeeping for a node restarting after a crash. Returns the
    /// flight cause `on_restart` should run under, so effects of the
    /// recovery (e.g. re-armed gossip timers) are causally downstream
    /// of the restart.
    pub fn restart_bookkeeping(&mut self, node: NodeId, now: SimTime) -> Option<FlightId> {
        self.metrics.inc("sim.restarts");
        self.record_trace(now, TraceKind::Restart, Some(node), None);
        self.record_flight(now, FlightKind::Restart, Some(node), None, None, None)
    }

    /// Whether a [`Context::cancel_timer`] effect issued by `node` may
    /// take effect. Cancelling a *foreign* timer — one armed by a
    /// different node — is a documented no-op on every engine (timer
    /// ids encode their owner); the attempt is counted so a protocol
    /// accidentally shipping timer ids across nodes shows up in
    /// metrics rather than as engine-dependent behaviour.
    pub fn cancel_allowed(&mut self, node: NodeId, id: TimerId) -> bool {
        if id.owner() != node {
            self.metrics.inc("sim.foreign_timer_cancel_ignored");
            return false;
        }
        true
    }

    /// Engine-agnostic [`Explanation`] construction — the one shared
    /// path both engines render post-mortems through. Snapshots the
    /// O(ancestors) causal slice behind `target` together with the
    /// active plan and the spans the slice touches. `None` when the
    /// flight recorder is disabled.
    pub fn explain_target(&self, target: FlightId) -> Option<Explanation> {
        let flight = self.flight.as_ref()?;
        let slice = flight.slice(target, &self.spans);
        Some(Explanation::new(self.seed, slice, self.plan.clone(), &self.spans))
    }

    /// Explain the most forensically interesting event: the last
    /// unresolved guess, falling back to the most recent event. `None`
    /// when the flight recorder is disabled or empty.
    pub fn explain_latest(&self) -> Option<Explanation> {
        let flight = self.flight.as_ref()?;
        let target = flight.last_unresolved_guess().or_else(|| flight.last_matching(|_| true))?;
        self.explain_target(target)
    }

    /// The flight event where guess `id` was opened, when retained:
    /// durable guesses are found by their stamped `guess` field,
    /// volatile ones through their `guess.outstanding` span.
    fn guess_open_event(&self, id: GuessId) -> Option<FlightId> {
        let flight = self.flight.as_ref()?;
        let rec = self.ledger.get(id)?;
        let key = id.0.to_string();
        flight
            .last_matching(|e| {
                e.kind == FlightKind::GuessOpen
                    && e.fields.iter().any(|(k, v)| k == "guess" && *v == key)
            })
            .or_else(|| {
                let span = rec.span?;
                flight
                    .events_for_span(span)
                    .into_iter()
                    .find(|e| e.kind == FlightKind::GuessOpen)
                    .map(|e| e.id)
            })
    }

    /// Explain one guess from the ledger: the slice behind its open
    /// event. `None` when the guess is unknown, the recorder is off, or
    /// the open has been evicted.
    pub fn explain_guess(&self, id: GuessId) -> Option<Explanation> {
        self.explain_target(self.guess_open_event(id)?)
    }

    /// File a crash incident from a [`CrashOutcome`]. Returns the
    /// incident's seq, or `None` when the flight recorder is off (no
    /// slice to file). The explanation is extracted *now*, so later
    /// ring eviction cannot hollow out the record.
    pub fn record_crash_incident(
        &mut self,
        node: NodeId,
        epoch: u64,
        kind: IncidentKind,
        now: SimTime,
        outcome: &CrashOutcome,
    ) -> Option<u64> {
        let target = outcome.flight?;
        let explanation = self.explain_target(target)?;
        let seq = self.incidents.push(
            node,
            epoch,
            kind,
            now,
            target,
            outcome.orphaned.clone(),
            explanation,
        );
        self.metrics.inc_with("incident.recorded", &[("kind", kind.as_str())]);
        Some(seq)
    }

    /// Sweep the ledger for guesses open longer than `deadline` and
    /// file one guess-deadline incident per newly overdue guess
    /// (sweeps are idempotent: a guess is filed at most once).
    /// `epoch_of` supplies each node's current crash epoch — the
    /// runtime reads its status board, the simulator its node slots.
    /// Returns the seqs filed this sweep.
    pub fn sweep_overdue_guesses(
        &mut self,
        now: SimTime,
        deadline: SimDuration,
        epoch_of: impl Fn(NodeId) -> u64,
    ) -> Vec<u64> {
        if self.flight.is_none() {
            return Vec::new();
        }
        let overdue: Vec<(GuessId, Option<NodeId>, String)> = self
            .ledger
            .records()
            .iter()
            .filter(|r| r.is_open() && now.saturating_since(r.opened_at) >= deadline)
            .map(|r| (r.id, r.node, r.op.clone()))
            .collect();
        let mut filed = Vec::new();
        for (id, node, op) in overdue {
            // An overdue guess with no recorded owner lands on n0's lane
            // rather than vanishing from the black box.
            let node = node.unwrap_or(NodeId(0));
            let Some(target) = self.guess_open_event(id) else { continue };
            if !self.incidents.flag_guess(id.0) {
                continue;
            }
            let Some(explanation) = self.explain_target(target) else { continue };
            let seq = self.incidents.push(
                node,
                epoch_of(node),
                IncidentKind::GuessDeadline,
                now,
                target,
                vec![op],
                explanation,
            );
            self.metrics
                .inc_with("incident.recorded", &[("kind", IncidentKind::GuessDeadline.as_str())]);
            filed.push(seq);
        }
        filed
    }

    /// Export the ledger's accounting into the metric registry (call
    /// once, after the run, before reading metrics).
    pub fn export_ledger_metrics(&mut self) {
        self.ledger.export_metrics(&mut self.metrics);
    }

    /// Resolve a still-open guess span at final settlement — for
    /// harnesses whose ground truth is only knowable at report time.
    /// Mirrors [`Context::resolve_guess`]; no-op on spans already
    /// closed (e.g. by a crash).
    pub fn settle_guess(&mut self, span: SpanId, confirmed: bool, now: SimTime) {
        let Some(rec) = self.spans.get(span) else { return };
        if rec.status != SpanStatus::Open {
            return;
        }
        let node = rec.node;
        let outstanding = now.saturating_since(rec.start).as_micros() as f64;
        self.metrics.record("guess.outstanding_us", outstanding);
        let label = node.map_or_else(|| "?".to_owned(), |n| n.to_string());
        let (counter, status) = if confirmed {
            ("guess.confirmed", SpanStatus::Ok)
        } else {
            ("guess.apologies", SpanStatus::Failed)
        };
        self.metrics.inc_with(counter, &[("node", label.as_str())]);
        self.spans.add_field(
            span,
            "resolution",
            if confirmed { "confirmed" } else { "apology" }.to_owned(),
        );
        let outcome = if confirmed { GuessOutcome::Confirmed } else { GuessOutcome::Apologized };
        self.ledger.resolve_span(span, now, outcome);
        if let Some(f) = self.flight.as_mut() {
            f.record(
                now,
                FlightKind::GuessResolve,
                node,
                None,
                Some(span),
                None,
                None,
                vec![
                    ("outcome".to_owned(), outcome.as_str().to_owned()),
                    ("settled".to_owned(), "end-of-run".to_owned()),
                ],
            );
        }
        self.spans.finish_span(span, now, status);
    }
}
