//! The span store's bounded window under concurrent wall-clock load —
//! the sibling of `flight_eviction.rs`. Worker threads open an order of
//! magnitude more spans than [`DEFAULT_SPAN_CAP`] through the shared
//! core, and what the operator surface and the forensics pipeline lean
//! on must hold throughout:
//!
//! - **memory is bounded**: `retained() <= DEFAULT_SPAN_CAP + open`, and
//!   `len() == evicted() + retained()` at every instant;
//! - **open spans are never evicted**: a guess left open since launch is
//!   still there after the window has moved past it ten times, and a
//!   crash can still close it;
//! - **slices never lie**: a walk that reaches an evicted span is
//!   flagged `truncated`;
//! - **incidents stay small and complete**: each crash files exactly
//!   one incident whose slice holds the crash edge, and its explanation
//!   copies the spans of that slice, not the store.

mod common;

use std::time::Duration;

use common::assert_slice_closed;
use quicksand_runtime::{RuntimeBuilder, DEFAULT_SPAN_CAP};
use sim::{
    Actor, Context, Fault, FaultPlan, FlightKind, IncidentKind, NodeId, SimDuration, SimTime,
    SpanId, SpanStatus,
};

const PAIRS: usize = 3;
/// Spans each handled message opens: the handler's own, three children
/// and the reply's `net.hop`.
const SPANS_PER_MESSAGE: u64 = 5;
/// Enough volleys that the pairs together open over ten windows' worth.
const ROUNDS: u64 = (10 * DEFAULT_SPAN_CAP as u64) / (PAIRS as u64 * 2 * SPANS_PER_MESSAGE) + 200;

#[derive(Clone, Debug)]
struct Ball(u64);

/// Handle a ball the way a store handles a request: a span for the
/// work, a few finished children, a reply sent under it.
fn serve(ctx: &mut Context<'_, Ball>, to: NodeId, ball: Ball) {
    let op = ctx.start_span("volley.serve");
    for _ in 0..3 {
        let step = ctx.child_span(Some(op), "volley.step");
        ctx.finish_span(step);
    }
    ctx.send(to, ball);
    ctx.finish_span(op);
}

struct Ponger;

impl Actor<Ball> for Ponger {
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
        serve(ctx, from, Ball(msg.0 + 1));
    }
}

struct Pinger {
    peer: NodeId,
    done: std::sync::mpsc::Sender<()>,
}

impl Actor<Ball> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, _tag: u64) {
        serve(ctx, self.peer, Ball(0));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, _from: NodeId, msg: Ball) {
        if msg.0 < 2 * ROUNDS {
            serve(ctx, self.peer, Ball(msg.0 + 1));
        } else {
            self.done.send(()).ok();
        }
    }
}

/// Opens one guess at launch and never resolves it: the stuck promise
/// that must neither be evicted nor un-bound the store.
#[derive(Default)]
struct Bystander {
    guess: Option<SpanId>,
}

impl Actor<Ball> for Bystander {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        self.guess = Some(ctx.begin_guess("bystander.promise"));
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Ball>, _from: NodeId, _msg: Ball) {}
}

#[test]
fn span_window_under_concurrent_load_stays_bounded_and_honest() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    // The planned crash: a fault-plan clause takes one bystander down
    // early. The other is crashed by hand once its guess span is older
    // than the whole window.
    let (planned, late) = (NodeId(2 * PAIRS), NodeId(2 * PAIRS + 1));
    let plan = FaultPlan::from_faults(vec![Fault::Crash {
        at: SimTime::from_millis(20),
        node: planned,
        restart_at: None,
    }]);
    let mut b = RuntimeBuilder::new().seed(11).chaos(plan, 11);
    for _ in 0..PAIRS {
        let ponger = b.add_node(Ponger);
        b.add_node(Pinger { peer: ponger, done: done_tx.clone() });
    }
    assert_eq!(b.add_node(Bystander::default()), planned);
    assert_eq!(b.add_node(Bystander::default()), late);
    let rt = b.launch();
    let stuck = rt.inspect::<Bystander, _, _>(late, |a| a.guess).expect("guess opened at launch");

    let mut finished = 0usize;
    let mut probes = 0usize;
    let mut crashed_late = false;
    while finished < PAIRS {
        if done_rx.recv_timeout(Duration::from_millis(25)).is_ok() {
            finished += 1;
        }
        let outlived_the_window = rt.with_core(|c| {
            let open = c.spans.open_spans().count();
            assert!(
                c.spans.retained() <= DEFAULT_SPAN_CAP + open,
                "store un-bounded mid-run: {} retained, {open} open",
                c.spans.retained()
            );
            assert_eq!(c.spans.len() as u64, c.spans.evicted() + c.spans.retained() as u64);
            let f = c.flight.as_ref().expect("flight recorder on");
            if let Some(target) = f.last_matching(|_| true) {
                assert_slice_closed(&f.slice(target, &c.spans), &c.spans);
                probes += 1;
            }
            c.spans.evicted() > DEFAULT_SPAN_CAP as u64
        });
        if outlived_the_window && !crashed_late {
            // Every finished span of the launch era is gone; the open
            // guess is not, and the crash can still close it.
            rt.with_core(|c| {
                assert_eq!(c.spans.first_retained(), c.spans.open_spans().next().unwrap().id.0);
                assert_eq!(c.spans.get(stuck).map(|s| s.status), Some(SpanStatus::Open));
            });
            rt.crash(late);
            crashed_late = true;
        }
    }
    assert!(probes > 0, "the probe loop never observed a live store");
    assert!(crashed_late, "the window never moved past the launch era");
    assert!(rt.chaos().expect("chaos").wait_finished(Duration::from_secs(30)));

    let report = rt.shutdown();
    let spans = &report.core.spans;
    assert!(
        spans.len() >= 10 * DEFAULT_SPAN_CAP,
        "load too small to churn the window: {} spans",
        spans.len()
    );
    assert!(spans.retained() <= DEFAULT_SPAN_CAP + spans.open_spans().count());
    assert_eq!(spans.len() as u64, spans.evicted() + spans.retained() as u64);
    assert!(spans.was_evicted(stuck), "crash-closed, the stuck guess left with its era");
    assert_eq!(report.core.ledger.accounting().orphaned(), 2, "both bystanders' guesses");

    let f = report.core.flight.as_ref().expect("flight recorder on");
    for probe in [f.first_retained(), f.total_recorded() - 1] {
        assert_slice_closed(&f.slice(sim::FlightId(probe), spans), spans);
    }

    // Exactly one incident per crash, each holding its crash edge and a
    // copy of its own slice's spans only.
    assert_eq!(report.core.incidents.len(), 2, "one per crash");
    for node in [planned, late] {
        let mut filed = report.core.incidents.iter().filter(|inc| inc.node == node);
        let inc = filed.next().expect("the crash filed an incident");
        assert!(filed.next().is_none(), "{node} filed more than one incident");
        assert_eq!(inc.kind, IncidentKind::ChaosCrash);
        assert_eq!(inc.orphaned_guesses, vec!["bystander.promise".to_owned()]);
        let slice = &inc.explanation.slice;
        assert!(
            slice.events.iter().any(|e| e.kind == FlightKind::Crash && e.node == Some(node)),
            "incident #{} lost its crash edge",
            inc.seq
        );
        assert!(
            inc.explanation.spans.len() <= slice.events.len(),
            "incident #{} copied {} spans for a {}-event slice",
            inc.seq,
            inc.explanation.spans.len(),
            slice.events.len()
        );
    }
}
