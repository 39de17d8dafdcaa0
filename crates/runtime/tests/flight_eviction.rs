//! The flight recorder's bounded ring under concurrent wall-clock
//! load: many worker threads record events through the shared core
//! while the ring evicts, and the properties the forensics pipeline
//! leans on must hold throughout —
//!
//! - **slices stay happens-before-closed**: every member event's cause
//!   is itself a member, or the slice is flagged `truncated` with the
//!   dangling edges counted in `missing_ancestors` (a bounded ring may
//!   forget history, but never silently);
//! - **eviction accounting is exact**: `evicted()` always equals
//!   `total_recorded() - len()`, and the ring never exceeds capacity.

mod common;

use std::time::Duration;

use common::assert_slice_closed;
use quicksand_runtime::RuntimeBuilder;
use sim::{Actor, Context, NodeId, SimDuration};

/// Deliberately tiny: the volley below records two orders of magnitude
/// more events than this, so eviction churns for most of the run.
const CAP: usize = 64;
const PAIRS: usize = 3;
const ROUNDS: u64 = 400;

#[derive(Clone, Debug)]
struct Ball(u64);

struct Ponger;

impl Actor<Ball> for Ponger {
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, from: NodeId, msg: Ball) {
        ctx.send(from, Ball(msg.0 + 1));
    }
}

struct Pinger {
    peer: NodeId,
    rounds: u64,
    done: std::sync::mpsc::Sender<()>,
}

impl Actor<Ball> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, _tag: u64) {
        ctx.send(self.peer, Ball(0));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Ball>, _from: NodeId, msg: Ball) {
        if msg.0 < self.rounds {
            ctx.send(self.peer, Ball(msg.0 + 1));
        } else {
            self.done.send(()).ok();
        }
    }
}

#[test]
fn ring_eviction_under_concurrent_load_keeps_slices_closed() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut b = RuntimeBuilder::new().seed(11).flight(CAP);
    let mut pingers = 0usize;
    for _ in 0..PAIRS {
        let ponger = b.add_node(Ponger);
        b.add_node(Pinger { peer: ponger, rounds: ROUNDS, done: done_tx.clone() });
        pingers += 1;
    }
    let rt = b.launch();

    // Probe the ring while the volleys are in flight: accounting must
    // be exact and the newest event's slice closed at every instant,
    // not just after quiescence.
    let mut finished = 0usize;
    let mut probes = 0usize;
    while finished < pingers {
        if done_rx.recv_timeout(Duration::from_millis(5)).is_ok() {
            finished += 1;
        }
        rt.with_core(|c| {
            let f = c.flight.as_ref().expect("flight recorder on");
            assert!(f.len() <= CAP, "ring exceeded capacity: {}", f.len());
            assert_eq!(
                f.evicted(),
                f.total_recorded() - f.len() as u64,
                "eviction accounting drifted mid-run"
            );
            if let Some(target) = f.last_matching(|_| true) {
                assert_slice_closed(&f.slice(target, &c.spans), &c.spans);
                probes += 1;
            }
        });
    }
    assert!(probes > 0, "the probe loop never observed a live ring");

    let report = rt.shutdown();
    let f = report.core.flight.as_ref().expect("flight recorder on");
    assert!(
        f.total_recorded() > (CAP as u64) * 10,
        "load too small to churn the ring: {} events",
        f.total_recorded()
    );
    assert!(f.evicted() > 0, "nothing was evicted");
    assert_eq!(f.evicted(), f.total_recorded() - f.len() as u64);
    assert!(f.len() <= CAP);
    // The retained window is the dense tail of the id space.
    assert_eq!(f.first_retained(), f.evicted());

    // Post-quiescence, every retained event's slice is closed too.
    for probe in [f.first_retained(), f.total_recorded() - 1] {
        assert_slice_closed(&f.slice(sim::FlightId(probe), &report.core.spans), &report.core.spans);
    }
}
