//! What every workload's driver records and how a leg's end-to-end
//! numbers are taken from it.
//!
//! A leg is one complete launch of a workload: set-up, a measured phase
//! of a fixed op count, the audit. What a leg reports are totals over
//! its whole measured phase — wall time, CPU time, resident-set growth,
//! the median of every latency sample — so a cost that lands anywhere in
//! the phase (a gossip burst, a segment roll, a growing span store) is
//! in the number.

use std::time::Instant;

use crate::alloc;
use crate::stats::{percentile, sorted};
use crate::sys::{rss_kb, Usage};
use crate::traced::{Gate, NodeTrace};

/// How a leg runs its actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain actors: the source of end-to-end metrics.
    Plain,
    /// Every actor wrapped in [`crate::traced::Traced`].
    Traced,
}

/// Process counters at a phase boundary, taken inside the driver's
/// callback so no scheduling delay separates them from the boundary.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    /// Wall clock.
    pub at: Instant,
    /// CPU time, faults, context switches.
    pub usage: Usage,
    /// Resident set, KiB.
    pub rss_kb: u64,
    /// Allocation calls and bytes (counted only in a traced leg).
    pub allocs: (u64, u64),
}

impl Boundary {
    /// Snapshot now.
    pub fn now() -> Boundary {
        Boundary {
            at: Instant::now(),
            usage: Usage::now(),
            rss_kb: rss_kb(),
            allocs: alloc::counted(),
        }
    }
}

/// An operation whose requests have failed this often is given up and
/// counted as failed.
pub const MAX_ATTEMPTS: u32 = 8;

/// Everything a driver measures.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations begun, every phase: a function of the frozen op counts
    /// alone, whatever the host does.
    pub attempted: u64,
    /// Requests answered with a failure or unanswered for 500 ms, and
    /// sent again: what a stall of the host costs a client of the shipped
    /// 20 ms store timeout. The operation goes on.
    pub retried: u64,
    /// Operations given up after [`MAX_ATTEMPTS`] such requests.
    pub failed: u64,
    /// Start of the measured phase (= end of set-up).
    pub start: Option<Boundary>,
    /// End of the measured phase (its last op completed).
    pub end: Option<Boundary>,
    /// Read request → reply, nanoseconds, measured phase (cart workloads).
    pub read_ns: Vec<u32>,
    /// Write request → reply, nanoseconds, measured phase.
    pub write_ns: Vec<u32>,
    /// Whole op, nanoseconds, measured phase (cart workloads).
    pub op_ns: Vec<u32>,
}

/// Open or close a traced leg's recording window: the wrappers' gate
/// and the allocation counter move together.
fn set_window(gate: Option<&Gate>, open: bool) {
    if let Some(gate) = gate {
        gate.set(open);
        alloc::set_counting(open);
    }
}

impl Measured {
    /// Open the measured phase (and, in a traced leg, the gate).
    pub fn begin(&mut self, gate: Option<&Gate>) {
        set_window(gate, true);
        self.start = Some(Boundary::now());
    }

    /// Close the measured phase (and, in a traced leg, the gate).
    pub fn finish(&mut self, gate: Option<&Gate>) {
        self.end = Some(Boundary::now());
        set_window(gate, false);
    }
}

/// Counters the engine keeps, read once from the finished leg's
/// `RuntimeReport` — after shutdown, so nothing can race the read. They
/// cover the whole leg; the measured phase's share is the difference
/// from a leg of the same workload with no measured ops (a counter a
/// workload never touches reads 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Spans in the span store.
    pub spans: u64,
    /// Events the flight recorder has seen.
    pub flight: u64,
    /// `dynamo.gossip_versions_sent`.
    pub gossip_versions: u64,
    /// `eventlog.appends`.
    pub appends: u64,
    /// `eventlog.fsyncs`.
    pub fsyncs: u64,
    /// Samples in the program's own `eventlog.group_commit_wait_us`.
    pub wait_count: u64,
    /// Their sum, µs.
    pub wait_sum_us: f64,
}

impl EngineCounts {
    /// Read the counters.
    pub fn read(core: &sim::EngineCore) -> EngineCounts {
        let (wait_count, wait_sum_us) = core
            .metrics
            .histograms()
            .find(|(name, _)| *name == "eventlog.group_commit_wait_us")
            .map_or((0, 0.0), |(_, h)| (h.count() as u64, h.sum()));
        EngineCounts {
            spans: core.spans.len() as u64,
            flight: core.flight.as_ref().map_or(0, |f| f.total_recorded()),
            gossip_versions: core.metrics.counter("dynamo.gossip_versions_sent"),
            appends: core.metrics.counter("eventlog.appends"),
            fsyncs: core.metrics.counter("eventlog.fsyncs"),
            wait_count,
            wait_sum_us,
        }
    }
}

/// One finished leg of any workload.
#[derive(Debug)]
pub struct Outcome {
    /// Launch → end of preload/recovery and warm-up, seconds.
    pub setup_s: f64,
    /// Ops of the measured phase.
    pub ops: u64,
    /// The driver's measurements.
    pub measured: Measured,
    /// `(node, layer, trace)` per wrapped actor; empty when plain.
    pub traces: Vec<(usize, &'static str, NodeTrace)>,
    /// Engine counters over the whole leg.
    pub engine: EngineCounts,
    /// What the correctness audit found wrong, one line each; empty on a
    /// correct leg.
    pub violations: Vec<String>,
    /// The broker's reopen of the preloaded log, ms (event log only).
    pub recover_ms: Option<f64>,
}

/// Median of a nanosecond sample slice, in µs; `None` without samples.
fn p50_us(ns: &[u32]) -> Option<f64> {
    (!ns.is_empty())
        .then(|| percentile(&sorted(ns.iter().map(|&n| f64::from(n) / 1e3).collect()), 50.0))
}

/// The totals of one leg's measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Process utime+stime over the phase, µs.
    pub cpu_us: f64,
    /// Resident-set growth over the phase, KiB.
    pub rss_kb: f64,
    /// Median read latency, µs (`None`: the workload has no reads).
    pub read_p50_us: Option<f64>,
    /// Median write latency, µs.
    pub write_p50_us: Option<f64>,
}

impl Phase {
    /// Take them from a finished leg.
    ///
    /// # Panics
    /// Panics if the measured phase did not run to its end.
    pub fn of(m: &Measured) -> Phase {
        let start = m.start.expect("the measured phase started");
        let end = m.end.expect("the measured phase ended");
        Phase {
            wall_s: (end.at - start.at).as_secs_f64(),
            cpu_us: (end.usage.cpu_us() - start.usage.cpu_us()) as f64,
            rss_kb: end.rss_kb.saturating_sub(start.rss_kb) as f64,
            read_p50_us: p50_us(&m.read_ns),
            write_p50_us: p50_us(&m.write_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_is_totals_from_begin_to_finish() {
        let mut m = Measured::default();
        m.begin(None);
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(spin);
        }
        m.write_ns.extend([100_000u32, 300_000, 200_000]);
        m.finish(None);
        let p = Phase::of(&m);
        assert_eq!(p.write_p50_us, Some(200.0));
        assert_eq!(p.read_p50_us, None, "no read was recorded");
        assert!(p.wall_s >= 0.020);
        assert!(p.cpu_us > 0.0, "twenty milliseconds of spinning are CPU time");
    }
}
