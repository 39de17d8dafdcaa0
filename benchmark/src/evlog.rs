//! The event-log workload: one `EventLogNode::leader` on real files
//! (`DirKind`, `BrokerConfig::default()`: ack on fsync, 5 ms bus), and one
//! driver actor keeping 1024 appends in flight.
//!
//! Set-up writes a log directly through `EventLog<DirKind>`, drops it,
//! and lets the broker's constructor reopen it — recovery is part of
//! set-up, as it is for a restarting broker.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use eventlog::{BrokerConfig, DirKind, EvMsg, EventLog, EventLogNode, LogConfig};
use quicksand_core::uniquifier::{Uniquifier, UniquifierSource};
use quicksand_runtime::RuntimeBuilder;
use sim::{Actor, Context, NodeId, SimDuration};

use crate::measure::{EngineCounts, Measured, Mode, Outcome, MAX_ATTEMPTS};
use crate::traced::{Describe, Gate, Traced};

impl Describe for EvMsg {
    fn kind(&self) -> &'static str {
        match self {
            EvMsg::Append { .. } => "append",
            EvMsg::Ack { .. } => "ack",
            EvMsg::Replicate { .. } => "replicate",
            EvMsg::ReplicateAck { .. } => "replicate_ack",
            EvMsg::Fetch { .. } => "fetch",
            EvMsg::FetchResp { .. } => "fetch_resp",
            EvMsg::Commit { .. } => "commit",
        }
    }

    /// Appends and their acks share the low half of the uniquifier.
    fn req(&self) -> Option<u64> {
        match self {
            EvMsg::Append { id, .. } | EvMsg::Ack { id, .. } => Some(id.as_raw() as u64),
            _ => None,
        }
    }
}

/// Appends kept in flight.
pub const WINDOW: usize = 1024;
/// Record body size, bytes.
pub const PAYLOAD_BYTES: usize = 128;
/// An append unanswered this long has failed and is sent again.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);
const SWEEP_EVERY: SimDuration = SimDuration::from_millis(100);

/// The frozen shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Records written straight into the log before the broker opens it.
    pub preload: u64,
    /// Unmeasured appends after launch.
    pub warmup: u64,
    /// Measured appends per second of `--seconds` (see
    /// [`crate::cart::Plan::ops_per_second`]): the log grows by exactly
    /// the same amount in every run, which matters here because the
    /// cost of an append rises with the size of the log.
    pub ops_per_second: u64,
}

impl Plan {
    /// `evlog_fsync`.
    pub fn full() -> Plan {
        Plan { preload: 100_000, warmup: 20_000, ops_per_second: 60_000 }
    }

    /// The same shape with every count divided by `by` (tests).
    pub fn scaled_down(self, by: u64) -> Plan {
        Plan {
            preload: (self.preload / by).max(WINDOW as u64),
            warmup: (self.warmup / by).max(WINDOW as u64),
            ops_per_second: (self.ops_per_second / by).max(WINDOW as u64),
        }
    }
}

/// The record body for `id`: a function of the id alone, so a resend
/// after a timeout carries byte-identical content.
fn payload_for(id: Uniquifier) -> Vec<u8> {
    let raw = id.as_raw().to_le_bytes();
    (0..PAYLOAD_BYTES).map(|i| raw[i % raw.len()] ^ i as u8).collect()
}

/// Ids of the preloaded records (their own ingress namespace).
fn preload_ids(seed: u64) -> UniquifierSource {
    UniquifierSource::new(seed ^ 0x5EED_0000_0000_0000)
}

/// Write `n` records directly through the log, one fsync per
/// [`WINDOW`] appends, and close it.
fn write_preload(dir: &Path, seed: u64, n: u64) {
    let (mut log, _) = EventLog::open(DirKind::new(dir), LogConfig::default());
    let mut ids = preload_ids(seed);
    for i in 0..n {
        let id = ids.next_id();
        log.append(id, payload_for(id));
        if (i + 1) % WINDOW as u64 == 0 {
            log.fsync();
        }
    }
    log.fsync();
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measured,
    Drain,
    Done,
}

/// Everything the event-log driver recorded. Writes are `Append`→`Ack`;
/// the workload has no reads.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Phase boundaries and latency samples.
    pub measured: Measured,
    /// Every acknowledged append, all phases.
    pub acked: Vec<Uniquifier>,
}

/// The load generator: a [`WINDOW`]-deep closed-loop append pipeline.
pub struct Driver {
    plan: Plan,
    measured_ops: u64,
    broker: NodeId,
    gate: Option<Gate>,
    /// Told once every append sent has been acknowledged.
    done: mpsc::Sender<()>,
    ids: UniquifierSource,
    phase: Phase,
    /// When each unacknowledged append was last sent, and how often its
    /// requests have failed.
    in_flight: HashMap<Uniquifier, (Instant, u32)>,
    acked_in_phase: u64,
    /// Results, read by the main thread after shutdown.
    pub record: Record,
}

impl Driver {
    /// A driver for `plan` with a measured phase of `measured_ops` acked
    /// appends (0: drain straight after warm-up), minting its ids from
    /// `seed`.
    pub fn new(
        plan: Plan,
        seed: u64,
        measured_ops: u64,
        broker: NodeId,
        gate: Option<Gate>,
        done: mpsc::Sender<()>,
    ) -> Self {
        Driver {
            plan,
            measured_ops,
            broker,
            gate,
            done,
            ids: UniquifierSource::new(seed),
            phase: Phase::Warmup,
            in_flight: HashMap::with_capacity(2 * WINDOW),
            acked_in_phase: 0,
            record: Record::default(),
        }
    }

    fn pumping(&self) -> bool {
        matches!(self.phase, Phase::Warmup | Phase::Measured)
    }

    fn send_append(&mut self, ctx: &mut Context<'_, EvMsg>, id: Uniquifier, attempts: u32) {
        self.in_flight.insert(id, (Instant::now(), attempts));
        let me = ctx.me();
        ctx.send(self.broker, EvMsg::Append { id, payload: payload_for(id), resp_to: me });
    }

    fn acked(&mut self, ctx: &mut Context<'_, EvMsg>) {
        self.acked_in_phase += 1;
        if self.phase == Phase::Warmup && self.acked_in_phase == self.plan.warmup {
            self.acked_in_phase = 0;
            self.record.measured.begin(self.gate.as_ref());
            self.phase = Phase::Measured;
        }
        if self.phase == Phase::Measured && self.acked_in_phase == self.measured_ops {
            self.record.measured.finish(self.gate.as_ref());
            self.phase = Phase::Drain;
        }
        self.refill(ctx);
    }

    /// Refill the pipeline, or finish once a drain has emptied it.
    fn refill(&mut self, ctx: &mut Context<'_, EvMsg>) {
        while self.pumping() && self.in_flight.len() < WINDOW {
            let id = self.ids.next_id();
            self.record.measured.attempted += 1;
            self.send_append(ctx, id, 0);
        }
        if self.phase == Phase::Drain && self.in_flight.is_empty() {
            self.phase = Phase::Done;
            self.done.send(()).ok();
        }
    }
}

impl Actor<EvMsg> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, EvMsg>) {
        ctx.set_timer(SWEEP_EVERY, 0);
        self.refill(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EvMsg>, _tag: u64) {
        let stale: Vec<(Uniquifier, u32)> = self
            .in_flight
            .iter()
            .filter(|(_, (sent, _))| sent.elapsed() > REQUEST_TIMEOUT)
            .map(|(id, (_, attempts))| (*id, attempts + 1))
            .collect();
        for (id, attempts) in stale {
            self.record.measured.retried += 1;
            if attempts < MAX_ATTEMPTS {
                self.send_append(ctx, id, attempts);
            } else {
                // Given up: the pipeline moves on without it.
                self.record.measured.failed += 1;
                self.in_flight.remove(&id);
                self.acked(ctx);
            }
        }
        if self.phase != Phase::Done {
            ctx.set_timer(SWEEP_EVERY, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, EvMsg>, _from: NodeId, msg: EvMsg) {
        let EvMsg::Ack { id, .. } = msg else { return };
        let Some((sent, _)) = self.in_flight.remove(&id) else { return };
        if self.phase == Phase::Measured {
            self.record.measured.write_ns.push(sent.elapsed().as_nanos() as u32);
        }
        self.record.acked.push(id);
        self.acked(ctx);
    }
}

/// Run one leg of the workload (`measured_ops` may be 0) in a fresh
/// directory under `out_dir`, audit by reopening the log, and remove the
/// directory.
pub fn run(plan: Plan, seed: u64, measured_ops: u64, mode: Mode, out_dir: &Path) -> Outcome {
    let dir: PathBuf = out_dir.join(format!("evlog-{}-{seed}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear a stale log directory");
    }
    std::fs::create_dir_all(&dir).expect("create the log directory");

    let launched = Instant::now();
    write_preload(&dir, seed, plan.preload);
    let reopen = Instant::now();
    let broker = EventLogNode::leader(DirKind::new(&dir), BrokerConfig::default(), Vec::new());
    let recover_ms = reopen.elapsed().as_secs_f64() * 1e3;
    assert_eq!(broker.recovered.records, plan.preload, "recovery replays the whole preload");

    let traced = mode == Mode::Traced;
    let gate = traced.then(Gate::new);
    let mut b = RuntimeBuilder::<EvMsg>::new().seed(seed);
    let broker_id = match &gate {
        Some(g) => b.add_node(Traced::new(broker, "broker", g.clone(), launched)),
        None => b.add_node(broker),
    };
    let (tx, done) = mpsc::channel();
    let driver = Driver::new(plan, seed, measured_ops, broker_id, gate.clone(), tx);
    let driver_id = match &gate {
        Some(g) => b.add_node(Traced::new(driver, "driver", g.clone(), launched)),
        None => b.add_node(driver),
    };
    let rt = b.launch();

    done.recv_timeout(Duration::from_secs(150)).expect("driver stalled");
    let report = rt.shutdown();
    let engine = EngineCounts::read(&report.core);

    let (record, traces) = if traced {
        let d = report.actor::<Traced<Driver>>(driver_id);
        let br = report.actor::<Traced<EventLogNode<DirKind>>>(broker_id);
        (
            d.inner().record.clone(),
            vec![
                (broker_id.0, br.layer(), br.trace().clone()),
                (driver_id.0, d.layer(), d.trace().clone()),
            ],
        )
    } else {
        (report.actor::<Driver>(driver_id).record.clone(), Vec::new())
    };
    drop(report); // closes the broker's segment files before the audit reopens them

    // The audit: reopen as a restarted broker would and look every
    // acknowledged (and every preloaded) uniquifier up.
    let (log, recovery) = EventLog::open(DirKind::new(&dir), LogConfig::default());
    let mut preloaded = preload_ids(seed);
    let lost = (0..plan.preload)
        .map(|_| preloaded.next_id())
        .chain(record.acked.iter().copied())
        .filter(|id| log.lookup(*id).is_none())
        .count() as u64;
    drop(log);
    std::fs::remove_dir_all(&dir).expect("remove the log directory");

    let mut violations = Vec::new();
    if lost > 0 {
        violations.push(format!("{lost} acknowledged or preloaded records not found after reopen"));
    }
    if recovery.truncated_bytes > 0 {
        violations.push(format!("reopen truncated {} bytes", recovery.truncated_bytes));
    }
    let began = record.measured.start.expect("the driver reached the measured phase").at;
    Outcome {
        setup_s: (began - launched).as_secs_f64(),
        ops: measured_ops,
        measured: record.measured,
        traces,
        engine,
        violations,
        recover_ms: Some(recover_ms),
    }
}
