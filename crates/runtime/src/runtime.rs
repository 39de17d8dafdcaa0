//! The wall-clock runtime: unmodified [`sim::Actor`]s on OS threads.
//!
//! Each node gets a worker thread draining an mpsc mailbox; a timer
//! thread sleeps on a deadline heap; sends travel through a
//! [`Transport`]. All callback effects — sends, timer arms/cancels,
//! span/metric/ledger bookkeeping — are applied through the *same*
//! [`EngineCore`] the simulator drives, so the two engines cannot drift
//! semantically. What differs is exactly what must: time comes from the
//! host clock, ordering from the OS scheduler, and crashes from real
//! panics.
//!
//! ## Concurrency model
//!
//! The [`EngineCore`] sits behind one mutex, so actor callbacks are
//! serialized — the same "one callback at a time per run" atomicity the
//! simulator provides, which is what lets unmodified actors (written
//! with no internal locking) run correctly. Worker threads still buy
//! real parallelism for everything outside the callback: wire
//! encode/decode, socket I/O, and mailbox management all run
//! concurrently. Scaling the *callbacks* themselves would need per-node
//! cores and is out of scope here; the contract, not the throughput
//! ceiling, is what this runtime exists to prove.
//!
//! ## Fail-fast crashes (§2.2)
//!
//! A panic inside any actor callback is caught at the callback boundary
//! and converted into the paper's crash semantics: the node stops
//! processing (messages to it drop, timers die), its in-flight
//! [`sim::Action`]s are discarded — a crashed node cannot send — its
//! open spans close as crashed, its volatile guesses orphan, and
//! `on_crash` runs so the actor wipes volatile state. A later
//! [`Runtime::restart`] runs `on_restart` against whatever the actor
//! modelled as durable. Harnesses can also inject crashes directly.
//!
//! ## Observability
//!
//! [`RuntimeBuilder::telemetry`] attaches the live operator surface
//! (see [`crate::telemetry`]): an HTTP endpoint serving `/health`,
//! `/metrics`, `/ledger`, and `/trace` straight off the running
//! cluster. Per-node mailbox depths, crash epochs, restart and
//! panic-crash counts are tracked whether or not the endpoint is
//! enabled, and panics/restarts land in the metric registry labeled by
//! node (`runtime.panic_crashes{node=n3}`), with the unlabeled name
//! keeping the aggregate.

use std::any::Any;
use std::net::{TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quicksand_core::WireCodec;
use sim::{
    Action, Actor, Context, EngineCore, FlightId, FlightRecorder, IncidentKind, NodeId,
    SimDuration, SimTime, SpanId, SpanStatus, SpanStore, Trace,
};

use crate::chaos::{ChaosController, ChaosTransport, CtlHook, NetChaos};
use crate::clock::WallClock;
use crate::telemetry::{CoreHandle, NodeStatus, TelemetrySurface};
use crate::timer::{DueTimer, TimerWheel};
use crate::transport::{Envelope, Inbox, Loopback, TcpTransport, Transport};

/// A boxed actor as the runtime holds it: the sim contract plus `Send`
/// so it can live on a worker thread.
pub type BoxedActor<M> = Box<dyn Actor<M> + Send>;

/// Flight-recorder ring capacity when the builder doesn't choose one.
/// Incident forensics is always on: every crash post-mortem needs a
/// slice, so the recorder runs by default ([`RuntimeBuilder::flight`]
/// with `0` disables it).
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// How many finished spans the runtime's span store retains (about
/// 7 MB): a process must hold flat memory for as long as it serves, so
/// unlike the simulator's, its store is a window. Open spans are kept
/// whatever their age; `/metrics`, `/trace` and `/explain` say what
/// was dropped.
pub const DEFAULT_SPAN_CAP: usize = 16_384;

/// Default deadline after which a still-open guess files a
/// guess-deadline incident (the apology is overdue).
pub const DEFAULT_GUESS_DEADLINE: Duration = Duration::from_secs(30);

/// Which transport carries sends between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels (fast path, no serialization).
    Loopback,
    /// Real TCP sockets on localhost with wire-encoded frames.
    Tcp,
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "loopback" => Ok(TransportKind::Loopback),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (loopback|tcp)")),
        }
    }
}

struct Shared<M> {
    core: Mutex<EngineCore>,
    clock: WallClock,
    transport: Arc<dyn Transport<M>>,
    wheel: Arc<TimerWheel>,
    /// Per-node live status (telemetry; maintained unconditionally).
    nodes: Vec<NodeStatus>,
    /// Per-node mailbox depth counters, shared with the [`Inbox`]es.
    depths: Vec<Arc<AtomicU64>>,
}

impl<M> Shared<M> {
    fn lock_core(&self) -> MutexGuard<'_, EngineCore> {
        // A panicking callback is caught inside the guard's scope, so
        // the lock is never poisoned by a crash; recover defensively
        // anyway.
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<M: Send + 'static> CoreHandle for Shared<M> {
    fn lock_core(&self) -> MutexGuard<'_, EngineCore> {
        Shared::lock_core(self)
    }
    fn uptime(&self) -> SimTime {
        self.clock.now()
    }
    fn nodes(&self) -> &[NodeStatus] {
        &self.nodes
    }
    fn mailbox_depth(&self, node: usize) -> u64 {
        self.depths.get(node).map(|d| d.load(Ordering::Relaxed)).unwrap_or(0)
    }
    fn timer_wheel_len(&self) -> usize {
        self.wheel.pending_len()
    }
}

/// Seed drawn from OS entropy (via the randomly-keyed std hasher), for
/// runs that are *not* trying to be reproducible.
fn entropy_seed() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write_u64(std::process::id() as u64);
    h.finish()
}

/// A configured fault plan waiting for launch: the plan, the shared
/// network-fault surface, and a wrap closure built where the `M: Clone`
/// bound is available (duplicated frames need cloning; the rest of the
/// builder doesn't).
struct ChaosPrep<M> {
    plan: sim::FaultPlan,
    net: Arc<NetChaos>,
    #[allow(clippy::type_complexity)]
    wrap: Box<dyn FnOnce(Arc<dyn Transport<M>>, Arc<NetChaos>) -> Arc<dyn Transport<M>>>,
    ctl: Option<CtlHook<M>>,
}

/// Collects actors, then launches them as a running cluster.
pub struct RuntimeBuilder<M> {
    actors: Vec<BoxedActor<M>>,
    seed: Option<u64>,
    telemetry_listener: Option<TcpListener>,
    snapshot_interval: Duration,
    flight_cap: Option<usize>,
    trace_cap: Option<usize>,
    guess_deadline: Option<Duration>,
    chaos: Option<ChaosPrep<M>>,
}

impl<M: Send + 'static> RuntimeBuilder<M> {
    /// An empty cluster description.
    pub fn new() -> Self {
        RuntimeBuilder {
            actors: Vec::new(),
            seed: None,
            telemetry_listener: None,
            snapshot_interval: Duration::from_secs(1),
            flight_cap: None,
            trace_cap: None,
            guess_deadline: Some(DEFAULT_GUESS_DEADLINE),
            chaos: None,
        }
    }

    /// Pin the engine RNG seed (for cross-validation against a sim run).
    /// Unseeded runtimes draw from OS entropy.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Serve the live telemetry endpoint on `addr` (e.g.
    /// `"127.0.0.1:9090"`, port `0` for ephemeral). The bind happens
    /// here, so a taken port fails at configuration time rather than
    /// silently after launch. The bound address is available from
    /// [`Runtime::telemetry_addr`].
    pub fn telemetry(mut self, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        self.telemetry_listener = Some(TcpListener::bind(addr)?);
        Ok(self)
    }

    /// How often the telemetry snapshot thread captures counters and
    /// histograms for rate/windowed-percentile derivation (default 1s).
    pub fn snapshot_interval(mut self, interval: Duration) -> Self {
        self.snapshot_interval = interval.max(Duration::from_millis(10));
        self
    }

    /// Size the forensic flight recorder's bounded ring. The recorder
    /// is **on by default** ([`DEFAULT_FLIGHT_CAP`] events) because
    /// incident forensics depends on it; pass `0` to disable it and
    /// with it the black box.
    pub fn flight(mut self, capacity: usize) -> Self {
        self.flight_cap = Some(capacity);
        self
    }

    /// How long a guess may stay open before a guess-deadline incident
    /// is filed (default [`DEFAULT_GUESS_DEADLINE`]). `None` disables
    /// the sweep.
    pub fn guess_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.guess_deadline = deadline;
        self
    }

    /// Enable the bounded event trace with `capacity` events.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_cap = Some(capacity);
        self
    }

    /// Execute `plan` against the launched cluster: a wall-clock chaos
    /// controller (see [`crate::chaos`]) walks the plan's timeline from
    /// launch, partitioning/degrading the transport, crashing and
    /// restarting workers. `seed` drives the per-frame drop/latency/
    /// duplication draws on degraded links; the clause sequence itself
    /// is fully determined by the plan. Requires `M: Clone` because a
    /// degraded link may duplicate frames.
    pub fn chaos(mut self, plan: sim::FaultPlan, seed: u64) -> Self
    where
        M: Clone,
    {
        let net = Arc::new(NetChaos::new(seed));
        self.chaos = Some(ChaosPrep {
            plan,
            net,
            wrap: Box::new(|inner, net| Arc::new(ChaosTransport::new(inner, net))),
            ctl: None,
        });
        self
    }

    /// Install the membership control hook: when the chaos plan reaches
    /// an `add_node` / `remove_node` clause, `hook(kind, node)` produces
    /// the cluster's own control message (e.g. dynamo's `CtlJoin`),
    /// which the controller injects into the target node's inbox at the
    /// clause's wall-clock offset. Call after [`RuntimeBuilder::chaos`];
    /// a hook without a plan is inert.
    pub fn membership_ctl(
        mut self,
        hook: impl Fn(&'static str, NodeId) -> Option<M> + Send + 'static,
    ) -> Self {
        if let Some(prep) = self.chaos.as_mut() {
            prep.ctl = Some(Box::new(hook));
        }
        self
    }

    /// Add an actor; returns its node id (dense from zero, exactly like
    /// [`sim::Simulation::add_node`]).
    pub fn add_node(&mut self, actor: impl Actor<M> + Send) -> NodeId {
        let id = NodeId(self.actors.len());
        self.actors.push(Box::new(actor));
        id
    }

    /// Launch on the in-process loopback transport.
    pub fn launch(self) -> Runtime<M> {
        self.launch_with(|inboxes| Arc::new(Loopback::new(inboxes)))
    }

    /// Launch on real TCP sockets (each node listens on an ephemeral
    /// localhost port). Requires the message type to cross the wire.
    pub fn launch_tcp(self) -> std::io::Result<Runtime<M>>
    where
        M: WireCodec,
    {
        let mut err = None;
        let rt = self.launch_with(|inboxes| match TcpTransport::bind(inboxes) {
            Ok(t) => t as Arc<dyn Transport<M>>,
            Err(e) => {
                err = Some(e);
                Arc::new(Loopback::new(Vec::new())) // never used; launch aborts below
            }
        });
        match err {
            Some(e) => {
                rt.abort();
                Err(e)
            }
            None => Ok(rt),
        }
    }

    /// Launch on the given transport kind.
    pub fn launch_transport(self, kind: TransportKind) -> std::io::Result<Runtime<M>>
    where
        M: WireCodec,
    {
        match kind {
            TransportKind::Loopback => Ok(self.launch()),
            TransportKind::Tcp => self.launch_tcp(),
        }
    }

    fn launch_with(
        self,
        make_transport: impl FnOnce(Vec<Inbox<M>>) -> Arc<dyn Transport<M>>,
    ) -> Runtime<M> {
        let seed = self.seed.unwrap_or_else(entropy_seed);
        let n = self.actors.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(Inbox::new(tx));
            receivers.push(rx);
        }
        let depths: Vec<Arc<AtomicU64>> = senders.iter().map(|s| s.depth_handle()).collect();
        let mut transport = make_transport(senders.clone());
        let chaos_prep = self.chaos.map(|prep| {
            transport = (prep.wrap)(transport.clone(), prep.net.clone());
            (prep.plan, prep.net, prep.ctl)
        });
        let wheel = Arc::new(TimerWheel::new());
        let mut core = EngineCore::new(seed);
        core.spans = SpanStore::bounded(DEFAULT_SPAN_CAP);
        let flight_cap = self.flight_cap.unwrap_or(DEFAULT_FLIGHT_CAP);
        if flight_cap > 0 {
            core.flight = Some(FlightRecorder::new(flight_cap));
        }
        if let Some(cap) = self.trace_cap {
            core.trace = Some(Trace::new(cap));
        }
        if let Some((plan, _, _)) = &chaos_prep {
            // Explanations and incidents render the clauses in force.
            core.plan = plan.clone();
        }
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            clock: WallClock::new(),
            transport,
            wheel: wheel.clone(),
            nodes: (0..n).map(|_| NodeStatus::new()).collect(),
            depths,
        });

        let wheel_senders = senders.clone();
        let wheel_thread = std::thread::spawn(move || {
            while let Some(t) = wheel.wait_due() {
                let env =
                    Envelope::Timer { tag: t.tag, epoch: t.epoch, span: t.span, cause: t.cause };
                wheel_senders[t.node].send(env).ok();
            }
        });

        let workers = self
            .actors
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (actor, rx))| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    Worker { node: NodeId(i), shared, up: true, epoch: 0 }.run(actor, rx)
                })
            })
            .collect();

        let telemetry = self.telemetry_listener.and_then(|listener| {
            let core: Arc<dyn CoreHandle> = shared.clone();
            TelemetrySurface::start(listener, core, self.snapshot_interval).ok()
        });

        // The guess-deadline sweeper: a light always-on auditor that
        // files an incident for any promise left open too long.
        let sweeper_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sweeper = self.guess_deadline.filter(|_| flight_cap > 0).map(|deadline| {
            let shared = shared.clone();
            let stop = sweeper_stop.clone();
            std::thread::spawn(move || {
                let tick = (deadline / 4).clamp(Duration::from_millis(50), Duration::from_secs(1));
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let now = shared.clock.now();
                    let deadline = SimDuration::from_micros(deadline.as_micros() as u64);
                    let nodes = &shared.nodes;
                    shared.lock_core().sweep_overdue_guesses(now, deadline, |n| {
                        nodes.get(n.0).map_or(0, |s| s.epoch())
                    });
                }
            })
        });

        // The chaos clock starts now: clause offsets are measured from
        // launch, after every worker exists to receive crash envelopes.
        let chaos = chaos_prep.map(|(plan, net, ctl)| {
            let on_apply = {
                let shared = shared.clone();
                Box::new(move |kind: &'static str, edge: &'static str| {
                    shared
                        .lock_core()
                        .metrics
                        .inc_with("runtime.chaos_clauses", &[("kind", kind), ("edge", edge)]);
                })
            };
            ChaosController::start(
                plan,
                net,
                shared.transport.clone(),
                senders.clone(),
                on_apply,
                ctl,
            )
        });

        Runtime {
            shared,
            senders,
            workers,
            wheel_thread: Some(wheel_thread),
            telemetry,
            chaos,
            sweeper,
            sweeper_stop,
        }
    }
}

impl<M: Send + 'static> Default for RuntimeBuilder<M> {
    fn default() -> Self {
        RuntimeBuilder::new()
    }
}

/// One node's event loop: drain the mailbox, run callbacks through the
/// shared [`EngineCore`], apply effects through clock and transport.
struct Worker<M> {
    node: NodeId,
    shared: Arc<Shared<M>>,
    /// Local liveness; flips on (injected or panic) crash and restart.
    up: bool,
    /// Bumped per crash so stale timers are recognizably dead.
    epoch: u64,
}

impl<M: Send + 'static> Worker<M> {
    fn status(&self) -> &NodeStatus {
        &self.shared.nodes[self.node.0]
    }

    fn run(mut self, mut actor: BoxedActor<M>, rx: mpsc::Receiver<Envelope<M>>) -> BoxedActor<M> {
        let depth = self.shared.depths[self.node.0].clone();
        // `on_start` runs as the worker's first act. Workers start
        // concurrently, so cross-node start order is unspecified (the
        // sim runs starts in NodeId order) — actors already cannot
        // assume peers started first, because sends to a not-yet-started
        // node simply queue in its mailbox.
        self.callback(&mut actor, None, None, |a, ctx| a.on_start(ctx));
        while let Ok(env) = rx.recv() {
            depth.fetch_sub(1, Ordering::Relaxed);
            match env {
                Envelope::Msg { from, msg, hop, cause } => {
                    if !self.up {
                        let now = self.shared.clock.now();
                        self.shared.lock_core().dropped_to_down(self.node, from, hop, cause, now);
                        continue;
                    }
                    self.dispatch(
                        &mut actor,
                        hop,
                        |core, node, now| core.deliver_bookkeeping(node, from, hop, cause, now),
                        |a, ctx| a.on_message(ctx, from, msg),
                    );
                }
                Envelope::Timer { tag, epoch, span, cause } => {
                    if !self.up || epoch != self.epoch {
                        continue; // timers do not survive crashes
                    }
                    self.dispatch(
                        &mut actor,
                        span,
                        |core, node, now| core.timer_bookkeeping(node, span, cause, now),
                        |a, ctx| a.on_timer(ctx, tag),
                    );
                }
                Envelope::Crash => {
                    if !self.up {
                        continue;
                    }
                    let now = self.shared.clock.now();
                    self.crash(&mut actor, now);
                }
                Envelope::Restart => {
                    if self.up {
                        continue;
                    }
                    self.up = true;
                    self.status().note_restart();
                    let label = format!("n{}", self.node.0);
                    self.dispatch(
                        &mut actor,
                        None,
                        |core, node, now| {
                            core.metrics.inc_with("runtime.restarts", &[("node", &label)]);
                            core.restart_bookkeeping(node, now)
                        },
                        |a, ctx| a.on_restart(ctx),
                    );
                }
                Envelope::Inspect(f) => f(actor.as_mut()),
                Envelope::Shutdown => break,
            }
        }
        actor
    }

    /// Fail-fast crash: mirror of the simulator's crash event, §2.2.
    /// `on_crash` runs outside the core lock (it has no `Context`); if
    /// it panics too, the node simply stays down with volatile state
    /// unwiped — it can never run again in this epoch, so no torn state
    /// is observable.
    fn crash(&mut self, actor: &mut BoxedActor<M>, now: SimTime) {
        self.up = false;
        self.epoch += 1;
        self.status().note_crash(self.epoch, false);
        let _ = catch_unwind(AssertUnwindSafe(|| actor.on_crash(now)));
        let mut core = self.shared.lock_core();
        let outcome = core.crash_bookkeeping(self.node, now);
        core.record_crash_incident(self.node, self.epoch, IncidentKind::ChaosCrash, now, &outcome);
    }

    /// Run one callback under the core lock with pre-bookkeeping, then
    /// apply its effects. A panic inside the callback becomes a
    /// fail-fast crash and all of the callback's actions are discarded —
    /// a crashed node cannot have sent.
    fn dispatch(
        &mut self,
        actor: &mut BoxedActor<M>,
        ambient: Option<SpanId>,
        pre: impl FnOnce(&mut EngineCore, NodeId, SimTime) -> Option<FlightId>,
        f: impl FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    ) {
        let shared = Arc::clone(&self.shared);
        let now = shared.clock.now();
        let mut core = shared.lock_core();
        let cause = pre(&mut core, self.node, now);
        self.callback_locked(core, actor, now, ambient, cause, f);
    }

    /// Like [`Worker::dispatch`] but without event bookkeeping (used
    /// for `on_start`).
    fn callback(
        &mut self,
        actor: &mut BoxedActor<M>,
        ambient: Option<SpanId>,
        cause: Option<FlightId>,
        f: impl FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    ) {
        let shared = Arc::clone(&self.shared);
        let now = shared.clock.now();
        let core = shared.lock_core();
        self.callback_locked(core, actor, now, ambient, cause, f);
    }

    fn callback_locked(
        &mut self,
        mut core: MutexGuard<'_, EngineCore>,
        actor: &mut BoxedActor<M>,
        now: SimTime,
        ambient: Option<SpanId>,
        cause: Option<FlightId>,
        f: impl FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    ) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            core.run_callback(self.node, now, ambient, cause, |ctx| f(actor.as_mut(), ctx))
        }));
        let actions = match result {
            Ok(((), actions)) => actions,
            Err(_) => {
                // Fail-fast: count it (labeled by node, aggregate kept
                // by the unlabeled name), then crash exactly like an
                // injected crash (bookkeeping first needs the lock we
                // already hold; `on_crash` runs after release).
                let label = format!("n{}", self.node.0);
                core.metrics.inc_with("runtime.panic_crashes", &[("node", &label)]);
                drop(core);
                let _ = catch_unwind(AssertUnwindSafe(|| actor.on_crash(now)));
                self.up = false;
                self.epoch += 1;
                self.status().note_crash(self.epoch, true);
                let mut core = self.shared.lock_core();
                let outcome = core.crash_bookkeeping(self.node, now);
                core.record_crash_incident(
                    self.node,
                    self.epoch,
                    IncidentKind::PanicCrash,
                    now,
                    &outcome,
                );
                return;
            }
        };
        // Book sends under the lock (hop spans), then do the actual
        // I/O and timer arming after releasing it.
        let mut outgoing = Vec::new();
        let mut arms = Vec::new();
        let mut cancels = Vec::new();
        for action in actions {
            match action {
                Action::Send { to, msg, span } => {
                    core.metrics.inc("sim.messages_sent");
                    let hop = core.plan_hop(span, to, now);
                    outgoing.push((to, hop, msg));
                }
                Action::SetTimer { id, delay, tag, span } => {
                    arms.push((
                        Instant::now() + WallClock::to_host(delay),
                        DueTimer {
                            node: self.node.0,
                            seq: id.seq(),
                            tag,
                            epoch: self.epoch,
                            span,
                            cause,
                        },
                    ));
                }
                Action::CancelTimer { id } => {
                    if core.cancel_allowed(self.node, id) {
                        cancels.push(id.seq());
                    }
                }
            }
        }
        drop(core);
        for (to, hop, msg) in outgoing {
            if !self.shared.transport.send(self.node, to, hop, cause, msg) {
                let at = self.shared.clock.now();
                let mut core = self.shared.lock_core();
                core.finish_hop(hop, at, SpanStatus::Dropped);
                core.metrics.inc("sim.messages_dropped");
            }
        }
        for (deadline, t) in arms {
            self.shared.wheel.arm(deadline, t);
        }
        for seq in cancels {
            self.shared.wheel.cancel(seq);
        }
    }
}

/// A running cluster of actors on OS threads. Dropping without
/// [`Runtime::shutdown`] leaks the worker threads; always shut down.
pub struct Runtime<M> {
    shared: Arc<Shared<M>>,
    senders: Vec<Inbox<M>>,
    workers: Vec<JoinHandle<BoxedActor<M>>>,
    wheel_thread: Option<JoinHandle<()>>,
    telemetry: Option<TelemetrySurface>,
    chaos: Option<ChaosController>,
    sweeper: Option<JoinHandle<()>>,
    sweeper_stop: Arc<std::sync::atomic::AtomicBool>,
}

impl<M: Send + 'static> Runtime<M> {
    /// Wall time since launch, on the sim time axis.
    pub fn now(&self) -> SimTime {
        self.shared.clock.now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.senders.len()
    }

    /// Where the telemetry endpoint is listening, if enabled (the real
    /// port, even when configured with port `0`).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(|t| t.addr())
    }

    /// The chaos controller, when the builder configured a fault plan —
    /// its applied-clause log, traffic stats, and completion flag.
    pub fn chaos(&self) -> Option<&ChaosController> {
        self.chaos.as_ref()
    }

    /// Live status of `node` (telemetry view; updated without locks).
    pub fn node_status(&self, node: NodeId) -> &NodeStatus {
        &self.shared.nodes[node.0]
    }

    /// Current depth of `node`'s mailbox.
    pub fn mailbox_depth(&self, node: NodeId) -> u64 {
        self.senders[node.0].depth()
    }

    /// Inject a fail-fast crash. Enqueued like a message: it takes
    /// effect after the node drains earlier traffic.
    pub fn crash(&self, node: NodeId) {
        self.senders[node.0].send(Envelope::Crash).ok();
    }

    /// Restart a crashed node (no-op envelope if it is up).
    pub fn restart(&self, node: NodeId) {
        self.senders[node.0].send(Envelope::Restart).ok();
    }

    /// Deliver `msg` to `to` as if sent by `from`, bypassing the
    /// transport (harness-driven injection, like
    /// [`sim::Simulation::inject_at`]).
    pub fn inject(&self, to: NodeId, from: NodeId, msg: M) {
        self.senders[to.0].send(Envelope::Msg { from, msg, hop: None, cause: None }).ok();
    }

    /// Run `f` against the node's actor on its own worker thread and
    /// return the result. Blocks until the worker gets to it — do not
    /// call from inside an actor callback.
    ///
    /// # Panics
    /// Panics if the node's actor is not a `T`.
    pub fn inspect<T, R, F>(&self, node: NodeId, f: F) -> R
    where
        T: Actor<M>,
        R: Send + 'static,
        F: FnOnce(&T) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let probe = Box::new(move |a: &mut dyn Actor<M>| {
            let t = (a as &dyn Any)
                .downcast_ref::<T>()
                .expect("actor type mismatch in Runtime::inspect");
            tx.send(f(t)).ok();
        });
        self.senders[node.0].send(Envelope::Inspect(probe)).expect("node worker exited");
        rx.recv().expect("worker dropped the inspect response")
    }

    /// Run `f` with the engine core locked (metrics, spans, ledger).
    pub fn with_core<R>(&self, f: impl FnOnce(&mut EngineCore) -> R) -> R {
        f(&mut self.shared.lock_core())
    }

    /// Stop every node, join the workers and timer thread, tear down
    /// the transport, and hand back the final state. The telemetry
    /// surface stops first so no request observes a half-torn-down
    /// cluster.
    pub fn shutdown(mut self) -> RuntimeReport<M> {
        // Stop the chaos scheduler first so no crash/restart envelope
        // races a shutdown envelope into a mailbox.
        if let Some(mut c) = self.chaos.take() {
            c.stop();
        }
        self.sweeper_stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sweeper.take() {
            h.join().ok();
        }
        if let Some(t) = self.telemetry.take() {
            t.shutdown();
        }
        for tx in &self.senders {
            tx.send(Envelope::Shutdown).ok();
        }
        let actors: Vec<BoxedActor<M>> = self
            .workers
            .drain(..)
            .map(|h| h.join().expect("worker thread panicked outside a callback"))
            .collect();
        self.shared.wheel.shutdown();
        if let Some(h) = self.wheel_thread.take() {
            h.join().ok();
        }
        self.shared.transport.shutdown();
        let core = std::mem::replace(&mut *self.shared.lock_core(), EngineCore::new(0));
        RuntimeReport { core, actors }
    }

    /// Tear down without collecting state (failed launch).
    fn abort(self) {
        self.shutdown();
    }
}

/// Everything a run leaves behind: the engine core (metrics, spans,
/// ledger, trace/flight if enabled) and the final actors.
pub struct RuntimeReport<M> {
    /// The run's engine core.
    pub core: EngineCore,
    actors: Vec<BoxedActor<M>>,
}

impl<M: 'static> RuntimeReport<M> {
    /// Downcast a node's final actor state.
    ///
    /// # Panics
    /// Panics if the node's actor is not a `T`.
    pub fn actor<T: Actor<M>>(&self, node: NodeId) -> &T {
        (self.actors[node.0].as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("actor type mismatch in RuntimeReport::actor")
    }
}
