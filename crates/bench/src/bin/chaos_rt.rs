//! E21: the wall-clock chaos grid. Seeded [`FaultPlan`]s — the same
//! clause types the deterministic sweeps schedule — run against *live*
//! services on real worker threads, and every cell is audited for the
//! paper's bottom line: an acked operation is a promise, and no fault
//! the plan injects may break it.
//!
//! Three services, all built from unmodified sim actors:
//!
//! - **cart**: an N-store dynamo ring of CRDT carts over real TCP
//!   sockets with closed-loop [`LoadClient`]s.
//! - **membership**: the same cart service with a standby store, under
//!   plans that mix `add_node`/`remove_node` clauses (applied through
//!   the chaos controller's membership hook as live `CtlJoin`/`CtlLeave`)
//!   with crashes and partitions.
//! - **evlog**: a file-backed [`EventLogNode`] broker (OnFsync acks)
//!   with a windowed [`Producer`], on the loopback transport: every
//!   acked append must survive crash-torn recovery in the leader's log.
//!
//! Standing a cell up, driving it, settling it and auditing it is
//! [`quicksand::service`]; a cell passes iff [`ServiceAudit::check`]
//! does. This bin owns the grid — services, specs, and seeds pinned
//! with [`FaultPlan::covering_seed`] so every cell exercises each
//! enabled clause kind while staying a plain `generate` product anyone
//! can replay — plus the evlog cell's own loss check, the durable
//! round trip of each cell's incident ring through an
//! [`IncidentStream`] under `--dir`, and the table / `--out` JSON.
//!
//! ```text
//! cargo run -p quicksand-bench --release --bin chaos_rt -- --out E21.json
//! cargo run -p quicksand-bench --release --bin chaos_rt -- --quick   # CI smoke
//! ```
//!
//! Exit is nonzero if any cell fails its audit or its incidents do not
//! survive reopen.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use quicksand::eventlog::{AckPolicy, BrokerConfig, DirKind, EventLogNode, LogConfig, Producer};
use quicksand::service::{
    add_stores, audit, fault_spec, settle, wait_chaos, wait_done, LoadClient, ServiceAudit,
    ServiceMsg,
};
use quicksand_bench::cli::{arg_flag, arg_value};
use quicksand_bench::incidents::IncidentStream;
use quicksand_runtime::RuntimeBuilder;
use sim::{EngineCore, FaultPlan, FaultSpec, NodeId, SimDuration, SimTime};

const TIMEOUT: Duration = Duration::from_secs(120);

/// One audited cell of the grid.
struct Cell {
    service: &'static str,
    base_seed: u64,
    seed: u64,
    clauses: usize,
    /// The shared audit: acked/lost, ledger, chaos accounting, incidents.
    audit: ServiceAudit,
    /// Records in the cell's durable incident stream after reopen.
    incidents_durable: u64,
    elapsed_secs: f64,
}

impl Cell {
    /// The shared audit's verdict, plus this bin's own durability check.
    fn ok(&self) -> bool {
        self.audit.check().is_ok() && self.incidents_durable >= self.audit.incidents.len() as u64
    }

    fn crash_clauses(&self) -> u64 {
        self.audit.planned.map_or(0, |(crashes, _)| crashes)
    }
}

/// Make the black box durable: persist the whole incident ring to an
/// [`IncidentStream`] under `dir`, and reopen from disk to prove the
/// records outlive the writer. Returns the durable record count.
fn persist_incidents(core: &EngineCore, dir: &Path) -> u64 {
    let stream_dir = dir.join("incidents");
    let mut s = IncidentStream::open(&stream_dir);
    for inc in core.incidents.iter() {
        s.append(inc);
    }
    drop(s);
    IncidentStream::open(&stream_dir).replay().len() as u64
}

fn stalled(service: &str, seed: u64, e: impl std::fmt::Display) -> ! {
    eprintln!("{service} cell seed {seed}: {e}");
    std::process::exit(1);
}

// ----------------------------------------------------------------- cart

const STORES: u32 = 4;
const CLIENTS: u32 = 3;
const KEYS: u64 = 64;

/// The membership grid's spec — the cart spec plus a standby, except:
/// the spare may be directed to join, and one member may be directed
/// to leave. The leaver and the spare are *not* crashable — a
/// control message injected into a crashed inbox is dropped, and this
/// cell audits the rebalance protocol, not message loss on the control
/// path (the sim sweeps cover that interleaving).
fn membership_spec(clauses: usize) -> FaultSpec {
    fault_spec(STORES, 1 + CLIENTS, 2200, clauses)
        .crashable((0..STORES as usize - 1).map(NodeId).collect())
        .joinable(vec![NodeId(STORES as usize)])
        .leavable(vec![NodeId(STORES as usize - 1)])
        // covering_seed wants one clause of every enabled kind; crash +
        // partition + add_node + remove_node fit in 4 clauses. One-way
        // splits and degrades stay with the other services' cells.
        .oneway(false)
        .degrades(false)
}

/// How the chaos controller turns a plan's membership clauses into
/// live control messages.
type MembershipHook = fn(&'static str, NodeId) -> Option<ServiceMsg>;

fn ctl_join_leave(kind: &'static str, _node: NodeId) -> Option<ServiceMsg> {
    match kind {
        "add_node" => Some(ServiceMsg::CtlJoin),
        "remove_node" => Some(ServiceMsg::CtlLeave),
        _ => None,
    }
}

/// One cart-service cell over TCP. With a `hook` the ring gets a
/// standby store and the plan's `add_node`/`remove_node` clauses apply:
/// covering both kinds makes the end state unconditional — the spare
/// (first id past the members) ends in the ring, the last founding
/// member ends departed — and the audit holds the cell to it.
fn cart_cell(
    service: &'static str,
    spec: &FaultSpec,
    hook: Option<MembershipHook>,
    base_seed: u64,
    ops_per_client: u64,
    dir: &Path,
) -> Cell {
    let seed = FaultPlan::covering_seed(base_seed, spec);
    let plan = FaultPlan::generate(seed, spec);
    eprintln!("{service} cell (seed {seed}, {} clauses):\n{plan}", plan.len());
    let cell_dir = dir.join(format!("{}-{seed}", service.replace('/', "-")));
    let _ = std::fs::remove_dir_all(&cell_dir);

    let mut b = RuntimeBuilder::new().chaos(plan.clone(), seed);
    let (mut joiner, mut leaver) = (None, None);
    if let Some(hook) = hook {
        b = b.membership_ctl(hook);
        joiner = Some(NodeId(STORES as usize));
        leaver = Some(NodeId(STORES as usize - 1));
    }
    let store_ids = add_stores(&mut b, STORES, joiner.is_some() as u32);
    // Clients route through the founding members only.
    let members: Vec<NodeId> = store_ids[..STORES as usize].to_vec();
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|c| b.add_node(LoadClient::new(c, members.clone(), ops_per_client, KEYS, 60)))
        .collect();
    let started = Instant::now();
    let rt = b.launch_tcp().expect("tcp launch");
    if let Err(e) = wait_done(&rt, &clients, LoadClient::done, TIMEOUT)
        .and_then(|()| settle(&rt, &store_ids, joiner, leaver, TIMEOUT))
    {
        stalled(service, seed, e);
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let report = rt.shutdown();
    Cell {
        service,
        base_seed,
        seed,
        clauses: plan.len(),
        audit: audit(&report, &store_ids, &clients, Some(&plan), joiner, leaver),
        incidents_durable: persist_incidents(&report.core, &cell_dir),
        elapsed_secs,
    }
}

// ---------------------------------------------------------------- evlog

fn evlog_cell(base_seed: u64, clauses: usize, appends: u64, dir: &Path) -> Cell {
    // Two nodes: producer (0) holds the promise file in memory and must
    // never crash; the broker (1) takes every crash clause — each one
    // tears its unfsynced tail, which OnFsync acks must survive.
    let spec = FaultSpec::new(vec![NodeId(0), NodeId(1)])
        .crashable(vec![NodeId(1)])
        .window(SimTime::from_millis(100), SimTime::from_millis(1800))
        .faults(clauses, clauses)
        .oneway(clauses >= 4);
    let seed = FaultPlan::covering_seed(base_seed, &spec);
    let plan = FaultPlan::generate(seed, &spec);
    eprintln!("evlog cell (seed {seed}, {clauses} clauses):\n{plan}");

    let cell_dir = dir.join(format!("evlog-{seed}"));
    let _ = std::fs::remove_dir_all(&cell_dir);
    let cfg = BrokerConfig {
        log: LogConfig::default(),
        policy: AckPolicy::OnFsync,
        flush_every: SimDuration::from_millis(5),
        compact_every: 0,
    };
    let mut b = RuntimeBuilder::new().chaos(plan.clone(), seed);
    let leader = NodeId(1);
    let producer = b.add_node(Producer::new(
        0,
        leader,
        appends,
        32,
        64,
        SimDuration::ZERO,
        SimDuration::from_millis(200),
    ));
    let id = b.add_node(EventLogNode::leader(DirKind::new(&cell_dir.join("leader")), cfg, vec![]));
    assert_eq!(id, leader);
    let started = Instant::now();
    let rt = b.launch();
    if let Err(e) =
        wait_done(&rt, &[producer], Producer::done, TIMEOUT).and_then(|()| wait_chaos(&rt, TIMEOUT))
    {
        stalled("evlog", seed, e);
    }
    // No anti-entropy here: just let the last restart finish recovery.
    std::thread::sleep(Duration::from_millis(400));
    let elapsed_secs = started.elapsed().as_secs_f64();
    let report = rt.shutdown();

    // The service-specific half of the audit: an acked append is lost
    // if the recovered leader log no longer holds its id (booked in
    // the audit's pair-shaped `lost` list as the id's two halves).
    let acked = report.actor::<Producer>(producer).acked_ids();
    let broker = report.actor::<EventLogNode<DirKind>>(leader);
    let lost = acked.iter().filter(|id| broker.log().lookup(**id).is_none());
    Cell {
        service: "evlog/fsync",
        base_seed,
        seed,
        clauses,
        audit: ServiceAudit {
            acked: acked.len() as u64,
            lost: lost.map(|id| ((id.as_raw() >> 64) as u64, id.as_raw() as u64)).collect(),
            ..ServiceAudit::of_core(&report.core, Some(&plan))
        },
        incidents_durable: persist_incidents(&report.core, &cell_dir),
        elapsed_secs,
    }
}

// ----------------------------------------------------------------- main

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out = arg_value(&mut args, "--out");
    let quick = arg_flag(&mut args, "--quick");
    let dir = PathBuf::from(
        arg_value(&mut args, "--dir")
            .unwrap_or_else(|| std::env::temp_dir().join("chaos-rt").display().to_string()),
    );
    if !args.is_empty() {
        eprintln!("unknown args: {args:?}");
        std::process::exit(2);
    }

    // The grid: base seed x clause count, per service. `--quick` runs
    // one cell of each service for the CI smoke.
    let cart_rows: &[(u64, usize, u64)] =
        if quick { &[(1, 3, 500)] } else { &[(1, 3, 800), (1000, 5, 800)] };
    let member_rows: &[(u64, usize, u64)] =
        if quick { &[(1, 4, 400)] } else { &[(1, 4, 600), (1000, 5, 600)] };
    let evlog_rows: &[(u64, usize, u64)] =
        if quick { &[(1, 3, 300)] } else { &[(1, 3, 500), (1000, 5, 500)] };

    let mut cells = Vec::new();
    for &(base, clauses, ops) in cart_rows {
        let spec = fault_spec(STORES, CLIENTS, 2200, clauses);
        cells.push(cart_cell("cart/tcp", &spec, None, base, ops, &dir));
    }
    for &(base, clauses, ops) in member_rows {
        let spec = membership_spec(clauses);
        cells.push(cart_cell("member/tcp", &spec, Some(ctl_join_leave), base, ops, &dir));
    }
    for &(base, clauses, appends) in evlog_rows {
        cells.push(evlog_cell(base, clauses, appends, &dir));
    }

    println!(
        "{:<12} {:>9} {:>7} {:>7} {:>6} {:>5} {:>5} {:>9} {:>8} {:>6} {:>6} {:>7}",
        "service",
        "seed",
        "clauses",
        "crashes",
        "acked",
        "lost",
        "open",
        "orphaned",
        "restarts",
        "edges",
        "incid",
        "secs"
    );
    let mut failed = false;
    for c in &cells {
        println!(
            "{:<12} {:>9} {:>7} {:>7} {:>6} {:>5} {:>5} {:>9} {:>8} {:>6} {:>6} {:>7.2}{}",
            c.service,
            c.seed,
            c.clauses,
            c.crash_clauses(),
            c.audit.acked,
            c.audit.lost.len(),
            c.audit.open_guesses,
            c.audit.orphaned_guesses,
            c.audit.restarts,
            c.audit.clause_edges,
            c.audit.incidents.len(),
            c.elapsed_secs,
            if c.ok() { "" } else { "  <-- FAIL" },
        );
        failed |= !c.ok();
    }

    if let Some(path) = out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"experiment\": \"E21\",");
        let _ = writeln!(
            json,
            "  \"description\": \"wall-clock chaos grid: seeded FaultPlans vs live services; \
             acked ops must survive every clause\","
        );
        json.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let comma = if i + 1 < cells.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"service\": \"{}\", \"base_seed\": {}, \"seed\": {}, \"clauses\": {}, \
                 \"crash_clauses\": {}, \"acked\": {}, \"lost_acked\": {}, \
                 \"open_guesses\": {}, \"orphaned_guesses\": {}, \"restarts\": {}, \
                 \"clause_edges\": {}, \"incidents\": {}, \"incident_slices_ok\": {}, \
                 \"incidents_durable\": {}}}{comma}",
                c.service,
                c.base_seed,
                c.seed,
                c.clauses,
                c.crash_clauses(),
                c.audit.acked,
                c.audit.lost.len(),
                c.audit.open_guesses,
                c.audit.orphaned_guesses,
                c.audit.restarts,
                c.audit.clause_edges,
                c.audit.incidents.len(),
                c.audit.edgeless_incidents.is_empty(),
                c.incidents_durable,
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("grid written to {path}");
    }

    if failed {
        eprintln!("CHAOS GRID FAILED: see rows above");
        std::process::exit(1);
    }
    eprintln!("chaos grid clean: every acked op survived every plan");
}
