//! The event-log broker on the wall-clock runtime, end to end over TCP.
//!
//! One binary, four subcommands, so the CI smoke can kill -9 a real
//! broker process mid-stream and audit what survived:
//!
//! ```text
//! evlog serve   --dir DIR --port 0 --policy fsync        # broker process
//!               # prints "listening on 127.0.0.1:PORT" (0 = ephemeral)
//! evlog produce --addr 127.0.0.1:7171 --count 500 \
//!               --acked-out acked.txt                    # client process
//! evlog consume --addr 127.0.0.1:7171 --group smoke \
//!               --expect acked.txt                       # read back over TCP
//! evlog verify  --dir DIR/leader --acked acked.txt       # offline audit
//! evlog bench   --out BENCH_7.json                       # throughput grid
//! ```
//!
//! `serve` hosts an unmodified [`EventLogNode`] (the same actor the
//! deterministic chaos sweeps drive) on `quicksand-runtime` worker
//! threads with file-backed segments; its flush timer is the §3.2
//! group-commit bus running on the host clock. A small gateway thread
//! speaks length-prefixed [`EvMsg`] frames to clients and injects them
//! into the runtime; acks ride back over the same socket when the
//! policy says they have been earned.
//!
//! `produce` keeps a window of appends in flight, retries silence with
//! the *same* uniquifiers (the broker's dedup collapses them), survives
//! the broker dying by reconnecting until `--timeout-secs`, and records
//! every acked id to `--acked-out` — the promise file the other
//! subcommands audit. `verify` reopens the segment directory offline,
//! reports what recovery truncated, and fails if any acked id is gone.
//! `bench` runs the ack-policy × window grid in-process and writes the
//! BENCH_7 JSON artifact.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quicksand::eventlog::{
    AckPolicy, BrokerConfig, DirKind, EvMsg, EventLog, EventLogNode, LogConfig, Producer,
};
use quicksand::service::wait_done;
use quicksand_bench::cli::arg_value;
use quicksand_core::uniquifier::Uniquifier;
use quicksand_core::wire::{to_bytes, WireCodec};
use quicksand_runtime::RuntimeBuilder;
use sim::{Actor, Context, NodeId, SimDuration};

fn parse<T: std::str::FromStr>(v: Option<String>, default: T, flag: &str) -> T {
    match v {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: bad value {s:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

// ---------------------------------------------------------------- wire

/// Write one `[len u32 LE][EvMsg]` frame.
fn write_frame(w: &mut impl std::io::Write, msg: &EvMsg) -> std::io::Result<()> {
    let body = to_bytes(msg);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF.
fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<EvMsg>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > 64 * 1024 * 1024 {
        return Err(std::io::ErrorKind::InvalidData.into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut slice = body.as_slice();
    EvMsg::decode(&mut slice)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
}

// --------------------------------------------------------------- serve

/// Routes broker responses back to the TCP connection that asked.
/// Appends are routed by uniquifier; fetches go to the most recent
/// fetcher (the smoke runs one consumer).
#[derive(Clone, Default)]
struct Gateway {
    acks: Arc<Mutex<HashMap<u128, Sender<EvMsg>>>>,
    fetcher: Arc<Mutex<Option<Sender<EvMsg>>>>,
}

impl Actor<EvMsg> for Gateway {
    fn on_message(&mut self, _ctx: &mut Context<EvMsg>, _from: NodeId, msg: EvMsg) {
        match &msg {
            EvMsg::Ack { id, .. } => {
                if let Some(tx) = self.acks.lock().unwrap().remove(&id.as_raw()) {
                    let _ = tx.send(msg);
                }
            }
            EvMsg::FetchResp { .. } => {
                if let Some(tx) = self.fetcher.lock().unwrap().as_ref() {
                    let _ = tx.send(msg);
                }
            }
            _ => {}
        }
    }
}

fn serve(mut args: Vec<String>) {
    let dir = PathBuf::from(arg_value(&mut args, "--dir").unwrap_or_else(|| {
        eprintln!("serve needs --dir");
        std::process::exit(2);
    }));
    let port: u16 = parse(arg_value(&mut args, "--port"), 7171, "--port");
    let policy: AckPolicy = parse(arg_value(&mut args, "--policy"), AckPolicy::OnFsync, "--policy");
    let flush_ms: u64 = parse(arg_value(&mut args, "--flush-ms"), 5, "--flush-ms");
    let partitions: u32 = parse(arg_value(&mut args, "--partitions"), 2, "--partitions");
    let replicas: usize = match policy {
        AckPolicy::OnReplicate(n) => n as usize,
        _ => 0,
    };
    deny_unknown(&args);

    let cfg = BrokerConfig {
        log: LogConfig { partitions, ..LogConfig::default() },
        policy,
        flush_every: SimDuration::from_millis(flush_ms),
        compact_every: 64,
    };
    let gateway = Gateway::default();
    let acks = gateway.acks.clone();
    let fetcher = gateway.fetcher.clone();

    let mut b = RuntimeBuilder::new();
    let gw = b.add_node(gateway);
    let replica_ids: Vec<NodeId> = (0..replicas).map(|i| NodeId(2 + i)).collect();
    let leader = b.add_node(EventLogNode::leader(
        DirKind::new(&dir.join("leader")),
        cfg.clone(),
        replica_ids.clone(),
    ));
    for (i, expected) in replica_ids.iter().enumerate() {
        let id = b.add_node(EventLogNode::replica(
            DirKind::new(&dir.join(format!("replica-{i}"))),
            cfg.clone(),
        ));
        assert_eq!(id, *expected);
    }
    let rt = b.launch();

    let recovered = rt.inspect::<EventLogNode<DirKind>, _, _>(leader, |n| n.recovered.clone());
    // The CI smoke greps this line: recovery must report what it cut.
    println!(
        "evlog serve: recovered {} records, truncated {} torn byte(s) ({} torn segment(s))",
        recovered.records, recovered.truncated_bytes, recovered.torn_segments
    );
    let listener = TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
        eprintln!("bind 127.0.0.1:{port}: {e}");
        std::process::exit(2);
    });
    // With `--port 0` the OS picks the port; print the real address so
    // scripts (and the CI smoke) can grep it instead of racing for a
    // fixed port.
    let addr = listener.local_addr().expect("bound listener has an address");
    println!("evlog serve: policy {policy}, {partitions} partition(s), {replicas} replica(s), listening on {addr}");

    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { continue };
            let (acks, fetcher, rt) = (acks.clone(), fetcher.clone(), &rt);
            scope.spawn(move || {
                let mut reader = conn.try_clone().expect("clone conn");
                let (out_tx, out_rx): (Sender<EvMsg>, Receiver<EvMsg>) = channel();
                let writer = std::thread::spawn(move || {
                    let mut conn = conn;
                    for msg in out_rx {
                        if write_frame(&mut conn, &msg).is_err() {
                            break;
                        }
                    }
                });
                while let Ok(Some(msg)) = read_frame(&mut reader) {
                    match msg {
                        EvMsg::Append { id, payload, .. } => {
                            acks.lock().unwrap().insert(id.as_raw(), out_tx.clone());
                            rt.inject(leader, gw, EvMsg::Append { id, payload, resp_to: gw });
                        }
                        EvMsg::Fetch { group, .. } => {
                            *fetcher.lock().unwrap() = Some(out_tx.clone());
                            rt.inject(leader, gw, EvMsg::Fetch { group, resp_to: gw });
                        }
                        EvMsg::Commit { .. } => rt.inject(leader, gw, msg),
                        _ => {}
                    }
                }
                drop(out_tx);
                let _ = writer.join();
            });
        }
    });
}

// ------------------------------------------------------------- produce

struct Pending {
    payload: Vec<u8>,
    last_sent: Instant,
}

fn produce(mut args: Vec<String>) {
    let addr = arg_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let count: u64 = parse(arg_value(&mut args, "--count"), 500, "--count");
    let payload_bytes: usize =
        parse(arg_value(&mut args, "--payload-bytes"), 64, "--payload-bytes");
    let window: usize = parse(arg_value(&mut args, "--window"), 32, "--window");
    let seed: u64 = parse(arg_value(&mut args, "--seed"), 1, "--seed");
    let timeout =
        Duration::from_secs(parse(arg_value(&mut args, "--timeout-secs"), 60, "--timeout-secs"));
    let acked_out = arg_value(&mut args, "--acked-out");
    deny_unknown(&args);

    let mut acked_file = acked_out.map(|p| {
        std::fs::OpenOptions::new().create(true).append(true).open(&p).unwrap_or_else(|e| {
            eprintln!("open {p}: {e}");
            std::process::exit(2);
        })
    });

    let deadline = Instant::now() + timeout;
    let mut issued = 0u64;
    let mut acked = 0u64;
    let mut in_flight: HashMap<u128, Pending> = HashMap::new();
    let mut conn: Option<TcpStream> = None;

    while acked < count {
        if Instant::now() > deadline {
            eprintln!("evlog produce: TIMEOUT with {acked}/{count} acked");
            std::process::exit(1);
        }
        // (Re)connect; the broker being down mid-stream is expected.
        let stream = match &mut conn {
            Some(s) => s,
            None => match TcpStream::connect(&addr) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_millis(100))).ok();
                    s.set_nodelay(true).ok();
                    // Everything unacked goes again, same ids: the
                    // broker's dedup makes the resend harmless.
                    for p in in_flight.values_mut() {
                        p.last_sent = Instant::now() - Duration::from_secs(60);
                    }
                    conn.insert(s)
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(200));
                    continue;
                }
            },
        };

        // Fill the window with fresh appends.
        let mut io_err = false;
        while in_flight.len() < window && issued < count {
            let id = Uniquifier::derived_from_fields(&[
                b"evlog-produce",
                &seed.to_le_bytes(),
                &issued.to_le_bytes(),
            ]);
            let mut payload = vec![0u8; payload_bytes.max(16)];
            payload[..16].copy_from_slice(&id.as_raw().to_le_bytes());
            let msg = EvMsg::Append { id, payload: payload.clone(), resp_to: NodeId(0) };
            if write_frame(stream, &msg).is_err() {
                io_err = true;
                break;
            }
            in_flight.insert(id.as_raw(), Pending { payload, last_sent: Instant::now() });
            issued += 1;
        }
        // Nudge anything silent for 500ms.
        if !io_err {
            let stale: Vec<u128> = in_flight
                .iter()
                .filter(|(_, p)| p.last_sent.elapsed() > Duration::from_millis(500))
                .map(|(id, _)| *id)
                .collect();
            for raw in stale {
                let p = &in_flight[&raw];
                let msg = EvMsg::Append {
                    id: Uniquifier::from_raw(raw),
                    payload: p.payload.clone(),
                    resp_to: NodeId(0),
                };
                if write_frame(stream, &msg).is_err() {
                    io_err = true;
                    break;
                }
                in_flight.get_mut(&raw).unwrap().last_sent = Instant::now();
            }
        }
        // Drain acks until the read times out.
        loop {
            match read_frame(stream) {
                Ok(Some(EvMsg::Ack { id, partition, offset })) => {
                    if in_flight.remove(&id.as_raw()).is_some() {
                        acked += 1;
                        if let Some(f) = &mut acked_file {
                            let line = format!("{:032x} {partition} {offset}\n", id.as_raw());
                            f.write_all(line.as_bytes()).expect("write acked-out");
                            f.flush().ok();
                        }
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    io_err = true;
                    break;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(_) => {
                    io_err = true;
                    break;
                }
            }
        }
        if io_err {
            conn = None;
        }
    }
    println!("evlog produce: {acked}/{count} acked");
}

fn read_acked(path: &str) -> Vec<(u128, u32, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("read {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            let id = u128::from_str_radix(parts.next().expect("id"), 16).expect("hex id");
            let p: u32 = parts.next().expect("partition").parse().expect("partition");
            let off: u64 = parts.next().expect("offset").parse().expect("offset");
            (id, p, off)
        })
        .collect()
}

// ------------------------------------------------------------- consume

fn consume(mut args: Vec<String>) {
    let addr = arg_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let group = arg_value(&mut args, "--group").unwrap_or_else(|| "smoke".into());
    let expect = arg_value(&mut args, "--expect");
    let timeout =
        Duration::from_secs(parse(arg_value(&mut args, "--timeout-secs"), 30, "--timeout-secs"));
    deny_unknown(&args);

    let expected: Vec<u128> = expect
        .as_deref()
        .map_or(Vec::new(), |p| read_acked(p).into_iter().map(|(id, _, _)| id).collect());

    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("connect {addr}: {e}");
        std::process::exit(1);
    });
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut stream = stream;
    let deadline = Instant::now() + timeout;
    let mut seen: HashMap<u128, (u32, u64)> = HashMap::new();
    let mut high: HashMap<u32, u64> = HashMap::new();

    loop {
        write_frame(&mut stream, &EvMsg::Fetch { group: group.clone(), resp_to: NodeId(0) })
            .unwrap_or_else(|e| {
                eprintln!("fetch: {e}");
                std::process::exit(1);
            });
        loop {
            match read_frame(&mut stream) {
                Ok(Some(EvMsg::FetchResp { partition, recs })) => {
                    for rec in recs {
                        if let Some(key) = rec.key {
                            seen.insert(key.as_raw(), (partition, rec.offset));
                        }
                        let h = high.entry(partition).or_insert(0);
                        *h = (*h).max(rec.offset + 1);
                    }
                }
                Ok(Some(_)) => {}
                _ => break,
            }
        }
        for (&p, &upto) in &high {
            let _ = write_frame(
                &mut stream,
                &EvMsg::Commit { group: group.clone(), partition: p, upto },
            );
        }
        let missing = expected.iter().filter(|id| !seen.contains_key(id)).count();
        if !expected.is_empty() && missing == 0 {
            break;
        }
        if Instant::now() > deadline {
            if expected.is_empty() {
                break;
            }
            eprintln!(
                "evlog consume: TIMEOUT, {missing} of {} acked record(s) never arrived",
                expected.len()
            );
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    println!(
        "evlog consume: saw {} distinct record(s); all {} expected acked id(s) present",
        seen.len(),
        expected.len()
    );
}

// -------------------------------------------------------------- verify

fn verify(mut args: Vec<String>) {
    let dir = PathBuf::from(arg_value(&mut args, "--dir").unwrap_or_else(|| {
        eprintln!("verify needs --dir (the leader's segment directory)");
        std::process::exit(2);
    }));
    let acked = arg_value(&mut args, "--acked").unwrap_or_else(|| {
        eprintln!("verify needs --acked FILE");
        std::process::exit(2);
    });
    let partitions: u32 = parse(arg_value(&mut args, "--partitions"), 2, "--partitions");
    deny_unknown(&args);

    let cfg = LogConfig { partitions, ..LogConfig::default() };
    let (log, report) = EventLog::open(DirKind::new(&dir), cfg);
    println!(
        "evlog verify: recovered {} record(s), truncated {} torn byte(s) ({} torn segment(s), {} corrupt)",
        report.records, report.truncated_bytes, report.torn_segments, report.corrupt_segments
    );
    let promises = read_acked(&acked);
    let mut missing = 0usize;
    for (raw, p, off) in &promises {
        match log.lookup(Uniquifier::from_raw(*raw)) {
            Some(_) => {}
            None => {
                missing += 1;
                eprintln!("MISSING acked record {raw:032x} (acked at p{p}@{off})");
            }
        }
    }
    if missing > 0 {
        eprintln!("evlog verify: FAILED — {missing} of {} acked record(s) lost", promises.len());
        std::process::exit(1);
    }
    println!("evlog verify: all {} acked record(s) present", promises.len());
}

// --------------------------------------------------------------- bench

fn bench(mut args: Vec<String>) {
    let out = arg_value(&mut args, "--out").unwrap_or_else(|| "BENCH_7.json".into());
    let appends: u64 = parse(arg_value(&mut args, "--appends"), 600, "--appends");
    let payload_bytes: usize =
        parse(arg_value(&mut args, "--payload-bytes"), 64, "--payload-bytes");
    let flush_ms: u64 = parse(arg_value(&mut args, "--flush-ms"), 5, "--flush-ms");
    let base = PathBuf::from(
        arg_value(&mut args, "--dir")
            .unwrap_or_else(|| std::env::temp_dir().join("evlog-bench").display().to_string()),
    );
    deny_unknown(&args);

    let policies = [AckPolicy::Immediate, AckPolicy::OnFsync, AckPolicy::OnReplicate(2)];
    let windows = [1usize, 8, 64];
    let mut cells = Vec::new();
    for policy in policies {
        for window in windows {
            let cell = bench_cell(&base, policy, window, appends, payload_bytes, flush_ms);
            eprintln!(
                "cell policy={policy} window={window}: {:.0} appends/s (p50 {}µs, p99 {}µs)",
                cell.appends_per_sec, cell.ack_p50_us, cell.ack_p99_us
            );
            cells.push(cell);
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"BENCH_7\",");
    let _ = writeln!(
        json,
        "  \"description\": \"wall-clock event-log broker, closed loop: ack policy x producer window -> appends/s and ack latency; the flush timer is the group-commit bus\","
    );
    let _ = writeln!(json, "  \"transport\": \"Loopback\",");
    let _ = writeln!(json, "  \"appends_per_cell\": {appends},");
    let _ = writeln!(json, "  \"payload_bytes\": {payload_bytes},");
    let _ = writeln!(json, "  \"flush_interval_ms\": {flush_ms},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"window\": {}, \"acked\": {}, \"elapsed_secs\": {:.3}, \"appends_per_sec\": {:.0}, \"ack_p50_us\": {}, \"ack_p99_us\": {}, \"fsyncs\": {}, \"bus_wait_mean_us\": {}}}{comma}",
            c.policy, c.window, c.acked, c.elapsed_secs, c.appends_per_sec, c.ack_p50_us,
            c.ack_p99_us, c.fsyncs, c.bus_wait_mean_us
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("evlog bench: grid written to {out}");
}

struct Cell {
    policy: AckPolicy,
    window: usize,
    acked: u64,
    elapsed_secs: f64,
    appends_per_sec: f64,
    ack_p50_us: u64,
    ack_p99_us: u64,
    fsyncs: u64,
    bus_wait_mean_us: u64,
}

fn bench_cell(
    base: &Path,
    policy: AckPolicy,
    window: usize,
    appends: u64,
    payload_bytes: usize,
    flush_ms: u64,
) -> Cell {
    let dir = base.join(format!("{policy}-w{window}").replace(':', "_"));
    let _ = std::fs::remove_dir_all(&dir);
    let replicas = match policy {
        AckPolicy::OnReplicate(n) => n as usize,
        _ => 0,
    };
    let cfg = BrokerConfig {
        log: LogConfig::default(),
        policy,
        flush_every: SimDuration::from_millis(flush_ms),
        compact_every: 0,
    };
    let mut b = RuntimeBuilder::new();
    let leader = NodeId(1);
    let producer = b.add_node(Producer::new(
        0,
        leader,
        appends,
        window,
        payload_bytes,
        SimDuration::ZERO,
        SimDuration::from_millis(200),
    ));
    let replica_ids: Vec<NodeId> = (0..replicas).map(|i| NodeId(2 + i)).collect();
    let id = b.add_node(EventLogNode::leader(
        DirKind::new(&dir.join("leader")),
        cfg.clone(),
        replica_ids.clone(),
    ));
    assert_eq!(id, leader);
    for i in 0..replicas {
        b.add_node(EventLogNode::replica(
            DirKind::new(&dir.join(format!("replica-{i}"))),
            cfg.clone(),
        ));
    }
    let started = Instant::now();
    let rt = b.launch();
    if let Err(e) = wait_done(&rt, &[producer], Producer::done, Duration::from_secs(120)) {
        eprintln!("bench cell policy={policy} window={window}: {e}");
        std::process::exit(1);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let acked = rt.inspect::<Producer, _, _>(producer, |p| p.acked.len() as u64);
    let mut report = rt.shutdown();
    let m = &mut report.core.metrics;
    let ack = m.histogram("eventlog.producer_ack_us");
    let (p50, p99) = (ack.percentile(50.0), ack.percentile(99.0));
    // OnFsync acks wait on the bus; OnReplicate acks wait on replica
    // confirmations (which the bus still paces) — report whichever
    // window this policy actually parked acks in.
    let mut bus = m.histogram("eventlog.group_commit_wait_us").mean();
    if bus == 0.0 {
        bus = m.histogram("eventlog.replicate_wait_us").mean();
    }
    Cell {
        policy,
        window,
        acked,
        elapsed_secs: elapsed,
        appends_per_sec: acked as f64 / elapsed.max(1e-9),
        ack_p50_us: p50 as u64,
        ack_p99_us: p99 as u64,
        fsyncs: report.core.metrics.counter("eventlog.fsyncs"),
        bus_wait_mean_us: bus as u64,
    }
}

// ---------------------------------------------------------------- main

fn deny_unknown(args: &[String]) {
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: evlog <serve|produce|consume|verify|bench> [flags]\n\
             see the module docs at the top of crates/bench/src/bin/evlog.rs"
        );
        std::process::exit(2);
    }
    match args.remove(0).as_str() {
        "serve" => serve(args),
        "produce" => produce(args),
        "consume" => consume(args),
        "verify" => verify(args),
        "bench" => bench(args),
        other => {
            eprintln!("unknown subcommand {other:?} (serve|produce|consume|verify|bench)");
            std::process::exit(2);
        }
    }
}
