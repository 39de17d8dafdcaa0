//! Stand up the cart service on the wall-clock runtime and keep it
//! serving for a while: an N-node dynamo ring of CRDT cart stores (one
//! OS worker thread per node), with a probe client exercising a
//! put/get round trip so the run proves end-to-end liveness.
//!
//! ```text
//! cargo run -p quicksand-bench --release --bin serve -- \
//!     --stores 4 --transport tcp --duration-secs 5 \
//!     --telemetry-addr 127.0.0.1:9090
//! ```
//!
//! With `--telemetry-addr` the runtime serves its live operator surface
//! over HTTP while traffic flows — `curl` `/health`, `/metrics`,
//! `/ledger`, and `/trace` against the printed address (see the
//! "Operator surface" section of DESIGN.md). The flight recorder and
//! event trace are enabled alongside so `/trace` has spans to stream.
//!
//! Exits nonzero if the probe's PUT or GET fails — a served ring that
//! cannot answer a client is not serving.

use cart::CrdtCart;
use dynamo::{DynamoMsg, Probe, ProbeResult, VectorClock};
use quicksand::service::add_stores;
use quicksand_bench::cli::arg_value;
use quicksand_runtime::{RuntimeBuilder, TransportKind};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stores: u32 = arg_value(&mut args, "--stores").map_or(4, |v| v.parse().expect("--stores"));
    // --threads is an alias for --stores: one worker thread per node.
    let stores =
        arg_value(&mut args, "--threads").map_or(stores, |v| v.parse().expect("--threads"));
    let transport: TransportKind = arg_value(&mut args, "--transport")
        .map_or(TransportKind::Loopback, |v| v.parse().unwrap_or_else(|e| panic!("{e}")));
    let duration: u64 =
        arg_value(&mut args, "--duration-secs").map_or(5, |v| v.parse().expect("--duration-secs"));
    let seed: Option<u64> = arg_value(&mut args, "--seed").map(|v| v.parse().expect("--seed"));
    let telemetry_addr = arg_value(&mut args, "--telemetry-addr");
    if !args.is_empty() {
        eprintln!("unknown args: {args:?}");
        std::process::exit(2);
    }

    let mut b = RuntimeBuilder::new();
    if let Some(s) = seed {
        b = b.seed(s);
    }
    if let Some(addr) = &telemetry_addr {
        // Flight + trace ride along so /trace has forensics to stream.
        b = b
            .telemetry(addr.as_str())
            .unwrap_or_else(|e| {
                eprintln!("cannot bind telemetry on {addr}: {e}");
                std::process::exit(2);
            })
            .flight(4096)
            .trace(4096);
    }
    let store_ids = add_stores(&mut b, stores, 0);
    let probe = b.add_node(Probe::<CrdtCart>::new());
    let rt = b.launch_transport(transport).expect("launch");
    eprintln!(
        "serving: {stores} store nodes + 1 probe on {transport:?} ({} worker threads)",
        rt.node_count()
    );
    if let Some(addr) = rt.telemetry_addr() {
        eprintln!("telemetry: http://{addr}  (/health /metrics /ledger /trace)");
    }

    // One probe round trip: PUT a small cart, then read it back from a
    // different coordinator.
    let mut cart = CrdtCart::new();
    cart.apply(0x5E17E, &cart::CartAction::Add { item: 1, qty: 1 });
    rt.inject(
        store_ids[0],
        probe,
        DynamoMsg::ClientPut {
            req: 1,
            key: 42,
            value: cart,
            context: VectorClock::new(),
            resp_to: probe,
        },
    );
    std::thread::sleep(std::time::Duration::from_millis(200));
    rt.inject(
        store_ids[store_ids.len() - 1],
        probe,
        DynamoMsg::ClientGet { req: 2, key: 42, resp_to: probe },
    );

    std::thread::sleep(std::time::Duration::from_secs(duration));

    let probe_ok = rt.inspect::<Probe<CrdtCart>, _, _>(probe, |p| {
        let put_ok = matches!(p.result(1), Some(ProbeResult::PutOk));
        let get_ok = matches!(p.result(2), Some(ProbeResult::GetOk(vs)) if !vs.is_empty());
        (put_ok, get_ok)
    });
    let report = rt.shutdown();
    let sent = report.core.metrics.counter("sim.messages_sent");
    let gossip = report.core.metrics.counter("dynamo.gossip_pushes");
    eprintln!("served for {duration}s: {sent} messages, {gossip} gossip pushes");
    match probe_ok {
        (true, true) => eprintln!("probe round trip: ok"),
        (put, get) => {
            eprintln!("probe round trip FAILED (put ok: {put}, get ok: {get})");
            std::process::exit(1);
        }
    }
}
