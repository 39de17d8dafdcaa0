//! The Dynamo shopping cart riding out a network partition (§6.1).
//!
//! Four shoppers edit one cart on a five-node Dynamo-style store. Ten
//! seconds into the run the cluster splits in half; shoppers keep
//! editing through whichever side they can reach (sloppy quorum accepts
//! every PUT). After the heal, gossip and hinted handoff reconverge the
//! replicas, and the op-union reconciliation guarantees no acknowledged
//! edit is lost — while a deleted item may sneak back in (§6.4).
//!
//! Run with: `cargo run --example shopping_cart`
//!
//! Pass `--cart-mode oplog|orset|both` (default `both`) to pick the
//! cart representation: `oplog` is the paper-faithful §6.1 operation
//! ledger whose canonical replay resurrects deletes; `orset` is the
//! CRDT cart (add-wins OR-Set + PN-counters) where an observed delete
//! can never be replay-inverted. `both` runs the same seed through each
//! and prints the reappearing-delete count per mode.
//!
//! Pass `--trace-out DIR` to also write the observability artifacts:
//! `DIR/spans.jsonl` (one span per line), `DIR/trace.jsonl` (sim+app
//! events), and `DIR/chrome_trace.json` (load in Perfetto / Chrome
//! `about://tracing` to see each `dynamo.put`'s child `net.hop`s with
//! per-hop latencies).

use quicksand::cart::{run, CartAction, CartMode, CartReport, CartScenario};
use quicksand::sim::{SimDuration, SimTime};

fn scenario(mode: CartMode, trace: bool) -> CartScenario {
    let mut scenario = CartScenario {
        mode,
        trace,
        n_stores: 5,
        plans: vec![
            vec![
                CartAction::Add { item: 1, qty: 1 },
                CartAction::Add { item: 2, qty: 2 },
                CartAction::Remove { item: 1 },
                CartAction::Add { item: 4, qty: 1 },
            ],
            vec![
                CartAction::Add { item: 3, qty: 1 },
                CartAction::ChangeQty { item: 3, qty: 4 },
                CartAction::Add { item: 1, qty: 5 },
            ],
            vec![CartAction::Add { item: 5, qty: 2 }, CartAction::Remove { item: 2 }],
            vec![CartAction::Add { item: 2, qty: 1 }, CartAction::Add { item: 6, qty: 1 }],
        ],
        think: SimDuration::from_millis(40),
        horizon: SimTime::from_secs(45),
        ..CartScenario::default()
    };
    scenario.faults = scenario.split(SimTime::from_millis(60), SimTime::from_secs(10));
    scenario
}

fn mode_name(mode: CartMode) -> &'static str {
    match mode {
        CartMode::OpLog => "oplog",
        CartMode::OrSet => "orset",
    }
}

fn print_report(mode: CartMode, report: &CartReport) {
    println!("--- cart mode: {} ---", mode_name(mode));
    println!("edits acknowledged:       {}", report.edits_acked);
    println!("PUT availability:         {:.1}%", report.put_availability() * 100.0);
    println!("GETs that failed (shopper proceeded on empty view): {}", report.get_failures);
    println!(
        "sibling sets reconciled by the application:         {}",
        report.sibling_reconciliations
    );
    println!("acked edits lost:         {}  (the §6.4 guarantee)", report.lost_edits);
    println!("deleted items resurrected: {} (the §6.4 anomaly)", report.resurrected_items);
    println!("replicas converged:       {}", report.converged);
    println!("final cart (item -> qty): {:?}", report.final_cart);
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = args.iter().position(|a| a == "--trace-out").map(|pos| {
        args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace-out needs a directory");
            std::process::exit(2);
        })
    });
    let modes: Vec<CartMode> = match args
        .iter()
        .position(|a| a == "--cart-mode")
        .map(|pos| args.get(pos + 1).map(String::as_str).unwrap_or(""))
    {
        None | Some("both") => vec![CartMode::OpLog, CartMode::OrSet],
        Some("oplog") => vec![CartMode::OpLog],
        Some("orset") => vec![CartMode::OrSet],
        Some(other) => {
            eprintln!("--cart-mode must be oplog, orset, or both (got {other:?})");
            std::process::exit(2);
        }
    };

    println!("shoppers: 4   stores: 5   partition: 60ms..10s, healed after");
    println!();

    let mut reports = Vec::new();
    for &mode in &modes {
        // Trace artifacts come from the first mode run.
        let trace = trace_out.is_some() && reports.is_empty();
        let report = run(&scenario(mode, trace), 2009);
        print_report(mode, &report);
        reports.push((mode, report));
    }

    if reports.len() > 1 {
        // In the partition run above a deleted item can reappear in
        // *either* mode when a concurrent add never observed the delete
        // — that's add-wins semantics, not the §6.4 anomaly. The
        // controlled ablation below has no partition, so every delete
        // causally observes the add it is deleting; only replay-order
        // inversion can resurrect an item.
        println!("§6.4 ablation (every delete observes its add; same seed, same plans):");
        for &mode in &modes {
            let r = run(&CartScenario::contended(mode), 2009);
            let note = match mode {
                CartMode::OpLog => "canonical replay can sort a delete before an add it saw",
                CartMode::OrSet => "an observed delete kills the add instances it saw",
            };
            println!(
                "  {:<6} reappearing deletes: {}   ({note})",
                mode_name(mode),
                r.resurrected_items
            );
            assert_eq!(r.lost_edits, 0);
            assert!(r.converged);
        }
        println!();
    }

    if let Some(dir) = trace_out {
        let report = &reports[0].1;
        std::fs::create_dir_all(&dir).expect("create trace-out dir");
        let p = |name: &str| format!("{dir}/{name}");
        std::fs::write(p("spans.jsonl"), report.spans.to_jsonl()).unwrap();
        std::fs::write(p("chrome_trace.json"), report.spans.to_chrome_trace()).unwrap();
        std::fs::write(p("trace.jsonl"), report.trace_jsonl.as_deref().unwrap_or("")).unwrap();
        println!();
        println!("observability artifacts in {dir}/:");
        println!("  spans.jsonl         {} spans", report.spans.len());
        println!("  trace.jsonl         sim+app events");
        println!("  chrome_trace.json   load in Perfetto (ui.perfetto.dev)");
        // Show one dynamo.put causal tree: the put, its replica hops,
        // and each hop's latency.
        if let Some(put) = report
            .spans
            .spans()
            .find(|s| s.name == "dynamo.put" && report.spans.children(s.id).next().is_some())
        {
            println!();
            println!("one dynamo.put causal tree (µs latencies per hop):");
            print!("{}", report.spans.render_tree(put.id));
        }
    }
    for (_, report) in &reports {
        assert_eq!(report.lost_edits, 0);
        assert!(report.converged);
    }
}
