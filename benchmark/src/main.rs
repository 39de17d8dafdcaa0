//! `quicksand-benchmark`: one command per workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload cart_small_loopback --seed 1 --seconds 18 --trace 0
//! … -- repeat [--runs 3] [--seconds 18] [--workload NAME]
//! … -- schema          # the text of /BENCHMARK.json
//! ```
//!
//! Run from the repository root: outputs go under `benchmark/out/`. A
//! run launches its legs as child processes of this same executable
//! (`leg` subcommand), so each starts on a heap nothing has grown.

use std::path::Path;
use std::process::{Command, ExitCode};

use quicksand_benchmark::measure::Mode;
use quicksand_benchmark::report::{
    self, Leg, MetricDef, Workload, END_TO_END, LEGS, MAX_RETRIED_SHARE, PER_LAYER, TIMED,
};
use quicksand_benchmark::sys::{pin_to_last_cpu, Environment};
use quicksand_benchmark::{cells, repeat, traced};

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         repeat [--runs N] [--seconds S] [--workload NAME]\n       schema",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: Workload::CartSmallLoopback,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(value).unwrap_or_else(|| usage());
                named = true;
            }
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value == "1",
            _ => usage(),
        }
    }
    if !(named && a.seconds > 0.0 && a.seconds <= 60.0) {
        usage();
    }
    a
}

/// `leg <workload> <seed> <measured ops> <plain|traced>`: run one leg in
/// this process and print what [`Leg::parse`] reads.
fn leg_main(args: &[String]) -> ExitCode {
    let [workload, seed, ops, mode] = args else { usage() };
    let w = Workload::parse(workload).unwrap_or_else(|| usage());
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
    let ops: u64 = ops.parse().unwrap_or_else(|_| usage());
    let mode = match mode.as_str() {
        "plain" => Mode::Plain,
        "traced" => Mode::Traced,
        _ => usage(),
    };
    if let Err(e) = pin_to_last_cpu() {
        eprintln!("cannot pin to one CPU: {e}");
        return ExitCode::from(3);
    }
    let out = Path::new(OUT_DIR);
    let o = w.run(seed, ops, mode, 1, out);
    if mode == Mode::Traced && ops > 0 {
        let path = out.join(format!("{}-seed{seed}.trace.json", w.name()));
        let nodes: Vec<_> = o.traces.iter().map(|(n, l, t)| (*n, *l, t)).collect();
        traced::write_chrome_trace(&path, &nodes).expect("write the span file");
        println!("spans {}", path.display());
    }
    print!("{}", Leg::of(&o).to_lines());
    ExitCode::SUCCESS
}

/// Launch one leg as a child process and wait for it.
fn spawn_leg(w: Workload, seed: u64, ops: u64, mode: &str) -> Result<Leg, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["leg", w.name(), &seed.to_string(), &ops.to_string(), mode])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match Leg::parse(&stdout) {
        Some(leg) if out.status.success() => Ok(leg),
        _ => Err(format!(
            "{mode} leg of {ops} ops ended with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// `correct` is the audits, no operation given up, and the ceiling on
/// retried requests. Returns it with the operations attempted and failed.
fn judge(legs: &[Leg]) -> (bool, u64, u64) {
    let attempted: u64 = legs.iter().map(|l| l.attempted).sum();
    let retried: u64 = legs.iter().map(|l| l.retried).sum();
    let failed: u64 = legs.iter().map(|l| l.failed).sum();
    println!("retried {retried} requests of {attempted} operations");
    let mut correct = failed == 0;
    for v in legs.iter().flat_map(|l| &l.violations) {
        eprintln!("AUDIT VIOLATION: {v}");
        correct = false;
    }
    if retried as f64 > MAX_RETRIED_SHARE * attempted as f64 {
        eprintln!(
            "{retried} requests retried in {attempted} operations (ceiling {MAX_RETRIED_SHARE})"
        );
        correct = false;
    }
    (correct, attempted.max(1), failed)
}

fn run(a: &Args) -> Result<bool, String> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out)
        .map_err(|e| format!("create {OUT_DIR} (run from the repository root): {e}"))?;
    let env =
        Environment::pin_and_record(out).map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let w = a.workload;
    println!("workload {} seed {} seconds {} trace {}", w.name(), a.seed, a.seconds, a.trace);
    println!("environment {}", env.to_json());
    println!("frozen_counts {}", w.frozen_counts(a.seconds));
    println!(
        "method one process per leg pinned to cpu {}, one driver actor, closed loop, fixed op count",
        env.pinned
    );

    let ops = w.leg_ops(a.seconds);
    let (legs, defs, values): (Vec<Leg>, &[MetricDef], _) = if a.trace {
        let plain = spawn_leg(w, a.seed, ops, "plain")?;
        let traced = spawn_leg(w, a.seed, ops, "traced")?;
        let base = spawn_leg(w, a.seed, 0, "traced")?;
        let cells = cells::run_all(w.shape(), cells::Scale::full(), out);
        println!("spans {}", out.join(format!("{}-seed{}.trace.json", w.name(), a.seed)).display());
        let values = report::per_layer_values(&plain, &traced, &base, &cells);
        (vec![plain, traced, base], &PER_LAYER, values)
    } else {
        let legs =
            (0..LEGS).map(|_| spawn_leg(w, a.seed, ops, "plain")).collect::<Result<Vec<_>, _>>()?;
        for (i, l) in legs.iter().enumerate() {
            println!(
                "leg {i}: {ops} ops in {:.3} s after {:.3} s of set-up",
                l.get("leg.wall_s").unwrap_or(f64::NAN),
                l.get("setup_s").unwrap_or(f64::NAN)
            );
        }
        let values = report::run_values(&legs);
        (legs, &END_TO_END, values)
    };
    print!("{}", report::table(defs, &values));
    if !a.trace {
        print!("not gated:\n{}", report::table(&TIMED, &values));
    }
    let (correct, attempted, failed) = judge(&legs);
    let line = report::result_line(correct, attempted, failed, defs, &values)
        .ok_or("a metric has no finite value: no result")?;
    println!("attempted {attempted} failed {failed} correct {correct}");
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("repeat") => repeat::main(&args[1..]),
        Some("leg") => leg_main(&args[1..]),
        _ => match run(&parse(&args)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(3)
            }
        },
    }
}
