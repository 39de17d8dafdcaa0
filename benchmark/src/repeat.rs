//! `repeat`: the evidence that two sets of runs of one binary agree.
//!
//! Runs every workload `2 × N` times as child processes of this same
//! executable (exactly what the acceptance driver launches), alternating
//! which set a run belongs to, each run on a seed of its own, and prints
//! for every end-to-end metric, and for the timed totals a run reports
//! beside them, both sets' medians and quartiles, the spread between
//! quartiles as a share of the median, the difference between the sets,
//! and the bound from `BENCHMARK.json`.

use std::process::{Command, ExitCode};

use crate::report::{table_value, Workload, END_TO_END, RUN_SECONDS, TIMED};
use crate::stats::{median, quartiles};

/// One end-to-end run as a child process; its standard output.
fn one_run(w: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} seed {seed}: {}", w.name(), String::from_utf8_lossy(&out.stderr)));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `(q3 − q1) / median`, the acceptance rule's spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The sum over a set of the number after `key` on the run's line that
/// starts with `line` ("attempted 9 failed 0 …", "retried 0 requests …").
fn total(set: &[String], line: &str, key: &str) -> u64 {
    set.iter()
        .filter_map(|out| {
            let words: Vec<&str> = out.lines().find(|l| l.starts_with(line))?.split(' ').collect();
            words.iter().position(|w| *w == key).and_then(|i| words.get(i + 1)?.parse::<u64>().ok())
        })
        .sum()
}

/// Entry point of the subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let (mut runs, mut seconds, mut only) = (3usize, RUN_SECONDS as f64, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str).unwrap_or("");
        match flag.as_str() {
            "--runs" => runs = value.parse().unwrap_or(0),
            "--seconds" => seconds = value.parse().unwrap_or(0.0),
            "--workload" => only = Workload::parse(value),
            _ => runs = 0,
        }
    }
    if runs < 2 || seconds <= 0.0 {
        eprintln!("usage: repeat [--runs N>=2] [--seconds S] [--workload NAME]");
        return ExitCode::from(2);
    }
    println!("two sets of {runs} runs, alternating, {seconds} s each, seeds 1..{}\n", 2 * runs);
    println!("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | spread A | spread B | B vs A | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * runs {
            match one_run(w, 1 + i as u64, seconds) {
                Ok(stdout) => sets[i % 2].push(stdout),
                Err(e) => {
                    eprintln!("run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let counts = |set: &[String]| {
            format!(
                "{} of {} ({} requests retried)",
                total(set, "attempted ", "failed"),
                total(set, "attempted ", "attempted"),
                total(set, "retried ", "retried")
            )
        };
        println!(
            "| {} | operations failed of attempted | {} | {} | | | | 0 failed |",
            w.name(),
            counts(&sets[0]),
            counts(&sets[1])
        );
        for d in END_TO_END.iter().chain(&TIMED) {
            let column = |set: &[String]| -> Vec<f64> {
                set.iter().filter_map(|out| table_value(out, d.name)).collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                continue; // the workload does not report this metric
            }
            let cell = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            // Positive = set B worse than set A, in the metric's own sense.
            let sign = if d.better == "lower" { 1.0 } else { -1.0 };
            let worse = sign * (median(&b) - median(&a)) / median(&a);
            println!(
                "| {} | {} ({}) | {} | {} | {:.1} % | {:.1} % | {:+.1} % | {} |",
                w.name(),
                d.name,
                d.unit,
                cell(&a),
                cell(&b),
                100.0 * spread(&a),
                100.0 * spread(&b),
                100.0 * worse,
                d.bound.map_or("not gated".to_owned(), |b| format!("{:.0} %", 100.0 * b))
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_read_from_the_runs_own_lines() {
        let run = |r, f| {
            format!(
                "x\nretried {r} requests of 9 operations\nattempted 9 failed {f} correct true\n"
            )
        };
        let set = [run(2, 0), run(1, 1)];
        assert_eq!(total(&set, "attempted ", "attempted"), 18);
        assert_eq!(total(&set, "attempted ", "failed"), 1);
        assert_eq!(total(&set, "retried ", "retried"), 3);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
