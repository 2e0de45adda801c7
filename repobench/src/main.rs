//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics traced).  A traced run also writes its
//! spans to `out/<workload>-<seed>.spans.tsv` in the package directory.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use repobench::measure::{Progress, Watchdog};
use repobench::report::{self, Outcome};
use repobench::spec::{Spec, Workload};
use repobench::Run;

/// No op answered for this long, while ops are due, ends the run.
const STALL_AFTER: Duration = Duration::from_secs(5);
/// A run that outlives this is ended, whatever it is doing.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Set once the result line is out, so a late watchdog cannot print a
/// second one.
static RESULT_PRINTED: Mutex<bool> = Mutex::new(false);

fn print_result(outcome: &Outcome) {
    let mut printed = RESULT_PRINTED.lock().unwrap_or_else(|e| e.into_inner());
    if !*printed {
        *printed = true;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "{}", outcome.json());
        let _ = stdout.flush();
    }
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("repobench: {error}");
    eprintln!(
        "usage: repobench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required, with a valid value");
    };

    println!(
        "{}",
        report::provenance(workload.name(), seed, seconds, trace)
    );
    let metric_names: Vec<&'static str> = if trace {
        report::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        report::END_TO_END.iter().map(|m| m.0).collect()
    };
    let progress = Arc::new(Progress::default());
    let watchdog = Watchdog::spawn(
        Arc::clone(&progress),
        STALL_AFTER,
        HARD_LIMIT,
        move |stall| {
            eprintln!("repobench: stalled: {}", stall.reason);
            let mut outcome = Outcome {
                attempted: stall.attempted.max(1),
                failed: stall.failed_ops().max(1),
                ..Outcome::default()
            };
            for name in metric_names {
                outcome.metrics.set(name, 0.0);
            }
            outcome.errors.push(stall.reason);
            print_result(&outcome);
            std::process::exit(0);
        },
    );

    let run = Run {
        spec: Spec::full(workload),
        seed,
        seconds: seconds as f64,
        trace,
    };
    let finished = repobench::run(&run, &progress);
    drop(watchdog);

    let outcome = &finished.outcome;
    for error in &outcome.errors {
        eprintln!("repobench: check failed: {error}");
    }
    if trace {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-{seed}.spans.tsv", workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                finished.spans.write_tsv(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => eprintln!(
                "repobench: {} spans written to {}",
                finished.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "repobench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    } else {
        let rates: Vec<String> = outcome
            .window_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        eprintln!(
            "repobench: {} latency samples; per-window rates {}",
            outcome.latency_samples,
            rates.join(" ")
        );
    }
    print_result(outcome);
    ExitCode::SUCCESS
}
