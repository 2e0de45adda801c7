//! The repository benchmark: four seeded workloads over the Elim-ABtree
//! (`abtree`/`abebr`), the shard service (`kvserve` and its codec), the
//! TCP front end (`netserve`) and the durable shards (`crashkv` over
//! `pabtree`/`abpmem`).  See `README.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! Everything here calls the crates' public API only; the spans of a
//! traced run are timed around those calls from this package.

pub mod check;
pub mod hops;
pub mod measure;
pub mod report;
pub mod spec;
pub mod workloads;

use std::time::Instant;

use check::{Expected, SpanLog, Tally};
use measure::{median, peak_rss_mb, ratio, Progress};
use report::{Metrics, Outcome};
use spec::{Spec, Stream, Workload};
use workloads::{DurableTarget, KvTarget, NetTarget, Target, Timing, TreeTarget};

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Run {
    pub spec: Spec,
    pub seed: u64,
    /// Length of the timed load, split in two halves by a traced run.
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run: its result line and, for a traced run, its spans.
#[derive(Debug)]
pub struct Finished {
    pub outcome: Outcome,
    pub spans: SpanLog,
}

/// Generates the run's inputs, then sets up, loads and checks its workload.
pub fn run(run: &Run, progress: &Progress) -> Finished {
    if run.spec.workload == Workload::DurableGroupCommit {
        abpmem::set_mode(spec::PMEM_MODE);
    }
    let keys = spec::prefill_keys(&run.spec, run.seed);
    let streams: Vec<Stream> = (0..run.spec.threads)
        .map(|thread| spec::stream(&run.spec, run.seed, thread))
        .collect();
    match run.spec.workload {
        Workload::TreeZipfUpdate => drive::<TreeTarget>(run, &keys, &streams, progress),
        Workload::KvZipfRead => drive::<KvTarget>(run, &keys, &streams, progress),
        Workload::NetUniformRtt => drive::<NetTarget>(run, &keys, &streams, progress),
        Workload::DurableGroupCommit => drive::<DurableTarget>(run, &keys, &streams, progress),
    }
}

fn drive<T: Target>(run: &Run, keys: &[u64], streams: &[Stream], progress: &Progress) -> Finished {
    let spec = &run.spec;
    let epoch = Instant::now();
    // Set up several times and report the median; the last instance is
    // the one loaded.  Each earlier one is torn down before the next.
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut target = None;
    for _ in 0..spec.setups.max(1) {
        drop(target.take());
        progress.arm(true);
        let start = Instant::now();
        target = Some(T::setup(spec, keys, progress));
        setup_s.push(start.elapsed().as_secs_f64());
        progress.arm(false);
    }
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("repobench: set-up times (s) {}", setups.join(" "));
    let mut target = target.expect("at least one set-up ran");

    let mut metrics = Metrics::default();
    let mut spans = SpanLog::new(epoch, usize::MAX);
    let mut tally = Tally::default();
    let mut latency_samples = 0;
    let mut window_rates = Vec::new();
    if run.trace {
        let timing = Timing::for_seconds(run.seconds / 2.0);
        let untraced = target.phase(spec, streams, progress, timing, false, epoch);
        let before = target.counters();
        let traced = target.phase(spec, streams, progress, timing, true, epoch);
        let after = target.counters();
        target.layer_metrics(&traced, &before, &after, &mut metrics);
        let (plain, with_spans) = (median(&untraced.rates), median(&traced.rates));
        metrics.set("trace.untraced_ops_per_s", plain);
        metrics.set(
            "trace.overhead_pct",
            ratio(plain - with_spans, plain) * 100.0,
        );
        tally.merge(&untraced.tally);
        tally.merge(&traced.tally);
        spans.absorb(traced.spans);
    } else {
        let mut phase = target.phase(
            spec,
            streams,
            progress,
            Timing::for_seconds(run.seconds),
            false,
            epoch,
        );
        latency_samples = phase.latency.len();
        window_rates = phase.rates.clone();
        metrics.set("ops_per_s", median(&phase.rates));
        metrics.set("p50_us", phase.latency.quantile(0.5) / 1e3);
        metrics.set("p90_us", phase.latency.quantile(0.90) / 1e3);
        metrics.set("setup_s", median(&setup_s));
        metrics.set("peak_rss_mb", peak_rss_mb());
        tally = phase.tally;
    }
    let mut checks = target.finish(Expected::after(keys, &tally));
    if run.trace {
        hops::waterfall(
            spec,
            run.seed,
            keys,
            progress,
            &mut spans,
            &mut checks,
            &mut metrics,
        );
        metrics.set("trace.spans", spans.len() as f64);
    }
    let mut outcome = Outcome {
        attempted: progress.attempted.load(std::sync::atomic::Ordering::SeqCst),
        failed: progress.failed.load(std::sync::atomic::Ordering::SeqCst),
        metrics,
        latency_samples,
        window_rates,
        ..Outcome::default()
    };
    outcome.conclude(checks);
    Finished { outcome, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Finished {
        let config = Run {
            spec: Spec::smoke(workload),
            seed: 11,
            seconds: 0.25,
            trace,
        };
        run(&config, &Progress::default())
    }

    #[test]
    fn every_workload_runs_at_smoke_size_and_validates() {
        for workload in Workload::ALL {
            let done = smoke(workload, false);
            let o = &done.outcome;
            assert!(o.correct, "{workload:?}: {:?}", o.errors);
            assert_eq!(o.failed, 0, "{workload:?}");
            let mut names = o.metrics.names();
            names.sort_unstable();
            let mut want: Vec<&str> = report::END_TO_END.iter().map(|m| m.0).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload:?}");
            for name in names {
                assert!(
                    o.metrics.get(name).unwrap() > 0.0,
                    "{workload:?}: {name} is 0"
                );
            }
            assert!(o.latency_samples > 0);
        }
    }

    #[test]
    fn every_traced_workload_reports_every_layer_metric() {
        for workload in Workload::ALL {
            let done = smoke(workload, true);
            let o = &done.outcome;
            assert!(o.correct, "{workload:?}: {:?}", o.errors);
            let mut names = o.metrics.names();
            names.sort_unstable();
            let mut want: Vec<&str> = report::PER_LAYER.iter().map(|m| m.0).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload:?}");
            assert!(!done.spans.is_empty());
        }
    }
}
