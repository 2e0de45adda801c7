//! Closed-loop load driver for the `crashkv` durable service: the
//! group-commit sweep with mid-load crash injection.
//!
//! Sweeps the ack-batching knob (`acks_per_fence` 1 → 64) against the shard
//! count under [`abpmem::PersistMode::Simulated`] with a cheap flush and an
//! expensive fence, so the fence amortization the knob buys is visible as
//! throughput.  Every cell also kills each shard exactly once mid-load
//! (torn partial insert and dirty link-and-persist mark included on
//! alternating shards) and lets its owner heal it in place, reporting:
//!
//! * acked throughput (operations whose durability fence completed,
//!   per microsecond, crash + recovery downtime included);
//! * the number of crash-aborted (unacknowledged) operations clients saw;
//! * `lost_unacked` — unfenced writes the crashes rolled back, i.e. work
//!   that vanished *without ever being acknowledged* (the durability
//!   contract: this count stays invisible to clients, who only ever saw
//!   `Crashed` for them);
//! * mean recovery time per crash, from the crash reports.
//!
//! Each cell prints a table row and a JSON row on stderr (the repository
//! keeps a recorded run checked in as `BENCH_durable.json`).
//!
//! Usage:
//!   cargo run -p setbench --release --bin bench_durable -- \[requests-per-client\] \[--threads N\]
//!   cargo run -p setbench --release --bin bench_durable -- --smoke

use std::time::Instant;

use crashkv::{CrashSpec, DurableKvService, DurableOp};

/// Pipelined in-flight window per client (the saturated regime: shard
/// owners always have a group's worth of work queued).
const WINDOW: usize = 32;
/// The ack-batching sweep: 1 is fence-per-operation, 64 is one fence per
/// full lane drain.
const GROUPS: [u32; 4] = [1, 4, 16, 64];
const SHARD_COUNTS: [usize; 2] = [1, 4];
const SEED: u64 = 0xD0_0B5E;

fn step(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

struct CellResult {
    acked: u64,
    aborted: u64,
    lost_unacked: usize,
    mean_recovery_ns: u128,
    fences: u64,
    boundaries: u64,
    secs: f64,
}

fn run_cell(shards: usize, acks_per_fence: u32, threads: usize, requests_per_client: u64) -> CellResult {
    let mut service = DurableKvService::new(shards, acks_per_fence);
    let universe = 4_096 * shards as u64;
    let started = Instant::now();
    let mut acked = 0u64;
    let mut aborted = 0u64;
    std::thread::scope(|scope| {
        let service = &service;
        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let mut router = service.router();
                scope.spawn(move || {
                    let mut s = SEED ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut acked = 0u64;
                    let mut aborted = 0u64;
                    let mut book = |reply: Result<Option<u64>, crashkv::Crashed>| match reply {
                        Ok(_) => acked += 1,
                        Err(_) => aborted += 1,
                    };
                    for _ in 0..requests_per_client {
                        let r = step(&mut s);
                        let key = 1 + r % universe;
                        let op = match r % 10 {
                            0..=5 => DurableOp::Put { key, value: r },
                            6..=7 => DurableOp::Delete { key },
                            _ => DurableOp::Get { key },
                        };
                        while router.in_flight() >= WINDOW {
                            book(router.collect_one().expect("window is non-empty"));
                        }
                        let mut op = op;
                        // A full lane sheds: drain the oldest reply, retry.
                        while let Err(back) = router.submit(op) {
                            op = back;
                            book(router.collect_one().expect("lane full implies in-flight"));
                        }
                    }
                    while let Some(reply) = router.collect_one() {
                        book(reply);
                    }
                    (acked, aborted)
                })
            })
            .collect();

        // Mid-load fault walk: kill every shard once and wait for the heal.
        for shard in 0..shards {
            service.inject_crash(
                shard,
                CrashSpec {
                    after_boundaries: 3,
                    survivor_seed: SEED ^ shard as u64,
                    torn_insert: shard % 2 == 0,
                    dirty_link: true,
                },
            );
            while service.crash_count(shard) == 0 {
                std::thread::yield_now();
            }
        }
        for worker in workers {
            let (a, b) = worker.join().expect("client panicked");
            acked += a;
            aborted += b;
        }
    });
    let secs = started.elapsed().as_secs_f64();

    let reports = service.crash_reports();
    assert_eq!(reports.len(), shards, "every shard crashes exactly once");
    for report in &reports {
        assert_eq!(report.survived + report.rolled_back, report.unfenced);
    }
    let lost_unacked = reports.iter().map(|r| r.rolled_back).sum();
    let mean_recovery_ns =
        reports.iter().map(|r| r.recovery.elapsed_ns).sum::<u128>() / reports.len() as u128;
    let (fences, boundaries) = (0..shards)
        .map(|s| (service.fences(s), service.boundaries(s)))
        .fold((0, 0), |(f, b), (sf, sb)| (f + sf, b + sb));
    service.shutdown();
    service.check_invariants().expect("recovered shards are structurally sound");
    CellResult {
        acked,
        aborted,
        lost_unacked,
        mean_recovery_ns,
        fences,
        boundaries,
        secs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let requests_per_client: u64 = if smoke {
        1_500
    } else {
        args.get(1)
            .filter(|a| !a.starts_with("--"))
            .and_then(|s| s.parse().ok())
            .unwrap_or(30_000)
    };
    // Cheap line flush, expensive fence: the regime where group commit
    // pays.  The sweep's signal is fences/op falling as the group grows.
    abpmem::set_mode(abpmem::PersistMode::Simulated {
        flush_ns: 5,
        fence_ns: 2_000,
    });

    println!(
        "{:<7} {:>10} {:>8} {:>10} {:>9} {:>12} {:>10} {:>13}",
        "shards", "acks/fence", "threads", "acked/us", "aborted", "lost-unacked", "fences", "recovery(us)"
    );
    for shards in SHARD_COUNTS {
        for group in GROUPS {
            let r = run_cell(shards, group, threads, requests_per_client);
            println!(
                "{:<7} {:>10} {:>8} {:>10.3} {:>9} {:>12} {:>10} {:>13.1}",
                shards,
                group,
                threads,
                r.acked as f64 / r.secs / 1e6,
                r.aborted,
                r.lost_unacked,
                r.fences,
                r.mean_recovery_ns as f64 / 1e3,
            );
            eprintln!(
                "{{\"experiment\":\"durable\",\"shards\":{shards},\"acks_per_fence\":{group},\
                 \"threads\":{threads},\"requests\":{},\"acked\":{},\"aborted\":{},\
                 \"lost_unacked\":{},\"fences\":{},\"boundaries\":{},\
                 \"mean_recovery_ns\":{},\"duration_secs\":{},\"acked_mops\":{},\
                 \"crashes\":{shards},\"validated\":true}}",
                requests_per_client * threads as u64,
                r.acked,
                r.aborted,
                r.lost_unacked,
                r.fences,
                r.boundaries,
                r.mean_recovery_ns,
                r.secs,
                r.acked as f64 / r.secs / 1e6,
            );
        }
    }
}
