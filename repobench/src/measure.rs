//! Measurement primitives: exact latency quantiles, windowed throughput,
//! peak memory, and the progress counters a stall watchdog reads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency samples in nanoseconds.  Quantiles are exact order statistics of
/// the recorded samples, not histogram bucket bounds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// The `q` quantile (nearest rank); 0 with no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        quantile(&mut self.0, q) as f64
    }
}

/// Nearest-rank `q` quantile of `values` (reordered in place); the
/// default value if empty.
pub fn quantile<T: Copy + Ord + Default>(values: &mut [T], q: f64) -> T {
    if values.is_empty() {
        return T::default();
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    *values.select_nth_unstable(rank).1
}

/// Latency samples of a load thread, one fixed-size uniform reservoir per
/// timed window, so memory does not grow with throughput.
#[derive(Clone, Debug)]
pub struct Windowed {
    windows: Vec<Vec<u64>>,
    seen: Vec<u64>,
    rng: u64,
}

/// Samples a reservoir keeps per window and load thread.
pub const RESERVOIR: usize = 1 << 15;

impl Windowed {
    pub fn new(windows: usize) -> Self {
        Self {
            windows: (0..windows)
                .map(|_| Vec::with_capacity(RESERVOIR))
                .collect(),
            seen: vec![0; windows],
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Records `ns` in window `window` (1-based, as [`Progress::window`]
    /// reports; window 0 is warm-up and is not recorded).
    #[inline]
    pub fn push(&mut self, window: usize, ns: u64) {
        let Some(slot) = window.checked_sub(1).filter(|&w| w < self.windows.len()) else {
            return;
        };
        self.seen[slot] += 1;
        let kept = &mut self.windows[slot];
        if kept.len() < RESERVOIR {
            kept.push(ns);
        } else {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let j = self.rng % self.seen[slot];
            if (j as usize) < RESERVOIR {
                kept[j as usize] = ns;
            }
        }
    }

    /// Pools another thread's samples into this one's, window by window.
    pub fn merge(&mut self, other: Windowed) {
        if self.windows.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
    }

    /// Samples kept, over all windows.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The median over windows of each window's `q` quantile, so a burst
    /// of outside load in one window moves it as little as it moves the
    /// windowed throughput.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q) as f64)
            .collect();
        median(&per_window)
    }
}

/// Median of `values`; 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Shared counters of one run's operations.  Load threads add to
/// `attempted` before issuing ops and to `completed` once they are
/// answered, so `attempted - completed` is what a stall leaves unanswered.
#[derive(Debug, Default)]
pub struct Progress {
    pub attempted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    /// The watchdog only judges stalls while armed (timed phases and
    /// prefills); validation walks and teardown run disarmed.
    pub armed: AtomicBool,
    /// Load threads run while this is false.
    pub stop: AtomicBool,
    /// The timed window under way: 0 during warm-up, then 1, 2, ...
    pub window: AtomicUsize,
}

impl Progress {
    #[inline]
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn complete(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn fail(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn window(&self) -> usize {
        self.window.load(Ordering::Relaxed)
    }

    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Resets the per-phase flags before load threads start.
    pub fn begin_phase(&self) {
        self.stop.store(false, Ordering::SeqCst);
        self.window.store(0, Ordering::SeqCst);
        self.arm(true);
    }
}

/// Runs a timed phase from the calling thread while load threads work:
/// `warmup` unrecorded, then `windows` windows of `window` each.  Returns
/// each window's completed-ops rate per second, then stops the load.
pub fn time_windows(
    progress: &Progress,
    warmup: Duration,
    window: Duration,
    windows: usize,
) -> Vec<f64> {
    std::thread::sleep(warmup);
    progress.window.store(1, Ordering::SeqCst);
    let mut rates = Vec::with_capacity(windows);
    let mut last_ops = progress.completed.load(Ordering::Relaxed);
    let mut last_at = Instant::now();
    let start = last_at;
    for i in 1..=windows {
        let due = start + window * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let ops = progress.completed.load(Ordering::Relaxed);
        let at = Instant::now();
        progress.window.store(i + 1, Ordering::SeqCst);
        rates.push((ops - last_ops) as f64 / at.duration_since(last_at).as_secs_f64());
        last_ops = ops;
        last_at = at;
    }
    progress.stop.store(true, Ordering::SeqCst);
    rates
}

/// What the watchdog saw when it ended a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stall {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub reason: String,
}

impl Stall {
    /// Failed ops: those that failed outright plus every unanswered one.
    pub fn failed_ops(&self) -> u64 {
        self.failed + self.attempted.saturating_sub(self.completed)
    }
}

/// Ends a run that stops making progress: while [`Progress::armed`], no
/// newly completed op for `stall_after` is a stall, and so is the whole
/// run outliving `hard_limit`.  `on_stall` runs once, on the watchdog
/// thread; the benchmark's handler reports the run as failed and exits.
pub struct Watchdog {
    done: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn spawn(
        progress: Arc<Progress>,
        stall_after: Duration,
        hard_limit: Duration,
        on_stall: impl FnOnce(Stall) + Send + 'static,
    ) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let thread = {
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name("repobench-watchdog".into())
                .spawn(move || {
                    let born = Instant::now();
                    let mut seen = progress.completed.load(Ordering::Relaxed);
                    let mut seen_at = Instant::now();
                    let poll = (stall_after / 10)
                        .clamp(Duration::from_millis(1), Duration::from_millis(50));
                    while !done.load(Ordering::SeqCst) {
                        std::thread::sleep(poll);
                        let now = progress.completed.load(Ordering::Relaxed);
                        if now != seen || !progress.armed.load(Ordering::SeqCst) {
                            seen = now;
                            seen_at = Instant::now();
                        }
                        let reason = if seen_at.elapsed() >= stall_after {
                            format!("no op completed for {stall_after:?}")
                        } else if born.elapsed() >= hard_limit {
                            format!("run exceeded {hard_limit:?}")
                        } else {
                            continue;
                        };
                        on_stall(Stall {
                            attempted: progress.attempted.load(Ordering::SeqCst),
                            completed: progress.completed.load(Ordering::SeqCst),
                            failed: progress.failed.load(Ordering::SeqCst),
                            reason,
                        });
                        return;
                    }
                })
                .expect("spawn the watchdog thread")
        };
        Self {
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        let mut signed = vec![-3i64, 5, -1];
        assert_eq!(quantile(&mut signed, 0.5), -1);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn reservoirs_stay_bounded_and_report_the_median_window() {
        let mut w = Windowed::new(3);
        for ns in 0..(RESERVOIR as u64 * 4) {
            w.push(1, 1_000 + ns % 10);
        }
        w.push(0, 1);
        w.push(2, 5);
        w.push(3, 7);
        w.push(4, 9);
        assert_eq!(w.len(), RESERVOIR + 2);
        assert_eq!(w.quantile(0.5), 7.0);
    }

    #[test]
    fn an_op_that_outlives_the_deadline_trips_the_watchdog() {
        let progress = Arc::new(Progress::default());
        let (tx, rx) = mpsc::channel();
        let _dog = Watchdog::spawn(
            Arc::clone(&progress),
            Duration::from_millis(100),
            Duration::from_secs(60),
            move |stall| tx.send(stall).expect("test receiver alive"),
        );
        progress.begin_phase();
        // Three ops answered, then a fake op that never returns in time.
        progress.attempt(3);
        progress.complete(3);
        progress.attempt(1);
        let stall = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the watchdog reports the stall");
        assert_eq!(stall.attempted, 4);
        assert_eq!(stall.completed, 3);
        assert_eq!(stall.failed_ops(), 1);
    }

    #[test]
    fn a_disarmed_pause_is_not_a_stall() {
        let progress = Arc::new(Progress::default());
        let (tx, rx) = mpsc::channel();
        let _dog = Watchdog::spawn(
            Arc::clone(&progress),
            Duration::from_millis(50),
            Duration::from_secs(60),
            move |stall| tx.send(stall).expect("test receiver alive"),
        );
        progress.attempt(1);
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
    }
}
