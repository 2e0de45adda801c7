//! Crash-aware recording and durable-linearizability checking for
//! crashkv's durable service.
//!
//! # The welded history
//!
//! A durable run is not one execution but several, separated by crashes:
//! each shard may die and be recovered mid-run.  Because a crashed shard's
//! owner heals it *in place* (same service, same [`Clock`]), the pre- and
//! post-crash operations of every thread land in one event log with one
//! shared tick order — the histories are **welded** at recording time, and
//! the crash instants appear implicitly as the intervals of the operations
//! that aborted.
//!
//! # The durability rule
//!
//! Over a welded history, *durable linearizability* is ordinary
//! linearizability plus one clause about the crash window:
//!
//! * every **acknowledged** write took effect and survives recovery — an
//!   acked operation records its normal result and stays a mandatory
//!   [`crate::checker`] action, so a post-crash read missing an acked
//!   write is a violation;
//! * an **unacknowledged** write (the router returned
//!   [`crashkv::Crashed`]) either linearized at the crash or vanished —
//!   it records [`OpResult::Aborted`] and becomes an *optional* action the
//!   search may apply or discard, but never resurrect after its absence
//!   was observed.
//!
//! [`DurableRecorder`] produces exactly such histories from a
//! [`DurableRouter`] session; [`check_durable`] runs the checker over the
//! weld.

use std::sync::Arc;

use crashkv::{Crashed, DurableRouter};

use crate::checker::{check, CheckConfig, Outcome};
use crate::history::{Clock, History, OpKind, OpRecord, OpResult};

/// A recording wrapper around a crashkv [`DurableRouter`] session.
///
/// Mirrors [`crate::RouterRecorder`] for the durable service: every
/// blocking call is logged with invoke/response ticks from the shared
/// [`Clock`], recording the value on acknowledgement and
/// [`OpResult::Aborted`] when the shard crashed before the covering group
/// fence.  The error is passed back to the caller either way, so workloads
/// can retry.
pub struct DurableRecorder {
    inner: DurableRouter,
    thread: u32,
    clock: Arc<Clock>,
    ops: Vec<OpRecord>,
}

impl DurableRecorder {
    /// Wraps `router`, logging under thread id `thread` against `clock`.
    pub fn new(router: DurableRouter, thread: u32, clock: Arc<Clock>) -> Self {
        Self {
            inner: router,
            thread,
            clock,
            ops: Vec::new(),
        }
    }

    /// Finishes recording, returning this thread's log.
    pub fn finish(self) -> Vec<OpRecord> {
        self.ops
    }

    fn record(
        &mut self,
        kind: OpKind,
        run: impl FnOnce(&mut DurableRouter) -> Result<Option<u64>, Crashed>,
    ) -> Result<Option<u64>, Crashed> {
        let invoke = self.clock.tick();
        let outcome = run(&mut self.inner);
        let response = self.clock.tick();
        let result = match outcome {
            Ok(value) => OpResult::Value(value),
            Err(Crashed) => OpResult::Aborted,
        };
        self.ops.push(OpRecord {
            thread: self.thread,
            kind,
            result,
            invoke,
            response,
        });
        outcome
    }

    /// Recorded durable `get`.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        self.record(OpKind::Get { key }, |r| r.get(key))
    }

    /// Recorded durable `put` (insert-if-absent).
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, Crashed> {
        self.record(OpKind::Insert { key, value }, |r| r.put(key, value))
    }

    /// Recorded durable `delete`.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        self.record(OpKind::Delete { key }, |r| r.delete(key))
    }
}

/// Checks a welded pre/post-crash history for durable linearizability.
///
/// The weld is already in the history (see the module docs), and the
/// crash-window rule is carried by the [`OpResult::Aborted`] records, so
/// this is the ordinary checker run under the point-op configuration the
/// durable service warrants: shards promise no cross-shard atomicity and
/// the durable router exposes no scans, hence non-snapshot semantics.
pub fn check_durable(history: &History, config: &CheckConfig) -> Outcome {
    debug_assert!(
        !config.snapshot_scans,
        "the durable service has no snapshot scans to model"
    );
    check(history, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crashkv::DurableKvService;

    #[test]
    fn durable_recorder_round_trips_and_records() {
        let mut service = DurableKvService::new(2, 4);
        let clock = Clock::new();
        let mut rec = DurableRecorder::new(service.router(), 0, Arc::clone(&clock));
        assert_eq!(rec.put(1, 10), Ok(None));
        assert_eq!(rec.put(1, 11), Ok(Some(10)));
        assert_eq!(rec.get(1), Ok(Some(10)));
        assert_eq!(rec.delete(1), Ok(Some(10)));
        assert_eq!(rec.get(1), Ok(None));
        let ops = rec.finish();
        service.shutdown();
        assert_eq!(ops.len(), 5);
        for pair in ops.windows(2) {
            assert!(pair[0].invoke < pair[0].response);
            assert!(pair[0].response < pair[1].invoke);
        }
        let history = History::merge(vec![ops]);
        assert!(matches!(
            check_durable(&history, &CheckConfig::default()),
            Outcome::Linearizable
        ));
    }

    #[cfg(not(feature = "lost-ack"))]
    #[test]
    fn crashed_operations_record_aborted_and_still_check() {
        let mut service = DurableKvService::new(1, 1_000);
        service.inject_crash(
            0,
            crashkv::CrashSpec {
                after_boundaries: 0,
                survivor_seed: 3,
                torn_insert: false,
                dirty_link: false,
            },
        );
        let clock = Clock::new();
        let mut rec = DurableRecorder::new(service.router(), 0, Arc::clone(&clock));
        let mut aborted = 0;
        for k in 1..=40u64 {
            if rec.put(k, k).is_err() {
                aborted += 1;
            }
        }
        while service.crash_count(0) == 0 {
            std::thread::yield_now();
        }
        // Post-crash verification reads of every key, recorded in the same
        // welded history.
        for k in 1..=40u64 {
            rec.get(k).unwrap();
        }
        let history = History::merge(vec![rec.finish()]);
        service.shutdown();
        assert!(
            history
                .ops
                .iter()
                .filter(|op| op.result == OpResult::Aborted)
                .count()
                == aborted
        );
        let outcome = check_durable(&history, &CheckConfig::default());
        assert!(
            matches!(outcome, Outcome::Linearizable),
            "{outcome:?}\n{}",
            history.render()
        );
    }
}
