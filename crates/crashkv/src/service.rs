//! The durable sharded service: owner threads and the client-side router.
//!
//! ```text
//!            DurableRouter (one per client thread)
//!      get/put/delete          submit / collect_one
//!            │ SPSC job lane        │
//!            ▼                      ▼
//!   ┌─ shard 0 owner ─┐   ┌─ shard 1 owner ─┐   ...
//!   │ WalElimABTree   │   │ WalElimABTree   │
//!   │ group fence ack │   │ group fence ack │
//!   │ crash (Down) →  │   │ crash (Down) →  │
//!   │ recover → Up    │   │ recover → Up    │
//!   └─────────────────┘   └─────────────────┘
//! ```
//!
//! Every shard is owned by exactly one thread; clients talk to it over the
//! SPSC lanes of [`kvserve::inbox`], and acknowledgements are
//! group-committed (see [`crate::shard`]).  A crashed owner recovers its
//! shard **in place**: it answers its unacked operations with [`Crashed`],
//! runs [`pabtree::recover`] over the shard's persistent image, records a
//! [`CrashReport`] and keeps serving the lanes it holds.  Routers never
//! block on a poisoned lock — new work simply queues until the shard is up
//! again.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use kvserve::inbox::RouterLane;
use kvserve::shard_index;
use obs::{Registry, Sample, StageTrace};
use pabtree::WalElimABTree;

use crate::crash::{CrashReport, CrashSpec, Crashed};
use crate::shard::{run_shard_owner, ShardCell, ShardJob, ShardReply, ShardState, ShardStatus};

/// A durable sharded key/value service whose shards recover from injected
/// crashes in place.
///
/// Compared to `kvserve::KvService` the shards are persistent
/// ([`WalElimABTree`]: per-operation flushes, group fences), the
/// acknowledgement batching knob `acks_per_fence` trades ack latency for
/// fence rate, and a crashed shard heals instead of poisoning the service.
pub struct DurableKvService {
    shards: Arc<Vec<Arc<ShardCell>>>,
    owners: Vec<JoinHandle<()>>,
    crash_log: Arc<Mutex<Vec<CrashReport>>>,
    /// Pull-based metric registry: per-shard durability counters
    /// (`durable_*`) and the fence-stage latency histogram register at
    /// construction; render it (or graft it into a larger spine) for a
    /// crash-aware health scrape.
    registry: Arc<Registry>,
    trace: Arc<StageTrace>,
}

impl DurableKvService {
    /// Builds a service with `shard_count` durable shards, releasing client
    /// acknowledgements in groups of up to `acks_per_fence` per fence
    /// (1 = fence per operation; larger groups amortize the fence but delay
    /// acks — the axis `bench_durable` sweeps).
    pub fn new(shard_count: usize, acks_per_fence: u32) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        let trace = Arc::new(StageTrace::new());
        let crash_log = Arc::new(Mutex::new(Vec::new()));
        let shards: Arc<Vec<Arc<ShardCell>>> = Arc::new(
            (0..shard_count)
                .map(|index| {
                    Arc::new(ShardCell {
                        index,
                        tree: WalElimABTree::new(),
                        state: ShardState::new(),
                        trace: Arc::clone(&trace),
                        crash_log: Arc::clone(&crash_log),
                    })
                })
                .collect(),
        );
        let owners = shards
            .iter()
            .map(|cell| {
                let cell = Arc::clone(cell);
                std::thread::Builder::new()
                    .name(format!("crashkv-shard-{}", cell.index))
                    .spawn(move || run_shard_owner(cell, acks_per_fence))
                    .expect("failed to spawn shard owner")
            })
            .collect();
        let registry = Arc::new(Registry::new());
        {
            let cells = Arc::clone(&shards);
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    let state = &cell.state;
                    out.push(
                        Sample::counter(
                            "durable_boundaries_total",
                            state.boundaries.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                    out.push(
                        Sample::counter(
                            "durable_fences_total",
                            state.fences.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                    out.push(
                        Sample::counter(
                            "durable_crashes_total",
                            state.crashes.load(Ordering::Relaxed),
                        )
                        .with("shard", index),
                    );
                    let up = matches!(state.status(), ShardStatus::Up);
                    out.push(Sample::gauge("durable_shard_up", u64::from(up)).with("shard", index));
                }
            });
        }
        {
            let trace = Arc::clone(&trace);
            registry.register(move |out| trace.collect(out));
        }
        Self {
            shards,
            owners,
            crash_log,
            registry,
            trace,
        }
    }

    /// Opens a client router (one SPSC lane pair per shard).  Any number of
    /// routers may be open concurrently; each belongs to one client thread.
    pub fn router(&self) -> DurableRouter {
        DurableRouter {
            shards: Arc::clone(&self.shards),
            lanes: self.shards.iter().map(|cell| cell.state.inbox.open()).collect(),
            pending: VecDeque::new(),
            completed: VecDeque::new(),
        }
    }

    /// Arms a crash on `shard` (see [`CrashSpec`]).  The crash fires at the
    /// chosen group-fence boundary; the owner then recovers and heals the
    /// shard in place.  At most one directive is armed per shard at a time — a
    /// second call overwrites an unfired first.
    pub fn inject_crash(&self, shard: usize, spec: CrashSpec) {
        self.shards[shard].state.arm_crash(spec);
    }

    /// The service's metric registry.  Per-shard durability counters
    /// (`durable_boundaries_total`, `durable_fences_total`,
    /// `durable_crashes_total`, the `durable_shard_up` gauge) and the
    /// stage trace register at construction; callers may register further
    /// sources or graft [`Registry::snapshot`] output into a larger scrape.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The stage trace the shard owners record group-fence spans into
    /// (`stage_latency_ns{stage="fence"}` in the scrape).
    pub fn stage_trace(&self) -> &Arc<StageTrace> {
        &self.trace
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` (same Fibonacci-hash placement as
    /// `kvserve`, so sharding stays comparable across the two services).
    pub fn shard_of(&self, key: u64) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Completed crash + recovery cycles on `shard`.
    pub fn crash_count(&self, shard: usize) -> u64 {
        self.shards[shard].state.crashes.load(Ordering::SeqCst)
    }

    /// Group-fence boundaries `shard` has completed (every boundary is an
    /// ack-release point; read-only boundaries skip the physical fence).
    pub fn boundaries(&self, shard: usize) -> u64 {
        self.shards[shard].state.boundaries.load(Ordering::SeqCst)
    }

    /// Physical group fences `shard` has issued.
    pub fn fences(&self, shard: usize) -> u64 {
        self.shards[shard].state.fences.load(Ordering::SeqCst)
    }

    /// Snapshot of every recorded [`CrashReport`], in recovery order.
    pub fn crash_reports(&self) -> Vec<CrashReport> {
        self.crash_log.lock().expect("crash log poisoned").clone()
    }

    /// Total keys across all shards.  Quiescent use only (tests, benches).
    pub fn total_keys(&self) -> u64 {
        self.shards.iter().map(|cell| cell.tree.stats().keys).sum()
    }

    /// Structural invariant check over every shard tree.  Quiescent only.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (idx, cell) in self.shards.iter().enumerate() {
            cell.tree
                .check_invariants()
                .map_err(|e| format!("shard {idx}: {e}"))?;
        }
        Ok(())
    }

    /// Stops and joins every owner.  Requires all routers to be dropped
    /// (or at least quiescent): owners drain their lanes before exiting,
    /// and nothing re-arms after shutdown.  Idempotent; also runs on
    /// `Drop`.
    pub fn shutdown(&mut self) {
        for cell in self.shards.iter() {
            cell.state.inbox.begin_shutdown();
        }
        for owner in self.owners.drain(..) {
            // A panicked owner already surfaced as a router panic; the join
            // result adds nothing (and must not double-panic in drop).
            let _ = owner.join();
        }
    }
}

impl Drop for DurableKvService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One operation for the pipelined router path.
#[derive(Debug, Clone, Copy)]
pub enum DurableOp {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Insert-if-absent.
    Put {
        /// Key to insert.
        key: u64,
        /// Value to associate.
        value: u64,
    },
    /// Point removal.
    Delete {
        /// Key to remove.
        key: u64,
    },
}

/// A client handle: routes operations to their shard over SPSC lanes.
///
/// Two usage styles, freely mixable:
///
/// * **Blocking** — [`get`](Self::get) / [`put`](Self::put) /
///   [`delete`](Self::delete) wait for the acknowledgement, i.e. for the
///   covering group fence.  `Ok` means the effect is durable; [`Crashed`]
///   means the shard crashed first and the operation may or may not have
///   taken effect (retry at will).
/// * **Pipelined** — [`submit`](Self::submit) queues without waiting (so
///   group commits actually fill) and [`collect_one`](Self::collect_one)
///   harvests acknowledgements in submission order.
pub struct DurableRouter {
    shards: Arc<Vec<Arc<ShardCell>>>,
    lanes: Vec<RouterLane<ShardJob, ShardReply>>,
    /// Shard index of each in-flight pipelined operation, submission order.
    pending: VecDeque<usize>,
    /// Results harvested early (by a blocking call) but not yet collected.
    completed: VecDeque<Result<Option<u64>, Crashed>>,
}

impl DurableRouter {
    /// Durable point lookup (blocks for the covering group fence).
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        let shard = shard_index(key, self.shards.len());
        self.call(shard, ShardJob::Get { key })
    }

    /// Durable insert-if-absent; `Ok(prior)` is fenced before release.
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, Crashed> {
        let shard = shard_index(key, self.shards.len());
        self.call(shard, ShardJob::Put { key, value })
    }

    /// Durable removal; `Ok(removed)` is fenced before release.
    pub fn delete(&mut self, key: u64) -> Result<Option<u64>, Crashed> {
        let shard = shard_index(key, self.shards.len());
        self.call(shard, ShardJob::Delete { key })
    }

    /// Queues `op` without waiting for its acknowledgement.  `Err(op)`
    /// hands the operation back when its shard lane is at capacity — call
    /// [`collect_one`](Self::collect_one) and retry.
    pub fn submit(&mut self, op: DurableOp) -> Result<(), DurableOp> {
        let (shard, job) = match op {
            DurableOp::Get { key } => (shard_index(key, self.shards.len()), ShardJob::Get { key }),
            DurableOp::Put { key, value } => (
                shard_index(key, self.shards.len()),
                ShardJob::Put { key, value },
            ),
            DurableOp::Delete { key } => (
                shard_index(key, self.shards.len()),
                ShardJob::Delete { key },
            ),
        };
        if !self.push(shard, job) {
            return Err(op);
        }
        self.pending.push_back(shard);
        Ok(())
    }

    /// Blocks for the acknowledgement of the **oldest** in-flight pipelined
    /// operation; `None` when nothing is in flight.
    pub fn collect_one(&mut self) -> Option<Result<Option<u64>, Crashed>> {
        if let Some(result) = self.completed.pop_front() {
            return Some(result);
        }
        let shard = self.pending.pop_front()?;
        Some(self.pop_blocking(shard))
    }

    /// Pipelined operations whose acknowledgement has not been collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.completed.len()
    }

    fn call(&mut self, shard: usize, job: ShardJob) -> Result<Option<u64>, Crashed> {
        while !self.push(shard, job) {
            assert!(self.harvest_one(), "lane at capacity with nothing in flight");
        }
        // Drain every earlier pipelined ack into `completed` (order kept
        // for collect_one) so the next reply on this lane is ours.
        while self.harvest_one() {}
        self.pop_blocking(shard)
    }

    /// Moves the oldest pending ack into `completed`; false if none.
    fn harvest_one(&mut self) -> bool {
        let Some(shard) = self.pending.pop_front() else {
            return false;
        };
        let result = self.pop_blocking(shard);
        self.completed.push_back(result);
        true
    }

    /// Pushes one job if the per-shard in-flight cap allows; wakes the
    /// owner.  The cap keeps both rings within capacity by construction.
    fn push(&mut self, shard: usize, job: ShardJob) -> bool {
        self.lanes[shard].push(&self.shards[shard].state.inbox, job).is_ok()
    }

    /// Blocks for the next reply on `shard`'s lane.  A Down shard simply
    /// makes this wait until its owner has recovered it.
    fn pop_blocking(&mut self, shard: usize) -> Result<Option<u64>, Crashed> {
        match self.lanes[shard].pop() {
            ShardReply::Value(value) => Ok(value),
            ShardReply::Crashed => Err(Crashed),
        }
    }
}
