//! The sharded service, its shard-owner workers, and the per-client
//! routers.
//!
//! A [`KvService`] owns `S` independent engine instances (*shards*).  Each
//! shard is owned by exactly one dedicated worker thread (the private
//! `worker` module) that opens the shard's single long-lived
//! [`abtree::MapHandle`] and executes every operation that touches the
//! shard, so the tree's EBR epoch and hot cache lines stay put.  Keys are
//! spread over shards with a multiplicative hash, so contiguous hot key
//! ranges (Zipfian traffic) still fan out — but a *single* hot key
//! concentrates on one shard, which is the hot-shard regime the load
//! driver exercises.
//!
//! All request traffic flows through per-client [`ShardRouter`] sessions.
//! A router is a thin enqueue/await layer: it owns one pair of bounded
//! SPSC lanes ([`crate::inbox`]) per shard, splits `MGet`/`MPut` into
//! shard-local sub-batches, pushes them to the owning workers (fanning out
//! before collecting, so shards execute concurrently), and reassembles the
//! completions in input order.  In front of the queues sits a per-router
//! hot-key read cache ([`crate::cache`]) validated by the shards' mutation
//! counters, so the top of the Zipf curve never crosses a lane at all.
//!
//! Two request interfaces share the lanes:
//!
//! * the **blocking** methods ([`get`](ShardRouter::get),
//!   [`mget`](ShardRouter::mget), ...) — one call, one completed result;
//! * the **pipelined** pair [`submit`](ShardRouter::submit) /
//!   [`collect`](ShardRouter::collect) for point requests, which keeps up
//!   to [`LANE_CAPACITY`] requests per shard in flight and returns
//!   [`Overloaded`] — never blocks — when a lane is full.  The two styles
//!   must not be interleaved: blocking calls assert that nothing is in
//!   flight.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use abtree::{ConcurrentMap, KeySum};
use obs::{Histogram, Registry, Sample, Stage, StageRecorder, StageTrace, Stamp};

use crate::cache::ReadCache;
use crate::inbox::RouterLane;
use crate::request::{Request, Response};
use crate::stats::ServiceStats;
use crate::worker::{run_shard_owner, Job, Reply, ShardCell, ShardJob, ShardReply, ShardState};

pub use crate::inbox::LANE_CAPACITY;

/// What a shard must provide: per-thread sessions ([`ConcurrentMap`]) plus
/// quiescent key-sum validation ([`KeySum`]).
///
/// Blanket-implemented for every `ConcurrentMap + KeySum` type, which
/// includes the benchmark registry's `Box<dyn Benchable>` values — so any
/// registry structure can serve as a shard.
pub trait ShardStore: ConcurrentMap + KeySum {}

impl<T: ConcurrentMap + KeySum + ?Sized> ShardStore for T {}

/// Point requests are stage-traced one in `2^TRACE_SAMPLE_SHIFT`: dense
/// enough to fill the per-stage latency histograms within seconds of real
/// load, sparse enough that the extra clock reads stay far inside the
/// telemetry budget on the pipelined hot path.
const TRACE_SAMPLE_SHIFT: u32 = 4;

/// Backpressure signal of [`ShardRouter::submit`]: the target shard's lane
/// already holds [`LANE_CAPACITY`] uncollected requests from this router.
/// The request was **not** enqueued; collect completions (or shed the
/// request — the wire codec can answer [`Response::Overloaded`]) and
/// retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard lane full: {LANE_CAPACITY} requests already in flight")
    }
}

impl std::error::Error for Overloaded {}

/// Startup failure of [`KvService::try_new`]: a shard-owner thread could
/// not open its store session because the store's SMR collector is out of
/// registration slots ([`abebr::MAX_THREADS`]).  The partially started
/// service has already been torn down when this is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStartupError {
    /// Index of the first shard whose owner failed to register.
    pub shard: usize,
}

impl std::fmt::Display for ShardStartupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} owner could not register a reclamation session \
             (collector slot capacity exhausted)",
            self.shard
        )
    }
}

impl std::error::Error for ShardStartupError {}

/// A sharded, batched, embedded key-value service (see the module docs).
pub struct KvService {
    shards: Vec<Arc<ShardCell>>,
    owners: Vec<JoinHandle<()>>,
    stats: Arc<ServiceStats>,
    /// The telemetry spine: every subsystem of the service (operation
    /// counters, stage trace, per-shard EBR health) registers a pull
    /// source here, and front ends layered on top add their own.
    registry: Arc<Registry>,
    /// The per-request stage trace the routers and shard owners record
    /// into (sampled; see [`TRACE_SAMPLE_SHIFT`]).
    trace: Arc<StageTrace>,
}

impl KvService {
    /// Builds a service with `shards` shards and `namespace_slots`
    /// namespace-stat rows (both clamped to at least 1), constructing each
    /// shard with `factory` (called with the shard index) and spawning its
    /// owner thread.
    ///
    /// The factory returns boxed [`ShardStore`]s, so shards can be concrete
    /// trees (`Box::new(ElimABTree::new())`) or registry-built trait objects
    /// (`Box::new(make_structure(name))`).
    pub fn new(
        shards: usize,
        namespace_slots: usize,
        factory: impl FnMut(usize) -> Box<dyn ShardStore>,
    ) -> Self {
        Self::try_new(shards, namespace_slots, factory)
            .expect("kvserve: shard owner failed to start")
    }

    /// Like [`KvService::new`], but reports shard-owner startup failure
    /// (a store whose SMR collector has no free registration slots) as an
    /// error instead of panicking.  On failure the already-spawned owners
    /// are shut down and joined before returning.
    pub fn try_new(
        shards: usize,
        namespace_slots: usize,
        mut factory: impl FnMut(usize) -> Box<dyn ShardStore>,
    ) -> Result<Self, ShardStartupError> {
        let trace = Arc::new(StageTrace::new());
        let shards: Vec<Arc<ShardCell>> = (0..shards.max(1))
            .map(|index| {
                Arc::new(ShardCell {
                    store: factory(index),
                    state: ShardState::new(),
                    trace: Arc::clone(&trace),
                })
            })
            .collect();
        let stats = Arc::new(ServiceStats::new(shards.len(), namespace_slots.max(1)));
        let registry = Arc::new(Registry::new());
        {
            let stats = Arc::clone(&stats);
            registry.register(move |out| stats.collect(out));
        }
        {
            let trace = Arc::clone(&trace);
            registry.register(move |out| trace.collect(out));
        }
        {
            // Per-shard engine health, pulled live at scrape time: the
            // applied-mutation version, the owner's drain-run distribution,
            // and the EBR reclamation-lag gauges from each shard's
            // collector (when the store exposes one).
            let cells = shards.clone();
            registry.register(move |out| {
                for (index, cell) in cells.iter().enumerate() {
                    out.push(
                        Sample::gauge("kv_shard_version", cell.state.current_version())
                            .with("shard", index),
                    );
                    out.push(
                        Sample::histogram("kv_run_length", &cell.state.run_length)
                            .with("shard", index),
                    );
                    if let Some(ebr) = cell.store.ebr_stats() {
                        out.push(Sample::gauge("ebr_epoch", ebr.epoch).with("shard", index));
                        out.push(
                            Sample::counter("ebr_retired_total", ebr.retired).with("shard", index),
                        );
                        out.push(
                            Sample::counter("ebr_freed_total", ebr.freed).with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_unreclaimed", ebr.unreclaimed).with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_oldest_epoch_age", ebr.oldest_epoch_age)
                                .with("shard", index),
                        );
                        out.push(
                            Sample::gauge("ebr_pins", ebr.registry_pins + ebr.local_pins)
                                .with("shard", index),
                        );
                    }
                }
            });
        }
        let owners = shards
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let thread_cell = Arc::clone(cell);
                std::thread::Builder::new()
                    .name(format!("kvserve-shard-{index}"))
                    .spawn(move || run_shard_owner(thread_cell))
                    .expect("failed to spawn a shard owner thread")
            })
            .collect();
        let service = Self {
            shards,
            owners,
            stats,
            registry,
            trace,
        };
        // Owners publish their startup outcome right after their (bounded)
        // session-registration attempt; wait for all of them so a capacity
        // failure surfaces here, not as a hang on the first request.  The
        // error path drops `service`, which shuts down and joins the
        // owners that did come up.
        for index in 0..service.shards.len() {
            if !service.shards[index].state.await_ready() {
                return Err(ShardStartupError { shard: index });
            }
        }
        Ok(service)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared statistics (counters update live as routers serve
    /// traffic).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The service's metric registry.  The service registers its own
    /// sources (operation counters, stage trace, per-shard EBR health) at
    /// construction; front ends layered on top register theirs here too,
    /// so one [`Request::Stats`] scrape — or one
    /// [`Registry::render`] call — covers the whole stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-request stage trace (sampled pipeline timing: enqueue,
    /// queue wait, apply, ack — front ends add recv/decode/write/fence).
    pub fn stage_trace(&self) -> &Arc<StageTrace> {
        &self.trace
    }

    /// The shard serving `key`; see [`shard_index`].
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Opens a per-client router session: one SPSC lane pair per shard,
    /// registered with the owning workers, plus a fresh hot-key cache.
    /// Call once per client thread, like [`ConcurrentMap::handle`].
    pub fn router(&self) -> ShardRouter<'_> {
        ShardRouter {
            service: self,
            lanes: self.shards.iter().map(|cell| cell.state.inbox.open()).collect(),
            cache: ReadCache::new(),
            groups: (0..self.shards.len()).map(|_| Group::default()).collect(),
            touched: Vec::new(),
            pending: VecDeque::new(),
            recorder: self.trace.sampled_recorder(TRACE_SAMPLE_SHIFT),
        }
    }

    /// Sum of keys stored across all shards.  Quiescent only, like
    /// [`KeySum::key_sum`]; drives the cross-shard checksum validation.
    pub fn key_sum(&self) -> u128 {
        self.shards.iter().map(|cell| cell.store.key_sum()).sum()
    }

    /// Per-shard key sums, in shard order (quiescent only).
    pub fn shard_key_sums(&self) -> Vec<u128> {
        self.shards.iter().map(|cell| cell.store.key_sum()).collect()
    }

    /// The registry name of shard `index`'s structure.
    pub fn shard_name(&self, index: usize) -> &'static str {
        self.shards[index].store.name()
    }

    /// The per-shard queue-run-length histograms (how many requests each
    /// owner drains per lane visit — the dispatch amortization the
    /// ownership model buys), merged across shards with
    /// [`Histogram::merge`].
    pub fn run_length_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for cell in &self.shards {
            merged.merge(&cell.state.run_length);
        }
        merged
    }

    /// Stops and joins every shard owner thread.  Idempotent; also runs on
    /// drop.  Requires `&mut self`, so it cannot race any live router (a
    /// router borrows the service).
    pub fn shutdown(&mut self) {
        for cell in &self.shards {
            cell.state.inbox.begin_shutdown();
        }
        for owner in self.owners.drain(..) {
            // A panicked owner already surfaced as a router panic; the
            // join result adds nothing (and must not double-panic in drop).
            let _ = owner.join();
        }
    }

    /// Whether [`shutdown`](Self::shutdown) has already joined the shard
    /// owners.
    pub fn is_shut_down(&self) -> bool {
        self.owners.is_empty()
    }

    pub(crate) fn shard_state(&self, shard: usize) -> &ShardState {
        &self.shards[shard].state
    }
}

/// The shard of `shards` that serves `key`: high bits of a Fibonacci
/// multiplicative hash, range-reduced without division.  Every sharded
/// service in the workspace places keys with it.
///
/// Panics on the engine's reserved [`abtree::EMPTY_KEY`] sentinel: the
/// router sits on the wire boundary, and the codec accepts any `u64`, so
/// this is the always-on guard (the engine itself only debug-asserts)
/// that keeps a hostile or corrupt-but-well-formed frame from storing the
/// empty-slot marker into a shard.
#[inline]
pub fn shard_index(key: u64, shards: usize) -> usize {
    assert!(
        key != abtree::EMPTY_KEY,
        "the reserved EMPTY_KEY sentinel cannot be stored or queried"
    );
    let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hashed as u128 * shards as u128) >> 64) as usize
}

impl Drop for KvService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for KvService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvService")
            .field("shards", &self.shards.len())
            .field("structure", &self.shards.first().map(|cell| cell.store.name()))
            .finish_non_exhaustive()
    }
}

/// Per-shard scratch used to regroup a batch by destination shard.
#[derive(Default)]
struct Group {
    keys: Vec<u64>,
    pairs: Vec<(u64, u64)>,
    /// Original batch positions of this group's entries, for scattering
    /// results back into input order.
    positions: Vec<u32>,
}

/// The point-request kinds the pipelined interface carries.
#[derive(Clone, Copy)]
enum PointOp {
    Get,
    Put,
    Delete,
}

/// One submitted-but-uncollected request, in submission order.
enum Pending {
    /// Answered immediately (a cache hit); stats were already recorded.
    Ready { response: Response },
    /// In flight to `shard`; `value` is the put payload (for cache fill).
    /// `started` is a real stamp for every submission (it feeds the point
    /// latency histogram), traced or not.
    Point {
        op: PointOp,
        shard: usize,
        key: u64,
        value: u64,
        started: Stamp,
    },
}

/// A per-client session over the whole service: one SPSC lane pair per
/// shard feeding the shard owners, a private hot-key read cache, and
/// regrouping scratch so batch execution allocates only the sub-batch
/// vectors it ships across the lanes.
///
/// Obtained from [`KvService::router`].  Routers are independent; open one
/// per client thread.
pub struct ShardRouter<'s> {
    service: &'s KvService,
    lanes: Vec<RouterLane<Job, Reply>>,
    cache: ReadCache,
    groups: Vec<Group>,
    /// Shards with a non-empty group in the batch being executed (sparse
    /// clear: only touched groups are reset).
    touched: Vec<usize>,
    /// FIFO of pipelined submissions awaiting [`collect`](Self::collect).
    pending: VecDeque<Pending>,
    /// Sampled stage recorder: decides at submit time which point requests
    /// get stage-traced, and records the router-side stages (`Enqueue`,
    /// `Ack`) for those that do.
    recorder: StageRecorder,
}

impl<'s> ShardRouter<'s> {
    /// The service this router serves.
    pub fn service(&self) -> &'s KvService {
        self.service
    }

    /// Blocking calls must not overtake pipelined submissions: per-lane
    /// replies are matched to requests purely by FIFO order.
    #[inline]
    fn assert_unpipelined(&self) {
        assert!(
            self.pending.is_empty(),
            "blocking router calls cannot run while pipelined submissions are in flight; \
             collect() them first"
        );
    }

    /// Pushes `job` into `shard`'s lane and wakes its owner. The caller
    /// guarantees lane capacity (sync calls keep at most one request per
    /// shard in flight; pipelined submission checks the cap first).
    ///
    /// `stamp` is the request's trace stamp ([`Stamp::NONE`] for untraced
    /// requests, which makes every stage record below a no-op): the
    /// `Enqueue` stage — submit-side routing, cache probe and capacity
    /// check — closes here, and the post-enqueue stamp rides the lane so
    /// the owner can time the queue wait as `Dequeue`.
    fn enqueue(&mut self, shard: usize, stamp: Stamp, job: ShardJob) {
        let enqueued = self.recorder.record(Stage::Enqueue, stamp);
        let inbox = &self.service.shard_state(shard).inbox;
        if self.lanes[shard].push(inbox, (enqueued, job)).is_err() {
            panic!("shard lane rejected a push despite the in-flight cap");
        }
    }

    /// Point lookup of `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.submit_point(PointOp::Get, key, 0)
            .expect("nothing in flight, the lane cannot be full");
        match self.collect() {
            Response::Value(value) => value,
            _ => unreachable!("point submissions collect point responses"),
        }
    }

    /// Insert-if-absent of `key -> value`: returns the existing value
    /// (leaving it unchanged) if `key` was present, `None` if the pair was
    /// inserted (see [`abtree::MapHandle::insert`]).
    pub fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.submit_point(PointOp::Put, key, value)
            .expect("nothing in flight, the lane cannot be full");
        match self.collect() {
            Response::Value(previous) => previous,
            _ => unreachable!("point submissions collect point responses"),
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        self.assert_unpipelined();
        self.submit_point(PointOp::Delete, key, 0)
            .expect("nothing in flight, the lane cannot be full");
        match self.collect() {
            Response::Value(removed) => removed,
            _ => unreachable!("point submissions collect point responses"),
        }
    }

    /// Pipelined submission of a point request (`Get`/`Put`/`Delete`).
    ///
    /// Returns without waiting for execution; responses are retrieved with
    /// [`collect`](Self::collect) in submission order.  Fails with
    /// [`Overloaded`] — refusing the request rather than blocking — when
    /// the target shard already has [`LANE_CAPACITY`] of this router's
    /// requests in flight.  A `Get` answered by the hot-key cache completes
    /// immediately (it still must be `collect`ed, in order).
    ///
    /// # Panics
    ///
    /// Panics on `Scan`/`MGet`/`MPut` requests: batches and scans use the
    /// blocking methods, whose shard fan-out is already parallel.
    pub fn submit(&mut self, request: &Request) -> Result<(), Overloaded> {
        match *request {
            Request::Get { key } => self.submit_point(PointOp::Get, key, 0),
            Request::Put { key, value } => self.submit_point(PointOp::Put, key, value),
            Request::Delete { key } => self.submit_point(PointOp::Delete, key, 0),
            Request::Scan { .. }
            | Request::MGet { .. }
            | Request::MPut { .. }
            | Request::Stats => panic!(
                "pipelined submission carries point requests only; \
                 use scan/mget/mput (their shard fan-out is already parallel) \
                 and execute() for stats scrapes"
            ),
        }
    }

    fn submit_point(&mut self, op: PointOp, key: u64, value: u64) -> Result<(), Overloaded> {
        let service = self.service;
        let stats = service.stats();
        let shard = service.shard_of(key);
        // One sampling decision covers the stage trace AND the point-latency
        // histogram: the untraced 15-in-16 majority reads no clock at all.
        // (A single `Stamp::now` costs ~25ns on a virtualized TSC — two per
        // op would eat most of the telemetry budget by themselves; uniform
        // 1-in-16 sampling keeps the latency quantiles unbiased.)
        let started = self.recorder.sample_start();
        // The cache fast path answers at *submit* time against the shard's
        // applied version — sound only while this router has nothing in
        // flight on the shard.  An uncollected submission may be a write to
        // this very key that the version counter cannot see yet, and a
        // cached answer would jump it: the session would fail to read its
        // own pipelined write.  Falling into the lane restores FIFO order.
        if matches!(op, PointOp::Get) && self.lanes[shard].in_flight() == 0 {
            let version = service.shard_state(shard).current_version();
            if let Some(cached) = self.cache.lookup(key, version) {
                stats.record_cache_hit();
                if started.is_traced() {
                    stats.point_latency_ns.record(started.elapsed_ns());
                }
                stats.shard(shard).record_get(cached.is_some());
                stats
                    .namespace(stats.namespace_slot(key))
                    .record_get(cached.is_some());
                self.pending.push_back(Pending::Ready {
                    response: Response::Value(cached),
                });
                return Ok(());
            }
        }
        if self.lanes[shard].in_flight() >= LANE_CAPACITY {
            stats.record_shed();
            return Err(Overloaded);
        }
        let job = match op {
            PointOp::Get => ShardJob::Get { key },
            PointOp::Put => ShardJob::Put { key, value },
            PointOp::Delete => ShardJob::Delete { key },
        };
        self.enqueue(shard, started, job);
        self.pending.push_back(Pending::Point {
            op,
            shard,
            key,
            value,
            started,
        });
        Ok(())
    }

    /// Number of pipelined submissions not yet collected.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Retrieves the response to the **oldest** uncollected submission,
    /// waiting for its shard if it has not completed yet.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn collect(&mut self) -> Response {
        let pending = self.pending.pop_front().expect("no submissions in flight");
        match pending {
            Pending::Ready { response } => response,
            Pending::Point {
                op,
                shard,
                key,
                value,
                started,
            } => {
                let (applied, ShardReply::Value { value: result, version }) =
                    self.lanes[shard].pop()
                else {
                    unreachable!("point jobs produce point replies")
                };
                let stats = self.service.stats();
                // Sampled requests only: one clock read closes both the
                // `Ack` stage (reply-lane wait) and the point latency; the
                // untraced majority skips the read entirely.
                if started.is_traced() {
                    let now = Stamp::now();
                    self.recorder.record_at(Stage::Ack, applied, now);
                    stats.point_latency_ns.record(now.since(started));
                }
                let ns = stats.namespace(stats.namespace_slot(key));
                match op {
                    PointOp::Get => {
                        stats.shard(shard).record_get(result.is_some());
                        ns.record_get(result.is_some());
                        self.cache.store(key, result, version);
                    }
                    PointOp::Put => {
                        stats.shard(shard).record_put();
                        ns.record_put();
                        // Either the insert landed (key -> value) or it was
                        // a no-op (key kept its prior value); both are
                        // exact at the replied version.
                        self.cache.store(key, Some(result.unwrap_or(value)), version);
                    }
                    PointOp::Delete => {
                        stats.shard(shard).record_delete();
                        ns.record_delete();
                        // Whatever was there, the key is now absent.
                        self.cache.store(key, None, version);
                    }
                }
                Response::Value(result)
            }
        }
    }

    /// Scatter-gather scan of the window `[lo, lo + len - 1]` (clamped below
    /// the engine's reserved sentinel): every shard owner scans its slice
    /// concurrently and the results are merged into `out`, sorted by key
    /// (`out` is cleared first).
    ///
    /// Each *per-shard* sub-scan has that shard's scan guarantee (a
    /// linearizable snapshot on the (a,b)-trees); the merged cross-shard
    /// result is *not* one atomic snapshot — shards scan independently,
    /// like any scatter-gather service read.
    pub fn scan(&mut self, lo: u64, len: u64, out: &mut Vec<(u64, u64)>) {
        self.assert_unpipelined();
        // Same boundary guard as `shard_of` (which a scan bypasses): the
        // reserved sentinel is rejected loudly, not clamped into an empty
        // result.
        assert!(
            lo != abtree::EMPTY_KEY,
            "the reserved EMPTY_KEY sentinel cannot be stored or queried"
        );
        let stats = &self.service.stats;
        out.clear();
        let Some((lo, hi)) = abtree::scan_window(lo, len) else {
            return;
        };
        let started = Stamp::now();
        for shard in 0..self.lanes.len() {
            self.enqueue(shard, Stamp::NONE, ShardJob::Range { lo, hi });
        }
        for shard in 0..self.lanes.len() {
            let (_, ShardReply::Entries { entries }) = self.lanes[shard].pop() else {
                unreachable!("range jobs produce entry replies")
            };
            out.extend_from_slice(&entries);
            stats.shard(shard).record_scan();
        }
        out.sort_unstable_by_key(|&(key, _)| key);
        stats.scan_latency_ns.record(started.elapsed_ns());
        stats.namespace(stats.namespace_slot(lo)).record_scan();
    }

    /// Batched multi-get: one lookup per key, results pushed to `out`
    /// (cleared first) in input order.
    ///
    /// Keys the hot-key cache can answer are filled in locally; the rest
    /// are regrouped by destination shard and shipped as one
    /// [`abtree::MapHandle::get_batch`] sub-batch per shard, **all fanned
    /// out before any reply is awaited** — so an `N`-key multi-get costs
    /// one concurrent queue round-trip, not `N` serial ones.
    pub fn mget(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.assert_unpipelined();
        let service = self.service;
        let stats = service.stats();
        out.clear();
        out.resize(keys.len(), None);
        let started = Stamp::now();
        for (position, &key) in keys.iter().enumerate() {
            let shard = service.shard_of(key);
            let version = service.shard_state(shard).current_version();
            if let Some(cached) = self.cache.lookup(key, version) {
                stats.record_cache_hit();
                stats.shard(shard).record_lookup(cached.is_some());
                let ns = stats.namespace(stats.namespace_slot(key));
                ns.record_mget();
                ns.record_lookup(cached.is_some());
                out[position] = cached;
                continue;
            }
            let group = &mut self.groups[shard];
            if group.keys.is_empty() {
                self.touched.push(shard);
            }
            group.keys.push(key);
            group.positions.push(position as u32);
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let sub_batch = std::mem::take(&mut self.groups[shard].keys);
            self.enqueue(shard, Stamp::NONE, ShardJob::GetBatch { keys: sub_batch });
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let (_, ShardReply::Values { values, version }) = self.lanes[shard].pop() else {
                unreachable!("batch jobs produce batch replies")
            };
            let counters = stats.shard(shard);
            counters.record_mget();
            let group = &mut self.groups[shard];
            for (&position, &value) in group.positions.iter().zip(&values) {
                let key = keys[position as usize];
                counters.record_lookup(value.is_some());
                let ns = stats.namespace(stats.namespace_slot(key));
                ns.record_mget();
                ns.record_lookup(value.is_some());
                out[position as usize] = value;
                self.cache.store(key, value, version);
            }
            group.positions.clear();
        }
        self.touched.clear();
        stats.batch_latency_ns.record(started.elapsed_ns());
        stats.batch_size.record(keys.len() as u64);
    }

    /// Batched multi-put (insert-if-absent per pair): per-pair results
    /// pushed to `out` (cleared first) in input order, `None` meaning the
    /// pair was inserted.
    ///
    /// Same regrouping and concurrent fan-out as [`mget`](Self::mget),
    /// through one [`abtree::MapHandle::insert_batch`] sub-batch per shard
    /// touched.
    pub fn mput(&mut self, pairs: &[(u64, u64)], out: &mut Vec<Option<u64>>) {
        self.assert_unpipelined();
        let service = self.service;
        let stats = service.stats();
        out.clear();
        out.resize(pairs.len(), None);
        let started = Stamp::now();
        for (position, &(key, value)) in pairs.iter().enumerate() {
            let shard = service.shard_of(key);
            let group = &mut self.groups[shard];
            if group.pairs.is_empty() {
                self.touched.push(shard);
            }
            group.pairs.push((key, value));
            group.positions.push(position as u32);
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let sub_batch = std::mem::take(&mut self.groups[shard].pairs);
            self.enqueue(shard, Stamp::NONE, ShardJob::PutBatch { pairs: sub_batch });
        }
        for i in 0..self.touched.len() {
            let shard = self.touched[i];
            let (_, ShardReply::Values { values, version }) = self.lanes[shard].pop() else {
                unreachable!("batch jobs produce batch replies")
            };
            let counters = stats.shard(shard);
            counters.record_mput();
            let group = &mut self.groups[shard];
            for (&position, &previous) in group.positions.iter().zip(&values) {
                let (key, value) = pairs[position as usize];
                stats.namespace(stats.namespace_slot(key)).record_mput();
                out[position as usize] = previous;
                // Same post-state as a point put: the key now holds either
                // its prior value or the inserted one.
                self.cache.store(key, Some(previous.unwrap_or(value)), version);
            }
            group.positions.clear();
        }
        self.touched.clear();
        stats.batch_latency_ns.record(started.elapsed_ns());
        stats.batch_size.record(pairs.len() as u64);
    }

    /// Executes one request, returning its response.
    pub fn execute(&mut self, request: &Request) -> Response {
        match request {
            Request::Get { key } => Response::Value(self.get(*key)),
            Request::Put { key, value } => Response::Value(self.put(*key, *value)),
            Request::Delete { key } => Response::Value(self.delete(*key)),
            Request::Scan { lo, len } => {
                let mut entries = Vec::new();
                self.scan(*lo, *len, &mut entries);
                Response::Entries(entries)
            }
            Request::MGet { keys } => {
                let mut values = Vec::new();
                self.mget(keys, &mut values);
                Response::Values(values)
            }
            Request::MPut { pairs } => {
                let mut results = Vec::new();
                self.mput(pairs, &mut results);
                Response::Values(results)
            }
            // A scrape never crosses a shard lane: the registry pulls
            // every source (shard counters, stage trace, EBR gauges, any
            // front-end sources) from right here, so it cannot be shed,
            // cannot be reordered behind queued work, and is not counted
            // in the per-shard operation counters.
            Request::Stats => Response::Stats(self.service.registry.render()),
        }
    }

    /// Executes a request batch in order, pushing one response per request
    /// onto `out` (cleared first).
    pub fn execute_batch(&mut self, requests: &[Request], out: &mut Vec<Response>) {
        out.clear();
        out.reserve(requests.len());
        for request in requests {
            out.push(self.execute(request));
        }
    }

    /// Serves one decoded request batch the way a non-blocking front end
    /// must: point requests ride the pipelined [`submit`](Self::submit) /
    /// [`collect`](Self::collect) window (several in flight per shard at
    /// once), and a submission the window refuses is answered with
    /// [`Response::Overloaded`] in place — the request is shed, **never**
    /// blocked on.  Scans and batches use the blocking calls (their shard
    /// fan-out is already parallel), draining the window first so replies
    /// cannot be misattributed.
    ///
    /// One response per request is pushed onto `responses` (cleared first),
    /// in request order.  The pipeline is empty again when this returns.
    ///
    /// # Panics
    ///
    /// Panics if pipelined submissions are already in flight.
    pub fn serve_pipelined(&mut self, batch: &[Request], responses: &mut Vec<Response>) {
        self.assert_unpipelined();
        responses.clear();
        responses.reserve(batch.len());
        // Positions of pipelined requests whose placeholder response must
        // be overwritten when the window is collected (submission order).
        let mut pending: Vec<usize> = Vec::new();
        fn flush(
            router: &mut ShardRouter<'_>,
            pending: &mut Vec<usize>,
            responses: &mut [Response],
        ) {
            for &position in pending.iter() {
                responses[position] = router.collect();
            }
            pending.clear();
        }
        for (position, request) in batch.iter().enumerate() {
            match request {
                Request::Get { .. } | Request::Put { .. } | Request::Delete { .. } => {
                    match self.submit(request) {
                        Ok(()) => {
                            pending.push(position);
                            // Placeholder; overwritten on flush.
                            responses.push(Response::Overloaded);
                        }
                        // The lane is full: shed this request — the wire
                        // answer the codec exists to carry — rather than
                        // block the serving loop on a hot shard.
                        Err(Overloaded) => responses.push(Response::Overloaded),
                    }
                }
                other => {
                    // Blocking calls must not overtake the window: drain
                    // it, then serve the scan/batch.
                    flush(self, &mut pending, responses);
                    responses.push(self.execute(other));
                }
            }
        }
        flush(self, &mut pending, responses);
    }
}

impl std::fmt::Debug for ShardRouter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.lanes.len())
            .field("in_flight", &self.pending.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abtree::ElimABTree;

    fn two_shard_service() -> KvService {
        KvService::new(2, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        })
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let service = two_shard_service();
        for key in 0..1_000u64 {
            let shard = service.shard_of(key);
            assert!(shard < 2);
            assert_eq!(shard, service.shard_of(key), "routing must be stable");
        }
        // The multiplicative hash must actually use both shards.
        let hits: std::collections::HashSet<_> = (0..100).map(|k| service.shard_of(k)).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn point_ops_round_trip_across_shards() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..500u64 {
            assert_eq!(router.put(key, key * 2), None);
        }
        for key in 0..500u64 {
            assert_eq!(router.get(key), Some(key * 2));
            assert_eq!(router.put(key, 999), Some(key * 2), "insert-if-absent");
        }
        for key in (0..500u64).step_by(2) {
            assert_eq!(router.delete(key), Some(key * 2));
            assert_eq!(router.get(key), None);
        }
        drop(router);
        assert_eq!(
            service.key_sum(),
            (0..500u128).filter(|k| k % 2 == 1).sum::<u128>()
        );
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..200u64 {
            router.put(key, key + 1);
        }
        let mut out = Vec::new();
        router.scan(50, 100, &mut out);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(out.first(), Some(&(50, 51)));
        assert_eq!(out.last(), Some(&(149, 150)));
        router.scan(10, 0, &mut out);
        assert!(out.is_empty(), "len 0 scans nothing");
    }

    #[test]
    fn mget_matches_single_gets_in_input_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..100u64 {
            router.put(key, key * 3);
        }
        let keys = [99, 0, 500, 42, 42, 7];
        let mut batched = Vec::new();
        router.mget(&keys, &mut batched);
        let singles: Vec<_> = keys.iter().map(|&k| router.get(k)).collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn mput_reports_per_pair_results() {
        let service = two_shard_service();
        let mut router = service.router();
        let mut results = Vec::new();
        router.mput(&[(1, 10), (2, 20), (1, 99)], &mut results);
        assert_eq!(results, vec![None, None, Some(10)]);
        assert_eq!(router.get(1), Some(10), "first writer wins");
    }

    #[test]
    fn execute_covers_every_request_kind() {
        let service = two_shard_service();
        let mut router = service.router();
        assert_eq!(
            router.execute(&Request::Put { key: 5, value: 50 }),
            Response::Value(None)
        );
        assert_eq!(
            router.execute(&Request::Get { key: 5 }),
            Response::Value(Some(50))
        );
        assert_eq!(
            router.execute(&Request::MPut {
                pairs: vec![(6, 60), (7, 70)]
            }),
            Response::Values(vec![None, None])
        );
        assert_eq!(
            router.execute(&Request::MGet { keys: vec![5, 6, 8] }),
            Response::Values(vec![Some(50), Some(60), None])
        );
        assert_eq!(
            router.execute(&Request::Scan { lo: 5, len: 3 }),
            Response::Entries(vec![(5, 50), (6, 60), (7, 70)])
        );
        assert_eq!(
            router.execute(&Request::Delete { key: 5 }),
            Response::Value(Some(50))
        );
        let mut responses = Vec::new();
        router.execute_batch(
            &[Request::Get { key: 6 }, Request::Get { key: 5 }],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Value(Some(60)), Response::Value(None)]
        );
    }

    #[test]
    fn stats_account_traffic() {
        if !obs::ENABLED {
            return; // counters are compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        router.put(1, 1);
        router.get(1);
        router.get(2);
        router.mget(&[1, 2, 3], &mut Vec::new());
        router.delete(1);
        let mut scan_out = Vec::new();
        router.scan(0, 10, &mut scan_out);
        drop(router);

        let stats = service.stats();
        let totals: u64 = stats.shards().iter().map(|s| s.total_ops()).sum();
        assert!(totals >= 5);
        let hits: u64 = stats.shards().iter().map(|s| s.hits()).sum();
        let misses: u64 = stats.shards().iter().map(|s| s.misses()).sum();
        assert_eq!(hits, 2, "get(1) and mget hit on key 1");
        assert_eq!(misses, 3, "get(2) and mget misses on 2 and 3");
        // Point latency is sampled 1-in-16 with the stage trace: four point
        // submissions on a fresh router stay below the sample period, so
        // the histogram is empty (the batch/scan histograms are always-on —
        // their clock reads amortize over the whole batch).
        assert_eq!(stats.point_latency_ns.count(), 0, "4 ops < sample period");
        assert_eq!(stats.batch_latency_ns.count(), 1);
        assert_eq!(stats.scan_latency_ns.count(), 1);
        assert_eq!(stats.batch_size.count(), 1);
        // Every shard was scanned once by the scatter-gather scan.
        for shard in stats.shards() {
            assert_eq!(shard.scans(), 1);
        }
        // The put filled the cache for key 1, so the get and the mget both
        // hit it; key 2's miss is cached too and re-served to the mget.
        assert_eq!(stats.cache_hits(), 3, "get(1), mget keys 1 and 2");
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn cached_reads_observe_every_write() {
        let service = two_shard_service();
        let mut router = service.router();
        assert_eq!(router.put(8, 80), None);
        // Warm hit.
        assert_eq!(router.get(8), Some(80));
        // A delete through the same shard owner must invalidate/overwrite.
        assert_eq!(router.delete(8), Some(80));
        assert_eq!(router.get(8), None);
        // A no-op put (insert-if-absent on a present key) must NOT shed
        // other cached entries: versions only move on real mutations.
        router.put(9, 90);
        let before = service.stats().cache_hits();
        router.put(9, 91); // no-op
        assert_eq!(router.get(9), Some(90), "first writer wins");
        assert!(
            !obs::ENABLED || service.stats().cache_hits() > before,
            "the no-op put must not invalidate key 9's cache entry"
        );
        // Writes from a *different* router invalidate this router's cache
        // through the shard version, not through any shared cache state.
        let mut other = service.router();
        assert_eq!(other.delete(9), Some(90));
        drop(other);
        assert_eq!(router.get(9), None, "stale hit would return Some(90)");
    }

    #[test]
    fn pipelined_window_collects_in_order() {
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..32u64 {
            router.put(key, key + 100);
        }
        // Submit a window of gets (some cache hits, some queued), then
        // collect: responses must arrive in submission order.
        for key in 0..32u64 {
            router.submit(&Request::Get { key }).unwrap();
        }
        assert_eq!(router.in_flight(), 32);
        for key in 0..32u64 {
            assert_eq!(router.collect(), Response::Value(Some(key + 100)));
        }
        assert_eq!(router.in_flight(), 0);
        // Mixed point kinds pipeline too.
        router.submit(&Request::Put { key: 900, value: 1 }).unwrap();
        router.submit(&Request::Get { key: 900 }).unwrap();
        router.submit(&Request::Delete { key: 900 }).unwrap();
        assert_eq!(router.collect(), Response::Value(None));
        assert_eq!(router.collect(), Response::Value(Some(1)));
        assert_eq!(router.collect(), Response::Value(Some(1)));
    }

    #[test]
    fn full_lane_sheds_with_overloaded() {
        // One shard makes the target lane deterministic. The in-flight
        // count is only released by collect(), so the cap is reached regardless of
        // how fast the owner drains.
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();
        for key in 0..LANE_CAPACITY as u64 {
            router.submit(&Request::Get { key }).unwrap();
        }
        assert_eq!(
            router.submit(&Request::Get { key: 9_999 }),
            Err(Overloaded),
            "the 65th in-flight request must be refused, not block"
        );
        assert!(!obs::ENABLED || service.stats().shed() == 1);
        assert!(Overloaded.to_string().contains("in flight"));
        // Collecting frees the window again.
        for _ in 0..LANE_CAPACITY {
            assert_eq!(router.collect(), Response::Value(None));
        }
        router.submit(&Request::Get { key: 9_999 }).unwrap();
        assert_eq!(router.collect(), Response::Value(None));
    }

    #[test]
    fn serve_pipelined_answers_in_request_order() {
        let service = two_shard_service();
        let mut router = service.router();
        let batch = vec![
            Request::Put { key: 1, value: 10 },
            Request::Put { key: 2, value: 20 },
            Request::Get { key: 1 },
            // A blocking request mid-batch forces a window drain first.
            Request::MGet { keys: vec![1, 2, 3] },
            Request::Delete { key: 2 },
            Request::Scan { lo: 1, len: 4 },
        ];
        let mut responses = Vec::new();
        router.serve_pipelined(&batch, &mut responses);
        assert_eq!(
            responses,
            vec![
                Response::Value(None),
                Response::Value(None),
                Response::Value(Some(10)),
                Response::Values(vec![Some(10), Some(20), None]),
                Response::Value(Some(20)),
                Response::Entries(vec![(1, 10)]),
            ]
        );
        assert_eq!(router.in_flight(), 0, "the pipeline drains fully");
    }

    #[test]
    fn serve_pipelined_sheds_with_overloaded_in_place() {
        // One shard: every point request targets the same lane, so the
        // 65th-and-later uncollected submissions in one frame must shed.
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();
        // Distinct keys, so the read cache cannot absorb any of them.
        let batch: Vec<Request> = (1..=LANE_CAPACITY as u64 + 8)
            .map(|key| Request::Get { key })
            .collect();
        let mut responses = Vec::new();
        router.serve_pipelined(&batch, &mut responses);
        assert_eq!(responses.len(), batch.len());
        let shed = responses
            .iter()
            .filter(|r| matches!(r, Response::Overloaded))
            .count();
        assert_eq!(shed, 8, "exactly the beyond-capacity tail is shed");
        assert!(
            responses[..LANE_CAPACITY]
                .iter()
                .all(|r| *r == Response::Value(None)),
            "the in-window prefix is served normally"
        );
        assert!(!obs::ENABLED || service.stats().shed() == 8);
    }

    #[test]
    fn pipelined_get_reads_its_own_in_flight_put() {
        // Regression: mget caches "absent" for missed keys, and the cache
        // fast path used to answer a pipelined Get at submit time even
        // while a Put of the same key sat uncollected in the lane — the
        // applied-version check cannot see in-flight writes.  The session
        // then failed to read its own write.
        let service = KvService::new(1, 1, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        let mut router = service.router();

        // Seed the cache with key 7 -> absent.
        let mut values = Vec::new();
        router.mget(&[7], &mut values);
        assert_eq!(values, vec![None]);

        // Same frame: Put(7) then Get(7).  The Get must ride the lane
        // behind the Put, not hit the stale cache entry.
        let mut responses = Vec::new();
        router.serve_pipelined(
            &[
                Request::Put { key: 7, value: 70 },
                Request::Get { key: 7 },
            ],
            &mut responses,
        );
        assert_eq!(
            responses,
            vec![Response::Value(None), Response::Value(Some(70))]
        );
    }

    #[test]
    #[should_panic(expected = "pipelined submissions are in flight")]
    fn blocking_calls_refuse_to_overtake_the_pipeline() {
        let service = two_shard_service();
        let mut router = service.router();
        router.submit(&Request::Put { key: 1, value: 1 }).unwrap();
        let _ = router.get(2);
    }

    #[test]
    #[should_panic(expected = "point requests only")]
    fn batch_requests_cannot_be_pipelined() {
        let service = two_shard_service();
        let mut router = service.router();
        let _ = router.submit(&Request::MGet { keys: vec![1] });
    }

    #[test]
    fn shutdown_joins_owners_and_is_idempotent() {
        let mut service = two_shard_service();
        {
            let mut router = service.router();
            router.put(1, 2);
            // Leave a submission uncollected: the owner must drain it and
            // discard the undeliverable reply once the router is gone.
            router.submit(&Request::Put { key: 3, value: 4 }).unwrap();
        }
        assert!(!service.is_shut_down());
        service.shutdown();
        assert!(service.is_shut_down());
        service.shutdown(); // idempotent
        assert!(service.is_shut_down());
        // Quiescent reads still work after shutdown.
        assert!(service.key_sum() > 0);
    }

    #[test]
    fn owners_record_queue_run_lengths() {
        if !obs::ENABLED {
            return; // histograms are compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        for key in 0..64u64 {
            router.put(key, key);
        }
        let mut out = Vec::new();
        router.mget(&(0..64u64).collect::<Vec<_>>(), &mut out);
        drop(router);
        let runs = service.run_length_histogram();
        assert!(runs.count() > 0, "owners saw at least one drain run");
        assert!(runs.p50().is_some());
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_at_the_boundary() {
        // A decoded wire frame may carry any u64; the router must refuse the
        // engine's reserved key loudly even in release builds.
        let service = two_shard_service();
        let mut router = service.router();
        router.put(abtree::EMPTY_KEY, 1);
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_in_batches() {
        let service = two_shard_service();
        let mut router = service.router();
        router.mget(&[1, abtree::EMPTY_KEY], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn reserved_sentinel_is_rejected_in_scans() {
        let service = two_shard_service();
        let mut router = service.router();
        router.scan(abtree::EMPTY_KEY, 10, &mut Vec::new());
    }

    #[test]
    fn stats_request_renders_the_whole_registry() {
        let service = two_shard_service();
        let mut router = service.router();
        router.put(1, 2);
        router.get(1);
        let Response::Stats(text) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let samples = obs::expo::parse(&text).expect("the scrape parses back");
        // The shard closure always runs, so structural gauges are present
        // even with recording compiled out.
        assert!(
            obs::expo::value(&samples, "kv_shard_version", &[("shard", "0")]).is_some(),
            "per-shard version gauges are in the scrape"
        );
        assert!(
            samples.iter().any(|s| s.name == "ebr_epoch"),
            "the shards' EBR collectors report reclamation health"
        );
        if obs::ENABLED {
            assert_eq!(
                obs::expo::sum(&samples, "kv_ops_total", &[("op", "put")]),
                1,
                "the put is visible across the per-shard op counters"
            );
            assert_eq!(obs::expo::sum(&samples, "kv_ops_total", &[("op", "get")]), 1);
        }
        // Scrapes are served by the router, not the shards: op counters
        // must not move.
        let before = obs::expo::sum(
            &obs::expo::parse(&text).unwrap(),
            "kv_ops_total",
            &[],
        );
        let Response::Stats(again) = router.execute(&Request::Stats) else {
            panic!("a stats request answers with Response::Stats")
        };
        let after = obs::expo::sum(&obs::expo::parse(&again).unwrap(), "kv_ops_total", &[]);
        assert_eq!(before, after, "a scrape does not count as an operation");
    }

    #[test]
    fn sampled_point_traffic_fills_the_stage_histograms() {
        if !obs::ENABLED {
            return; // tracing is compiled out
        }
        let service = two_shard_service();
        let mut router = service.router();
        // Puts always cross a lane (no cache fast path), and 1024
        // submissions at a 1-in-16 sample rate trace exactly 64 of them.
        for key in 0..1024u64 {
            router.put(key, key);
        }
        drop(router);
        let trace = service.stage_trace();
        for stage in [Stage::Enqueue, Stage::Dequeue, Stage::Apply, Stage::Ack] {
            assert!(
                trace.histogram(stage).count() > 0,
                "stage {} saw no samples",
                stage.name()
            );
        }
        assert_eq!(
            trace.histogram(Stage::Enqueue).count(),
            1024 >> TRACE_SAMPLE_SHIFT,
            "the sampler is deterministic"
        );
        // The same 1-in-16 decision feeds the point-latency histogram, so
        // the untraced majority pays no clock read anywhere.
        assert_eq!(
            service.stats().point_latency_ns.count(),
            1024 >> TRACE_SAMPLE_SHIFT,
            "point latency records exactly the sampled subset"
        );
        assert!(
            !trace.recent_events().is_empty(),
            "the rings hold the raw recent events"
        );
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let service = KvService::new(0, 0, |_| {
            let tree: ElimABTree = ElimABTree::new();
            Box::new(tree)
        });
        assert_eq!(service.shard_count(), 1);
        let mut router = service.router();
        assert_eq!(router.put(1, 2), None);
        assert_eq!(router.get(1), Some(2));
        assert_eq!(service.shard_name(0), "elim-abtree");
        assert!(format!("{service:?}").contains("KvService"));
        assert!(format!("{router:?}").contains("ShardRouter"));
    }

    /// Regression for the startup path: a store whose SMR collector has no
    /// free registration slots must surface as [`ShardStartupError`] from
    /// `try_new` (it used to panic on the owner thread), and the service
    /// must come up normally once slots free.
    #[test]
    fn collector_exhaustion_is_a_startup_error_not_a_panic() {
        let collector = abebr::Collector::new();
        let mut held = Vec::new();
        while let Ok(handle) = collector.try_register() {
            held.push(handle);
        }
        assert_eq!(held.len(), abebr::MAX_THREADS);

        let shard_factory = |collector: abebr::Collector| {
            move |_: usize| {
                let tree: ElimABTree = ElimABTree::with_collector(collector.clone());
                Box::new(tree) as Box<dyn ShardStore>
            }
        };
        let err = KvService::try_new(1, 1, shard_factory(collector.clone()))
            .expect_err("owner registration must fail with every slot held");
        assert_eq!(err.shard, 0);
        assert!(err.to_string().contains("slot capacity"));

        // Freeing the hoarded sessions makes the same construction succeed.
        drop(held);
        let service = KvService::try_new(1, 1, shard_factory(collector))
            .expect("registration succeeds once slots are free");
        let mut router = service.router();
        assert_eq!(router.put(9, 90), None);
        assert_eq!(router.get(9), Some(90));
    }
}
