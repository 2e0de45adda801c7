//! Set-up and timed load of the four workloads.
//!
//! Each workload is a [`Target`]: a set-up instance of the layers it runs,
//! driven by load threads that replay the seeded op streams in a closed
//! loop.  Untraced phases time a sample of calls for the latency metrics;
//! traced phases time every call into the workload's top layer and keep
//! the spans.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use abtree::ElimABTree;
use crashkv::{DurableKvService, DurableOp, DurableRouter};
use kvserve::{KvService, Request, Response, ShardRouter};
use netserve::{Client, Server, ServerConfig};

use crate::check::{Expected, Site, SpanLog, Tally};
use crate::measure::{ratio, time_windows, Progress, Windowed};
use crate::report::Metrics;
use crate::spec::{
    value_of, Kind, Op, Spec, Stream, DURABLE_GROUP, DURABLE_WINDOW, FRAME_REQUESTS,
};

/// Spans a traced load thread keeps.
pub const SPAN_CAP: usize = 1 << 16;
/// Tree ops between publications to the shared progress counters; the
/// untraced tree run times whole chunks, leaving per-op timing to the
/// traced run.
const TREE_CHUNK: u64 = 256;
/// Untraced durable runs time one op in this many.
const DURABLE_LATENCY_STRIDE: usize = 4;
/// Ops per multi-put during service prefill.
const PREFILL_BATCH: usize = 256;
/// A connection that answers nothing for this long fails its frame.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

pub static TREE_INSERT: Site = Site {
    layer: "abtree",
    op: "insert",
};
pub static TREE_DELETE: Site = Site {
    layer: "abtree",
    op: "delete",
};
pub static TREE_GET: Site = Site {
    layer: "abtree",
    op: "get",
};
pub static TREE_MGET: Site = Site {
    layer: "abtree",
    op: "mget",
};
pub static TREE_RANGE: Site = Site {
    layer: "abtree",
    op: "range",
};
pub static KV_GET: Site = Site {
    layer: "kvserve",
    op: "get",
};
pub static KV_PUT: Site = Site {
    layer: "kvserve",
    op: "put",
};
pub static KV_DELETE: Site = Site {
    layer: "kvserve",
    op: "delete",
};
pub static KV_MGET: Site = Site {
    layer: "kvserve",
    op: "mget",
};
pub static KV_SCAN: Site = Site {
    layer: "kvserve",
    op: "scan",
};
pub static NET_CALL: Site = Site {
    layer: "netserve",
    op: "call",
};
pub static NET_SEND: Site = Site {
    layer: "netserve",
    op: "send",
};
pub static NET_RECV: Site = Site {
    layer: "netserve",
    op: "recv",
};
pub static DURABLE_SUBMIT: Site = Site {
    layer: "crashkv",
    op: "submit",
};
pub static DURABLE_ACK: Site = Site {
    layer: "crashkv",
    op: "collect_one",
};

/// The span site of a tree call of `kind`.
pub fn tree_site(kind: Kind) -> &'static Site {
    match kind {
        Kind::Get => &TREE_GET,
        Kind::Put => &TREE_INSERT,
        Kind::Delete => &TREE_DELETE,
        Kind::MGet => &TREE_MGET,
        Kind::Scan => &TREE_RANGE,
    }
}

/// The span site of a router call of `kind`.
pub fn kv_site(kind: Kind) -> &'static Site {
    match kind {
        Kind::Get => &KV_GET,
        Kind::Put => &KV_PUT,
        Kind::Delete => &KV_DELETE,
        Kind::MGet => &KV_MGET,
        Kind::Scan => &KV_SCAN,
    }
}

/// How a timed phase is split.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Timing {
    /// Half-second windows filling `seconds` after a one-second warm-up;
    /// below two seconds, five windows and a warm-up of one window.
    pub fn for_seconds(seconds: f64) -> Self {
        if seconds >= 2.0 {
            Self {
                warmup: Duration::from_secs(1),
                window: Duration::from_millis(500),
                windows: (seconds * 2.0) as usize,
            }
        } else {
            let window = Duration::from_secs_f64(seconds / 5.0);
            Self {
                warmup: window,
                window,
                windows: 5,
            }
        }
    }
}

/// What a load thread hands back.
#[derive(Debug)]
pub struct WorkerOut {
    pub latency: Windowed,
    pub tally: Tally,
    pub spans: SpanLog,
}

impl WorkerOut {
    fn new(epoch: Instant, traced: bool, timing: Timing) -> Self {
        Self {
            latency: Windowed::new(if traced { 0 } else { timing.windows }),
            tally: Tally::default(),
            spans: SpanLog::new(epoch, if traced { SPAN_CAP } else { 0 }),
        }
    }
}

/// One timed phase's results.
#[derive(Debug)]
pub struct Phase {
    /// Completed units per second, per window.
    pub rates: Vec<f64>,
    /// Latency of the unit a caller waits on, in ns (untraced phases).
    pub latency: Windowed,
    pub tally: Tally,
    pub spans: SpanLog,
}

/// Runs `workers` as the load of a timed phase and gathers their results.
fn run_phase<'s>(
    progress: &Progress,
    timing: Timing,
    epoch: Instant,
    workers: Vec<Box<dyn FnOnce() -> WorkerOut + Send + 's>>,
) -> Phase {
    progress.begin_phase();
    let phase = std::thread::scope(|scope| {
        let handles: Vec<_> = workers.into_iter().map(|w| scope.spawn(w)).collect();
        let rates = time_windows(progress, timing.warmup, timing.window, timing.windows);
        let mut phase = Phase {
            rates,
            latency: Windowed::new(0),
            tally: Tally::default(),
            spans: SpanLog::new(epoch, 0),
        };
        for handle in handles {
            let out = handle.join().expect("a load thread panicked");
            phase.latency.merge(out.latency);
            phase.tally.merge(&out.tally);
            phase.spans.absorb(out.spans);
        }
        phase
    });
    progress.arm(false);
    progress.fail(phase.tally.failed);
    phase
}

/// Counters the layers expose, read before and after a traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub elim: u64,
    pub ebr_retired: u64,
    pub ebr_unreclaimed: u64,
    pub cache_hits: u64,
    /// Keys looked up by gets and multi-gets.
    pub lookups: u64,
    /// Sum and count of `kv_run_length` samples (bucket midpoints).
    pub run_len_sum: f64,
    pub run_len_count: u64,
    pub net_frames: u64,
    pub net_requests: u64,
    pub boundaries: u64,
    pub pm_fences: u64,
    pub pm_flushes: u64,
}

/// A set-up workload.
pub trait Target: Sized {
    /// Builds the layers and prefills `keys`.
    fn setup(spec: &Spec, keys: &[u64], progress: &Progress) -> Self;
    /// Runs the closed-loop load for `timing`.
    fn phase(
        &mut self,
        spec: &Spec,
        streams: &[Stream],
        progress: &Progress,
        timing: Timing,
        traced: bool,
        epoch: Instant,
    ) -> Phase;
    /// Reads the layers' counters.
    fn counters(&self) -> Counters;
    /// Per-layer metrics of a traced phase, from its spans and the counter
    /// deltas across it.
    fn layer_metrics(&self, phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics);
    /// Tears down and checks the final contents against `expected`.
    fn finish(self, expected: Expected) -> Vec<Result<(), String>>;
}

// ---------------------------------------------------------------- tree

/// `tree-zipf-update`: the Elim-ABtree through one handle per thread.
pub struct TreeTarget {
    pub tree: ElimABTree,
}

impl Target for TreeTarget {
    fn setup(_spec: &Spec, keys: &[u64], progress: &Progress) -> Self {
        let tree = ElimABTree::new();
        {
            let mut handle = tree.handle();
            for &key in keys {
                progress.attempt(1);
                if handle.insert(key, value_of(key)).is_some() {
                    progress.fail(1);
                }
                progress.complete(1);
            }
        }
        Self { tree }
    }

    fn phase(
        &mut self,
        _spec: &Spec,
        streams: &[Stream],
        progress: &Progress,
        timing: Timing,
        traced: bool,
        epoch: Instant,
    ) -> Phase {
        let tree = &self.tree;
        let workers = streams
            .iter()
            .enumerate()
            .map(|(thread, stream)| {
                Box::new(move || tree_worker(tree, stream, thread, progress, traced, epoch, timing))
                    as Box<dyn FnOnce() -> WorkerOut + Send + '_>
            })
            .collect();
        run_phase(progress, timing, epoch, workers)
    }

    fn counters(&self) -> Counters {
        let ebr = self.tree.collector().stats();
        Counters {
            elim: self.tree.elimination_count(),
            ebr_retired: ebr.retired,
            ebr_unreclaimed: ebr.unreclaimed,
            ..Counters::default()
        }
    }

    fn layer_metrics(&self, phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics) {
        let updates = phase.tally.updates as f64;
        for (site, name) in [
            (&TREE_INSERT, "abtree.insert_ns"),
            (&TREE_DELETE, "abtree.delete_ns"),
        ] {
            out.set(&format!("{name}.p50"), phase.spans.quantile(site, 0.5));
            out.set(&format!("{name}.p99"), phase.spans.quantile(site, 0.99));
        }
        out.set(
            "abtree.elim_per_update",
            ratio((after.elim - before.elim) as f64, updates),
        );
        out.set(
            "abtree.effective_update_ratio",
            ratio(phase.tally.effective as f64, updates),
        );
        tree_shape(&self.tree, out);
        out.set(
            "abebr.retired_per_update",
            ratio((after.ebr_retired - before.ebr_retired) as f64, updates),
        );
        out.set("abebr.unreclaimed_end", after.ebr_unreclaimed as f64);
    }

    fn finish(self, expected: Expected) -> Vec<Result<(), String>> {
        vec![
            expected.check_sum("tree", self.tree.key_sum()),
            expected.check_keys("tree", self.tree.len() as u64),
            self.tree.check_invariants(),
        ]
    }
}

/// Height and fill of a quiescent tree.
pub fn tree_shape(tree: &ElimABTree, out: &mut Metrics) {
    let stats = tree.stats();
    out.set("abtree.height", stats.height as f64);
    out.set(
        "abtree.keys_per_leaf",
        ratio(stats.keys as f64, stats.leaves as f64),
    );
}

fn tree_worker(
    tree: &ElimABTree,
    stream: &Stream,
    thread: usize,
    progress: &Progress,
    traced: bool,
    epoch: Instant,
    timing: Timing,
) -> WorkerOut {
    let mut handle = tree.handle();
    let mut out = WorkerOut::new(epoch, traced, timing);
    let ops = &stream.ops;
    let mut i = 0usize;
    while !progress.stopped() {
        progress.attempt(TREE_CHUNK);
        let chunk_start = Instant::now();
        for _ in 0..TREE_CHUNK {
            let op = ops[i % ops.len()];
            i += 1;
            let start = traced.then(Instant::now);
            let answer = match op.kind {
                Kind::Put => handle.insert(op.key, value_of(op.key)),
                Kind::Delete => handle.delete(op.key),
                _ => handle.get(op.key),
            };
            if let Some(start) = start {
                let request = ((thread as u64) << 48) | i as u64;
                out.spans
                    .record(request, 0, tree_site(op.kind), start, Instant::now());
            }
            out.tally.point(op.kind, op.key, answer);
        }
        if !traced {
            out.latency
                .push(progress.window(), chunk_start.elapsed().as_nanos() as u64);
        }
        progress.complete(TREE_CHUNK);
    }
    out
}

// ------------------------------------------------------------ kvserve

/// A two-shard Elim-ABtree `KvService`.
pub fn kv_service() -> KvService {
    KvService::new(2, 1, |_| {
        let tree: ElimABTree = ElimABTree::new();
        Box::new(tree)
    })
}

/// Prefills a service through multi-puts of fresh keys.
pub fn prefill_service(service: &KvService, keys: &[u64], progress: &Progress) {
    let mut router = service.router();
    let mut answers = Vec::new();
    for chunk in keys.chunks(PREFILL_BATCH) {
        let pairs: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, value_of(k))).collect();
        progress.attempt(chunk.len() as u64);
        router.mput(&pairs, &mut answers);
        let bad = answers.iter().filter(|a| a.is_some()).count()
            + chunk.len().saturating_sub(answers.len());
        progress.fail(bad as u64);
        progress.complete(chunk.len() as u64);
    }
}

/// The registry's counters, from one parsed scrape.
pub fn kv_counters(service: &KvService) -> Counters {
    let text = service.registry().render();
    let samples = obs::expo::parse(&text).expect("the service's own scrape parses");
    let mut counters = Counters {
        cache_hits: obs::expo::sum(&samples, "kv_cache_hits_total", &[]),
        lookups: obs::expo::sum(&samples, "kv_lookups_total", &[]),
        ebr_retired: obs::expo::sum(&samples, "ebr_retired_total", &[]),
        ebr_unreclaimed: obs::expo::sum(&samples, "ebr_unreclaimed", &[]),
        ..Counters::default()
    };
    // Cumulative `le` buckets back to per-bucket counts, per shard, each
    // valued at its bucket's midpoint as `obs::Histogram::approx_mean` does.
    let mut last: Vec<(String, u64)> = Vec::new();
    for s in samples.iter().filter(|s| s.name == "kv_run_length_bucket") {
        let (Some(shard), Some(le)) = (s.label("shard"), s.label("le")) else {
            continue;
        };
        let Ok(le) = le.parse::<u64>() else { continue };
        let prev = match last.iter_mut().find(|(sh, _)| sh == shard) {
            Some(entry) => std::mem::replace(&mut entry.1, s.value),
            None => {
                last.push((shard.to_string(), s.value));
                0
            }
        };
        let n = s.value - prev;
        let bucket = (le + 1).trailing_zeros().saturating_sub(1);
        let midpoint = if bucket == 0 {
            1.0
        } else {
            1.5 * (1u64 << bucket) as f64
        };
        counters.run_len_sum += n as f64 * midpoint;
        counters.run_len_count += n;
    }
    counters
}

/// The kvserve counters of a traced phase that crosses the service.
fn kv_layer_metrics(phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics) {
    let updates = phase.tally.updates as f64;
    out.set(
        "kvserve.cache_hit_ratio",
        ratio(
            (after.cache_hits - before.cache_hits) as f64,
            (after.lookups - before.lookups) as f64,
        ),
    );
    out.set(
        "kvserve.run_length_mean",
        ratio(
            after.run_len_sum - before.run_len_sum,
            (after.run_len_count - before.run_len_count) as f64,
        ),
    );
    out.set(
        "abtree.effective_update_ratio",
        ratio(phase.tally.effective as f64, updates),
    );
    out.set(
        "abebr.retired_per_update",
        ratio((after.ebr_retired - before.ebr_retired) as f64, updates),
    );
    out.set("abebr.unreclaimed_end", after.ebr_unreclaimed as f64);
}

/// Scratch buffers for router calls.
#[derive(Default)]
pub struct KvScratch {
    pub values: Vec<Option<u64>>,
    pub entries: Vec<(u64, u64)>,
}

/// One blocking router call for `op`, checked into `tally`.
#[inline]
pub fn kv_call(
    router: &mut ShardRouter<'_>,
    stream: &Stream,
    op: &Op,
    tally: &mut Tally,
    scratch: &mut KvScratch,
) {
    match op.kind {
        Kind::Get => {
            let answer = router.get(op.key);
            tally.point(op.kind, op.key, answer);
        }
        Kind::Put => {
            let answer = router.put(op.key, value_of(op.key));
            tally.point(op.kind, op.key, answer);
        }
        Kind::Delete => {
            let answer = router.delete(op.key);
            tally.point(op.kind, op.key, answer);
        }
        Kind::MGet => {
            let keys = stream.batch(op);
            router.mget(keys, &mut scratch.values);
            tally.mget(keys, &scratch.values);
        }
        Kind::Scan => {
            router.scan(op.key, u64::from(op.arg), &mut scratch.entries);
            tally.scan(op.key, u64::from(op.arg), &scratch.entries);
        }
    }
}

/// `kv-zipf-read`: one blocking client over a two-shard service.
pub struct KvTarget {
    pub service: KvService,
}

impl Target for KvTarget {
    fn setup(_spec: &Spec, keys: &[u64], progress: &Progress) -> Self {
        let service = kv_service();
        prefill_service(&service, keys, progress);
        Self { service }
    }

    fn phase(
        &mut self,
        _spec: &Spec,
        streams: &[Stream],
        progress: &Progress,
        timing: Timing,
        traced: bool,
        epoch: Instant,
    ) -> Phase {
        let service = &self.service;
        let stream = &streams[0];
        let worker = move || {
            let mut router = service.router();
            let mut out = WorkerOut::new(epoch, traced, timing);
            let mut scratch = KvScratch::default();
            let mut i = 0usize;
            while !progress.stopped() {
                let op = stream.ops[i % stream.ops.len()];
                i += 1;
                progress.attempt(1);
                let start = Instant::now();
                kv_call(&mut router, stream, &op, &mut out.tally, &mut scratch);
                let end = Instant::now();
                if traced {
                    out.spans.record(i as u64, 0, kv_site(op.kind), start, end);
                } else {
                    out.latency.push(
                        progress.window(),
                        end.duration_since(start).as_nanos() as u64,
                    );
                }
                progress.complete(1);
            }
            out
        };
        run_phase(progress, timing, epoch, vec![Box::new(worker)])
    }

    fn counters(&self) -> Counters {
        kv_counters(&self.service)
    }

    fn layer_metrics(&self, phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics) {
        for (site, name, p99) in [
            (&KV_GET, "kvserve.get_ns", true),
            (&KV_PUT, "kvserve.put_ns", false),
            (&KV_DELETE, "kvserve.delete_ns", false),
            (&KV_MGET, "kvserve.mget_ns", false),
            (&KV_SCAN, "kvserve.scan_ns", false),
        ] {
            out.set(&format!("{name}.p50"), phase.spans.quantile(site, 0.5));
            if p99 {
                out.set(&format!("{name}.p99"), phase.spans.quantile(site, 0.99));
            }
        }
        kv_layer_metrics(phase, before, after, out);
    }

    fn finish(self, expected: Expected) -> Vec<Result<(), String>> {
        vec![expected.check_sum("kvserve", self.service.key_sum())]
    }
}

// ----------------------------------------------------------- netserve

/// The request for `op`.
pub fn request(stream: &Stream, op: &Op) -> Request {
    match op.kind {
        Kind::Get => Request::Get { key: op.key },
        Kind::Put => Request::Put {
            key: op.key,
            value: value_of(op.key),
        },
        Kind::Delete => Request::Delete { key: op.key },
        Kind::MGet => Request::MGet {
            keys: stream.batch(op).to_vec(),
        },
        Kind::Scan => Request::Scan {
            lo: op.key,
            len: u64::from(op.arg),
        },
    }
}

/// Checks the responses to a frame of `ops` into `tally`.
pub fn check_frame(stream: &Stream, ops: &[Op], responses: &[Response], tally: &mut Tally) {
    if responses.len() != ops.len() {
        tally.reject(ops.len() as u64);
        return;
    }
    for (op, response) in ops.iter().zip(responses) {
        match (op.kind, response) {
            (Kind::Get | Kind::Put | Kind::Delete, Response::Value(answer)) => {
                tally.point(op.kind, op.key, *answer);
            }
            (Kind::MGet, Response::Values(answers)) => {
                tally.mget(stream.batch(op), answers);
            }
            (Kind::Scan, Response::Entries(entries)) => {
                tally.scan(op.key, u64::from(op.arg), entries);
            }
            // Overloaded, Error, or a response of the wrong shape.
            _ => tally.reject(1),
        }
    }
}

/// A loopback server with one reactor over a fresh prefilled service.
pub fn start_server(keys: &[u64], progress: &Progress) -> (Arc<KvService>, Server) {
    let service = Arc::new(kv_service());
    prefill_service(&service, keys, progress);
    let config = ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(config, Arc::clone(&service)).expect("start the loopback server");
    (service, server)
}

/// A connected client whose reads give up after [`READ_TIMEOUT`].
pub fn connect(server: &Server) -> Client {
    let client = Client::connect(server.local_addr()).expect("connect to the loopback server");
    client
        .stream()
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set the client read timeout");
    client
}

/// `net-uniform-rtt`: two closed-loop connections to one reactor.
pub struct NetTarget {
    // Field order is drop order: clients hang up before the server drains.
    pub clients: Vec<Client>,
    pub server: Server,
    pub service: Arc<KvService>,
}

impl Target for NetTarget {
    fn setup(spec: &Spec, keys: &[u64], progress: &Progress) -> Self {
        let (service, server) = start_server(keys, progress);
        let clients = (0..spec.threads).map(|_| connect(&server)).collect();
        Self {
            clients,
            server,
            service,
        }
    }

    fn phase(
        &mut self,
        _spec: &Spec,
        streams: &[Stream],
        progress: &Progress,
        timing: Timing,
        traced: bool,
        epoch: Instant,
    ) -> Phase {
        let workers = self
            .clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(thread, (client, stream))| {
                Box::new(move || {
                    net_worker(client, stream, thread, progress, traced, epoch, timing)
                }) as Box<dyn FnOnce() -> WorkerOut + Send + '_>
            })
            .collect();
        run_phase(progress, timing, epoch, workers)
    }

    fn counters(&self) -> Counters {
        let stats = self.server.stats();
        Counters {
            net_frames: stats.frames(),
            net_requests: stats.requests(),
            ..kv_counters(&self.service)
        }
    }

    fn layer_metrics(&self, phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics) {
        out.set("netserve.send_ns.p50", phase.spans.quantile(&NET_SEND, 0.5));
        out.set(
            "netserve.recv_wait_ns.p50",
            phase.spans.quantile(&NET_RECV, 0.5),
        );
        out.set(
            "netserve.recv_wait_ns.p99",
            phase.spans.quantile(&NET_RECV, 0.99),
        );
        out.set(
            "netserve.requests_per_frame",
            ratio(
                (after.net_requests - before.net_requests) as f64,
                (after.net_frames - before.net_frames) as f64,
            ),
        );
        kv_layer_metrics(phase, before, after, out);
    }

    fn finish(self, expected: Expected) -> Vec<Result<(), String>> {
        let Self {
            clients,
            mut server,
            service,
        } = self;
        drop(clients);
        server.shutdown();
        vec![expected.check_sum("netserve", service.key_sum())]
    }
}

fn net_worker(
    client: &mut Client,
    stream: &Stream,
    thread: usize,
    progress: &Progress,
    traced: bool,
    epoch: Instant,
    timing: Timing,
) -> WorkerOut {
    let mut out = WorkerOut::new(epoch, traced, timing);
    let frames = stream.ops.len() / FRAME_REQUESTS;
    let mut batch = Vec::with_capacity(FRAME_REQUESTS);
    let mut f = 0usize;
    while !progress.stopped() {
        let ops = &stream.ops[(f % frames) * FRAME_REQUESTS..][..FRAME_REQUESTS];
        f += 1;
        batch.clear();
        batch.extend(ops.iter().map(|op| request(stream, op)));
        progress.attempt(FRAME_REQUESTS as u64);
        let start = Instant::now();
        let sent = client.send(&batch);
        let mid = Instant::now();
        let answer = sent.and_then(|()| client.recv());
        let end = Instant::now();
        if traced {
            let request = ((thread as u64) << 48) | f as u64;
            let call = out.spans.record(request, 0, &NET_CALL, start, end);
            out.spans.record(request, call, &NET_SEND, start, mid);
            out.spans.record(request, call, &NET_RECV, mid, end);
        } else {
            out.latency.push(
                progress.window(),
                end.duration_since(start).as_nanos() as u64,
            );
        }
        match answer {
            Ok(responses) => check_frame(stream, ops, &responses, &mut out.tally),
            Err(_) => {
                // A dead or silent connection: this frame fails and the
                // stream is no longer in step, so the connection stops.
                out.tally.reject(FRAME_REQUESTS as u64);
                progress.complete(FRAME_REQUESTS as u64);
                break;
            }
        }
        progress.complete(FRAME_REQUESTS as u64);
    }
    out
}

// ------------------------------------------------------------ crashkv

/// An op in flight on a [`Pipe`].
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub kind: Kind,
    pub key: u64,
    pub request: u64,
    pub submitted: Option<Instant>,
}

/// A durable router that keeps up to [`DURABLE_WINDOW`] ops in flight.
pub struct Pipe {
    router: DurableRouter,
    sent: VecDeque<Sent>,
}

impl Pipe {
    pub fn new(service: &DurableKvService) -> Self {
        Self {
            router: service.router(),
            sent: VecDeque::with_capacity(DURABLE_WINDOW),
        }
    }

    pub fn in_flight(&self) -> usize {
        self.sent.len()
    }

    /// Waits for the oldest op's acknowledgement and checks it; returns
    /// the op and when the wait began and ended.
    pub fn ack(&mut self, tally: &mut Tally, progress: &Progress) -> (Sent, Instant, Instant) {
        let start = Instant::now();
        let reply = self.router.collect_one().expect("an op is in flight");
        let end = Instant::now();
        let sent = self.sent.pop_front().expect("one record per op in flight");
        match reply {
            Ok(answer) => {
                tally.point(sent.kind, sent.key, answer);
            }
            Err(crashkv::Crashed) => tally.reject(1),
        }
        progress.complete(1);
        (sent, start, end)
    }

    /// Submits one op; false when the lane is full (collect, then retry).
    pub fn try_submit(&mut self, sent: Sent) -> bool {
        let op = match sent.kind {
            Kind::Put => DurableOp::Put {
                key: sent.key,
                value: value_of(sent.key),
            },
            Kind::Delete => DurableOp::Delete { key: sent.key },
            _ => DurableOp::Get { key: sent.key },
        };
        if self.router.submit(op).is_err() {
            return false;
        }
        self.sent.push_back(sent);
        true
    }
}

/// A one-shard durable service with group commit.
pub fn durable_service(keys: &[u64], progress: &Progress) -> DurableKvService {
    let service = DurableKvService::new(1, DURABLE_GROUP);
    let mut pipe = Pipe::new(&service);
    let mut tally = Tally::default();
    for &key in keys {
        while pipe.in_flight() >= DURABLE_WINDOW {
            pipe.ack(&mut tally, progress);
        }
        progress.attempt(1);
        let sent = Sent {
            kind: Kind::Put,
            key,
            request: 0,
            submitted: None,
        };
        while !pipe.try_submit(sent) {
            pipe.ack(&mut tally, progress);
        }
    }
    while pipe.in_flight() > 0 {
        pipe.ack(&mut tally, progress);
    }
    progress.fail(tally.failed + (tally.keys != keys.len() as i64) as u64);
    drop(pipe);
    service
}

/// Counters of a durable service (one shard).
pub fn durable_counters(service: &DurableKvService) -> Counters {
    let pm = abpmem::stats();
    Counters {
        boundaries: (0..service.shard_count())
            .map(|s| service.boundaries(s))
            .sum(),
        pm_fences: pm.fences,
        pm_flushes: pm.flushes,
        ..Counters::default()
    }
}

/// The crashkv/abpmem counters of a phase that wrote `writes` ops and
/// acknowledged `acked`.
pub fn durable_layer_counters(
    writes: u64,
    acked: u64,
    before: &Counters,
    after: &Counters,
    out: &mut Metrics,
) {
    out.set(
        "crashkv.ops_per_boundary",
        ratio(acked as f64, (after.boundaries - before.boundaries) as f64),
    );
    out.set(
        "abpmem.fences_per_write",
        ratio((after.pm_fences - before.pm_fences) as f64, writes as f64),
    );
    out.set(
        "abpmem.flushes_per_write",
        ratio((after.pm_flushes - before.pm_flushes) as f64, writes as f64),
    );
}

/// `durable-group-commit`: one client, 16 ops in flight, one shard.
pub struct DurableTarget {
    pub service: DurableKvService,
}

impl Target for DurableTarget {
    fn setup(_spec: &Spec, keys: &[u64], progress: &Progress) -> Self {
        Self {
            service: durable_service(keys, progress),
        }
    }

    fn phase(
        &mut self,
        _spec: &Spec,
        streams: &[Stream],
        progress: &Progress,
        timing: Timing,
        traced: bool,
        epoch: Instant,
    ) -> Phase {
        let service = &self.service;
        let stream = &streams[0];
        let worker = move || {
            let mut pipe = Pipe::new(service);
            let mut out = WorkerOut::new(epoch, traced, timing);
            let book = |(sent, start, end): (Sent, Instant, Instant), out: &mut WorkerOut| {
                if traced {
                    out.spans.record(sent.request, 0, &DURABLE_ACK, start, end);
                } else if let Some(submitted) = sent.submitted {
                    out.latency.push(
                        progress.window(),
                        end.duration_since(submitted).as_nanos() as u64,
                    );
                }
            };
            let mut i = 0usize;
            while !progress.stopped() {
                let op = stream.ops[i % stream.ops.len()];
                i += 1;
                while pipe.in_flight() >= DURABLE_WINDOW {
                    let acked = pipe.ack(&mut out.tally, progress);
                    book(acked, &mut out);
                }
                progress.attempt(1);
                let sampled = !traced && i.is_multiple_of(DURABLE_LATENCY_STRIDE);
                let start = Instant::now();
                let sent = Sent {
                    kind: op.kind,
                    key: op.key,
                    request: i as u64,
                    submitted: sampled.then_some(start),
                };
                while !pipe.try_submit(sent) {
                    let acked = pipe.ack(&mut out.tally, progress);
                    book(acked, &mut out);
                }
                if traced {
                    out.spans
                        .record(sent.request, 0, &DURABLE_SUBMIT, start, Instant::now());
                }
            }
            while pipe.in_flight() > 0 {
                let acked = pipe.ack(&mut out.tally, progress);
                book(acked, &mut out);
            }
            out
        };
        run_phase(progress, timing, epoch, vec![Box::new(worker)])
    }

    fn counters(&self) -> Counters {
        durable_counters(&self.service)
    }

    fn layer_metrics(&self, phase: &Phase, before: &Counters, after: &Counters, out: &mut Metrics) {
        out.set(
            "crashkv.submit_ns.p50",
            phase.spans.quantile(&DURABLE_SUBMIT, 0.5),
        );
        out.set(
            "crashkv.ack_wait_ns.p50",
            phase.spans.quantile(&DURABLE_ACK, 0.5),
        );
        out.set(
            "crashkv.ack_wait_ns.p99",
            phase.spans.quantile(&DURABLE_ACK, 0.99),
        );
        let writes = phase.tally.updates;
        durable_layer_counters(writes, writes, before, after, out);
        out.set(
            "abtree.effective_update_ratio",
            ratio(phase.tally.effective as f64, writes as f64),
        );
    }

    fn finish(self, expected: Expected) -> Vec<Result<(), String>> {
        let mut service = self.service;
        service.shutdown();
        vec![
            expected.check_keys("crashkv", service.total_keys()),
            service.check_invariants(),
        ]
    }
}
