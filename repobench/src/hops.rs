//! The traced run's hop waterfall.
//!
//! One seeded op stream (the workload's own, topped up with probes of any
//! op kind its mix lacks) is replayed, single-threaded and closed-loop,
//! against each hop of the stack in turn, each on a fresh instance with
//! the workload's prefill:
//!
//! 1. a standalone `TreeHandle`;
//! 2. the `ShardRouter`, one blocking call per op;
//! 3. the in-process frame path: `encode_batch`, `decode_batch`,
//!    `serve_pipelined`, `encode_response_batch`, `decode_response_batch`;
//! 4. the loopback `Client`, one `send` + `recv` per frame;
//! 5. a durable `DurableRouter` with 16 ops in flight.
//!
//! Spans of one op (or frame) share its index as request id across hops,
//! so a hop's self time is its span minus the paired span of the hop
//! beneath: the router's hand-off is hop 2 minus hop 1, the wire's is hop
//! 4 minus hop 3.

use std::time::Instant;

use kvserve::codec::{decode_batch, decode_response_batch, encode_batch, encode_response_batch};

use crate::check::{Expected, Site, SpanLog, Tally};
use crate::measure::{quantile, ratio, Progress, Samples};
use crate::report::Metrics;
use crate::spec::{value_of, Kind, Spec, Stream, DURABLE_WINDOW, FRAME_REQUESTS, PMEM_MODE};
use crate::workloads::{
    check_frame, connect, durable_counters, durable_layer_counters, durable_service, kv_call,
    kv_counters, kv_service, kv_site, prefill_service, request, start_server, tree_shape,
    tree_site, KvScratch, Pipe, Sent, Target, TreeTarget, DURABLE_ACK, DURABLE_SUBMIT, NET_CALL,
    NET_RECV, NET_SEND,
};

static FRAME: Site = Site {
    layer: "frame",
    op: "in_process",
};
static ENCODE_REQ: Site = Site {
    layer: "codec",
    op: "encode_batch",
};
static DECODE_REQ: Site = Site {
    layer: "codec",
    op: "decode_batch",
};
static SERVE: Site = Site {
    layer: "kvserve",
    op: "serve_pipelined",
};
static ENCODE_RESP: Site = Site {
    layer: "codec",
    op: "encode_response_batch",
};
static DECODE_RESP: Site = Site {
    layer: "codec",
    op: "decode_response_batch",
};

/// What the waterfall shares between hops.
struct Replay<'a> {
    spec: &'a Spec,
    stream: &'a Stream,
    keys: &'a [u64],
    progress: &'a Progress,
    spans: &'a mut SpanLog,
    checks: &'a mut Vec<Result<(), String>>,
    out: &'a mut Metrics,
}

/// Runs the waterfall for `spec`, filling every per-layer metric the
/// traced phase did not set, and appending each hop's content checks.
pub fn waterfall(
    spec: &Spec,
    seed: u64,
    keys: &[u64],
    progress: &Progress,
    spans: &mut SpanLog,
    checks: &mut Vec<Result<(), String>>,
    out: &mut Metrics,
) {
    let stream = crate::spec::hop_stream(spec, seed);
    let mut fill = Metrics::default();
    let mut replay = Replay {
        spec,
        stream: &stream,
        keys,
        progress,
        spans,
        checks,
        out: &mut fill,
    };
    progress.arm(true);
    let tree_ns = replay.tree_hop();
    replay.router_hop(&tree_ns);
    let frame_ns = replay.frame_hop();
    replay.client_hop(&frame_ns);
    replay.durable_hop();
    progress.arm(false);
    for name in fill.names() {
        if out.get(name).is_none() {
            out.set(name, fill.get(name).expect("listed by names()"));
        }
    }
}

impl Replay<'_> {
    /// Hop 1: the tree alone.  Returns each op's latency.
    fn tree_hop(&mut self) -> Vec<u64> {
        let progress = self.progress;
        let tree = TreeTarget::setup(self.spec, self.keys, progress).tree;
        let elim = tree.elimination_count();
        let retired = tree.collector().stats().retired;
        let mut tally = Tally::default();
        let mut per_op = Vec::with_capacity(self.stream.ops.len());
        let mut per_kind: [Samples; 5] = Default::default();
        {
            let mut handle = tree.handle();
            let mut range = Vec::new();
            for (i, op) in self.stream.ops.iter().enumerate() {
                progress.attempt(1);
                let start = Instant::now();
                match op.kind {
                    Kind::Get => {
                        let answer = handle.get(op.key);
                        tally.point(op.kind, op.key, answer);
                    }
                    Kind::Put => {
                        let answer = handle.insert(op.key, value_of(op.key));
                        tally.point(op.kind, op.key, answer);
                    }
                    Kind::Delete => {
                        let answer = handle.delete(op.key);
                        tally.point(op.kind, op.key, answer);
                    }
                    Kind::MGet => {
                        let keys = self.stream.batch(op);
                        let answers: Vec<Option<u64>> =
                            keys.iter().map(|&k| handle.get(k)).collect();
                        tally.mget(keys, &answers);
                    }
                    Kind::Scan => {
                        let hi = op.key.saturating_add(u64::from(op.arg) - 1);
                        handle.range(op.key, hi, &mut range);
                        tally.scan(op.key, u64::from(op.arg), &range);
                    }
                }
                let end = Instant::now();
                let ns = end.duration_since(start).as_nanos() as u64;
                per_op.push(ns);
                per_kind[op.kind as usize].push(ns);
                self.spans
                    .record(i as u64, 0, tree_site(op.kind), start, end);
                progress.complete(1);
            }
        }
        progress.fail(tally.failed);
        let updates = tally.updates as f64;
        let ebr = tree.collector().stats();
        let out = &mut *self.out;
        for (kind, name) in [
            (Kind::Put, "abtree.insert_ns"),
            (Kind::Delete, "abtree.delete_ns"),
            (Kind::Get, "abtree.get_ns"),
        ] {
            let ns = &mut per_kind[kind as usize];
            out.set(&format!("{name}.p50"), ns.quantile(0.5));
            out.set(&format!("{name}.p99"), ns.quantile(0.99));
        }
        out.set(
            "abtree.range_ns.p50",
            per_kind[Kind::Scan as usize].quantile(0.5),
        );
        out.set(
            "abtree.elim_per_update",
            ratio((tree.elimination_count() - elim) as f64, updates),
        );
        out.set(
            "abtree.effective_update_ratio",
            ratio(tally.effective as f64, updates),
        );
        tree_shape(&tree, out);
        out.set(
            "abebr.retired_per_update",
            ratio((ebr.retired - retired) as f64, updates),
        );
        out.set("abebr.unreclaimed_end", ebr.unreclaimed as f64);
        let expected = Expected::after(self.keys, &tally);
        self.checks
            .push(expected.check_sum("tree hop", tree.key_sum()));
        self.checks.push(tree.check_invariants());
        per_op
    }

    /// Hop 2: blocking router calls; hand-off self time against hop 1.
    fn router_hop(&mut self, tree_ns: &[u64]) {
        let service = kv_service();
        let progress = self.progress;
        prefill_service(&service, self.keys, progress);
        let before = kv_counters(&service);
        let mut tally = Tally::default();
        let mut handoff: Vec<i64> = Vec::new();
        let mut per_kind: [Samples; 5] = Default::default();
        {
            let mut router = service.router();
            let mut scratch = KvScratch::default();
            for (i, op) in self.stream.ops.iter().enumerate() {
                progress.attempt(1);
                let start = Instant::now();
                kv_call(&mut router, self.stream, op, &mut tally, &mut scratch);
                let end = Instant::now();
                let ns = end.duration_since(start).as_nanos() as u64;
                per_kind[op.kind as usize].push(ns);
                if matches!(op.kind, Kind::Get | Kind::Put | Kind::Delete) {
                    handoff.push(ns as i64 - tree_ns[i] as i64);
                }
                self.spans.record(i as u64, 0, kv_site(op.kind), start, end);
                progress.complete(1);
            }
        }
        progress.fail(tally.failed);
        let after = kv_counters(&service);
        let out = &mut *self.out;
        for (kind, name) in [
            (Kind::Get, "kvserve.get_ns"),
            (Kind::Put, "kvserve.put_ns"),
            (Kind::Delete, "kvserve.delete_ns"),
            (Kind::MGet, "kvserve.mget_ns"),
            (Kind::Scan, "kvserve.scan_ns"),
        ] {
            let ns = &mut per_kind[kind as usize];
            out.set(&format!("{name}.p50"), ns.quantile(0.5));
            if kind == Kind::Get {
                out.set("kvserve.get_ns.p99", ns.quantile(0.99));
            }
        }
        out.set(
            "kvserve.handoff_self_ns.p50",
            quantile(&mut handoff, 0.5) as f64,
        );
        out.set(
            "kvserve.handoff_self_ns.p99",
            quantile(&mut handoff, 0.99) as f64,
        );
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
        let expected = Expected::after(self.keys, &tally);
        self.checks
            .push(expected.check_sum("router hop", service.key_sum()));
    }

    /// Hop 3: codec and pipelined router per frame, in process.  Returns
    /// each frame's total latency.
    fn frame_hop(&mut self) -> Vec<u64> {
        let service = kv_service();
        let progress = self.progress;
        prefill_service(&service, self.keys, progress);
        let mut tally = Tally::default();
        let mut per_frame = Vec::new();
        let mut codec: [Samples; 4] = Default::default();
        let (mut requests, mut bytes) = (0u64, 0u64);
        {
            let mut router = service.router();
            let (mut wire, mut reply_wire, mut responses) = (Vec::new(), Vec::new(), Vec::new());
            for (f, ops) in self.stream.ops.chunks(FRAME_REQUESTS).enumerate() {
                let batch: Vec<_> = ops.iter().map(|op| request(self.stream, op)).collect();
                progress.attempt(ops.len() as u64);
                let t0 = Instant::now();
                encode_batch(&batch, &mut wire);
                let t1 = Instant::now();
                let decoded = decode_batch(&wire);
                let t2 = Instant::now();
                let decoded = match decoded {
                    Ok(decoded) if decoded == batch => decoded,
                    _ => {
                        tally.reject(ops.len() as u64);
                        progress.complete(ops.len() as u64);
                        per_frame.push(t2.duration_since(t0).as_nanos() as u64);
                        continue;
                    }
                };
                router.serve_pipelined(&decoded, &mut responses);
                let t3 = Instant::now();
                encode_response_batch(&responses, &mut reply_wire);
                let t4 = Instant::now();
                let replies = decode_response_batch(&reply_wire);
                let t5 = Instant::now();
                match replies {
                    Ok(replies) if replies == responses => {
                        check_frame(self.stream, ops, &replies, &mut tally)
                    }
                    _ => tally.reject(ops.len() as u64),
                }
                progress.complete(ops.len() as u64);
                requests += ops.len() as u64;
                bytes += wire.len() as u64;
                per_frame.push(t5.duration_since(t0).as_nanos() as u64);
                let ts = [t0, t1, t2, t3, t4, t5];
                let frame = self.spans.record(f as u64, 0, &FRAME, t0, t5);
                for (k, site) in [&ENCODE_REQ, &DECODE_REQ, &SERVE, &ENCODE_RESP, &DECODE_RESP]
                    .into_iter()
                    .enumerate()
                {
                    self.spans.record(f as u64, frame, site, ts[k], ts[k + 1]);
                }
                for (k, samples) in codec.iter_mut().enumerate() {
                    // Codec steps are every step but the third (the router).
                    let step = if k < 2 { k } else { k + 1 };
                    samples.push(ts[step + 1].duration_since(ts[step]).as_nanos() as u64);
                }
            }
        }
        progress.fail(tally.failed);
        let out = &mut *self.out;
        for (name, samples) in [
            "codec.encode_req_ns",
            "codec.decode_req_ns",
            "codec.encode_resp_ns",
            "codec.decode_resp_ns",
        ]
        .into_iter()
        .zip(codec.iter_mut())
        {
            out.set(name, samples.quantile(0.5));
        }
        out.set(
            "codec.bytes_per_request",
            ratio(bytes as f64, requests as f64),
        );
        let expected = Expected::after(self.keys, &tally);
        self.checks
            .push(expected.check_sum("frame hop", service.key_sum()));
        per_frame
    }

    /// Hop 4: the loopback client; wire self time against hop 3.
    fn client_hop(&mut self, frame_ns: &[u64]) {
        let progress = self.progress;
        let (service, mut server) = start_server(self.keys, progress);
        let mut client = connect(&server);
        let frames_before = server.stats().frames();
        let requests_before = server.stats().requests();
        let mut tally = Tally::default();
        let (mut send, mut recv) = (Samples::new(), Samples::new());
        let mut wire_self: Vec<i64> = Vec::new();
        for (f, ops) in self.stream.ops.chunks(FRAME_REQUESTS).enumerate() {
            let batch: Vec<_> = ops.iter().map(|op| request(self.stream, op)).collect();
            progress.attempt(ops.len() as u64);
            let start = Instant::now();
            let sent = client.send(&batch);
            let mid = Instant::now();
            let answer = sent.and_then(|()| client.recv());
            let end = Instant::now();
            progress.complete(ops.len() as u64);
            let Ok(responses) = answer else {
                tally.reject(ops.len() as u64);
                break;
            };
            check_frame(self.stream, ops, &responses, &mut tally);
            send.push(mid.duration_since(start).as_nanos() as u64);
            recv.push(end.duration_since(mid).as_nanos() as u64);
            if let Some(&inner) = frame_ns.get(f) {
                wire_self.push(end.duration_since(start).as_nanos() as i64 - inner as i64);
            }
            let call = self.spans.record(f as u64, 0, &NET_CALL, start, end);
            self.spans.record(f as u64, call, &NET_SEND, start, mid);
            self.spans.record(f as u64, call, &NET_RECV, mid, end);
        }
        progress.fail(tally.failed);
        let frames = server.stats().frames() - frames_before;
        let requests = server.stats().requests() - requests_before;
        drop(client);
        server.shutdown();
        let out = &mut *self.out;
        out.set("netserve.send_ns.p50", send.quantile(0.5));
        out.set("netserve.recv_wait_ns.p50", recv.quantile(0.5));
        out.set("netserve.recv_wait_ns.p99", recv.quantile(0.99));
        out.set(
            "netserve.wire_self_us.p50",
            quantile(&mut wire_self, 0.5) as f64 / 1e3,
        );
        out.set(
            "netserve.requests_per_frame",
            ratio(requests as f64, frames as f64),
        );
        let expected = Expected::after(self.keys, &tally);
        self.checks
            .push(expected.check_sum("client hop", service.key_sum()));
    }

    /// Hop 5: the durable shard, with the simulated persistent memory.
    /// Multi-gets become their point gets and scans a get of their first
    /// key (the durable router has neither).
    fn durable_hop(&mut self) {
        abpmem::set_mode(PMEM_MODE);
        let progress = self.progress;
        let service = durable_service(self.keys, progress);
        let before = durable_counters(&service);
        let mut tally = Tally::default();
        let (mut submit, mut wait) = (Samples::new(), Samples::new());
        let mut acked = 0u64;
        {
            let mut pipe = Pipe::new(&service);
            let mut point_ops = Vec::new();
            for (i, op) in self.stream.ops.iter().enumerate() {
                match op.kind {
                    Kind::MGet => {
                        point_ops.extend(self.stream.batch(op).iter().map(|&k| (i, Kind::Get, k)))
                    }
                    Kind::Scan => point_ops.push((i, Kind::Get, op.key)),
                    kind => point_ops.push((i, kind, op.key)),
                }
            }
            let mut book = |acked_op: (Sent, Instant, Instant), spans: &mut SpanLog| {
                let (sent, start, end) = acked_op;
                wait.push(end.duration_since(start).as_nanos() as u64);
                spans.record(sent.request, 0, &DURABLE_ACK, start, end);
                acked += 1;
            };
            for (i, kind, key) in point_ops {
                while pipe.in_flight() >= DURABLE_WINDOW {
                    book(pipe.ack(&mut tally, progress), self.spans);
                }
                progress.attempt(1);
                let sent = Sent {
                    kind,
                    key,
                    request: i as u64,
                    submitted: None,
                };
                let start = Instant::now();
                while !pipe.try_submit(sent) {
                    book(pipe.ack(&mut tally, progress), self.spans);
                }
                let end = Instant::now();
                submit.push(end.duration_since(start).as_nanos() as u64);
                self.spans.record(i as u64, 0, &DURABLE_SUBMIT, start, end);
            }
            while pipe.in_flight() > 0 {
                book(pipe.ack(&mut tally, progress), self.spans);
            }
        }
        progress.fail(tally.failed);
        let after = durable_counters(&service);
        let out = &mut *self.out;
        out.set("crashkv.submit_ns.p50", submit.quantile(0.5));
        out.set("crashkv.ack_wait_ns.p50", wait.quantile(0.5));
        out.set("crashkv.ack_wait_ns.p99", wait.quantile(0.99));
        durable_layer_counters(tally.updates, acked, &before, &after, out);
        let mut service = service;
        service.shutdown();
        let expected = Expected::after(self.keys, &tally);
        self.checks
            .push(expected.check_keys("durable hop", service.total_keys()));
        self.checks.push(service.check_invariants());
    }
}
