//! Closed-loop load driver for the `netserve` TCP front end.
//!
//! Sweeps connections x pipelining depth over real loopback sockets, one
//! client thread per connection, each keeping `depth` frames of 8 point
//! requests in flight.  Emits one JSON row per cell on stderr
//! (`experiment = "netserve"`; the repository keeps a recorded run checked
//! in as `BENCH_netserve.json`), recording request throughput and
//! frame-round-trip p50/p99.
//!
//! The in-process comparison point is `bench_kvserve`'s
//! `kvserve_saturation` experiment (`BENCH_kvserve_saturation.json`),
//! which drives the *same* pipelined router interface without sockets:
//! the difference between the two request rates at matching concurrency is
//! the cost of the wire — syscalls, frame encode/decode, and the reactor —
//! per request.
//!
//! Every cell is validated: each client tallies the keys its `Put`s
//! actually inserted (the reply says so), and the service's cross-shard
//! key-sum must agree after the graceful shutdown.
//!
//! Usage:
//!   cargo run -p setbench --release --bin bench_netserve \[-- --smoke\]

use std::sync::Arc;
use std::time::Instant;

use obs::Histogram;
use kvserve::{KvService, Request, Response, ShardStore};
use netserve::{Client, Server, ServerConfig};
use rand::prelude::*;
use setbench::make_structure;

/// Point requests per frame.
const FRAME_REQUESTS: usize = 8;
/// Shards backing every cell.
const SHARDS: usize = 4;
/// Reactor threads serving every cell.
const REACTORS: usize = 2;
/// Key space each cell's traffic lands in.
const KEY_SPACE: u64 = 100_000;

struct Cell {
    connections: usize,
    depth: usize,
    frames_per_conn: u64,
}

struct CellResult {
    frames: u64,
    secs: f64,
    latency: Histogram,
    /// Sum of keys whose `Put` reported an actual insert.
    inserted_sum: u128,
}

/// One client connection's closed loop: keep `depth` frames in flight,
/// record each frame's round trip, tally confirmed inserts.
fn drive_connection(
    addr: std::net::SocketAddr,
    seed: u64,
    depth: usize,
    frames: u64,
    latency: &Histogram,
) -> u128 {
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(FRAME_REQUESTS);
    let mut sent_at: std::collections::VecDeque<(Instant, Vec<u64>)> =
        std::collections::VecDeque::with_capacity(depth);
    let mut inserted_sum = 0u128;
    let mut sent = 0u64;
    let mut collected = 0u64;
    while collected < frames {
        while sent < frames && sent_at.len() < depth {
            batch.clear();
            let mut put_keys = Vec::new();
            for _ in 0..FRAME_REQUESTS {
                let key = rng.gen_range(0..KEY_SPACE);
                if rng.gen_bool(0.5) {
                    batch.push(Request::Put { key, value: key });
                    put_keys.push(key);
                } else {
                    batch.push(Request::Get { key });
                    put_keys.push(u64::MAX); // placeholder: not a put
                }
            }
            client.send(&batch).expect("send");
            sent_at.push_back((Instant::now(), put_keys));
            sent += 1;
        }
        let replies = client.recv().expect("recv");
        let (started, put_keys) = sent_at.pop_front().expect("a frame in flight");
        latency.record(started.elapsed().as_nanos() as u64);
        collected += 1;
        assert_eq!(replies.len(), FRAME_REQUESTS);
        for (reply, &key) in replies.iter().zip(&put_keys) {
            if key != u64::MAX && *reply == Response::Value(None) {
                inserted_sum += key as u128;
            }
        }
    }
    inserted_sum
}

fn run_cell(cell: &Cell) -> CellResult {
    let service = Arc::new(KvService::new(SHARDS, 1, |_| {
        let shard: Box<dyn ShardStore> = Box::new(make_structure("elim-abtree"));
        shard
    }));
    let mut server = Server::start(
        ServerConfig {
            reactors: REACTORS,
            ..ServerConfig::default()
        },
        Arc::clone(&service),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let latency = Histogram::new();
    let started = Instant::now();
    let inserted_sum: u128 = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..cell.connections)
            .map(|c| {
                let latency = &latency;
                let seed = 0xBE7C_0000 + c as u64;
                scope.spawn(move || {
                    drive_connection(addr, seed, cell.depth, cell.frames_per_conn, latency)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .sum()
    });
    let secs = started.elapsed().as_secs_f64();

    server.shutdown();
    let frames = cell.connections as u64 * cell.frames_per_conn;
    assert_eq!(server.stats().frames(), frames, "every frame served");
    assert_eq!(server.stats().open_connections(), 0, "every connection closed");

    CellResult {
        frames,
        secs,
        latency,
        inserted_sum: {
            // The validation: what the clients were told they inserted must
            // be exactly what the shards hold.
            assert_eq!(
                service.key_sum(),
                inserted_sum,
                "cross-shard key-sum validation"
            );
            inserted_sum
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");

    let connections: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 8, 32] };
    let depths: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 32] };
    let frames_per_conn: u64 = if smoke { 500 } else { 5_000 };

    let fmt_ns = |q: Option<u64>| q.map_or(-1i64, |ns| ns.min(i64::MAX as u64) as i64);
    for &conns in connections {
        for &depth in depths {
            let cell = Cell {
                connections: conns,
                depth,
                frames_per_conn,
            };
            let result = run_cell(&cell);
            let requests = result.frames * FRAME_REQUESTS as u64;
            eprintln!(
                concat!(
                    "{{\"experiment\":\"netserve\",\"structure\":\"elim-abtree\",",
                    "\"shards\":{},\"reactors\":{},\"connections\":{},",
                    "\"pipeline_depth\":{},\"frames\":{},\"requests\":{},",
                    "\"duration_secs\":{},\"request_mops\":{},",
                    "\"frame_p50_ns\":{},\"frame_p99_ns\":{},\"validated\":true}}"
                ),
                SHARDS,
                REACTORS,
                conns,
                depth,
                result.frames,
                requests,
                result.secs,
                requests as f64 / result.secs / 1e6,
                fmt_ns(result.latency.p50()),
                fmt_ns(result.latency.p99()),
            );
            println!(
                "conns={conns:>3} depth={depth:>3}: {:.3} Mreq/s, frame p50 {} ns p99 {} ns ({} keys summed)",
                requests as f64 / result.secs / 1e6,
                fmt_ns(result.latency.p50()),
                fmt_ns(result.latency.p99()),
                result.inserted_sum,
            );
        }
    }
}
