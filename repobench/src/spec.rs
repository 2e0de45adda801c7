//! The four workloads, their sizes, and the seeded inputs they run.
//!
//! Every input (prefill key order, per-thread op streams, mget batches) is
//! generated from the run's `--seed` before anything is timed; the layers
//! under test only ever see the generated ops.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::KeyDistribution;

/// Keys per `mget` request.
pub const MGET_KEYS: usize = 16;
/// Longest `scan` window, in keys.
pub const MAX_SCAN_LEN: u32 = 64;
/// Point requests per wire frame (the net workload and the frame hops).
pub const FRAME_REQUESTS: usize = 8;
/// Ops a durable client keeps in flight.
pub const DURABLE_WINDOW: usize = 16;
/// Acknowledgements per group fence on the durable shard.
pub const DURABLE_GROUP: u32 = 8;
/// Simulated persistent-memory costs: a cheap line flush and an expensive
/// fence, the regime in which group commit pays.
pub const PMEM_MODE: abpmem::PersistMode = abpmem::PersistMode::Simulated {
    flush_ns: 5,
    fence_ns: 2_000,
};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Elim-ABtree through per-thread handles, Zipf 1.0, 50/50 updates.
    TreeZipfUpdate,
    /// Two-shard `KvService`, one blocking client, Zipf 0.99, read-mostly.
    KvZipfRead,
    /// `netserve` loopback, two closed-loop connections, uniform keys.
    NetUniformRtt,
    /// One durable shard, group commit, 16 ops in flight.
    DurableGroupCommit,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TreeZipfUpdate,
        Workload::KvZipfRead,
        Workload::NetUniformRtt,
        Workload::DurableGroupCommit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeZipfUpdate => "tree-zipf-update",
            Workload::KvZipfRead => "kv-zipf-read",
            Workload::NetUniformRtt => "net-uniform-rtt",
            Workload::DurableGroupCommit => "durable-group-commit",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Delete,
    MGet,
    Scan,
}

impl Kind {
    /// Every kind, in `Mix` field order.
    pub const ALL: [Kind; 5] = [Kind::Get, Kind::Put, Kind::Delete, Kind::MGet, Kind::Scan];
}

/// One generated operation.  `arg` is the scan length for `Scan` and the
/// index into [`Stream::batches`] for `MGet`; `key` is unused by `MGet`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub arg: u32,
    pub key: u64,
}

/// Percentages per kind, in [`Kind::ALL`] order; they sum to 100.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix(pub [u32; 5]);

impl Mix {
    fn sample(&self, rng: &mut StdRng) -> Kind {
        let mut roll = rng.gen_range(0..100u32);
        for (kind, pct) in Kind::ALL.into_iter().zip(self.0) {
            if roll < pct {
                return kind;
            }
            roll -= pct;
        }
        unreachable!("mix percentages sum to 100")
    }

    /// Whether the mix ever draws `kind`.
    pub fn has(&self, kind: Kind) -> bool {
        self.0[kind as usize] > 0
    }
}

/// The sizes and shape of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Distinct keys inserted, in seeded random order, before timing.
    pub prefill: u64,
    /// Zipf exponent (0 = uniform), unscrambled as in the paper.
    pub zipf: f64,
    pub mix: Mix,
    /// Load threads (tree) or connections (net); 1 otherwise.
    pub threads: usize,
    /// Ops generated per load thread; a run cycles through them.
    pub stream_len: usize,
    /// Ops of the workload's stream replayed through each hop of the
    /// traced run's waterfall.
    pub hop_ops: usize,
    /// Times the set-up is repeated to report its median.
    pub setups: usize,
}

impl Spec {
    /// The full-size workload the benchmark runs.
    pub fn full(workload: Workload) -> Self {
        let (key_range, prefill, zipf, mix, threads, stream_len) = match workload {
            Workload::TreeZipfUpdate => {
                (1_000_000, 500_000, 1.0, Mix([0, 50, 50, 0, 0]), 2, 1 << 20)
            }
            Workload::KvZipfRead => (100_000, 50_000, 0.99, Mix([90, 4, 4, 1, 1]), 1, 1 << 20),
            Workload::NetUniformRtt => (100_000, 50_000, 0.0, Mix([50, 25, 25, 0, 0]), 2, 1 << 18),
            Workload::DurableGroupCommit => {
                (100_000, 50_000, 0.0, Mix([0, 50, 50, 0, 0]), 1, 1 << 20)
            }
        };
        Self {
            workload,
            key_range,
            prefill,
            zipf,
            mix,
            threads,
            stream_len,
            hop_ops: 1 << 15,
            setups: 9,
        }
    }

    /// A tiny version of the workload, for the benchmark's own tests.
    pub fn smoke(workload: Workload) -> Self {
        let full = Self::full(workload);
        Self {
            key_range: full.key_range / 100,
            prefill: full.prefill / 100,
            stream_len: 1 << 12,
            hop_ops: 1 << 9,
            setups: 2,
            ..full
        }
    }

    fn distribution(&self) -> KeyDistribution {
        KeyDistribution::from_zipf_parameter(self.key_range, self.zipf)
    }
}

/// The value stored under `key`; every read and every displaced write is
/// checked against it.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key ^ 0x5DEE_CE66_D1CE_4E5B
}

/// A seeded generator for one purpose (`lane`) of one run.
pub fn rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `spec.prefill` distinct keys of the key range in seeded random order:
/// never ascending, which is the (a,b)-tree's best case.
pub fn prefill_keys(spec: &Spec, seed: u64) -> Vec<u64> {
    let mut rng = rng(seed, 0xF111);
    let mut keys: Vec<u64> = (0..spec.key_range).collect();
    let take = spec.prefill as usize;
    for i in 0..take {
        let j = rng.gen_range(i..keys.len());
        keys.swap(i, j);
    }
    keys.truncate(take);
    keys
}

/// One load thread's operations.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub batches: Vec<[u64; MGET_KEYS]>,
}

impl Stream {
    /// The keys of an `MGet` op.
    pub fn batch(&self, op: &Op) -> &[u64; MGET_KEYS] {
        &self.batches[op.arg as usize]
    }

    fn push(&mut self, kind: Kind, rng: &mut StdRng, dist: &KeyDistribution) {
        let op = match kind {
            Kind::MGet => {
                let mut keys = [0u64; MGET_KEYS];
                for key in &mut keys {
                    *key = dist.sample(rng);
                }
                self.batches.push(keys);
                Op {
                    kind,
                    arg: (self.batches.len() - 1) as u32,
                    key: 0,
                }
            }
            Kind::Scan => Op {
                kind,
                arg: rng.gen_range(1..=MAX_SCAN_LEN),
                key: dist.sample(rng),
            },
            _ => Op {
                kind,
                arg: 0,
                key: dist.sample(rng),
            },
        };
        self.ops.push(op);
    }
}

/// The op stream of load thread `thread`.
pub fn stream(spec: &Spec, seed: u64, thread: usize) -> Stream {
    generate(spec, seed, 0x5EED + thread as u64, spec.stream_len)
}

fn generate(spec: &Spec, seed: u64, lane: u64, len: usize) -> Stream {
    let mut rng = rng(seed, lane);
    let dist = spec.distribution();
    let mut stream = Stream::default();
    stream.ops.reserve_exact(len);
    for _ in 0..len {
        let kind = spec.mix.sample(&mut rng);
        stream.push(kind, &mut rng, &dist);
    }
    stream
}

/// Ops of each kind the workload's mix never draws, appended to the hop
/// stream so every layer metric of the traced run has samples.
pub const PROBES_PER_KIND: usize = 256;

/// The traced run's waterfall stream: the first `hop_ops` ops of load
/// thread 0's stream, then [`PROBES_PER_KIND`] ops of each kind the mix
/// lacks (over the same key distribution).
pub fn hop_stream(spec: &Spec, seed: u64) -> Stream {
    let mut hop = generate(spec, seed, 0x5EED, spec.hop_ops.min(spec.stream_len));
    let mut rng = rng(seed, 0x9120BE);
    let dist = spec.distribution();
    let probes = if spec.hop_ops < PROBES_PER_KIND * 4 {
        spec.hop_ops / 4
    } else {
        PROBES_PER_KIND
    };
    for kind in Kind::ALL {
        if !spec.mix.has(kind) {
            for _ in 0..probes {
                hop.push(kind, &mut rng, &dist);
            }
        }
    }
    hop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let spec = Spec::smoke(Workload::KvZipfRead);
        assert_eq!(stream(&spec, 7, 0).ops, stream(&spec, 7, 0).ops);
        assert_ne!(stream(&spec, 7, 0).ops, stream(&spec, 8, 0).ops);
        assert_ne!(stream(&spec, 7, 0).ops, stream(&spec, 7, 1).ops);
        assert_eq!(prefill_keys(&spec, 3), prefill_keys(&spec, 3));
    }

    #[test]
    fn prefill_is_distinct_and_not_ascending() {
        let spec = Spec::smoke(Workload::TreeZipfUpdate);
        let keys = prefill_keys(&spec, 1);
        assert_eq!(keys.len() as u64, spec.prefill);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        assert_ne!(sorted, keys);
    }

    #[test]
    fn hop_stream_covers_every_kind() {
        for workload in Workload::ALL {
            let hop = hop_stream(&Spec::smoke(workload), 5);
            for kind in Kind::ALL {
                assert!(
                    hop.ops.iter().any(|op| op.kind == kind),
                    "{workload:?} lacks {kind:?}"
                );
            }
        }
    }
}
