//! Regression test for a lost wake-up between a durable router and its
//! shard owner.
//!
//! A router that pushes a job and then samples the owner's idle flag
//! without a `SeqCst` fence in between can read a stale "busy" flag while
//! its push still sits in the store buffer; the owner, re-scanning after
//! raising the flag, misses the push and parks, and the blocking call
//! waits forever.  One shard, a fence per acknowledgement and simulated
//! persistent memory make the owner park between nearly every pair of
//! operations, which hit that window within seconds before the fence was
//! moved into the shared wake-up path.
//!
//! Its own test binary, because the persist mode is process-global.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crashkv::DurableKvService;

#[test]
fn blocking_put_delete_never_stalls() {
    abpmem::set_mode(abpmem::PersistMode::Simulated {
        flush_ns: 5,
        fence_ns: 2000,
    });
    let service = DurableKvService::new(1, 1);
    let mut router = service.router();
    let (progress, ops) = mpsc::channel();
    // A plain thread, not a scoped one: a stalled worker must not keep the
    // test from reporting.
    let worker = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut done = 0u64;
        while Instant::now() < deadline {
            for key in 1..=64u64 {
                assert_eq!(router.put(key, key), Ok(None));
                assert_eq!(router.delete(key), Ok(Some(key)));
                done += 2;
            }
            if progress.send(done).is_err() {
                return;
            }
        }
    });
    let mut done = 0u64;
    loop {
        match ops.recv_timeout(Duration::from_secs(2)) {
            Ok(count) => done = count,
            Err(RecvTimeoutError::Disconnected) => {
                worker.join().expect("the worker thread panicked");
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("blocking put/delete stalled for 2 s after {done} ops")
            }
        }
    }
    assert!(done > 0, "the worker completed no operation");
}
