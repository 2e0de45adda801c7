//! The router ↔ shard-owner hand-off shared by every thread-per-shard
//! service: the lane mailbox, the idle/park/wake protocol, and both ends of
//! the SPSC lane pairs that carry jobs to an owner and replies back.
//!
//! An [`Inbox`] belongs to one shard.  Routers come and go at any time:
//! [`Inbox::open`] builds a fresh lane pair, deposits the owner half in a
//! mutex-protected mailbox and bumps an event counter; the owner adopts
//! pending lanes when the counter moves ([`Owner::adopt`]).  The mutex is
//! touched only on router open — never on the request path.
//!
//! ## Idle protocol
//!
//! An owner that finds no work spins briefly, then raises the idle flag,
//! issues a `SeqCst` fence and re-scans once before parking
//! ([`Owner::wait`]).  A producer pushes, then calls [`Inbox::wake`], which
//! fences *before* it samples the flag and unparks only when the flag is
//! up, so a busy owner never pays a syscall.  The two fences pair: either
//! the owner's re-scan sees the job, or the producer sees the flag.  The
//! fence lives inside `wake`, so no producer can skip it.
//!
//! ## Shutdown
//!
//! [`Inbox::begin_shutdown`] raises the shutdown flag and unparks the owner
//! unconditionally; [`Owner::wait`] reports it once a pass found no work.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

use crate::queue::{self, Consumer, Producer, PushError};

/// Capacity of each SPSC lane, and therefore the per-shard in-flight cap
/// of one router: a 65th uncollected job to one shard is refused.  The cap
/// also guarantees the reply ring can always absorb every reply the owner
/// releases.
pub const LANE_CAPACITY: usize = 64;

/// How many consecutive empty passes an owner tolerates before it
/// advertises idleness and parks.
const IDLE_SPINS: u32 = 64;

/// One shard's mailbox and wake-up state (see the module docs).  The
/// default inbox is empty, with no owner registered.
pub struct Inbox<J, R> {
    /// Lanes opened by routers but not yet adopted by the owner.
    pending: Mutex<Vec<Lane<J, R>>>,
    /// Bumped on every mailbox deposit; the owner re-checks the mailbox
    /// only when it moves.
    generation: AtomicU64,
    /// Raised by the owner just before parking.
    idle: AtomicBool,
    shutdown: AtomicBool,
    /// The owner thread, registered by [`Inbox::owner`].
    owner: Mutex<Option<Thread>>,
}

impl<J, R> Default for Inbox<J, R> {
    fn default() -> Self {
        Self {
            pending: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            idle: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            owner: Mutex::new(None),
        }
    }
}

impl<J, R> Inbox<J, R> {
    /// Opens a lane pair for a new router: the owner half goes to the
    /// mailbox (and the owner is woken to adopt it), the router half is
    /// returned.
    pub fn open(&self) -> RouterLane<J, R> {
        let (jobs, owner_jobs) = queue::channel(LANE_CAPACITY);
        let (owner_replies, replies) = queue::channel(LANE_CAPACITY);
        self.pending.lock().expect("lane mailbox poisoned").push(Lane {
            jobs: owner_jobs,
            replies: owner_replies,
            held: VecDeque::new(),
        });
        self.generation.fetch_add(1, Ordering::Release);
        self.wake();
        RouterLane {
            jobs,
            replies,
            in_flight: 0,
            spin: reply_spin(),
        }
    }

    /// Unparks the owner if (and only if) it advertised itself idle.  Call
    /// after publishing anything the owner must see (a job, an armed
    /// directive); the leading `SeqCst` fence orders that publication
    /// before the flag is sampled.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) {
            self.unpark();
        }
    }

    /// Raises the shutdown flag and wakes the owner unconditionally.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.unpark();
    }

    fn unpark(&self) {
        if let Some(owner) = self.owner.lock().expect("owner slot poisoned").as_ref() {
            owner.unpark();
        }
    }

    /// Registers the calling thread as this inbox's owner and returns its
    /// side of the hand-off.  Call on the owner thread before it serves.
    pub fn owner(&self) -> Owner<'_, J, R> {
        *self.owner.lock().expect("owner slot poisoned") = Some(std::thread::current());
        Owner {
            inbox: self,
            lanes: Vec::new(),
            seen_generation: 0,
            quiet_passes: 0,
        }
    }
}

/// The owner end of one router's lane pair.  `held` buffers replies the
/// owner has produced but not yet released (group commit holds them until
/// the covering fence); an owner that answers at once never touches it.
pub struct Lane<J, R> {
    /// Jobs from the router, in FIFO order.
    pub jobs: Consumer<J>,
    replies: Producer<R>,
    held: VecDeque<R>,
}

impl<J, R> Lane<J, R> {
    /// Sends `reply` to the router now.  The router caps its in-flight jobs
    /// at the ring capacity, so a live reply ring always has room; a
    /// disconnected one means the router is gone and the reply is dropped.
    pub fn reply(&mut self, reply: R) {
        match self.replies.try_push(reply) {
            Ok(()) | Err(PushError::Disconnected(_)) => {}
            Err(PushError::Full(_)) => unreachable!("reply lane overflowed its in-flight cap"),
        }
    }

    /// Holds `reply` back until [`release`](Self::release).
    pub fn hold(&mut self, reply: R) {
        self.held.push_back(reply);
    }

    /// The replies held back so far, oldest first.
    pub fn held_mut(&mut self) -> impl Iterator<Item = &mut R> {
        self.held.iter_mut()
    }

    /// Sends every held reply, in FIFO order.
    pub fn release(&mut self) {
        while let Some(reply) = self.held.pop_front() {
            self.reply(reply);
        }
    }

    /// A lane is dead once its router dropped the producer half, every
    /// queued job was drained and every held reply released.
    fn is_dead(&self) -> bool {
        self.jobs.is_disconnected() && self.jobs.is_empty() && self.held.is_empty()
    }
}

/// The owner thread's side of an [`Inbox`]: the adopted lanes plus the
/// spin-then-park bookkeeping.
pub struct Owner<'a, J, R> {
    inbox: &'a Inbox<J, R>,
    /// Every live lane the owner has adopted.
    pub lanes: Vec<Lane<J, R>>,
    seen_generation: u64,
    quiet_passes: u32,
}

impl<J, R> Owner<'_, J, R> {
    /// Adopts lanes opened since the last call and prunes dead ones.
    pub fn adopt(&mut self) {
        self.lanes.retain(|lane| !lane.is_dead());
        let generation = self.inbox.generation.load(Ordering::Acquire);
        if generation != self.seen_generation {
            self.seen_generation = generation;
            self.lanes
                .append(&mut self.inbox.pending.lock().expect("lane mailbox poisoned"));
        }
    }

    /// Records a pass that served work, resetting the idle count.
    pub fn busy(&mut self) {
        self.quiet_passes = 0;
    }

    /// Called after a pass that served nothing.  Returns `false` once
    /// shutdown was requested (the owner should exit); otherwise spins, or
    /// after `IDLE_SPINS` empty passes in a row parks until a producer
    /// wakes it, and returns `true`.  `wake_on` names extra owner-specific
    /// work (an armed directive) that must also keep the owner from parking.
    pub fn wait(&mut self, wake_on: impl Fn() -> bool) -> bool {
        let inbox = self.inbox;
        if inbox.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.quiet_passes += 1;
        if self.quiet_passes < IDLE_SPINS {
            std::hint::spin_loop();
            return true;
        }
        self.quiet_passes = 0;
        // Publish idleness, then re-scan once: a producer that pushed
        // before seeing the flag is caught by the re-scan, one that pushes
        // after seeing it will unpark us.
        inbox.idle.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let work_arrived = self.lanes.iter().any(|lane| !lane.jobs.is_empty())
            || inbox.generation.load(Ordering::SeqCst) != self.seen_generation
            || inbox.shutdown.load(Ordering::SeqCst)
            || wake_on();
        if !work_arrived {
            std::thread::park();
        }
        inbox.idle.store(false, Ordering::SeqCst);
        true
    }
}

/// The router end of one shard's lane pair.  `in_flight` counts pushed but
/// not yet popped jobs, which bounds the occupancy of both rings.
pub struct RouterLane<J, R> {
    jobs: Producer<J>,
    replies: Consumer<R>,
    in_flight: usize,
    spin: u32,
}

impl<J, R> RouterLane<J, R> {
    /// Jobs pushed whose reply has not been popped yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Pushes `job` and wakes `inbox`'s owner, or hands the job back when
    /// [`LANE_CAPACITY`] jobs are already in flight.
    pub fn push(&mut self, inbox: &Inbox<J, R>, job: J) -> Result<(), J> {
        if self.in_flight >= LANE_CAPACITY {
            return Err(job);
        }
        if self.jobs.try_push(job).is_err() {
            panic!("shard lane rejected a push below the in-flight cap");
        }
        self.in_flight += 1;
        inbox.wake();
        Ok(())
    }

    /// Blocks for the next reply: spins briefly (about zero on a
    /// single-core host, where spinning only delays the owner), then
    /// yields.
    ///
    /// # Panics
    ///
    /// Panics if the owner is gone and no reply is left, instead of
    /// spinning forever.
    pub fn pop(&mut self) -> R {
        let mut spins = 0u32;
        loop {
            if let Some(reply) = self.replies.try_pop() {
                self.in_flight -= 1;
                return reply;
            }
            if self.replies.is_disconnected() && self.replies.is_empty() {
                panic!("shard owner thread died with replies outstanding");
            }
            spins += 1;
            if spins < self.spin {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// How long a router spins on an empty reply lane before yielding.
fn reply_spin() -> u32 {
    static SPIN: OnceLock<u32> = OnceLock::new();
    *SPIN.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            128
        } else {
            1
        }
    })
}
