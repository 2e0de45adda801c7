//! The durable shard owner: one thread per shard owning the shard's WAL
//! tree, its persist lifecycle, and its crash behavior.
//!
//! The router ↔ owner hand-off (SPSC lanes, lane mailbox, idle/park
//! protocol) is `kvserve`'s [`kvserve::inbox`]; this module adds the
//! persist lifecycle on top:
//!
//! * the shard's store is a concrete [`pabtree::WalElimABTree`] — flushes
//!   are issued inside every operation ([`pabtree::RelaxedPersist`]), but
//!   **no fence**;
//! * the owner batches acknowledgements into **groups**: replies are held
//!   per lane, and released only when the owner issues the group
//!   [`abpmem::sfence`] — after `acks_per_fence` operations, or earlier
//!   when the lanes drain empty (so a lone blocking client is never parked
//!   behind a fence that will not come).  An acked operation is therefore
//!   always durable;
//! * every state-changing operation since the last fence is kept in an
//!   **unfenced log** with enough information to invert it, which is what
//!   lets a crash at the boundary roll back the exact suffix that "did not
//!   reach persistent memory";
//! * a crash directive ([`crate::CrashSpec`], armed by the injector) fires
//!   at a group boundary: the suffix rolls back, optional torn-persist
//!   damage is planted, every held (unacked) reply is answered
//!   [`ShardReply::Crashed`], and the shard goes [`ShardStatus::Down`].
//!   The owner then recovers the shard **in place**: it drops its session,
//!   runs [`pabtree::recover`], records the [`CrashReport`], goes
//!   [`ShardStatus::Up`] and keeps serving the lanes it already holds.  The
//!   router sees the shard degrade (queued jobs wait, `Crashed` errors) and
//!   heal, never a poisoned lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use abtree::MapHandle;
use kvserve::inbox::{Inbox, Lane};
use obs::{Stage, StageTrace, Stamp};
use pabtree::WalElimABTree;

use crate::crash::{CrashReport, CrashSpec};

/// One request handed to a shard owner.  The durable service is a point-op
/// store: batching happens at the ack/fence layer, not the request layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardJob {
    /// Point lookup.
    Get { key: u64 },
    /// Point insert-if-absent.
    Put { key: u64, value: u64 },
    /// Point removal.
    Delete { key: u64 },
}

/// The reply to one [`ShardJob`], in lane FIFO order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShardReply {
    /// The operation executed and its covering group fence was issued: the
    /// result is durable.
    Value(Option<u64>),
    /// The shard crashed before the covering group fence: the operation was
    /// never acknowledged and may or may not have taken effect.
    Crashed,
}

/// Shard liveness as the router and the metric registry see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// The owner thread is serving the shard.
    Up,
    /// The owner crashed and is recovering the shard in place.  Jobs stay
    /// queued in the lanes and are served after the shard heals.
    Down,
}

const STATUS_UP: u8 = 0;
const STATUS_DOWN: u8 = 1;

/// Shared coordination state of one durable shard.
pub(crate) struct ShardState {
    status: AtomicU8,
    /// The router ↔ owner hand-off.
    pub(crate) inbox: Inbox<ShardJob, ShardReply>,
    /// Group-fence boundaries completed (read-only groups skip the actual
    /// `sfence` but still count as boundaries — the ack-release points).
    pub(crate) boundaries: AtomicU64,
    /// Group fences actually issued (boundaries with pending writes).
    pub(crate) fences: AtomicU64,
    /// Completed crash + recovery cycles.
    pub(crate) crashes: AtomicU64,
    /// Armed crash directive; the flag is the cheap per-boundary check.
    crash_armed: AtomicBool,
    crash_spec: Mutex<Option<(u64, CrashSpec)>>,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        Self {
            status: AtomicU8::new(STATUS_UP),
            inbox: Inbox::default(),
            boundaries: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            crash_armed: AtomicBool::new(false),
            crash_spec: Mutex::new(None),
        }
    }

    pub(crate) fn status(&self) -> ShardStatus {
        match self.status.load(Ordering::SeqCst) {
            STATUS_UP => ShardStatus::Up,
            _ => ShardStatus::Down,
        }
    }

    fn set_status(&self, status: ShardStatus) {
        let raw = match status {
            ShardStatus::Up => STATUS_UP,
            ShardStatus::Down => STATUS_DOWN,
        };
        self.status.store(raw, Ordering::SeqCst);
    }

    /// Arms a crash directive: the owner crashes at the first boundary (or
    /// idle point) at which `after_boundaries` further boundaries have
    /// completed.
    pub(crate) fn arm_crash(&self, spec: CrashSpec) {
        let target = self.boundaries.load(Ordering::SeqCst) + spec.after_boundaries;
        *self.crash_spec.lock().expect("crash directive poisoned") = Some((target, spec));
        self.crash_armed.store(true, Ordering::SeqCst);
        // An idle owner must still crash: wake it so it reaches the check.
        self.inbox.wake();
    }

    /// Takes the directive if it is due at the current boundary count.
    fn due_crash(&self) -> Option<CrashSpec> {
        if !self.crash_armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut slot = self.crash_spec.lock().expect("crash directive poisoned");
        match *slot {
            Some((target, spec)) if self.boundaries.load(Ordering::SeqCst) >= target => {
                *slot = None;
                self.crash_armed.store(false, Ordering::SeqCst);
                Some(spec)
            }
            _ => None,
        }
    }
}

/// One durable shard: the concrete WAL tree plus its coordination state.
/// The tree is concrete (not `Box<dyn ShardStore>`) because crash injection
/// and recovery need the real type: `force_partial_insert`,
/// `force_dirty_root_link` and [`pabtree::recover`] are tree methods.
pub(crate) struct ShardCell {
    /// This shard's index in the service.
    pub(crate) index: usize,
    pub(crate) tree: WalElimABTree,
    pub(crate) state: ShardState,
    /// The service-wide stage trace; the owner records every group
    /// [`Stage::Fence`] span into it (unsampled — fences are already
    /// amortized to one per ack group).
    pub(crate) trace: Arc<StageTrace>,
    /// The service-wide crash log, in recovery order.
    pub(crate) crash_log: Arc<Mutex<Vec<CrashReport>>>,
}

/// One state-changing operation of the current unfenced group, with enough
/// information to invert it exactly.  Refused inserts and missed deletes
/// change nothing and are not logged (their *acks* still gate on the fence,
/// because they observed state that is only durable at the fence).
enum UnfencedOp {
    /// `insert(key, value)` installed the key; inverse: delete it.
    Inserted { key: u64, value: u64 },
    /// `delete(key)` removed `(key, value)`; inverse: re-insert it.
    Removed { key: u64, value: u64 },
}

/// The shard-owner thread body: serve the lanes in ack groups, recover in
/// place after every crash, exit on shutdown once drained.
pub(crate) fn run_shard_owner(cell: Arc<ShardCell>, acks_per_fence: u32) {
    let acks_per_fence = acks_per_fence.max(1);
    let state = &cell.state;
    let mut owner = state.inbox.owner();
    let recorder = cell.trace.recorder();
    let mut handle = cell.tree.handle();
    let mut unfenced: Vec<UnfencedOp> = Vec::new();
    let mut group_acks = 0u32;
    loop {
        owner.adopt();
        let mut served = 0u32;
        for lane in &mut owner.lanes {
            // Cap each run at the group budget so the boundary (fence +
            // ack release + crash check) always happens between runs.
            while group_acks < acks_per_fence {
                let Some(job) = lane.jobs.try_pop() else { break };
                let reply = execute(&mut handle, &mut unfenced, job);
                lane.hold(reply);
                group_acks += 1;
                served += 1;
                // The lost-ack mutant: release every ack held so far the
                // moment a state-changing write executes, *before* the
                // covering fence — exactly the bug group commit must not
                // have.  A crash at the next boundary then rolls back
                // acknowledged writes, which the durable checker must flag.
                #[cfg(feature = "lost-ack")]
                if matches!(reply, ShardReply::Value(_)) {
                    lane.release();
                }
            }
            if group_acks >= acks_per_fence {
                break;
            }
        }
        let boundary = group_acks >= acks_per_fence || (served == 0 && group_acks > 0);
        // A due crash fires at a group boundary, where the group dies
        // unfenced, or at an idle point (group empty, nothing held), so a
        // quiet shard cannot dodge its directive forever.
        if boundary || served == 0 {
            if let Some(spec) = state.due_crash() {
                crash_and_recover(&cell, handle, &mut owner.lanes, &mut unfenced, spec);
                handle = cell.tree.handle();
                group_acks = 0;
                continue;
            }
        }
        if boundary {
            // Fence (if any write is pending), then release every held ack.
            if !unfenced.is_empty() {
                let fence_start = Stamp::now();
                abpmem::sfence();
                state.fences.fetch_add(1, Ordering::SeqCst);
                recorder.record(Stage::Fence, fence_start);
                unfenced.clear();
            }
            state.boundaries.fetch_add(1, Ordering::SeqCst);
            for lane in &mut owner.lanes {
                lane.release();
            }
            group_acks = 0;
            continue;
        }
        if served > 0 {
            owner.busy();
            continue;
        }
        // Shutdown requires exclusive service access, so no router (and no
        // new lane) can exist; drained means done.
        if !owner.wait(|| state.crash_armed.load(Ordering::SeqCst)) {
            break;
        }
    }
}

/// Executes one job, maintaining the unfenced log.
fn execute(
    handle: &mut impl MapHandle,
    unfenced: &mut Vec<UnfencedOp>,
    job: ShardJob,
) -> ShardReply {
    match job {
        ShardJob::Get { key } => ShardReply::Value(handle.get(key)),
        ShardJob::Put { key, value } => {
            let prior = handle.insert(key, value);
            if prior.is_none() {
                unfenced.push(UnfencedOp::Inserted { key, value });
            }
            ShardReply::Value(prior)
        }
        ShardJob::Delete { key } => {
            let removed = handle.delete(key);
            if let Some(value) = removed {
                unfenced.push(UnfencedOp::Removed { key, value });
            }
            ShardReply::Value(removed)
        }
    }
}

/// The crash and the in-place recovery: destroy the unfenced suffix,
/// plant the requested §5 damage, abort every unacked client, then drop
/// the owner's session, recover the image and log the [`CrashReport`].
/// The caller reopens its session.
fn crash_and_recover(
    cell: &ShardCell,
    mut handle: impl MapHandle,
    lanes: &mut [Lane<ShardJob, ShardReply>],
    unfenced: &mut Vec<UnfencedOp>,
    spec: CrashSpec,
) {
    let state = &cell.state;
    // The whole window ends here: the surviving prefix is durable once
    // recovered, so a later crash must not roll it back.
    let window = std::mem::take(unfenced);
    let total = window.len();
    let survived = (spec.survivor_seed as usize) % (total + 1);
    // Roll back the non-persisted suffix with exact inverse operations in
    // reverse order, restoring the state as of `survived` operations past
    // the last fence.
    let rolled = &window[survived..];
    for op in rolled.iter().rev() {
        match *op {
            UnfencedOp::Inserted { key, .. } => {
                handle.delete(key);
            }
            UnfencedOp::Removed { key, value } => {
                handle.insert(key, value);
            }
        }
    }
    // Optionally re-apply one rolled-back insert *torn*: key/value stores
    // persisted, version/size update interrupted.  Recovery must linearize
    // it at the crash (paper §5), turning a "vanished" unacked write into a
    // "survived" one — both legal outcomes for the checker.
    let mut torn_insert = None;
    if spec.torn_insert {
        for op in rolled.iter().rev() {
            if let UnfencedOp::Inserted { key, value } = *op {
                if cell.tree.force_partial_insert(key, value) {
                    torn_insert = Some(key);
                    break;
                }
            }
        }
    }
    if spec.dirty_link {
        cell.tree.force_dirty_root_link();
    }
    // Every held reply belongs to an operation whose covering fence never
    // happened: abort them all.  Queued (unpopped) jobs stay in the lanes
    // and are served after the shard heals.
    for lane in lanes.iter_mut() {
        lane.held_mut().for_each(|reply| *reply = ShardReply::Crashed);
        lane.release();
    }
    state.set_status(ShardStatus::Down);
    // Recovery needs a quiescent tree, and this owner holds its only
    // session.
    drop(handle);
    let recovery = pabtree::recover(&cell.tree);
    assert!(
        !cell.tree.has_dirty_links(),
        "recovery must clear every dirty link-and-persist mark"
    );
    cell.crash_log.lock().expect("crash log poisoned").push(CrashReport {
        shard: cell.index,
        boundary_index: state.boundaries.load(Ordering::SeqCst),
        unfenced: total,
        survived,
        rolled_back: total - survived,
        torn_insert,
        dirty_link: spec.dirty_link,
        recovery,
    });
    state.crashes.fetch_add(1, Ordering::SeqCst);
    state.set_status(ShardStatus::Up);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_ends_the_unfenced_window() {
        let cell = ShardCell {
            index: 0,
            tree: WalElimABTree::new(),
            state: ShardState::new(),
            trace: Arc::new(StageTrace::new()),
            crash_log: Arc::default(),
        };
        let mut handle = cell.tree.handle();
        let mut unfenced = Vec::new();
        for key in 1..=4 {
            execute(&mut handle, &mut unfenced, ShardJob::Put { key, value: key });
        }
        let spec = CrashSpec {
            survivor_seed: 2,
            ..CrashSpec::default()
        };
        crash_and_recover(&cell, handle, &mut [], &mut unfenced, spec);
        assert_eq!(cell.tree.stats().keys, 2, "two writes survived the crash");
        // The owner keeps running after recovery: a survivor left in the
        // log would be rolled back by the next crash, after it was durable.
        assert!(unfenced.is_empty());
        assert_eq!(cell.crash_log.lock().unwrap()[0].survived, 2);
        assert_eq!(cell.state.status(), ShardStatus::Up);
    }
}
