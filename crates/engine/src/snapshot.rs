//! The atomic snapshot cell: one mutable slot holding the served index.
//!
//! The engine's hot path is built on immutable snapshots — workers never
//! lock while *querying* — but serving a system that can be reindexed
//! needs exactly one point of mutability: which snapshot is current. An
//! `ArcSwap`-style cell would be the off-the-shelf answer; external crates
//! don't resolve offline, so this is the hand-rolled equivalent on
//! `Mutex<Arc<PmLsh>>`:
//!
//! * [`SnapshotCell::load`] — lock, clone the `Arc`, unlock. The critical
//!   section is a pointer copy and a refcount increment (a few dozen ns),
//!   taken once per request at enqueue time — and only once for a whole
//!   `query_batch` — so contention is negligible next to actual query
//!   work.
//! * [`SnapshotCell::swap`] — lock, replace the `Arc`, bump the epoch.
//!   In-flight queries keep whatever snapshot they loaded; the old index
//!   is freed when its last query finishes. Queries therefore never block
//!   on a rebuild and never observe a half-built index.
//!
//! The `rebuilding` flag serializes rebuilds (one at a time) without ever
//! being consulted by the query path.

use pm_lsh_core::PmLsh;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The swappable snapshot slot plus its generation counter.
pub(crate) struct SnapshotCell {
    slot: Mutex<Arc<PmLsh>>,
    epoch: AtomicU64,
    rebuilding: AtomicBool,
    /// Coarse percentage of the rebuild in progress (meaningful only while
    /// `rebuilding`): updated at phase boundaries by the reindex,
    /// read lock-free by `INDEXINFO`. 100 whenever the cell is serving.
    progress: AtomicU8,
    /// Serializes *writers* (single-point mutations among themselves, and
    /// a finishing rebuild's swap against an in-flight mutation) without
    /// ever being touched by the read path. A mutation holds this lock
    /// across its load → clone-and-patch → swap sequence, so no other
    /// publication can interleave and orphan its work; `slot` is still
    /// only locked for the pointer copy, so readers never wait on a
    /// clone-and-patch in progress.
    write: Mutex<()>,
}

impl SnapshotCell {
    pub(crate) fn new(index: Arc<PmLsh>) -> Self {
        Self {
            slot: Mutex::new(index),
            epoch: AtomicU64::new(0),
            rebuilding: AtomicBool::new(false),
            progress: AtomicU8::new(100),
            write: Mutex::new(()),
        }
    }

    /// Claims the writer slot for a load → patch → swap sequence. The
    /// guard must be held across the whole sequence.
    pub(crate) fn begin_write(&self) -> std::sync::MutexGuard<'_, ()> {
        self.write.lock().expect("write lock poisoned")
    }

    /// The current snapshot. Callers hold it for as long as they need —
    /// a concurrent [`SnapshotCell::swap`] never invalidates it.
    pub(crate) fn load(&self) -> Arc<PmLsh> {
        Arc::clone(&self.slot.lock().expect("snapshot lock poisoned"))
    }

    /// The current snapshot together with its epoch, read under one lock
    /// acquisition so the pair is always consistent (a bare `load()` +
    /// `epoch()` could straddle a swap).
    pub(crate) fn load_with_epoch(&self) -> (Arc<PmLsh>, u64) {
        let slot = self.slot.lock().expect("snapshot lock poisoned");
        (Arc::clone(&slot), self.epoch.load(Ordering::SeqCst))
    }

    /// Publishes a new snapshot and returns the new epoch. The displaced
    /// index stays alive until the last in-flight query drops its `Arc`.
    pub(crate) fn swap(&self, next: Arc<PmLsh>) -> u64 {
        let mut slot = self.slot.lock().expect("snapshot lock poisoned");
        *slot = next;
        // The epoch bump happens under the slot lock, so epoch N is never
        // observed alongside a snapshot older than N's.
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Generation counter: 0 for the snapshot the engine started with,
    /// +1 per completed swap.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Claims the (single) rebuild slot; `false` when a rebuild is already
    /// running. Claiming resets the progress gauge to 0.
    pub(crate) fn try_begin_rebuild(&self) -> bool {
        let claimed = self
            .rebuilding
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if claimed {
            self.progress.store(0, Ordering::SeqCst);
        }
        claimed
    }

    /// Releases the rebuild slot and restores the serving gauge.
    pub(crate) fn end_rebuild(&self) {
        self.progress.store(100, Ordering::SeqCst);
        self.rebuilding.store(false, Ordering::SeqCst);
    }

    /// Advances the rebuild progress gauge (phase boundaries only; there
    /// is no per-point instrumentation inside the build).
    pub(crate) fn set_progress(&self, pct: u8) {
        self.progress.store(pct.min(100), Ordering::SeqCst);
    }

    /// The current progress gauge: 100 while serving, the rebuild's
    /// last-reported phase percentage while rebuilding.
    pub(crate) fn progress(&self) -> u8 {
        self.progress.load(Ordering::SeqCst)
    }

    /// `true` while a rebuild claimed via [`Self::try_begin_rebuild`] runs.
    pub(crate) fn is_rebuilding(&self) -> bool {
        self.rebuilding.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_core::PmLshParams;
    use pm_lsh_metric::Dataset;

    fn tiny_index(value: f32) -> Arc<PmLsh> {
        let ds = Dataset::from_rows(vec![vec![value, value], vec![value + 1.0, value]]);
        Arc::new(PmLsh::build(ds, PmLshParams::default()))
    }

    #[test]
    fn load_survives_swap() {
        let cell = SnapshotCell::new(tiny_index(0.0));
        let held = cell.load();
        assert_eq!(cell.epoch(), 0);
        let e = cell.swap(tiny_index(10.0));
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);
        // The pre-swap snapshot is still fully usable.
        assert_eq!(held.data().point(0), &[0.0, 0.0]);
        assert_eq!(cell.load().data().point(0), &[10.0, 10.0]);
    }

    #[test]
    fn rebuild_slot_is_exclusive() {
        let cell = SnapshotCell::new(tiny_index(0.0));
        assert!(cell.try_begin_rebuild());
        assert!(cell.is_rebuilding());
        assert!(!cell.try_begin_rebuild());
        cell.end_rebuild();
        assert!(!cell.is_rebuilding());
        assert!(cell.try_begin_rebuild());
    }
}
