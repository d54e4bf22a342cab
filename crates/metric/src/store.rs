//! An append-only row store that publishes in O(chunk): a shared base plus
//! a tail of shared fixed-size chunks.

use crate::dataset::Dataset;
use crate::PointId;
use std::sync::Arc;

/// How many rows one tail chunk of a [`RowStore`] holds: a multiple of the
/// sweep's [`crate::BLOCK_ROWS`], so a blocked column can share the same
/// chunking. A constant, not a knob: it bounds what one copy-on-write
/// append copies (64 rows) against how many chunk pointers a clone copies
/// (one per 64 appended rows).
pub const CHUNK_ROWS: usize = 64;

/// `n` points in `R^dim`, row `i` holding the point behind id `i`, stored
/// as an immutable shared base and an append-only tail of shared chunks.
///
/// * **The base** is the [`Dataset`] the store was made from (a build, a
///   load or a reindex). It is shared, and never copied or written.
/// * **The tail** holds every row appended since, in chunks of
///   [`CHUNK_ROWS`] rows; all but the last are full, and a full chunk is
///   never written again.
///
/// Cloning copies one pointer per chunk. [`RowStore::push`] writes only
/// the last chunk, so when a clone shares it with its source (a live
/// snapshot), the append copies at most `CHUNK_ROWS − 1` rows and leaves
/// the source untouched; the base and every full chunk stay shared.
///
/// ```
/// use pm_lsh_metric::{Dataset, RowStore};
/// let snapshot = RowStore::from(Dataset::from_rows(vec![vec![0.0, 1.0]]));
/// let mut next = snapshot.clone();
/// next.push(&[3.0, 4.0]);
/// assert_eq!((snapshot.len(), next.len()), (1, 2));
/// assert_eq!(next.point(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct RowStore {
    base: Arc<Dataset>,
    tail: Vec<Arc<Chunk>>,
}

/// One tail chunk: up to [`CHUNK_ROWS`] rows, row-major. Its clone keeps
/// the full chunk's capacity, so the copy-on-write append that clones it
/// copies the rows once and never regrows.
#[derive(Debug)]
struct Chunk(Vec<f32>);

impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut rows = Vec::with_capacity(self.0.capacity());
        rows.extend_from_slice(&self.0);
        Chunk(rows)
    }
}

impl RowStore {
    /// A store whose rows are all `base`'s, shared, with an empty tail.
    pub fn new(base: Arc<Dataset>) -> Self {
        Self {
            base,
            tail: Vec::new(),
        }
    }

    /// Number of rows, base and tail.
    #[inline]
    pub fn len(&self) -> usize {
        let tail_floats = self.tail.last().map_or(0, |last| {
            (self.tail.len() - 1) * CHUNK_ROWS * self.dim() + last.0.len()
        });
        self.base.len() + tail_floats / self.dim()
    }

    /// `true` when the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }

    /// Dimensionality of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        self.row_at(i, self.base.len())
    }

    /// Borrows row `id` (the `u32` form used by index structures).
    #[inline]
    pub fn point_id(&self, id: PointId) -> &[f32] {
        self.point(id as usize)
    }

    /// Row `i`, given the base's row count (hoisted out of a walk's loop).
    #[inline(always)]
    pub(crate) fn row_at(&self, i: usize, base_len: usize) -> &[f32] {
        match i.checked_sub(base_len) {
            None => self.base.point(i),
            Some(t) => {
                let d = self.dim();
                &self.tail[t / CHUNK_ROWS].0[(t % CHUNK_ROWS) * d..][..d]
            }
        }
    }

    /// The whole store as one flat row-major slice, when it has no tail.
    #[inline]
    pub(crate) fn as_flat(&self) -> Option<&[f32]> {
        self.tail.is_empty().then(|| self.base.as_flat())
    }

    /// Appends one row. Only the last chunk is written: through
    /// copy-on-write when another store shares it, into a new chunk when it
    /// is full.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dim()`.
    pub fn push(&mut self, point: &[f32]) {
        assert_eq!(point.len(), self.dim(), "point has wrong dimensionality");
        let chunk_floats = CHUNK_ROWS * self.dim();
        match self.tail.last_mut() {
            Some(last) if last.0.len() < chunk_floats => {
                Arc::make_mut(last).0.extend_from_slice(point);
            }
            _ => {
                let mut rows = Vec::with_capacity(chunk_floats);
                rows.extend_from_slice(point);
                self.tail.push(Arc::new(Chunk(rows)));
            }
        }
    }

    /// The shared base: every row the store was made with.
    pub fn base(&self) -> &Arc<Dataset> {
        &self.base
    }

    /// The rows as flat row-major runs in id order: the base's, then each
    /// tail chunk's. Their concatenation is every row, `len() · dim()`
    /// floats.
    pub fn runs(&self) -> impl Iterator<Item = &[f32]> + '_ {
        std::iter::once(self.base.as_flat()).chain(self.tail.iter().map(|chunk| &chunk.0[..]))
    }
}

impl From<Dataset> for RowStore {
    fn from(base: Dataset) -> Self {
        Self::new(Arc::new(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rows of `d` distinct values, row `i` starting at `seed + i·d`.
    fn rows(n: usize, d: usize, seed: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..d).map(|j| seed + (i * d + j) as f32).collect())
            .collect()
    }

    fn bits(store: &RowStore) -> Vec<u32> {
        store.runs().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tail_lengths_around_chunk_boundaries_read_back_in_id_order() {
        let d = 3;
        let base = rows(5, d, 0.0);
        for tail_len in [0usize, 1, 63, 64, 65, 128, 129] {
            let mut store = RowStore::from(Dataset::from_rows(base.clone()));
            let appended = rows(tail_len, d, 1000.0);
            for row in &appended {
                store.push(row);
            }
            let want: Vec<&[f32]> = base.iter().chain(&appended).map(|r| &r[..]).collect();
            assert_eq!(store.len(), 5 + tail_len, "tail of {tail_len}");
            assert_eq!(store.tail.len(), tail_len.div_ceil(CHUNK_ROWS));
            assert!(store
                .tail
                .iter()
                .rev()
                .skip(1)
                .all(|c| c.0.len() == CHUNK_ROWS * d));
            for (i, row) in want.iter().enumerate() {
                assert_eq!(store.point(i), *row, "tail of {tail_len}: row {i}");
            }
            let flat: Vec<f32> = store.runs().flatten().copied().collect();
            assert_eq!(flat, want.concat());
            assert_eq!(store.as_flat().is_some(), tail_len == 0);
        }
    }

    #[test]
    fn forks_of_one_snapshot_append_without_seeing_each_other() {
        let d = 4;
        for tail_len in [0usize, 63, 64, 65, 129] {
            let mut snapshot = RowStore::from(Dataset::from_rows(rows(7, d, 0.0)));
            for row in rows(tail_len, d, 500.0) {
                snapshot.push(&row);
            }
            let before = bits(&snapshot);
            let (mut a, mut b) = (snapshot.clone(), snapshot.clone());
            a.push(&[-1.0; 4]);
            b.push(&[-2.0; 4]);
            let n = 7 + tail_len;
            assert_eq!((a.len(), b.len(), snapshot.len()), (n + 1, n + 1, n));
            assert_eq!(a.point(n), &[-1.0; 4], "tail of {tail_len}");
            assert_eq!(b.point(n), &[-2.0; 4], "tail of {tail_len}");
            assert_eq!(bits(&snapshot), before, "the snapshot's rows moved");
            assert_eq!(bits(&a)[..n * d], before[..]);
            assert_eq!(bits(&b)[..n * d], before[..]);
        }
    }

    #[test]
    fn an_append_to_a_clone_shares_the_base_and_every_full_chunk() {
        let d = 2;
        for tail_len in [0usize, 63, 64, 65, 129] {
            let mut source = RowStore::from(Dataset::from_rows(rows(3, d, 0.0)));
            for row in rows(tail_len, d, 100.0) {
                source.push(&row);
            }
            let mut next = source.clone();
            next.push(&[7.0, 7.0]);
            assert!(Arc::ptr_eq(&next.base, &source.base), "tail of {tail_len}");
            let full = tail_len / CHUNK_ROWS;
            for i in 0..full {
                assert!(
                    Arc::ptr_eq(&next.tail[i], &source.tail[i]),
                    "tail of {tail_len}: full chunk {i} was copied"
                );
            }
            // The one chunk the append wrote is the clone's own.
            assert_eq!(next.tail.len(), full + 1);
            if let Some(partial) = source.tail.get(full) {
                assert!(!Arc::ptr_eq(&next.tail[full], partial));
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn push_rejects_wrong_dim() {
        let mut store = RowStore::from(Dataset::from_rows(vec![vec![1.0, 2.0]]));
        store.push(&[1.0]);
    }
}
