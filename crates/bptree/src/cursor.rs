//! Outward expansion from an anchor key — QALSH's window scan.
//!
//! Given the query's projection `h_i(q)`, QALSH repeatedly widens a window
//! `[h_i(q) − wR/2, h_i(q) + wR/2]` and counts the points whose projections
//! fall inside. [`ExpandingCursor`] yields entries in order of `|key −
//! anchor|`, so each QALSH round simply pulls entries while the offset stays
//! within the current half-width — no entry is ever scanned twice across
//! rounds.

use crate::tree::BPlusTree;
use pm_lsh_metric::PointId;

/// Bidirectional nearest-first scan around an anchor key.
pub struct ExpandingCursor<'t> {
    tree: &'t BPlusTree,
    anchor: f32,
    /// Next position on the right (keys >= anchor), if any.
    right: Option<(u32, usize)>,
    /// Next position on the left (keys < anchor), if any.
    left: Option<(u32, usize)>,
}

impl<'t> ExpandingCursor<'t> {
    /// Starts a cursor centered at `anchor`.
    pub fn new(tree: &'t BPlusTree, anchor: f32) -> Self {
        assert!(!anchor.is_nan(), "anchor must not be NaN");
        Self {
            tree,
            anchor,
            right: tree.seek(anchor),
            left: tree.seek_before(anchor),
        }
    }

    /// The absolute offset of the next entry, or `None` when exhausted.
    pub fn peek_offset(&self) -> Option<f32> {
        let r = self
            .right
            .map(|p| (self.tree.entry_at(p).0 - self.anchor).abs());
        let l = self
            .left
            .map(|p| (self.tree.entry_at(p).0 - self.anchor).abs());
        match (l, r) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some(x), Some(y)) => Some(x.min(y)),
        }
    }

    /// The next entry in order of `|key − anchor|` as
    /// `(key, value, signed_offset)`.
    pub fn next_nearest(&mut self) -> Option<(f32, PointId, f32)> {
        let r_off = self
            .right
            .map(|p| (self.tree.entry_at(p).0 - self.anchor).abs());
        let l_off = self
            .left
            .map(|p| (self.tree.entry_at(p).0 - self.anchor).abs());
        let take_right = match (l_off, r_off) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(l), Some(r)) => r <= l,
        };
        if take_right {
            let pos = self.right.unwrap();
            let (k, v) = self.tree.entry_at(pos);
            self.right = self.tree.next_pos(pos);
            Some((k, v, k - self.anchor))
        } else {
            let pos = self.left.unwrap();
            let (k, v) = self.tree.entry_at(pos);
            self.left = self.tree.prev_pos(pos);
            Some((k, v, k - self.anchor))
        }
    }

    /// The next entry whose offset is at most `half_width`, or `None` when
    /// the nearest remaining entry lies outside the window (the cursor
    /// survives, so a later wider window continues where this one stopped).
    pub fn next_within(&mut self, half_width: f32) -> Option<(f32, PointId, f32)> {
        match self.peek_offset() {
            Some(off) if off <= half_width => self.next_nearest(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> BPlusTree {
        let pairs: Vec<(f32, PointId)> = (0..100).map(|i| (i as f32 * 0.5, i as PointId)).collect();
        BPlusTree::bulk_load(&pairs)
    }

    #[test]
    fn nearest_first_ordering() {
        let tree = sample_tree();
        let mut cur = ExpandingCursor::new(&tree, 24.3);
        let mut last = 0.0f32;
        let mut count = 0;
        while let Some((k, _, off)) = cur.next_nearest() {
            assert!((k - 24.3).abs() >= last - 1e-6, "offsets must not decrease");
            assert!(((k - 24.3) - off).abs() < 1e-6);
            last = (k - 24.3).abs();
            count += 1;
        }
        assert_eq!(count, 100, "cursor must enumerate every entry");
    }

    #[test]
    fn window_expansion_never_repeats() {
        let tree = sample_tree();
        let mut cur = ExpandingCursor::new(&tree, 25.0);
        let mut seen = std::collections::HashSet::new();
        for half in [1.0f32, 2.0, 5.0, 100.0] {
            while let Some((_, v, _)) = cur.next_within(half) {
                assert!(seen.insert(v), "value {v} yielded twice");
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn anchor_outside_key_range() {
        let tree = sample_tree();
        // anchor left of all keys: only right side advances
        let mut cur = ExpandingCursor::new(&tree, -10.0);
        let (k, v, off) = cur.next_nearest().unwrap();
        assert_eq!((k, v), (0.0, 0));
        assert_eq!(off, 10.0);
        // anchor right of all keys
        let mut cur = ExpandingCursor::new(&tree, 1000.0);
        let (k, _, _) = cur.next_nearest().unwrap();
        assert_eq!(k, 49.5);
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tree = BPlusTree::bulk_load(&[]);
        let mut cur = ExpandingCursor::new(&tree, 0.0);
        assert!(cur.next_nearest().is_none());
        assert!(cur.peek_offset().is_none());
    }

    #[test]
    fn duplicates_all_emitted() {
        let pairs: Vec<(f32, PointId)> = vec![(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 4)];
        let tree = BPlusTree::bulk_load(&pairs);
        let mut cur = ExpandingCursor::new(&tree, 1.0);
        let mut ids: Vec<PointId> = Vec::new();
        while let Some((_, v, _)) = cur.next_within(0.5) {
            ids.push(v);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
