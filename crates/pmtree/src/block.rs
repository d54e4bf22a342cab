//! lint: hot-path
//!
//! A PM-tree node as one contiguous block of 32-bit words.
//!
//! Every entry of a node sits in the node's single allocation at a fixed
//! stride, its fields in the order a range query reads them — first what
//! the distance-free filters of Eq. 5 need, then, in a routing entry, the
//! center the exact distance needs — so one entry is one forward run over
//! consecutive memory and one node is one run over its entries:
//!
//! ```text
//! routing entry (3 + 2s + m words; 112 B at m = 15, s = 5)
//!   parent_dist | radius | child | min₁ max₁ … min_s max_s | center₁ … center_m
//! leaf entry    (3 + s words;       32 B at s = 5)
//!   parent_dist | external | internal | pd₁ … pd_s
//! ```
//!
//! The words are `f32`s, which is what the distance kernels take; the three
//! ids are stored by `f32::from_bits` and read back by `to_bits` (a move,
//! never arithmetic, so every bit survives) — no `unsafe` anywhere. A leaf
//! entry holds no coordinates: its projected point is row `internal` of the
//! tree's one `points` column (`tree.rs`), so a sweep over every point reads
//! that column and never a block, while the range traversal reads a leaf
//! entry's filter fields here and its point there.
//!
//! A block is sized to its entries, not to the node capacity. PM-tree nodes
//! run far from full (about 6 of 16 entries at the paper's operating point,
//! mM_RAD splits being unbalanced), so capacity-sized blocks would nearly
//! triple the tree. A full block grows to a quarter more entries than it
//! will then hold, so a block never holds room for more than
//! `len + len / 4` entries; cloned and split blocks are exact. The tree's
//! `points` column follows the same policy row by row ([`grow`]), and a
//! column that lost rows gives the excess back ([`give_back`]).
//!
//! Only a bulk-loaded tree has blocks, and nothing stores them: a snapshot
//! holds the column the served index sweeps, so this module alone decides
//! the layout.

use crate::NodeId;
use pm_lsh_metric::PointId;

/// Words ahead of the per-pivot fields, in either entry kind.
const HEAD: usize = 3;
/// Word of `parent_dist`, in either entry kind.
const PARENT_DIST: usize = 0;
/// Word of a routing entry's covering radius.
const RADIUS: usize = 1;
/// Word of a leaf entry's external id.
const EXTERNAL: usize = 1;
/// Word of a routing entry's `child` and of a leaf entry's `internal`.
const LINK: usize = 2;

/// The shape of every entry of one tree.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Layout {
    /// Dimensionality `m` of the indexed space.
    pub dim: usize,
    /// Number of global pivots `s`.
    pub pivots: usize,
}

impl Layout {
    /// Words per leaf entry (`leaf`) or per routing entry.
    #[inline]
    pub fn stride(self, leaf: bool) -> usize {
        if leaf {
            HEAD + self.pivots
        } else {
            HEAD + 2 * self.pivots + self.dim
        }
    }
}

/// Most entries a block holding `entries` may have room for.
fn room(entries: usize) -> usize {
    entries + entries / 4
}

/// Makes room in `words` for one more `stride`-word item — an entry of a
/// block, a row of the tree's `points` column — by the policy of the
/// module docs.
pub(crate) fn grow(words: &mut Vec<f32>, stride: usize) {
    if words.len() + stride > words.capacity() {
        let want = room(words.len() / stride + 1) * stride;
        words.reserve_exact(want - words.len());
    }
}

/// Gives back the room `words`, which lost items of `stride` words, may
/// not keep under the policy of the module docs (a column's rows; blocks
/// never shrink).
pub(crate) fn give_back(words: &mut Vec<f32>, stride: usize) {
    words.shrink_to(room(words.len() / stride) * stride);
}

/// Lower bound on `d(q, x)` for any `x` whose distance to a pivot lies in
/// the ring `[min, max]`, given the distance `qp` from the query to that
/// pivot (triangle inequality both ways). At most `r` exactly when the
/// ball of radius `r` around the query meets the ring — the two ring
/// conditions of Eq. 5.
#[inline]
fn ring_lower_bound(min: f32, max: f32, qp: f32) -> f32 {
    (qp - max).max(min - qp).max(0.0)
}

/// What a point at pivot distances `pivot_dists` spans for [`Node::cover`]:
/// `(d, d)` per pivot.
pub(crate) fn point_spans(pivot_dists: &[f32]) -> impl Iterator<Item = (f32, f32)> + '_ {
    pivot_dists.iter().map(|&d| (d, d))
}

/// A routing entry read out of its block: the paper's
/// `(e.PD, e.r, e.ptr, e.HR, e.RO)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InnerRef<'a> {
    /// Distance from `center` to the routing object of the parent entry
    /// (meaningless for entries of the root).
    pub parent_dist: f32,
    /// Covering radius: every point below is within it of `center`.
    pub radius: f32,
    /// Child node.
    pub child: NodeId,
    /// Hyper-ring intervals, `min, max` per global pivot.
    pub rings: &'a [f32],
    /// Routing object: a copy of the promoted point's coordinates.
    pub center: &'a [f32],
}

impl<'a> InnerRef<'a> {
    #[inline]
    fn decode(words: &'a [f32], lay: Layout) -> Self {
        let (head, rest) = words.split_at(HEAD);
        let (rings, center) = rest.split_at(2 * lay.pivots);
        Self {
            parent_dist: head[PARENT_DIST],
            radius: head[RADIUS],
            child: head[LINK].to_bits(),
            rings,
            center,
        }
    }

    /// The hyper-ring intervals as `(min, max)`, one per global pivot.
    #[inline]
    pub fn spans(&self) -> impl Iterator<Item = (f32, f32)> + 'a {
        self.rings.chunks_exact(2).map(|ring| (ring[0], ring[1]))
    }

    /// Ring-based lower bound on the distance from the query to any point
    /// below this entry; `qp_dists[i]` is the query's distance to pivot `i`.
    #[inline]
    pub fn ring_lower_bound(&self, qp_dists: &[f32]) -> f32 {
        let mut lb = 0.0f32;
        for ((min, max), &qp) in self.spans().zip(qp_dists) {
            let b = ring_lower_bound(min, max, qp);
            if b > lb {
                lb = b;
            }
        }
        lb
    }
}

/// A leaf entry read out of its block: one indexed point's ids and
/// filter fields (its coordinates are row `internal` of the tree's
/// `points`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LeafRef<'a> {
    /// Distance to the routing object of the parent entry.
    pub parent_dist: f32,
    /// Caller-visible identifier of the point.
    pub external: PointId,
    /// Row of the point in the tree's `points` column and its `externals`.
    pub internal: u32,
    /// Distances from the point to each global pivot.
    pub pivot_dists: &'a [f32],
}

impl<'a> LeafRef<'a> {
    #[inline]
    fn decode(words: &'a [f32], lay: Layout) -> Self {
        let (head, pivot_dists) = words.split_at(HEAD);
        debug_assert_eq!(pivot_dists.len(), lay.pivots);
        Self {
            parent_dist: head[PARENT_DIST],
            external: head[EXTERNAL].to_bits(),
            internal: head[LINK].to_bits(),
            pivot_dists,
        }
    }

    /// Pivot-based lower bound `max_i |d(q, p_i) − d(o, p_i)|` on the
    /// distance from the query to this point.
    #[inline]
    pub fn pivot_lower_bound(&self, qp_dists: &[f32]) -> f32 {
        let mut lb = 0.0f32;
        for (&pd, &qp) in self.pivot_dists.iter().zip(qp_dists) {
            let b = (qp - pd).abs();
            if b > lb {
                lb = b;
            }
        }
        lb
    }
}

/// One node of the arena: routing entries or leaf entries, all of them in
/// one allocation (see the module docs for the layout and the sizing).
#[derive(Clone, Debug)]
pub(crate) struct Node {
    leaf: bool,
    words: Vec<f32>,
}

impl Node {
    /// A leaf without entries and without an allocation: what a new tree
    /// holds, and a node while a split refills it.
    pub fn empty() -> Self {
        // lint: allow(hot-path) -- allocates nothing, and only the write path builds nodes
        let words = Vec::new();
        Self { leaf: true, words }
    }

    /// An empty node with room for exactly `entries` entries.
    pub fn with_capacity(leaf: bool, entries: usize, lay: Layout) -> Self {
        Self {
            leaf,
            words: Vec::with_capacity(entries * lay.stride(leaf)),
        }
    }

    /// `true` for a node of leaf entries, `false` for routing entries.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Words per entry of this node.
    #[inline]
    pub fn stride(&self, lay: Layout) -> usize {
        lay.stride(self.leaf)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self, lay: Layout) -> usize {
        self.words.len() / self.stride(lay)
    }

    /// Words the block holds and words it has room for.
    pub fn extent(&self) -> (usize, usize) {
        (self.words.len(), self.words.capacity())
    }

    /// The block's words as bit patterns (ids are not comparable as floats).
    #[cfg(test)]
    pub fn bits(&self) -> Vec<u32> {
        self.words.iter().map(|w| w.to_bits()).collect()
    }

    /// The raw words, for tests that corrupt a block.
    #[cfg(test)]
    pub fn words_mut(&mut self) -> &mut Vec<f32> {
        &mut self.words
    }

    /// The routing entries of an inner node, in order.
    #[inline]
    pub fn inners(&self, lay: Layout) -> impl ExactSizeIterator<Item = InnerRef<'_>> {
        debug_assert!(!self.leaf);
        (self.words.chunks_exact(lay.stride(false))).map(move |w| InnerRef::decode(w, lay))
    }

    /// The entries of a leaf node, in order.
    #[inline]
    pub fn leaves(&self, lay: Layout) -> impl ExactSizeIterator<Item = LeafRef<'_>> {
        debug_assert!(self.leaf);
        (self.words.chunks_exact(lay.stride(true))).map(move |w| LeafRef::decode(w, lay))
    }

    /// Routing entry `idx` of an inner node.
    #[inline]
    pub fn inner_at(&self, idx: usize, lay: Layout) -> InnerRef<'_> {
        debug_assert!(!self.leaf);
        InnerRef::decode(self.entry(idx, lay), lay)
    }

    /// Entry `idx` of a leaf node.
    #[inline]
    pub fn leaf_at(&self, idx: usize, lay: Layout) -> LeafRef<'_> {
        debug_assert!(self.leaf);
        LeafRef::decode(self.entry(idx, lay), lay)
    }

    /// The words of entry `idx`.
    #[inline]
    pub fn entry(&self, idx: usize, lay: Layout) -> &[f32] {
        let stride = self.stride(lay);
        &self.words[idx * stride..(idx + 1) * stride]
    }

    #[inline]
    fn entry_mut(&mut self, idx: usize, lay: Layout) -> &mut [f32] {
        let stride = self.stride(lay);
        &mut self.words[idx * stride..(idx + 1) * stride]
    }

    /// Appends a leaf entry.
    pub fn push_leaf(&mut self, lay: Layout, e: LeafRef<'_>) {
        debug_assert!(self.leaf);
        assert_eq!(e.pivot_dists.len(), lay.pivots, "one distance per pivot");
        grow(&mut self.words, lay.stride(self.leaf));
        let (external, internal) = (f32::from_bits(e.external), f32::from_bits(e.internal));
        self.words
            .extend_from_slice(&[e.parent_dist, external, internal]);
        self.words.extend_from_slice(e.pivot_dists);
    }

    /// Appends a routing entry for `child` around `center` that covers
    /// nothing yet — radius 0, empty rings — for [`Node::cover`] to widen;
    /// its parent distance is 0, what entries of the root carry.
    pub fn push_routing(&mut self, lay: Layout, child: NodeId, center: &[f32]) {
        debug_assert!(!self.leaf);
        assert_eq!(center.len(), lay.dim, "center has wrong dimensionality");
        grow(&mut self.words, lay.stride(self.leaf));
        self.words
            .extend_from_slice(&[0.0, 0.0, f32::from_bits(child)]);
        for _ in 0..lay.pivots {
            self.words
                .extend_from_slice(&[f32::INFINITY, f32::NEG_INFINITY]);
        }
        self.words.extend_from_slice(center);
    }

    /// Appends entry `idx` of `from`, a node of the same kind, which in
    /// this node lies `parent_dist` from the parent's routing object.
    pub fn push_from(&mut self, lay: Layout, from: &Node, idx: usize, parent_dist: f32) {
        debug_assert_eq!(self.leaf, from.leaf);
        grow(&mut self.words, lay.stride(self.leaf));
        let at = self.words.len();
        self.words.extend_from_slice(from.entry(idx, lay));
        self.words[at + PARENT_DIST] = parent_dist;
    }

    /// Overwrites entry `at` with entry `idx` of `from`, as
    /// [`Node::push_from`] appends it.
    pub fn replace_from(
        &mut self,
        at: usize,
        lay: Layout,
        from: &Node,
        idx: usize,
        parent_dist: f32,
    ) {
        debug_assert_eq!(self.leaf, from.leaf);
        let e = self.entry_mut(at, lay);
        e.copy_from_slice(from.entry(idx, lay));
        e[PARENT_DIST] = parent_dist;
    }

    /// Sets the parent distance of entry `idx`.
    pub fn set_parent_dist(&mut self, idx: usize, lay: Layout, parent_dist: f32) {
        self.entry_mut(idx, lay)[PARENT_DIST] = parent_dist;
    }

    /// Adds `by` to what every entry refers to — the child of a routing
    /// entry, the internal row of a leaf entry — as splicing this node
    /// into a larger arena or row space requires.
    pub fn shift_links(&mut self, lay: Layout, by: u32) {
        let stride = self.stride(lay);
        for e in self.words.chunks_exact_mut(stride) {
            e[LINK] = f32::from_bits(e[LINK].to_bits() + by);
        }
    }

    /// Widens routing entry `idx` to cover something that reaches `reach`
    /// from its center and whose pivot distances span `(min, max)` for
    /// each pivot in turn: [`point_spans`] of a point, [`InnerRef::spans`]
    /// of a subtree.
    pub fn cover(
        &mut self,
        idx: usize,
        lay: Layout,
        reach: f32,
        spans: impl Iterator<Item = (f32, f32)>,
    ) {
        debug_assert!(!self.leaf);
        let e = self.entry_mut(idx, lay);
        if reach > e[RADIUS] {
            e[RADIUS] = reach;
        }
        let rings = e[HEAD..HEAD + 2 * lay.pivots].chunks_exact_mut(2);
        for (ring, (min, max)) in rings.zip(spans) {
            if min < ring[0] {
                ring[0] = min;
            }
            if max > ring[1] {
                ring[1] = max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAY: Layout = Layout { dim: 3, pivots: 2 };

    #[test]
    fn ring_lower_bound_cases() {
        // query's pivot distance inside the ring [2, 5]: bound is 0
        assert_eq!(ring_lower_bound(2.0, 5.0, 3.0), 0.0);
        // query closer to pivot than the ring: min - qp
        assert_eq!(ring_lower_bound(2.0, 5.0, 0.5), 1.5);
        // query farther than the ring: qp - max
        assert_eq!(ring_lower_bound(2.0, 5.0, 7.0), 2.0);
    }

    fn leaf_entry(internal: u32, pivot_dists: &[f32]) -> LeafRef<'_> {
        LeafRef {
            parent_dist: internal as f32 + 0.5,
            external: !internal,
            internal,
            pivot_dists,
        }
    }

    #[test]
    fn leaf_pivot_bound_is_symmetric_difference() {
        let e = leaf_entry(0, &[3.0, 8.0]);
        assert_eq!(e.pivot_lower_bound(&[5.0, 8.5]), 2.0);
        assert_eq!(e.pivot_lower_bound(&[3.0, 8.0]), 0.0);
    }

    #[test]
    fn cover_includes_points_and_merges_rings() {
        let mut node = Node::with_capacity(false, 1, LAY);
        node.push_routing(LAY, 7, &[1.0, 2.0, 3.0]);
        let e = node.inner_at(0, LAY);
        assert_eq!((e.parent_dist, e.radius, e.child), (0.0, 0.0, 7));
        assert_eq!(e.center, [1.0, 2.0, 3.0]);
        // An empty ring holds no point — nothing below is anywhere near —
        // and absorbs any update.
        assert_eq!(e.ring_lower_bound(&[4.0, 4.0]), f32::INFINITY);
        node.cover(0, LAY, 1.5, [(2.0, 2.0), (6.0, 6.0)].into_iter());
        node.cover(0, LAY, 0.5, [(5.0, 5.0), (9.0, 9.0)].into_iter());
        let e = node.inner_at(0, LAY);
        assert_eq!(e.radius, 1.5);
        assert_eq!(e.rings, [2.0, 5.0, 6.0, 9.0]);
        node.cover(0, LAY, 4.0, [(1.0, 3.0), (7.0, 11.0)].into_iter());
        let e = node.inner_at(0, LAY);
        assert_eq!(e.radius, 4.0);
        assert_eq!(e.rings, [1.0, 5.0, 6.0, 11.0]);
        // Inside both rings: 0; 1.0 short of the first; 2.5 past the second.
        assert_eq!(e.ring_lower_bound(&[3.0, 8.0]), 0.0);
        assert_eq!(e.ring_lower_bound(&[0.0, 8.0]), 1.0);
        assert_eq!(e.ring_lower_bound(&[3.0, 13.5]), 2.5);
    }

    #[test]
    fn ids_survive_their_stay_among_floats() {
        // Quiet and signalling NaN patterns, infinities, ±0, the extremes:
        // an id is moved, never computed with, so every bit comes back —
        // through a push, a copy into another block, a clone and a shift.
        let ids = [
            0u32,
            1,
            0x7FC0_0001,
            0x7F80_0001,
            0xFF80_0000,
            0x7F80_0000,
            0x8000_0000,
            0xFFC1_2345,
            u32::MAX,
        ];
        let mut leaf = Node::with_capacity(true, 0, LAY);
        let mut inner = Node::with_capacity(false, 0, LAY);
        for &id in &ids {
            leaf.push_leaf(LAY, leaf_entry(id, &[1.0, 2.0]));
            inner.push_routing(LAY, id, &[6.0, 7.0, 8.0]);
        }
        let mut moved = Node::with_capacity(true, 0, LAY);
        for idx in 0..ids.len() {
            moved.push_from(LAY, &leaf, idx, 9.0);
        }
        moved.replace_from(0, LAY, &leaf, 0, 9.0);
        let mut routed = Node::with_capacity(false, 0, LAY);
        for idx in 0..ids.len() {
            routed.push_from(LAY, &inner, idx, 0.0);
        }
        let got: Vec<u32> = leaf.clone().leaves(LAY).map(|e| e.internal).collect();
        assert_eq!(got, ids);
        assert!(leaf.leaves(LAY).all(|e| e.external == !e.internal));
        let got: Vec<u32> = moved.leaves(LAY).map(|e| e.internal).collect();
        assert_eq!(got, ids);
        assert!(moved.leaves(LAY).all(|e| e.parent_dist == 9.0));
        let got: Vec<u32> = routed.clone().inners(LAY).map(|e| e.child).collect();
        assert_eq!(got, ids);
        assert_eq!(routed.bits(), inner.bits());

        let mut small = Node::with_capacity(false, 0, LAY);
        small.push_routing(LAY, 0x7FBF_FFFF, &[0.0; 3]);
        small.shift_links(LAY, 2);
        assert_eq!(small.inner_at(0, LAY).child, 0x7FC0_0001);
    }

    #[test]
    fn a_block_keeps_at_most_a_quarter_of_slack() {
        // The growth policy, entry by entry: room for `len + len / 4`
        // entries at most on the way up to an overflowing node, and for
        // `len` when built to size or cloned; a shrinking row column gives
        // its room back by the same rule.
        let stride = LAY.stride(true);
        let mut node = Node::with_capacity(true, 0, LAY);
        let mut reallocations = 0;
        for len in 1..=17 {
            let before = node.extent().1;
            node.push_leaf(LAY, leaf_entry(len, &[0.0; 2]));
            let (words, capacity) = node.extent();
            assert_eq!(words, len as usize * stride);
            assert!(capacity <= room(len as usize) * stride, "{len}: {capacity}");
            reallocations += usize::from(capacity != before);
        }
        assert!(
            reallocations <= 8,
            "{reallocations} reallocations for 17 pushes"
        );
        assert_eq!(node.clone().extent(), (17 * stride, 17 * stride));
        let mut words = node.words;
        for len in (0..17).rev() {
            words.truncate(len * stride);
            give_back(&mut words, stride);
            assert!(words.capacity() <= room(len) * stride, "{len}");
        }
        assert_eq!(words.capacity(), 0);
        assert_eq!(
            Node::with_capacity(false, 5, LAY).extent().1,
            5 * LAY.stride(false)
        );
    }
}
