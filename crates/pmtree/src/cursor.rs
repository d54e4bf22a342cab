//! lint: hot-path
//!
//! Best-first incremental traversal of the PM-tree.
//!
//! [`RangeCursor`] pops tree regions in order of a *lower bound* on their
//! projected distance to the query and yields points in non-decreasing exact
//! distance. Two properties make it the right engine for the paper's
//! Algorithm 2:
//!
//! 1. `next_within(r)` behaves exactly like the paper's `range(q', r)` query,
//!    but *incrementally*: when Algorithm 2 enlarges the radius (`r ← c·r`),
//!    the cursor simply continues popping the preserved frontier — no work is
//!    repeated across rounds, which is how PM-LSH "combines the ideas of the
//!    RE and MI methods".
//! 2. There is one refinement discipline, the paper's (Eq. 5): an entry of a
//!    visited node first meets the parent-distance and pivot-ring filters,
//!    which cost no new distance, and its exact center/point distance is
//!    computed — once, in full — only if that cheap bound comes within the
//!    radius. An entry the filters keep outside every radius the query
//!    reaches never costs a distance computation. The distance is not
//!    early-abandoned against the round's radius: in the m = 15 projected
//!    space the whole kernel is fifteen multiply-adds, less than the heap
//!    round-trip and the repeated measurement that parking an abandoned
//!    entry costs in every later round (early abandonment pays at the
//!    original dimensionality, where `pm-lsh-core` applies it).

use crate::tree::{Node, PmTree};
use crate::NodeId;
use pm_lsh_metric::{euclidean, PointId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, Debug)]
enum ItemKind {
    /// Entry `idx` of `node`, routing or leaf, keyed by its cheap bound;
    /// pops by paying its exact distance ([`RangeCursor::resolve`]).
    Pending { node: NodeId, idx: u32 },
    /// Node whose routing entry has exact center distance `dq_center` (NaN
    /// for the root, which has no routing entry); pops by expanding.
    Node { node: NodeId, dq_center: f32 },
    /// Point with exact projected distance; pops by yielding.
    Point { external: PointId, dist: f32 },
}

#[derive(Clone, Copy, Debug)]
struct Item {
    key: f32,
    seq: u32,
    kind: ItemKind,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Item {}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the smallest key pops first;
        // tie-break on insertion sequence for determinism.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The filters of Eq. 5 that need no new distance, as a lower bound on the
/// query's distance to anything below an entry: `pivot_lb` is the entry's
/// ring / pivot-distance bound, the other operand the parent-distance bound
/// (`radius` is 0 for a leaf entry). `dq_parent` is NaN under the root,
/// which has no routing object; `max` then keeps `pivot_lb`.
#[inline]
fn cheap_bound(pivot_lb: f32, parent_dist: f32, radius: f32, dq_parent: f32) -> f32 {
    pivot_lb.max((dq_parent - parent_dist).abs() - radius)
}

/// Reusable buffers for a [`RangeCursor`]: the frontier heap's storage,
/// the query-to-pivot distances and an owned copy of the query point.
///
/// A fresh scratch owns no heap memory (`Vec::new` / `BinaryHeap::new` do
/// not allocate); after a query it keeps its capacities, so threading one
/// scratch through repeated [`PmTree::cursor_with_scratch`] /
/// [`RangeCursor::recycle`] round-trips makes the traversal allocation-free
/// at steady state. A scratch is not tied to any particular tree — reusing
/// it across trees of different dimensionality just resizes the buffers.
#[derive(Debug, Default)]
pub struct CursorScratch {
    query: Vec<f32>,
    qp_dists: Vec<f32>,
    heap: BinaryHeap<Item>,
}

impl CursorScratch {
    /// An empty scratch (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Incremental best-first cursor over a [`PmTree`].
pub struct RangeCursor<'t> {
    tree: &'t PmTree,
    /// Owned working storage; see [`CursorScratch`]. `scratch.query` holds
    /// the query point, `scratch.qp_dists` the distances from the query to
    /// each global pivot.
    scratch: CursorScratch,
    seq: u32,
    dist_computations: u64,
}

impl<'t> RangeCursor<'t> {
    /// Starts a cursor for `query` (projected-space coordinates) over the
    /// buffers of `scratch` (see [`CursorScratch`]).
    pub fn new(tree: &'t PmTree, query: &[f32], mut scratch: CursorScratch) -> Self {
        assert_eq!(query.len(), tree.dim(), "query has wrong dimensionality");
        scratch.query.clear();
        scratch.query.extend_from_slice(query);
        scratch.qp_dists.clear();
        scratch
            .qp_dists
            .extend(tree.pivots.iter().map(|p| euclidean(query, p)));
        scratch.heap.clear();
        let mut cursor = Self {
            tree,
            scratch,
            seq: 0,
            dist_computations: tree.pivots.len() as u64,
        };
        if !tree.is_empty() {
            cursor.push(
                0.0,
                ItemKind::Node {
                    node: tree.root,
                    dq_center: f32::NAN,
                },
            );
        }
        cursor
    }

    /// Finishes this cursor and hands its buffers back for reuse, keeping
    /// their capacities. The contents are stale; the next
    /// [`RangeCursor::new`] clears and refills them.
    pub fn recycle(self) -> CursorScratch {
        self.scratch
    }

    /// Exact distance computations so far (pivot distances included).
    pub fn distance_computations(&self) -> u64 {
        self.dist_computations
    }

    /// `true` once every indexed point has been yielded: the frontier is
    /// empty and no radius enlargement can produce more results.
    pub fn is_exhausted(&self) -> bool {
        self.scratch.heap.is_empty()
    }

    fn push(&mut self, key: f32, kind: ItemKind) {
        let seq = self.seq;
        self.seq += 1;
        self.scratch.heap.push(Item { key, seq, kind });
    }

    /// Pays the one exact distance of entry `idx` of `node`, whose cheap
    /// bound is `lb`, and pushes what the entry becomes: a routing entry its
    /// child under the tightened bound, a leaf entry its point.
    fn resolve(&mut self, node: NodeId, idx: u32, lb: f32) {
        let tree = self.tree;
        self.dist_computations += 1;
        let (key, kind) = match &tree.nodes[node as usize] {
            Node::Inner(entries) => {
                let e = &entries[idx as usize];
                let dq_center = euclidean(&self.scratch.query, &e.center);
                let child = ItemKind::Node {
                    node: e.child,
                    dq_center,
                };
                (lb.max(dq_center - e.radius), child)
            }
            Node::Leaf(entries) => {
                let e = &entries[idx as usize];
                let point = tree.points.point(e.internal as usize);
                let dist = euclidean(&self.scratch.query, point);
                let external = e.external;
                (dist, ItemKind::Point { external, dist })
            }
        };
        self.push(key, kind);
    }

    /// Expands a node whose routing entry has exact center distance
    /// `dq_center`: every entry gets its cheap bound and is enqueued.
    fn expand(&mut self, node: NodeId, dq_center: f32, radius: f32) {
        let tree = self.tree;
        match &tree.nodes[node as usize] {
            Node::Inner(entries) => {
                for (idx, e) in entries.iter().enumerate() {
                    let ring_lb = e.ring_lower_bound(&self.scratch.qp_dists);
                    let lb = cheap_bound(ring_lb, e.parent_dist, e.radius, dq_center);
                    self.enqueue(node, idx as u32, lb, radius);
                }
            }
            Node::Leaf(entries) => {
                for (idx, e) in entries.iter().enumerate() {
                    let pivot_lb = e.pivot_lower_bound(&self.scratch.qp_dists);
                    let lb = cheap_bound(pivot_lb, e.parent_dist, 0.0, dq_center);
                    self.enqueue(node, idx as u32, lb, radius);
                }
            }
        }
    }

    /// Files entry `idx` of `node` under its cheap bound `lb`. One that
    /// already lies within the round's `radius` is resolved on the spot — it
    /// would surface before the round ends anyway, and resolving it now saves
    /// its heap round-trip; one beyond `radius` may never be touched again
    /// and waits in the frontier without having cost a distance.
    fn enqueue(&mut self, node: NodeId, idx: u32, lb: f32, radius: f32) {
        if lb <= radius {
            self.resolve(node, idx, lb);
        } else {
            self.push(lb, ItemKind::Pending { node, idx });
        }
    }

    /// Returns the next point whose exact projected distance is at most
    /// `radius`, or `None` when every remaining point is farther away.
    ///
    /// The frontier is preserved across calls, so callers may re-invoke with
    /// a larger radius and continue exactly where they stopped; successive
    /// yields have non-decreasing distance.
    pub fn next_within(&mut self, radius: f32) -> Option<(PointId, f32)> {
        loop {
            let top = *self.scratch.heap.peek()?;
            if top.key > radius {
                return None;
            }
            self.scratch.heap.pop();
            match top.kind {
                ItemKind::Pending { node, idx } => self.resolve(node, idx, top.key),
                ItemKind::Node { node, dq_center } => self.expand(node, dq_center, radius),
                ItemKind::Point { external, dist } => return Some((external, dist)),
            }
        }
    }

    /// Incremental nearest-neighbor iteration: the next unseen point in
    /// non-decreasing projected distance.
    #[allow(clippy::should_implement_trait)] // same contract, fallible state
    pub fn next(&mut self) -> Option<(PointId, f32)> {
        self.next_within(f32::INFINITY)
    }
}

impl PmTree {
    /// All points within `radius` of `query` (the paper's `range(q, r)`),
    /// sorted by ascending distance.
    pub fn range(&self, query: &[f32], radius: f32) -> Vec<(PointId, f32)> {
        let mut cursor = self.cursor(query);
        // lint: allow(hot-path) -- owned-result convenience; Algorithm 2 uses the cursor directly
        let mut out = Vec::new();
        while let Some(hit) = cursor.next_within(radius) {
            out.push(hit);
        }
        out
    }

    /// Exact k nearest neighbors of `query` in the indexed (projected) space.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<(PointId, f32)> {
        let mut cursor = self.cursor(query);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            match cursor.next() {
                Some(hit) => out.push(hit),
                None => break,
            }
        }
        out
    }

    /// Starts an incremental cursor.
    pub fn cursor(&self, query: &[f32]) -> RangeCursor<'_> {
        RangeCursor::new(self, query, CursorScratch::new())
    }

    /// Starts an incremental cursor over recycled buffers: pass the
    /// [`CursorScratch`] returned by a previous cursor's
    /// [`RangeCursor::recycle`] and repeated queries stop allocating. The
    /// traversal is identical to [`PmTree::cursor`] in every observable way.
    pub fn cursor_with_scratch(&self, query: &[f32], scratch: CursorScratch) -> RangeCursor<'_> {
        RangeCursor::new(self, query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PmTreeConfig;
    use pm_lsh_metric::Dataset;
    use pm_lsh_stats::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(dim, n);
        let mut buf = vec![0.0f32; dim];
        for _ in 0..n {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        ds
    }

    #[test]
    fn recycled_scratch_traverses_identically() {
        let ds = random_dataset(1500, 10, 55);
        let mut rng = Rng::new(56);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        let mut scratch = CursorScratch::new();
        let mut q = vec![0.0f32; 10];
        for round in 0..12 {
            rng.fill_normal(&mut q);
            let mut fresh = tree.cursor(&q);
            let mut reused = tree.cursor_with_scratch(&q, scratch);
            // Interleave radius enlargement the way Algorithm 2 does.
            for radius in [1.0f32, 2.5, f32::INFINITY] {
                loop {
                    let a = fresh.next_within(radius);
                    let b = reused.next_within(radius);
                    assert_eq!(a, b, "round {round} radius {radius}");
                    if a.is_none() {
                        break;
                    }
                }
            }
            assert_eq!(
                fresh.distance_computations(),
                reused.distance_computations(),
                "round {round}"
            );
            scratch = reused.recycle();
        }
    }

    /// The textbook recursive PM-tree range query: per entry the
    /// parent-distance filter, the ring filter, and only *then* the
    /// center/point distance (Eq. 5).
    struct Textbook<'a> {
        tree: &'a PmTree,
        q: &'a [f32],
        qp_dists: Vec<f32>,
        r: f32,
        /// Distances paid so far.
        paid: u64,
        hits: Vec<PointId>,
    }

    impl Textbook<'_> {
        fn visit(&mut self, node: NodeId, dq_parent: Option<f32>) {
            let (tree, r) = (self.tree, self.r);
            match &tree.nodes[node as usize] {
                Node::Inner(entries) => {
                    for e in entries {
                        let parent_prunes =
                            dq_parent.is_some_and(|d| (d - e.parent_dist).abs() - e.radius > r);
                        let rings_prune = (e.rings.iter().zip(&self.qp_dists))
                            .any(|(ring, &qp)| ring.lower_bound(qp) > r);
                        if parent_prunes || rings_prune {
                            continue;
                        }
                        let d = euclidean(self.q, &e.center);
                        self.paid += 1;
                        if d - e.radius <= r {
                            self.visit(e.child, Some(d));
                        }
                    }
                }
                Node::Leaf(entries) => {
                    for e in entries {
                        let parent_prunes =
                            dq_parent.is_some_and(|d| (d - e.parent_dist).abs() > r);
                        let pivots_prune = (e.pivot_dists.iter().zip(&self.qp_dists))
                            .any(|(&pd, &qp)| (qp - pd).abs() > r);
                        if parent_prunes || pivots_prune {
                            continue;
                        }
                        self.paid += 1;
                        if euclidean(self.q, tree.points.point(e.internal as usize)) <= r {
                            self.hits.push(e.external);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn enlarged_radius_costs_exactly_one_textbook_range_query() {
        // Draining the cursor at r1 < r2 < r3 must pay, in total, the s pivot
        // distances plus what ONE textbook range query at r3 pays: enlarging
        // the radius repeats no work, and the frontier prunes exactly the
        // entries Eq. 5 prunes — no more (a miss) and no fewer (a wasted
        // distance). Paper shape, and s = 0 (plain M-tree, no rings).
        let ds = random_dataset(4000, 15, 53);
        for num_pivots in [5, 0] {
            let cfg = PmTreeConfig {
                num_pivots,
                ..PmTreeConfig::default()
            };
            assert_eq!(cfg.capacity, 16);
            let mut rng = Rng::new(54);
            let tree = PmTree::build(ds.view(), cfg, &mut rng);
            let entries: usize = (tree.nodes.iter())
                .map(|n| match n {
                    Node::Inner(es) => es.len(),
                    Node::Leaf(es) => es.len(),
                })
                .sum();
            const RADII: [f32; 3] = [1.5, 2.0, 3.0];
            let (mut total_paid, mut total_hits) = (0, 0);
            let mut q = vec![0.0f32; 15];
            for _ in 0..10 {
                rng.fill_normal(&mut q);
                let mut cursor = tree.cursor(&q);
                let mut yielded = Vec::new();
                for radius in RADII {
                    while let Some((id, _)) = cursor.next_within(radius) {
                        yielded.push(id);
                    }
                }
                let mut textbook = Textbook {
                    tree: &tree,
                    q: &q,
                    qp_dists: tree.pivots.iter().map(|p| euclidean(&q, p)).collect(),
                    r: RADII[2],
                    paid: 0,
                    hits: Vec::new(),
                };
                textbook.visit(tree.root, None);
                let Textbook { paid, mut hits, .. } = textbook;
                assert_eq!(
                    cursor.distance_computations(),
                    num_pivots as u64 + paid,
                    "s = {num_pivots}"
                );
                // Nothing was lost or yielded twice on the way.
                yielded.sort_unstable();
                hits.sort_unstable();
                assert_eq!(yielded, hits, "s = {num_pivots}");
                total_paid += paid as usize;
                total_hits += hits.len();
            }
            // The filters bit and the balls were not empty (else the
            // equalities above say little).
            assert!(total_paid < 10 * entries, "s = {num_pivots}: {total_paid}");
            assert!(total_hits > 0, "s = {num_pivots}");
        }
    }
}
