//! lint: hot-path
//!
//! Round-at-a-time range queries over the points of a PM-tree.
//!
//! [`RangeCursor`] answers the paper's `range(q', r)` as what it is, a
//! range query: the first call with a radius larger than any seen runs a
//! round, which files every unyielded point within `r` into a run,
//! unordered. The run leaves the cursor in one of two ways:
//!
//! - **as a set** — [`RangeCursor::take_within`] hands out every unyielded
//!   point within `r` at once, as a [`Round`] in no particular order. When
//!   the caller has room for fewer, one `select_nth_unstable` keeps the
//!   first `room` by `(dist, id)`. This is what Algorithm 2 reads: its
//!   termination tests run between rounds and its budget is a count, so
//!   within a round only the cut decides anything. A caller that wants the
//!   round's nearest points first splits them off with one more select
//!   ([`Round::split_nearest`]).
//! - **as a stream** — [`RangeCursor::next_within`] yields one point at a
//!   time, ascending. It sorts the run's unordered tail on first demand, so
//!   only a caller that asks for order pays for it.
//!
//! When Algorithm 2 enlarges the radius (`r ← c·r`), nothing is measured
//! twice: the measured points a round finds beyond its radius wait for the
//! next round, which files those within the larger radius in one
//! branchless pass. Everything a later round files lies beyond the earlier
//! radius, so the unyielded remainder of a run always precedes it and
//! yields stay non-decreasing — this is how PM-LSH "combines the ideas of
//! the RE and MI methods".
//!
//! Where the measured points come from is fixed by the tree's kind (see
//! [`crate::tree`]):
//!
//! 1. **The range traversal** — a bulk-loaded tree. A round
//!    opens, with a plain stack and no priority queue, every region whose
//!    lower bound on the projected distance is within its radius; the
//!    regions it leaves unopened wait in a second list for a larger radius,
//!    and the points it measures beyond the radius wait in one unordered
//!    list, which the next round splits by the larger radius (each point is
//!    written to both lists and kept in one).
//!    There is one refinement discipline, the paper's (Eq. 5): an entry of a
//!    visited node first meets the parent-distance and pivot-ring filters,
//!    which cost no new distance, and its exact center/point distance is
//!    computed — once, in full — only if that cheap bound comes within the
//!    radius. The distance is not early-abandoned against the round's
//!    radius: in the m = 15 projected space the whole kernel is fifteen
//!    multiply-adds, less than the repeated measurement that parking an
//!    abandoned entry costs in every later round (early abandonment pays at
//!    the original dimensionality, where `pm-lsh-core` applies it). Over all
//!    rounds the cursor pays the `s` pivot distances plus exactly what one
//!    textbook range query at the largest radius asked pays, whether or not
//!    the caller drained the last round.
//! 2. **The sweep** — a column, the kind `pm-lsh-core`'s index queries.
//!    The first round measures every indexed point in one unit-stride pass
//!    over its blocked `points` column, eight rows per step
//!    ([`sq_dist_blocks`], eight square roots at a time), behind one kernel
//!    dispatch: no node, no pivot distance, no routing entry, no region
//!    list, exactly `n` distances. It files into the run only the points
//!    within its radius, and writes every row's distance into a per-query
//!    `f32` column of the scratch; a later round files the rows of that
//!    column in `(covered, r]`, reading 4 bytes a row instead of measuring
//!    again. Algorithm 2's candidate budget `βn + k` is a large share of
//!    `n` (28 % at the paper's β = 0.2809), and the radius that reaches it
//!    opens nearly every node anyway: there the traversal pays more
//!    distances than there are points, and the sweep is faster at every
//!    operating point the index reaches.
//!
//! Both sources measure a projected distance the same way, in the
//! portable scalar kernel's order whatever the CPU (the traversal runs the
//! block kernel on its point's block and keeps its lane), so they agree bit
//! for bit, and the candidates a budget cut keeps do not depend on the
//! SIMD level.
//!
//! Yields are ascending by `(projected distance, external id)`, a function
//! of the indexed points alone: two trees over the same points — and a tree
//! and a column over them — yield the same sequence whatever their shape,
//! node numbering or row order, and agree on `is_exhausted` after every
//! call. A set
//! is the set of the `room` yields the stream would have handed out next,
//! at the same cost.

use crate::block::InnerRef;
use crate::tree::{lane_of, PmTree};
use crate::{projected_dist, NodeId};
use pm_lsh_metric::{sq_dist_blocks, PointId, BLOCK_ROWS};

/// A part of the tree no round has opened yet.
#[derive(Clone, Copy, Debug)]
enum Region {
    /// Entry `idx` of `node`, routing or leaf, known by its cheap bound
    /// only; opens by paying its exact distance.
    Pending { node: NodeId, idx: u32 },
    /// Node whose routing entry has exact center distance `dq_center` (NaN
    /// for the root, which has no routing entry); opens by expanding.
    Node { node: NodeId, dq_center: f32 },
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

/// Leaves a measured point in `far`. A NaN distance (NaN in the query)
/// lies in no ball: the point is dropped, so the cursor still exhausts.
#[inline]
fn keep(far: &mut Vec<u64>, dist: f32, external: PointId) {
    if !dist.is_nan() {
        far.push(point_key(dist, external));
    }
}

/// A measured point as one sortable word, `(dist, external)` ascending:
/// projected distances are non-negative, so their bit patterns order as
/// the floats do.
#[inline]
fn point_key(dist: f32, external: PointId) -> u64 {
    (u64::from(dist.to_bits()) << 32) | u64::from(external)
}

#[inline]
fn key_dist(key: u64) -> f32 {
    f32::from_bits((key >> 32) as u32)
}

/// Appends to `run` the key of every row of one block whose distance in
/// `dists` lies in `(above, radius]`, beside its id in `ids`; returns how
/// many lie beyond `radius`. A NaN distance — a free lane of the tail
/// block, or a NaN query — lies in no ball and is neither. Branchless — a
/// round files about a third of all points, so a branch per point would
/// mispredict often: every key is written to a block-sized buffer, only
/// the count of those kept advances, and the buffer's kept prefix is what
/// stays in the run.
#[inline(always)]
fn file_block(
    run: &mut Vec<u64>,
    dists: &[f32; BLOCK_ROWS],
    ids: &[PointId; BLOCK_ROWS],
    above: f32,
    radius: f32,
) -> usize {
    let mut keys = [0u64; BLOCK_ROWS];
    let (mut kept, mut beyond) = (0, 0);
    for lane in 0..BLOCK_ROWS {
        let dist = dists[lane];
        keys[kept % BLOCK_ROWS] = point_key(dist, ids[lane]);
        kept += usize::from((above < dist) & (dist <= radius));
        beyond += usize::from(dist > radius);
    }
    run.extend_from_slice(&keys);
    run.truncate(run.len() - BLOCK_ROWS + kept);
    beyond
}

/// The ids of one block's rows: a chunk of `externals`, padded with 0
/// where the tail block has free lanes (whose NaN distances file nothing).
#[inline(always)]
fn block_ids(externals: &[PointId]) -> [PointId; BLOCK_ROWS] {
    let mut ids = [0; BLOCK_ROWS];
    ids[..externals.len()].copy_from_slice(externals);
    ids
}

/// Reusable buffers for a [`RangeCursor`]: the run, the two waiting
/// lists, the traversal stack, the sweep's distance column, the
/// query-to-pivot distances and an owned copy of the query point.
///
/// A fresh scratch owns no heap memory (`Vec::new` does not allocate);
/// after a query it keeps its capacities, so threading one scratch through
/// repeated [`PmTree::cursor_with_scratch`] / [`RangeCursor::recycle`]
/// round-trips makes the traversal allocation-free at steady state. A
/// scratch is not tied to any particular tree — reusing it across trees of
/// different dimensionality just resizes the buffers.
#[derive(Debug, Default)]
pub struct CursorScratch {
    query: Vec<f32>,
    qp_dists: Vec<f32>,
    /// Points within the covered radius as `point_key`s; what lies before
    /// the cursor's `pos` has been yielded. `run[pos..sorted]` is
    /// ascending and precedes every key of `run[sorted..]`, which is
    /// unordered.
    run: Vec<u64>,
    /// Points the traversal measured that are not in the run, unsorted:
    /// between rounds, those beyond the covered radius.
    far: Vec<u64>,
    /// On a column, once the first round has run: every row's
    /// projected distance, in row order, a block of rows per item, the
    /// tail block's free lanes NaN.
    dists: Vec<[f32; BLOCK_ROWS]>,
    /// Unopened regions under their lower bounds, all beyond the covered
    /// radius, unsorted.
    frontier: Vec<(f32, Region)>,
    /// Regions a round still has to look at; empty between rounds.
    stack: Vec<(f32, Region)>,
}

impl CursorScratch {
    /// An empty scratch (allocates nothing until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Leaves entry `idx` of `node` waiting under its cheap bound `lb`,
    /// which lies beyond the round's radius: no distance is paid.
    #[inline]
    fn park(&mut self, lb: f32, node: NodeId, idx: usize) {
        let idx = idx as u32;
        self.frontier.push((lb, Region::Pending { node, idx }));
    }

    /// Pays the exact center distance of routing entry `e` and hands its
    /// child to the round under the covering-ball bound.
    #[inline]
    fn measure_center(&mut self, e: InnerRef<'_>) {
        let dq_center = projected_dist(&self.query, e.center);
        let node = e.child;
        self.stack
            .push((dq_center - e.radius, Region::Node { node, dq_center }));
    }

    /// Pays the exact distance of the point of leaf entry `internal` and
    /// leaves it in `far` for the round to file: the sweep's distance, from
    /// one step of its kernel over the point's block.
    #[inline]
    fn measure_point(&mut self, tree: &PmTree, internal: u32, external: PointId) {
        let (block, lane) = (BLOCK_ROWS * tree.dim, internal as usize % BLOCK_ROWS);
        let at = lane_of(tree.dim, internal as usize) - lane;
        let mut dist = f32::NAN;
        sq_dist_blocks(&self.query, &tree.points[at..at + block], |sq| {
            dist = sq[lane].sqrt();
        });
        keep(&mut self.far, dist, external);
    }

    /// The first round on a column: measures every point of `tree`
    /// in one pass over its blocked `points` column, eight rows per step,
    /// beside `externals`, behind one kernel dispatch, keeps every row's
    /// distance in `dists` and files the rows within `radius` into the run.
    /// No node is read. Returns how many rows lie beyond `radius`.
    fn sweep(&mut self, tree: &PmTree, radius: f32) -> usize {
        let (run, dists) = (&mut self.run, &mut self.dists);
        run.reserve(tree.len() + BLOCK_ROWS);
        dists.reserve(tree.points.len() / (BLOCK_ROWS * tree.dim));
        let mut externals = tree.externals.chunks(BLOCK_ROWS);
        let mut beyond = 0;
        sq_dist_blocks(&self.query, &tree.points, |sq| {
            let block = sq.map(f32::sqrt);
            dists.push(block);
            let ids = block_ids(externals.next().unwrap_or_default());
            beyond += file_block(run, &block, &ids, f32::NEG_INFINITY, radius);
        });
        beyond
    }

    /// A later round on a column: files the rows of `dists` in
    /// `(above, radius]` into the run, measuring nothing. Returns how many
    /// rows lie beyond `radius`.
    fn refile(&mut self, tree: &PmTree, above: f32, radius: f32) -> usize {
        (self.dists.iter().zip(tree.externals.chunks(BLOCK_ROWS)))
            .map(|(dists, ids)| file_block(&mut self.run, dists, &block_ids(ids), above, radius))
            .sum()
    }

    /// Files the points the traversal left waiting in `far` by `radius`:
    /// those within it join the run (unsorted), the others stay, in their
    /// order. Branchless, like [`file_block`]: each key is written to both
    /// lists and only the length of the one it belongs to advances.
    fn file(&mut self, radius: f32) {
        let (run, far) = (&mut self.run, &mut self.far);
        let (mut within, mut beyond) = (run.len(), 0);
        run.resize(within + far.len(), 0);
        for i in 0..far.len() {
            let key = far[i];
            let inside = key_dist(key) <= radius;
            run[within] = key;
            far[beyond] = key;
            within += usize::from(inside);
            beyond += usize::from(!inside);
        }
        run.truncate(within);
        far.truncate(beyond);
    }
}

/// How much `next()` enlarges the covered radius when the nearest waiting
/// region or point alone would enlarge it by less. Every round scans the
/// waiting lists, so a factor near 1 pays in rounds what it saves in
/// distances: `pmtree_knn50` of the `substrates` bench (n = 2 000, m = 15)
/// takes 170 µs at 1.06, 83 µs at 1.25 and 70 µs at 1.5, for 0–1 %, 1–3 %
/// and 2–6 % more distances than the exact range query at the 50th
/// distance pays.
const NEXT_GROWTH: f32 = 1.25;

/// A round handed out by [`RangeCursor::take_within`]: a set of points,
/// in no particular order. Its order can change (it is the cursor's own
/// yielded stretch, which nothing reads again), never its members.
pub struct Round<'a> {
    keys: &'a mut [u64],
}

impl<'a> Round<'a> {
    /// How many points the round holds.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the round holds no point.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The round's points as `(id, projected distance)`, in its present
    /// order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PointId, f32)> + '_ {
        self.keys.iter().map(|&key| (key as PointId, key_dist(key)))
    }

    /// Splits the round into its first `w` points by `(distance, id)` and
    /// the rest, each in no particular order: one `select_nth_unstable`
    /// when `0 < w < len`. With `w >= len` every point is in the first
    /// part, with `w == 0` every point is in the second.
    pub fn split_nearest(self, w: usize) -> (Round<'a>, Round<'a>) {
        let w = w.min(self.keys.len());
        if w > 0 && w < self.keys.len() {
            self.keys.select_nth_unstable(w);
        }
        let (nearest, rest) = self.keys.split_at_mut(w);
        (Round { keys: nearest }, Round { keys: rest })
    }
}

/// Incremental range cursor over a [`PmTree`].
pub struct RangeCursor<'t> {
    tree: &'t PmTree,
    /// Owned working storage; see [`CursorScratch`]. `scratch.query` holds
    /// the query point, `scratch.qp_dists` the distances from the query to
    /// each global pivot.
    scratch: CursorScratch,
    /// Next unyielded slot of `scratch.run`.
    pos: usize,
    /// End of the run's sorted stretch (see [`CursorScratch`]), `>= pos`.
    sorted: usize,
    /// Largest radius a round has opened; everything within it is in the
    /// run, everything beyond it in `far`, `frontier` or (on a column) the
    /// distance column.
    covered: f32,
    /// On a column, the rows the run has not taken: before the first
    /// round every row, after it those whose distance lies beyond
    /// `covered` (a NaN distance lies in no ball and never waits).
    waiting: usize,
    dist_computations: u64,
}

impl<'t> RangeCursor<'t> {
    /// Starts a cursor for `query` (projected-space coordinates) over the
    /// buffers of `scratch` (see [`CursorScratch`]). On a column this
    /// measures nothing (the first round measures every point); on a
    /// bulk-loaded tree it measures the pivots and leaves the root waiting.
    pub fn new(tree: &'t PmTree, query: &[f32], mut scratch: CursorScratch) -> Self {
        assert_eq!(query.len(), tree.dim(), "query has wrong dimensionality");
        scratch.query.clear();
        scratch.query.extend_from_slice(query);
        scratch.qp_dists.clear();
        scratch.run.clear();
        scratch.far.clear();
        scratch.dists.clear();
        scratch.frontier.clear();
        scratch.stack.clear();
        let dist_computations = if tree.is_column() {
            0
        } else {
            scratch
                .qp_dists
                .extend(tree.pivots.iter().map(|p| projected_dist(query, p)));
            if !tree.is_empty() {
                let root = Region::Node {
                    node: tree.root,
                    dq_center: f32::NAN,
                };
                scratch.frontier.push((0.0, root));
            }
            tree.pivots.len()
        };
        Self {
            tree,
            scratch,
            pos: 0,
            sorted: 0,
            covered: f32::NEG_INFINITY,
            waiting: if tree.is_column() { tree.len() } else { 0 },
            dist_computations: dist_computations as u64,
        }
    }

    /// Finishes this cursor and hands its buffers back for reuse, keeping
    /// their capacities. The contents are stale; the next
    /// [`RangeCursor::new`] clears and refills them.
    pub fn recycle(self) -> CursorScratch {
        self.scratch
    }

    /// Exact distance computations so far. On a column, one per
    /// indexed point ([`PmTree::len`]) once the first round has run;
    /// otherwise the `s` pivot distances plus what one textbook range query
    /// at the largest radius asked pays, however many of its points were
    /// taken.
    pub fn distance_computations(&self) -> u64 {
        self.dist_computations
    }

    /// `true` once every indexed point has been yielded: nothing waits and
    /// no radius enlargement can produce more results.
    pub fn is_exhausted(&self) -> bool {
        let s = &self.scratch;
        self.pos == s.run.len() && s.far.is_empty() && s.frontier.is_empty() && self.waiting == 0
    }

    /// One round: every waiting point within `radius` appended to the run,
    /// unordered, whatever lies beyond it waiting for a larger radius. On a
    /// column the first round measures every point and later ones read the
    /// distance column; on a bulk-loaded tree the round is the textbook
    /// range query at `radius` over what earlier rounds left unopened.
    fn advance(&mut self, radius: f32) {
        let above = std::mem::replace(&mut self.covered, radius);
        let tree = self.tree;
        let lay = tree.layout();
        let s = &mut self.scratch;
        s.run.drain(..self.pos);
        self.sorted -= self.pos;
        self.pos = 0;
        if tree.is_column() {
            self.waiting = if above == f32::NEG_INFINITY {
                self.dist_computations += tree.len() as u64;
                s.sweep(tree, radius)
            } else {
                s.refile(tree, above, radius)
            };
            return;
        }

        std::mem::swap(&mut s.frontier, &mut s.stack);
        while let Some((lb, region)) = s.stack.pop() {
            if lb > radius {
                s.frontier.push((lb, region));
                continue;
            }
            match region {
                Region::Pending { node, idx } => {
                    self.dist_computations += 1;
                    let entries = &tree.nodes[node as usize];
                    if entries.is_leaf() {
                        let e = entries.leaf_at(idx as usize, lay);
                        s.measure_point(tree, e.internal, e.external);
                    } else {
                        s.measure_center(entries.inner_at(idx as usize, lay));
                    }
                }
                // Every entry meets the distance-free filters; one they do
                // not keep beyond `radius` pays its exact distance now, the
                // others wait without having cost one. The filter fields of
                // a node's entries are consecutive words of one block; a
                // leaf entry's point is its row of the `points` column.
                Region::Node { node, dq_center } => {
                    let entries = &tree.nodes[node as usize];
                    if entries.is_leaf() {
                        for (idx, e) in entries.leaves(lay).enumerate() {
                            let pivot_lb = e.pivot_lower_bound(&s.qp_dists);
                            let lb = cheap_bound(pivot_lb, e.parent_dist, 0.0, dq_center);
                            if lb <= radius {
                                self.dist_computations += 1;
                                s.measure_point(tree, e.internal, e.external);
                            } else {
                                s.park(lb, node, idx);
                            }
                        }
                    } else {
                        for (idx, e) in entries.inners(lay).enumerate() {
                            let ring_lb = e.ring_lower_bound(&s.qp_dists);
                            let lb = cheap_bound(ring_lb, e.parent_dist, e.radius, dq_center);
                            if lb <= radius {
                                self.dist_computations += 1;
                                s.measure_center(e);
                            } else {
                                s.park(lb, node, idx);
                            }
                        }
                    }
                }
            }
        }
        s.file(radius);
    }

    /// Returns the next point whose exact projected distance is at most
    /// `radius`, or `None` when every remaining point is farther away.
    ///
    /// What lies beyond `radius` is preserved across calls, so callers may
    /// re-invoke with a larger radius and continue exactly where they
    /// stopped; successive yields are ascending by `(distance, id)`. The
    /// first call that reaches the run's unordered tail sorts it.
    pub fn next_within(&mut self, radius: f32) -> Option<(PointId, f32)> {
        if radius > self.covered {
            self.advance(radius);
        }
        let run = &mut self.scratch.run;
        if self.pos == self.sorted {
            run[self.sorted..].sort_unstable();
            self.sorted = run.len();
        }
        let key = *run.get(self.pos)?;
        let dist = key_dist(key);
        if dist <= radius {
            self.pos += 1;
            Some((key as PointId, dist))
        } else {
            None
        }
    }

    /// Hands out a round as a set: every unyielded point within `radius`
    /// or, when more than `room` qualify, the first `room` of them by
    /// `(distance, id)`, in no particular order. These are the points, and
    /// this is the cost, of up to `room` calls of
    /// [`RangeCursor::next_within`] at `radius`, and the cursor carries on
    /// exactly as it would after them; `room == 0` takes nothing and runs
    /// no round.
    ///
    /// At or beyond the covered radius the whole run qualifies, so nothing
    /// is sorted: a cut is one `select_nth_unstable`. A smaller radius —
    /// a schedule Algorithm 2 never runs — takes the stream's prefix.
    pub fn take_within(&mut self, radius: f32, room: usize) -> Round<'_> {
        if room > 0 && radius > self.covered {
            self.advance(radius);
        }
        let from = self.pos;
        if room > 0 && radius >= self.covered {
            let unyielded = &mut self.scratch.run[from..];
            if unyielded.len() > room {
                unyielded.select_nth_unstable(room);
            }
            self.pos += unyielded.len().min(room);
            self.sorted = self.pos;
        } else {
            while self.pos - from < room && self.next_within(radius).is_some() {}
        }
        Round {
            keys: &mut self.scratch.run[from..self.pos],
        }
    }

    /// Incremental nearest-neighbor iteration: the next unseen point in
    /// non-decreasing projected distance. Radius enlargement applied to
    /// itself: when the run is drained, the covered radius grows to the
    /// nearest thing waiting, or by a quarter if that is more, until a
    /// point turns up or nothing waits.
    #[allow(clippy::should_implement_trait)] // same contract, fallible state
    pub fn next(&mut self) -> Option<(PointId, f32)> {
        loop {
            if let Some(hit) = self.next_within(self.covered) {
                return Some(hit);
            }
            if self.is_exhausted() {
                return None;
            }
            let s = &self.scratch;
            // A column's rows are unmeasured until its first round,
            // and lie at 0 or beyond.
            let unmeasured = (s.dists.is_empty() && self.waiting > 0).then_some(0.0);
            let nearest = (s.frontier.iter().map(|&(lb, _)| lb))
                .chain(s.far.iter().map(|&key| key_dist(key)))
                .chain(
                    s.dists
                        .iter()
                        .flatten()
                        .copied()
                        .filter(|&d| d > self.covered),
                )
                .chain(unmeasured)
                .fold(f32::INFINITY, f32::min);
            self.advance(nearest.max(self.covered * NEXT_GROWTH));
        }
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
        let mut out = Vec::with_capacity(k.min(self.len()));
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
    use pm_lsh_metric::simd::kernels;
    use pm_lsh_metric::{Dataset, MatrixView, SimdLevel};
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

    fn with_pivots(num_pivots: usize) -> PmTreeConfig {
        PmTreeConfig {
            num_pivots,
            ..PmTreeConfig::default()
        }
    }

    /// The projected distance both sources measure: the scalar kernel's,
    /// whatever the CPU.
    fn scalar_dist(q: &[f32], p: &[f32]) -> f32 {
        kernels::sq_dist(SimdLevel::Scalar, q, p).sqrt()
    }

    /// Every `(id, dist)` of `ds` (id = row) ascending by `(dist, id)`: the
    /// order the cursor promises, computed without a tree.
    fn brute_force(ds: &Dataset, q: &[f32]) -> Vec<(PointId, f32)> {
        let mut all: Vec<(PointId, f32)> = (0..ds.len())
            .map(|i| (i as PointId, scalar_dist(q, ds.point(i))))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all
    }

    #[test]
    fn recycled_scratch_traverses_identically() {
        // One scratch alternates between a column and a tree of different
        // dimensionality and pivot count, as its docs allow: one sweeps,
        // the other traverses.
        let mut rng = Rng::new(56);
        let trees = [
            PmTree::column(random_dataset(1500, 10, 55).view()),
            PmTree::build(random_dataset(1500, 6, 57).view(), with_pivots(0), &mut rng),
        ];
        let mut scratch = CursorScratch::new();
        for round in 0..12 {
            let tree = &trees[round % 2];
            let mut q = vec![0.0f32; tree.dim()];
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

    /// Distances the textbook recursive PM-tree range query pays below
    /// `node`: per entry the parent-distance filter, the ring filter, and
    /// only *then* the center/point distance (Eq. 5).
    fn textbook_cost(
        tree: &PmTree,
        q: &[f32],
        qp_dists: &[f32],
        r: f32,
        node: NodeId,
        dq_parent: Option<f32>,
    ) -> u64 {
        let lay = tree.layout();
        let entries = &tree.nodes[node as usize];
        let mut paid = 0;
        if entries.is_leaf() {
            for e in entries.leaves(lay) {
                let parent_prunes = dq_parent.is_some_and(|d| (d - e.parent_dist).abs() > r);
                let pivots_prune =
                    (e.pivot_dists.iter().zip(qp_dists)).any(|(&pd, &qp)| (qp - pd).abs() > r);
                if !(parent_prunes || pivots_prune) {
                    paid += 1;
                }
            }
            return paid;
        }
        for e in entries.inners(lay) {
            let parent_prunes = dq_parent.is_some_and(|d| (d - e.parent_dist).abs() - e.radius > r);
            let rings_prune =
                (e.spans().zip(qp_dists)).any(|((min, max), &qp)| qp - max > r || min - qp > r);
            if parent_prunes || rings_prune {
                continue;
            }
            let d = projected_dist(q, e.center);
            paid += 1;
            if d - e.radius <= r {
                paid += textbook_cost(tree, q, qp_dists, r, e.child, Some(d));
            }
        }
        paid
    }

    /// What [`drive_schedules`] saw: per step the yields so far and
    /// `distance_computations()`, the textbook cost summed over the queries
    /// (each at its largest finite radius), and the steps left half-drained.
    #[derive(Debug, PartialEq)]
    struct Driven {
        steps: Vec<(usize, u64)>,
        paid: usize,
        abandoned: usize,
    }

    /// Ten random queries against the bulk-loaded `tree`, each under a
    /// random schedule of radii — repeated, shrinking, growing, drained
    /// fully or abandoned after a few yields, a final ∞. Whatever is asked,
    /// the cursor must hand out `expected(q)` (every indexed `(id, dist)`,
    /// ascending) in order, and must have paid the s pivot distances plus
    /// what ONE textbook range query at the largest radius asked pays:
    /// enlarging the radius repeats no work, and the rounds prune exactly
    /// the entries Eq. 5 prunes — no more (a miss) and no fewer (a wasted
    /// distance).
    ///
    /// `column` holds the same points, the tree's id `i` under
    /// `to_column(i)` (increasing, so ties keep their order; `expected`
    /// speaks in the column's ids), and is driven in lock-step: after every
    /// call it must have yielded the same and agree on `is_exhausted`,
    /// having paid exactly one distance per point. The index reads its
    /// cursor through those three calls only, so this is what makes its
    /// answers and counters those of the paper's traversal.
    fn drive_schedules(
        tree: &PmTree,
        column: &PmTree,
        to_column: impl Fn(PointId) -> PointId,
        expected: impl Fn(&[f32]) -> Vec<(PointId, f32)>,
        rng: &mut Rng,
        what: &str,
    ) -> Driven {
        assert!(!tree.is_column() && column.is_column(), "{what}");
        assert_eq!(tree.len(), column.len(), "{what}");
        let s = tree.pivots.len() as u64;
        let mut driven = Driven {
            steps: Vec::new(),
            paid: 0,
            abandoned: 0,
        };
        let mut q = vec![0.0f32; tree.dim()];
        for _ in 0..10 {
            rng.fill_normal(&mut q);
            let all = expected(&q);
            assert_eq!(all.len(), tree.len(), "{what}");
            let qp_dists: Vec<f32> = tree.pivots.iter().map(|p| projected_dist(&q, p)).collect();
            let mut cursor = tree.cursor(&q);
            let mut swept = column.cursor(&q);
            let (mut yielded, mut max_asked) = (0, f32::NEG_INFINITY);
            let mut query_paid = 0;
            let mut schedule: Vec<f32> = (0..8).map(|_| 1.0 + 3.0 * rng.f32()).collect();
            schedule.insert(3, schedule[1]);
            // Balls are closed: a first radius of exactly the nearest
            // point's distance holds that point.
            if let Some(&(_, nearest)) = all.first() {
                schedule.insert(0, nearest);
            }
            schedule.push(f32::INFINITY);
            for (step, &radius) in schedule.iter().enumerate() {
                // Two steps in three stop after a few yields; the last
                // one drains.
                let take = if radius == f32::INFINITY || rng.below(3) == 0 {
                    usize::MAX
                } else {
                    1 + rng.below(40)
                };
                let mut taken = 0;
                while taken < take {
                    let hit = cursor.next_within(radius).map(|(id, d)| (to_column(id), d));
                    assert_eq!(swept.next_within(radius), hit, "{what} step {step}: sweep");
                    let Some(hit) = hit else {
                        let rest = all.get(yielded);
                        assert!(rest.is_none_or(|&(_, d)| d > radius), "{what}: missed");
                        break;
                    };
                    assert_eq!(Some(&hit), all.get(yielded), "{what} step {step}");
                    assert!(hit.1 <= radius, "{what} step {step}");
                    yielded += 1;
                    taken += 1;
                }
                driven.abandoned += usize::from(taken == take);
                max_asked = max_asked.max(radius);
                let paid = textbook_cost(tree, &q, &qp_dists, max_asked, tree.root, None);
                assert_eq!(
                    cursor.distance_computations(),
                    s + paid,
                    "{what} step {step}"
                );
                let n = tree.len() as u64;
                assert_eq!(swept.distance_computations(), n, "{what} step {step}");
                let exhausted = yielded == tree.len();
                assert_eq!(cursor.is_exhausted(), exhausted, "{what} step {step}");
                assert_eq!(swept.is_exhausted(), exhausted, "{what} step {step}");
                driven.steps.push((yielded, s + paid));
                if radius.is_finite() {
                    // Ends as the cost at the largest finite radius.
                    query_paid = paid as usize;
                }
            }
            assert_eq!(yielded, tree.len(), "{what}");
            driven.paid += query_paid;
        }
        driven
    }

    fn entry_count(tree: &PmTree) -> usize {
        (tree.nodes.iter().map(|n| n.len(tree.layout()))).sum()
    }

    #[test]
    fn enlarged_radius_costs_exactly_one_textbook_range_query() {
        // See `drive_schedules`. Paper shape and s = 0 (plain M-tree, no
        // rings); a tree of several levels, a single leaf, and no points at
        // all.
        let mut rng = Rng::new(54);
        for (n, num_pivots) in [(4000, 5), (4000, 0), (9, 5), (9, 0), (0, 5), (0, 0)] {
            let what = format!("n = {n}, s = {num_pivots}");
            let cfg = with_pivots(num_pivots);
            assert_eq!(cfg.capacity, 16);
            let ds = random_dataset(n, 15, 53);
            let tree = if n == 0 {
                let pivots = random_dataset(num_pivots, 15, 52);
                PmTree::new(15, cfg, pivots.view().iter().map(Box::from).collect())
            } else {
                PmTree::build(ds.view(), cfg, &mut rng)
            };
            let column = PmTree::column(ds.view());
            let expected = |q: &[f32]| brute_force(&ds, q);
            let driven = drive_schedules(&tree, &column, |id| id, expected, &mut rng, &what);
            if n == 4000 {
                // The filters bit, the balls were not empty and some were
                // left half-drained (else the equalities above say little).
                assert!(driven.paid < 10 * entry_count(&tree), "{what}: {driven:?}");
                assert!(driven.paid > 0 && driven.abandoned > 0, "{what}");
            }
        }
    }

    /// A column over rows of `ds` (external id = row, never reused) that
    /// has been through everything a mutation does to it — inserts that
    /// open a block, deletes that move the last row across blocks and give
    /// emptied blocks back, a drain down to one row and the regrowth — and
    /// the ids it holds.
    fn churned_column(seed: u64) -> (Dataset, PmTree, Vec<PointId>) {
        let mut rng = Rng::new(seed);
        let ds = random_dataset(6000, 15, 71);
        let mut column = PmTree::column(MatrixView::new(&ds.as_flat()[..1500 * 15], 15));
        let mut live: Vec<PointId> = (0..1500).collect();
        let mut next = 1500;
        let mut insert = |column: &mut PmTree, live: &mut Vec<PointId>| {
            column.insert(ds.point(next), next as PointId);
            live.push(next as PointId);
            next += 1;
        };
        let delete = |column: &mut PmTree, live: &mut Vec<PointId>, rng: &mut Rng| {
            let victim = live.swap_remove(rng.below(live.len()));
            assert!(column.delete(victim), "{victim} was live");
        };

        for _ in 0..1500 {
            match rng.below(2) {
                0 => insert(&mut column, &mut live),
                _ => delete(&mut column, &mut live, &mut rng),
            }
        }
        while live.len() > 1 {
            delete(&mut column, &mut live, &mut rng);
        }
        assert_eq!(column.points.len(), BLOCK_ROWS * 15, "emptied blocks kept");
        for _ in 0..2800 {
            insert(&mut column, &mut live);
        }
        for _ in 0..500 {
            match rng.below(2) {
                0 => insert(&mut column, &mut live),
                _ => delete(&mut column, &mut live, &mut rng),
            }
        }
        column.check_invariants();
        assert_eq!(column.len(), live.len());
        (ds, column, live)
    }

    /// `PmTree::build` over the rows of `ds` that `live` names, in ascending
    /// id order, and the id each of its rows has in the column: the
    /// bulk-loaded tree a churned column is driven beside.
    fn built_over(ds: &Dataset, live: &[PointId], num_pivots: usize) -> (PmTree, Vec<PointId>) {
        let mut ids = live.to_vec();
        ids.sort_unstable();
        let rows = ds.gather(&ids);
        let tree = PmTree::build(rows.view(), with_pivots(num_pivots), &mut Rng::new(79));
        (tree, ids)
    }

    /// [`brute_force`] over the rows of `ds` that `live` names.
    fn live_brute_force<'a>(
        ds: &'a Dataset,
        live: &[PointId],
    ) -> impl Fn(&[f32]) -> Vec<(PointId, f32)> + 'a {
        let mut is_live = vec![false; ds.len()];
        live.iter().for_each(|&id| is_live[id as usize] = true);
        move |q| {
            let mut all = brute_force(ds, q);
            all.retain(|&(id, _)| is_live[id as usize]);
            all
        }
    }

    #[test]
    fn churned_tree_and_its_copies_traverse_alike() {
        // A churned column (see `churned_column`) and its two copies —
        // `clone()` and `from_parts(to_parts())`, every row copied out and
        // blocked back in — each driven beside a tree bulk-loaded over its
        // live points, with pivots and without: all three must yield and
        // count as that tree's traversal does.
        let (ds, column, live) = churned_column(70);
        let expected = live_brute_force(&ds, &live);
        let twin = PmTree::from_parts(column.to_parts()).expect("round trip");
        for num_pivots in [5, 0] {
            let what = format!("churned, s = {num_pivots}");
            let (tree, ids) = built_over(&ds, &live, num_pivots);
            let to_column = |id: PointId| ids[id as usize];
            let driven = drive_schedules(
                &tree,
                &column,
                to_column,
                &expected,
                &mut Rng::new(72),
                &what,
            );
            assert!(
                driven.paid < 10 * entry_count(&tree),
                "{what}: {}",
                driven.paid
            );
            assert!(driven.paid > 0 && driven.abandoned > 0, "{what}");
            for (copy, name) in [(column.clone(), "clone"), (twin.clone(), "from_parts twin")] {
                let what = format!("{what}, {name}");
                let rng = &mut Rng::new(72);
                let copied = drive_schedules(&tree, &copy, to_column, &expected, rng, &what);
                assert_eq!(copied, driven, "{what}");
            }
        }
    }

    #[test]
    fn sweep_matches_traversal_across_block_boundaries() {
        // A churned column brought to a live count that fills its tail
        // block (n % 8 = 0), leaves one row in it (1) or all but one free
        // lane (7), by deletions that move rows across blocks and by
        // inserts that open a block: the sweep must read exactly the live
        // lanes, as a tree built over those points traverses them.
        let what = "block boundaries";
        let (ds, mut column, mut live) = churned_column(75);
        let mut rng = Rng::new(74);
        let mut unused = (*live.iter().max().unwrap() as usize + 1..ds.len()).map(|r| r as PointId);
        for (residue, by_insert) in [(0, false), (1, true), (7, false), (0, true), (1, false)] {
            let what = format!("{what}: n % 8 = {residue}, by insert {by_insert}");
            while column.len() % BLOCK_ROWS != residue {
                if by_insert {
                    let id = unused.next().expect("rows left to insert");
                    column.insert(ds.point(id as usize), id);
                    live.push(id);
                } else {
                    let victim = live.swap_remove(rng.below(live.len()));
                    assert!(column.delete(victim), "{what}");
                }
            }
            column.check_invariants();
            let lanes = column.len().div_ceil(BLOCK_ROWS) * BLOCK_ROWS;
            assert_eq!(column.points.len(), lanes * column.dim(), "{what}");
            let (tree, ids) = built_over(&ds, &live, 5);
            let expected = live_brute_force(&ds, &live);
            let to_column = |id: PointId| ids[id as usize];
            drive_schedules(
                &tree,
                &column,
                to_column,
                expected,
                &mut Rng::new(75),
                &what,
            );
        }
    }

    #[test]
    fn later_rounds_filter_the_column_as_the_stream_yields() {
        // On a column, round 2 and later read the distance column for
        // (covered, r]: as sets they must be what the stream yields at the
        // same radii, with nothing measured after the first round.
        let ds = random_dataset(3001, 15, 76);
        let tree = PmTree::column(ds.view());
        let mut rng = Rng::new(78);
        let mut q = vec![0.0f32; 15];
        for _ in 0..10 {
            rng.fill_normal(&mut q);
            let (mut set, mut stream) = (tree.cursor(&q), tree.cursor(&q));
            assert!(!set.is_exhausted(), "nothing measured yet");
            let mut radius = 2.0 + rng.f32();
            let mut rounds = 0;
            while !set.is_exhausted() {
                let mut got: Vec<_> = set.take_within(radius, usize::MAX).iter().collect();
                got.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let want: Vec<_> = std::iter::from_fn(|| stream.next_within(radius)).collect();
                assert_eq!(got, want, "round {rounds} at radius {radius}");
                assert_eq!(set.distance_computations(), tree.len() as u64);
                assert_eq!(stream.is_exhausted(), set.is_exhausted());
                radius *= 1.5;
                rounds += 1;
            }
            assert!(rounds > 2, "{rounds} rounds");
        }
    }

    /// Ten random queries against `tree`, each under a random schedule of
    /// radii — repeated, shrinking, growing, a final ∞ — and a random
    /// `room` per step, from nothing to everything. One cursor takes each
    /// step as a set, a twin streams the same step through up to `room`
    /// `next_within` calls; now and then both stream instead, so the set
    /// cursor must keep its stream in order after a cut. After every step
    /// the sorted set must be what the twin yielded, and the two must agree
    /// on `is_exhausted` and `distance_computations`. Returns how many
    /// steps filled their room.
    fn drive_sets_beside_streams(tree: &PmTree, rng: &mut Rng, what: &str) -> usize {
        let mut filled = 0;
        let mut q = vec![0.0f32; tree.dim()];
        for _ in 0..10 {
            rng.fill_normal(&mut q);
            let (mut set, mut stream) = (tree.cursor(&q), tree.cursor(&q));
            let mut schedule: Vec<f32> = (0..10).map(|_| 2.0 + 4.0 * rng.f32()).collect();
            schedule.insert(4, schedule[2]);
            schedule.push(f32::INFINITY);
            for (step, &radius) in schedule.iter().enumerate() {
                let room = match rng.below(5) {
                    _ if radius == f32::INFINITY => usize::MAX,
                    0 => 0,
                    1 => 1 + rng.below(4),
                    4 => usize::MAX,
                    _ => 1 + rng.below(200),
                };
                let want: Vec<_> = std::iter::from_fn(|| stream.next_within(radius))
                    .take(room)
                    .collect();
                let got: Vec<_> = if rng.below(4) == 0 {
                    std::iter::from_fn(|| set.next_within(radius))
                        .take(room)
                        .collect()
                } else {
                    // The set is split at a random `w`, from nothing to
                    // all of it: its nearest `w` must be what the stream
                    // yielded first.
                    let w = rng.below(want.len() + 2);
                    let sorted = |part: &Round<'_>| {
                        let mut part: Vec<_> = part.iter().collect();
                        part.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                        part
                    };
                    let (nearest, rest) = set.take_within(radius, room).split_nearest(w);
                    let nearest = sorted(&nearest);
                    assert_eq!(
                        nearest,
                        want[..w.min(want.len())],
                        "{what} step {step}: w {w}"
                    );
                    [nearest, sorted(&rest)].concat()
                };
                assert_eq!(got, want, "{what} step {step}: room {room}");
                let (a, b) = (set.is_exhausted(), stream.is_exhausted());
                assert_eq!(a, b, "{what} step {step}: is_exhausted");
                let (a, b) = (set.distance_computations(), stream.distance_computations());
                assert_eq!(a, b, "{what} step {step}: distance_computations");
                filled += usize::from(room > 0 && got.len() == room);
            }
            assert!(set.is_exhausted(), "{what}: ∞ took everything");
        }
        filled
    }

    #[test]
    fn a_set_is_what_the_stream_yields_next() {
        // See `drive_sets_beside_streams`: a column as built and a churned
        // one, and bulk-loaded trees with pivots and without.
        let mut rng = Rng::new(73);
        let ds = random_dataset(4000, 15, 53);
        let (_, churned, _) = churned_column(77);
        let mut sources = vec![
            (PmTree::column(ds.view()), "column".to_string()),
            (churned, "churned column".to_string()),
        ];
        for num_pivots in [5, 0] {
            let tree = PmTree::build(ds.view(), with_pivots(num_pivots), &mut rng);
            sources.push((tree, format!("tree, s = {num_pivots}")));
        }
        for (tree, what) in &sources {
            let filled = drive_sets_beside_streams(tree, &mut rng, what);
            assert!(filled > 10, "{what}: only {filled} steps filled");
        }
    }

    #[test]
    fn nan_query_yields_nothing_and_terminates() {
        let ds = random_dataset(300, 4, 58);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut Rng::new(59));
        let column = PmTree::column(ds.view());
        let q = [0.5, f32::NAN, 0.0, 1.0];
        for tree in [&tree, &column] {
            let mut cursor = tree.cursor(&q);
            assert_eq!(cursor.next_within(1.0), None);
            if tree.is_column() {
                // Every row was measured, and none lies in a ball.
                assert_eq!(cursor.distance_computations(), 300);
                assert!(cursor.is_exhausted());
            }
            assert_eq!(cursor.next_within(f32::NAN), None);
            assert_eq!(cursor.take_within(f32::NAN, usize::MAX).len(), 0);
            assert_eq!(cursor.take_within(f32::INFINITY, usize::MAX).len(), 0);
            assert_eq!(cursor.next_within(f32::INFINITY), None);
            assert!(cursor.is_exhausted());
            assert_eq!(cursor.next(), None);
            assert_eq!(tree.cursor(&q).next(), None);
            assert!(tree.knn(&q, 3).is_empty());
        }
    }

    #[test]
    fn ties_yield_by_external_id_whatever_the_layout() {
        // Every point three times, so bit-equal projected distances abound.
        let base = random_dataset(200, 6, 60);
        let mut ds = Dataset::with_capacity(6, 600);
        for i in 0..600 {
            ds.push(base.point(i % 200));
        }
        let cfg = PmTreeConfig::default();
        let tree = PmTree::build(ds.view(), cfg, &mut Rng::new(61));
        // The other shape: the same points grown by insertion.
        let mut twin = PmTree::new(6, cfg, tree.pivots.clone());
        for (row, p) in ds.iter().enumerate() {
            twin.insert(p, row as PointId);
        }
        // A column that lost a pattern of ids, whose last rows moved into
        // the holes, and its reload: they yield what the trees yield, less
        // the deleted ids.
        let mut column = PmTree::column(ds.view());
        for id in (0..600).filter(|id| id % 7 < 3) {
            assert!(column.delete(id));
        }
        let reloaded = PmTree::from_parts(column.to_parts()).expect("round trip");

        let drain = |tree: &PmTree, q: &[f32]| {
            let mut cursor = tree.cursor(q);
            let mut out = Vec::new();
            for radius in [1.5f32, 2.5, f32::INFINITY] {
                while let Some(hit) = cursor.next_within(radius) {
                    out.push(hit);
                }
            }
            out
        };
        let mut q = [0.0f32; 6];
        let mut rng = Rng::new(62);
        for _ in 0..5 {
            rng.fill_normal(&mut q);
            let yields = drain(&tree, &q);
            assert_eq!(yields.len(), tree.len());
            let ties = yields.windows(2).filter(|w| w[0].1 == w[1].1);
            assert!(ties.clone().count() >= 100);
            assert!(ties.clone().all(|w| w[0].0 < w[1].0));
            assert_eq!(yields, drain(&twin, &q));
            let mut live = yields.clone();
            live.retain(|&(id, _)| id % 7 >= 3);
            assert_eq!(drain(&column, &q), live);
            assert_eq!(drain(&reloaded, &q), live);
        }
    }

    #[test]
    fn knn_is_incremental_and_exact() {
        // `next()` must not open the whole tree to hand out ten points.
        // Forty well-separated clusters, queries beside a data point.
        let mut rng = Rng::new(63);
        let centers = random_dataset(40, 15, 64);
        let mut ds = Dataset::with_capacity(15, 4000);
        let mut p = vec![0.0f32; 15];
        for i in 0..4000 {
            rng.fill_normal(&mut p);
            let center = centers.point(i % 40);
            p.iter_mut().zip(center).for_each(|(x, c)| *x += 4.0 * c);
            ds.push(&p);
        }
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        for i in 0..5 {
            rng.fill_normal(&mut p);
            let q: Vec<f32> = (p.iter().zip(ds.point(i)))
                .map(|(e, x)| x + 0.5 * e)
                .collect();
            let all = brute_force(&ds, &q);
            assert_eq!(tree.knn(&q, 10), all[..10]);
            let mut cursor = tree.cursor(&q);
            for _ in 0..10 {
                cursor.next();
            }
            let paid = cursor.distance_computations();
            assert!(paid < 2000, "{paid} distances for 10 of 4000 points");
        }
        // More neighbours than points: all of them, no giant reservation.
        let small = random_dataset(40, 3, 66);
        let tree = PmTree::build(small.view(), PmTreeConfig::default(), &mut Rng::new(67));
        assert_eq!(
            tree.knn(&[0.0; 3], usize::MAX),
            brute_force(&small, &[0.0; 3])
        );
    }
}
