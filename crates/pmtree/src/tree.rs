//! PM-tree construction: M-tree insertion with mM_RAD splits plus global
//! pivot hyper-rings (Skopal et al., DASFAA'05; Section 4.1 of the paper).
//!
//! The arena is a `Vec` of node blocks (`block.rs`): every node is one
//! allocation holding its entries at a fixed stride. The projected points
//! are not in the blocks but in one tree-wide column, `points`, whose row
//! `i` is the point of internal row `i` — the row `externals` and `leaf_of`
//! are indexed by. The column is stored as blocks of [`BLOCK_ROWS`] rows,
//! column-major inside a block (row `r`, coordinate `j` at
//! `(r / 8)·8m + 8j + r % 8`), the tail block's free lanes NaN: the layout
//! the sweep's kernel reads eight rows per step from. A reader of one row
//! gathers its `m` lanes. Insertion, splits, deletion, the validators and
//! the export all keep the column and the blocks in step: [`PmTreeParts`]
//! holds each node block as it is, and the column row-major, as `.pmlsh`
//! stores it; [`PmTree::from_parts`] blocks it in place.

use crate::block::{give_back, grow, point_spans, Layout, LeafRef, Node};
use crate::{projected_dist, NodeId};
use pm_lsh_metric::{MatrixView, PointId, BLOCK_ROWS};
use pm_lsh_stats::Rng;
use std::collections::HashMap;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct PmTreeConfig {
    /// Maximum number of entries per node (the paper's experiments use 16).
    pub capacity: usize,
    /// Number of global pivots `s` (the paper settles on 5; 0 degrades the
    /// structure to a plain M-tree).
    pub num_pivots: usize,
    /// Sample size used for pivot selection.
    pub pivot_sample: usize,
}

impl Default for PmTreeConfig {
    fn default() -> Self {
        Self {
            capacity: 16,
            num_pivots: 5,
            pivot_sample: 1024,
        }
    }
}

/// One node of a [`PmTreeParts`] snapshot: the arena block exactly as the
/// tree lays it out (docs/ARCHITECTURE.md, "PM-tree node blocks") and
/// trimmed to its entries, each routing entry's `child` word naming a
/// *compacted* node id.
#[derive(Clone, Debug)]
pub struct RawNode {
    /// `true` for a node of leaf entries, `false` for routing entries.
    pub leaf: bool,
    /// The entries' words, ids stored by `f32::from_bits`.
    pub words: Vec<f32>,
}

/// The complete state of a [`PmTree`], exported with
/// [`PmTree::to_parts`] and re-imported with [`PmTree::from_parts`] —
/// the serialization boundary index snapshots go through.
///
/// The node arena is *free-list-compacted*: freed slots are dropped and
/// surviving nodes renumbered densely, preserving their relative order.
/// Node ids never influence query answers or their order (the cursor
/// yields by projected distance, then external id — a function of the
/// indexed points alone), so a round-tripped tree answers every query
/// bit-identically. `ext_index`,
/// `free_nodes` and the sweep mark are not part of the export — the id map
/// is rebuilt by inverting `externals`, a compacted arena has no free
/// slots, and [`PmTree::from_parts`] leaves the mark off.
#[derive(Clone, Debug)]
pub struct PmTreeParts {
    /// Dimensionality of the indexed space.
    pub dim: usize,
    /// Construction parameters.
    pub cfg: PmTreeConfig,
    /// The `s` global pivots.
    pub pivots: Vec<Box<[f32]>>,
    /// Compacted node arena.
    pub nodes: Vec<RawNode>,
    /// Root node id (into the compacted arena).
    pub root: NodeId,
    /// Internal row -> projected point: `externals.len() × dim` f32,
    /// row-major (the tree keeps it blocked; see the module docs).
    pub points: Vec<f32>,
    /// Internal row -> external id.
    pub externals: Vec<PointId>,
    /// Internal row -> holding leaf (compacted ids).
    pub leaf_of: Vec<NodeId>,
    /// Distance computations spent on construction so far.
    pub build_dist_computations: u64,
}

/// A PM-tree over points in `R^dim` under the Euclidean distance.
///
/// The tree owns a copy of every inserted point, as one row of its `points`
/// column (60 bytes in the paper's m = 15 projected space), beside the
/// point's leaf entry in a node block (32 bytes at s = 5: 20 of pivot
/// distances, 12 of ids and parent distance), so callers may drop their
/// own projected data after building. The column and the id maps are
/// addressed by *internal* row while queries report the caller-supplied
/// *external* [`PointId`].
#[derive(Clone, Debug)]
pub struct PmTree {
    pub(crate) dim: usize,
    pub(crate) cfg: PmTreeConfig,
    pub(crate) pivots: Vec<Box<[f32]>>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    /// Internal row -> projected point, in blocks of [`BLOCK_ROWS`] rows
    /// (see the module docs): `⌈len() / 8⌉ · 8 · dim` f32, the tail block's
    /// free lanes NaN. It never has room for more than a quarter more
    /// blocks than it holds.
    pub(crate) points: Vec<f32>,
    /// Internal row -> external id.
    pub(crate) externals: Vec<PointId>,
    /// External id -> internal row, the lookup [`PmTree::delete`] starts
    /// from (and what makes duplicate external ids detectable at insert).
    pub(crate) ext_index: HashMap<PointId, u32>,
    /// Internal row -> the leaf node currently holding its entry.
    pub(crate) leaf_of: Vec<NodeId>,
    /// Arena slots released by deletions, reused by the next allocation.
    pub(crate) free_nodes: Vec<NodeId>,
    /// The pivot distances and the coordinates of the point being filed;
    /// kept between inserts so that none allocates for them.
    pivot_dists: Vec<f32>,
    filed: Vec<f32>,
    pub(crate) build_dist_computations: u64,
    /// Whether cursors open with a sweep over `points` instead of the
    /// range traversal; see [`PmTree::set_leaf_sweep`].
    pub(crate) leaf_sweep: bool,
}

impl PmTree {
    /// Creates an empty tree with pre-selected pivots.
    pub fn new(dim: usize, cfg: PmTreeConfig, pivots: Vec<Box<[f32]>>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(cfg.capacity >= 2, "node capacity must be at least 2");
        assert_eq!(
            pivots.len(),
            cfg.num_pivots,
            "pivot count must match config"
        );
        for p in &pivots {
            assert_eq!(p.len(), dim, "pivot has wrong dimensionality");
        }
        Self {
            dim,
            cfg,
            pivots,
            nodes: vec![Node::empty()],
            root: 0,
            points: Vec::new(),
            externals: Vec::new(),
            ext_index: HashMap::new(),
            leaf_of: Vec::new(),
            free_nodes: Vec::new(),
            pivot_dists: Vec::new(),
            filed: Vec::new(),
            build_dist_computations: 0,
            leaf_sweep: false,
        }
    }

    /// Marks the tree for sweeping (`true`) or for the textbook range
    /// traversal (`false`, what every constructor leaves). A cursor over a
    /// marked tree measures every indexed point in its first round, in one
    /// pass over the blocked `points` column, eight rows per step, instead
    /// of opening regions from the root: no node, no pivot or
    /// routing-entry distance, exactly [`PmTree::len`] point distances, and
    /// the same yields and `is_exhausted` after every call (see
    /// [`crate::cursor`]). `Clone` copies the mark; snapshots do not store
    /// it.
    pub fn set_leaf_sweep(&mut self, sweep: bool) {
        self.leaf_sweep = sweep;
    }

    /// The shape of this tree's node entries.
    #[inline]
    pub(crate) fn layout(&self) -> Layout {
        Layout {
            dim: self.dim,
            pivots: self.pivots.len(),
        }
    }

    /// The projected point of internal row `internal`, gathered from its
    /// lanes of the column.
    pub(crate) fn point(&self, internal: u32) -> Vec<f32> {
        let mut point = Vec::with_capacity(self.dim);
        Rows::of(self).gather(internal, &mut point);
        point
    }

    /// Builds a tree over every row of `view` (external id = row index),
    /// selecting pivots from a sample first: the bulk loader
    /// ([`PmTree::build_parallel`]) on the calling thread alone.
    pub fn build(view: MatrixView<'_>, cfg: PmTreeConfig, rng: &mut Rng) -> Self {
        Self::build_parallel(view, cfg, rng, 1)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.externals.len()
    }

    /// `true` when no point is indexed.
    pub fn is_empty(&self) -> bool {
        self.externals.is_empty()
    }

    /// Dimensionality of the indexed space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The global pivots.
    pub fn pivots(&self) -> &[Box<[f32]>] {
        &self.pivots
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree: the nodes on the path from the root to its
    /// deepest leaf (1 for a single leaf). Leaves need not share a depth:
    /// the bulk loader hangs one subtree per pivot region under the root,
    /// each as deep as its region is large.
    pub fn height(&self) -> usize {
        let lay = self.layout();
        let mut deepest = 0;
        let mut stack = vec![(self.root, 1)];
        while let Some((node, depth)) = stack.pop() {
            let entries = &self.nodes[node as usize];
            if entries.is_leaf() {
                deepest = deepest.max(depth);
            } else {
                stack.extend(entries.inners(lay).map(|e| (e.child, depth + 1)));
            }
        }
        deepest
    }

    /// Distance computations spent on inserts so far (preprocessing cost).
    pub fn build_distance_computations(&self) -> u64 {
        self.build_dist_computations
    }

    /// The external ids of every indexed point, in internal-row order
    /// (the live set: deletions remove ids from this slice).
    pub fn external_ids(&self) -> &[PointId] {
        &self.externals
    }

    /// `true` when a point with this external id is indexed.
    pub fn contains_external(&self, external: PointId) -> bool {
        self.ext_index.contains_key(&external)
    }

    /// Inserts one point with a caller-chosen external id.
    ///
    /// # Panics
    /// Panics if `vector.len() != self.dim()`.
    pub fn insert(&mut self, vector: &[f32], external: PointId) {
        // Check before the pivot distances so a bad point fails with this
        // message (not inside the distance kernel) and without counting
        // distance computations it never really did.
        assert_eq!(vector.len(), self.dim, "point has wrong dimensionality");
        assert!(
            !self.ext_index.contains_key(&external),
            "external id {external} is already indexed"
        );
        let internal = self.externals.len();
        self.ext_index.insert(external, internal as u32);
        let block = BLOCK_ROWS * self.dim;
        if internal.is_multiple_of(BLOCK_ROWS) {
            grow(&mut self.points, block);
            self.points.resize(self.points.len() + block, f32::NAN);
        }
        let at = lane_of(self.dim, internal);
        for (j, &x) in vector.iter().enumerate() {
            self.points[at + BLOCK_ROWS * j] = x;
        }
        // Filing reads the column beside `&mut self`, so it borrows it out.
        let points = std::mem::take(&mut self.points);
        let rows = Rows {
            column: &points,
            dim: self.dim,
            first: 0,
        };
        self.file_row(external, rows);
        self.points = points;
    }

    /// Files the next internal row, `externals.len()`, whose point is that
    /// row of `rows`, under `external`: everything [`PmTree::insert`] does
    /// but the id map and the column. `rows` is the tree's own column, or,
    /// for a subtree the bulk loader grows, the rows of the finished
    /// tree's column that the subtree will own — such a subtree keeps no
    /// column of its own, and the loader inverts `externals` once at the
    /// end, so no region keeps a map of its own either.
    pub(crate) fn file_row(&mut self, external: PointId, rows: Rows<'_>) {
        let internal = self.externals.len() as u32;
        let mut vector = std::mem::take(&mut self.filed);
        vector.clear();
        rows.gather(internal, &mut vector);
        let mut pd = std::mem::take(&mut self.pivot_dists);
        pd.clear();
        pd.extend(self.pivots.iter().map(|p| projected_dist(&vector, p)));
        self.build_dist_computations += self.pivots.len() as u64;
        self.externals.push(external);
        // Placeholder; insert_rec records the leaf that receives the entry.
        self.leaf_of.push(self.root);
        if let Some(pair) = self.insert_rec(self.root, internal, &vector, &pd, 0.0, None, rows) {
            self.root = self.alloc(pair);
        }
        self.pivot_dists = pd;
        self.filed = vector;
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(node);
                id
            }
        }
    }

    /// Releases an arena slot for reuse, blanking it so a stale routing
    /// entry can never be traversed by mistake.
    fn free(&mut self, node: NodeId) {
        self.nodes[node as usize] = Node::empty();
        self.free_nodes.push(node);
    }

    /// Recursive single-path insert of row `internal` of `rows`, whose
    /// point is `vector`. When `node` split, returns the two replacement
    /// routing entries as a two-entry inner block (the new root, if `node`
    /// was the root). `dist_to_node` is the distance from the new point to
    /// the routing object of the entry pointing at `node` (0 at the root),
    /// and `parent` says where that entry is: `(node, index)`.
    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        &mut self,
        node: NodeId,
        internal: u32,
        vector: &[f32],
        pd: &[f32],
        dist_to_node: f32,
        parent: Option<(NodeId, usize)>,
        rows: Rows<'_>,
    ) -> Option<Node> {
        let lay = self.layout();
        let capacity = self.cfg.capacity;
        if self.nodes[node as usize].is_leaf() {
            let entry = LeafRef {
                parent_dist: dist_to_node,
                external: self.externals[internal as usize],
                internal,
                pivot_dists: pd,
            };
            self.nodes[node as usize].push_leaf(lay, entry);
            self.leaf_of[internal as usize] = node;
            let overflows = self.nodes[node as usize].len(lay) > capacity;
            return overflows.then(|| self.split(node, rows));
        }

        let (best, child, d) = self.choose_subtree(node, vector, pd);
        let pair = self.insert_rec(child, internal, vector, pd, d, Some((node, best)), rows)?;
        let mut parent_dists = [0.0f32; 2];
        if let Some((up, idx)) = parent {
            let center = self.nodes[up as usize].inner_at(idx, lay).center;
            parent_dists =
                [0, 1].map(|half| projected_dist(pair.inner_at(half, lay).center, center));
            self.build_dist_computations += 2;
        }
        let entries = &mut self.nodes[node as usize];
        entries.replace_from(best, lay, &pair, 0, parent_dists[0]);
        entries.push_from(lay, &pair, 1, parent_dists[1]);
        let overflows = entries.len(lay) > capacity;
        overflows.then(|| self.split(node, rows))
    }

    /// Picks the routing entry of `node` for the new point: prefer the
    /// closest entry already covering the point; otherwise minimize radius
    /// enlargement. Updates the chosen entry's radius and rings on the way
    /// and returns its index, its child and the point's distance to its
    /// center.
    fn choose_subtree(&mut self, node: NodeId, vector: &[f32], pd: &[f32]) -> (usize, NodeId, f32) {
        let lay = self.layout();
        let entries = &mut self.nodes[node as usize];
        self.build_dist_computations += entries.len(lay) as u64;

        // (index, child, distance to its center) of the best entry so far.
        let mut best = (usize::MAX, 0, 0.0f32);
        let mut best_key = f32::INFINITY;
        let mut covered = false;
        for (i, e) in entries.inners(lay).enumerate() {
            let d = projected_dist(vector, e.center);
            if d <= e.radius {
                if !covered || d < best_key {
                    covered = true;
                    best = (i, e.child, d);
                    best_key = d;
                }
            } else if !covered {
                let enlarge = d - e.radius;
                if enlarge < best_key {
                    best = (i, e.child, d);
                    best_key = enlarge;
                }
            }
        }
        debug_assert!(best.0 != usize::MAX);

        entries.cover(best.0, lay, best.2, point_spans(pd));
        best
    }

    /// Splits the overflowing `node`, leaf or inner, in two by mM_RAD:
    /// `node` keeps the first group, a newly allocated node takes the
    /// second. Returns their two routing entries (parent distance 0, for
    /// the caller to fill in) as a two-entry inner block. A leaf entry's
    /// point is its row of `rows`, gathered.
    fn split(&mut self, node: NodeId, rows: Rows<'_>) -> Node {
        let lay = self.layout();
        let full = std::mem::replace(&mut self.nodes[node as usize], Node::empty());
        let leaf = full.is_leaf();
        let n = full.len(lay);
        debug_assert!(n >= 2);

        // Pairwise distances between the members' points / routing objects.
        let mut points = Vec::new();
        if leaf {
            points.reserve_exact(n * lay.dim);
            (0..n).for_each(|k| rows.gather(full.leaf_at(k, lay).internal, &mut points));
        }
        let members: Vec<&[f32]> = (0..n)
            .map(|k| {
                if leaf {
                    &points[k * lay.dim..(k + 1) * lay.dim]
                } else {
                    full.inner_at(k, lay).center
                }
            })
            .collect();
        let mut dmat = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = projected_dist(members[i], members[j]);
                dmat[i * n + j] = d;
                dmat[j * n + i] = d;
            }
        }
        self.build_dist_computations += (n * (n - 1) / 2) as u64;

        // A routing member reaches its own covering radius beyond its center.
        let own_radius = |k: usize| {
            if leaf {
                0.0
            } else {
                full.inner_at(k, lay).radius
            }
        };
        let (pi, pj, assign) = promote_mm_rad(n, &dmat, own_radius);
        let promoted = [pi, pj];
        let firsts = assign.iter().filter(|&&first| first).count();
        let mut halves = [firsts, n - firsts].map(|len| Node::with_capacity(leaf, len, lay));
        let ids = [node, self.alloc(Node::empty())];

        let mut pair = Node::with_capacity(false, 2, lay);
        pair.push_routing(lay, ids[0], members[pi]);
        pair.push_routing(lay, ids[1], members[pj]);
        for k in 0..n {
            let half = usize::from(!assign[k]);
            let parent_dist = dmat[k * n + promoted[half]];
            halves[half].push_from(lay, &full, k, parent_dist);
            if leaf {
                let e = full.leaf_at(k, lay);
                self.leaf_of[e.internal as usize] = ids[half];
                pair.cover(half, lay, parent_dist, point_spans(e.pivot_dists));
            } else {
                let e = full.inner_at(k, lay);
                pair.cover(half, lay, parent_dist + e.radius, e.spans());
            }
        }
        for (id, half) in ids.into_iter().zip(halves) {
            self.nodes[id as usize] = half;
        }
        pair
    }

    /// Removes the point with external id `external`; `false` when no such
    /// point is indexed (including ids that were already deleted).
    ///
    /// This is a true M-tree leaf removal, not a tombstone: the entry
    /// leaves its leaf, a leaf that empties is pruned from its parent
    /// (recursively — a routing entry never points at an empty subtree), a
    /// root left with a single routing entry collapses into its child, and
    /// the freed arena slots go on a free list the next allocation reuses.
    /// The internal rows stay dense (the last row takes the freed number)
    /// and the leaf's block gives back the room of the entry it lost, so
    /// memory tracks the live point count.
    ///
    /// Covering radii and hyper-rings of the surviving ancestors are *not*
    /// shrunk: they remain correct upper/outer bounds (every remaining
    /// point still satisfies them), merely looser than a fresh build would
    /// produce — deletions trade a little pruning power for O(capacity)
    /// structural work in the common case. Only when a leaf *empties*
    /// does the prune pay a root-to-leaf path search (a DFS over inner
    /// nodes; the arena stores no parent pointers), and a rebuild
    /// restores tight bounds.
    pub fn delete(&mut self, external: PointId) -> bool {
        let Some(&internal) = self.ext_index.get(&external) else {
            return false;
        };
        let lay = self.layout();
        let leaf = self.leaf_of[internal as usize];
        // The prune path is only needed when this removal empties the
        // leaf; don't pay the DFS for the overwhelmingly common case.
        let will_empty = self.nodes[leaf as usize].len(lay) == 1;
        let path = if will_empty {
            self.path_to(leaf)
        } else {
            Vec::new()
        };
        let entries = &mut self.nodes[leaf as usize];
        let pos = (entries.leaves(lay))
            .position(|e| e.internal == internal)
            .expect("leaf_of points at the holding leaf");
        entries.remove(pos, lay);
        if will_empty {
            self.prune(leaf, path);
        }
        self.ext_index.remove(&external);
        self.compact_rows(internal);
        true
    }

    /// The `(inner node, entry index)` chain from the root down to (but
    /// excluding) `target`; empty when `target` is the root.
    fn path_to(&self, target: NodeId) -> Vec<(NodeId, usize)> {
        let mut path = Vec::new();
        if self.root != target {
            let found = self.dfs_path(self.root, target, &mut path);
            assert!(found, "node {target} not reachable from the root");
        }
        path
    }

    fn dfs_path(&self, node: NodeId, target: NodeId, path: &mut Vec<(NodeId, usize)>) -> bool {
        let entries = &self.nodes[node as usize];
        if entries.is_leaf() {
            return false;
        }
        for (i, e) in entries.inners(self.layout()).enumerate() {
            path.push((node, i));
            if e.child == target || self.dfs_path(e.child, target, path) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// Detaches the emptied `node` from its parent, propagating upward
    /// while parents empty too, then collapses a single-entry root. An
    /// emptied *root* is normalized back to the empty-leaf state
    /// [`PmTree::new`] starts from.
    fn prune(&mut self, mut node: NodeId, mut path: Vec<(NodeId, usize)>) {
        let lay = self.layout();
        loop {
            let Some((parent, idx)) = path.pop() else {
                // The whole tree emptied out.
                self.nodes[node as usize] = Node::empty();
                return;
            };
            self.free(node);
            let entries = &mut self.nodes[parent as usize];
            entries.remove(idx, lay);
            if entries.len(lay) > 0 {
                break;
            }
            node = parent;
        }
        self.collapse_root();
    }

    /// While the root is an inner node with exactly one routing entry,
    /// adopt its child as the root (the inverse of a root split). Root
    /// entries' `parent_dist` is ignored by both the cursor and the
    /// invariant checker, so no distances need recomputing.
    fn collapse_root(&mut self) {
        let lay = self.layout();
        loop {
            let root = &self.nodes[self.root as usize];
            if root.is_leaf() || root.len(lay) != 1 {
                break;
            }
            let child = root.inner_at(0, lay).child;
            self.free(self.root);
            self.root = child;
        }
    }

    /// Keeps the internal rows dense after the removal of row `internal`:
    /// the last row takes its number — its lanes move into the freed row's
    /// lanes of `points`, and its leaf entry, external map and leaf map are
    /// rewritten to match — the lanes it leaves become NaN, and the column
    /// (by a block when that empties one) and both maps shrink by one row.
    /// The *deleted* entry is already gone from its leaf, so scanning for
    /// the renumbered row's entry is unambiguous.
    fn compact_rows(&mut self, internal: u32) {
        let (lay, m) = (self.layout(), self.dim);
        let last = (self.externals.len() - 1) as u32;
        let (to, from) = (lane_of(m, internal as usize), lane_of(m, last as usize));
        for j in 0..m {
            self.points[to + BLOCK_ROWS * j] = self.points[from + BLOCK_ROWS * j];
            self.points[from + BLOCK_ROWS * j] = f32::NAN;
        }
        if internal != last {
            let moved_external = self.externals[last as usize];
            self.externals[internal as usize] = moved_external;
            self.ext_index.insert(moved_external, internal);
            let moved_leaf = self.leaf_of[last as usize];
            self.leaf_of[internal as usize] = moved_leaf;
            let entries = &mut self.nodes[moved_leaf as usize];
            let pos = (entries.leaves(lay))
                .position(|e| e.internal == last)
                .expect("leaf_of points at the holding leaf");
            entries.set_internal(pos, lay, internal);
        }
        self.externals.pop();
        self.leaf_of.pop();
        self.points
            .truncate(blocks_for(last as usize) * BLOCK_ROWS * m);
        give_back(&mut self.points, BLOCK_ROWS * m);
    }

    /// Exports the complete tree state with the node arena free-list-
    /// compacted (see [`PmTreeParts`]). The tree itself is untouched.
    pub fn to_parts(&self) -> PmTreeParts {
        // Dense remap dropping freed slots; surviving nodes keep their
        // relative order (ids never influence traversal, but a stable
        // order keeps the export deterministic).
        let mut free = vec![false; self.nodes.len()];
        for &f in &self.free_nodes {
            free[f as usize] = true;
        }
        let mut remap = vec![NodeId::MAX; self.nodes.len()];
        let mut next: NodeId = 0;
        for id in 0..self.nodes.len() {
            if !free[id] {
                remap[id] = next;
                next += 1;
            }
        }
        let lay = self.layout();
        let nodes = (self.nodes.iter().enumerate())
            .filter(|&(id, _)| !free[id])
            .map(|(_, node)| node.export(lay, &remap))
            .collect();
        PmTreeParts {
            dim: self.dim,
            cfg: self.cfg,
            pivots: self.pivots.clone(),
            nodes,
            root: remap[self.root as usize],
            points: Rows::of(self).unblocked(self.len()),
            externals: self.externals.clone(),
            leaf_of: self.leaf_of.iter().map(|&l| remap[l as usize]).collect(),
            build_dist_computations: self.build_dist_computations,
        }
    }

    /// Reassembles a tree from exported parts: every block moves into the
    /// arena as it is, the row-major `points` are blocked in place, the id
    /// map is rebuilt by inverting `externals` and the free list starts
    /// empty (the exported arena is compacted). The result is validated
    /// with [`PmTree::verify_structure`] — whole-entry blocks, capacity,
    /// `child` and `internal` ranges, leaf / external / `leaf_of`
    /// agreement, one `points` row per point — before it is returned, so
    /// corrupted or
    /// internally inconsistent parts come back as `Err`, never as a tree
    /// that panics later.
    pub fn from_parts(parts: PmTreeParts) -> Result<Self, String> {
        if parts.dim == 0 {
            return Err("dimension must be positive".into());
        }
        if parts.cfg.capacity < 2 {
            return Err(format!("node capacity {} below 2", parts.cfg.capacity));
        }
        if parts.pivots.len() != parts.cfg.num_pivots {
            return Err(format!(
                "{} pivots but config declares {}",
                parts.pivots.len(),
                parts.cfg.num_pivots
            ));
        }
        let n = parts.externals.len();
        if parts.points.len() != n * parts.dim {
            return Err(format!(
                "point column holds {} floats, not {n} rows of {}",
                parts.points.len(),
                parts.dim
            ));
        }
        let mut ext_index = HashMap::with_capacity(n);
        for (internal, &external) in parts.externals.iter().enumerate() {
            if ext_index.insert(external, internal as u32).is_some() {
                return Err(format!("external id {external} appears twice"));
            }
        }
        let tree = Self {
            dim: parts.dim,
            cfg: parts.cfg,
            pivots: parts.pivots,
            nodes: parts.nodes.into_iter().map(Node::from).collect(),
            root: parts.root,
            points: block_rows(parts.points, parts.dim),
            externals: parts.externals,
            ext_index,
            leaf_of: parts.leaf_of,
            free_nodes: Vec::new(),
            pivot_dists: Vec::new(),
            filed: Vec::new(),
            build_dist_computations: parts.build_dist_computations,
            leaf_sweep: false,
        };
        tree.verify_structure()?;
        Ok(tree)
    }

    /// Validates the *structural* invariants only — whole-entry blocks,
    /// node fill, index ranges, map and column sizes, NaN in the column's
    /// free lanes, arena reachability — without recomputing a single
    /// distance. This is the cheap load-time check snapshot restoration
    /// runs ([`PmTree::verify_invariants`] adds the O(n · height)
    /// geometric audit on top; checksums already guard against bit-rot,
    /// structure checks guard against panics and out-of-bounds access).
    pub fn verify_structure(&self) -> Result<(), String> {
        let n = self.externals.len();
        if self.leaf_of.len() != n {
            return Err(format!(
                "leaf map covers {} rows, the tree holds {n}",
                self.leaf_of.len()
            ));
        }
        let blocks = blocks_for(n);
        if self.points.len() != blocks * BLOCK_ROWS * self.dim {
            return Err(format!(
                "point column holds {} floats, not {blocks} blocks of {BLOCK_ROWS} rows of {}",
                self.points.len(),
                self.dim
            ));
        }
        for lane in n..blocks * BLOCK_ROWS {
            let at = lane_of(self.dim, lane);
            if let Some(j) = (0..self.dim).find(|j| !self.points[at + BLOCK_ROWS * j].is_nan()) {
                return Err(format!(
                    "free lane {lane} of the point column holds a number at coordinate {j}"
                ));
            }
        }
        if self.ext_index.len() != n {
            return Err(format!(
                "id map holds {} entries for {n} points",
                self.ext_index.len()
            ));
        }
        for (internal, &external) in self.externals.iter().enumerate() {
            if self.ext_index.get(&external) != Some(&(internal as u32)) {
                return Err(format!(
                    "id map does not send external {external} back to row {internal}"
                ));
            }
        }
        for p in &self.pivots {
            if p.len() != self.dim {
                return Err(format!("pivot in R^{}, tree in R^{}", p.len(), self.dim));
            }
        }
        let lay = self.layout();
        if self.root as usize >= self.nodes.len() {
            return Err(format!(
                "root {} outside the {}-node arena",
                self.root,
                self.nodes.len()
            ));
        }
        let mut reached = vec![false; self.nodes.len()];
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if reached[node as usize] {
                return Err(format!("node {node} reachable through two parents"));
            }
            reached[node as usize] = true;
            let entries = &self.nodes[node as usize];
            let (words, stride) = (entries.extent().0, entries.stride(lay));
            if words % stride != 0 {
                return Err(format!(
                    "node {node} holds {words} words, not a whole number of {stride}-word entries"
                ));
            }
            if entries.len(lay) > self.cfg.capacity {
                return Err(format!(
                    "node {node} holds {} entries, capacity is {}",
                    entries.len(lay),
                    self.cfg.capacity
                ));
            }
            if !entries.is_leaf() {
                if entries.len(lay) == 0 {
                    return Err("inner node with no entries".into());
                }
                for e in entries.inners(lay) {
                    if e.child as usize >= self.nodes.len() {
                        return Err(format!(
                            "child {} outside the {}-node arena",
                            e.child,
                            self.nodes.len()
                        ));
                    }
                    stack.push(e.child);
                }
                continue;
            }
            for e in entries.leaves(lay) {
                if e.internal as usize >= n {
                    return Err(format!(
                        "leaf row {} outside the {n} rows of the tree",
                        e.internal
                    ));
                }
                if seen[e.internal as usize] {
                    return Err(format!("point {} reachable twice", e.internal));
                }
                seen[e.internal as usize] = true;
                if self.leaf_of[e.internal as usize] != node {
                    return Err(format!(
                        "leaf map sends row {} to node {}, found in node {node}",
                        e.internal, self.leaf_of[e.internal as usize]
                    ));
                }
                if e.external != self.externals[e.internal as usize] {
                    return Err(format!(
                        "leaf entry for row {} carries external {} (store says {})",
                        e.internal, e.external, self.externals[e.internal as usize]
                    ));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("point {missing} not reachable from the root"));
        }
        let mut free = vec![false; self.nodes.len()];
        for &f in &self.free_nodes {
            if f as usize >= self.nodes.len() {
                return Err(format!("free-list id {f} outside the arena"));
            }
            if reached[f as usize] {
                return Err(format!("node {f} is both reachable and on the free list"));
            }
            if free[f as usize] {
                return Err(format!("node {f} is on the free list twice"));
            }
            free[f as usize] = true;
        }
        if let Some(leaked) = (0..self.nodes.len()).find(|&id| !reached[id] && !free[id]) {
            return Err(format!(
                "node {leaked} is neither reachable nor on the free list"
            ));
        }
        Ok(())
    }

    /// Panicking [`PmTree::verify_invariants`], for sprinkling through
    /// property tests and debug builds (compiled under `cfg(test)` or the
    /// `invariants` feature).
    #[cfg(any(test, feature = "invariants"))]
    pub fn check_invariants(&self) {
        if let Err(violation) = self.verify_invariants() {
            panic!("PM-tree invariant violated: {violation}");
        }
    }

    /// Validates every invariant; used by tests and proptests.
    ///
    /// [`PmTree::verify_structure`] runs first — index ranges, the id
    /// map, `leaf_of`, reachability and the free list — so a corrupted
    /// tree comes back as `Err` from there, never as an out-of-bounds
    /// panic here. The geometric audit then recomputes distances and
    /// checks, for every routing entry: (1) all points of its subtree lie
    /// within `radius` of its center, (2) each hyper-ring contains the
    /// pivot distance of every point below it, and (3) children's
    /// `parent_dist` matches the distance to the routing object; for
    /// every leaf entry, that its parent distance and its stored pivot
    /// distances are those of its row of `points`.
    pub fn verify_invariants(&self) -> Result<(), String> {
        self.verify_structure()?;
        self.verify_geometry(self.root, None)
    }

    /// The geometric half of [`PmTree::verify_invariants`]; indexes
    /// freely, so only call it on a tree `verify_structure` accepted.
    fn verify_geometry(&self, node: NodeId, parent_center: Option<&[f32]>) -> Result<(), String> {
        const EPS: f32 = 1e-3;
        let lay = self.layout();
        let entries = &self.nodes[node as usize];
        if entries.is_leaf() {
            for e in entries.leaves(lay) {
                let point = &self.point(e.internal)[..];
                if let Some(pc) = parent_center {
                    let d = projected_dist(point, pc);
                    if (d - e.parent_dist).abs() > EPS * (1.0 + d) {
                        return Err(format!(
                            "leaf parent_dist {} != {} for point {}",
                            e.parent_dist, d, e.internal
                        ));
                    }
                }
                for (i, (&pd, pivot)) in e.pivot_dists.iter().zip(&self.pivots).enumerate() {
                    let d = projected_dist(point, pivot);
                    if (d - pd).abs() > EPS * (1.0 + d) {
                        return Err(format!("leaf pivot_dist[{i}] stale for {}", e.internal));
                    }
                }
            }
            return Ok(());
        }
        for e in entries.inners(lay) {
            if let Some(pc) = parent_center {
                let d = projected_dist(e.center, pc);
                if (d - e.parent_dist).abs() > EPS * (1.0 + d) {
                    return Err(format!("inner parent_dist {} != {d}", e.parent_dist));
                }
            }
            // every point below must respect radius and rings
            let mut stack = vec![e.child];
            while let Some(nid) = stack.pop() {
                let below = &self.nodes[nid as usize];
                if !below.is_leaf() {
                    stack.extend(below.inners(lay).map(|c| c.child));
                    continue;
                }
                for l in below.leaves(lay) {
                    let d = projected_dist(&self.point(l.internal), e.center);
                    if d > e.radius + EPS * (1.0 + d) {
                        return Err(format!(
                            "point {} at {d} outside radius {}",
                            l.internal, e.radius
                        ));
                    }
                    for (ri, ((min, max), &pd)) in e.spans().zip(l.pivot_dists).enumerate() {
                        if pd < min - EPS || pd > max + EPS {
                            return Err(format!(
                                "pivot dist {pd} outside ring {ri} [{min}, {max}]"
                            ));
                        }
                    }
                }
            }
            self.verify_geometry(e.child, Some(e.center))?;
        }
        Ok(())
    }
}

/// How many blocks a column of `rows` rows takes.
#[inline]
pub(crate) fn blocks_for(rows: usize) -> usize {
    rows.div_ceil(BLOCK_ROWS)
}

/// Where row `row`'s coordinate 0 sits in a blocked column of `dim`-wide
/// rows; coordinate `j` sits `BLOCK_ROWS · j` further on.
#[inline]
pub(crate) fn lane_of(dim: usize, row: usize) -> usize {
    row / BLOCK_ROWS * BLOCK_ROWS * dim + row % BLOCK_ROWS
}

/// `points`, `dim`-wide rows row-major, as a blocked column, in place: the
/// vector grows by the tail block's free lanes (NaN), and each block's
/// `8 × dim` floats are transposed through one block of scratch.
pub(crate) fn block_rows(mut points: Vec<f32>, dim: usize) -> Vec<f32> {
    let block = BLOCK_ROWS * dim;
    let len = blocks_for(points.len() / dim) * block;
    points.reserve_exact(len - points.len());
    points.resize(len, f32::NAN);
    let mut rows = vec![0.0f32; block];
    for lanes in points.chunks_exact_mut(block) {
        rows.copy_from_slice(lanes);
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                lanes[BLOCK_ROWS * j + r] = x;
            }
        }
    }
    points
}

/// Rows of a blocked column as a tree files them: the tree's row `i` is the
/// column's row `first + i` (a bulk-loaded subtree's rows start where its
/// region's do).
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) column: &'a [f32],
    pub(crate) dim: usize,
    pub(crate) first: u32,
}

impl<'a> Rows<'a> {
    /// The tree's own column.
    fn of(tree: &'a PmTree) -> Self {
        Rows {
            column: &tree.points,
            dim: tree.dim,
            first: 0,
        }
    }

    /// Appends the coordinates of row `row` to `out`.
    pub(crate) fn gather(&self, row: u32, out: &mut Vec<f32>) {
        let at = lane_of(self.dim, (self.first + row) as usize);
        out.extend((0..self.dim).map(|j| self.column[at + BLOCK_ROWS * j]));
    }

    /// The first `n` rows, row-major.
    fn unblocked(&self, n: usize) -> Vec<f32> {
        let mut points = Vec::with_capacity(n * self.dim);
        (0..n as u32).for_each(|row| self.gather(row, &mut points));
        points
    }
}

/// mM_RAD promotion: evaluates every pair of members as routing objects,
/// assigns the rest to the closer one (generalized hyperplane), and keeps the
/// pair minimizing the larger covering radius. `extra(k)` adds a member's own
/// covering radius when splitting inner nodes. Returns the promoted pair and
/// the side assignment (`true` = first group).
fn promote_mm_rad(
    n: usize,
    dmat: &[f32],
    extra: impl Fn(usize) -> f32,
) -> (usize, usize, Vec<bool>) {
    let mut best_cost = f32::INFINITY;
    let mut best = (0usize, 1usize);
    for i in 0..n {
        for j in i + 1..n {
            let (mut r1, mut r2) = (extra(i), extra(j));
            let mut balance = 0i32;
            for k in 0..n {
                if k == i || k == j {
                    continue;
                }
                let di = dmat[k * n + i];
                let dj = dmat[k * n + j];
                let to_first = di < dj || (di == dj && balance <= 0);
                if to_first {
                    balance += 1;
                    r1 = r1.max(di + extra(k));
                } else {
                    balance -= 1;
                    r2 = r2.max(dj + extra(k));
                }
            }
            let cost = r1.max(r2);
            if cost < best_cost {
                best_cost = cost;
                best = (i, j);
            }
        }
    }
    let (pi, pj) = best;
    let mut balance = 0i32;
    let assign: Vec<bool> = (0..n)
        .map(|k| {
            if k == pi {
                balance += 1;
                true
            } else if k == pj {
                balance -= 1;
                false
            } else {
                let di = dmat[k * n + pi];
                let dj = dmat[k * n + pj];
                let to_first = di < dj || (di == dj && balance <= 0);
                if to_first {
                    balance += 1;
                } else {
                    balance -= 1;
                }
                to_first
            }
        })
        .collect();
    (pi, pj, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_metric::Dataset;

    fn two_level_tree() -> PmTree {
        let mut rng = Rng::new(5);
        let mut ds = Dataset::with_capacity(4, 120);
        let mut buf = [0.0f32; 4];
        for _ in 0..120 {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        assert!(tree.height() >= 2, "corruption tests need an inner root");
        tree.verify_invariants().expect("fresh tree is valid");
        tree
    }

    /// A corrupted tree must come back as `Err` from both validators —
    /// the full audit used to index the arena with whatever id it found
    /// and panic instead.
    #[test]
    fn validators_reject_corruption_instead_of_panicking() {
        let rejected = |bad: &PmTree, needle: &str| {
            let structure = bad.verify_structure().unwrap_err();
            assert!(structure.contains(needle), "{structure}");
            assert_eq!(bad.verify_invariants().unwrap_err(), structure);
        };
        let good = two_level_tree();
        let lay = good.layout();
        let arena = good.nodes.len() as NodeId;
        let root = good.root as usize;
        let a_leaf = good.leaf_of[0] as usize;

        let mut bad_child = good.clone();
        // Word 2 of a routing entry is its child.
        bad_child.nodes[root].words_mut()[2] = f32::from_bits(arena + 7);
        rejected(&bad_child, "outside the");

        let mut bad_leaf_map = good.clone();
        bad_leaf_map.leaf_of[3] = arena + 7;
        rejected(&bad_leaf_map, "leaf map sends row 3");

        // The block invariants: a whole number of entries of the tree's
        // stride, at most `capacity` of them, at least one routing entry.
        for node in [root, a_leaf] {
            let mut ragged = good.clone();
            ragged.nodes[node].words_mut().pop();
            rejected(&ragged, "not a whole number of");
        }
        let mut wrong_stride = good.clone();
        wrong_stride.pivots.pop();
        wrong_stride.cfg.num_pivots -= 1;
        rejected(&wrong_stride, "not a whole number of");
        for node in [root, a_leaf] {
            let mut overfull = good.clone();
            let one = overfull.nodes[node].clone();
            while overfull.nodes[node].len(lay) <= good.cfg.capacity {
                overfull.nodes[node].push_from(lay, &one, 0, 0.0);
            }
            rejected(&overfull, "entries, capacity is 16");
        }
        let mut hollow = good.clone();
        hollow.nodes[root].words_mut().clear();
        rejected(&hollow, "inner node with no entries");
    }

    /// The column's free lanes are NaN, which the sweep drops: a number
    /// there would be measured as a point no leaf holds.
    #[test]
    fn verify_structure_refuses_a_number_in_a_free_lane() {
        let mut tree = two_level_tree();
        tree.insert(&[0.5; 4], 1_000);
        assert_eq!(tree.len() % BLOCK_ROWS, 1, "the tail block has free lanes");
        tree.verify_invariants().expect("free lanes are NaN");
        let (n, lay) = (tree.len(), tree.layout());
        for (lane, j) in [(n, 0), (n + 6, 3)] {
            let mut bad = tree.clone();
            bad.points[lane_of(lay.dim, lane) + BLOCK_ROWS * j] = 0.25;
            let err = bad.verify_structure().unwrap_err();
            assert!(
                err.contains(&format!(
                    "free lane {lane} of the point column holds a number at coordinate {j}"
                )),
                "{err}"
            );
        }
        // Deleting the tail block's one row gives the block back.
        let last = *tree.externals.last().unwrap();
        assert!(tree.delete(last));
        tree.verify_invariants().expect("the freed lanes are NaN");
        assert_eq!(tree.points.len(), tree.len() * lay.dim);
    }

    /// A bulk-loaded tree's leaves sit at different depths: here the first
    /// pivot region holds some of five far outliers, one leaf right under
    /// the root, while the large regions grow several levels. `height`
    /// must report the deepest leaf, not the first child chain.
    #[test]
    fn height_is_the_depth_of_the_deepest_leaf() {
        let mut rng = Rng::new(37);
        let mut ds = Dataset::with_capacity(4, 3005);
        let mut buf = [0.0f32; 4];
        for row in 0..3005 {
            rng.fill_normal(&mut buf);
            if row < 5 {
                buf.iter_mut().for_each(|x| *x += 100.0);
            }
            ds.push(&buf);
        }
        let cfg = PmTreeConfig {
            pivot_sample: ds.len(),
            ..PmTreeConfig::default()
        };
        let tree = PmTree::build(ds.view(), cfg, &mut rng);
        let lay = tree.layout();
        let first = tree.nodes[tree.root as usize].inner_at(0, lay).child;
        let first = &tree.nodes[first as usize];
        assert!(first.is_leaf() && first.len(lay) <= 5, "outlier region");
        let deepest = (tree.leaf_of.iter()).map(|&leaf| tree.path_to(leaf).len() + 1);
        assert_eq!(Some(tree.height()), deepest.max());
        assert!(tree.height() >= 4, "height {}", tree.height());
    }

    /// `from_parts` moves the blocks in as they are, so it must refuse —
    /// not slice-panic on — words that do not have the tree's shape or
    /// nodes that could not have been built, and must keep every other
    /// bit, ids that look like NaNs included.
    #[test]
    fn from_parts_rejects_parts_that_do_not_fit_the_blocks() {
        let mut tree = two_level_tree();
        // External ids whose bits are signalling and quiet NaN patterns.
        tree.insert(&[0.25; 4], 0x7F80_0001);
        tree.insert(&[-0.5; 4], 0x7FC0_0001);
        let good = tree.to_parts();
        let twin = PmTree::from_parts(good.clone()).expect("untouched parts load");
        let bits = |t: &PmTree| t.nodes.iter().map(Node::bits).collect::<Vec<_>>();
        assert_eq!(bits(&twin), bits(&tree));
        assert_eq!(twin.externals, tree.externals);
        let lanes = |t: &PmTree| t.points.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(lanes(&twin), lanes(&tree), "blocked back lane for lane");

        let rejected = |bad: PmTreeParts, needle: &str| {
            let err = PmTree::from_parts(bad).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        let edit = |at: usize, change: &dyn Fn(&mut RawNode)| {
            let mut bad = good.clone();
            change(&mut bad.nodes[at]);
            bad
        };
        let (n, arena, root) = (tree.len(), good.nodes.len(), good.root as usize);
        let leaf_at = good.nodes.iter().position(|node| node.leaf).unwrap();
        let inner_at = good.nodes.iter().position(|node| !node.leaf).unwrap();
        for at in [leaf_at, inner_at] {
            let ragged = |node: &mut RawNode| {
                node.words.pop();
            };
            rejected(edit(at, &ragged), "not a whole number of");
            // Read with the other kind's stride (whole entries of one kind
            // may be whole entries of the other, and then more than a node
            // holds, so the capacity check may be what fires).
            assert!(PmTree::from_parts(edit(at, &|node| node.leaf ^= true)).is_err());
        }
        // The column holds exactly one row of `dim` floats per point.
        for floats in [n * 4 - 1, n * 4 + 1, n * 4 - 4, 0] {
            let mut bad = good.clone();
            bad.points.resize(floats, 0.5);
            rejected(
                bad,
                &format!("point column holds {floats} floats, not {n} rows of 4"),
            );
        }
        let mut narrow = good.clone();
        narrow.pivots.pop();
        narrow.cfg.num_pivots -= 1;
        rejected(narrow, "not a whole number of");
        // Word 2 is a leaf entry's `internal` and a routing entry's `child`.
        rejected(
            edit(leaf_at, &|node| node.words[2] = f32::from_bits(n as u32)),
            &format!("leaf row {n} outside the {n} rows"),
        );
        rejected(
            edit(inner_at, &|node| {
                node.words[2] = f32::from_bits(arena as u32)
            }),
            &format!("child {arena} outside the {arena}-node arena"),
        );
        for at in [leaf_at, inner_at] {
            let overfull = |node: &mut RawNode| {
                let stride = tree.layout().stride(node.leaf);
                let first = node.words[..stride].to_vec();
                while node.words.len() <= 16 * stride {
                    node.words.extend_from_slice(&first);
                }
            };
            rejected(edit(at, &overfull), "entries, capacity is 16");
        }
        rejected(
            edit(root, &|node| node.words.clear()),
            "inner node with no entries",
        );
    }

    fn block_words(tree: &PmTree) -> (usize, usize) {
        (tree.nodes.iter().map(Node::extent))
            .fold((0, 0), |(l, c), (len, capacity)| (l + len, c + capacity))
    }

    /// The growth policy of [`crate::block`] leaves a block room for at
    /// most a quarter more entries than it holds, so the whole arena never
    /// carries more than 25 % of slack — what keeps the index's resident
    /// set where per-entry boxes had it. The `points` column follows the
    /// same rule row by row, and a build reserves it exactly. Copies carry
    /// no slack.
    #[test]
    fn blocks_carry_at_most_a_quarter_of_slack() {
        let mut rng = Rng::new(31);
        let mut ds = Dataset::with_capacity(15, 5000);
        let mut buf = [0.0f32; 15];
        for _ in 0..5000 {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        let first = MatrixView::new(&ds.as_flat()[..3000 * 15], 15);
        let check = |tree: &PmTree, when: &str| {
            let (len, capacity) = block_words(tree);
            assert!(len >= tree.len() * tree.layout().stride(true), "{when}");
            assert!(
                capacity * 4 <= len * 5,
                "{when}: {capacity} words for {len}"
            );
            assert_eq!(block_words(&tree.clone()), (len, len), "{when}");
            let (len, capacity) = (tree.points.len(), tree.points.capacity());
            assert_eq!(len, blocks_for(tree.len()) * BLOCK_ROWS * 15, "{when}");
            assert!(
                capacity * 4 <= len * 5,
                "{when}: room for {capacity} floats of points, {len} held"
            );
            assert_eq!(tree.clone().points.capacity(), len, "{when}");
        };
        let mut tree = PmTree::build(first, PmTreeConfig::default(), &mut rng);
        check(&tree, "after build");
        assert_eq!(
            tree.points.capacity(),
            3000 * 15,
            "a build reserves exactly"
        );
        let mut grown = PmTree::new(15, PmTreeConfig::default(), tree.pivots.clone());
        for (row, p) in first.iter().enumerate() {
            grown.insert(p, row as PointId);
        }
        check(&grown, "after insertion");
        let mut live: Vec<PointId> = (0..3000).collect();
        for next in 3000..5000 {
            tree.insert(ds.point(next), next as PointId);
            live.push(next as PointId);
            for _ in 0..rng.below(3) {
                let victim = live.swap_remove(rng.below(live.len()));
                assert!(tree.delete(victim));
            }
        }
        // Scattered deletions seldom empty a leaf; emptying one frees it.
        let leaf = &tree.nodes[tree.leaf_of[0] as usize];
        for victim in leaf
            .leaves(tree.layout())
            .map(|e| e.external)
            .collect::<Vec<_>>()
        {
            assert!(tree.delete(victim));
        }
        assert!(!tree.free_nodes.is_empty() && tree.len() > 2000);
        check(&tree, "after churn");
        // Emptying most of the tree gives the column's room back as it goes.
        for victim in live.drain(..).skip(200) {
            if tree.contains_external(victim) {
                assert!(tree.delete(victim));
                if tree.len().is_multiple_of(97) {
                    check(&tree, "while shrinking");
                }
            }
        }
        check(&tree, "after shrinking");
        let twin = PmTree::from_parts(tree.to_parts()).expect("round trip");
        assert_eq!(block_words(&twin).0, block_words(&twin).1);
        assert_eq!(twin.points.capacity(), twin.points.len());
    }

    /// Every live external's row of `points` is the point it was inserted
    /// with, and the tree's invariants hold (the free lanes of the tail
    /// block among them).
    fn assert_rows_hold_their_points(tree: &PmTree, inserted: &Dataset, when: &str) {
        tree.check_invariants();
        let blocks = blocks_for(tree.len());
        assert_eq!(
            tree.points.len(),
            blocks * BLOCK_ROWS * tree.dim(),
            "{when}"
        );
        for (internal, &external) in tree.externals.iter().enumerate() {
            let got = tree.point(internal as u32);
            assert_eq!(got, inserted.point(external as usize), "{when}: {external}");
        }
    }

    /// A delete frees a row in the middle of `points`; the last row moves
    /// into it, with its external and leaf entry renumbered. Deleting a
    /// middle row, the last row, and a leaf's only entry (which prunes the
    /// leaf) each leave every live point at its own row — a `compact_rows`
    /// that renumbered the maps but left the row behind fails here.
    #[test]
    fn deleting_moves_the_last_row_into_the_hole() {
        let mut rng = Rng::new(81);
        let mut ds = Dataset::with_capacity(4, 400);
        let mut buf = [0.0f32; 4];
        for _ in 0..400 {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        let mut tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut rng);
        assert_rows_hold_their_points(&tree, &ds, "built");

        let hole = tree.len() / 2;
        let middle = tree.externals[hole];
        let last = *tree.externals.last().unwrap();
        assert!(tree.delete(middle));
        assert_eq!(tree.externals[hole], last, "the last row took the hole");
        assert_rows_hold_their_points(&tree, &ds, "middle row deleted");

        let last = *tree.externals.last().unwrap();
        assert!(tree.delete(last));
        assert_rows_hold_their_points(&tree, &ds, "last row deleted");

        // Bring a leaf down to one entry, then delete that entry: the leaf
        // is pruned and the last row moves into the freed one.
        let leaf = tree.leaf_of[0];
        let lay = tree.layout();
        let held: Vec<PointId> = tree.nodes[leaf as usize]
            .leaves(lay)
            .map(|e| e.external)
            .collect();
        for &victim in &held[1..] {
            assert!(tree.delete(victim));
        }
        assert_rows_hold_their_points(&tree, &ds, "leaf down to one entry");
        let arena_free = tree.free_nodes.len();
        let only = held[0];
        assert_ne!(
            tree.externals.last(),
            Some(&only),
            "the hole is not the last row"
        );
        assert!(tree.delete(only));
        assert!(
            tree.free_nodes.len() > arena_free,
            "the emptied leaf was pruned"
        );
        assert_rows_hold_their_points(&tree, &ds, "a leaf's only entry deleted");

        // The same through a snapshot of the churned tree.
        let twin = PmTree::from_parts(tree.to_parts()).expect("round trip");
        assert_rows_hold_their_points(&twin, &ds, "round trip");
    }
}
