//! The PM-tree (Skopal et al., DASFAA'05; Section 4.1 of the paper) and the
//! column the served index sweeps.
//!
//! A [`PmTree`] is one of two kinds, fixed when it is made:
//!
//! - a **bulk-loaded tree** ([`PmTree::build`], or [`PmTree::new`] grown by
//!   [`PmTree::insert`]): M-tree insertion with mM_RAD splits plus global
//!   pivot hyper-rings, an arena of node blocks (`block.rs`), every node one
//!   allocation holding its entries at a fixed stride. Its cursors run the
//!   range traversal. It is static: it grows by insertion and never shrinks.
//! - a **column** ([`PmTree::column`]): the points alone, with no pivot and
//!   no node. Its cursors sweep. An insert appends a row; a delete moves the
//!   last row into the freed one. This is the kind `pm-lsh-core` serves.
//!
//! Both keep the projected points out of the blocks, in one tree-wide
//! column, `points`, whose row `i` is the point of internal row `i` — the
//! row `externals` is indexed by. The column is stored as blocks of
//! [`BLOCK_ROWS`] rows, column-major inside a block (row `r`, coordinate `j`
//! at `(r / 8)·8m + 8j + r % 8`), the tail block's free lanes NaN: the
//! layout the sweep's kernel reads eight rows per step from. A reader of one
//! row gathers its `m` lanes. [`PmTreeParts`] holds a column row-major, as
//! `.pmlsh` stores it; [`PmTree::from_parts`] blocks it in place.

use crate::block::{give_back, grow, point_spans, Layout, LeafRef, Node};
use crate::{projected_dist, NodeId};
use pm_lsh_metric::{MatrixView, PointId, BLOCK_ROWS};
use std::collections::HashMap;

/// Construction parameters of a bulk-loaded tree.
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

/// A column's complete state, exported with [`PmTree::to_parts`] and
/// re-imported with [`PmTree::from_parts`]: the serialization boundary
/// index snapshots go through. The id map is not part of it; it is rebuilt
/// by inverting `externals`.
#[derive(Clone, Debug)]
pub struct PmTreeParts {
    /// Dimensionality of the indexed space.
    pub dim: usize,
    /// Internal row -> projected point: `externals.len() × dim` f32,
    /// row-major (the tree keeps it blocked; see the module docs).
    pub points: Vec<f32>,
    /// Internal row -> external id.
    pub externals: Vec<PointId>,
}

/// A PM-tree, or a column, over points in `R^dim` under the Euclidean
/// distance (see the module docs for the two kinds).
///
/// Either owns a copy of every inserted point, as one row of its `points`
/// column (60 bytes in the paper's m = 15 projected space); a bulk-loaded
/// tree adds the point's leaf entry in a node block (32 bytes at s = 5: 20
/// of pivot distances, 12 of ids and parent distance). Callers may drop
/// their own projected data after building. The column and the id maps are
/// addressed by *internal* row while queries report the caller-supplied
/// *external* [`PointId`].
#[derive(Clone, Debug)]
pub struct PmTree {
    pub(crate) dim: usize,
    pub(crate) cfg: PmTreeConfig,
    pub(crate) pivots: Vec<Box<[f32]>>,
    /// The node arena; empty exactly on a column.
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
    /// The pivot distances and the coordinates of the point being filed;
    /// kept between inserts so that none allocates for them.
    pivot_dists: Vec<f32>,
    filed: Vec<f32>,
    pub(crate) build_dist_computations: u64,
}

impl PmTree {
    /// Creates an empty bulk-loaded tree with pre-selected pivots.
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
            pivot_dists: Vec::new(),
            filed: Vec::new(),
            build_dist_computations: 0,
        }
    }

    /// A column over every row of `view` (external id = row index): the
    /// rows blocked, no pivot and no node. Its cursors sweep.
    ///
    /// # Panics
    /// Panics if `view` has dimension 0.
    pub fn column(view: MatrixView<'_>) -> Self {
        assert!(view.dim() > 0, "dimension must be positive");
        let externals = (0..view.len() as PointId).collect();
        Self::column_of(view.dim(), view.as_flat().to_vec(), externals)
    }

    /// A column of the `dim`-wide rows of `points`, row-major (blocked
    /// here), row `i` under `externals[i]`; the id map is `externals`
    /// inverted, the last row winning an id given twice.
    fn column_of(dim: usize, points: Vec<f32>, externals: Vec<PointId>) -> Self {
        let ext_index = (externals.iter().enumerate())
            .map(|(row, &e)| (e, row as u32))
            .collect();
        Self {
            dim,
            cfg: COLUMN,
            pivots: Vec::new(),
            nodes: Vec::new(),
            root: 0,
            points: block_rows(points, dim),
            externals,
            ext_index,
            pivot_dists: Vec::new(),
            filed: Vec::new(),
            build_dist_computations: 0,
        }
    }

    /// `true` for a column, whose cursors sweep; `false` for a bulk-loaded
    /// tree, whose cursors traverse.
    #[inline]
    pub(crate) fn is_column(&self) -> bool {
        self.nodes.is_empty()
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

    /// The global pivots (none on a column).
    pub fn pivots(&self) -> &[Box<[f32]>] {
        &self.pivots
    }

    /// Number of allocated nodes (0 on a column).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree: the nodes on the path from the root to its
    /// deepest leaf (1 for a single leaf, 0 for a column). Leaves need not
    /// share a depth: the bulk loader hangs one subtree per pivot region
    /// under the root, each as deep as its region is large.
    pub fn height(&self) -> usize {
        if self.is_column() {
            return 0;
        }
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

    /// Distance computations spent on inserts so far (preprocessing cost;
    /// a column measures none).
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

    /// Inserts one point with a caller-chosen external id: a new row of the
    /// column and, on a bulk-loaded tree, a leaf entry filed by M-tree
    /// insertion.
    ///
    /// # Panics
    /// Panics if `vector.len() != self.dim()` or `external` is indexed.
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
        if self.is_column() {
            self.externals.push(external);
            return;
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
    /// on a bulk-loaded tree but the id map and the column. `rows` is the
    /// tree's own column, or, for a subtree the bulk loader grows, the rows
    /// of the finished tree's column that the subtree will own — such a
    /// subtree keeps no column of its own, and the loader inverts
    /// `externals` once at the end, so no region keeps a map of its own
    /// either.
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
        if let Some(pair) = self.insert_rec(self.root, internal, &vector, &pd, 0.0, None, rows) {
            self.root = self.alloc(pair);
        }
        self.pivot_dists = pd;
        self.filed = vector;
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        (self.nodes.len() - 1) as NodeId
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

    /// Removes the point with external id `external` from a column; `false`
    /// when no such point is indexed (including ids that were already
    /// deleted). The internal rows stay dense: the last row moves into the
    /// freed one — its lanes, its external id and its map entry — the lanes
    /// it leaves become NaN, and the column gives back a block when its
    /// tail block empties, so memory tracks the live point count.
    ///
    /// # Panics
    /// Panics on a bulk-loaded tree, which is static: its leaf entries name
    /// rows, and a moved row would leave one naming the wrong point.
    pub fn delete(&mut self, external: PointId) -> bool {
        assert!(
            self.is_column(),
            "a bulk-loaded PM-tree is static; only a column deletes"
        );
        let Some(internal) = self.ext_index.remove(&external) else {
            return false;
        };
        let m = self.dim;
        let last = self.externals.len() - 1;
        let (to, from) = (lane_of(m, internal as usize), lane_of(m, last));
        for j in 0..m {
            self.points[to + BLOCK_ROWS * j] = self.points[from + BLOCK_ROWS * j];
            self.points[from + BLOCK_ROWS * j] = f32::NAN;
        }
        self.externals.swap_remove(internal as usize);
        if let Some(&moved) = self.externals.get(internal as usize) {
            self.ext_index.insert(moved, internal);
        }
        self.points.truncate(blocks_for(last) * BLOCK_ROWS * m);
        give_back(&mut self.points, BLOCK_ROWS * m);
        true
    }

    /// Exports the rows of the tree — its points, row-major, and their
    /// external ids — as [`PmTreeParts`]; a bulk-loaded tree's nodes are
    /// not part of the export. The tree itself is untouched.
    pub fn to_parts(&self) -> PmTreeParts {
        PmTreeParts {
            dim: self.dim,
            points: Rows::of(self).unblocked(self.len()),
            externals: self.externals.clone(),
        }
    }

    /// Reassembles a column from exported parts: the row-major `points` are
    /// blocked in place and the id map is rebuilt by inverting `externals`.
    /// Parts that do not describe a column — a zero dimension, a point
    /// count that is not one row per external, an external id given twice
    /// — come back as `Err`, never as a column that panics later.
    pub fn from_parts(parts: PmTreeParts) -> Result<Self, String> {
        if parts.dim == 0 {
            return Err("dimension must be positive".into());
        }
        let n = parts.externals.len();
        if parts.points.len() != n * parts.dim {
            return Err(format!(
                "point column holds {} floats, not {n} rows of {}",
                parts.points.len(),
                parts.dim
            ));
        }
        let column = Self::column_of(parts.dim, parts.points, parts.externals);
        if column.ext_index.len() != n {
            let mut rows = column.externals.iter().enumerate();
            let twice = rows.find(|&(row, e)| column.ext_index[e] != row as u32);
            return Err(format!("external id {} appears twice", twice.unwrap().1));
        }
        Ok(column)
    }

    /// Validates the *structural* invariants only — map and column sizes,
    /// NaN in the column's free lanes, and on a bulk-loaded tree
    /// whole-entry blocks, node fill, index ranges and arena reachability —
    /// without recomputing a single distance ([`PmTree::verify_invariants`]
    /// adds the O(n · height) geometric audit on top; checksums already
    /// guard against bit-rot, structure checks guard against panics and
    /// out-of-bounds access).
    pub fn verify_structure(&self) -> Result<(), String> {
        let n = self.externals.len();
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
        if self.is_column() {
            return Ok(());
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
        if let Some(leaked) = reached.iter().position(|r| !r) {
            return Err(format!("node {leaked} not reachable from the root"));
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
    /// map, the column, reachability — so a corrupted tree comes back as
    /// `Err` from there, never as an out-of-bounds panic here. A column has
    /// nothing more to check. On a bulk-loaded tree the geometric audit then
    /// recomputes distances and checks, for every routing entry: (1) all
    /// points of its subtree lie within `radius` of its center, (2) each
    /// hyper-ring contains the pivot distance of every point below it, and
    /// (3) children's `parent_dist` matches the distance to the routing
    /// object; for every leaf entry, that its parent distance and its
    /// stored pivot distances are those of its row of `points`.
    pub fn verify_invariants(&self) -> Result<(), String> {
        self.verify_structure()?;
        if self.is_column() {
            return Ok(());
        }
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

/// A column's configuration: it has no node to fill and no pivot.
const COLUMN: PmTreeConfig = PmTreeConfig {
    capacity: 0,
    num_pivots: 0,
    pivot_sample: 0,
};

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
    use pm_lsh_stats::Rng;

    fn gaussian(n: usize, dim: usize, rng: &mut Rng) -> Dataset {
        let mut ds = Dataset::with_capacity(dim, n);
        let mut buf = vec![0.0f32; dim];
        for _ in 0..n {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        ds
    }

    fn two_level_tree() -> PmTree {
        let mut rng = Rng::new(5);
        let ds = gaussian(120, 4, &mut rng);
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
        let a_leaf = good.nodes.iter().position(Node::is_leaf).unwrap();

        let mut bad_child = good.clone();
        // Word 2 of a routing entry is its child.
        bad_child.nodes[root].words_mut()[2] = f32::from_bits(arena + 7);
        rejected(&bad_child, "outside the");

        let mut leaked = good.clone();
        leaked.nodes.push(Node::empty());
        rejected(
            &leaked,
            &format!("node {arena} not reachable from the root"),
        );

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

        // A column has its id map to check, and no node.
        let column = PmTree::column(MatrixView::new(&good.to_parts().points, 4));
        column.verify_invariants().expect("fresh column is valid");
        let mut lost = column.clone();
        lost.ext_index.remove(&3);
        rejected(&lost, "id map holds 119 entries for 120 points");
    }

    /// The column's free lanes are NaN, which the sweep drops: a number
    /// there would be measured as a point no row holds.
    #[test]
    fn verify_structure_refuses_a_number_in_a_free_lane() {
        let ds = gaussian(120, 4, &mut Rng::new(5));
        let mut column = PmTree::column(ds.view());
        column.insert(&[0.5; 4], 1_000);
        assert_eq!(
            column.len() % BLOCK_ROWS,
            1,
            "the tail block has free lanes"
        );
        column.verify_invariants().expect("free lanes are NaN");
        let n = column.len();
        for (lane, j) in [(n, 0), (n + 6, 3)] {
            let mut bad = column.clone();
            bad.points[lane_of(4, lane) + BLOCK_ROWS * j] = 0.25;
            let err = bad.verify_structure().unwrap_err();
            assert!(
                err.contains(&format!(
                    "free lane {lane} of the point column holds a number at coordinate {j}"
                )),
                "{err}"
            );
        }
        // Deleting the tail block's one row gives the block back.
        assert!(column.delete(1_000));
        column.verify_invariants().expect("the freed lanes are NaN");
        assert_eq!(column.points.len(), column.len() * 4);
    }

    /// The depth of the deepest leaf below `node`, counting `node`.
    fn depth(tree: &PmTree, node: NodeId) -> usize {
        let entries = &tree.nodes[node as usize];
        if entries.is_leaf() {
            return 1;
        }
        let below = entries.inners(tree.layout()).map(|e| depth(tree, e.child));
        1 + below.max().unwrap()
    }

    /// A bulk-loaded tree's leaves sit at different depths: here the first
    /// pivot region holds some of five far outliers, one leaf right under
    /// the root, while the large regions grow several levels. `height`
    /// must report the deepest leaf, not the first child chain. A column
    /// has no node, so no height.
    #[test]
    fn height_is_the_depth_of_the_deepest_leaf() {
        let mut rng = Rng::new(37);
        let mut ds = gaussian(3005, 4, &mut rng);
        for row in 0..5 {
            ds.point_mut(row).iter_mut().for_each(|x| *x += 100.0);
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
        assert_eq!(tree.height(), depth(&tree, tree.root));
        assert!(tree.height() >= 4, "height {}", tree.height());
        let column = PmTree::column(ds.view());
        assert_eq!((column.height(), column.node_count()), (0, 0));
    }

    /// `from_parts` blocks a column's rows in place, so it must refuse —
    /// not slice-panic on — rows that do not fit, and must keep every
    /// other bit, ids that look like NaNs included.
    #[test]
    fn from_parts_rejects_parts_that_do_not_fit_the_blocks() {
        let mut column = PmTree::column(gaussian(120, 4, &mut Rng::new(5)).view());
        // External ids whose bits are signalling and quiet NaN patterns.
        column.insert(&[0.25; 4], 0x7F80_0001);
        column.insert(&[-0.5; 4], 0x7FC0_0001);
        assert!(column.delete(17));
        let good = column.to_parts();
        let twin = PmTree::from_parts(good.clone()).expect("untouched parts load");
        assert_eq!(twin.externals, column.externals);
        assert_eq!(twin.ext_index, column.ext_index);
        let lanes = |t: &PmTree| t.points.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(lanes(&twin), lanes(&column), "blocked back lane for lane");
        twin.verify_invariants().expect("a twin is a column");
        // A bulk-loaded tree exports its rows, and they load as a column.
        let tree = two_level_tree();
        let rows = PmTree::from_parts(tree.to_parts()).expect("a tree's rows load");
        assert_eq!((rows.node_count(), rows.externals), (0, tree.externals));

        let rejected = |bad: PmTreeParts, needle: &str| {
            let err = PmTree::from_parts(bad).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        // The column holds exactly one row of `dim` floats per point.
        let n = column.len();
        for floats in [n * 4 - 1, n * 4 + 1, n * 4 - 4, 0] {
            let mut bad = good.clone();
            bad.points.resize(floats, 0.5);
            rejected(
                bad,
                &format!("point column holds {floats} floats, not {n} rows of 4"),
            );
        }
        let mut twice = good.clone();
        twice.externals[5] = 0x7FC0_0001;
        rejected(twice, "external id 2143289345 appears twice");
        let mut flat = good.clone();
        flat.dim = 0;
        rejected(flat, "dimension must be positive");
    }

    fn block_words(tree: &PmTree) -> (usize, usize) {
        (tree.nodes.iter().map(Node::extent))
            .fold((0, 0), |(l, c), (len, capacity)| (l + len, c + capacity))
    }

    /// The growth policy of [`crate::block`] leaves a block room for at
    /// most a quarter more entries than it holds, so the whole arena never
    /// carries more than 25 % of slack — what keeps the index's resident
    /// set where per-entry boxes had it. The `points` column follows the
    /// same rule row by row, growing and shrinking, and a build reserves it
    /// exactly. Copies carry no slack.
    #[test]
    fn blocks_carry_at_most_a_quarter_of_slack() {
        let mut rng = Rng::new(31);
        let ds = gaussian(5000, 15, &mut rng);
        let first = MatrixView::new(&ds.as_flat()[..3000 * 15], 15);
        let check_points = |tree: &PmTree, when: &str| {
            let (len, capacity) = (tree.points.len(), tree.points.capacity());
            assert_eq!(len, blocks_for(tree.len()) * BLOCK_ROWS * 15, "{when}");
            assert!(
                capacity * 4 <= len * 5,
                "{when}: room for {capacity} floats of points, {len} held"
            );
            assert_eq!(tree.clone().points.capacity(), len, "{when}");
        };
        let check = |tree: &PmTree, when: &str| {
            let (len, capacity) = block_words(tree);
            assert!(len >= tree.len() * tree.layout().stride(true), "{when}");
            assert!(
                capacity * 4 <= len * 5,
                "{when}: {capacity} words for {len}"
            );
            assert_eq!(block_words(&tree.clone()), (len, len), "{when}");
            check_points(tree, when);
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
        for next in 3000..5000 {
            tree.insert(ds.point(next), next as PointId);
        }
        check(&tree, "after growth");

        let mut column = PmTree::column(first);
        assert_eq!(column.points.capacity(), 3000 * 15, "a column is exact");
        let mut live: Vec<PointId> = (0..3000).collect();
        for next in 3000..5000 {
            column.insert(ds.point(next), next as PointId);
            live.push(next as PointId);
            for _ in 0..rng.below(3) {
                let victim = live.swap_remove(rng.below(live.len()));
                assert!(column.delete(victim));
            }
        }
        check_points(&column, "after churn");
        // Emptying most of the column gives its room back as it goes.
        for victim in live.drain(..).skip(200) {
            assert!(column.delete(victim));
            if column.len().is_multiple_of(97) {
                check_points(&column, "while shrinking");
            }
        }
        check_points(&column, "after shrinking");
        let twin = PmTree::from_parts(column.to_parts()).expect("round trip");
        assert_eq!(twin.points.capacity(), twin.points.len());
    }

    /// Every live external's row of `points` is the point it was inserted
    /// with, and the column's invariants hold (the free lanes of the tail
    /// block among them).
    fn assert_rows_hold_their_points(column: &PmTree, inserted: &Dataset, when: &str) {
        column.check_invariants();
        let blocks = blocks_for(column.len());
        assert_eq!(
            column.points.len(),
            blocks * BLOCK_ROWS * column.dim(),
            "{when}"
        );
        for (internal, &external) in column.externals.iter().enumerate() {
            let got = column.point(internal as u32);
            assert_eq!(got, inserted.point(external as usize), "{when}: {external}");
        }
    }

    /// A delete frees a row in the middle of `points`; the last row moves
    /// into it, with its external renumbered. Deleting a middle row, the
    /// last row and the first each leave every live point at its own row —
    /// a delete that renumbered the map but left the row behind fails here.
    #[test]
    fn deleting_moves_the_last_row_into_the_hole() {
        let ds = gaussian(400, 4, &mut Rng::new(81));
        let mut column = PmTree::column(ds.view());
        assert_rows_hold_their_points(&column, &ds, "built");

        let hole = column.len() / 2;
        let middle = column.externals[hole];
        let last = *column.externals.last().unwrap();
        assert!(column.delete(middle));
        assert_eq!(column.externals[hole], last, "the last row took the hole");
        assert_rows_hold_their_points(&column, &ds, "middle row deleted");

        let last = *column.externals.last().unwrap();
        assert!(column.delete(last));
        assert_rows_hold_their_points(&column, &ds, "last row deleted");

        let first = column.externals[0];
        assert!(column.delete(first));
        assert!(!column.delete(first), "a deleted id is gone");
        assert_rows_hold_their_points(&column, &ds, "first row deleted");

        // The same through a snapshot of the churned column.
        let twin = PmTree::from_parts(column.to_parts()).expect("round trip");
        assert_rows_hold_their_points(&twin, &ds, "round trip");
    }

    /// A bulk-loaded tree's leaf entries name rows, so it cannot move one.
    #[test]
    #[should_panic(expected = "only a column deletes")]
    fn a_bulk_loaded_tree_does_not_delete() {
        two_level_tree().delete(3);
    }
}
