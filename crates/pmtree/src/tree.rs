//! PM-tree construction: M-tree insertion with mM_RAD splits plus global
//! pivot hyper-rings (Skopal et al., DASFAA'05; Section 4.1 of the paper).

use crate::entry::{InnerEntry, LeafEntry, Ring};
use crate::pivots::select_pivots;
use crate::NodeId;
use pm_lsh_metric::{euclidean, Dataset, MatrixView, PointId};
use pm_lsh_stats::Rng;
use std::collections::HashMap;

/// A PM-tree node: either routing entries or point entries.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    /// Inner node holding routing entries.
    Inner(Vec<InnerEntry>),
    /// Leaf node holding point entries.
    Leaf(Vec<LeafEntry>),
}

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

/// One node of a [`PmTreeParts`] snapshot: the public mirror of the
/// private arena node, with children referring to *compacted* node ids.
#[derive(Clone, Debug)]
pub enum RawNode {
    /// Inner node holding routing entries.
    Inner(Vec<InnerEntry>),
    /// Leaf node holding point entries.
    Leaf(Vec<LeafEntry>),
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
/// bit-identically. `ext_index` and
/// `free_nodes` are not part of the export — the id map is rebuilt by
/// inverting `externals`, and a compacted arena has no free slots.
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
    /// Dense internal point store (projected points).
    pub points: Dataset,
    /// Internal row -> external id.
    pub externals: Vec<PointId>,
    /// Internal row -> holding leaf (compacted ids).
    pub leaf_of: Vec<NodeId>,
    /// Distance computations spent on construction so far.
    pub build_dist_computations: u64,
}

/// A PM-tree over points in `R^dim` under the Euclidean distance.
///
/// The tree owns a copy of every inserted point (60 bytes per point in the
/// paper's m = 15 projected space), so callers may drop their own projected
/// data after building. Point payloads are addressed by *internal* row
/// while queries report the caller-supplied *external* [`PointId`].
#[derive(Clone, Debug)]
pub struct PmTree {
    pub(crate) dim: usize,
    pub(crate) cfg: PmTreeConfig,
    pub(crate) pivots: Vec<Box<[f32]>>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) points: Dataset,
    pub(crate) externals: Vec<PointId>,
    /// External id -> internal row, the lookup [`PmTree::delete`] starts
    /// from (and what makes duplicate external ids detectable at insert).
    pub(crate) ext_index: HashMap<PointId, u32>,
    /// Internal row -> the leaf node currently holding its entry.
    pub(crate) leaf_of: Vec<NodeId>,
    /// Arena slots released by deletions, reused by the next allocation.
    pub(crate) free_nodes: Vec<NodeId>,
    build_dist_computations: u64,
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
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            points: Dataset::with_capacity(dim, 0),
            externals: Vec::new(),
            ext_index: HashMap::new(),
            leaf_of: Vec::new(),
            free_nodes: Vec::new(),
            build_dist_computations: 0,
        }
    }

    /// Builds a tree over every row of `view` (external id = row index),
    /// selecting pivots from a sample first.
    pub fn build(view: MatrixView<'_>, cfg: PmTreeConfig, rng: &mut Rng) -> Self {
        let pivots = select_pivots(view, cfg.num_pivots, cfg.pivot_sample, rng);
        let mut tree = Self::new(view.dim(), cfg, pivots);
        for (i, p) in view.iter().enumerate() {
            tree.insert(p, i as PointId);
        }
        tree
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

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf(_) => return h,
                Node::Inner(entries) => {
                    node = entries[0].child;
                    h += 1;
                }
            }
        }
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
        let pd: Box<[f32]> = self
            .pivots
            .iter()
            .map(|p| euclidean(vector, p))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        self.build_dist_computations += self.pivots.len() as u64;
        self.insert_with_pivot_dists(vector, external, pd);
    }

    /// Inserts one point whose pivot distances are already known (the bulk
    /// loader computes them during region assignment and must not pay for —
    /// or count — them twice).
    pub(crate) fn insert_with_pivot_dists(
        &mut self,
        vector: &[f32],
        external: PointId,
        pd: Box<[f32]>,
    ) {
        assert_eq!(vector.len(), self.dim, "point has wrong dimensionality");
        debug_assert_eq!(pd.len(), self.pivots.len());
        let internal = self.externals.len() as u32;
        assert!(
            !self.ext_index.contains_key(&external),
            "external id {external} is already indexed"
        );
        self.points.push(vector);
        self.externals.push(external);
        self.ext_index.insert(external, internal);
        // Placeholder; insert_rec records the leaf that receives the entry.
        self.leaf_of.push(self.root);

        if let Some((e1, e2)) = self.insert_rec(self.root, vector, internal, &pd, 0.0, None) {
            let new_root = self.alloc(Node::Inner(vec![e1, e2]));
            self.root = new_root;
        }
    }

    /// Adds `count` build-time distance computations to the preprocessing
    /// counter (used by the bulk loader, whose assignment phase computes
    /// pivot distances outside [`PmTree::insert`]).
    pub(crate) fn add_build_dist_computations(&mut self, count: u64) {
        self.build_dist_computations += count;
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
        self.nodes[node as usize] = Node::Leaf(Vec::new());
        self.free_nodes.push(node);
    }

    /// Recursive single-path insert. Returns the two replacement entries when
    /// `node` split; `dist_to_node` is the distance from the new point to the
    /// routing object of the entry pointing at `node` (0 at the root), and
    /// `node_parent_center` that routing object's coordinates.
    fn insert_rec(
        &mut self,
        node: NodeId,
        vector: &[f32],
        internal: u32,
        pd: &[f32],
        dist_to_node: f32,
        node_parent_center: Option<&[f32]>,
    ) -> Option<(InnerEntry, InnerEntry)> {
        let is_leaf = matches!(self.nodes[node as usize], Node::Leaf(_));
        if is_leaf {
            let capacity = self.cfg.capacity;
            let Node::Leaf(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            entries.push(LeafEntry {
                internal,
                external: self.externals[internal as usize],
                parent_dist: dist_to_node,
                pivot_dists: pd.into(),
            });
            self.leaf_of[internal as usize] = node;
            if entries.len() > capacity {
                return Some(self.split_leaf(node));
            }
            return None;
        }

        let (best, center, child, d) = self.choose_subtree(node, vector, pd);
        let split = self.insert_rec(child, vector, internal, pd, d, Some(&center));
        if let Some((mut e1, mut e2)) = split {
            if let Some(pc) = node_parent_center {
                e1.parent_dist = euclidean(&e1.center, pc);
                e2.parent_dist = euclidean(&e2.center, pc);
                self.build_dist_computations += 2;
            }
            let capacity = self.cfg.capacity;
            let Node::Inner(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            entries[best] = e1;
            entries.push(e2);
            if entries.len() > capacity {
                return Some(self.split_inner(node));
            }
        }
        None
    }

    /// Picks the routing entry of `node` for the new point: prefer the
    /// closest entry already covering the point; otherwise minimize radius
    /// enlargement. Updates the chosen entry's radius and rings on the way.
    fn choose_subtree(
        &mut self,
        node: NodeId,
        vector: &[f32],
        pd: &[f32],
    ) -> (usize, Vec<f32>, NodeId, f32) {
        let Node::Inner(entries) = &mut self.nodes[node as usize] else {
            unreachable!("choose_subtree on a leaf")
        };
        let dists: Vec<f32> = entries
            .iter()
            .map(|e| euclidean(vector, &e.center))
            .collect();
        self.build_dist_computations += entries.len() as u64;

        let mut best = usize::MAX;
        let mut best_key = f32::INFINITY;
        let mut covered = false;
        for (i, e) in entries.iter().enumerate() {
            let d = dists[i];
            if d <= e.radius {
                if !covered || d < best_key {
                    covered = true;
                    best = i;
                    best_key = d;
                }
            } else if !covered {
                let enlarge = d - e.radius;
                if enlarge < best_key {
                    best = i;
                    best_key = enlarge;
                }
            }
        }
        debug_assert!(best != usize::MAX);

        let e = &mut entries[best];
        let d = dists[best];
        if d > e.radius {
            e.radius = d;
        }
        for (ring, &p) in e.rings.iter_mut().zip(pd) {
            ring.include(p);
        }
        (best, e.center.to_vec(), e.child, d)
    }

    /// Splits an overflowing leaf node; returns the two replacement routing
    /// entries (their `parent_dist` is filled in by the caller).
    fn split_leaf(&mut self, node: NodeId) -> (InnerEntry, InnerEntry) {
        let entries = {
            let Node::Leaf(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            std::mem::take(entries)
        };
        let n = entries.len();
        debug_assert!(n >= 2);

        // Pairwise distance matrix between member points.
        let mut dmat = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = euclidean(
                    self.points.point(entries[i].internal as usize),
                    self.points.point(entries[j].internal as usize),
                );
                dmat[i * n + j] = d;
                dmat[j * n + i] = d;
            }
        }
        self.build_dist_computations += (n * (n - 1) / 2) as u64;

        let (pi, pj, assign) = promote_mm_rad(n, &dmat, |_k| 0.0);
        let c1: Box<[f32]> = self.points.point(entries[pi].internal as usize).into();
        let c2: Box<[f32]> = self.points.point(entries[pj].internal as usize).into();

        let (mut g1, mut g2) = (Vec::new(), Vec::new());
        let (mut r1, mut r2) = (0.0f32, 0.0f32);
        let s = self.pivots.len();
        let (mut rings1, mut rings2) = (vec![Ring::EMPTY; s], vec![Ring::EMPTY; s]);
        for (k, mut e) in entries.into_iter().enumerate() {
            if assign[k] {
                e.parent_dist = dmat[k * n + pi];
                r1 = r1.max(e.parent_dist);
                for (ring, &p) in rings1.iter_mut().zip(e.pivot_dists.iter()) {
                    ring.include(p);
                }
                g1.push(e);
            } else {
                e.parent_dist = dmat[k * n + pj];
                r2 = r2.max(e.parent_dist);
                for (ring, &p) in rings2.iter_mut().zip(e.pivot_dists.iter()) {
                    ring.include(p);
                }
                g2.push(e);
            }
        }

        for e in &g1 {
            self.leaf_of[e.internal as usize] = node;
        }
        self.nodes[node as usize] = Node::Leaf(g1);
        let new_node = self.alloc(Node::Leaf(g2));
        let Node::Leaf(moved) = &self.nodes[new_node as usize] else {
            unreachable!()
        };
        for e in moved {
            self.leaf_of[e.internal as usize] = new_node;
        }

        (
            InnerEntry {
                center: c1,
                radius: r1,
                parent_dist: 0.0,
                child: node,
                rings: rings1.into_boxed_slice(),
            },
            InnerEntry {
                center: c2,
                radius: r2,
                parent_dist: 0.0,
                child: new_node,
                rings: rings2.into_boxed_slice(),
            },
        )
    }

    /// Splits an overflowing inner node.
    fn split_inner(&mut self, node: NodeId) -> (InnerEntry, InnerEntry) {
        let entries = {
            let Node::Inner(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            std::mem::take(entries)
        };
        let n = entries.len();
        debug_assert!(n >= 2);

        let mut dmat = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let d = euclidean(&entries[i].center, &entries[j].center);
                dmat[i * n + j] = d;
                dmat[j * n + i] = d;
            }
        }
        self.build_dist_computations += (n * (n - 1) / 2) as u64;

        let (pi, pj, assign) = promote_mm_rad(n, &dmat, |k| entries[k].radius);

        let c1: Box<[f32]> = entries[pi].center.clone();
        let c2: Box<[f32]> = entries[pj].center.clone();

        let (mut g1, mut g2) = (Vec::new(), Vec::new());
        let (mut r1, mut r2) = (0.0f32, 0.0f32);
        let s = self.pivots.len();
        let (mut rings1, mut rings2) = (vec![Ring::EMPTY; s], vec![Ring::EMPTY; s]);
        for (k, mut e) in entries.into_iter().enumerate() {
            if assign[k] {
                e.parent_dist = dmat[k * n + pi];
                r1 = r1.max(e.parent_dist + e.radius);
                for (ring, &er) in rings1.iter_mut().zip(e.rings.iter()) {
                    ring.merge(er);
                }
                g1.push(e);
            } else {
                e.parent_dist = dmat[k * n + pj];
                r2 = r2.max(e.parent_dist + e.radius);
                for (ring, &er) in rings2.iter_mut().zip(e.rings.iter()) {
                    ring.merge(er);
                }
                g2.push(e);
            }
        }

        self.nodes[node as usize] = Node::Inner(g1);
        let new_node = self.alloc(Node::Inner(g2));

        (
            InnerEntry {
                center: c1,
                radius: r1,
                parent_dist: 0.0,
                child: node,
                rings: rings1.into_boxed_slice(),
            },
            InnerEntry {
                center: c2,
                radius: r2,
                parent_dist: 0.0,
                child: new_node,
                rings: rings2.into_boxed_slice(),
            },
        )
    }

    /// Removes the point with external id `external`; `false` when no such
    /// point is indexed (including ids that were already deleted).
    ///
    /// This is a true M-tree leaf removal, not a tombstone: the entry
    /// leaves its leaf, a leaf that empties is pruned from its parent
    /// (recursively — a routing entry never points at an empty subtree), a
    /// root left with a single routing entry collapses into its child, and
    /// the freed arena slots go on a free list the next allocation reuses.
    /// The internal point store stays dense via swap-removal, so memory
    /// tracks the live point count.
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
        let leaf = self.leaf_of[internal as usize];
        // The prune path is only needed when this removal empties the
        // leaf; don't pay the DFS for the overwhelmingly common case.
        let will_empty = matches!(&self.nodes[leaf as usize], Node::Leaf(e) if e.len() == 1);
        let path = if will_empty {
            self.path_to(leaf)
        } else {
            Vec::new()
        };
        let Node::Leaf(entries) = &mut self.nodes[leaf as usize] else {
            unreachable!("leaf_of points at an inner node")
        };
        let pos = entries
            .iter()
            .position(|e| e.internal == internal)
            .expect("leaf_of points at the holding leaf");
        entries.remove(pos);
        if entries.is_empty() {
            self.prune(leaf, path);
        }
        self.ext_index.remove(&external);
        self.compact_point_store(internal);
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
        let Node::Inner(entries) = &self.nodes[node as usize] else {
            return false;
        };
        for (i, e) in entries.iter().enumerate() {
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
        loop {
            let Some((parent, idx)) = path.pop() else {
                // The whole tree emptied out.
                self.nodes[node as usize] = Node::Leaf(Vec::new());
                return;
            };
            self.free(node);
            let Node::Inner(entries) = &mut self.nodes[parent as usize] else {
                unreachable!("path holds a leaf as a parent")
            };
            entries.remove(idx);
            if !entries.is_empty() {
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
        while let Node::Inner(entries) = &self.nodes[self.root as usize] {
            if entries.len() != 1 {
                break;
            }
            let child = entries[0].child;
            self.free(self.root);
            self.root = child;
        }
    }

    /// Keeps the internal point store dense after the removal of row
    /// `internal`: the last row moves into the hole (leaf entry, external
    /// map and leaf map rewritten to match) and every buffer shrinks by
    /// one. The *deleted* entry is already gone from its leaf, so scanning
    /// for the moved row's entry is unambiguous.
    fn compact_point_store(&mut self, internal: u32) {
        let last = (self.externals.len() - 1) as u32;
        self.points.swap_remove(internal as usize);
        if internal != last {
            let moved_external = self.externals[last as usize];
            self.externals[internal as usize] = moved_external;
            self.ext_index.insert(moved_external, internal);
            let moved_leaf = self.leaf_of[last as usize];
            self.leaf_of[internal as usize] = moved_leaf;
            let Node::Leaf(entries) = &mut self.nodes[moved_leaf as usize] else {
                unreachable!("leaf_of points at an inner node")
            };
            let entry = entries
                .iter_mut()
                .find(|e| e.internal == last)
                .expect("leaf_of points at the holding leaf");
            entry.internal = internal;
        }
        self.externals.pop();
        self.leaf_of.pop();
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
        let mut nodes = Vec::with_capacity(next as usize);
        for (id, node) in self.nodes.iter().enumerate() {
            if free[id] {
                continue;
            }
            nodes.push(match node {
                Node::Inner(es) => RawNode::Inner(
                    es.iter()
                        .map(|e| {
                            let mut e = e.clone();
                            e.child = remap[e.child as usize];
                            e
                        })
                        .collect(),
                ),
                Node::Leaf(es) => RawNode::Leaf(es.clone()),
            });
        }
        PmTreeParts {
            dim: self.dim,
            cfg: self.cfg,
            pivots: self.pivots.clone(),
            nodes,
            root: remap[self.root as usize],
            points: self.points.clone(),
            externals: self.externals.clone(),
            leaf_of: self.leaf_of.iter().map(|&l| remap[l as usize]).collect(),
            build_dist_computations: self.build_dist_computations,
        }
    }

    /// Reassembles a tree from exported parts, rebuilding the id map by
    /// inverting `externals` and starting with an empty free list (the
    /// exported arena is compacted). The result is validated with
    /// [`PmTree::verify_structure`] before it is returned, so corrupted
    /// or internally inconsistent parts come back as `Err`, never as a
    /// tree that panics later.
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
        let mut ext_index = HashMap::with_capacity(parts.externals.len());
        for (internal, &external) in parts.externals.iter().enumerate() {
            if ext_index.insert(external, internal as u32).is_some() {
                return Err(format!("external id {external} appears twice"));
            }
        }
        let tree = Self {
            dim: parts.dim,
            cfg: parts.cfg,
            pivots: parts.pivots,
            nodes: parts
                .nodes
                .into_iter()
                .map(|n| match n {
                    RawNode::Inner(es) => Node::Inner(es),
                    RawNode::Leaf(es) => Node::Leaf(es),
                })
                .collect(),
            root: parts.root,
            points: parts.points,
            externals: parts.externals,
            ext_index,
            leaf_of: parts.leaf_of,
            free_nodes: Vec::new(),
            build_dist_computations: parts.build_dist_computations,
        };
        tree.verify_structure()?;
        Ok(tree)
    }

    /// Validates the *structural* invariants only — index ranges, map
    /// consistency, arena reachability — without recomputing a single
    /// distance. This is the cheap load-time check snapshot restoration
    /// runs ([`PmTree::verify_invariants`] adds the O(n · height)
    /// geometric audit on top; checksums already guard against bit-rot,
    /// structure checks guard against panics and out-of-bounds access).
    pub fn verify_structure(&self) -> Result<(), String> {
        let n = self.externals.len();
        if n != self.points.len() {
            return Err(format!(
                "{} external ids but {} stored points",
                n,
                self.points.len()
            ));
        }
        if !self.points.is_empty() && self.points.dim() != self.dim {
            return Err(format!(
                "point store in R^{}, tree in R^{}",
                self.points.dim(),
                self.dim
            ));
        }
        if self.leaf_of.len() != n {
            return Err(format!(
                "leaf map covers {} rows, point store holds {n}",
                self.leaf_of.len()
            ));
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
        let s = self.pivots.len();
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
            match &self.nodes[node as usize] {
                Node::Inner(entries) => {
                    if entries.is_empty() {
                        return Err("inner node with no entries".into());
                    }
                    for e in entries {
                        if e.center.len() != self.dim {
                            return Err(format!(
                                "routing center in R^{}, tree in R^{}",
                                e.center.len(),
                                self.dim
                            ));
                        }
                        if e.rings.len() != s {
                            return Err(format!(
                                "{} rings on a routing entry, {s} pivots",
                                e.rings.len()
                            ));
                        }
                        if e.child as usize >= self.nodes.len() {
                            return Err(format!(
                                "child {} outside the {}-node arena",
                                e.child,
                                self.nodes.len()
                            ));
                        }
                        stack.push(e.child);
                    }
                }
                Node::Leaf(entries) => {
                    for e in entries {
                        if e.internal as usize >= n {
                            return Err(format!(
                                "leaf row {} outside the {n}-point store",
                                e.internal
                            ));
                        }
                        if e.pivot_dists.len() != s {
                            return Err(format!(
                                "{} pivot distances on a leaf entry, {s} pivots",
                                e.pivot_dists.len()
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
    /// every leaf entry, that its stored pivot distances are current.
    pub fn verify_invariants(&self) -> Result<(), String> {
        self.verify_structure()?;
        self.verify_geometry(self.root, None)
    }

    /// The geometric half of [`PmTree::verify_invariants`]; indexes
    /// freely, so only call it on a tree `verify_structure` accepted.
    fn verify_geometry(&self, node: NodeId, parent_center: Option<&[f32]>) -> Result<(), String> {
        const EPS: f32 = 1e-3;
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    let p = self.points.point(e.internal as usize);
                    if let Some(pc) = parent_center {
                        let d = euclidean(p, pc);
                        if (d - e.parent_dist).abs() > EPS * (1.0 + d) {
                            return Err(format!(
                                "leaf parent_dist {} != {} for point {}",
                                e.parent_dist, d, e.internal
                            ));
                        }
                    }
                    for (i, (&pd, pivot)) in
                        e.pivot_dists.iter().zip(self.pivots.iter()).enumerate()
                    {
                        let d = euclidean(p, pivot);
                        if (d - pd).abs() > EPS * (1.0 + d) {
                            return Err(format!("leaf pivot_dist[{i}] stale for {}", e.internal));
                        }
                    }
                }
                Ok(())
            }
            Node::Inner(entries) => {
                for e in entries {
                    if let Some(pc) = parent_center {
                        let d = euclidean(&e.center, pc);
                        if (d - e.parent_dist).abs() > EPS * (1.0 + d) {
                            return Err(format!("inner parent_dist {} != {d}", e.parent_dist));
                        }
                    }
                    // every point below must respect radius and rings
                    let mut stack = vec![e.child];
                    while let Some(nid) = stack.pop() {
                        match &self.nodes[nid as usize] {
                            Node::Inner(es) => stack.extend(es.iter().map(|c| c.child)),
                            Node::Leaf(ls) => {
                                for l in ls {
                                    let p = self.points.point(l.internal as usize);
                                    let d = euclidean(p, &e.center);
                                    if d > e.radius + EPS * (1.0 + d) {
                                        return Err(format!(
                                            "point {} at {d} outside radius {}",
                                            l.internal, e.radius
                                        ));
                                    }
                                    for (ri, (ring, &pd)) in
                                        e.rings.iter().zip(l.pivot_dists.iter()).enumerate()
                                    {
                                        if pd < ring.min - EPS || pd > ring.max + EPS {
                                            return Err(format!(
                                                "pivot dist {pd} outside ring {ri} [{}, {}]",
                                                ring.min, ring.max
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    self.verify_geometry(e.child, Some(&e.center))?;
                }
                Ok(())
            }
        }
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

    fn two_level_tree() -> PmTree {
        let mut rng = Rng::new(5);
        let mut ds = pm_lsh_metric::Dataset::with_capacity(4, 120);
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
        let mut bad_child = two_level_tree();
        let arena = bad_child.nodes.len() as NodeId;
        let root = bad_child.root as usize;
        let Node::Inner(entries) = &mut bad_child.nodes[root] else {
            unreachable!("height >= 2")
        };
        entries[0].child = arena + 7;
        let structure = bad_child.verify_structure().unwrap_err();
        assert!(structure.contains("outside the"), "{structure}");
        assert_eq!(bad_child.verify_invariants().unwrap_err(), structure);

        let mut bad_leaf_map = two_level_tree();
        bad_leaf_map.leaf_of[3] = arena + 7;
        let structure = bad_leaf_map.verify_structure().unwrap_err();
        assert!(structure.contains("leaf map sends row 3"), "{structure}");
        assert_eq!(bad_leaf_map.verify_invariants().unwrap_err(), structure);
    }
}
