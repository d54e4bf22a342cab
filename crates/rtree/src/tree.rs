//! R-tree construction: Guttman insertion with quadratic split.
//!
//! The paper's SRS baseline indexes the projected points with an R-tree and
//! iterates `incSearch` (incremental nearest neighbor) over it; the R-LSH
//! ablation runs PM-LSH's radius-enlarging algorithm over the same tree.
//! Node capacity matches the PM-tree experiments (16 entries).

use crate::mbr::Mbr;
use crate::NodeId;
use pm_lsh_metric::{Dataset, MatrixView, PointId};

/// Routing entry of an inner node.
#[derive(Clone, Debug)]
pub(crate) struct ChildEntry {
    pub mbr: Mbr,
    pub child: NodeId,
}

/// Point entry of a leaf node.
#[derive(Clone, Debug)]
pub(crate) struct PointEntry {
    pub internal: u32,
    pub external: PointId,
}

#[derive(Clone, Debug)]
pub(crate) enum Node {
    Inner(Vec<ChildEntry>),
    Leaf(Vec<PointEntry>),
}

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RTreeConfig {
    /// Maximum entries per node (paper setting: 16).
    pub capacity: usize,
    /// Minimum entries per node after a split (Guttman's `m`; 40 % here).
    pub min_fill: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self {
            capacity: 16,
            min_fill: 6,
        }
    }
}

/// An in-memory R-tree over points in `R^m`.
#[derive(Clone, Debug)]
pub struct RTree {
    pub(crate) dim: usize,
    pub(crate) cfg: RTreeConfig,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) points: Dataset,
    pub(crate) externals: Vec<PointId>,
}

impl RTree {
    /// Creates an empty tree.
    pub fn new(dim: usize, cfg: RTreeConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(cfg.capacity >= 2, "capacity must be at least 2");
        assert!(
            cfg.min_fill >= 1 && cfg.min_fill <= cfg.capacity / 2,
            "bad min_fill"
        );
        Self {
            dim,
            cfg,
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            points: Dataset::with_capacity(dim, 0),
            externals: Vec::new(),
        }
    }

    /// Builds a tree over every row of `view` (external id = row index).
    pub fn build(view: MatrixView<'_>, cfg: RTreeConfig) -> Self {
        let mut tree = Self::new(view.dim(), cfg);
        for (i, p) in view.iter().enumerate() {
            tree.insert(p, i as PointId);
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.externals.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.externals.is_empty()
    }

    /// Dimensionality of the indexed space.
    pub fn dim(&self) -> usize {
        self.dim
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

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }

    /// Inserts a point with a caller-chosen external id.
    pub fn insert(&mut self, vector: &[f32], external: PointId) {
        assert_eq!(vector.len(), self.dim, "point has wrong dimensionality");
        let internal = self.externals.len() as u32;
        self.points.push(vector);
        self.externals.push(external);
        if let Some((e1, e2)) = self.insert_rec(self.root, internal) {
            let new_root = self.alloc(Node::Inner(vec![e1, e2]));
            self.root = new_root;
        }
    }

    fn insert_rec(&mut self, node: NodeId, internal: u32) -> Option<(ChildEntry, ChildEntry)> {
        let vector = self.points.point(internal as usize).to_vec();
        match &self.nodes[node as usize] {
            Node::Leaf(_) => {
                let capacity = self.cfg.capacity;
                let Node::Leaf(entries) = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                entries.push(PointEntry {
                    internal,
                    external: self.externals[internal as usize],
                });
                if entries.len() > capacity {
                    return Some(self.split_leaf(node));
                }
                None
            }
            Node::Inner(entries) => {
                // ChooseLeaf: least enlargement, ties by smaller area.
                let pmbr = Mbr::from_point(&vector);
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, e) in entries.iter().enumerate() {
                    let enl = e.mbr.enlargement(&pmbr);
                    let area = e.mbr.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                let child = entries[best].child;
                let split = self.insert_rec(child, internal);
                let capacity = self.cfg.capacity;
                let Node::Inner(entries) = &mut self.nodes[node as usize] else {
                    unreachable!()
                };
                match split {
                    None => {
                        entries[best].mbr.include_point(&vector);
                        None
                    }
                    Some((e1, e2)) => {
                        entries[best] = e1;
                        entries.push(e2);
                        if entries.len() > capacity {
                            return Some(self.split_inner(node));
                        }
                        None
                    }
                }
            }
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (ChildEntry, ChildEntry) {
        let entries = {
            let Node::Leaf(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            std::mem::take(entries)
        };
        let mbrs: Vec<Mbr> = entries
            .iter()
            .map(|e| Mbr::from_point(self.points.point(e.internal as usize)))
            .collect();
        let (g1, g2, m1, m2) = quadratic_split(entries, &mbrs, self.cfg.min_fill);
        self.nodes[node as usize] = Node::Leaf(g1);
        let new_node = self.alloc(Node::Leaf(g2));
        (
            ChildEntry {
                mbr: m1,
                child: node,
            },
            ChildEntry {
                mbr: m2,
                child: new_node,
            },
        )
    }

    fn split_inner(&mut self, node: NodeId) -> (ChildEntry, ChildEntry) {
        let entries = {
            let Node::Inner(entries) = &mut self.nodes[node as usize] else {
                unreachable!()
            };
            std::mem::take(entries)
        };
        let mbrs: Vec<Mbr> = entries.iter().map(|e| e.mbr.clone()).collect();
        let (g1, g2, m1, m2) = quadratic_split(entries, &mbrs, self.cfg.min_fill);
        self.nodes[node as usize] = Node::Inner(g1);
        let new_node = self.alloc(Node::Inner(g2));
        (
            ChildEntry {
                mbr: m1,
                child: node,
            },
            ChildEntry {
                mbr: m2,
                child: new_node,
            },
        )
    }

    /// Validates MBR containment and point reachability; used by tests.
    pub fn verify_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.len()];
        self.verify_node(self.root, None, &mut seen)?;
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("point {missing} not reachable"));
        }
        Ok(())
    }

    fn verify_node(
        &self,
        node: NodeId,
        bound: Option<&Mbr>,
        seen: &mut [bool],
    ) -> Result<(), String> {
        match &self.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    let p = self.points.point(e.internal as usize);
                    if let Some(b) = bound {
                        if !b.contains_point(p) {
                            return Err(format!("point {} escapes its MBR", e.internal));
                        }
                    }
                    if seen[e.internal as usize] {
                        return Err(format!("point {} reachable twice", e.internal));
                    }
                    seen[e.internal as usize] = true;
                }
                Ok(())
            }
            Node::Inner(entries) => {
                if entries.is_empty() {
                    return Err("empty inner node".into());
                }
                for e in entries {
                    if let Some(b) = bound {
                        let u = b.union(&e.mbr);
                        if u != *b {
                            return Err("child MBR escapes parent MBR".into());
                        }
                    }
                    self.verify_node(e.child, Some(&e.mbr), seen)?;
                }
                Ok(())
            }
        }
    }
}

/// Guttman's quadratic split over any entry type with precomputed MBRs.
/// Returns the two groups and their covering MBRs.
fn quadratic_split<T>(
    entries: Vec<T>,
    mbrs: &[Mbr],
    min_fill: usize,
) -> (Vec<T>, Vec<T>, Mbr, Mbr) {
    let n = entries.len();
    debug_assert!(n >= 2);

    // PickSeeds: the pair wasting the most area.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in i + 1..n {
            let waste = mbrs[i].union(&mbrs[j]).area() - mbrs[i].area() - mbrs[j].area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }

    let mut assign: Vec<Option<bool>> = vec![None; n];
    assign[s1] = Some(true);
    assign[s2] = Some(false);
    let mut m1 = mbrs[s1].clone();
    let mut m2 = mbrs[s2].clone();
    let (mut c1, mut c2) = (1usize, 1usize);
    let mut remaining: Vec<usize> = (0..n).filter(|&k| assign[k].is_none()).collect();

    while !remaining.is_empty() {
        // Force-assign when a group must take everything to reach min fill.
        if c1 + remaining.len() == min_fill {
            for &k in &remaining {
                assign[k] = Some(true);
                m1.include_mbr(&mbrs[k]);
            }
            break;
        }
        if c2 + remaining.len() == min_fill {
            for &k in &remaining {
                assign[k] = Some(false);
                m2.include_mbr(&mbrs[k]);
            }
            break;
        }
        // PickNext: max preference difference.
        let (mut pick_pos, mut pick_diff) = (0usize, f64::NEG_INFINITY);
        for (pos, &k) in remaining.iter().enumerate() {
            let d1 = m1.enlargement(&mbrs[k]);
            let d2 = m2.enlargement(&mbrs[k]);
            let diff = (d1 - d2).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick_pos = pos;
            }
        }
        let k = remaining.swap_remove(pick_pos);
        let d1 = m1.enlargement(&mbrs[k]);
        let d2 = m2.enlargement(&mbrs[k]);
        let to_first = d1 < d2
            || (d1 == d2 && (m1.area() < m2.area() || (m1.area() == m2.area() && c1 <= c2)));
        if to_first {
            assign[k] = Some(true);
            m1.include_mbr(&mbrs[k]);
            c1 += 1;
        } else {
            assign[k] = Some(false);
            m2.include_mbr(&mbrs[k]);
            c2 += 1;
        }
    }

    let mut g1 = Vec::with_capacity(c1);
    let mut g2 = Vec::with_capacity(c2);
    for (e, a) in entries.into_iter().zip(assign) {
        match a {
            Some(true) => g1.push(e),
            Some(false) => g2.push(e),
            None => unreachable!("entry left unassigned by quadratic split"),
        }
    }
    (g1, g2, m1, m2)
}
