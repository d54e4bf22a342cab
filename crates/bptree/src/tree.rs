//! In-memory B+-tree keyed by `f32` with duplicate keys.
//!
//! QALSH stores the projected value `h_i(o) = a_i · o` of every point in one
//! B+-tree per hash function and answers queries by *expanding a window*
//! around the query's own projection (virtual rehashing). QALSH rebuilds its
//! trees wholesale and never edits one, so the tree is static: it is
//! bulk-loaded from sorted pairs, full nodes bottom-up, and then only read —
//! range scans and bidirectional leaf walks.

use pm_lsh_metric::PointId;

/// Maximum number of keys per node.
const DEFAULT_ORDER: usize = 64;

#[derive(Clone, Debug)]
pub(crate) struct LeafNode {
    pub keys: Vec<f32>,
    pub vals: Vec<PointId>,
    pub prev: Option<u32>,
    pub next: Option<u32>,
}

#[derive(Clone, Debug)]
pub(crate) struct InnerNode {
    /// `keys[i]` separates `children[i]` (keys < keys[i]) from
    /// `children[i+1]` (keys >= keys[i]).
    pub keys: Vec<f32>,
    pub children: Vec<u32>,
}

#[derive(Clone, Debug)]
pub(crate) enum Node {
    Leaf(LeafNode),
    Inner(InnerNode),
}

/// A static B+-tree mapping `f32` keys (not NaN) to [`PointId`] values,
/// duplicates allowed. Every leaf of a non-empty tree holds at least one
/// pair; an empty tree is one empty leaf.
#[derive(Clone, Debug)]
pub struct BPlusTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: u32,
    len: usize,
}

impl BPlusTree {
    /// Bulk-loads from `(key, value)` pairs sorted by key.
    ///
    /// # Panics
    /// Panics if the keys are unsorted or NaN.
    pub fn bulk_load(pairs: &[(f32, PointId)]) -> Self {
        Self::bulk_load_with_order(pairs, DEFAULT_ORDER)
    }

    /// Bulk-loads with an explicit node order: at most `order` keys per
    /// leaf and `order + 1` children per inner node (`order` at least 4).
    pub fn bulk_load_with_order(pairs: &[(f32, PointId)], order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0, "bulk_load requires sorted keys");
        }
        assert!(
            pairs.iter().all(|p| !p.0.is_nan()),
            "NaN keys are not allowed"
        );
        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            len: pairs.len(),
        };
        if pairs.is_empty() {
            tree.nodes.push(Node::Leaf(LeafNode {
                keys: Vec::new(),
                vals: Vec::new(),
                prev: None,
                next: None,
            }));
            return tree;
        }

        // Nothing is ever inserted, so every leaf is filled to `order`.
        let mut leaf_ids = Vec::new();
        let mut level_keys = Vec::new(); // first key of each leaf (split keys)
        for chunk in pairs.chunks(order) {
            let id = tree.nodes.len() as u32;
            tree.nodes.push(Node::Leaf(LeafNode {
                keys: chunk.iter().map(|p| p.0).collect(),
                vals: chunk.iter().map(|p| p.1).collect(),
                prev: if leaf_ids.is_empty() {
                    None
                } else {
                    Some(id - 1)
                },
                next: None,
            }));
            if let Some(&prev) = leaf_ids.last() {
                if let Node::Leaf(l) = &mut tree.nodes[prev as usize] {
                    l.next = Some(id);
                }
            }
            level_keys.push(chunk[0].0);
            leaf_ids.push(id);
        }

        // Build inner levels bottom-up.
        let mut level = leaf_ids;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            let mut next_keys = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let end = (i + order).min(level.len());
                // avoid a trailing single-child inner node
                let end = if level.len() - end == 1 { end + 1 } else { end };
                let children: Vec<u32> = level[i..end].to_vec();
                let keys: Vec<f32> = level_keys[i + 1..end].to_vec();
                let id = tree.nodes.len() as u32;
                tree.nodes.push(Node::Inner(InnerNode { keys, children }));
                next_keys.push(level_keys[i]);
                next_level.push(id);
                i = end;
            }
            level = next_level;
            level_keys = next_keys;
        }
        tree.root = level[0];
        tree
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf(_) => return h,
                Node::Inner(inner) => {
                    node = inner.children[0];
                    h += 1;
                }
            }
        }
    }

    /// Leaf that may hold the *first* occurrence of `key`.
    ///
    /// Separators are the first key of their right sibling at split time, so
    /// duplicates of a separator can live in the left subtree too; the
    /// descent therefore treats an equal separator as "go left" and relies on
    /// the leaf chain to walk right when needed.
    fn leaf_for(&self, key: f32) -> u32 {
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf(_) => return node,
                Node::Inner(inner) => {
                    let idx = inner.keys.partition_point(|&k| k < key);
                    node = inner.children[idx];
                }
            }
        }
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: f32, hi: f32) -> Vec<(f32, PointId)> {
        let mut out = Vec::new();
        if self.is_empty() || lo > hi {
            return out;
        }
        let mut leaf = self.leaf_for(lo);
        loop {
            let Node::Leaf(l) = &self.nodes[leaf as usize] else {
                unreachable!()
            };
            let start = l.keys.partition_point(|&k| k < lo);
            for i in start..l.keys.len() {
                if l.keys[i] > hi {
                    return out;
                }
                out.push((l.keys[i], l.vals[i]));
            }
            match l.next {
                Some(n) => leaf = n,
                None => return out,
            }
        }
    }

    /// Position of the first entry with key `>= key` as `(leaf, index)`;
    /// `None` when every key is smaller.
    pub(crate) fn seek(&self, key: f32) -> Option<(u32, usize)> {
        if self.is_empty() {
            return None;
        }
        let mut leaf = self.leaf_for(key);
        loop {
            let Node::Leaf(l) = &self.nodes[leaf as usize] else {
                unreachable!()
            };
            let idx = l.keys.partition_point(|&k| k < key);
            if idx < l.keys.len() {
                return Some((leaf, idx));
            }
            match l.next {
                Some(n) => leaf = n,
                None => return None,
            }
        }
    }

    /// Position of the last entry with key `< key`; `None` when every key is
    /// `>= key`.
    pub(crate) fn seek_before(&self, key: f32) -> Option<(u32, usize)> {
        if self.is_empty() {
            return None;
        }
        let mut leaf = self.leaf_for(key);
        loop {
            let Node::Leaf(l) = &self.nodes[leaf as usize] else {
                unreachable!()
            };
            let idx = l.keys.partition_point(|&k| k < key);
            if idx > 0 {
                return Some((leaf, idx - 1));
            }
            match l.prev {
                Some(p) => leaf = p,
                None => return None,
            }
        }
    }

    pub(crate) fn entry_at(&self, pos: (u32, usize)) -> (f32, PointId) {
        let Node::Leaf(l) = &self.nodes[pos.0 as usize] else {
            unreachable!()
        };
        (l.keys[pos.1], l.vals[pos.1])
    }

    /// The entry after `pos` in key order; leaves are never empty, so it
    /// is in this leaf or first in the next.
    pub(crate) fn next_pos(&self, pos: (u32, usize)) -> Option<(u32, usize)> {
        let Node::Leaf(l) = &self.nodes[pos.0 as usize] else {
            unreachable!()
        };
        if pos.1 + 1 < l.keys.len() {
            return Some((pos.0, pos.1 + 1));
        }
        l.next.map(|n| (n, 0))
    }

    /// The entry before `pos` in key order: in this leaf or last in the
    /// previous one.
    pub(crate) fn prev_pos(&self, pos: (u32, usize)) -> Option<(u32, usize)> {
        if pos.1 > 0 {
            return Some((pos.0, pos.1 - 1));
        }
        let Node::Leaf(l) = &self.nodes[pos.0 as usize] else {
            unreachable!()
        };
        let p = l.prev?;
        let Node::Leaf(prev) = &self.nodes[p as usize] else {
            unreachable!()
        };
        Some((p, prev.keys.len() - 1))
    }

    /// Validates key ordering, balanced depth, the leaf chain and that no
    /// leaf of a non-empty tree is empty; test hook.
    pub fn verify_invariants(&self) -> Result<(), String> {
        // (1) every key reachable via the leaf chain, in sorted order, len matches
        let mut leftmost = self.root;
        while let Node::Inner(i) = &self.nodes[leftmost as usize] {
            leftmost = i.children[0];
        }
        let mut count = 0;
        let mut last = f32::NEG_INFINITY;
        let mut leaf = Some(leftmost);
        while let Some(id) = leaf {
            let Node::Leaf(l) = &self.nodes[id as usize] else {
                return Err("leaf chain reaches an inner node".into());
            };
            if l.keys.is_empty() && self.len > 0 {
                return Err(format!("leaf {id} of a non-empty tree is empty"));
            }
            for &k in &l.keys {
                if k < last {
                    return Err(format!("key order violated: {k} after {last}"));
                }
                last = k;
                count += 1;
            }
            leaf = l.next;
        }
        if count != self.len {
            return Err(format!(
                "leaf chain holds {count} keys, len says {}",
                self.len
            ));
        }
        // (2) uniform leaf depth
        fn depth(tree: &BPlusTree, node: u32) -> Result<usize, String> {
            match &tree.nodes[node as usize] {
                Node::Leaf(_) => Ok(1),
                Node::Inner(inner) => {
                    if inner.children.len() != inner.keys.len() + 1 {
                        return Err("inner fanout mismatch".into());
                    }
                    let d0 = depth(tree, inner.children[0])?;
                    for &c in &inner.children[1..] {
                        if depth(tree, c)? != d0 {
                            return Err("unbalanced depth".into());
                        }
                    }
                    Ok(d0 + 1)
                }
            }
        }
        depth(self, self.root)?;
        Ok(())
    }
}
