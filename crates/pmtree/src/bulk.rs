//! The PM-tree loader: [`PmTree::build`], the one way a bulk-loaded
//! tree is made.
//!
//! The global pivots (Section 4.1 of the paper) induce a Voronoi-style
//! partition of the dataset, and points in different pivot regions end up
//! in disjoint subtrees anyway. So [`PmTree::build`]
//!
//! 1. selects the global pivots from a sample,
//! 2. assigns every point to its nearest pivot (ties to the lowest pivot
//!    index), keeping one region number per row,
//! 3. grows one subtree per non-empty region by M-tree insertion
//!    ([`PmTree::insert`]'s mM_RAD splits and ring upkeep), regions in
//!    order and rows in ascending order, and
//! 4. splices the subtrees into one arena — the first subtree's arena and
//!    row maps *are* the tree's — under a root holding one routing entry
//!    per region: the region pivot as routing object, covering radius and
//!    hyper-rings folded from the exact pivot distances of the leaf entries
//!    below it.
//!
//! Degenerate inputs are one region, grown by insertion alone: no pivots,
//! more pivots than a node holds, at most two nodes' worth of points, or
//! fewer points than pivots — a shape small inputs hit routinely, where
//! `select_pivots` pads the pivot set with duplicates and a partitioned
//! root would carry degenerate zero-radius routing entries.
//!
//! The loader keeps no build scratch beside the tree: one `u32` region per
//! row, no pivot-distance matrix (insertion measures a point's pivot
//! distances where it files it), no per-region id map (`ext_index` is
//! built once, by inverting `externals`, as [`PmTree::from_parts`] does)
//! and no per-region point column: the tree's `points` column is allocated
//! once, to exactly `n` rows in blocks of eight, filled in its final row
//! order and blocked in place before anything grows, and each subtree
//! files its rows out of its part of it.
//!
//! The partition, every subtree and the splice order depend only on the
//! input and the pivot sample's `rng`, so one input builds one tree.

use crate::block::{point_spans, Node};
use crate::pivots::select_pivots;
use crate::tree::{block_rows, blocks_for, PmTree, PmTreeConfig, Rows};
use crate::{projected_dist, NodeId};
use pm_lsh_metric::{MatrixView, PointId, BLOCK_ROWS};
use pm_lsh_stats::Rng;
use std::collections::HashMap;

impl PmTree {
    /// Builds a tree over every row of `view` (external id = row index):
    /// the loader the module docs describe, on the calling thread. Inputs
    /// too small or too degenerate to partition are grown as one region.
    /// The result satisfies [`PmTree::verify_invariants`].
    pub fn build(view: MatrixView<'_>, cfg: PmTreeConfig, rng: &mut Rng) -> Self {
        let pivots = select_pivots(view, cfg.num_pivots, cfg.pivot_sample, rng);
        let (n, s) = (view.len(), pivots.len());
        let partition = !(s == 0 || s > cfg.capacity || n <= 2 * cfg.capacity || n < s);
        let (region, regions) = if partition {
            let region = nearest_pivots(view, &pivots);
            let mut filled = vec![false; s];
            region.iter().for_each(|&r| filled[r as usize] = true);
            let regions: Vec<usize> = (0..s).filter(|&r| filled[r]).collect();
            (region, regions)
        } else {
            (vec![0; n], vec![0])
        };
        let region_of = &region;
        let rows_of = |r: usize| (0..n).filter(move |&row| region_of[row] as usize == r);

        // The finished tree's column, filled before anything grows: region
        // by region, rows ascending — the order the splice appends the
        // subtrees' rows in — then blocked in place. Each subtree files its
        // rows out of its part of it and keeps no column of its own.
        let m = view.dim();
        let mut points = Vec::with_capacity(blocks_for(n) * BLOCK_ROWS * m);
        let mut first = vec![0; s.max(1)];
        for &r in &regions {
            first[r] = (points.len() / m) as u32;
            rows_of(r).for_each(|row| points.extend_from_slice(view.point(row)));
        }
        let points = block_rows(points, m);

        // Step 3: one subtree per region, in region order.
        let mut subtrees = Vec::with_capacity(regions.len());
        for &r in &regions {
            let mut sub = PmTree::new(m, cfg, pivots.clone());
            if subtrees.is_empty() {
                // The first subtree becomes the tree: room for every row.
                sub.externals.reserve_exact(n);
            }
            let part = Rows {
                column: &points,
                dim: m,
                first: first[r],
            };
            for row in rows_of(r) {
                sub.file_row(row as PointId, part);
            }
            subtrees.push(sub);
        }
        drop(region);

        // Step 4: splice the other subtrees behind the first, in region
        // order, and crown them with a root of per-region routing entries.
        let more_nodes: usize = subtrees[1..].iter().map(|sub| sub.nodes.len()).sum();
        let mut subtrees = subtrees.into_iter();
        let mut tree = subtrees.next().expect("every build has a region");
        if partition {
            tree.build_dist_computations += (n * s) as u64;
        }
        if regions.len() > 1 {
            let lay = tree.layout();
            tree.nodes.reserve_exact(more_nodes + 1);
            // Per region: the subtree's top node and its span of the arena.
            let mut spans = vec![(tree.root, 0..tree.nodes.len())];
            for sub in subtrees {
                let node_offset = tree.nodes.len() as NodeId;
                let internal_offset = tree.externals.len() as u32;
                tree.build_dist_computations += sub.build_dist_computations;
                tree.externals.extend_from_slice(&sub.externals);
                // Leaf entries refer to rows, routing entries to nodes.
                for mut node in sub.nodes {
                    let by = if node.is_leaf() {
                        internal_offset
                    } else {
                        node_offset
                    };
                    node.shift_links(lay, by);
                    tree.nodes.push(node);
                }
                spans.push((
                    sub.root + node_offset,
                    node_offset as usize..tree.nodes.len(),
                ));
            }

            let mut root = Node::with_capacity(false, regions.len(), lay);
            for (entry, (&r, (top, arena))) in regions.iter().zip(spans).enumerate() {
                // The subtree's top node now hangs under a routing object
                // (the region pivot), so its entries' parent distances must
                // be relative to that pivot. Leaf entries already carry the
                // distance (it *is* a pivot distance); routing entries need
                // one fresh computation each.
                let pivot = &tree.pivots[r];
                let node = &mut tree.nodes[top as usize];
                for idx in 0..node.len(lay) {
                    let parent_dist = if node.is_leaf() {
                        node.leaf_at(idx, lay).pivot_dists[r]
                    } else {
                        projected_dist(node.inner_at(idx, lay).center, pivot)
                    };
                    node.set_parent_dist(idx, lay, parent_dist);
                }
                if !node.is_leaf() {
                    tree.build_dist_computations += node.len(lay) as u64;
                }
                root.push_routing(lay, top, pivot);
                let leaves = tree.nodes[arena].iter().filter(|node| node.is_leaf());
                for e in leaves.flat_map(|node| node.leaves(lay)) {
                    root.cover(entry, lay, e.pivot_dists[r], point_spans(e.pivot_dists));
                }
            }
            tree.root = tree.nodes.len() as NodeId;
            tree.nodes.push(root);
        }
        tree.points = points;

        tree.ext_index = HashMap::with_capacity(n);
        (tree.ext_index)
            .extend((tree.externals.iter().enumerate()).map(|(row, &e)| (e, row as u32)));
        tree
    }
}

/// Step 2: the nearest pivot of every row, ties to the lowest index.
fn nearest_pivots(view: MatrixView<'_>, pivots: &[Box<[f32]>]) -> Vec<u32> {
    (0..view.len())
        .map(|row| {
            let point = view.point(row);
            let mut best = (0, projected_dist(point, &pivots[0]));
            for (p, pivot) in pivots.iter().enumerate().skip(1) {
                let d = projected_dist(point, pivot);
                if d < best.1 {
                    best = (p, d);
                }
            }
            best.0 as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lsh_metric::Dataset;

    fn blob(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let mut ds = Dataset::with_capacity(d, n);
        let mut buf = vec![0.0f32; d];
        for _ in 0..n {
            rng.fill_normal(&mut buf);
            ds.push(&buf);
        }
        ds
    }

    /// The tree the mutation path grows: the loader's pivots, then one
    /// [`PmTree::insert`] per row.
    fn grown_by_insertion(ds: &Dataset, cfg: PmTreeConfig, seed: u64) -> PmTree {
        let pivots = select_pivots(
            ds.view(),
            cfg.num_pivots,
            cfg.pivot_sample,
            &mut Rng::new(seed),
        );
        let mut tree = PmTree::new(ds.dim(), cfg, pivots);
        for (row, p) in ds.iter().enumerate() {
            tree.insert(p, row as PointId);
        }
        tree
    }

    fn assert_trees_identical(a: &PmTree, b: &PmTree) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.externals, b.externals);
        let bits = |t: &PmTree| t.points.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.ext_index, b.ext_index);
        assert_eq!(
            a.build_distance_computations(),
            b.build_distance_computations()
        );
        // Every field of every entry, ids bit for bit.
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.is_leaf(), nb.is_leaf(), "node kind mismatch");
            assert_eq!(na.bits(), nb.bits());
        }
    }

    #[test]
    fn bulk_load_satisfies_invariants_and_finds_everything() {
        let ds = blob(700, 8, 42);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut Rng::new(9));
        tree.verify_invariants().expect("bulk-loaded invariants");
        assert_eq!(tree.len(), 700);
        // Exhaustive cursor drain must yield every external id exactly once.
        let mut cursor = tree.cursor(ds.point(3));
        let mut seen = vec![false; 700];
        while let Some((id, _)) = cursor.next() {
            assert!(!seen[id as usize], "id {id} yielded twice");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "cursor missed points");
    }

    #[test]
    fn bulk_load_matches_incremental_nn_order() {
        // Different tree shapes, the same points: both cursors must yield
        // the same `(id, dist)` sequence, ties broken by id, bit for bit.
        let ds = blob(600, 6, 43);
        let cfg = PmTreeConfig::default();
        let inc = grown_by_insertion(&ds, cfg, 5);
        let bulk = PmTree::build(ds.view(), cfg, &mut Rng::new(5));
        assert_ne!(inc.node_count(), bulk.node_count(), "the shapes differ");
        let q = ds.point(11);
        let (mut ci, mut cb) = (inc.cursor(q), bulk.cursor(q));
        for rank in 0..600 {
            let hit = ci.next().expect("incremental exhausted early");
            assert_eq!(Some(hit), cb.next(), "rank {rank}");
        }
        assert_eq!((ci.next(), cb.next()), (None, None));
    }

    #[test]
    fn duplicate_points_collapse_to_one_region() {
        // All-identical points make every pivot identical, so nearest-pivot
        // ties send every row to region 0: its subtree IS the tree, no
        // wrapper root.
        let ds = Dataset::from_rows(vec![vec![3.0f32, -1.0, 2.0]; 200]);
        let tree = PmTree::build(ds.view(), PmTreeConfig::default(), &mut Rng::new(8));
        tree.verify_invariants().expect("single-region invariants");
        assert_eq!(tree.len(), 200);
        let mut cursor = tree.cursor(&[3.0, -1.0, 2.0]);
        let mut count = 0;
        while let Some((_, d)) = cursor.next() {
            assert_eq!(d, 0.0);
            count += 1;
        }
        assert_eq!(count, 200);
    }

    #[test]
    fn fewer_points_than_pivots_falls_back_to_incremental() {
        // A small input can easily hold fewer points than the configured
        // pivot count. The loader must grow it as one region
        // (select_pivots pads the pivot set with duplicates, which would
        // otherwise become degenerate partitioned-root routing entries):
        // exactly the tree insertion grows.
        for n in [1usize, 2, 3, 4] {
            let ds = blob(n, 6, 46);
            let cfg = PmTreeConfig {
                num_pivots: 5,
                ..Default::default()
            };
            assert!(n < cfg.num_pivots);
            let inc = grown_by_insertion(&ds, cfg, 11);
            let bulk = PmTree::build(ds.view(), cfg, &mut Rng::new(11));
            bulk.verify_invariants().expect("tiny-input invariants");
            assert_trees_identical(&inc, &bulk);
        }
    }

    #[test]
    fn small_and_pivotless_inputs_fall_back() {
        let tiny = blob(12, 4, 44);
        let t = PmTree::build(tiny.view(), PmTreeConfig::default(), &mut Rng::new(1));
        t.verify_invariants().expect("fallback invariants");
        assert_eq!(t.len(), 12);

        let cfg = PmTreeConfig {
            num_pivots: 0,
            ..Default::default()
        };
        let ds = blob(300, 4, 45);
        let t = PmTree::build(ds.view(), cfg, &mut Rng::new(2));
        t.verify_invariants().expect("M-tree fallback invariants");
        assert_eq!(t.len(), 300);
    }
}
