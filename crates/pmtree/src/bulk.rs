//! Parallel PM-tree bulk-loading.
//!
//! [`PmTree::build`] inserts points one at a time — inherently serial,
//! because every insert descends from the current root. The bulk loader
//! exploits the structure the PM-tree already has: the global pivots
//! (Section 4.1 of the paper) induce a Voronoi-style partition of the
//! dataset, and points in different pivot regions end up in disjoint
//! subtrees anyway. So it
//!
//! 1. selects the global pivots exactly as the incremental build does
//!    (same RNG consumption, so downstream seeded sampling is unaffected),
//! 2. assigns every point to its nearest pivot (ties to the lowest pivot
//!    index), computing the per-point pivot-distance rows the leaf entries
//!    need anyway,
//! 3. builds one subtree per non-empty region **concurrently** — each
//!    subtree is an ordinary incremental PM-tree over that region's points
//!    in ascending row order — and
//! 4. merges the subtrees under a fresh root whose routing entries use the
//!    region pivots as routing objects, with covering radii and hyper-rings
//!    folded from the pivot-distance rows of step 2.
//!
//! # Determinism
//!
//! The partition, every subtree, and the merge order depend only on the
//! input — never on `threads`, which merely sets how many workers drain the
//! region queue. A 1-thread and an 8-thread bulk-load therefore produce
//! **identical** trees (same nodes, same entry order, same counters), which
//! is what lets `PmLsh` promise reproducible parallel builds. Note the
//! bulk-loaded tree legitimately differs from the one [`PmTree::build`]
//! grows by repeated root splits; both satisfy every PM-tree invariant and
//! answer queries through the same cursor.
//!
//! Parallelism is bounded by the region count `s` (5 at the paper's
//! operating point) and by region skew; that is the price of a
//! thread-count-invariant partition.

use crate::block::{point_spans, Node};
use crate::pivots::select_pivots;
use crate::tree::{PmTree, PmTreeConfig};
use crate::NodeId;
use pm_lsh_metric::{euclidean, MatrixView, PointId};
use pm_lsh_stats::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;

impl PmTree {
    /// Builds a tree over every row of `view` (external id = row index),
    /// constructing one subtree per pivot region on up to `threads` OS
    /// threads (0 = available parallelism).
    ///
    /// The result is identical for every `threads` value — see the module
    /// docs for why — and satisfies [`PmTree::verify_invariants`]. Falls
    /// back to the incremental [`PmTree::build`] when partitioning cannot
    /// help (no pivots, more pivots than node capacity, fewer points than
    /// two nodes' worth, or fewer points than pivots — a shape sharded
    /// builds hit routinely, where `select_pivots` pads the set with
    /// duplicates and a partitioned root would carry degenerate
    /// zero-radius routing entries).
    pub fn build_parallel(
        view: MatrixView<'_>,
        cfg: PmTreeConfig,
        rng: &mut Rng,
        threads: usize,
    ) -> Self {
        let pivots = select_pivots(view, cfg.num_pivots, cfg.pivot_sample, rng);
        let n = view.len();
        if pivots.is_empty()
            || pivots.len() > cfg.capacity
            || n <= 2 * cfg.capacity
            || n < pivots.len()
        {
            // Degenerate shapes where a partitioned root is impossible or
            // pointless; the incremental build is equally deterministic.
            let mut tree = Self::new(view.dim(), cfg, pivots);
            for (i, p) in view.iter().enumerate() {
                tree.insert(p, i as PointId);
            }
            return tree;
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };

        let s = pivots.len();
        // Step 2: pivot-distance rows and nearest-pivot assignment, chunked
        // across the workers (pure per-row computation, deterministic).
        let mut pd = vec![0.0f32; n * s];
        let rows_per_chunk = n.div_ceil(threads.min(n));
        std::thread::scope(|scope| {
            for (c, pd_chunk) in pd.chunks_mut(rows_per_chunk * s).enumerate() {
                let start = c * rows_per_chunk;
                let pivots = &pivots;
                scope.spawn(move || {
                    for (j, pd_row) in pd_chunk.chunks_mut(s).enumerate() {
                        let point = view.point(start + j);
                        for (slot, pivot) in pd_row.iter_mut().zip(pivots) {
                            *slot = euclidean(point, pivot);
                        }
                    }
                });
            }
        });
        let mut regions: Vec<Vec<usize>> = vec![Vec::new(); s];
        for i in 0..n {
            let row = &pd[i * s..(i + 1) * s];
            let mut best = 0usize;
            for (j, &d) in row.iter().enumerate().skip(1) {
                if d < row[best] {
                    best = j;
                }
            }
            regions[best].push(i);
        }
        let tasks: Vec<(usize, Vec<usize>)> = regions
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .collect();

        // Step 3: one subtree per non-empty region, workers draining a
        // shared task counter. Results are keyed by task index so the merge
        // order below never depends on completion order.
        let next_task = AtomicUsize::new(0);
        let (results_tx, results_rx) = channel::<(usize, PmTree)>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(tasks.len()) {
                let next_task = &next_task;
                let results_tx = results_tx.clone();
                let tasks = &tasks;
                let pivots = &pivots;
                let pd = &pd;
                scope.spawn(move || loop {
                    let t = next_task.fetch_add(1, Ordering::Relaxed);
                    let Some((_, rows)) = tasks.get(t) else {
                        return;
                    };
                    let mut sub = PmTree::new(view.dim(), cfg, pivots.to_vec());
                    for &row in rows {
                        let pd_row = &pd[row * s..(row + 1) * s];
                        sub.insert_with_pivot_dists(view.point(row), row as PointId, pd_row);
                    }
                    let _ = results_tx.send((t, sub));
                });
            }
        });
        drop(results_tx);
        let mut subtrees: Vec<Option<PmTree>> = (0..tasks.len()).map(|_| None).collect();
        for (t, sub) in results_rx {
            subtrees[t] = Some(sub);
        }

        // A single populated region needs no splice and no extra root:
        // its subtree already is the whole tree (root entries keep their
        // "no parent" convention). Only the assignment-phase distance
        // computations must be accounted for.
        if tasks.len() == 1 {
            let mut sub = subtrees
                .pop()
                .flatten()
                .expect("the single region task completed");
            sub.add_build_dist_computations((n * s) as u64);
            return sub;
        }

        // Step 4: splice the subtree arenas into one tree in region order
        // and crown them with a root of per-region routing entries.
        let mut tree = PmTree::new(view.dim(), cfg, pivots);
        let lay = tree.layout();
        tree.nodes.clear();
        tree.add_build_dist_computations((n * s) as u64);
        let mut root = Node::with_capacity(false, tasks.len(), lay);
        for ((region, rows), sub) in tasks.iter().zip(subtrees) {
            let sub = sub.expect("every region task completed");
            let node_offset = tree.nodes.len() as NodeId;
            let internal_offset = tree.externals.len() as u32;
            let sub_root = sub.root + node_offset;
            tree.add_build_dist_computations(sub.build_distance_computations());
            for mut node in sub.nodes {
                // Leaf entries refer to internal rows, routing entries to
                // nodes; the points travel inside their leaf entries.
                node.shift_links(
                    lay,
                    if node.is_leaf() {
                        internal_offset
                    } else {
                        node_offset
                    },
                );
                tree.nodes.push(node);
            }
            tree.externals.extend_from_slice(&sub.externals);
            // The mutable layer's bookkeeping splices with the same
            // offsets as the arena: subtrees never free nodes during a
            // build, so only the id map and the leaf map carry over.
            debug_assert!(sub.free_nodes.is_empty());
            for (local, &external) in sub.externals.iter().enumerate() {
                tree.ext_index
                    .insert(external, internal_offset + local as u32);
            }
            tree.leaf_of
                .extend(sub.leaf_of.iter().map(|&leaf| leaf + node_offset));

            // The subtree's top node now hangs under a routing object (the
            // region pivot) instead of the root, so its entries' parent
            // distances must be relative to that pivot. Leaf entries already
            // carry the distance (it *is* a pivot distance); inner entries
            // need one fresh computation each.
            let pivot = &tree.pivots[*region];
            let top = &mut tree.nodes[sub_root as usize];
            for idx in 0..top.len(lay) {
                let parent_dist = if top.is_leaf() {
                    top.leaf_at(idx, lay).pivot_dists[*region]
                } else {
                    euclidean(top.inner_at(idx, lay).center, pivot)
                };
                top.set_parent_dist(idx, lay, parent_dist);
            }
            let fresh = if top.is_leaf() { 0 } else { top.len(lay) };

            // Covering radius and hyper-rings of the region, folded from
            // the assignment phase's pivot-distance rows.
            let entry = root.len(lay);
            root.push_routing(lay, sub_root, pivot);
            for &row in rows {
                let pd_row = &pd[row * s..(row + 1) * s];
                root.cover(entry, lay, pd_row[*region], point_spans(pd_row));
            }
            tree.add_build_dist_computations(fresh as u64);
        }

        tree.root = tree.nodes.len() as NodeId;
        tree.nodes.push(root);
        tree
    }
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

    fn assert_trees_identical(a: &PmTree, b: &PmTree) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.externals, b.externals);
        assert_eq!(
            a.build_distance_computations(),
            b.build_distance_computations()
        );
        // Every field of every entry, points included, ids bit for bit.
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.is_leaf(), nb.is_leaf(), "node kind mismatch");
            assert_eq!(na.bits(), nb.bits());
        }
    }

    #[test]
    fn bulk_load_is_thread_count_invariant() {
        let ds = blob(900, 10, 41);
        let cfg = PmTreeConfig::default();
        let base = PmTree::build_parallel(ds.view(), cfg, &mut Rng::new(7), 1);
        base.verify_invariants().expect("1-thread tree invariants");
        for threads in [0usize, 2, 3, 4, 8] {
            let t = PmTree::build_parallel(ds.view(), cfg, &mut Rng::new(7), threads);
            assert_trees_identical(&base, &t);
        }
    }

    #[test]
    fn bulk_load_satisfies_invariants_and_finds_everything() {
        let ds = blob(700, 8, 42);
        let tree = PmTree::build_parallel(ds.view(), PmTreeConfig::default(), &mut Rng::new(9), 4);
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
        // Different tree shapes, same geometry: both cursors must yield the
        // same non-decreasing distance sequence for exact incremental NN.
        let ds = blob(600, 6, 43);
        let cfg = PmTreeConfig::default();
        let inc = PmTree::build(ds.view(), cfg, &mut Rng::new(5));
        let par = PmTree::build_parallel(ds.view(), cfg, &mut Rng::new(5), 4);
        let q = ds.point(11);
        let mut ci = inc.cursor(q);
        let mut cp = par.cursor(q);
        for rank in 0..40 {
            let (_, di) = ci.next().expect("incremental exhausted early");
            let (_, dp) = cp.next().expect("bulk exhausted early");
            assert!(
                (di - dp).abs() <= 1e-4 * (1.0 + di.abs()),
                "rank {rank}: incremental {di} vs bulk {dp}"
            );
        }
    }

    #[test]
    fn duplicate_points_collapse_to_one_region() {
        // All-identical points make every pivot identical, so nearest-pivot
        // ties send every row to region 0 and the single-region shortcut
        // runs: the subtree IS the tree, no wrapper root.
        let ds = Dataset::from_rows(vec![vec![3.0f32, -1.0, 2.0]; 200]);
        let tree = PmTree::build_parallel(ds.view(), PmTreeConfig::default(), &mut Rng::new(8), 4);
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
        // Sharding deals a dataset round-robin, so a shard can easily hold
        // fewer points than the configured pivot count. The bulk loader
        // must take the incremental fallback there (select_pivots pads the
        // pivot set with duplicates, which would otherwise become
        // degenerate partitioned-root routing entries) and match
        // PmTree::build exactly for every thread count.
        for n in [1usize, 2, 3, 4] {
            let ds = blob(n, 6, 46);
            let cfg = PmTreeConfig {
                num_pivots: 5,
                ..Default::default()
            };
            assert!(n < cfg.num_pivots);
            let inc = PmTree::build(ds.view(), cfg, &mut Rng::new(11));
            for threads in [1usize, 4] {
                let par = PmTree::build_parallel(ds.view(), cfg, &mut Rng::new(11), threads);
                par.verify_invariants().expect("tiny-shard invariants");
                assert_trees_identical(&inc, &par);
            }
        }
    }

    #[test]
    fn small_and_pivotless_inputs_fall_back() {
        let tiny = blob(12, 4, 44);
        let t = PmTree::build_parallel(tiny.view(), PmTreeConfig::default(), &mut Rng::new(1), 4);
        t.verify_invariants().expect("fallback invariants");
        assert_eq!(t.len(), 12);

        let cfg = PmTreeConfig {
            num_pivots: 0,
            ..Default::default()
        };
        let ds = blob(300, 4, 45);
        let t = PmTree::build_parallel(ds.view(), cfg, &mut Rng::new(2), 4);
        t.verify_invariants().expect("M-tree fallback invariants");
        assert_eq!(t.len(), 300);
    }
}
