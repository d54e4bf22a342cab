//! PM-tree node entries (Fig. 4(b) of the paper).
//!
//! An inner entry mirrors the paper's `(e.r, e.ptr, e.RO, e.PD, e.HR)`
//! tuple: covering radius, child pointer, routing object, distance to the
//! parent routing object, and the hyper-ring intervals induced by the global
//! pivots. A leaf entry stores the point, its distance to the parent routing
//! object and its distances to the pivots.

use crate::NodeId;
use pm_lsh_metric::PointId;

/// Per-pivot hyper-ring interval `[min, max]` of distances from the pivot to
/// every point stored below an entry (the paper's `e.HR[i]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ring {
    /// Smallest distance from the pivot to any point in the subtree.
    pub min: f32,
    /// Largest distance from the pivot to any point in the subtree.
    pub max: f32,
}

impl Ring {
    /// An empty ring, absorbing any update.
    pub const EMPTY: Ring = Ring {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
    };

    /// Expands the ring to include a single distance.
    #[inline]
    pub fn include(&mut self, d: f32) {
        if d < self.min {
            self.min = d;
        }
        if d > self.max {
            self.max = d;
        }
    }

    /// Expands the ring to cover another ring.
    #[inline]
    pub fn merge(&mut self, other: Ring) {
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Lower bound on `d(q, x)` for any `x` in the subtree, given the
    /// distance `qp` from the query to this ring's pivot (triangle
    /// inequality both ways).
    #[inline]
    pub fn lower_bound(&self, qp: f32) -> f32 {
        (qp - self.max).max(self.min - qp).max(0.0)
    }

    /// `true` when a ball of radius `r` around a query at pivot distance
    /// `qp` intersects the ring (the two ring conditions of Eq. 5).
    #[inline]
    pub fn intersects(&self, qp: f32, r: f32) -> bool {
        qp - r <= self.max && qp + r >= self.min
    }
}

/// Routing entry of an inner node.
#[derive(Clone, Debug)]
pub struct InnerEntry {
    /// Routing object `e.RO`: a copy of the promoted point's coordinates.
    pub center: Box<[f32]>,
    /// Covering radius `e.r`: every point in the subtree is within this
    /// distance of `center`.
    pub radius: f32,
    /// Distance `e.PD` from `center` to the routing object of the parent
    /// entry (0 for entries of the root).
    pub parent_dist: f32,
    /// Child node `e.ptr`.
    pub child: NodeId,
    /// Hyper-ring intervals `e.HR`, one per global pivot (empty when s = 0,
    /// which degrades the structure to a plain M-tree).
    pub rings: Box<[Ring]>,
}

impl InnerEntry {
    /// Ring-based lower bound on the distance from the query to any point in
    /// the subtree; `qp_dists[i]` is the query's distance to pivot `i`.
    #[inline]
    pub fn ring_lower_bound(&self, qp_dists: &[f32]) -> f32 {
        let mut lb = 0.0f32;
        for (ring, &qp) in self.rings.iter().zip(qp_dists) {
            let b = ring.lower_bound(qp);
            if b > lb {
                lb = b;
            }
        }
        lb
    }
}

/// Entry of a leaf node: one indexed point.
#[derive(Clone, Debug)]
pub struct LeafEntry {
    /// Row of the point inside the tree's internal point store.
    pub internal: u32,
    /// Caller-visible identifier of the point.
    pub external: PointId,
    /// Distance `o.PD` to the routing object of the parent entry.
    pub parent_dist: f32,
    /// Distances from the point to each global pivot.
    pub pivot_dists: Box<[f32]>,
}

impl LeafEntry {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_include_and_merge() {
        let mut r = Ring::EMPTY;
        r.include(2.0);
        r.include(5.0);
        assert_eq!(r, Ring { min: 2.0, max: 5.0 });
        let mut other = Ring { min: 1.0, max: 3.0 };
        other.merge(r);
        assert_eq!(other, Ring { min: 1.0, max: 5.0 });
    }

    #[test]
    fn ring_lower_bound_cases() {
        let ring = Ring { min: 2.0, max: 5.0 };
        // query's pivot distance inside the ring: bound is 0
        assert_eq!(ring.lower_bound(3.0), 0.0);
        // query closer to pivot than the ring: min - qp
        assert_eq!(ring.lower_bound(0.5), 1.5);
        // query farther than the ring: qp - max
        assert_eq!(ring.lower_bound(7.0), 2.0);
    }

    #[test]
    fn ring_intersection_matches_bound() {
        let ring = Ring { min: 2.0, max: 5.0 };
        for qp in [0.0f32, 1.0, 2.5, 4.9, 6.0, 9.0] {
            for r in [0.1f32, 1.0, 3.0] {
                assert_eq!(
                    ring.intersects(qp, r),
                    ring.lower_bound(qp) <= r,
                    "qp={qp} r={r}"
                );
            }
        }
    }

    #[test]
    fn leaf_pivot_bound_is_symmetric_difference() {
        let e = LeafEntry {
            internal: 0,
            external: 0,
            parent_dist: 0.0,
            pivot_dists: vec![3.0, 8.0].into_boxed_slice(),
        };
        assert_eq!(e.pivot_lower_bound(&[5.0, 8.5]), 2.0);
        assert_eq!(e.pivot_lower_bound(&[3.0, 8.0]), 0.0);
    }
}
