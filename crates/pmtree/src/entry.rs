//! PM-tree node entries as free-standing values (Fig. 4(b) of the paper):
//! the export form.
//!
//! Inside the tree an entry is a run of words in its node's block
//! (`block.rs` has the layout and the filters the cursor calls). The
//! structs here are what [`crate::tree::PmTreeParts`] takes a tree apart
//! into and what a snapshot is written from and parsed back to. An inner
//! entry mirrors the paper's `(e.r, e.ptr, e.RO, e.PD, e.HR)` tuple:
//! covering radius, child pointer, routing object, distance to the parent
//! routing object, and the hyper-ring intervals induced by the global
//! pivots. A leaf entry carries its ids, its distance to the parent routing
//! object and its distances to the pivots; its point is row `internal` of
//! [`crate::tree::PmTreeParts::points`].

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
    /// Lower bound on `d(q, x)` for any `x` in the subtree, given the
    /// distance `qp` from the query to this ring's pivot (triangle
    /// inequality both ways). At most `r` exactly when the ball of radius
    /// `r` around the query meets the ring — the two ring conditions of
    /// Eq. 5.
    #[inline]
    pub fn lower_bound(&self, qp: f32) -> f32 {
        (qp - self.max).max(self.min - qp).max(0.0)
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

/// Entry of a leaf node: one indexed point.
#[derive(Clone, Debug)]
pub struct LeafEntry {
    /// Internal row of the point: its row in the exported `points` and
    /// its key into `externals` / `leaf_of`.
    pub internal: u32,
    /// Caller-visible identifier of the point.
    pub external: PointId,
    /// Distance `o.PD` to the routing object of the parent entry.
    pub parent_dist: f32,
    /// Distances from the point to each global pivot.
    pub pivot_dists: Box<[f32]>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
