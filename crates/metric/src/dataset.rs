//! Owned row-major point matrices.

use crate::view::MatrixView;
use crate::PointId;

/// An owned collection of `n` points in `R^dim`, stored row-major in one
/// contiguous `Vec<f32>`.
///
/// The flat layout matches what the distance kernels in [`crate::dist`]
/// expect and keeps cache behaviour predictable: point `i` occupies
/// `data[i*dim .. (i+1)*dim]`.
///
/// ```
/// use pm_lsh_metric::Dataset;
/// let ds = Dataset::from_rows(vec![vec![0.0, 1.0], vec![3.0, 4.0]]);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.dim(), 2);
/// assert_eq!(ds.point(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    data: Vec<f32>,
    dim: usize,
}

impl Dataset {
    /// Creates a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { data, dim }
    }

    /// Creates a dataset from per-point rows.
    ///
    /// # Panics
    /// Panics if `rows` is empty or rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        assert!(!rows.is_empty(), "cannot build a dataset from zero rows");
        let dim = rows[0].len();
        assert!(dim > 0, "dimension must be positive");
        let mut data = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "row {i} has length {} != {dim}", row.len());
            data.extend_from_slice(row);
        }
        Self { data, dim }
    }

    /// An empty dataset with a fixed dimensionality, ready for [`Self::push`].
    pub fn with_capacity(dim: usize, points: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: Vec::with_capacity(dim * points),
            dim,
        }
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dim()`.
    pub fn push(&mut self, point: &[f32]) {
        assert_eq!(point.len(), self.dim, "point has wrong dimensionality");
        self.data.extend_from_slice(point);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// `true` when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows point `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Borrows point `id` (the `u32` form used by index structures).
    #[inline]
    pub fn point_id(&self, id: PointId) -> &[f32] {
        self.point(id as usize)
    }

    /// Mutably borrows point `i`.
    #[inline]
    pub fn point_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over all points in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// A borrowed [`MatrixView`] over the same points.
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(&self.data, self.dim)
    }

    /// Appends every point of `view` in order (one flat copy).
    ///
    /// # Panics
    /// Panics if `view.dim() != self.dim()`.
    pub fn extend_from_view(&mut self, view: MatrixView<'_>) {
        assert_eq!(view.dim(), self.dim, "view has wrong dimensionality");
        self.data.extend_from_slice(view.as_flat());
    }

    /// Copies the selected points (in the given order) into a new dataset.
    ///
    /// Used for query-set extraction and sampling.
    pub fn gather(&self, ids: &[PointId]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.push(self.point_id(id));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_roundtrip() {
        let ds = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn push_and_iter() {
        let mut ds = Dataset::with_capacity(2, 4);
        assert!(ds.is_empty());
        ds.push(&[0.0, 1.0]);
        ds.push(&[2.0, 3.0]);
        let rows: Vec<&[f32]> = ds.iter().collect();
        assert_eq!(rows, vec![&[0.0, 1.0][..], &[2.0, 3.0][..]]);
    }

    #[test]
    fn gather_selects_in_order() {
        let ds = Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let sub = ds.gather(&[3, 1]);
        assert_eq!(sub.point(0), &[3.0]);
        assert_eq!(sub.point(1), &[1.0]);
    }

    #[test]
    fn point_mut_updates_in_place() {
        let mut ds = Dataset::from_rows(vec![vec![1.0, 1.0]]);
        ds.point_mut(0)[1] = 9.0;
        assert_eq!(ds.point(0), &[1.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = Dataset::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn push_rejects_wrong_dim() {
        let mut ds = Dataset::with_capacity(3, 1);
        ds.push(&[1.0]);
    }

    #[test]
    fn view_matches_owner() {
        let ds = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = ds.view();
        assert_eq!(v.len(), ds.len());
        assert_eq!(v.point(1), ds.point(1));
    }
}
