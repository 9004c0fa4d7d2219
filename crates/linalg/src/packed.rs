//! Packed storage of a square lower-triangular matrix.

use crate::Mat;
use std::ops::Index;

/// Offset of row `i` in packed lower-triangular storage, and the length
/// of an `i x i` packed triangle.
#[inline]
pub(crate) fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// A square lower-triangular matrix that stores only its lower triangle,
/// row-major: row `i` starts at offset `i(i+1)/2` and holds its `i + 1`
/// entries up to and including the diagonal, so an `n x n` matrix takes
/// `n(n+1)/2` values instead of `n^2`.
///
/// This is the storage of the Cholesky factor
/// ([`crate::Cholesky::factor_l`]) and the operand of the triangular
/// solves. Entries above the diagonal are implicitly zero and cannot be
/// indexed.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLower {
    n: usize,
    data: Vec<f64>,
}

impl PackedLower {
    /// Wraps packed rows: exactly `n(n+1)/2` values, row `i` holding
    /// `i + 1`.
    pub(crate) fn from_packed(n: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), row_start(n), "packed length of an {n} x {n} triangle");
        PackedLower { n, data }
    }

    /// Packs the lower triangle of a dense square matrix; entries above
    /// the diagonal are ignored.
    ///
    /// # Panics
    /// Panics if `m` is not square.
    pub fn from_dense(m: &Mat) -> Self {
        assert!(m.is_square(), "PackedLower::from_dense: matrix must be square");
        let n = m.rows();
        let mut data = Vec::with_capacity(row_start(n));
        for i in 0..n {
            data.extend_from_slice(&m.row(i)[..=i]);
        }
        PackedLower { n, data }
    }

    /// Number of rows (and columns).
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Row `i` up to and including the diagonal: `i + 1` entries.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[row_start(i)..row_start(i + 1)]
    }

    /// The packed storage, row after row.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Allocated capacity of the packed storage, in values.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Appends row `n` (`lrow`, then the diagonal `diag`), growing the
    /// storage by exactly the `n + 1` new values.
    ///
    /// # Panics
    /// Panics if `lrow.len() != self.dim()`.
    pub(crate) fn push_row(&mut self, lrow: &[f64], diag: f64) {
        assert_eq!(lrow.len(), self.n, "push_row: row length");
        self.data.reserve_exact(self.n + 1);
        self.data.extend_from_slice(lrow);
        self.data.push(diag);
        self.n += 1;
    }
}

impl Index<(usize, usize)> for PackedLower {
    type Output = f64;

    /// Entry `(i, j)` of the lower triangle.
    ///
    /// # Panics
    /// Panics if `j > i` or `i >= self.dim()`.
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(j <= i && i < self.n, "PackedLower index ({i}, {j}) outside the lower triangle");
        &self.data[row_start(i) + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sit_at_triangular_offsets() {
        let dense = Mat::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let p = PackedLower::from_dense(&dense);
        assert_eq!(p.dim(), 4);
        assert_eq!(p.as_slice().len(), 10);
        for i in 0..4 {
            assert_eq!(p.row(i), &dense.row(i)[..=i], "row {i}");
            for j in 0..=i {
                assert_eq!(p[(i, j)], dense[(i, j)]);
            }
        }
    }

    #[test]
    fn push_row_grows_by_exactly_one_row() {
        let mut p = PackedLower::from_packed(0, Vec::new());
        for n in 0..6 {
            let lrow: Vec<f64> = (0..n).map(|j| j as f64).collect();
            p.push_row(&lrow, -1.0);
            assert_eq!(p.row(n)[..n], lrow[..]);
            assert_eq!(p[(n, n)], -1.0);
            assert_eq!(p.capacity(), (n + 1) * (n + 2) / 2);
        }
    }

    #[test]
    #[should_panic(expected = "outside the lower triangle")]
    fn upper_triangle_is_not_indexable() {
        let _ = PackedLower::from_dense(&Mat::zeros(3, 3))[(0, 1)];
    }
}
