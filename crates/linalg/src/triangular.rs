//! Forward and backward substitution against triangular factors.

use crate::{Mat, PackedLower};
use std::ops::Range;

/// Solves `L x = b` where `L` is lower-triangular (forward substitution).
///
/// # Panics
/// Panics if `b.len() != l.dim()`.
pub fn solve_lower(l: &PackedLower, b: &[f64]) -> Vec<f64> {
    assert_eq!(b.len(), l.dim(), "solve_lower: rhs length mismatch");
    let n = l.dim();
    let mut x = b.to_vec();
    for i in 0..n {
        let row = l.row(i);
        let mut acc = x[i];
        for j in 0..i {
            acc -= row[j] * x[j];
        }
        x[i] = acc / row[i];
    }
    x
}

/// Solves `L^T x = b` where `L` is lower-triangular (backward substitution
/// against the transpose).
///
/// # Panics
/// Panics if `b.len() != l.dim()`.
pub fn solve_upper(l: &PackedLower, b: &[f64]) -> Vec<f64> {
    assert_eq!(b.len(), l.dim(), "solve_upper: rhs length mismatch");
    let n = l.dim();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        // Traverse column i of L below the diagonal == row i of L^T right of diag.
        for j in (i + 1)..n {
            acc -= l[(j, i)] * x[j];
        }
        x[i] = acc / l[(i, i)];
    }
    x
}

/// Row-panel size of the blocked matrix-RHS triangular solves. Within a
/// panel the substitution is the classic scalar recurrence; across panels
/// the update is a dense rank-`SOLVE_BLOCK` product over contiguous rows,
/// which is where the bulk of the `O(n^2 m)` arithmetic lands and where
/// the compiler can vectorize freely.
const SOLVE_BLOCK: usize = 32;

/// Column-tile width of the matrix-RHS solves. [`solve_lower_mat`] and
/// [`solve_upper_mat`] sweep their right-hand side one tile of columns at
/// a time, so the `n x SOLVE_TILE` slice being solved stays cache-resident
/// across every row panel instead of the whole `n x m` right-hand side
/// streaming from memory once per panel. Batched callers (the GP
/// posterior) build their right-hand side in tiles of this width.
pub const SOLVE_TILE: usize = 64;

/// Checks the shape contract shared by the strided kernels and returns
/// the tile width.
fn tile_width(l: &PackedLower, x: &[f64], stride: usize, cols: &Range<usize>, what: &str) -> usize {
    assert!(cols.start <= cols.end && cols.end <= stride, "{what}: column range outside stride");
    assert_eq!(x.len(), l.dim() * stride, "{what}: rhs length must be rows * stride");
    cols.end - cols.start
}

/// Solves `L X = B` in place on the columns `cols` of a row-major
/// right-hand side `x` with `l.dim()` rows and row stride `stride`
/// (forward substitution). Columns outside `cols` are left untouched.
///
/// This is the panel kernel behind [`solve_lower_mat`] and the tiled GP
/// posterior. Rows are processed in panels of `SOLVE_BLOCK` rows, with
/// split borrows separating already-final rows from the rows being
/// updated so the inner loops are clone-free [`crate::vecops::axpy`]
/// sweeps over contiguous row slices. Every element keeps the scalar
/// recurrence of [`solve_lower`] (ascending `j`, zero coefficients
/// skipped, then one division by the diagonal), so the result is
/// bit-for-bit that of column-wise vector solves, whatever the stride or
/// column range.
///
/// # Panics
/// Panics if `cols` does not fit in `stride` or
/// `x.len() != l.dim() * stride`.
pub fn solve_lower_strided(l: &PackedLower, x: &mut [f64], stride: usize, cols: Range<usize>) {
    let w = tile_width(l, x, stride, &cols, "solve_lower_strided");
    let n = l.dim();
    let c0 = cols.start;
    let mut bs = 0;
    while bs < n {
        let be = (bs + SOLVE_BLOCK).min(n);
        // Panel update: X[bs..be] -= L[bs..be, 0..bs] * X[0..bs]. Every
        // referenced X row is final, so this is a dense block product.
        let (done, active) = x.split_at_mut(bs * stride);
        for i in bs..be {
            let lrow = &l.row(i)[..bs];
            let xi = (i - bs) * stride + c0;
            let xrow = &mut active[xi..xi + w];
            for (j, &lij) in lrow.iter().enumerate() {
                if lij == 0.0 {
                    continue;
                }
                let xj = j * stride + c0;
                crate::vecops::axpy(-lij, &done[xj..xj + w], xrow);
            }
        }
        // Diagonal block: forward substitution within the panel.
        for i in bs..be {
            let (done, active) = x.split_at_mut(i * stride);
            let xrow = &mut active[c0..c0 + w];
            let lrow = l.row(i);
            for (j, &lij) in lrow[..i].iter().enumerate().skip(bs) {
                if lij == 0.0 {
                    continue;
                }
                let xj = j * stride + c0;
                crate::vecops::axpy(-lij, &done[xj..xj + w], xrow);
            }
            let diag = lrow[i];
            for v in xrow.iter_mut() {
                *v /= diag;
            }
        }
        bs = be;
    }
}

/// Solves `L^T X = B` in place on the columns `cols` of a row-major
/// right-hand side `x` with `l.dim()` rows and row stride `stride`
/// (backward substitution against the transpose). The mirror image of
/// [`solve_lower_strided`], sweeping panels bottom-up. Each element
/// subtracts the rows below its panel in ascending order, then the rows
/// inside its panel, skipping zero coefficients, then divides once by
/// the diagonal: the same sequence whatever the stride or column range
/// (but not that of [`solve_upper`], which runs all rows in one
/// ascending sweep).
///
/// # Panics
/// Panics if `cols` does not fit in `stride` or
/// `x.len() != l.dim() * stride`.
fn solve_upper_strided(l: &PackedLower, x: &mut [f64], stride: usize, cols: Range<usize>) {
    let w = tile_width(l, x, stride, &cols, "solve_upper_strided");
    let n = l.dim();
    let c0 = cols.start;
    let mut be = n;
    while be > 0 {
        let bs = be.saturating_sub(SOLVE_BLOCK);
        // Panel update: X[bs..be] -= L[be.., bs..be]^T * X[be..], reading
        // column i of L below the diagonal as row i of L^T.
        {
            let (head, done) = x.split_at_mut(be * stride);
            let active = &mut head[bs * stride..];
            for j in be..n {
                let lrow = l.row(j);
                let xj = (j - be) * stride + c0;
                let xj = &done[xj..xj + w];
                for (i, &lji) in lrow[..be].iter().enumerate().skip(bs) {
                    if lji == 0.0 {
                        continue;
                    }
                    let xi = (i - bs) * stride + c0;
                    crate::vecops::axpy(-lji, xj, &mut active[xi..xi + w]);
                }
            }
        }
        // Diagonal block: backward substitution within the panel.
        for i in (bs..be).rev() {
            let (head, rest) = x.split_at_mut((i + 1) * stride);
            let xi = i * stride + c0;
            let xrow = &mut head[xi..xi + w];
            for j in (i + 1)..be {
                let lji = l[(j, i)];
                if lji == 0.0 {
                    continue;
                }
                let xj = (j - i - 1) * stride + c0;
                crate::vecops::axpy(-lji, &rest[xj..xj + w], xrow);
            }
            let diag = l[(i, i)];
            for v in xrow.iter_mut() {
                *v /= diag;
            }
        }
        be = bs;
    }
}

/// Runs a strided kernel over `b` one [`SOLVE_TILE`]-column tile at a
/// time and returns the solved copy.
fn solve_tiled(
    l: &PackedLower,
    b: &Mat,
    kernel: fn(&PackedLower, &mut [f64], usize, Range<usize>),
) -> Mat {
    let (n, m) = (b.rows(), b.cols());
    let mut x = b.as_slice().to_vec();
    for c0 in (0..m).step_by(SOLVE_TILE) {
        kernel(l, &mut x, m, c0..(c0 + SOLVE_TILE).min(m));
    }
    Mat::from_vec(n, m, x)
}

/// Solves `L X = B` where `B` is `n x m` (forward substitution with a
/// matrix right-hand side). Returns an `n x m` matrix.
///
/// The columns are solved one [`SOLVE_TILE`]-wide tile at a time by
/// [`solve_lower_strided`]; results are bit-for-bit the same as
/// column-wise [`solve_lower`] calls.
///
/// # Panics
/// Panics if `b.rows() != l.dim()`.
pub fn solve_lower_mat(l: &PackedLower, b: &Mat) -> Mat {
    assert_eq!(b.rows(), l.dim(), "solve_lower_mat: rhs rows mismatch");
    solve_tiled(l, b, solve_lower_strided)
}

/// Solves `L^T X = B` where `B` is `n x m` (backward substitution against
/// the transpose, with a matrix right-hand side). Returns an `n x m`
/// matrix, tiled like [`solve_lower_mat`] over the backward panel kernel;
/// bit-for-bit the same as the untiled panel solve.
///
/// # Panics
/// Panics if `b.rows() != l.dim()`.
pub fn solve_upper_mat(l: &PackedLower, b: &Mat) -> Mat {
    assert_eq!(b.rows(), l.dim(), "solve_upper_mat: rhs rows mismatch");
    solve_tiled(l, b, solve_upper_strided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn lower3_dense() -> Mat {
        Mat::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[4.0, 5.0, 6.0]])
    }

    fn lower3() -> PackedLower {
        PackedLower::from_dense(&lower3_dense())
    }

    #[test]
    fn forward_substitution() {
        let x = solve_lower(&lower3(), &[2.0, 5.0, 32.0]);
        // Verify by multiplying back.
        let b = lower3_dense().matvec(&x);
        for (bi, want) in b.iter().zip([2.0, 5.0, 32.0]) {
            assert!((bi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_substitution() {
        let x = solve_upper(&lower3(), &[1.0, 2.0, 3.0]);
        let lt = lower3_dense().transpose();
        let b = lt.matvec(&x);
        for (bi, want) in b.iter().zip([1.0, 2.0, 3.0]) {
            assert!((bi - want).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_rhs_matches_columnwise_vector_solves() {
        let l = lower3();
        let b = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[3.0, 2.0]]);
        let x = solve_lower_mat(&l, &b);
        for col in 0..2 {
            let bcol: Vec<f64> = (0..3).map(|r| b[(r, col)]).collect();
            let xcol = solve_lower(&l, &bcol);
            for r in 0..3 {
                assert!((x[(r, col)] - xcol[r]).abs() < 1e-12, "mismatch at ({r},{col})");
            }
        }
    }

    #[test]
    fn identity_solves_are_identity() {
        let i = PackedLower::from_dense(&Mat::identity(4));
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve_lower(&i, &b), b);
        assert_eq!(solve_upper(&i, &b), b);
    }

    #[test]
    fn upper_matrix_rhs_matches_columnwise_vector_solves() {
        let l = lower3();
        let b = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[3.0, 2.0]]);
        let x = solve_upper_mat(&l, &b);
        for col in 0..2 {
            let bcol: Vec<f64> = (0..3).map(|r| b[(r, col)]).collect();
            let xcol = solve_upper(&l, &bcol);
            for r in 0..3 {
                assert!((x[(r, col)] - xcol[r]).abs() < 1e-12, "mismatch at ({r},{col})");
            }
        }
    }

    /// The blocked path must agree with the scalar recurrence when `n`
    /// spans several panels (exercises the panel update, not just the
    /// diagonal block).
    #[test]
    fn blocked_solves_match_vector_solves_across_panels() {
        let n = 83; // > 2 * SOLVE_BLOCK, not a multiple of the block size
        let l = PackedLower::from_dense(&dense_lower(n));
        let m = 5;
        let b = Mat::from_fn(n, m, |i, j| ((i + 2 * j) % 13) as f64 * 0.25 - 1.0);
        let lo = solve_lower_mat(&l, &b);
        let up = solve_upper_mat(&l, &b);
        for col in 0..m {
            let bcol: Vec<f64> = (0..n).map(|r| b[(r, col)]).collect();
            let wlo = solve_lower(&l, &bcol);
            let wup = solve_upper(&l, &bcol);
            for r in 0..n {
                assert_eq!(lo[(r, col)], wlo[r], "forward bit mismatch at ({r},{col})");
                assert!((up[(r, col)] - wup[r]).abs() < 1e-10, "backward mismatch at ({r},{col})");
            }
        }
    }

    /// A dense lower-triangular factor over `n` rows (several
    /// `SOLVE_BLOCK` panels when `n` is large enough) with one exact-zero
    /// coefficient per few rows, so the `lij == 0` skip is exercised.
    fn dense_lower(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + (i as f64) * 0.01
            } else {
                ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5
            }
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward substitution against a dense (`n x n`) factor, as
    /// [`solve_lower`] computed it before the factor was packed.
    fn dense_solve_lower(l: &Mat, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        for i in 0..l.rows() {
            let row = l.row(i);
            let mut acc = x[i];
            for j in 0..i {
                acc -= row[j] * x[j];
            }
            x[i] = acc / row[i];
        }
        x
    }

    /// Backward substitution against a dense factor, as [`solve_upper`]
    /// computed it before the factor was packed.
    fn dense_solve_upper(l: &Mat, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= l[(j, i)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        x
    }

    /// The untiled blocked backward solve against a dense factor, as it
    /// was before column tiling and packing: one pass over all `m`
    /// columns per row panel. The reference the tiled [`solve_upper_mat`]
    /// must reproduce bit for bit (it does not equal column-wise
    /// [`solve_upper`] bit for bit, because the panel order visits rows
    /// below the panel before rows inside it).
    fn untiled_solve_upper_mat(l: &Mat, b: &Mat) -> Mat {
        let n = l.rows();
        let m = b.cols();
        let mut x = b.clone();
        let mut be = n;
        while be > 0 {
            let bs = be.saturating_sub(SOLVE_BLOCK);
            {
                let (head, done) = x.split_rows_mut(be);
                let active = &mut head[bs * m..];
                for j in be..n {
                    let lrow = l.row(j);
                    let xj = &done[(j - be) * m..(j - be + 1) * m];
                    for i in bs..be {
                        let lji = lrow[i];
                        if lji == 0.0 {
                            continue;
                        }
                        crate::vecops::axpy(-lji, xj, &mut active[(i - bs) * m..(i - bs + 1) * m]);
                    }
                }
            }
            for i in (bs..be).rev() {
                let (head, rest) = x.split_rows_mut(i + 1);
                let xrow = &mut head[i * m..];
                for j in (i + 1)..be {
                    let lji = l[(j, i)];
                    if lji == 0.0 {
                        continue;
                    }
                    crate::vecops::axpy(-lji, &rest[(j - i - 1) * m..(j - i) * m], xrow);
                }
                let diag = l[(i, i)];
                for v in xrow.iter_mut() {
                    *v /= diag;
                }
            }
            be = bs;
        }
        x
    }

    /// Column-wise [`dense_solve_lower`] over every column of `b`.
    fn dense_solve_lower_mat(l: &Mat, b: &Mat) -> Mat {
        let (n, m) = (b.rows(), b.cols());
        let mut x = Mat::zeros(n, m);
        for col in 0..m {
            let bcol: Vec<f64> = (0..n).map(|r| b[(r, col)]).collect();
            for (r, v) in dense_solve_lower(l, &bcol).into_iter().enumerate() {
                x[(r, col)] = v;
            }
        }
        x
    }

    /// The vector solves against the packed factor repeat the dense
    /// solves bit for bit: packing changes where entries live, not the
    /// arithmetic on them.
    #[test]
    fn packed_vector_solves_are_bit_identical_to_dense() {
        for n in [1, SOLVE_BLOCK, 3 * SOLVE_BLOCK + 5] {
            let dense = dense_lower(n);
            let l = PackedLower::from_dense(&dense);
            let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 17) as f64 * 0.125 - 1.0).collect();
            assert_eq!(bits(&solve_lower(&l, &b)), bits(&dense_solve_lower(&dense, &b)), "n = {n}");
            assert_eq!(bits(&solve_upper(&l, &b)), bits(&dense_solve_upper(&dense, &b)), "n = {n}");
        }
    }

    /// Column counts around the tile width, plus the learner's full
    /// candidate count.
    const TILE_EDGE_COLS: [usize; 5] = [1, SOLVE_TILE - 1, SOLVE_TILE, SOLVE_TILE + 1, 2100];

    #[test]
    fn tiled_forward_solve_is_bit_identical_to_dense_vector_solves() {
        let n = 3 * SOLVE_BLOCK + 5;
        let dense = dense_lower(n);
        let l = PackedLower::from_dense(&dense);
        for m in TILE_EDGE_COLS {
            let b = Mat::from_fn(n, m, |i, j| ((i * 5 + 3 * j) % 17) as f64 * 0.125 - 1.0);
            let x = solve_lower_mat(&l, &b);
            let want = dense_solve_lower_mat(&dense, &b);
            assert_eq!(bits(x.as_slice()), bits(want.as_slice()), "m = {m}");
        }
    }

    #[test]
    fn tiled_backward_solve_is_bit_identical_to_the_untiled_dense_solve() {
        let n = 3 * SOLVE_BLOCK + 5;
        let dense = dense_lower(n);
        let l = PackedLower::from_dense(&dense);
        for m in TILE_EDGE_COLS {
            let b = Mat::from_fn(n, m, |i, j| ((i * 5 + 3 * j) % 17) as f64 * 0.125 - 1.0);
            let tiled = solve_upper_mat(&l, &b);
            let untiled = untiled_solve_upper_mat(&dense, &b);
            assert_eq!(bits(tiled.as_slice()), bits(untiled.as_slice()), "m = {m}");
        }
    }

    /// The strided kernels solve exactly the requested columns of a wider
    /// buffer, bit-identically to the dense references solving those
    /// columns alone, and leave every other column untouched.
    #[test]
    fn strided_kernels_touch_only_their_column_range() {
        let n = 2 * SOLVE_BLOCK + 3;
        let dense = dense_lower(n);
        let l = PackedLower::from_dense(&dense);
        let stride = 11;
        let cols = 3..8;
        let b = Mat::from_fn(n, stride, |i, j| ((i * 3 + 7 * j) % 13) as f64 * 0.25 - 1.5);
        let alone = Mat::from_fn(n, cols.len(), |i, j| b[(i, cols.start + j)]);
        type Kernel = fn(&PackedLower, &mut [f64], usize, Range<usize>);
        type Reference = fn(&Mat, &Mat) -> Mat;
        let pairs: [(Kernel, Reference); 2] = [
            (solve_lower_strided, dense_solve_lower_mat),
            (solve_upper_strided, untiled_solve_upper_mat),
        ];
        for (kernel, reference) in pairs {
            let mut x = b.as_slice().to_vec();
            kernel(&l, &mut x, stride, cols.clone());
            let want = reference(&dense, &alone);
            for i in 0..n {
                for j in 0..stride {
                    let got = x[i * stride + j];
                    let expect =
                        if cols.contains(&j) { want[(i, j - cols.start)] } else { b[(i, j)] };
                    assert_eq!(got.to_bits(), expect.to_bits(), "({i},{j})");
                }
            }
        }
    }
}
