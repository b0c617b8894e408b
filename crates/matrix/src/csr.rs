//! Compressed sparse row storage (the paper's Algorithm 1 input format).

use crate::csc::Csc;
use crate::dcsr::Dcsr;
use crate::error::MatrixError;
use crate::scalar::Scalar;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`Csr::try_new`] and preserved by every method):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == vals.len()`,
/// * `row_ptr` is non-decreasing,
/// * column indices within each row are strictly increasing and `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<S> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<S>,
}

impl<S: Scalar> Csr<S> {
    /// Build a CSR matrix, validating all structural invariants.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<S>,
    ) -> Result<Self, MatrixError> {
        if row_ptr.len() != nrows + 1 {
            return Err(MatrixError::MalformedPointer("row_ptr length must be nrows + 1"));
        }
        if row_ptr[0] != 0 {
            return Err(MatrixError::MalformedPointer("row_ptr must start at 0"));
        }
        if *row_ptr.last().expect("non-empty by construction") != col_idx.len() {
            return Err(MatrixError::MalformedPointer("row_ptr must end at nnz"));
        }
        if col_idx.len() != vals.len() {
            return Err(MatrixError::DimensionMismatch {
                what: "col_idx vs vals",
                expected: col_idx.len(),
                actual: vals.len(),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(MatrixError::MalformedPointer("row_ptr must be non-decreasing"));
            }
        }
        for i in 0..nrows {
            let lane = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in lane.windows(2) {
                if w[1] <= w[0] {
                    return Err(MatrixError::UnsortedIndices { lane: i });
                }
            }
            if let Some(&last) = lane.last() {
                if last >= ncols {
                    return Err(MatrixError::IndexOutOfBounds {
                        what: "col_idx",
                        index: last,
                        bound: ncols,
                    });
                }
            }
        }
        Ok(Csr { nrows, ncols, row_ptr, col_idx, vals })
    }

    /// Build without validation. Callers must uphold the invariants listed on
    /// the type; used on hot preprocessing paths where the inputs were just
    /// constructed in sorted order.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<S>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert_eq!(col_idx.len(), vals.len());
        Csr { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// An `nrows × ncols` matrix with no stored entries.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: Vec::new(), vals: Vec::new() }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![S::ONE; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (`len == nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    pub fn vals(&self) -> &[S] {
        &self.vals
    }

    /// Mutable value array (structure stays frozen).
    pub fn vals_mut(&mut self) -> &mut [S] {
        &mut self.vals
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[S]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterate over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, S)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Value at `(i, j)` if stored (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> Option<S> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|k| vals[k])
    }

    /// `y = A x` (dense `x`), serial reference implementation.
    pub fn spmv_dense(&self, x: &[S]) -> Result<Vec<S>, MatrixError> {
        if x.len() != self.ncols {
            return Err(MatrixError::DimensionMismatch {
                what: "spmv input vector",
                expected: self.ncols,
                actual: x.len(),
            });
        }
        let mut y = vec![S::ZERO; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = S::ZERO;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Transpose into CSC *views of the same matrix* — `O(nnz)` counting sort.
    /// The CSC shares the numerical content; `A` in CSR equals `A` in CSC.
    pub fn to_csc(&self) -> Csc<S> {
        self.to_csc_with(|_, _| {})
    }

    /// [`Csr::to_csc`], calling `placed(p, q)` as the entry at CSR position
    /// `p` lands at CSC position `q`, so per-entry data can follow the
    /// entries without a second pass.
    pub fn to_csc_with(&self, mut placed: impl FnMut(usize, usize)) -> Csc<S> {
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &j in &self.col_idx {
            col_counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            col_counts[j + 1] += col_counts[j];
        }
        let col_ptr = col_counts.clone();
        let nnz = self.nnz();
        let mut row_idx = vec![0usize; nnz];
        let mut vals = vec![S::ZERO; nnz];
        let mut next = col_counts;
        for i in 0..self.nrows {
            let (cols, v) = self.row(i);
            for (k, (&j, &val)) in cols.iter().zip(v).enumerate() {
                let dst = next[j];
                row_idx[dst] = i;
                vals[dst] = val;
                placed(self.row_ptr[i] + k, dst);
                next[j] += 1;
            }
        }
        Csc::from_parts_unchecked(self.nrows, self.ncols, col_ptr, row_idx, vals)
    }

    /// The transposed matrix, still in CSR (`B = Aᵀ`).
    pub fn transpose(&self) -> Csr<S> {
        let csc = self.to_csc();
        // Aᵀ in CSR has exactly A's CSC arrays reinterpreted.
        Csr::from_parts_unchecked(
            self.ncols,
            self.nrows,
            csc.col_ptr().to_vec(),
            csc.row_idx().to_vec(),
            csc.vals().to_vec(),
        )
    }

    /// Compress into [`Dcsr`], dropping empty rows from the pointer array.
    pub fn to_dcsr(&self) -> Dcsr<S> {
        Dcsr::from_csr(self)
    }

    /// Number of rows with no stored entries.
    pub fn empty_rows(&self) -> usize {
        (0..self.nrows).filter(|&i| self.row_nnz(i) == 0).count()
    }

    /// Extract the sub-matrix of `rows × cols` (half-open ranges), reindexed
    /// to start at zero. Entries outside `cols` are dropped.
    pub fn submatrix(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Csr<S> {
        let nrows = rows.len();
        let ncols = cols.len();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in rows {
            let (c, v) = self.row(i);
            // Rows are sorted, so the column window is a contiguous slice.
            let lo = c.partition_point(|&j| j < cols.start);
            let hi = c.partition_point(|&j| j < cols.end);
            for k in lo..hi {
                col_idx.push(c[k] - cols.start);
                vals.push(v[k]);
            }
            row_ptr.push(col_idx.len());
        }
        Csr { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// `true` if every entry lies on or below the diagonal.
    pub fn is_lower_triangular(&self) -> bool {
        self.iter().all(|(i, j, _)| j <= i)
    }

    /// `true` if every entry lies on or above the diagonal.
    pub fn is_upper_triangular(&self) -> bool {
        self.iter().all(|(i, j, _)| j >= i)
    }

    /// `true` if square, lower triangular, and every diagonal entry is stored
    /// and nonzero — the precondition of every SpTRSV kernel in the suite.
    pub fn is_solvable_lower(&self) -> bool {
        self.nrows == self.ncols
            && (0..self.nrows).all(|i| {
                let (cols, vals) = self.row(i);
                match cols.last() {
                    Some(&j) => j == i && vals[cols.len() - 1] != S::ZERO,
                    None => false,
                }
            })
    }

    /// Memory footprint of the three arrays in bytes (used by the GPU model).
    pub fn bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.vals.len() * S::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr<f64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        Csr::try_new(3, 3, vec![0, 2, 3, 5], vec![0, 2, 1, 0, 2], vec![1., 2., 3., 4., 5.]).unwrap()
    }

    #[test]
    fn try_new_accepts_valid() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), Some(2.0));
        assert_eq!(a.get(0, 1), None);
    }

    #[test]
    fn try_new_rejects_bad_ptr_len() {
        let r = Csr::<f64>::try_new(3, 3, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(r, Err(MatrixError::MalformedPointer(_))));
    }

    #[test]
    fn try_new_rejects_nonzero_start() {
        let r = Csr::<f64>::try_new(1, 1, vec![1, 1], vec![], vec![]);
        assert!(matches!(r, Err(MatrixError::MalformedPointer(_))));
    }

    #[test]
    fn try_new_rejects_decreasing_ptr() {
        let r = Csr::<f64>::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1., 2.]);
        assert!(r.is_err());
    }

    #[test]
    fn try_new_rejects_unsorted_cols() {
        let r = Csr::<f64>::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1., 2.]);
        assert!(matches!(r, Err(MatrixError::UnsortedIndices { lane: 0 })));
    }

    #[test]
    fn try_new_rejects_duplicate_cols() {
        let r = Csr::<f64>::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1., 2.]);
        assert!(matches!(r, Err(MatrixError::UnsortedIndices { lane: 0 })));
    }

    #[test]
    fn try_new_rejects_col_out_of_bounds() {
        let r = Csr::<f64>::try_new(1, 2, vec![0, 1], vec![5], vec![1.]);
        assert!(matches!(r, Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn identity_is_solvable() {
        let i = Csr::<f64>::identity(4);
        assert!(i.is_solvable_lower());
        assert!(i.is_lower_triangular());
        assert!(i.is_upper_triangular());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn spmv_dense_matches_hand_computation() {
        let a = small();
        let y = a.spmv_dense(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn spmv_rejects_wrong_length() {
        let a = small();
        assert!(a.spmv_dense(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn to_csc_roundtrip_preserves_entries() {
        let a = small();
        let csc = a.to_csc();
        assert_eq!(csc.nnz(), a.nnz());
        let mut tri_a: Vec<_> = a.iter().collect();
        let mut tri_c: Vec<_> = csc.iter().collect();
        tri_a.sort_by_key(|&(i, j, _)| (i, j));
        tri_c.sort_by_key(|&(i, j, _)| (i, j));
        assert_eq!(tri_a, tri_c);
    }

    #[test]
    fn to_csc_with_reports_where_each_entry_lands() {
        let a = small();
        let mut moved = vec![None; a.nnz()];
        let csc = a.to_csc_with(|p, q| moved[q] = Some(p));
        assert_eq!(moved, [Some(0), Some(3), Some(2), Some(1), Some(4)]);
        for (q, p) in moved.into_iter().enumerate() {
            assert_eq!(csc.vals()[q], a.vals[p.unwrap()]);
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_entries() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(0, 2), Some(4.0));
    }

    #[test]
    fn submatrix_extracts_window() {
        let a = small();
        let s = a.submatrix(1..3, 0..2);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), Some(3.0));
        assert_eq!(s.get(1, 0), Some(4.0));
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn submatrix_of_everything_is_self() {
        let a = small();
        assert_eq!(a.submatrix(0..3, 0..3), a);
    }

    #[test]
    fn empty_rows_counts() {
        let a = Csr::<f64>::try_new(3, 3, vec![0, 0, 1, 1], vec![0], vec![1.0]).unwrap();
        assert_eq!(a.empty_rows(), 2);
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::<f64>::zero(4, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.empty_rows(), 4);
        assert_eq!(z.spmv_dense(&[1.0, 1.0]).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn solvable_lower_requires_diagonal() {
        // Missing diagonal at row 1.
        let a = Csr::<f64>::try_new(2, 2, vec![0, 1, 2], vec![0, 0], vec![1., 1.]).unwrap();
        assert!(!a.is_solvable_lower());
        let b = Csr::<f64>::try_new(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1., 1., 1.]).unwrap();
        assert!(b.is_solvable_lower());
    }

    #[test]
    fn bytes_accounts_for_scalar_width() {
        let a64 = Csr::<f64>::identity(8);
        let a32 = Csr::<f32>::identity(8);
        assert_eq!(a64.bytes() - a32.bytes(), 8 * (8 - 4));
    }
}
