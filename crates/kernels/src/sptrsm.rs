//! Multi-right-hand-side triangular solve (SpTRSM).
//!
//! The paper motivates block SpTRSV with "direct solvers with multiple
//! right-hand sides" and amortises preprocessing over many solves (its
//! Table 5). `B` is an `n × k` dense [`MultiVector`] stored column-major;
//! the executors solve it in row-interleaved *panels* of `W ∈ {8, 4, 2, 1}`
//! columns ([`crate::exec::panels`]), which [`MultiVector::gather_panel`]
//! and [`MultiVector::scatter_panel`] transpose in and out. Every panel
//! executor loads each nonzero once per panel and keeps each column
//! bit-identical to its single-column solve; [`sptrsm_serial`] is the
//! column-by-column reference.

use recblock_matrix::{Csr, MatrixError, Scalar};
use std::ops::Range;

/// Dense `n × k` multi-vector, column-major (`col(j)` is contiguous).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector<S> {
    n: usize,
    k: usize,
    data: Vec<S>,
}

impl<S: Scalar> MultiVector<S> {
    /// Zero-filled `n × k` multi-vector.
    pub fn zeros(n: usize, k: usize) -> Self {
        MultiVector { n, k, data: vec![S::ZERO; n * k] }
    }

    /// Build from column-major data (`data.len() == n·k`).
    pub fn from_columns(n: usize, k: usize, data: Vec<S>) -> Result<Self, MatrixError> {
        if data.len() != n * k {
            return Err(MatrixError::DimensionMismatch {
                what: "multivector data",
                expected: n * k,
                actual: data.len(),
            });
        }
        Ok(MultiVector { n, k, data })
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (right-hand sides).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[S] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> S {
        self.data[j * self.n + i]
    }

    /// The whole column-major backing slice (column `j` occupies
    /// `j*n..(j+1)*n`).
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable column-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Set entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        self.data[j * self.n + i] = v;
    }

    /// Re-shape to `n × k` in place. The backing allocation is kept and
    /// only grows, so a buffer cycled through batch shapes stops
    /// allocating once it has held the largest. Entries are left as the
    /// old buffer held them (new ones are zero); callers overwrite them.
    pub fn reshape(&mut self, n: usize, k: usize) {
        self.data.resize(n * k, S::ZERO);
        self.n = n;
        self.k = k;
    }

    /// Transpose columns `cols` into the row-interleaved panel `panel`
    /// (`W = cols.len()` entries per row): `panel[r·W + j]` receives entry
    /// `(perm[r], cols.start + j)`, or `(r, cols.start + j)` without a
    /// permutation (`perm[new] = old`, the gather direction).
    ///
    /// # Panics
    /// If `cols.len() != W`, `cols` exceeds `k`, or `panel` (or `perm`)
    /// does not hold `n` rows.
    pub fn gather_panel<const W: usize>(
        &self,
        cols: Range<usize>,
        perm: Option<&[usize]>,
        panel: &mut [S],
    ) {
        self.check_panel::<W>(&cols, perm, panel.len());
        let src: [&[S]; W] = std::array::from_fn(|j| self.col(cols.start + j));
        for (r, dst) in panel.chunks_exact_mut(W).enumerate() {
            let old = perm.map_or(r, |p| p[r]);
            for (d, col) in dst.iter_mut().zip(&src) {
                *d = col[old];
            }
        }
    }

    /// The inverse of [`MultiVector::gather_panel`]: entry
    /// `(perm[r], cols.start + j)` (or `(r, cols.start + j)`) receives
    /// `panel[r·W + j]`.
    ///
    /// # Panics
    /// As [`MultiVector::gather_panel`].
    pub fn scatter_panel<const W: usize>(
        &mut self,
        cols: Range<usize>,
        perm: Option<&[usize]>,
        panel: &[S],
    ) {
        self.check_panel::<W>(&cols, perm, panel.len());
        let n = self.n;
        let mut dst: [&mut [S]; W] = {
            let mut rest = &mut self.data[cols.start * n..cols.end * n];
            std::array::from_fn(|_| {
                let (col, tail) = std::mem::take(&mut rest).split_at_mut(n);
                rest = tail;
                col
            })
        };
        for (r, src) in panel.chunks_exact(W).enumerate() {
            let old = perm.map_or(r, |p| p[r]);
            for (col, &v) in dst.iter_mut().zip(src) {
                col[old] = v;
            }
        }
    }

    /// The shape check shared by the panel transposes.
    fn check_panel<const W: usize>(&self, cols: &Range<usize>, perm: Option<&[usize]>, len: usize) {
        assert!(
            cols.len() == W
                && cols.end <= self.k
                && len == self.n * W
                && perm.is_none_or(|p| p.len() == self.n),
            "panel shape does not match the multivector"
        );
    }
}

/// Solve `L X = B` column-by-column with the serial kernel (reference).
pub fn sptrsm_serial<S: Scalar>(
    l: &Csr<S>,
    b: &MultiVector<S>,
) -> Result<MultiVector<S>, MatrixError> {
    if b.n() != l.nrows() {
        return Err(MatrixError::DimensionMismatch {
            what: "sptrsm rhs rows",
            expected: l.nrows(),
            actual: b.n(),
        });
    }
    let mut x = MultiVector::zeros(b.n(), b.k());
    for j in 0..b.k() {
        let xj = crate::sptrsv::serial_csr(l, b.col(j))?;
        x.col_mut(j).copy_from_slice(&xj);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{panels, ExecPool};
    use crate::sptrsv::LevelSetSolver;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn rhs(n: usize, k: usize) -> MultiVector<f64> {
        let data: Vec<f64> = (0..n * k).map(|i| ((i * 31 % 97) as f64) - 48.0).collect();
        MultiVector::from_columns(n, k, data).unwrap()
    }

    /// Solve every column of `b` through the level-set panel executor.
    fn solve_panels(
        s: &LevelSetSolver<f64>,
        b: &MultiVector<f64>,
        x: &mut MultiVector<f64>,
        pool: &ExecPool,
    ) -> Result<(), MatrixError> {
        fn one<const W: usize>(
            s: &LevelSetSolver<f64>,
            b: &MultiVector<f64>,
            x: &mut MultiVector<f64>,
            cols: Range<usize>,
            pool: &ExecPool,
        ) -> Result<(), MatrixError> {
            let n = b.n();
            let (mut bp, mut xp) = (vec![0.0; n * W], vec![0.0; n * W]);
            b.gather_panel::<W>(cols.clone(), None, &mut bp);
            s.solve_panel::<W>(&bp, &mut xp, pool)?;
            x.scatter_panel::<W>(cols, None, &xp);
            Ok(())
        }
        for cols in panels(b.k()) {
            match cols.len() {
                8 => one::<8>(s, b, x, cols, pool)?,
                4 => one::<4>(s, b, x, cols, pool)?,
                2 => one::<2>(s, b, x, cols, pool)?,
                _ => one::<1>(s, b, x, cols, pool)?,
            }
        }
        Ok(())
    }

    #[test]
    fn multivector_accessors() {
        let mut m = MultiVector::<f64>::zeros(3, 2);
        m.set(1, 1, 5.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.col(1), &[0.0, 5.0, 0.0]);
        m.col_mut(0)[2] = 7.0;
        assert_eq!(m.get(2, 0), 7.0);
    }

    #[test]
    fn from_columns_validates_len() {
        assert!(MultiVector::<f64>::from_columns(3, 2, vec![0.0; 5]).is_err());
    }

    #[test]
    fn reshape_keeps_capacity() {
        let mut m = MultiVector::<f64>::zeros(100, 8);
        let cap = m.data.capacity();
        m.reshape(100, 3);
        assert_eq!((m.n(), m.k(), m.as_slice().len()), (100, 3, 300));
        m.reshape(50, 16);
        assert_eq!((m.n(), m.k(), m.as_slice().len()), (50, 16, 800));
        assert_eq!(m.data.capacity(), cap, "shapes within the first size reuse its buffer");
    }

    #[test]
    fn panel_transposes_roundtrip_through_a_permutation() {
        let b = rhs(7, 5);
        let perm = [3usize, 0, 6, 1, 5, 2, 4];
        let mut panel = vec![0.0; 7 * 4];
        b.gather_panel::<4>(1..5, Some(&perm), &mut panel);
        for r in 0..7 {
            for j in 0..4 {
                assert_eq!(panel[r * 4 + j], b.get(perm[r], 1 + j));
            }
        }
        let mut back = MultiVector::zeros(7, 5);
        back.scatter_panel::<4>(1..5, Some(&perm), &panel);
        for j in 1..5 {
            assert_eq!(back.col(j), b.col(j));
        }
        assert_eq!(back.col(0), &[0.0; 7], "columns outside the panel are untouched");
    }

    #[test]
    fn serial_and_panel_agree() {
        let l = generate::random_lower::<f64>(400, 4.0, 81);
        let s = LevelSetSolver::new(l.clone()).unwrap();
        let b = rhs(400, 6);
        let x1 = sptrsm_serial(&l, &b).unwrap();
        let mut x2 = MultiVector::zeros(400, 6);
        solve_panels(&s, &b, &mut x2, ExecPool::global()).unwrap();
        for j in 0..6 {
            assert_eq!(x1.col(j), x2.col(j), "column {j} must be bit-identical");
        }
    }

    #[test]
    fn pooled_panels_match_serial_and_validate_shape() {
        let l = generate::grid2d::<f64>(15, 15, 84);
        let s = LevelSetSolver::new(l.clone()).unwrap();
        let b = rhs(225, 4);
        let pool = ExecPool::new(2);
        let mut x = MultiVector::zeros(225, 4);
        solve_panels(&s, &b, &mut x, &pool).unwrap();
        assert_eq!(x, sptrsm_serial(&l, &b).unwrap());
        let (bp, mut short) = (vec![0.0; 225 * 4], vec![0.0; 225 * 3]);
        assert!(s.solve_panel::<4>(&bp, &mut short, &pool).is_err());
    }

    #[test]
    fn each_column_solves_its_system() {
        let l = generate::grid2d::<f64>(12, 12, 82);
        let s = LevelSetSolver::new(l.clone()).unwrap();
        let b = rhs(144, 3);
        let mut x = MultiVector::zeros(144, 3);
        solve_panels(&s, &b, &mut x, ExecPool::global()).unwrap();
        for j in 0..3 {
            let r = recblock_matrix::vector::residual_inf(&l, x.col(j), b.col(j)).unwrap();
            assert!(r < 1e-12, "column {j} residual {r}");
        }
    }

    #[test]
    fn rejects_mismatched_rows() {
        let l = Csr::<f64>::identity(4);
        let b = MultiVector::<f64>::zeros(3, 2);
        assert!(sptrsm_serial(&l, &b).is_err());
        let s = LevelSetSolver::new(l).unwrap();
        assert!(s.solve_panel::<2>(&[0.0; 6], &mut [0.0; 6], ExecPool::global()).is_err());
    }

    #[test]
    fn single_column_matches_sptrsv() {
        let l = generate::chain::<f64>(100, 83);
        let s = LevelSetSolver::new(l.clone()).unwrap();
        let b = rhs(100, 1);
        let mut x = MultiVector::zeros(100, 1);
        solve_panels(&s, &b, &mut x, ExecPool::global()).unwrap();
        let x_ref = crate::sptrsv::serial_csr(&l, b.col(0)).unwrap();
        assert!(max_rel_diff(x.col(0), &x_ref) < 1e-13);
    }
}
