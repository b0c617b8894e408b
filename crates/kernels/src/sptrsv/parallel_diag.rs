//! The "completely parallel" SpTRSV kernel.
//!
//! Section 3.4 of the paper, sparsity structure (1): after recursive
//! level-set reordering, many small triangular blocks contain *only* a
//! diagonal, so every component solves independently with perfect
//! parallelism (`SPTRSV-COMPLETELYPARALLEL` in Algorithm 7).

use crate::exec::ExecPool;
use crate::trace::{EventKind, SolveTrace};
use recblock_matrix::{Csr, MatrixError, Scalar};

/// Entries per parallel chunk of [`parallel_diag_panel`] — one division per
/// entry, so a chunk is sized like a `chunk_nnz`-nonzero SpMV chunk.
const DIAG_CHUNK: usize = 8192;

/// `true` if the matrix stores exactly its diagonal (one entry per row at
/// `(i, i)`).
pub fn is_diagonal_only<S: Scalar>(l: &Csr<S>) -> bool {
    l.nrows() == l.ncols()
        && l.nnz() == l.nrows()
        && (0..l.nrows()).all(|i| {
            let (cols, _) = l.row(i);
            cols == [i]
        })
}

/// Solve a purely diagonal system: `x[i] = b[i] / d[i]` in one parallel map.
pub fn parallel_diag<S: Scalar>(l: &Csr<S>, b: &[S]) -> Result<Vec<S>, MatrixError> {
    let mut x = vec![S::ZERO; l.nrows()];
    parallel_diag_into(l, b, &mut x, ExecPool::global())?;
    Ok(x)
}

/// As [`parallel_diag`] into a caller-provided buffer on an explicit pool —
/// the zero-allocation steady-state path. Elementwise divisions commute with
/// chunking, so the result is bit-identical at any concurrency. The
/// single-column form of [`parallel_diag_panel`].
pub fn parallel_diag_into<S: Scalar>(
    l: &Csr<S>,
    b: &[S],
    x: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    parallel_diag_panel::<S, 1>(l, b, x, pool)
}

/// [`parallel_diag_into`] on `W`-wide row-interleaved panels: `b` and `x`
/// hold `n·W` entries, row `i` of column `j` at `i·W + j`, and
/// `x[i·W + j] = b[i·W + j] / d[i]` — the same division per column as the
/// single-column solve.
pub fn parallel_diag_panel<S: Scalar, const W: usize>(
    l: &Csr<S>,
    b: &[S],
    x: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    let n = l.nrows();
    if b.len() != n * W || x.len() != n * W {
        return Err(MatrixError::DimensionMismatch {
            what: "sptrsv buffers",
            expected: n * W,
            actual: b.len().min(x.len()),
        });
    }
    if !is_diagonal_only(l) {
        return Err(MatrixError::NotTriangular { row: 0, col: 0 });
    }
    let vals = l.vals();
    let t0 = SolveTrace::start();
    let chunk_rows = (DIAG_CHUNK / W).max(1);
    if n <= chunk_rows {
        for ((xr, br), &d) in x.chunks_exact_mut(W).zip(b.chunks_exact(W)).zip(vals) {
            for (xv, &bv) in xr.iter_mut().zip(br) {
                *xv = bv / d;
            }
        }
        SolveTrace::finish(t0, EventKind::DiagKernel, 0, n as u32, 0);
        return Ok(());
    }
    let nchunks = n.div_ceil(chunk_rows);
    let xp = crate::exec::SendPtr(x.as_mut_ptr());
    pool.run(nchunks, &|c| {
        let lo = c * chunk_rows;
        let hi = (lo + chunk_rows).min(n);
        for i in lo..hi {
            for j in 0..W {
                // SAFETY: chunks partition 0..n, so each x[i·W + j] is
                // written by exactly one job and read by none.
                unsafe { *xp.ptr().add(i * W + j) = b[i * W + j] / vals[i] };
            }
        }
    });
    SolveTrace::finish(
        t0,
        EventKind::DiagKernel,
        0,
        n as u32,
        nchunks.min(u16::MAX as usize) as u16,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_matrix::generate;

    #[test]
    fn detects_diagonal_matrix() {
        assert!(is_diagonal_only(&Csr::<f64>::identity(5)));
        assert!(is_diagonal_only(&generate::diagonal::<f64>(100, 1)));
        assert!(!is_diagonal_only(&generate::chain::<f64>(10, 1)));
        assert!(!is_diagonal_only(&Csr::<f64>::zero(3, 3)));
    }

    #[test]
    fn solves_diagonal_system() {
        let l =
            Csr::<f64>::try_new(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![2., 4., 8.]).unwrap();
        let x = parallel_diag(&l, &[2.0, 8.0, 32.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn matches_serial_reference() {
        let l = generate::diagonal::<f64>(10_000, 7);
        let b: Vec<f64> = (0..10_000).map(|i| (i as f64).cos()).collect();
        let x1 = parallel_diag(&l, &b).unwrap();
        let x2 = super::super::serial_csr(&l, &b).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn into_matches_allocating_form_above_chunk_size() {
        let n = 3 * DIAG_CHUNK + 17;
        let l = generate::diagonal::<f64>(n, 8);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 2.0).collect();
        let pool = ExecPool::new(2);
        let mut x = vec![0.0; n];
        parallel_diag_into(&l, &b, &mut x, &pool).unwrap();
        assert_eq!(x, parallel_diag(&l, &b).unwrap());
    }

    #[test]
    fn rejects_non_diagonal() {
        let l = generate::chain::<f64>(5, 1);
        assert!(parallel_diag(&l, &[1.0; 5]).is_err());
    }

    #[test]
    fn rejects_wrong_rhs() {
        let l = Csr::<f64>::identity(3);
        assert!(parallel_diag(&l, &[1.0]).is_err());
    }
}
