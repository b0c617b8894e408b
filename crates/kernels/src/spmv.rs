//! SpMV for the square/rectangular blocks of the paper's adaptive selector
//! (Section 3.4).
//!
//! All kernels compute the *update* form `y ← y − A·x`, which is what the
//! block algorithms need: after a triangular segment of `x` is solved, the
//! rectangular/square block multiplies it and subtracts from the pending
//! right-hand side (`b_{si+1} ← SPMV(blk, x_si, b_si)` in Algorithms 4–6).
//!
//! The selector's four kernels (scalar/vector × CSR/DCSR) pick a storage
//! format and drive the GPU cost model; on the CPU the scalar and vector
//! variants of one format run the same code. The blocked executor uses the
//! preplanned, allocation-free forms [`csr_update_panel`] /
//! [`dcsr_update_panel`] (single column: [`csr_update_planned`] /
//! [`dcsr_update_planned`]), which split work at nnz-prefix-sum chunk
//! boundaries computed once at preprocessing time ([`SpmvPlan`]) and write
//! disjoint `y` sub-slices in place on the persistent [`ExecPool`].
//!
//! [`scalar_csr`] and [`scalar_dcsr`] are the serial reference loops the
//! planned forms are tested against. Every form reduces each row through
//! the deterministic lane-unrolled [`crate::exec::row_dot`], so all of them
//! compute **bit-identical** results.

use crate::exec::{
    prefetch_row, row_dot, row_dot_panel, ExecPool, SendPtr, SpmvPlan, ROW_PREFETCH_DIST,
};
use crate::trace::{EventKind, SolveTrace};
use recblock_matrix::{Csr, Dcsr, MatrixError, Scalar};

fn check_dims<S: Scalar>(nrows: usize, ncols: usize, x: &[S], y: &[S]) -> Result<(), MatrixError> {
    if x.len() != ncols {
        return Err(MatrixError::DimensionMismatch {
            what: "spmv x",
            expected: ncols,
            actual: x.len(),
        });
    }
    if y.len() != nrows {
        return Err(MatrixError::DimensionMismatch {
            what: "spmv y",
            expected: nrows,
            actual: y.len(),
        });
    }
    Ok(())
}

/// Serial reference `y ← y − A·x` over CSR, one row after another.
pub fn scalar_csr<S: Scalar>(a: &Csr<S>, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
    check_dims(a.nrows(), a.ncols(), x, y)?;
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        *yi -= row_dot(cols, vals, x);
    }
    Ok(())
}

/// Serial reference `y ← y − A·x` over doubly-compressed storage; empty
/// rows are never visited.
pub fn scalar_dcsr<S: Scalar>(a: &Dcsr<S>, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
    check_dims(a.nrows(), a.ncols(), x, y)?;
    for k in 0..a.n_lanes() {
        let (row, cols, vals) = a.lane(k);
        y[row] -= row_dot(cols, vals, x);
    }
    Ok(())
}

/// Preplanned `y ← y − A·x` over CSR: executes `plan`'s nnz-balanced chunks
/// on `pool`, each chunk updating a disjoint row range of `y` in place —
/// zero heap allocations, bit-identical to [`scalar_csr`]. The
/// single-column form of [`csr_update_panel`].
pub fn csr_update_planned<S: Scalar>(
    a: &Csr<S>,
    plan: &SpmvPlan,
    x: &[S],
    y: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    csr_update_panel::<S, 1>(a, plan, x, y, pool)
}

/// [`csr_update_planned`] on `W`-wide row-interleaved panels: `x` holds
/// `ncols·W` entries and `y` holds `nrows·W`, row `i` of column `j` at
/// `i·W + j`. Each nonzero is loaded once for all `W` columns, and each
/// column is bit-identical to the single-column update of it.
pub fn csr_update_panel<S: Scalar, const W: usize>(
    a: &Csr<S>,
    plan: &SpmvPlan,
    x: &[S],
    y: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    check_dims(a.nrows() * W, a.ncols() * W, x, y)?;
    if plan.len() != a.nrows() {
        return Err(MatrixError::DimensionMismatch {
            what: "spmv plan rows",
            expected: a.nrows(),
            actual: plan.len(),
        });
    }
    let t0 = SolveTrace::start();
    let yp = SendPtr(y.as_mut_ptr());
    let rows = |lo: usize, hi: usize| {
        for i in lo..hi {
            if i + ROW_PREFETCH_DIST < hi {
                let (ncols, nvals) = a.row(i + ROW_PREFETCH_DIST);
                prefetch_row::<S, W>(ncols, nvals, x.as_ptr());
            }
            let (cols, vals) = a.row(i);
            // SAFETY: `check_dims` sized `x` for every column index and `y`
            // for every row; the callers' row ranges are disjoint, so each
            // y[i·W..(i+1)·W] has exactly one writer.
            unsafe { update_row::<S, W>(cols, vals, x.as_ptr(), yp.ptr(), i) };
        }
    };
    run_chunks(plan, pool, &rows);
    SolveTrace::finish(t0, EventKind::SpmvCsr, 0, a.nrows() as u32, chunk_count(plan));
    Ok(())
}

/// Preplanned `y ← y − A·x` over DCSR (chunks over stored lanes; each lane
/// maps to a distinct row, so writes stay disjoint). Zero heap allocations,
/// bit-identical to [`scalar_dcsr`]. The single-column form of
/// [`dcsr_update_panel`].
pub fn dcsr_update_planned<S: Scalar>(
    a: &Dcsr<S>,
    plan: &SpmvPlan,
    x: &[S],
    y: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    dcsr_update_panel::<S, 1>(a, plan, x, y, pool)
}

/// [`dcsr_update_planned`] on `W`-wide row-interleaved panels (see
/// [`csr_update_panel`]).
pub fn dcsr_update_panel<S: Scalar, const W: usize>(
    a: &Dcsr<S>,
    plan: &SpmvPlan,
    x: &[S],
    y: &mut [S],
    pool: &ExecPool,
) -> Result<(), MatrixError> {
    check_dims(a.nrows() * W, a.ncols() * W, x, y)?;
    if plan.len() != a.n_lanes() {
        return Err(MatrixError::DimensionMismatch {
            what: "spmv plan lanes",
            expected: a.n_lanes(),
            actual: plan.len(),
        });
    }
    let t0 = SolveTrace::start();
    let yp = SendPtr(y.as_mut_ptr());
    let lanes = |lo: usize, hi: usize| {
        for k in lo..hi {
            if k + ROW_PREFETCH_DIST < hi {
                let (_, ncols, nvals) = a.lane(k + ROW_PREFETCH_DIST);
                prefetch_row::<S, W>(ncols, nvals, x.as_ptr());
            }
            let (row, cols, vals) = a.lane(k);
            // SAFETY: as in `csr_update_panel`; lanes hold distinct rows,
            // so disjoint lane ranges write disjoint rows.
            unsafe { update_row::<S, W>(cols, vals, x.as_ptr(), yp.ptr(), row) };
        }
    };
    run_chunks(plan, pool, &lanes);
    SolveTrace::finish(t0, EventKind::SpmvDcsr, 0, a.n_lanes() as u32, chunk_count(plan));
    Ok(())
}

/// `y[row·W + j] −= Σ vals[k]·x[cols[k]·W + j]` for every column `j`.
///
/// # Safety
/// As [`row_dot_panel`], plus `y` must cover `W·(row + 1)` entries with no
/// concurrent access to that row's panel entries.
#[inline(always)]
unsafe fn update_row<S: Scalar, const W: usize>(
    cols: &[usize],
    vals: &[S],
    x: *const S,
    y: *mut S,
    row: usize,
) {
    // SAFETY: the caller's contract covers the reads of `x`.
    let dot = unsafe { row_dot_panel::<S, W>(cols, vals, x) };
    for (j, dj) in dot.into_iter().enumerate() {
        // SAFETY: the caller guarantees `y` covers W·(row + 1) entries and
        // that this row's panel entries have no other accessor.
        unsafe { *y.add(row * W + j) -= dj };
    }
}

/// Run `f(lo, hi)` over each chunk of `plan`: inline for a single-chunk
/// plan, one pool job per chunk otherwise.
fn run_chunks(plan: &SpmvPlan, pool: &ExecPool, f: &(dyn Fn(usize, usize) + Sync)) {
    let bounds = plan.bounds();
    if plan.nchunks() <= 1 {
        f(0, plan.len());
    } else {
        pool.run(plan.nchunks(), &|c| f(bounds[c] as usize, bounds[c + 1] as usize));
    }
}

/// The trace event's chunk field: 0 for an inline (single-chunk) update.
fn chunk_count(plan: &SpmvPlan) -> u16 {
    if plan.nchunks() <= 1 {
        0
    } else {
        plan.nchunks().min(u16::MAX as usize) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TuneParams;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn fixture(n: usize, empty: f64, skew: f64, seed: u64) -> (Csr<f64>, Vec<f64>, Vec<f64>) {
        let a = generate::rect_random::<f64>(n, n, 5.0, empty, skew, seed);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        (a, x, y)
    }

    fn reference_update(a: &Csr<f64>, x: &[f64], y: &[f64]) -> Vec<f64> {
        let ax = a.spmv_dense(x).unwrap();
        y.iter().zip(&ax).map(|(&yi, &axi)| yi - axi).collect()
    }

    #[test]
    fn csr_and_dcsr_references_agree_small() {
        let (a, x, y0) = fixture(100, 0.3, 1.0, 71);
        let base = run_scalar_csr(&a, &x, &y0);
        assert!(max_rel_diff(&base, &reference_update(&a, &x, &y0)) < 1e-12);
        assert_eq!(run_scalar_dcsr(&a.to_dcsr(), &x, &y0), base);
    }

    #[test]
    fn csr_and_dcsr_references_agree_large() {
        let (a, x, y0) = fixture(5000, 0.5, 2.0, 72);
        let base = run_scalar_csr(&a, &x, &y0);
        assert!(max_rel_diff(&base, &reference_update(&a, &x, &y0)) < 1e-10);
        assert_eq!(run_scalar_dcsr(&a.to_dcsr(), &x, &y0), base);
    }

    #[test]
    fn planned_kernels_match_unplanned_bitwise() {
        let (a, x, y0) = fixture(3000, 0.4, 1.5, 75);
        let d = a.to_dcsr();
        let base = run_scalar_csr(&a, &x, &y0);
        let pool = ExecPool::new(2);
        let tune = TuneParams { chunk_nnz: 512, ..TuneParams::default() };

        let plan = SpmvPlan::for_csr(&a, &tune);
        assert!(plan.nchunks() > 1);
        let mut y = y0.clone();
        csr_update_planned(&a, &plan, &x, &mut y, &pool).unwrap();
        assert_eq!(y, base);

        let dplan = SpmvPlan::for_dcsr(&d, &tune);
        let mut y = y0.clone();
        dcsr_update_planned(&d, &dplan, &x, &mut y, &pool).unwrap();
        assert_eq!(y, base);

        // Single-chunk (serial) plans too.
        let wide = TuneParams { chunk_nnz: usize::MAX, ..TuneParams::default() };
        let mut y = y0.clone();
        csr_update_planned(&a, &SpmvPlan::for_csr(&a, &wide), &x, &mut y, &pool).unwrap();
        assert_eq!(y, base);
        let mut y = y0.clone();
        dcsr_update_planned(&d, &SpmvPlan::for_dcsr(&d, &wide), &x, &mut y, &pool).unwrap();
        assert_eq!(y, base);
    }

    #[test]
    fn planned_kernels_reject_mismatched_plan() {
        let (a, x, y0) = fixture(100, 0.0, 0.0, 76);
        let other = generate::rect_random::<f64>(50, 100, 3.0, 0.0, 0.0, 77);
        let plan = SpmvPlan::for_csr(&other, &TuneParams::default());
        let mut y = y0.clone();
        assert!(csr_update_planned(&a, &plan, &x, &mut y, ExecPool::global()).is_err());
    }

    fn run_scalar_csr(a: &Csr<f64>, x: &[f64], y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        scalar_csr(a, x, &mut y).unwrap();
        y
    }

    fn run_scalar_dcsr(a: &Dcsr<f64>, x: &[f64], y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        scalar_dcsr(a, x, &mut y).unwrap();
        y
    }

    #[test]
    fn rectangular_shapes_supported() {
        let a = generate::rect_random::<f64>(300, 120, 3.0, 0.2, 0.0, 73);
        let x = vec![1.0; 120];
        let mut y = vec![0.0; 300];
        scalar_csr(&a, &x, &mut y).unwrap();
        let expect: Vec<f64> = a.spmv_dense(&x).unwrap().iter().map(|v| -v).collect();
        assert!(max_rel_diff(&y, &expect) < 1e-12);
    }

    #[test]
    fn dimension_checks() {
        let a = Csr::<f64>::identity(3);
        let mut y = vec![0.0; 3];
        assert!(scalar_csr(&a, &[1.0], &mut y).is_err());
        assert!(scalar_csr(&a, &[1.0; 3], &mut [0.0; 2]).is_err());
        let d = a.to_dcsr();
        assert!(scalar_dcsr(&d, &[1.0; 2], &mut y).is_err());
        assert!(scalar_dcsr(&d, &[1.0; 3], &mut [0.0; 4]).is_err());
    }

    #[test]
    fn empty_matrix_is_noop() {
        let a = Csr::<f64>::zero(4, 4);
        let mut y = vec![1.0; 4];
        scalar_csr(&a, &[2.0; 4], &mut y).unwrap();
        assert_eq!(y, vec![1.0; 4]);
    }

    #[test]
    fn update_form_accumulates() {
        // Two successive updates subtract twice.
        let a = Csr::<f64>::identity(2);
        let mut y = vec![10.0, 10.0];
        scalar_csr(&a, &[1.0, 2.0], &mut y).unwrap();
        scalar_csr(&a, &[1.0, 2.0], &mut y).unwrap();
        assert_eq!(y, vec![8.0, 6.0]);
    }

    #[test]
    fn f32_kernels_work() {
        let a = generate::rect_random::<f32>(200, 200, 4.0, 0.4, 0.0, 74);
        let x = vec![0.5f32; 200];
        let mut y1 = vec![1.0f32; 200];
        let mut y2 = vec![1.0f32; 200];
        scalar_csr(&a, &x, &mut y1).unwrap();
        scalar_dcsr(&a.to_dcsr(), &x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }
}
