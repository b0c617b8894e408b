//! Row block SpTRSV (the paper's Algorithm 5, Figure 2(b)).
//!
//! The matrix is cut into `nseg` horizontal strips. Strip `si` holds a wide
//! rectangular block covering *all* previously solved columns, followed by a
//! triangular block on the diagonal. Each step first consumes the entire
//! solved prefix of `x` with one SpMV, then solves the strip — which is why
//! the row method's `x`-load traffic explodes with the part count (Table 2).

use crate::adaptive::Selector;
use crate::report::SimBreakdown;
use crate::sqsolver::SqSolver;
use crate::traffic::TrafficCounts;
use crate::trisolver::TriSolver;
use recblock_gpu_sim::{CostParams, DeviceSpec, TriProfile};
use recblock_matrix::{Csr, MatrixError, Scalar};
use std::ops::Range;

/// A preprocessed row-block solver.
#[derive(Debug, Clone)]
pub struct RowBlockSolver<S> {
    n: usize,
    segments: Vec<Range<usize>>,
    tris: Vec<(TriSolver<S>, TriProfile)>,
    /// `rects[si - 1]`: rows `segments[si]` × cols `0..segments[si].start`
    /// (absent for the first strip).
    rects: Vec<SqSolver<S>>,
    traffic: TrafficCounts,
}

impl<S: Scalar> RowBlockSolver<S> {
    /// Partition `l` into `nseg` row blocks and preprocess every block.
    pub fn new(
        l: &Csr<S>,
        nseg: usize,
        selector: &Selector,
        syncfree_threads: usize,
    ) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(l)?;
        let n = l.nrows();
        let segments = crate::partition::equal_segments(n, nseg);
        let mut tris = Vec::with_capacity(segments.len());
        let mut rects = Vec::new();
        let mut traffic = TrafficCounts::default();
        for (si, seg) in segments.iter().enumerate() {
            if si > 0 {
                let rect = l.submatrix(seg.clone(), 0..seg.start);
                traffic.spmv(rect.nrows(), rect.ncols());
                rects.push(SqSolver::build(rect, selector, true));
            }
            let tri = l.submatrix(seg.clone(), seg.clone());
            traffic.tri(seg.len());
            tris.push(TriSolver::build_adaptive(tri, selector, syncfree_threads)?);
        }
        Ok(RowBlockSolver { n, segments, tris, rects, traffic })
    }

    /// Number of strips.
    pub fn nseg(&self) -> usize {
        self.segments.len()
    }

    /// Dense-counted traffic of one solve (Tables 1–2 accounting).
    pub fn traffic(&self) -> TrafficCounts {
        self.traffic
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        if b.len() != self.n {
            return Err(MatrixError::DimensionMismatch {
                what: "row block rhs",
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut x = vec![S::ZERO; self.n];
        let mut seg_rhs: Vec<S> = Vec::new();
        for (si, seg) in self.segments.iter().enumerate() {
            seg_rhs.clear();
            seg_rhs.extend_from_slice(&b[seg.clone()]);
            if si > 0 {
                self.rects[si - 1].apply(&x[..seg.start], &mut seg_rhs)?;
            }
            self.tris[si].0.solve_into(&seg_rhs, &mut x[seg.clone()])?;
        }
        Ok(x)
    }

    /// Predicted GPU time per part under the cost model.
    pub fn simulated_breakdown(&self, dev: &DeviceSpec, params: &CostParams) -> SimBreakdown {
        let mut sim = SimBreakdown::default();
        for (si, (tri, profile)) in self.tris.iter().enumerate() {
            let seg = &self.segments[si];
            let ws = seg.len() * 3 * S::BYTES;
            sim.tri = sim.tri.seq(tri.simulated_time(profile, ws, dev, params));
        }
        for (si, rect) in self.rects.iter().enumerate() {
            let seg = &self.segments[si + 1];
            // The wide SpMV reads the whole solved prefix of x — the row
            // method's huge working set.
            let ws = (seg.len() + rect.ncols()) * 2 * S::BYTES;
            sim.spmv = sim.spmv.seq(rect.simulated_time(ws, dev, params));
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check(l: Csr<f64>, nseg: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) - 9.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let s = RowBlockSolver::new(&l, nseg, &Selector::default(), 4).unwrap();
        let x = s.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10, "nseg={nseg}");
    }

    #[test]
    fn matches_serial_various_segments() {
        let l = generate::random_lower::<f64>(600, 4.0, 21);
        for nseg in [1usize, 2, 3, 4, 8, 16] {
            check(l.clone(), nseg);
        }
    }

    #[test]
    fn matches_serial_on_structures() {
        check(generate::grid2d::<f64>(25, 24, 22), 4);
        check(generate::chain::<f64>(300, 23), 8);
        check(generate::kkt_like::<f64>(1000, 400, 3, 24), 4);
        check(generate::hub_power_law::<f64>(800, 6, 2, 30, 25), 4);
    }

    #[test]
    fn traffic_matches_dense_formula() {
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 26);
        for parts in [4usize, 16] {
            let s = RowBlockSolver::new(&l, parts, &Selector::default(), 2).unwrap();
            let t = s.traffic();
            assert_eq!(t.b_updates as f64, crate::traffic::row_b_updates(n, parts));
            assert_eq!(t.x_loads as f64, crate::traffic::row_x_loads(n, parts));
        }
    }

    #[test]
    fn row_loads_more_x_than_column() {
        let n = 256;
        let l = generate::dense_lower::<f64>(n, 27);
        let row = RowBlockSolver::new(&l, 16, &Selector::default(), 2).unwrap();
        let col = crate::column::ColumnBlockSolver::new(&l, 16, &Selector::default(), 2).unwrap();
        assert!(row.traffic().x_loads > col.traffic().x_loads);
        assert!(col.traffic().b_updates > row.traffic().b_updates);
    }

    #[test]
    fn simulated_breakdown_positive() {
        let l = generate::random_lower::<f64>(500, 4.0, 28);
        let s = RowBlockSolver::new(&l, 4, &Selector::default(), 2).unwrap();
        let sim = s.simulated_breakdown(&DeviceSpec::titan_rtx_turing(), &CostParams::default());
        assert!(sim.tri.total_s > 0.0);
        assert!(sim.spmv.total_s > 0.0);
    }

    #[test]
    fn rejects_wrong_rhs() {
        let l = generate::random_lower::<f64>(100, 3.0, 29);
        let s = RowBlockSolver::new(&l, 4, &Selector::default(), 2).unwrap();
        assert!(s.solve(&[1.0; 5]).is_err());
    }
}
