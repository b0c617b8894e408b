//! High-level solver API: preprocess once, solve many right-hand sides.

use crate::blocked::{BlockedOptions, BlockedTri, KernelCensus, SolveWorkspace};
use crate::report::{SimBreakdown, SolveBreakdown};
use crate::traffic::TrafficCounts;
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime};
use recblock_matrix::{Csr, MatrixError, Scalar};
use std::time::{Duration, Instant};

/// Options for [`RecBlockSolver`] (a thin re-export of [`BlockedOptions`]
/// so downstream code only needs one import).
pub type SolverOptions = BlockedOptions;

/// The user-facing recursive-block SpTRSV solver.
///
/// Construction runs the full preprocessing stage (recursive level-set
/// reorder, blocked rebuild, adaptive kernel selection) and records how long
/// it took — the quantity Table 5 amortises over repeated solves. Solves
/// may then be issued repeatedly for different right-hand sides.
#[derive(Debug, Clone)]
pub struct RecBlockSolver<S> {
    blocked: BlockedTri<S>,
    preprocess_time: Duration,
}

impl<S: Scalar> RecBlockSolver<S> {
    /// Preprocess the lower-triangular matrix `l`.
    pub fn new(l: &Csr<S>, opts: SolverOptions) -> Result<Self, MatrixError> {
        let t0 = Instant::now();
        let blocked = BlockedTri::build(l, &opts)?;
        Ok(RecBlockSolver { blocked, preprocess_time: t0.elapsed() })
    }

    /// Wrap an already-built blocked structure, recording `preprocess_time`
    /// as its construction cost. Lets a caching layer rebuild a solver from
    /// parts it persisted (or measured) elsewhere.
    pub fn from_blocked(blocked: BlockedTri<S>, preprocess_time: Duration) -> Self {
        RecBlockSolver { blocked, preprocess_time }
    }

    /// Wall-clock preprocessing cost of [`RecBlockSolver::new`].
    pub fn preprocess_time(&self) -> Duration {
        self.preprocess_time
    }

    /// Re-plan every block schedule under `tune`, keeping the reorder,
    /// partition and kernel selection exactly as built
    /// ([`BlockedTri::retuned`]). The preprocessing cost carries over — a
    /// retune is schedule re-planning, not a rebuild.
    pub fn retuned(&self, tune: recblock_kernels::exec::TuneParams) -> Result<Self, MatrixError> {
        Ok(RecBlockSolver {
            blocked: self.blocked.retuned(tune)?,
            preprocess_time: self.preprocess_time,
        })
    }

    /// The underlying blocked structure.
    pub fn blocked(&self) -> &BlockedTri<S> {
        &self.blocked
    }

    /// Rows of the system.
    pub fn n(&self) -> usize {
        self.blocked.n()
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        self.blocked.solve(b)
    }

    /// Solve into a caller-provided buffer with a reusable workspace — the
    /// steady-state path; zero heap allocations once `ws` has warmed up
    /// ([`BlockedTri::solve_into`]).
    pub fn solve_into(
        &self,
        b: &[S],
        x: &mut [S],
        ws: &mut SolveWorkspace<S>,
    ) -> Result<(), MatrixError> {
        self.blocked.solve_into(b, x, ws)
    }

    /// Solve with the wall-clock tri/SpMV split.
    pub fn solve_instrumented(&self, b: &[S]) -> Result<(Vec<S>, SolveBreakdown), MatrixError> {
        self.blocked.solve_instrumented(b)
    }

    /// Solve for several right-hand sides (columns of `B`, column-major),
    /// reusing the preprocessing — the multi-RHS scenario of Table 5. The
    /// block list is walked once per panel of up to 8 columns
    /// ([`BlockedTri::solve_multi`]).
    pub fn solve_multi(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
    ) -> Result<recblock_kernels::sptrsm::MultiVector<S>, MatrixError> {
        self.blocked.solve_multi(b)
    }

    /// As [`RecBlockSolver::solve_multi`], writing into a caller-provided
    /// output batch ([`BlockedTri::solve_multi_into`]).
    pub fn solve_multi_into(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
        out: &mut recblock_kernels::sptrsm::MultiVector<S>,
    ) -> Result<(), MatrixError> {
        self.blocked.solve_multi_into(b, out)
    }

    /// As [`RecBlockSolver::solve_multi_into`] with a caller-held workspace
    /// ([`BlockedTri::solve_multi_ws`]) — zero-allocation batch solves.
    pub fn solve_multi_ws(
        &self,
        b: &recblock_kernels::sptrsm::MultiVector<S>,
        out: &mut recblock_kernels::sptrsm::MultiVector<S>,
        ws: &mut SolveWorkspace<S>,
    ) -> Result<(), MatrixError> {
        self.blocked.solve_multi_ws(b, out, ws)
    }

    /// Which kernels the adaptive selection assigned.
    pub fn census(&self) -> KernelCensus {
        self.blocked.census()
    }

    /// The kernel-selection report: per block, the Algorithm 7 input
    /// statistics, the kernel chosen, the candidates rejected and the
    /// threshold that decided it, plus the level-set shape of triangular
    /// blocks and the plan-wide reorder cost
    /// ([`BlockedTri::selection_report`]).
    pub fn explain(&self) -> &crate::explain::SelectionReport {
        self.blocked.selection_report()
    }

    /// Dense-counted traffic per solve.
    pub fn traffic(&self) -> TrafficCounts {
        self.blocked.traffic()
    }

    /// Predicted GPU time of one solve on `dev`.
    pub fn simulated_time(&self, dev: &DeviceSpec, params: &CostParams) -> KernelTime {
        self.blocked.simulated_time(dev, params)
    }

    /// Predicted GPU tri/SpMV split.
    pub fn simulated_breakdown(&self, dev: &DeviceSpec, params: &CostParams) -> SimBreakdown {
        self.blocked.simulated_breakdown(dev, params)
    }

    /// Predicted GPU preprocessing time (Table 5's first column).
    pub fn simulated_prep_time(&self, params: &CostParams) -> f64 {
        self.blocked.simulated_prep_time(params)
    }

    /// Predicted GPU cost of preprocessing plus `iters` solves (Table 5's
    /// amortisation columns).
    pub fn simulated_amortised_time(
        &self,
        iters: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> f64 {
        self.simulated_prep_time(params) + iters as f64 * self.simulated_time(dev, params).total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::DepthRule;
    use recblock_kernels::sptrsm::MultiVector;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn opts() -> SolverOptions {
        SolverOptions { depth: DepthRule::Fixed(3), ..SolverOptions::default() }
    }

    #[test]
    fn end_to_end_solve() {
        let l = generate::layered::<f64>(1000, 12, 2.0, generate::LayerShape::Uniform, 71);
        let b: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        let x = solver.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &serial_csr(&l, &b).unwrap()) < 1e-10);
        assert!(solver.preprocess_time() > Duration::ZERO);
    }

    #[test]
    fn multi_rhs_solve() {
        let l = generate::grid2d::<f64>(20, 20, 72);
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        let data: Vec<f64> = (0..400 * 3).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b = MultiVector::from_columns(400, 3, data).unwrap();
        let x = solver.solve_multi(&b).unwrap();
        for j in 0..3 {
            let r = recblock_matrix::vector::residual_inf(&l, x.col(j), b.col(j)).unwrap();
            assert!(r < 1e-10);
        }
    }

    #[test]
    fn multi_rhs_dimension_check() {
        let l = generate::diagonal::<f64>(10, 73);
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        let b = MultiVector::<f64>::zeros(5, 2);
        assert!(solver.solve_multi(&b).is_err());
    }

    #[test]
    fn amortisation_grows_linearly() {
        let l = generate::random_lower::<f64>(600, 4.0, 74);
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        let dev = DeviceSpec::titan_rtx_turing();
        let p = CostParams::default();
        let t100 = solver.simulated_amortised_time(100, &dev, &p);
        let t1000 = solver.simulated_amortised_time(1000, &dev, &p);
        let prep = solver.simulated_prep_time(&p);
        let single = solver.simulated_time(&dev, &p).total_s;
        assert!((t100 - (prep + 100.0 * single)).abs() < 1e-12);
        assert!(t1000 > t100);
    }

    #[test]
    fn census_and_traffic_accessible() {
        let l = generate::kkt_like::<f64>(1024, 400, 3, 75);
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        assert!(!solver.census().tri.is_empty());
        assert!(solver.traffic().b_updates >= 1024);
    }

    #[test]
    fn explain_names_kernel_and_threshold_for_every_block() {
        let l = generate::kkt_like::<f64>(1024, 400, 3, 75);
        let solver = RecBlockSolver::new(&l, opts()).unwrap();
        let report = solver.explain();
        assert_eq!(report.blocks.len(), solver.blocked().nblocks());
        assert!(!report.derived);
        assert!(report.reorder_time.is_some());
        for b in &report.blocks {
            assert!(!b.kernel_name().is_empty());
            assert!(!b.threshold().is_empty());
        }
        // The rendered report mentions every chosen kernel and threshold.
        let text = format!("{report}");
        for b in &report.blocks {
            assert!(text.contains(b.kernel_name()), "missing {} in\n{text}", b.kernel_name());
            assert!(text.contains(b.threshold()), "missing {} in\n{text}", b.threshold());
        }
        assert!(report.detail().contains("rows/level histogram"));
    }
}
