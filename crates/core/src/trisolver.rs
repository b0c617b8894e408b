//! Per-block triangular solver: one preprocessed kernel instance per
//! triangular block, built according to the adaptive selection.

use crate::adaptive::TriKernel;
use recblock_gpu_sim::{CostParams, DeviceSpec, KernelTime, TriProfile};
use recblock_kernels::exec::{ExecPool, TuneParams};
use recblock_kernels::sptrsv::{
    parallel_diag_panel, CusparseLikeSolver, LevelSetSolver, SyncFreeSolver,
};
use recblock_kernels::trace::{EventKind, SolveTrace};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, MatrixError, Scalar};

/// A triangular block bound to its selected kernel, ready to solve.
#[derive(Debug, Clone)]
pub enum TriSolver<S> {
    /// Diagonal-only block (`SPTRSV-COMPLETELYPARALLEL`).
    Diag(Csr<S>),
    /// Level-set schedule.
    LevelSet(LevelSetSolver<S>),
    /// Sync-free dataflow.
    SyncFree(SyncFreeSolver<S>),
    /// cuSPARSE-like merged-launch schedule.
    Cusparse(CusparseLikeSolver<S>),
}

impl<S: Scalar> TriSolver<S> {
    /// Build the solver variant the selection chose, with default engine
    /// tuning. `levels` must be the decomposition of `l` (the caller has it
    /// from block profiling).
    pub fn build(
        kernel: TriKernel,
        l: Csr<S>,
        levels: &LevelSets,
        syncfree_threads: usize,
    ) -> Result<Self, MatrixError> {
        Self::build_tuned(kernel, l, levels, syncfree_threads, TuneParams::default())
    }

    /// As [`TriSolver::build`] with explicit engine tuning — the blocked
    /// executor threads its [`TuneParams`] through so every block's schedule
    /// is planned under the plan-wide thresholds.
    pub fn build_tuned(
        kernel: TriKernel,
        l: Csr<S>,
        levels: &LevelSets,
        syncfree_threads: usize,
        tune: TuneParams,
    ) -> Result<Self, MatrixError> {
        Ok(match kernel {
            TriKernel::CompletelyParallel => TriSolver::Diag(l),
            TriKernel::LevelSet => {
                TriSolver::LevelSet(LevelSetSolver::with_tune(l, levels.clone(), tune)?)
            }
            TriKernel::SyncFree => {
                TriSolver::SyncFree(SyncFreeSolver::with_threads(&l, syncfree_threads)?)
            }
            TriKernel::CusparseLike => {
                TriSolver::Cusparse(CusparseLikeSolver::with_levels_tuned(l, levels.clone(), tune)?)
            }
        })
    }

    /// Analyse a triangular block, run the adaptive selection, and build the
    /// chosen solver together with the block's cost-model profile.
    pub fn build_adaptive(
        l: Csr<S>,
        selector: &crate::adaptive::Selector,
        syncfree_threads: usize,
    ) -> Result<(Self, TriProfile), MatrixError> {
        Self::build_adaptive_tuned(l, selector, syncfree_threads, TuneParams::default())
    }

    /// As [`TriSolver::build_adaptive`] with explicit engine tuning.
    pub fn build_adaptive_tuned(
        l: Csr<S>,
        selector: &crate::adaptive::Selector,
        syncfree_threads: usize,
        tune: TuneParams,
    ) -> Result<(Self, TriProfile), MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(&l)?;
        let levels = LevelSets::analyse_unchecked(&l);
        let profile = TriProfile::analyse(&l, &levels);
        let kernel = selector.tri_shaped(profile.nnz_per_row(), profile.nlevels(), l.nrows());
        let solver = Self::build_tuned(kernel, l, &levels, syncfree_threads, tune)?;
        Ok((solver, profile))
    }

    /// Rebuild this block's schedule under different engine tuning, keeping
    /// the kernel the selection chose. The schedule-based variants
    /// (level-set, cuSPARSE-like) re-plan from their already-analysed level
    /// decomposition — no reorder, no selection, no profiling. The diagonal
    /// and sync-free variants have no tune-dependent schedule and are cloned
    /// as-is.
    pub fn retuned(&self, tune: TuneParams) -> Result<Self, MatrixError> {
        Ok(match self {
            TriSolver::Diag(l) => TriSolver::Diag(l.clone()),
            TriSolver::LevelSet(s) => TriSolver::LevelSet(LevelSetSolver::with_tune(
                s.matrix().clone(),
                s.levels().clone(),
                tune,
            )?),
            TriSolver::SyncFree(s) => TriSolver::SyncFree(s.clone()),
            TriSolver::Cusparse(s) => TriSolver::Cusparse(CusparseLikeSolver::with_levels_tuned(
                s.matrix().clone(),
                s.levels().clone(),
                tune,
            )?),
        })
    }

    /// Rows (= columns) of the block this solver was built for.
    pub fn n(&self) -> usize {
        match self {
            TriSolver::Diag(l) => l.nrows(),
            TriSolver::LevelSet(s) => s.matrix().nrows(),
            TriSolver::SyncFree(s) => s.matrix().nrows(),
            TriSolver::Cusparse(s) => s.matrix().nrows(),
        }
    }

    /// Stored nonzeros of the block.
    pub fn nnz(&self) -> usize {
        match self {
            TriSolver::Diag(l) => l.nnz(),
            TriSolver::LevelSet(s) => s.matrix().nnz(),
            TriSolver::SyncFree(s) => s.matrix().nnz(),
            TriSolver::Cusparse(s) => s.matrix().nnz(),
        }
    }

    /// Which kernel this solver embodies.
    pub fn kernel(&self) -> TriKernel {
        match self {
            TriSolver::Diag(_) => TriKernel::CompletelyParallel,
            TriSolver::LevelSet(_) => TriKernel::LevelSet,
            TriSolver::SyncFree(_) => TriKernel::SyncFree,
            TriSolver::Cusparse(_) => TriKernel::CusparseLike,
        }
    }

    /// `(runs, parallel launches)` of the preplanned engine schedule, for
    /// the schedule-based variants (level-set, cuSPARSE-like). `None` for
    /// the diagonal and sync-free variants, which have no level schedule.
    pub fn schedule_stats(&self) -> Option<(usize, usize)> {
        match self {
            TriSolver::LevelSet(s) => Some((s.schedule().nruns(), s.schedule().nparallel())),
            TriSolver::Cusparse(s) => Some((s.schedule().nruns(), s.schedule().nparallel())),
            TriSolver::Diag(_) | TriSolver::SyncFree(_) => None,
        }
    }

    /// How the block synchronises at solve time: `"p2p"` or `"level-sync"`
    /// for the schedule-based variants, `None` for diagonal and sync-free
    /// blocks (no level schedule at all).
    pub fn schedule_mode(&self) -> Option<&'static str> {
        match self {
            TriSolver::LevelSet(s) => Some(s.schedule_mode()),
            TriSolver::Cusparse(_) => Some("level-sync"),
            TriSolver::Diag(_) | TriSolver::SyncFree(_) => None,
        }
    }

    /// Shape of the compiled point-to-point task graph, when this block
    /// runs in p2p mode.
    pub fn task_stats(&self) -> Option<recblock_kernels::TaskGraphStats> {
        match self {
            TriSolver::LevelSet(s) => s.task_stats(),
            _ => None,
        }
    }

    /// Solve `L x = b` into a caller-provided buffer — the steady-state hot
    /// path. The schedule-based variants (diag, level-set, cuSPARSE-like)
    /// execute preplanned schedules with zero heap allocations; the
    /// sync-free variant needs per-solve atomic state, so it allocates and
    /// copies (callers wanting strict zero-allocation solves should select
    /// away from it — see `BlockedOptions`).
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.solve_panel::<1>(b, x)
    }

    /// Solve `W` right-hand sides held as row-interleaved panels (`n·W`
    /// entries, row `i` of column `j` at `i·W + j`) in one pass over the
    /// block; each column is bit-identical to [`TriSolver::solve_into`] on
    /// it. The sync-free variant has no multi-column form: it solves
    /// single columns only, and a wider panel fails its
    /// right-hand-side length check.
    pub fn solve_panel<const W: usize>(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        let pool = ExecPool::global();
        match self {
            TriSolver::Diag(l) => parallel_diag_panel::<S, W>(l, b, x, pool),
            TriSolver::LevelSet(s) => s.solve_panel::<W>(b, x, pool),
            TriSolver::Cusparse(s) => s.solve_panel::<W>(b, x, pool),
            TriSolver::SyncFree(s) => {
                let t0 = SolveTrace::start();
                let v = s.solve(b)?;
                if x.len() != v.len() {
                    return Err(MatrixError::DimensionMismatch {
                        what: "sptrsv output",
                        expected: v.len(),
                        actual: x.len(),
                    });
                }
                x.copy_from_slice(&v);
                SolveTrace::finish(t0, EventKind::SyncFreeKernel, 0, v.len() as u32, 0);
                Ok(())
            }
        }
    }

    /// Predicted GPU time of this block's solve under the cost model.
    pub fn simulated_time(
        &self,
        profile: &TriProfile,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        self.simulated_time_bytes(profile, S::BYTES, working_set, dev, params)
    }

    /// As [`TriSolver::simulated_time`] but with an explicit element width,
    /// so one built structure can be priced at both precisions (Figure 7).
    pub fn simulated_time_bytes(
        &self,
        profile: &TriProfile,
        scalar_bytes: usize,
        working_set: usize,
        dev: &DeviceSpec,
        params: &CostParams,
    ) -> KernelTime {
        use recblock_gpu_sim::cost;
        match self.kernel() {
            TriKernel::CompletelyParallel => {
                cost::sptrsv_diag(profile.n, scalar_bytes, working_set, dev, params)
            }
            TriKernel::LevelSet => {
                cost::sptrsv_levelset(profile, scalar_bytes, working_set, dev, params)
            }
            TriKernel::SyncFree => {
                cost::sptrsv_syncfree(profile, scalar_bytes, working_set, dev, params)
            }
            TriKernel::CusparseLike => {
                cost::sptrsv_cusparse(profile, scalar_bytes, working_set, dev, params)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check_kernel(kernel: TriKernel, l: Csr<f64>) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let levels = LevelSets::analyse(&l).unwrap();
        let s = TriSolver::build(kernel, l, &levels, 4).unwrap();
        assert_eq!(s.kernel(), kernel);
        let mut x = vec![0.0; n];
        s.solve_into(&b, &mut x).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10, "{:?}", kernel);
    }

    #[test]
    fn all_variants_solve_correctly() {
        check_kernel(TriKernel::CompletelyParallel, generate::diagonal::<f64>(300, 1));
        check_kernel(TriKernel::LevelSet, generate::grid2d::<f64>(20, 20, 2));
        check_kernel(TriKernel::SyncFree, generate::random_lower::<f64>(500, 4.0, 3));
        check_kernel(TriKernel::CusparseLike, generate::chain::<f64>(300, 4));
    }

    #[test]
    fn simulated_time_positive() {
        let l = generate::grid2d::<f64>(15, 15, 5);
        let levels = LevelSets::analyse(&l).unwrap();
        let profile = TriProfile::analyse(&l, &levels);
        let s = TriSolver::build(TriKernel::LevelSet, l, &levels, 4).unwrap();
        let t = s.simulated_time(
            &profile,
            1 << 20,
            &DeviceSpec::titan_rtx_turing(),
            &CostParams::default(),
        );
        assert!(t.total_s > 0.0);
        assert_eq!(t.launches, profile.nlevels());
    }
}
