//! Level-set parallel SpTRSV (the paper's Algorithm 2).
//!
//! Preprocessing finds the level sets once and plans an execution schedule
//! ([`LevelSchedule`]): consecutive cheap levels fuse into serial runs
//! (level coarsening), expensive levels become parallel launches split at
//! nnz-prefix-sum chunk boundaries. The solve phase executes that schedule
//! on the persistent [`ExecPool`] writing `x` in place — no allocation, no
//! `(index, value)` collection, and results bit-identical to the serial
//! reference because every row reduces through [`crate::exec::row_dot`].

use crate::exec::{
    ExecPool, LevelSchedule, ScheduleMode, TaskGraphStats, TaskSchedule, TuneParams,
};
use crate::trace::{EventKind, SolveTrace};
use rayon::prelude::*;
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, MatrixError, Scalar};

/// Below this many components a level is solved serially — the fork/join
/// overhead dwarfs the work otherwise (the CPU analogue of the kernel-launch
/// cost the GPU model charges per level). Retained as the historical default
/// of [`TuneParams::par_rows`]; the legacy (unscheduled) path still uses it
/// directly.
const PAR_LEVEL_THRESHOLD: usize = 256;

/// A level-scheduled triangular solver: analysis happens once in
/// [`LevelSetSolver::new`], after which [`LevelSetSolver::solve`] may be
/// called for many right-hand sides.
#[derive(Debug, Clone)]
pub struct LevelSetSolver<S> {
    l: Csr<S>,
    levels: LevelSets,
    sched: LevelSchedule,
    /// The point-to-point task graph, compiled when the tune's
    /// [`ScheduleMode`] resolves to it. The level-sync `sched` above is
    /// always kept: it is the fallback when a p2p dispatch is refused
    /// (overlapped solve on the same plan, or a pool too small to host
    /// every task thread).
    tasks: Option<TaskSchedule>,
}

impl<S: Scalar> LevelSetSolver<S> {
    /// Analyse `l` (level-set construction; the preprocessing stage of
    /// Algorithm 2) and plan its execution schedule with default tuning.
    pub fn new(l: Csr<S>) -> Result<Self, MatrixError> {
        let levels = LevelSets::analyse(&l)?;
        Ok(Self::with_tune(l, levels, TuneParams::default()))
    }

    /// Build from an existing level decomposition (used by the blocked
    /// executor, which has already analysed the block during reordering).
    pub fn with_levels(l: Csr<S>, levels: LevelSets) -> Self {
        Self::with_tune(l, levels, TuneParams::default())
    }

    /// As [`LevelSetSolver::with_levels`] with explicit scheduling
    /// thresholds (the blocked executor threads its [`TuneParams`] through;
    /// a reloaded plan passes the tuning it was stored with).
    pub fn with_tune(l: Csr<S>, levels: LevelSets, tune: TuneParams) -> Self {
        Self::with_tune_threads(l, levels, tune, ExecPool::global().concurrency())
    }

    /// As [`LevelSetSolver::with_tune`] compiling the point-to-point task
    /// graph (if the mode selects one) for an explicit thread count instead
    /// of the global pool's — tests and embedders running their own pool.
    pub fn with_tune_threads(
        l: Csr<S>,
        levels: LevelSets,
        tune: TuneParams,
        nthreads: usize,
    ) -> Self {
        let sched = LevelSchedule::plan(&l, &levels, tune);
        let p2p = match tune.schedule_mode {
            ScheduleMode::LevelSync => false,
            ScheduleMode::PointToPoint => true,
            // Point-to-point pays off exactly when level-sync would pay
            // repeated barriers; a mostly-serial schedule stays level-sync.
            ScheduleMode::Auto => sched.nparallel() >= tune.p2p_min_parallel,
        };
        let tasks = p2p.then(|| TaskSchedule::plan(&l, &levels, tune, nthreads));
        LevelSetSolver { l, levels, sched, tasks }
    }

    /// The analysed level sets.
    pub fn levels(&self) -> &LevelSets {
        &self.levels
    }

    /// The planned execution schedule.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.sched
    }

    /// The scheduling thresholds the solver was planned with.
    pub fn tune(&self) -> &TuneParams {
        self.sched.tune()
    }

    /// The matrix being solved.
    pub fn matrix(&self) -> &Csr<S> {
        &self.l
    }

    /// Which synchronisation scheme steady-state solves use: `"p2p"` when a
    /// task graph was compiled, `"level-sync"` otherwise.
    pub fn schedule_mode(&self) -> &'static str {
        if self.tasks.is_some() {
            "p2p"
        } else {
            "level-sync"
        }
    }

    /// Shape of the compiled task graph, when the solver runs
    /// point-to-point.
    pub fn task_stats(&self) -> Option<TaskGraphStats> {
        self.tasks.as_ref().map(|t| t.stats())
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "sptrsv rhs",
                expected: n,
                actual: b.len(),
            });
        }
        let mut x = vec![S::ZERO; n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solve into a caller-provided buffer. This is the steady-state hot
    /// path: it executes the preplanned schedule on the global [`ExecPool`]
    /// and performs **zero heap allocations**.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.solve_into_pooled(b, x, ExecPool::global())
    }

    /// As [`LevelSetSolver::solve_into`] on an explicit pool (tests and
    /// embedders that keep their own).
    pub fn solve_into_pooled(
        &self,
        b: &[S],
        x: &mut [S],
        pool: &ExecPool,
    ) -> Result<(), MatrixError> {
        self.solve_panel::<1>(b, x, pool)
    }

    /// Solve `W` right-hand sides in one pass over the matrix: `b` and `x`
    /// are row-interleaved panels of `n·W` entries (row `i` of column `j`
    /// at `i·W + j`). Runs the same compiled schedule as
    /// [`LevelSetSolver::solve_into`] — point-to-point when compiled, with
    /// the level-sync fallback — and each column is bit-identical to a
    /// single-column solve of it.
    pub fn solve_panel<const W: usize>(
        &self,
        b: &[S],
        x: &mut [S],
        pool: &ExecPool,
    ) -> Result<(), MatrixError> {
        self.check_buffers(b, x, W)?;
        let t0 = SolveTrace::start();
        let p2p_done =
            self.tasks.as_ref().is_some_and(|t| t.solve_panel::<S, W>(&self.l, b, x, pool));
        if !p2p_done {
            self.sched.solve_panel::<S, W>(&self.l, b, x, pool);
        }
        SolveTrace::finish(
            t0,
            EventKind::LevelSetKernel,
            0,
            self.l.nrows() as u32,
            self.sched.nparallel().min(u16::MAX as usize) as u16,
        );
        Ok(())
    }

    fn check_buffers(&self, b: &[S], x: &[S], w: usize) -> Result<(), MatrixError> {
        let n = self.l.nrows() * w;
        if b.len() != n || x.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "sptrsv buffers",
                expected: n,
                actual: b.len().min(x.len()),
            });
        }
        Ok(())
    }

    /// The pre-engine solve path (per-level rayon regions collecting
    /// `(index, value)` pairs), kept verbatim for before/after benchmarking.
    /// Not part of the public API surface.
    #[doc(hidden)]
    pub fn solve_into_unscheduled(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.check_buffers(b, x, 1)?;
        let l = &self.l;
        for lvl in 0..self.levels.nlevels() {
            let items = self.levels.level_items(lvl);
            if items.len() < PAR_LEVEL_THRESHOLD {
                for &i in items {
                    x[i] = solve_row_legacy(l, b, x, i);
                }
            } else {
                let solved: Vec<(usize, S)> =
                    items.par_iter().map(|&i| (i, solve_row_legacy(l, b, x, i))).collect();
                for (i, xi) in solved {
                    x[i] = xi;
                }
            }
        }
        Ok(())
    }
}

/// Forward-substitute one row with the pre-engine sequential accumulation
/// (legacy path only; the engine path uses [`crate::exec::row_dot`]).
#[inline]
fn solve_row_legacy<S: Scalar>(l: &Csr<S>, b: &[S], x: &[S], i: usize) -> S {
    let (cols, vals) = l.row(i);
    let last = cols.len() - 1;
    debug_assert_eq!(cols[last], i, "diagonal must be last in row");
    let mut left_sum = S::ZERO;
    for k in 0..last {
        left_sum += vals[k] * x[cols[k]];
    }
    (b[i] - left_sum) / vals[last]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check_matches_serial(l: Csr<f64>, seed: u64) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 + seed as f64).sin()).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let solver = LevelSetSolver::new(l).unwrap();
        let x = solver.solve(&b).unwrap();
        assert_eq!(x, reference, "engine path must be bit-identical to serial reference");
    }

    #[test]
    fn matches_serial_on_random() {
        check_matches_serial(generate::random_lower::<f64>(800, 5.0, 31), 1);
    }

    #[test]
    fn matches_serial_on_grid() {
        check_matches_serial(generate::grid2d::<f64>(30, 25, 32), 2);
    }

    #[test]
    fn matches_serial_on_chain() {
        check_matches_serial(generate::chain::<f64>(300, 33), 3);
    }

    #[test]
    fn matches_serial_on_kkt() {
        check_matches_serial(generate::kkt_like::<f64>(2000, 900, 4, 34), 4);
    }

    #[test]
    fn matches_serial_on_large_parallel_levels() {
        // Levels large enough to trigger the parallel path.
        check_matches_serial(generate::kkt_like::<f64>(5000, 2500, 3, 35), 5);
    }

    #[test]
    fn legacy_path_matches_engine_numerically() {
        let l = generate::kkt_like::<f64>(3000, 1400, 3, 38);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.29).cos()).collect();
        let solver = LevelSetSolver::new(l).unwrap();
        let mut x_new = vec![0.0; n];
        let mut x_old = vec![0.0; n];
        solver.solve_into(&b, &mut x_new).unwrap();
        solver.solve_into_unscheduled(&b, &mut x_old).unwrap();
        assert!(max_rel_diff(&x_new, &x_old) < 1e-12);
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let l = generate::banded::<f64>(200, 4, 0.6, 36);
        let b = vec![1.0; 200];
        let solver = LevelSetSolver::new(l).unwrap();
        let mut x = vec![0.0; 200];
        solver.solve_into(&b, &mut x).unwrap();
        assert!(max_rel_diff(&x, &solver.solve(&b).unwrap()) == 0.0);
    }

    #[test]
    fn rejects_bad_rhs() {
        let solver = LevelSetSolver::new(Csr::<f64>::identity(4)).unwrap();
        assert!(solver.solve(&[1.0]).is_err());
    }

    #[test]
    fn rejects_non_triangular_matrix() {
        let a = Csr::<f64>::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1., 1., 1.]).unwrap();
        assert!(LevelSetSolver::new(a).is_err());
    }

    #[test]
    fn exposes_levels_and_schedule() {
        let solver = LevelSetSolver::new(generate::chain::<f64>(10, 37)).unwrap();
        assert_eq!(solver.levels().nlevels(), 10);
        assert_eq!(solver.matrix().nrows(), 10);
        assert_eq!(solver.schedule().nruns(), 1, "a chain coarsens to one serial run");
        assert_eq!(solver.tune().par_rows, TuneParams::default().par_rows);
    }
}
