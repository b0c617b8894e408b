//! cuSPARSE-csrsv2-style baseline solver.
//!
//! The paper compares against "a level-set method in cuSPARSE v2 of CUDA
//! v10.2", which follows Naumov's technical report: a separate, fairly
//! expensive **analysis phase** builds the level schedule (plus auxiliary
//! per-row metadata), and the **solve phase** launches one kernel per level,
//! merging runs of consecutive *small* levels into a single launch to save
//! synchronisation cost.
//!
//! This reproduction keeps the same two-phase structure and the same merged
//! launch schedule. The merged-launch trick is semantically delicate: rows in
//! a later level may depend on rows of an earlier level in the same launch,
//! so within a merged launch rows are processed *in level order serially* —
//! which is precisely why cuSPARSE only merges levels that are small. The
//! GPU cost model charges one launch overhead per merged group, reproducing
//! cuSPARSE's characteristic collapse on matrices with very many levels.
//!
//! Execution runs on the engine ([`LevelSchedule`]) under merged-launch
//! tuning ([`TuneParams::merged_launch`]): levels below `par_rows` rows fuse
//! into serial runs (subsuming the group merge at execution time — the
//! groups remain the cost-model surface), larger levels launch parallel with
//! nnz-balanced chunks. The hot path allocates nothing.

use crate::exec::{ExecPool, LevelSchedule, TuneParams};
use crate::trace::{EventKind, SolveTrace};
use rayon::prelude::*;
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, MatrixError, Scalar};

/// Levels with at most this many rows are eligible for merging with their
/// neighbours into a single launch.
const MERGE_THRESHOLD: usize = 32;

/// Rows below which a launch group is executed serially on the CPU (the
/// historical default of [`TuneParams::par_rows`] for this solver).
const PAR_GROUP_THRESHOLD: usize = 256;

/// A launch group: a contiguous range of levels executed as one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchGroup {
    /// First level (inclusive).
    pub level_start: usize,
    /// Last level (exclusive).
    pub level_end: usize,
    /// Total rows across the merged levels.
    pub rows: usize,
}

/// The cuSPARSE-like two-phase solver.
#[derive(Debug, Clone)]
pub struct CusparseLikeSolver<S> {
    l: Csr<S>,
    levels: LevelSets,
    groups: Vec<LaunchGroup>,
    sched: LevelSchedule,
}

impl<S: Scalar> CusparseLikeSolver<S> {
    /// The analysis phase: level construction plus launch-schedule building.
    pub fn analyse(l: Csr<S>) -> Result<Self, MatrixError> {
        let levels = LevelSets::analyse(&l)?;
        Self::with_levels_tuned(l, levels, TuneParams::default())
    }

    /// Rebuild a solver from a matrix and an already-computed level
    /// decomposition (the persistence path: the plan store saves the level
    /// arrays so reloading skips the analysis phase). The launch schedule
    /// is re-derived from the levels — it is cheap (`O(nlevels)`).
    pub fn with_levels(l: Csr<S>, levels: LevelSets) -> Result<Self, MatrixError> {
        Self::with_levels_tuned(l, levels, TuneParams::default())
    }

    /// As [`CusparseLikeSolver::with_levels`] with explicit scheduling
    /// thresholds. Only `par_rows` and `chunk_nnz` matter here — the solver
    /// always plans under merged-launch semantics
    /// ([`TuneParams::merged_launch`]), which is what makes it the
    /// row-threshold baseline the paper compares against.
    pub fn with_levels_tuned(
        l: Csr<S>,
        levels: LevelSets,
        tune: TuneParams,
    ) -> Result<Self, MatrixError> {
        if levels.n() != l.nrows() {
            return Err(MatrixError::DimensionMismatch {
                what: "cusparse-like levels",
                expected: l.nrows(),
                actual: levels.n(),
            });
        }
        let groups = build_groups(&levels);
        let sched = LevelSchedule::plan(&l, &levels, tune.merged_launch());
        Ok(CusparseLikeSolver { l, levels, groups, sched })
    }

    /// The analysed matrix.
    pub fn matrix(&self) -> &Csr<S> {
        &self.l
    }

    /// The level decomposition found by analysis.
    pub fn levels(&self) -> &LevelSets {
        &self.levels
    }

    /// The planned execution schedule.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.sched
    }

    /// The merged launch schedule (one entry per simulated kernel launch).
    pub fn launch_groups(&self) -> &[LaunchGroup] {
        &self.groups
    }

    /// Number of simulated kernel launches per solve.
    pub fn nlaunches(&self) -> usize {
        self.groups.len()
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

    /// Solve into a caller-provided buffer: executes the preplanned schedule
    /// on the global [`ExecPool`] with zero heap allocations.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.solve_panel::<1>(b, x, ExecPool::global())
    }

    /// Solve `W` right-hand sides in one pass over the matrix on `pool`:
    /// `b` and `x` are row-interleaved panels of `n·W` entries (row `i` of
    /// column `j` at `i·W + j`), and each column is bit-identical to
    /// [`CusparseLikeSolver::solve_into`] on it.
    pub fn solve_panel<const W: usize>(
        &self,
        b: &[S],
        x: &mut [S],
        pool: &ExecPool,
    ) -> Result<(), MatrixError> {
        let n = self.l.nrows() * W;
        if b.len() != n || x.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "sptrsv buffers",
                expected: n,
                actual: b.len().min(x.len()),
            });
        }
        let t0 = SolveTrace::start();
        self.sched.solve_panel::<S, W>(&self.l, b, x, pool);
        SolveTrace::finish(
            t0,
            EventKind::CusparseKernel,
            0,
            self.l.nrows() as u32,
            self.sched.nparallel().min(u16::MAX as usize) as u16,
        );
        Ok(())
    }

    /// The pre-engine solve path (per-group rayon regions collecting
    /// `(index, value)` pairs), kept verbatim for before/after benchmarking.
    /// Not part of the public API surface.
    #[doc(hidden)]
    pub fn solve_legacy(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "sptrsv rhs",
                expected: n,
                actual: b.len(),
            });
        }
        let mut x = vec![S::ZERO; n];
        let l = &self.l;
        for g in &self.groups {
            let single_level = g.level_end - g.level_start == 1;
            if single_level && g.rows >= PAR_GROUP_THRESHOLD {
                // One big level: fully parallel launch.
                let items = self.levels.level_items(g.level_start);
                let solved: Vec<(usize, S)> =
                    items.par_iter().map(|&i| (i, solve_row_legacy(l, b, &x, i))).collect();
                for (i, xi) in solved {
                    x[i] = xi;
                }
            } else {
                // Merged small levels: process in level order within the
                // launch (dependencies may cross the merged levels).
                for lvl in g.level_start..g.level_end {
                    for &i in self.levels.level_items(lvl) {
                        x[i] = solve_row_legacy(l, b, &x, i);
                    }
                }
            }
        }
        Ok(x)
    }
}

/// Merge runs of small levels into launch groups.
fn build_groups(levels: &LevelSets) -> Vec<LaunchGroup> {
    let mut groups = Vec::new();
    let nlevels = levels.nlevels();
    let mut lvl = 0usize;
    while lvl < nlevels {
        let size = levels.level_size(lvl);
        if size > MERGE_THRESHOLD {
            groups.push(LaunchGroup { level_start: lvl, level_end: lvl + 1, rows: size });
            lvl += 1;
        } else {
            let start = lvl;
            let mut rows = 0usize;
            while lvl < nlevels && levels.level_size(lvl) <= MERGE_THRESHOLD {
                rows += levels.level_size(lvl);
                lvl += 1;
            }
            groups.push(LaunchGroup { level_start: start, level_end: lvl, rows });
        }
    }
    groups
}

#[inline]
fn solve_row_legacy<S: Scalar>(l: &Csr<S>, b: &[S], x: &[S], i: usize) -> S {
    let (cols, vals) = l.row(i);
    let last = cols.len() - 1;
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

    fn check(l: Csr<f64>) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let solver = CusparseLikeSolver::analyse(l).unwrap();
        let x = solver.solve(&b).unwrap();
        assert_eq!(x, reference, "engine path must be bit-identical to serial reference");
    }

    #[test]
    fn matches_serial_on_random() {
        check(generate::random_lower::<f64>(900, 4.0, 61));
    }

    #[test]
    fn matches_serial_on_chain() {
        check(generate::chain::<f64>(500, 62));
    }

    #[test]
    fn matches_serial_on_grid() {
        check(generate::grid2d::<f64>(35, 20, 63));
    }

    #[test]
    fn matches_serial_on_kkt() {
        check(generate::kkt_like::<f64>(4000, 1500, 3, 64));
    }

    #[test]
    fn legacy_path_matches_engine_numerically() {
        let l = generate::kkt_like::<f64>(4000, 1500, 3, 60);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let solver = CusparseLikeSolver::analyse(l).unwrap();
        let x_new = solver.solve(&b).unwrap();
        let x_old = solver.solve_legacy(&b).unwrap();
        assert!(max_rel_diff(&x_new, &x_old) < 1e-12);
    }

    #[test]
    fn chain_merges_all_levels_into_few_launches() {
        // 500 levels of size 1 — all mergeable: one launch.
        let solver = CusparseLikeSolver::analyse(generate::chain::<f64>(500, 65)).unwrap();
        assert_eq!(solver.levels().nlevels(), 500);
        assert_eq!(solver.nlaunches(), 1);
        assert_eq!(solver.schedule().nruns(), 1, "merged-launch tuning fuses the whole chain");
    }

    #[test]
    fn big_levels_get_their_own_launch() {
        let solver =
            CusparseLikeSolver::analyse(generate::kkt_like::<f64>(1000, 400, 3, 66)).unwrap();
        assert_eq!(solver.levels().nlevels(), 2);
        assert_eq!(solver.nlaunches(), 2);
    }

    #[test]
    fn groups_cover_all_levels_exactly_once() {
        let solver = CusparseLikeSolver::analyse(generate::grid2d::<f64>(25, 25, 67)).unwrap();
        let mut next = 0usize;
        let mut total_rows = 0usize;
        for g in solver.launch_groups() {
            assert_eq!(g.level_start, next);
            assert!(g.level_end > g.level_start);
            next = g.level_end;
            total_rows += g.rows;
        }
        assert_eq!(next, solver.levels().nlevels());
        assert_eq!(total_rows, 625);
    }

    #[test]
    fn with_levels_matches_analyse() {
        let l = generate::grid2d::<f64>(20, 20, 68);
        let analysed = CusparseLikeSolver::analyse(l.clone()).unwrap();
        let rebuilt =
            CusparseLikeSolver::with_levels(l.clone(), analysed.levels().clone()).unwrap();
        assert_eq!(rebuilt.launch_groups(), analysed.launch_groups());
        assert_eq!(rebuilt.matrix(), &l);
        let b: Vec<f64> = (0..400).map(|i| (i % 13) as f64 - 6.0).collect();
        assert_eq!(rebuilt.solve(&b).unwrap(), analysed.solve(&b).unwrap());
    }

    #[test]
    fn with_levels_rejects_size_mismatch() {
        let l = generate::chain::<f64>(10, 69);
        let levels = recblock_matrix::levelset::LevelSets::analyse(&l).unwrap();
        let smaller = generate::chain::<f64>(9, 69);
        assert!(CusparseLikeSolver::with_levels(smaller, levels).is_err());
    }

    #[test]
    fn rejects_bad_rhs() {
        let solver = CusparseLikeSolver::analyse(Csr::<f64>::identity(3)).unwrap();
        assert!(solver.solve(&[1.0]).is_err());
    }
}
