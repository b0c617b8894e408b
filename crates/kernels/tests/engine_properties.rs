//! Property-based bit-identity tests for the execution engine.
//!
//! The engine's contract is stronger than "numerically close": because every
//! kernel — serial reference, level-set schedule, cuSPARSE-like schedule,
//! planned SpMV — reduces each row through the *same* deterministic
//! lane-split reduction, scheduled execution must be **bit-identical** to
//! the serial reference for arbitrary matrices, arbitrary tuning thresholds
//! and both scalar widths. These properties pin that down, including the
//! degenerate shapes (single level, pure chain, empty rows / DCSR).
//!
//! The multi-RHS panel executors carry the same contract column by column:
//! every column of a `W`-wide panel solve or update is bit-identical to the
//! executor's single-column form on that column, for every batch width the
//! greedy panel split produces.

use proptest::prelude::*;
use recblock_kernels::exec::{panels, ExecPool, ScheduleMode, SpmvPlan, TuneParams};
use recblock_kernels::spmv;
use recblock_kernels::sptrsm::MultiVector;
use recblock_kernels::sptrsv::{
    parallel_diag_into, parallel_diag_panel, serial_csr, CusparseLikeSolver, LevelSetSolver,
};
use recblock_matrix::generate;
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, Dcsr, MatrixError, Scalar};

fn arb_lower() -> impl Strategy<Value = Csr<f64>> {
    (10usize..200, 0u64..400, 5u32..60)
        .prop_map(|(n, seed, deg10)| generate::random_lower::<f64>(n, deg10 as f64 / 10.0, seed))
}

/// Arbitrary engine tuning, spanning everything-fused through
/// everything-parallel with single-row chunks.
fn arb_tune() -> impl Strategy<Value = TuneParams> {
    (1usize..64, 1usize..2048, 1usize..1024).prop_map(|(par_rows, fuse_nnz, chunk_nnz)| {
        TuneParams { par_rows, fuse_nnz, chunk_nnz, ..TuneParams::default() }
    })
}

/// As [`arb_tune`] but forcing the point-to-point task graph and ranging
/// over its own knobs too (task granularity down to one nnz per task).
fn arb_p2p_tune() -> impl Strategy<Value = TuneParams> {
    (arb_tune(), 1usize..512).prop_map(|(tune, p2p_chunk_nnz)| TuneParams {
        schedule_mode: ScheduleMode::PointToPoint,
        p2p_chunk_nnz,
        ..tune
    })
}

/// Solve three times on an explicit multi-thread pool: p2p flags are
/// epoch-stamped, so repeated solves on one plan must stay bit-identical.
fn check_p2p_bitwise<S: Scalar>(l: Csr<S>, tune: TuneParams, rhs_seed: u64) {
    let b = rhs_for::<S>(l.nrows(), rhs_seed);
    let reference = serial_csr(&l, &b).unwrap();
    let levels = LevelSets::analyse(&l).unwrap();
    let pool = ExecPool::new(3);
    let ls = LevelSetSolver::with_tune_threads(l, levels, tune, pool.concurrency());
    assert!(ls.task_stats().is_some(), "p2p mode must compile a task graph");
    let mut x = vec![S::ZERO; b.len()];
    for round in 0..3 {
        x.fill(S::ZERO);
        ls.solve_into_pooled(&b, &mut x, &pool).unwrap();
        assert_eq!(x, reference, "p2p vs serial, round {round}");
    }
}

fn rhs_for<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
    (0..n)
        .map(|i| S::from_f64((((i as u64).wrapping_mul(seed + 7) % 83) as f64) / 41.0 - 1.0))
        .collect()
}

fn to_f32(l: &Csr<f64>) -> Csr<f32> {
    Csr::try_new(
        l.nrows(),
        l.ncols(),
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.vals().iter().map(|&v| v as f32).collect(),
    )
    .expect("same structure")
}

fn check_solvers_bitwise<S: Scalar>(l: Csr<S>, tune: TuneParams, rhs_seed: u64) {
    let b = rhs_for::<S>(l.nrows(), rhs_seed);
    let reference = serial_csr(&l, &b).unwrap();
    let levels = LevelSets::analyse(&l).unwrap();

    let ls = LevelSetSolver::with_tune(l.clone(), levels.clone(), tune);
    assert_eq!(ls.solve(&b).unwrap(), reference, "level-set vs serial");

    let cu = CusparseLikeSolver::with_levels_tuned(l, levels, tune).unwrap();
    assert_eq!(cu.solve(&b).unwrap(), reference, "cusparse-like vs serial");
}

/// An executor with a single-column form and a `W`-wide panel form. `input`
/// is read only (the right-hand side, or the SpMV's `x`); `inout` is the
/// solution, or the SpMV's updated `y`.
trait PanelExec<S> {
    fn single(&self, input: &[S], inout: &mut [S]) -> Result<(), MatrixError>;
    fn panel<const W: usize>(&self, input: &[S], inout: &mut [S]) -> Result<(), MatrixError>;
}

/// Run a `W`-wide panel of `input`/`inout` columns `cols` through `e`.
fn one_panel<S: Scalar, E: PanelExec<S>, const W: usize>(
    e: &E,
    input: &MultiVector<S>,
    inout: &mut MultiVector<S>,
    cols: std::ops::Range<usize>,
) {
    let mut ip = vec![S::ZERO; input.n() * W];
    let mut op = vec![S::ZERO; inout.n() * W];
    input.gather_panel::<W>(cols.clone(), None, &mut ip);
    inout.gather_panel::<W>(cols.clone(), None, &mut op);
    e.panel::<W>(&ip, &mut op).unwrap();
    inout.scatter_panel::<W>(cols, None, &op);
}

/// Every column of the batch through `e`'s panels (split greedily into
/// 8/4/2/1 wide) must be bit-identical to `e`'s single-column form on it.
fn check_panels_bitwise<S: Scalar, E: PanelExec<S>>(
    e: &E,
    input: &MultiVector<S>,
    inout: &MultiVector<S>,
    what: &str,
) {
    let mut by_panels = inout.clone();
    for cols in panels(input.k()) {
        match cols.len() {
            8 => one_panel::<S, E, 8>(e, input, &mut by_panels, cols),
            4 => one_panel::<S, E, 4>(e, input, &mut by_panels, cols),
            2 => one_panel::<S, E, 2>(e, input, &mut by_panels, cols),
            _ => one_panel::<S, E, 1>(e, input, &mut by_panels, cols),
        }
    }
    for j in 0..input.k() {
        let mut col = inout.col(j).to_vec();
        e.single(input.col(j), &mut col).unwrap();
        // f32 → f64 is exact, so comparing the widened bits compares the
        // original bits (signed zeros included).
        let bits = |v: &S| v.to_f64().to_bits();
        let same = col.iter().zip(by_panels.col(j)).all(|(a, b)| bits(a) == bits(b));
        assert!(same, "{what}: column {j} of {} differs from its single-column solve", input.k());
    }
}

struct LevelSet<'a, S>(&'a LevelSetSolver<S>, &'a ExecPool);
impl<S: Scalar> PanelExec<S> for LevelSet<'_, S> {
    fn single(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.0.solve_into_pooled(b, x, self.1)
    }
    fn panel<const W: usize>(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.0.solve_panel::<W>(b, x, self.1)
    }
}

struct Cusparse<'a, S>(&'a CusparseLikeSolver<S>, &'a ExecPool);
impl<S: Scalar> PanelExec<S> for Cusparse<'_, S> {
    fn single(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        // The single-column form runs on the global pool; the schedule
        // makes the result independent of the pool.
        self.0.solve_into(b, x)
    }
    fn panel<const W: usize>(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        self.0.solve_panel::<W>(b, x, self.1)
    }
}

struct Diag<'a, S>(&'a Csr<S>, &'a ExecPool);
impl<S: Scalar> PanelExec<S> for Diag<'_, S> {
    fn single(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        parallel_diag_into(self.0, b, x, self.1)
    }
    fn panel<const W: usize>(&self, b: &[S], x: &mut [S]) -> Result<(), MatrixError> {
        parallel_diag_panel::<S, W>(self.0, b, x, self.1)
    }
}

struct CsrUpdate<'a, S>(&'a Csr<S>, &'a SpmvPlan, &'a ExecPool);
impl<S: Scalar> PanelExec<S> for CsrUpdate<'_, S> {
    fn single(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        spmv::csr_update_planned(self.0, self.1, x, y, self.2)
    }
    fn panel<const W: usize>(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        spmv::csr_update_panel::<S, W>(self.0, self.1, x, y, self.2)
    }
}

struct DcsrUpdate<'a, S>(&'a Dcsr<S>, &'a SpmvPlan, &'a ExecPool);
impl<S: Scalar> PanelExec<S> for DcsrUpdate<'_, S> {
    fn single(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        spmv::dcsr_update_planned(self.0, self.1, x, y, self.2)
    }
    fn panel<const W: usize>(&self, x: &[S], y: &mut [S]) -> Result<(), MatrixError> {
        spmv::dcsr_update_panel::<S, W>(self.0, self.1, x, y, self.2)
    }
}

fn csr_of<S: Scalar>(n: usize, entries: impl Iterator<Item = (usize, usize, S)>) -> Csr<S> {
    let mut coo = recblock_matrix::Coo::new(n, n);
    for (i, j, v) in entries {
        coo.push(i, j, v).unwrap();
    }
    coo.to_csr()
}

fn batch_for<S: Scalar>(n: usize, k: usize, seed: u64) -> MultiVector<S> {
    let data = (0..k).flat_map(|j| rhs_for::<S>(n, seed + 13 * j as u64)).collect();
    MultiVector::from_columns(n, k, data).unwrap()
}

/// Every panel executor against its single-column form on `l` (plus its
/// diagonal and its strictly-lower part as SpMV blocks), `k` columns, on
/// a pool of `workers` workers.
fn check_all_panel_executors<S: Scalar>(
    l: Csr<S>,
    tune: TuneParams,
    k: usize,
    workers: usize,
    seed: u64,
) {
    let pool = ExecPool::new(workers);
    let n = l.nrows();
    let b = batch_for::<S>(n, k, seed);
    let x0 = MultiVector::zeros(n, k);
    let levels = LevelSets::analyse(&l).unwrap();

    let sync = TuneParams { schedule_mode: ScheduleMode::LevelSync, ..tune };
    let ls = LevelSetSolver::with_tune_threads(l.clone(), levels.clone(), sync, pool.concurrency());
    check_panels_bitwise(&LevelSet(&ls, &pool), &b, &x0, "level-sync");

    let p2p = TuneParams { schedule_mode: ScheduleMode::PointToPoint, ..tune };
    let lp = LevelSetSolver::with_tune_threads(l.clone(), levels.clone(), p2p, pool.concurrency());
    assert!(lp.task_stats().is_some(), "p2p mode must compile a task graph");
    check_panels_bitwise(&LevelSet(&lp, &pool), &b, &x0, "point-to-point");

    let cu = CusparseLikeSolver::with_levels_tuned(l.clone(), levels, tune).unwrap();
    check_panels_bitwise(&Cusparse(&cu, &pool), &b, &x0, "cusparse-like");

    let d = csr_of(n, l.iter().filter(|&(i, j, _)| i == j));
    check_panels_bitwise(&Diag(&d, &pool), &b, &x0, "diagonal");

    // The strictly-lower part as an SpMV block (heavy rows included),
    // updating a non-zero `y` batch.
    let a = csr_of(n, l.iter().filter(|&(i, j, _)| i != j));
    let y0 = batch_for::<S>(n, k, seed + 1);
    let plan = SpmvPlan::for_csr(&a, &tune);
    check_panels_bitwise(&CsrUpdate(&a, &plan, &pool), &b, &y0, "csr update");
    let ad = Dcsr::from_csr(&a);
    let dplan = SpmvPlan::for_dcsr(&ad, &tune);
    check_panels_bitwise(&DcsrUpdate(&ad, &dplan, &pool), &b, &y0, "dcsr update");
}

/// Lower-triangular matrices with a few rows of ≥ 8 off-diagonal nonzeros,
/// so the AVX2 `row_dot` lowering is on the single-column side.
fn arb_heavy_lower() -> impl Strategy<Value = Csr<f64>> {
    (arb_lower(), 0usize..4, 8usize..40, 0u64..100)
        .prop_map(|(l, heavy, degree, seed)| generate::with_heavy_rows(&l, heavy, degree, seed))
}

fn arb_panel_case() -> impl Strategy<Value = (Csr<f64>, TuneParams, usize, usize, u64)> {
    (arb_heavy_lower(), arb_p2p_tune(), 0usize..4, 1usize..4, 0u64..50)
        .prop_map(|(l, tune, ki, workers, seed)| (l, tune, [1, 2, 3, 8][ki], workers, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn panel_executors_bit_identical_per_column_f64(case in arb_panel_case()) {
        let (l, tune, k, workers, seed) = case;
        check_all_panel_executors(l, tune, k, workers, seed);
    }

    #[test]
    fn panel_executors_bit_identical_per_column_f32(case in arb_panel_case()) {
        let (l, tune, k, workers, seed) = case;
        check_all_panel_executors(to_f32(&l), tune, k, workers, seed);
    }

    #[test]
    fn scheduled_solvers_bit_identical_to_serial_f64(
        l in arb_lower(), tune in arb_tune(), rhs_seed in 0u64..50,
    ) {
        check_solvers_bitwise(l, tune, rhs_seed);
    }

    #[test]
    fn scheduled_solvers_bit_identical_to_serial_f32(
        l in arb_lower(), tune in arb_tune(), rhs_seed in 0u64..50,
    ) {
        check_solvers_bitwise(to_f32(&l), tune, rhs_seed);
    }

    #[test]
    fn p2p_schedule_bit_identical_to_serial_f64(
        l in arb_lower(), tune in arb_p2p_tune(), rhs_seed in 0u64..50,
    ) {
        check_p2p_bitwise(l, tune, rhs_seed);
    }

    #[test]
    fn p2p_schedule_bit_identical_to_serial_f32(
        l in arb_lower(), tune in arb_p2p_tune(), rhs_seed in 0u64..50,
    ) {
        check_p2p_bitwise(to_f32(&l), tune, rhs_seed);
    }

    #[test]
    fn planned_spmv_bit_identical_with_empty_rows(
        nrows in 10usize..150,
        ncols in 10usize..150,
        empty10 in 0u32..10,
        tune in arb_tune(),
        seed in 0u64..300,
    ) {
        // Matrices with empty rows are exactly what DCSR compresses away;
        // the planned kernels must agree bitwise on both storages.
        let a = generate::rect_random::<f64>(
            nrows, ncols, 3.0, empty10 as f64 / 10.0, 1.5, seed,
        );
        let x = rhs_for::<f64>(ncols, seed + 1);
        let pool = ExecPool::global();

        let mut y_ref = rhs_for::<f64>(nrows, seed + 2);
        let mut y_csr = y_ref.clone();
        let mut y_dcsr = y_ref.clone();

        spmv::scalar_csr(&a, &x, &mut y_ref).unwrap();

        let plan = SpmvPlan::for_csr(&a, &tune);
        spmv::csr_update_planned(&a, &plan, &x, &mut y_csr, pool).unwrap();
        prop_assert_eq!(&y_csr, &y_ref);

        let ad = Dcsr::from_csr(&a);
        let dplan = SpmvPlan::for_dcsr(&ad, &tune);
        spmv::dcsr_update_planned(&ad, &dplan, &x, &mut y_dcsr, pool).unwrap();
        prop_assert_eq!(&y_dcsr, &y_ref);
    }
}

#[test]
fn diagonal_panels_bit_identical_across_chunks() {
    // Large enough that both the single-column solve and every panel width
    // split the rows into several parallel chunks.
    let n = 20_000;
    let d = generate::diagonal::<f64>(n, 922);
    let pool = ExecPool::new(2);
    for k in [3, 8] {
        let b = batch_for::<f64>(n, k, 17);
        check_panels_bitwise(&Diag(&d, &pool), &b, &MultiVector::zeros(n, k), "diagonal");
    }
}

#[test]
fn single_level_matrix_bit_identical() {
    // A diagonal system collapses to one level; the schedule must still
    // agree with the serial reference for any tuning.
    for tune in [
        TuneParams::default(),
        TuneParams { par_rows: 1, fuse_nnz: 1, chunk_nnz: 1, ..TuneParams::default() },
    ] {
        check_solvers_bitwise(generate::diagonal::<f64>(500, 920), tune, 3);
    }
}

#[test]
fn chain_matrix_bit_identical() {
    // A pure chain has one row per level — the fully-serial worst case the
    // coarsening pass fuses into a single run.
    let tune = TuneParams { par_rows: 4, fuse_nnz: 16, chunk_nnz: 8, ..TuneParams::default() };
    check_solvers_bitwise(generate::chain::<f64>(800, 921), tune, 5);
}

#[test]
fn p2p_chain_and_single_level_bit_identical() {
    // The degenerate shapes: a diagonal system (one wide level — every task
    // independent) and a pure chain (one row per level — the planner fuses
    // the whole solve into a single task).
    let tune = TuneParams {
        schedule_mode: ScheduleMode::PointToPoint,
        p2p_chunk_nnz: 32,
        ..TuneParams::default()
    };
    check_p2p_bitwise(generate::diagonal::<f64>(500, 930), tune, 7);
    check_p2p_bitwise(generate::chain::<f64>(800, 931), tune, 8);
}

#[test]
fn empty_spmv_plan_is_consistent() {
    let a = Csr::<f64>::zero(8, 8);
    let plan = SpmvPlan::for_csr(&a, &TuneParams::default());
    let x = vec![1.0; 8];
    let mut y = vec![2.0; 8];
    spmv::csr_update_planned(&a, &plan, &x, &mut y, ExecPool::global()).unwrap();
    assert_eq!(y, vec![2.0; 8], "zero matrix must leave y untouched");
}
