//! Property tests for the multi-RHS path, [`BlockedTri::solve_multi_ws`].
//!
//! On every plan without a sync-free block, each column of a batch solve
//! must be bit-identical to [`BlockedTri::solve_into`] on that column: the
//! panel executors load each nonzero once for up to eight columns but keep
//! every column's reduction order. The properties vary the recursion depth,
//! DCSR storage, reordering, the schedule mode, the batch width (and so the
//! 8/4/2/1 panel split) and the fixed tri kernel. A plan with a sync-free
//! block solves column by column and is held to the serial reference.
//!
//! These live in a test binary of their own so a failure elsewhere cannot
//! stop `cargo test` before they run.

use proptest::prelude::*;
use recblock::adaptive::{Selector, TriKernel};
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule, SolveWorkspace};
use recblock::partition::{self, PlanNode};
use recblock_gpu_sim::cost::SpmvKind;
use recblock_kernels::exec::{ScheduleMode, TuneParams};
use recblock_kernels::sptrsm::MultiVector;
use recblock_kernels::sptrsv::serial_csr;
use recblock_matrix::generate::{self, LayerShape};
use recblock_matrix::vector::max_rel_diff;
use recblock_matrix::{Coo, Csr};

/// Batch widths: every panel split from a lone column to 8 + 2 + 1.
const WIDTHS: [usize; 6] = [1, 2, 3, 5, 8, 11];

fn batch(n: usize, k: usize, seed: u64) -> MultiVector<f64> {
    let data = (0..n * k)
        .map(|i| (((i as u64).wrapping_mul(seed + 11) % 89) as f64) / 44.0 - 1.0)
        .collect();
    MultiVector::from_columns(n, k, data).unwrap()
}

/// Solve a `k`-column batch with `solve_multi_ws` and compare every column
/// with `solve_into` bit for bit.
fn check_columns_bitwise(l: &Csr<f64>, opts: &BlockedOptions, k: usize, seed: u64) {
    let s = BlockedTri::build(l, opts).unwrap();
    assert!(
        s.census().tri.iter().all(|(kernel, _)| *kernel != TriKernel::SyncFree),
        "fixed selectors never pick sync-free"
    );
    let n = l.nrows();
    let b = batch(n, k, seed);
    let mut out = MultiVector::zeros(n, k);
    let mut ws = SolveWorkspace::new();
    s.solve_multi_ws(&b, &mut out, &mut ws).unwrap();
    let mut x = vec![0.0; n];
    for j in 0..k {
        s.solve_into(b.col(j), &mut x, &mut ws).unwrap();
        let same = x.iter().zip(out.col(j)).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "column {j} of {k} differs from its single-column solve");
    }
}

/// A lower-triangular matrix from one of four structural families.
fn structured(family: usize, n: usize, seed: u64) -> Csr<f64> {
    match family {
        0 => generate::random_lower(n, 4.0, seed),
        1 => generate::layered(n, 12, 2.5, LayerShape::Uniform, seed),
        2 => generate::kkt_like(n, n / 3, 3, seed),
        _ => generate::with_heavy_rows(&generate::random_lower(n, 3.0, seed), 3, 24, seed),
    }
}

/// A matrix whose triangular blocks at `depth` (without reordering) hold
/// only their diagonal: every off-diagonal entry of a row lies in an
/// earlier leaf, so `Selector::Fixed(CompletelyParallel, _)` solves it and
/// all the coupling runs through the square blocks.
fn leaf_diagonal(n: usize, depth: usize, seed: u64) -> Csr<f64> {
    let mut coo = Coo::new(n, n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for node in partition::recursive_plan(n, depth) {
        let PlanNode::Tri { rows } = node else { continue };
        for i in rows.clone() {
            // 0–11 dependencies: short rows and the four-chain reduction.
            let deps = if rows.start == 0 { 0 } else { next() % 12 };
            let mut cols: Vec<usize> =
                (0..deps).map(|_| (next() % rows.start as u64) as usize).collect();
            cols.sort_unstable();
            cols.dedup();
            for j in cols {
                coo.push(i, j, -0.25 - (next() % 8) as f64 / 16.0).unwrap();
            }
            coo.push(i, i, 2.0 + (next() % 5) as f64).unwrap();
        }
    }
    coo.to_csr()
}

fn opts(
    depth: usize,
    reorder: bool,
    selector: Selector,
    dcsr: bool,
    tune: TuneParams,
) -> BlockedOptions {
    BlockedOptions {
        depth: DepthRule::Fixed(depth),
        reorder,
        selector,
        allow_dcsr: dcsr,
        tune,
        ..BlockedOptions::default()
    }
}

/// Small thresholds so even small blocks run parallel levels, multi-chunk
/// SpMV plans and many point-to-point tasks.
fn arb_tune() -> impl Strategy<Value = TuneParams> {
    (1usize..64, 1usize..2048, 1usize..1024, 1usize..512, 0usize..2).prop_map(
        |(par_rows, fuse_nnz, chunk_nnz, p2p_chunk_nnz, mode)| TuneParams {
            par_rows,
            fuse_nnz,
            chunk_nnz,
            p2p_chunk_nnz,
            schedule_mode: [ScheduleMode::LevelSync, ScheduleMode::PointToPoint][mode],
            ..TuneParams::default()
        },
    )
}

/// (depth, reorder, DCSR allowed, SpMV kind, batch width, seed).
fn arb_plan() -> impl Strategy<Value = (usize, bool, bool, SpmvKind, usize, u64)> {
    (0usize..4, 0u8..2, 0u8..2, 0usize..4, 0usize..WIDTHS.len(), 0u64..1000).prop_map(
        |(depth, reorder, dcsr, kind, ki, seed)| {
            (depth, reorder == 1, dcsr == 1, SpmvKind::ALL[kind], WIDTHS[ki], seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn level_set_batches_match_single_solves(
        plan in arb_plan(), tune in arb_tune(), shape in (0usize..4, 64usize..700),
    ) {
        let (depth, reorder, dcsr, kind, k, seed) = plan;
        let l = structured(shape.0, shape.1, seed);
        let o = opts(depth, reorder, Selector::Fixed(TriKernel::LevelSet, kind), dcsr, tune);
        check_columns_bitwise(&l, &o, k, seed);
    }

    #[test]
    fn cusparse_like_batches_match_single_solves(
        plan in arb_plan(), tune in arb_tune(), shape in (0usize..4, 64usize..700),
    ) {
        let (depth, reorder, dcsr, kind, k, seed) = plan;
        let l = structured(shape.0, shape.1, seed);
        let o = opts(depth, reorder, Selector::Fixed(TriKernel::CusparseLike, kind), dcsr, tune);
        check_columns_bitwise(&l, &o, k, seed);
    }

    #[test]
    fn completely_parallel_batches_match_single_solves(
        plan in arb_plan(), tune in arb_tune(), n in 64usize..700,
    ) {
        let (depth, _, dcsr, kind, k, seed) = plan;
        let l = leaf_diagonal(n, depth, seed);
        let selector = Selector::Fixed(TriKernel::CompletelyParallel, kind);
        check_columns_bitwise(&l, &opts(depth, false, selector, dcsr, tune), k, seed);
    }
}

#[test]
fn sync_free_plan_solves_each_column_to_serial() {
    // A 2-D stencil has too many levels for level-set and too few rows per
    // level for the wide-level guard: the default selector picks sync-free,
    // whose CSC kernel has no deterministic multi-column form.
    let l = generate::grid2d::<f64>(40, 40, 5);
    let n = l.nrows();
    let s = BlockedTri::build(&l, &opts(0, true, Selector::default(), true, TuneParams::default()))
        .unwrap();
    assert!(s.census().tri.iter().any(|(kernel, _)| *kernel == TriKernel::SyncFree));
    for k in WIDTHS {
        let b = batch(n, k, k as u64);
        let mut out = MultiVector::zeros(n, k);
        s.solve_multi_ws(&b, &mut out, &mut SolveWorkspace::new()).unwrap();
        for j in 0..k {
            let reference = serial_csr(&l, b.col(j)).unwrap();
            let diff = max_rel_diff(out.col(j), &reference);
            assert!(diff < 1e-10, "column {j} of {k}: {diff:e} from serial");
        }
    }
}
