//! Allocation-regression guard for the kernel hot path.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; after one warm-up
//! solve (which spins up the global [`ExecPool`] and sizes every reusable
//! buffer), the steady-state `solve_into`/planned-SpMV calls must perform
//! **zero** heap allocations. Any future change that sneaks a `Vec` or a
//! `collect` back into the hot loop fails this test immediately.
//!
//! The sync-free solvers are deliberately out of scope: their per-solve
//! atomic state is allocated by design (see `TriSolver::solve_into`).
//!
//! Everything runs inside a single `#[test]` so no concurrently running
//! test can pollute the allocation counter.

use recblock_kernels::exec::{ExecPool, SolveWorkspace, SpmvPlan, TuneParams};
use recblock_kernels::spmv;
use recblock_kernels::sptrsm::MultiVector;
use recblock_kernels::sptrsv::{
    parallel_diag_into, parallel_diag_panel, CusparseLikeSolver, LevelSetSolver,
};
use recblock_matrix::generate;
use recblock_matrix::levelset::LevelSets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static TRACKING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count heap allocations performed while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_solves_do_not_allocate() {
    let pool = ExecPool::global();

    // Tiny thresholds force real parallel runs and multi-chunk plans, so
    // the zero-allocation claim covers the scheduled paths, not just the
    // fused-serial fast path.
    let tune = TuneParams { par_rows: 16, fuse_nnz: 256, chunk_nnz: 512, ..TuneParams::default() };

    let l = generate::layered::<f64>(3000, 40, 3.0, generate::LayerShape::Uniform, 901);
    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
    let mut x = vec![0.0f64; n];

    // --- level-set solver -------------------------------------------------
    let levels = LevelSets::analyse(&l).unwrap();
    let ls = LevelSetSolver::with_tune(l.clone(), levels.clone(), tune);
    ls.solve_into(&b, &mut x).unwrap(); // warm-up: pool spin-up etc.
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            ls.solve_into(&b, &mut x).unwrap();
        }
    });
    assert_eq!(allocs, 0, "LevelSetSolver::solve_into allocated in steady state");

    // --- level-set solver, point-to-point schedule --------------------------
    // The task graph reuses epoch-stamped flags across solves; a multi-thread
    // pool is created up front so its spin-up is outside the counted window.
    let p2p_pool = ExecPool::new(2);
    let p2p_tune = TuneParams {
        schedule_mode: recblock_kernels::ScheduleMode::PointToPoint,
        p2p_chunk_nnz: 256,
        ..tune
    };
    let lp = LevelSetSolver::with_tune_threads(
        l.clone(),
        levels.clone(),
        p2p_tune,
        p2p_pool.concurrency(),
    );
    assert_eq!(lp.schedule_mode(), "p2p", "p2p schedule must have compiled");
    lp.solve_into_pooled(&b, &mut x, &p2p_pool).unwrap(); // warm-up
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            lp.solve_into_pooled(&b, &mut x, &p2p_pool).unwrap();
        }
    });
    assert_eq!(allocs, 0, "p2p LevelSetSolver::solve_into allocated in steady state");

    // --- cuSPARSE-like solver ---------------------------------------------
    let cu = CusparseLikeSolver::with_levels_tuned(l.clone(), levels.clone(), tune).unwrap();
    cu.solve_into(&b, &mut x).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            cu.solve_into(&b, &mut x).unwrap();
        }
    });
    assert_eq!(allocs, 0, "CusparseLikeSolver::solve_into allocated in steady state");

    // --- diagonal kernel --------------------------------------------------
    let d = generate::diagonal::<f64>(20_000, 902);
    let bd = vec![2.5f64; 20_000];
    let mut xd = vec![0.0f64; 20_000];
    parallel_diag_into(&d, &bd, &mut xd, pool).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            parallel_diag_into(&d, &bd, &mut xd, pool).unwrap();
        }
    });
    assert_eq!(allocs, 0, "parallel_diag_into allocated in steady state");

    // --- planned SpMV (CSR and DCSR) --------------------------------------
    let a = generate::random_lower::<f64>(2000, 6.0, 903);
    let plan = SpmvPlan::for_csr(&a, &tune);
    let xs = vec![1.0f64; 2000];
    let mut ys = vec![0.0f64; 2000];
    spmv::csr_update_planned(&a, &plan, &xs, &mut ys, pool).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            spmv::csr_update_planned(&a, &plan, &xs, &mut ys, pool).unwrap();
        }
    });
    assert_eq!(allocs, 0, "csr_update_planned allocated in steady state");

    let ad = recblock_matrix::Dcsr::from_csr(&a);
    let dplan = SpmvPlan::for_dcsr(&ad, &tune);
    spmv::dcsr_update_planned(&ad, &dplan, &xs, &mut ys, pool).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            spmv::dcsr_update_planned(&ad, &dplan, &xs, &mut ys, pool).unwrap();
        }
    });
    assert_eq!(allocs, 0, "dcsr_update_planned allocated in steady state");

    // --- multi-RHS panels --------------------------------------------------
    // Every executor's 4-wide panel form, with the transposes in and out of
    // a column-major batch, on buffers sized once up front.
    const W: usize = 4;
    let data: Vec<f64> = (0..n * W).map(|i| ((i % 31) as f64) - 15.0).collect();
    let bm = MultiVector::from_columns(n, W, data).unwrap();
    let mut xm = MultiVector::zeros(n, W);
    let (mut bp, mut xp) = (vec![0.0f64; n * W], vec![0.0f64; n * W]);
    let (bdp, mut xdp) = (vec![2.5f64; 20_000 * W], vec![0.0f64; 20_000 * W]);
    let (xsp, mut ysp) = (vec![1.0f64; 2000 * W], vec![0.0f64; 2000 * W]);
    let mut panels = || {
        bm.gather_panel::<W>(0..W, None, &mut bp);
        ls.solve_panel::<W>(&bp, &mut xp, pool).unwrap();
        lp.solve_panel::<W>(&bp, &mut xp, &p2p_pool).unwrap();
        cu.solve_panel::<W>(&bp, &mut xp, pool).unwrap();
        xm.scatter_panel::<W>(0..W, None, &xp);
        parallel_diag_panel::<f64, W>(&d, &bdp, &mut xdp, pool).unwrap();
        spmv::csr_update_panel::<f64, W>(&a, &plan, &xsp, &mut ysp, pool).unwrap();
        spmv::dcsr_update_panel::<f64, W>(&ad, &dplan, &xsp, &mut ysp, pool).unwrap();
    };
    panels(); // warm-up
    let allocs = allocations_during(|| {
        for _ in 0..5 {
            panels();
        }
    });
    assert_eq!(allocs, 0, "a panel executor allocated in steady state");

    // --- workspace reuse is allocation-free once warmed -------------------
    // The buffers only grow: after holding an 8-wide panel, single solves
    // and narrower panels reuse them.
    let mut ws = SolveWorkspace::<f64>::new();
    ws.pair(n * 8);
    let allocs = allocations_during(|| {
        for w in [1, 8, 2, 4, 1, 8] {
            let (wk, xw) = ws.pair(n * w);
            wk[0] = 1.0;
            xw[n * w - 1] = 2.0;
        }
    });
    assert_eq!(allocs, 0, "warmed SolveWorkspace allocated on reuse");

    // --- tracing *enabled* is still allocation-free ------------------------
    // Recording writes packed words into the pre-allocated ring; enabling
    // the trace must not reintroduce heap traffic on the hot path. (The
    // ring itself is allocated by `enable`, outside the counted window.)
    use recblock_kernels::trace::SolveTrace;
    SolveTrace::enable();
    ls.solve_into(&b, &mut x).unwrap(); // warm-up with tracing on
    let allocs = allocations_during(|| {
        for _ in 0..10 {
            ls.solve_into(&b, &mut x).unwrap();
            spmv::csr_update_planned(&a, &plan, &xs, &mut ys, pool).unwrap();
        }
    });
    SolveTrace::disable();
    let events = SolveTrace::drain();
    assert_eq!(allocs, 0, "solve with tracing enabled allocated in steady state");
    assert!(!events.is_empty(), "tracing was on, events should have been recorded");
}
