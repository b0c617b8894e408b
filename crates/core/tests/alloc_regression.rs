//! Allocation-regression guard for the end-to-end blocked solve.
//!
//! After one warm-up call sizes the [`SolveWorkspace`], the full block walk
//! — gather, every per-block triangular solve and SpMV, scatter — must not
//! heap-allocate at all. The kernel selection is pinned to the level-set /
//! CSR kernels because the sync-free solver allocates per-solve atomic
//! state by design (see `TriSolver::solve_into`).
//!
//! A single `#[test]` keeps the allocation counter free of interference
//! from concurrently running tests.

use recblock::adaptive::{Selector, TriKernel};
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule, SolveWorkspace};
use recblock_gpu_sim::cost::SpmvKind;
use recblock_kernels::sptrsm::MultiVector;
use recblock_matrix::generate;
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

fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn blocked_solve_into_does_not_allocate_in_steady_state() {
    let l = generate::kkt_like::<f64>(4000, 1500, 3, 910);
    let n = l.nrows();
    let opts = BlockedOptions {
        depth: DepthRule::Fixed(3),
        // Pin selection to schedule-based kernels: the sync-free variant
        // allocates per-solve state by design and is out of scope here.
        selector: Selector::Fixed(TriKernel::LevelSet, SpmvKind::ScalarCsr),
        ..BlockedOptions::default()
    };
    let s = BlockedTri::build(&l, &opts).unwrap();

    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) - 9.0).collect();
    let mut x = vec![0.0f64; n];
    let mut ws = SolveWorkspace::new();
    s.solve_into(&b, &mut x, &mut ws).unwrap(); // warm-up

    let allocs = allocations_during(|| {
        for _ in 0..10 {
            s.solve_into(&b, &mut x, &mut ws).unwrap();
        }
    });
    assert_eq!(allocs, 0, "BlockedTri::solve_into allocated in steady state");

    // Multi-RHS batches through a warmed workspace are allocation-free too:
    // one warm-up at the widest batch sizes the workspace, after which
    // batches of any width — here 3 (panels of 2 and 1) alternating with
    // 8 (one 8-wide panel) — reuse it.
    let batch = |k: usize| {
        let data: Vec<f64> = (0..n * k).map(|i| ((i % 37) as f64) - 18.0).collect();
        (MultiVector::from_columns(n, k, data).unwrap(), MultiVector::zeros(n, k))
    };
    let (b8, mut x8) = batch(8);
    let (b3, mut x3) = batch(3);
    s.solve_multi_ws(&b8, &mut x8, &mut ws).unwrap(); // warm-up

    let allocs = allocations_during(|| {
        for _ in 0..3 {
            s.solve_multi_ws(&b3, &mut x3, &mut ws).unwrap();
            s.solve_multi_ws(&b8, &mut x8, &mut ws).unwrap();
        }
    });
    assert_eq!(allocs, 0, "BlockedTri::solve_multi_ws allocated in steady state");
    for j in 0..3 {
        s.solve_into(b3.col(j), &mut x, &mut ws).unwrap();
        assert_eq!(x3.col(j), &x[..], "column {j} of the 3-wide batch");
    }
}
