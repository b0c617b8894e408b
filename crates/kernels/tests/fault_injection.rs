//! Fault injection against the execution engine itself: chunk panics and
//! straggler chunks, on both the worker-dispatch path and the 0-worker
//! serial fallback (which is what a 1-CPU host always takes).
//!
//! Compiled only with `--features faults`. The fault plan is process
//! global, so these tests live in their own binary and serialize on a
//! mutex, clearing the plan before releasing it.

#![cfg(feature = "faults")]

use recblock_faults::{FaultPlan, FaultPoint, Trigger};
use recblock_kernels::sptrsv::{serial_csr, LevelSetSolver};
use recblock_kernels::{ExecPool, ScheduleMode, TuneParams};
use recblock_matrix::generate;
use recblock_matrix::levelset::LevelSets;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn chunk_panic_on_worker_path_is_reraised_and_pool_stays_usable() {
    let _serial = fault_lock();
    let pool = ExecPool::new(2);
    let done = AtomicUsize::new(0);

    FaultPlan::new(41).with(FaultPoint::ExecChunk, Trigger::OneShot).install();
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.run(64, &|_| {
            done.fetch_add(1, Relaxed);
        })
    }));
    FaultPlan::clear();
    assert!(r.is_err(), "the injected chunk panic re-raises on the dispatcher");
    assert_eq!(done.load(Relaxed), 63, "every other chunk of the epoch still ran");

    // The workers caught the unwind and re-parked: the next dispatch
    // completes normally on the same pool.
    pool.run(64, &|_| {
        done.fetch_add(1, Relaxed);
    });
    assert_eq!(done.load(Relaxed), 63 + 64);
}

#[test]
fn chunk_panic_on_serial_fallback_propagates_and_pool_stays_usable() {
    let _serial = fault_lock();
    // No workers: run() takes the inline serial path, so the panic
    // propagates raw out of run() — the serve tier's catch_unwind is what
    // contains it there. The pool itself must survive for the next call.
    let pool = ExecPool::new(0);
    let done = AtomicUsize::new(0);

    FaultPlan::new(43).with(FaultPoint::ExecChunk, Trigger::OneShot).install();
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.run(16, &|_| {
            done.fetch_add(1, Relaxed);
        })
    }));
    FaultPlan::clear();
    assert!(r.is_err(), "serial-path chunk panic propagates to the caller");
    assert_eq!(done.load(Relaxed), 0, "one-shot fires before the first chunk");

    pool.run(16, &|_| {
        done.fetch_add(1, Relaxed);
    });
    assert_eq!(done.load(Relaxed), 16);
}

#[test]
fn straggler_chunks_delay_but_lose_no_work() {
    let _serial = fault_lock();
    let pool = ExecPool::new(2);
    let done = AtomicUsize::new(0);

    // Roughly half the chunks sleep. Every chunk must still run exactly
    // once and the dispatch must still drain.
    FaultPlan::new(47).with(FaultPoint::ExecSlow, Trigger::Prob(0.5)).install();
    pool.run(48, &|_| {
        done.fetch_add(1, Relaxed);
    });
    FaultPlan::clear();
    assert_eq!(done.load(Relaxed), 48);
}

/// A level-set solver forced to the point-to-point schedule on an explicit
/// multi-thread pool, with a task graph sized to that pool.
fn p2p_solver(pool: &ExecPool) -> (recblock_matrix::Csr<f64>, LevelSetSolver<f64>) {
    let l = generate::layered::<f64>(4000, 50, 3.0, generate::LayerShape::Uniform, 71);
    let levels = LevelSets::analyse(&l).unwrap();
    let tune = TuneParams {
        schedule_mode: ScheduleMode::PointToPoint,
        p2p_chunk_nnz: 128,
        ..TuneParams::default()
    };
    let ls =
        LevelSetSolver::with_tune_threads(l.clone(), levels, tune, pool.concurrency()).unwrap();
    assert_eq!(ls.schedule_mode(), "p2p");
    (l, ls)
}

#[test]
fn p2p_straggler_threads_delay_but_stay_bit_exact() {
    let _serial = fault_lock();
    let pool = ExecPool::new(2);
    let (l, ls) = p2p_solver(&pool);
    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) - 9.0).collect();
    let reference = serial_csr(&l, &b).unwrap();
    let mut x = vec![0.0f64; n];

    // Half the thread jobs start late: downstream tasks spin on their
    // parents' flags longer, but the result must not change by a bit.
    FaultPlan::new(53).with(FaultPoint::ExecSlow, Trigger::Prob(0.5)).install();
    for round in 0..4 {
        x.fill(0.0);
        ls.solve_panel::<1>(&b, &mut x, &pool).unwrap();
        assert_eq!(x, reference, "straggler p2p solve diverged, round {round}");
    }
    FaultPlan::clear();
}

#[test]
fn p2p_thread_panic_is_reraised_without_deadlock_and_solver_recovers() {
    let _serial = fault_lock();
    let pool = ExecPool::new(2);
    let (l, ls) = p2p_solver(&pool);
    let n = l.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) - 9.0).collect();
    let reference = serial_csr(&l, &b).unwrap();
    let mut x = vec![0.0f64; n];

    // One thread job dies mid-solve. Its children poll the pool's panicked
    // flag inside their dependency spin-waits and bail instead of waiting
    // forever on a flag that will never be set; the dispatcher re-raises.
    FaultPlan::new(59).with(FaultPoint::ExecChunk, Trigger::OneShot).install();
    let r = catch_unwind(AssertUnwindSafe(|| {
        ls.solve_panel::<1>(&b, &mut x, &pool).unwrap();
    }));
    FaultPlan::clear();
    assert!(r.is_err(), "the injected p2p thread panic re-raises on the dispatcher");

    // Epoch stamping makes the aborted solve's stale flags harmless: the
    // same solver and pool produce a bit-exact solve on the next call.
    x.fill(0.0);
    ls.solve_panel::<1>(&b, &mut x, &pool).unwrap();
    assert_eq!(x, reference, "p2p solver unusable after a contained panic");
}
