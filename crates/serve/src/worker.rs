//! Worker threads: drain batches, run the multi-RHS solve, answer.

use crate::batch::{Batch, BatchQueue, Pending};
use crate::error::ServeError;
use crate::metrics::{Metrics, Stage};
use recblock::blocked::SolveWorkspace;
use recblock_kernels::sptrsm::MultiVector;
use recblock_matrix::Scalar;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Buffers one worker reuses across batches: the gathered input block, the
/// solved output block, a single-RHS scratch, and the engine's
/// [`SolveWorkspace`]. Every buffer is re-shaped in place and only grows,
/// so once a worker has served its largest `n × k` batch the steady state
/// allocates nothing, whatever mix of shapes follows: each answer is
/// written back into the request's own rhs buffer, which the transport
/// layer recycles.
struct WorkerBuffers<S> {
    input: MultiVector<S>,
    out: MultiVector<S>,
    single: Vec<S>,
    ws: SolveWorkspace<S>,
}

impl<S: Scalar> WorkerBuffers<S> {
    fn new() -> Self {
        WorkerBuffers {
            input: MultiVector::zeros(0, 0),
            out: MultiVector::zeros(0, 0),
            single: Vec::new(),
            ws: SolveWorkspace::new(),
        }
    }
}

pub(crate) fn run<S: Scalar>(queue: Arc<BatchQueue<S>>, metrics: Arc<Metrics>, max_batch: usize) {
    let mut bufs = WorkerBuffers::new();
    while let Some(batch) = queue.next_batch(max_batch) {
        solve_batch(batch, &metrics, &mut bufs);
    }
}

fn solve_batch<S: Scalar>(batch: Batch<S>, metrics: &Metrics, bufs: &mut WorkerBuffers<S>) {
    let k = batch.requests.len();
    metrics.record_batch(k);
    for req in &batch.requests {
        metrics.record_stage(Stage::QueueWait, req.submitted.elapsed());
    }
    let n = batch.plan.n();
    let Batch { plan, mut requests } = batch;

    // The compute phase runs under an unwind guard: a panic in the
    // solver (or an injected `serve_dispatch`/`exec_chunk` fault) must
    // cost this batch, not the process. Crucially the guard only
    // *borrows* `requests` — delivery happens after it, so a poisoned
    // batch still answers every request with a typed error instead of
    // dropping replies on the floor.
    let computed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<(), ServeError> {
            if recblock_faults::fires(recblock_faults::FaultPoint::ServeDispatch) {
                panic!("injected fault: serve_dispatch");
            }
            if k == 1 {
                let req = &mut requests[0];
                let t0 = Instant::now();
                let r = (|| -> Result<(), ServeError> {
                    bufs.single.resize(n, S::ZERO);
                    plan.solve_into(&req.rhs, &mut bufs.single, &mut bufs.ws)?;
                    // Answer in the request's own buffer so the submitter
                    // (e.g. the network event loop) can recycle it.
                    req.rhs.copy_from_slice(&bufs.single);
                    Ok(())
                })();
                metrics.record_stage(Stage::Solve, t0.elapsed());
                r
            } else {
                gather_and_solve(&plan, &mut requests, n, k, bufs, metrics)
            }
        }));
    let result = match computed {
        Ok(r) => r,
        Err(_) => {
            metrics.worker_panics.fetch_add(1, Relaxed);
            Err(ServeError::WorkerPanic)
        }
    };
    for req in requests {
        finish(metrics, req, result.clone());
    }
}

fn gather_and_solve<S: Scalar>(
    plan: &recblock::RecBlockSolver<S>,
    requests: &mut [Pending<S>],
    n: usize,
    k: usize,
    bufs: &mut WorkerBuffers<S>,
    metrics: &Metrics,
) -> Result<(), ServeError> {
    for req in requests.iter() {
        if req.rhs.len() != n {
            return Err(recblock_matrix::MatrixError::DimensionMismatch {
                what: "batched rhs rows",
                expected: n,
                actual: req.rhs.len(),
            }
            .into());
        }
    }
    let t0 = Instant::now();
    let (b, out) = (&mut bufs.input, &mut bufs.out);
    b.reshape(n, k);
    for (j, req) in requests.iter().enumerate() {
        b.col_mut(j).copy_from_slice(&req.rhs);
    }
    out.reshape(n, k);
    metrics.record_stage(Stage::BatchAssembly, t0.elapsed());
    let t1 = Instant::now();
    plan.solve_multi_ws(b, out, &mut bufs.ws)?;
    metrics.record_stage(Stage::Solve, t1.elapsed());
    for (j, req) in requests.iter_mut().enumerate() {
        req.rhs.copy_from_slice(out.col(j));
    }
    Ok(())
}

/// Deliver one answer. On success the solution has already been written
/// into `req.rhs`, which is moved out as the response vector.
fn finish<S: Scalar>(metrics: &Metrics, req: Pending<S>, result: Result<(), ServeError>) {
    let Pending { rhs, reply, submitted } = req;
    let result = match result {
        Ok(()) => {
            metrics.completed.fetch_add(1, Relaxed);
            Ok(rhs)
        }
        Err(e) => {
            metrics.failed.fetch_add(1, Relaxed);
            Err(e)
        }
    };
    metrics.record_latency(submitted.elapsed());
    let t0 = Instant::now();
    reply.deliver(result);
    metrics.record_stage(Stage::Respond, t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Pending, Reply};
    use crate::cache::PlanKey;
    use recblock::{RecBlockSolver, SolverOptions};
    use recblock_matrix::generate;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::mpsc;
    use std::time::Instant;

    // Allocation counting for this test binary. The counter and its switch
    // are thread-local, so tests running concurrently on other threads
    // cannot pollute a count.
    thread_local! {
        static COUNTING: Cell<bool> = const { Cell::new(false) };
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    fn count_one() {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_one();
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Heap allocations the current thread performs while `f` runs.
    fn allocations_during(f: impl FnOnce()) -> usize {
        ALLOCS.with(|c| c.set(0));
        COUNTING.with(|c| c.set(true));
        f();
        COUNTING.with(|c| c.set(false));
        ALLOCS.with(Cell::get)
    }

    #[test]
    fn alternating_batch_shapes_reuse_worker_buffers() {
        use recblock::adaptive::{Selector, TriKernel};
        use recblock::blocked::DepthRule;
        use recblock_gpu_sim::cost::SpmvKind;
        let l = generate::layered::<f64>(3000, 20, 2.0, generate::LayerShape::Uniform, 71);
        let n = l.nrows();
        // Schedule-based kernels only: the sync-free kernel allocates
        // per-solve state by design.
        let opts = SolverOptions {
            depth: DepthRule::Fixed(2),
            selector: Selector::Fixed(TriKernel::LevelSet, SpmvKind::ScalarCsr),
            ..SolverOptions::default()
        };
        let plan = RecBlockSolver::new(&l, opts).unwrap();
        let batch = |k: usize| -> Vec<Pending<f64>> {
            (0..k)
                .map(|j| Pending {
                    rhs: (0..n).map(|i| ((i + 7 * j) % 13) as f64 - 6.0).collect(),
                    reply: Reply::Channel(mpsc::channel().0),
                    submitted: Instant::now(),
                })
                .collect()
        };
        let metrics = Metrics::default();
        let mut bufs = WorkerBuffers::new();
        let mut widest = batch(8);
        gather_and_solve(&plan, &mut widest, n, 8, &mut bufs, &metrics).unwrap(); // warm-up
        let mut batches: Vec<(usize, Vec<Pending<f64>>)> =
            [3, 8, 2, 5, 3, 8].into_iter().map(|k| (k, batch(k))).collect();
        let allocs = allocations_during(|| {
            for (k, reqs) in &mut batches {
                gather_and_solve(&plan, reqs, n, *k, &mut bufs, &metrics).unwrap();
            }
        });
        assert_eq!(allocs, 0, "a batch shape change allocated worker buffers");
    }

    #[test]
    fn worker_drains_and_answers_then_exits_on_shutdown() {
        let metrics = Arc::new(Metrics::default());
        let queue = Arc::new(BatchQueue::<f64>::new(64, metrics.clone()));
        let l = generate::random_lower::<f64>(300, 4.0, 70);
        let plan = Arc::new(RecBlockSolver::new(&l, SolverOptions::default()).unwrap());
        let key = PlanKey::of(&l);

        let mut rxs = Vec::new();
        for i in 0..5 {
            let (tx, rx) = mpsc::channel();
            let rhs: Vec<f64> = (0..300).map(|r| ((r + i * 37) as f64 * 0.01).cos()).collect();
            queue
                .try_push(
                    key,
                    &plan,
                    Pending { rhs, reply: Reply::Channel(tx), submitted: Instant::now() },
                )
                .unwrap();
            rxs.push(rx);
        }

        let handle = {
            let (q, m) = (queue.clone(), metrics.clone());
            std::thread::spawn(move || run(q, m, 4))
        };
        for rx in rxs {
            let x = rx.recv().unwrap().unwrap();
            assert_eq!(x.len(), 300);
        }
        queue.begin_shutdown();
        handle.join().unwrap();
        assert_eq!(metrics.completed.load(Relaxed), 5);
        assert_eq!(metrics.batched_columns.load(Relaxed), 5);
        assert!(metrics.multi_column_batches.load(Relaxed) >= 1);
        assert_eq!(queue.depth(), 0);
    }
}
