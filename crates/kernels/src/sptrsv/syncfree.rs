//! Synchronisation-free parallel SpTRSV (the paper's Algorithm 3, after Liu
//! et al., Euro-Par '16).
//!
//! The matrix is held in CSC with the diagonal first in each column. A light
//! preprocessing pass gives each stored entry an update slot (below). In the
//! solve phase every component busy-waits until all of its updates have
//! arrived, computes `x[i] = (b[i] − left_sum[i]) / d[i]`, then walks its
//! column and writes each dependent row's update. One "kernel launch", no
//! barriers.
//!
//! ## Deterministic accumulation
//!
//! The GPU kernel adds into `left_sum` with `atomicAdd` in whatever order
//! the producers arrive and counts the arrivals down in an in-degree
//! array, so two solves of one system can differ in the last bits of any
//! row with three or more dependencies. This port keeps the
//! producer-driven dataflow but gives every update a slot of its own: the
//! producer of column `j` writes `L[r][j]·x[j]` into the slot of entry
//! `(r, j)`, and the consumer takes its slots in ascending column order,
//! waiting for each, and subtracts them from `b[i]`. Every solve, at every
//! thread count, therefore runs [`serial_csc`](super::serial_csc)'s column
//! sweep operation for operation and returns its bits. The slots are the
//! matrix entries in row-major order (diagonal last), and the diagonal's
//! slot receives `x[i]` itself. Every slot starts unset
//! ([`ScalarAtomic::unset`]), so one per-solve buffer of `nnz` values
//! stands in for `left_sum`, `x` and the in-degrees: a component is ready
//! when its slots are set and solved when its diagonal's is. Each entry's
//! slot is computed once, when the solver is built.
//!
//! ## CPU port and deadlock freedom
//!
//! On the GPU each component is a warp and the hardware scheduler guarantees
//! (on Pascal+) that runnable warps make progress. On the CPU we have `P ≪ n`
//! threads, so the assignment of components to threads matters: we use
//! **static cyclic assignment processed in ascending order** — thread `t`
//! handles components `t, t+P, t+2P, …` in that order. This is deadlock-free:
//! consider the smallest unsolved component `i`. All of its dependencies are
//! solved (they are smaller than `i`), and the thread owning `i` has already
//! finished every smaller component it owns, so it is either at `i` or
//! busy-waiting at `i` — and its wait condition is already satisfied. Hence
//! `i` completes, and by induction the whole solve completes.
//!
//! ## Stalled workers
//!
//! Each thread waits on the others, so a thread that the operating system
//! deschedules holds up every component that depends on its next one. With
//! as many threads as cores, a process that takes a core for one scheduler
//! slice would add that slice, milliseconds, to the solve. Solving a
//! component twice writes the same values twice, though, so a waiting
//! thread can step in: once no thread has moved on to another component
//! for 100 µs, it solves every component from the position of the thread
//! furthest behind, in ascending order, until that thread moves again. The
//! owner skips what it finds solved. Either way the bits are the column
//! sweep's.

use recblock_matrix::scalar::ScalarAtomic;
use recblock_matrix::{Csc, Csr, MatrixError, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A sync-free triangular solver. Preprocessing (CSC conversion and update
/// slots) happens once in [`SyncFreeSolver::new`]; `solve` may then be
/// called repeatedly, and returns the same bits every time.
#[derive(Debug, Clone)]
pub struct SyncFreeSolver<S> {
    csc: Csc<S>,
    /// Per stored entry, in CSC order: its slot, the entry's position in
    /// row-major order (each row in ascending column order, diagonal last).
    /// Row `i`'s slots thus end at its diagonal's — the first entry of
    /// column `i` — and begin right after row `i − 1`'s; their count is
    /// the component's in-degree.
    slot: Vec<u32>,
    /// Number of worker threads used by `solve`.
    nthreads: usize,
}

impl<S: Scalar> SyncFreeSolver<S> {
    /// Preprocess a lower-triangular CSR matrix (converted to CSC internally,
    /// as in the paper) using all available CPU parallelism for the solve.
    pub fn new(l: &Csr<S>) -> Result<Self, MatrixError> {
        Self::with_threads(l, default_threads())
    }

    /// Preprocess with an explicit worker-thread count.
    pub fn with_threads(l: &Csr<S>, nthreads: usize) -> Result<Self, MatrixError> {
        recblock_matrix::triangular::check_solvable_lower(l)?;
        check_slot_range(l.nnz())?;
        // An entry's CSR position is its slot.
        let mut slot = vec![0u32; l.nnz()];
        let csc = l.to_csc_with(|p, q| slot[q] = p as u32);
        Ok(SyncFreeSolver { csc, slot, nthreads: nthreads.max(1) })
    }

    /// Build directly from CSC (diagonal first in each column) — the format
    /// Algorithm 3 is written against. The in-degree preprocessing pass
    /// (`PREPROCESS-SYNCFREE`) scans all row indices; a second scan, in
    /// column order, hands each entry the next free slot of its row.
    pub fn from_csc(csc: Csc<S>, nthreads: usize) -> Result<Self, MatrixError> {
        if !csc.is_solvable_lower() {
            return Err(MatrixError::SingularDiagonal { row: 0 });
        }
        check_slot_range(csc.nnz())?;
        let mut next = vec![0u32; csc.nrows()];
        for &r in csc.row_idx() {
            next[r] += 1;
        }
        let mut start = 0;
        for c in next.iter_mut() {
            start += std::mem::replace(c, start);
        }
        let slot = csc
            .row_idx()
            .iter()
            .map(|&r| {
                next[r] += 1;
                next[r] - 1
            })
            .collect();
        Ok(SyncFreeSolver { csc, slot, nthreads: nthreads.max(1) })
    }

    /// The CSC matrix being solved.
    pub fn matrix(&self) -> &Csc<S> {
        &self.csc
    }

    /// Worker threads used per solve.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Solve `L x = b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, MatrixError> {
        let n = self.csc.ncols();
        if b.len() != n {
            return Err(MatrixError::DimensionMismatch {
                what: "sptrsv rhs",
                expected: n,
                actual: b.len(),
            });
        }
        if n == 0 {
            return Ok(Vec::new());
        }

        let run = Run::new(self, b);
        std::thread::scope(|scope| {
            for t in 0..run.pos.len() {
                let run = &run;
                scope.spawn(move || run.worker(t));
            }
        });
        Ok(run.solution())
    }
}

/// How long no worker may move on before a waiting worker takes over from
/// the one furthest behind (module docs, *Stalled workers*).
const TAKE_OVER_AFTER: Duration = Duration::from_micros(100);

/// A worker's position, on a cache line of its own.
#[repr(align(64))]
struct Pos(AtomicUsize);

/// The shared state of one solve.
struct Run<'a, S: Scalar> {
    csc: &'a Csc<S>,
    slot: &'a [u32],
    b: &'a [S],
    /// One cell per slot, unset until its update (in a diagonal's slot,
    /// the solved `x[i]`) is written.
    upd: Vec<S::Atomic>,
    /// Per worker, the component it is on. Every component of worker `t`
    /// below `pos[t]` is solved; a finished worker holds `n`. Positions
    /// are `Relaxed`: they only say where to look, and the slots carry the
    /// data (`store` is `Release`, `try_load` is `Acquire`).
    pos: Vec<Pos>,
}

impl<'a, S: Scalar> Run<'a, S> {
    fn new(solver: &'a SyncFreeSolver<S>, b: &'a [S]) -> Self {
        let csc = &solver.csc;
        let nthreads = solver.nthreads.min(csc.ncols());
        Run {
            csc,
            slot: &solver.slot,
            b,
            upd: (0..csc.nnz()).map(|_| S::Atomic::unset()).collect(),
            pos: (0..nthreads).map(|t| Pos(AtomicUsize::new(t))).collect(),
        }
    }

    /// `x`, read from the diagonals' slots once every worker is done.
    fn solution(&self) -> Vec<S> {
        (0..self.csc.ncols()).map(|i| self.upd[self.diag(i)].load()).collect()
    }

    /// Component `i`'s diagonal slot, the last of its row.
    fn diag(&self, i: usize) -> usize {
        self.slot[self.csc.col_ptr()[i]] as usize
    }

    /// Component `i`'s first slot.
    fn first(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.diag(i - 1) + 1
        }
    }

    fn solved(&self, i: usize) -> bool {
        self.upd[self.diag(i)].try_load().is_some()
    }

    /// Worker `t`: components `t, t+P, t+2P, …` in ascending order, each
    /// skipped if another worker has solved it already.
    fn worker(&self, t: usize) {
        let (n, step) = (self.csc.ncols(), self.pos.len());
        let mut i = t;
        while i < n {
            self.pos[t].0.store(i, Ordering::Relaxed);
            if self.solved(i) {
                i += step;
            } else if let Some(rest) = self.gather(i, true) {
                self.finish(i, rest);
                i += step;
            } else {
                i = self.take_over(t);
            }
        }
        self.pos[t].0.store(n, Ordering::Relaxed);
    }

    /// Busy-wait for component `i`'s updates (Algorithm 3, lines 8–10) in
    /// ascending column order, subtracting each from `b[i]` as it arrives.
    /// With `watch`, give up and return `None` once no worker has moved on
    /// for [`TAKE_OVER_AFTER`].
    fn gather(&self, i: usize, watch: bool) -> Option<S> {
        let mut rest = self.b[i];
        let mut spins = 0u32;
        let mut still: Option<(usize, Instant)> = None;
        for u in &self.upd[self.first(i)..self.diag(i)] {
            let v = loop {
                if let Some(v) = u.try_load() {
                    break v;
                }
                spins = spins.wrapping_add(1);
                if spins & 0x3f != 0 {
                    std::hint::spin_loop();
                    continue;
                }
                std::thread::yield_now();
                if !watch || spins & 0x3ff != 0 {
                    continue;
                }
                // Positions only grow, so an unchanged sum means that no
                // worker has moved on since it was last read.
                let moved: usize = self.pos.iter().map(|p| p.0.load(Ordering::Relaxed)).sum();
                match still {
                    Some((seen, since)) if seen == moved => {
                        if since.elapsed() >= TAKE_OVER_AFTER {
                            return None;
                        }
                    }
                    _ => still = Some((moved, Instant::now())),
                }
            };
            rest -= v;
        }
        Some(rest)
    }

    /// Solve component `i` from its gathered `rest = b[i] − left_sum[i]`:
    /// write every dependent's update, then `x[i]`, which marks `i` solved.
    /// Any worker solving `i` writes the same values, so solving a
    /// component twice changes nothing.
    fn finish(&self, i: usize, rest: S) {
        let (rows, vals) = self.csc.col(i);
        let xi = rest / vals[0];
        let slots = &self.slot[self.csc.col_ptr()[i]..];
        for k in 1..rows.len() {
            self.upd[slots[k] as usize].store(vals[k] * xi);
        }
        self.upd[self.diag(i)].store(xi);
    }

    /// Worker `t` waited while no worker moved on: the one furthest behind
    /// is not running. Solve every component from its position on, in
    /// ascending order, until it moves again or the matrix ends; return
    /// `t`'s next component.
    fn take_over(&self, t: usize) -> usize {
        let (n, step) = (self.csc.ncols(), self.pos.len());
        let at = |u: usize| self.pos[u].0.load(Ordering::Relaxed);
        // Each position read once: every component below the least is solved.
        let (behind, from) =
            (0..step).map(|u| (u, at(u))).min_by_key(|&(_, p)| p).unwrap_or((t, n));
        let (mut r, mut next) = (from, at(t));
        while r < n {
            if !self.solved(r) {
                // Every component below `r` is solved, so this only waits
                // for their writes to show, and never gives up.
                if let Some(rest) = self.gather(r, false) {
                    self.finish(r, rest);
                }
            }
            r += 1;
            next = next.max(r + (t + step - r % step) % step);
            self.pos[t].0.store(next, Ordering::Relaxed);
            if at(behind) != from {
                break;
            }
        }
        next
    }
}

/// Slots are `u32`: reject a matrix with more entries than that indexes.
fn check_slot_range(nnz: usize) -> Result<(), MatrixError> {
    if nnz > u32::MAX as usize {
        return Err(MatrixError::DimensionMismatch {
            what: "sync-free slots (u32)",
            expected: u32::MAX as usize,
            actual: nnz,
        });
    }
    Ok(())
}

/// Default worker count: physical parallelism, capped to keep busy-wait
/// pressure sane on very wide machines.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sptrsv::{serial_csc, serial_csr};
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    fn check(l: Csr<f64>, nthreads: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let reference = serial_csr(&l, &b).unwrap();
        let solver = SyncFreeSolver::with_threads(&l, nthreads).unwrap();
        let x = solver.solve(&b).unwrap();
        // The column sweep subtracts one update at a time, not through the
        // row walk's four-chain reduction, so the last bits may differ
        // from the CSR reference.
        assert!(
            max_rel_diff(&x, &reference) < 1e-10,
            "nthreads={nthreads} diff={}",
            max_rel_diff(&x, &reference)
        );
    }

    #[test]
    fn single_thread_matches_serial() {
        check(generate::random_lower::<f64>(500, 4.0, 41), 1);
    }

    #[test]
    fn multi_thread_matches_serial_random() {
        for t in [2, 4, 8] {
            check(generate::random_lower::<f64>(1000, 5.0, 42), t);
        }
    }

    #[test]
    fn multi_thread_matches_serial_chain() {
        // Fully serial dependency chain: worst case for busy-waiting.
        check(generate::chain::<f64>(2000, 43), 8);
    }

    #[test]
    fn multi_thread_matches_serial_grid() {
        check(generate::grid2d::<f64>(40, 40, 44), 4);
    }

    #[test]
    fn multi_thread_matches_serial_power_law() {
        // Long columns exercise the atomic notification fan-out.
        check(generate::hub_power_law::<f64>(3000, 12, 3, 50, 45), 8);
    }

    #[test]
    fn diagonal_matrix_fast_path() {
        check(generate::diagonal::<f64>(500, 46), 4);
    }

    #[test]
    fn kkt_two_level_case() {
        check(generate::kkt_like::<f64>(3000, 1200, 4, 47), 8);
    }

    #[test]
    fn from_csc_constructor() {
        let l = generate::random_lower::<f64>(300, 3.0, 48);
        let b = vec![1.0; 300];
        let reference = serial_csr(&l, &b).unwrap();
        let solver = SyncFreeSolver::from_csc(l.to_csc(), 4).unwrap();
        let x = solver.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-10);
    }

    #[test]
    fn rejects_bad_rhs_len() {
        let solver = SyncFreeSolver::new(&Csr::<f64>::identity(3)).unwrap();
        assert!(solver.solve(&[1.0]).is_err());
    }

    #[test]
    fn rejects_singular() {
        let l = Csr::<f64>::try_new(2, 2, vec![0, 1, 2], vec![0, 0], vec![1., 1.]).unwrap();
        assert!(SyncFreeSolver::new(&l).is_err());
    }

    #[test]
    fn empty_system() {
        let solver = SyncFreeSolver::new(&Csr::<f64>::zero(0, 0)).unwrap();
        assert_eq!(solver.solve(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn f32_precision_works() {
        let l = generate::banded::<f32>(400, 4, 0.5, 49);
        let b = vec![1.0f32; 400];
        let reference = serial_csr(&l, &b).unwrap();
        let solver = SyncFreeSolver::with_threads(&l, 4).unwrap();
        let x = solver.solve(&b).unwrap();
        assert!(max_rel_diff(&x, &reference) < 1e-4);
    }

    #[test]
    fn every_thread_count_returns_the_column_sweep_bits() {
        // Hub rows gather dozens of updates from every thread: added in
        // arrival order, their low bits vary from solve to solve.
        let hubs = generate::hub_power_law::<f64>(3000, 12, 3, 50, 51);
        let kkt = generate::kkt_like::<f64>(3000, 1200, 4, 52);
        for l in [hubs, kkt, generate::random_lower::<f64>(1000, 6.0, 53)] {
            let n = l.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let reference = serial_csc(&l.to_csc(), &b).unwrap();
            for t in [1, 2, 3, 8] {
                let from_csr = SyncFreeSolver::with_threads(&l, t).unwrap();
                let from_csc = SyncFreeSolver::from_csc(l.to_csc(), t).unwrap();
                for solver in [from_csr, from_csc] {
                    for _ in 0..3 {
                        let x = solver.solve(&b).unwrap();
                        assert!(
                            x.iter().zip(&reference).all(|(a, r)| a.to_bits() == r.to_bits()),
                            "threads {t}: must be bit-identical to serial_csc"
                        );
                    }
                }
            }
        }
    }

    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn a_stalled_worker_is_taken_over() {
        let l = generate::grid2d::<f64>(30, 30, 54);
        let b: Vec<f64> = (0..900).map(|i| (i as f64 * 0.37).sin()).collect();
        let reference = serial_csc(&l.to_csc(), &b).unwrap();
        let solver = SyncFreeSolver::with_threads(&l, 2).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // Worker 1 of 2 does not run: worker 0 waits at component 2 for
        // component 1, sees no worker move, and solves the rest itself.
        // When worker 1 does run, it finds its components solved.
        std::thread::spawn(move || {
            let run = Run::new(&solver, &b);
            run.worker(0);
            let alone = run.solution();
            run.worker(1);
            tx.send((alone, run.solution())).unwrap();
        });
        let (alone, both) =
            rx.recv_timeout(Duration::from_secs(30)).expect("worker 0 never took over");
        assert!(same_bits(&alone, &reference));
        assert!(same_bits(&both, &reference));
    }

    #[test]
    fn a_late_worker_overlaps_the_take_over() {
        // Worker 1 starts once worker 0 has taken over its components, so
        // both may solve the same ones; the bits stay the column sweep's.
        let l = generate::chain::<f64>(200_000, 55);
        let b: Vec<f64> = (0..200_000).map(|i| (i as f64 * 0.11).cos()).collect();
        let reference = serial_csc(&l.to_csc(), &b).unwrap();
        let solver = SyncFreeSolver::with_threads(&l, 2).unwrap();
        let run = Run::new(&solver, &b);
        let took_over = std::thread::scope(|scope| {
            scope.spawn(|| run.worker(0));
            // Worker 0 gets past component 2 only by solving component 1.
            let at = || run.pos[0].0.load(Ordering::Relaxed);
            let deadline = Instant::now() + Duration::from_secs(30);
            while at() < 1000 && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            let took_over = at() >= 1000;
            run.worker(1);
            took_over
        });
        assert!(took_over, "worker 0 never took over");
        assert!(same_bits(&run.solution(), &reference));
    }

    #[test]
    fn repeated_solves_are_consistent() {
        let l = generate::layered::<f64>(1500, 20, 2.0, generate::LayerShape::Uniform, 50);
        let solver = SyncFreeSolver::with_threads(&l, 8).unwrap();
        let b = vec![2.5; 1500];
        let x1 = solver.solve(&b).unwrap();
        for _ in 0..5 {
            let x2 = solver.solve(&b).unwrap();
            assert!(max_rel_diff(&x1, &x2) < 1e-12);
        }
    }
}
