//! The solve-phase execution engine: preplanned, nnz-balanced,
//! allocation-free parallel execution for the SpTRSV/SpMV hot path.
//!
//! The paper's solve phase is latency-critical — preprocessing is amortised
//! over many solves (Table 5), so everything expensive must happen *before*
//! the first right-hand side arrives. This module provides the pieces the
//! kernels share:
//!
//! * [`TuneParams`] — the scheduling thresholds, kept as data so a stored
//!   plan (recblock-store) carries the tuning it was built with;
//! * [`row_dot`] — the one deterministic lane-unrolled inner reduction used
//!   by the serial reference and every parallel kernel, so results are
//!   bit-reproducible across kernels and thread counts;
//! * [`ExecPool`] — a persistent worker pool whose dispatch path performs no
//!   heap allocation (parked workers, an epoch-tagged atomic cursor, a
//!   type-erased task pointer);
//! * [`LevelSchedule`] — a preplanned level-set schedule with consecutive
//!   cheap levels fused into serial runs and parallel levels split at
//!   nnz-prefix-sum chunk boundaries;
//! * [`SpmvPlan`] — the same nnz-balanced chunking for SpMV blocks;
//! * [`SolveWorkspace`] — reusable gather/scatter buffers for the blocked
//!   executor and multi-RHS batches.
//!
//! Every executor here runs on a row-interleaved *panel* of `W` right-hand
//! sides (`x[i·W + j]` is row `i` of column `j`, `W` ∈ {1, 2, 4, 8}; see
//! [`panels`]):
//! each nonzero and column index is loaded once per panel instead of once
//! per column, and every column stays bit-identical to a single-column
//! solve of it. `W = 1` is the single-column path.

use crate::trace::{EventKind, SolveTrace};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{Csr, Scalar};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Lanes of the deterministic inner reduction ([`row_dot`]). Fixed at
/// compile time; [`TuneParams::lanes`] records it alongside a plan.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// TuneParams
// ---------------------------------------------------------------------------

/// How a level-set solver synchronises between dependent rows at solve time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Pick per plan: point-to-point when the schedule has enough parallel
    /// launches ([`TuneParams::p2p_min_parallel`]) to make barrier elision
    /// pay, level-synchronous otherwise.
    #[default]
    Auto,
    /// One barrier per parallel level ([`LevelSchedule`]).
    LevelSync,
    /// Dependency-driven tasks with per-task finished flags
    /// ([`TaskSchedule`]) — one dispatch per solve, zero barriers inside.
    PointToPoint,
}

impl ScheduleMode {
    /// Stable on-disk / report encoding.
    pub fn as_index(self) -> usize {
        match self {
            ScheduleMode::Auto => 0,
            ScheduleMode::LevelSync => 1,
            ScheduleMode::PointToPoint => 2,
        }
    }

    /// Inverse of [`as_index`](Self::as_index); unknown values fall back to
    /// `Auto` (forward compatibility for stored plans).
    pub fn from_index(v: usize) -> Self {
        match v {
            1 => ScheduleMode::LevelSync,
            2 => ScheduleMode::PointToPoint,
            _ => ScheduleMode::Auto,
        }
    }
}

/// Scheduling thresholds of the execution engine. Stored with a plan
/// (recblock-store format v3) so a reloaded plan executes with the tuning it
/// was built under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneParams {
    /// A level with at least this many rows runs as a parallel launch.
    pub par_rows: usize,
    /// The fuse budget: a level below `par_rows` rows **and** below this
    /// many nonzeros is cheap enough that forking would cost more than it
    /// buys; consecutive such levels are fused into one serial run with no
    /// barriers between them. A skinny level at/above this budget (few rows,
    /// heavy work) still runs parallel.
    pub fuse_nnz: usize,
    /// Target nonzeros per parallel chunk — chunk boundaries are placed on
    /// the nnz prefix sum, so chunks carry equal *work*, not equal rows.
    pub chunk_nnz: usize,
    /// Lane count of the deterministic reduction the plan was built for
    /// (provenance; the kernels are compiled with [`LANES`]).
    pub lanes: usize,
    /// Which synchronisation scheme the level-set solver executes with.
    pub schedule_mode: ScheduleMode,
    /// Under `ScheduleMode::Auto`, point-to-point is chosen when the
    /// level-sync schedule would pay at least this many barriers per solve.
    pub p2p_min_parallel: usize,
    /// Target nonzeros per point-to-point task — smaller than `chunk_nnz`
    /// because a task costs flag stores, not a barrier.
    pub p2p_chunk_nnz: usize,
}

impl Default for TuneParams {
    fn default() -> Self {
        TuneParams {
            par_rows: 256,
            fuse_nnz: 4096,
            chunk_nnz: 4096,
            lanes: LANES,
            schedule_mode: ScheduleMode::Auto,
            p2p_min_parallel: 4,
            p2p_chunk_nnz: 768,
        }
    }
}

impl TuneParams {
    /// The merged-launch variant used by the cuSPARSE-like solver: levels
    /// only go parallel on row count (`fuse_nnz = usize::MAX` disables the
    /// work-based promotion), mirroring cuSPARSE's row-threshold merging.
    /// The merged schedule is the baseline the p2p mode is measured against,
    /// so it is pinned to level-synchronous execution.
    pub fn merged_launch(self) -> Self {
        TuneParams { fuse_nnz: usize::MAX, schedule_mode: ScheduleMode::LevelSync, ..self }
    }
}

// ---------------------------------------------------------------------------
// Deterministic inner reduction
// ---------------------------------------------------------------------------

/// The shared inner loop of [`row_dot`] and [`row_dot_ptr`], generic over
/// how `x` entries are fetched so both compile to the *same* sequence of
/// floating-point operations.
///
/// Rows shorter than [`LANES`] take a plain sequential accumulation — for
/// the 2–4 nnz rows that dominate sparse triangular factors, the unrolled
/// prologue/epilogue costs more than it saves. Longer rows use four
/// interleaved accumulators over the body plus one tail accumulator,
/// combined as `((a0+a1) + (a2+a3)) + tail`. The branch depends only on
/// the row length, so for a given row every kernel — whichever path — still
/// produces bit-identical results.
#[inline(always)]
pub(crate) fn row_dot_with<S: Scalar>(cols: &[usize], vals: &[S], get: impl Fn(usize) -> S) -> S {
    let n = cols.len();
    if n < LANES {
        let mut acc = S::ZERO;
        for k in 0..n {
            acc += vals[k] * get(cols[k]);
        }
        return acc;
    }
    let mut a0 = S::ZERO;
    let mut a1 = S::ZERO;
    let mut a2 = S::ZERO;
    let mut a3 = S::ZERO;
    let mut k = 0;
    while k + LANES <= n {
        a0 += vals[k] * get(cols[k]);
        a1 += vals[k + 1] * get(cols[k + 1]);
        a2 += vals[k + 2] * get(cols[k + 2]);
        a3 += vals[k + 3] * get(cols[k + 3]);
        k += LANES;
    }
    let mut tail = S::ZERO;
    while k < n {
        tail += vals[k] * get(cols[k]);
        k += 1;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// Deterministic sparse dot product `Σ vals[k]·x[cols[k]]`.
///
/// Every kernel in the suite — the serial reference, the level-scheduled
/// solvers, and all four SpMV variants — reduces through this one function,
/// so for a given row the result is bit-identical no matter which kernel or
/// thread count produced it. The lane-unrolled shape also gives the
/// optimiser independent accumulation chains (SIMD/ILP friendly). On
/// AVX2-capable x86-64 hosts rows of at least [`simd::MIN_SIMD_NNZ`]
/// nonzeros take an explicit gather/multiply/add vector path that performs
/// the *same* IEEE operations in the same order, so the result stays
/// bit-identical to the portable reduction.
#[inline]
pub fn row_dot<S: Scalar>(cols: &[usize], vals: &[S], x: &[S]) -> S {
    #[cfg(target_arch = "x86_64")]
    if cols.len() >= simd::MIN_SIMD_NNZ && simd::avx2() {
        if let Some(r) = simd::row_dot_checked(cols, vals, x) {
            return r;
        }
    }
    row_dot_with(cols, vals, |j| x[j])
}

/// As [`row_dot`], reading `x` through a raw pointer — the in-place parallel
/// form, where other threads are concurrently writing *disjoint* entries of
/// the same vector.
///
/// # Safety
/// Every index in `cols` must be in bounds for the allocation behind `x`,
/// and the entries read must not be written concurrently.
#[inline]
pub unsafe fn row_dot_ptr<S: Scalar>(cols: &[usize], vals: &[S], x: *const S) -> S {
    #[cfg(target_arch = "x86_64")]
    if cols.len() >= simd::MIN_SIMD_NNZ && simd::avx2() {
        if let Some(r) = unsafe { simd::row_dot_raw(cols, vals, x) } {
            return r;
        }
    }
    row_dot_with(cols, vals, |j| unsafe { *x.add(j) })
}

/// Hint the hardware to pull the cache line holding `p` into L1. A plain
/// hint — never faults, no-op off x86-64 — used by the schedules and SpMV
/// kernels to overlap the next row's gather latency with the current row's
/// arithmetic.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// How many of the next row's `x`-gather targets to prefetch ahead of
/// solving/multiplying the current row. The gathers are the latency-bound
/// loads of the whole hot path (column indices and values stream, `x[col]`
/// does not); eight covers the common short rows without flooding the
/// load ports on long ones.
const GATHER_PREFETCH: usize = 8;

/// Row lead distance for software prefetch in the triangular row loops.
/// One row of arithmetic (~10–15 ns on typical short rows) is far below a
/// DRAM round trip, so a one-row lead hides almost none of the gather
/// latency; four rows keeps the fetched lines in flight long enough to
/// arrive before the solve reaches them. Prefetches are hints — reading
/// ahead past rows whose `x` entries are still being produced is harmless.
pub(crate) const ROW_PREFETCH_DIST: usize = 4;

/// Prefetch the leading `x`-gather targets of the row described by `cols`
/// in a `W`-wide panel, plus the index/value streams themselves.
#[inline(always)]
pub(crate) fn prefetch_row<S, const W: usize>(cols: &[usize], vals: &[S], x: *const S) {
    prefetch_read(cols.as_ptr());
    prefetch_read(vals.as_ptr());
    for &j in cols.iter().take(GATHER_PREFETCH) {
        prefetch_read(x.wrapping_add(j * W));
    }
}

// ---------------------------------------------------------------------------
// Multi-RHS panels
// ---------------------------------------------------------------------------

/// Panel widths the executors are compiled for, widest first. A batch of
/// `k` columns is split greedily into panels of these widths ([`panels`]).
const PANEL_WIDTHS: [usize; 4] = [8, 4, 2, 1];

/// Split `k` columns greedily into panels of 8, 4, 2 and 1 columns:
/// `panels(11)` yields `0..8, 8..10, 10..11`.
pub fn panels(k: usize) -> impl Iterator<Item = Range<usize>> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let w = *PANEL_WIDTHS.iter().find(|&&w| w <= k - start)?;
        start += w;
        Some(start - w..start)
    })
}

/// [`row_dot`] over a `W`-wide row-interleaved panel: entry `j` of the
/// result is `Σ vals[k]·x[cols[k]·W + j]`.
///
/// `W = 1` is [`row_dot_ptr`] itself (AVX2 lowering included). Wider panels
/// run [`row_dot_with`]'s reduction once per column, side by side: the same
/// short-row sequential branch, the same four accumulator chains, the same
/// `((a0+a1)+(a2+a3))+tail` combine, multiply then add with no FMA. Column
/// `j` is therefore bit-identical to `row_dot` on column `j` alone, while
/// each nonzero and column index is loaded once for all `W` columns and the
/// `W` gathered entries of a panel row are contiguous.
///
/// # Safety
/// `x` must cover `W·(c + 1)` entries for every column index `c` in `cols`,
/// and none of the entries read may be written concurrently.
#[inline(always)]
pub(crate) unsafe fn row_dot_panel<S: Scalar, const W: usize>(
    cols: &[usize],
    vals: &[S],
    x: *const S,
) -> [S; W] {
    if W == 1 {
        let mut r = [S::ZERO; W];
        // SAFETY: with W = 1 this function's contract is row_dot_ptr's.
        r[0] = unsafe { row_dot_ptr(cols, vals, x) };
        return r;
    }
    // Column index `c`'s panel row: W contiguous entries, one per column.
    // SAFETY: the caller guarantees `x` covers W·(c + 1) entries for every
    // `c` in `cols` and that none of them is being written.
    let xrow = |c: usize| unsafe { x.add(c * W).cast::<[S; W]>().read() };
    let axpy = |acc: &mut [S; W], v: S, c: usize| {
        for (a, xv) in acc.iter_mut().zip(xrow(c)) {
            *a += v * xv;
        }
    };
    let n = cols.len();
    if n < LANES {
        let mut acc = [S::ZERO; W];
        for (&c, &v) in cols.iter().zip(vals) {
            axpy(&mut acc, v, c);
        }
        return acc;
    }
    let mut a = [[S::ZERO; W]; LANES];
    let body = n - n % LANES;
    for (cs, vs) in cols[..body].chunks_exact(LANES).zip(vals[..body].chunks_exact(LANES)) {
        for (lane, acc) in a.iter_mut().enumerate() {
            axpy(acc, vs[lane], cs[lane]);
        }
    }
    let mut tail = [S::ZERO; W];
    for (&c, &v) in cols[body..].iter().zip(&vals[body..]) {
        axpy(&mut tail, v, c);
    }
    std::array::from_fn(|j| ((a[0][j] + a[1][j]) + (a[2][j] + a[3][j])) + tail[j])
}

/// Forward-substitute row `i` of every column of a `W`-wide panel:
/// `x[i·W + j] = (b[i·W + j] − Σ_{c<i} l_ic·x[c·W + j]) / l_ii`. Requires
/// the diagonal stored last in the row (the suite-wide storage invariant).
///
/// # Safety
/// As [`row_dot_panel`] for row `i`'s off-diagonal columns; `b` and `x`
/// must cover `W·(i + 1)` entries, and no other thread may access
/// `x[i·W..(i+1)·W]` concurrently.
#[inline(always)]
unsafe fn solve_row_panel<S: Scalar, const W: usize>(l: &Csr<S>, b: &[S], x: *mut S, i: usize) {
    let (cols, vals) = l.row(i);
    let last = cols.len() - 1;
    debug_assert_eq!(cols[last], i, "diagonal must be last in row");
    // SAFETY: the caller's contract covers the off-diagonal reads.
    let dot = unsafe { row_dot_panel::<S, W>(&cols[..last], &vals[..last], x) };
    let d = vals[last];
    for (j, dj) in dot.into_iter().enumerate() {
        // SAFETY: the caller guarantees `x` covers W·(i + 1) entries and
        // that this row's panel entries have no other accessor.
        unsafe { *x.add(i * W + j) = (b[i * W + j] - dj) / d };
    }
}

/// Solve the rows of `span` in order, prefetching [`ROW_PREFETCH_DIST`] rows
/// ahead — the inner walk shared by serial runs, parallel chunks and
/// point-to-point tasks.
///
/// # Safety
/// As [`solve_row_panel`] for every row of `span`, and every row read must
/// be finished: earlier in `span`, or published before the walk started.
#[inline(always)]
unsafe fn solve_span<S: Scalar, const W: usize>(l: &Csr<S>, b: &[S], x: *mut S, span: &[u32]) {
    for (k, &i) in span.iter().enumerate() {
        if let Some(&nx) = span.get(k + ROW_PREFETCH_DIST) {
            let (ncols, nvals) = l.row(nx as usize);
            prefetch_row::<S, W>(ncols, nvals, x);
        }
        // SAFETY: the caller's contract holds for every row of `span`.
        unsafe { solve_row_panel::<S, W>(l, b, x, i as usize) };
    }
}

/// The shape check every schedule walker makes before going unsafe: `l` is
/// the `n × n` matrix the schedule was planned for, and `b`/`x` are
/// `W`-wide panels over its rows. Together with the CSR invariant
/// (column indices `< ncols`) this bounds every raw-pointer access.
fn assert_panel<S: Scalar, const W: usize>(l: &Csr<S>, n: usize, b: &[S], x: &[S]) {
    assert!(
        l.nrows() == n && l.ncols() == n && b.len() == n * W && x.len() == n * W,
        "schedule executed on a mismatched matrix or panel"
    );
}

/// Explicit AVX2 lowering of the [`row_dot_with`] reduction.
///
/// The portable path already exposes four independent accumulator chains;
/// this module maps chain `k` onto vector lane `k` — same multiplies, same
/// adds, same `((a0+a1)+(a2+a3))+tail` combine, no FMA contraction — so the
/// vector result is bit-identical to the portable one and therefore to the
/// serial reference. Dispatch is by `TypeId` (f32/f64 only) behind a cached
/// `is_x86_feature_detected!` probe.
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd {
    use super::LANES;
    use recblock_matrix::Scalar;
    use std::any::TypeId;
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Below this row length the vector prologue costs more than it saves
    /// (and the portable path already takes its sequential branch at
    /// `< LANES`).
    pub(crate) const MIN_SIMD_NNZ: usize = 2 * LANES;

    /// Cached CPUID probe: 0 unknown, 1 available, 2 absent.
    pub(crate) fn avx2() -> bool {
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let has = std::is_x86_feature_detected!("avx2");
                STATE.store(if has { 1 } else { 2 }, Ordering::Relaxed);
                has
            }
        }
    }

    /// Bounds-checked dispatch for the safe slice form: verifies every
    /// gathered index against `x.len()` group by group, falling back to the
    /// portable path (and its panic message) on the first out-of-range
    /// index. Returns `None` for scalar types without a vector lowering.
    #[inline]
    pub(crate) fn row_dot_checked<S: Scalar>(cols: &[usize], vals: &[S], x: &[S]) -> Option<S> {
        if cols.iter().any(|&j| j >= x.len()) {
            return None; // let the portable path raise the slice panic
        }
        // SAFETY: every index was just checked against x.len().
        unsafe { row_dot_raw(cols, vals, x.as_ptr()) }
    }

    /// Raw-pointer dispatch (no bounds information available).
    ///
    /// # Safety
    /// As [`super::row_dot_ptr`].
    #[inline]
    pub(crate) unsafe fn row_dot_raw<S: Scalar>(
        cols: &[usize],
        vals: &[S],
        x: *const S,
    ) -> Option<S> {
        unsafe {
            if TypeId::of::<S>() == TypeId::of::<f64>() {
                let vals = std::slice::from_raw_parts(vals.as_ptr() as *const f64, vals.len());
                let r = dot_f64(cols, vals, x as *const f64);
                Some(*(&r as *const f64 as *const S))
            } else if TypeId::of::<S>() == TypeId::of::<f32>() {
                let vals = std::slice::from_raw_parts(vals.as_ptr() as *const f32, vals.len());
                let r = dot_f32(cols, vals, x as *const f32);
                Some(*(&r as *const f32 as *const S))
            } else {
                None
            }
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 is available and every index in `cols` is in
    /// bounds for the allocation behind `x`.
    #[target_feature(enable = "avx2")]
    unsafe fn dot_f64(cols: &[usize], vals: &[f64], x: *const f64) -> f64 {
        let n = cols.len();
        debug_assert!(n >= LANES);
        let mut acc = _mm256_setzero_pd();
        let mut k = 0;
        unsafe {
            while k + LANES <= n {
                let idx = _mm256_loadu_si256(cols.as_ptr().add(k) as *const __m256i);
                let xv = _mm256_i64gather_pd::<8>(x, idx);
                let vv = _mm256_loadu_pd(vals.as_ptr().add(k));
                // mul then add, NOT fmadd: the portable path does two
                // roundings per element and bit-identity is the contract.
                acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, xv));
                k += LANES;
            }
            let mut lanes = [0.0f64; LANES];
            _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
            let mut tail = 0.0f64;
            while k < n {
                tail += vals[k] * *x.add(cols[k]);
                k += 1;
            }
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
        }
    }

    /// # Safety
    /// As [`dot_f64`].
    #[target_feature(enable = "avx2")]
    unsafe fn dot_f32(cols: &[usize], vals: &[f32], x: *const f32) -> f32 {
        let n = cols.len();
        debug_assert!(n >= LANES);
        let mut acc = _mm_setzero_ps();
        let mut k = 0;
        unsafe {
            while k + LANES <= n {
                let idx = _mm256_loadu_si256(cols.as_ptr().add(k) as *const __m256i);
                let xv = _mm256_i64gather_ps::<4>(x, idx);
                let vv = _mm_loadu_ps(vals.as_ptr().add(k));
                acc = _mm_add_ps(acc, _mm_mul_ps(vv, xv));
                k += LANES;
            }
            let mut lanes = [0.0f32; LANES];
            _mm_storeu_ps(lanes.as_mut_ptr(), acc);
            let mut tail = 0.0f32;
            while k < n {
                tail += vals[k] * *x.add(cols[k]);
                k += 1;
            }
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
        }
    }
}

/// `Copy` wrapper that lets a raw pointer cross a closure that must be
/// `Sync`. Safety is argued at every use site (disjoint index sets).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub *mut T);
// SAFETY: sharing the wrapper only shares the address; all dereferences are
// unsafe blocks whose disjointness is proven locally.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Closures must reach it through this by-value
    /// method, not the field: field access would precision-capture the bare
    /// `*mut T` (which is not `Sync`) instead of the wrapper.
    #[inline(always)]
    pub(crate) fn ptr(self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// ExecPool
// ---------------------------------------------------------------------------

/// Jobs are claimed from a single `AtomicU64` cursor whose low bits are the
/// next job index and high bits the dispatch epoch — a claim from a stale
/// epoch fails instead of stealing a job from the next dispatch.
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
const TAG_MASK: u64 = u64::MAX >> IDX_BITS;

/// Type-erased task pointer handed to the workers. Valid strictly for the
/// duration of one [`ExecPool::run`] call (which cannot return while any
/// job of its epoch is unfinished).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: the pointee is `Sync` and outlives every dereference (see `run`).
unsafe impl Send for TaskPtr {}

struct TaskSlot {
    epoch: u64,
    njobs: usize,
    task: Option<TaskPtr>,
}

struct Shared {
    slot: Mutex<TaskSlot>,
    work_cv: Condvar,
    done_cv: Condvar,
    cursor: AtomicU64,
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Set when any job of the current epoch panicked. Workers survive
    /// (the unwind is caught so `pending` always drains); the dispatcher
    /// observes the flag after the drain and re-raises on its own
    /// thread, where callers can contain it per-request.
    panicked: AtomicBool,
}

/// A persistent worker pool with an allocation-free dispatch path.
///
/// The vendored rayon shim spawns a scoped thread team per parallel region —
/// fine for preprocessing, hopeless for a microsecond-scale solve phase.
/// `ExecPool` keeps its workers parked on a condvar; dispatch publishes a
/// borrowed closure (type-erased, no boxing), workers claim jobs from the
/// epoch-tagged cursor, and the caller participates until the counter
/// drains. Steady-state dispatch therefore performs **zero heap
/// allocations**: futex-backed mutex/condvar operations and atomics only.
///
/// Dispatches are serialised by a try-lock; a nested or concurrent `run`
/// simply executes its jobs inline on the calling thread, which keeps the
/// pool deadlock-free by construction.
pub struct ExecPool {
    shared: std::sync::Arc<Shared>,
    submit: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool").field("workers", &self.handles.len()).finish()
    }
}

impl ExecPool {
    /// Spawn a pool with `nworkers` parked worker threads (the calling
    /// thread participates in every dispatch, so total concurrency is
    /// `nworkers + 1`).
    pub fn new(nworkers: usize) -> Self {
        let shared = std::sync::Arc::new(Shared {
            slot: Mutex::new(TaskSlot { epoch: 0, njobs: 0, task: None }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
        });
        let handles = (0..nworkers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        ExecPool { shared, submit: Mutex::new(()), handles }
    }

    /// The process-wide pool used by the kernels: `min(cores, 16) − 1`
    /// workers plus the calling thread.
    pub fn global() -> &'static ExecPool {
        static POOL: OnceLock<ExecPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(16);
            ExecPool::new(cores.saturating_sub(1))
        })
    }

    /// Threads that participate in a dispatch (workers + caller).
    pub fn concurrency(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `f(0), f(1), …, f(njobs−1)`, each exactly once, across the pool;
    /// returns once all have finished. Falls back to inline serial execution
    /// when the pool has no workers, for a single job, or when another
    /// dispatch is in flight — callers therefore never need their own
    /// "is it worth forking" check beyond job granularity.
    pub fn run(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
        if njobs == 0 {
            return;
        }
        if self.handles.is_empty() || njobs == 1 || njobs as u64 > IDX_MASK {
            for j in 0..njobs {
                job_fault_hooks();
                f(j);
            }
            return;
        }
        // A panic re-raised by a previous dispatch poisons this lock;
        // the poison carries no meaning here (the pool state was already
        // restored before re-raising), so treat it as acquired.
        let _submit = match self.submit.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                for j in 0..njobs {
                    job_fault_hooks();
                    f(j);
                }
                return;
            }
        };
        self.dispatch(njobs, f);
    }

    /// Dispatch for jobs that synchronise *with each other* (the
    /// point-to-point [`TaskSchedule`]): every job must be able to run on
    /// its own thread concurrently, so instead of falling back to inline
    /// serialisation — which would deadlock a job spin-waiting on a sibling
    /// that never starts — this refuses (`false`) when the pool cannot host
    /// `njobs` simultaneously or another dispatch is in flight. The caller
    /// keeps a barrier-style schedule around as the fallback.
    ///
    /// Deadlock-freedom once accepted: a thread only leaves the claim loop
    /// after the cursor is exhausted, so while any job is unclaimed every
    /// non-blocked thread still heads for it; with `njobs ≤ concurrency()`
    /// at most `njobs − 1` threads can be blocked on an unclaimed job, which
    /// leaves one to claim it.
    pub(crate) fn try_run_exclusive(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        if njobs == 0 {
            return true;
        }
        if njobs == 1 {
            // A single job synchronises with nobody; run it inline.
            job_fault_hooks();
            f(0);
            return true;
        }
        if njobs > self.concurrency() || njobs as u64 > IDX_MASK {
            return false;
        }
        let _submit = match self.submit.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return false,
        };
        self.dispatch(njobs, f);
        true
    }

    /// `true` while a job of the in-flight dispatch has panicked (cleared
    /// when the dispatcher re-raises). Point-to-point jobs poll this inside
    /// their dependency spin-waits so a dead parent cannot park them
    /// forever.
    #[inline]
    pub(crate) fn dispatch_panicked(&self) -> bool {
        self.shared.panicked.load(Ordering::Acquire)
    }

    /// The dispatch body shared by [`run`](Self::run) and
    /// [`try_run_exclusive`](Self::try_run_exclusive). Must be called with
    /// the `submit` lock held and `2 ≤ njobs ≤ IDX_MASK`.
    fn dispatch(&self, njobs: usize, f: &(dyn Fn(usize) + Sync)) {
        let t0 = SolveTrace::start();
        // SAFETY (lifetime erasure): `run` does not return until `pending`
        // reaches zero, i.e. until no worker can touch the pointer again
        // (stale-epoch claims fail on the tagged cursor), so the borrow
        // outlives every dereference.
        let task = TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        });
        let epoch;
        {
            let mut g = self.shared.slot.lock().expect("pool mutex");
            g.epoch += 1;
            epoch = g.epoch;
            g.njobs = njobs;
            g.task = Some(task);
            self.shared.pending.store(njobs, Ordering::Release);
            self.shared.cursor.store((epoch & TAG_MASK) << IDX_BITS, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        while let Some(j) = claim(&self.shared.cursor, epoch, njobs) {
            run_contained(&self.shared, &|j| f(j), j);
        }
        let mut g = self.shared.slot.lock().expect("pool mutex");
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            g = self.shared.done_cv.wait(g).expect("pool condvar");
        }
        g.task = None;
        drop(g);
        SolveTrace::finish(
            t0,
            EventKind::PoolDispatch,
            njobs.min(IDX_MASK as usize) as u32,
            njobs.min(u32::MAX as usize) as u32,
            njobs.min(u16::MAX as usize) as u16,
        );
        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            // Re-raise on the dispatching thread: the pool and its
            // workers are already back in a clean parked state, so a
            // caller that catches this unwind can keep using the pool.
            panic!("exec pool job panicked");
        }
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.slot.lock().expect("pool mutex");
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn claim(cursor: &AtomicU64, epoch: u64, njobs: usize) -> Option<usize> {
    let tag = epoch & TAG_MASK;
    let mut cur = cursor.load(Ordering::Acquire);
    loop {
        if cur >> IDX_BITS != tag {
            return None;
        }
        let idx = (cur & IDX_MASK) as usize;
        if idx >= njobs {
            return None;
        }
        match cursor.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(idx),
            Err(c) => cur = c,
        }
    }
}

fn finish_one(shared: &Shared) {
    if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last job of the epoch: wake the dispatcher. Taking the lock
        // orders this notify after the dispatcher's pending-check.
        let _g = shared.slot.lock().expect("pool mutex");
        shared.done_cv.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let (epoch, njobs, task) = {
            let mut g = shared.slot.lock().expect("pool mutex");
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if g.epoch != seen {
                    seen = g.epoch;
                    if let Some(t) = g.task {
                        break (g.epoch, g.njobs, t);
                    }
                    // Missed the whole round; wait for the next epoch.
                }
                g = shared.work_cv.wait(g).expect("pool condvar");
            }
        };
        while let Some(j) = claim(&shared.cursor, epoch, njobs) {
            // SAFETY: a successful claim proves the cursor still carries
            // this epoch's tag, so the dispatcher is still inside `run`
            // (pending > 0) and the pointer is live.
            run_contained(shared, &|j| unsafe { (*task.0)(j) }, j);
        }
    }
}

/// Execute one claimed job, containing any panic so the epoch's `pending`
/// counter always drains (a skipped `finish_one` would park the
/// dispatcher on `done_cv` forever) and worker threads never die.
fn run_contained(shared: &Shared, job: &dyn Fn(usize), j: usize) {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job_fault_hooks();
        job(j)
    }));
    if r.is_err() {
        shared.panicked.store(true, Ordering::Release);
    }
    finish_one(shared);
}

/// Fault-injection hooks applied to every pool job: an injected slow chunk
/// (straggler) or chunk panic. Called from the per-job containment *and*
/// from the inline serial fallbacks, so an armed plan behaves identically
/// on single-core hosts where the pool has no workers.
#[inline]
fn job_fault_hooks() {
    if recblock_faults::fires(recblock_faults::FaultPoint::ExecSlow) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    if recblock_faults::fires(recblock_faults::FaultPoint::ExecChunk) {
        panic!("injected fault: exec_chunk");
    }
}

// ---------------------------------------------------------------------------
// LevelSchedule
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Run {
    /// Rows executed in order on the calling thread (a fused stretch of
    /// cheap levels — zero barriers inside).
    Serial { rows: Range<u32> },
    /// One level executed as a parallel launch; `chunks` indexes the
    /// boundary array (`chunk c` spans `chunk_ptr[c]..chunk_ptr[c+1]`).
    Parallel { chunks: Range<u32> },
}

/// A preplanned execution schedule for one level decomposition: which levels
/// fuse into serial runs, which run parallel, and where each parallel
/// level's nnz-balanced chunk boundaries fall. Built once at preprocessing
/// time; executing it performs no allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSchedule {
    /// Row indices in execution order (the level sets' item array, u32).
    rows: Vec<u32>,
    runs: Vec<Run>,
    /// Chunk boundaries of all parallel runs, as offsets into `rows`.
    chunk_ptr: Vec<u32>,
    tune: TuneParams,
}

impl LevelSchedule {
    /// Plan the schedule for `l` under `levels` (which must decompose `l`:
    /// `levels.n() == l.nrows()`).
    ///
    /// Classification: a level with `rows ≥ tune.par_rows` **or**
    /// `nnz ≥ tune.fuse_nnz` becomes a parallel run, chunked at
    /// `tune.chunk_nnz` nonzeros on the prefix sum; every maximal stretch of
    /// remaining (cheap) levels is fused into one serial run.
    pub fn plan<S: Scalar>(l: &Csr<S>, levels: &LevelSets, tune: TuneParams) -> Self {
        assert_eq!(l.nrows(), levels.n(), "schedule planned for a mismatched level decomposition");
        let rows: Vec<u32> = levels.items().iter().map(|&i| i as u32).collect();
        let level_ptr = levels.level_ptr();
        let mut runs = Vec::new();
        let mut chunk_ptr: Vec<u32> = Vec::new();
        let mut serial_start: Option<u32> = None;
        for lvl in 0..levels.nlevels() {
            let span = level_ptr[lvl] as u32..level_ptr[lvl + 1] as u32;
            let items = levels.level_items(lvl);
            let lvl_nnz: usize = items.iter().map(|&i| l.row_nnz(i)).sum();
            if items.len() >= tune.par_rows || lvl_nnz >= tune.fuse_nnz {
                if let Some(s) = serial_start.take() {
                    runs.push(Run::Serial { rows: s..span.start });
                }
                let c0 = chunk_ptr.len() as u32;
                chunk_ptr.push(span.start);
                let mut acc = 0usize;
                for (off, &i) in items.iter().enumerate() {
                    acc += l.row_nnz(i);
                    let bound = span.start + off as u32 + 1;
                    if acc >= tune.chunk_nnz && bound < span.end {
                        chunk_ptr.push(bound);
                        acc = 0;
                    }
                }
                chunk_ptr.push(span.end);
                runs.push(Run::Parallel { chunks: c0..chunk_ptr.len() as u32 });
            } else if serial_start.is_none() {
                serial_start = Some(span.start);
            }
        }
        if let Some(s) = serial_start {
            runs.push(Run::Serial { rows: s..rows.len() as u32 });
        }
        LevelSchedule { rows, runs, chunk_ptr, tune }
    }

    /// The thresholds this schedule was planned under.
    pub fn tune(&self) -> &TuneParams {
        &self.tune
    }

    /// Total runs (serial + parallel launches) per solve.
    pub fn nruns(&self) -> usize {
        self.runs.len()
    }

    /// Parallel launches per solve — each costs one barrier; the difference
    /// to the raw level count is what coarsening saved.
    pub fn nparallel(&self) -> usize {
        self.runs.iter().filter(|r| matches!(r, Run::Parallel { .. })).count()
    }

    /// Execute the schedule: forward-substitute `x` from `b` over `l`, the
    /// matrix the schedule was planned for, on a `W`-wide row-interleaved
    /// panel — `b` and `x` hold `l.nrows()·W` entries, row `i` of column
    /// `j` at `i·W + j`. `W = 1` is the single-column solve, and each
    /// column of a wider panel is bit-identical to it.
    ///
    /// # Panics
    /// If `l` is not the `n × n` matrix the schedule was planned for or the
    /// panels are not `n·W` long.
    pub fn solve_panel<S: Scalar, const W: usize>(
        &self,
        l: &Csr<S>,
        b: &[S],
        x: &mut [S],
        pool: &ExecPool,
    ) {
        assert_panel::<S, W>(l, self.rows.len(), b, x);
        let xp = SendPtr(x.as_mut_ptr());
        for (ri, run) in self.runs.iter().enumerate() {
            let t0 = SolveTrace::start();
            match run {
                Run::Serial { rows } => {
                    let span = &self.rows[rows.start as usize..rows.end as usize];
                    // SAFETY: one thread walks the run in level order, so
                    // every row it reads was solved earlier in the span or
                    // in an earlier run; `assert_panel` bounds the accesses.
                    unsafe { solve_span::<S, W>(l, b, xp.ptr(), span) };
                    SolveTrace::finish(
                        t0,
                        EventKind::SerialRun,
                        ri as u32,
                        rows.end - rows.start,
                        0,
                    );
                }
                Run::Parallel { chunks } => {
                    let bounds = &self.chunk_ptr[chunks.start as usize..chunks.end as usize];
                    let nchunks = bounds.len() - 1;
                    pool.run(nchunks, &|c| {
                        let span = &self.rows[bounds[c] as usize..bounds[c + 1] as usize];
                        // SAFETY: rows of one level are mutually independent
                        // and each appears in exactly one chunk, so each
                        // chunk is the only writer of its rows' panel
                        // entries and every read touches rows finished in
                        // earlier runs.
                        unsafe { solve_span::<S, W>(l, b, xp.ptr(), span) };
                    });
                    let nrows = bounds[nchunks] - bounds[0];
                    SolveTrace::finish(
                        t0,
                        EventKind::ParallelRun,
                        ri as u32,
                        nrows,
                        nchunks.min(u16::MAX as usize) as u16,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TaskSchedule (point-to-point)
// ---------------------------------------------------------------------------

/// Shape summary of a compiled [`TaskSchedule`], surfaced through
/// `SelectionReport`/`planctl explain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskGraphStats {
    /// Compiled tasks (nnz-balanced row groups; fused chains count once).
    pub ntasks: usize,
    /// Cross-thread dependency edges — each is one flag spin-wait per
    /// solve, the p2p replacement for a barrier.
    pub cross_edges: usize,
    /// Longest dependency chain through the task graph (tasks), the lower
    /// bound on solve latency in task units.
    pub critical_path: usize,
    /// Threads the schedule was compiled for (task→thread binding is
    /// static).
    pub nthreads: usize,
}

/// Reset-on-drop for the solve gate so a panicking solve cannot wedge the
/// schedule busy.
struct BusyReset<'a>(&'a AtomicBool);
impl Drop for BusyReset<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A compiled point-to-point schedule: the SpMP pattern of per-task
/// `finished` flags plus plan-time parent lists, replacing the per-level
/// barrier of [`LevelSchedule`] with dependency-driven spin/yield waits —
/// one pool dispatch per solve, zero barriers inside the level loop.
///
/// Rows are grouped into nnz-balanced tasks bound to fixed threads
/// (segment `k` of a level always runs on thread `k`); consecutive
/// single-segment levels fuse into one task, so a pure chain compiles to a
/// single task with no synchronisation at all. Parent lists keep only
/// cross-thread dependencies (intra-thread order is implied by each
/// thread walking its tasks in level order) and are reduced to at most one
/// parent per other thread — the largest dependee task id — because a
/// thread finishes its tasks in order.
///
/// Dependency flags are epoch-stamped (`finished[t] == epoch` ⇒ done this
/// solve), so repeated solves reuse the same allocation-free state; a
/// `busy` gate refuses overlapped solves on one schedule (the caller falls
/// back to its level-sync schedule instead).
#[derive(Debug)]
pub struct TaskSchedule {
    /// Row indices in task order (tasks are contiguous spans).
    rows: Vec<u32>,
    /// Task `t` solves `rows[task_ptr[t]..task_ptr[t+1]]`.
    task_ptr: Vec<u32>,
    /// Thread `th` owns tasks `thread_ptr[th]..thread_ptr[th+1]`, in level
    /// order.
    thread_ptr: Vec<u32>,
    /// Cross-thread parents of task `t`:
    /// `parents[parent_ptr[t]..parent_ptr[t+1]]`.
    parents: Vec<u32>,
    parent_ptr: Vec<u32>,
    stats: TaskGraphStats,
    /// Monotonic solve counter; flag `t` is set by storing the epoch.
    epoch: AtomicU64,
    finished: Vec<AtomicU64>,
    busy: AtomicBool,
}

impl Clone for TaskSchedule {
    fn clone(&self) -> Self {
        TaskSchedule {
            rows: self.rows.clone(),
            task_ptr: self.task_ptr.clone(),
            thread_ptr: self.thread_ptr.clone(),
            parents: self.parents.clone(),
            parent_ptr: self.parent_ptr.clone(),
            stats: self.stats,
            epoch: AtomicU64::new(0),
            finished: self.finished.iter().map(|_| AtomicU64::new(0)).collect(),
            busy: AtomicBool::new(false),
        }
    }
}

impl PartialEq for TaskSchedule {
    fn eq(&self, other: &Self) -> bool {
        // Structural identity only; the epoch/flag runtime state is
        // solve-count bookkeeping, not part of the plan.
        self.rows == other.rows
            && self.task_ptr == other.task_ptr
            && self.thread_ptr == other.thread_ptr
            && self.parents == other.parents
            && self.parent_ptr == other.parent_ptr
            && self.stats == other.stats
    }
}

impl TaskSchedule {
    /// Compile the task graph for `l` under `levels` for `nthreads` fixed
    /// threads. Each level is cut into at most
    /// `min(nthreads, ⌈level_nnz / tune.p2p_chunk_nnz⌉)` contiguous
    /// nnz-balanced segments.
    pub fn plan<S: Scalar>(
        l: &Csr<S>,
        levels: &LevelSets,
        tune: TuneParams,
        nthreads: usize,
    ) -> Self {
        assert_eq!(l.nrows(), levels.n(), "schedule planned for a mismatched level decomposition");
        let nthreads = nthreads.max(1);
        let level_ptr = levels.level_ptr();
        let items = levels.items();

        // 1. Cut levels into segments; segment k of a level runs on thread
        //    k. Consecutive single-segment levels fuse into one task.
        let mut per_thread: Vec<Vec<Range<u32>>> = vec![Vec::new(); nthreads];
        let mut fusing = false;
        for lvl in 0..levels.nlevels() {
            let span = level_ptr[lvl] as u32..level_ptr[lvl + 1] as u32;
            let lvl_items = levels.level_items(lvl);
            if lvl_items.is_empty() {
                continue;
            }
            let lvl_nnz: usize = lvl_items.iter().map(|&i| l.row_nnz(i)).sum();
            let nseg =
                lvl_nnz.div_ceil(tune.p2p_chunk_nnz.max(1)).clamp(1, nthreads.min(lvl_items.len()));
            if nseg <= 1 {
                if fusing {
                    per_thread[0].last_mut().expect("fusing task exists").end = span.end;
                } else {
                    per_thread[0].push(span);
                    fusing = true;
                }
            } else {
                fusing = false;
                let target = lvl_nnz.div_ceil(nseg);
                let mut seg_start = span.start;
                let mut th = 0usize;
                let mut acc = 0usize;
                for (off, &i) in lvl_items.iter().enumerate() {
                    acc += l.row_nnz(i);
                    let bound = span.start + off as u32 + 1;
                    if acc >= target && bound < span.end && th + 1 < nseg {
                        per_thread[th].push(seg_start..bound);
                        th += 1;
                        seg_start = bound;
                        acc = 0;
                    }
                }
                per_thread[th].push(seg_start..span.end);
            }
        }

        // 2. Number tasks thread-major and record row → owning task.
        let mut thread_ptr = Vec::with_capacity(nthreads + 1);
        thread_ptr.push(0u32);
        for th in 0..nthreads {
            thread_ptr.push(thread_ptr[th] + per_thread[th].len() as u32);
        }
        let ntasks = thread_ptr[nthreads] as usize;
        let mut rows: Vec<u32> = Vec::with_capacity(items.len());
        let mut task_ptr = Vec::with_capacity(ntasks + 1);
        task_ptr.push(0u32);
        let mut task_of_row = vec![0u32; l.nrows()];
        let mut owner = vec![0u32; ntasks];
        let mut start_of = vec![0u32; ntasks];
        let mut t = 0usize;
        for (th, segs) in per_thread.iter().enumerate() {
            for seg in segs {
                for &i in &items[seg.start as usize..seg.end as usize] {
                    task_of_row[i] = t as u32;
                    rows.push(i as u32);
                }
                task_ptr.push(rows.len() as u32);
                owner[t] = th as u32;
                start_of[t] = seg.start;
                t += 1;
            }
        }

        // 3. Parent lists: cross-thread dependencies only, reduced to the
        //    largest dependee per owning thread (its earlier tasks are
        //    implied finished).
        let mut parents: Vec<u32> = Vec::new();
        let mut parent_ptr = Vec::with_capacity(ntasks + 1);
        parent_ptr.push(0u32);
        let mut max_parent: Vec<i64> = vec![-1; nthreads];
        for t in 0..ntasks {
            let th = owner[t] as usize;
            for &i in &rows[task_ptr[t] as usize..task_ptr[t + 1] as usize] {
                let (cols, _) = l.row(i as usize);
                for &j in &cols[..cols.len() - 1] {
                    let d = task_of_row[j];
                    let od = owner[d as usize] as usize;
                    if od != th && d as i64 > max_parent[od] {
                        max_parent[od] = d as i64;
                    }
                }
            }
            for slot in max_parent.iter_mut() {
                if *slot >= 0 {
                    parents.push(*slot as u32);
                    *slot = -1;
                }
            }
            parent_ptr.push(parents.len() as u32);
        }

        // 4. Critical path, walked in level (= item-range) order, which is
        //    topological: parents and same-thread predecessors both start
        //    strictly earlier in the item array.
        let mut order: Vec<u32> = (0..ntasks as u32).collect();
        order.sort_unstable_by_key(|&t| start_of[t as usize]);
        let mut cp = vec![0u32; ntasks];
        let mut critical = 0usize;
        for &t in &order {
            let t = t as usize;
            let th = owner[t] as usize;
            let mut best = 0u32;
            if t as u32 > thread_ptr[th] {
                best = cp[t - 1];
            }
            for &p in &parents[parent_ptr[t] as usize..parent_ptr[t + 1] as usize] {
                best = best.max(cp[p as usize]);
            }
            cp[t] = best + 1;
            critical = critical.max(cp[t] as usize);
        }

        let stats = TaskGraphStats {
            ntasks,
            cross_edges: parents.len(),
            critical_path: critical,
            nthreads,
        };
        let finished = (0..ntasks).map(|_| AtomicU64::new(0)).collect();
        TaskSchedule {
            rows,
            task_ptr,
            thread_ptr,
            parents,
            parent_ptr,
            stats,
            epoch: AtomicU64::new(0),
            finished,
            busy: AtomicBool::new(false),
        }
    }

    /// Shape summary for reports.
    pub fn stats(&self) -> TaskGraphStats {
        self.stats
    }

    /// Execute the schedule: forward-substitute `x` from `b` over `l`,
    /// which must be the matrix the schedule was compiled for, on a
    /// `W`-wide row-interleaved panel (see [`LevelSchedule::solve_panel`]).
    ///
    /// Returns `false` — with `x` untouched in any meaningful way — when
    /// the solve could not be dispatched point-to-point: another solve is
    /// in flight on this same schedule, the pool cannot host all
    /// `nthreads` jobs concurrently, or another dispatch holds the pool.
    /// Callers keep their [`LevelSchedule`] and fall back to it.
    ///
    /// # Panics
    /// As [`LevelSchedule::solve_panel`].
    pub fn solve_panel<S: Scalar, const W: usize>(
        &self,
        l: &Csr<S>,
        b: &[S],
        x: &mut [S],
        pool: &ExecPool,
    ) -> bool {
        assert_panel::<S, W>(l, self.rows.len(), b, x);
        if self.busy.swap(true, Ordering::Acquire) {
            return false;
        }
        let _busy = BusyReset(&self.busy);
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let t0 = SolveTrace::start();
        let xp = SendPtr(x.as_mut_ptr());
        let ok = pool.try_run_exclusive(self.stats.nthreads, &|th| {
            for t in self.thread_ptr[th] as usize..self.thread_ptr[th + 1] as usize {
                for &p in
                    &self.parents[self.parent_ptr[t] as usize..self.parent_ptr[t + 1] as usize]
                {
                    let flag = &self.finished[p as usize];
                    let mut spins = 0u32;
                    while flag.load(Ordering::Acquire) != epoch {
                        // A dead parent never sets its flag; bail so the
                        // dispatcher can drain and re-raise the panic.
                        if pool.dispatch_panicked() {
                            return;
                        }
                        spins = spins.wrapping_add(1);
                        if spins < 64 {
                            core::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                let span = &self.rows[self.task_ptr[t] as usize..self.task_ptr[t + 1] as usize];
                // SAFETY: each row belongs to exactly one task, so this task
                // is the only writer of its rows' panel entries; every read
                // sees rows finished by this thread earlier (program order)
                // or published by the Release store on a parent's flag that
                // the Acquire spin above observed.
                unsafe { solve_span::<S, W>(l, b, xp.ptr(), span) };
                self.finished[t].store(epoch, Ordering::Release);
            }
        });
        if ok {
            SolveTrace::finish(
                t0,
                EventKind::P2pRun,
                self.stats.ntasks.min(IDX_MASK as usize) as u32,
                self.rows.len().min(u32::MAX as usize) as u32,
                self.stats.nthreads.min(u16::MAX as usize) as u16,
            );
        }
        ok
    }
}

// ---------------------------------------------------------------------------
// SpmvPlan
// ---------------------------------------------------------------------------

/// Preplanned nnz-balanced chunk boundaries for an SpMV block: boundary `c`
/// to `c+1` delimits the rows (CSR) or stored lanes (DCSR) of one parallel
/// chunk. Planned once per block at preprocessing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmvPlan {
    bounds: Vec<u32>,
}

impl SpmvPlan {
    fn from_nnz(n: usize, row_nnz: impl Fn(usize) -> usize, tune: &TuneParams) -> Self {
        let mut bounds = Vec::with_capacity(2);
        bounds.push(0u32);
        let mut acc = 0usize;
        for i in 0..n {
            acc += row_nnz(i);
            if acc >= tune.chunk_nnz && i + 1 < n {
                bounds.push((i + 1) as u32);
                acc = 0;
            }
        }
        bounds.push(n as u32);
        SpmvPlan { bounds }
    }

    /// Plan chunk boundaries over the rows of a CSR block.
    pub fn for_csr<S: Scalar>(a: &Csr<S>, tune: &TuneParams) -> Self {
        Self::from_nnz(a.nrows(), |i| a.row_nnz(i), tune)
    }

    /// Plan chunk boundaries over the stored lanes of a DCSR block.
    pub fn for_dcsr<S: Scalar>(a: &recblock_matrix::Dcsr<S>, tune: &TuneParams) -> Self {
        Self::from_nnz(a.n_lanes(), |k| a.lane(k).1.len(), tune)
    }

    /// Number of parallel chunks (≥ 1).
    pub fn nchunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Rows/lanes covered by the plan (its last boundary).
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("plan has at least one boundary") as usize
    }

    /// `true` if the plan covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

// ---------------------------------------------------------------------------
// SolveWorkspace
// ---------------------------------------------------------------------------

/// Reusable scratch buffers for the blocked executor: the gathered
/// right-hand side and the reordered solution, either one column (`n`
/// entries) or one row-interleaved multi-RHS panel (`n·W` entries). The
/// buffers only grow, so once they have held the widest panel a batch
/// needs, every later solve and batch — of any width up to it — runs
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace<S> {
    work: Vec<S>,
    x: Vec<S>,
}

impl<S: Scalar> SolveWorkspace<S> {
    /// An empty workspace (buffers grow on first use and are kept).
    pub fn new() -> Self {
        SolveWorkspace { work: Vec::new(), x: Vec::new() }
    }

    /// The buffer pair `(work, x)`, each `len` long: `n` for a single
    /// solve, `n·W` for a `W`-wide panel. Contents are whatever the last
    /// use left; the executor overwrites every entry before reading it.
    pub fn pair(&mut self, len: usize) -> (&mut [S], &mut [S]) {
        if self.work.len() < len {
            self.work.resize(len, S::ZERO);
            self.x.resize(len, S::ZERO);
        }
        (&mut self.work[..len], &mut self.x[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_matrix::generate;

    #[test]
    fn row_dot_matches_sequential_reduction_in_value() {
        let cols: Vec<usize> = (0..11).collect();
        let vals: Vec<f64> = (0..11).map(|k| 1.0 + k as f64 * 0.5).collect();
        let x: Vec<f64> = (0..11).map(|k| (k as f64 * 0.3).sin()).collect();
        let seq: f64 = cols.iter().zip(&vals).map(|(&j, &v)| v * x[j]).sum();
        assert!((row_dot(&cols, &vals, &x) - seq).abs() < 1e-12);
    }

    #[test]
    fn row_dot_ptr_is_bit_identical_to_slice_form() {
        let cols: Vec<usize> = (0..37).map(|k| (k * 7) % 40).collect();
        let vals: Vec<f32> = (0..37).map(|k| (k as f32 * 0.11).cos()).collect();
        let x: Vec<f32> = (0..40).map(|k| (k as f32 * 0.23).sin()).collect();
        let a = row_dot(&cols, &vals, &x);
        let b = unsafe { row_dot_ptr(&cols, &vals, x.as_ptr()) };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn panels_split_greedily() {
        let split = |k: usize| panels(k).collect::<Vec<_>>();
        assert_eq!(split(0), Vec::<Range<usize>>::new());
        assert_eq!(split(1), vec![0..1]);
        assert_eq!(split(3), vec![0..2, 2..3]);
        assert_eq!(split(8), vec![0..8]);
        assert_eq!(split(11), vec![0..8, 8..10, 10..11]);
        assert_eq!(split(23), vec![0..8, 8..16, 16..20, 20..22, 22..23]);
    }

    /// Every column of the `W`-wide panel dot must carry the bits of
    /// `row_dot` on that column alone — short rows, the four-chain body,
    /// the tail, and rows long enough for the AVX2 lowering.
    fn check_panel_dot<S: Scalar, const W: usize>() {
        let ncols = 64;
        let x: Vec<S> =
            (0..ncols * W).map(|e| S::from_f64(((e * 37 % 101) as f64 - 50.0) / 7.0)).collect();
        for len in [0usize, 1, 3, 4, 5, 8, 11, 17, 40] {
            let cols: Vec<usize> = (0..len).map(|k| (k * 13 + 5) % ncols).collect();
            let vals: Vec<S> = (0..len).map(|k| S::from_f64(1.0 / (k as f64 + 1.5))).collect();
            // SAFETY: every column index is < ncols and `x` holds ncols·W
            // entries; nothing else touches `x`.
            let panel = unsafe { row_dot_panel::<S, W>(&cols, &vals, x.as_ptr()) };
            for (j, got) in panel.iter().enumerate() {
                let column: Vec<S> = (0..ncols).map(|r| x[r * W + j]).collect();
                let want = row_dot(&cols, &vals, &column);
                assert_eq!(got.to_f64().to_bits(), want.to_f64().to_bits(), "len {len} col {j}");
            }
        }
    }

    #[test]
    fn panel_dot_is_bit_identical_per_column() {
        check_panel_dot::<f64, 1>();
        check_panel_dot::<f64, 2>();
        check_panel_dot::<f64, 4>();
        check_panel_dot::<f64, 8>();
        check_panel_dot::<f32, 2>();
        check_panel_dot::<f32, 8>();
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = ExecPool::new(3);
        for njobs in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..njobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(njobs, &|j| {
                hits[j].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "njobs={njobs}");
        }
    }

    #[test]
    fn pool_back_to_back_dispatches_stay_isolated() {
        let pool = ExecPool::new(2);
        for round in 0..200usize {
            let njobs = 2 + round % 5;
            let sum = AtomicUsize::new(0);
            pool.run(njobs, &|j| {
                sum.fetch_add(j + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), njobs * (njobs + 1) / 2, "round {round}");
        }
    }

    #[test]
    fn pool_contains_job_panics_and_stays_usable() {
        let pool = ExecPool::new(3);
        for round in 0..5usize {
            let done = AtomicUsize::new(0);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(64, &|j| {
                    if j == 17 {
                        panic!("boom in job {j}");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(r.is_err(), "round {round}: dispatcher must observe the panic");
            assert_eq!(done.load(Ordering::Relaxed), 63, "round {round}");
            // The pool recovers completely: the very next dispatch runs
            // every job on the same (still-alive) workers.
            let ok = AtomicUsize::new(0);
            pool.run(64, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ok.load(Ordering::Relaxed), 64, "round {round}");
        }
    }

    #[test]
    fn pool_nested_run_falls_back_inline() {
        let pool = ExecPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(4, &|_| {
            pool.run(3, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ExecPool::new(0);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|j| {
            sum.fetch_add(j, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        assert_eq!(pool.concurrency(), 1);
    }

    #[test]
    fn schedule_fuses_chain_into_one_serial_run() {
        let l = generate::chain::<f64>(5000, 11);
        let levels = LevelSets::analyse(&l).unwrap();
        assert_eq!(levels.nlevels(), 5000);
        let sched = LevelSchedule::plan(&l, &levels, TuneParams::default());
        assert_eq!(sched.nruns(), 1, "a pure chain coarsens to a single serial run");
        assert_eq!(sched.nparallel(), 0);
    }

    #[test]
    fn schedule_splits_big_levels_on_nnz_prefix() {
        // One big level: a diagonal matrix, 10k rows of 1 nnz.
        let l = generate::diagonal::<f64>(10_000, 12);
        let levels = LevelSets::analyse(&l).unwrap();
        let tune = TuneParams { chunk_nnz: 1000, ..TuneParams::default() };
        let sched = LevelSchedule::plan(&l, &levels, tune);
        assert_eq!(sched.nruns(), 1);
        assert_eq!(sched.nparallel(), 1);
        let Run::Parallel { chunks } = &sched.runs[0] else { panic!("expected parallel run") };
        let bounds = &sched.chunk_ptr[chunks.start as usize..chunks.end as usize];
        assert_eq!(bounds.len() - 1, 10, "10k nnz at 1k per chunk");
        for w in bounds.windows(2) {
            assert_eq!(w[1] - w[0], 1000);
        }
    }

    #[test]
    fn schedule_solves_correctly_across_structures() {
        let pool = ExecPool::new(2);
        for (l, seed) in [
            (generate::random_lower::<f64>(800, 5.0, 21), 1u64),
            (generate::kkt_like::<f64>(3000, 1200, 3, 22), 2),
            (generate::grid2d::<f64>(30, 30, 23), 3),
        ] {
            let n = l.nrows();
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 + seed as f64).sin()).collect();
            let levels = LevelSets::analyse(&l).unwrap();
            // Tiny thresholds to force parallel runs even on small systems.
            let tune =
                TuneParams { par_rows: 8, fuse_nnz: 64, chunk_nnz: 32, ..Default::default() };
            let sched = LevelSchedule::plan(&l, &levels, tune);
            let mut x = vec![0.0; n];
            sched.solve_panel::<f64, 1>(&l, &b, &mut x, &pool);
            let reference = crate::sptrsv::serial_csr(&l, &b).unwrap();
            assert_eq!(x, reference, "engine must be bit-identical to the serial reference");
        }
    }

    #[test]
    fn task_schedule_fuses_chain_to_single_task() {
        let l = generate::chain::<f64>(5000, 41);
        let levels = LevelSets::analyse(&l).unwrap();
        let ts = TaskSchedule::plan(&l, &levels, TuneParams::default(), 4);
        let stats = ts.stats();
        assert_eq!(stats.ntasks, 1, "a pure chain compiles to one task");
        assert_eq!(stats.cross_edges, 0);
        assert_eq!(stats.critical_path, 1);
        let pool = ExecPool::new(3);
        let b: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut x = vec![0.0; 5000];
        assert!(ts.solve_panel::<f64, 1>(&l, &b, &mut x, &pool));
        assert_eq!(x, crate::sptrsv::serial_csr(&l, &b).unwrap());
    }

    #[test]
    fn task_schedule_matches_serial_across_structures() {
        let pool = ExecPool::new(3);
        for (l, seed) in [
            (generate::random_lower::<f64>(800, 5.0, 21), 1u64),
            (generate::kkt_like::<f64>(3000, 1200, 3, 22), 2),
            (generate::grid2d::<f64>(30, 30, 23), 3),
            (generate::layered::<f64>(2000, 25, 3.0, generate::LayerShape::Uniform, 24), 4),
        ] {
            let n = l.nrows();
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37 + seed as f64).sin()).collect();
            let levels = LevelSets::analyse(&l).unwrap();
            // Tiny task budget to force many tasks and cross-thread edges.
            let tune = TuneParams { p2p_chunk_nnz: 16, ..TuneParams::default() };
            let ts = TaskSchedule::plan(&l, &levels, tune, pool.concurrency());
            let mut x = vec![0.0; n];
            // Repeated solves reuse the epoch-stamped flags.
            for _ in 0..3 {
                x.iter_mut().for_each(|v| *v = 0.0);
                assert!(ts.solve_panel::<f64, 1>(&l, &b, &mut x, &pool), "p2p dispatch accepted");
                let reference = crate::sptrsv::serial_csr(&l, &b).unwrap();
                assert_eq!(x, reference, "p2p must be bit-identical to the serial reference");
            }
        }
    }

    #[test]
    fn task_schedule_parent_lists_are_cross_thread_and_reduced() {
        let l = generate::layered::<f64>(2000, 25, 3.0, generate::LayerShape::Uniform, 25);
        let levels = LevelSets::analyse(&l).unwrap();
        let nthreads = 4;
        let tune = TuneParams { p2p_chunk_nnz: 16, ..TuneParams::default() };
        let ts = TaskSchedule::plan(&l, &levels, tune, nthreads);
        let stats = ts.stats();
        assert!(stats.ntasks > nthreads, "wide levels split into many tasks");
        assert!(stats.cross_edges > 0, "layered structure needs cross-thread sync");
        assert!(stats.critical_path <= stats.ntasks);
        // Reduced parent lists: at most one parent per foreign thread.
        for t in 0..stats.ntasks {
            let np = (ts.parent_ptr[t + 1] - ts.parent_ptr[t]) as usize;
            assert!(np < nthreads, "task {t} keeps {np} parents");
        }
    }

    #[test]
    fn task_schedule_refuses_oversized_dispatch_and_reports_it() {
        let l = generate::layered::<f64>(500, 10, 3.0, generate::LayerShape::Uniform, 26);
        let levels = LevelSets::analyse(&l).unwrap();
        let tune = TuneParams { p2p_chunk_nnz: 16, ..TuneParams::default() };
        // Compiled for more threads than the pool can host concurrently:
        // the solve must refuse rather than deadlock on inline jobs.
        let ts = TaskSchedule::plan(&l, &levels, tune, 8);
        let pool = ExecPool::new(1);
        let b = vec![1.0f64; 500];
        let mut x = vec![0.0f64; 500];
        assert!(!ts.solve_panel::<f64, 1>(&l, &b, &mut x, &pool));
    }

    #[test]
    fn task_schedule_concurrent_solves_fall_back_not_corrupt() {
        // Two threads hammering one schedule: the busy gate admits at most
        // one p2p solve at a time, refused calls return false, and every
        // accepted solve is bit-exact.
        let l = generate::layered::<f64>(1500, 20, 3.0, generate::LayerShape::Uniform, 27);
        let levels = LevelSets::analyse(&l).unwrap();
        let tune = TuneParams { p2p_chunk_nnz: 32, ..TuneParams::default() };
        let ts = TaskSchedule::plan(&l, &levels, tune, 2);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
        let reference = crate::sptrsv::serial_csr(&l, &b).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let pool = ExecPool::new(1);
                    let mut x = vec![0.0f64; n];
                    for _ in 0..20 {
                        if ts.solve_panel::<f64, 1>(&l, &b, &mut x, &pool) {
                            assert_eq!(x, reference);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn spmv_plan_balances_by_nnz() {
        let a = generate::rect_random::<f64>(2000, 500, 8.0, 0.0, 2.0, 31);
        let tune = TuneParams { chunk_nnz: 1024, ..TuneParams::default() };
        let plan = SpmvPlan::for_csr(&a, &tune);
        assert!(plan.nchunks() > 1);
        assert_eq!(plan.len(), 2000);
        // Every chunk except the last reaches the nnz target.
        let b = plan.bounds();
        for c in 0..plan.nchunks() - 1 {
            let nnz: usize = (b[c]..b[c + 1]).map(|i| a.row_nnz(i as usize)).sum();
            assert!(nnz >= 1024, "chunk {c} carries {nnz} nnz");
        }
    }

    #[test]
    fn workspace_reuses_buffers() {
        let mut ws = SolveWorkspace::<f64>::new();
        {
            let (w, x) = ws.pair(100);
            w[0] = 1.0;
            x[99] = 2.0;
        }
        let cap = ws.work.capacity();
        let (w, x) = ws.pair(50);
        assert_eq!(w.len(), 50);
        assert_eq!(x.len(), 50);
        assert_eq!(ws.work.capacity(), cap, "shrinking keeps capacity");
    }
}
