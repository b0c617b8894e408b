//! Service tuning knobs.

use recblock::SolverOptions;
use recblock_kernels::ScheduleMode;
use std::path::PathBuf;

/// Persistent plan-store tier configuration (see `recblock-store`).
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding the plan files (created if absent).
    pub dir: PathBuf,
    /// Persist freshly built plans in the background so later processes
    /// (or this one, after an eviction) load instead of rebuilding.
    pub write_back: bool,
    /// At service start, pre-populate the in-memory cache from the store,
    /// newest files first, up to the cache capacity.
    pub warm_start: bool,
}

impl StoreOptions {
    /// Store rooted at `dir` with write-back and warm-start enabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions { dir: dir.into(), write_back: true, warm_start: true }
    }

    /// Toggle background persistence of new builds.
    pub fn with_write_back(mut self, on: bool) -> Self {
        self.write_back = on;
        self
    }

    /// Toggle cache pre-population at service start.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }
}

/// Configuration for [`crate::SolveService`].
///
/// The defaults are sized for an interactive service on the current host:
/// one worker per available core, batches capped at 8 columns (the widest
/// panel the multi-RHS executors load each nonzero once for), and a queue
/// a few hundred requests deep.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Solver worker threads. `0` is accepted (useful in tests: nothing
    /// drains, so backpressure is exercised deterministically).
    pub workers: usize,
    /// Maximum right-hand sides coalesced into one multi-RHS solve.
    pub max_batch: usize,
    /// Bound on queued (accepted, not yet solved) requests across all
    /// matrices. Beyond it [`crate::SolveService::try_submit`] fails fast
    /// with [`crate::ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Total cached plans across all shards. Least-recently-used plans are
    /// evicted once the bound is exceeded.
    pub cache_capacity: usize,
    /// Lock shards for the plan cache. More shards reduce contention when
    /// many distinct matrices are in flight.
    pub cache_shards: usize,
    /// Preprocessing options handed to every plan build.
    pub solver: SolverOptions,
    /// Optional persistent plan store; `None` disables the tier.
    pub store: Option<StoreOptions>,
    /// Run the canary autotuner: the first solves of a cold plan (one
    /// fresh from a build or a store load) replay captured right-hand
    /// sides against the bounded candidate grid on a background thread,
    /// and a measured winner replaces the plan in the cache and is
    /// written back through the store. Off by default — tuning costs
    /// background CPU and is only worth it for plans that stay resident.
    pub canary_tune: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        ServeConfig {
            workers: cores,
            max_batch: 8,
            queue_capacity: 256,
            cache_capacity: 16,
            cache_shards: 8,
            solver: SolverOptions::default(),
            store: None,
            canary_tune: false,
        }
    }
}

impl ServeConfig {
    /// Set the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the per-solve batching cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Set the queue bound that triggers backpressure.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the plan-cache capacity (total across shards).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Set the plan-cache shard count.
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Set the preprocessing options used for plan builds.
    pub fn with_solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Force (or un-force, with [`ScheduleMode::Auto`]) the engine
    /// synchronisation scheme every plan build compiles for its level-set
    /// blocks. Point-to-point plans served by concurrent workers stay
    /// correct: an overlapped solve on the same plan falls back to the
    /// level-sync schedule rather than sharing task flags.
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        self.solver.tune.schedule_mode = mode;
        self
    }

    /// Enable the persistent plan store rooted at `dir` (write-back and
    /// warm-start on). Use [`ServeConfig::with_store_options`] for finer
    /// control.
    pub fn with_store(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_store_options(StoreOptions::new(dir))
    }

    /// Set (or clear, via `None`-like default) the full store tier options.
    pub fn with_store_options(mut self, store: StoreOptions) -> Self {
        self.store = Some(store);
        self
    }

    /// Toggle the background canary autotuner (see
    /// [`ServeConfig::canary_tune`]).
    pub fn with_canary_tune(mut self, on: bool) -> Self {
        self.canary_tune = on;
        self
    }
}
