//! `recblock-serve`: a concurrent SpTRSV solve service.
//!
//! The paper's central economics: preprocessing a triangular factor costs
//! about 9× one solve (Table 5), so the win comes from *reusing* the
//! preprocessed plan across many right-hand sides. This crate turns that
//! observation into a serving layer in front of
//! [`recblock::RecBlockSolver`]:
//!
//! * a sharded, capacity-bounded, single-flight **plan cache** keyed by
//!   matrix fingerprint ([`cache::PlanCache`]) — each distinct matrix is
//!   preprocessed once, no matter how many threads submit it concurrently;
//! * a **batching engine** ([`batch`]) that coalesces queued right-hand
//!   sides for the same matrix into one multi-RHS solve
//!   ([`recblock::RecBlockSolver::solve_multi_ws`]), which streams the
//!   matrix once per panel of up to 8 columns — amortising matrix traffic
//!   the same way the paper's multi-RHS runs do;
//! * **bounded queues with backpressure** — [`SolveService::try_submit`]
//!   fails fast with [`ServeError::Overloaded`] instead of letting latency
//!   grow without bound, and [`SolveService::shutdown`] drains everything
//!   already accepted;
//! * built-in lock-free **metrics** ([`MetricsSnapshot`]): cache hit/miss,
//!   preprocessing time saved, batch-size and latency histograms, queue
//!   depth.
//!
//! ```
//! use recblock_serve::{ServeConfig, SolveService};
//! use recblock_matrix::generate;
//!
//! let service = SolveService::<f64>::new(ServeConfig::default().with_workers(2));
//! let l = generate::random_lower::<f64>(500, 4.0, 7);
//! let b = vec![1.0; 500];
//! let handle = service.submit(&l, b).unwrap();
//! let x = handle.wait().unwrap();
//! assert_eq!(x.len(), 500);
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
pub mod error;
pub mod health;
pub mod metrics;
mod persist;
pub mod prometheus;
mod tuner;
mod worker;

pub use cache::{Fetched, PlanCache, PlanKey, PlanSource};
pub use config::{ServeConfig, StoreOptions};
pub use error::ServeError;
pub use health::Health;
pub use metrics::{
    Metrics, MetricsSnapshot, Stage, StageSnapshot, TenantCounters, TenantSnapshot, TraceHop,
    TuneState,
};

use batch::{BatchQueue, Pending, Reply};
use recblock::RecBlockSolver;
use recblock_matrix::{Csr, Scalar};
use recblock_store::{ArtifactKind, PlanStore};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lock that shrugs off poison: a panic while the lock was held cannot
/// have left these structures inconsistent (they hold join handles and an
/// optional persister, both of which tolerate partial drains), and the
/// drain path must stay usable precisely when panics have happened.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Delivery target for routed (transport-submitted) requests.
///
/// An in-process submit gets a dedicated [`SolveHandle`]; a transport such
/// as the TCP front end instead shares **one** sink across every request it
/// has in flight and tells answers apart by the `tag` it chose at submit
/// time. `deliver` is called from a worker thread exactly once per routed
/// request — implementations should hand the result off quickly (push to a
/// queue, wake an event loop) and never block on the network.
pub trait ResponseSink<S>: Send + Sync {
    /// Deliver the answer for the request submitted with `tag`. On success
    /// the vector is the solution — physically the same buffer the request
    /// arrived in, so pooling transports can recycle it.
    fn deliver(&self, tag: u64, result: Result<Vec<S>, ServeError>);
}

/// A resolved plan together with the tier that produced it.
pub type ResolvedPlan<S> = (Arc<RecBlockSolver<S>>, PlanSource);

/// The receiving end of one submitted solve.
///
/// Dropping the handle abandons the result (the solve still runs; the
/// answer is discarded).
#[derive(Debug)]
pub struct SolveHandle<S> {
    rx: mpsc::Receiver<Result<Vec<S>, ServeError>>,
}

impl<S> SolveHandle<S> {
    /// Block until the solution (or error) arrives.
    pub fn wait(self) -> Result<Vec<S>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Cancelled))
    }

    /// Non-blocking poll: `None` while the solve is still in flight.
    pub fn try_wait(&self) -> Option<Result<Vec<S>, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// Multithreaded solve service. See the crate docs for the architecture.
pub struct SolveService<S: Scalar> {
    config: ServeConfig,
    cache: Arc<PlanCache<S>>,
    queue: Arc<BatchQueue<S>>,
    metrics: Arc<Metrics>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    store: Option<Arc<PlanStore>>,
    persister: Mutex<Option<persist::Persister<S>>>,
    tuner: Mutex<Option<tuner::CanaryTuner<S>>>,
}

impl<S: Scalar> SolveService<S> {
    /// Start the service: allocates the cache and queue, spawns
    /// `config.workers` solver threads. When `config.store` is set, opens
    /// the persistent plan store (a failure to open degrades to running
    /// without the tier, counted in `store_errors`) and, with warm-start
    /// enabled, pre-populates the cache from it, newest plans first.
    pub fn new(config: ServeConfig) -> Self {
        let metrics = Arc::new(Metrics::default());
        let cache =
            Arc::new(PlanCache::new(config.cache_capacity, config.cache_shards, metrics.clone()));
        let queue = Arc::new(BatchQueue::new(config.queue_capacity, metrics.clone()));
        let workers = (0..config.workers)
            .map(|i| {
                let (q, m, mb) = (queue.clone(), metrics.clone(), config.max_batch);
                std::thread::Builder::new()
                    .name(format!("recblock-serve-{i}"))
                    // Supervisor loop: the worker's own batch loop already
                    // contains solver panics, so an unwind escaping
                    // `worker::run` means the loop machinery itself broke.
                    // Respawn in place (same thread, fresh call) rather
                    // than losing a worker for the life of the service.
                    .spawn(move || loop {
                        let (q2, m2) = (q.clone(), m.clone());
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            worker::run(q2, m2, mb)
                        })) {
                            Ok(()) => break,
                            Err(_) => {
                                m.worker_panics.fetch_add(1, Relaxed);
                            }
                        }
                    })
                    .expect("spawn solve worker")
            })
            .collect();
        let store = config.store.as_ref().and_then(|opts| match PlanStore::open(&opts.dir) {
            Ok(s) => {
                // Boot-time recovery scan: quarantine torn or corrupt plan
                // files and sweep stale temp files *before* warm-start reads
                // the directory. Quarantined plans simply miss on the next
                // load and get rebuilt.
                match s.recover() {
                    Ok(report) => {
                        metrics
                            .store_quarantined
                            .fetch_add(report.quarantined.len() as u64, Relaxed);
                    }
                    Err(_) => {
                        metrics.store_errors.fetch_add(1, Relaxed);
                    }
                }
                Some(Arc::new(s))
            }
            Err(_) => {
                metrics.store_errors.fetch_add(1, Relaxed);
                None
            }
        });
        if let (Some(store), Some(opts)) = (&store, &config.store) {
            if opts.warm_start {
                warm_start_cache(&cache, store, &metrics, config.cache_capacity);
            }
        }
        let persister = match (&store, &config.store) {
            (Some(store), Some(opts)) if opts.write_back => {
                Some(persist::Persister::spawn(store.clone(), metrics.clone()))
            }
            _ => None,
        };
        let tuner = config.canary_tune.then(|| {
            tuner::CanaryTuner::spawn(
                cache.clone(),
                metrics.clone(),
                persister.as_ref().and_then(|p| p.share()),
            )
        });
        SolveService {
            config,
            cache,
            queue,
            metrics,
            workers: Mutex::new(workers),
            store,
            persister: Mutex::new(persister),
            tuner: Mutex::new(tuner),
        }
    }

    /// Submit a solve, failing fast with [`ServeError::Overloaded`] when
    /// the queue is at capacity. The plan is looked up (or built, on the
    /// calling thread, single-flight) before the request is enqueued.
    pub fn try_submit(&self, l: &Csr<S>, rhs: Vec<S>) -> Result<SolveHandle<S>, ServeError> {
        self.submit_inner(l, rhs, false)
    }

    /// Submit a solve, blocking while the queue is full (still fails with
    /// [`ServeError::ShuttingDown`] once shutdown begins).
    pub fn submit(&self, l: &Csr<S>, rhs: Vec<S>) -> Result<SolveHandle<S>, ServeError> {
        self.submit_inner(l, rhs, true)
    }

    fn submit_inner(
        &self,
        l: &Csr<S>,
        rhs: Vec<S>,
        block: bool,
    ) -> Result<SolveHandle<S>, ServeError> {
        if rhs.len() != l.nrows() {
            return Err(ServeError::BadRequest { expected: l.nrows(), actual: rhs.len() });
        }
        let key = PlanKey::of(l);
        let t0 = Instant::now();
        let (plan, _) = self.resolve_plan(key, l)?;
        self.metrics.record_stage(Stage::CacheLookup, t0.elapsed());
        self.observe_for_tuning(key, &plan, &rhs);
        let (tx, rx) = mpsc::channel();
        let req = Pending { rhs, reply: Reply::Channel(tx), submitted: Instant::now() };
        if block {
            self.queue.push_blocking(key, &plan, req)?;
        } else {
            self.queue.try_push(key, &plan, req)?;
        }
        Ok(SolveHandle { rx })
    }

    /// Submit a solve against an already-resolved plan, routing the answer
    /// to `sink` with `tag` instead of a per-request handle. This is the
    /// transport boundary: the network front end resolves the plan once
    /// (via [`SolveService::resolve_key`]), then pushes right-hand sides
    /// through here with pooled buffers — the path performs no allocation
    /// in steady state and fails fast with [`ServeError::Overloaded`] when
    /// the queue is at capacity.
    pub fn submit_routed(
        &self,
        key: PlanKey,
        plan: &Arc<RecBlockSolver<S>>,
        rhs: Vec<S>,
        tag: u64,
        sink: &Arc<dyn ResponseSink<S>>,
    ) -> Result<(), ServeError> {
        if rhs.len() != plan.n() {
            return Err(ServeError::BadRequest { expected: plan.n(), actual: rhs.len() });
        }
        self.observe_for_tuning(key, plan, &rhs);
        let req = Pending {
            rhs,
            reply: Reply::Routed { tag, sink: sink.clone() },
            submitted: Instant::now(),
        };
        self.queue.try_push(key, plan, req)
    }

    /// Resolve the plan for `key` **without building**: in-memory cache
    /// first, then the persistent store (the hit is promoted into the
    /// cache). `Ok(None)` when neither tier has it — the transport path
    /// cannot rebuild because a wire request carries the fingerprint, not
    /// the matrix; clients precompute plans with `planctl precompute`.
    pub fn resolve_key(&self, key: PlanKey) -> Result<Option<ResolvedPlan<S>>, ServeError> {
        if let Some(found) = self.cache.probe(key) {
            return found.map(|plan| Some((plan, PlanSource::Cache)));
        }
        let Some(store) = &self.store else { return Ok(None) };
        let t0 = Instant::now();
        match store.load::<S>(&key) {
            Ok(Some(loaded)) => {
                let load_time = t0.elapsed();
                self.metrics.record_stage(Stage::StoreLoad, load_time);
                self.metrics.store_hits.fetch_add(1, Relaxed);
                self.metrics.store_bytes_read.fetch_add(loaded.bytes as u64, Relaxed);
                self.metrics.store_load_ns.fetch_add(load_time.as_nanos() as u64, Relaxed);
                self.metrics.preprocess_saved_ns.fetch_add(
                    std::time::Duration::from_secs_f64(loaded.meta.build_cost.max(0.0)).as_nanos()
                        as u64,
                    Relaxed,
                );
                let plan = Arc::new(loaded.into_solver());
                self.cache.insert(key, plan.clone());
                Ok(Some((plan, PlanSource::Store)))
            }
            Ok(None) => {
                self.metrics.record_stage(Stage::StoreLoad, t0.elapsed());
                self.metrics.store_misses.fetch_add(1, Relaxed);
                Ok(None)
            }
            Err(_) => {
                self.metrics.record_stage(Stage::StoreLoad, t0.elapsed());
                self.metrics.store_errors.fetch_add(1, Relaxed);
                Ok(None)
            }
        }
    }

    /// The shared metrics instance, for transports that register
    /// per-tenant counter slices (see [`Metrics::tenant`]).
    pub fn shared_metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }

    /// Keys of every plan currently resident in the cache — what a
    /// draining cluster node must hand to its successors before leaving.
    pub fn warm_keys(&self) -> Vec<PlanKey> {
        self.cache.keys()
    }

    /// The plan for `key` as verified `.rbplan` bytes, ready to ship to a
    /// peer verbatim (the embedded checksums travel with it). Prefers the
    /// persistent store's copy (already encoded); falls back to encoding
    /// the cached solver. `Ok(None)` when neither tier has the plan.
    /// Matrix bytes never appear — the file holds the preprocessed plan,
    /// keyed by fingerprint + value digest like every other tier.
    pub fn export_plan_bytes(&self, key: PlanKey) -> Result<Option<Vec<u8>>, ServeError> {
        if let Some(store) = &self.store {
            // Flush first so a plan built moments ago (still queued for
            // write-back) is exportable from disk.
            self.flush_store();
            match store.export_bytes(&key) {
                Ok(Some(bytes)) => return Ok(Some(bytes)),
                Ok(None) => {}
                Err(_) => {
                    self.metrics.store_errors.fetch_add(1, Relaxed);
                }
            }
        }
        match self.cache.probe(key) {
            Some(Ok(plan)) => Ok(Some(recblock_store::encode_plan(
                plan.blocked(),
                &key,
                plan.preprocess_time().as_secs_f64(),
            ))),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }

    /// Accept `.rbplan` bytes produced by a peer's
    /// [`SolveService::export_plan_bytes`]: verify end to end (magic,
    /// version, both checksums, embedded key must equal `key`), decode,
    /// install in the cache, and persist through the store when one is
    /// configured — so the plan survives a restart without ever being
    /// rebuilt. Rejected bytes leave both tiers untouched.
    pub fn import_plan_bytes(&self, key: PlanKey, bytes: &[u8]) -> Result<(), ServeError> {
        let fail =
            |e: recblock_store::StoreError| ServeError::PlanBuild(format!("plan import: {e}"));
        let meta = recblock_store::verify_file(bytes).map_err(fail)?;
        if meta.key != key {
            return Err(ServeError::PlanBuild(format!(
                "plan import: bytes are for {}, not {}",
                meta.key, key
            )));
        }
        let (meta, blocked) = recblock_store::decode_plan::<S>(bytes).map_err(fail)?;
        let solver = RecBlockSolver::from_blocked(
            blocked,
            std::time::Duration::from_secs_f64(meta.build_cost.max(0.0)),
        );
        self.cache.insert(key, Arc::new(solver));
        if let Some(store) = &self.store {
            match store.import_bytes(&key, bytes) {
                Ok(_) => {
                    self.metrics.store_writes.fetch_add(1, Relaxed);
                }
                Err(_) => {
                    self.metrics.store_errors.fetch_add(1, Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Right-hand sides the request queue can still accept before
    /// `try_push` would report [`ServeError::Overloaded`]. Advisory when
    /// other submitters race; a transport uses it to hold work in its own
    /// fair queue instead of bouncing it off a full compute queue.
    pub fn queue_available(&self) -> usize {
        self.queue.available()
    }

    /// Resolve the plan for `key`, trying tiers in order: in-memory cache,
    /// persistent store, fresh build. A freshly built plan is handed to
    /// the background persister (when write-back is on); any store failure
    /// is counted and silently degrades to rebuilding.
    fn resolve_plan(
        &self,
        key: PlanKey,
        l: &Csr<S>,
    ) -> Result<(Arc<RecBlockSolver<S>>, PlanSource), ServeError> {
        let (plan, source) = self.cache.get_or_fetch(key, || {
            if let Some(store) = &self.store {
                let t0 = Instant::now();
                match store.load::<S>(&key) {
                    Ok(Some(loaded)) => {
                        let load_time = t0.elapsed();
                        self.metrics.record_stage(Stage::StoreLoad, load_time);
                        self.metrics.store_hits.fetch_add(1, Relaxed);
                        self.metrics.store_bytes_read.fetch_add(loaded.bytes as u64, Relaxed);
                        self.metrics.store_load_ns.fetch_add(load_time.as_nanos() as u64, Relaxed);
                        // The load dodged this much preprocessing — the
                        // same quantity a cache hit credits.
                        self.metrics.preprocess_saved_ns.fetch_add(
                            std::time::Duration::from_secs_f64(loaded.meta.build_cost.max(0.0))
                                .as_nanos() as u64,
                            Relaxed,
                        );
                        return Ok(Fetched::Loaded(loaded.into_solver()));
                    }
                    Ok(None) => {
                        self.metrics.record_stage(Stage::StoreLoad, t0.elapsed());
                        self.metrics.store_misses.fetch_add(1, Relaxed);
                    }
                    Err(_) => {
                        // Failed loads still get a span — the fallback path
                        // must be visible in the stage histograms.
                        self.metrics.record_stage(Stage::StoreLoad, t0.elapsed());
                        self.metrics.store_errors.fetch_add(1, Relaxed);
                    }
                }
            }
            RecBlockSolver::new(l, self.config.solver.clone()).map(Fetched::Built)
        })?;
        if source == PlanSource::Built {
            if let Some(persister) = &*lock_unpoisoned(&self.persister) {
                persister.enqueue(key, plan.clone());
            }
        }
        Ok((plan, source))
    }

    /// Preprocess (or fetch the cached plan for) `l` without solving —
    /// useful to warm the cache before traffic arrives.
    pub fn warm(&self, l: &Csr<S>) -> Result<(), ServeError> {
        self.warm_status(l).map(|_| ())
    }

    /// As [`SolveService::warm`], additionally reporting where the plan
    /// came from: already cached, loaded from the persistent store, or
    /// built fresh.
    pub fn warm_status(&self, l: &Csr<S>) -> Result<PlanSource, ServeError> {
        let key = PlanKey::of(l);
        self.resolve_plan(key, l).map(|(_, source)| source)
    }

    /// Block until every plan queued for background persistence is on
    /// disk. A no-op when the store tier or write-back is disabled.
    pub fn flush_store(&self) {
        if let Some(persister) = &*lock_unpoisoned(&self.persister) {
            persister.flush();
        }
    }

    /// Hand one observed solve to the canary tuner, when it is running.
    fn observe_for_tuning(&self, key: PlanKey, plan: &Arc<RecBlockSolver<S>>, rhs: &[S]) {
        if let Some(tuner) = &*lock_unpoisoned(&self.tuner) {
            tuner.observe(key, plan, rhs);
        }
    }

    /// Block until the canary tuner has measured every observed sample
    /// (deterministic convergence for tests and drains). A no-op when
    /// canary tuning is off. Does *not* wait for tuned-plan write-back —
    /// chain [`SolveService::flush_store`] for that.
    pub fn flush_tuning(&self) {
        if let Some(tuner) = &*lock_unpoisoned(&self.tuner) {
            tuner.flush();
        }
    }

    /// Current service health, derived live from the evidence counters:
    /// [`Health::Draining`] once a drain began, [`Health::Degraded`] when
    /// resilience machinery has fired (contained worker panics, quarantined
    /// plan files), [`Health::Healthy`] otherwise.
    pub fn health(&self) -> Health {
        self.metrics.health()
    }

    /// Point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Plans currently resident in the cache.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Queued right-hand sides right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Graceful shutdown: new submits are refused, workers drain every
    /// accepted request, threads are joined. Returns the final metrics.
    /// With zero workers, whatever is still queued is cancelled (each
    /// requester receives [`ServeError::ShuttingDown`]).
    pub fn shutdown(self) -> MetricsSnapshot {
        self.drain()
    }

    /// Graceful drain through a shared reference: refuse new submits,
    /// join the workers, cancel anything unreachable, flush the write-back
    /// queue. **Idempotent and panic-safe**: a second call (or a call
    /// racing [`SolveService::shutdown`]/`Drop`) finds the handles already
    /// taken and returns without blocking, and a panic mid-drain cannot
    /// poison the next caller — the handle locks are taken
    /// poison-tolerantly and joins happen *outside* them.
    pub fn drain(&self) -> MetricsSnapshot {
        self.metrics.set_draining();
        self.queue.begin_shutdown();
        // Take the handles under the lock, join outside it: a concurrent
        // second drain sees an empty vec and falls through immediately
        // instead of blocking behind our joins.
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = lock_unpoisoned(&self.workers);
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        // Only reachable work left is the zero-worker case.
        self.queue.cancel_remaining();
        // Stop the tuner *before* the persister: it holds a persist
        // handle (keeping the writer's channel alive), and its final
        // verdicts may enqueue tuned plans for write-back.
        let tuner = lock_unpoisoned(&self.tuner).take();
        if let Some(mut tuner) = tuner {
            tuner.shutdown();
        }
        // Drain the write-back queue so accepted plans reach disk. Same
        // take-then-work-outside-the-lock shape as the worker handles.
        let persister = lock_unpoisoned(&self.persister).take();
        if let Some(mut persister) = persister {
            persister.shutdown();
        }
        self.metrics.snapshot()
    }
}

/// Pre-populate `cache` from `store`: newest plans first, matching scalar
/// type and artifact kind only, up to `capacity` plans. Corrupt or stale
/// files are counted and skipped — warm-start must never fail the boot.
fn warm_start_cache<S: Scalar>(
    cache: &PlanCache<S>,
    store: &PlanStore,
    metrics: &Metrics,
    capacity: usize,
) {
    let entries = match store.entries() {
        Ok(e) => e,
        Err(_) => {
            metrics.store_errors.fetch_add(1, Relaxed);
            return;
        }
    };
    let mut loaded = 0usize;
    for entry in entries {
        if loaded >= capacity {
            break;
        }
        if entry.meta.kind != ArtifactKind::Blocked || entry.meta.scalar_bytes as usize != S::BYTES
        {
            continue;
        }
        let t0 = Instant::now();
        match recblock_store::read_plan_file::<S>(&entry.path) {
            Ok(plan) => {
                let load_time = t0.elapsed();
                metrics.record_stage(Stage::StoreLoad, load_time);
                metrics.store_hits.fetch_add(1, Relaxed);
                metrics.store_bytes_read.fetch_add(plan.bytes as u64, Relaxed);
                metrics.store_load_ns.fetch_add(load_time.as_nanos() as u64, Relaxed);
                let key = plan.meta.key;
                cache.insert(key, Arc::new(plan.into_solver()));
                loaded += 1;
            }
            Err(_) => {
                metrics.record_stage(Stage::StoreLoad, t0.elapsed());
                metrics.store_errors.fetch_add(1, Relaxed);
            }
        }
    }
}

impl<S: Scalar> Drop for SolveService<S> {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recblock_kernels::sptrsv::serial_csr;
    use recblock_matrix::generate;
    use recblock_matrix::vector::max_rel_diff;

    #[test]
    fn single_request_round_trip() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(1));
        let l = generate::random_lower::<f64>(400, 4.0, 80);
        let b: Vec<f64> = (0..400).map(|i| (i as f64 * 0.02).sin()).collect();
        let x = service.submit(&l, b.clone()).unwrap().wait().unwrap();
        assert!(max_rel_diff(&x, &serial_csr(&l, &b).unwrap()) < 1e-10);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.plan_builds, 1);
    }

    #[test]
    fn bad_rhs_length_is_rejected_up_front() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(1));
        let l = generate::diagonal::<f64>(10, 81);
        let err = service.submit(&l, vec![1.0; 9]).unwrap_err();
        assert_eq!(err, ServeError::BadRequest { expected: 10, actual: 9 });
    }

    #[test]
    fn backpressure_overloaded_instead_of_blocking() {
        // Zero workers: nothing drains, so the bound is hit deterministically.
        let service =
            SolveService::<f64>::new(ServeConfig::default().with_workers(0).with_queue_capacity(2));
        let l = generate::diagonal::<f64>(8, 82);
        let _h1 = service.try_submit(&l, vec![1.0; 8]).unwrap();
        let _h2 = service.try_submit(&l, vec![2.0; 8]).unwrap();
        let err = service.try_submit(&l, vec![3.0; 8]).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { depth: 2, capacity: 2 }));
        let stats = service.metrics();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 2);
    }

    #[test]
    fn zero_worker_shutdown_cancels_pending() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(0));
        let l = generate::diagonal::<f64>(8, 83);
        let h = service.try_submit(&l, vec![1.0; 8]).unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(h.wait().unwrap_err(), ServeError::ShuttingDown);
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let p = std::env::temp_dir().join(format!("rbserve-{}-{}", std::process::id(), name));
            std::fs::remove_dir_all(&p).ok();
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn warm_status_reports_built_then_cache() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(1));
        let l = generate::random_lower::<f64>(200, 3.0, 85);
        assert_eq!(service.warm_status(&l).unwrap(), PlanSource::Built);
        assert_eq!(service.warm_status(&l).unwrap(), PlanSource::Cache);
    }

    #[test]
    fn store_tier_persists_and_reloads_across_services() {
        let tmp = TempDir::new("tier");
        let l = generate::random_lower::<f64>(500, 4.0, 86);
        let b: Vec<f64> = (0..500).map(|i| (i as f64 * 0.02).cos()).collect();

        // First service builds the plan and writes it back.
        let first =
            SolveService::<f64>::new(ServeConfig::default().with_workers(1).with_store(&tmp.0));
        let x1 = first.submit(&l, b.clone()).unwrap().wait().unwrap();
        first.flush_store();
        let stats = first.shutdown();
        assert_eq!(stats.plan_builds, 1);
        assert_eq!(stats.store_misses, 1);
        assert_eq!(stats.store_writes, 1);

        // A fresh service (empty in-memory cache) loads instead of building.
        let second = SolveService::<f64>::new(
            ServeConfig::default()
                .with_workers(1)
                .with_store_options(StoreOptions::new(&tmp.0).with_warm_start(false)),
        );
        assert_eq!(second.warm_status(&l).unwrap(), PlanSource::Store);
        assert_eq!(second.warm_status(&l).unwrap(), PlanSource::Cache);
        let x2 = second.submit(&l, b.clone()).unwrap().wait().unwrap();
        assert_eq!(x1, x2, "persisted plan must solve bit-identically");
        let stats = second.shutdown();
        assert_eq!(stats.plan_builds, 0, "plan must come from the store, not a rebuild");
        assert_eq!(stats.store_hits, 1);
        assert!(stats.store_bytes_read > 0);
        assert!(stats.preprocess_time_saved > std::time::Duration::ZERO);
    }

    #[test]
    fn warm_start_prepopulates_cache_at_boot() {
        let tmp = TempDir::new("warmstart");
        let l = generate::random_lower::<f64>(400, 3.0, 87);
        let first =
            SolveService::<f64>::new(ServeConfig::default().with_workers(1).with_store(&tmp.0));
        first.warm(&l).unwrap();
        first.flush_store();
        first.shutdown();

        let second =
            SolveService::<f64>::new(ServeConfig::default().with_workers(1).with_store(&tmp.0));
        assert_eq!(second.cached_plans(), 1, "boot warm-start should load the stored plan");
        assert_eq!(second.warm_status(&l).unwrap(), PlanSource::Cache);
        let stats = second.shutdown();
        assert_eq!(stats.plan_builds, 0);
        assert_eq!(stats.store_hits, 1);
    }

    #[test]
    fn corrupt_store_file_falls_back_to_building() {
        let tmp = TempDir::new("corrupt");
        let l = generate::random_lower::<f64>(300, 3.0, 88);
        let first =
            SolveService::<f64>::new(ServeConfig::default().with_workers(1).with_store(&tmp.0));
        first.warm(&l).unwrap();
        first.flush_store();
        first.shutdown();

        // Flip one byte in the middle of the stored plan.
        let store = recblock_store::PlanStore::open(&tmp.0).unwrap();
        let path = store.path_for(&PlanKey::of(&l), recblock_store::ArtifactKind::Blocked);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let second = SolveService::<f64>::new(
            ServeConfig::default()
                .with_workers(1)
                .with_store_options(StoreOptions::new(&tmp.0).with_warm_start(false)),
        );
        // The boot-time recovery scan already quarantined the corrupt file,
        // so the tier misses cleanly and the plan is rebuilt.
        assert_eq!(second.health(), Health::Degraded);
        assert!(store.quarantine_dir().exists(), "corrupt file must be moved aside");
        assert_eq!(second.warm_status(&l).unwrap(), PlanSource::Built);
        let b: Vec<f64> = (0..300).map(|i| ((i % 5) as f64) - 2.0).collect();
        let x = second.submit(&l, b.clone()).unwrap().wait().unwrap();
        assert!(max_rel_diff(&x, &serial_csr(&l, &b).unwrap()) < 1e-10);
        second.flush_store();
        let stats = second.shutdown();
        assert_eq!(stats.store_quarantined, 1, "the corrupt file must be quarantined at boot");
        assert_eq!(stats.plan_builds, 1);
        // The rebuilt plan was written back in place of the corrupt file.
        assert_eq!(stats.store_writes, 1);
        // The miss (post-quarantine) still left a span in the stage
        // histograms: the fallback path is visible, not silently absorbed.
        let store_load = stats.stage(Stage::StoreLoad).expect("failed load must record a span");
        assert!(store_load.count >= 1);
        assert!(store_load.total > std::time::Duration::ZERO);
        // The request itself went through the full pipeline.
        for stage in [Stage::CacheLookup, Stage::QueueWait, Stage::Solve, Stage::Respond] {
            assert!(stats.stage(stage).is_some(), "missing {} span", stage.name());
        }
    }

    #[test]
    fn drain_is_idempotent_then_shutdown_still_returns() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(2));
        let l = generate::random_lower::<f64>(200, 3.0, 90);
        assert_eq!(service.health(), Health::Healthy);
        let x = service.submit(&l, vec![1.0; 200]).unwrap().wait().unwrap();
        assert_eq!(x.len(), 200);

        let first = service.drain();
        assert_eq!(first.completed, 1);
        assert_eq!(first.health, Health::Draining);
        // Second drain finds the handles already taken: returns at once.
        let second = service.drain();
        assert_eq!(second.completed, 1);
        // Post-drain submits are refused with a typed error.
        let err = service.try_submit(&l, vec![1.0; 200]).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        // The consuming shutdown after a drain must not deadlock either.
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn concurrent_drains_do_not_deadlock() {
        let service = Arc::new(SolveService::<f64>::new(ServeConfig::default().with_workers(2)));
        let racers: Vec<_> = (0..4)
            .map(|_| {
                let s = service.clone();
                std::thread::spawn(move || s.drain())
            })
            .collect();
        for r in racers {
            r.join().expect("racing drains all return");
        }
    }

    #[test]
    fn drain_survives_poisoned_locks() {
        // A drainer that panicked while holding either drain-path lock
        // must not wedge the next one: the locks are taken
        // poison-tolerantly, so drain still joins workers and flushes.
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(1));
        for poison in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = service.workers.lock().unwrap();
                panic!("injected: die holding the workers lock");
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = service.persister.lock().unwrap();
                panic!("injected: die holding the persister lock");
            })),
        ] {
            assert!(poison.is_err());
        }
        let stats = service.drain();
        assert_eq!(stats.health, Health::Draining);
    }

    #[test]
    fn warm_then_submit_hits_cache() {
        let service = SolveService::<f64>::new(ServeConfig::default().with_workers(1));
        let l = generate::random_lower::<f64>(300, 3.0, 84);
        service.warm(&l).unwrap();
        let x = service.submit(&l, vec![1.0; 300]).unwrap().wait().unwrap();
        assert_eq!(x.len(), 300);
        let stats = service.shutdown();
        assert_eq!(stats.plan_builds, 1);
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.preprocess_time_saved > std::time::Duration::ZERO);
    }
}
