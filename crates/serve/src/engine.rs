//! Request-batching scoring engine.
//!
//! A scoring request is one *job*: a block of whole rows, submitted
//! together and answered together. A dedicated scheduler thread runs
//! the kernel. When it is idle, a new job is dispatched at once. Jobs
//! that arrive while the kernel is busy form a backlog, and the next
//! dispatch packs queued jobs, oldest first, into one block of at most
//! `max_batch` rows, so batching happens exactly when load makes it
//! pay. A job larger than `max_batch` is scored alone. Every block goes
//! through the one kernel call site that [`ScoringEngine::score_into`]
//! uses, on the scheduler's own thread: queued work never runs on the
//! shared `spe-runtime` pool, whose helping threads run whatever task is
//! pending, so a wedged model can only ever block its own scheduler.
//! Only the direct [`ScoringEngine::score_into`] splits a large block
//! across that pool.
//!
//! The engine fixes its output width at start: one score per row
//! (P(class 1)) for binary models, the full k-class distribution for
//! models with k > 2.
//!
//! The model lives behind an `RwLock`ed registry slot, so a retrained
//! model can be hot-swapped with [`ScoringEngine::swap_model`] while
//! requests are in flight: in-flight blocks finish on the Arc they
//! already cloned, later blocks pick up the new model. Nothing blocks
//! for longer than the pointer swap.
//!
//! Scoring runs on one of two backends selected by [`ScoreBackend`]:
//! the plain f64 path through the model itself, or the
//! [quantized](crate::quantize) u8 kernel compiled from the model's
//! snapshot. Both produce bit-identical probabilities; `Auto` (the
//! default) quantizes when the model supports it and silently keeps the
//! f64 path otherwise.

use crate::error::ServeError;
use crate::quantize::QuantizedModel;
use parking_lot::{Condvar, Mutex, RwLock};
use spe_data::{Matrix, MatrixView};
use spe_learners::Model;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which kernel the engine scores with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreBackend {
    /// Always traverse the model's own f64 representation.
    F64,
    /// Require the quantized u8 kernel; [`ScoringEngine::start`] and
    /// [`ScoringEngine::swap_model`] fail with
    /// [`ServeError::Unquantizable`] if the model cannot compile.
    Quantized,
    /// Use the quantized kernel when the model compiles, the f64 path
    /// otherwise. [`ScoringEngine::backend`] reports which one won.
    #[default]
    Auto,
}

/// Tuning knobs for the [`ScoringEngine`]. Build with
/// [`EngineConfig::builder`], which validates the parameters instead of
/// clamping them; `EngineConfig::default()` is the builder's default.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Rows at which the scheduler stops packing queued jobs into one
    /// block.
    pub max_batch: usize,
    /// Queue capacity in rows; a job that would overflow it fails fast
    /// with [`ServeError::QueueFull`] so overload backpressures the
    /// caller instead of growing an unbounded buffer.
    pub queue_capacity: usize,
    /// Scoring kernel selection.
    pub backend: ScoreBackend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
            backend: ScoreBackend::Auto,
        }
    }
}

impl EngineConfig {
    /// Starts a builder with the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Chainable builder for [`EngineConfig`], in the style of
/// `SelfPacedEnsembleConfig::builder()`: setters accumulate, `build`
/// validates and reports problems as [`ServeError::InvalidConfig`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Rows at which the scheduler stops packing queued jobs.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Queue capacity in rows before submissions fail with `QueueFull`.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Scoring kernel selection.
    pub fn backend(mut self, backend: ScoreBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, ServeError> {
        let c = &self.config;
        if c.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if c.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        if c.queue_capacity < c.max_batch {
            return Err(ServeError::InvalidConfig(format!(
                "queue_capacity ({}) must hold at least one full batch ({})",
                c.queue_capacity, c.max_batch
            )));
        }
        Ok(self.config)
    }
}

/// Rolling latency window: enough batches to estimate a stable p99
/// without unbounded growth.
const LATENCY_WINDOW: usize = 4096;

/// Counters published by [`ScoringEngine::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Rows accepted through [`ScoringEngine::submit`].
    pub requests: u64,
    /// Blocks scored by the scheduler.
    pub batches: u64,
    /// Rows scored through the direct [`ScoringEngine::score_into`]
    /// path (these bypass the queue and are not in `requests`).
    pub direct_rows: u64,
    /// Deepest the queue has ever been, in rows, at submission time.
    pub queue_high_water: usize,
    /// Median block service time (dequeue to scored), microseconds.
    /// Zero until the first block completes.
    pub p50_batch_latency_us: u64,
    /// 99th-percentile block service time, microseconds.
    pub p99_batch_latency_us: u64,
    /// Times a new model was installed via hot swap.
    pub model_swaps: u64,
}

/// Mutable statistics shared between submitters and the scheduler.
struct StatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    direct_rows: AtomicU64,
    queue_high_water: AtomicUsize,
    model_swaps: AtomicU64,
    /// Rolling window of block service times in µs.
    latencies: Mutex<Vec<u64>>,
}

impl StatsInner {
    fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            direct_rows: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            model_swaps: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
        }
    }

    fn record_batch(&self, elapsed: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut lat = self.latencies.lock();
        if lat.len() == LATENCY_WINDOW {
            // Overwrite round-robin so the window tracks recent batches.
            let i = (self.batches.load(Ordering::Relaxed) as usize) % LATENCY_WINDOW;
            lat[i] = us;
        } else {
            lat.push(us);
        }
    }

    fn snapshot(&self) -> ServeStats {
        let mut lat = self.latencies.lock().clone();
        lat.sort_unstable();
        let pct = |q: f64| -> u64 {
            if lat.is_empty() {
                return 0;
            }
            let idx = ((lat.len() - 1) as f64 * q).round() as usize;
            lat[idx]
        };
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            direct_rows: self.direct_rows.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            p50_batch_latency_us: pct(0.50),
            p99_batch_latency_us: pct(0.99),
            model_swaps: self.model_swaps.load(Ordering::Relaxed),
        }
    }
}

/// One queued scoring request: a block of whole rows and the cell its
/// scores go to.
struct Job {
    x: Matrix,
    slot: Arc<Slot>,
}

/// Rendezvous cell a submitter blocks on until the scheduler fills it.
struct Slot {
    result: Mutex<Option<Result<Vec<f64>, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, value: Result<Vec<f64>, ServeError>) {
        *self.result.lock() = Some(value);
        self.ready.notify_all();
    }
}

/// Handle to one in-flight [`ScoringEngine::submit`] job.
#[must_use = "wait() on the pending job to get its scores"]
pub struct PendingJob {
    slot: Arc<Slot>,
    deadline: Instant,
}

impl PendingJob {
    /// Blocks until the scheduler scores this job or its deadline
    /// passes, whichever comes first; the scores are row-major,
    /// [`ScoringEngine::scores_per_row`] per row.
    ///
    /// This is the deadline-propagation primitive for network serving:
    /// a client-supplied deadline bounds the wait, so a wedged model
    /// can never hang a connection. On timeout the job stays queued and
    /// is still scored; its result is discarded when the abandoned slot
    /// drops. Engine shutdown scores every accepted job, so a wait
    /// never outlives the engine by more than one block.
    pub fn wait(self) -> Result<Vec<f64>, ServeError> {
        let mut guard = self.slot.result.lock();
        loop {
            if let Some(res) = guard.take() {
                return res;
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServeError::DeadlineExceeded);
            }
            // A spurious wake or a timeout that raced the fill both land
            // back at the `take` above, so no result is ever lost.
            let _ = self.slot.ready.wait_for(&mut guard, remaining);
        }
    }
}

/// The served model plus its (optional) quantized compilation; both
/// swap atomically under the registry lock so a block never mixes
/// kernels from different models.
struct ServingSlot {
    model: Arc<dyn Model>,
    quantized: Option<Arc<QuantizedModel>>,
}

impl ServingSlot {
    /// Resolves `backend` for `model`: compiles the quantized kernel
    /// when requested (hard failure for `Quantized`, silent f64
    /// fallback for `Auto`).
    fn resolve(
        model: Arc<dyn Model>,
        n_features: usize,
        backend: ScoreBackend,
    ) -> Result<Self, ServeError> {
        // Width gate first: a model that cannot score rows of the
        // engine's width is rejected at install/swap time with a typed
        // error, never discovered later as garbage scores. Covers both
        // `start` and `swap_model` (both resolve through here).
        let bound = model.feature_bound();
        if !bound.admits(n_features) {
            return Err(ServeError::ModelWidthMismatch {
                expected: n_features,
                model: bound,
            });
        }
        let compile = || -> Result<QuantizedModel, ServeError> {
            let snap = model.snapshot().ok_or_else(|| {
                ServeError::Unquantizable("model does not support snapshots".into())
            })?;
            QuantizedModel::compile(&snap, n_features)
        };
        let quantized = match backend {
            ScoreBackend::F64 => None,
            ScoreBackend::Quantized => Some(Arc::new(compile()?)),
            ScoreBackend::Auto => compile().ok().map(Arc::new),
        };
        Ok(Self { model, quantized })
    }

    /// The scorer blocks should run on.
    fn active(&self) -> Arc<dyn Model> {
        match &self.quantized {
            Some(q) => Arc::clone(q) as Arc<dyn Model>,
            None => Arc::clone(&self.model),
        }
    }
}

/// The job queue, guarded by one lock with the scheduler's wake signal.
struct Queue {
    jobs: VecDeque<Job>,
    /// Rows across `jobs`.
    rows: usize,
    stopping: bool,
}

/// State shared between the engine handle and its scheduler thread.
struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    model: RwLock<ServingSlot>,
    stats: StatsInner,
    config: EngineConfig,
    n_features: usize,
    /// Class count the engine serves, fixed by the initial model; swaps
    /// must match it so response rows never change width mid-stream.
    n_classes: usize,
    /// Scores per row: 1 for binary models, `n_classes` above two.
    width: usize,
}

/// Batched scoring engine over a hot-swappable model.
///
/// Dropping the engine performs a graceful shutdown: no new jobs are
/// accepted, already-queued jobs are scored, and the scheduler thread
/// is joined.
pub struct ScoringEngine {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
}

impl ScoringEngine {
    /// Starts an engine serving `model` for rows of `n_features`.
    ///
    /// Fails with [`ServeError::InvalidConfig`] on out-of-range
    /// parameters (hand-built configs bypassing
    /// [`EngineConfig::builder`] are re-validated here), with
    /// [`ServeError::Unquantizable`] when `config.backend` demands the
    /// quantized kernel and the model cannot compile, and with
    /// [`ServeError::Io`] if the scheduler thread cannot spawn.
    pub fn start(
        model: Box<dyn Model>,
        n_features: usize,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let config = EngineConfigBuilder { config }.build()?;
        let slot = ServingSlot::resolve(Arc::from(model), n_features, config.backend)?;
        let n_classes = slot.model.n_classes();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                rows: 0,
                stopping: false,
            }),
            work: Condvar::new(),
            model: RwLock::new(slot),
            stats: StatsInner::new(),
            config,
            n_features,
            n_classes,
            width: if n_classes > 2 { n_classes } else { 1 },
        });
        let worker = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("spe-serve-scheduler".into())
            .spawn(move || scheduler_loop(&worker))
            .map_err(|e| ServeError::Io(format!("failed to spawn scheduler thread: {e}")))?;
        Ok(Self {
            shared,
            scheduler: Some(scheduler),
        })
    }

    /// The backend the *current* model actually scores on — `Quantized`
    /// only when a compiled kernel is installed. An `Auto` engine
    /// reports what auto-selection picked.
    pub fn backend(&self) -> ScoreBackend {
        if self.shared.model.read().quantized.is_some() {
            ScoreBackend::Quantized
        } else {
            ScoreBackend::F64
        }
    }

    /// Enqueues the rows of `x` as one job, answered by
    /// [`PendingJob::wait`] no later than `deadline`.
    ///
    /// Fails fast, without queueing anything, with
    /// [`ServeError::RowWidthMismatch`] on a wrong-width block,
    /// [`ServeError::DeadlineExceeded`] when `deadline` has already
    /// passed, and [`ServeError::QueueFull`] when the job's rows would
    /// overflow the queue capacity.
    pub fn submit(&self, x: Matrix, deadline: Instant) -> Result<PendingJob, ServeError> {
        if x.cols() != self.shared.n_features && x.rows() > 0 {
            return Err(ServeError::RowWidthMismatch {
                expected: self.shared.n_features,
                got: x.cols(),
            });
        }
        if Instant::now() >= deadline {
            return Err(ServeError::DeadlineExceeded);
        }
        let rows = x.rows();
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock();
            if queue.stopping {
                return Err(ServeError::EngineStopped);
            }
            let capacity = self.shared.config.queue_capacity;
            if queue.rows + rows > capacity {
                return Err(ServeError::QueueFull { capacity });
            }
            queue.rows += rows;
            queue.jobs.push_back(Job {
                x,
                slot: Arc::clone(&slot),
            });
            let stats = &self.shared.stats;
            stats.requests.fetch_add(rows as u64, Ordering::Relaxed);
            stats
                .queue_high_water
                .fetch_max(queue.rows, Ordering::Relaxed);
        }
        self.shared.work.notify_one();
        Ok(PendingJob { slot, deadline })
    }

    /// Scores a whole matrix synchronously, bypassing the queue: the
    /// owned-output form of [`ScoringEngine::score_into`].
    pub fn score_matrix(&self, x: &Matrix) -> Result<Vec<f64>, ServeError> {
        let mut out = vec![0.0; x.rows() * self.shared.width];
        self.score_into(x.view(), &mut out)?;
        Ok(out)
    }

    /// Scores a borrowed row block into a caller-owned buffer of
    /// [`scores_per_row`](Self::scores_per_row) values per row — the
    /// zero-alloc serving path.
    ///
    /// Steady-state scoring through this entry allocates nothing: the
    /// input is a view, the output is the caller's slice, and the
    /// backend's per-batch scratch is thread-local. The output is
    /// bit-identical to the queued path for every thread count and
    /// block split.
    pub fn score_into(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), ServeError> {
        if x.cols() != self.shared.n_features && x.rows() > 0 {
            return Err(ServeError::RowWidthMismatch {
                expected: self.shared.n_features,
                got: x.cols(),
            });
        }
        let want = x.rows() * self.shared.width;
        if out.len() != want {
            return Err(ServeError::OutputLengthMismatch {
                expected: want,
                got: out.len(),
            });
        }
        let model = self.shared.model.read().active();
        let width = self.shared.width;
        // Chunk geometry mirrors `par_chunks` (≥64 rows, ≤4 chunks per
        // thread); per-row results are chunk-independent, so the output
        // is bit-identical to the queue for every thread count.
        let threads = spe_runtime::current_threads().max(1);
        let chunk_len = x.rows().div_ceil(threads * 4).max(64);
        if threads <= 1 || x.rows() <= chunk_len {
            kernel(model.as_ref(), width, x, out);
        } else {
            let mut chunks: Vec<&mut [f64]> = out.chunks_mut(chunk_len * width).collect();
            spe_runtime::par_for_each_mut(&mut chunks, |i, chunk| {
                let start = i * chunk_len;
                let rows = x.rows_range(start..start + chunk.len() / width);
                kernel(model.as_ref(), width, rows, chunk);
            });
        }
        self.shared
            .stats
            .direct_rows
            .fetch_add(x.rows() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Installs a new model; later blocks score against it.
    ///
    /// In-flight blocks finish on the model they already hold, so
    /// there is no downtime and no torn block. The configured
    /// [`ScoreBackend`] is re-resolved for the new model; on a
    /// `Quantized` engine a model that cannot compile is rejected and
    /// the old model keeps serving.
    pub fn swap_model(&self, model: Box<dyn Model>) -> Result<(), ServeError> {
        // Class gate, symmetric to the feature-width gate in `resolve`:
        // a swap target scoring a different number of classes would
        // change every k-wide response row's width under live clients.
        if model.n_classes() != self.shared.n_classes {
            return Err(ServeError::ModelClassMismatch {
                expected: self.shared.n_classes,
                got: model.n_classes(),
            });
        }
        let slot = ServingSlot::resolve(
            Arc::from(model),
            self.shared.n_features,
            self.shared.config.backend,
        )?;
        *self.shared.model.write() = slot;
        self.shared
            .stats
            .model_swaps
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rows currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().rows
    }

    /// The configured queue capacity in rows (admission controllers
    /// watermark against this).
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.queue_capacity
    }

    /// The configured packing bound in rows.
    pub fn max_batch(&self) -> usize {
        self.shared.config.max_batch
    }

    /// Row width this engine was started for.
    pub fn n_features(&self) -> usize {
        self.shared.n_features
    }

    /// Classes the served model scores, fixed by the model the engine
    /// started with (2 for every binary model).
    pub fn n_classes(&self) -> usize {
        self.shared.n_classes
    }

    /// Scores written per row: 1 (P(class 1)) for binary models, the
    /// full `n_classes`-wide distribution for models with more than two
    /// classes.
    pub fn scores_per_row(&self) -> usize {
        self.shared.width
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }
}

impl Drop for ScoringEngine {
    fn drop(&mut self) {
        self.shared.queue.lock().stopping = true;
        self.shared.work.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // The scheduler scores every job queued before the stop flag,
        // and no job is queued after it. Should the scheduler have died
        // anyway, fail what it left with a typed error so no waiter
        // blocks on a dead engine.
        for job in self.shared.queue.lock().jobs.drain(..) {
            job.slot.fill(Err(ServeError::Shutdown));
        }
    }
}

/// The one kernel call site, shared by the queue and
/// [`ScoringEngine::score_into`]: `width` picks the scalar or the
/// k-wide kernel.
fn kernel(model: &dyn Model, width: usize, x: MatrixView<'_>, out: &mut [f64]) {
    if width == 1 {
        model.predict_proba_into(x, out);
    } else {
        model.predict_proba_k_into(x, out);
    }
}

fn scheduler_loop(shared: &Shared) {
    let max_batch = shared.config.max_batch;
    // Buffers reused across blocks: the jobs, their gathered row-major
    // features and the block's scores.
    let mut jobs: Vec<Job> = Vec::new();
    let mut rows: Vec<f64> = Vec::new();
    let mut scores: Vec<f64> = Vec::new();
    loop {
        {
            let mut queue = shared.queue.lock();
            while queue.jobs.is_empty() {
                if queue.stopping {
                    return;
                }
                shared.work.wait(&mut queue);
            }
            // The oldest job goes at once. Jobs queued behind it are a
            // backlog: they join its block while it stays within
            // `max_batch` rows.
            let mut taken = 0;
            while let Some(next) = queue.jobs.front() {
                let n = next.x.rows();
                if !jobs.is_empty() && taken + n > max_batch {
                    break;
                }
                taken += n;
                jobs.extend(queue.jobs.pop_front());
            }
            queue.rows -= taken;
        }
        score_jobs(shared, &mut jobs, &mut rows, &mut scores);
    }
}

/// Gathers one block of jobs, scores it on the scheduler thread and
/// answers every job's slot.
fn score_jobs(shared: &Shared, jobs: &mut Vec<Job>, rows: &mut Vec<f64>, scores: &mut Vec<f64>) {
    let started = Instant::now();
    let width = shared.width;
    rows.clear();
    for job in jobs.iter() {
        rows.extend_from_slice(job.x.as_slice());
    }
    let n = jobs.iter().map(|job| job.x.rows()).sum();
    scores.clear();
    scores.resize(n * width, 0.0);
    let x = MatrixView::from_slice(rows, n, shared.n_features);
    let model = shared.model.read().active();
    // A misbehaving custom model (wrong output length, internal panic)
    // must fail its block with a typed error, not kill the scheduler
    // thread and hang every waiter.
    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        kernel(model.as_ref(), width, x, scores);
    }));
    // Record before filling any slot: a waiter released by `fill` may
    // read the stats immediately and must already see this block.
    shared.stats.record_batch(started.elapsed());
    if scored.is_err() {
        for job in jobs.drain(..) {
            job.slot.fill(Err(ServeError::Corrupt(
                "model panicked while scoring the batch".into(),
            )));
        }
        return;
    }
    let mut at = 0;
    for job in jobs.drain(..) {
        let len = job.x.rows() * width;
        job.slot.fill(Ok(scores[at..at + len].to_vec()));
        at += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_learners::traits::ConstantModel;

    /// Model that reports each row's first feature as its probability —
    /// makes result/request alignment checkable.
    struct Echo;
    impl Model for Echo {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            x.iter_rows().map(|r| r[0]).collect()
        }
    }

    /// Echo that takes 40ms per block — keeps the scheduler busy so
    /// tests can build a backlog deterministically.
    struct SlowEcho;
    impl Model for SlowEcho {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            std::thread::sleep(Duration::from_millis(40));
            Echo.predict_proba_view(x)
        }
    }

    fn engine(model: Box<dyn Model>) -> ScoringEngine {
        ScoringEngine::start(model, 2, EngineConfig::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// An `n`-row, 2-wide job whose first column counts up from `first`.
    fn rows(first: f64, n: usize) -> Matrix {
        let mut x = Matrix::zeros(n, 2);
        for i in 0..n {
            x.set(i, 0, first + i as f64);
        }
        x
    }

    fn score(e: &ScoringEngine, x: Matrix) -> Result<Vec<f64>, ServeError> {
        e.submit(x, later())?.wait()
    }

    /// Spins until the scheduler has taken every queued job; a
    /// `SlowEcho` engine then stays busy scoring for 40ms.
    fn until_dispatched(e: &ScoringEngine) {
        while e.queue_depth() > 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_job_comes_back_whole_and_in_row_order() {
        let e = engine(Box::new(Echo));
        assert_eq!(score(&e, rows(1.0, 5)), Ok(vec![1.0, 2.0, 3.0, 4.0, 5.0]));
        let pending: Vec<_> = (0..10)
            .map(|i| {
                e.submit(rows(f64::from(i), 1), later())
                    .unwrap_or_else(|err| panic!("{err}"))
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            assert_eq!(p.wait(), Ok(vec![i as f64]));
        }
        let stats = e.stats();
        assert_eq!(stats.requests, 15, "requests count rows, not jobs");
        assert!(stats.batches >= 1);
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn an_idle_kernel_dispatches_each_job_at_once() {
        let e = engine(Box::new(Echo));
        for i in 0..3 {
            assert_eq!(
                score(&e, rows(f64::from(i), 2)),
                Ok(vec![f64::from(i), f64::from(i) + 1.0])
            );
        }
        // Nothing was queued behind any job, so nothing was packed.
        assert_eq!(e.stats().batches, 3);
    }

    #[test]
    fn a_backlog_packs_into_blocks_of_at_most_max_batch_rows() {
        let cfg = EngineConfig::builder()
            .max_batch(4)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(SlowEcho), 2, cfg).unwrap_or_else(|e| panic!("{e}"));
        // The first job occupies the kernel; the rest queue behind it.
        let first = e
            .submit(rows(0.0, 1), later())
            .unwrap_or_else(|err| panic!("{err}"));
        until_dispatched(&e);
        let jobs = [rows(10.0, 2), rows(20.0, 2), rows(30.0, 9), rows(40.0, 1)];
        let pending: Vec<_> = jobs
            .into_iter()
            .map(|x| e.submit(x, later()).unwrap_or_else(|err| panic!("{err}")))
            .collect();
        assert_eq!(e.queue_depth(), 14);
        assert_eq!(first.wait(), Ok(vec![0.0]));
        let got: Vec<Vec<f64>> = pending
            .into_iter()
            .map(|p| p.wait().unwrap_or_else(|err| panic!("{err}")))
            .collect();
        assert_eq!(got[0], vec![10.0, 11.0]);
        assert_eq!(got[1], vec![20.0, 21.0]);
        assert_eq!(got[2], (30..39).map(f64::from).collect::<Vec<_>>());
        assert_eq!(got[3], vec![40.0]);
        // [first], [2 + 2 rows packed], [9 rows alone: above max_batch],
        // [1 row].
        assert_eq!(e.stats().batches, 4);
        assert_eq!(e.queue_depth(), 0);
    }

    #[test]
    fn wrong_width_rows_rejected() {
        let e = engine(Box::new(ConstantModel(0.5)));
        assert_eq!(
            e.submit(Matrix::zeros(1, 1), later()).map(|_| ()),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            e.score_matrix(&Matrix::zeros(3, 5)).map(|_| ()),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 5
            })
        );
        assert_eq!(e.stats().requests, 0);
    }

    #[test]
    fn a_spent_deadline_is_answered_before_enqueue() {
        let e = engine(Box::new(ConstantModel(0.5)));
        assert_eq!(
            e.submit(rows(0.0, 3), Instant::now()).map(|_| ()),
            Err(ServeError::DeadlineExceeded)
        );
        assert_eq!(e.stats().requests, 0, "a spent job is never queued");
        assert_eq!(e.stats().batches, 0);
    }

    #[test]
    fn queue_overflow_backpressures_in_rows() {
        let cfg = EngineConfig::builder()
            .queue_capacity(4)
            .max_batch(1)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(SlowEcho), 2, cfg).unwrap_or_else(|e| panic!("{e}"));
        // The first job is dispatched at once and keeps the kernel busy.
        let mut pending = vec![e
            .submit(rows(0.0, 1), later())
            .unwrap_or_else(|err| panic!("{err}"))];
        until_dispatched(&e);
        // A job wider than the free capacity sheds whole.
        assert_eq!(
            e.submit(rows(0.0, 5), later()).map(|_| ()),
            Err(ServeError::QueueFull { capacity: 4 })
        );
        pending.push(
            e.submit(rows(0.0, 3), later())
                .unwrap_or_else(|err| panic!("{err}")),
        );
        pending.push(
            e.submit(rows(0.0, 1), later())
                .unwrap_or_else(|err| panic!("{err}")),
        );
        assert_eq!(
            e.submit(rows(0.0, 1), later()).map(|_| ()),
            Err(ServeError::QueueFull { capacity: 4 })
        );
        assert_eq!(e.stats().queue_high_water, 4);
        drop(e); // shutdown drains the queue...
        for p in pending {
            assert!(p.wait().is_ok()); // ...so every accepted job resolves
        }
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let e = engine(Box::new(ConstantModel(0.25)));
        let pending: Vec<_> = (0..32)
            .map(|_| {
                e.submit(rows(0.0, 2), later())
                    .unwrap_or_else(|err| panic!("{err}"))
            })
            .collect();
        drop(e);
        for p in pending {
            assert_eq!(p.wait(), Ok(vec![0.25, 0.25]));
        }
    }

    #[test]
    fn hot_swap_changes_later_scores() {
        let e = engine(Box::new(ConstantModel(0.1)));
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.1]));
        e.swap_model(Box::new(ConstantModel(0.9)))
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.9]));
        assert_eq!(e.stats().model_swaps, 1);
    }

    #[test]
    fn score_matrix_matches_direct_prediction() {
        let e = engine(Box::new(Echo));
        let x = Matrix::from_vec(4, 2, vec![0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0]);
        let got = e.score_matrix(&x).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(got, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(e.stats().direct_rows, 4);
        // Empty input short-circuits without a width check.
        assert_eq!(
            e.score_matrix(&Matrix::zeros(0, 0))
                .unwrap_or_else(|err| panic!("{err}")),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn score_into_matches_the_queue_and_checks_buffer() {
        let e = engine(Box::new(Echo));
        // Large enough to split across the runtime.
        let x = rows(0.5, 300);
        let mut buf = vec![0.0; 300];
        e.score_into(x.view(), &mut buf)
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(buf, score(&e, x).unwrap_or_else(|err| panic!("{err}")));
        let x = rows(0.5, 4);
        let mut short = vec![0.0; 3];
        assert!(matches!(
            e.score_into(x.view(), &mut short),
            Err(ServeError::OutputLengthMismatch {
                expected: 4,
                got: 3
            })
        ));
        let wide = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let mut one = vec![0.0; 1];
        assert!(matches!(
            e.score_into(wide.view(), &mut one),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    /// Echo that records the name of every thread it scores on.
    struct WhereScored(Arc<Mutex<Vec<String>>>);
    impl Model for WhereScored {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().push(name);
            Echo.predict_proba_view(x)
        }
    }

    #[test]
    fn queued_blocks_score_on_the_scheduler_thread_alone() {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let e = engine(Box::new(WhereScored(Arc::clone(&threads))));
        // Far above one chunk: `score_into` would split this block, but
        // the queue must never hand work to the shared pool.
        let got = score(&e, rows(0.0, 1000)).unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(got, (0..1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(*threads.lock(), vec!["spe-serve-scheduler".to_string()]);
    }

    #[test]
    fn latency_percentiles_populate() {
        let e = engine(Box::new(Echo));
        for _ in 0..5 {
            let _ = score(&e, rows(0.5, 1));
        }
        let s = e.stats();
        assert!(s.p50_batch_latency_us <= s.p99_batch_latency_us);
    }

    #[test]
    fn builder_rejects_bad_params() {
        let zero_batch = EngineConfig::builder().max_batch(0).build();
        assert!(matches!(zero_batch, Err(ServeError::InvalidConfig(_))));
        let zero_queue = EngineConfig::builder().queue_capacity(0).build();
        assert!(matches!(zero_queue, Err(ServeError::InvalidConfig(_))));
        let queue_lt_batch = EngineConfig::builder()
            .max_batch(64)
            .queue_capacity(8)
            .build();
        assert!(matches!(queue_lt_batch, Err(ServeError::InvalidConfig(_))));
        // `start` re-validates so a hand-built struct literal can't
        // smuggle a bad config past the builder.
        let cfg = EngineConfig {
            max_batch: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            ScoringEngine::start(Box::new(Echo), 2, cfg).map(|_| ()),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn backend_selection_and_fallback() {
        // Echo has no snapshot: Quantized is a hard error, Auto falls
        // back to the f64 path and keeps serving.
        let want_quantized = EngineConfig::builder()
            .backend(ScoreBackend::Quantized)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            ScoringEngine::start(Box::new(Echo), 2, want_quantized).map(|_| ()),
            Err(ServeError::Unquantizable(_))
        ));
        let e = engine(Box::new(Echo));
        assert_eq!(e.backend(), ScoreBackend::F64);
        assert_eq!(score(&e, rows(0.75, 1)), Ok(vec![0.75]));
        // A quantizable swap target upgrades the slot in place.
        e.swap_model(Box::new(ConstantModel(0.5)))
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(e.backend(), ScoreBackend::Quantized);
        assert_eq!(score(&e, rows(0.1, 1)), Ok(vec![0.5]));
    }

    #[test]
    fn swap_failure_keeps_old_model_serving() {
        let cfg = EngineConfig::builder()
            .backend(ScoreBackend::Quantized)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        let e = ScoringEngine::start(Box::new(ConstantModel(0.3)), 2, cfg)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(
            e.swap_model(Box::new(Echo)),
            Err(ServeError::Unquantizable(_))
        ));
        assert_eq!(e.stats().model_swaps, 0);
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.3]));
    }

    #[test]
    fn a_missed_deadline_is_typed_and_the_result_discarded() {
        let e = engine(Box::new(SlowEcho));
        // SlowEcho takes 40ms per block; a 2ms deadline must miss.
        let p = e
            .submit(rows(0.0, 1), Instant::now() + Duration::from_millis(2))
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(p.wait(), Err(ServeError::DeadlineExceeded));
        // The engine is not poisoned: a generous deadline succeeds.
        assert_eq!(score(&e, rows(0.5, 1)), Ok(vec![0.5]));
    }

    #[test]
    fn concurrent_submitters_never_hang() {
        // Submitters race each other and the final drop; every accepted
        // job must resolve with its scores, never block forever.
        for _ in 0..20 {
            let e = Arc::new(engine(Box::new(ConstantModel(0.5))));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let eng = Arc::clone(&e);
                handles.push(std::thread::spawn(move || {
                    let mut outcomes = Vec::new();
                    for _ in 0..50 {
                        match eng.submit(rows(0.0, 3), later()) {
                            Ok(p) => outcomes.push(p),
                            Err(ServeError::QueueFull { .. }) => continue,
                            Err(other) => panic!("{other}"),
                        }
                    }
                    for p in outcomes {
                        assert_eq!(p.wait(), Ok(vec![0.5; 3]));
                    }
                }));
            }
            drop(e); // submitters hold their own Arcs; last one drops the engine
            for h in handles {
                h.join().unwrap_or_else(|_| panic!("submitter panicked"));
            }
        }
    }

    /// Model claiming an exact 5-feature width, for install-gate tests.
    struct Wide;
    impl Model for Wide {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            vec![0.5; x.rows()]
        }
        fn feature_bound(&self) -> spe_learners::FeatureBound {
            spe_learners::FeatureBound::Exact(5)
        }
    }

    #[test]
    fn width_mismatched_model_rejected_at_start_and_swap() {
        assert!(matches!(
            ScoringEngine::start(Box::new(Wide), 2, EngineConfig::default()).map(|_| ()),
            Err(ServeError::ModelWidthMismatch { expected: 2, .. })
        ));
        let e = engine(Box::new(ConstantModel(0.5)));
        assert!(matches!(
            e.swap_model(Box::new(Wide)),
            Err(ServeError::ModelWidthMismatch { expected: 2, .. })
        ));
        // The rejected swap left the old model serving.
        assert_eq!(e.stats().model_swaps, 0);
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.5]));
    }

    fn tri_class() -> Box<dyn Model> {
        Box::new(spe_learners::OneVsRestModel::new(vec![
            Box::new(ConstantModel(0.2)),
            Box::new(ConstantModel(0.3)),
            Box::new(ConstantModel(0.5)),
        ]))
    }

    #[test]
    fn class_mismatched_swap_rejected() {
        let e = engine(Box::new(ConstantModel(0.5)));
        assert_eq!(e.n_classes(), 2);
        assert!(matches!(
            e.swap_model(tri_class()),
            Err(ServeError::ModelClassMismatch {
                expected: 2,
                got: 3
            })
        ));
        assert_eq!(e.stats().model_swaps, 0);
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.5]));
    }

    #[test]
    fn k_wide_engine_scores_distributions_on_both_paths() {
        let e = ScoringEngine::start(tri_class(), 2, EngineConfig::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(e.n_classes(), 3);
        assert_eq!(e.scores_per_row(), 3);
        let want = vec![0.2, 0.3, 0.5, 0.2, 0.3, 0.5];
        let x = Matrix::zeros(2, 2);
        assert_eq!(e.score_matrix(&x), Ok(want.clone()));
        assert_eq!(score(&e, x.clone()), Ok(want));
        // A same-k swap is accepted.
        e.swap_model(tri_class())
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(e.stats().model_swaps, 1);
        // The buffer must hold rows * k slots.
        let mut short = vec![0.0; 4];
        assert!(matches!(
            e.score_into(x.view(), &mut short),
            Err(ServeError::OutputLengthMismatch {
                expected: 6,
                got: 4
            })
        ));
        // Binary engines keep one score per row.
        assert_eq!(engine(Box::new(ConstantModel(0.25))).scores_per_row(), 1);
    }

    /// Model that panics while scoring — the block must resolve to
    /// `Corrupt` errors instead of hanging every waiter.
    struct Panicky;
    impl Model for Panicky {
        fn predict_proba_view(&self, _x: MatrixView<'_>) -> Vec<f64> {
            panic!("boom");
        }
    }

    #[test]
    fn panicking_model_fails_the_batch_not_the_engine() {
        let e = engine(Box::new(Panicky));
        assert!(matches!(
            score(&e, rows(0.0, 1)),
            Err(ServeError::Corrupt(_))
        ));
        // Scheduler survived; a healthy swap restores service.
        e.swap_model(Box::new(ConstantModel(0.6)))
            .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(score(&e, rows(0.0, 1)), Ok(vec![0.6]));
    }
}
