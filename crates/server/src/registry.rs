//! Named multi-model registry with per-model fault isolation.
//!
//! Each registered model owns a full serving stack — its own
//! [`ScoringEngine`] (queue + scheduler thread), [`CircuitBreaker`],
//! [`Admission`] gate, optional [`ShadowScorer`] and counters — so one
//! wedged model saturates *its* queue and trips *its* breaker while
//! every other model keeps serving. The registry itself is a name →
//! entry map behind an `RwLock`; the scoring hot path takes one read
//! lock to clone an `Arc` and never holds it across a wait.
//!
//! Models arrive from SPEM envelope files ([`ModelRegistry::register_file`]),
//! which means every install is already validated: checksum verified
//! before decoding, format version gated, and the engine's width gate
//! rejects a model whose [feature bound](spe_learners::FeatureBound)
//! cannot score the registry's row width. The source path is kept so
//! the entry can *self-heal*: when the breaker trips, a background
//! thread reloads the (still-validated) file and hot-swaps it in, and
//! the breaker's half-open probe confirms recovery before traffic
//! resumes.

use crate::admission::{retry_after_ms, Admission};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::shadow::{DivergenceStats, ShadowScorer};
use parking_lot::{Mutex, RwLock};
use spe_data::{Matrix, MatrixView};
use spe_learners::Model;
use spe_online::{LiveModel, OnlineConfig, OnlineStatus, RetrainLoop};
use spe_serve::{load_model, save_model, EngineConfig, ScoringEngine, ServeError, ServeStats};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Registry-wide serving configuration; every entry gets its own
/// engine/breaker/gate built from these.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Row width every served model must admit.
    pub n_features: usize,
    /// Engine tuning applied to each model's `ScoringEngine`.
    pub engine: EngineConfig,
    /// Breaker tuning applied to each model's `CircuitBreaker`.
    pub breaker: BreakerConfig,
    /// Fraction of the queue capacity where admission starts shedding.
    pub watermark_fraction: f64,
    /// Bound on each model's shadow mirror queue.
    pub shadow_capacity: usize,
}

impl RegistryConfig {
    /// Defaults for `n_features`-wide rows: stock engine, stock
    /// breaker, shed at 90% of the queue, shadow queue of 256 rows.
    pub fn new(n_features: usize) -> Self {
        Self {
            n_features,
            engine: EngineConfig::default(),
            breaker: BreakerConfig::default(),
            watermark_fraction: 0.9,
            shadow_capacity: 256,
        }
    }
}

/// Point-in-time view of one entry, for the metrics endpoint.
#[derive(Clone, Debug)]
pub struct EntrySnapshot {
    /// Registered name.
    pub name: String,
    /// Breaker state label (`closed` / `open` / `half-open`).
    pub breaker_state: &'static str,
    /// Times this model's circuit has opened.
    pub breaker_trips: u64,
    /// Rows scored successfully.
    pub scored: u64,
    /// Requests shed by admission control (both gate and engine layer).
    pub shed: u64,
    /// Requests that missed their deadline.
    pub deadline_misses: u64,
    /// Requests that failed inside scoring (panic, shutdown race).
    pub scoring_failures: u64,
    /// Completed self-heal reloads.
    pub heals: u64,
    /// Rows waiting in this model's queue right now.
    pub queue_depth: usize,
    /// Classes the served model scores (2 = binary).
    pub n_classes: usize,
    /// The engine's own counters (batches, latency percentiles, swaps).
    pub engine: ServeStats,
    /// Divergence stats when a shadow candidate is attached.
    pub shadow: Option<DivergenceStats>,
    /// Online retrain-loop counters when the policy is enabled.
    pub online: Option<OnlineStatus>,
}

/// One served model: engine, breaker, gate, counters, optional shadow.
pub struct ModelEntry {
    name: String,
    engine: ScoringEngine,
    breaker: CircuitBreaker,
    admission: Admission,
    /// SPEM file this model was loaded from; `None` for models
    /// installed directly (no self-heal possible for those).
    source: Mutex<Option<PathBuf>>,
    shadow: Mutex<Option<ShadowScorer>>,
    /// Drift-aware background retrain loop, when the operator opted in.
    online: Mutex<Option<RetrainLoop>>,
    healing: AtomicBool,
    scored: AtomicU64,
    deadline_misses: AtomicU64,
    scoring_failures: AtomicU64,
    heals: AtomicU64,
}

impl ModelEntry {
    fn start(
        name: &str,
        model: Box<dyn Model>,
        source: Option<PathBuf>,
        config: &RegistryConfig,
    ) -> Result<Self, ServeError> {
        let engine = ScoringEngine::start(model, config.n_features, config.engine.clone())?;
        let admission = Admission::new(engine.queue_capacity(), config.watermark_fraction);
        Ok(Self {
            name: name.to_string(),
            engine,
            breaker: CircuitBreaker::new(config.breaker),
            admission,
            source: Mutex::new(source),
            shadow: Mutex::new(None),
            online: Mutex::new(None),
            healing: AtomicBool::new(false),
            scored: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            scoring_failures: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        })
    }

    /// Scores one request, a block of whole rows, under a request-wide
    /// deadline; the one path every class width takes. Returns
    /// [`scores_per_row`](ScoringEngine::scores_per_row) values per row.
    ///
    /// The full gauntlet, in order: breaker gate, admission watermark,
    /// one engine job, a deadline-bounded wait. On success the rows are
    /// mirrored to the shadow candidate (if any). Deadline misses and
    /// scoring failures feed the breaker; shed load and client errors
    /// (bad row width) do not.
    pub fn score_request(
        self: &Arc<Self>,
        x: Matrix,
        timeout: Duration,
    ) -> Result<Vec<f64>, ServeError> {
        self.breaker.admit()?;
        let outcome = self.score_admitted(x, timeout);
        match &outcome {
            Ok(_) => {
                self.breaker.record(true);
            }
            Err(e) => match e {
                ServeError::DeadlineExceeded => {
                    self.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    self.note_failure();
                }
                ServeError::Corrupt(_) | ServeError::Shutdown | ServeError::EngineStopped => {
                    self.scoring_failures.fetch_add(1, Ordering::Relaxed);
                    self.note_failure();
                }
                // Shed load and client errors are not model health
                // signals — but the admitted breaker probe must still
                // resolve, as a success (the model itself is fine).
                _ => {
                    self.breaker.record(true);
                }
            },
        }
        outcome
    }

    /// [`score_request`](Self::score_request) over rows held one `Vec`
    /// each: a flattening adapter for in-process callers.
    pub fn score(
        self: &Arc<Self>,
        rows: &[Vec<f64>],
        timeout: Duration,
    ) -> Result<Vec<f64>, ServeError> {
        let width = self.engine.n_features();
        if let Some(row) = rows.iter().find(|row| row.len() != width) {
            return Err(ServeError::RowWidthMismatch {
                expected: width,
                got: row.len(),
            });
        }
        self.score_request(Matrix::from_vec(rows.len(), width, rows.concat()), timeout)
    }

    fn score_admitted(&self, x: Matrix, timeout: Duration) -> Result<Vec<f64>, ServeError> {
        let rows = x.rows();
        self.admission.check(self.engine.queue_depth(), rows)?;
        let deadline = Instant::now() + timeout;
        // The job owns its rows; keep a copy only for a shadow to see,
        // made outside the shadow lock so concurrent requests never
        // queue behind one another's copies.
        let shadowed = self.shadow.lock().is_some();
        let mirror = shadowed.then(|| x.clone());
        let scores = match self.engine.submit(x, deadline) {
            Ok(job) => job.wait()?,
            Err(e) => {
                if matches!(e, ServeError::QueueFull { .. }) {
                    // Raced past the watermark; counts as shed.
                    self.admission.note_shed();
                }
                return Err(e);
            }
        };
        if let (Some(x), Some(shadow)) = (mirror, self.shadow.lock().as_ref()) {
            let width = self.engine.scores_per_row();
            for (row, live) in x.iter_rows().zip(scores.chunks_exact(width)) {
                // A k-wide row mirrors its scalar view 1 − p₀, the value
                // a k-class candidate's `predict_proba_view` gives.
                shadow.offer(row, if width == 1 { live[0] } else { 1.0 - live[0] });
            }
        }
        self.scored.fetch_add(rows as u64, Ordering::Relaxed);
        Ok(scores)
    }

    /// Feeds a failure to the breaker; a trip kicks off self-healing.
    fn note_failure(self: &Arc<Self>) {
        if self.breaker.record(false) {
            self.self_heal();
        }
    }

    /// Reloads this entry's source SPEM file on a background thread and
    /// hot-swaps the result in. The breaker stays open while this runs
    /// — its half-open probe is what confirms the reload actually
    /// restored service. No source file (directly-installed model) or a
    /// heal already in flight: no-op.
    fn self_heal(self: &Arc<Self>) {
        let Some(path) = self.source.lock().clone() else {
            return;
        };
        if self.healing.swap(true, Ordering::AcqRel) {
            return;
        }
        let entry = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("spe-heal-{}", self.name))
            .spawn(move || {
                if load_model(&path)
                    .and_then(|m| entry.engine.swap_model(m))
                    .is_ok()
                {
                    entry.heals.fetch_add(1, Ordering::Relaxed);
                }
                // On failure the breaker stays open and the next trip
                // retries; the (validated) old model keeps its slot.
                entry.healing.store(false, Ordering::Release);
            });
        if spawned.is_err() {
            self.healing.store(false, Ordering::Release);
        }
    }

    /// Attaches a shadow candidate loaded from `path`, replacing any
    /// previous candidate.
    pub fn start_shadow(&self, path: &Path, capacity: usize) -> Result<(), ServeError> {
        let model = load_model(path)?;
        // Vet the class width up front: a mismatched candidate could
        // shadow-score (comparisons are scalar) but never promote, so
        // fail at attach time instead of surprising the operator later.
        if model.n_classes() != self.engine.n_classes() {
            return Err(ServeError::ModelClassMismatch {
                expected: self.engine.n_classes(),
                got: model.n_classes(),
            });
        }
        let shadow = ShadowScorer::start(
            model,
            self.engine.n_features(),
            path.to_path_buf(),
            capacity,
        )?;
        *self.shadow.lock() = Some(shadow);
        Ok(())
    }

    /// The shadow candidate's divergence stats, if one is attached.
    pub fn shadow_stats(&self) -> Option<DivergenceStats> {
        self.shadow.lock().as_ref().map(ShadowScorer::stats)
    }

    /// Promotes the shadow candidate: its source file is reloaded onto
    /// the live engine (zero downtime, same validation as any swap) and
    /// becomes the new self-heal source. Fails with
    /// [`ServeError::UnknownModel`] when no candidate is attached; on a
    /// failed swap the candidate stays attached and the live model
    /// keeps serving.
    pub fn promote_shadow(&self) -> Result<(), ServeError> {
        let mut shadow = self.shadow.lock();
        let candidate = shadow
            .as_ref()
            .ok_or_else(|| ServeError::UnknownModel(format!("{}/shadow", self.name)))?;
        let path = candidate.source().to_path_buf();
        let model = load_model(&path)?;
        self.engine.swap_model(model)?;
        *self.source.lock() = Some(path);
        *shadow = None;
        Ok(())
    }

    /// Swaps in a model loaded from `path` with zero downtime; the file
    /// becomes the new self-heal source. Validation failures (corrupt
    /// file, width mismatch) leave the old model serving.
    pub fn swap_from_file(&self, path: &Path) -> Result<(), ServeError> {
        let model = load_model(path)?;
        self.engine.swap_model(model)?;
        *self.source.lock() = Some(path.to_path_buf());
        Ok(())
    }

    /// Enables the drift-aware online retrain policy for this model.
    ///
    /// Spawns a [`RetrainLoop`] whose host scores through this entry's
    /// engine (direct path — retrain traffic never competes with user
    /// requests for queue slots) and promotes improved candidates via
    /// [`install_candidate`](Self::install_candidate). Binary models
    /// only — the window/detector speak 0/1 labels.
    pub fn enable_online(self: &Arc<Self>, cfg: OnlineConfig) -> Result<(), ServeError> {
        if self.engine.n_classes() != 2 {
            return Err(ServeError::ModelClassMismatch {
                expected: 2,
                got: self.engine.n_classes(),
            });
        }
        let mut slot = self.online.lock();
        if slot.is_some() {
            return Err(ServeError::InvalidConfig(format!(
                "online retraining already enabled for '{}'",
                self.name
            )));
        }
        // Weak host: dropping the entry (DELETE /models/<name>) must not
        // be kept alive by its own background loop.
        let host: Arc<dyn LiveModel> = Arc::new(EntryHost {
            entry: Arc::downgrade(self),
        });
        *slot = Some(RetrainLoop::start(host, self.engine.n_features(), cfg)?);
        Ok(())
    }

    /// Disables the online policy, joining its worker thread.
    pub fn disable_online(&self) -> Result<(), ServeError> {
        self.online
            .lock()
            .take()
            .map(drop)
            .ok_or_else(|| ServeError::UnknownModel(format!("{}/online", self.name)))
    }

    /// The retrain loop's counters, when the policy is enabled.
    pub fn online_status(&self) -> Option<OnlineStatus> {
        self.online.lock().as_ref().map(RetrainLoop::status)
    }

    /// Routes labeled feedback rows into the retrain loop's windows.
    pub fn ingest_feedback(&self, x: Matrix, y: Vec<u8>) -> Result<(), ServeError> {
        self.online
            .lock()
            .as_ref()
            .ok_or_else(|| ServeError::UnknownModel(format!("{}/online", self.name)))?
            .ingest(x, y)
    }

    /// Installs a promoted retrain candidate with zero downtime.
    ///
    /// When the entry has a self-heal source file, the candidate is
    /// first persisted to a sibling SPEM (`<stem>.online.spe`) and
    /// swapped in *from that file*, so a later breaker trip heals to
    /// the promoted model instead of resurrecting the pre-promotion
    /// one. If persisting fails, the candidate is swapped in directly
    /// and the stale source is dropped — losing self-heal is safer
    /// than healing backwards.
    fn install_candidate(&self, model: Box<dyn Model>) -> Result<(), ServeError> {
        let source = self.source.lock().clone();
        let Some(path) = source else {
            return self.engine.swap_model(model);
        };
        let promoted = path.with_extension("online.spe");
        let meta = vec![("promoted-by".to_string(), "spe-online".to_string())];
        if save_model(&promoted, model.as_ref(), meta).is_ok() {
            return self.swap_from_file(&promoted);
        }
        self.engine.swap_model(model)?;
        *self.source.lock() = None;
        Ok(())
    }

    /// `Retry-After` hint for a shed response, from this engine's own
    /// latency estimate and backlog.
    pub fn retry_hint_ms(&self) -> u64 {
        retry_after_ms(
            self.engine.stats().p50_batch_latency_us,
            self.engine.queue_depth(),
            self.engine.max_batch(),
        )
    }

    /// This entry's serving engine.
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// Counters + breaker state for metrics.
    pub fn snapshot(&self) -> EntrySnapshot {
        EntrySnapshot {
            name: self.name.clone(),
            breaker_state: self.breaker.state_name(),
            breaker_trips: self.breaker.trips(),
            scored: self.scored.load(Ordering::Relaxed),
            shed: self.admission.shed_count(),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            scoring_failures: self.scoring_failures.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            queue_depth: self.engine.queue_depth(),
            n_classes: self.engine.n_classes(),
            engine: self.engine.stats(),
            shadow: self.shadow_stats(),
            online: self.online_status(),
        }
    }
}

/// [`LiveModel`] bridge from the retrain loop back to its entry.
///
/// Holds a `Weak` reference so the loop never keeps a removed entry
/// alive; once the entry is gone both hooks fail with
/// [`ServeError::EngineStopped`] and the loop counts the retrain as
/// failed instead of crashing.
struct EntryHost {
    entry: Weak<ModelEntry>,
}

impl EntryHost {
    fn entry(&self) -> Result<Arc<ModelEntry>, ServeError> {
        self.entry.upgrade().ok_or(ServeError::EngineStopped)
    }
}

impl LiveModel for EntryHost {
    /// Scores via the engine's synchronous direct path, bypassing the
    /// admission gate and breaker: background retrain traffic must
    /// neither shed user requests nor register as model-health signal.
    fn score_rows(&self, x: MatrixView<'_>) -> Result<Vec<f64>, ServeError> {
        let entry = self.entry()?;
        let mut out = vec![0.0; x.rows()];
        entry.engine.score_into(x, &mut out)?;
        Ok(out)
    }

    fn install(&self, model: Box<dyn Model>) -> Result<(), ServeError> {
        self.entry()?.install_candidate(model)
    }
}

/// Name → entry map; the serving surface the HTTP layer talks to.
pub struct ModelRegistry {
    config: RegistryConfig,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl ModelRegistry {
    /// An empty registry serving rows of `config.n_features`.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            config,
            models: RwLock::new(HashMap::new()),
        }
    }

    /// Registers (or redeploys) `name` from a SPEM envelope file. The
    /// load validates checksum/version/kind structure; the engine start
    /// validates the feature bound. An existing entry under `name` is
    /// replaced wholesale (fresh breaker and counters) — use
    /// [`swap`](ModelRegistry::swap) for a zero-downtime model update
    /// that keeps serving state.
    pub fn register_file(&self, name: &str, path: &Path) -> Result<(), ServeError> {
        let model = load_model(path)?;
        let entry = ModelEntry::start(name, model, Some(path.to_path_buf()), &self.config)?;
        self.models
            .write()
            .insert(name.to_string(), Arc::new(entry));
        Ok(())
    }

    /// Registers an in-process model (tests, benches). No source file,
    /// so the entry cannot self-heal.
    pub fn register_model(&self, name: &str, model: Box<dyn Model>) -> Result<(), ServeError> {
        let entry = ModelEntry::start(name, model, None, &self.config)?;
        self.models
            .write()
            .insert(name.to_string(), Arc::new(entry));
        Ok(())
    }

    /// Hot-swaps `name` to the model in `path`, keeping its queue,
    /// breaker and counters.
    pub fn swap(&self, name: &str, path: &Path) -> Result<(), ServeError> {
        self.get(name)?.swap_from_file(path)
    }

    /// Removes `name`, draining its engine (queued rows still score).
    pub fn remove(&self, name: &str) -> Result<(), ServeError> {
        self.models
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// The entry serving `name`.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, ServeError> {
        self.models
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Registered names, sorted (stable metrics output).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.models.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshots of every entry, sorted by name.
    pub fn snapshots(&self) -> Vec<EntrySnapshot> {
        let entries: Vec<Arc<ModelEntry>> = self.models.read().values().cloned().collect();
        let mut snaps: Vec<EntrySnapshot> = entries.iter().map(|e| e.snapshot()).collect();
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        snaps
    }

    /// Row width this registry serves.
    pub fn n_features(&self) -> usize {
        self.config.n_features
    }

    /// The shadow queue bound entries are started with.
    pub fn shadow_capacity(&self) -> usize {
        self.config.shadow_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::MatrixView;
    use spe_learners::traits::ConstantModel;
    use spe_serve::save_model;

    fn tight_config() -> RegistryConfig {
        let mut config = RegistryConfig::new(2);
        config.engine = EngineConfig::builder()
            .max_batch(4)
            .queue_capacity(8)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        config.breaker = BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(50),
        };
        config.watermark_fraction = 0.75;
        config
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        vec![vec![0.0, 0.0]; n]
    }

    #[test]
    fn score_routes_by_name_and_unknown_is_typed() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("a", Box::new(ConstantModel(0.2)))
            .unwrap_or_else(|e| panic!("{e}"));
        reg.register_model("b", Box::new(ConstantModel(0.7)))
            .unwrap_or_else(|e| panic!("{e}"));
        let a = reg.get("a").unwrap_or_else(|e| panic!("{e}"));
        let b = reg.get("b").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.score(&rows(3), Duration::from_secs(5)), Ok(vec![0.2; 3]));
        assert_eq!(b.score(&rows(1), Duration::from_secs(5)), Ok(vec![0.7]));
        assert_eq!(
            reg.get("c").map(|_| ()),
            Err(ServeError::UnknownModel("c".into()))
        );
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        let snaps = reg.snapshots();
        assert_eq!(snaps[0].scored, 3);
        assert_eq!(snaps[1].scored, 1);
    }

    #[test]
    fn oversized_request_sheds_at_the_watermark() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("m", Box::new(ConstantModel(0.5)))
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("m").unwrap_or_else(|e| panic!("{e}"));
        // Watermark = 6 of 8; a 7-row request sheds without enqueueing.
        assert_eq!(
            m.score(&rows(7), Duration::from_secs(5)),
            Err(ServeError::QueueFull { capacity: 8 })
        );
        let snap = m.snapshot();
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.engine.requests, 0, "no row crossed the gate");
        // Shedding is not a model-health failure.
        assert_eq!(snap.breaker_state, "closed");
        // The model still serves.
        assert!(m.score(&rows(2), Duration::from_secs(5)).is_ok());
    }

    /// A model wedged hard enough that every deadline misses.
    struct Wedged;
    impl Model for Wedged {
        fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
            std::thread::sleep(Duration::from_millis(30));
            vec![0.5; x.rows()]
        }
    }

    #[test]
    fn wedged_model_trips_its_breaker_and_isolates() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("wedged", Box::new(Wedged))
            .unwrap_or_else(|e| panic!("{e}"));
        reg.register_model("healthy", Box::new(ConstantModel(0.4)))
            .unwrap_or_else(|e| panic!("{e}"));
        let wedged = reg.get("wedged").unwrap_or_else(|e| panic!("{e}"));
        let healthy = reg.get("healthy").unwrap_or_else(|e| panic!("{e}"));
        // Two consecutive deadline misses trip the threshold-2 breaker.
        for _ in 0..2 {
            assert_eq!(
                wedged.score(&rows(1), Duration::from_millis(1)),
                Err(ServeError::DeadlineExceeded)
            );
        }
        assert!(matches!(
            wedged.score(&rows(1), Duration::from_secs(5)),
            Err(ServeError::CircuitOpen { .. })
        ));
        let snap = wedged.snapshot();
        assert_eq!(snap.deadline_misses, 2);
        assert_eq!(snap.breaker_trips, 1);
        // The other model never noticed.
        assert_eq!(
            healthy.score(&rows(1), Duration::from_secs(5)),
            Ok(vec![0.4])
        );
        assert_eq!(healthy.snapshot().breaker_state, "closed");
        // After the cooldown a generous-deadline probe restores service.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            wedged.score(&rows(1), Duration::from_secs(5)),
            Ok(vec![0.5])
        );
        assert_eq!(wedged.snapshot().breaker_state, "closed");
    }

    #[test]
    fn self_heal_reloads_the_source_file_on_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spe-server-heal-{}.spe", std::process::id()));
        save_model(&path, &ConstantModel(0.9), Vec::new()).unwrap_or_else(|e| panic!("{e}"));

        let reg = ModelRegistry::new(tight_config());
        reg.register_file("m", &path)
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("m").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.score(&rows(1), Duration::from_secs(5)), Ok(vec![0.9]));

        // Wedge the live slot via a direct swap (the file on disk stays
        // healthy), then trip the breaker with deadline misses.
        m.engine()
            .swap_model(Box::new(Wedged))
            .unwrap_or_else(|e| panic!("{e}"));
        for _ in 0..2 {
            assert_eq!(
                m.score(&rows(1), Duration::from_millis(1)),
                Err(ServeError::DeadlineExceeded)
            );
        }
        // The trip kicked off a background reload from `path`.
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.snapshot().heals == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m.snapshot().heals, 1, "self-heal never completed");
        // After the cooldown the probe lands on the healed model.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(m.score(&rows(1), Duration::from_secs(5)), Ok(vec![0.9]));
        assert_eq!(m.snapshot().breaker_state, "closed");
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn shadow_attach_compare_promote() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spe-server-shadow-{}.spe", std::process::id()));
        save_model(&path, &ConstantModel(0.8), Vec::new()).unwrap_or_else(|e| panic!("{e}"));

        let reg = ModelRegistry::new(tight_config());
        reg.register_model("m", Box::new(ConstantModel(0.3)))
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("m").unwrap_or_else(|e| panic!("{e}"));
        assert!(
            matches!(m.promote_shadow(), Err(ServeError::UnknownModel(_))),
            "promote without a candidate is typed"
        );
        m.start_shadow(&path, 64).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.score(&rows(4), Duration::from_secs(5)), Ok(vec![0.3; 4]));
        // The mirror is async; wait for the comparisons to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = m.shadow_stats().unwrap_or_default();
            if s.compared >= 4 || Instant::now() > deadline {
                assert_eq!(s.compared, 4);
                assert!((s.max_abs_diff - 0.5).abs() < 1e-12);
                assert_eq!(s.disagreements, 4);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Promote: live flips to the candidate file's 0.8 scores.
        m.promote_shadow().unwrap_or_else(|e| panic!("{e}"));
        assert!(m.shadow_stats().is_none(), "promotion detaches the shadow");
        assert_eq!(m.score(&rows(1), Duration::from_secs(5)), Ok(vec![0.8]));
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn register_file_rejects_garbage_and_keeps_registry_clean() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spe-server-garbage-{}.spe", std::process::id()));
        std::fs::write(&path, b"not a model").unwrap_or_else(|e| panic!("{e}"));
        let reg = ModelRegistry::new(tight_config());
        assert!(reg.register_file("bad", &path).is_err());
        assert!(reg.names().is_empty());
        assert!(matches!(
            reg.get("bad").map(|_| ()),
            Err(ServeError::UnknownModel(_))
        ));
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    fn tri_class() -> Box<dyn Model> {
        Box::new(spe_learners::OneVsRestModel::new(vec![
            Box::new(ConstantModel(0.2)),
            Box::new(ConstantModel(0.3)),
            Box::new(ConstantModel(0.5)),
        ]))
    }

    #[test]
    fn multiclass_entry_scores_distributions_and_gates_swaps() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spe-server-classgate-{}.spe", std::process::id()));
        save_model(&path, &ConstantModel(0.9), Vec::new()).unwrap_or_else(|e| panic!("{e}"));

        let reg = ModelRegistry::new(tight_config());
        reg.register_model("m", tri_class())
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("m").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.snapshot().n_classes, 3);
        assert_eq!(
            m.score(&rows(2), Duration::from_secs(5)),
            Ok(vec![0.2, 0.3, 0.5, 0.2, 0.3, 0.5])
        );
        assert_eq!(m.snapshot().scored, 2);
        // Row width is still vetted per row.
        assert_eq!(
            m.score(&[vec![0.0, 0.0], vec![0.0]], Duration::from_secs(5)),
            Err(ServeError::RowWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        // A binary artifact cannot replace a 3-class live model, and the
        // rejected swap leaves the live model untouched.
        assert_eq!(
            reg.swap("m", &path),
            Err(ServeError::ModelClassMismatch {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            m.score(&rows(1), Duration::from_secs(5)),
            Ok(vec![0.2, 0.3, 0.5])
        );
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn online_lifecycle_enable_ingest_status_disable() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("m", Box::new(ConstantModel(0.5)))
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("m").unwrap_or_else(|e| panic!("{e}"));
        assert!(m.online_status().is_none());
        assert!(m.snapshot().online.is_none());
        let feedback = || (Matrix::from_vec(2, 2, vec![0.0; 4]), vec![0, 1]);
        let (x, y) = feedback();
        assert!(matches!(
            m.ingest_feedback(x, y),
            Err(ServeError::UnknownModel(_))
        ));

        m.enable_online(OnlineConfig::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            matches!(
                m.enable_online(OnlineConfig::default()),
                Err(ServeError::InvalidConfig(_))
            ),
            "double enable is rejected"
        );
        let (x, y) = feedback();
        m.ingest_feedback(x, y).unwrap_or_else(|e| panic!("{e}"));
        let status = m.online_status().unwrap_or_else(|| panic!("status"));
        assert_eq!(status.ingested_rows, 2);
        assert!(m.snapshot().online.is_some());

        m.disable_online().unwrap_or_else(|e| panic!("{e}"));
        assert!(m.online_status().is_none());
        assert!(matches!(
            m.disable_online(),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn online_enable_gates_on_binary_models() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("tri", tri_class())
            .unwrap_or_else(|e| panic!("{e}"));
        let m = reg.get("tri").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            m.enable_online(OnlineConfig::default()).map(|_| ()),
            Err(ServeError::ModelClassMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn remove_unregisters() {
        let reg = ModelRegistry::new(tight_config());
        reg.register_model("m", Box::new(ConstantModel(0.5)))
            .unwrap_or_else(|e| panic!("{e}"));
        reg.remove("m").unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(reg.remove("m"), Err(ServeError::UnknownModel(_))));
        assert!(reg.names().is_empty());
    }
}
