//! Model persistence and batched inference for trained SPE models.
//!
//! Training (`spe-core`) produces a model; this crate gets it to
//! production and back:
//!
//! - [`envelope`] — a versioned, checksummed on-disk format around the
//!   [`ModelSnapshot`](spe_learners::ModelSnapshot) taken from any
//!   built-in model. Saves are atomic (temp file + rename); loads
//!   verify the checksum *before* decoding and report corruption,
//!   truncation, version skew and kind mismatches as distinct
//!   [`ServeError`] variants.
//! - [`engine`] — a request-batching [`ScoringEngine`]: callers submit
//!   each request as one job of whole rows; a scheduler thread scores a
//!   job at once when idle, packs queued jobs into one block only while
//!   a backlog exists, and splits large blocks across the shared
//!   `spe-runtime` pool. The served model sits behind a hot-swap
//!   registry slot so retrained models roll out with zero downtime.
//! - [`quantize`] — a u8-quantized tree kernel. Tree-shaped snapshots
//!   (DT, GBDT, SPE, soft-vote) compile into flat node arrays whose
//!   split thresholds are bin codes against a serving-side cut grid;
//!   each batch is encoded to u8 once and traversed batch-major. The
//!   engine picks it automatically ([`ScoreBackend::Auto`]) and the
//!   scores are bit-identical to the f64 path.
//!
//! ```no_run
//! use spe_serve::{save_model, load_spe, EngineConfig, ScoreBackend, ScoringEngine};
//! # fn demo(model: &dyn spe_learners::Model) -> Result<(), spe_serve::ServeError> {
//! let path = std::path::Path::new("fraud.spe");
//! save_model(path, model, vec![("trained_on".into(), "2026-08".into())])?;
//! let loaded = load_spe(path)?;
//! let config = EngineConfig::builder()
//!     .max_batch(256)
//!     .backend(ScoreBackend::Auto)
//!     .build()?;
//! let engine = ScoringEngine::start(Box::new(loaded), 30, config)?;
//! let rows = spe_data::Matrix::zeros(4, 30);
//! let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
//! let scores = engine.submit(rows, deadline)?.wait()?; // one score per row
//! # let _ = scores; Ok(())
//! # }
//! ```

pub mod engine;
pub mod envelope;
pub mod error;
pub mod quantize;

pub use engine::{
    EngineConfig, EngineConfigBuilder, PendingJob, ScoreBackend, ScoringEngine, ServeStats,
};
pub use envelope::{
    fnv1a, load_envelope, load_model, load_model_expecting, load_spe, save_model, save_snapshot,
    ModelEnvelope, FORMAT_VERSION, MAGIC,
};
pub use error::ServeError;
pub use quantize::QuantizedModel;

#[cfg(test)]
mod tests {
    use super::*;
    use spe_core::SelfPacedEnsembleConfig;
    use spe_data::Dataset;
    use spe_datasets::credit_fraud_sim;
    use spe_learners::{DecisionTreeConfig, Learner, Model};
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spe-serve-test-{}-{name}", std::process::id()));
        p
    }

    fn small_fraud() -> Dataset {
        credit_fraud_sim(2000, 7)
    }

    #[test]
    fn spe_round_trip_is_bit_identical() {
        let data = small_fraud();
        let model = SelfPacedEnsembleConfig::default().fit_dataset(&data, 42);
        let path = tmp_path("spe-roundtrip.spe");
        save_model(&path, &model, vec![("rows".into(), data.len().to_string())])
            .unwrap_or_else(|e| panic!("{e}"));
        let loaded = load_spe(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(loaded.len(), model.len());
        assert_eq!(loaded.alphas(), model.alphas());
        assert_eq!(
            loaded.predict_proba(data.x()),
            model.predict_proba(data.x())
        );
        let env = load_envelope(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(env.model_kind, "SPE");
        assert_eq!(env.metadata[0].0, "rows");
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn kind_gate_rejects_other_models() {
        let data = small_fraud();
        let tree = DecisionTreeConfig::with_depth(3).fit(data.x(), data.y(), 1);
        let path = tmp_path("kind-gate.spe");
        save_model(&path, tree.as_ref(), Vec::new()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            load_spe(&path).map(|_| ()),
            Err(ServeError::KindMismatch {
                expected: "SPE".into(),
                found: "DT".into()
            })
        );
        assert!(load_model_expecting(&path, "DT").is_ok());
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn engine_serves_a_loaded_model() {
        let data = small_fraud();
        let model = SelfPacedEnsembleConfig::default().fit_dataset(&data, 3);
        let path = tmp_path("engine.spe");
        save_model(&path, &model, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
        let loaded = load_model(&path).unwrap_or_else(|e| panic!("{e}"));
        let engine = ScoringEngine::start(loaded, data.x().cols(), EngineConfig::default())
            .unwrap_or_else(|e| panic!("{e}"));
        // A loaded SPE is tree-shaped, so `Auto` must select the
        // quantized backend — and still agree bit-for-bit with the
        // model's own f64 path.
        assert_eq!(engine.backend(), ScoreBackend::Quantized);
        let want = model.predict_proba(data.x());
        // Batched direct path.
        let got = engine
            .score_matrix(data.x())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(got, want);
        // Queued jobs agree too, one row or sixteen at a time.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let pending: Vec<_> = (0..16)
            .map(|i| {
                engine
                    .submit(data.x().row_range(i..i + 1), deadline)
                    .unwrap_or_else(|e| panic!("{e}"))
            })
            .chain(std::iter::once(
                engine
                    .submit(data.x().row_range(0..16), deadline)
                    .unwrap_or_else(|e| panic!("{e}")),
            ))
            .collect();
        let got: Vec<f64> = pending
            .into_iter()
            .flat_map(|p| p.wait().unwrap_or_else(|e| panic!("{e}")))
            .collect();
        assert_eq!(got[..16], want[..16]);
        assert_eq!(got[16..], want[..16]);
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }
}
