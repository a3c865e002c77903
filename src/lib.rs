//! # Self-paced Ensemble (SPE) — Rust reproduction
//!
//! A complete, from-scratch Rust implementation of *"Self-paced Ensemble
//! for Highly Imbalanced Massive Data Classification"* (Liu et al.,
//! ICDE 2020), including every substrate the paper's evaluation needs:
//! nine base classifiers, fourteen re-sampling baselines, six imbalance
//! ensembles, imbalanced-classification metrics, and generators for all
//! evaluated datasets.
//!
//! ## Quick start
//!
//! ```
//! use spe::prelude::*;
//!
//! // A highly imbalanced synthetic task (IR = 10).
//! let data = checkerboard(&CheckerboardConfig::small(200, 2_000), 42);
//! let split = train_val_test_split(&data, 0.6, 0.2, 42);
//!
//! // Train SPE with 10 decision-tree members (paper defaults: k = 20
//! // bins, absolute-error hardness). Members train in parallel on the
//! // shared runtime; results are identical for every thread count.
//! let cfg = SelfPacedEnsembleConfig::builder()
//!     .n_estimators(10)
//!     .build()
//!     .expect("valid config");
//! let spe = cfg.try_fit_dataset(&split.train, 42).expect("two classes present");
//!
//! // Score with the paper's criteria. The random-ranking baseline on
//! // this task is the positive prevalence, ≈ 0.09; SPE lands far above
//! // it even at this toy scale (≈ 0.57 at the paper's full 11k scale).
//! let probs = spe.predict_proba(split.test.x());
//! let metrics = MetricSet::evaluate(split.test.y(), &probs);
//! assert!(metrics.aucprc > 0.2);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`runtime`] | shared deterministic thread pool, seed forking |
//! | [`data`] | matrices, datasets, splits, standardization, RNG |
//! | [`metrics`] | AUCPRC, F1, G-mean, MCC, PR/ROC curves |
//! | [`learners`] | KNN, CART, LR, SVM, MLP, AdaBoost, Bagging, RF, GBDT |
//! | [`sampling`] | RandUnder/Over, NearMiss, ENN, Tomek, AllKNN, OSS, NCR, SMOTE, ADASYN, hybrids |
//! | [`ensembles`] | Easy, Cascade, UnderBagging, SMOTEBagging, RUSBoost, SMOTEBoost |
//! | [`core`] | **SPE itself**: hardness, bins, self-paced sampler, ensemble, out-of-core fitting |
//! | [`datasets`] | checkerboard, overlap study, real-world simulators, drifting streams |
//! | [`serve`] | model persistence (save/load envelopes), batched scoring engine |
//! | [`online`] | sliding windows, drift detection, background retrain-and-promote loop |

pub use spe_core as core;
pub use spe_data as data;
pub use spe_datasets as datasets;
pub use spe_ensembles as ensembles;
pub use spe_learners as learners;
pub use spe_metrics as metrics;
pub use spe_online as online;
pub use spe_runtime as runtime;
pub use spe_sampling as sampling;
pub use spe_serve as serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use spe_core::{
        chunk_rows_for_budget, AlphaSchedule, BalancingSchedule, ChunkedFitOptions, FitReport,
        HardnessFn, MemberOutcome, MultiClassSpe, MultiClassSpeConfig, MultiClassStrategy,
        OocReport, SelfPacedEnsemble, SelfPacedEnsembleBuilder, SelfPacedEnsembleConfig,
        SelfPacedSampler,
    };
    pub use spe_data::{
        pack_source, stratified_k_fold, train_val_test_split, BinIndex, Chunk, ChunkedCsv,
        ChunkedSource, ClassIndex, Dataset, Matrix, MatrixView, QuantileSketch, SanitizePolicy,
        SanitizeReport, Sanitizer, SeededRng, ShardManifest, ShardReader, SpeError, Standardizer,
        StratifiedSplit,
    };
    pub use spe_datasets::{
        checkerboard, concept_dataset, credit_fraud_sim, geometric_counts, kddcup_sim,
        multiclass_checkerboard, multiclass_overlap, overlap_study, payment_sim,
        record_linkage_sim, CheckerboardConfig, DriftStreamConfig, DriftingStream, KddVariant,
        MultiClassCheckerboardConfig, MultiClassOverlapConfig, OverlapConfig, REAL_WORLD_SPECS,
    };
    pub use spe_ensembles::{
        BalanceCascade, EasyEnsemble, RusBoost, SmoteBagging, SmoteBoost, UnderBagging,
    };
    pub use spe_learners::{
        AdaBoostConfig, BaggingConfig, DecisionTreeConfig, GbdtConfig, KnnConfig, Learner,
        LogisticRegressionConfig, MlpConfig, Model, ModelSnapshot, OneVsRestModel,
        RandomForestConfig, SharedLearner, SplitMethod, SvmConfig,
    };
    pub use spe_metrics::{
        aucprc, ConfusionMatrix, MeanStd, MetricSet, MultiConfusion, RunAggregator,
    };
    pub use spe_online::{
        DriftConfig, DriftDetector, DriftEvent, DriftMetric, LiveModel, OnlineConfig, OnlineStatus,
        RetrainLoop, WindowAccumulator, WindowConfig,
    };
    pub use spe_runtime::{fork_seed, fork_seeds, Runtime, TrainingBudget};
    pub use spe_sampling::{
        Adasyn, AllKnn, BorderlineSmote, EditedNearestNeighbours, NearMiss, NearMissVersion,
        NeighbourhoodCleaningRule, NoResampling, OneSideSelection, RandomOverSampler,
        RandomUnderSampler, Sampler, Smote, SmoteEnn, SmoteTomek, TomekLinks,
    };
    pub use spe_serve::{
        load_envelope, load_model, load_model_expecting, load_spe, save_model, EngineConfig,
        EngineConfigBuilder, ModelEnvelope, PendingJob, QuantizedModel, ScoreBackend,
        ScoringEngine, ServeError, ServeStats,
    };
}
