//! From-scratch base classifiers for the self-paced-ensemble workspace.
//!
//! The paper evaluates SPE and its baselines on eight canonical
//! classifiers (§VI-A1): KNN, Decision Tree (C4.5-style), SVM, MLP,
//! AdaBoost, Bagging, Random Forest and GBDT, plus Logistic Regression in
//! Table V. None of those exist as mature Rust crates, so this crate
//! reimplements each one behind a common [`Learner`] / [`Model`] trait
//! pair. Every learner:
//!
//! - accepts optional per-sample weights (required by the boosting-based
//!   ensemble baselines),
//! - takes an explicit seed so experiments are reproducible,
//! - outputs a calibrated-ish probability of the positive class, which is
//!   what both the hardness function of SPE and the AUCPRC metric consume.
//!
//! Substitutions relative to the paper's Python stack are documented in
//! `DESIGN.md` (notably: the RBF-kernel SVM is approximated with random
//! Fourier features + linear Pegasos, and LightGBM's GBDT is an exact
//! greedy GBDT with logistic loss).

pub mod adaboost;
pub mod bagging;
pub mod binspace;
pub mod ensemble;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod forest;
pub mod gbdt;
mod grow;
mod histogram;
pub mod knn;
pub mod logistic;
pub mod mlp;
pub mod multiclass;
pub mod neighbors;
pub mod persist;
pub mod regtree;
pub mod svm;
pub mod traits;
pub mod tree;
mod tree_util;

pub use adaboost::AdaBoostConfig;
pub use bagging::BaggingConfig;
pub use binspace::{BinForest, BinScorer, CodeView, CompileError};
pub use ensemble::{fit_parallel, SoftVoteEnsemble};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, FaultyLearner, NanModel};
pub use forest::RandomForestConfig;
pub use gbdt::{GbdtConfig, GbdtModel};
pub use knn::{KnnConfig, KnnModel};
pub use logistic::sigmoid;
pub use logistic::{LogisticModel, LogisticRegressionConfig};
pub use mlp::MlpConfig;
pub use multiclass::OneVsRestModel;
pub use persist::ModelSnapshot;
pub use regtree::RegTree;
pub use svm::{SvmConfig, SvmModel};
pub use traits::{
    BinRequest, BinnedLearner, BinnedProblem, FeatureBound, Learner, Model, SharedLearner,
};
pub use tree::{DecisionTreeConfig, NodeView, SplitCriterion, SplitMethod, TreeModel};
