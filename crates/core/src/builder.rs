//! Chainable, validating builder for [`SelfPacedEnsembleConfig`].
//!
//! Construction through the builder moves configuration mistakes from a
//! panic inside `fit` to an [`SpeError::InvalidConfig`] at `build()`:
//!
//! ```
//! use spe_core::SelfPacedEnsembleConfig;
//!
//! let cfg = SelfPacedEnsembleConfig::builder()
//!     .n_estimators(20)
//!     .k_bins(10)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(cfg.n_estimators, 20);
//! assert!(SelfPacedEnsembleConfig::builder().n_estimators(0).build().is_err());
//! ```

use crate::ensemble::SelfPacedEnsembleConfig;
use crate::hardness::HardnessFn;
use crate::sampler::AlphaSchedule;
use spe_data::{SanitizePolicy, SpeError};
use spe_learners::traits::SharedLearner;
use spe_runtime::{Runtime, TrainingBudget};

/// Builder returned by [`SelfPacedEnsembleConfig::builder`].
///
/// Every setter is chainable; unset fields keep the paper defaults
/// (10 estimators, 20 bins, absolute-error hardness, C4.5-style trees,
/// self-paced α schedule, environment-driven runtime).
#[derive(Clone, Debug, Default)]
pub struct SelfPacedEnsembleBuilder {
    cfg: SelfPacedEnsembleConfig,
}

impl SelfPacedEnsembleBuilder {
    /// Builder initialized with the paper defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of base classifiers `n` (must be positive at `build`).
    pub fn n_estimators(mut self, n: usize) -> Self {
        self.cfg.n_estimators = n;
        self
    }

    /// Number of hardness bins `k` (must be positive at `build`).
    pub fn k_bins(mut self, k: usize) -> Self {
        self.cfg.k_bins = k;
        self
    }

    /// Hardness function `H`.
    pub fn hardness(mut self, hardness: HardnessFn) -> Self {
        self.cfg.hardness = hardness;
        self
    }

    /// Base learner `f` trained on each `P ∪ N'`.
    pub fn base(mut self, base: SharedLearner) -> Self {
        self.cfg.base = base;
        self
    }

    /// Self-paced factor schedule (the non-default variants are the
    /// §VI-C ablations).
    pub fn alpha_schedule(mut self, schedule: AlphaSchedule) -> Self {
        self.cfg.alpha_schedule = schedule;
        self
    }

    /// Parallelism configuration installed around each fit.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.cfg.runtime = runtime;
        self
    }

    /// Non-finite-feature handling for the fallible fit entry points
    /// (default: reject with a typed error).
    pub fn sanitize(mut self, policy: SanitizePolicy) -> Self {
        self.cfg.sanitize = policy;
        self
    }

    /// Extra fit attempts granted to a faulty member before its slot is
    /// dropped (default 2).
    pub fn max_member_retries(mut self, retries: usize) -> Self {
        self.cfg.max_member_retries = retries;
        self
    }

    /// Minimum successfully-trained members required for the fit to
    /// return `Ok` (default 1; must not exceed `n_estimators` at
    /// `build`).
    pub fn min_members(mut self, min: usize) -> Self {
        self.cfg.min_members = min;
        self
    }

    /// Cooperative wall-clock budget installed around each fit
    /// (default: unlimited).
    pub fn budget(mut self, budget: TrainingBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    /// [`SpeError::InvalidConfig`] when `n_estimators` or `k_bins` is
    /// zero, or when `min_members` exceeds `n_estimators`.
    pub fn build(self) -> Result<SelfPacedEnsembleConfig, SpeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_learners::DecisionTreeConfig;
    use std::sync::Arc;

    #[test]
    fn defaults_match_config_default() {
        let built = SelfPacedEnsembleBuilder::new().build().unwrap();
        let default = SelfPacedEnsembleConfig::default();
        assert_eq!(built.n_estimators, default.n_estimators);
        assert_eq!(built.k_bins, default.k_bins);
        assert_eq!(built.base.name(), default.base.name());
        assert_eq!(built.runtime, default.runtime);
    }

    #[test]
    fn setters_chain() {
        let cfg = SelfPacedEnsembleConfig::builder()
            .n_estimators(7)
            .k_bins(5)
            .hardness(HardnessFn::SquaredError)
            .base(Arc::new(DecisionTreeConfig::with_depth(3)))
            .alpha_schedule(AlphaSchedule::Uniform)
            .runtime(Runtime::with_threads(2))
            .build()
            .unwrap();
        assert_eq!(cfg.n_estimators, 7);
        assert_eq!(cfg.k_bins, 5);
        assert_eq!(cfg.hardness, HardnessFn::SquaredError);
        assert_eq!(cfg.alpha_schedule, AlphaSchedule::Uniform);
        assert_eq!(cfg.runtime.num_threads(), Some(2));
    }

    #[test]
    fn robustness_setters_chain() {
        let cfg = SelfPacedEnsembleConfig::builder()
            .n_estimators(8)
            .sanitize(SanitizePolicy::ImputeMean)
            .max_member_retries(5)
            .min_members(3)
            .budget(TrainingBudget::wall_clock(std::time::Duration::from_secs(
                9,
            )))
            .build()
            .unwrap();
        assert_eq!(cfg.sanitize, SanitizePolicy::ImputeMean);
        assert_eq!(cfg.max_member_retries, 5);
        assert_eq!(cfg.min_members, 3);
        assert_eq!(cfg.budget.limit(), Some(std::time::Duration::from_secs(9)));
    }

    #[test]
    fn min_members_above_n_estimators_rejected() {
        let err = SelfPacedEnsembleConfig::builder()
            .n_estimators(4)
            .min_members(5)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("min_members"));
    }

    #[test]
    fn zero_values_rejected_at_build() {
        let err = SelfPacedEnsembleConfig::builder()
            .n_estimators(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one estimator"));
        let err = SelfPacedEnsembleConfig::builder()
            .k_bins(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one bin"));
    }
}
