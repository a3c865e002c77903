//! Deterministic fault injection for robustness testing.
//!
//! Only compiled under the `fault-injection` cargo feature — production
//! builds carry none of this code. [`FaultyLearner`] wraps any real
//! [`Learner`] and, with configured probabilities, makes a fit attempt
//! panic, emit NaN probabilities, or stall past a training budget. The
//! draws are a pure function of `(salt, fit seed)`, so a failing
//! injection run replays bit-for-bit regardless of thread count —
//! exactly the property the ensemble's fault-isolation tests need.

use crate::traits::{BinRequest, BinnedLearner, BinnedProblem, Learner, Model};
use spe_data::{Matrix, MatrixView, SeededRng};
use spe_runtime::fork_seed;
use std::sync::Arc;
use std::time::Duration;

/// Probabilities (each in `[0, 1]`) and parameters for injected faults.
///
/// Faults are drawn independently per `fit` call in a fixed order:
/// panic, then NaN, then stall. At most one fires per attempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Probability that a fit attempt panics.
    pub panic_prob: f64,
    /// Probability that a fit attempt returns a model whose
    /// `predict_proba` is all-NaN.
    pub nan_prob: f64,
    /// Probability that a fit attempt sleeps for [`FaultPlan::stall`]
    /// before training (to trip wall-clock budgets).
    pub stall_prob: f64,
    /// How long a stalling attempt sleeps.
    pub stall: Duration,
}

/// A [`Learner`] wrapper that injects faults per [`FaultPlan`].
///
/// Each `fit_weighted(.., seed)` call derives one RNG from
/// `fork_seed(salt, seed)` and rolls the plan's probabilities in order.
/// Retries with fresh seeds therefore re-roll the dice — a member that
/// panicked on attempt 0 can succeed on attempt 1, which is what lets
/// the ensemble's retry logic be exercised deterministically.
pub struct FaultyLearner {
    inner: Arc<dyn Learner>,
    plan: FaultPlan,
    salt: u64,
}

impl FaultyLearner {
    /// Wraps `inner` with the given fault plan and salt.
    pub fn new(inner: Arc<dyn Learner>, plan: FaultPlan, salt: u64) -> Self {
        Self { inner, plan, salt }
    }

    /// A wrapper that panics with probability `p` and never misbehaves
    /// otherwise.
    pub fn panicking(inner: Arc<dyn Learner>, p: f64, salt: u64) -> Self {
        Self::new(
            inner,
            FaultPlan {
                panic_prob: p,
                ..FaultPlan::default()
            },
            salt,
        )
    }

    /// A wrapper that returns all-NaN probabilities with probability `p`.
    pub fn nan_emitting(inner: Arc<dyn Learner>, p: f64, salt: u64) -> Self {
        Self::new(
            inner,
            FaultPlan {
                nan_prob: p,
                ..FaultPlan::default()
            },
            salt,
        )
    }

    /// A wrapper that sleeps `stall` before fitting with probability `p`.
    pub fn stalling(inner: Arc<dyn Learner>, p: f64, stall: Duration, salt: u64) -> Self {
        Self::new(
            inner,
            FaultPlan {
                stall_prob: p,
                stall,
                ..FaultPlan::default()
            },
            salt,
        )
    }
}

/// A model whose probabilities are all NaN — simulates a numerically
/// diverged base learner.
pub struct NanModel;

impl Model for NanModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        vec![f64::NAN; x.rows()]
    }
}

impl FaultyLearner {
    /// Rolls the plan for one fit attempt: panics, returns a
    /// [`NanModel`] to hand back, or sleeps and returns `None`.
    fn inject(&self, seed: u64) -> Option<Box<dyn Model>> {
        let mut rng = SeededRng::new(fork_seed(self.salt, seed));
        if rng.uniform() < self.plan.panic_prob {
            panic!("injected fault: fit(seed={seed}) panicked");
        }
        if rng.uniform() < self.plan.nan_prob {
            return Some(Box::new(NanModel));
        }
        if rng.uniform() < self.plan.stall_prob {
            std::thread::sleep(self.plan.stall);
        }
        None
    }
}

impl Learner for FaultyLearner {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        self.inject(seed)
            .unwrap_or_else(|| self.inner.fit_weighted(x, y, weights, seed))
    }

    fn name(&self) -> &'static str {
        "Faulty"
    }

    /// Forwards the inner learner's binned hook, so histogram fits meet
    /// the same faults.
    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        self.inner.as_binned().map(|_| self as &dyn BinnedLearner)
    }
}

impl BinnedLearner for FaultyLearner {
    fn bin_request(&self) -> Option<BinRequest> {
        self.inner.as_binned()?.bin_request()
    }

    /// Rolls the same plan as `fit_weighted`, from `fork_seed(salt, seed)`.
    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model> {
        self.inject(seed).unwrap_or_else(|| {
            let inner = self
                .inner
                .as_binned()
                .expect("as_binned checked the inner learner");
            inner.fit_on_bins(problem, rows, seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeConfig;

    fn tiny() -> (Matrix, Vec<u8>) {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        (x, vec![0, 0, 1, 1])
    }

    #[test]
    fn faults_are_deterministic_in_seed() {
        let base: Arc<dyn Learner> = Arc::new(DecisionTreeConfig::default());
        let faulty = FaultyLearner::panicking(base, 0.5, 99);
        let (x, y) = tiny();
        let outcomes: Vec<bool> = (0..32)
            .map(|seed| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faulty.fit(&x, &y, seed);
                }))
                .is_ok()
            })
            .collect();
        // Same seeds, same outcomes — replayable.
        let replay: Vec<bool> = (0..32)
            .map(|seed| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faulty.fit(&x, &y, seed);
                }))
                .is_ok()
            })
            .collect();
        assert_eq!(outcomes, replay);
        // At p=0.5 over 32 seeds, both outcomes must occur.
        assert!(outcomes.iter().any(|&ok| ok));
        assert!(outcomes.iter().any(|&ok| !ok));
    }

    #[test]
    fn zero_probability_never_fires() {
        let base: Arc<dyn Learner> = Arc::new(DecisionTreeConfig::default());
        let faulty = FaultyLearner::new(base, FaultPlan::default(), 7);
        let (x, y) = tiny();
        for seed in 0..16 {
            let m = faulty.fit(&x, &y, seed);
            assert!(m.predict_proba(&x).iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn nan_mode_emits_nan_probabilities() {
        let base: Arc<dyn Learner> = Arc::new(DecisionTreeConfig::default());
        let faulty = FaultyLearner::nan_emitting(base, 1.0, 3);
        let (x, y) = tiny();
        let m = faulty.fit(&x, &y, 0);
        assert!(m.predict_proba(&x).iter().all(|p| p.is_nan()));
    }
}
