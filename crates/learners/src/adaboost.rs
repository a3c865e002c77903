//! Adaptive Boosting, binary, in the real-valued SAMME.R form
//! (Friedman/Hastie/Tibshirani's "Real AdaBoost") — the variant behind
//! scikit-learn's `AdaBoostClassifier`, which the paper uses.
//!
//! Each round the weak learner outputs class probabilities; its additive
//! contribution is the half log-odds `h_m(x) = ½·ln(p/(1−p))`, and the
//! sample weights update as `w ← w·exp(−y±·h_m(x))`. Unlike discrete
//! AdaBoost, there is no error-≥-0.5 bailout: a weak learner that is
//! wrong on the current weighting simply contributes negative log-odds
//! where it errs, so boosting proceeds on tasks (e.g. checkerboards)
//! where individual stumps start at chance level.
//!
//! Paper hyper-parameter (Table II): `n_estimators = 10`. The default
//! weak learner here is a **depth-2 tree** rather than sklearn's
//! depth-1 stump: boosted stumps form a coordinate-additive model and
//! therefore cannot rank XOR/checkerboard structure at all (AUCPRC
//! pins to prevalence no matter how many rounds), which would erase the
//! method differentiation Table II exists to show. Use
//! [`AdaBoostConfig::stumps`] for the classic stump variant.

use crate::traits::{check_fit_inputs, effective_weights, ConstantModel, Learner, Model};
use crate::tree::DecisionTreeConfig;
use spe_data::{Matrix, MatrixView};
use std::sync::Arc;

/// AdaBoost hyper-parameters.
#[derive(Clone)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds (paper: 10).
    pub n_estimators: usize,
    /// Weak learner (default: depth-1 stump).
    pub base: Arc<dyn Learner>,
}

impl std::fmt::Debug for AdaBoostConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaBoostConfig")
            .field("n_estimators", &self.n_estimators)
            .field("base", &self.base.name())
            .finish()
    }
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        Self {
            n_estimators: 10,
            base: Arc::new(DecisionTreeConfig::with_depth(2)),
        }
    }
}

impl AdaBoostConfig {
    /// AdaBoost with `n` rounds over depth-2 weak trees (see the module
    /// docs for why depth 2 rather than stumps).
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            ..Self::default()
        }
    }

    /// Classic stump-based AdaBoost (coordinate-additive model).
    pub fn stumps(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            base: Arc::new(DecisionTreeConfig::stump()),
        }
    }

    /// AdaBoost over a custom weak learner.
    pub fn with_base(n_estimators: usize, base: Arc<dyn Learner>) -> Self {
        Self { n_estimators, base }
    }
}

/// Clip for the half-log-odds contribution; sklearn clamps probabilities
/// similarly to keep a single confident stump from dominating forever.
const LOG_ODDS_CLIP: f64 = 3.0;

struct AdaBoostModel {
    members: Vec<Box<dyn Model>>,
}

impl AdaBoostModel {
    fn decision(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut acc = vec![0.0; x.rows()];
        for m in &self.members {
            for (a, p) in acc.iter_mut().zip(m.predict_proba_view(x)) {
                *a += half_log_odds(p);
            }
        }
        acc
    }
}

/// `½·ln(p/(1−p))`, clipped.
#[inline]
fn half_log_odds(p: f64) -> f64 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (0.5 * (p / (1.0 - p)).ln()).clamp(-LOG_ODDS_CLIP, LOG_ODDS_CLIP)
}

impl Model for AdaBoostModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let scale = 1.0 / (self.members.len() as f64).max(1.0);
        self.decision(x)
            .into_iter()
            .map(|d| crate::logistic::sigmoid(2.0 * d * scale))
            .collect()
    }
}

impl Learner for AdaBoostConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        assert!(self.n_estimators > 0, "need at least one round");
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }

        let n = y.len();
        let mut w = effective_weights(n, weights);
        normalize(&mut w);

        let mut members: Vec<Box<dyn Model>> = Vec::new();
        for round in 0..self.n_estimators {
            // Cooperative budget: keep the rounds boosted so far (at
            // least one) once the wall-clock deadline passes.
            if round > 0 && spe_runtime::budget_exceeded() {
                break;
            }
            let model = self
                .base
                .fit_weighted(x, y, Some(&w), seed.wrapping_add(round as u64));
            let probs = model.predict_proba(x);
            // SAMME.R weight update: w ← w · exp(−y±·h(x)).
            let mut err = 0.0;
            for ((&p, &t), wi) in probs.iter().zip(y).zip(w.iter_mut()) {
                let y_pm = if t != 0 { 1.0 } else { -1.0 };
                if (p >= 0.5) != (t != 0) {
                    err += *wi;
                }
                *wi *= (-y_pm * half_log_odds(p)).exp();
            }
            normalize(&mut w);
            members.push(model);
            if err <= 1e-12 {
                // Perfect weak learner: nothing left to boost.
                break;
            }
        }

        Box::new(AdaBoostModel { members })
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

fn normalize(w: &mut [f64]) {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        for wi in w.iter_mut() {
            *wi /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    fn stripes(seed: u64) -> (Matrix, Vec<u8>) {
        // 1-D data with label = region parity — a single stump fails, a
        // boosted combination of stumps succeeds.
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(300, 1);
        let mut y = Vec::new();
        for _ in 0..300 {
            let v = rng.range(0.0, 4.0);
            x.push_row(&[v]);
            y.push((v as usize % 2) as u8);
        }
        (x, y)
    }

    fn accuracy(m: &dyn Model, x: &Matrix, y: &[u8]) -> f64 {
        m.predict(x).iter().zip(y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64
    }

    #[test]
    fn boosting_beats_a_single_stump() {
        let (x, y) = stripes(1);
        let stump = DecisionTreeConfig::stump().fit(&x, &y, 0);
        let boosted = AdaBoostConfig::new(25).fit(&x, &y, 0);
        let a_stump = accuracy(stump.as_ref(), &x, &y);
        let a_boost = accuracy(boosted.as_ref(), &x, &y);
        assert!(a_boost > a_stump + 0.15, "stump {a_stump}, boost {a_boost}");
        assert!(a_boost > 0.9, "boost {a_boost}");
    }

    #[test]
    fn separable_data_boosts_to_perfection() {
        let x = Matrix::from_vec(6, 1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let m = AdaBoostConfig::new(10).fit(&x, &y, 0);
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = stripes(2);
        let m = AdaBoostConfig::new(10).fit(&x, &y, 0);
        for p in m.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn single_class_constant() {
        let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let m = AdaBoostConfig::default().fit(&x, &[0, 0, 0], 0);
        assert_eq!(m.predict_proba(&x), vec![0.0; 3]);
    }

    #[test]
    fn respects_initial_sample_weights() {
        // Conflicting labels at the same x; initial weights should decide
        // the prediction.
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.0, 1.0, 1.0]);
        let y = vec![0, 1, 0, 1];
        let w = vec![1.0, 5.0, 1.0, 5.0];
        let m = AdaBoostConfig::new(3).fit_weighted(&x, &y, Some(&w), 0);
        let p = m.predict_proba(&x);
        assert!(p.iter().all(|&pi| pi > 0.5), "{p:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = stripes(3);
        let a = AdaBoostConfig::new(5).fit(&x, &y, 4).predict_proba(&x);
        let b = AdaBoostConfig::new(5).fit(&x, &y, 4).predict_proba(&x);
        assert_eq!(a, b);
    }
}
