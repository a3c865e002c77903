//! BalanceCascade (Liu, Wu & Zhou 2009).
//!
//! Like EasyEnsemble, each member trains on the full minority plus a
//! balanced random majority subset — but the majority *pool* shrinks
//! between iterations: after member `i` is trained, the majority samples
//! the current ensemble classifies most confidently as negative are
//! discarded, at a rate chosen so the pool reaches `|P|` by the last
//! iteration (`f = (|P|/|N|)^{1/(n−1)}`).
//!
//! The paper's critique (§III, §VI-A3/4) — Cascade over-focuses on
//! outliers in late iterations and overfits noisy data — is an emergent
//! property of exactly this discard rule, which the Fig. 5 experiment
//! reproduces.

use spe_data::{Dataset, Matrix, SeededRng};
use spe_learners::ensemble::SoftVoteEnsemble;
use spe_learners::traits::{check_fit_inputs, ConstantModel, Learner, Model, SharedLearner};
use spe_learners::DecisionTreeConfig;
use std::sync::Arc;

/// BalanceCascade configuration.
#[derive(Clone)]
pub struct BalanceCascade {
    /// Number of members `n`.
    pub n_estimators: usize,
    /// Base learner (paper default here: C4.5-style tree; the original
    /// paper used AdaBoost members).
    pub base: SharedLearner,
}

impl std::fmt::Debug for BalanceCascade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BalanceCascade")
            .field("n_estimators", &self.n_estimators)
            .field("base", &self.base.name())
            .finish()
    }
}

impl BalanceCascade {
    /// Cascade with C4.5-style tree members.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            base: Arc::new(DecisionTreeConfig::c45(10)),
        }
    }

    /// Cascade over a custom base learner.
    pub fn with_base(n_estimators: usize, base: SharedLearner) -> Self {
        Self { n_estimators, base }
    }

    /// Total training samples consumed (`2·|P|` per member).
    pub fn samples_per_fit(&self, n_pos: usize, _n_neg: usize) -> usize {
        2 * n_pos * self.n_estimators
    }

    /// Trains the cascade, returning the ensemble with prefix-scoring
    /// support (used by the Fig. 5 training-curve experiment).
    pub fn fit_dataset(&self, data: &Dataset, seed: u64) -> SoftVoteEnsemble {
        assert!(self.n_estimators > 0, "need at least one member");
        let idx = data.class_index();
        assert!(
            !idx.minority.is_empty() && !idx.majority.is_empty(),
            "BalanceCascade requires both classes"
        );
        let n_pos = idx.minority.len();
        let mut rng = SeededRng::new(seed);

        let minority_x = data.x().select_rows(&idx.minority);
        let majority_x = data.x().select_rows(&idx.majority);

        // Remaining majority pool (positions into majority_x).
        let mut pool: Vec<usize> = (0..idx.majority.len()).collect();
        let n = self.n_estimators;
        // Pool shrink factor per iteration.
        let f = if n > 1 && pool.len() > n_pos {
            (n_pos as f64 / pool.len() as f64).powf(1.0 / (n as f64 - 1.0))
        } else {
            1.0
        };

        let mut models: Vec<Box<dyn Model>> = Vec::with_capacity(n);
        let mut pool_proba_sum: Vec<f64> = Vec::new();

        for i in 0..n {
            // Balanced subset from the current pool.
            let chosen = rng.sample_from(&pool, n_pos.min(pool.len()).max(1));
            let sub_x = minority_x.vstack(&majority_x.select_rows(&chosen));
            let mut sub_y = vec![1u8; n_pos];
            sub_y.extend(std::iter::repeat_n(0u8, chosen.len()));
            let model = self
                .base
                .fit(&sub_x, &sub_y, seed.wrapping_add(71 + i as u64));

            // Score the whole pool with the growing ensemble.
            let member_proba = model.predict_proba(&majority_x);
            if pool_proba_sum.is_empty() {
                pool_proba_sum = member_proba;
            } else {
                for (s, p) in pool_proba_sum.iter_mut().zip(member_proba) {
                    *s += p;
                }
            }
            models.push(model);

            if i + 1 == n {
                break;
            }
            // Discard the most confidently-negative majority samples so
            // the pool shrinks by factor f (but never below |P|).
            let target = ((pool.len() as f64) * f).round().max(n_pos as f64) as usize;
            if target < pool.len() {
                let k = models.len() as f64;
                pool.sort_by(|&a, &b| (pool_proba_sum[b] / k).total_cmp(&(pool_proba_sum[a] / k)));
                pool.truncate(target);
            }
        }
        SoftVoteEnsemble::new(models)
    }
}

impl Learner for BalanceCascade {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "BalanceCascade ignores sample weights");
        check_fit_inputs(x, y, None);
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }
        let data = Dataset::new(x.clone(), y.to_vec());
        Box::new(self.fit_dataset(&data, seed))
    }

    fn name(&self) -> &'static str {
        "Cascade"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_metrics::aucprc;

    fn imbalanced_overlap(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
        let mut y = Vec::new();
        for _ in 0..n_neg {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + n_neg, 0);
        for _ in 0..n_pos {
            x.push_row(&[rng.normal(1.5, 1.0), rng.normal(1.5, 1.0)]);
        }
        y.resize(y.len() + n_pos, 1);
        Dataset::new(x, y)
    }

    #[test]
    fn trains_n_members() {
        let d = imbalanced_overlap(20, 400, 1);
        let e = BalanceCascade::new(6).fit_dataset(&d, 2);
        assert_eq!(e.len(), 6);
    }

    #[test]
    fn learns_the_minority_region() {
        let train = imbalanced_overlap(30, 900, 107);
        let test = imbalanced_overlap(30, 900, 207);
        let m = BalanceCascade::new(10).fit(train.x(), train.y(), 307);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        assert!(auc > 0.3, "AUCPRC {auc}");
    }

    #[test]
    fn pool_never_starves_members() {
        // n larger than the shrink schedule would allow; members must
        // still train on >= 1 majority sample.
        let d = imbalanced_overlap(10, 40, 6);
        let e = BalanceCascade::new(12).fit_dataset(&d, 7);
        assert_eq!(e.len(), 12);
    }

    #[test]
    fn single_member_works() {
        let d = imbalanced_overlap(10, 100, 8);
        let e = BalanceCascade::new(1).fit_dataset(&d, 9);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn single_class_degenerates() {
        let x = Matrix::zeros(4, 1);
        let m = BalanceCascade::new(3).fit(&x, &[1; 4], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 4]);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = imbalanced_overlap(15, 200, 10);
        let a = BalanceCascade::new(5)
            .fit(d.x(), d.y(), 11)
            .predict_proba(d.x());
        let b = BalanceCascade::new(5)
            .fit(d.x(), d.y(), 11)
            .predict_proba(d.x());
        assert_eq!(a, b);
    }
}
