//! Bootstrap aggregating (Breiman 1996).
//!
//! Paper hyper-parameter (Table II): `n_estimators = 10` over default
//! decision trees. Members train on independent bootstrap resamples and
//! are fitted in parallel.

use crate::ensemble::{
    fit_on_bins_parallel, fit_parallel, BinnedTrainJob, SoftVoteEnsemble, TrainJob,
};
use crate::traits::{check_fit_inputs, BinnedProblem, ConstantModel, Learner, Model};
use crate::tree::DecisionTreeConfig;
use spe_data::{BinIndex, Matrix, SeededRng};
use std::sync::Arc;

/// Bagging hyper-parameters.
#[derive(Clone)]
pub struct BaggingConfig {
    /// Number of bagged members (paper: 10).
    pub n_estimators: usize,
    /// Base learner (default: depth-10 decision tree).
    pub base: Arc<dyn Learner>,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
}

impl std::fmt::Debug for BaggingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaggingConfig")
            .field("n_estimators", &self.n_estimators)
            .field("base", &self.base.name())
            .field("sample_fraction", &self.sample_fraction)
            .finish()
    }
}

impl Default for BaggingConfig {
    fn default() -> Self {
        Self {
            n_estimators: 10,
            base: Arc::new(DecisionTreeConfig::default()),
            sample_fraction: 1.0,
        }
    }
}

impl BaggingConfig {
    /// Tree bagging with `n` members.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            ..Self::default()
        }
    }

    /// Bagging over a custom base learner.
    pub fn with_base(n_estimators: usize, base: Arc<dyn Learner>) -> Self {
        Self {
            n_estimators,
            base,
            sample_fraction: 1.0,
        }
    }
}

impl Learner for BaggingConfig {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        check_fit_inputs(x, y, weights);
        assert!(self.n_estimators > 0, "need at least one member");
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }

        let n = y.len();
        let k = ((n as f64) * self.sample_fraction).round().max(1.0) as usize;
        let mut rng = SeededRng::new(seed);
        // When the base learner advertises a binned fast path and the
        // data is large enough, quantize once and hand members bootstrap
        // row ids into the shared index instead of copied sub-matrices.
        // Same bootstrap rng stream and per-member seeds as below.
        if let Some(binned) = self.base.as_binned() {
            if let Some(req) = binned.bin_request() {
                if n >= req.min_rows {
                    let bins = BinIndex::build(x, req.max_bins);
                    let problem = BinnedProblem {
                        bins: &bins,
                        y,
                        weights,
                    };
                    let jobs: Vec<BinnedTrainJob> = (0..self.n_estimators)
                        .map(|m| BinnedTrainJob {
                            rows: rng
                                .sample_with_replacement(n, k)
                                .into_iter()
                                .map(|i| i as u32)
                                .collect(),
                            seed: spe_runtime::fork_seed(seed, m as u64),
                        })
                        .collect();
                    let models = fit_on_bins_parallel(binned, &problem, jobs);
                    return Box::new(SoftVoteEnsemble::new(models));
                }
            }
        }
        let jobs: Vec<TrainJob> = (0..self.n_estimators)
            .map(|m| {
                let idx = rng.sample_with_replacement(n, k);
                let bx = x.select_rows(&idx);
                let by: Vec<u8> = idx.iter().map(|&i| y[i]).collect();
                let bw = weights.map(|w| idx.iter().map(|&i| w[i]).collect());
                TrainJob {
                    x: bx,
                    y: by,
                    w: bw,
                    seed: spe_runtime::fork_seed(seed, m as u64),
                }
            })
            .collect();
        let models = fit_parallel(self.base.as_ref(), jobs);
        Box::new(SoftVoteEnsemble::new(models))
    }

    fn name(&self) -> &'static str {
        "Bagging"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::SeededRng;

    fn noisy_threshold(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n, 1);
        let mut y = Vec::new();
        for _ in 0..n {
            let v = rng.range(0.0, 1.0);
            let label = u8::from(v > 0.5) ^ u8::from(rng.uniform() < 0.1);
            x.push_row(&[v]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn bagging_learns_noisy_threshold() {
        let (x, y) = noisy_threshold(400, 105);
        let m = BaggingConfig::new(10).fit(&x, &y, 205);
        let test = Matrix::from_vec(2, 1, vec![0.1, 0.9]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn probabilities_average_members() {
        let (x, y) = noisy_threshold(200, 3);
        let m = BaggingConfig::new(5).fit(&x, &y, 4);
        for p in m.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_class_constant() {
        let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let m = BaggingConfig::default().fit(&x, &[1, 1, 1], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_threshold(100, 5);
        let a = BaggingConfig::new(4).fit(&x, &y, 6).predict_proba(&x);
        let b = BaggingConfig::new(4).fit(&x, &y, 6).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn binned_base_learns_noisy_threshold() {
        let (x, y) = noisy_threshold(400, 105);
        let base = DecisionTreeConfig {
            split_method: crate::tree::SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        };
        let m = BaggingConfig::with_base(10, Arc::new(base)).fit(&x, &y, 205);
        let test = Matrix::from_vec(2, 1, vec![0.1, 0.9]);
        assert_eq!(m.predict(&test), vec![0, 1]);
    }

    #[test]
    fn binned_base_deterministic_given_seed() {
        let (x, y) = noisy_threshold(100, 5);
        let base = Arc::new(DecisionTreeConfig {
            split_method: crate::tree::SplitMethod::Histogram,
            ..DecisionTreeConfig::default()
        });
        let cfg = BaggingConfig::with_base(4, base);
        let a = cfg.fit(&x, &y, 6).predict_proba(&x);
        let b = cfg.fit(&x, &y, 6).predict_proba(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn sample_fraction_shrinks_bags() {
        // With a tiny fraction the members see little data but the
        // ensemble still trains and predicts.
        let (x, y) = noisy_threshold(200, 7);
        let cfg = BaggingConfig {
            sample_fraction: 0.1,
            ..BaggingConfig::new(10)
        };
        let m = cfg.fit(&x, &y, 8);
        assert_eq!(m.predict_proba(&x).len(), 200);
    }
}
