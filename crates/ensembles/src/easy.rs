//! Bagging-style imbalance ensembles: EasyEnsemble, UnderBagging and
//! SMOTEBagging.
//!
//! All three train independent members in parallel; they differ only in
//! how each bag is constructed:
//!
//! - **UnderBagging** (Barandela et al. 2003): balanced bag via random
//!   under-sampling, any base learner.
//! - **EasyEnsemble** (Liu et al. 2009): UnderBagging whose base learner
//!   is an AdaBoost ensemble.
//! - **SMOTEBagging** (Wang & Yao 2009): majority bootstrap plus SMOTE
//!   minority over-sampling, with the resampling rate varying across
//!   bags for diversity.

use spe_data::{Dataset, Matrix, SeededRng};
use spe_learners::ensemble::{fit_parallel, SoftVoteEnsemble, TrainJob};
use spe_learners::traits::{check_fit_inputs, ConstantModel, Learner, Model, SharedLearner};
use spe_learners::{AdaBoostConfig, DecisionTreeConfig};
use spe_sampling::{Sampler, Smote};
use std::sync::Arc;

/// Builds one balanced under-sampled bag: all minority + |P| random
/// majority, shuffled.
fn balanced_bag(data: &Dataset, rng: &mut SeededRng) -> (Matrix, Vec<u8>) {
    let idx = data.class_index();
    let mut keep = rng.sample_from(&idx.majority, idx.minority.len().max(1));
    keep.extend_from_slice(&idx.minority);
    rng.shuffle(&mut keep);
    let sub = data.select(&keep);
    (sub.x().clone(), sub.y().to_vec())
}

/// UnderBagging: random balanced bags over a configurable base learner.
#[derive(Clone)]
pub struct UnderBagging {
    /// Number of bags (paper: 10/20/50 in Table VI).
    pub n_estimators: usize,
    /// Base learner per bag (paper: C4.5).
    pub base: SharedLearner,
}

impl std::fmt::Debug for UnderBagging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnderBagging")
            .field("n_estimators", &self.n_estimators)
            .field("base", &self.base.name())
            .finish()
    }
}

impl UnderBagging {
    /// UnderBagging with C4.5-style trees.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            base: Arc::new(DecisionTreeConfig::c45(10)),
        }
    }

    /// UnderBagging over a custom base learner.
    pub fn with_base(n_estimators: usize, base: SharedLearner) -> Self {
        Self { n_estimators, base }
    }

    /// Total training samples consumed, as reported in Tables V/VI
    /// (`2·|P|` per member).
    pub fn samples_per_fit(&self, n_pos: usize, _n_neg: usize) -> usize {
        2 * n_pos * self.n_estimators
    }
}

fn fit_under_bags(
    base: &dyn Learner,
    n_estimators: usize,
    x: &Matrix,
    y: &[u8],
    seed: u64,
) -> Box<dyn Model> {
    check_fit_inputs(x, y, None);
    assert!(n_estimators > 0, "need at least one member");
    let n_pos = y.iter().filter(|&&l| l != 0).count();
    if n_pos == 0 || n_pos == y.len() {
        return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
    }
    let data = Dataset::new(x.clone(), y.to_vec());
    let mut rng = SeededRng::new(seed);
    let jobs: Vec<TrainJob> = (0..n_estimators)
        .map(|m| {
            let (bx, by) = balanced_bag(&data, &mut rng);
            TrainJob {
                x: bx,
                y: by,
                w: None,
                seed: spe_runtime::fork_seed(seed.wrapping_add(31), m as u64),
            }
        })
        .collect();
    Box::new(SoftVoteEnsemble::new(fit_parallel(base, jobs)))
}

impl Learner for UnderBagging {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "UnderBagging ignores sample weights");
        fit_under_bags(self.base.as_ref(), self.n_estimators, x, y, seed)
    }

    fn name(&self) -> &'static str {
        "UnderBagging"
    }

    fn base(&self) -> Option<&dyn Learner> {
        Some(self.base.as_ref())
    }
}

/// EasyEnsemble: UnderBagging with AdaBoost members (`Easy_n` in the
/// paper trains `n` AdaBoost models, each of `boost_rounds` weak trees).
#[derive(Clone, Debug)]
pub struct EasyEnsemble {
    /// Number of under-sampled AdaBoost members.
    pub n_estimators: usize,
    /// AdaBoost rounds inside each member.
    pub boost_rounds: usize,
    /// Depth of the weak trees inside AdaBoost.
    pub weak_depth: usize,
}

impl EasyEnsemble {
    /// `Easy_n` with the paper's default of 10 AdaBoost rounds per member.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            boost_rounds: 10,
            weak_depth: 1,
        }
    }

    /// Total training samples consumed (`2·|P|` per member).
    pub fn samples_per_fit(&self, n_pos: usize, _n_neg: usize) -> usize {
        2 * n_pos * self.n_estimators
    }
}

impl Learner for EasyEnsemble {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "EasyEnsemble ignores sample weights");
        let base = AdaBoostConfig::with_base(
            self.boost_rounds,
            Arc::new(DecisionTreeConfig::with_depth(self.weak_depth)),
        );
        fit_under_bags(&base, self.n_estimators, x, y, seed)
    }

    fn name(&self) -> &'static str {
        "Easy"
    }
}

/// SMOTEBagging: each bag bootstraps the majority at full size and
/// over-samples the minority to parity via SMOTE, with the fraction of
/// bootstrap-vs-synthetic minority varying across bags (Wang & Yao 2009).
#[derive(Clone)]
pub struct SmoteBagging {
    /// Number of bags.
    pub n_estimators: usize,
    /// Base learner per bag (paper: C4.5).
    pub base: SharedLearner,
    /// SMOTE neighborhood size.
    pub k: usize,
}

impl std::fmt::Debug for SmoteBagging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmoteBagging")
            .field("n_estimators", &self.n_estimators)
            .field("base", &self.base.name())
            .finish()
    }
}

impl SmoteBagging {
    /// SMOTEBagging with C4.5-style trees.
    pub fn new(n_estimators: usize) -> Self {
        Self {
            n_estimators,
            base: Arc::new(DecisionTreeConfig::c45(10)),
            k: 5,
        }
    }

    /// Total training samples consumed (`2·|N|` per member).
    pub fn samples_per_fit(&self, _n_pos: usize, n_neg: usize) -> usize {
        2 * n_neg * self.n_estimators
    }
}

impl Learner for SmoteBagging {
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model> {
        debug_assert!(weights.is_none(), "SmoteBagging ignores sample weights");
        check_fit_inputs(x, y, None);
        assert!(self.n_estimators > 0, "need at least one member");
        let n_pos = y.iter().filter(|&&l| l != 0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Box::new(ConstantModel(if n_pos == 0 { 0.0 } else { 1.0 }));
        }
        let data = Dataset::new(x.clone(), y.to_vec());
        let idx = data.class_index();
        let mut rng = SeededRng::new(seed);
        let jobs: Vec<TrainJob> = (0..self.n_estimators)
            .map(|m| {
                // Resampling rate b% sweeps 10%..100% across bags: the
                // fraction of minority slots filled by bootstrap copies
                // (the rest become SMOTE synthetics).
                let b = (m + 1) as f64 / self.n_estimators as f64;
                // Majority bootstrap at full majority size.
                let maj = rng.sample_with_replacement(idx.majority.len(), idx.majority.len());
                let maj_idx: Vec<usize> = maj.into_iter().map(|i| idx.majority[i]).collect();
                // Minority bootstrap portion.
                let n_boot = ((idx.minority.len() as f64
                    + b * (idx.majority.len() - idx.minority.len()) as f64)
                    .round() as usize)
                    .max(idx.minority.len());
                let min_boot = rng.sample_with_replacement(idx.minority.len(), n_boot);
                let min_idx: Vec<usize> = min_boot.into_iter().map(|i| idx.minority[i]).collect();
                let mut keep = maj_idx;
                keep.extend(min_idx);
                let bag = data.select(&keep);
                // SMOTE tops the minority up to parity.
                let balanced = Smote {
                    k: self.k,
                    ratio: 1.0,
                }
                .resample(
                    &bag,
                    spe_runtime::fork_seed(seed.wrapping_add(977), m as u64),
                );
                TrainJob {
                    x: balanced.x().clone(),
                    y: balanced.y().to_vec(),
                    w: None,
                    seed: spe_runtime::fork_seed(seed.wrapping_add(51), m as u64),
                }
            })
            .collect();
        Box::new(SoftVoteEnsemble::new(fit_parallel(
            self.base.as_ref(),
            jobs,
        )))
    }

    fn name(&self) -> &'static str {
        "SMOTEBagging"
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
    fn under_bagging_beats_blind_majority_vote() {
        let train = imbalanced_overlap(30, 900, 21);
        let test = imbalanced_overlap(30, 900, 22);
        let m = UnderBagging::new(10).fit(train.x(), train.y(), 23);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        // Prevalence baseline is 30/930 ≈ 0.032.
        assert!(auc > 0.3, "AUCPRC {auc}");
    }

    #[test]
    fn easy_trains_and_scores() {
        let train = imbalanced_overlap(25, 500, 4);
        let test = imbalanced_overlap(25, 500, 5);
        let m = EasyEnsemble::new(5).fit(train.x(), train.y(), 6);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        assert!(auc > 0.2, "AUCPRC {auc}");
    }

    #[test]
    fn smote_bagging_trains_and_scores() {
        let train = imbalanced_overlap(25, 400, 7);
        let test = imbalanced_overlap(25, 400, 8);
        let m = SmoteBagging::new(5).fit(train.x(), train.y(), 9);
        let auc = aucprc(test.y(), &m.predict_proba(test.x()));
        assert!(auc > 0.2, "AUCPRC {auc}");
    }

    #[test]
    fn sample_budgets_match_paper_accounting() {
        let ub = UnderBagging::new(10);
        assert_eq!(ub.samples_per_fit(316, 170_000), 6320);
        let sb = SmoteBagging::new(10);
        assert_eq!(sb.samples_per_fit(316, 170_000), 3_400_000);
        let easy = EasyEnsemble::new(20);
        assert_eq!(easy.samples_per_fit(316, 170_000), 12_640);
    }

    #[test]
    fn single_class_degenerates() {
        let x = Matrix::zeros(5, 2);
        let m = UnderBagging::new(3).fit(&x, &[0; 5], 0);
        assert_eq!(m.predict_proba(&x), vec![0.0; 5]);
        let m = SmoteBagging::new(3).fit(&x, &[1; 5], 0);
        assert_eq!(m.predict_proba(&x), vec![1.0; 5]);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = imbalanced_overlap(15, 150, 10);
        let a = UnderBagging::new(4)
            .fit(d.x(), d.y(), 11)
            .predict_proba(d.x());
        let b = UnderBagging::new(4)
            .fit(d.x(), d.y(), 11)
            .predict_proba(d.x());
        assert_eq!(a, b);
    }
}
