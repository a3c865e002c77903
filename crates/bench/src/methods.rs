//! Method registry: builds the (name, fit-function) pairs each table
//! compares, mirroring the paper's method lineups.

use spe_core::SelfPacedEnsembleConfig;
use spe_data::Dataset;
use spe_ensembles::{BalanceCascade, UnderBagging};
use spe_learners::traits::{Learner, Model, SharedLearner};
use spe_metrics::MetricSet;
use spe_sampling::Sampler;
use std::sync::Arc;

/// A trainable method: dataset + seed → trained model. `Send + Sync` so
/// cross-validation folds can train on the shared runtime concurrently.
pub type FitFn = Box<dyn Fn(&Dataset, u64) -> Box<dyn Model> + Send + Sync>;

/// Sampler followed by a single classifier (`RandUnder`, `Clean`,
/// `SMOTE`, ... rows of Tables II/IV/V).
pub fn resample_then_fit(sampler: impl Sampler + 'static, base: SharedLearner) -> FitFn {
    Box::new(move |data, seed| {
        let resampled = sampler.resample(data, seed);
        base.fit(resampled.x(), resampled.y(), seed)
    })
}

/// `Easy_n`-style under-bagging around the given base classifier (the
/// paper's Table II/IV "Easy" columns pair it with each canonical
/// classifier; with AdaBoost members it is literally EasyEnsemble).
pub fn underbag_with(n: usize, base: SharedLearner) -> FitFn {
    Box::new(move |data, seed| {
        UnderBagging::with_base(n, Arc::clone(&base)).fit(data.x(), data.y(), seed)
    })
}

/// `Cascade_n` around the given base classifier.
pub fn cascade_with(n: usize, base: SharedLearner) -> FitFn {
    Box::new(move |data, seed| {
        BalanceCascade::with_base(n, Arc::clone(&base)).fit(data.x(), data.y(), seed)
    })
}

/// `SPE_n` around the given base classifier (paper defaults: k = 20,
/// absolute-error hardness).
pub fn spe_with(n: usize, base: SharedLearner) -> FitFn {
    Box::new(move |data, seed| {
        let cfg = SelfPacedEnsembleConfig::builder()
            .n_estimators(n)
            .base(Arc::clone(&base))
            .build()
            .expect("valid SPE config");
        Box::new(cfg.fit_dataset(data, seed))
    })
}

/// Any `Learner` as a method.
pub fn learner_fit(learner: impl Learner + 'static) -> FitFn {
    Box::new(move |data, seed| learner.fit(data.x(), data.y(), seed))
}

/// The six-method lineup of Tables II and IV, around one base
/// classifier. `with_distance_methods = false` drops Clean/SMOTE (the
/// paper marks them "-" on the large / categorical datasets).
pub fn paper_method_lineup(
    base: SharedLearner,
    n: usize,
    with_distance_methods: bool,
) -> Vec<(String, FitFn)> {
    use spe_sampling::{NeighbourhoodCleaningRule, RandomUnderSampler, Smote};
    let mut out: Vec<(String, FitFn)> = vec![(
        "RandUnder".into(),
        resample_then_fit(RandomUnderSampler::default(), Arc::clone(&base)),
    )];
    if with_distance_methods {
        out.push((
            "Clean".into(),
            resample_then_fit(NeighbourhoodCleaningRule::default(), Arc::clone(&base)),
        ));
        out.push((
            "SMOTE".into(),
            resample_then_fit(Smote::default(), Arc::clone(&base)),
        ));
    }
    out.push((format!("Easy{n}"), underbag_with(n, Arc::clone(&base))));
    out.push((format!("Cascade{n}"), cascade_with(n, Arc::clone(&base))));
    out.push((format!("SPE{n}"), spe_with(n, base)));
    out
}

/// Trains on `train` and evaluates all four paper criteria on `test`.
pub fn train_eval(fit: &FitFn, train: &Dataset, test: &Dataset, seed: u64) -> MetricSet {
    let model = fit(train, seed);
    MetricSet::evaluate(test.y(), &model.predict_proba(test.x()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::{Matrix, SeededRng};
    use spe_learners::DecisionTreeConfig;

    fn toy(seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(220, 2);
        let mut y = Vec::new();
        for _ in 0..200 {
            x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
        }
        y.resize(y.len() + 200, 0);
        for _ in 0..20 {
            x.push_row(&[rng.normal(2.0, 0.5), rng.normal(2.0, 0.5)]);
        }
        y.resize(y.len() + 20, 1);
        Dataset::new(x, y)
    }

    #[test]
    fn lineup_has_expected_names() {
        let base: SharedLearner = Arc::new(DecisionTreeConfig::default());
        let with = paper_method_lineup(Arc::clone(&base), 10, true);
        let names: Vec<&str> = with.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "RandUnder",
                "Clean",
                "SMOTE",
                "Easy10",
                "Cascade10",
                "SPE10"
            ]
        );
        let without = paper_method_lineup(base, 10, false);
        assert_eq!(without.len(), 4);
    }

    #[test]
    fn every_lineup_method_trains_and_scores() {
        let base: SharedLearner = Arc::new(DecisionTreeConfig::with_depth(4));
        let train = toy(1);
        let test = toy(2);
        for (name, fit) in paper_method_lineup(base, 3, true) {
            let m = train_eval(&fit, &train, &test, 3);
            assert!(m.aucprc > 0.0, "{name}");
        }
    }
}
