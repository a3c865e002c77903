//! Learner-trait conformance suite: every classifier in the crate must
//! satisfy the same behavioural contract, since SPE and the ensemble
//! baselines treat them interchangeably through `dyn Learner`.

use spe_data::{Matrix, SeededRng};
use spe_learners::traits::Learner;
use spe_learners::{
    AdaBoostConfig, BaggingConfig, DecisionTreeConfig, GbdtConfig, KnnConfig,
    LogisticRegressionConfig, MlpConfig, RandomForestConfig, SvmConfig,
};

fn all_learners() -> Vec<(&'static str, Box<dyn Learner>)> {
    vec![
        ("KNN", Box::new(KnnConfig::new(5))),
        ("DT", Box::new(DecisionTreeConfig::with_depth(6))),
        ("LR", Box::new(LogisticRegressionConfig::default())),
        ("SVM", Box::new(SvmConfig::rbf(100.0, 1.0))),
        ("SVM-linear", Box::new(SvmConfig::linear(10.0))),
        (
            "MLP",
            Box::new(MlpConfig {
                hidden: 8,
                epochs: 10,
                ..MlpConfig::default()
            }),
        ),
        ("AdaBoost", Box::new(AdaBoostConfig::new(5))),
        ("AdaBoost-stumps", Box::new(AdaBoostConfig::stumps(5))),
        ("Bagging", Box::new(BaggingConfig::new(5))),
        ("RF", Box::new(RandomForestConfig::new(5))),
        ("GBDT", Box::new(GbdtConfig::new(5))),
    ]
}

/// Two separable Gaussian blobs.
fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(2 * n_per, 3);
    let mut y = Vec::new();
    for label in [0u8, 1] {
        let c = if label == 0 { -2.0 } else { 2.0 };
        for _ in 0..n_per {
            x.push_row(&[rng.normal(c, 0.8), rng.normal(0.0, 0.8), rng.normal(c, 0.8)]);
            y.push(label);
        }
    }
    (x, y)
}

#[test]
fn probabilities_stay_in_unit_interval() {
    let (x, y) = blobs(60, 1);
    // Probe points far outside the training range stress extrapolation.
    let probe = Matrix::from_vec(2, 3, vec![100.0, -100.0, 50.0, -100.0, 100.0, -50.0]);
    for (name, l) in all_learners() {
        let m = l.fit(&x, &y, 2);
        for p in m
            .predict_proba(&probe)
            .into_iter()
            .chain(m.predict_proba(&x))
        {
            assert!((0.0..=1.0).contains(&p), "{name}: probability {p}");
            assert!(p.is_finite(), "{name}: non-finite probability");
        }
    }
}

#[test]
fn separable_blobs_are_learned() {
    let (x, y) = blobs(100, 3);
    for (name, l) in all_learners() {
        let m = l.fit(&x, &y, 4);
        let acc =
            m.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "{name}: train accuracy {acc}");
    }
}

#[test]
fn deterministic_for_equal_seeds() {
    let (x, y) = blobs(40, 5);
    for (name, l) in all_learners() {
        let a = l.fit(&x, &y, 6).predict_proba(&x);
        let b = l.fit(&x, &y, 6).predict_proba(&x);
        assert_eq!(a, b, "{name} is not seed-deterministic");
    }
}

#[test]
fn single_class_training_yields_constant_model() {
    let x = Matrix::from_vec(6, 3, (0..18).map(f64::from).collect());
    for (name, l) in all_learners() {
        let neg = l.fit(&x, &[0; 6], 7);
        assert_eq!(neg.predict_proba(&x), vec![0.0; 6], "{name} all-negative");
        let pos = l.fit(&x, &[1; 6], 7);
        assert_eq!(pos.predict_proba(&x), vec![1.0; 6], "{name} all-positive");
    }
}

#[test]
fn zero_weight_samples_are_ignored() {
    // Mislabelled points with zero weight must not flip an otherwise
    // clean fit (KNN memorizes them as neighbors with zero vote — still
    // conformant as long as the clean points dominate).
    let (mut x, mut y) = blobs(50, 8);
    let mut w = vec![1.0; y.len()];
    let mut rng = SeededRng::new(9);
    for _ in 0..10 {
        // Poison: positive-labelled points deep in the negative cluster.
        x.push_row(&[rng.normal(-2.0, 0.1), 0.0, rng.normal(-2.0, 0.1)]);
        y.push(1);
        w.push(0.0);
    }
    let probe = Matrix::from_vec(1, 3, vec![-2.0, 0.0, -2.0]);
    for (name, l) in all_learners() {
        let m = l.fit_weighted(&x, &y, Some(&w), 10);
        let p = m.predict_proba(&probe)[0];
        assert!(
            p < 0.5,
            "{name}: poisoned zero-weight points leaked (p = {p})"
        );
    }
}

#[test]
fn weight_scale_invariance() {
    // Multiplying all weights by a constant must not change the model's
    // ranking (checked via predictions on the training set).
    let (x, y) = blobs(40, 11);
    let w1 = vec![1.0; y.len()];
    let w1000: Vec<f64> = w1.iter().map(|w| w * 1000.0).collect();
    for (name, l) in all_learners() {
        let a = l.fit_weighted(&x, &y, Some(&w1), 12).predict(&x);
        let b = l.fit_weighted(&x, &y, Some(&w1000), 12).predict(&x);
        let agree = a.iter().zip(&b).filter(|(p, q)| p == q).count() as f64 / y.len() as f64;
        assert!(
            agree > 0.95,
            "{name}: weight-scale changed {:.0}% of predictions",
            (1.0 - agree) * 100.0
        );
    }
}

#[test]
#[should_panic(expected = "length mismatch")]
fn mismatched_inputs_rejected() {
    let x = Matrix::zeros(3, 2);
    let _ = DecisionTreeConfig::default().fit(&x, &[0, 1], 0);
}
