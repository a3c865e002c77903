//! Cross-crate guarantees of the shared runtime and the fallible API:
//! thread count must never change results, and degenerate inputs must
//! surface as error values instead of panics.

use spe::prelude::*;
use std::sync::Arc;

fn imbalanced(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(330, 3);
    let mut y = Vec::new();
    for _ in 0..300 {
        x.push_row(&[
            rng.normal(0.0, 1.0),
            rng.normal(0.0, 1.0),
            rng.normal(0.0, 1.0),
        ]);
    }
    y.resize(y.len() + 300, 0);
    for _ in 0..30 {
        x.push_row(&[
            rng.normal(2.0, 0.6),
            rng.normal(2.0, 0.6),
            rng.normal(-1.5, 0.6),
        ]);
    }
    y.resize(y.len() + 30, 1);
    Dataset::new(x, y)
}

/// Trains with the given thread cap and returns test-set probabilities.
fn probs_with_threads<F>(threads: usize, train: F) -> Vec<f64>
where
    F: FnOnce() -> Vec<f64>,
{
    Runtime::with_threads(threads).install(train)
}

#[test]
fn spe_results_identical_across_thread_counts() {
    let data = imbalanced(41);
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(8)
        .build()
        .unwrap();
    let run = |threads| {
        probs_with_threads(threads, || {
            let model = cfg.try_fit_dataset(&data, 7).unwrap();
            model.predict_proba(data.x())
        })
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.to_bits(), b.to_bits(), "SPE diverges across threads");
    }
}

#[test]
fn bagging_results_identical_across_thread_counts() {
    let data = imbalanced(42);
    let learner = BaggingConfig::new(9);
    let run = |threads| {
        probs_with_threads(threads, || {
            let model = learner.fit(data.x(), data.y(), 5);
            model.predict_proba(data.x())
        })
    };
    let one = run(1);
    let four = run(4);
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.to_bits(), b.to_bits(), "bagging diverges across threads");
    }
}

#[test]
fn random_forest_results_identical_across_thread_counts() {
    let data = imbalanced(43);
    let learner = RandomForestConfig::new(9);
    let run = |threads| {
        probs_with_threads(threads, || {
            let model = learner.fit(data.x(), data.y(), 5);
            model.predict_proba(data.x())
        })
    };
    let one = run(1);
    let four = run(4);
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.to_bits(), b.to_bits(), "forest diverges across threads");
    }
}

/// A chunked fit over many chunks, with sketches that compact on every
/// feature, is byte-identical at 1 and 2 threads: pass 1 sketches the
/// features in parallel, and members train and score on the pool.
#[test]
fn chunked_fit_with_compacting_sketches_identical_across_thread_counts() {
    let data = imbalanced(43);
    let base: SharedLearner = Arc::new(DecisionTreeConfig {
        split_method: SplitMethod::Histogram,
        ..DecisionTreeConfig::default()
    });
    let opts = ChunkedFitOptions {
        sketch_capacity: 16,
        ..ChunkedFitOptions::default()
    };
    let run = |threads| {
        let cfg = SelfPacedEnsembleConfig {
            runtime: Runtime::with_threads(threads),
            ..SelfPacedEnsembleConfig::with_base(6, base.clone())
        };
        let mut src = spe::data::DatasetChunks::new(&data, 23);
        let (model, report) = cfg.try_fit_chunked(&mut src, &opts, 9).unwrap();
        assert!(report.chunks > 10 && report.max_rank_error > 0.0);
        model.predict_proba(data.x())
    };
    let one = run(1);
    let two = run(2);
    assert_eq!(one.len(), two.len());
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "chunked SPE diverges across threads"
        );
    }
}

#[test]
fn runtime_carried_in_config_matches_ambient_install() {
    let data = imbalanced(44);
    let capped = SelfPacedEnsembleConfig::builder()
        .n_estimators(6)
        .runtime(Runtime::with_threads(2))
        .build()
        .unwrap();
    let ambient = SelfPacedEnsembleConfig::builder()
        .n_estimators(6)
        .build()
        .unwrap();
    let a = capped
        .try_fit_dataset(&data, 3)
        .unwrap()
        .predict_proba(data.x());
    let b = Runtime::with_threads(2).install(|| {
        ambient
            .try_fit_dataset(&data, 3)
            .unwrap()
            .predict_proba(data.x())
    });
    assert_eq!(a, b);
}

#[test]
fn single_class_data_is_an_error_not_a_panic() {
    // All-majority: minority class absent.
    let mut x = Matrix::with_capacity(50, 2);
    let mut y = Vec::new();
    for i in 0..50 {
        x.push_row(&[i as f64, -(i as f64)]);
        y.push(0);
    }
    let data = Dataset::new(x, y);
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(4)
        .build()
        .unwrap();
    match cfg.try_fit_dataset(&data, 1) {
        Err(SpeError::EmptyClass { label }) => assert_eq!(label, 1),
        Err(other) => panic!("expected EmptyClass error, got {other}"),
        Ok(_) => panic!("expected EmptyClass error, got a trained model"),
    }
}

#[test]
fn empty_dataset_is_an_error_not_a_panic() {
    let data = Dataset::new(Matrix::with_capacity(0, 2), Vec::new());
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(4)
        .build()
        .unwrap();
    assert_eq!(
        cfg.try_fit_dataset(&data, 1).err(),
        Some(SpeError::EmptyDataset)
    );
}

#[test]
fn builder_rejects_invalid_configuration() {
    let err = SelfPacedEnsembleConfig::builder()
        .n_estimators(0)
        .build()
        .err();
    assert!(matches!(err, Some(SpeError::InvalidConfig(_))));
}

#[test]
fn try_fit_through_learner_trait_reports_mismatch() {
    let data = imbalanced(45);
    let base: SharedLearner = Arc::new(DecisionTreeConfig::with_depth(3));
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(3)
        .base(base)
        .build()
        .unwrap();
    // Labels shorter than the feature matrix → DimensionMismatch.
    let bad_y = vec![0u8; data.len() - 1];
    match cfg.try_fit(data.x(), &bad_y, 1) {
        Err(SpeError::DimensionMismatch { expected, got, .. }) => {
            assert_eq!(expected, data.len());
            assert_eq!(got, data.len() - 1);
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("expected an error"),
    }
}
