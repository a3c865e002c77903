//! Cross-crate tests of the histogram training path: exact-vs-histogram
//! engine agreement, quality parity on the paper's checkerboard task,
//! and determinism across seeds and thread counts.

use proptest::prelude::*;
use spe::learners::traits::{BinnedLearner, BinnedProblem};
use spe::prelude::*;

/// Low-cardinality integer features: every distinct value gets its own
/// bin, so the two engines must induce the same partition.
fn integer_grid(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(n, 3);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.below(8) as f64;
        let b = rng.below(8) as f64;
        let c = rng.below(4) as f64;
        y.push(u8::from(a + b >= 8.0));
        x.push_row(&[a, b, c]);
    }
    (x, y)
}

fn tree(method: SplitMethod) -> DecisionTreeConfig {
    DecisionTreeConfig {
        max_depth: 6,
        split_method: method,
        ..DecisionTreeConfig::default()
    }
}

#[test]
fn engines_agree_on_separable_integer_data() {
    let (x, y) = integer_grid(600, 9);
    let exact = tree(SplitMethod::Exact).fit(&x, &y, 1);
    let hist = tree(SplitMethod::Histogram).fit(&x, &y, 1);
    let pe = exact.predict_proba(&x);
    let ph = hist.predict_proba(&x);
    for (i, (a, b)) in pe.iter().zip(&ph).enumerate() {
        assert!((a - b).abs() < 1e-9, "row {i}: exact {a} vs histogram {b}");
    }
}

#[test]
fn histogram_spe_deterministic_across_thread_counts() {
    let data = checkerboard(&CheckerboardConfig::small(150, 1_500), 21);
    let fit = |threads: usize| {
        let base: SharedLearner = std::sync::Arc::new(tree(SplitMethod::Histogram));
        let cfg = SelfPacedEnsembleConfig {
            runtime: Runtime::with_threads(threads),
            ..SelfPacedEnsembleConfig::with_base(6, base)
        };
        cfg.fit_dataset(&data, 22).predict_proba(data.x())
    };
    let single = fit(1);
    let multi = fit(4);
    assert_eq!(single, multi);
    // Same seed twice => identical model.
    assert_eq!(single, fit(1));
}

#[test]
fn binned_learner_subset_rows_are_honored() {
    // Rows outside the subset must not leak into training: train on a
    // subset whose labels are inverted relative to the rest.
    let (x, _) = integer_grid(400, 33);
    let bins = BinIndex::build(&x, 64);
    let y: Vec<u8> = (0..400).map(|i| u8::from(i % 2 == 0)).collect();
    let rows: Vec<u32> = (0..400u32).filter(|r| r % 2 == 0).collect();
    let cfg = tree(SplitMethod::Histogram);
    let problem = BinnedProblem {
        bins: &bins,
        y: &y,
        weights: None,
    };
    let model = cfg.fit_on_bins(&problem, &rows, 3);
    // Every training row is positive, so the model must predict 1.0.
    let p = model.predict_proba(&x);
    for (r, pi) in p.iter().enumerate() {
        assert!((pi - 1.0).abs() < 1e-12, "row {r} proba {pi}");
    }
}

// On the checkerboard task a histogram-trained tree must match its
// exact-trained sibling's held-out AUCPRC to within tolerance — binning
// coarsens the threshold grid but must not lose the signal. Single-seed
// AUCPRC differences are dominated by how ambiguous overlap-region
// points fall around the (slightly shifted) thresholds and swing ±0.1
// in both directions, so the per-case bound is loose and the tight
// bound is on the mean deficit accumulated across the generated cases.
// Single trees are compared rather than full SPE fits because SPE's
// hardness feedback amplifies any threshold difference into a different
// under-sampling trajectory.
static AUCPRC_DIFFS: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());

proptest! {
    #[test]
    fn histogram_tree_aucprc_close_to_exact(seed in 0u64..10_000) {
        let data = checkerboard(&CheckerboardConfig::small(250, 2_500), seed);
        let split = train_val_test_split(&data, 0.6, 0.2, seed);
        let fit = |method: SplitMethod| {
            DecisionTreeConfig {
                max_depth: 10,
                min_samples_leaf: 8,
                split_method: method,
                ..DecisionTreeConfig::default()
            }
            .fit(split.train.x(), split.train.y(), seed)
        };
        let auc_exact =
            aucprc(split.test.y(), &fit(SplitMethod::Exact).predict_proba(split.test.x()));
        let auc_hist =
            aucprc(split.test.y(), &fit(SplitMethod::Histogram).predict_proba(split.test.x()));
        prop_assert!(
            auc_hist >= auc_exact - 0.20,
            "hist {} vs exact {}", auc_hist, auc_exact
        );
        let (n, mean) = {
            let mut diffs = AUCPRC_DIFFS.lock().unwrap();
            diffs.push(auc_hist - auc_exact);
            (diffs.len(), diffs.iter().sum::<f64>() / diffs.len() as f64)
        };
        prop_assert!(
            n < 16 || mean >= -0.02,
            "mean histogram AUCPRC deficit {} over {} cases exceeds tolerance", -mean, n
        );
    }
}

/// Every fallible fit entry point answers a histogram `max_bins` outside
/// `2..=256` with `InvalidConfig`: no panic escapes, and no member
/// failure is reported in its place.
#[test]
fn out_of_range_max_bins_is_invalid_config_at_every_entry_point() {
    fn base(max_bins: usize) -> SharedLearner {
        std::sync::Arc::new(DecisionTreeConfig {
            max_bins,
            ..tree(SplitMethod::Histogram)
        })
    }
    fn spe(max_bins: usize) -> SelfPacedEnsembleConfig {
        SelfPacedEnsembleConfig::with_base(4, base(max_bins))
    }
    fn multi(max_bins: usize, strategy: MultiClassStrategy) -> MultiClassSpeConfig {
        MultiClassSpeConfig {
            binary: spe(max_bins),
            strategy,
            balancing: BalancingSchedule::Uniform,
        }
    }
    type Entry = fn(usize, &Dataset, &Dataset) -> Result<(), SpeError>;
    let entries: [(&str, Entry); 17] = [
        ("builder", |b, _, _| {
            SelfPacedEnsembleBuilder::new()
                .base(spe(b).base)
                .build()
                .map(drop)
        }),
        ("in-memory", |b, d, _| {
            spe(b).try_fit_dataset(d, 1).map(drop)
        }),
        ("warm", |b, d, _| {
            let live = vec![0.5; d.len()];
            spe(b).try_fit_dataset_warm(d, 1, &live).map(drop)
        }),
        ("traced", |b, d, _| {
            spe(b).try_fit_dataset_traced(d, 1).map(drop)
        }),
        ("chunked", |b, d, _| {
            let mut src = spe::data::DatasetChunks::new(d, 64);
            spe(b)
                .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 1)
                .map(drop)
        }),
        ("native", |b, _, k| {
            multi(b, MultiClassStrategy::Native)
                .try_fit_dataset(k, 1)
                .map(drop)
        }),
        ("one-vs-rest", |b, _, k| {
            multi(b, MultiClassStrategy::OneVsRest)
                .try_fit_dataset(k, 1)
                .map(drop)
        }),
        ("tree", |b, d, _| {
            DecisionTreeConfig {
                max_bins: b,
                ..tree(SplitMethod::Histogram)
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
        ("forest", |b, d, _| {
            RandomForestConfig {
                split_method: SplitMethod::Histogram,
                max_bins: b,
                ..RandomForestConfig::new(3)
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
        ("gbdt", |b, d, _| {
            GbdtConfig {
                split_method: SplitMethod::Histogram,
                max_bins: b,
                ..GbdtConfig::new(3)
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
        ("adaboost", |b, d, _| {
            AdaBoostConfig::with_base(3, base(b))
                .try_fit(d.x(), d.y(), 1)
                .map(drop)
        }),
        ("bagging", |b, d, _| {
            BaggingConfig::with_base(3, base(b))
                .try_fit(d.x(), d.y(), 1)
                .map(drop)
        }),
        ("cascade", |b, d, _| {
            BalanceCascade::with_base(3, base(b))
                .try_fit(d.x(), d.y(), 1)
                .map(drop)
        }),
        ("under-bagging", |b, d, _| {
            UnderBagging::with_base(3, base(b))
                .try_fit(d.x(), d.y(), 1)
                .map(drop)
        }),
        ("smote-bagging", |b, d, _| {
            SmoteBagging {
                n_estimators: 3,
                base: base(b),
                k: 5,
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
        ("rusboost", |b, d, _| {
            RusBoost {
                n_rounds: 3,
                base: base(b),
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
        ("smoteboost", |b, d, _| {
            SmoteBoost {
                n_rounds: 3,
                base: base(b),
                k: 5,
            }
            .try_fit(d.x(), d.y(), 1)
            .map(drop)
        }),
    ];
    let (x, y) = integer_grid(300, 4);
    let data = Dataset::new(x, y);
    let kway = multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(3, 200, 2.0), 5);
    let mut wrong = Vec::new();
    for max_bins in [1, 300] {
        for (name, entry) in entries {
            let got = std::panic::catch_unwind(|| entry(max_bins, &data, &kway));
            if !matches!(got, Ok(Err(SpeError::InvalidConfig(_)))) {
                let got = got.map_err(|_| "panicked");
                wrong.push(format!("{name} with max_bins {max_bins}: {got:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
