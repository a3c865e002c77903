//! Model-byte pins for every fit path and every tree-growing learner.
//!
//! Each test fits one model and asserts the FNV-1a digest of its
//! encoded snapshot against a recorded constant. A refactor of the fit
//! loops (round driver, member slot, row stores) or of the tree growers
//! must leave every model byte-identical, so these constants do not
//! move. A change that alters models on purpose updates them and says
//! so in CHANGES.md.

use spe::learners::fault::FaultyLearner;
use spe::learners::gbdt::EarlyStopping;
use spe::prelude::*;
use spe::serve::fnv1a;
use std::sync::Arc;

/// Imbalanced overlapping Gaussians (minority shifted by +1.2).
fn overlapping(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(n_pos + n_neg, 3);
    for _ in 0..n_neg {
        x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), rng.uniform()]);
    }
    for _ in 0..n_pos {
        x.push_row(&[rng.normal(1.2, 1.0), rng.normal(1.2, 1.0), rng.uniform()]);
    }
    let mut y = vec![0; n_neg];
    y.resize(n_neg + n_pos, 1);
    Dataset::new(x, y)
}

fn data() -> Dataset {
    overlapping(60, 1_800, 5)
}

fn kway() -> Dataset {
    multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(4, 400, 2.0), 8)
}

fn tree(split_method: SplitMethod) -> SharedLearner {
    Arc::new(DecisionTreeConfig {
        split_method,
        ..DecisionTreeConfig::default()
    })
}

fn exact() -> SharedLearner {
    tree(SplitMethod::Exact)
}

fn hist() -> SharedLearner {
    tree(SplitMethod::Histogram)
}

/// FNV-1a of the model's SPEM bytes (snapshot plus an empty header).
fn digest(model: &dyn Model) -> u64 {
    let snapshot = model.snapshot().expect("built-in members snapshot");
    fnv1a(&ModelEnvelope::new(snapshot, Vec::new()).encode())
}

fn digest_usizes<'a>(rows: impl IntoIterator<Item = &'a Vec<usize>>) -> u64 {
    let bytes: Vec<u8> = rows
        .into_iter()
        .flatten()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn digest_f64s<'a>(rows: impl IntoIterator<Item = &'a Vec<f64>>) -> u64 {
    let bytes: Vec<u8> = rows
        .into_iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn fit(cfg: &SelfPacedEnsembleConfig, d: &Dataset, seed: u64) -> SelfPacedEnsemble {
    cfg.try_fit_dataset(d, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn warm(base: SharedLearner) -> u64 {
    let d = data();
    let cfg = SelfPacedEnsembleConfig::with_base(6, base);
    let live = fit(&cfg, &d, 21).predict_proba(d.x());
    digest(&cfg.try_fit_dataset_warm(&d, 22, &live).unwrap())
}

fn native(base: SharedLearner, balancing: BalancingSchedule) -> u64 {
    let model = MultiClassSpeConfig {
        binary: SelfPacedEnsembleConfig::with_base(5, base),
        strategy: MultiClassStrategy::Native,
        balancing,
    }
    .try_fit_dataset(&kway(), 31)
    .unwrap_or_else(|e| panic!("{e}"));
    digest(&model)
}

#[test]
fn in_memory_exact() {
    let cfg = SelfPacedEnsembleConfig::with_base(8, exact());
    assert_eq!(digest(&fit(&cfg, &data(), 11)), 18396813135597158906);
}

#[test]
fn in_memory_auto_below_threshold() {
    let cfg = SelfPacedEnsembleConfig::new(8);
    assert_eq!(digest(&fit(&cfg, &data(), 12)), 12492599053827558438);
}

#[test]
fn histogram_under_each_alpha_schedule() {
    let got: Vec<u64> = [
        AlphaSchedule::SelfPaced,
        AlphaSchedule::Uniform,
        AlphaSchedule::Constant(0.0),
    ]
    .into_iter()
    .map(|alpha_schedule| {
        let cfg = SelfPacedEnsembleConfig {
            alpha_schedule,
            ..SelfPacedEnsembleConfig::with_base(8, hist())
        };
        digest(&fit(&cfg, &data(), 13))
    })
    .collect();
    assert_eq!(
        got,
        [1940269967014580536, 172424489222898563, 9410799608956178502]
    );
}

#[test]
fn warm_exact() {
    assert_eq!(warm(exact()), 6330930058481869359);
}

#[test]
fn warm_histogram() {
    assert_eq!(warm(hist()), 13804523662379494814);
}

#[test]
fn traced_histogram() {
    let cfg = SelfPacedEnsembleConfig::with_base(6, hist());
    let (model, trace) = cfg.try_fit_dataset_traced(&data(), 14).unwrap();
    assert_eq!(
        (
            digest(&model),
            digest_usizes(&trace.selections),
            digest_f64s(&trace.hardness)
        ),
        (
            16592456560320261770,
            12137554088708720770,
            15979139742000241847
        )
    );
}

#[test]
fn chunked_at_two_chunk_sizes() {
    let d = data();
    let got: Vec<u64> = [97, 700]
        .into_iter()
        .map(|chunk_rows| {
            let mut src = spe::data::DatasetChunks::new(&d, chunk_rows);
            let (model, _) = SelfPacedEnsembleConfig::with_base(6, hist())
                .try_fit_chunked(&mut src, &ChunkedFitOptions::default(), 15)
                .unwrap_or_else(|e| panic!("{e}"));
            digest(&model)
        })
        .collect();
    assert_eq!(got, [6024578690466581908, 6024578690466581908]);
}

/// The same chunked fit with sketches small enough to compact: the
/// 1,860 rows overflow a level of 8, 64 and 256 values.
#[test]
fn chunked_with_compacting_sketches() {
    let d = data();
    let got: Vec<u64> = [8, 64, 256]
        .into_iter()
        .map(|sketch_capacity| {
            let mut src = spe::data::DatasetChunks::new(&d, 97);
            let opts = ChunkedFitOptions {
                sketch_capacity,
                ..ChunkedFitOptions::default()
            };
            let (model, _) = SelfPacedEnsembleConfig::with_base(6, hist())
                .try_fit_chunked(&mut src, &opts, 15)
                .unwrap_or_else(|e| panic!("{e}"));
            digest(&model)
        })
        .collect();
    assert_eq!(
        got,
        [
            6087141697229720122,
            1841769309955756968,
            6786027635147890182
        ]
    );
}

#[test]
fn native_auto_and_histogram_by_schedule() {
    let got = [
        native(
            SelfPacedEnsembleConfig::default().base,
            BalancingSchedule::Uniform,
        ),
        native(
            SelfPacedEnsembleConfig::default().base,
            BalancingSchedule::Progressive,
        ),
        native(hist(), BalancingSchedule::Uniform),
        native(hist(), BalancingSchedule::Progressive),
    ];
    assert_eq!(
        got,
        [
            11273523112722920716,
            11503134978765078186,
            10099673222084014396,
            153180945321470463
        ]
    );
}

#[test]
fn one_vs_rest() {
    let model = MultiClassSpeConfig::new(4)
        .try_fit_dataset(&kway(), 32)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(digest(&model), 5106184676497546465);
}

#[test]
fn thirty_percent_panic_fit() {
    let cfg = SelfPacedEnsembleConfig::with_base(
        10,
        Arc::new(FaultyLearner::panicking(
            Arc::new(DecisionTreeConfig::default()),
            0.3,
            77,
        )),
    );
    let model = fit(&cfg, &overlapping(30, 300, 1), 2);
    let outcomes: Vec<String> = model
        .fit_report()
        .members
        .iter()
        .map(|o| match o {
            MemberOutcome::Trained => "T".to_string(),
            MemberOutcome::Retried { attempts } => format!("R{attempts}"),
            MemberOutcome::Dropped { .. } => "D".to_string(),
            MemberOutcome::Skipped => "S".to_string(),
        })
        .collect();
    assert_eq!(
        (digest(&model), outcomes.join(" ")),
        (11429044489240889426, "T R2 T T R3 T T T R2 T".to_string())
    );
}

/// Overlapping classes with a four-valued column, so split scans meet
/// runs of tied values, plus per-row weights on a 1..4 scale.
fn tied() -> (Dataset, Vec<f64>) {
    let mut rng = SeededRng::new(17);
    let (n_pos, n_neg) = (90, 610);
    let mut x = Matrix::with_capacity(n_pos + n_neg, 4);
    let mut y = Vec::with_capacity(n_pos + n_neg);
    for i in 0..n_pos + n_neg {
        let label = u8::from(i >= n_neg);
        let shift = f64::from(label);
        x.push_row(&[
            rng.normal(shift, 1.0),
            rng.below(4) as f64 + shift,
            rng.normal(0.5 * shift, 1.0),
            rng.uniform(),
        ]);
        y.push(label);
    }
    let w = (0..y.len()).map(|_| 1.0 + 3.0 * rng.uniform()).collect();
    (Dataset::new(x, y), w)
}

fn fit_tied(learner: &dyn Learner, weighted: bool, seed: u64) -> Box<dyn Model> {
    let (d, w) = tied();
    let w = weighted.then_some(w.as_slice());
    learner
        .try_fit_weighted(d.x(), d.y(), w, seed)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn c45_trees_by_engine_and_weights() {
    let got: Vec<u64> = [SplitMethod::Exact, SplitMethod::Histogram]
        .into_iter()
        .flat_map(|split_method| {
            let cfg = DecisionTreeConfig {
                split_method,
                ..DecisionTreeConfig::c45(10)
            };
            [false, true].map(|weighted| digest(fit_tied(&cfg, weighted, 41).as_ref()))
        })
        .collect();
    assert_eq!(
        got,
        [
            3135547061604262118,
            13770760244773869685,
            11515669928736219175,
            14959471437791870203
        ]
    );
}

#[test]
fn sampled_feature_trees_by_engine() {
    let got = [SplitMethod::Exact, SplitMethod::Histogram].map(|split_method| {
        let cfg = DecisionTreeConfig {
            split_method,
            max_features: Some(2),
            min_impurity_decrease: 1e-3,
            min_samples_leaf: 5,
            ..DecisionTreeConfig::default()
        };
        digest(fit_tied(&cfg, false, 42).as_ref())
    });
    assert_eq!(got, [2183856490205314797, 12314411590526443173]);
}

#[test]
fn random_forest_by_engine() {
    let got = [SplitMethod::Exact, SplitMethod::Histogram].map(|split_method| {
        let cfg = RandomForestConfig {
            split_method,
            ..RandomForestConfig::new(5)
        };
        digest(fit_tied(&cfg, false, 43).as_ref())
    });
    assert_eq!(got, [6510589710651523786, 11121867128525405052]);
}

#[test]
fn adaboost_probabilities() {
    // AdaBoost has no snapshot: pin its probabilities on the training rows.
    let model = fit_tied(&AdaBoostConfig::new(8), false, 44);
    let (d, _) = tied();
    assert_eq!(
        digest_f64s([&model.predict_proba(d.x())]),
        4141774776278862510
    );
}

#[test]
fn gbdt_by_engine_and_early_stopping() {
    let got: Vec<u64> = [SplitMethod::Exact, SplitMethod::Histogram]
        .into_iter()
        .flat_map(|split_method| {
            [
                None,
                Some(EarlyStopping {
                    patience: 2,
                    fraction: 0.2,
                }),
            ]
            .map(|early_stopping| {
                let cfg = GbdtConfig {
                    split_method,
                    early_stopping,
                    ..GbdtConfig::new(12)
                };
                digest(fit_tied(&cfg, false, 45).as_ref())
            })
        })
        .collect();
    assert_eq!(
        got,
        [
            12715724744331266861,
            18174348352135978437,
            4608945477528211572,
            10262694655783372239
        ]
    );
}

#[test]
fn cascade_and_under_bagging() {
    let got = [
        digest(fit_tied(&BalanceCascade::new(6), false, 46).as_ref()),
        digest(fit_tied(&UnderBagging::new(6), false, 47).as_ref()),
    ];
    assert_eq!(got, [10584452891826268017, 13601469020094299050]);
}
