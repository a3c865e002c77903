//! Cross-crate fault-tolerance tests: SPE training with deterministic
//! fault injection (`spe-learners` `fault-injection` feature, enabled
//! for this package's tests via dev-dependency feature unification).
//!
//! The contract under test: a panicking, NaN-emitting or stalling base
//! learner never aborts the process or poisons the thread pool — the
//! fit either succeeds (with the degradation visible in the
//! [`FitReport`]) or returns a typed [`SpeError`], and results stay
//! bit-identical across thread counts.

use spe::data::DatasetChunks;
use spe::learners::fault::{FaultPlan, FaultyLearner, NanModel};
use spe::learners::DecisionTreeConfig;
use spe::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Imbalanced overlapping Gaussians (minority at +1.2).
fn overlapping(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
    let mut y = Vec::new();
    for _ in 0..n_neg {
        x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
    }
    y.resize(y.len() + n_neg, 0);
    for _ in 0..n_pos {
        x.push_row(&[rng.normal(1.2, 1.0), rng.normal(1.2, 1.0)]);
    }
    y.resize(y.len() + n_pos, 1);
    Dataset::new(x, y)
}

fn tree() -> Arc<dyn Learner> {
    Arc::new(DecisionTreeConfig::default())
}

#[test]
fn thirty_percent_panics_still_trains_enough_members() {
    let data = overlapping(30, 300, 1);
    let cfg = SelfPacedEnsembleConfig {
        min_members: 5,
        ..SelfPacedEnsembleConfig::with_base(
            10,
            Arc::new(FaultyLearner::panicking(tree(), 0.3, 77)),
        )
    };
    let model = cfg.try_fit_dataset(&data, 2).expect("fit should survive");
    let report = model.fit_report();
    assert!(
        report.n_trained() >= 5,
        "expected >= 5 trained, got {}",
        report.n_trained()
    );
    assert_eq!(report.members.len(), 10);
    // With 30% per-attempt faults and 2 retries, at least one member
    // should have needed a retry across 10 slots (p ≈ 1 - 0.7^... ).
    assert!(
        report.n_retried() + report.n_dropped() > 0,
        "fault injection never fired: {report:?}"
    );
    let probs = model.predict_proba(data.x());
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn faulty_fit_is_thread_count_invariant() {
    let data = overlapping(25, 250, 3);
    let fit_with = |threads: usize| {
        let cfg = SelfPacedEnsembleConfig {
            runtime: Runtime::with_threads(threads),
            ..SelfPacedEnsembleConfig::with_base(
                10,
                Arc::new(FaultyLearner::panicking(tree(), 0.3, 55)),
            )
        };
        let m = cfg.try_fit_dataset(&data, 4).expect("fit survives faults");
        (m.fit_report().clone(), m.predict_proba(data.x()))
    };
    let (report_1, probs_1) = fit_with(1);
    let (report_n, probs_n) = fit_with(8);
    assert_eq!(report_1, report_n, "fault outcomes depend on thread count");
    assert_eq!(probs_1, probs_n, "predictions depend on thread count");
}

#[test]
fn hundred_percent_panics_returns_training_failed_not_abort() {
    let data = overlapping(20, 200, 5);
    let cfg =
        SelfPacedEnsembleConfig::with_base(10, Arc::new(FaultyLearner::panicking(tree(), 1.0, 11)));
    assert_eq!(
        cfg.try_fit_dataset(&data, 6).err(),
        Some(SpeError::TrainingFailed {
            trained: 0,
            required: 1
        })
    );
    // The pool survives: a healthy fit right after works fine.
    let healthy = SelfPacedEnsembleConfig::new(3)
        .try_fit_dataset(&data, 7)
        .expect("pool poisoned by earlier panics");
    assert_eq!(healthy.len(), 3);
}

#[test]
fn nan_emitting_members_are_dropped_or_retried() {
    let data = overlapping(20, 200, 8);
    let cfg = SelfPacedEnsembleConfig::with_base(
        8,
        Arc::new(FaultyLearner::nan_emitting(tree(), 0.4, 21)),
    );
    let model = cfg.try_fit_dataset(&data, 9).expect("fit should survive");
    let report = model.fit_report();
    assert!(report.n_trained() >= 1);
    // Whatever happened, the ensemble's own output must be finite.
    let probs = model.predict_proba(data.x());
    assert!(probs.iter().all(|p| p.is_finite()));
    // NaN members that exhausted retries are recorded with the typed
    // non-finite-output error.
    for outcome in &report.members {
        if let MemberOutcome::Dropped { error } = outcome {
            assert!(matches!(error, SpeError::NonFiniteOutput { .. }));
        }
    }
}

#[test]
fn always_nan_fails_with_training_failed() {
    let data = overlapping(20, 200, 10);
    let cfg = SelfPacedEnsembleConfig::with_base(
        4,
        Arc::new(FaultyLearner::nan_emitting(tree(), 1.0, 31)),
    );
    assert_eq!(
        cfg.try_fit_dataset(&data, 11).err(),
        Some(SpeError::TrainingFailed {
            trained: 0,
            required: 1
        })
    );
}

#[test]
fn stalling_members_trip_the_budget() {
    let data = overlapping(20, 200, 12);
    let cfg = SelfPacedEnsembleConfig {
        budget: TrainingBudget::wall_clock(Duration::from_millis(40)),
        ..SelfPacedEnsembleConfig::with_base(
            12,
            Arc::new(FaultyLearner::stalling(
                tree(),
                1.0,
                Duration::from_millis(30),
                41,
            )),
        )
    };
    let model = cfg.try_fit_dataset(&data, 13).expect("first member trains");
    let report = model.fit_report();
    assert!(report.budget_exhausted, "{report:?}");
    assert!(report.n_skipped() > 0, "{report:?}");
    assert!(model.len() < 12, "budget should cut the ensemble short");
}

#[test]
fn nan_model_is_all_nan() {
    // Sanity-check the injection primitive itself.
    let probs = NanModel.predict_proba(&Matrix::zeros(3, 2));
    assert_eq!(probs.len(), 3);
    assert!(probs.iter().all(|p| p.is_nan()));
}

/// Every fit entry point the fault contract covers.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Entry {
    InMemoryExact,
    InMemoryHistogram,
    Chunked,
    Warm,
    Native,
}

const ENTRIES: [Entry; 5] = [
    Entry::InMemoryExact,
    Entry::InMemoryHistogram,
    Entry::Chunked,
    Entry::Warm,
    Entry::Native,
];

fn split(split_method: SplitMethod) -> Arc<dyn Learner> {
    Arc::new(DecisionTreeConfig {
        split_method,
        ..DecisionTreeConfig::default()
    })
}

/// A fit's report and the model's scores on its training rows.
type Fit = Result<(FitReport, Vec<f64>), SpeError>;

/// One row of the fault table: a fault plan, the config it runs under,
/// and what every entry point must then return.
struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    tweak: fn(&mut SelfPacedEnsembleConfig),
    check: fn(Fit) -> Result<(), String>,
}

/// Fits `entry` with its base tree wrapped in a [`FaultyLearner`] that
/// follows `plan`, after `tweak` adjusts the config.
fn fit_entry(entry: Entry, plan: FaultPlan, tweak: fn(&mut SelfPacedEnsembleConfig)) -> Fit {
    let inner = match entry {
        Entry::InMemoryHistogram | Entry::Chunked => split(SplitMethod::Histogram),
        Entry::InMemoryExact | Entry::Warm => split(SplitMethod::Exact),
        Entry::Native => tree(),
    };
    let mut cfg =
        SelfPacedEnsembleConfig::with_base(10, Arc::new(FaultyLearner::new(inner, plan, 91)));
    tweak(&mut cfg);
    let data = overlapping(30, 600, 14);
    let fitted = |m: SelfPacedEnsemble| (m.fit_report().clone(), m.predict_proba(data.x()));
    match entry {
        Entry::InMemoryExact | Entry::InMemoryHistogram => {
            cfg.try_fit_dataset(&data, 15).map(fitted)
        }
        Entry::Chunked => cfg
            .try_fit_chunked(
                &mut DatasetChunks::new(&data, 128),
                &ChunkedFitOptions::default(),
                15,
            )
            .map(|(m, _)| fitted(m)),
        Entry::Warm => {
            let live = SelfPacedEnsembleConfig::new(3)
                .try_fit_dataset(&data, 16)?
                .predict_proba(data.x());
            cfg.try_fit_dataset_warm(&data, 15, &live).map(fitted)
        }
        Entry::Native => {
            let kway =
                multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(3, 300, 2.0), 17);
            let model = MultiClassSpeConfig {
                binary: cfg,
                strategy: MultiClassStrategy::Native,
                balancing: BalancingSchedule::Uniform,
            }
            .try_fit_dataset(&kway, 15)?;
            Ok((model.fit_report().clone(), model.predict_proba_k(kway.x())))
        }
    }
}

fn degraded_but_ok(fit: Fit) -> Result<(), String> {
    let (report, scores) = fit.map_err(|e| e.to_string())?;
    let ok = report.n_trained() >= 3
        && report.n_retried() + report.n_dropped() > 0
        && scores.iter().all(|p| p.is_finite());
    ok.then_some(()).ok_or(format!("{report:?}"))
}

fn all_failed(fit: Fit) -> Result<(), String> {
    match fit {
        Err(SpeError::TrainingFailed {
            trained: 0,
            required: 1,
        }) => Ok(()),
        other => Err(format!("{:?}", other.map(|(r, _)| r))),
    }
}

fn budget_tripped(fit: Fit) -> Result<(), String> {
    let (report, _) = fit.map_err(|e| e.to_string())?;
    let ok = report.budget_exhausted && report.n_skipped() > 0;
    ok.then_some(()).ok_or(format!("{report:?}"))
}

fn min_members_missed(fit: Fit) -> Result<(), String> {
    match fit {
        Err(SpeError::TrainingFailed {
            trained,
            required: 10,
        }) if trained < 10 => Ok(()),
        other => Err(format!("{:?}", other.map(|(r, _)| r))),
    }
}

fn nan_members_isolated(fit: Fit) -> Result<(), String> {
    degraded_but_ok(fit.clone())?;
    let (report, _) = fit.map_err(|e| e.to_string())?;
    let typed = report.members.iter().all(|o| match o {
        MemberOutcome::Dropped { error } => matches!(error, SpeError::NonFiniteOutput { .. }),
        _ => true,
    });
    typed.then_some(()).ok_or(format!("{report:?}"))
}

/// The same fault scenarios against every fit entry point. There is no
/// chunked NaN row: a chunked member that cannot be compiled to bin
/// space (a NaN model has no snapshot) has no dense rows to fall back
/// on, so it fails the fit instead of retrying.
#[test]
fn fault_contract_holds_on_every_fit_entry_point() {
    let panics = |p| FaultPlan {
        panic_prob: p,
        ..FaultPlan::default()
    };
    let table = [
        Scenario {
            name: "30% panics",
            plan: panics(0.3),
            tweak: |c| c.min_members = 3,
            check: degraded_but_ok,
        },
        Scenario {
            name: "100% panics",
            plan: panics(1.0),
            tweak: |_| {},
            check: all_failed,
        },
        Scenario {
            name: "stall past the budget",
            plan: FaultPlan {
                stall_prob: 1.0,
                stall: Duration::from_millis(30),
                ..FaultPlan::default()
            },
            tweak: |c| c.budget = TrainingBudget::wall_clock(Duration::from_millis(40)),
            check: budget_tripped,
        },
        Scenario {
            name: "min_members miss",
            plan: panics(0.3),
            tweak: |c| {
                c.max_member_retries = 0;
                c.min_members = 10;
            },
            check: min_members_missed,
        },
        Scenario {
            name: "30% NaN members",
            plan: FaultPlan {
                nan_prob: 0.3,
                ..FaultPlan::default()
            },
            tweak: |c| c.min_members = 3,
            check: nan_members_isolated,
        },
    ];
    let mut failures = Vec::new();
    for row in &table {
        for entry in ENTRIES {
            if row.name.contains("NaN") && entry == Entry::Chunked {
                continue;
            }
            if let Err(why) = (row.check)(fit_entry(entry, row.plan, row.tweak)) {
                failures.push(format!("{} / {entry:?}: {why}", row.name));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn faulty_native_fit_is_thread_count_invariant_and_reports_its_slots() {
    let data = multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(3, 300, 2.0), 19);
    let fit_with = |threads: usize| {
        let base = FaultyLearner::new(
            tree(),
            FaultPlan {
                panic_prob: 0.2,
                nan_prob: 0.2,
                ..FaultPlan::default()
            },
            23,
        );
        let model = MultiClassSpeConfig {
            binary: SelfPacedEnsembleConfig {
                runtime: Runtime::with_threads(threads),
                ..SelfPacedEnsembleConfig::with_base(8, Arc::new(base))
            },
            strategy: MultiClassStrategy::Native,
            balancing: BalancingSchedule::Progressive,
        }
        .try_fit_dataset(&data, 24)
        .expect("native fit survives faults");
        let bits: Vec<u64> = model
            .predict_proba_k(data.x())
            .iter()
            .map(|p| p.to_bits())
            .collect();
        (model.fit_report().clone(), bits)
    };
    let (report_1, bits_1) = fit_with(1);
    let (report_4, bits_4) = fit_with(4);
    assert_eq!(report_1, report_4, "fault outcomes depend on thread count");
    assert_eq!(bits_1, bits_4, "native model depends on thread count");
    assert_eq!(report_1.members.len(), 8);
    assert!(report_1.n_retried() > 0, "{report_1:?}");
    assert!(report_1.n_dropped() > 0, "{report_1:?}");
}
