//! The `SPE_THREADS` environment override. This lives in its own
//! integration-test file so the single test owns the process: the
//! variable is read exactly once, when the global pool is first built,
//! so it must be set before anything touches the pool.

use spe::prelude::*;

fn imbalanced() -> Dataset {
    let mut rng = SeededRng::new(17);
    let mut x = Matrix::with_capacity(220, 2);
    let mut y = Vec::new();
    for _ in 0..200 {
        x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
    }
    y.resize(y.len() + 200, 0);
    for _ in 0..20 {
        x.push_row(&[rng.normal(2.5, 0.5), rng.normal(2.5, 0.5)]);
    }
    y.resize(y.len() + 20, 1);
    Dataset::new(x, y)
}

#[test]
fn spe_threads_env_caps_pool_without_changing_results() {
    std::env::set_var("SPE_THREADS", "1");

    let data = imbalanced();
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(6)
        .build()
        .unwrap();

    // First parallel call builds the pool; the env var pins it to 1.
    let single = cfg
        .try_fit_dataset(&data, 3)
        .unwrap()
        .predict_proba(data.x());
    assert_eq!(spe::runtime::current_threads(), 1);

    // A wider ambient cap schedules differently but must not change a
    // single bit of the output.
    let four = Runtime::with_threads(4).install(|| {
        cfg.try_fit_dataset(&data, 3)
            .unwrap()
            .predict_proba(data.x())
    });
    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&single), bits(&four));
}
