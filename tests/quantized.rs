//! Property tests: the u8-quantized serving kernel is *bit-identical*
//! to the f64 prediction path.
//!
//! The kernel's exactness argument (see `spe-serve/src/quantize.rs`)
//! rests on two invariants: (1) the serving cut grid contains exactly
//! the thresholds of the compiled trees, so `encode(v) <= bin(t)` iff
//! `v <= t` for every finite, NaN or infinite `v`; and (2) ensemble
//! reduction replays the f64 path's operation order. These tests attack
//! both with adversarial inputs: duplicated/constant columns, scoring
//! values that hit thresholds exactly, NaN rows, and block-boundary
//! batch sizes.

use proptest::prelude::*;
use spe::data::{encode_batch_into, encode_value};
use spe::learners::{GbdtConfig, Learner};
use spe::prelude::*;

/// Bitwise equality — `==` would let `-0.0` masquerade as `0.0` and
/// hide an op-order divergence.
fn assert_bits_eq(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "row {i}: quantized {g:?} != f64 {w:?}"
        );
    }
}

fn quantize(model: &dyn Model, n_features: usize) -> QuantizedModel {
    let snap = model.snapshot().unwrap_or_else(|| panic!("no snapshot"));
    QuantizedModel::compile(&snap, n_features).unwrap_or_else(|e| panic!("{e}"))
}

/// A training set plus an adversarial scoring batch over the same value
/// grid. Cells come from a coarse lattice so splits collide with scored
/// values; some columns are constant; scoring rows may contain NaN.
fn train_and_batch() -> impl Strategy<Value = (Dataset, Matrix)> {
    (
        20usize..90,
        1usize..5,
        0u64..10_000,
        1usize..80,
        0u8..3, // 0: plain, 1: first column constant, 2: NaN in batch
    )
        .prop_map(|(rows, cols, seed, batch_rows, mode)| {
            let mut rng = SeededRng::new(seed);
            // Lattice values; the occasional negative zero exercises the
            // sign-normalization in the cut grid.
            fn cell(rng: &mut SeededRng, train: bool, mode: u8) -> f64 {
                match rng.below(12) {
                    0 => -0.0,
                    1 => 0.0,
                    2 if !train && mode == 2 => f64::NAN,
                    k => (k as f64 - 6.0) / 2.0,
                }
            }
            let mut x = Matrix::with_capacity(rows, cols);
            let mut y = Vec::with_capacity(rows);
            for i in 0..rows {
                let mut row: Vec<f64> = (0..cols).map(|_| cell(&mut rng, true, mode)).collect();
                if mode == 1 {
                    row[0] = 1.5;
                }
                x.push_row(&row);
                // Guarantee both classes.
                y.push(if i < rows / 2 {
                    (i % 2) as u8
                } else {
                    rng.below(2) as u8
                });
            }
            let mut b = Matrix::with_capacity(batch_rows, cols);
            for _ in 0..batch_rows {
                let mut row: Vec<f64> = (0..cols).map(|_| cell(&mut rng, false, mode)).collect();
                if mode == 1 {
                    row[0] = if rng.below(2) == 0 { 1.5 } else { -1.5 };
                }
                b.push_row(&row);
            }
            (Dataset::new(x, y), b)
        })
}

proptest! {
    #[test]
    fn decision_tree_matches_f64_path((data, batch) in train_and_batch()) {
        let model = DecisionTreeConfig::with_depth(6).fit(data.x(), data.y(), 7);
        let q = quantize(model.as_ref(), data.x().cols());
        assert_bits_eq(&q.predict_proba(&batch), &model.predict_proba(&batch));
    }

    #[test]
    fn gbdt_matches_f64_path((data, batch) in train_and_batch()) {
        let cfg = GbdtConfig {
            n_rounds: 5,
            max_depth: 3,
            ..GbdtConfig::default()
        };
        let model = cfg.fit(data.x(), data.y(), 11);
        let q = quantize(model.as_ref(), data.x().cols());
        assert_bits_eq(&q.predict_proba(&batch), &model.predict_proba(&batch));
    }

    #[test]
    fn spe_matches_f64_path((data, batch) in train_and_batch()) {
        let cfg = SelfPacedEnsembleConfig::builder()
            .n_estimators(3)
            .build()
            .unwrap_or_else(|e| panic!("{e}"));
        if let Ok(model) = cfg.try_fit_dataset(&data, 5) {
            let q = quantize(&model, data.x().cols());
            assert_bits_eq(&q.predict_proba(&batch), &model.predict_proba(&batch));
        }
    }
}

/// Cut grids of 0..=255 cuts (a third of them near the encoder's
/// switch from the direct to the two-level count, a third near the
/// 255-cut ceiling) plus a batch of 1..=70 rows, so both the 16-row
/// panels and the row-at-a-time tail run. Grids are ascending, finite
/// and `-0.0`-free, on a 0.5 lattice with random gaps (so `0.0` can be
/// a cut). Values are cuts, their float neighbours, both zeros, both
/// infinities, NaN of either sign and random finite values around the
/// grid.
fn grids_and_batch() -> impl Strategy<Value = (Vec<Vec<f64>>, Matrix)> {
    (1usize..6, 1usize..71, 0u64..1_000_000).prop_map(|(cols, rows, seed)| {
        let mut rng = SeededRng::new(seed);
        let cuts: Vec<Vec<f64>> = (0..cols)
            .map(|_| {
                let len = match rng.below(3) {
                    0 => rng.below(256),
                    1 => 16 + rng.below(24),
                    _ => 240 + rng.below(16),
                };
                // `0.0 -` keeps a zero start `+0.0`.
                let mut c = 0.0 - rng.below(400) as f64 * 0.5;
                (0..len)
                    .map(|_| {
                        let cut = c;
                        c += if rng.below(2) == 0 {
                            (1 + rng.below(3)) as f64 * 0.5
                        } else {
                            0.01 + rng.uniform() * 2.0
                        };
                        cut
                    })
                    .collect()
            })
            .collect();
        let mut x = Matrix::with_capacity(rows, cols);
        for _ in 0..rows {
            let row: Vec<f64> = cuts
                .iter()
                .map(|grid| {
                    let cut = if grid.is_empty() {
                        rng.normal(0.0, 10.0)
                    } else {
                        grid[rng.below(grid.len())]
                    };
                    match rng.below(11) {
                        0 => cut,
                        1 => cut.next_up(),
                        2 => cut.next_down(),
                        3 => 0.0,
                        4 => -0.0,
                        5 => f64::INFINITY,
                        6 => f64::NEG_INFINITY,
                        7 => f64::NAN,
                        8 => -f64::NAN,
                        _ => cut + rng.normal(0.0, 3.0),
                    }
                })
                .collect();
            x.push_row(&row);
        }
        (cuts, x)
    })
}

proptest! {
    #[test]
    fn batch_encoder_matches_encode_value_cell_by_cell((cuts, x) in grids_and_batch()) {
        let mut codes = vec![0u8; x.rows() * x.cols()];
        encode_batch_into(&cuts, x.view(), &mut codes);
        for r in 0..x.rows() {
            for (f, grid) in cuts.iter().enumerate() {
                let v = x.get(r, f);
                prop_assert_eq!(
                    codes[f * x.rows() + r],
                    encode_value(grid, v),
                    "row {} of {}, feature {}, value {:?}, grid of {} cuts",
                    r,
                    x.rows(),
                    f,
                    v,
                    grid.len()
                );
            }
        }
    }
}

/// Block- and lane-boundary batch sizes through the zero-alloc path:
/// 1 (scalar tail only), 63/65 (partial lanes), 64 (exact lanes).
#[test]
fn boundary_batch_sizes_are_exact() {
    let data = credit_fraud_sim(2_000, 7);
    let score = credit_fraud_sim(200, 8);
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(5)
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    let model = cfg
        .try_fit_dataset(&data, 42)
        .unwrap_or_else(|e| panic!("{e}"));
    let q = quantize(&model, data.x().cols());
    for batch in [1usize, 63, 64, 65] {
        let n = batch.min(score.len());
        let x = score.x().row_range(0..n);
        let mut out = vec![0.0; n];
        q.predict_proba_into(x.view(), &mut out);
        assert_bits_eq(&out, &model.predict_proba(&x));
    }
}

/// Saving a *quantized* model writes the source snapshot, so a reload
/// re-compiles deterministically: same envelope kind, same scores, bit
/// for bit — no second on-disk format.
#[test]
fn spem_round_trip_recompiles_bit_identically() {
    let data = credit_fraud_sim(2_000, 7);
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(5)
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    let model = cfg
        .try_fit_dataset(&data, 42)
        .unwrap_or_else(|e| panic!("{e}"));
    let q = quantize(&model, data.x().cols());
    let want = model.predict_proba(data.x());
    assert_bits_eq(&q.predict_proba(data.x()), &want);

    let path = std::env::temp_dir().join(format!(
        "spe-quantized-roundtrip-{}.spe",
        std::process::id()
    ));
    save_model(&path, &q, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
    // The envelope holds the SPE source snapshot, so the typed loader
    // still works...
    let env = load_envelope(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(env.model_kind, "SPE");
    let loaded = load_spe(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_bits_eq(&loaded.predict_proba(data.x()), &want);
    // ...and re-quantizing the reloaded model lands on the same kernel.
    let q2 = quantize(&loaded, data.x().cols());
    assert_eq!(q2.n_trees(), q.n_trees());
    assert_eq!(q2.n_members(), q.n_members());
    assert_bits_eq(&q2.predict_proba(data.x()), &want);
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
}
