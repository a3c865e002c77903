//! Multi-class pathway guarantees, end to end:
//!
//! - **k = 2 is binary, bit for bit** (property-based): a
//!   [`MultiClassSpeConfig`] fit on two-class data must reproduce the
//!   plain binary [`SelfPacedEnsembleConfig`] fit exactly — same
//!   probabilities to the last bit, same `"SPE"` envelope kind on disk,
//!   so every pre-multi-class tool keeps working.
//! - **k-class models round-trip through SPEM**: save → load →
//!   bit-identical `[n_rows × k]` distributions, with the class count
//!   stamped in the version-2 header.
//! - **Version-1 envelopes still decode**: a v1 file (no `n_classes`
//!   header field) is reconstructed byte-surgically from a v2 save and
//!   must load as a binary model with identical scores.
//! - A v2 header whose class count disagrees with its payload is
//!   `Corrupt`, not silently trusted.

use proptest::prelude::*;
use spe::prelude::*;
use spe::serve::{fnv1a, load_envelope, load_model, save_model, FORMAT_VERSION, MAGIC};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp path per call so parallel test threads never collide.
fn tmp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spe-multiclass-{}-{tag}-{n}.spe",
        std::process::id()
    ));
    p
}

/// Strategy: a small two-class dataset plus a train seed.
fn binary_task() -> impl Strategy<Value = (Dataset, u64)> {
    (4usize..10, 24usize..60, 0u64..1_000).prop_map(|(n_pos, n_neg, seed)| {
        let mut rng = SeededRng::new(seed);
        let n = n_pos + n_neg;
        let mut x = Matrix::with_capacity(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = u8::from(i < n_pos);
            let c = if label == 1 { 1.2 } else { -1.2 };
            x.push_row(&[
                rng.normal(c, 1.0),
                rng.normal(-c, 1.0),
                rng.normal(0.0, 1.0),
            ]);
            y.push(label);
        }
        (Dataset::new(x, y), seed ^ 0xABCD)
    })
}

/// A small k-class dataset from the checkerboard generator.
fn kway_data(k: usize, seed: u64) -> Dataset {
    multiclass_checkerboard(&MultiClassCheckerboardConfig::geometric(k, 120, 2.0), seed)
}

proptest! {
    // The tentpole's backward-compatibility contract: routing binary
    // data through the multi-class front door changes nothing. Same
    // members, same probabilities (bit-exact), and the saved envelope
    // is a plain binary "SPE" — not a one-member MultiClass wrapper.
    #[test]
    fn k2_fit_is_bitwise_binary(((data, seed), members) in (binary_task(), 2usize..6)) {
        let binary = SelfPacedEnsembleConfig::new(members)
            .try_fit_dataset(&data, seed)
            .unwrap_or_else(|e| panic!("{e}"));
        let multi = MultiClassSpeConfig::new(members)
            .try_fit_dataset(&data, seed)
            .unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(multi.n_classes(), 2);

        let p_bin = binary.predict_proba(data.x());
        let p_multi = multi.predict_proba(data.x());
        for (a, b) in p_bin.iter().zip(&p_multi) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "k=2 fit drifted from binary");
        }
        // The k-wide view must be the exact [1 - p, p] expansion.
        let wide = multi.predict_proba_k(data.x());
        for (i, p) in p_bin.iter().enumerate() {
            prop_assert_eq!(wide[2 * i + 1].to_bits(), p.to_bits());
            prop_assert_eq!(wide[2 * i].to_bits(), (1.0 - p).to_bits());
        }
        // On disk it is indistinguishable from a binary-era model.
        let path = tmp_path("k2");
        save_model(&path, &multi, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
        let env = load_envelope(&path).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(env.model_kind.as_str(), "SPE");
        prop_assert_eq!(env.n_classes, 2);
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }

    // K-class SPEM round trip: the restored model's full distributions
    // are bit-identical and the header carries the class count.
    #[test]
    fn kway_model_round_trips((k, seed) in (3usize..6, 0u64..500)) {
        let data = kway_data(k, seed);
        let model = MultiClassSpeConfig::new(3)
            .try_fit_dataset(&data, seed)
            .unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(model.n_classes(), k);

        let path = tmp_path("kway");
        save_model(&path, &model, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
        let env = load_envelope(&path).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(env.model_kind.as_str(), "MultiClass");
        prop_assert_eq!(env.n_classes, k);

        let loaded = load_model(&path).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(loaded.n_classes(), k);
        let before = model.predict_proba_k(data.x());
        let after = loaded.predict_proba_k(data.x());
        for (a, b) in before.iter().zip(&after) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "loaded distributions drifted");
        }
        std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Saves a binary model and rewrites its bytes as a version-1 envelope:
/// the 4-byte `n_classes` header field (bytes 8..12 of a v2 file) is
/// cut out, the version is stamped back to 1 and the checksum re-done —
/// exactly the layout every pre-multi-class build wrote.
fn as_v1_bytes(v2: &[u8]) -> Vec<u8> {
    const { assert!(FORMAT_VERSION >= 2, "surgery assumes a v2 writer") };
    let mut v1 = Vec::with_capacity(v2.len() - 4);
    v1.extend_from_slice(&v2[..MAGIC.len()]);
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&v2[MAGIC.len() + 8..v2.len() - 8]);
    let checksum = fnv1a(&v1);
    v1.extend_from_slice(&checksum.to_le_bytes());
    v1
}

#[test]
fn v1_binary_envelope_still_decodes() {
    let (data, seed) = (kway_data(2, 9), 9);
    let model = SelfPacedEnsembleConfig::new(3)
        .try_fit_dataset(&data, seed)
        .unwrap_or_else(|e| panic!("{e}"));
    let path = tmp_path("v1");
    save_model(&path, &model, vec![("era".into(), "binary".into())])
        .unwrap_or_else(|e| panic!("{e}"));
    let v2 = std::fs::read(&path).unwrap_or_else(|e| panic!("{e}"));

    let env = spe::serve::ModelEnvelope::decode(&as_v1_bytes(&v2))
        .unwrap_or_else(|e| panic!("v1 envelope rejected: {e}"));
    assert_eq!(env.n_classes, 2, "v1 files are binary by construction");
    assert_eq!(env.model_kind, "SPE");
    assert_eq!(
        env.metadata,
        vec![("era".to_string(), "binary".to_string())]
    );
    let restored = env.snapshot.restore();
    let before = model.predict_proba(data.x());
    let after = restored.predict_proba(data.x());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.to_bits(), b.to_bits(), "v1-decoded model drifted");
    }
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn header_class_count_must_match_payload() {
    let data = kway_data(2, 5);
    let model = SelfPacedEnsembleConfig::new(2)
        .try_fit_dataset(&data, 5)
        .unwrap_or_else(|e| panic!("{e}"));
    let path = tmp_path("liar");
    save_model(&path, &model, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
    let mut bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{e}"));
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));

    // Claim five classes over a binary payload and re-stamp the
    // checksum so only the header lie remains.
    bytes[MAGIC.len()..MAGIC.len() + 8]
        .copy_from_slice(&[FORMAT_VERSION.to_le_bytes(), 5u32.to_le_bytes()].concat());
    let body = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    match spe::serve::ModelEnvelope::decode(&bytes) {
        Err(ServeError::Corrupt(msg)) => {
            assert!(msg.contains("classes"), "unhelpful message: {msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn kway_class_predictions_beat_chance_on_every_class() {
    // Sanity that the full pipeline learns: 4-class geometric-imbalance
    // checkerboard, macro metrics from the k-way confusion matrix.
    let data = kway_data(4, 77);
    let model = MultiClassSpeConfig::new(5)
        .try_fit_dataset(&data, 77)
        .unwrap_or_else(|e| panic!("{e}"));
    let pred = model.predict_class(data.x());
    let cm = MultiConfusion::from_labels(data.y(), &pred, 4);
    for (c, r) in cm.per_class_recall().iter().enumerate() {
        assert!(*r > 0.25, "class {c} recall {r} is at or below chance");
    }
    assert!(cm.macro_f1() > 0.5, "macro-F1 {}", cm.macro_f1());
}
