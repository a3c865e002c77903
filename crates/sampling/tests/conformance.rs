//! Sampler-trait conformance suite: shared behavioural contract for all
//! fourteen re-samplers.

use spe_data::{Dataset, Matrix, SeededRng};
use spe_sampling::{
    Adasyn, AllKnn, BorderlineSmote, EditedNearestNeighbours, NearMiss, NearMissVersion,
    NeighbourhoodCleaningRule, NoResampling, OneSideSelection, RandomOverSampler,
    RandomUnderSampler, Sampler, Smote, SmoteEnn, SmoteTomek, TomekLinks,
};

fn all_samplers() -> Vec<Box<dyn Sampler>> {
    vec![
        Box::new(NoResampling),
        Box::new(RandomUnderSampler::default()),
        Box::new(RandomOverSampler::default()),
        Box::new(NearMiss::version(NearMissVersion::V1)),
        Box::new(NearMiss::version(NearMissVersion::V2)),
        Box::new(NearMiss::version(NearMissVersion::V3)),
        Box::new(EditedNearestNeighbours::default()),
        Box::new(TomekLinks),
        Box::new(AllKnn::default()),
        Box::new(OneSideSelection),
        Box::new(NeighbourhoodCleaningRule::default()),
        Box::new(Smote::default()),
        Box::new(Adasyn::default()),
        Box::new(BorderlineSmote::default()),
        Box::new(SmoteEnn::default()),
        Box::new(SmoteTomek::default()),
    ]
}

fn imbalanced(n_pos: usize, n_neg: usize, seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed);
    let mut x = Matrix::with_capacity(n_pos + n_neg, 2);
    let mut y = Vec::new();
    for _ in 0..n_neg {
        x.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]);
    }
    y.resize(y.len() + n_neg, 0);
    for _ in 0..n_pos {
        x.push_row(&[rng.normal(2.0, 1.0), rng.normal(2.0, 1.0)]);
    }
    y.resize(y.len() + n_pos, 1);
    Dataset::new(x, y)
}

#[test]
fn never_drops_the_whole_minority() {
    let d = imbalanced(15, 300, 1);
    for s in all_samplers() {
        let r = s.resample(&d, 2);
        assert!(r.n_positive() > 0, "{} lost the minority", s.name());
        assert!(r.n_negative() > 0, "{} lost the majority", s.name());
    }
}

#[test]
fn never_increases_imbalance() {
    let d = imbalanced(15, 300, 3);
    let original_ir = d.imbalance_ratio();
    for s in all_samplers() {
        let r = s.resample(&d, 4);
        assert!(
            r.imbalance_ratio() <= original_ir + 1e-9,
            "{}: IR went {original_ir:.1} -> {:.1}",
            s.name(),
            r.imbalance_ratio()
        );
    }
}

#[test]
fn feature_width_preserved() {
    let d = imbalanced(12, 120, 5);
    for s in all_samplers() {
        let r = s.resample(&d, 6);
        assert_eq!(r.n_features(), 2, "{}", s.name());
        assert!(!r.is_empty(), "{}", s.name());
    }
}

#[test]
fn deterministic_for_equal_seeds() {
    let d = imbalanced(12, 150, 7);
    for s in all_samplers() {
        let a = s.resample(&d, 8);
        let b = s.resample(&d, 8);
        assert_eq!(a.y(), b.y(), "{} labels differ", s.name());
        assert_eq!(
            a.x().as_slice(),
            b.x().as_slice(),
            "{} features differ",
            s.name()
        );
    }
}

#[test]
fn under_samplers_only_remove_majority_rows() {
    // Every surviving sample of an under-sampler must be an original row.
    let d = imbalanced(10, 120, 9);
    let originals: std::collections::HashSet<[u64; 2]> = d
        .x()
        .iter_rows()
        .map(|r| [r[0].to_bits(), r[1].to_bits()])
        .collect();
    let under: Vec<Box<dyn Sampler>> = vec![
        Box::new(RandomUnderSampler::default()),
        Box::new(NearMiss::default()),
        Box::new(EditedNearestNeighbours::default()),
        Box::new(TomekLinks),
        Box::new(AllKnn::default()),
        Box::new(OneSideSelection),
        Box::new(NeighbourhoodCleaningRule::default()),
    ];
    for s in under {
        let r = s.resample(&d, 10);
        assert!(r.len() <= d.len(), "{} grew the dataset", s.name());
        for row in r.x().iter_rows() {
            assert!(
                originals.contains(&[row[0].to_bits(), row[1].to_bits()]),
                "{} fabricated a sample",
                s.name()
            );
        }
    }
}

#[test]
fn over_samplers_keep_all_original_rows() {
    let d = imbalanced(10, 100, 11);
    let over: Vec<Box<dyn Sampler>> = vec![
        Box::new(RandomOverSampler::default()),
        Box::new(Smote::default()),
        Box::new(Adasyn::default()),
        Box::new(BorderlineSmote::default()),
    ];
    for s in over {
        let r = s.resample(&d, 12);
        assert!(r.len() >= d.len(), "{} shrank the dataset", s.name());
        // Every original row survives (over-samplers may shuffle, so
        // compare as multisets of bit patterns).
        let out: std::collections::HashSet<[u64; 2]> = r
            .x()
            .iter_rows()
            .map(|row| [row[0].to_bits(), row[1].to_bits()])
            .collect();
        for row in d.x().iter_rows() {
            assert!(
                out.contains(&[row[0].to_bits(), row[1].to_bits()]),
                "{} dropped an original sample",
                s.name()
            );
        }
    }
}

#[test]
fn tiny_datasets_do_not_panic() {
    // 2 minority, 3 majority: smaller than every default neighborhood.
    let d = imbalanced(2, 3, 13);
    for s in all_samplers() {
        let r = s.resample(&d, 14);
        assert!(!r.is_empty(), "{}", s.name());
    }
}
