//! Model snapshots: the serializable closed-world view of every
//! built-in classifier.
//!
//! `dyn Model` trait objects cannot be serialized directly, so each
//! built-in model exposes an owned [`ModelSnapshot`] via
//! [`Model::snapshot`](crate::traits::Model::snapshot). The snapshot is
//! a plain enum over the concrete model structs — it round-trips through
//! the compact binary codec in the vendored `serde` crate and restores
//! to a fresh `Box<dyn Model>` with bit-identical predictions.
//!
//! Two deliberate design points:
//!
//! - Models without persistence support (MLP, AdaBoost, user-defined
//!   models) simply return `None` from `snapshot()`; the
//!   serving layer turns that into a typed "unsupported model" error
//!   instead of a panic.
//! - The `SelfPaced` variant stores plain data (per-member hardness
//!   weights plus member snapshots) so this crate does not depend on
//!   `spe-core`. Restoring it *here* yields a [`SoftVoteEnsemble`] —
//!   prediction-identical to the original, since SPE's combination rule
//!   is an unweighted soft vote — while `spe-serve` special-cases the
//!   variant to rebuild a typed `SelfPacedEnsemble`.
//!
//! Decoding is defensive: it is expected to run on bytes that passed an
//! envelope checksum but may still be adversarially malformed. Unknown
//! tags, empty ensembles, mismatched lengths and over-deep nesting all
//! come back as [`DecodeError`], never a panic.

use crate::ensemble::SoftVoteEnsemble;
use crate::gbdt::GbdtModel;
use crate::knn::KnnModel;
use crate::logistic::LogisticModel;
use crate::svm::SvmModel;
use crate::traits::{ConstantModel, Model};
use crate::tree::TreeModel;
use serde::{DecodeError, Deserialize, Reader, Serialize, Writer};

/// Nesting budget for ensemble-of-ensemble snapshots. Real models are
/// at most two levels deep (SPE/SoftVote over base learners); the cap
/// keeps a crafted payload from recursing the decoder off the stack.
const MAX_NESTING: usize = 16;

/// Serializable snapshot of a trained model.
///
/// Obtain one with [`Model::snapshot`]; turn it back into a scoring
/// model with [`ModelSnapshot::restore`].
#[derive(Clone)]
pub enum ModelSnapshot {
    /// Degenerate single-class model (constant probability).
    Constant(f64),
    /// Classification decision tree (flat arena).
    Tree(TreeModel),
    /// K-nearest-neighbors (memorized training set).
    Knn(KnnModel),
    /// Logistic regression (standardizer + linear weights).
    Logistic(LogisticModel),
    /// RFF + Pegasos SVM with Platt calibration.
    Svm(SvmModel),
    /// Gradient-boosted regression trees with logistic link.
    Gbdt(GbdtModel),
    /// Unweighted soft-voting ensemble (Bagging, Random Forest, ...).
    SoftVote(Vec<ModelSnapshot>),
    /// Self-paced ensemble: member snapshots plus the per-member
    /// self-paced hardness weights recorded at fit time. The weights do
    /// not affect prediction (SPE votes unweighted) but are preserved so
    /// a typed `SelfPacedEnsemble` can be rebuilt losslessly upstream.
    SelfPaced {
        /// Self-paced weight `alpha_i` for each member, in fit order.
        alphas: Vec<f64>,
        /// Member snapshots, in fit order.
        members: Vec<ModelSnapshot>,
    },
    /// K-class model in one-vs-rest form: one binary scorer per class,
    /// in class-id order (element `c` scores class `c`). Both
    /// multi-class SPE strategies snapshot to this shape — the native
    /// strategy regroups its joint members per class first — so one
    /// variant covers the whole k-way model zoo.
    MultiClass {
        /// Per-class scorer snapshots; length is the class count `k`.
        per_class: Vec<ModelSnapshot>,
    },
}

const TAG_CONSTANT: u8 = 0;
const TAG_TREE: u8 = 1;
const TAG_KNN: u8 = 2;
const TAG_LOGISTIC: u8 = 3;
const TAG_SVM: u8 = 4;
const TAG_GBDT: u8 = 5;
const TAG_SOFT_VOTE: u8 = 6;
const TAG_SELF_PACED: u8 = 7;
const TAG_MULTI_CLASS: u8 = 8;

impl ModelSnapshot {
    /// Short kind string stored in the envelope header and checked on
    /// load (`"DT"`, `"KNN"`, `"SPE"`, ...). Matches the learner
    /// display names used in the experiment tables where one exists.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Constant(_) => "Constant",
            Self::Tree(_) => "DT",
            Self::Knn(_) => "KNN",
            Self::Logistic(_) => "LR",
            Self::Svm(_) => "SVM",
            Self::Gbdt(_) => "GBDT",
            Self::SoftVote(_) => "SoftVote",
            Self::SelfPaced { .. } => "SPE",
            Self::MultiClass { .. } => "MultiClass",
        }
    }

    /// Number of ensemble members, or 1 for base models. A multi-class
    /// snapshot reports its per-class scorer count.
    pub fn n_members(&self) -> usize {
        match self {
            Self::SoftVote(members) | Self::SelfPaced { members, .. } => members.len(),
            Self::MultiClass { per_class } => per_class.len(),
            _ => 1,
        }
    }

    /// Number of classes this model scores over: the per-class scorer
    /// count for a multi-class snapshot, 2 for everything else.
    pub fn n_classes(&self) -> usize {
        match self {
            Self::MultiClass { per_class } => per_class.len(),
            _ => 2,
        }
    }

    /// Rebuilds a scoring model from the snapshot.
    ///
    /// Predictions of the restored model are bit-identical to the model
    /// the snapshot was taken from. `SelfPaced` restores as a
    /// [`SoftVoteEnsemble`] at this layer (same predictions; the typed
    /// SPE wrapper lives in `spe-core` and is rebuilt by `spe-serve`).
    pub fn restore(self) -> Box<dyn Model> {
        match self {
            Self::Constant(p) => Box::new(ConstantModel(p)),
            Self::Tree(m) => Box::new(m),
            Self::Knn(m) => Box::new(m),
            Self::Logistic(m) => Box::new(m),
            Self::Svm(m) => Box::new(m),
            Self::Gbdt(m) => Box::new(m),
            Self::SoftVote(members) | Self::SelfPaced { members, .. } => {
                let models = members.into_iter().map(Self::restore).collect();
                // Decode rejects empty member lists, and snapshot() only
                // captures live (non-empty) ensembles, so this cannot
                // panic.
                Box::new(SoftVoteEnsemble::new(models))
            }
            Self::MultiClass { per_class } => {
                let scorers = per_class.into_iter().map(Self::restore).collect();
                // Decode rejects multi-class snapshots with fewer than
                // two scorers, so this cannot panic either.
                Box::new(crate::multiclass::OneVsRestModel::new(scorers))
            }
        }
    }

    fn decode(r: &mut Reader<'_>, depth: usize) -> Result<Self, DecodeError> {
        if depth > MAX_NESTING {
            return Err(DecodeError::Invalid(format!(
                "model nesting exceeds {MAX_NESTING} levels"
            )));
        }
        let decode_members = |r: &mut Reader<'_>| -> Result<Vec<Self>, DecodeError> {
            let n = r.get_len()?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(Self::decode(r, depth + 1)?);
            }
            if members.is_empty() {
                return Err(DecodeError::Invalid("ensemble with zero members".into()));
            }
            Ok(members)
        };
        match r.get_u8()? {
            TAG_CONSTANT => {
                let p = r.get_f64()?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(DecodeError::Invalid(format!(
                        "constant probability {p} outside [0, 1]"
                    )));
                }
                Ok(Self::Constant(p))
            }
            TAG_TREE => Ok(Self::Tree(TreeModel::deserialize(r)?)),
            TAG_KNN => Ok(Self::Knn(KnnModel::deserialize(r)?)),
            TAG_LOGISTIC => Ok(Self::Logistic(LogisticModel::deserialize(r)?)),
            TAG_SVM => Ok(Self::Svm(SvmModel::deserialize(r)?)),
            TAG_GBDT => Ok(Self::Gbdt(GbdtModel::deserialize(r)?)),
            TAG_SOFT_VOTE => Ok(Self::SoftVote(decode_members(r)?)),
            TAG_SELF_PACED => {
                let alphas = Vec::<f64>::deserialize(r)?;
                let members = decode_members(r)?;
                if alphas.len() != members.len() {
                    return Err(DecodeError::Invalid(format!(
                        "{} alphas for {} members",
                        alphas.len(),
                        members.len()
                    )));
                }
                Ok(Self::SelfPaced { alphas, members })
            }
            TAG_MULTI_CLASS => {
                let per_class = decode_members(r)?;
                if per_class.len() < 2 {
                    return Err(DecodeError::Invalid(format!(
                        "multi-class model with {} class scorer(s)",
                        per_class.len()
                    )));
                }
                Ok(Self::MultiClass { per_class })
            }
            tag => Err(DecodeError::Invalid(format!("unknown model tag {tag}"))),
        }
    }
}

impl Serialize for ModelSnapshot {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Self::Constant(p) => {
                w.put_u8(TAG_CONSTANT);
                w.put_f64(*p);
            }
            Self::Tree(m) => {
                w.put_u8(TAG_TREE);
                m.serialize(w);
            }
            Self::Knn(m) => {
                w.put_u8(TAG_KNN);
                m.serialize(w);
            }
            Self::Logistic(m) => {
                w.put_u8(TAG_LOGISTIC);
                m.serialize(w);
            }
            Self::Svm(m) => {
                w.put_u8(TAG_SVM);
                m.serialize(w);
            }
            Self::Gbdt(m) => {
                w.put_u8(TAG_GBDT);
                m.serialize(w);
            }
            Self::SoftVote(members) => {
                w.put_u8(TAG_SOFT_VOTE);
                members.serialize(w);
            }
            Self::SelfPaced { alphas, members } => {
                w.put_u8(TAG_SELF_PACED);
                alphas.serialize(w);
                members.serialize(w);
            }
            Self::MultiClass { per_class } => {
                w.put_u8(TAG_MULTI_CLASS);
                per_class.serialize(w);
            }
        }
    }
}

impl Deserialize for ModelSnapshot {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Self::decode(r, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtConfig;
    use crate::knn::KnnConfig;
    use crate::logistic::LogisticRegressionConfig;
    use crate::svm::SvmConfig;
    use crate::traits::Learner;
    use crate::tree::DecisionTreeConfig;
    use spe_data::{Matrix, SeededRng};

    fn blob_data(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = u8::from(i % 4 == 0);
            let c = if label == 1 { 1.5 } else { -1.5 };
            x.push_row(&[
                rng.normal(c, 1.0),
                rng.normal(-c, 1.0),
                rng.normal(0.0, 1.0),
            ]);
            y.push(label);
        }
        (x, y)
    }

    fn round_trip(snap: ModelSnapshot) -> ModelSnapshot {
        ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn base_learners_round_trip_bit_identical() {
        let (x, y) = blob_data(160, 7);
        let learners: Vec<Box<dyn Learner>> = vec![
            Box::new(DecisionTreeConfig::default()),
            Box::new(KnnConfig::default()),
            Box::new(LogisticRegressionConfig::default()),
            Box::new(SvmConfig::default()),
            Box::new(GbdtConfig::new(5)),
        ];
        for learner in learners {
            let model = learner.fit(&x, &y, 11);
            let snap = model
                .snapshot()
                .unwrap_or_else(|| panic!("{} has no snapshot", learner.name()));
            let restored = round_trip(snap).restore();
            assert_eq!(
                model.predict_proba(&x),
                restored.predict_proba(&x),
                "{} round trip drifted",
                learner.name()
            );
        }
    }

    #[test]
    fn kind_strings_are_stable() {
        let (x, y) = blob_data(80, 3);
        let snap = DecisionTreeConfig::default()
            .fit(&x, &y, 0)
            .snapshot()
            .unwrap_or_else(|| panic!("tree has no snapshot"));
        assert_eq!(snap.kind(), "DT");
        assert_eq!(ModelSnapshot::Constant(0.5).kind(), "Constant");
        assert_eq!(ModelSnapshot::SoftVote(vec![snap]).kind(), "SoftVote");
    }

    #[test]
    fn unsupported_models_return_none() {
        let (x, y) = blob_data(60, 5);
        let m = crate::mlp::MlpConfig::default().fit(&x, &y, 1);
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn self_paced_restores_as_soft_vote() {
        let (x, y) = blob_data(120, 9);
        let members: Vec<ModelSnapshot> = (0..4)
            .map(|s| {
                DecisionTreeConfig::with_depth(3)
                    .fit(&x, &y, s)
                    .snapshot()
                    .unwrap_or_else(|| panic!("tree has no snapshot"))
            })
            .collect();
        let snap = ModelSnapshot::SelfPaced {
            alphas: vec![0.9, 0.7, 0.5, 0.3],
            members: members.clone(),
        };
        assert_eq!(snap.kind(), "SPE");
        assert_eq!(snap.n_members(), 4);
        let restored = round_trip(snap).restore();
        let vote = SoftVoteEnsemble::new(members.into_iter().map(ModelSnapshot::restore).collect());
        assert_eq!(restored.predict_proba(&x), vote.predict_proba(&x));
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        // Unknown tag.
        assert!(ModelSnapshot::from_bytes(&[200]).is_err());
        // Constant probability outside [0, 1].
        let mut w = Writer::new();
        w.put_u8(TAG_CONSTANT);
        w.put_f64(3.0);
        assert!(ModelSnapshot::from_bytes(&w.into_bytes()).is_err());
        // Empty soft-vote ensemble.
        let mut w = Writer::new();
        w.put_u8(TAG_SOFT_VOTE);
        w.put_u64(0);
        assert!(ModelSnapshot::from_bytes(&w.into_bytes()).is_err());
        // Alpha/member length mismatch.
        let mut w = Writer::new();
        w.put_u8(TAG_SELF_PACED);
        vec![0.5f64, 0.5].serialize(&mut w);
        w.put_u64(1);
        w.put_u8(TAG_CONSTANT);
        w.put_f64(0.5);
        assert!(ModelSnapshot::from_bytes(&w.into_bytes()).is_err());
        // Truncation at every prefix must error, never panic.
        let (x, y) = blob_data(60, 2);
        let snap = DecisionTreeConfig::with_depth(2)
            .fit(&x, &y, 0)
            .snapshot()
            .unwrap_or_else(|| panic!("tree has no snapshot"));
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ModelSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_tree_arenas() {
        // Arenas as (feature, left, right); `u32::MAX` marks a leaf.
        type Nodes<'a> = &'a [(u32, u32, u32)];
        const LEAF: u32 = u32::MAX;
        let put_arena = |w: &mut Writer, nodes: Nodes| {
            w.put_u64(nodes.len() as u64);
            for &(feature, left, right) in nodes {
                w.put_u32(feature);
                w.put_u32(left);
                w.put_u32(right);
                w.put_f64(0.5);
            }
        };
        let payloads = |nodes: Nodes| {
            let mut tree = Writer::new();
            tree.put_u8(TAG_TREE);
            put_arena(&mut tree, nodes);
            let mut gbdt = Writer::new();
            gbdt.put_u8(TAG_GBDT);
            gbdt.put_f64(0.0);
            gbdt.put_f64(0.3);
            gbdt.put_u64(1);
            put_arena(&mut gbdt, nodes);
            [("tree", tree.into_bytes()), ("gbdt", gbdt.into_bytes())]
        };
        // The hand-written encoding is the real one: a well-formed arena decodes.
        for (kind, bytes) in payloads(&[(0, 1, 2), (LEAF, 0, 0), (LEAF, 0, 0)]) {
            let got = ModelSnapshot::from_bytes(&bytes).map(|s| s.kind());
            assert!(got.is_ok(), "{kind}: {got:?}");
        }
        let malformed: [(&str, Nodes); 4] = [
            ("empty arena", &[]),
            ("child is itself", &[(0, 0, 1), (LEAF, 0, 0)]),
            (
                "child points backward",
                &[(0, 1, 3), (0, 0, 2), (LEAF, 0, 0), (LEAF, 0, 0)],
            ),
            ("child past the end", &[(0, 1, 2), (LEAF, 0, 0)]),
        ];
        for (name, nodes) in malformed {
            for (kind, bytes) in payloads(nodes) {
                let got = std::panic::catch_unwind(|| {
                    ModelSnapshot::from_bytes(&bytes).map(|s| s.kind())
                });
                assert!(
                    matches!(got, Ok(Err(DecodeError::Invalid(_)))),
                    "{kind} / {name}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn over_deep_nesting_rejected() {
        // A crafted chain of one-member ensembles deeper than the cap
        // must be rejected without recursing the decoder off the stack.
        let mut w = Writer::new();
        for _ in 0..(MAX_NESTING + 2) {
            w.put_u8(TAG_SOFT_VOTE);
            w.put_u64(1);
        }
        w.put_u8(TAG_CONSTANT);
        w.put_f64(0.5);
        let err = ModelSnapshot::from_bytes(&w.into_bytes()).map(|s| s.kind());
        assert!(matches!(err, Err(DecodeError::Invalid(_))), "{err:?}");
    }
}
