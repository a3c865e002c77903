//! The `Learner` / `Model` trait pair every classifier implements.

use crate::persist::ModelSnapshot;
use spe_data::binning::MAX_BINS;
use spe_data::{BinIndex, Matrix, MatrixView, SpeError};
use std::fmt;
use std::sync::Arc;

/// How a trained model constrains the width (feature count) of the rows
/// it scores.
///
/// Serving layers check this *before* installing a model behind a fixed
/// row width, so a mismatched deploy surfaces as a typed error instead
/// of silently producing garbage scores (a tree reading past the end of
/// a row, a linear model dotted against the wrong number of weights).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureBound {
    /// Scores rows of any width (e.g. a constant model).
    Any,
    /// Reads feature indices up to `n - 1`; any row at least that wide
    /// scores correctly. Trees only record the features they actually
    /// split on, so the training width is not recoverable — this is the
    /// tightest sound bound.
    AtLeast(usize),
    /// Requires exactly `n` features (linear models, KNN).
    Exact(usize),
}

impl FeatureBound {
    /// Whether rows of `width` features satisfy this bound.
    pub fn admits(self, width: usize) -> bool {
        match self {
            Self::Any => true,
            Self::AtLeast(n) => width >= n,
            Self::Exact(n) => width == n,
        }
    }

    /// Combines member bounds into an ensemble bound: the tightest
    /// single constraint implied by both. An `Exact` member pins the
    /// ensemble; otherwise the larger `AtLeast` wins. Two conflicting
    /// `Exact` widths (not constructible by the built-in learners, which
    /// train every member on the same columns) resolve to the larger.
    pub fn merge(self, other: Self) -> Self {
        match (self, other) {
            (Self::Any, b) => b,
            (a, Self::Any) => a,
            (Self::Exact(a), Self::Exact(b)) => Self::Exact(a.max(b)),
            (Self::Exact(e), Self::AtLeast(m)) | (Self::AtLeast(m), Self::Exact(e)) => {
                Self::Exact(e.max(m))
            }
            (Self::AtLeast(a), Self::AtLeast(b)) => Self::AtLeast(a.max(b)),
        }
    }
}

impl fmt::Display for FeatureBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Any => write!(f, "any number of features"),
            Self::AtLeast(n) => write!(f, "at least {n} features"),
            Self::Exact(n) => write!(f, "exactly {n} features"),
        }
    }
}

/// A trained classifier: immutable, thread-safe, probability-scoring.
///
/// The required entry point is view-based: every model scores borrowed
/// row chunks directly, so batch predictors can fan a matrix out across
/// threads without per-chunk copies. The owned-matrix and write-into
/// forms are derived conveniences.
pub trait Model: Send + Sync {
    /// Probability of the positive (minority) class for each row of `x`.
    ///
    /// Values lie in `[0, 1]`. Implementations that natively produce a
    /// margin (SVM, AdaBoost) squash it into this range so the hardness
    /// functions of SPE remain well-defined.
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64>;

    /// [`Model::predict_proba_view`] over an owned matrix.
    ///
    /// Pure convenience: borrows `x` as a view, no copy involved.
    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.predict_proba_view(x.view())
    }

    /// Writes the probabilities for `x` into `out` (one per row).
    ///
    /// The serving engine's steady-state path: callers own the output
    /// buffer, so scoring a batch allocates nothing per call once hot
    /// models override this. The default delegates to
    /// [`Model::predict_proba_view`] and copies.
    ///
    /// # Panics
    /// Panics if `out.len() != x.rows()`.
    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output buffer must match row count");
        out.copy_from_slice(&self.predict_proba_view(x));
    }

    /// Hard 0/1 labels at the 0.5 probability threshold.
    fn predict(&self, x: &Matrix) -> Vec<u8> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| u8::from(p >= 0.5))
            .collect()
    }

    /// Number of classes `k` this model scores over. Every binary model
    /// keeps the default of 2; k-class models (one-vs-rest, native
    /// multi-class SPE) override it.
    fn n_classes(&self) -> usize {
        2
    }

    /// Writes the full class-probability distribution for `x` into
    /// `out`, row-major `[n_rows × k]`: `out[i * k + c]` is row `i`'s
    /// probability of class `c`. Rows sum to 1.
    ///
    /// The default covers every binary model by expanding the scalar
    /// positive-class probability `p` into `[1 − p, p]` — bit-exact with
    /// the historic scalar path. Models with `k > 2` must override.
    ///
    /// # Panics
    /// Panics if `out.len() != x.rows() * k`.
    fn predict_proba_k_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        let k = self.n_classes();
        assert_eq!(
            k, 2,
            "models with more than two classes must override predict_proba_k_into"
        );
        assert_eq!(
            out.len(),
            x.rows() * k,
            "output buffer must hold rows * n_classes values"
        );
        let rows = x.rows();
        // Score the positive class into the front of the buffer, then
        // expand backwards: row i's pair lands at 2i/2i+1, both past
        // every slot i' <= i still waiting to be read.
        self.predict_proba_into(x, &mut out[..rows]);
        for i in (0..rows).rev() {
            let p = out[i];
            out[2 * i + 1] = p;
            out[2 * i] = 1.0 - p;
        }
    }

    /// [`Model::predict_proba_k_into`] into a fresh row-major buffer.
    fn predict_proba_k(&self, x: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; x.rows() * self.n_classes()];
        self.predict_proba_k_into(x.view(), &mut out);
        out
    }

    /// Hard class ids by argmax over the k-way distribution. Binary
    /// models keep the historic `p >= 0.5` threshold (so ties at exactly
    /// 0.5 stay class 1); `k > 2` breaks ties toward the lowest id.
    fn predict_class(&self, x: &Matrix) -> Vec<u8> {
        let k = self.n_classes();
        if k == 2 {
            return self.predict(x);
        }
        let proba = self.predict_proba_k(x);
        proba
            .chunks_exact(k)
            .map(|row| {
                let mut best = 0usize;
                for (c, &p) in row.iter().enumerate() {
                    if p > row[best] {
                        best = c;
                    }
                }
                best as u8
            })
            .collect()
    }

    /// Serializable snapshot of this model, or `None` when the model
    /// does not support persistence.
    ///
    /// Every built-in model with a stable on-disk representation (trees,
    /// KNN, LR, SVM, GBDT and the soft-vote ensembles built from them)
    /// overrides this; the default keeps the trait object-safe and lets
    /// user-defined models opt out — the serving layer reports those as
    /// a typed "unsupported model" error rather than panicking.
    fn snapshot(&self) -> Option<ModelSnapshot> {
        None
    }

    /// The input-width constraint this model scores under.
    ///
    /// Serving layers validate it against their configured row width
    /// when a model is installed or hot-swapped. The default (`Any`)
    /// keeps user-defined models installable everywhere; every built-in
    /// model overrides it with what its structure actually requires.
    fn feature_bound(&self) -> FeatureBound {
        FeatureBound::Any
    }
}

/// A classifier *configuration* that can be trained into a [`Model`].
///
/// Configs are cheap, cloneable descriptions (hyper-parameters only);
/// `fit` never mutates the learner, so one config can train many ensemble
/// members concurrently.
pub trait Learner: Send + Sync {
    /// Trains on `(x, y)` with optional per-sample weights.
    ///
    /// `weights`, when given, must match `y.len()`; they need not be
    /// normalized. `seed` drives any internal randomness (bootstraps,
    /// initialization, feature sub-sampling).
    fn fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Box<dyn Model>;

    /// Trains with uniform weights.
    fn fit(&self, x: &Matrix, y: &[u8], seed: u64) -> Box<dyn Model> {
        self.fit_weighted(x, y, None, seed)
    }

    /// Fallible counterpart of [`Learner::fit_weighted`]: validates the
    /// inputs and returns [`SpeError`] instead of panicking.
    ///
    /// The default implementation vets the [`base`](Learner::base)
    /// learner with [`check_base_bins`], runs [`validate_fit_inputs`] and
    /// then delegates to `fit_weighted`; learners with extra preconditions
    /// (e.g. SPE's two-class requirement) override it to surface those
    /// as errors too.
    fn try_fit_weighted(
        &self,
        x: &Matrix,
        y: &[u8],
        weights: Option<&[f64]>,
        seed: u64,
    ) -> Result<Box<dyn Model>, SpeError> {
        if let Some(base) = self.base() {
            check_base_bins(base)?;
        }
        validate_fit_inputs(x, y, weights)?;
        Ok(self.fit_weighted(x, y, weights, seed))
    }

    /// Fallible counterpart of [`Learner::fit`] (uniform weights).
    fn try_fit(&self, x: &Matrix, y: &[u8], seed: u64) -> Result<Box<dyn Model>, SpeError> {
        self.try_fit_weighted(x, y, None, seed)
    }

    /// Short display name used in experiment tables (e.g. `"DT"`).
    fn name(&self) -> &'static str;

    /// Downcast hook for learners that can train on a pre-built
    /// [`BinIndex`]. Ensembles holding `Arc<dyn Learner>` call this to
    /// decide whether to bin the dataset once and share the index across
    /// members; the default (`None`) keeps every other learner on the
    /// regular `fit` path.
    fn as_binned(&self) -> Option<&dyn BinnedLearner> {
        None
    }

    /// The learner an ensemble trains its members with, for learners
    /// built over a `base`; `None` (the default) for everything else.
    fn base(&self) -> Option<&dyn Learner> {
        None
    }
}

/// Rejects a base learner whose histogram bin budget lies outside
/// `2..=MAX_BINS`, the range [`BinIndex::build`] asserts, and so on down
/// a chain of nested bases. Every learner built over a `base` runs this
/// before fitting, so a bad budget is an [`SpeError::InvalidConfig`]
/// rather than a panic inside a member fit.
pub fn check_base_bins(base: &dyn Learner) -> Result<(), SpeError> {
    if let Some(req) = base.as_binned().and_then(|b| b.bin_request()) {
        if !(2..=MAX_BINS).contains(&req.max_bins) {
            return Err(SpeError::InvalidConfig(format!(
                "base learner max_bins must be in 2..={MAX_BINS}, got {}",
                req.max_bins
            )));
        }
    }
    base.base().map_or(Ok(()), check_base_bins)
}

/// Shared, thread-safe handle to a learner configuration.
pub type SharedLearner = Arc<dyn Learner>;

/// What a [`BinnedLearner`] wants from the caller-built bin index.
#[derive(Clone, Copy, Debug)]
pub struct BinRequest {
    /// Minimum training-set size for the binned path to pay off; below
    /// this the caller should use the plain `fit` path instead.
    ///
    /// A learner's own `fit` bins at this same threshold: on `n >=
    /// min_rows` rows, `fit_weighted(x, y, w, seed)` is
    /// `BinIndex::build(x, max_bins)` followed by `fit_on_bins` over
    /// rows `0..n` in order, bit for bit. A caller that builds one index
    /// for several fits on the same `x` relies on this to train the
    /// models `fit` would.
    pub min_rows: usize,
    /// Bin budget per feature to build the index with (≤ 256).
    pub max_bins: usize,
}

/// A dataset in pre-binned form: the shared [`BinIndex`] plus labels
/// (and optional weights) for **all** of its rows. Members train on row
/// subsets of this one immutable structure.
#[derive(Clone, Copy)]
pub struct BinnedProblem<'a> {
    /// Bin index built once over the full training pool.
    pub bins: &'a BinIndex,
    /// Labels, one per row of `bins`.
    pub y: &'a [u8],
    /// Optional per-sample weights, one per row of `bins`.
    pub weights: Option<&'a [f64]>,
}

/// A learner that can train on row subsets of a shared [`BinIndex`],
/// letting an ensemble amortize feature quantization across all of its
/// members. Object-safe so `Arc<dyn Learner>` holders can reach it via
/// [`Learner::as_binned`].
pub trait BinnedLearner: Send + Sync {
    /// Binning parameters, or `None` when this learner's configuration
    /// (e.g. [`SplitMethod::Exact`](crate::tree::SplitMethod)) rules the
    /// histogram path out entirely.
    fn bin_request(&self) -> Option<BinRequest>;

    /// Trains on the subset `rows` (indices into `problem.bins`, repeats
    /// allowed for bootstraps). Must be deterministic in
    /// `(problem, rows, seed)` regardless of thread count.
    fn fit_on_bins(&self, problem: &BinnedProblem<'_>, rows: &[u32], seed: u64) -> Box<dyn Model>;
}

/// The bin index `base` trains fits of `n` rows on, built over `x`,
/// with the binned learner that trains on it. `None` when `base` does
/// not bin or `n` is under its [`BinRequest::min_rows`]; the caller then
/// fits on the plain path.
pub fn shared_index<'a>(
    base: &'a dyn Learner,
    x: &Matrix,
    n: usize,
) -> Option<(&'a dyn BinnedLearner, BinIndex)> {
    let learner = base.as_binned()?;
    let req = learner.bin_request()?;
    (n >= req.min_rows).then(|| (learner, BinIndex::build(x, req.max_bins)))
}

/// Validates the structural `fit` preconditions every learner shares:
/// matching lengths, a non-empty dataset, and finite non-negative
/// weights. Single-class labels and non-finite features are *allowed*
/// here — the infallible `fit` path handles the former with a
/// [`ConstantModel`] fallback and trusts callers on the latter.
pub fn validate_basic_fit_inputs(
    x: &Matrix,
    y: &[u8],
    weights: Option<&[f64]>,
) -> Result<(), SpeError> {
    if x.rows() != y.len() {
        return Err(SpeError::DimensionMismatch {
            what: "feature/label",
            expected: x.rows(),
            got: y.len(),
        });
    }
    if y.is_empty() {
        return Err(SpeError::EmptyDataset);
    }
    if let Some(w) = weights {
        if w.len() != y.len() {
            return Err(SpeError::DimensionMismatch {
                what: "weight",
                expected: y.len(),
                got: w.len(),
            });
        }
        if !w.iter().all(|&v| v.is_finite() && v >= 0.0) {
            return Err(SpeError::InvalidWeights);
        }
    }
    Ok(())
}

/// Strict validation for the fallible `try_fit*` entry points: the
/// [basic checks](validate_basic_fit_inputs) plus rejection of
/// non-finite feature values ([`SpeError::NonFiniteFeature`], naming
/// the first offending cell) and single-class labels
/// ([`SpeError::SingleClass`], carrying the observed label histogram so
/// the error names what actually arrived instead of assuming a binary
/// label space). The panicking `fit` path deliberately stays lenient on
/// both — trees tolerate NaN ordering and a single-class fit degrades
/// to a [`ConstantModel`] — but callers who opted into typed errors get
/// them *before* training starts.
pub fn validate_fit_inputs(x: &Matrix, y: &[u8], weights: Option<&[f64]>) -> Result<(), SpeError> {
    validate_basic_fit_inputs(x, y, weights)?;
    for i in 0..x.rows() {
        if let Some(j) = x.row(i).iter().position(|v| !v.is_finite()) {
            return Err(SpeError::NonFiniteFeature { row: i, col: j });
        }
    }
    let mut counts = [0usize; 256];
    for &l in y {
        counts[l as usize] += 1;
    }
    let histogram: Vec<(u8, usize)> = (0..=255u8)
        .filter(|&l| counts[l as usize] > 0)
        .map(|l| (l, counts[l as usize]))
        .collect();
    if histogram.len() < 2 {
        return Err(SpeError::SingleClass { histogram });
    }
    Ok(())
}

/// Panicking wrapper over [`validate_basic_fit_inputs`]; called by
/// every learner on its infallible `fit` path.
pub fn check_fit_inputs(x: &Matrix, y: &[u8], weights: Option<&[f64]>) {
    if let Err(e) = validate_basic_fit_inputs(x, y, weights) {
        panic!("{e}");
    }
}

/// Returns `weights` as a vector, defaulting to uniform `1/n`.
pub(crate) fn effective_weights(n: usize, weights: Option<&[f64]>) -> Vec<f64> {
    match weights {
        Some(w) => w.to_vec(),
        None => vec![1.0 / n as f64; n],
    }
}

/// Weighted fraction of positive labels (prior probability).
pub(crate) fn weighted_positive_fraction(y: &[u8], w: &[f64]) -> f64 {
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let pos: f64 = y
        .iter()
        .zip(w)
        .filter(|(&l, _)| l != 0)
        .map(|(_, &wi)| wi)
        .sum();
    pos / total
}

/// A constant-probability model — the degenerate fallback every learner
/// returns when the training data contains a single class.
pub struct ConstantModel(pub f64);

impl Model for ConstantModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        vec![self.0; x.rows()]
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output buffer must match row count");
        out.fill(self.0);
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Constant(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_bound_admission_and_merge() {
        assert!(FeatureBound::Any.admits(0));
        assert!(FeatureBound::AtLeast(3).admits(3));
        assert!(FeatureBound::AtLeast(3).admits(7));
        assert!(!FeatureBound::AtLeast(3).admits(2));
        assert!(FeatureBound::Exact(4).admits(4));
        assert!(!FeatureBound::Exact(4).admits(5));
        assert_eq!(
            FeatureBound::Any.merge(FeatureBound::AtLeast(2)),
            FeatureBound::AtLeast(2)
        );
        assert_eq!(
            FeatureBound::AtLeast(2).merge(FeatureBound::AtLeast(5)),
            FeatureBound::AtLeast(5)
        );
        assert_eq!(
            FeatureBound::AtLeast(2).merge(FeatureBound::Exact(4)),
            FeatureBound::Exact(4)
        );
        assert_eq!(
            FeatureBound::Exact(4).merge(FeatureBound::Any),
            FeatureBound::Exact(4)
        );
        assert!(FeatureBound::Exact(9).to_string().contains("exactly 9"));
        assert!(FeatureBound::AtLeast(2).to_string().contains("at least 2"));
    }

    #[test]
    fn constant_model_outputs_constant() {
        let m = ConstantModel(0.25);
        let x = Matrix::zeros(3, 2);
        assert_eq!(m.predict_proba(&x), vec![0.25; 3]);
        assert_eq!(m.predict(&x), vec![0, 0, 0]);
        let m2 = ConstantModel(0.75);
        assert_eq!(m2.predict(&x), vec![1, 1, 1]);
    }

    #[test]
    fn uniform_weights_sum_to_one() {
        let w = effective_weights(4, None);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_positive_fraction_respects_weights() {
        let y = [1, 0, 1];
        let w = [1.0, 2.0, 1.0];
        assert!((weighted_positive_fraction(&y, &w) - 0.5).abs() < 1e-12);
        assert_eq!(weighted_positive_fraction(&y, &[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn check_fit_inputs_catches_mismatch() {
        check_fit_inputs(&Matrix::zeros(3, 1), &[0, 1], None);
    }

    #[test]
    #[should_panic(expected = "weights must be finite")]
    fn check_fit_inputs_catches_negative_weight() {
        check_fit_inputs(&Matrix::zeros(2, 1), &[0, 1], Some(&[0.5, -0.1]));
    }

    #[test]
    fn validate_fit_inputs_reports_errors_as_values() {
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(3, 1), &[0, 1], None),
            Err(SpeError::DimensionMismatch {
                what: "feature/label",
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(0, 1), &[], None),
            Err(SpeError::EmptyDataset)
        );
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(2, 1), &[0, 1], Some(&[1.0])),
            Err(SpeError::DimensionMismatch {
                what: "weight",
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(2, 1), &[0, 1], Some(&[1.0, f64::NAN])),
            Err(SpeError::InvalidWeights)
        );
        assert!(validate_fit_inputs(&Matrix::zeros(2, 1), &[0, 1], Some(&[1.0, 2.0])).is_ok());
    }

    #[test]
    fn strict_validation_rejects_non_finite_and_single_class() {
        let mut x = Matrix::zeros(3, 2);
        x.row_mut(1)[1] = f64::NAN;
        assert_eq!(
            validate_fit_inputs(&x, &[0, 1, 0], None),
            Err(SpeError::NonFiniteFeature { row: 1, col: 1 })
        );
        // The basic (panicking-path) checks let both through.
        assert!(validate_basic_fit_inputs(&x, &[0, 1, 0], None).is_ok());
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(2, 1), &[0, 0], None),
            Err(SpeError::SingleClass {
                histogram: vec![(0, 2)]
            })
        );
        assert_eq!(
            validate_fit_inputs(&Matrix::zeros(3, 1), &[7, 7, 7], None),
            Err(SpeError::SingleClass {
                histogram: vec![(7, 3)]
            })
        );
        // Two distinct k-class labels pass — the k-way trainers decide
        // whether the label space is dense enough.
        assert!(validate_fit_inputs(&Matrix::zeros(2, 1), &[3, 5], None).is_ok());
        assert!(validate_basic_fit_inputs(&Matrix::zeros(2, 1), &[0, 0], None).is_ok());
    }

    #[test]
    fn default_k_wide_path_expands_binary_probas() {
        let m = ConstantModel(0.25);
        let x = Matrix::zeros(3, 2);
        assert_eq!(m.n_classes(), 2);
        let k = m.predict_proba_k(&x);
        assert_eq!(k, vec![0.75, 0.25, 0.75, 0.25, 0.75, 0.25]);
        assert_eq!(m.predict_class(&x), m.predict(&x));
    }

    #[test]
    fn try_fit_surfaces_validation_errors() {
        struct Stub;
        impl Learner for Stub {
            fn fit_weighted(
                &self,
                _x: &Matrix,
                _y: &[u8],
                _w: Option<&[f64]>,
                _seed: u64,
            ) -> Box<dyn Model> {
                Box::new(ConstantModel(0.5))
            }
            fn name(&self) -> &'static str {
                "Stub"
            }
        }
        let err = match Stub.try_fit(&Matrix::zeros(2, 1), &[0], 0) {
            Err(e) => e,
            Ok(_) => panic!("expected validation error"),
        };
        assert!(matches!(err, SpeError::DimensionMismatch { .. }));
        let ok = Stub
            .try_fit(&Matrix::zeros(2, 1), &[0, 1], 0)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ok.predict_proba(&Matrix::zeros(1, 1)), vec![0.5]);
    }
}
