//! Quantized u8 inference kernel: the serving-side twin of the
//! training-side histogram engine.
//!
//! [`QuantizedModel::compile`] takes a [`ModelSnapshot`] of a decision
//! tree, a GBDT, or an SPE/soft-vote ensemble of those and re-expresses
//! every split threshold as a **u8 bin code** against a per-feature cut
//! grid harvested from the trees themselves. Scoring a batch then costs
//! one f64→u8 encode pass per column plus branch-free u8 comparisons in
//! the traversal loop — one 64-byte cache line of codes serves 64 rows,
//! where the f64 path pulled 8 bytes per row per split.
//!
//! The tree compiler and its kernels are the ones training uses
//! ([`spe_learners::binspace`]); this module adds what is specific to
//! serving: harvesting the grid, encoding request blocks, the GBDT and
//! constant member frames, multi-class sub-kernels and the [`Model`]
//! impl.
//!
//! # Exactness
//!
//! The kernel is **bit-exact**, not approximately equal, to the f64
//! path. The cut grid for feature `f` is the sorted set of *distinct
//! thresholds* the compiled trees actually test on `f` (signed zero
//! normalized to `+0.0`, which `<=` cannot distinguish anyway). Each
//! split's threshold `t` therefore *is* `cuts[f][b]` for some `b`, and
//! the training-side invariant from `spe_data::binning` applies
//! verbatim:
//!
//! ```text
//! encode(cuts, v) <= b  ⟺  v <= cuts[b]      for every v, incl. NaN
//! ```
//!
//! so comparing the u8 code against `b` routes every row — including
//! `NaN`s, which encode past the last cut and go right — to exactly the
//! leaf the f64 comparison picks. Member outputs are then reduced by
//! replaying the floating-point operation order of the source model
//! (`Σ` in member order, one divide for the soft-vote mean; `f0 +
//! Σ η·leaf` then the sigmoid for GBDT), so the final probabilities are
//! identical bit patterns.
//!
//! A feature tested with more than 255 distinct thresholds cannot be
//! coded in a u8; compilation reports that (and unsupported member
//! kinds) as [`ServeError::Unquantizable`], which the engine's `Auto`
//! backend treats as "stay on the f64 path".

use crate::error::ServeError;
use spe_data::{binning, MatrixView};
use spe_learners::binspace::{BinForest, CodeView, CompileError};
use spe_learners::{sigmoid, FeatureBound, GbdtModel, Model, ModelSnapshot, NodeView, TreeModel};
use std::cell::Cell;

/// Rows scored per encode-then-traverse block: codes for a block
/// (`256 rows × d features` u8) stay L1/L2-resident while every tree
/// walks them.
const ROW_BLOCK: usize = 256;

/// How a member turns its accumulated raw score into a probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    /// Probability-space trees / constants: the score is the output.
    Identity,
    /// GBDT: logistic link over the boosted log-odds score.
    Sigmoid,
}

/// One ensemble member: a contiguous run of compiled trees plus the
/// scalar frame (`bias + Σ scale·leaf`, then the link) that replays the
/// member's own floating-point evaluation order.
#[derive(Clone, Debug)]
struct Member {
    trees: std::ops::Range<usize>,
    /// Per-tree multiplier: GBDT shrinkage η, 1.0 for plain trees.
    scale: f64,
    /// Starting score: GBDT base score `f0`, the constant itself for
    /// constant members, 0.0 otherwise.
    bias: f64,
    link: Link,
}

/// Reusable per-thread buffers for [`QuantizedModel::predict_proba_into`]:
/// the u8 code block and the per-member score block. Taken (not
/// borrowed) from the thread-local so re-entrant scoring stays correct.
#[derive(Default)]
struct Scratch {
    codes: Vec<u8>,
    member: Vec<f64>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// A model compiled to the quantized flat representation.
///
/// Compiled from (and carrying) a [`ModelSnapshot`], so it persists
/// through the standard SPEM envelope: `snapshot()` returns the source
/// snapshot and re-compilation after a round trip is deterministic.
pub struct QuantizedModel {
    n_features: usize,
    /// Per-feature ascending cut grids; `cuts[f][b]` is the `b`-th
    /// distinct threshold the trees test feature `f` against.
    cuts: Vec<Vec<f64>>,
    /// Every member's trees, compiled against `cuts`.
    forest: BinForest,
    members: Vec<Member>,
    /// Whether the top level is a soft-vote ensemble (divide by member
    /// count) or a single model (score passes through unchanged).
    ensemble: bool,
    /// True when every ensemble member is a bare single tree
    /// (`bias = +0.0`, `scale = 1.0`, identity link — the SPE shape):
    /// member scores are then the leaf values themselves, so trees can
    /// accumulate straight into the output with no per-member buffer.
    direct: bool,
    /// `direct` and every tree compiled to the bitmask form: the whole
    /// forest evaluates in one fused register-blocked pass.
    fused: bool,
    /// One compiled sub-kernel per class for a `MultiClass` source —
    /// empty for every binary model. When non-empty the flat fields
    /// above are unused; scoring runs each sub-kernel and normalizes
    /// per row exactly like `OneVsRestModel`.
    per_class: Vec<QuantizedModel>,
    source: ModelSnapshot,
}

impl QuantizedModel {
    /// Compiles `snapshot` for rows of `n_features` features.
    ///
    /// Supported shapes: `Constant`, `Tree`, `Gbdt`, and one level of
    /// `SoftVote` / `SelfPaced` over those. Anything else — and any
    /// feature with more than 255 distinct split thresholds — returns
    /// [`ServeError::Unquantizable`].
    pub fn compile(snapshot: &ModelSnapshot, n_features: usize) -> Result<Self, ServeError> {
        if let ModelSnapshot::MultiClass { per_class } = snapshot {
            // Each class scorer compiles independently; any class that
            // cannot fails the whole model (a half-quantized one-vs-rest
            // set would not be bit-exact).
            let kernels = per_class
                .iter()
                .map(|s| Self::compile(s, n_features))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Self {
                n_features,
                cuts: Vec::new(),
                forest: BinForest::new(),
                members: Vec::new(),
                ensemble: false,
                direct: false,
                fused: false,
                per_class: kernels,
                source: snapshot.clone(),
            });
        }
        let (specs, ensemble) = member_specs(snapshot)?;
        let cuts = harvest_cuts(&specs, n_features)?;

        // The grid was harvested from these very trees, so every
        // threshold has a bin.
        let mut forest = BinForest::new();
        let mut members = Vec::with_capacity(specs.len());
        for spec in &specs {
            let start = forest.n_trees();
            members.push(match *spec {
                MemberSpec::Constant(p) => Member {
                    trees: start..start,
                    scale: 1.0,
                    bias: p,
                    link: Link::Identity,
                },
                MemberSpec::Tree(t) => {
                    forest.push_tree(&cuts, t.n_nodes(), |i| t.node(i))?;
                    Member {
                        trees: start..forest.n_trees(),
                        scale: 1.0,
                        bias: 0.0,
                        link: Link::Identity,
                    }
                }
                MemberSpec::Gbdt(g) => {
                    for t in g.trees() {
                        forest.push_tree(&cuts, t.n_nodes(), |i| t.node(i))?;
                    }
                    Member {
                        trees: start..forest.n_trees(),
                        scale: g.shrinkage(),
                        bias: g.base_score(),
                        link: Link::Sigmoid,
                    }
                }
            });
        }
        let direct = ensemble
            && members.iter().all(|m| {
                m.trees.len() == 1
                    && m.scale.to_bits() == 1.0f64.to_bits()
                    && m.bias.to_bits() == 0
                    && m.link == Link::Identity
            });
        let fused = direct && forest.all_masked();

        Ok(Self {
            n_features,
            cuts,
            forest,
            members,
            ensemble,
            direct,
            fused,
            per_class: Vec::new(),
            source: snapshot.clone(),
        })
    }

    /// Feature count the model was compiled for.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total compiled trees across all members (summed over class
    /// sub-kernels for a multi-class model).
    pub fn n_trees(&self) -> usize {
        if self.per_class.is_empty() {
            self.forest.n_trees()
        } else {
            self.per_class.iter().map(Self::n_trees).sum()
        }
    }

    /// Ensemble member count (1 for a single compiled model; summed over
    /// class sub-kernels for a multi-class model).
    pub fn n_members(&self) -> usize {
        if self.per_class.is_empty() {
            self.members.len()
        } else {
            self.per_class.iter().map(Self::n_members).sum()
        }
    }

    /// Largest cut-grid size across features — how much of the u8 range
    /// the thresholds actually use.
    pub fn max_cuts(&self) -> usize {
        let own = self.cuts.iter().map(Vec::len).max().unwrap_or(0);
        self.per_class
            .iter()
            .map(Self::max_cuts)
            .fold(own, usize::max)
    }

    /// Scores one encode-sized block of rows.
    fn score_block(&self, x: MatrixView<'_>, out: &mut [f64], scratch: &mut Scratch) {
        let rows = x.rows();
        scratch.codes.clear();
        scratch.codes.resize(rows * self.n_features, 0);
        binning::encode_batch_into(&self.cuts, x, &mut scratch.codes);
        let codes = CodeView::new(&scratch.codes, rows);

        if !self.ensemble {
            // Single model: its score *is* the output, no mean.
            self.eval_member(&self.members[0], codes, out);
            return;
        }
        if self.fused {
            // Every member is a bare single `Masked` tree: one fused
            // pass keeps each row group's running sum in registers
            // across all trees instead of re-reading `out` per tree.
            self.forest.eval_forest(codes, 0..rows, out);
        } else if self.direct {
            // Every member is a bare tree (`0.0 + 1.0·leaf` is exactly
            // `leaf`), so accumulate the trees straight into `out` —
            // no per-member buffer fill / add pass.
            out.fill(0.0);
            for m in &self.members {
                self.forest
                    .accumulate_tree(m.trees.start, codes, 0..rows, 1.0, out);
            }
        } else {
            out.fill(0.0);
            scratch.member.clear();
            scratch.member.resize(rows, 0.0);
            for m in &self.members {
                self.eval_member(m, codes, &mut scratch.member);
                for (o, &p) in out.iter_mut().zip(&scratch.member) {
                    *o += p;
                }
            }
        }
        let k = self.members.len() as f64;
        for o in out.iter_mut() {
            *o /= k;
        }
    }

    /// Evaluates one member into `out` (`bias`, `+= scale·leaf` per tree
    /// in order, then the link) — the same op sequence the f64 model
    /// runs, so the result is bit-identical.
    fn eval_member(&self, m: &Member, codes: CodeView<'_>, out: &mut [f64]) {
        out.fill(m.bias);
        for t in m.trees.clone() {
            self.forest
                .accumulate_tree(t, codes, 0..out.len(), m.scale, out);
        }
        if m.link == Link::Sigmoid {
            for o in out.iter_mut() {
                *o = sigmoid(*o);
            }
        }
    }
}

impl Model for QuantizedModel {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut out = vec![0.0; x.rows()];
        self.predict_proba_into(x, &mut out);
        out
    }

    fn predict_proba_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        assert_eq!(out.len(), x.rows(), "output buffer must match row count");
        assert!(
            x.cols() == self.n_features || x.rows() == 0,
            "row has {} features, model compiled for {}",
            x.cols(),
            self.n_features
        );
        if !self.per_class.is_empty() {
            // Scalar view of a multi-class model: 1 − P(class 0), the
            // same collapse `OneVsRestModel::predict_proba_view` applies.
            let k = self.per_class.len();
            let mut full = vec![0.0; x.rows() * k];
            self.predict_proba_k_into(x, &mut full);
            for (o, row) in out.iter_mut().zip(full.chunks_exact(k)) {
                *o = 1.0 - row[0];
            }
            return;
        }
        let mut scratch = SCRATCH.with(Cell::take);
        let mut start = 0;
        while start < x.rows() {
            let end = (start + ROW_BLOCK).min(x.rows());
            self.score_block(x.rows_range(start..end), &mut out[start..end], &mut scratch);
            start = end;
        }
        SCRATCH.with(|c| c.set(scratch));
    }

    fn n_classes(&self) -> usize {
        if self.per_class.is_empty() {
            2
        } else {
            self.per_class.len()
        }
    }

    fn predict_proba_k_into(&self, x: MatrixView<'_>, out: &mut [f64]) {
        if self.per_class.is_empty() {
            // Binary: scalar score expanded to [1-p, p], exactly the
            // Model trait's default (re-stated because this override
            // shadows it).
            let rows = x.rows();
            assert_eq!(
                out.len(),
                rows * 2,
                "output buffer must hold rows * n_classes values"
            );
            self.predict_proba_into(x, &mut out[..rows]);
            for i in (0..rows).rev() {
                let p = out[i];
                out[2 * i + 1] = p;
                out[2 * i] = 1.0 - p;
            }
            return;
        }
        // Multi-class: replay OneVsRestModel::predict_proba_k_into with
        // each f64 scorer swapped for its bit-exact compiled kernel —
        // identical raw scores, identical normalization op order,
        // identical output bits.
        let k = self.per_class.len();
        let rows = x.rows();
        assert_eq!(
            out.len(),
            rows * k,
            "output buffer must hold rows * n_classes values"
        );
        let mut scratch = vec![0.0; rows];
        for (c, kernel) in self.per_class.iter().enumerate() {
            kernel.predict_proba_into(x, &mut scratch);
            for (i, &p) in scratch.iter().enumerate() {
                out[i * k + c] = p;
            }
        }
        for row in out.chunks_exact_mut(k) {
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                for p in row.iter_mut() {
                    *p /= sum;
                }
            } else {
                row.fill(1.0 / k as f64);
            }
        }
    }

    fn feature_bound(&self) -> FeatureBound {
        // The cut grids were laid out for exactly this width; encoding a
        // different one would misalign every feature column.
        FeatureBound::Exact(self.n_features)
    }

    /// The *source* snapshot: a quantized model persists as the model it
    /// was compiled from, so SPEM round trips re-compile bit-identically
    /// with no new envelope format.
    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(self.source.clone())
    }
}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        ServeError::Unquantizable(e.to_string())
    }
}

/// A member of the compiled model, borrowed from the snapshot.
enum MemberSpec<'a> {
    Constant(f64),
    Tree(&'a TreeModel),
    Gbdt(&'a GbdtModel),
}

/// Flattens the snapshot into quantizable members; the bool says
/// whether soft-vote mean semantics apply at the top level.
fn member_specs(snapshot: &ModelSnapshot) -> Result<(Vec<MemberSpec<'_>>, bool), ServeError> {
    fn leaf_spec(s: &ModelSnapshot) -> Result<MemberSpec<'_>, ServeError> {
        match s {
            ModelSnapshot::Constant(p) => Ok(MemberSpec::Constant(*p)),
            ModelSnapshot::Tree(t) => Ok(MemberSpec::Tree(t)),
            ModelSnapshot::Gbdt(g) => Ok(MemberSpec::Gbdt(g)),
            other => Err(ServeError::Unquantizable(format!(
                "{} members have no quantized form",
                other.kind()
            ))),
        }
    }
    match snapshot {
        ModelSnapshot::SoftVote(members) => Ok((
            members.iter().map(leaf_spec).collect::<Result<_, _>>()?,
            true,
        )),
        ModelSnapshot::SelfPaced { members, .. } => Ok((
            members.iter().map(leaf_spec).collect::<Result<_, _>>()?,
            true,
        )),
        single => Ok((vec![leaf_spec(single)?], false)),
    }
}

/// Normalizes `-0.0` to `+0.0`: IEEE `<=` cannot tell them apart, and a
/// grid ordered by `total_cmp` must not contain both.
#[inline]
fn normalize_zero(t: f64) -> f64 {
    if t == 0.0 {
        0.0
    } else {
        t
    }
}

/// Collects the distinct split thresholds per feature into sorted cut
/// grids, validating feature indices and the 255-cut u8 budget.
fn harvest_cuts(specs: &[MemberSpec<'_>], n_features: usize) -> Result<Vec<Vec<f64>>, ServeError> {
    let mut per_feature: Vec<Vec<f64>> = vec![Vec::new(); n_features];
    let mut add = |feature: usize, threshold: f64| -> Result<(), ServeError> {
        if feature >= n_features {
            return Err(ServeError::Unquantizable(format!(
                "tree tests feature {feature}, engine serves {n_features} features"
            )));
        }
        if threshold.is_nan() {
            return Err(ServeError::Unquantizable(
                "tree has a NaN split threshold".into(),
            ));
        }
        per_feature[feature].push(normalize_zero(threshold));
        Ok(())
    };
    for spec in specs {
        match spec {
            MemberSpec::Constant(_) => {}
            MemberSpec::Tree(t) => {
                for i in 0..t.n_nodes() {
                    if let NodeView::Split {
                        feature, threshold, ..
                    } = t.node(i)
                    {
                        add(feature, threshold)?;
                    }
                }
            }
            MemberSpec::Gbdt(g) => {
                for t in g.trees() {
                    for i in 0..t.n_nodes() {
                        if let NodeView::Split {
                            feature, threshold, ..
                        } = t.node(i)
                        {
                            add(feature, threshold)?;
                        }
                    }
                }
            }
        }
    }
    for (f, cuts) in per_feature.iter_mut().enumerate() {
        cuts.sort_unstable_by(|a, b| a.total_cmp(b));
        cuts.dedup();
        if cuts.len() >= binning::MAX_BINS {
            return Err(ServeError::Unquantizable(format!(
                "feature {f} is tested against {} distinct thresholds (u8 codes allow {})",
                cuts.len(),
                binning::MAX_BINS - 1
            )));
        }
    }
    Ok(per_feature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_data::Matrix;
    use spe_learners::{DecisionTreeConfig, GbdtConfig, Learner};

    #[test]
    #[ignore]
    fn profile_encode_vs_traverse() {
        let train = spe_datasets::credit_fraud_sim(40_000, 7);
        let score = spe_datasets::credit_fraud_sim(20_000, 8);
        let cfg = spe_core::SelfPacedEnsembleConfig::builder()
            .n_estimators(10)
            .build()
            .unwrap();
        let model = cfg.try_fit_dataset(&train, 42).unwrap();
        let q = QuantizedModel::compile(&model.snapshot().unwrap(), 30).unwrap();
        eprintln!(
            "trees={} members={} max_cuts={} fused={}",
            q.n_trees(),
            q.n_members(),
            q.max_cuts(),
            q.fused
        );
        let per_feature: Vec<usize> = q.cuts.iter().map(Vec::len).collect();
        eprintln!("cuts per feature: {per_feature:?}");
        let x = score.x().view();
        let rows = x.rows();
        let mut codes = vec![0u8; rows * 30];
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            binning::encode_batch_into(&q.cuts, x, &mut codes);
        }
        let enc = t0.elapsed().as_secs_f64() / 10.0;
        let mut out = vec![0.0; rows];
        let mut member = vec![0.0; rows];
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            out.fill(0.0);
            for m in &q.members {
                q.eval_member(m, CodeView::new(&codes, rows), &mut member);
                for (o, &p) in out.iter_mut().zip(&member) {
                    *o += p;
                }
            }
        }
        let per_member = t0.elapsed().as_secs_f64() / 10.0;
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            q.predict_proba_into(x, &mut out);
        }
        let full = t0.elapsed().as_secs_f64() / 10.0;
        eprintln!(
            "encode {:.1}ns/row  per-member {:.1}ns/row  full {:.1}ns/row",
            enc * 1e9 / rows as f64,
            per_member * 1e9 / rows as f64,
            full * 1e9 / rows as f64
        );
    }

    fn two_blob_data(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = spe_data::SeededRng::new(seed);
        let mut x = Matrix::with_capacity(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = u8::from(i % 7 == 0);
            let c = f64::from(label) * 1.5;
            x.push_row(&[
                rng.normal(c, 1.0),
                rng.normal(-c, 0.8),
                // A low-cardinality column exercises repeated thresholds.
                (i % 4) as f64,
            ]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn tree_is_bit_exact() {
        let (x, y) = two_blob_data(600, 3);
        let tree = DecisionTreeConfig::with_depth(6).fit(&x, &y, 1);
        let snap = tree.snapshot().unwrap();
        let q = QuantizedModel::compile(&snap, x.cols()).unwrap();
        assert_eq!(q.predict_proba(&x), tree.predict_proba(&x));
    }

    #[test]
    fn gbdt_is_bit_exact() {
        let (x, y) = two_blob_data(500, 5);
        let g = GbdtConfig::new(8).fit(&x, &y, 2);
        let snap = g.snapshot().unwrap();
        let q = QuantizedModel::compile(&snap, x.cols()).unwrap();
        assert_eq!(q.predict_proba(&x), g.predict_proba(&x));
    }

    #[test]
    fn nan_rows_follow_the_f64_path() {
        let (x, y) = two_blob_data(400, 7);
        let tree = DecisionTreeConfig::with_depth(5).fit(&x, &y, 1);
        let q = QuantizedModel::compile(&tree.snapshot().unwrap(), x.cols()).unwrap();
        let mut probe = x.row_range(0..8);
        let cols = probe.cols();
        for i in 0..probe.rows() {
            probe.row_mut(i)[i % cols] = f64::NAN;
        }
        assert_eq!(q.predict_proba(&probe), tree.predict_proba(&probe));
    }

    #[test]
    fn constant_and_empty_batches_work() {
        let snap = ModelSnapshot::Constant(0.25);
        let q = QuantizedModel::compile(&snap, 4).unwrap();
        assert_eq!(q.predict_proba(&Matrix::zeros(3, 4)), vec![0.25; 3]);
        assert_eq!(q.predict_proba(&Matrix::zeros(0, 4)), Vec::<f64>::new());
    }

    #[test]
    fn unsupported_members_report_unquantizable() {
        let snap = ModelSnapshot::SoftVote(vec![
            ModelSnapshot::Constant(0.5),
            ModelSnapshot::SoftVote(vec![ModelSnapshot::Constant(0.5)]),
        ]);
        assert!(matches!(
            QuantizedModel::compile(&snap, 2),
            Err(ServeError::Unquantizable(_))
        ));
    }

    #[test]
    fn too_many_thresholds_overflow_the_u8_budget() {
        // 300 stumps, each splitting feature 0 at a distinct threshold.
        let members: Vec<ModelSnapshot> = (0..300)
            .map(|i| {
                let x =
                    Matrix::from_vec(2, 1, vec![f64::from(i) / 300.0, f64::from(i) / 300.0 + 2.0]);
                let t = DecisionTreeConfig::stump().fit(&x, &[0, 1], 1);
                t.snapshot().unwrap()
            })
            .collect();
        let snap = ModelSnapshot::SoftVote(members);
        let err = QuantizedModel::compile(&snap, 1).map(|_| ()).unwrap_err();
        assert!(matches!(err, ServeError::Unquantizable(_)), "{err}");
        assert!(err.to_string().contains("distinct thresholds"), "{err}");
    }

    #[test]
    fn multiclass_is_bit_exact_against_one_vs_rest() {
        // Three per-class tree scorers assembled one-vs-rest; the
        // compiled kernel must reproduce every probability bit.
        let (x, y) = two_blob_data(600, 11);
        let scorers: Vec<Box<dyn Model>> = (0..3)
            .map(|c| {
                let binary: Vec<u8> = y
                    .iter()
                    .map(|&l| u8::from(usize::from(l) == c % 2))
                    .collect();
                DecisionTreeConfig::with_depth(4).fit(&x, &binary, c as u64)
            })
            .collect();
        let ovr = spe_learners::OneVsRestModel::new(scorers);
        let snap = ovr.snapshot().unwrap();
        assert_eq!(snap.kind(), "MultiClass");
        let q = QuantizedModel::compile(&snap, x.cols()).unwrap();
        assert_eq!(q.n_classes(), 3);
        assert!(q.n_trees() >= 3);
        assert_eq!(q.predict_proba_k(&x), ovr.predict_proba_k(&x));
        assert_eq!(q.predict_proba(&x), ovr.predict_proba(&x));
        assert_eq!(q.predict_class(&x), ovr.predict_class(&x));
    }

    #[test]
    fn multiclass_with_unquantizable_member_reports_unquantizable() {
        let snap = ModelSnapshot::MultiClass {
            per_class: vec![
                ModelSnapshot::Constant(0.5),
                ModelSnapshot::SoftVote(vec![ModelSnapshot::SoftVote(vec![
                    ModelSnapshot::Constant(0.5),
                ])]),
            ],
        };
        assert!(matches!(
            QuantizedModel::compile(&snap, 2),
            Err(ServeError::Unquantizable(_))
        ));
    }

    #[test]
    fn block_boundaries_are_seamless() {
        let (x, y) = two_blob_data(ROW_BLOCK + 37, 9);
        let tree = DecisionTreeConfig::with_depth(4).fit(&x, &y, 3);
        let q = QuantizedModel::compile(&tree.snapshot().unwrap(), x.cols()).unwrap();
        assert_eq!(q.predict_proba(&x), tree.predict_proba(&x));
    }
}
