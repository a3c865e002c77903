//! Self-paced Ensemble (SPE) — the primary contribution of
//! *"Self-paced Ensemble for Highly Imbalanced Massive Data
//! Classification"* (Liu et al., ICDE 2020).
//!
//! SPE builds an ensemble of `n` base classifiers, each trained on the
//! full minority set `P` plus an under-sampled majority subset `N'` with
//! `|N'| = |P|`. What distinguishes it from random under-sampling is how
//! `N'` is chosen: majority samples are binned by their **classification
//! hardness** `H(x, y, F_i)` with respect to the *current* ensemble, and
//! bins are sampled with weight `p_ℓ = 1 / (h_ℓ + α)` where `h_ℓ` is the
//! bin's average hardness and `α = tan(iπ/2n)` is the **self-paced
//! factor** that grows over iterations:
//!
//! - early (`α ≈ 0`): *hardness harmonization* — every hardness level
//!   contributes equally, down-weighting the huge trivial-sample bins;
//! - late (`α → ∞`): near-uniform bin weights, which concentrates
//!   sampling on high-population bins' *share of slots per bin* equally,
//!   keeping a skeleton of easy samples while focusing on hard ones.
//!
//! The crate decomposes the algorithm into inspectable pieces:
//! [`hardness`] (the three decomposable error functions of §VI-C4),
//! [`bins`] (the hardness histogram), [`sampler`] (the self-paced
//! under-sampling step, reused by the Fig. 3 experiment), and
//! [`ensemble`] ([`SelfPacedEnsemble`], Algorithm 1).

pub mod bins;
pub mod builder;
pub mod ensemble;
pub mod hardness;
pub mod multiclass;
pub mod oocore;
pub mod report;
mod rounds;
pub mod sampler;

pub use bins::{BinStats, HardnessBins};
pub use builder::SelfPacedEnsembleBuilder;
pub use ensemble::{FitTrace, SelfPacedEnsemble, SelfPacedEnsembleConfig};
pub use hardness::HardnessFn;
pub use multiclass::{MultiClassSpe, MultiClassSpeConfig, MultiClassStrategy};
pub use oocore::{chunk_rows_for_budget, ChunkedFitOptions, OocReport};
pub use report::{FitReport, MemberOutcome};
pub use sampler::{self_paced_factor, AlphaSchedule, BalancingSchedule, SelfPacedSampler};
