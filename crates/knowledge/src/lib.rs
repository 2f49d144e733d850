//! # bgkanon-knowledge
//!
//! Modeling adversarial background knowledge (§II of the paper).
//!
//! The adversary's prior belief is a function `Ppri : D[QI] → Σ` assigning
//! every quasi-identifier combination a distribution over the sensitive
//! domain. Following the paper, the prior is *estimated from the data to be
//! released* with Nadaraya–Watson kernel regression (Eq. 1–2): knowledge an
//! adversary could have must be consistent with the data and therefore
//! discoverable in it.
//!
//! The bandwidth vector `B = (B_1..B_d)` parameterizes how much knowledge
//! the adversary `Adv(B)` has: a small `B_i` means fine-grained knowledge of
//! how the sensitive attribute co-varies with attribute `A_i`; `B_i` equal to
//! the (normalized) domain range with a uniform kernel degrades the prior to
//! the whole-table distribution — exactly the t-closeness adversary (§II.D).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod bandwidth;
pub mod calibrate;
pub mod estimator;
pub mod mining;

pub use adversary::Adversary;
pub use bandwidth::Bandwidth;
pub use calibrate::{attribute_diagnostics, suggest_skyline};
pub use estimator::{
    DeletedRows, DirtyPoints, FoldEvolution, FoldedPoint, FoldedTable, KernelFamily,
    PriorEstimator, PriorModel, SparseWeights,
};
pub use mining::{mine_negative_rules, MiningConfig, NegativeRule, Pattern};
