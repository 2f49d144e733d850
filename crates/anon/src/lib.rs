//! # bgkanon-anon
//!
//! Anonymization algorithms (§III.A, §V of the paper).
//!
//! * [`Mondrian`] — the multidimensional top-down partitioner (LeFevre et
//!   al., cited as \[24\]) with the original dimension-selection and
//!   median-split heuristics, parameterized by any
//!   [`bgkanon_privacy::PrivacyRequirement`]: a split is committed only when
//!   both halves satisfy the requirement. This is the algorithm used for
//!   all four privacy models in the experiments.
//! * [`try_bucketize()`] — Anatomy-style bucketization (Xiao & Tao, cited
//!   as \[16\]): tuples are grouped so each bucket carries ℓ distinct
//!   sensitive values; QI attributes are published unchanged. Under the
//!   paper's threat model (the adversary knows who is in the table and
//!   their QI values) generalization and bucketization are equivalent, so
//!   both produce the same [`AnonymizedTable`] group structure.
//! * [`FullDomain`] — Incognito-style full-domain (global-recoding)
//!   generalization over the lattice of per-attribute levels (reference
//!   \[34\]), for comparing local vs global recoding.
//!
//! All three publish through one contract, [`AnonymizationStrategy`]:
//! a strategy plants a retained [`StrategyState`] on a table, refreshes it
//! incrementally under deltas (bit-identical to a from-scratch plant), and
//! snapshots the current publication with per-group cache stamps.
//! [`AnyStrategy`] is the runtime-selected sum of the three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymized;
pub mod bucketize;
pub mod fulldomain;
pub mod mondrian;
pub mod strategy;
pub mod tree;

pub use anonymized::{AnonymizedTable, Group, GroupRef, PublicationDrift, QiRange};
pub use bucketize::{try_bucketize, Bucketize, BucketizeState};
pub use fulldomain::{FullDomain, FullDomainOutcome, FullDomainState};
pub use mondrian::{Mondrian, SplitDecision};
pub use strategy::{AnonymizationStrategy, AnyState, AnyStrategy, Infeasible, StrategyState};
pub use tree::{PartitionTree, TreeNodeRecord};
