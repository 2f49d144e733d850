//! # bgkanon-privacy
//!
//! Privacy requirements for data publishing (§IV of the paper), expressed as
//! predicates over candidate groups that a partitioning algorithm (Mondrian)
//! can test:
//!
//! * [`KAnonymity`] — group size at least `k` (identity disclosure);
//! * [`DistinctLDiversity`] / [`ProbabilisticLDiversity`] — the ℓ-diversity
//!   family;
//! * [`TCloseness`] — EMD between the group's and the table's sensitive
//!   distribution at most `t`;
//! * [`BTPrivacy`] — the paper's Definition 1: the `Adv(B)` adversary's
//!   prior → posterior distance bounded by `t` for every tuple;
//! * [`SkylineBTPrivacy`] — Definition 2: a set of `(B_i, t_i)` constraints
//!   enforced simultaneously against adversaries of different strength.
//!
//! [`audit`] evaluates a published grouping against an arbitrary adversary —
//! the probabilistic background-knowledge attack of §V.A.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bt;
pub mod kanon;
pub mod ldiv;
pub mod requirement;
pub mod skyline;
pub mod tclose;

pub use audit::{AuditReport, Auditor, SharedAuditSession, StampCarry};
pub use bt::BTPrivacy;
pub use kanon::KAnonymity;
pub use ldiv::{DistinctLDiversity, ProbabilisticLDiversity};
pub use requirement::{And, GroupView, PrivacyRequirement};
pub use skyline::{SkylineBTPrivacy, SkylineError};
pub use tclose::TCloseness;
