//! # bgkanon
//!
//! A Rust implementation of **"Modeling and Integrating Background Knowledge
//! in Data Anonymization"** (Tiancheng Li, Ninghui Li, Jian Zhang, ICDE
//! 2009): kernel-regression modeling of adversarial background knowledge,
//! Bayesian posterior inference with the Ω-estimate, the skyline
//! (B,t)-privacy model, and the full experimental harness around them.
//!
//! ## The pipeline in one example
//!
//! ```
//! use bgkanon::prelude::*;
//!
//! // 1. Data: the paper's hospital example (Table I).
//! let table = bgkanon::data::toy::hospital_table();
//!
//! // 2. Publish under k-anonymity ∧ (B,t)-privacy.
//! let outcome = Publisher::new()
//!     .k_anonymity(3)
//!     .bt_privacy(0.3, 0.25)
//!     .publish(&table)
//!     .expect("the toy table satisfies the requirement");
//!
//! // 3. Audit the release against an adversary with background knowledge.
//! let report = outcome
//!     .audit_against(&table, 0.3, 0.25)
//!     .expect("b′ = 0.3 is a valid bandwidth");
//! assert!(report.worst_case <= 0.25 + 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`data`] | schemas, tables, hierarchies, distance matrices, datasets |
//! | [`stats`] | distributions, kernels, divergences, EMD, permanents |
//! | [`knowledge`] | kernel-regression prior estimation, `Adv(B)` |
//! | [`inference`] | exact posterior + Ω-estimate |
//! | [`privacy`] | k-anonymity, ℓ-diversity, t-closeness, (B,t), skyline |
//! | [`anon`] | Mondrian, bucketization, generalized output |
//! | [`utility`] | DM, GCP, aggregate query workloads |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bgkanon_anon as anon;
pub use bgkanon_data as data;
pub use bgkanon_inference as inference;
pub use bgkanon_knowledge as knowledge;
pub use bgkanon_privacy as privacy;
pub use bgkanon_stats as stats;
pub use bgkanon_utility as utility;

mod format;
#[cfg(test)]
mod fuzz;
pub mod hub;
pub mod params;
pub mod publisher;
mod readers;
pub mod recover;
pub mod session;
pub mod wal;

pub use data::Parallelism;
pub use hub::{MemoryStats, SessionHub, TenantSnapshot};
pub use publisher::{Algorithm, Drift, PublishError, PublishOutcome, Publisher};
pub use recover::{RecoveryReport, TenantRecovery};
pub use session::{PublishSession, SessionError};
pub use wal::{DurabilityOptions, SyncPolicy, WalError};

/// Convenient glob-import surface: the types most programs need.
pub mod prelude {
    pub use crate::anon::{
        AnonymizedTable, AnyStrategy, Bucketize, FullDomain, Mondrian, PartitionTree,
    };
    pub use crate::data::{
        Attribute, Delta, DeltaBuilder, Parallelism, Schema, Table, TableBuilder,
    };
    pub use crate::hub::{MemoryStats, SessionHub, TenantSnapshot};
    pub use crate::inference::{exact_posteriors, omega_posteriors, GroupPriors};
    pub use crate::knowledge::{Adversary, Bandwidth};
    pub use crate::params::PaperParams;
    pub use crate::privacy::{
        AuditReport, Auditor, BTPrivacy, DistinctLDiversity, KAnonymity, PrivacyRequirement,
        ProbabilisticLDiversity, SharedAuditSession, SkylineBTPrivacy, TCloseness,
    };
    pub use crate::publisher::{Algorithm, PublishOutcome, Publisher};
    pub use crate::session::{PublishSession, SessionError};
    pub use crate::stats::{BeliefDistance, Dist, Kernel, SmoothedJs};
}
