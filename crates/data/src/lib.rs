//! # bgkanon-data
//!
//! Microdata table substrate for the `bgkanon` workspace: attribute schemas,
//! value encoding, domain hierarchies, semantic distance matrices, CSV I/O and
//! dataset generators (including a synthetic reproduction of the UCI *Adult*
//! dataset used in the paper's evaluation).
//!
//! A microdata table `T` has `d` quasi-identifier (QI) attributes
//! `A1..Ad` and a single sensitive attribute `S` (§II.A of the paper). Every
//! attribute value is encoded as a dense `u32` code in `0..r` where `r` is the
//! attribute's domain size; numeric attributes additionally carry the numeric
//! value of each code, and categorical attributes carry a domain
//! [`Hierarchy`]. Each attribute induces a normalized semantic
//! [`DistanceMatrix`] over its domain (§II.C): numeric distance is
//! `|v_i - v_j| / R` and categorical distance is `h(lca) / H`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adult;
pub mod attribute;
pub mod csv;
pub mod delta;
pub mod distance;
pub mod error;
pub mod exec;
pub mod hash;
pub mod hierarchy;
pub mod joint;
pub mod schema;
pub mod table;
pub mod toy;

pub use attribute::{Attribute, AttributeKind};
pub use delta::{Delta, DeltaBuilder};
pub use distance::DistanceMatrix;
pub use error::DataError;
pub use exec::{shared_pool, Parallelism, ThreadPool};
pub use hierarchy::Hierarchy;
pub use schema::Schema;
pub use table::{QiCol, Table, TableBuilder};
