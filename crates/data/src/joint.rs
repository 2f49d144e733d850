//! Multiple sensitive attributes via their joint distribution (§II.A).
//!
//! The paper handles one sensitive attribute and notes that several can be
//! treated "separately or \[by\] their joint distribution". This module
//! implements the joint route: two sensitive attributes `S1 × S2` become a
//! single product attribute whose codes enumerate value pairs
//! (`code = c1 · r2 + c2`), with a semantic [`DistanceMatrix`] given by the
//! average of the component distances — so the smoothed belief distance and
//! EMD remain meaningful on the product domain.
//!
//! ```
//! use bgkanon_data::{joint, Attribute};
//!
//! let disease = Attribute::categorical_flat("Disease", &["Flu", "HIV"]).unwrap();
//! let salary = Attribute::numeric("Salary", vec![30.0, 50.0, 90.0]).unwrap();
//! let product = joint::joint_attribute(&disease, &salary).unwrap();
//! assert_eq!(product.attribute.domain_size(), 6);
//! assert_eq!(product.attribute.display_value(joint::encode(1, 2, 3)), "HIV|90");
//! ```

use crate::attribute::Attribute;
use crate::distance::DistanceMatrix;
use crate::error::DataError;
use crate::hierarchy::Hierarchy;
use crate::schema::Schema;

/// A product sensitive attribute plus its joint distance matrix.
#[derive(Debug, Clone)]
pub struct JointAttribute {
    /// The combined attribute with labels `"v1|v2"` in row-major code order.
    pub attribute: Attribute,
    /// Joint semantic distance: `(d1(a1,b1) + d2(a2,b2)) / 2`.
    pub distance: DistanceMatrix,
    /// Domain size of the second component (needed to decode codes).
    pub second_domain: u32,
}

/// Code of the pair `(c1, c2)` in a product domain with `r2` second-component
/// values.
#[inline]
pub fn encode(c1: u32, c2: u32, r2: u32) -> u32 {
    c1 * r2 + c2
}

/// Decode a product code back into `(c1, c2)`.
#[inline]
fn decode(code: u32, r2: u32) -> (u32, u32) {
    (code / r2, code % r2)
}

/// Build the product of two sensitive attributes.
// bgk-allow: R7 the paper's joint sensitive attribute (§II.A), this module's example
pub fn joint_attribute(first: &Attribute, second: &Attribute) -> Result<JointAttribute, DataError> {
    let r1 = first.domain_size();
    let r2 = second.domain_size();
    let total = (r1 as u64) * (r2 as u64);
    if total > 4096 {
        return Err(DataError::InvalidDomain {
            attribute: format!("{}×{}", first.name(), second.name()),
            reason: format!("joint domain of {total} values is too large to enumerate"),
        });
    }
    let mut labels = Vec::with_capacity(total as usize);
    for c1 in 0..r1 {
        for c2 in 0..r2 {
            labels.push(format!(
                "{}|{}",
                first.display_value(c1),
                second.display_value(c2)
            ));
        }
    }
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let attribute = Attribute::categorical(
        &format!("{}|{}", first.name(), second.name()),
        labels.clone(),
        Hierarchy::flat(
            &format!("Any-{}|{}", first.name(), second.name()),
            &label_refs,
        ),
    )?;

    let d1 = DistanceMatrix::for_attribute(first);
    let d2 = DistanceMatrix::for_attribute(second);
    let n = total as usize;
    let mut rows = vec![vec![0.0f64; n]; n];
    for a in 0..total as u32 {
        let (a1, a2) = decode(a, r2);
        for b in 0..total as u32 {
            let (b1, b2) = decode(b, r2);
            rows[a as usize][b as usize] = 0.5 * (d1.get(a1, b1) + d2.get(a2, b2));
        }
    }
    let distance = DistanceMatrix::from_rows(rows)?;
    Ok(JointAttribute {
        attribute,
        distance,
        second_domain: r2,
    })
}

/// Build a schema whose sensitive attribute is the product of two
/// attributes, overriding the flat product hierarchy's distance matrix with
/// the joint semantic distance.
// bgk-allow: R7 §II.A's joint route, checked end to end in tests/tests/multi_sensitive.rs
pub fn joint_schema(
    qi: Vec<Attribute>,
    first: &Attribute,
    second: &Attribute,
) -> Result<Schema, DataError> {
    let joint = joint_attribute(first, second)?;
    Schema::with_sensitive_distance(qi, joint.attribute, joint.distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts() -> (Attribute, Attribute) {
        (
            Attribute::categorical_flat("Disease", &["Flu", "Cancer", "HIV"]).unwrap(),
            Attribute::numeric("Salary", vec![30.0, 50.0, 90.0]).unwrap(),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        for c1 in 0..3u32 {
            for c2 in 0..3u32 {
                let code = encode(c1, c2, 3);
                assert_eq!(decode(code, 3), (c1, c2));
            }
        }
    }

    #[test]
    fn joint_labels_and_size() {
        let (a, b) = parts();
        let j = joint_attribute(&a, &b).unwrap();
        assert_eq!(j.attribute.domain_size(), 9);
        assert_eq!(j.attribute.display_value(0), "Flu|30");
        assert_eq!(j.attribute.display_value(8), "HIV|90");
        assert_eq!(j.second_domain, 3);
    }

    #[test]
    fn joint_distance_averages_components() {
        let (a, b) = parts();
        let j = joint_attribute(&a, &b).unwrap();
        // Same disease, salary 30 vs 90: (0 + 1)/2 = 0.5.
        let x = encode(0, 0, 3);
        let y = encode(0, 2, 3);
        assert!((j.distance.get(x, y) - 0.5).abs() < 1e-12);
        // Different disease, same salary: (1 + 0)/2 = 0.5.
        let z = encode(1, 0, 3);
        assert!((j.distance.get(x, z) - 0.5).abs() < 1e-12);
        // Both different and maximal: 1.0.
        let w = encode(2, 2, 3);
        assert!((j.distance.get(x, w) - 1.0).abs() < 1e-12);
        // Identity.
        assert_eq!(j.distance.get(x, x), 0.0);
    }

    #[test]
    fn joint_schema_uses_custom_distance() {
        let (a, b) = parts();
        let qi = vec![Attribute::numeric_range("Age", 20, 60).unwrap()];
        let schema = joint_schema(qi, &a, &b).unwrap();
        assert_eq!(schema.sensitive_domain_size(), 9);
        // Product pairs sharing a component sit at distance 0.5, not the
        // flat hierarchy's 1.0 — proof the custom matrix is in force.
        assert!((schema.sensitive_distance().get(0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversized_joint_rejected() {
        let big1 = Attribute::numeric_range("x", 0, 99).unwrap();
        let big2 = Attribute::numeric_range("y", 0, 99).unwrap();
        assert!(joint_attribute(&big1, &big2).is_err());
    }
}
