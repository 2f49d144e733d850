//! Normalized semantic distance matrices (§II.C of the paper).
//!
//! Every attribute `Ai` with domain `{v_1..v_r}` is associated with an
//! `r × r` matrix `Mi` where cell `(j,k)` holds the semantic distance between
//! `v_j` and `v_k`, normalized into `[0, 1]`:
//!
//! * numeric: `d_jk = |v_j − v_k| / R` with `R` the domain range;
//! * categorical: `d_jk = h(lca(v_j, v_k)) / H` with `H` the hierarchy height.
//!
//! The data publisher may also supply a custom matrix.

use crate::attribute::{Attribute, AttributeKind};
use crate::error::DataError;

/// A dense, symmetric, zero-diagonal matrix of normalized distances.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n` entries in `[0, 1]`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Derive the canonical matrix for `attribute` per §II.C.
    pub fn for_attribute(attribute: &Attribute) -> Self {
        match attribute.kind() {
            AttributeKind::Numeric { values } => Self::numeric(values),
            AttributeKind::Categorical { hierarchy, .. } => {
                let n = hierarchy.leaf_count();
                let mut data = vec![0.0; n * n];
                for j in 0..n {
                    for k in (j + 1)..n {
                        let d = hierarchy.distance(j as u32, k as u32);
                        data[j * n + k] = d;
                        data[k * n + j] = d;
                    }
                }
                DistanceMatrix { n, data }
            }
        }
    }

    /// Matrix for a strictly increasing numeric domain: `|v_j − v_k| / R`.
    ///
    /// A single-value domain yields the 1×1 zero matrix.
    pub fn numeric(values: &[f64]) -> Self {
        let n = values.len();
        let range = if n > 1 {
            values[n - 1] - values[0]
        } else {
            1.0
        };
        let mut data = vec![0.0; n * n];
        for j in 0..n {
            for k in (j + 1)..n {
                let d = (values[j] - values[k]).abs() / range;
                data[j * n + k] = d;
                data[k * n + j] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Build from an explicit row-major matrix supplied by the data
    /// publisher. Validates shape, symmetry, zero diagonal and range.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        let n = rows.len();
        if n == 0 {
            return Err(DataError::InvalidDomain {
                attribute: "<custom matrix>".into(),
                reason: "distance matrix is empty".into(),
            });
        }
        let mut data = vec![0.0; n * n];
        for (j, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(DataError::InvalidDomain {
                    attribute: "<custom matrix>".into(),
                    reason: format!("row {j} has length {} (expected {n})", row.len()),
                });
            }
            for (k, &d) in row.iter().enumerate() {
                if !(0.0..=1.0).contains(&d) {
                    return Err(DataError::InvalidDomain {
                        attribute: "<custom matrix>".into(),
                        reason: format!("entry ({j},{k}) = {d} outside [0,1]"),
                    });
                }
                data[j * n + k] = d;
            }
        }
        for j in 0..n {
            if data[j * n + j] != 0.0 {
                return Err(DataError::InvalidDomain {
                    attribute: "<custom matrix>".into(),
                    reason: format!("diagonal entry ({j},{j}) must be 0"),
                });
            }
            for k in 0..n {
                if (data[j * n + k] - data[k * n + j]).abs() > 1e-12 {
                    return Err(DataError::InvalidDomain {
                        attribute: "<custom matrix>".into(),
                        reason: format!("matrix not symmetric at ({j},{k})"),
                    });
                }
            }
        }
        Ok(DistanceMatrix { n, data })
    }

    /// Domain size `r`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Distance between codes `a` and `b`.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> f64 {
        self.data[a as usize * self.n + b as usize]
    }

    /// Row `a` as a slice (distances from `a` to every code).
    #[inline]
    pub fn row(&self, a: u32) -> &[f64] {
        let start = a as usize * self.n;
        &self.data[start..start + self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyBuilder;

    #[test]
    fn numeric_matrix_normalizes_by_range() {
        let m = DistanceMatrix::numeric(&[0.0, 5.0, 10.0]);
        assert_eq!(m.size(), 3);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(1, 2), 0.5);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn numeric_singleton_domain() {
        let m = DistanceMatrix::numeric(&[42.0]);
        assert_eq!(m.size(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn categorical_matrix_uses_hierarchy() {
        let mut b = HierarchyBuilder::new("Any");
        let x = b.internal(b.root(), "x");
        let y = b.internal(b.root(), "y");
        b.leaf(x, "a");
        b.leaf(x, "b");
        b.leaf(y, "c");
        let attr = Attribute::categorical(
            "cat",
            vec!["a".into(), "b".into(), "c".into()],
            b.build().unwrap(),
        )
        .unwrap();
        let m = DistanceMatrix::for_attribute(&attr);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn for_attribute_numeric_uses_values() {
        let attr = Attribute::numeric("Age", vec![20.0, 30.0, 60.0]).unwrap();
        let m = DistanceMatrix::for_attribute(&attr);
        assert_eq!(m.get(0, 1), 0.25);
        assert_eq!(m.get(0, 2), 1.0);
    }

    #[test]
    fn custom_matrix_validation() {
        assert!(DistanceMatrix::from_rows(vec![]).is_err());
        // Non-square.
        assert!(DistanceMatrix::from_rows(vec![vec![0.0, 0.1]]).is_err());
        // Out of range.
        assert!(DistanceMatrix::from_rows(vec![vec![0.0, 1.5], vec![1.5, 0.0]]).is_err());
        // Non-zero diagonal.
        assert!(DistanceMatrix::from_rows(vec![vec![0.1, 0.5], vec![0.5, 0.0]]).is_err());
        // Asymmetric.
        assert!(DistanceMatrix::from_rows(vec![vec![0.0, 0.5], vec![0.4, 0.0]]).is_err());
        // Valid.
        let m = DistanceMatrix::from_rows(vec![vec![0.0, 0.5], vec![0.5, 0.0]]).unwrap();
        assert_eq!(m.get(0, 1), 0.5);
    }

    #[test]
    fn row_access_matches_get() {
        let m = DistanceMatrix::numeric(&[0.0, 1.0, 4.0]);
        let row = m.row(1);
        for k in 0..3u32 {
            assert_eq!(row[k as usize], m.get(1, k));
        }
    }

    #[test]
    fn symmetry_and_identity_hold_for_derived_matrices() {
        let attr = Attribute::numeric_range("Age", 17, 90).unwrap();
        let m = DistanceMatrix::for_attribute(&attr);
        for a in (0..74u32).step_by(7) {
            assert_eq!(m.get(a, a), 0.0);
            for b in (0..74u32).step_by(11) {
                assert_eq!(m.get(a, b), m.get(b, a));
                assert!((0.0..=1.0).contains(&m.get(a, b)));
            }
        }
    }
}
