//! Attribute definitions: numeric and categorical domains.

use crate::error::DataError;
use crate::hierarchy::Hierarchy;

/// The two kinds of attribute domains the paper's framework distinguishes
/// (§II.C): continuous attributes use range-normalized absolute difference as
/// semantic distance; categorical attributes use the normalized height of the
/// lowest common ancestor in their generalization hierarchy.
#[derive(Debug, Clone)]
pub enum AttributeKind {
    /// An ordered numeric domain. `values[code]` is the numeric value encoded
    /// by `code`; values must be strictly increasing.
    Numeric {
        /// The numeric value of each code, strictly increasing.
        values: Vec<f64>,
    },
    /// A categorical domain with a generalization hierarchy whose leaves are
    /// exactly the domain values in code order.
    Categorical {
        /// Domain labels in code order (label of code `c` is `labels[c]`).
        labels: Vec<String>,
        /// Generalization hierarchy over the domain.
        hierarchy: Hierarchy,
    },
}

/// A named attribute with its domain.
#[derive(Debug, Clone)]
pub struct Attribute {
    name: String,
    kind: AttributeKind,
}

impl Attribute {
    /// Build a numeric attribute from a strictly increasing list of values.
    pub fn numeric(name: &str, values: Vec<f64>) -> Result<Self, DataError> {
        if values.is_empty() {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: "numeric domain is empty".into(),
            });
        }
        if values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: "numeric domain values must be strictly increasing".into(),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: "numeric domain values must be finite".into(),
            });
        }
        Ok(Attribute {
            name: name.to_owned(),
            kind: AttributeKind::Numeric { values },
        })
    }

    /// Build a numeric attribute over the integer range `lo..=hi`.
    pub fn numeric_range(name: &str, lo: i64, hi: i64) -> Result<Self, DataError> {
        if lo > hi {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: format!("empty integer range {lo}..={hi}"),
            });
        }
        Attribute::numeric(name, (lo..=hi).map(|v| v as f64).collect())
    }

    /// Build a categorical attribute with an explicit hierarchy. The
    /// hierarchy's leaves must match `labels` in count.
    pub fn categorical(
        name: &str,
        labels: Vec<String>,
        hierarchy: Hierarchy,
    ) -> Result<Self, DataError> {
        if labels.is_empty() {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: "categorical domain is empty".into(),
            });
        }
        if hierarchy.leaf_count() != labels.len() {
            return Err(DataError::InvalidDomain {
                attribute: name.to_owned(),
                reason: format!(
                    "hierarchy has {} leaves but domain has {} labels",
                    hierarchy.leaf_count(),
                    labels.len()
                ),
            });
        }
        Ok(Attribute {
            name: name.to_owned(),
            kind: AttributeKind::Categorical { labels, hierarchy },
        })
    }

    /// Build a categorical attribute with a flat (height-1) hierarchy.
    pub fn categorical_flat(name: &str, labels: &[&str]) -> Result<Self, DataError> {
        let hierarchy = Hierarchy::flat(name, labels);
        Attribute::categorical(
            name,
            labels.iter().map(|s| (*s).to_owned()).collect(),
            hierarchy,
        )
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute kind (numeric or categorical).
    pub fn kind(&self) -> &AttributeKind {
        &self.kind
    }

    /// Domain size `r` (number of distinct codes).
    pub fn domain_size(&self) -> u32 {
        match &self.kind {
            AttributeKind::Numeric { values } => values.len() as u32,
            AttributeKind::Categorical { labels, .. } => labels.len() as u32,
        }
    }

    /// The generalization hierarchy, if categorical.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        match &self.kind {
            AttributeKind::Categorical { hierarchy, .. } => Some(hierarchy),
            AttributeKind::Numeric { .. } => None,
        }
    }

    /// Human-readable label of `code`.
    pub fn display_value(&self, code: u32) -> String {
        match &self.kind {
            AttributeKind::Numeric { values } => values
                .get(code as usize)
                .map(|v| {
                    if v.fract() == 0.0 {
                        format!("{}", *v as i64)
                    } else {
                        format!("{v}")
                    }
                })
                .unwrap_or_else(|| format!("<code {code}>")),
            AttributeKind::Categorical { labels, .. } => labels
                .get(code as usize)
                .cloned()
                .unwrap_or_else(|| format!("<code {code}>")),
        }
    }

    /// Encode a textual value into its domain code.
    ///
    /// Numeric attributes parse the text as `f64` and require an exact domain
    /// match; categorical attributes match labels exactly. Surrounding
    /// whitespace is ignored.
    pub fn encode(&self, text: &str) -> Result<u32, DataError> {
        let unknown = || DataError::UnknownValue {
            attribute: self.name.clone(),
            value: text.to_owned(),
        };
        let key = text.trim();
        let code = match &self.kind {
            AttributeKind::Numeric { values } => {
                let v: f64 = match plain_integer(key) {
                    Some(v) => v,
                    None => key.parse().map_err(|_| unknown())?,
                };
                // The values are strictly increasing: the one equal to `v`,
                // if any, is where the values below `v` end.
                let i = values.partition_point(|&x| x < v);
                (values.get(i) == Some(&v)).then_some(i)
            }
            AttributeKind::Categorical { labels, .. } => labels.iter().position(|l| l == key),
        };
        code.map(|i| i as u32).ok_or_else(unknown)
    }

    /// Validate that `code` is inside this attribute's domain.
    pub fn check_code(&self, code: u32) -> Result<(), DataError> {
        if code < self.domain_size() {
            Ok(())
        } else {
            Err(DataError::CodeOutOfRange {
                attribute: self.name.clone(),
                code,
                domain_size: self.domain_size(),
            })
        }
    }
}

/// The value of 1–15 ASCII digits: every such number is an exact `f64`,
/// so it equals what `str::parse::<f64>` returns for the same text.
fn plain_integer(text: &str) -> Option<f64> {
    let bytes = text.as_bytes();
    if bytes.is_empty() || bytes.len() > 15 || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let value = bytes
        .iter()
        .fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
    Some(value as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_attribute_roundtrip() {
        let a = Attribute::numeric_range("Age", 17, 90).unwrap();
        assert_eq!(a.domain_size(), 74);
        assert_eq!(a.encode("17").unwrap(), 0);
        assert_eq!(a.encode("90").unwrap(), 73);
        assert_eq!(a.display_value(0), "17");
        assert_eq!(a.display_value(5), "22");
        assert!(a.hierarchy().is_none());
    }

    #[test]
    fn numeric_rejects_unsorted_and_empty() {
        assert!(Attribute::numeric("x", vec![]).is_err());
        assert!(Attribute::numeric("x", vec![1.0, 1.0]).is_err());
        assert!(Attribute::numeric("x", vec![2.0, 1.0]).is_err());
        assert!(Attribute::numeric("x", vec![1.0, f64::NAN]).is_err());
        assert!(Attribute::numeric_range("x", 5, 4).is_err());
    }

    #[test]
    fn categorical_attribute_roundtrip() {
        let a = Attribute::categorical_flat("Sex", &["Female", "Male"]).unwrap();
        assert_eq!(a.domain_size(), 2);
        assert_eq!(a.encode("Male").unwrap(), 1);
        assert_eq!(a.encode(" Female ").unwrap(), 0);
        assert!(a.encode("Other").is_err());
        assert_eq!(a.display_value(1), "Male");
        assert_eq!(a.hierarchy().unwrap().height(), 1);
    }

    #[test]
    fn categorical_rejects_mismatched_hierarchy() {
        let h = Hierarchy::flat("root", &["a", "b"]);
        let r = Attribute::categorical("x", vec!["a".into()], h);
        assert!(r.is_err());
    }

    #[test]
    fn unknown_numeric_value_rejected() {
        let a = Attribute::numeric_range("Age", 17, 90).unwrap();
        assert!(a.encode("16").is_err());
        assert!(a.encode("abc").is_err());
    }

    #[test]
    fn check_code_bounds() {
        let a = Attribute::categorical_flat("Sex", &["F", "M"]).unwrap();
        assert!(a.check_code(1).is_ok());
        assert!(matches!(
            a.check_code(2),
            Err(DataError::CodeOutOfRange { .. })
        ));
    }
}
