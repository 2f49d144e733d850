//! The paper's running examples as ready-made tables.
//!
//! * [`hospital_table`] — Table I(a): nine patients with `Age`, `Sex` and the
//!   sensitive `Disease`.
//! * [`hiv_example_priors`] — the §III.B three-tuple group with prior beliefs
//!   from Table II(b), used to validate exact inference (posterior 0.8) and
//!   the Ω-estimate.

use std::sync::Arc;

use crate::attribute::Attribute;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};

/// Schema of the paper's Table I: QI = (Age, Sex), sensitive = Disease.
fn hospital_schema() -> Arc<Schema> {
    let age = Attribute::numeric_range("Age", 40, 70).expect("static domain");
    let sex = Attribute::categorical_flat("Sex", &["F", "M"]).expect("static domain");
    let disease =
        Attribute::categorical_flat("Disease", &["Emphysema", "Cancer", "Flu", "Gastritis"])
            .expect("static domain");
    Arc::new(Schema::new(vec![age, sex], disease).expect("static schema"))
}

/// The paper's original patient table T (Table I(a)).
pub fn hospital_table() -> Table {
    let rows: &[(&str, &str, &str)] = &[
        ("69", "M", "Emphysema"),
        ("45", "F", "Cancer"),
        ("52", "F", "Flu"),
        ("43", "F", "Gastritis"),
        ("42", "F", "Flu"),
        ("47", "F", "Cancer"),
        ("50", "M", "Flu"),
        ("56", "M", "Emphysema"),
        ("52", "M", "Gastritis"),
    ];
    let mut b = TableBuilder::new(hospital_schema());
    for (age, sex, disease) in rows {
        b.push_text(&[age, sex, disease]).expect("static rows");
    }
    b.build().expect("non-empty")
}

/// The generalization groups of Table I(b): rows 0–2, 3–5, 6–8.
pub fn hospital_groups() -> Vec<Vec<usize>> {
    vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]
}

/// The §III.B example: a group of three tuples with sensitive values
/// `{none, none, HIV}` and the adversary's prior beliefs of Table II(b).
///
/// Returns `(priors, sensitive_codes)` where `priors[j]` is tuple `t_{j+1}`'s
/// prior distribution over `(HIV, none)` and `sensitive_codes` is the actual
/// assignment `(none, none, HIV)` with code 0 = HIV, 1 = none.
pub fn hiv_example_priors() -> (Vec<Vec<f64>>, Vec<u32>) {
    (
        vec![vec![0.05, 0.95], vec![0.05, 0.95], vec![0.30, 0.70]],
        vec![1, 1, 0],
    )
}

/// The Table III variant of the §III.B example where `t1` and `t2`
/// cannot have HIV — used to demonstrate the Ω-estimate's inexactness
/// (exact posterior 1.0 vs Ω ≈ 0.66).
pub fn hiv_example_priors_zero() -> (Vec<Vec<f64>>, Vec<u32>) {
    (
        vec![vec![0.0, 1.0], vec![0.0, 1.0], vec![0.30, 0.70]],
        vec![1, 1, 0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_table_matches_paper() {
        let t = hospital_table();
        assert_eq!(t.len(), 9);
        assert_eq!(t.qi_count(), 2);
        // Row 1 (Bob's row in the example): 69-year-old male with Emphysema.
        let schema = t.schema();
        assert_eq!(schema.qi_attribute(0).display_value(t.qi_value(0, 0)), "69");
        assert_eq!(schema.qi_attribute(1).display_value(t.qi_value(0, 1)), "M");
        assert_eq!(
            schema
                .sensitive_attribute()
                .display_value(t.sensitive_value(0)),
            "Emphysema"
        );
        // Disease counts: 2 emphysema, 2 cancer, 3 flu, 2 gastritis.
        assert_eq!(t.sensitive_counts(), vec![2, 2, 3, 2]);
    }

    #[test]
    fn hospital_groups_partition_the_table() {
        let t = hospital_table();
        let groups = hospital_groups();
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..t.len()).collect::<Vec<_>>());
    }

    #[test]
    fn hiv_priors_are_distributions() {
        for (priors, sens) in [hiv_example_priors(), hiv_example_priors_zero()] {
            assert_eq!(priors.len(), 3);
            assert_eq!(sens, vec![1, 1, 0]);
            for p in &priors {
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }
        }
    }
}
