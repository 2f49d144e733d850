//! Global Certainty Penalty (GCP), Xu et al. (cited as \[26\]).
//!
//! The Normalized Certainty Penalty of a group on attribute `A_i` measures
//! how much of the attribute's domain the generalized value covers:
//!
//! * numeric: `(max − min) / R_i` (0 when the group is constant on `A_i`);
//! * categorical: `(#leaves under the generalizing ancestor) / r_i`,
//!   0 when a single value remains.
//!
//! A tuple's penalty is the sum of its group's per-attribute NCPs, and
//! `GCP = Σ_G |G| · Σ_i NCP_i(G)`.

use bgkanon_anon::{AnonymizedTable, GroupRef};
use bgkanon_data::{AttributeKind, Schema};

/// Sum of per-attribute NCPs for one group (between 0 and `d`).
pub fn ncp_of_group(schema: &Schema, group: GroupRef<'_>) -> f64 {
    group
        .ranges
        .iter()
        .enumerate()
        .map(|(i, range)| {
            if range.min == range.max {
                return 0.0;
            }
            let attr = schema.qi_attribute(i);
            match attr.kind() {
                AttributeKind::Numeric { values } => {
                    let r = values[values.len() - 1] - values[0];
                    if r > 0.0 {
                        (values[range.max as usize] - values[range.min as usize]) / r
                    } else {
                        0.0
                    }
                }
                AttributeKind::Categorical { hierarchy, .. } => {
                    let lca = hierarchy
                        .lca_of_set(range.min..=range.max)
                        .expect("non-empty range");
                    hierarchy.leaves_below(lca).len() as f64 / hierarchy.leaf_count() as f64
                }
            }
        })
        .sum()
}

/// GCP cost of a published partition: `Σ_G |G| · NCP(G)`.
pub fn global_certainty_penalty(table: &AnonymizedTable) -> f64 {
    let schema = table.schema();
    table
        .iter()
        .map(|g| g.len() as f64 * ncp_of_group(schema, g))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_anon::{Group, Mondrian};
    use bgkanon_data::{adult, toy};
    use bgkanon_privacy::KAnonymity;
    use std::sync::Arc;

    #[test]
    fn constant_group_has_zero_ncp() {
        let t = toy::hospital_table();
        // Rows 2 and 8 share age 52 but differ in sex; rows {2} alone is
        // fully specific.
        let g = Group::from_rows(&t, vec![2]);
        assert_eq!(ncp_of_group(t.schema(), g.view()), 0.0);
    }

    #[test]
    fn ncp_uses_numeric_span_and_categorical_leaves() {
        let t = toy::hospital_table();
        // Rows 0..3: ages 45–69 over range 40–70 → 24/30; sexes {F, M} →
        // full flat hierarchy → 2/2 = 1.
        let g = Group::from_rows(&t, vec![0, 1, 2]);
        let ncp = ncp_of_group(t.schema(), g.view());
        assert!((ncp - (24.0 / 30.0 + 1.0)).abs() < 1e-12, "ncp = {ncp}");
    }

    #[test]
    fn gcp_of_paper_partition() {
        let t = toy::hospital_table();
        let groups: Vec<Group> = toy::hospital_groups()
            .into_iter()
            .map(|rows| Group::from_rows(&t, rows))
            .collect();
        let at = bgkanon_anon::AnonymizedTable::new(&t, groups);
        let gcp = global_certainty_penalty(&at);
        // Group 1: 24/30 + 1; group 2 (ages 42..47, F): 5/30 + 0; group 3
        // (ages 50..56, M): 6/30 + 0. Each × 3 tuples.
        let expect = 3.0 * (24.0 / 30.0 + 1.0) + 3.0 * (5.0 / 30.0) + 3.0 * (6.0 / 30.0);
        assert!((gcp - expect).abs() < 1e-9, "gcp = {gcp}, expect {expect}");
    }

    #[test]
    fn gcp_grows_with_k() {
        let t = adult::generate(600, 22);
        let gcp_of = |k: usize| {
            let m = Mondrian::new(Arc::new(KAnonymity::new(k)));
            global_certainty_penalty(&m.anonymize(&t))
        };
        let g3 = gcp_of(3);
        let g12 = gcp_of(12);
        assert!(
            g12 >= g3,
            "stricter k must not decrease GCP: k=3 {g3}, k=12 {g12}"
        );
    }

    #[test]
    fn gcp_bounded_by_n_times_d() {
        let t = adult::generate(300, 23);
        let m = Mondrian::new(Arc::new(KAnonymity::new(10)));
        let at = m.anonymize(&t);
        let gcp = global_certainty_penalty(&at);
        assert!(gcp <= (t.len() * t.qi_count()) as f64 + 1e-9);
        assert!(gcp >= 0.0);
    }
}
