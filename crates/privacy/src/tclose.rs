//! t-closeness (Li, Li & Venkatasubramanian, cited as \[4\]).
//!
//! The distribution of the sensitive attribute within each group must be
//! within EMD `t` of the whole-table distribution `Q`. The ground distance
//! follows the sensitive attribute's type: ordered EMD for numeric domains,
//! hierarchical EMD for categorical domains with a generalization hierarchy
//! (the paper's Occupation attribute has a height-2 hierarchy).

use bgkanon_data::{AttributeKind, Table};
use bgkanon_stats::emd::{hierarchical_emd, ordered_emd};
use bgkanon_stats::Dist;

use crate::requirement::{GroupView, PrivacyRequirement};

#[derive(Debug, Clone)]
enum Ground {
    Ordered,
    Hierarchical(bgkanon_data::Hierarchy),
}

/// The t-closeness requirement.
#[derive(Debug, Clone)]
pub struct TCloseness {
    t: f64,
    table_distribution: Dist,
    ground: Ground,
}

impl TCloseness {
    /// Build for `table` with threshold `t ∈ [0, 1]`. The reference
    /// distribution `Q` and the ground distance are derived from the table's
    /// sensitive attribute.
    pub fn new(t: f64, table: &Table) -> Self {
        assert!((0.0..=1.0).contains(&t), "t must be in [0, 1], got {t}");
        let table_distribution =
            Dist::new(table.sensitive_distribution()).expect("table distribution is valid");
        let sensitive = table.schema().sensitive_attribute();
        let ground = match sensitive.kind() {
            AttributeKind::Numeric { .. } => Ground::Ordered,
            AttributeKind::Categorical { hierarchy, .. } => Ground::Hierarchical(hierarchy.clone()),
        };
        TCloseness {
            t,
            table_distribution,
            ground,
        }
    }

    /// The threshold `t`.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// EMD between a group distribution and the table distribution.
    fn emd_to_table(&self, group_dist: &Dist) -> f64 {
        match &self.ground {
            Ground::Ordered => ordered_emd(group_dist, &self.table_distribution),
            Ground::Hierarchical(h) => hierarchical_emd(h, group_dist, &self.table_distribution),
        }
    }
}

impl PrivacyRequirement for TCloseness {
    fn name(&self) -> String {
        format!("{}-closeness", self.t)
    }

    fn is_satisfied(&self, group: &GroupView<'_>) -> bool {
        if group.is_empty() {
            return false;
        }
        let dist = Dist::from_counts(group.sensitive_counts).expect("non-empty group");
        self.emd_to_table(&dist) <= self.t
    }

    fn counts_decidable(&self) -> bool {
        true
    }

    fn is_satisfied_by_counts(&self, len: usize, sensitive_counts: &[u32]) -> bool {
        if len == 0 {
            return false;
        }
        let dist = Dist::from_counts(sensitive_counts).expect("non-empty group");
        self.emd_to_table(&dist) <= self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;

    #[test]
    fn whole_table_always_satisfies() {
        let t = toy::hospital_table();
        let rows: Vec<usize> = (0..t.len()).collect();
        let mut buf = Vec::new();
        let g = GroupView::compute(&t, &rows, &mut buf);
        // The whole table is at EMD 0 from itself.
        assert!(TCloseness::new(0.0, &t).is_satisfied(&g));
    }

    #[test]
    fn skewed_group_fails_small_t() {
        let t = toy::hospital_table();
        // A pure-Flu group is far from the table's (2,2,3,2)/9 mix.
        let rows = [2usize, 4, 6];
        let mut buf = Vec::new();
        let g = GroupView::compute(&t, &rows, &mut buf);
        assert!(!TCloseness::new(0.1, &t).is_satisfied(&g));
        assert!(TCloseness::new(1.0, &t).is_satisfied(&g));
    }

    #[test]
    fn monotone_in_t() {
        let t = toy::hospital_table();
        let rows = [0usize, 1, 2];
        let mut buf = Vec::new();
        let g = GroupView::compute(&t, &rows, &mut buf);
        let mut prev = false;
        for i in 0..=10 {
            let thr = i as f64 / 10.0;
            let sat = TCloseness::new(thr, &t).is_satisfied(&g);
            assert!(!prev || sat, "satisfaction must be monotone in t");
            prev = sat;
        }
    }

    #[test]
    fn numeric_sensitive_uses_ordered_emd() {
        use bgkanon_data::{Attribute, Schema, TableBuilder};
        use std::sync::Arc;
        let schema = Arc::new(
            Schema::new(
                vec![Attribute::numeric_range("Age", 20, 60).unwrap()],
                Attribute::numeric("Salary", vec![30.0, 40.0, 50.0]).unwrap(),
            )
            .unwrap(),
        );
        let mut b = TableBuilder::new(schema);
        for (age, sal) in [("20", "30"), ("30", "40"), ("40", "50"), ("50", "40")] {
            b.push_text(&[age, sal]).unwrap();
        }
        let t = b.build().unwrap();
        let tc = TCloseness::new(0.5, &t);
        let rows = [0usize, 1];
        let mut buf = Vec::new();
        let g = GroupView::compute(&t, &rows, &mut buf);
        // Group {30,40} vs table {30,40,50,40}: finite ordered EMD.
        assert!(tc.is_satisfied(&g));
        assert_eq!(tc.t(), 0.5);
    }

    #[test]
    #[should_panic(expected = "t must be in [0, 1]")]
    fn invalid_t_rejected() {
        let t = toy::hospital_table();
        let _ = TCloseness::new(1.5, &t);
    }

    #[test]
    fn name_contains_t() {
        let t = toy::hospital_table();
        assert_eq!(TCloseness::new(0.25, &t).name(), "0.25-closeness");
    }
}
