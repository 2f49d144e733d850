//! Discernibility Metric (DM), Bayardo & Agrawal (cited as \[25\]).
//!
//! Every tuple in an equivalence class of size `|G|` is indistinguishable
//! from `|G|` tuples, incurring penalty `|G|`; the table's DM cost is
//! `Σ_G |G|²`. Lower is better; the minimum for an n-row table partitioned
//! into groups of at least `k` is achieved by uniform groups of size `k`.

use bgkanon_anon::AnonymizedTable;

/// DM cost of a published partition.
pub fn discernibility(table: &AnonymizedTable) -> u64 {
    table
        .iter()
        .map(|g| {
            let s = g.len() as u64;
            s * s
        })
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
    fn dm_of_paper_groups() {
        let t = toy::hospital_table();
        let groups: Vec<Group> = toy::hospital_groups()
            .into_iter()
            .map(|rows| Group::from_rows(&t, rows))
            .collect();
        let at = bgkanon_anon::AnonymizedTable::new(&t, groups);
        // Three groups of 3: 3 · 9 = 27.
        assert_eq!(discernibility(&at), 27);
    }

    #[test]
    fn one_big_group_is_worst() {
        let t = toy::hospital_table();
        let whole =
            bgkanon_anon::AnonymizedTable::new(&t, vec![Group::from_rows(&t, (0..9).collect())]);
        assert_eq!(discernibility(&whole), 81);
    }

    #[test]
    fn dm_grows_with_k() {
        let t = adult::generate(600, 21);
        let dm_of = |k: usize| {
            let m = Mondrian::new(Arc::new(KAnonymity::new(k)));
            discernibility(&m.anonymize(&t))
        };
        let d3 = dm_of(3);
        let d10 = dm_of(10);
        assert!(
            d10 >= d3,
            "stricter k must not decrease DM: k=3 {d3}, k=10 {d10}"
        );
    }
}
