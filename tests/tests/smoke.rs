//! Workspace smoke test: the paper's Table I scenario end to end.
//!
//! The nine-patient hospital table must publish under
//! k-anonymity ∧ (B,t)-privacy, and auditing the release against the
//! Adv(B) adversary must show a worst-case disclosure risk within t.

use bgkanon::prelude::*;

const B: f64 = 0.3;
const T: f64 = 0.25;
const K: usize = 3;

#[test]
fn hospital_table_publishes_and_audits_within_t() {
    let table = bgkanon::data::toy::hospital_table();

    let outcome = Publisher::new()
        .k_anonymity(K)
        .bt_privacy(B, T)
        .publish(&table)
        .expect("the toy hospital table satisfies k-anonymity ∧ (B,t)-privacy");

    // The release is a partition of all nine patients into groups of ≥ k.
    let mut seen = vec![false; table.len()];
    for group in outcome.anonymized.groups() {
        assert!(
            group.len() >= K,
            "group of size {} violates k={K}",
            group.len()
        );
        for &row in &group.rows {
            assert!(!seen[row], "row {row} published twice");
            seen[row] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "every patient must be published");

    // Definition 1 honoured in the released table: the Adv(B) adversary's
    // prior → posterior distance stays within t for every tuple.
    let report = outcome
        .audit_against(&table, B, T)
        .expect("valid bandwidth");
    assert!(
        report.worst_case <= T + 1e-9,
        "worst-case disclosure {} exceeds t={T}",
        report.worst_case
    );
    assert_eq!(report.risks.len(), table.len());
    assert_eq!(report.vulnerable, 0, "no tuple may exceed the threshold");
    assert!(report.mean <= report.worst_case + 1e-12);
}
