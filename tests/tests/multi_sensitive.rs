//! End-to-end test of the multiple-sensitive-attributes extension (§II.A):
//! two sensitive attributes combined as a joint product attribute flow
//! through the whole pipeline — kernel priors, Ω inference, (B,t)-privacy
//! enforcement, auditing and utility.

use std::sync::Arc;

use bgkanon::data::joint;
use bgkanon::data::{Attribute, TableBuilder};
use bgkanon::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build a table with QI (Age, Sex) and the joint sensitive attribute
/// Disease × SalaryBand, with correlations for both components.
fn joint_table(n: usize, seed: u64) -> Table {
    let disease = Attribute::categorical_flat("Disease", &["Flu", "Cancer", "HIV"]).unwrap();
    let salary = Attribute::numeric("SalaryBand", vec![30.0, 50.0, 90.0]).unwrap();
    let qi = vec![
        Attribute::numeric_range("Age", 20, 70).unwrap(),
        Attribute::categorical_flat("Sex", &["F", "M"]).unwrap(),
    ];
    let schema = Arc::new(joint::joint_schema(qi, &disease, &salary).unwrap());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TableBuilder::new(Arc::clone(&schema));
    for _ in 0..n {
        let age = rng.gen_range(0..51u32);
        let sex = rng.gen_range(0..2u32);
        // Disease correlates with age; salary band with age too.
        let disease_code = if age > 35 {
            [0, 1, 1, 2][rng.gen_range(0..4usize)]
        } else {
            [0, 0, 0, 1, 2][rng.gen_range(0..5usize)]
        };
        let salary_code = if age > 25 {
            rng.gen_range(1..3u32)
        } else {
            rng.gen_range(0..2u32)
        };
        let joint_code = joint::encode(disease_code, salary_code, 3);
        b.push_codes(&[age, sex], joint_code).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn joint_pipeline_end_to_end() {
    let table = joint_table(600, 11);
    assert_eq!(table.schema().sensitive_domain_size(), 9);

    let outcome = Publisher::new()
        .k_anonymity(4)
        .bt_privacy(0.3, 0.3)
        .publish(&table)
        .expect("satisfiable");
    // Enforcement is honored by the audit with the same profile.
    let report = outcome
        .audit_against(&table, 0.3, 0.3)
        .expect("valid bandwidth");
    assert_eq!(report.vulnerable, 0, "worst case {}", report.worst_case);

    // Utility machinery works on the product domain.
    let dm = bgkanon::utility::discernibility(&outcome.anonymized);
    assert!(dm >= table.len() as u64);
}

#[test]
fn joint_priors_capture_component_correlations() {
    let table = joint_table(2_000, 12);
    let adversary = Adversary::kernel(&table, Bandwidth::uniform(0.15, 2).unwrap());
    // Older tuples: more mass on (Cancer|*) + (HIV|*) joint codes than young.
    let mass = |qi: &[u32], disease: u32| -> f64 {
        let p = adversary.prior(qi);
        (0..3u32)
            .map(|s| p.get(joint::encode(disease, s, 3) as usize))
            .sum()
    };
    // Age code 45 (real 65) male vs age code 2 (real 22) male.
    let old_cancer = mass(&[45, 1], 1);
    let young_cancer = mass(&[2, 1], 1);
    assert!(
        old_cancer > young_cancer,
        "old {old_cancer} vs young {young_cancer}"
    );
}

#[test]
fn joint_measure_is_semantically_aware_on_components() {
    // Shifting belief within a shared component (same disease, different
    // salary) must cost less than shifting both components.
    let table = joint_table(200, 13);
    let measure = SmoothedJs::new(
        table.schema().sensitive_distance(),
        Kernel::epanechnikov(0.6),
    );
    let m = table.schema().sensitive_domain_size();
    let base = Dist::point_mass(joint::encode(0, 0, 3) as usize, m);
    let same_disease = Dist::point_mass(joint::encode(0, 2, 3) as usize, m);
    let both_differ = Dist::point_mass(joint::encode(2, 2, 3) as usize, m);
    let near = measure.distance(&base, &same_disease);
    let far = measure.distance(&base, &both_differ);
    assert!(near < far, "near {near} vs far {far}");
}
