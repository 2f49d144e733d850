//! End-to-end integration tests: data → knowledge → anonymization → audit →
//! utility, across every crate of the workspace.

use std::sync::Arc;

use bgkanon::prelude::*;
use bgkanon::utility;

fn adult(n: usize, seed: u64) -> Table {
    bgkanon::data::adult::generate(n, seed)
}

#[test]
fn publish_and_audit_all_models_end_to_end() {
    let table = adult(600, 3);
    let p = bgkanon::params::PARA1;
    let outcomes = vec![
        Publisher::new()
            .k_anonymity(p.k)
            .distinct_l_diversity(p.l)
            .publish(&table)
            .unwrap(),
        Publisher::new()
            .k_anonymity(p.k)
            .probabilistic_l_diversity(p.l)
            .publish(&table)
            .unwrap(),
        Publisher::new()
            .k_anonymity(p.k)
            .t_closeness(p.t)
            .publish(&table)
            .unwrap(),
        Publisher::new()
            .k_anonymity(p.k)
            .bt_privacy(p.b, p.t)
            .publish(&table)
            .unwrap(),
    ];
    for outcome in &outcomes {
        // Partition sanity.
        let total: usize = outcome.anonymized.groups().iter().map(|g| g.len()).sum();
        assert_eq!(total, table.len());
        for g in outcome.anonymized.groups() {
            assert!(g.len() >= p.k);
        }
        // Audit terminates with finite risks.
        let report = outcome
            .audit_against(&table, 0.3, p.t)
            .expect("valid bandwidth");
        assert!(report.worst_case.is_finite());
        assert!(report.mean <= report.worst_case + 1e-12);
        // Utility metrics are consistent.
        let dm = utility::discernibility(&outcome.anonymized);
        assert!(dm as usize >= table.len()); // Σ|G|² ≥ Σ|G| = n.
        let gcp = utility::global_certainty_penalty(&outcome.anonymized);
        assert!(gcp >= 0.0 && gcp <= (table.len() * table.qi_count()) as f64 + 1e-9);
    }
}

#[test]
fn bt_privacy_enforcement_implies_clean_audit() {
    // The defining property: a (B,t)-private table audited against the SAME
    // adversary and measure shows zero vulnerable tuples.
    let table = adult(800, 4);
    for (b, t) in [(0.2, 0.3), (0.3, 0.25), (0.5, 0.2)] {
        let outcome = Publisher::new()
            .k_anonymity(3)
            .bt_privacy(b, t)
            .publish(&table)
            .unwrap();
        let report = outcome
            .audit_against(&table, b, t)
            .expect("valid bandwidth");
        assert_eq!(
            report.vulnerable, 0,
            "b={b}, t={t}: worst case {}",
            report.worst_case
        );
        assert!(report.worst_case <= t + 1e-9);
    }
}

#[test]
fn skyline_implies_every_component_point() {
    let table = adult(500, 5);
    let pairs = vec![(0.2, 0.4), (0.35, 0.3), (0.5, 0.22)];
    let outcome = Publisher::new()
        .k_anonymity(3)
        .skyline(pairs.clone())
        .publish(&table)
        .unwrap();
    for (b, t) in pairs {
        let report = outcome
            .audit_against(&table, b, t)
            .expect("valid bandwidth");
        assert!(
            report.worst_case <= t + 1e-9,
            "skyline point (b={b}, t={t}) violated: {}",
            report.worst_case
        );
    }
}

#[test]
fn bucketization_and_mondrian_audit_through_same_machinery() {
    // §III.A: under the paper's threat model the two techniques expose the
    // same information — the group structure. Both plug into the auditor.
    let table = adult(400, 6);
    let bucketized = bgkanon::anon::try_bucketize(&table, 3).expect("3-eligible");
    let mondrian = Publisher::new()
        .k_anonymity(3)
        .distinct_l_diversity(3)
        .publish(&table)
        .unwrap()
        .anonymized;

    let adversary = Arc::new(Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
    ));
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let auditor = Auditor::new(adversary, measure);
    for at in [&bucketized, &mondrian] {
        let report = auditor.report(&table, &at.row_groups(), 0.25);
        assert!(report.worst_case.is_finite());
        assert_eq!(report.risks.len(), table.len());
    }
}

#[test]
fn anonymized_table_roundtrips_through_renderer() {
    let table = adult(200, 7);
    let outcome = Publisher::new().k_anonymity(4).publish(&table).unwrap();
    let rendered = outcome.anonymized.render();
    assert_eq!(
        rendered.lines().count(),
        outcome.anonymized.group_count(),
        "one line per group"
    );
    for line in rendered.lines() {
        assert!(line.contains("n="));
    }
}

#[test]
fn csv_roundtrip_preserves_audit_results() {
    // Write the original table to CSV, read it back, and verify the whole
    // pipeline produces identical results — the I/O layer is faithful.
    let table = adult(300, 8);
    let mut buf = Vec::new();
    bgkanon::data::csv::write_csv(&table, &mut buf).unwrap();
    let opts = bgkanon::data::csv::CsvOptions {
        has_header: true,
        ..Default::default()
    };
    let (reloaded, rep) =
        bgkanon::data::csv::read_csv(buf.as_slice(), Arc::clone(table.schema()), &opts).unwrap();
    assert_eq!(rep.loaded, table.len());
    assert_eq!(reloaded.len(), table.len());

    let a = Publisher::new().k_anonymity(5).publish(&table).unwrap();
    let b = Publisher::new().k_anonymity(5).publish(&reloaded).unwrap();
    assert_eq!(a.anonymized.first_difference(&b.anonymized), None);
}

#[test]
fn adversary_hierarchy_toy_example_matches_intro() {
    // The §I story: an informed adversary raises P(Emphysema | Bob) well
    // above the ignorant 1/3 on the 3-diverse hospital release.
    let table = bgkanon::data::toy::hospital_table();
    let groups = bgkanon::data::toy::hospital_groups();
    let informed = Adversary::kernel(&table, Bandwidth::uniform(0.2, 2).unwrap());
    let gp = GroupPriors::from_table_rows(&table, &groups[0], |qi| informed.prior(qi).clone());
    let posterior = omega_posteriors(&gp);
    assert!(
        posterior[0].get(0) > 1.0 / 3.0 + 0.1,
        "informed posterior {} should exceed 1/3 markedly",
        posterior[0].get(0)
    );
}

#[test]
fn stricter_parameters_cost_utility_monotonically() {
    let table = adult(1_000, 9);
    let mut previous_dm = 0u64;
    for p in &bgkanon::params::ALL_PARAMS {
        let outcome = Publisher::new()
            .k_anonymity(p.k)
            .distinct_l_diversity(p.l)
            .publish(&table)
            .unwrap();
        let dm = utility::discernibility(&outcome.anonymized);
        assert!(
            dm >= previous_dm,
            "{}: DM {dm} dropped below {previous_dm}",
            p.name
        );
        previous_dm = dm;
    }
}
