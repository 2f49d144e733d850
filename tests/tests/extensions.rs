//! Integration tests for the extension features: calibration → skyline →
//! publish, prior-model persistence feeding a reusable adversary, and the
//! full-domain generalizer under audit.

use std::sync::Arc;

use bgkanon::anon::FullDomain;
use bgkanon::knowledge::calibrate::suggest_skyline;
use bgkanon::knowledge::{load_model, save_model, Adversary, PriorEstimator};
use bgkanon::prelude::*;

#[test]
fn calibrated_skyline_publishes_and_audits_clean() {
    let table = bgkanon::data::adult::generate(800, 21);
    let skyline = suggest_skyline(&table, 0.25);
    let outcome = Publisher::new()
        .k_anonymity(3)
        .skyline(skyline.clone())
        .publish(&table)
        .expect("suggested skyline must be enforceable");
    for (b, t) in skyline {
        let report = outcome
            .audit_against(&table, b, t)
            .expect("valid bandwidth");
        assert!(
            report.worst_case <= t + 1e-9,
            "point (b={b}, t={t}): worst case {}",
            report.worst_case
        );
    }
}

#[test]
fn persisted_model_drives_identical_audits() {
    let table = bgkanon::data::adult::generate(500, 22);
    let bandwidth = Bandwidth::uniform(0.3, table.qi_count()).unwrap();
    let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
    let model = estimator.estimate(&table);

    // Roundtrip the model through the persistence format.
    let mut buf = Vec::new();
    save_model(&model, &mut buf).unwrap();
    let reloaded = load_model(buf.as_slice()).unwrap();

    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let fresh = Adversary::from_model("fresh", bandwidth.clone(), Arc::new(model));
    let cached = Adversary::from_model("cached", bandwidth, Arc::new(reloaded));

    let outcome = Publisher::new().k_anonymity(4).publish(&table).unwrap();
    let groups = outcome.anonymized.row_groups();
    let risks_fresh =
        Auditor::new(Arc::new(fresh), Arc::clone(&measure) as _).tuple_risks(&table, &groups);
    let risks_cached = Auditor::new(Arc::new(cached), measure as _).tuple_risks(&table, &groups);
    for (a, b) in risks_fresh.iter().zip(&risks_cached) {
        assert!((a - b).abs() < 1e-12, "fresh {a} vs cached {b}");
    }
}

#[test]
fn full_domain_release_audits_through_same_pipeline() {
    let table = bgkanon::data::adult::generate(400, 23);
    let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(4)));
    let outcome = fd.try_anonymize(&table).expect("satisfiable at the top");

    let adversary = Arc::new(Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
    ));
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let report =
        Auditor::new(adversary, measure).report(&table, &outcome.anonymized.row_groups(), 0.25);
    assert!(report.worst_case.is_finite());
    // Coarse global recoding yields large groups → posteriors close to the
    // local mixtures → low risk everywhere on this small sample.
    assert!(report.mean < 0.25, "mean {}", report.mean);
}

#[test]
fn exact_audit_agrees_with_omega_within_fig2_bound() {
    // End-to-end replication of the Fig. 2 claim at the audit level: the
    // same release audited with Ω vs exact inference yields risk vectors
    // within a small average gap.
    let table = bgkanon::data::adult::generate(400, 24);
    let outcome = Publisher::new()
        .k_anonymity(3)
        .distinct_l_diversity(3)
        .publish(&table)
        .unwrap();
    let adversary = Arc::new(Adversary::kernel(
        &table,
        Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
    ));
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let groups = outcome.anonymized.row_groups();
    // Only audit exactly where groups are small enough.
    if groups.iter().any(|g| g.len() > 16) {
        return; // group structure too coarse on this seed; nothing to test
    }
    let omega = Auditor::new(Arc::clone(&adversary), Arc::clone(&measure) as _)
        .tuple_risks(&table, &groups);
    // The exact side by its §III.C definition: each member's exact
    // posterior (matrix-permanent likelihoods), measured against its prior.
    let mut exact = vec![f64::NAN; table.len()];
    for rows in &groups {
        let priors = GroupPriors::from_table_rows(&table, rows, |qi| adversary.prior(qi).clone());
        for (j, post) in exact_posteriors(&priors).iter().enumerate() {
            exact[rows[j]] = measure.distance(priors.prior(j), post);
        }
    }
    let mean_gap: f64 = omega
        .iter()
        .zip(&exact)
        .map(|(o, e)| (o - e).abs())
        .sum::<f64>()
        / omega.len() as f64;
    assert!(mean_gap < 0.1, "mean audit gap {mean_gap}");
}
