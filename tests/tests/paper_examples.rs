//! The paper's worked examples as executable specifications: every number
//! printed in the paper's running text should fall out of this library.

use bgkanon::prelude::*;

#[test]
fn table_i_generalization_matches_paper() {
    // Table I(b): three groups with generalized QI values [45,69]/*,
    // [42,47]/F, [50,56]/M.
    let table = bgkanon::data::toy::hospital_table();
    let schema = table.schema();
    let expected = [
        (vec![0usize, 1, 2], vec!["[45,69]", "Sex"]),
        (vec![3, 4, 5], vec!["[42,47]", "F"]),
        (vec![6, 7, 8], vec!["[50,56]", "M"]),
    ];
    let groups = expected
        .iter()
        .map(|(rows, _)| bgkanon::anon::Group::from_rows(&table, rows.clone()))
        .collect();
    let published = bgkanon::anon::AnonymizedTable::new(&table, groups);
    for (group, (_, labels)) in published.iter().zip(expected) {
        assert_eq!(group.generalized_labels(schema), labels);
    }
}

#[test]
fn section_iii_b_worked_posterior() {
    // P(S|E) = 0.95·0.95·0.3 + 0.95·0.05·0.7 + 0.05·0.95·0.7 = 0.33725 and
    // the posterior that t3 has HIV is 0.27075 / 0.33725 ≈ 0.8.
    let (priors, codes) = bgkanon::data::toy::hiv_example_priors();
    let priors: Vec<Dist> = priors.into_iter().map(|p| Dist::new(p).unwrap()).collect();
    let group = GroupPriors::new(priors, &codes);
    let likelihood = bgkanon::stats::permanent::likelihood_dp(group.priors(), group.counts());
    assert!((likelihood - 0.33725).abs() < 1e-12);
    let posts = exact_posteriors(&group);
    assert!((posts[2].get(0) - 0.8029).abs() < 1e-3);
    // The belief "changes from 0.3 to 0.8" — a significant increase.
    assert!(posts[2].get(0) - group.prior(2).get(0) > 0.5);
}

#[test]
fn table_iii_omega_estimate_inexactness() {
    // Ω(HIV|t3) = (1·0.3/0.3) / (1·0.3/0.3 + 2·0.7/2.7) = 0.6585 ≈ 0.66,
    // although exact inference gives 1.0.
    let (priors, codes) = bgkanon::data::toy::hiv_example_priors_zero();
    let priors: Vec<Dist> = priors.into_iter().map(|p| Dist::new(p).unwrap()).collect();
    let group = GroupPriors::new(priors, &codes);
    let exact = exact_posteriors(&group);
    let omega = omega_posteriors(&group);
    assert!((exact[2].get(0) - 1.0).abs() < 1e-12);
    assert!((omega[2].get(0) - 0.6585).abs() < 1e-3);
}

#[test]
fn section_ii_d_t_closeness_reduction() {
    // §II.D: with the uniform kernel at full bandwidth, Eq. (2) reduces to
    // the whole-table distribution — the t-closeness adversary.
    use bgkanon::knowledge::{KernelFamily, PriorEstimator};
    use std::sync::Arc;
    let table = bgkanon::data::adult::generate(500, 42);
    let estimator = PriorEstimator::with_family(
        Arc::clone(table.schema()),
        Bandwidth::uniform(1.0, table.qi_count()).unwrap(),
        KernelFamily::Uniform,
    );
    let model = estimator.estimate(&table);
    let q = model.table_distribution();
    for (_, prior) in model.iter() {
        assert!(prior.max_abs_diff(q) < 1e-12);
    }
}

#[test]
fn section_iv_b_measure_counterexamples() {
    // EMD's probability-scaling failure: both pairs at distance exactly 0.1.
    use bgkanon::stats::emd::ordered_emd;
    let d = |v: &[f64]| Dist::new(v.to_vec()).unwrap();
    let a = ordered_emd(&d(&[0.01, 0.99]), &d(&[0.11, 0.89]));
    let b = ordered_emd(&d(&[0.4, 0.6]), &d(&[0.5, 0.5]));
    assert!((a - 0.1).abs() < 1e-12);
    assert!((b - 0.1).abs() < 1e-12);

    // KL's zero-probability failure.
    use bgkanon::stats::divergence::kl_divergence;
    assert!(kl_divergence(&d(&[0.5, 0.5]), &d(&[1.0, 0.0])).is_none());

    // The paper's measure passes all five desiderata.
    use bgkanon::stats::desiderata::{check_all, salary_probe_matrix};
    let probe = salary_probe_matrix();
    let measure = SmoothedJs::new(&probe, Kernel::epanechnikov(0.6));
    for result in check_all(&measure, 6, &probe) {
        assert!(result.passed, "{}: {}", result.property, result.detail);
    }
}

#[test]
fn table_iv_schema_dimensions() {
    let schema = bgkanon::data::adult::adult_schema();
    let sizes: Vec<u32> = schema
        .qi_attributes()
        .iter()
        .map(|a| a.domain_size())
        .collect();
    assert_eq!(sizes, vec![74, 8, 16, 7, 5, 2]);
    assert_eq!(schema.sensitive_attribute().domain_size(), 14);
    assert_eq!(schema.qi_attribute(0).name(), "Age");
    assert_eq!(schema.sensitive_attribute().name(), "Occupation");
}

#[test]
fn table_v_parameter_sets() {
    use bgkanon::params::{ALL_PARAMS, PARA1, PARA4};
    assert_eq!(ALL_PARAMS.len(), 4);
    assert_eq!((PARA1.k, PARA1.l, PARA1.t, PARA1.b), (3, 3, 0.25, 0.3));
    assert_eq!((PARA4.k, PARA4.l, PARA4.t, PARA4.b), (6, 6, 0.1, 0.3));
}

#[test]
fn epanechnikov_matches_equation() {
    // K(x) = 3/(4B) (1 − (x/B)²) on |x/B| < 1.
    let k = Kernel::epanechnikov(0.3);
    let b = 0.3f64;
    for i in 0..30 {
        let x = i as f64 / 30.0;
        let expect = if (x / b).abs() < 1.0 {
            0.75 / b * (1.0 - (x / b) * (x / b))
        } else {
            0.0
        };
        assert!((k.weight(x) - expect).abs() < 1e-12, "x={x}");
    }
}
