//! Property-based tests of the core invariants, via proptest.

use proptest::prelude::*;

use bgkanon::prelude::*;
use bgkanon::stats::divergence::{js_divergence, kl_divergence};
use bgkanon::stats::emd::{hierarchical_emd, ordered_emd};
use bgkanon::stats::permanent::{likelihood_dp, likelihood_via_permanent};

/// A random distribution over `m` values (never all-zero weights).
fn dist_strategy(m: usize) -> impl Strategy<Value = Dist> {
    prop::collection::vec(0.0f64..1.0, m).prop_filter_map("needs positive mass", |w| {
        let s: f64 = w.iter().sum();
        if s > 1e-6 {
            Dist::from_weights(&w).ok()
        } else {
            None
        }
    })
}

/// A random group: priors with strictly positive entries (so every multiset
/// is consistent) plus sensitive codes.
fn group_strategy(max_k: usize, m: usize) -> impl Strategy<Value = GroupPriors> {
    (1..=max_k).prop_flat_map(move |k| {
        (
            prop::collection::vec(
                prop::collection::vec(0.01f64..1.0, m)
                    .prop_map(|w| Dist::from_weights(&w).expect("positive weights")),
                k,
            ),
            prop::collection::vec(0..m as u32, k),
        )
            .prop_map(|(priors, codes)| GroupPriors::new(priors, &codes))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn js_divergence_is_symmetric_bounded_nonnegative(
        p in dist_strategy(5),
        q in dist_strategy(5),
    ) {
        let a = js_divergence(&p, &q);
        let b = js_divergence(&q, &p);
        prop_assert!((a - b).abs() < 1e-10);
        prop_assert!(a >= -1e-12);
        prop_assert!(a <= 1.0 + 1e-12);
        prop_assert!(js_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_defined_on_positive_supports_and_nonnegative(
        p in dist_strategy(4),
    ) {
        // Mix q with uniform so it has full support.
        let mixed: Vec<f64> = p.as_slice().iter().map(|&x| x + 0.25).collect();
        let q = Dist::from_weights(&mixed).expect("positive weights");
        let kl = kl_divergence(&p, &q).expect("full support");
        prop_assert!(kl >= -1e-12);
    }

    #[test]
    fn ordered_emd_bounds_and_identity(
        p in dist_strategy(6),
        q in dist_strategy(6),
    ) {
        let e = ordered_emd(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&e));
        prop_assert!(ordered_emd(&p, &p).abs() < 1e-15);
        prop_assert!((e - ordered_emd(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn hierarchical_emd_point_masses_equal_ground_distance(
        a in 0usize..14,
        b in 0usize..14,
    ) {
        let schema = bgkanon::data::adult::adult_schema();
        let h = schema.sensitive_attribute().hierarchy().expect("occupation");
        let pa = Dist::point_mass(a, 14);
        let pb = Dist::point_mass(b, 14);
        let emd = hierarchical_emd(h, &pa, &pb);
        prop_assert!((emd - h.distance(a as u32, b as u32)).abs() < 1e-12);
    }

    #[test]
    fn permanent_backends_agree(group in group_strategy(6, 3)) {
        let priors = group.priors();
        let counts = group.counts();
        let dp = likelihood_dp(priors, counts);
        let ryser = likelihood_via_permanent(priors, counts);
        prop_assert!((dp - ryser).abs() <= 1e-8 * dp.abs().max(1e-12));
    }

    #[test]
    fn posteriors_are_distributions_supported_on_multiset(
        group in group_strategy(7, 4),
    ) {
        for posts in [exact_posteriors(&group), omega_posteriors(&group)] {
            for p in &posts {
                let s: f64 = p.as_slice().iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
                for (v, &n) in group.counts().iter().enumerate() {
                    if n == 0 {
                        prop_assert!(p.get(v).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn exact_posterior_columns_sum_to_multiplicities(
        group in group_strategy(6, 3),
    ) {
        let posts = exact_posteriors(&group);
        for (v, &n) in group.counts().iter().enumerate() {
            let col: f64 = posts.iter().map(|p| p.get(v)).sum();
            prop_assert!((col - f64::from(n)).abs() < 1e-8);
        }
    }

    #[test]
    fn omega_equals_exact_for_identical_priors(
        base in dist_strategy(3).prop_filter("positive entries", |d| {
            d.as_slice().iter().all(|&x| x > 1e-3)
        }),
        codes in prop::collection::vec(0u32..3, 2..6),
    ) {
        let priors = vec![base; codes.len()];
        let group = GroupPriors::new(priors, &codes);
        let omega = omega_posteriors(&group);
        let exact = exact_posteriors(&group);
        for (o, e) in omega.iter().zip(&exact) {
            prop_assert!(o.max_abs_diff(e) < 1e-9);
        }
    }

    #[test]
    fn smoothed_js_satisfies_identity_and_nonnegativity(
        p in dist_strategy(14),
        q in dist_strategy(14),
    ) {
        let schema = bgkanon::data::adult::adult_schema();
        let measure = SmoothedJs::paper_default(schema.sensitive_distance());
        prop_assert!(measure.distance(&p, &p).abs() < 1e-12);
        prop_assert!(measure.distance(&p, &q) >= -1e-12);
    }
}

proptest! {
    // Mondrian property tests are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mondrian_output_is_valid_partition_meeting_requirement(
        n in 50usize..300,
        seed in 0u64..1000,
        k in 2usize..8,
    ) {
        let table = bgkanon::data::adult::generate(n, seed);
        let outcome = Publisher::new().k_anonymity(k).publish(&table).unwrap();
        let mut seen = vec![false; table.len()];
        for g in outcome.anonymized.groups() {
            prop_assert!(g.len() >= k);
            for &r in &g.rows {
                prop_assert!(!seen[r]);
                seen[r] = true;
            }
            // Every member is inside the group's box.
            for &r in &g.rows {
                for (i, range) in g.ranges.iter().enumerate() {
                    prop_assert!(range.contains(table.qi_value(r, i)));
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kernel_priors_are_normalized_over_random_tables(
        n in 30usize..200,
        seed in 0u64..1000,
        b in 0.05f64..1.5,
    ) {
        let table = bgkanon::data::adult::generate(n, seed);
        let adversary = Adversary::kernel(
            &table,
            Bandwidth::uniform(b, table.qi_count()).unwrap(),
        );
        for r in (0..table.len()).step_by(7) {
            let p = adversary.prior(&table.qi(r));
            let s: f64 = p.as_slice().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.as_slice().iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn bucketization_yields_l_diverse_partition(
        n in 100usize..400,
        seed in 0u64..1000,
        l in 2usize..5,
    ) {
        let table = bgkanon::data::adult::generate(n, seed);
        if let Ok(at) = bgkanon::anon::try_bucketize(&table, l) {
            let covered: usize = at.groups().iter().map(|g| g.len()).sum();
            prop_assert_eq!(covered, table.len());
            for g in at.groups() {
                let distinct = g.sensitive_counts.iter().filter(|&&c| c > 0).count();
                prop_assert!(distinct >= l);
            }
        }
    }
}
