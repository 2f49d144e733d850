//! Exact Bayesian posterior inference (§III.C, Eq. 3–4).
//!
//! For tuple `t_j` and sensitive value `s_i` present in the group multiset,
//!
//! ```text
//! P*(s_i | t_j) ∝ P(s_i | t_j) · P(S \ {s_i} | E \ {t_j})
//! ```
//!
//! where the likelihood `P(·|·)` sums the prior products over every
//! *distinct* assignment of the remaining multiset to the remaining tuples.
//! (The paper's Eq. 3 carries an extra `n_i` factor because it counts
//! assignments with the `n_i` identical copies of `s_i` distinguished; both
//! conventions normalize to the same posterior — a property the tests
//! verify.) Normalizing over `i` for fixed `j` yields the exact posterior.
//!
//! Likelihoods are computed by the multiplicity DP in
//! [`bgkanon_stats::permanent`], so the cost is
//! `O(k · q · Π (n_i + 1))` per excluded tuple — practical for the group
//! sizes that generalization and bucketization produce (the Fig. 2 accuracy
//! experiment uses `N ≤ 15`).

use bgkanon_stats::permanent::{likelihood_dp, present_values, MAX_EXACT_GROUP};
use bgkanon_stats::Dist;

use crate::group::GroupPriors;

/// Exact posterior distributions for every tuple in the group.
///
/// Returns one distribution per tuple over the full sensitive domain; values
/// absent from the group multiset have posterior probability 0.
///
/// # Panics
///
/// Panics if the group exceeds [`MAX_EXACT_GROUP`] (the exact computation is
/// #P-hard; use the Ω-estimate for larger groups), or if the priors exclude
/// every consistent assignment (likelihood 0 — impossible when the priors
/// were estimated from data containing the group itself).
pub fn exact_posteriors(group: &GroupPriors) -> Vec<Dist> {
    let k = group.len();
    assert!(
        k <= MAX_EXACT_GROUP,
        "group of size {k} exceeds MAX_EXACT_GROUP = {MAX_EXACT_GROUP}; use omega_posteriors"
    );
    let m = group.domain_size();
    let counts = group.counts();
    let values = present_values(counts);

    let total = likelihood_dp(group.priors(), counts);
    assert!(
        total > 0.0,
        "priors assign zero likelihood to the observed multiset"
    );

    let mut out = Vec::with_capacity(k);
    for j in 0..k {
        // Priors of E \ {t_j}.
        let rest: Vec<Dist> = group
            .priors()
            .iter()
            .enumerate()
            .filter(|&(j2, _)| j2 != j)
            .map(|(_, p)| p.clone())
            .collect();
        let mut post = vec![0.0f64; m];
        let mut norm = 0.0f64;
        for &v in &values {
            let p_prior = group.prior(j).get(v);
            if p_prior == 0.0 {
                continue;
            }
            let mut reduced = counts.to_vec();
            reduced[v] -= 1;
            let rest_likelihood = if rest.is_empty() {
                1.0
            } else {
                likelihood_dp(&rest, &reduced)
            };
            let w = p_prior * rest_likelihood;
            post[v] = w;
            norm += w;
        }
        assert!(
            norm > 0.0,
            "tuple {j} has zero posterior mass: priors inconsistent with multiset"
        );
        for x in post.iter_mut() {
            *x /= norm;
        }
        out.push(Dist::new(post).expect("normalized posterior"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    #[test]
    fn paper_hiv_example_posterior_is_080() {
        // §III.B: the adversary's belief that t3 has HIV rises from 0.3 to
        // 0.8 (more precisely 0.27075/0.33725 ≈ 0.80282).
        let (priors, codes) = toy::hiv_example_priors();
        let priors: Vec<Dist> = priors.into_iter().map(|p| Dist::new(p).unwrap()).collect();
        let group = GroupPriors::new(priors, &codes);
        let posts = exact_posteriors(&group);
        let p_t3_hiv = posts[2].get(0);
        let expect = 0.27075 / 0.33725;
        assert!(
            (p_t3_hiv - expect).abs() < 1e-10,
            "got {p_t3_hiv}, expect {expect}"
        );
        // And the likelihood matches the worked value.
        assert!((likelihood_dp(group.priors(), group.counts()) - 0.33725).abs() < 1e-12);
    }

    #[test]
    fn table_iii_variant_posterior_is_certain() {
        // When t1, t2 cannot take HIV, exact inference concludes t3 has HIV
        // with probability 1 (the Ω-estimate gets 0.66 — see omega.rs).
        let (priors, codes) = toy::hiv_example_priors_zero();
        let priors: Vec<Dist> = priors.into_iter().map(|p| Dist::new(p).unwrap()).collect();
        let group = GroupPriors::new(priors, &codes);
        let posts = exact_posteriors(&group);
        assert!((posts[2].get(0) - 1.0).abs() < 1e-12);
        assert!(posts[0].get(0).abs() < 1e-12);
        assert!(posts[1].get(0).abs() < 1e-12);
    }

    #[test]
    fn uniform_priors_give_bucket_distribution() {
        // With equal priors every assignment is equally likely, so each
        // tuple's posterior is n_s / k — the random-world baseline.
        let priors = vec![Dist::uniform(3); 4];
        let group = GroupPriors::new(priors, &[0, 0, 1, 2]);
        let posts = exact_posteriors(&group);
        let bucket = group.bucket_distribution();
        for p in &posts {
            assert!(p.max_abs_diff(&bucket) < 1e-12);
        }
    }

    #[test]
    fn posteriors_are_valid_distributions() {
        let priors = vec![
            d(&[0.7, 0.2, 0.1]),
            d(&[0.1, 0.8, 0.1]),
            d(&[0.3, 0.3, 0.4]),
            d(&[0.25, 0.5, 0.25]),
        ];
        let group = GroupPriors::new(priors, &[0, 1, 1, 2]);
        for p in exact_posteriors(&group) {
            let s: f64 = p.as_slice().iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.as_slice().iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn column_sums_preserve_multiplicities() {
        // Σ_j P*(s_i|t_j) = n_i: exactly n_i tuples carry value s_i, and the
        // posterior is the marginal of a distribution over assignments.
        let priors = vec![
            d(&[0.6, 0.3, 0.1]),
            d(&[0.2, 0.7, 0.1]),
            d(&[0.1, 0.1, 0.8]),
            d(&[0.4, 0.4, 0.2]),
            d(&[0.3, 0.45, 0.25]),
        ];
        let codes = [0u32, 1, 1, 2, 0];
        let group = GroupPriors::new(priors, &codes);
        let posts = exact_posteriors(&group);
        let counts = group.counts();
        for (s, &n) in counts.iter().enumerate() {
            let col: f64 = posts.iter().map(|p| p.get(s)).sum();
            assert!(
                (col - f64::from(n)).abs() < 1e-9,
                "column {s}: {col} vs {n}"
            );
        }
    }

    #[test]
    fn singleton_group_posterior_is_point_mass() {
        let group = GroupPriors::new(vec![d(&[0.3, 0.7])], &[0]);
        let posts = exact_posteriors(&group);
        assert_eq!(posts[0].as_slice(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "MAX_EXACT_GROUP")]
    fn oversized_group_rejected() {
        let priors = vec![Dist::uniform(2); 21];
        let codes = vec![0u32; 21];
        let group = GroupPriors::new(priors, &codes);
        let _ = exact_posteriors(&group);
    }

    #[test]
    #[should_panic(expected = "zero likelihood")]
    fn inconsistent_priors_detected() {
        // Both tuples are certain to be value 0, but the multiset is {0, 1}.
        let group = GroupPriors::new(vec![d(&[1.0, 0.0]), d(&[1.0, 0.0])], &[0, 1]);
        let _ = exact_posteriors(&group);
    }
}
