//! Relational background knowledge — the paper's §VII future-work
//! direction, implemented for small groups.
//!
//! The kernel framework assumes tuple independence (§II.D). The paper
//! sketches the missing piece: *"One example of such kinds of knowledge may
//! be 'either Alice or Bob has flu but not both'. One approach is to use
//! graphs, where nodes represent individuals and edges represent
//! relationships."*
//!
//! [`RelationalKnowledge`] is exactly that graph: edges between group
//! members carrying a multiplicative factor applied when the two endpoints
//! receive the **same** sensitive value.
//!
//! * `strength > 1` — a *same-value family* (Chen et al.'s third knowledge
//!   type): relatives/partners tend to share the value;
//! * `strength < 1` — anti-correlation ("not both");
//! * `strength = 0` — hard exclusion (at most one of the two has the
//!   value — the paper's flu example).
//!
//! The posterior sums over all consistent assignments of the group's
//! multiset, weighting each by `Π_j P(s_{σ(j)}|t_j) · Π_{(a,b)∈E, σ(a)=σ(b)}
//! strength(a,b)` — exponential like any exact inference, so groups are
//! capped at [`MAX_EXACT_GROUP`].

use bgkanon_stats::permanent::MAX_EXACT_GROUP;
use bgkanon_stats::Dist;

use crate::group::GroupPriors;

/// A same-value relationship graph over the members of one group.
///
/// Indices refer to positions within the group (0-based), not table rows.
#[derive(Debug, Clone, Default)]
pub struct RelationalKnowledge {
    edges: Vec<(usize, usize, f64)>,
}

impl RelationalKnowledge {
    /// No relational knowledge: reduces to ordinary exact inference.
    pub fn none() -> Self {
        RelationalKnowledge::default()
    }

    /// Declare that members `a` and `b` share sensitive values with the
    /// given multiplicative `strength ≥ 0` (1 = independent, >1 same-value
    /// family, 0 = never the same value).
    pub fn with_pair(mut self, a: usize, b: usize, strength: f64) -> Self {
        assert!(a != b, "an edge needs two distinct members");
        assert!(
            strength >= 0.0 && strength.is_finite(),
            "strength must be a finite non-negative factor"
        );
        self.edges.push((a.min(b), a.max(b), strength));
        self
    }

    /// The declared edges.
    fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Weight multiplier of a complete assignment `sigma`.
    fn assignment_factor(&self, sigma: &[usize]) -> f64 {
        let mut w = 1.0;
        for &(a, b, strength) in &self.edges {
            if sigma[a] == sigma[b] {
                w *= strength;
            }
        }
        w
    }
}

/// Exact posteriors under relational knowledge: enumerate every distinct
/// assignment of the multiset, weight by priors and same-value factors,
/// marginalize per tuple.
///
/// # Panics
///
/// Panics if the group exceeds [`MAX_EXACT_GROUP`], an edge references a
/// member outside the group, or the knowledge excludes every assignment
/// consistent with the multiset.
pub fn relational_posteriors(group: &GroupPriors, knowledge: &RelationalKnowledge) -> Vec<Dist> {
    let k = group.len();
    assert!(
        k <= MAX_EXACT_GROUP,
        "group of size {k} exceeds MAX_EXACT_GROUP = {MAX_EXACT_GROUP}"
    );
    for &(a, b, _) in knowledge.edges() {
        assert!(
            b < k,
            "edge ({a},{b}) references a member outside the group"
        );
    }
    let m = group.domain_size();

    // Enumerate assignments recursively, accumulating marginal mass.
    struct Search<'a> {
        group: &'a GroupPriors,
        knowledge: &'a RelationalKnowledge,
        remaining: Vec<u32>,
        sigma: Vec<usize>,
        /// `marginal[j][s]` = total weight of assignments where tuple j
        /// receives value s.
        marginal: Vec<Vec<f64>>,
        total: f64,
    }

    impl Search<'_> {
        fn rec(&mut self, j: usize, weight: f64) {
            if j == self.group.len() {
                let w = weight * self.knowledge.assignment_factor(&self.sigma);
                if w > 0.0 {
                    self.total += w;
                    for (jj, &s) in self.sigma.iter().enumerate() {
                        self.marginal[jj][s] += w;
                    }
                }
                return;
            }
            for s in 0..self.remaining.len() {
                if self.remaining[s] == 0 {
                    continue;
                }
                let p = self.group.prior(j).get(s);
                if p == 0.0 {
                    continue;
                }
                self.remaining[s] -= 1;
                self.sigma[j] = s;
                self.rec(j + 1, weight * p);
                self.sigma[j] = usize::MAX;
                self.remaining[s] += 1;
            }
        }
    }

    let mut search = Search {
        group,
        knowledge,
        remaining: group.counts().to_vec(),
        sigma: vec![usize::MAX; k],
        marginal: vec![vec![0.0f64; m]; k],
        total: 0.0,
    };
    search.rec(0, 1.0);
    let (marginal, total) = (search.marginal, search.total);
    assert!(
        total > 0.0,
        "relational knowledge excludes every assignment consistent with the multiset"
    );
    marginal
        .into_iter()
        .map(|row| {
            let p: Vec<f64> = row.into_iter().map(|x| x / total).collect();
            Dist::new(p).expect("normalized marginal")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_posteriors;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    #[test]
    fn no_knowledge_matches_plain_exact_inference() {
        let priors = vec![
            d(&[0.6, 0.3, 0.1]),
            d(&[0.2, 0.7, 0.1]),
            d(&[0.1, 0.2, 0.7]),
            d(&[0.34, 0.33, 0.33]),
        ];
        let group = GroupPriors::new(priors, &[0, 1, 2, 0]);
        let plain = exact_posteriors(&group);
        let relational = relational_posteriors(&group, &RelationalKnowledge::none());
        for (a, b) in plain.iter().zip(&relational) {
            assert!(a.max_abs_diff(b) < 1e-12);
        }
    }

    #[test]
    fn flu_but_not_both_shifts_mass() {
        // Multiset {flu, flu, cold}: Alice (0) and Bob (1) cannot both have
        // flu, so one of them must take cold; Carol (2) must take flu.
        let priors = vec![Dist::uniform(2); 3]; // 0 = flu, 1 = cold
        let group = GroupPriors::new(priors, &[0, 0, 1]);
        let knowledge = RelationalKnowledge::none().with_pair(0, 1, 0.0);
        let posts = relational_posteriors(&group, &knowledge);
        // Carol gets flu with certainty.
        assert!((posts[2].get(0) - 1.0).abs() < 1e-12);
        // Alice and Bob split flu/cold evenly.
        assert!((posts[0].get(0) - 0.5).abs() < 1e-12);
        assert!((posts[1].get(0) - 0.5).abs() < 1e-12);
        // Without the constraint Carol's flu probability is only 2/3.
        let plain = exact_posteriors(&group);
        assert!((plain[2].get(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn same_value_family_pulls_members_together() {
        // {hiv, none, none}; members 0 and 1 are a same-value family.
        let priors = vec![d(&[0.3, 0.7]), d(&[0.3, 0.7]), d(&[0.3, 0.7])];
        let group = GroupPriors::new(priors, &[0, 1, 1]);
        let coupled = RelationalKnowledge::none().with_pair(0, 1, 10.0);
        let posts = relational_posteriors(&group, &coupled);
        let plain = exact_posteriors(&group);
        // Only value `none` (code 1) can be shared (hiv appears once), so
        // the family factor boosts assignments where 0 and 1 both take
        // none, pushing the lone hiv onto member 2.
        assert!(
            posts[2].get(0) > plain[2].get(0),
            "family {} vs plain {}",
            posts[2].get(0),
            plain[2].get(0)
        );
    }

    #[test]
    fn marginals_remain_distributions_and_respect_multiset() {
        let priors = vec![
            d(&[0.5, 0.25, 0.25]),
            d(&[0.2, 0.6, 0.2]),
            d(&[0.1, 0.1, 0.8]),
        ];
        let group = GroupPriors::new(priors, &[0, 1, 2]);
        let knowledge = RelationalKnowledge::none()
            .with_pair(0, 1, 2.0)
            .with_pair(1, 2, 0.5);
        let posts = relational_posteriors(&group, &knowledge);
        for p in &posts {
            let s: f64 = p.as_slice().iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        // Column sums still equal the multiplicities (marginals of a
        // distribution over assignments of the fixed multiset).
        for v in 0..3 {
            let col: f64 = posts.iter().map(|p| p.get(v)).sum();
            assert!((col - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "excludes every assignment")]
    fn contradictory_knowledge_detected() {
        // Multiset {a, a}: both members must take `a`, but the edge says
        // they never share a value.
        let priors = vec![Dist::uniform(2); 2];
        let group = GroupPriors::new(priors, &[0, 0]);
        let knowledge = RelationalKnowledge::none().with_pair(0, 1, 0.0);
        let _ = relational_posteriors(&group, &knowledge);
    }

    #[test]
    #[should_panic(expected = "outside the group")]
    fn out_of_range_edge_rejected() {
        let priors = vec![Dist::uniform(2); 2];
        let group = GroupPriors::new(priors, &[0, 1]);
        let knowledge = RelationalKnowledge::none().with_pair(0, 5, 1.0);
        let _ = relational_posteriors(&group, &knowledge);
    }

    #[test]
    #[should_panic(expected = "two distinct members")]
    fn self_edge_rejected() {
        let _ = RelationalKnowledge::none().with_pair(1, 1, 2.0);
    }
}
