//! Negative association rule mining — the Injector approach (Li & Li,
//! ICDE 2008, the paper's reference \[7\]) that §II.B generalizes.
//!
//! A **negative association rule** is an implication
//! `qi-pattern ⇒ ¬ sensitive-value` that holds with 100% confidence in the
//! table: no individual matching the pattern carries the value (e.g. "male
//! ⇒ ¬ ovarian cancer"). Injector mines such rules and treats them as the
//! adversary's knowledge. The kernel framework subsumes them: a rule that
//! holds in the data forces the kernel-estimated prior at matching QI
//! points toward zero on the excluded value as the bandwidth shrinks —
//! [`verify_subsumption`] checks this quantitatively and is exercised in
//! tests and the ablation bench.
//!
//! Patterns here are single-attribute or pairwise (the useful range for
//! QI-correlation rules): `A_i = v` or `A_i = v ∧ A_j = w`.

use std::collections::HashMap;
use std::sync::Arc;

use bgkanon_data::{Parallelism, Table};

use crate::bandwidth::Bandwidth;
use crate::estimator::{FoldedTable, PriorEstimator};

/// A conjunctive QI pattern of one or two attribute-value equalities.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// `(attribute index, code)` pairs, sorted by attribute index;
    /// length 1 or 2.
    pub terms: Vec<(usize, u32)>,
}

impl Pattern {
    /// Single-attribute pattern `A_i = v`.
    fn single(attr: usize, value: u32) -> Self {
        Pattern {
            terms: vec![(attr, value)],
        }
    }

    /// Pairwise pattern `A_i = v ∧ A_j = w` (`i < j` enforced by sorting).
    pub fn pair(a: (usize, u32), b: (usize, u32)) -> Self {
        assert_ne!(a.0, b.0, "pattern terms must use distinct attributes");
        let mut terms = vec![a, b];
        terms.sort_by_key(|t| t.0);
        Pattern { terms }
    }

    /// Does row `row` of `table` match the pattern?
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        self.terms
            .iter()
            .all(|&(attr, value)| table.qi_value(row, attr) == value)
    }

    /// Does a bare QI code combination match the pattern? This is the form
    /// the folded (distinct-QI) paths use.
    fn matches_qi(&self, qi: &[u32]) -> bool {
        self.terms.iter().all(|&(attr, value)| qi[attr] == value)
    }

    /// Human-readable form against a schema.
    pub fn display(&self, table: &Table) -> String {
        let schema = table.schema();
        self.terms
            .iter()
            .map(|&(attr, value)| {
                let a = schema.qi_attribute(attr);
                format!("{}={}", a.name(), a.display_value(value))
            })
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// A mined negative association rule `pattern ⇒ ¬ sensitive_value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegativeRule {
    /// The antecedent QI pattern.
    pub pattern: Pattern,
    /// The excluded sensitive code.
    pub sensitive_value: u32,
    /// Number of rows matching the pattern (the rule's support base).
    pub support: usize,
}

/// Configuration for the miner.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Minimum number of matching rows for a rule to be trusted — rules
    /// supported by a handful of rows are statistical accidents, not
    /// knowledge (Injector's support threshold).
    pub min_support: usize,
    /// Also mine pairwise (two-attribute) patterns.
    pub pairwise: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_support: 50,
            pairwise: false,
        }
    }
}

/// Mine all negative association rules with 100% confidence from `table`.
///
/// For every pattern with at least `min_support` matching rows, emit a rule
/// for each sensitive value that never co-occurs with the pattern.
pub fn mine_negative_rules(table: &Table, config: &MiningConfig) -> Vec<NegativeRule> {
    let d = table.qi_count();
    let m = table.schema().sensitive_domain_size();
    let mut rules = Vec::new();

    // Single-attribute patterns: count (attr, value) → per-sensitive counts.
    for attr in 0..d {
        let r = table.schema().qi_attribute(attr).domain_size() as usize;
        let mut support = vec![0usize; r];
        let mut with_value = vec![0u64; r * m];
        for row in 0..table.len() {
            let v = table.qi_value(row, attr) as usize;
            support[v] += 1;
            with_value[v * m + table.sensitive_value(row) as usize] += 1;
        }
        for v in 0..r {
            if support[v] < config.min_support {
                continue;
            }
            for s in 0..m {
                if with_value[v * m + s] == 0 {
                    rules.push(NegativeRule {
                        pattern: Pattern::single(attr, v as u32),
                        sensitive_value: s as u32,
                        support: support[v],
                    });
                }
            }
        }
    }

    if config.pairwise {
        for a1 in 0..d {
            for a2 in (a1 + 1)..d {
                let mut counts: HashMap<(u32, u32), (usize, Vec<u64>)> = HashMap::new();
                for row in 0..table.len() {
                    let key = (table.qi_value(row, a1), table.qi_value(row, a2));
                    let entry = counts.entry(key).or_insert_with(|| (0, vec![0u64; m]));
                    entry.0 += 1;
                    entry.1[table.sensitive_value(row) as usize] += 1;
                }
                let mut keys: Vec<(u32, u32)> = counts.keys().copied().collect(); // bgk-allow: R3 keys collected then sorted on the next line
                keys.sort_unstable();
                for key in keys {
                    let (support, with_value) = &counts[&key];
                    if *support < config.min_support {
                        continue;
                    }
                    for (s, &count) in with_value.iter().enumerate() {
                        if count == 0 {
                            rules.push(NegativeRule {
                                pattern: Pattern::pair((a1, key.0), (a2, key.1)),
                                sensitive_value: s as u32,
                                support: *support,
                            });
                        }
                    }
                }
            }
        }
    }
    rules
}

/// Result of checking one rule against the kernel prior model.
#[derive(Debug, Clone)]
pub struct SubsumptionCheck {
    /// The rule under test.
    pub rule: NegativeRule,
    /// Largest prior probability the kernel adversary assigns to the
    /// excluded value at any matching QI point of the table.
    pub max_prior_on_excluded: f64,
}

/// Verify that the kernel framework subsumes mined rules (§II.B): estimate
/// the prior with bandwidth `b` and report, per rule, the worst-case prior
/// probability of the excluded value over all matching tuples. For
/// bandwidths small enough that the kernel support stays inside the
/// pattern's equivalence class, the probability is exactly 0.
///
/// The table is folded **once** into a [`FoldedTable`] shared by the
/// estimation pass and the per-rule scans (which walk the `u` distinct QI
/// points instead of all `n` rows — every row of a distinct point shares
/// its prior, so the worst case over points equals the worst case over
/// rows).
pub fn verify_subsumption(table: &Table, rules: &[NegativeRule], b: f64) -> Vec<SubsumptionCheck> {
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
    );
    let model = estimator.estimate_folded(FoldedTable::new(table), Parallelism::Auto);
    let folded = model.folded().expect("estimate_folded retains the fold");
    rules
        .iter()
        .map(|rule| {
            let mut worst = 0.0f64;
            for point in folded.points() {
                if rule.pattern.matches_qi(point.qi()) {
                    let p = model.prior_or_fallback(point.qi());
                    worst = worst.max(p.get(rule.sensitive_value as usize));
                }
            }
            SubsumptionCheck {
                rule: rule.clone(),
                max_prior_on_excluded: worst,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::adult::{self, qi_index};

    #[test]
    fn armed_forces_rule_mined_from_adult() {
        // The generator gives Armed-Forces (occupation 13) a near-zero rate
        // for the 65+ band and for several workclasses, and Priv-house-serv
        // (11) is essentially female — some single-attribute exclusion must
        // appear at this scale.
        let t = adult::generate(20_000, 42);
        let rules = mine_negative_rules(&t, &MiningConfig::default());
        assert!(!rules.is_empty(), "expected some 100%-confidence rules");
        for r in &rules {
            // Re-verify the 100% confidence claim directly.
            for row in 0..t.len() {
                if r.pattern.matches(&t, row) {
                    assert_ne!(t.sensitive_value(row), r.sensitive_value);
                }
            }
            assert!(r.support >= 50);
        }
    }

    #[test]
    fn pairwise_mining_adds_rules() {
        let t = adult::generate(5_000, 7);
        let single = mine_negative_rules(&t, &MiningConfig::default());
        let both = mine_negative_rules(
            &t,
            &MiningConfig {
                pairwise: true,
                min_support: 50,
            },
        );
        assert!(both.len() >= single.len());
    }

    #[test]
    fn min_support_filters_accidental_rules() {
        let t = adult::generate(2_000, 8);
        let strict = mine_negative_rules(
            &t,
            &MiningConfig {
                min_support: 500,
                pairwise: false,
            },
        );
        let loose = mine_negative_rules(
            &t,
            &MiningConfig {
                min_support: 10,
                pairwise: false,
            },
        );
        assert!(loose.len() >= strict.len());
        for r in &strict {
            assert!(r.support >= 500);
        }
    }

    #[test]
    fn kernel_prior_subsumes_mined_rules_at_small_bandwidth() {
        // §II.B: knowledge that exists in the data should fall out of the
        // kernel estimate. With a bandwidth below every positive semantic
        // distance, matching tuples' priors put exactly 0 on excluded
        // values.
        let t = adult::generate(5_000, 42);
        let rules = mine_negative_rules(&t, &MiningConfig::default());
        assert!(!rules.is_empty());
        let checks = verify_subsumption(&t, &rules, 1e-6);
        for c in &checks {
            assert_eq!(
                c.max_prior_on_excluded, 0.0,
                "rule {:?} leaks prior mass",
                c.rule
            );
        }
        // At moderate bandwidth the exclusion softens — neighbouring QI
        // points inside the kernel support can reintroduce mass — but the
        // excluded values stay improbable on average and almost never
        // dominant. A single low-support rule whose pattern sits next to a
        // dense stratum of the excluded value can legitimately pick up
        // majority mass from its neighbours (the exact worst case depends
        // on the generator's RNG stream), so dominance (> 0.5) is bounded
        // as a rare exception rather than forbidden outright, and even the
        // exception must stay well short of certainty.
        let soft = verify_subsumption(&t, &rules, 0.2);
        let mean: f64 =
            soft.iter().map(|c| c.max_prior_on_excluded).sum::<f64>() / soft.len() as f64;
        assert!(mean < 0.1, "mean prior on excluded values {mean}");
        let dominant = soft
            .iter()
            .filter(|c| c.max_prior_on_excluded > 0.5)
            .count();
        assert!(
            dominant <= 1,
            "{dominant}/{} rules give the excluded value majority mass",
            soft.len()
        );
        for c in &soft {
            assert!(
                c.max_prior_on_excluded < 0.7,
                "rule {:?}: prior {}",
                c.rule,
                c.max_prior_on_excluded
            );
        }
    }

    #[test]
    fn pattern_helpers() {
        let t = adult::generate(100, 1);
        let p = Pattern::single(qi_index::GENDER, 0);
        let label = p.display(&t);
        assert!(label.contains("Gender=Female"), "{label}");
        let pair = Pattern::pair((qi_index::GENDER, 1), (qi_index::RACE, 0));
        assert_eq!(pair.terms[0].0, qi_index::RACE.min(qi_index::GENDER));
        for row in 0..t.len() {
            let m = p.matches(&t, row);
            assert_eq!(m, t.qi_value(row, qi_index::GENDER) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct attributes")]
    fn pair_pattern_rejects_same_attribute() {
        let _ = Pattern::pair((1, 0), (1, 1));
    }
}
