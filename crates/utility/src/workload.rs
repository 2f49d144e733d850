//! Aggregate query answering (§V-E.2, Fig. 6).
//!
//! Following the methodology of Anatomy (Xiao & Tao, cited as \[16\]) that the
//! paper adopts, each COUNT query constrains `qd` random QI attributes *and*
//! the sensitive attribute:
//!
//! ```sql
//! SELECT COUNT(*) FROM T
//! WHERE A_{i1} ∈ R_1 AND … AND A_{i_qd} ∈ R_qd AND S ∈ R_S
//! ```
//!
//! Every range covers a fraction `sel^(1/(qd+1))` of its attribute's domain,
//! so the overall expected selectivity is `sel`. The anonymized table
//! answers under the uniform-spread assumption: a group contributes its
//! matching sensitive counts scaled by the fractional overlap of its box
//! with the query ranges. The score is the average relative error against
//! the true counts.

use bgkanon_anon::{AnonymizedTable, QiRange};
use bgkanon_data::Table;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One COUNT query: per-QI-attribute optional code ranges plus a code range
/// on the sensitive attribute.
#[derive(Debug, Clone)]
pub struct Query {
    /// `ranges[i] = Some(r)` restricts QI attribute `i` to the code range.
    pub ranges: Vec<Option<QiRange>>,
    /// The sensitive-value code range the query counts.
    pub sensitive: QiRange,
}

/// Parameters of a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of QI attributes each query constrains (`qd`).
    pub qd: usize,
    /// Overall expected selectivity (`sel`).
    pub selectivity: f64,
    /// Number of queries to generate.
    pub queries: usize,
    /// RNG seed (workloads are deterministic).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            qd: 3,
            selectivity: 0.07,
            queries: 1000,
            seed: 7,
        }
    }
}

fn random_range(rng: &mut SmallRng, domain: u32, fraction: f64) -> QiRange {
    let width = ((f64::from(domain) * fraction).ceil() as u32).clamp(1, domain);
    let start = rng.gen_range(0..=(domain - width));
    QiRange {
        min: start,
        max: start + width - 1,
    }
}

/// Generate a deterministic random workload against `table`'s schema.
pub fn generate_queries(table: &Table, config: &WorkloadConfig) -> Vec<Query> {
    let schema = table.schema();
    let d = schema.qi_count();
    assert!(
        config.qd >= 1 && config.qd <= d,
        "query dimension must be in 1..={d}"
    );
    assert!(
        config.selectivity > 0.0 && config.selectivity <= 1.0,
        "selectivity must be in (0, 1]"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // qd QI predicates plus the sensitive predicate share the selectivity.
    let per_attr = config.selectivity.powf(1.0 / (config.qd + 1) as f64);
    let m = schema.sensitive_domain_size() as u32;

    (0..config.queries)
        .map(|_| {
            // Choose qd distinct attributes (partial Fisher–Yates).
            let mut attrs: Vec<usize> = (0..d).collect();
            for i in 0..config.qd {
                let j = rng.gen_range(i..d);
                attrs.swap(i, j);
            }
            let mut ranges = vec![None; d];
            for &a in &attrs[..config.qd] {
                let r = schema.qi_attribute(a).domain_size();
                ranges[a] = Some(random_range(&mut rng, r, per_attr));
            }
            Query {
                ranges,
                sensitive: random_range(&mut rng, m, per_attr),
            }
        })
        .collect()
}

/// True COUNT of `query` against the original microdata.
pub fn answer_exact(table: &Table, query: &Query) -> u64 {
    let mut count = 0u64;
    'rows: for r in 0..table.len() {
        if !query.sensitive.contains(table.sensitive_value(r)) {
            continue;
        }
        for (i, range) in query.ranges.iter().enumerate() {
            if let Some(range) = range {
                if !range.contains(table.qi_value(r, i)) {
                    continue 'rows;
                }
            }
        }
        count += 1;
    }
    count
}

/// Estimated COUNT from the anonymized groups under uniform spread: each
/// group contributes its sensitive counts inside the query's sensitive range
/// scaled by `Π_i overlap_i`, the fractional coverage of the group's box by
/// the query's QI ranges.
pub fn answer_estimated(anonymized: &AnonymizedTable, query: &Query) -> f64 {
    let mut total = 0.0;
    for g in anonymized.iter() {
        let s_count: u32 = (query.sensitive.min..=query.sensitive.max)
            .map(|s| g.sensitive_counts[s as usize])
            .sum();
        if s_count == 0 {
            continue;
        }
        let mut frac = 1.0f64;
        for (i, range) in query.ranges.iter().enumerate() {
            if let Some(q) = range {
                let b = &g.ranges[i];
                let lo = q.min.max(b.min);
                let hi = q.max.min(b.max);
                if lo > hi {
                    frac = 0.0;
                    break;
                }
                frac *= f64::from(hi - lo + 1) / f64::from(b.width());
            }
        }
        total += f64::from(s_count) * frac;
    }
    total
}

/// Average relative error `|est − act| / act` over the queries whose true
/// answer is non-zero, as a percentage. Returns `None` when every query has
/// a zero true count (degenerate workload).
pub fn average_relative_error(
    table: &Table,
    anonymized: &AnonymizedTable,
    queries: &[Query],
) -> Option<f64> {
    let mut total = 0.0;
    let mut counted = 0usize;
    for q in queries {
        let act = answer_exact(table, q);
        if act == 0 {
            continue;
        }
        let est = answer_estimated(anonymized, q);
        total += (est - act as f64).abs() / act as f64;
        counted += 1;
    }
    if counted == 0 {
        None
    } else {
        Some(100.0 * total / counted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_anon::{Group, Mondrian};
    use bgkanon_data::adult;
    use bgkanon_privacy::KAnonymity;
    use std::sync::Arc;

    fn anonymized(t: &Table, k: usize) -> AnonymizedTable {
        Mondrian::new(Arc::new(KAnonymity::new(k))).anonymize(t)
    }

    #[test]
    fn workload_is_deterministic() {
        let t = adult::generate(200, 31);
        let cfg = WorkloadConfig::default();
        let a = generate_queries(&t, &cfg);
        let b = generate_queries(&t, &cfg);
        assert_eq!(a.len(), b.len());
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.sensitive, qb.sensitive);
            for (ra, rb) in qa.ranges.iter().zip(&qb.ranges) {
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn queries_constrain_exactly_qd_attributes() {
        let t = adult::generate(100, 32);
        for qd in 1..=6 {
            let cfg = WorkloadConfig {
                qd,
                queries: 20,
                ..WorkloadConfig::default()
            };
            for q in generate_queries(&t, &cfg) {
                assert_eq!(q.ranges.iter().filter(|r| r.is_some()).count(), qd);
            }
        }
    }

    #[test]
    fn exact_answer_counts_correctly() {
        let t = adult::generate(500, 33);
        // QI-unconstrained query counting sensitive codes 2..=4.
        let q = Query {
            ranges: vec![None; 6],
            sensitive: QiRange { min: 2, max: 4 },
        };
        let counts = t.sensitive_counts();
        assert_eq!(answer_exact(&t, &q), counts[2] + counts[3] + counts[4]);
    }

    #[test]
    fn estimate_matches_exact_for_full_domain_queries() {
        let t = adult::generate(400, 34);
        let at = anonymized(&t, 5);
        let schema = t.schema();
        let full: Vec<Option<QiRange>> = (0..6)
            .map(|i| {
                Some(QiRange {
                    min: 0,
                    max: schema.qi_attribute(i).domain_size() - 1,
                })
            })
            .collect();
        for s in 0..14u32 {
            let q = Query {
                ranges: full.clone(),
                sensitive: QiRange { min: s, max: s },
            };
            let act = answer_exact(&t, &q) as f64;
            let est = answer_estimated(&at, &q);
            assert!((act - est).abs() < 1e-6, "s={s}: act {act} est {est}");
        }
    }

    #[test]
    fn error_is_finite_and_bounded_across_query_dimensions() {
        // Fig. 6(a) sweeps qd ∈ 2..6. The paper reports a decreasing trend;
        // on synthetic data the trend is workload-dependent (documented in
        // EXPERIMENTS.md), so here we assert the errors stay finite and
        // within a loose envelope at every qd.
        let t = adult::generate(4000, 35);
        let at = anonymized(&t, 8);
        for qd in 2..=6 {
            let cfg = WorkloadConfig {
                qd,
                selectivity: 0.07,
                queries: 200,
                seed: 99,
            };
            let qs = generate_queries(&t, &cfg);
            let e = average_relative_error(&t, &at, &qs).expect("non-degenerate");
            assert!(e.is_finite() && e >= 0.0);
            assert!(e < 300.0, "qd={qd}: error {e}% out of envelope");
        }
    }

    #[test]
    fn error_decreases_with_selectivity() {
        // Fig. 6(b)'s shape: larger selectivity → smaller relative error.
        let t = adult::generate(4000, 36);
        let at = anonymized(&t, 8);
        let err = |sel: f64| {
            let cfg = WorkloadConfig {
                qd: 3,
                selectivity: sel,
                queries: 400,
                seed: 99,
            };
            let qs = generate_queries(&t, &cfg);
            average_relative_error(&t, &at, &qs).expect("non-degenerate")
        };
        let small = err(0.03);
        let large = err(0.3);
        assert!(
            large < small,
            "sel=0.3 error {large} should be below sel=0.03 error {small}"
        );
    }

    #[test]
    fn finer_partitions_answer_more_accurately() {
        let t = adult::generate(1500, 36);
        let coarse = anonymized(&t, 50);
        let fine = anonymized(&t, 5);
        let cfg = WorkloadConfig {
            qd: 2,
            selectivity: 0.1,
            queries: 300,
            seed: 5,
        };
        let qs = generate_queries(&t, &cfg);
        let e_fine = average_relative_error(&t, &fine, &qs).unwrap();
        let e_coarse = average_relative_error(&t, &coarse, &qs).unwrap();
        assert!(
            e_fine <= e_coarse,
            "fine {e_fine} should not exceed coarse {e_coarse}"
        );
    }

    #[test]
    fn degenerate_workload_returns_none() {
        let t = adult::generate(50, 37);
        let at = AnonymizedTable::new(&t, vec![Group::from_rows(&t, (0..t.len()).collect())]);
        let counts = t.sensitive_counts();
        if let Some(absent) = counts.iter().position(|&c| c == 0) {
            let q = Query {
                ranges: vec![None; 6],
                sensitive: QiRange {
                    min: absent as u32,
                    max: absent as u32,
                },
            };
            assert!(average_relative_error(&t, &at, std::slice::from_ref(&q)).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn invalid_qd_rejected() {
        let t = adult::generate(50, 38);
        let cfg = WorkloadConfig {
            qd: 7,
            ..WorkloadConfig::default()
        };
        let _ = generate_queries(&t, &cfg);
    }
}
