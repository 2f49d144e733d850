//! Property tests of the incremental republication engine: for any base
//! table and any sequence of deltas, a [`PublishSession`] must be
//! **bit-identical** — groups, ranges, histograms, audit risks — to a
//! from-scratch publish of the final table, on every parallelism knob. Its
//! `Adv(b′)` audits, taken after any gap of unaudited deltas, must equal a
//! fresh auditor of the current table.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;
use bgkanon::SessionError;

/// A pseudo-random delta over `table`: roughly `del_frac` of the rows
/// deleted and `inserts` fresh synthetic rows appended.
fn random_delta(table: &Table, rng: &mut SmallRng, del_frac: f64, inserts: usize) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if rng.gen_bool(del_frac) {
            builder.delete(row);
        }
    }
    let donors = adult::generate(inserts.max(1), rng.gen::<u64>());
    for r in 0..inserts {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    builder.build()
}

fn assert_same_publication(
    a: &AnonymizedTable,
    b: &AnonymizedTable,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        a.group_count() == b.group_count(),
        "group count diverges: {}",
        context
    );
    for (ga, gb) in a.groups().iter().zip(b.groups()) {
        prop_assert!(ga.rows == gb.rows, "rows diverge: {}", context);
        prop_assert!(ga.ranges == gb.ranges, "ranges diverge: {}", context);
        prop_assert!(
            ga.sensitive_counts == gb.sensitive_counts,
            "histogram diverges: {}",
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn session_equals_from_scratch_after_any_delta_sequence(
        rows in 60usize..280,
        seed in 0u64..500,
        k in 2usize..7,
        steps in 1usize..4,
        parallel in 0usize..2,
    ) {
        let parallelism = if parallel == 0 {
            Parallelism::Serial
        } else {
            Parallelism::threads(3)
        };
        let base = adult::generate(rows, seed);
        let publisher = Publisher::new().k_anonymity(k).parallelism(parallelism);
        let mut session = publisher.open(&base).expect("satisfiable base");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e55_1011);
        for step in 0..steps {
            let delta = random_delta(session.table(), &mut rng, 0.04, 3 + step);
            match session.apply(&delta) {
                Ok(outcome) => {
                    let fresh = publisher
                        .publish(session.table())
                        .expect("session accepted the delta");
                    assert_same_publication(
                        &outcome.anonymized,
                        &fresh.anonymized,
                        &format!("rows={rows} seed={seed} k={k} step={step} {parallelism:?}"),
                    )?;
                    prop_assert!(outcome.anonymized.len() == session.len());
                }
                Err(SessionError::Publish(_)) => {
                    // The delta made the table unsatisfiable as a whole;
                    // from-scratch must agree, and the session must be
                    // unchanged.
                    let next = session.table().apply_delta(&delta).unwrap();
                    prop_assert!(publisher.publish(&next).is_err());
                }
                Err(SessionError::Data(e)) => {
                    prop_assert!(
                        matches!(e, bgkanon::data::DataError::EmptyTable),
                        "unexpected data error: {e}"
                    );
                }
                Err(other) => prop_assert!(
                    false,
                    "apply returned a hub-registry error: {other}"
                ),
            }
        }
    }

    #[test]
    fn session_equals_from_scratch_under_composite_requirements(
        rows in 80usize..240,
        seed in 0u64..300,
        parallel in 0usize..2,
    ) {
        let parallelism = if parallel == 0 {
            Parallelism::Serial
        } else {
            Parallelism::Auto
        };
        let base = adult::generate(rows, seed);
        let publisher = Publisher::new()
            .k_anonymity(3)
            .distinct_l_diversity(2)
            .parallelism(parallelism);
        let mut session = publisher.open(&base).expect("satisfiable base");
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31) + 7);
        for step in 0..2 {
            let delta = random_delta(session.table(), &mut rng, 0.05, 4);
            if session.apply(&delta).is_err() {
                continue;
            }
            let fresh = publisher.publish(session.table()).expect("satisfiable");
            assert_same_publication(
                session.anonymized(),
                &fresh.anonymized,
                &format!("rows={rows} seed={seed} step={step}"),
            )?;
        }
    }

    #[test]
    fn session_audit_equals_fresh_audit_after_deltas(
        rows in 60usize..180,
        seed in 0u64..200,
        k in 3usize..6,
        bandwidth in 0.2f64..0.5,
        steps in 2usize..6,
        audit_mask in 0u32..64,
        replay_mask in 0u32..64,
    ) {
        let base = adult::generate(rows, seed);
        let publisher = Publisher::new().k_anonymity(k);
        let mut session = publisher.open(&base).expect("satisfiable base");
        let measure: Arc<dyn BeliefDistance> =
            Arc::new(SmoothedJs::paper_default(base.schema().sensitive_distance()));
        // The external auditor is fixed up front (the paper's Fig. 1
        // accounting: one prior model reused across releases).
        let auditor = Auditor::new(
            Arc::new(Adversary::kernel(
                &base,
                Bandwidth::uniform(bandwidth, base.qi_count()).unwrap(),
            )),
            Arc::clone(&measure),
        );
        // Warm the caches, then evolve and re-audit incrementally. The
        // session-built `Adv(b′)` is audited only on the steps `audit_mask`
        // picks, so consecutive audits are 0, 1 or several deltas apart;
        // `replay_mask` re-audits an unchanged version (a gap of 0).
        let _ = session.audit_with(&auditor, 0.2);
        let _ = session.audit_against(bandwidth, 0.2).expect("valid bandwidth");
        let mut rng = SmallRng::seed_from_u64(seed + 13);
        for step in 0..steps {
            let context = format!("rows={rows} seed={seed} k={k} step={step}");
            let delta = random_delta(session.table(), &mut rng, 0.05, 4);
            if session.apply(&delta).is_err() {
                continue;
            }
            let fresh = publisher.publish(session.table()).expect("satisfiable");
            let incremental = session.audit_with(&auditor, 0.2);
            let reference = fresh.audit_with(session.table(), &auditor, 0.2);
            assert_same_report(&incremental, &reference, &context)?;

            if audit_mask >> step & 1 == 0 {
                continue;
            }
            let current = Auditor::new(
                Arc::new(Adversary::kernel(
                    session.table(),
                    Bandwidth::uniform(bandwidth, base.qi_count()).unwrap(),
                )),
                Arc::clone(&measure),
            );
            let reference = fresh.audit_with(session.table(), &current, 0.2);
            let tracked = session.audit_against(bandwidth, 0.2).expect("valid bandwidth");
            assert_same_report(&tracked, &reference, &context)?;
            if replay_mask >> step & 1 == 1 {
                let replay = session.audit_against(bandwidth, 0.2).expect("valid bandwidth");
                assert_same_report(&replay, &reference, &context)?;
            }
        }
    }
}

fn assert_same_report(
    a: &AuditReport,
    b: &AuditReport,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(a.risks.len() == b.risks.len(), "risk count: {}", context);
    for (row, (x, y)) in a.risks.iter().zip(&b.risks).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "risk diverges at row {}: {}",
            row,
            context
        );
    }
    prop_assert!(
        a.worst_case.to_bits() == b.worst_case.to_bits(),
        "worst case: {}",
        context
    );
    prop_assert!(a.mean.to_bits() == b.mean.to_bits(), "mean: {}", context);
    prop_assert!(a.vulnerable == b.vulnerable, "vulnerable: {}", context);
    Ok(())
}

#[test]
fn empty_delta_republishes_identically() {
    let base = adult::generate(150, 4);
    let publisher = Publisher::new().k_anonymity(4);
    let mut session = publisher.open(&base).unwrap();
    let before = session.snapshot();
    let outcome = session
        .apply(&DeltaBuilder::new(Arc::clone(base.schema())).build())
        .unwrap();
    assert_eq!(
        before.anonymized.group_count(),
        outcome.anonymized.group_count()
    );
    for (a, b) in before
        .anonymized
        .groups()
        .iter()
        .zip(outcome.anonymized.groups())
    {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.ranges, b.ranges);
    }
}

#[test]
fn delete_all_is_rejected_without_corrupting_the_session() {
    let base = adult::generate(90, 8);
    let publisher = Publisher::new().k_anonymity(3);
    let mut session = publisher.open(&base).unwrap();
    let mut builder = DeltaBuilder::new(Arc::clone(base.schema()));
    for r in 0..base.len() {
        builder.delete(r);
    }
    assert!(matches!(
        session.apply(&builder.build()),
        Err(SessionError::Data(bgkanon::data::DataError::EmptyTable))
    ));
    // Still consistent with from-scratch on the unchanged table.
    let fresh = publisher.publish(&base).unwrap();
    assert_eq!(session.group_count(), fresh.anonymized.group_count());
}

#[test]
fn verdict_flip_collapses_and_rebuilds_like_from_scratch() {
    // Delete rows from one published group until the split that created it
    // violates k — the session must merge exactly as a fresh publish does —
    // then insert rows back until it can split again.
    let base = adult::generate(600, 17);
    let publisher = Publisher::new().k_anonymity(10);
    let mut session = publisher.open(&base).unwrap();
    let first_group: Vec<usize> = session.anonymized().groups()[0].rows.clone();
    let groups_before = session.group_count();

    // Shrink the first group to just above nothing.
    let mut builder = DeltaBuilder::new(Arc::clone(base.schema()));
    for &r in first_group.iter().take(first_group.len() - 2) {
        builder.delete(r);
    }
    session.apply(&builder.build()).unwrap();
    let fresh = publisher.publish(session.table()).unwrap();
    assert_eq!(session.group_count(), fresh.anonymized.group_count());
    for (a, b) in session
        .anonymized()
        .groups()
        .iter()
        .zip(fresh.anonymized.groups())
    {
        assert_eq!(a.rows, b.rows);
    }
    assert!(
        session.group_count() <= groups_before,
        "losing a group's rows cannot create more groups here"
    );

    // Now grow the table again; the collapsed region must re-split exactly
    // as a from-scratch publish of the grown table says.
    let donors = adult::generate(80, 23);
    let mut builder = DeltaBuilder::new(Arc::clone(base.schema()));
    for r in 0..donors.len() {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .unwrap();
    }
    session.apply(&builder.build()).unwrap();
    let fresh = publisher.publish(session.table()).unwrap();
    assert_eq!(session.group_count(), fresh.anonymized.group_count());
    for (a, b) in session
        .anonymized()
        .groups()
        .iter()
        .zip(fresh.anonymized.groups())
    {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.sensitive_counts, b.sensitive_counts);
    }
}

#[test]
fn audit_against_verdict_flip_is_tracked() {
    // A delta can flip a group's privacy verdict in the audit: removing
    // diverse rows sharpens the group's sensitive histogram. The session
    // report must track the fresh report exactly, including the vulnerable
    // count.
    let base = adult::generate(300, 29);
    let publisher = Publisher::new().k_anonymity(3);
    let mut session = publisher.open(&base).unwrap();
    let before = session.audit_against(0.25, 0.15).unwrap();

    // Delete a slice of rows spread over the table.
    let mut builder = DeltaBuilder::new(Arc::clone(base.schema()));
    for r in (0..base.len()).step_by(9) {
        builder.delete(r);
    }
    session.apply(&builder.build()).unwrap();
    let after = session.audit_against(0.25, 0.15).unwrap();
    assert_eq!(after.risks.len(), session.len());
    assert!(after.risks.iter().all(|r| !r.is_nan()));
    // A second call on the same state replays bit-identically.
    let replay = session.audit_against(0.25, 0.15).unwrap();
    assert_eq!(after.worst_case.to_bits(), replay.worst_case.to_bits());
    assert_eq!(after.vulnerable, replay.vulnerable);
    // And the pre-delta report stays a valid, distinct artifact.
    assert_eq!(before.risks.len(), base.len());
}
