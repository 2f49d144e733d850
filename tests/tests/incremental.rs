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
use bgkanon::data::{Attribute, Schema, TableBuilder};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;
use bgkanon::SessionError;
use bgkanon_tests::reference_report;

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

/// QI attributes of the wide schema: one more than the planting engine's
/// live-dimension bitmask holds, so every plant and every refresh rebuild
/// of it runs on Mondrian's reference loop.
const WIDE_QI: usize = 65;

/// A schema of `WIDE_QI` flat categorical QI attributes (2–4 values each)
/// and a 4-valued sensitive attribute.
fn wide_schema() -> Arc<Schema> {
    let labels = ["a", "b", "c", "d"];
    let qi = (0..WIDE_QI)
        .map(|i| Attribute::categorical_flat(&format!("q{i}"), &labels[..2 + i % 3]).unwrap())
        .collect();
    let sensitive = Attribute::categorical_flat("s", &labels).unwrap();
    Arc::new(Schema::new(qi, sensitive).unwrap())
}

/// Random codes for one row of the wide schema.
fn wide_row(rng: &mut SmallRng) -> (Vec<u32>, u32) {
    let qi = (0..WIDE_QI)
        .map(|i| rng.gen_range(0..2 + (i % 3) as u32))
        .collect();
    (qi, rng.gen_range(0..4u32))
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
                    let verdict = publisher.verify(session.table(), &outcome.anonymized);
                    prop_assert!(
                        verdict.is_ok(),
                        "rows={rows} seed={seed} k={k} step={step} {parallelism:?}: {}",
                        verdict.unwrap_err()
                    );
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
            let verdict = publisher.verify(session.table(), session.anonymized());
            prop_assert!(
                verdict.is_ok(),
                "rows={rows} seed={seed} step={step}: {}",
                verdict.unwrap_err()
            );
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
        // The external auditor is fixed up front (the paper's Fig. 1
        // accounting: one prior model reused across releases).
        let auditor = Auditor::new(
            Arc::new(Adversary::kernel(
                &base,
                Bandwidth::uniform(bandwidth, base.qi_count()).unwrap(),
            )),
            Arc::new(SmoothedJs::paper_default(base.schema().sensitive_distance())),
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
            let reference =
                auditor.report_reference(session.table(), &fresh.anonymized.row_groups(), 0.2);
            prop_assert_eq!(incremental.first_difference(&reference), None, "{}", context);

            if audit_mask >> step & 1 == 0 {
                continue;
            }
            let reference = reference_report(session.table(), &fresh.anonymized, bandwidth, 0.2);
            let tracked = session.audit_against(bandwidth, 0.2).expect("valid bandwidth");
            prop_assert_eq!(tracked.first_difference(&reference), None, "{}", context);
            if replay_mask >> step & 1 == 1 {
                let replay = session.audit_against(bandwidth, 0.2).expect("valid bandwidth");
                prop_assert_eq!(replay.first_difference(&reference), None, "{}", context);
            }
        }
    }
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
        before.anonymized.first_difference(&outcome.anonymized),
        None
    );
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
    publisher
        .verify(session.table(), session.anonymized())
        .unwrap();
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
    publisher
        .verify(session.table(), session.anonymized())
        .unwrap();
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
    publisher
        .verify(session.table(), session.anonymized())
        .unwrap();
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
    publisher
        .verify(session.table(), session.anonymized())
        .unwrap();
    let reference = reference_report(session.table(), session.anonymized(), 0.25, 0.15);
    assert_eq!(after.first_difference(&reference), None);
    // A second call on the same state replays bit-identically.
    let replay = session.audit_against(0.25, 0.15).unwrap();
    assert_eq!(after.first_difference(&replay), None);
    // And the pre-delta report stays a valid, distinct artifact.
    assert_eq!(before.risks.len(), base.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Schemas wider than 64 QI attributes outgrow the engine's
    /// live-dimension mask, which tracks only the first 64; the rest are
    /// rescanned at every region. Every knob's plant equals
    /// `plant_reference`, and a tree refreshed through 1–4 deltas equals a
    /// from-scratch plant of each new table.
    #[test]
    fn wide_schema_plants_and_refreshes_like_the_reference(
        rows in 40usize..160,
        seed in 0u64..500,
        k in 2usize..6,
        steps in 1usize..5,
    ) {
        let schema = wide_schema();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut builder = TableBuilder::new(Arc::clone(&schema));
        for _ in 0..rows {
            let (qi, s) = wide_row(&mut rng);
            builder.push_codes(&qi, s).unwrap();
        }
        let mut table = builder.build().unwrap();
        let mondrian = Mondrian::new(Arc::new(KAnonymity::new(k)));
        let reference = mondrian.plant_reference(&table).to_anonymized(&table);
        prop_assert!(reference.group_count() > 1, "rows={rows} seed={seed} k={k}");
        for par in [Parallelism::Serial, Parallelism::threads(1), Parallelism::threads(3)] {
            let planted = mondrian.plant_with(&table, par).to_anonymized(&table);
            prop_assert_eq!(reference.first_difference(&planted), None, "{:?}", par);
        }
        let mut tree = mondrian.plant(&table);
        for step in 0..steps {
            let mut delta = DeltaBuilder::new(Arc::clone(&schema));
            for row in 0..table.len() {
                if rng.gen_bool(0.08) {
                    delta.delete(row);
                }
            }
            for _ in 0..rng.gen_range(0..8usize) {
                let (qi, s) = wide_row(&mut rng);
                delta.insert_codes(&qi, s).unwrap();
            }
            let delta = delta.build();
            let next = table.apply_delta(&delta).unwrap();
            if next.len() < k {
                break; // no k-anonymous publication of `next` exists
            }
            mondrian.refresh(&mut tree, &table, &next, delta.deletes());
            let fresh = mondrian.plant_reference(&next).to_anonymized(&next);
            prop_assert_eq!(
                fresh.first_difference(&tree.to_anonymized(&next)),
                None,
                "rows={} seed={} k={} step={}",
                rows, seed, k, step
            );
            table = next;
        }
    }
}
