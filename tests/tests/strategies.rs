//! Strategy-trait contract tests: every [`AnonymizationStrategy`] behind the
//! redesigned session API — Mondrian, bucketization, full-domain
//! generalization — must produce incremental refreshes bit-identical to a
//! from-scratch publish, plant identically under any engine, keep the
//! group-stamp contract across refreshes, and coexist inside one
//! [`SessionHub`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::anon::{AnonymizationStrategy, FullDomain, StrategyState};
use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::prelude::*;
use bgkanon::PublishError;

/// A pseudo-random delta over `table` (the `incremental.rs` generator).
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

fn assert_same_publication(a: &AnonymizedTable, b: &AnonymizedTable, context: &str) {
    assert_eq!(a.group_count(), b.group_count(), "group count: {context}");
    for (ga, gb) in a.groups().iter().zip(b.groups()) {
        assert_eq!(ga.rows, gb.rows, "rows: {context}");
        assert_eq!(ga.ranges, gb.ranges, "ranges: {context}");
        assert_eq!(
            ga.sensitive_counts, gb.sensitive_counts,
            "histogram: {context}"
        );
    }
}

/// A publisher whose specs every strategy can enforce, pinned to `algorithm`.
fn publisher_for(algorithm: Algorithm) -> Publisher {
    Publisher::new()
        .k_anonymity(3)
        .distinct_l_diversity(3)
        .algorithm(algorithm)
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Mondrian,
    Algorithm::Bucketize,
    Algorithm::FullDomain,
];

/// `plant_with` under any engine must be bit-identical to the serial plant,
/// for every strategy — the parallel paths are optimizations, never allowed
/// to change the published output.
#[test]
fn plant_with_any_engine_matches_the_serial_plant() {
    let table = adult::generate(240, 41);
    let mondrian = Mondrian::new(Arc::new(KAnonymity::new(4)));
    let bucketize = Bucketize::new(3);
    let fulldomain = FullDomain::new_monotone(Arc::new(KAnonymity::new(4)));

    fn check<S: AnonymizationStrategy>(strategy: &S, table: &Table) {
        let serial = strategy
            .plant_with(table, Parallelism::Serial)
            .unwrap_or_else(|e| panic!("{}: serial plant: {}", strategy.name(), e.reason));
        for engine in [Parallelism::Auto, Parallelism::threads(3)] {
            let planted = strategy
                .plant_with(table, engine)
                .unwrap_or_else(|e| panic!("{}: parallel plant: {}", strategy.name(), e.reason));
            // Leaf stamps are per-plant identifiers, not part of the
            // publication; only the published groups must be identical.
            let (a, _) = serial.snapshot(table);
            let (b, _) = planted.snapshot(table);
            assert_same_publication(&a, &b, strategy.name());
        }
    }

    check(&mondrian, &table);
    check(&bucketize, &table);
    check(&fulldomain, &table);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: for every strategy, a session refreshed
    /// through an arbitrary delta sequence serves exactly the publication a
    /// from-scratch publish of the same table would produce. Deltas the
    /// session refuses (infeasible post-delta tables) must leave it
    /// unchanged and still consistent.
    #[test]
    fn incremental_refresh_is_bit_identical_to_from_scratch(
        rows in 80usize..200,
        seed in 0u64..1u64 << 48,
        steps in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for algorithm in ALGORITHMS {
            let publisher = publisher_for(algorithm);
            let table = adult::generate(rows, seed ^ 0x5eed);
            // A randomly drawn base table can be infeasible for bucketize
            // (one sensitive value too frequent); that is not this test's
            // concern, so skip the algorithm for this case.
            let Ok(mut session) = publisher.open(&table) else {
                continue;
            };
            for step in 0..steps {
                let delta = random_delta(session.table(), &mut rng, 0.05, 4);
                let applied = session.apply(&delta).is_ok();
                let fresh = publisher
                    .publish(session.table())
                    .expect("the session's resident table is always publishable");
                assert_same_publication(
                    session.anonymized(),
                    &fresh.anonymized,
                    &format!("{} step {step} applied={applied}", algorithm.name()),
                );
            }
        }
    }
}

/// Check the stamp contract of [`StrategyState::snapshot`] over six random
/// deltas: stamps are unique within a snapshot, a stamp carried across a
/// refresh labels exactly its old row list remapped through the deletes (in
/// the same order), and a retired stamp is never issued again. Returns how
/// many stamps the run carried.
fn check_stamp_contract<S: AnonymizationStrategy>(
    strategy: &S,
    table: &Table,
    rng: &mut SmallRng,
) -> Result<usize, TestCaseError> {
    let name = strategy.name();
    let Ok(mut state) = strategy.plant(table) else {
        return Ok(0);
    };
    let mut table = table.clone();
    let (mut published, mut stamps) = state.snapshot(&table);
    let mut issued: BTreeSet<u64> = stamps.iter().copied().collect();
    prop_assert_eq!(issued.len(), stamps.len());
    let mut carried = 0;
    for step in 0..6 {
        let delta = random_delta(&table, rng, 0.01, 3);
        let next = table
            .apply_delta(&delta)
            .expect("scripted deltas are valid");
        if strategy
            .refresh(&mut state, &table, &next, delta.deletes())
            .is_err()
        {
            continue;
        }
        let (next_published, next_stamps) = state.snapshot(&next);
        let unique: BTreeSet<u64> = next_stamps.iter().copied().collect();
        prop_assert!(
            unique.len() == next_stamps.len(),
            "{name} step {step}: a stamp labels two groups"
        );
        let old: BTreeMap<u64, &[usize]> = stamps
            .iter()
            .copied()
            .zip(published.iter().map(|g| g.rows))
            .collect();
        for (stamp, group) in next_stamps.iter().zip(next_published.iter()) {
            match old.get(stamp) {
                Some(rows) => {
                    let remapped: Vec<Option<usize>> = rows
                        .iter()
                        .map(|&r| match delta.deletes().binary_search(&r) {
                            Ok(_) => None,
                            Err(below) => Some(r - below),
                        })
                        .collect();
                    let members: Vec<Option<usize>> =
                        group.rows.iter().copied().map(Some).collect();
                    prop_assert!(
                        members == remapped,
                        "{name} step {step}: stamp {stamp} carried to another membership"
                    );
                    carried += 1;
                }
                None => prop_assert!(
                    !issued.contains(stamp),
                    "{name} step {step}: retired stamp {stamp} issued again"
                ),
            }
        }
        issued.extend(unique);
        table = next;
        published = next_published;
        stamps = next_stamps;
    }
    Ok(carried)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The stamp contract of `crates/anon/src/strategy.rs`, for every
    /// strategy, over random delta sequences; each strategy must carry at
    /// least one stamp over a run (or the contract is vacuous).
    #[test]
    fn stamps_follow_the_contract_across_refreshes(
        rows in 300usize..600,
        seed in 0u64..1u64 << 48,
    ) {
        let table = adult::generate(rows, seed ^ 0x57a3);
        let requirement: Arc<dyn PrivacyRequirement> = Arc::new(KAnonymity::new(4));
        let mut rng = SmallRng::seed_from_u64(seed);
        let carried = [
            check_stamp_contract(&Mondrian::new(Arc::clone(&requirement)), &table, &mut rng)?,
            check_stamp_contract(&Bucketize::new(3), &table, &mut rng)?,
            check_stamp_contract(&FullDomain::new_monotone(requirement), &table, &mut rng)?,
        ];
        for (count, algorithm) in carried.iter().zip(ALGORITHMS) {
            prop_assert!(*count > 0, "{}: no stamp carried over the run", algorithm.name());
        }
    }
}

/// One default hub hosts tenants running different algorithms side by side;
/// each tenant's served snapshot stays bit-identical to a from-scratch
/// publish under its own publisher.
#[test]
fn one_hub_hosts_every_algorithm_side_by_side() {
    let hub: SessionHub = SessionHub::new();
    let mut rng = SmallRng::seed_from_u64(97);
    for algorithm in ALGORITHMS {
        let table = adult::generate(160, 23);
        hub.register(algorithm.name(), &table, &publisher_for(algorithm))
            .unwrap();
    }
    for step in 0..4 {
        for algorithm in ALGORITHMS {
            let snap = hub.snapshot(algorithm.name()).unwrap();
            let delta = random_delta(snap.table(), &mut rng, 0.04, 3);
            // An unlucky delta may be infeasible for this strategy; refusal
            // must not disturb the tenant (checked below either way).
            let _ = hub.apply(algorithm.name(), &delta);
            let snap = hub.snapshot(algorithm.name()).unwrap();
            let fresh = publisher_for(algorithm).publish(snap.table()).unwrap();
            assert_same_publication(
                snap.anonymized(),
                &fresh.anonymized,
                &format!("{} step {step}", algorithm.name()),
            );
        }
    }
}

/// A session opened from a bucketize publisher runs bucketization, and after
/// a delta it matches a from-scratch publish of the evolved table.
#[test]
fn bucketize_session_matches_a_from_scratch_publish_after_a_delta() {
    let table = adult::generate(120, 5);
    let mut session = PublishSession::open(&table, &publisher_for(Algorithm::Bucketize)).unwrap();
    assert!(format!("{session:?}").contains("bucketize"));
    let mut rng = SmallRng::seed_from_u64(11);
    let delta = random_delta(session.table(), &mut rng, 0.03, 3);
    let _ = session.apply(&delta);
    let fresh = publisher_for(Algorithm::Bucketize)
        .publish(session.table())
        .unwrap();
    assert_same_publication(session.anonymized(), &fresh.anonymized, "bucketize");
}

/// Skyline (B,t)-privacy flows through the redesigned API end to end: a
/// skyline publisher opens sessions, registers in the hub and refreshes
/// incrementally. A session's requirement is instantiated at open and
/// frozen (the skyline adversary models derive from the genesis table), so
/// the reference here is a second session replaying the same deltas — not
/// a re-instantiated from-scratch publish.
#[test]
fn skyline_publishers_flow_through_session_and_hub() {
    let publisher = Publisher::new()
        .k_anonymity(3)
        .skyline(vec![(0.2, 0.45), (0.5, 0.6)]);
    let table = adult::generate(180, 59);

    // The genesis publication itself must audit clean on a skyline point.
    let outcome = publisher.publish(&table).unwrap();
    let report = outcome
        .audit_against(&table, 0.2, 0.45)
        .expect("valid bandwidth");
    assert!(report.worst_case <= 0.45 + 1e-9, "{}", report.worst_case);

    let hub: SessionHub = SessionHub::new();
    hub.register("sky", &table, &publisher).unwrap();
    let mut replay = publisher.open(&table).unwrap();
    assert!(
        replay.requirement_name().contains("skyline"),
        "{}",
        replay.requirement_name()
    );
    let mut rng = SmallRng::seed_from_u64(31);
    for step in 0..3 {
        let snap = hub.snapshot("sky").unwrap();
        let delta = random_delta(snap.table(), &mut rng, 0.03, 3);
        let hub_applied = hub.apply("sky", &delta).is_ok();
        let replay_applied = replay.apply(&delta).is_ok();
        assert_eq!(hub_applied, replay_applied, "step {step}: feasibility");
        let snap = hub.snapshot("sky").unwrap();
        assert_same_publication(
            snap.anonymized(),
            replay.anonymized(),
            &format!("skyline step {step}"),
        );
    }
}

/// Specs a strategy cannot enforce surface as typed `Infeasible` errors at
/// publish/open time — not as panics and not as silently wrong output.
#[test]
fn strategies_reject_specs_they_cannot_enforce() {
    let table = adult::generate(100, 3);

    // Bucketization has no notion of t-closeness over QI partitions.
    let Err(err) = Publisher::new()
        .t_closeness(0.3)
        .algorithm(Algorithm::Bucketize)
        .publish(&table)
    else {
        panic!("bucketize must refuse a t-closeness spec")
    };
    match err {
        PublishError::Infeasible { reason } => {
            assert!(reason.contains("t-closeness"), "{reason}")
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }

    // An infeasible delta must leave a hub tenant's version and groups
    // untouched.
    let publisher = publisher_for(Algorithm::Bucketize);
    let hub: SessionHub = SessionHub::new();
    hub.register("t", &table, &publisher).unwrap();
    let before = hub.snapshot("t").unwrap();
    // Flood the table with one sensitive value until no ℓ=3 bucketization
    // can exist (the most frequent value exceeds n/ℓ).
    let mut builder = DeltaBuilder::new(Arc::clone(before.table().schema()));
    let donors = adult::generate(before.table().len() * 3, 77);
    for r in 0..donors.len() {
        builder
            .insert_codes(&donors.qi(r), 0)
            .expect("donor rows share the schema");
    }
    let flood = builder.build();
    assert!(
        hub.apply("t", &flood).is_err(),
        "a single-value flood cannot be ℓ-diverse"
    );
    let after = hub.snapshot("t").unwrap();
    assert_eq!(before.version(), after.version());
    assert_same_publication(before.anonymized(), after.anonymized(), "refused delta");
}
