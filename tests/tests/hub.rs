//! Concurrency stress tests of the [`SessionHub`] serving layer: random
//! tenants, interleaved writer deltas and reader audits across threads —
//! and every observation must be **bit-identical** to a serial replay of
//! that tenant's delta sequence. Concurrency buys throughput, never drift.
//!
//! The stress test records, from inside the concurrent run, every reader's
//! `(tenant, version, risks)` observation. Afterwards a single thread
//! replays each tenant's delta sequence through a fresh serial session,
//! reconstructing the reference report at every version, and requires:
//!
//! * every final hub snapshot (groups, ranges, histograms, table rows)
//!   equals the from-scratch publication of the replayed final table;
//! * every concurrent audit observation, at whatever version the reader
//!   happened to catch, equals the reference audit of that version bit for
//!   bit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;
use bgkanon_tests::reference_report;

/// The hub under test: the default, algorithm-dispatching strategy.
type SessionHub = bgkanon::SessionHub;

const SEED: u64 = 0xB6_2026;
const TENANTS: usize = 5;
const ROWS: usize = 220;
const DELTAS_PER_TENANT: usize = 6;
const READERS: usize = 3;
const K: usize = 4;
const B_PRIME: f64 = 0.3;
const THRESHOLD: f64 = 0.2;

/// A pseudo-random churn delta over `table` (deterministic in `rng`).
fn random_delta(table: &Table, rng: &mut SmallRng) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let deletes = rng.gen_range(1usize..6);
    for _ in 0..deletes {
        builder.delete(rng.gen_range(0..table.len()));
    }
    let inserts = rng.gen_range(1usize..6);
    let donors = adult::generate(inserts, rng.gen::<u64>());
    for r in 0..inserts {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    builder.build()
}

/// The per-tenant delta sequences, derived deterministically from the
/// evolving tables so the concurrent run and the serial replay see the
/// exact same sequence.
fn delta_seed(tenant: usize, step: usize) -> u64 {
    SEED ^ ((tenant as u64) << 32) ^ ((step as u64) << 8)
}

fn tenant_table(tenant: usize) -> Table {
    adult::generate(ROWS, SEED.wrapping_add(tenant as u64))
}

fn tenant_auditor(table: &Table) -> Auditor {
    let adversary = Arc::new(Adversary::kernel(
        table,
        Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
    ));
    let measure: Arc<dyn BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    Auditor::new(adversary, measure)
}

/// One concurrent audit observation: which tenant, which published version
/// the reader caught, and the full risk vector it was served.
struct Observation {
    tenant: usize,
    version: u64,
    risks: Vec<f64>,
}

#[test]
fn hub_stress_interleaved_deltas_and_audits_match_serial_replay() {
    let hub = Arc::new(SessionHub::new());
    let publisher = Publisher::new().k_anonymity(K);
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i}")).collect();
    let tables: Vec<Table> = (0..TENANTS).map(tenant_table).collect();
    for (name, table) in names.iter().zip(&tables) {
        hub.register(name, table, &publisher).expect("satisfiable");
    }
    // Frozen kernel adversaries, shared by the concurrent readers and the
    // serial replay so the audits compare exactly.
    let auditors: Arc<Vec<Auditor>> = Arc::new(tables.iter().map(tenant_auditor).collect());

    let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // One writer per tenant (a tenant's deltas must stay ordered), all
        // tenants concurrently.
        for (i, name) in names.iter().enumerate() {
            let hub = Arc::clone(&hub);
            scope.spawn(move || {
                for step in 0..DELTAS_PER_TENANT {
                    let mut rng = SmallRng::seed_from_u64(delta_seed(i, step));
                    let table = hub.snapshot(name).expect("registered").table().clone();
                    let delta = random_delta(&table, &mut rng);
                    hub.apply(name, &delta).expect("scripted deltas are valid");
                }
            });
        }
        // Readers audit random tenants the whole time, recording what they
        // saw. They go through the hub's shared caches (`audit_with`) and
        // independently through raw snapshots, mixing the two read paths.
        for r in 0..READERS {
            let hub = Arc::clone(&hub);
            let names = &names;
            let auditors = Arc::clone(&auditors);
            let observations = &observations;
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(SEED ^ 0xDEAD ^ r as u64);
                let mut local = Vec::new();
                let mut rounds = 0usize;
                while rounds < 10 || !writers_done.load(Ordering::Relaxed) {
                    let i = rng.gen_range(0..names.len());
                    // Pin the version first so the risks and the version
                    // number can never straddle a concurrent swap: audit
                    // the pinned snapshot directly.
                    let snap = hub.snapshot(&names[i]).expect("registered");
                    let report = if rng.gen_bool(0.5) {
                        // The shared-cache read path, against the pinned
                        // snapshot and its leaf stamps.
                        let shared = SharedAuditSession::new(auditors[i].clone());
                        let groups: Vec<&[usize]> =
                            snap.anonymized().iter().map(|g| g.rows).collect();
                        shared.report_groups(
                            snap.table(),
                            &groups,
                            Some(snap.leaf_stamps()),
                            THRESHOLD,
                        )
                    } else {
                        auditors[i].report_with(
                            snap.table(),
                            &snap.anonymized().row_groups(),
                            THRESHOLD,
                            Parallelism::Auto,
                        )
                    };
                    local.push(Observation {
                        tenant: i,
                        version: snap.version(),
                        risks: report.risks,
                    });
                    rounds += 1;
                }
                observations.lock().expect("observations").extend(local);
            });
        }
        // The scope's main thread watches for writer completion.
        loop {
            let done = names.iter().all(|n| {
                hub.snapshot(n).expect("registered").version() as usize >= DELTAS_PER_TENANT
            });
            if done {
                break;
            }
            std::thread::yield_now();
        }
        writers_done.store(true, Ordering::Relaxed);
    });

    // Also hammer the cached hub read path once concurrently-mutated state
    // has settled, so its output enters the comparison set too.
    for (i, name) in names.iter().enumerate() {
        let report = hub
            .audit_with(name, &auditors[i], THRESHOLD)
            .expect("registered");
        let snap = hub.snapshot(name).expect("registered");
        observations
            .lock()
            .expect("observations")
            .push(Observation {
                tenant: i,
                version: snap.version(),
                risks: report.risks,
            });
    }

    // ---- Serial replay: the single-threaded ground truth. ----------------
    // For each tenant, replay the identical delta sequence through a fresh
    // session and record the reference risks (`report_reference`, the §V.A
    // transcription) at every version.
    let mut reference_risks: Vec<HashMap<u64, Vec<f64>>> = Vec::with_capacity(TENANTS);
    for (i, base) in tables.iter().enumerate() {
        let mut by_version: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut session = publisher.open(base).expect("satisfiable");
        let reference = |session: &PublishSession| {
            auditors[i].report_reference(
                session.table(),
                &session.anonymized().row_groups(),
                THRESHOLD,
            )
        };
        by_version.insert(0, reference(&session).risks);
        for step in 0..DELTAS_PER_TENANT {
            let mut rng = SmallRng::seed_from_u64(delta_seed(i, step));
            let delta = random_delta(session.table(), &mut rng);
            session.apply(&delta).expect("same deltas as the hub run");
            by_version.insert((step + 1) as u64, reference(&session).risks);
        }

        // Final hub snapshot vs the replayed session and a from-scratch
        // publish: tables and publications bit-identical.
        let snap = hub.snapshot(&names[i]).expect("registered");
        assert_eq!(snap.version() as usize, DELTAS_PER_TENANT);
        assert_eq!(snap.table().len(), session.table().len(), "tenant {i}");
        for r in 0..snap.table().len() {
            assert_eq!(
                snap.table().qi(r),
                session.table().qi(r),
                "tenant {i} row {r}"
            );
            assert_eq!(
                snap.table().sensitive_value(r),
                session.table().sensitive_value(r),
                "tenant {i} row {r}"
            );
        }
        publisher
            .verify(session.table(), snap.anonymized())
            .unwrap_or_else(|e| panic!("tenant {i}: {e}"));
        reference_risks.push(by_version);
    }

    // ---- Every concurrent observation equals its version's reference. ---
    let observations = observations.into_inner().expect("observations");
    assert!(
        observations.len() >= READERS * 10 + TENANTS,
        "readers actually ran ({} observations)",
        observations.len()
    );
    let mut checked = 0usize;
    for obs in &observations {
        let reference = reference_risks[obs.tenant]
            .get(&obs.version)
            .unwrap_or_else(|| panic!("tenant {} has no version {}", obs.tenant, obs.version));
        assert_eq!(obs.risks.len(), reference.len());
        for (row, (a, b)) in obs.risks.iter().zip(reference).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "tenant {} version {} row {row}: {a} vs {b}",
                obs.tenant,
                obs.version
            );
        }
        checked += 1;
    }
    assert_eq!(checked, observations.len());
}

#[test]
fn hub_readers_pin_versions_while_writers_advance() {
    // A reader holding a snapshot must keep a fully consistent old version
    // across an arbitrary number of later deltas.
    let hub = SessionHub::new();
    let publisher = Publisher::new().k_anonymity(K);
    let table = tenant_table(0);
    hub.register("pin", &table, &publisher)
        .expect("satisfiable");
    let pinned = hub.snapshot("pin").expect("registered");
    let pinned_groups: Vec<Vec<usize>> = pinned.anonymized().row_groups();

    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..4 {
        let current = hub.snapshot("pin").expect("registered").table().clone();
        let delta = random_delta(&current, &mut rng);
        hub.apply("pin", &delta).expect("valid delta");
    }
    assert_eq!(hub.snapshot("pin").expect("registered").version(), 4);
    // The pinned version is untouched: same groups, same table, and an
    // audit of it still matches the original publication's audit.
    assert_eq!(pinned.version(), 0);
    assert_eq!(pinned.anonymized().row_groups(), pinned_groups);
    let auditor = tenant_auditor(&table);
    let of_pinned = auditor.report(pinned.table(), &pinned.anonymized().row_groups(), THRESHOLD);
    let of_original = auditor.report(&table, &pinned_groups, THRESHOLD);
    assert_eq!(of_pinned.first_difference(&of_original), None);
}

/// A fresh `Adv(B_PRIME)` audit of `snapshot`'s version at threshold `t`:
/// its publication must equal a from-scratch publish, and it is audited
/// against a newly estimated adversary by `Auditor::report_reference` —
/// the reference every carried-forward hub audit must match bit for bit.
fn fresh_adversary_report(snapshot: &TenantSnapshot, t: f64) -> AuditReport {
    let table = snapshot.table();
    Publisher::new()
        .k_anonymity(K)
        .verify(table, snapshot.anonymized())
        .unwrap_or_else(|e| panic!("version {}: {e}", snapshot.version()));
    reference_report(table, snapshot.anonymized(), B_PRIME, t)
}

#[test]
fn adversary_refresh_spans_several_unaudited_applies() {
    // The model carried from version 0 is refreshed straight to version 4:
    // the fold difference spans all four deltas, no delta log involved.
    let hub = SessionHub::new();
    hub.register("gap", &tenant_table(1), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    audit_matches_fresh(&hub, "gap", "version 0");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x6a9);
    for _ in 0..4 {
        let current = hub.snapshot("gap").expect("registered").table().clone();
        hub.apply("gap", &random_delta(&current, &mut rng))
            .expect("valid delta");
    }
    assert_eq!(hub.snapshot("gap").expect("registered").version(), 4);
    let carried = audit_matches_fresh(&hub, "gap", "version 4");
    // One entry per b′ is kept and replayed until the next apply.
    let replay = hub.audit_against("gap", B_PRIME, THRESHOLD).expect("audit");
    assert_eq!(replay.first_difference(&carried), None, "replay");
}

#[test]
fn shared_interned_model_is_never_refreshed_in_place() {
    // Two tenants with identical tables share one interned Adv(b′) model.
    // When one of them moves on, its refresh must clone the shared model:
    // the other tenant's audits stay exactly what they were.
    let hub = SessionHub::new();
    let publisher = Publisher::new().k_anonymity(K);
    let table = tenant_table(2);
    hub.register("left", &table, &publisher)
        .expect("satisfiable");
    hub.register("right", &table, &publisher)
        .expect("satisfiable");
    hub.audit_against("left", B_PRIME, THRESHOLD)
        .expect("audit");
    let before = hub
        .audit_against("right", B_PRIME, THRESHOLD)
        .expect("audit");
    assert_eq!(hub.memory_stats().interned_models, 1);
    assert_eq!(hub.memory_stats().intern_hits, 1);

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5a4e);
    let delta = random_delta(&table, &mut rng);
    hub.apply("left", &delta).expect("valid delta");
    audit_matches_fresh(&hub, "left", "left after its delta");
    let right = audit_matches_fresh(&hub, "right", "right against a fresh auditor");
    assert_eq!(right.first_difference(&before), None, "right unchanged");
    assert_eq!(hub.memory_stats().interned_models, 2);
}

/// Audit `tenant` at `B_PRIME` and require a fresh auditor's bits.
fn audit_matches_fresh(hub: &SessionHub, tenant: &str, context: &str) -> AuditReport {
    let report = hub
        .audit_against(tenant, B_PRIME, THRESHOLD)
        .expect("audit");
    let snapshot = hub.snapshot(tenant).expect("registered");
    assert_eq!(
        report.first_difference(&fresh_adversary_report(&snapshot, THRESHOLD)),
        None,
        "{context}"
    );
    report
}

#[test]
fn empty_delta_between_apply_and_audit_keeps_the_fold_step() {
    // Version 1's record must survive an empty delta (which republishes
    // version 1): the audit then carries the version-0 fold one step.
    let hub = SessionHub::new();
    hub.register("idle", &tenant_table(3), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    audit_matches_fresh(&hub, "idle", "version 0");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xe3);
    let table = hub.snapshot("idle").expect("registered").table().clone();
    hub.apply("idle", &random_delta(&table, &mut rng))
        .expect("valid delta");
    let schema = Arc::clone(table.schema());
    let same = hub
        .apply("idle", &DeltaBuilder::new(schema).build())
        .expect("empty delta");
    assert_eq!(same.version(), 1);
    audit_matches_fresh(&hub, "idle", "version 1 after an empty delta");
    let table = hub.snapshot("idle").expect("registered").table().clone();
    hub.apply("idle", &random_delta(&table, &mut rng))
        .expect("valid delta");
    audit_matches_fresh(&hub, "idle", "version 2");
}

#[test]
fn rejected_delta_leaves_the_fold_step_untouched() {
    let hub = SessionHub::new();
    hub.register("strict", &tenant_table(4), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    audit_matches_fresh(&hub, "strict", "version 0");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x7e);
    let table = hub.snapshot("strict").expect("registered").table().clone();
    hub.apply("strict", &random_delta(&table, &mut rng))
        .expect("valid delta");
    // A delete past the end is rejected; version 1 stays published.
    let current = hub.snapshot("strict").expect("registered");
    let mut bad = DeltaBuilder::new(Arc::clone(current.table().schema()));
    bad.delete(current.len() + 3);
    assert!(hub.apply("strict", &bad.build()).is_err());
    assert_eq!(hub.snapshot("strict").expect("registered").version(), 1);
    audit_matches_fresh(&hub, "strict", "version 1 after a rejected delta");
}

#[test]
fn two_unaudited_applies_fold_in_full_then_carry_again() {
    // Two applies between audits put the entry two versions behind (full
    // fold); the next single-step audit carries the fold again.
    let hub = SessionHub::new();
    hub.register("pair", &tenant_table(5), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    audit_matches_fresh(&hub, "pair", "version 0");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x22);
    for _ in 0..2 {
        let table = hub.snapshot("pair").expect("registered").table().clone();
        hub.apply("pair", &random_delta(&table, &mut rng))
            .expect("valid delta");
    }
    audit_matches_fresh(&hub, "pair", "version 2");
    for version in 3..6 {
        let table = hub.snapshot("pair").expect("registered").table().clone();
        hub.apply("pair", &random_delta(&table, &mut rng))
            .expect("valid delta");
        audit_matches_fresh(&hub, "pair", &format!("version {version}"));
    }
}

#[test]
fn evolved_and_fresh_folds_of_equal_content_share_one_model() {
    // "moved" reaches table T1 by a delta (its audit evolves the fold of
    // T0); "landed" registers T1 directly (its audit folds in full). The
    // two folds must hash and compare equal, so the second audit shares
    // the first's interned model.
    let hub = SessionHub::new();
    let publisher = Publisher::new().k_anonymity(K);
    let t0 = tenant_table(6);
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5ade);
    let delta = random_delta(&t0, &mut rng);
    let t1 = t0.apply_delta(&delta).expect("valid delta");
    hub.register("moved", &t0, &publisher).expect("satisfiable");
    hub.register("landed", &t1, &publisher)
        .expect("satisfiable");
    audit_matches_fresh(&hub, "moved", "moved at version 0");
    hub.apply("moved", &delta).expect("valid delta");
    let stats = hub.memory_stats();
    let moved = audit_matches_fresh(&hub, "moved", "moved at version 1");
    let landed = audit_matches_fresh(&hub, "landed", "landed at version 0");
    assert_eq!(
        moved.first_difference(&landed),
        None,
        "equal content, equal risks"
    );
    let after = hub.memory_stats();
    assert_eq!(after.intern_hits, stats.intern_hits + 1);
    assert_eq!(after.interned_models, 1);
}

/// The bytes a report memo charges for a kept report of `rows` risks.
fn memo_bytes(rows: usize) -> usize {
    rows * 8 + 48
}

/// `auditor`'s fresh report of `snapshot`'s version at threshold `t`.
fn fresh_report(auditor: &Auditor, snapshot: &TenantSnapshot, t: f64) -> AuditReport {
    auditor.report_reference(snapshot.table(), &snapshot.anonymized().row_groups(), t)
}

#[test]
fn repeated_audits_of_one_version_are_served_from_the_memo_bit_identically() {
    // Audits 1, 2 and 3+ of one (version, t) take the three memo paths:
    // claim the slot, keep the report, serve the kept copy. Each is a
    // fresh auditor's report, bit for bit; only the second charges bytes.
    let hub = SessionHub::new();
    let table = tenant_table(7);
    hub.register("memo", &table, &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    let snapshot = hub.snapshot("memo").expect("registered");
    let auditor = tenant_auditor(&table);
    let fresh = fresh_report(&auditor, &snapshot, THRESHOLD);
    let mut bytes = Vec::new();
    for round in 0..4 {
        let report = hub.audit_with("memo", &auditor, THRESHOLD).expect("audit");
        assert_eq!(report.first_difference(&fresh), None, "audit_with #{round}");
        assert_eq!(report.threshold.to_bits(), THRESHOLD.to_bits());
        bytes.push(hub.memory_stats().resident_bytes);
    }
    assert_eq!(
        bytes[1],
        bytes[0] + memo_bytes(table.len()),
        "kept on the 2nd"
    );
    assert_eq!(bytes[2], bytes[1], "a hit charges nothing");
    assert_eq!(bytes[3], bytes[1]);
    let fresh_against = fresh_adversary_report(&snapshot, THRESHOLD);
    for round in 0..4 {
        let report = hub
            .audit_against("memo", B_PRIME, THRESHOLD)
            .expect("audit");
        assert_eq!(
            report.first_difference(&fresh_against),
            None,
            "audit_against #{round}"
        );
    }
}

#[test]
fn a_new_threshold_or_version_misses_the_memo() {
    let hub = SessionHub::new();
    let table = tenant_table(8);
    hub.register("keys", &table, &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    let auditor = tenant_auditor(&table);
    for _ in 0..3 {
        hub.audit_with("keys", &auditor, THRESHOLD).expect("audit");
        hub.audit_against("keys", B_PRIME, THRESHOLD)
            .expect("audit");
    }
    // Another t at the same version claims the slot: the kept reports are
    // dropped, and the reports carry the new threshold's counts.
    let kept = hub.memory_stats().resident_bytes;
    let other_t = THRESHOLD / 2.0;
    let snapshot = hub.snapshot("keys").expect("registered");
    let with = hub.audit_with("keys", &auditor, other_t).expect("audit");
    let against = hub.audit_against("keys", B_PRIME, other_t).expect("audit");
    assert_eq!(
        hub.memory_stats().resident_bytes,
        kept - 2 * memo_bytes(table.len()),
        "both kept reports dropped"
    );
    let fresh_with = fresh_report(&auditor, &snapshot, other_t);
    let fresh_against = fresh_adversary_report(&snapshot, other_t);
    for (report, fresh, path) in [
        (&with, &fresh_with, "audit_with"),
        (&against, &fresh_against, "audit_against"),
    ] {
        assert_eq!(report.first_difference(fresh), None, "{path}");
        assert_eq!(report.threshold.to_bits(), other_t.to_bits(), "{path}");
    }
    // A new version misses both paths, however often the old one was read.
    for _ in 0..2 {
        hub.audit_with("keys", &auditor, other_t).expect("audit");
        hub.audit_against("keys", B_PRIME, other_t).expect("audit");
    }
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x3e3);
    hub.apply("keys", &random_delta(&table, &mut rng))
        .expect("valid delta");
    let next = hub.snapshot("keys").expect("registered");
    assert_eq!(next.version(), 1);
    for round in 0..3 {
        let with = hub.audit_with("keys", &auditor, other_t).expect("audit");
        assert_eq!(
            with.first_difference(&fresh_report(&auditor, &next, other_t)),
            None,
            "audit_with of version 1, #{round}"
        );
        let against = hub.audit_against("keys", B_PRIME, other_t).expect("audit");
        assert_eq!(
            against.first_difference(&fresh_adversary_report(&next, other_t)),
            None,
            "audit_against of version 1, #{round}"
        );
    }
}

#[test]
fn a_one_byte_budget_eviction_clears_the_memo() {
    // Under a 1-byte budget every request demotes the other tenant, which
    // on an in-memory hub drops its reader entries, memo slots included.
    // "cold" has no reader entries, so its demotions move no bytes.
    let hub = SessionHub::with_budget(1);
    let publisher = Publisher::new().k_anonymity(K);
    let table = tenant_table(9);
    hub.register("hot", &table, &publisher)
        .expect("satisfiable");
    hub.register("cold", &tenant_table(10), &publisher)
        .expect("satisfiable");
    let auditor = tenant_auditor(&table);
    let fresh = fresh_report(
        &auditor,
        &hub.snapshot("hot").expect("registered"),
        THRESHOLD,
    );
    let audit = |context: &str| {
        let report = hub.audit_with("hot", &auditor, THRESHOLD).expect("audit");
        assert_eq!(report.first_difference(&fresh), None, "{context}");
        hub.memory_stats().resident_bytes
    };
    let claimed = audit("first audit");
    let kept = audit("second audit");
    assert_eq!(kept, claimed + memo_bytes(table.len()));
    assert_eq!(audit("memo hit"), kept);
    // A request on "cold" demotes "hot": its entry and memo are gone.
    let evictions = hub.memory_stats().evictions;
    let cold_auditor = tenant_auditor(&tenant_table(10));
    hub.audit_with("cold", &cold_auditor, THRESHOLD)
        .expect("audit");
    assert!(hub.memory_stats().evictions > evictions);
    // The slot starts over: claimed again, then kept again, at the same
    // byte counts as before the eviction.
    assert_eq!(audit("first audit after eviction"), claimed);
    assert_eq!(audit("second audit after eviction"), kept);
    assert_eq!(audit("memo hit after eviction"), kept);
}

#[test]
fn readers_of_adjacent_versions_sharing_one_auditor_get_their_own_reports() {
    // Two pinned versions audited in turn through one external auditor's
    // session: a key of the older version never rolls the slot back, and
    // no reader is served the other version's report.
    let hub = SessionHub::new();
    let table = tenant_table(11);
    hub.register("adjacent", &table, &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    let v0 = hub.snapshot("adjacent").expect("registered");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xad1);
    hub.apply("adjacent", &random_delta(&table, &mut rng))
        .expect("valid delta");
    let v1 = hub.snapshot("adjacent").expect("registered");
    let auditor = tenant_auditor(&table);
    let shared = SharedAuditSession::new(auditor.clone());
    let audit = |snapshot: &TenantSnapshot| {
        shared.report_version(
            snapshot.version(),
            snapshot.table(),
            || snapshot.anonymized().iter().map(|g| g.rows).collect(),
            Some(snapshot.leaf_stamps()),
            THRESHOLD,
        )
    };
    let fresh = [
        fresh_report(&auditor, &v0, THRESHOLD),
        fresh_report(&auditor, &v1, THRESHOLD),
    ];
    for (round, order) in [[0, 1], [1, 0], [0, 1], [1, 1], [0, 0], [1, 0]]
        .iter()
        .enumerate()
    {
        for &version in order {
            let snapshot = if version == 0 { &v0 } else { &v1 };
            assert_eq!(
                audit(snapshot).first_difference(&fresh[version]),
                None,
                "round {round}, version {version}"
            );
        }
    }
    // Through the hub, concurrent readers of v0 and v1 share this shape:
    // the hub's own session for the auditor serves each its version.
    assert_eq!(
        hub.audit_with("adjacent", &auditor, THRESHOLD)
            .expect("audit")
            .first_difference(&fresh[1]),
        None,
        "hub audit of version 1"
    );
}

#[test]
fn running_byte_totals_survive_random_insert_sweep_carry_and_clear_sequences() {
    // A 1-byte budget: every request trims the other tenants' reader
    // entries (clears), so only the tenant last served holds any. Random
    // applies (new stamps: inserts; old ones age out: sweeps), audit_with
    // and audit_against at two thresholds (memo claims, fills and drops;
    // carried Adv(b′) entries) churn "r0" between trims. In a debug build
    // every report also checks each session's running total against a
    // walk of its entries.
    let hub = SessionHub::with_budget(1);
    let publisher = Publisher::new().k_anonymity(K);
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xb17e5);
    let names = ["r0", "r1", "r2"];
    let tables: Vec<Table> = (12..15).map(tenant_table).collect();
    let auditors: Vec<Auditor> = tables.iter().map(tenant_auditor).collect();
    for (name, table) in names.iter().zip(&tables) {
        hub.register(name, table, &publisher).expect("satisfiable");
    }
    let thresholds = [THRESHOLD, THRESHOLD / 2.0];
    let audit = |tenant: usize, against: bool, t: f64, context: &str| {
        let name = names[tenant];
        let snapshot = hub.snapshot(name).expect("registered");
        let (report, fresh) = if against {
            let report = hub.audit_against(name, B_PRIME, t).expect("audit");
            (report, fresh_adversary_report(&snapshot, t))
        } else {
            let report = hub.audit_with(name, &auditors[tenant], t).expect("audit");
            (report, fresh_report(&auditors[tenant], &snapshot, t))
        };
        assert_eq!(report.first_difference(&fresh), None, "{context}");
    };
    for step in 0..60 {
        let tenant = if rng.gen_bool(0.8) {
            0
        } else {
            rng.gen_range(1usize..3)
        };
        let t = thresholds[usize::from(rng.gen_bool(0.3))];
        if rng.gen_bool(0.2) {
            let table = hub
                .snapshot(names[tenant])
                .expect("registered")
                .table()
                .clone();
            hub.apply(names[tenant], &random_delta(&table, &mut rng))
                .expect("valid delta");
        } else {
            audit(tenant, rng.gen_bool(0.3), t, &format!("step {step}"));
        }
    }
    // A fixed script on r0: alternating thresholds run a full report each
    // time, so every entry older than the grace windows is swept; then one
    // threshold twice keeps a report per configuration. Run once on r0's
    // churned entries and once on entries a trim has just cleared, the
    // script must end on the same bytes — which a running total that
    // drifted anywhere in the churn would not.
    let script = |context: &str| {
        for round in 0..12 {
            for against in [false, true] {
                audit(0, against, thresholds[round % 2], context);
            }
        }
        for _ in 0..2 {
            for against in [false, true] {
                audit(0, against, THRESHOLD, context);
            }
        }
        hub.memory_stats().resident_bytes
    };
    let churned = script("script on churned entries");
    audit(1, false, THRESHOLD, "trim r0");
    audit(2, false, THRESHOLD, "trim r1");
    let cleared = script("script on cleared entries");
    assert_eq!(churned, cleared);
}

/// One apply of a random schedule and what follows it before the next.
#[derive(Debug, Clone)]
struct ScheduledApply {
    /// Seed of the churn delta.
    seed: u64,
    /// Follow with an empty delta, which republishes the version.
    empty: bool,
    /// Follow with a delta deleting past the end, which is rejected.
    rejected: bool,
    /// The audits that follow, each at the first (`false`) or second of two
    /// thresholds. None skips the audit of this version, so the next audit
    /// spans a gap.
    reads: Vec<bool>,
}

fn scheduled_apply() -> impl Strategy<Value = ScheduledApply> {
    (0..u64::MAX, 0u8..4, prop::collection::vec(0u8..2, 0..4)).prop_map(|(seed, follow, reads)| {
        ScheduledApply {
            seed,
            empty: follow & 1 != 0,
            rejected: follow & 2 != 0,
            reads: reads.into_iter().map(|read| read == 1).collect(),
        }
    })
}

/// Audit the current version through `hub`'s tenant "stepped" and through
/// `session`, which has seen the same deltas, and require a fresh
/// `Adv(B_PRIME)`'s bits from both.
fn audit_both(hub: &SessionHub, session: &mut PublishSession, second: bool, context: &str) {
    let t = if second { THRESHOLD / 2.0 } else { THRESHOLD };
    let snapshot = hub.snapshot("stepped").expect("registered");
    let served = hub.audit_against("stepped", B_PRIME, t).expect("audit");
    let fresh = reference_report(snapshot.table(), snapshot.anonymized(), B_PRIME, t);
    assert_eq!(served.first_difference(&fresh), None, "hub, {context}");
    let own = session.audit_against(B_PRIME, t).expect("audit");
    let fresh = reference_report(session.table(), session.anonymized(), B_PRIME, t);
    assert_eq!(own.first_difference(&fresh), None, "session, {context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Audits that step the previous version's risks across one delta, and
    /// the cold re-solves around them, are a fresh adversary's audits. A
    /// hub tenant and a publishing session run one random schedule of 1–8
    /// applies, each possibly followed by an empty and a rejected delta and
    /// by 0–3 audits at two thresholds (no audit leaves a gap before the
    /// next one); after one apply, a request on a second tenant under the
    /// 1-byte budget demotes the first tenant's reader entries, and the
    /// session drops its audit caches.
    #[test]
    fn stepped_audits_match_a_fresh_adversary_over_random_schedules(
        tenant in 20usize..84,
        first_reads in prop::collection::vec(0u8..2, 0..3),
        applies in prop::collection::vec(scheduled_apply(), 1..9),
        evict_after in 0usize..8,
    ) {
        let table = tenant_table(tenant);
        let publisher = Publisher::new().k_anonymity(K);
        let hub = SessionHub::with_budget(1);
        hub.register("stepped", &table, &publisher).expect("satisfiable");
        hub.register("bystander", &tenant_table(tenant + 100), &publisher)
            .expect("satisfiable");
        let mut session = publisher.open(&table).expect("satisfiable");
        for (i, &read) in first_reads.iter().enumerate() {
            audit_both(&hub, &mut session, read == 1, &format!("version 0, read {i}"));
        }
        for (step, apply) in applies.iter().enumerate() {
            let current = hub.snapshot("stepped").expect("registered");
            let mut rng = SmallRng::seed_from_u64(apply.seed);
            let delta = random_delta(current.table(), &mut rng);
            let published = hub.apply("stepped", &delta).expect("valid delta");
            session.apply(&delta).expect("valid delta");
            prop_assert_eq!(published.version(), session.deltas_applied() as u64);
            if apply.empty {
                let empty = DeltaBuilder::new(Arc::clone(table.schema())).build();
                let again = hub.apply("stepped", &empty).expect("empty delta");
                session.apply(&empty).expect("empty delta");
                prop_assert_eq!(again.version(), published.version());
            }
            if apply.rejected {
                let mut bad = DeltaBuilder::new(Arc::clone(table.schema()));
                bad.delete(published.len() + 3);
                let bad = bad.build();
                prop_assert!(hub.apply("stepped", &bad).is_err());
                prop_assert!(session.apply(&bad).is_err());
            }
            if step == evict_after % applies.len() {
                let evictions = hub.memory_stats().evictions;
                hub.audit_against("bystander", B_PRIME, THRESHOLD).expect("audit");
                prop_assert!(hub.memory_stats().evictions > evictions);
                session.evict_audit_caches();
            }
            for (i, &second) in apply.reads.iter().enumerate() {
                let context = format!("version {}, read {i}", published.version());
                audit_both(&hub, &mut session, second, &context);
            }
        }
    }
}
