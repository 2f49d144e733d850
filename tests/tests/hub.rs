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

use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;

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
    // session and record the reference risks at every version.
    let mut reference_risks: Vec<HashMap<u64, Vec<f64>>> = Vec::with_capacity(TENANTS);
    for (i, base) in tables.iter().enumerate() {
        let mut by_version: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut session = publisher.open(base).expect("satisfiable");
        let reference = |session: &PublishSession| {
            auditors[i].report(
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
        let fresh = publisher.publish(session.table()).expect("satisfiable");
        assert_eq!(
            snap.anonymized().group_count(),
            fresh.anonymized.group_count(),
            "tenant {i}"
        );
        for (a, b) in snap
            .anonymized()
            .groups()
            .iter()
            .zip(fresh.anonymized.groups())
        {
            assert_eq!(a.rows, b.rows, "tenant {i}");
            assert_eq!(a.ranges, b.ranges, "tenant {i}");
            assert_eq!(a.sensitive_counts, b.sensitive_counts, "tenant {i}");
        }
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
    for (a, b) in of_pinned.risks.iter().zip(&of_original.risks) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// A fresh `Adv(B_PRIME)` audit of `snapshot`'s version: a newly
/// estimated adversary and an uncached [`Auditor`] — the reference every
/// carried-forward hub audit must match bit for bit.
fn fresh_adversary_report(snapshot: &TenantSnapshot) -> AuditReport {
    tenant_auditor(snapshot.table()).report(
        snapshot.table(),
        &snapshot.anonymized().row_groups(),
        THRESHOLD,
    )
}

fn assert_same_risks(a: &AuditReport, b: &AuditReport, context: &str) {
    assert_eq!(a.worst_case.to_bits(), b.worst_case.to_bits(), "{context}");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{context}");
    assert_eq!(a.vulnerable, b.vulnerable, "{context}");
    assert_eq!(a.risks.len(), b.risks.len(), "{context}");
    for (x, y) in a.risks.iter().zip(&b.risks) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}");
    }
}

#[test]
fn adversary_refresh_spans_several_unaudited_applies() {
    // The model carried from version 0 is refreshed straight to version 4:
    // the fold difference spans all four deltas, no delta log involved.
    let hub = SessionHub::new();
    hub.register("gap", &tenant_table(1), &Publisher::new().k_anonymity(K))
        .expect("satisfiable");
    let first = hub.audit_against("gap", B_PRIME, THRESHOLD).expect("audit");
    assert_same_risks(
        &first,
        &fresh_adversary_report(&hub.snapshot("gap").expect("registered")),
        "version 0",
    );
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x6a9);
    for _ in 0..4 {
        let current = hub.snapshot("gap").expect("registered").table().clone();
        hub.apply("gap", &random_delta(&current, &mut rng))
            .expect("valid delta");
    }
    let carried = hub.audit_against("gap", B_PRIME, THRESHOLD).expect("audit");
    let snapshot = hub.snapshot("gap").expect("registered");
    assert_eq!(snapshot.version(), 4);
    assert_same_risks(&carried, &fresh_adversary_report(&snapshot), "version 4");
    // One entry per b′ is kept and replayed until the next apply.
    let replay = hub.audit_against("gap", B_PRIME, THRESHOLD).expect("audit");
    assert_same_risks(&replay, &carried, "replay of version 4");
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
    let left = hub
        .audit_against("left", B_PRIME, THRESHOLD)
        .expect("audit");
    assert_same_risks(
        &left,
        &fresh_adversary_report(&hub.snapshot("left").expect("registered")),
        "left after its delta",
    );
    let right = hub
        .audit_against("right", B_PRIME, THRESHOLD)
        .expect("audit");
    assert_same_risks(&right, &before, "right after left's delta");
    assert_same_risks(
        &right,
        &fresh_adversary_report(&hub.snapshot("right").expect("registered")),
        "right against a fresh auditor",
    );
    assert_eq!(hub.memory_stats().interned_models, 2);
}

/// Audit `tenant` at `B_PRIME` and require a fresh auditor's bits.
fn audit_matches_fresh(hub: &SessionHub, tenant: &str, context: &str) -> AuditReport {
    let report = hub
        .audit_against(tenant, B_PRIME, THRESHOLD)
        .expect("audit");
    let snapshot = hub.snapshot(tenant).expect("registered");
    assert_same_risks(&report, &fresh_adversary_report(&snapshot), context);
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
    assert_same_risks(&moved, &landed, "equal content, equal risks");
    let after = hub.memory_stats();
    assert_eq!(after.intern_hits, stats.intern_hits + 1);
    assert_eq!(after.interned_models, 1);
}
