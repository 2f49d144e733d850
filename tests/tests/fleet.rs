//! Fleet-mode invariants: a budgeted hub that aggressively demotes cold
//! tenants to their durable form must be **observationally identical** to
//! a hub that never evicts — same snapshots, same publications, same
//! audit bits — over arbitrary interleavings of deltas and audits.
//! Eviction is a memory policy, never a semantics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::prelude::*;
use bgkanon::{DurabilityOptions, SyncPolicy};
use bgkanon_tests::reference_report;

/// The hub under test: the default, algorithm-dispatching strategy.
type SessionHub = bgkanon::SessionHub;

/// A unique scratch directory per call — tests must not share state.
fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgkanon_fleet_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A pseudo-random delta over `table`.
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

/// An evicting hub and its never-evicting reference, driven in lockstep.
fn lockstep_options(budget: Option<usize>, checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Never,
        checkpoint_every,
        verify_on_open: false,
        max_resident_bytes: budget,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: a 1-byte budget (every operation demotes
    /// every other tenant) changes nothing observable across arbitrary
    /// interleaved delta/audit/snapshot sequences.
    #[test]
    fn evicting_hub_is_bit_identical_to_unbounded_hub(
        rows in 60usize..150,
        seed in 0u64..400,
        steps in 2usize..6,
        checkpointed in 0usize..2,
    ) {
        let every = if checkpointed == 1 { 2 } else { 0 };
        let dir_evicting = tmp_dir("lockstep_evicting");
        let dir_reference = tmp_dir("lockstep_reference");
        let (evicting, _) =
            SessionHub::open_with(&dir_evicting, lockstep_options(Some(1), every)).unwrap();
        let (reference, _) =
            SessionHub::open_with(&dir_reference, lockstep_options(None, every)).unwrap();
        let publisher = Publisher::new().k_anonymity(4);
        for i in 0..2u64 {
            let table = adult::generate(rows, seed ^ (i + 1));
            let name = format!("t{i}");
            evicting.register(&name, &table, &publisher).unwrap();
            reference.register(&name, &table, &publisher).unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xf1ee_7000);
        for step in 0..steps {
            let name = format!("t{}", rng.gen_range(0..2usize));
            match rng.gen_range(0..3usize) {
                0 => {
                    let table = evicting.snapshot(&name).unwrap().table().clone();
                    let d = random_delta(&table, &mut rng, 0.03, 2 + step);
                    let a = evicting.apply(&name, &d).unwrap();
                    let b = reference.apply(&name, &d).unwrap();
                    prop_assert_eq!(a.version(), b.version());
                    assert_eq!(
                        a.anonymized().first_difference(b.anonymized()),
                        None,
                        "apply {name} step {step} seed {seed}"
                    );
                }
                1 => {
                    let b_prime = [0.2, 0.3, 0.5][rng.gen_range(0..3usize)];
                    let a = evicting.audit_against(&name, b_prime, 0.2).unwrap();
                    let b = reference.audit_against(&name, b_prime, 0.2).unwrap();
                    assert_eq!(
                        a.first_difference(&b),
                        None,
                        "audit {name} b'={b_prime} step {step} seed {seed}"
                    );
                }
                _ => {
                    let a = evicting.snapshot(&name).unwrap();
                    let b = reference.snapshot(&name).unwrap();
                    prop_assert_eq!(a.version(), b.version());
                    // Stamps are per-hub cache identity, not output — only
                    // their arity is part of the snapshot contract.
                    prop_assert_eq!(a.leaf_stamps().len(), b.leaf_stamps().len());
                    assert_eq!(
                        a.anonymized().first_difference(b.anonymized()),
                        None,
                        "snapshot {name} step {step} seed {seed}"
                    );
                }
            }
        }
        // Touch every tenant once more — whichever was demoted last must
        // come back transparently.
        for i in 0..2 {
            let name = format!("t{i}");
            let a = evicting.snapshot(&name).unwrap();
            let b = reference.snapshot(&name).unwrap();
            assert_eq!(a.anonymized().first_difference(b.anonymized()), None, "{name}");
        }
        // The budget actually bit: the evicting hub demoted and came back.
        let stats = evicting.memory_stats();
        prop_assert!(stats.evictions > 0, "budget never triggered: {stats:?}");
        prop_assert!(stats.rehydrations > 0, "nothing was rehydrated: {stats:?}");
        prop_assert_eq!(reference.memory_stats().evictions, 0);
        // And the durable form survives a cold reopen bit-identically.
        drop(evicting);
        let (cold, report) = SessionHub::open(&dir_evicting).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.tenants);
        for i in 0..2 {
            let name = format!("t{i}");
            let a = cold.snapshot(&name).unwrap();
            let b = reference.snapshot(&name).unwrap();
            prop_assert_eq!(a.version(), b.version());
            assert_eq!(a.anonymized().first_difference(b.anonymized()), None, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir_evicting);
        let _ = std::fs::remove_dir_all(&dir_reference);
    }
}

/// Demoting a tenant whose WAL tail was never checkpointed
/// (`checkpoint_every: 0` disables flush-on-demote) must rehydrate by
/// replaying the genesis table plus the full tail — bit-identically.
#[test]
fn eviction_with_unflushed_wal_tail_roundtrips_through_recovery() {
    let dir = tmp_dir("unflushed_tail");
    let (hub, _) = SessionHub::open_with(&dir, lockstep_options(Some(1), 0)).unwrap();
    let publisher = Publisher::new().k_anonymity(4);
    hub.register("cold", &adult::generate(120, 5), &publisher)
        .unwrap();
    hub.register("hot", &adult::generate(120, 6), &publisher)
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(17);
    // Grow `cold`'s WAL tail; no checkpoint is ever written.
    let mut expected_version = 0;
    for step in 0..3 {
        let table = hub.snapshot("cold").unwrap().table().clone();
        let d = random_delta(&table, &mut rng, 0.02, 2 + step);
        expected_version = hub.apply("cold", &d).unwrap().version();
    }
    // Touching `hot` demotes `cold` (1-byte budget, LRU picks the
    // other tenant). The demotion closes cold's WAL descriptor with its
    // entire delta history still un-checkpointed.
    hub.apply(
        "hot",
        &random_delta(
            &hub.snapshot("hot").unwrap().table().clone(),
            &mut rng,
            0.02,
            2,
        ),
    )
    .unwrap();
    let stats = hub.memory_stats();
    assert!(stats.evictions > 0, "demotion never happened: {stats:?}");
    assert_eq!(stats.evicted_tenants, 1, "{stats:?}");
    // Rehydration replays genesis + full tail and serves the same bits a
    // from-scratch publish of the same table produces.
    let snap = hub.snapshot("cold").unwrap();
    assert_eq!(snap.version(), expected_version);
    publisher
        .verify(snap.table(), snap.anonymized())
        .unwrap_or_else(|e| panic!("rehydrated cold: {e}"));
    assert!(hub.memory_stats().rehydrations > 0);
    // Audits on the rehydrated session keep working.
    let audit = hub.audit_against("cold", 0.3, 0.2).unwrap();
    assert!(audit.worst_case >= audit.mean);
    // The same tail also survives a cold process restart.
    drop(hub);
    let (cold, report) = SessionHub::open(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.tenants);
    let reopened = cold.snapshot("cold").unwrap();
    assert_eq!(reopened.version(), expected_version);
    assert_eq!(
        reopened.anonymized().first_difference(snap.anonymized()),
        None,
        "cold reopen"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `with_budget` on an in-memory hub: caches shed, semantics unchanged,
/// tenants never leave residency (there is no durable form to demote to).
#[test]
fn in_memory_budget_never_loses_tenants() {
    let hub = SessionHub::with_budget(1);
    let publisher = Publisher::new().k_anonymity(4);
    let unbounded = SessionHub::new();
    for i in 0..3u64 {
        let t = adult::generate(100, i + 30);
        hub.register(&format!("t{i}"), &t, &publisher).unwrap();
        unbounded
            .register(&format!("t{i}"), &t, &publisher)
            .unwrap();
    }
    let mut rng = SmallRng::seed_from_u64(23);
    for step in 0..4 {
        let name = format!("t{}", step % 3);
        let d = random_delta(
            &hub.snapshot(&name).unwrap().table().clone(),
            &mut rng,
            0.02,
            2,
        );
        let a = hub.apply(&name, &d).unwrap();
        let b = unbounded.apply(&name, &d).unwrap();
        assert_eq!(
            a.anonymized().first_difference(b.anonymized()),
            None,
            "{name}"
        );
        let ra = hub.audit_against(&name, 0.3, 0.2).unwrap();
        let rb = unbounded.audit_against(&name, 0.3, 0.2).unwrap();
        assert_eq!(ra.first_difference(&rb), None, "{name}");
    }
    let stats = hub.memory_stats();
    assert!(stats.evictions > 0);
    assert_eq!(stats.evicted_tenants, 0);
    assert_eq!(stats.resident_tenants, 3);
    assert_eq!(stats.rehydrations, 0);
}

/// A fresh `Adv(b′)` audit of `snapshot`'s version: its publication must
/// equal a from-scratch publish, and it is audited against a newly
/// estimated adversary by `Auditor::report_reference`.
fn fresh_adversary_report(
    publisher: &Publisher,
    snapshot: &TenantSnapshot,
    b_prime: f64,
    t: f64,
) -> AuditReport {
    let table = snapshot.table();
    publisher.verify(table, snapshot.anonymized()).unwrap();
    reference_report(table, snapshot.anonymized(), b_prime, t)
}

/// Demotion drops a tenant's carried `Adv(b′)` entry with the rest of its
/// caches: the audit after rehydration estimates afresh and still matches
/// a fresh auditor bit for bit, before and after further deltas.
#[test]
fn evicted_tenant_audits_fresh_after_rehydration() {
    let dir = tmp_dir("evict_rehydrate_audit");
    let (hub, _) = SessionHub::open_with(&dir, lockstep_options(Some(1), 2)).unwrap();
    let publisher = Publisher::new().k_anonymity(4);
    for i in 0..2u64 {
        hub.register(&format!("t{i}"), &adult::generate(140, i + 70), &publisher)
            .unwrap();
    }
    let mut rng = SmallRng::seed_from_u64(71);
    for step in 0..3 {
        // Auditing t1 demotes t0 under the 1-byte budget; the next touch
        // of t0 rehydrates it.
        hub.audit_against("t0", 0.3, 0.2).unwrap();
        hub.audit_against("t1", 0.3, 0.2).unwrap();
        let table = hub.snapshot("t0").unwrap().table().clone();
        hub.apply("t0", &random_delta(&table, &mut rng, 0.03, 3))
            .unwrap();
        hub.audit_against("t1", 0.3, 0.2).unwrap();
        let report = hub.audit_against("t0", 0.3, 0.2).unwrap();
        let snapshot = hub.snapshot("t0").unwrap();
        assert_eq!(
            report.first_difference(&fresh_adversary_report(&publisher, &snapshot, 0.3, 0.2)),
            None,
            "t0 after rehydration, step {step}"
        );
    }
    let stats = hub.memory_stats();
    assert!(stats.evictions > 0);
    assert!(stats.rehydrations > 0);
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rehydrated snapshot carries no change record and its tenant no
/// `Adv(b′)` entry: the first audit after rehydration folds and estimates
/// in full, and single-step audits after it carry the fold again — every
/// one bit-identical to a fresh auditor.
#[test]
fn rehydrated_tenant_folds_in_full_then_carries_its_fold() {
    let dir = tmp_dir("rehydrate_then_carry");
    let (hub, _) = SessionHub::open_with(&dir, lockstep_options(Some(1), 3)).unwrap();
    let publisher = Publisher::new().k_anonymity(4);
    hub.register("t0", &adult::generate(160, 91), &publisher)
        .unwrap();
    hub.register("t1", &adult::generate(160, 92), &publisher)
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(93);
    let check = |context: &str| {
        let report = hub.audit_against("t0", 0.3, 0.2).unwrap();
        let snapshot = hub.snapshot("t0").unwrap();
        assert_eq!(
            report.first_difference(&fresh_adversary_report(&publisher, &snapshot, 0.3, 0.2)),
            None,
            "{context}"
        );
    };
    for round in 0..3 {
        // Touching t1 demotes t0 under the 1-byte budget.
        hub.audit_against("t1", 0.3, 0.2).unwrap();
        check(&format!("first audit after rehydration, round {round}"));
        for step in 0..2 {
            let table = hub.snapshot("t0").unwrap().table().clone();
            hub.apply("t0", &random_delta(&table, &mut rng, 0.03, 2))
                .unwrap();
            check(&format!("carried step {step}, round {round}"));
        }
    }
    let stats = hub.memory_stats();
    assert!(stats.rehydrations >= 3);
    drop(hub);
    let _ = std::fs::remove_dir_all(&dir);
}
