//! Crash-injection and recovery properties of the durable [`SessionHub`]:
//! for any acked delta prefix — including prefixes produced by killing the
//! log at arbitrary byte offsets — a reopened hub must either serve state
//! bit-identical to a from-scratch replay of that prefix, or cleanly
//! report the tenant unrecoverable. It must never serve wrong data.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::prelude::*;
use bgkanon::wal;

/// The hub under test: the default, algorithm-dispatching strategy.
type SessionHub = bgkanon::SessionHub;
use bgkanon::{DurabilityOptions, SyncPolicy};

/// A unique scratch directory per call — tests must not share state.
fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgkanon_recovery_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copy a durable hub directory (root → tenant dirs → files) so a crash
/// can be injected into the copy without disturbing the original.
fn copy_hub_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for tenant in std::fs::read_dir(src).unwrap() {
        let tenant = tenant.unwrap();
        let out = dst.join(tenant.file_name());
        std::fs::create_dir_all(&out).unwrap();
        for file in std::fs::read_dir(tenant.path()).unwrap() {
            let file = file.unwrap();
            std::fs::copy(file.path(), out.join(file.file_name())).unwrap();
        }
    }
}

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

#[test]
fn reopened_hub_serves_bit_identical_state() {
    let dir = tmp_dir("roundtrip");
    let publisher = Publisher::new().k_anonymity(4);
    let (hub, report) = SessionHub::open(&dir).unwrap();
    assert!(report.tenants.is_empty());
    let mut rng = SmallRng::seed_from_u64(7);
    for i in 0..2u64 {
        let table = adult::generate(160, 11 + i);
        hub.register(&format!("t{i}"), &table, &publisher).unwrap();
    }
    for step in 0..5 {
        for i in 0..2 {
            let name = format!("t{i}");
            let snap = hub.snapshot(&name).unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.03, 3 + step);
            hub.apply(&name, &d).unwrap();
        }
    }
    let (cold, report) = SessionHub::open(&dir).unwrap();
    assert!(report.is_clean(), "{:?}", report.tenants);
    for i in 0..2 {
        let name = format!("t{i}");
        let live = hub.snapshot(&name).unwrap();
        let recovered = cold.snapshot(&name).unwrap();
        assert_eq!(live.version(), recovered.version());
        assert_eq!(
            live.anonymized().first_difference(recovered.anonymized()),
            None,
            "{name}"
        );
        // And identical to a from-scratch publish of the recovered table.
        publisher
            .verify(recovered.table(), recovered.anonymized())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash harness: write one tenant's WAL, then kill the log at every
/// record boundary, at offsets inside records, and with flipped bits —
/// each injected crash gets a fresh copy of the durable directory, and
/// the reopened hub is held to the acked-prefix contract.
#[test]
fn crash_injection_recovers_every_acked_prefix() {
    let deltas_total = 5usize;
    let rows = 140usize;
    let dir = tmp_dir("crash");
    let publisher = Publisher::new().k_anonymity(3);
    // checkpoint_every: 0 keeps every delta in one WAL so the kill points
    // sweep the full history (checkpoint crashes are covered separately).
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 0,
        verify_on_open: false,
        max_resident_bytes: None,
    };
    let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
    let base = adult::generate(rows, 3);
    hub.register("alpha", &base, &publisher).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xC4A5);
    let mut applied: Vec<Delta> = Vec::new();
    while applied.len() < deltas_total {
        let snap = hub.snapshot("alpha").unwrap();
        let d = random_delta(snap.table(), &mut rng, 0.04, 4);
        if hub.apply("alpha", &d).is_ok() {
            applied.push(d);
        }
    }
    drop(hub);

    // Frame boundaries of the surviving log, via the public scanner:
    // boundary[k] = byte length of a log holding exactly k records.
    let wal_path = dir.join("alpha").join("wal.log");
    let scanned = wal::scan(&wal_path).unwrap();
    assert!(!scanned.truncated);
    assert_eq!(scanned.records.len(), deltas_total);
    let mut boundaries: Vec<u64> = vec![16]; // header-only log
    for (offset, payload) in &scanned.records {
        boundaries.push(offset + payload.len() as u64 + 8);
    }

    // Reference states: from-scratch replay of every acked prefix.
    let prefix_state = |k: usize| -> PublishSession {
        let mut session = publisher.open(&base).unwrap();
        for d in &applied[..k] {
            session.apply(d).unwrap();
        }
        session
    };

    // (a) Kill at every record boundary: a clean prefix, no torn tail.
    for (k, &cut) in boundaries.iter().enumerate() {
        let copy = tmp_dir(&format!("cut{k}"));
        copy_hub_dir(&dir, &copy);
        wal::truncate_to(&copy.join("alpha").join("wal.log"), cut).unwrap();
        let (cold, report) = SessionHub::open_with(&copy, options).unwrap();
        assert!(report.is_clean(), "boundary {k}: {:?}", report.tenants);
        assert!(!report.tenants[0].truncated_tail, "boundary {k}");
        let snap = cold.snapshot("alpha").unwrap();
        assert_eq!(snap.version(), k as u64, "boundary {k}");
        let reference = prefix_state(k);
        assert_eq!(
            snap.anonymized().first_difference(reference.anonymized()),
            None,
            "boundary {k}"
        );
        let _ = std::fs::remove_dir_all(&copy);
    }

    // (b) Kill inside every record: the torn tail is discarded and the
    // longest complete prefix is served.
    for k in 0..deltas_total {
        let (start, end) = (boundaries[k], boundaries[k + 1]);
        for cut in [start + 1, (start + end) / 2, end - 1] {
            let copy = tmp_dir(&format!("torn{k}"));
            copy_hub_dir(&dir, &copy);
            wal::truncate_to(&copy.join("alpha").join("wal.log"), cut).unwrap();
            let (cold, report) = SessionHub::open_with(&copy, options).unwrap();
            assert!(report.is_clean(), "torn {k}@{cut}: {:?}", report.tenants);
            assert!(report.tenants[0].truncated_tail, "torn {k}@{cut}");
            let snap = cold.snapshot("alpha").unwrap();
            assert_eq!(snap.version(), k as u64, "torn {k}@{cut}");
            assert_eq!(
                snap.anonymized()
                    .first_difference(prefix_state(k).anonymized()),
                None,
                "torn {k}@{cut}"
            );
            let _ = std::fs::remove_dir_all(&copy);
        }
    }

    // (c) A bit flip in the final record is indistinguishable from a torn
    // tail: the record is discarded, the prefix before it is served.
    {
        let copy = tmp_dir("flip_tail");
        copy_hub_dir(&dir, &copy);
        let path = copy.join("alpha").join("wal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let target = (boundaries[deltas_total - 1] + 6) as usize;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (cold, report) = SessionHub::open_with(&copy, options).unwrap();
        assert!(report.is_clean(), "{:?}", report.tenants);
        assert!(report.tenants[0].truncated_tail);
        let snap = cold.snapshot("alpha").unwrap();
        assert_eq!(snap.version(), (deltas_total - 1) as u64);
        assert_eq!(
            snap.anonymized()
                .first_difference(prefix_state(deltas_total - 1).anonymized()),
            None,
            "flipped tail"
        );
        let _ = std::fs::remove_dir_all(&copy);
    }

    // (d) A bit flip in the *middle* of the log is silent corruption, not
    // a crash artifact: the tenant must be reported unrecoverable and
    // never served — not rolled back to the damaged record's prefix.
    {
        let copy = tmp_dir("flip_mid");
        copy_hub_dir(&dir, &copy);
        let path = copy.join("alpha").join("wal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let target = (boundaries[1] + 6) as usize; // inside record 2 of 5
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (cold, report) = SessionHub::open_with(&copy, options).unwrap();
        assert_eq!(report.unrecoverable().len(), 1);
        assert!(report.tenants[0].error.is_some());
        assert!(!cold.contains("alpha"));
        assert!(cold.snapshot("alpha").is_err());
        let _ = std::fs::remove_dir_all(&copy);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_never_served() {
    let dir = tmp_dir("ckpt");
    let publisher = Publisher::new().k_anonymity(3);
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 2,
        verify_on_open: false,
        max_resident_bytes: None,
    };
    let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
    let mut rng = SmallRng::seed_from_u64(51);
    for name in ["good", "bad"] {
        hub.register(name, &adult::generate(130, 9), &publisher)
            .unwrap();
        for _ in 0..3 {
            let snap = hub.snapshot(name).unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.04, 3);
            hub.apply(name, &d).unwrap();
        }
    }
    let good = hub.snapshot("good").unwrap();
    drop(hub);

    let ckpt = dir.join("bad").join("checkpoint.tbl");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    assert!(
        !bytes.is_empty(),
        "checkpoint_every=2 must have checkpointed"
    );
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&ckpt, &bytes).unwrap();

    let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
    assert_eq!(report.recovered(), 1);
    assert_eq!(report.unrecoverable().len(), 1);
    assert!(!cold.contains("bad"), "corrupt tenant must not be served");
    assert!(cold.snapshot("bad").is_err());
    // The healthy tenant is unaffected by its neighbor's corruption.
    let snap = cold.snapshot("good").unwrap();
    assert_eq!(snap.version(), good.version());
    assert_eq!(
        snap.anonymized().first_difference(good.anonymized()),
        None,
        "good"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose tree records are well linked and whose leaves
/// partition the table, but whose second internal node claims 1 row, is
/// reported unrecoverable at open (the delta refresh sizes its work by
/// that field), and its neighbour recovers as written.
#[test]
fn checkpoint_with_a_lying_tree_size_is_unrecoverable() {
    let dir = tmp_dir("tree_size");
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 2,
        verify_on_open: false,
        max_resident_bytes: None,
    };
    let publisher = Publisher::new().k_anonymity(4);
    let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x51_2e);
    for name in ["good", "bad"] {
        hub.register(name, &adult::generate(400, 8), &publisher)
            .unwrap();
        for _ in 0..2 {
            let snap = hub.snapshot(name).unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.02, 4);
            hub.apply(name, &d).unwrap();
        }
    }
    let good = hub.snapshot("good").unwrap();
    drop(hub);

    let ckpt = dir.join("bad").join("checkpoint.tbl");
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let body = &text[..text.rfind("checksum ").unwrap()];
    let mut internal = 0;
    let mut out = String::new();
    for line in body.lines() {
        let mut toks: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("tnode internal ") {
            internal += 1;
            if internal == 2 {
                assert_ne!(toks[4], "1");
                toks[4] = "1";
            }
        }
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    assert!(internal >= 2, "the tree has two internal nodes");
    let sum = wal::fnv1a64(out.as_bytes());
    out.push_str(&format!("checksum {sum:016x}\n"));
    std::fs::write(&ckpt, out).unwrap();

    let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
    let failed = report.unrecoverable();
    assert_eq!(failed.len(), 1, "{:?}", report.tenants);
    assert_eq!(failed[0].tenant, "bad");
    let reason = failed[0].error.as_deref().unwrap();
    assert!(
        reason.starts_with("checkpoint: ") && reason.contains("claims 1 rows"),
        "{reason}"
    );
    assert!(!cold.contains("bad"));
    let snap = cold.snapshot("good").unwrap();
    assert_eq!(snap.version(), good.version());
    assert_eq!(snap.anonymized().first_difference(good.anonymized()), None);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any delta sequence and any checkpoint cadence, a cold
    /// `SessionHub::open` must reproduce the writing hub's publication
    /// and audit bit-for-bit (with `verify_on_open` exercising the
    /// recovery-time self-check as well).
    #[test]
    fn recovered_hub_equals_the_writing_hub(
        rows in 80usize..200,
        seed in 0u64..300,
        steps in 1usize..5,
        every in 0u64..4,
    ) {
        let dir = tmp_dir("prop");
        let options = DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: every,
            verify_on_open: true,
            max_resident_bytes: None,
        };
        let publisher = Publisher::new().k_anonymity(3);
        let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
        let base = adult::generate(rows, seed);
        hub.register("tenant", &base, &publisher).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e55_1011);
        for _ in 0..steps {
            let snap = hub.snapshot("tenant").unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.04, 3);
            // A delta may make the table unsatisfiable; the hub refuses it
            // and the durable state must stay consistent either way.
            let _ = hub.apply("tenant", &d);
        }
        let live = hub.snapshot("tenant").unwrap();
        let live_audit = hub.audit_against("tenant", 0.3, 0.2).unwrap();
        drop(hub);

        let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.tenants);
        let recovered = cold.snapshot("tenant").unwrap();
        prop_assert_eq!(live.version(), recovered.version());
        prop_assert_eq!(live.len(), recovered.len());
        let context = format!("rows={rows} seed={seed} steps={steps} every={every}");
        prop_assert_eq!(
            live.anonymized().first_difference(recovered.anonymized()),
            None,
            "{}",
            context
        );
        let cold_audit = cold.audit_against("tenant", 0.3, 0.2).unwrap();
        prop_assert_eq!(live_audit.first_difference(&cold_audit), None, "{}", context);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every strategy's checkpoint is tagged with its name and recovers
/// bit-identically through a cold reopen — the strategy-generic half of
/// the durability contract.
#[test]
fn strategy_tagged_checkpoints_recover_every_algorithm() {
    for algorithm in [
        Algorithm::Mondrian,
        Algorithm::Bucketize,
        Algorithm::FullDomain,
    ] {
        let dir = tmp_dir(&format!("tagged_{}", algorithm.name()));
        let options = DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 2,
            verify_on_open: true,
            max_resident_bytes: None,
        };
        let publisher = Publisher::new()
            .k_anonymity(3)
            .distinct_l_diversity(3)
            .algorithm(algorithm);
        let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
        hub.register("tenant", &adult::generate(150, 21), &publisher)
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(0xA1_u64 ^ algorithm.name().len() as u64);
        let mut acked = 0u64;
        while acked < 3 {
            let snap = hub.snapshot("tenant").unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.03, 3);
            if hub.apply("tenant", &d).is_ok() {
                acked += 1;
            }
        }
        let live = hub.snapshot("tenant").unwrap();
        drop(hub);

        let ckpt = std::fs::read_to_string(dir.join("tenant").join("checkpoint.tbl")).unwrap();
        assert!(
            ckpt.contains(&format!("strategy {}", algorithm.name())),
            "{}: checkpoint must carry the strategy tag",
            algorithm.name()
        );

        let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
        assert!(
            report.is_clean(),
            "{}: {:?}",
            algorithm.name(),
            report.tenants
        );
        let recovered = cold.snapshot("tenant").unwrap();
        assert_eq!(live.version(), recovered.version(), "{}", algorithm.name());
        assert_eq!(
            live.anonymized().first_difference(recovered.anonymized()),
            None,
            "{}",
            algorithm.name()
        );
        // And identical to a from-scratch publish of the recovered table.
        publisher
            .verify(recovered.table(), recovered.anonymized())
            .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn WAL tail on a bucketize or full-domain tenant is discarded and
/// the longest complete prefix is served — crash injection is not a
/// Mondrian-only property.
#[test]
fn bucketize_and_fulldomain_tenants_survive_torn_tails() {
    for algorithm in [Algorithm::Bucketize, Algorithm::FullDomain] {
        let dir = tmp_dir(&format!("torn_{}", algorithm.name()));
        let options = DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 2,
            verify_on_open: false,
            max_resident_bytes: None,
        };
        let publisher = Publisher::new()
            .k_anonymity(3)
            .distinct_l_diversity(3)
            .algorithm(algorithm);
        let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
        let base = adult::generate(140, 33);
        hub.register("tenant", &base, &publisher).unwrap();
        let mut rng = SmallRng::seed_from_u64(0xB2);
        let mut applied: Vec<Delta> = Vec::new();
        // Checkpoint lands at version 2; version 3 lives only in the WAL.
        while applied.len() < 3 {
            let snap = hub.snapshot("tenant").unwrap();
            let d = random_delta(snap.table(), &mut rng, 0.03, 3);
            if hub.apply("tenant", &d).is_ok() {
                applied.push(d);
            }
        }
        drop(hub);

        // Tear the final WAL record in half.
        let wal_path = dir.join("tenant").join("wal.log");
        let scanned = wal::scan(&wal_path).unwrap();
        assert_eq!(scanned.records.len(), 1, "{}", algorithm.name());
        let (offset, payload) = &scanned.records[0];
        wal::truncate_to(&wal_path, offset + (payload.len() as u64) / 2).unwrap();

        let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
        assert!(
            report.is_clean(),
            "{}: {:?}",
            algorithm.name(),
            report.tenants
        );
        assert!(report.tenants[0].truncated_tail, "{}", algorithm.name());
        let snap = cold.snapshot("tenant").unwrap();
        assert_eq!(snap.version(), 2, "{}", algorithm.name());
        // Reference: a from-scratch session replaying the surviving prefix.
        let mut reference = publisher.open(&base).unwrap();
        for d in &applied[..2] {
            reference.apply(d).unwrap();
        }
        assert_eq!(
            snap.anonymized().first_difference(reference.anonymized()),
            None,
            "{} torn tail",
            algorithm.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint whose strategy tag disagrees with the genesis publisher is
/// reported unrecoverable through the full tenant-directory path — even
/// when its checksum is intact.
#[test]
fn checkpoint_strategy_tag_mismatch_is_unrecoverable() {
    let dir = tmp_dir("tag_mismatch");
    let options = DurabilityOptions {
        sync: SyncPolicy::Always,
        checkpoint_every: 1,
        verify_on_open: false,
        max_resident_bytes: None,
    };
    let publisher = Publisher::new()
        .distinct_l_diversity(3)
        .algorithm(Algorithm::Bucketize);
    let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
    let base = adult::generate(120, 44);
    hub.register("tenant", &base, &publisher).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xC3);
    loop {
        let d = random_delta(hub.snapshot("tenant").unwrap().table(), &mut rng, 0.03, 3);
        if hub.apply("tenant", &d).is_ok() {
            break;
        }
    }
    drop(hub);

    // Re-tag the checkpoint as mondrian and restore a valid trailer, so
    // the *semantic* tag check (not the checksum) must reject it.
    let ckpt = dir.join("tenant").join("checkpoint.tbl");
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let retagged = text.replace("strategy bucketize", "strategy mondrian");
    assert_ne!(text, retagged, "checkpoint must have carried the tag");
    let body_end = retagged.rfind("checksum ").unwrap();
    let mut out = retagged[..body_end].to_string();
    let sum = bgkanon::wal::fnv1a64(out.as_bytes());
    out.push_str(&format!("checksum {sum:016x}\n"));
    std::fs::write(&ckpt, out).unwrap();

    let (cold, report) = SessionHub::open_with(&dir, options).unwrap();
    assert_eq!(report.unrecoverable().len(), 1);
    let reason = report.tenants[0].error.clone().unwrap();
    assert!(
        reason.contains("tagged") && reason.contains("mondrian"),
        "unexpected reason: {reason}"
    );
    assert!(!cold.contains("tenant"));
    let _ = std::fs::remove_dir_all(&dir);
}
