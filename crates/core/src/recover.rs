//! Checkpoint and genesis persistence plus crash recovery for the durable
//! [`SessionHub`](crate::SessionHub): the file procedure — recovering a
//! tenant directory, atomic writes, directory names and the WAL file
//! lifecycle. The text formats themselves live in `crate::format`.
//!
//! A durable tenant's directory holds three files:
//!
//! * `genesis.tbl` — written once at registration: the tenant's name, its
//!   publisher's declarative specs, the full schema (attributes,
//!   hierarchies, the sensitive distance matrix) and the genesis table.
//!   Privacy requirements capture table-derived reference state when they
//!   are instantiated, so recovery **always** re-instantiates them from the
//!   genesis table — never from a later checkpointed table — to reproduce
//!   the live session's requirement bit-for-bit.
//! * `checkpoint.tbl` — rewritten atomically (tmp + fsync + rename + dir
//!   fsync) every [`checkpoint_every`](crate::wal::DurabilityOptions::checkpoint_every)
//!   applied deltas: the version-`K` table, a `strategy <name>` tag, the
//!   strategy's exported state block (one codec per algorithm, dispatched
//!   on the session's [`AnyStrategy`](bgkanon_anon::AnyStrategy)), and a
//!   `priors 0` line. No adversary model is stored: the first audit at
//!   each `b′` re-estimates `Adv(b′)` from the recovered table,
//!   bit-identically.
//! * `wal.log` — the append-only delta log ([`crate::wal`]).
//!
//! Each text file kind has exactly one format, named by its magic first
//! line: `bgkanon-genesis v2` and `bgkanon-checkpoint v3`. Any other magic
//! line — the per-row v1 formats, the untagged v2 checkpoint — and a
//! checkpoint whose `priors` count is not `0` mark the tenant
//! unrecoverable with a reason that names the format.
//!
//! Both text files end with a `checksum <fnv1a64>` line over everything
//! before it; a checksum mismatch marks the tenant unrecoverable (a
//! checkpoint is rewritten in place via rename, so unlike the WAL there is
//! no "torn tail" to salvage — the file is either whole or wrong).
//!
//! Recovery per tenant: parse genesis → if a checkpoint exists, rebuild the
//! genesis requirement and strategy and parse the checkpoint, importing its
//! state → scan the WAL, truncating a torn tail → resume the session from
//! the checkpoint (or open it fresh on the genesis table) → replay every WAL
//! record above the checkpoint version. Any inconsistency — checksum
//! mismatch, sequence gap, a delta the requirement rejects — reports the
//! tenant unrecoverable rather than serving reconstructed-but-wrong data.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use bgkanon_data::{Parallelism, Table};

use crate::format;
use crate::publisher::Publisher;
use crate::session::PublishSession;
use crate::wal::{self, DurabilityOptions, SyncPolicy, WalError};

/// What [`SessionHub::open`](crate::SessionHub::open) found on disk: one
/// entry per tenant directory, recovered or not.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, in directory order.
    pub tenants: Vec<TenantRecovery>,
}

impl RecoveryReport {
    /// Number of tenants recovered and serving.
    pub fn recovered(&self) -> usize {
        self.tenants.iter().filter(|t| t.error.is_none()).count()
    }

    /// The tenants that could **not** be recovered (and are not serving).
    pub fn unrecoverable(&self) -> Vec<&TenantRecovery> {
        self.tenants.iter().filter(|t| t.error.is_some()).collect()
    }

    /// True when every tenant directory recovered.
    pub fn is_clean(&self) -> bool {
        self.tenants.iter().all(|t| t.error.is_none())
    }
}

/// One tenant's recovery outcome.
#[derive(Debug)]
pub struct TenantRecovery {
    /// Tenant name (from its genesis file; the directory name when the
    /// genesis could not be read).
    pub tenant: String,
    /// Version the tenant recovered to (deltas applied since genesis).
    pub version: u64,
    /// Version of the checkpoint recovery started from, if one was used.
    pub from_checkpoint: Option<u64>,
    /// WAL records replayed on top of the starting state.
    pub replayed: usize,
    /// True when a torn final WAL record was detected and discarded.
    pub truncated_tail: bool,
    /// `Some(reason)` when the tenant could not be recovered. An
    /// unrecoverable tenant is **not** registered in the hub: it serves
    /// nothing rather than something wrong.
    pub error: Option<String>,
}

/// A successfully recovered tenant, ready for the hub to install.
pub(crate) struct RecoveredTenant {
    pub(crate) name: String,
    pub(crate) session: PublishSession,
    pub(crate) version: u64,
    pub(crate) from_checkpoint: Option<u64>,
    pub(crate) replayed: usize,
    pub(crate) truncated_tail: bool,
}

/// Write `content` to `dir/name` atomically: tmp file, fsync, rename over
/// the target, fsync the directory.
fn write_atomic(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()
}

/// Directory name for a tenant: the name itself when filesystem-safe, else
/// `x-<hex>`. Names starting with `x-` are always escaped so the two forms
/// never collide; the authoritative name is always read back from the
/// genesis file, so the mapping only has to be injective, not invertible
/// by sight.
pub(crate) fn dir_name_for(tenant: &str) -> String {
    let safe = !tenant.is_empty()
        && !tenant.starts_with('.')
        && !tenant.starts_with("x-")
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if safe {
        tenant.to_owned()
    } else {
        format!("x-{}", format::hex_str(tenant))
    }
}

/// Atomically write a tenant's genesis file.
pub(crate) fn write_genesis(
    dir: &Path,
    tenant: &str,
    publisher: &Publisher,
    table: &Table,
) -> std::io::Result<()> {
    write_atomic(
        dir,
        "genesis.tbl",
        &format::genesis_text(tenant, publisher, table),
    )
}

/// Atomically write a tenant checkpoint at `version`.
pub(crate) fn write_checkpoint(
    dir: &Path,
    version: u64,
    session: &PublishSession,
) -> std::io::Result<()> {
    write_atomic(
        dir,
        "checkpoint.tbl",
        &format::checkpoint_text(version, session),
    )
}

// ---------------------------------------------------------------------------
// Per-tenant recovery.
// ---------------------------------------------------------------------------

/// Recover one tenant directory. `Err(reason)` means the tenant is
/// unrecoverable: the hub reports it and serves nothing for it.
pub(crate) fn recover_tenant_dir(
    dir: &Path,
    options: &DurabilityOptions,
) -> Result<RecoveredTenant, String> {
    let genesis_text = std::fs::read_to_string(dir.join("genesis.tbl"))
        .map_err(|e| format!("unreadable genesis.tbl: {e}"))?;
    let genesis = format::parse_genesis(&genesis_text)?;
    let schema = Arc::clone(genesis.table.schema());

    // The requirement is instantiated from the GENESIS table, for a
    // checkpoint as for a fresh open: several privacy models capture
    // table-derived reference state at instantiation time, and the live
    // session instantiated them exactly once, at registration.
    let checkpoint_path = dir.join("checkpoint.tbl");
    let checkpoint = if checkpoint_path.exists() {
        let text = std::fs::read_to_string(&checkpoint_path)
            .map_err(|e| format!("unreadable checkpoint.tbl: {e}"))?;
        let requirement = genesis
            .publisher
            .instantiate(&genesis.table)
            .map_err(|e| format!("could not re-instantiate the requirement: {e}"))?;
        let strategy = genesis
            .publisher
            .strategy(&requirement)
            .map_err(|e| format!("could not rebuild the strategy: {e}"))?;
        let ck = format::parse_checkpoint(&text, &schema, &strategy)?;
        Some((ck, requirement, strategy))
    } else {
        None
    };

    let wal_path = dir.join("wal.log");
    let scan = match wal::scan(&wal_path) {
        Ok(scan) => scan,
        Err(WalError::Io(e)) => return Err(format!("unreadable wal.log: {e}")),
        Err(e @ WalError::Corrupt { .. }) => return Err(e.to_string()),
    };
    if scan.truncated {
        // Torn tail: discard the partial final record before anything can
        // replay or append past it.
        wal::truncate_to(&wal_path, scan.good_len)
            .map_err(|e| format!("could not truncate torn wal.log tail: {e}"))?;
    }
    match &checkpoint {
        Some((ck, ..)) if scan.base > ck.version => {
            return Err(format!(
                "wal.log starts at version {} but the checkpoint is older (version {})",
                scan.base, ck.version
            ));
        }
        None if scan.base != 0 => {
            return Err(format!(
                "wal.log starts at version {} with no checkpoint",
                scan.base
            ));
        }
        _ => {}
    }

    let (mut session, mut version, from_checkpoint) = match checkpoint {
        Some((ck, requirement, strategy)) => {
            let session = PublishSession::resume(
                ck.table,
                requirement,
                Parallelism::Auto,
                strategy,
                ck.state,
                ck.version as usize,
            );
            (session, ck.version, Some(ck.version))
        }
        None => {
            let session = PublishSession::open(&genesis.table, &genesis.publisher)
                .map_err(|e| format!("could not republish the genesis table: {e}"))?;
            (session, 0, None)
        }
    };

    let mut replayed = 0usize;
    for (offset, payload) in &scan.records {
        let (seq, delta) =
            wal::decode_record(payload, &schema, *offset).map_err(|e| e.to_string())?;
        if seq <= version {
            // Pre-checkpoint record left by a crash between checkpointing
            // and log rotation: its effect is already in the checkpoint.
            continue;
        }
        if seq != version + 1 {
            return Err(format!(
                "wal.log sequence gap: expected {}, found {seq}",
                version + 1
            ));
        }
        session
            .apply(&delta)
            .map_err(|e| format!("replay of version {seq} failed: {e}"))?;
        version = seq;
        replayed += 1;
    }

    if options.verify_on_open {
        genesis
            .publisher
            .verify(session.table(), session.anonymized())
            .map_err(|e| format!("recovered version {version}: {e}"))?;
    }

    Ok(RecoveredTenant {
        name: genesis.tenant,
        session,
        version,
        from_checkpoint,
        replayed,
        truncated_tail: scan.truncated,
    })
}

/// Create a fresh WAL for a tenant directory (at registration or after a
/// checkpoint rotation). Exposed to the hub via this module so the file
/// names stay in one place.
pub(crate) fn create_wal(
    dir: &Path,
    base: u64,
    sync: SyncPolicy,
) -> std::io::Result<wal::WalWriter> {
    let writer = wal::WalWriter::create(&dir.join("wal.log"), base, sync)?;
    File::open(dir)?.sync_all()?;
    Ok(writer)
}

/// Rotate the WAL after a checkpoint at `version`: write a fresh log with
/// `base = version` at a temporary name, then atomically rename it over
/// `wal.log`. The returned writer's file handle follows the inode through
/// the rename, so appends after rotation land in the new log.
pub(crate) fn rotate_wal(
    dir: &Path,
    version: u64,
    sync: SyncPolicy,
) -> std::io::Result<wal::WalWriter> {
    let tmp = dir.join("wal.log.tmp");
    let writer = wal::WalWriter::create(&tmp, version, sync)?;
    std::fs::rename(&tmp, dir.join("wal.log"))?;
    File::open(dir)?.sync_all()?;
    Ok(writer)
}

/// Reopen an existing (already scanned and, if needed, truncated) WAL for
/// appending.
pub(crate) fn reopen_wal(dir: &Path, sync: SyncPolicy) -> std::io::Result<wal::WalWriter> {
    wal::WalWriter::open_end(&dir.join("wal.log"), sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{
        check_trailer, parse_checkpoint, parse_genesis, push_trailer, unhex_str, Checkpoint,
        Cursor, CHECKPOINT_MAGIC,
    };
    use crate::wal::fnv1a64;
    use bgkanon_anon::AnyStrategy;
    use bgkanon_data::{adult, toy, DeltaBuilder, Schema};
    use bgkanon_privacy::PrivacyRequirement;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("bgkrec-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["", "plain", "with space", "uni 🔒 code", "x-already"] {
            assert_eq!(unhex_str(&format::hex_str(s)).unwrap(), s);
        }
        assert!(unhex_str("abc").is_err());
        assert!(unhex_str("zz").is_err());
        assert!(unhex_str("4é5").is_err());
    }

    #[test]
    fn dir_names_are_injective_and_safe() {
        assert_eq!(dir_name_for("acme"), "acme");
        assert_eq!(dir_name_for("a.b_c-9"), "a.b_c-9");
        for odd in ["", ".hidden", "has space", "x-evil", "né"] {
            let dir = dir_name_for(odd);
            assert!(dir.starts_with("x-"), "{odd} -> {dir}");
            assert_eq!(unhex_str(&dir[2..]).unwrap(), odd);
        }
    }

    #[test]
    fn genesis_roundtrip_adult() {
        let dir = tmp_dir("genesis");
        let table = adult::generate(60, 5);
        let publisher = Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25);
        write_genesis(&dir, "tenant one", &publisher, &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let genesis = parse_genesis(&text).unwrap();
        assert_eq!(genesis.tenant, "tenant one");
        assert_eq!(
            format::spec_text(&genesis.publisher),
            format::spec_text(&publisher)
        );
        assert_eq!(genesis.table.len(), table.len());
        for r in 0..table.len() {
            assert_eq!(genesis.table.qi(r), table.qi(r));
            assert_eq!(genesis.table.sensitive_value(r), table.sensitive_value(r));
        }
        // Schema round-trips to bit-identical distances (hierarchy + matrix).
        let a = table.schema();
        let b = genesis.table.schema();
        assert_eq!(a.qi_count(), b.qi_count());
        for i in 0..a.sensitive_domain_size() as u32 {
            for (x, y) in a
                .sensitive_distance()
                .row(i)
                .iter()
                .zip(b.sensitive_distance().row(i))
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // And the rebuilt pair publishes bit-identically.
        let pa = publisher.publish(&table).unwrap();
        let pb = genesis.publisher.publish(&genesis.table).unwrap();
        assert_eq!(pa.anonymized.first_difference(&pb.anonymized), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn genesis_roundtrip_toy_categorical() {
        // The toy table exercises categorical attributes + hierarchies.
        let dir = tmp_dir("toy");
        let table = toy::hospital_table();
        let publisher = Publisher::new().k_anonymity(3);
        write_genesis(&dir, "toy", &publisher, &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let genesis = parse_genesis(&text).unwrap();
        let pa = publisher.publish(&table).unwrap();
        let pb = genesis.publisher.publish(&genesis.table).unwrap();
        assert_eq!(pa.anonymized.first_difference(&pb.anonymized), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_genesis_is_rejected() {
        let dir = tmp_dir("corrupt");
        let table = adult::generate(40, 6);
        write_genesis(&dir, "t", &Publisher::new().k_anonymity(3), &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        assert!(parse_genesis(&text).is_ok());
        // Damage one body byte: the checksum catches it.
        let flipped = text.replacen("schema ", "sChema ", 1);
        assert_ne!(flipped, text);
        assert!(parse_genesis(&flipped).unwrap_err().contains("checksum"));
        // Chop the trailer entirely.
        let body = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let no_trailer = &body[..body.rfind("checksum").unwrap()];
        assert!(parse_genesis(no_trailer).unwrap_err().contains("checksum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let dir = tmp_dir("ckpt");
        let table = adult::generate(120, 7);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&table).unwrap();
        session.audit_against(0.3, 0.2).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        b.delete(3).delete(57);
        b.insert_codes(&table.qi(8), table.sensitive_value(8))
            .unwrap();
        session.apply(&b.build()).unwrap();
        write_checkpoint(&dir, 1, &session).unwrap();

        let text = std::fs::read_to_string(dir.join("checkpoint.tbl")).unwrap();
        let requirement = publisher.instantiate(&table).unwrap();
        let strategy = publisher.strategy(&requirement).unwrap();
        let ck = parse_checkpoint(&text, table.schema(), &strategy).unwrap();
        assert_eq!(ck.version, 1);
        assert!(text.contains("\nstrategy mondrian\n"));
        // An audited session still persists no adversary model.
        assert!(text.contains("\npriors 0\n"));
        let mut resumed = PublishSession::resume(
            ck.table,
            requirement,
            Parallelism::Auto,
            strategy,
            ck.state,
            1,
        );
        // Publication bit-identical…
        assert_eq!(
            session.anonymized().first_difference(resumed.anonymized()),
            None
        );
        // …and `Adv(b′)`, re-derived on the resumed session's first audit,
        // audits identically to the writer's carried entry.
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        b.delete(10);
        let delta = b.build();
        session.apply(&delta).unwrap();
        resumed.apply(&delta).unwrap();
        let ra = session.audit_against(0.3, 0.2).unwrap();
        let rb = resumed.audit_against(0.3, 0.2).unwrap();
        assert_eq!(ra.first_difference(&rb), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the on-disk bytes of each strategy's durable tenant: genesis
    /// plus the checkpoint taken after two deltas. A codec or writer change
    /// that alters a single byte of either file fails here, so format
    /// changes are deliberate (and come with a magic bump).
    #[test]
    fn checkpoint_and_genesis_bytes_are_pinned_per_strategy() {
        use crate::publisher::Algorithm;
        use crate::SessionHub;
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let cases = [
            (
                Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25),
                0xea59_1843_c1a5_b3b6_u64,
                0x66e6_3191_a617_f68f_u64,
            ),
            (
                Publisher::new()
                    .distinct_l_diversity(3)
                    .algorithm(Algorithm::Bucketize),
                0xbc6c_4721_eb3f_24d1,
                0x33d0_ef67_89c1_38b1,
            ),
            (
                Publisher::new()
                    .k_anonymity(4)
                    .algorithm(Algorithm::FullDomain),
                0x9e56_0ada_0766_42e9,
                0x0deb_b2f1_c141_a289,
            ),
        ];
        let table = adult::generate(150, 17);
        for (publisher, genesis_digest, checkpoint_digest) in cases {
            let dir = tmp_dir("pinned");
            let (hub, report): (SessionHub, _) = SessionHub::open_with(&dir, opts).unwrap();
            assert!(report.is_clean());
            hub.register("t", &table, &publisher).unwrap();
            for step in 0..2u64 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step as usize * 13).delete(40 + step as usize);
                let donors = adult::generate(3, 400 + step);
                for r in 0..3 {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                hub.apply("t", &b.build()).unwrap();
            }
            drop(hub);
            let tenant_dir = dir.join(dir_name_for("t"));
            let genesis = std::fs::read(tenant_dir.join("genesis.tbl")).unwrap();
            let checkpoint = std::fs::read(tenant_dir.join("checkpoint.tbl")).unwrap();
            let name = format::spec_text(&publisher);
            assert!(checkpoint.starts_with(format!("{CHECKPOINT_MAGIC}\nversion 2\n").as_bytes()));
            assert_eq!(fnv1a64(&genesis), genesis_digest, "{name} genesis bytes");
            assert_eq!(
                fnv1a64(&checkpoint),
                checkpoint_digest,
                "{name} checkpoint bytes"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Re-checksum helper: corrupt a file body semantically but keep the
    /// trailer valid, proving the *semantic* validation rejects it.
    fn rewrap(body: &str) -> String {
        let mut s = body.to_owned();
        push_trailer(&mut s);
        s
    }

    /// A file in a shape this reader no longer loads, derived from a
    /// current one and re-checksummed.
    struct Retired {
        /// The tenant file it replaces.
        file: &'static str,
        text: String,
        /// What the unrecoverable reason must name.
        reason: &'static str,
    }

    /// The retired shapes, from a current genesis and checkpoint: a v1
    /// genesis, v1 and v2 checkpoints (no strategy tag or state head, as
    /// the pre-strategy writer left them), and a v3 checkpoint carrying a
    /// stored `prior-model` block. Recovery stops at the magic line or the
    /// `priors` count, so the table blocks keep their current layout.
    fn retired_shapes(genesis: &str, checkpoint: &str) -> Vec<Retired> {
        let reshape = |text: &str, magic: &str, untag: bool| -> String {
            let body = check_trailer(text).unwrap();
            let (_, rest) = body.split_once('\n').unwrap();
            let mut out = format!("{magic}\n");
            for line in rest.lines() {
                if !(untag && (line.starts_with("strategy ") || line.starts_with("state "))) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            rewrap(&out)
        };
        let body = check_trailer(checkpoint).unwrap();
        let with_prior = format!(
            "{}priors 1\nprior-model 3e-1 1\nbgkanon-prior-model v2\n",
            body.strip_suffix("priors 0\n").unwrap()
        );
        vec![
            Retired {
                file: "genesis.tbl",
                text: reshape(genesis, "bgkanon-genesis v1", false),
                reason: "unsupported format `bgkanon-genesis v1`",
            },
            Retired {
                file: "checkpoint.tbl",
                text: reshape(checkpoint, "bgkanon-checkpoint v1", true),
                reason: "unsupported format `bgkanon-checkpoint v1`",
            },
            Retired {
                file: "checkpoint.tbl",
                text: reshape(checkpoint, "bgkanon-checkpoint v2", true),
                reason: "unsupported format `bgkanon-checkpoint v2`",
            },
            Retired {
                file: "checkpoint.tbl",
                text: rewrap(&with_prior),
                reason: "1 stored prior-model block",
            },
        ]
    }

    /// Two durable tenants, each checkpointed at version 2 with one WAL
    /// record above it; then `old`'s file is replaced by retired shape
    /// `shape`. The reopened hub reports `old` unrecoverable with a reason
    /// naming the format, and still serves `new` as it was written.
    fn assert_retired_shape_is_unrecoverable(shape: usize) {
        use crate::SessionHub;
        let dir = tmp_dir("retired");
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let publisher = Publisher::new().k_anonymity(4);
        let written = {
            let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
            assert!(report.is_clean());
            for (i, name) in ["old", "new"].into_iter().enumerate() {
                let table = adult::generate(120, 30 + i as u64);
                hub.register(name, &table, &publisher).unwrap();
                for step in 0..3u64 {
                    let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                    b.delete(step as usize * 7);
                    let donors = adult::generate(2, 500 + step);
                    for r in 0..2 {
                        b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                            .unwrap();
                    }
                    hub.apply(name, &b.build()).unwrap();
                }
            }
            hub.snapshot("new").unwrap()
        };
        let old = dir.join(dir_name_for("old"));
        let read = |name: &str| std::fs::read_to_string(old.join(name)).unwrap();
        let retired =
            retired_shapes(&read("genesis.tbl"), &read("checkpoint.tbl")).swap_remove(shape);
        std::fs::write(old.join(retired.file), &retired.text).unwrap();

        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        let failed = report.unrecoverable();
        assert_eq!(failed.len(), 1, "{:?}", report.tenants);
        let reason = failed[0].error.as_deref().unwrap();
        assert!(reason.contains(retired.reason), "{reason}");
        assert!(!hub.contains("old"));
        assert_eq!(report.recovered(), 1);
        let snap = hub.snapshot("new").unwrap();
        assert_eq!(snap.version(), written.version());
        assert_eq!(
            snap.anonymized().first_difference(written.anonymized()),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_genesis_is_unrecoverable() {
        assert_retired_shape_is_unrecoverable(0);
    }

    #[test]
    fn v1_checkpoint_is_unrecoverable() {
        assert_retired_shape_is_unrecoverable(1);
    }

    #[test]
    fn untagged_v2_checkpoint_is_unrecoverable() {
        assert_retired_shape_is_unrecoverable(2);
    }

    #[test]
    fn checkpoint_with_a_stored_prior_is_unrecoverable() {
        assert_retired_shape_is_unrecoverable(3);
    }

    /// `body` with the tree records of its state block replaced by what
    /// `edit` makes of them (each node's tokens after `tnode`), the block
    /// heads recounted and the checksum recomputed.
    fn with_tree_nodes(body: &str, edit: impl FnOnce(&mut Vec<Vec<String>>)) -> String {
        let lines: Vec<&str> = body.lines().collect();
        let state = lines.iter().position(|l| l.starts_with("state ")).unwrap();
        let priors = lines.iter().position(|l| l.starts_with("priors ")).unwrap();
        let mut nodes: Vec<Vec<String>> = lines[state + 2..priors]
            .iter()
            .map(|l| l.split_whitespace().skip(1).map(str::to_owned).collect())
            .collect();
        edit(&mut nodes);
        let mut out: String = lines[..state].iter().map(|l| format!("{l}\n")).collect();
        out += &format!("state {}\ntree {}\n", nodes.len() + 1, nodes.len());
        for node in &nodes {
            out += &format!("tnode {}\n", node.join(" "));
        }
        out += &(lines[priors..].join("\n") + "\n");
        rewrap(&out)
    }

    /// A checkpoint with the `size` of its second internal node set to 1.
    /// Every record is referenced once and the leaves partition the table;
    /// only the walk that sums the leaves below each node sees the lie,
    /// which the first delta routed through the node would trip over.
    fn with_a_lying_size(body: &str) -> String {
        with_tree_nodes(body, |nodes| {
            let node = nodes
                .iter_mut()
                .filter(|n| n[0] == "internal")
                .nth(1)
                .unwrap();
            assert_ne!(node[3], "1");
            node[3] = "1".into();
        })
    }

    /// A checkpoint whose tree has a cycle off the root: a node `p` skips
    /// its internal child `c` and links `c`'s left leaf directly; `c` and
    /// a new internal twin link each other, and `c`'s right leaf gives
    /// half of its rows to a new leaf under the twin. Every record is
    /// still referenced exactly once, the leaves still partition the
    /// table and the root size is unchanged, but the rows below the cycle
    /// are not reached from the root.
    fn with_a_cycle(body: &str) -> String {
        with_tree_nodes(body, |nodes| {
            let slot = |tok: &String| tok.parse::<usize>().unwrap();
            let leaf = |nodes: &[Vec<String>], s: usize| nodes[s][0] == "leaf";
            let (p, c) = (0..nodes.len())
                .filter(|&p| nodes[p][0] == "internal")
                .map(|p| (p, slot(&nodes[p][2])))
                .find(|&(_, c)| {
                    nodes[c][0] == "internal"
                        && leaf(nodes, slot(&nodes[c][1]))
                        && leaf(nodes, slot(&nodes[c][2]))
                })
                .unwrap();
            let (left, right) = (slot(&nodes[c][1]), slot(&nodes[c][2]));
            let (twin, split) = (nodes.len(), nodes.len() + 1);
            nodes[p][2] = left.to_string();
            nodes[c][1] = twin.to_string();
            let mut twin_node = nodes[c].clone();
            twin_node[1] = c.to_string();
            twin_node[2] = split.to_string();
            let moved = nodes[right].split_off(2);
            assert!(!moved.is_empty(), "the right leaf has one row");
            nodes.push(twin_node);
            nodes.push(std::iter::once("leaf".to_owned()).chain(moved).collect());
        })
    }

    #[test]
    fn malformed_checkpoint_trees_are_rejected_not_panicking() {
        let dir = tmp_dir("badtree");
        let table = adult::generate(400, 8);
        let publisher = Publisher::new().k_anonymity(4);
        let session = publisher.open(&table).unwrap();
        write_checkpoint(&dir, 0, &session).unwrap();
        let good = std::fs::read_to_string(dir.join("checkpoint.tbl")).unwrap();
        // Parsing imports the state block against the checkpointed table,
        // which must reject it, without panicking.
        let import = |text: &str| -> Result<Checkpoint, String> {
            let requirement = publisher.instantiate(&table).unwrap();
            let strategy = publisher.strategy(&requirement).unwrap();
            parse_checkpoint(text, table.schema(), &strategy)
        };
        let rejected = |text: &str| import(text).err().expect("a malformed tree imported");
        assert!(import(&good).is_ok());
        let body = check_trailer(&good).unwrap();
        // Duplicate a leaf row.
        let broken = rewrap(&body.replacen("tnode leaf ", "tnode leaf 0 0 ", 1));
        let reason = rejected(&broken);
        assert!(reason.contains("partition"), "{reason}");
        // Point a child link out of range.
        let broken = with_tree_nodes(body, |nodes| {
            let node = nodes.iter_mut().find(|n| n[0] == "internal").unwrap();
            node[1] = "9999".into();
        });
        let reason = rejected(&broken);
        assert!(reason.contains("out of range"), "{reason}");
        // An internal node whose size is not the rows below it.
        let reason = rejected(&with_a_lying_size(body));
        assert!(reason.contains("claims 1 rows"), "{reason}");
        // A root split that sends every row right, though its left subtree
        // holds rows: a delete would be routed away from its leaf.
        let broken = with_tree_nodes(body, |nodes| {
            nodes[0][5] = "0".into();
            nodes[0][6] = "0".into();
        });
        let reason = rejected(&broken);
        assert!(reason.contains("wrong side of node 0's split"), "{reason}");
        // A cycle off the root that loses the rows below it.
        let reason = rejected(&with_a_cycle(body));
        assert!(reason.contains("not reached from the root"), "{reason}");
        // A checkpoint tagged with a strategy the publisher does not select.
        let broken = rewrap(&body.replacen("strategy mondrian", "strategy bucketize", 1));
        let reason = rejected(&broken);
        assert!(reason.contains("tagged strategy `bucketize`"), "{reason}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `verify_on_open` catches a checkpoint that imports cleanly but does
    /// not reproduce the from-scratch publication: two bucket lines
    /// swapped still make a valid ℓ-diverse partition, in another order.
    #[test]
    fn verify_on_open_names_the_first_drifted_group() {
        use crate::publisher::Algorithm;
        use crate::SessionHub;
        let dir = tmp_dir("drift");
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            verify_on_open: true,
            ..DurabilityOptions::default()
        };
        let table = adult::generate(150, 17);
        let publisher = Publisher::new()
            .distinct_l_diversity(3)
            .algorithm(Algorithm::Bucketize);
        {
            let (hub, _) = SessionHub::open_with(&dir, opts).unwrap();
            hub.register("t", &table, &publisher).unwrap();
            for step in 0..2 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step * 13);
                hub.apply("t", &b.build()).unwrap();
            }
        }
        let path = dir.join(dir_name_for("t")).join("checkpoint.tbl");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = check_trailer(&text).unwrap().lines().collect();
        let first = lines.iter().position(|l| l.starts_with("bucket ")).unwrap();
        assert!(lines[first + 1].starts_with("bucket "));
        lines.swap(first, first + 1);
        std::fs::write(&path, rewrap(&(lines.join("\n") + "\n"))).unwrap();

        // Without the check the swapped checkpoint imports cleanly.
        let unchecked = DurabilityOptions {
            verify_on_open: false,
            ..opts
        };
        let (hub, report) = SessionHub::open_with(&dir, unchecked).unwrap();
        assert!(report.is_clean(), "{:?}", report.tenants);
        drop(hub);

        let (_hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        let failed = report.unrecoverable();
        assert_eq!(failed.len(), 1);
        let reason = failed[0].error.as_deref().unwrap();
        assert!(reason.contains("version 2"), "{reason}");
        assert!(reason.contains("group 0 differs in its rows"), "{reason}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn genesis_with_an_invalid_bandwidth_is_unrecoverable_not_panicking() {
        use crate::SessionHub;
        let dir = tmp_dir("badspec");
        let opts = DurabilityOptions::default();
        let table = adult::generate(60, 14);
        {
            let (hub, _) = SessionHub::open_with(&dir, opts).unwrap();
            let publisher = Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25);
            hub.register("t", &table, &publisher).unwrap();
        }
        // Swap the spec's bandwidth for zero, with a valid checksum: the
        // spec line parses, and re-instantiating it must fail typed.
        let path = dir.join(dir_name_for("t")).join("genesis.tbl");
        let text = std::fs::read_to_string(&path).unwrap();
        let body = check_trailer(&text).unwrap();
        let body: String = body
            .lines()
            .map(|line| match line.strip_prefix("spec bt-uniform ") {
                Some(rest) => {
                    let t = rest.split_whitespace().nth(1).unwrap();
                    format!("spec bt-uniform 0e0 {t}\n")
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert!(body.contains("\nspec bt-uniform 0e0 "));
        std::fs::write(&path, rewrap(&body)).unwrap();

        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        let failed = report.unrecoverable();
        assert_eq!(failed.len(), 1);
        let reason = failed[0].error.as_deref().unwrap();
        assert!(reason.contains("bandwidth"), "{reason}");
        assert!(!hub.contains("t"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint the fuzz properties mutate, with the genesis
    /// requirement of the publisher that wrote it.
    struct CheckpointSeed {
        text: String,
        publisher: Publisher,
        requirement: Arc<dyn PrivacyRequirement>,
    }

    impl CheckpointSeed {
        fn strategy(&self) -> AnyStrategy {
            self.publisher.strategy(&self.requirement).unwrap()
        }
    }

    /// Files the fuzz properties mutate: for each strategy a genesis and a
    /// checkpoint, plus the retired shapes, which parse to an error.
    struct FuzzSeeds {
        schema: Arc<Schema>,
        genesis: Vec<String>,
        checkpoints: Vec<CheckpointSeed>,
        retired: Vec<String>,
    }

    fn fuzz_seeds() -> &'static FuzzSeeds {
        use crate::publisher::Algorithm;
        static SEEDS: std::sync::OnceLock<FuzzSeeds> = std::sync::OnceLock::new();
        SEEDS.get_or_init(|| {
            let table = adult::generate(60, 21);
            let publishers = [
                Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25),
                Publisher::new()
                    .distinct_l_diversity(3)
                    .algorithm(Algorithm::Bucketize),
                Publisher::new()
                    .k_anonymity(4)
                    .algorithm(Algorithm::FullDomain),
            ];
            let mut genesis = Vec::new();
            let mut checkpoints = Vec::new();
            for publisher in publishers {
                let dir = tmp_dir("fuzzseed");
                write_genesis(&dir, "t", &publisher, &table).unwrap();
                let session = publisher.open(&table).unwrap();
                write_checkpoint(&dir, 3, &session).unwrap();
                let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
                genesis.push(read("genesis.tbl"));
                checkpoints.push(CheckpointSeed {
                    text: read("checkpoint.tbl"),
                    requirement: publisher.instantiate(&table).unwrap(),
                    publisher,
                });
                std::fs::remove_dir_all(&dir).ok();
            }
            for text in &genesis {
                parse_genesis(text).unwrap();
            }
            for seed in &checkpoints {
                parse_checkpoint(&seed.text, table.schema(), &seed.strategy()).unwrap();
            }
            let retired: Vec<String> = retired_shapes(&genesis[0], &checkpoints[0].text)
                .into_iter()
                .map(|r| r.text)
                .collect();
            for text in &retired {
                assert!(parse_genesis(text).is_err());
                assert!(
                    parse_checkpoint(text, table.schema(), &checkpoints[0].strategy()).is_err()
                );
            }
            FuzzSeeds {
                schema: Arc::clone(table.schema()),
                genesis,
                checkpoints,
                retired,
            }
        })
    }

    /// What an imported checkpoint enables: a resumed session whose
    /// publication partitions its table, and which takes one small delta
    /// (every tenth row deleted, two rows inserted) — applied or refused,
    /// never a panic.
    fn resume_and_apply(ck: Checkpoint, seed: &CheckpointSeed) {
        let mut session = PublishSession::resume(
            ck.table,
            Arc::clone(&seed.requirement),
            Parallelism::Serial,
            seed.strategy(),
            ck.state,
            ck.version as usize,
        );
        let table = session.table();
        let n = table.len();
        let mut seen = vec![false; n];
        for group in session.anonymized().iter() {
            for &row in group.rows {
                assert!(!std::mem::replace(&mut seen[row], true), "row {row} twice");
            }
        }
        assert!(seen.iter().all(|&s| s), "a row is not published");
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for row in (0..n).step_by(10) {
            b.delete(row);
        }
        for row in [n / 2, n - 1] {
            b.insert_codes(&table.qi(row), table.sensitive_value(row))
                .unwrap();
        }
        let _ = session.apply(&b.build());
    }

    /// The byte range of `body`'s state block, its `state N` head included:
    /// up to the `priors` head that follows it.
    fn state_block(body: &str) -> std::ops::Range<usize> {
        let start = body.find("\nstate ").unwrap() + 1;
        let end = body.find("\npriors ").unwrap() + 1;
        start..end
    }

    /// Feed `text` to every parser a durable tenant's files go through,
    /// reading a checkpoint for `seed`'s strategy; resume and apply a
    /// delta to whatever imports.
    fn parse_everything(text: &str, seeds: &FuzzSeeds, seed: &CheckpointSeed) {
        let _ = parse_genesis(text);
        if let Ok(ck) = parse_checkpoint(text, &seeds.schema, &seed.strategy()) {
            resume_and_apply(ck, seed);
        }
    }

    /// Regression: a genesis spec the requirement constructors reject with
    /// a panic (`k 0`, found by the spec-line fuzz property) is a parse
    /// error, so recovery reports the tenant instead of crashing.
    #[test]
    fn genesis_with_out_of_range_spec_is_rejected() {
        let dir = tmp_dir("kzero");
        let table = adult::generate(60, 21);
        write_genesis(&dir, "t", &Publisher::new().k_anonymity(4), &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let body = check_trailer(&text).unwrap();
        let err = parse_genesis(&rewrap(&body.replace("spec k 4", "spec k 0"))).unwrap_err();
        assert!(err.contains("k out of range"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// Byte edits of a valid state block (its head included), fed
        /// straight to every strategy's reader against the checkpointed
        /// table; a state that imports resumes and applies a delta.
        #[test]
        fn mutated_state_blocks_never_panic(
            pick in 0usize..64,
            edits in proptest::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..6),
        ) {
            let seeds = fuzz_seeds();
            let seed = &seeds.checkpoints[pick % seeds.checkpoints.len()];
            let ck = parse_checkpoint(&seed.text, &seeds.schema, &seed.strategy()).unwrap();
            let body = check_trailer(&seed.text).unwrap();
            let block = crate::fuzz::mutate(&body[state_block(body)], &edits);
            for seed in &seeds.checkpoints {
                let read = format::read_state(&mut Cursor::new(&block), &seed.strategy(), &ck.table);
                if let Ok(state) = read {
                    let table = ck.table.clone();
                    resume_and_apply(Checkpoint { version: 3, table, state }, seed);
                }
            }
        }

        /// Arbitrary bytes, with and without a valid checksum trailer.
        #[test]
        fn arbitrary_bytes_never_panic(noise in proptest::collection::vec(0u8..=255, 0..256)) {
            let seeds = fuzz_seeds();
            let text = String::from_utf8_lossy(&noise).into_owned();
            for text in [text.clone(), rewrap(&text)] {
                parse_everything(&text, seeds, &seeds.checkpoints[0]);
                for seed in &seeds.checkpoints {
                    let ck = parse_checkpoint(&seed.text, &seeds.schema, &seed.strategy()).unwrap();
                    let _ = format::read_state(&mut Cursor::new(&text), &seed.strategy(), &ck.table);
                }
            }
        }
    }

    proptest::proptest! {
        // Twice the cases of the other fuzz properties: half of them aim
        // at checkpoint state blocks, so the untargeted half keeps their
        // count.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(768))]

        /// Edits of genesis and checkpoint files (every strategy, and every
        /// retired shape) give a value or an error — never a panic; and a
        /// checkpoint that imports resumes to a partition of its table and
        /// applies a small delta without a panic. Half the cases edit any
        /// file anywhere with byte edits, a quarter of them keeping the
        /// stale checksum trailer and the rest re-checksummed so the edits
        /// reach the block parsers. The other half aim at the state block
        /// of a re-checksummed checkpoint with edits that keep every token:
        /// one digit rewritten, or whole numbers swapped. Those get past the
        /// tokenizer to the tree, bucket and frontier checks, and whatever
        /// passes them reaches the resume-and-apply oracle. (Byte edits of
        /// state blocks are `mutated_state_blocks_never_panic`'s.)
        #[test]
        fn mutated_durable_files_never_panic(
            pick in 0usize..64,
            edits in proptest::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..6),
            rechecksum in 0u8..4,
            aim in 0u8..4,
        ) {
            let seeds = fuzz_seeds();
            let files: Vec<(&str, &CheckpointSeed)> = seeds
                .genesis
                .iter()
                .chain(&seeds.retired)
                .map(|g| (g.as_str(), &seeds.checkpoints[0]))
                .chain(seeds.checkpoints.iter().map(|c| (c.text.as_str(), c)))
                .collect();
            let (text, seed) = if aim < 2 {
                let (text, seed) = files[pick % files.len()];
                let mutated = crate::fuzz::mutate(check_trailer(text).unwrap(), &edits);
                (if rechecksum == 0 { mutated } else { rewrap(&mutated) }, seed)
            } else {
                let seed = &seeds.checkpoints[pick % seeds.checkpoints.len()];
                let body = check_trailer(&seed.text).unwrap();
                let range = state_block(body);
                let block = if aim == 2 {
                    crate::fuzz::rewrite_digit(&body[range.clone()], edits[0])
                } else {
                    crate::fuzz::swap_numbers(&body[range.clone()], &edits)
                };
                let text = format!("{}{block}{}", &body[..range.start], &body[range.end..]);
                (rewrap(&text), seed)
            };
            parse_everything(&text, seeds, seed);
        }

    }
}
