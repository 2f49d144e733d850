//! The concurrent multi-tenant serving layer: a [`SessionHub`] hosting many
//! named, independently evolving [`PublishSession`]s at once.
//!
//! The paper's threat model (§V) is a publisher releasing microdata
//! repeatedly as tables change; at serving scale that means **many** tables
//! republished and audited concurrently. The hub is the piece that turns the
//! single-owner `&mut` session of PR 3 into a shared service:
//!
//! * **Sharded registry** — tenants are spread over `hash(tenant-id) →
//!   shard` buckets, each bucket a small mutex-guarded map. Registry
//!   operations (lookup, register, remove) touch one shard for
//!   microseconds; traffic to different tenants never contends on a global
//!   lock.
//! * **One writer per tenant** — every tenant owns a `Mutex<PublishSession>`;
//!   [`apply`](SessionHub::apply) validates and routes the delta through the
//!   retained strategy state under that lock only. Writers to different
//!   tenants run fully in parallel.
//! * **Lock-free readers** — each applied delta publishes an immutable
//!   [`TenantSnapshot`] behind an `RwLock<Arc<…>>` that is only ever held
//!   long enough to clone the `Arc`. Everything inside the snapshot is
//!   O(1)-shared ([`Table`] row buffers, the [`AnonymizedTable`] group list,
//!   the leaf stamps), so any number of reader threads audit and estimate
//!   against pinned versions while the writer re-partitions the next one —
//!   readers never wait on a delta, writers never wait on an audit.
//! * **Shared audit caches** — reader audits go through
//!   [`SharedAuditSession`](bgkanon_privacy::SharedAuditSession)s (one
//!   per tenant × auditor configuration), each of one kind: bound to one
//!   version, with the session of a later version starting from its
//!   risks. Partition-tree leaf stamps survive deltas for every group the
//!   deltas did not dirty, so an audit recomputes Ω only for the churned
//!   slice of the partition since the entry's version, however many deltas
//!   back that is (and, for `Adv(b′)`, for groups whose priors moved). All
//!   readers of a tenant share these sessions.
//!
//! * **Optional durability** — a hub opened with [`SessionHub::open`] gives
//!   each tenant a directory under its data root: a genesis file, periodic
//!   checkpoints, and an append-only delta WAL ([`crate::wal`]).
//!   [`apply`](SessionHub::apply) appends (and by default fsyncs) the delta
//!   **before** publishing or acknowledging it, so a crash at any moment
//!   recovers every acked version ([`crate::recover`]).
//! * **Bounded memory** — every tenant carries a byte gauge
//!   ([`PublishSession::bytes_accounted`] + snapshot + reader caches),
//!   rolled up into a hub-wide resident counter. When a budget is
//!   configured ([`DurabilityOptions::max_resident_bytes`] or
//!   [`SessionHub::with_budget`]) and the counter crosses it, the coldest
//!   tenants (LRU by logical last-touch stamp) are **demoted to their
//!   durable form**: checkpoint flushed, WAL descriptor closed, in-memory
//!   session and caches dropped. The next touch transparently rehydrates
//!   through [`crate::recover`] — eviction is never observable in results
//!   (`tests/tests/fleet.rs` proptest), only in latency. Hubs without a
//!   durable form trim audit caches instead of demoting.
//! * **Carried `Adv(b′)` models** — a tenant keeps one hub-estimated
//!   adversary per `b′` and carries it forward: the first audit of a new
//!   version evolves the model's fold by the delta (or re-folds, after a
//!   gap), refreshes the model from the fold difference instead of
//!   re-estimating it, and replays every group the deltas left clean
//!   ([`SessionHub::audit_against`]).
//! * **Content-hash interning** — hub-estimated `Adv(b′)` adversaries are
//!   interned by a content hash of their provenance (folded table +
//!   bandwidth + kernel family), so a fleet of tenants serving the same
//!   background knowledge shares one `Arc`-ed prior model instead of
//!   estimating and holding thousands.
//!
//! Correctness bar (enforced by `tests/tests/hub.rs`,
//! `tests/tests/recovery.rs` and `tests/tests/fleet.rs`): under any
//! interleaving of writers and readers — and across any crash/reopen or
//! eviction/rehydration cycle — every snapshot and every audit report is
//! **bit-identical** to a serial replay of that tenant's acked delta
//! sequence — concurrency, durability and memory bounds buy throughput and
//! safety, never drift.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use bgkanon_anon::{AnonymizedTable, AnyStrategy};
use bgkanon_data::{Delta, Parallelism, Table};
use bgkanon_knowledge::{Adversary, Bandwidth, FoldedTable, KernelFamily};
use bgkanon_privacy::{AuditReport, Auditor};

use crate::publisher::Publisher;
use crate::readers::{relock, AdversaryIntern, AuditTarget, ReaderCaches, READER_CACHE_CAP};
use crate::recover::{self, RecoveryReport, TenantRecovery};
use crate::session::{PublishSession, SessionError, VersionChange};
use crate::wal::{encode_record, DurabilityOptions, WalWriter};

/// Registry shard count of every hub.
const DEFAULT_SHARD_COUNT: usize = 16;

/// An immutable published version of one tenant's table: what hub readers
/// audit against. Snapshots are handed out as `Arc`s and everything inside
/// is structurally shared, so holding one pins a consistent version at zero
/// copy cost for as long as a reader needs it — even while the writer
/// publishes newer versions.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    tenant: String,
    version: u64,
    requirement_name: String,
    table: Table,
    anonymized: AnonymizedTable,
    stamps: Arc<Vec<u64>>,
    /// The epoch of the publishing session that published this version
    /// ([`AuditTarget::epoch`]).
    epoch: u64,
    /// What changed from the previous version to this one: the record of
    /// the session's last apply, shared with the session. `None` when the
    /// session has applied nothing since it opened or resumed.
    change: Option<Arc<VersionChange>>,
}

impl TenantSnapshot {
    /// The tenant this snapshot belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Number of deltas applied before this version was published (0 for
    /// the registration snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Name of the tenant's privacy requirement.
    pub fn requirement_name(&self) -> &str {
        &self.requirement_name
    }

    /// The table this version was published from (shares its row buffers
    /// with the session's table of the same version).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The published partition of this version.
    pub fn anonymized(&self) -> &AnonymizedTable {
        &self.anonymized
    }

    /// Partition-tree leaf stamps, aligned with
    /// [`anonymized()`](Self::anonymized)`.iter()` — the cache tokens the
    /// hub's audits pass to the shared session.
    pub fn leaf_stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// Rows in this version.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the version has no rows (never — sessions reject deltas
    /// that would empty the table).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Groups in this version's publication.
    pub fn group_count(&self) -> usize {
        self.anonymized.group_count()
    }

    /// This version as the reader caches audit it, with the record of the
    /// delta that produced it.
    fn target(&self) -> AuditTarget<'_> {
        AuditTarget {
            table: &self.table,
            anonymized: &self.anonymized,
            stamps: &self.stamps,
            version: self.version,
            epoch: self.epoch,
            change: self.change.as_deref(),
        }
    }

    /// Heap bytes this snapshot pins: the published table and group list,
    /// leaf stamps, and the record of the delta that produced it. The
    /// payloads are `Arc`-shared with the session of the same version —
    /// per the hub's accounting convention they are charged to every
    /// holder, making the per-tenant gauge a deterministic upper-bound RSS
    /// proxy rather than an allocator-exact count.
    pub fn bytes_accounted(&self) -> usize {
        self.tenant.len()
            + self.requirement_name.len()
            + self.table.bytes_accounted()
            + self.anonymized.bytes_accounted()
            + self.stamps.len() * 8
            + self.change.as_ref().map_or(0, |c| c.bytes_accounted())
            + 64
    }
}

/// Durable-apply state of one tenant: the open WAL writer plus checkpoint
/// cadence tracking. Once `healthy` drops (an append or checkpoint did not
/// reach stable storage), every further apply is refused — the in-memory
/// session may be ahead of the log, and publishing unlogged state would
/// break the recovery contract. Reopening the hub recovers to the last
/// durable version.
struct TenantWal {
    dir: PathBuf,
    /// `None` while the tenant is demoted — an evicted tenant must not pin
    /// a file descriptor (a 10k-tenant fleet would exhaust the process fd
    /// table). Rehydration reopens it.
    writer: Option<WalWriter>,
    since_checkpoint: u64,
    healthy: bool,
}

/// Residency of one tenant's in-memory session.
enum TenantState {
    /// Session in memory, serving applies and audits.
    Resident(Box<PublishSession>),
    /// Demoted to the durable form under the tenant's directory: no
    /// session, no snapshot, no caches, no open WAL descriptor. The next
    /// touch rehydrates through [`crate::recover`] — bit-identical to
    /// never having been evicted.
    Evicted,
}

/// One hosted tenant.
struct Tenant {
    name: String,
    /// The single-writer evolving session (or its evicted placeholder).
    /// Held by [`SessionHub::apply`] for the duration of one delta and by
    /// rehydration/demotion for the duration of the state swap.
    writer: Mutex<TenantState>,
    /// Durable-apply state; `None` on in-memory hubs. Nests inside the
    /// `writer` lock and is released before `published` is written.
    wal: Option<Mutex<TenantWal>>,
    /// The current published version; `None` while demoted. Write-locked
    /// only for the `Arc` swap after a delta; read-locked only for an
    /// `Arc` clone.
    published: RwLock<Option<Arc<TenantSnapshot>>>,
    /// Reader-audit configurations, LRU-bounded like a session's caches.
    readers: ReaderCaches,
    /// Logical LRU stamp: the hub's touch clock at this tenant's last
    /// apply/audit/snapshot. Drives eviction order — no wall clock.
    last_touch: AtomicU64,
    /// Bytes currently charged for the session + published snapshot.
    session_bytes: AtomicUsize,
    /// Bytes currently charged for the shared reader-audit caches.
    reader_bytes: AtomicUsize,
}

impl Tenant {
    fn snapshot_opt(&self) -> Option<Arc<TenantSnapshot>> {
        relock(self.published.read()).as_ref().map(Arc::clone)
    }
}

/// One registry shard.
struct Shard {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

/// Hub-level durability configuration (present only on hubs opened with
/// [`SessionHub::open`]/[`SessionHub::open_with`]).
struct Durability {
    root: PathBuf,
    options: DurabilityOptions,
    /// Serializes durable registrations: a registration writes the tenant's
    /// genesis and WAL before inserting it into the registry, and two
    /// racing registrations of the same name must not interleave those file
    /// writes. Held first, before any shard lock.
    registration: Mutex<()>,
}

/// One interned `Adv(b′)` adversary, held weakly: the entry lives while
/// any tenant's reader cache keeps the adversary alive, and is pruned
/// once the last holder drops it — the intern table itself never pins
/// models for tenants that no longer use them.
struct InternEntry {
    /// Content hash of the provenance ([`FoldedTable::content_hash`] mixed
    /// with the bandwidth bits + kernel family). A hash match is only a
    /// candidate: sharing requires the full [`FoldedTable::content_eq`]
    /// check.
    key: u64,
    adversary: Weak<Adversary>,
}

/// The cross-tenant adversary intern table. Guarded by the rank-7
/// `interned` lock — acquired last in the sanctioned order and never held
/// across estimation.
struct InternTable {
    entries: Vec<InternEntry>,
    hits: u64,
    misses: u64,
}

impl InternTable {
    /// A live entry whose provenance is content-identical to
    /// `(fold, bandwidth, family)`, if any.
    fn find(
        &self,
        key: u64,
        fold: &FoldedTable,
        bandwidth: &Bandwidth,
        family: KernelFamily,
    ) -> Option<Arc<Adversary>> {
        for entry in &self.entries {
            if entry.key != key {
                continue;
            }
            let Some(adversary) = entry.adversary.upgrade() else {
                continue;
            };
            let Some(model) = adversary.prior_model() else {
                continue;
            };
            let same = model.family() == family
                && bandwidth_eq(model.bandwidth(), bandwidth)
                && model.folded().content_eq(fold);
            if same {
                return Some(adversary);
            }
        }
        None
    }

    fn insert(&mut self, key: u64, adversary: &Arc<Adversary>) {
        self.entries.retain(|e| e.adversary.strong_count() > 0);
        self.entries.push(InternEntry {
            key,
            adversary: Arc::downgrade(adversary),
        });
    }
}

/// Bit-exact bandwidth equality — the intern key must distinguish profiles
/// that differ in any representable way.
fn bandwidth_eq(a: &Bandwidth, b: &Bandwidth) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a mix of the intern key's non-fold provenance: bandwidth bits and
/// kernel family, folded into the table's content hash.
fn intern_key(fold: &FoldedTable, bandwidth: &Bandwidth, family: KernelFamily) -> u64 {
    let mut h = fold.content_hash();
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &b in bandwidth.as_slice() {
        eat(b.to_bits());
    }
    eat(match family {
        KernelFamily::Epanechnikov => 0,
        KernelFamily::Uniform => 1,
        KernelFamily::Triangular => 2,
    });
    h
}

/// A point-in-time view of the hub's memory gauges
/// ([`SessionHub::memory_stats`]). All byte figures are accounting proxies
/// (shared payloads charged to every holder), deterministic for a given
/// call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Rolled-up per-tenant bytes: sessions + published snapshots + shared
    /// reader-audit caches.
    pub resident_bytes: usize,
    /// The configured budget this hub evicts against, if any.
    pub budget_bytes: Option<usize>,
    /// Tenants currently serving from memory.
    pub resident_tenants: usize,
    /// Tenants currently demoted to their durable form.
    pub evicted_tenants: usize,
    /// Demotions since the hub opened (durable demotions and in-memory
    /// cache trims both count).
    pub evictions: u64,
    /// Rehydrations from the durable form since the hub opened.
    pub rehydrations: u64,
    /// Live interned `Adv(b′)` adversaries.
    pub interned_models: usize,
    /// Bytes held by live interned adversaries and their prior models —
    /// charged once here, never per tenant.
    pub interned_bytes: usize,
    /// Intern-table lookups answered by an existing model.
    pub intern_hits: u64,
    /// Intern-table lookups that found no model, so one was estimated or
    /// refreshed.
    pub intern_misses: u64,
}

/// A concurrent registry of named publishing sessions: many tenants, one
/// writer lock per tenant, lock-free snapshot reads, shared audit caches.
/// The hub is `Send + Sync` — wrap it in an `Arc` and hand it to as many
/// writer and reader threads as the workload needs.
///
/// Like [`PublishSession`], every tenant runs the [`AnyStrategy`] its
/// [`Publisher::algorithm`](crate::Publisher::algorithm) knob selects, so
/// one hub hosts Mondrian, bucketization and full-domain tenants side by
/// side.
///
/// The type parameter is an unused marker whose only value is its default,
/// [`AnyStrategy`]. It exists only so that code naming that default
/// explicitly (the `perfbench` package does) keeps compiling; write plain
/// `SessionHub`.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon::data::{adult, DeltaBuilder};
/// use bgkanon::{Publisher, SessionHub};
///
/// let hub: SessionHub = SessionHub::new();
/// let publisher = Publisher::new().k_anonymity(4);
///
/// // Host two independently evolving tables.
/// for (name, seed) in [("clinic-a", 1u64), ("clinic-b", 2)] {
///     let table = adult::generate(150, seed);
///     hub.register(name, &table, &publisher)?;
/// }
/// assert_eq!(hub.len(), 2);
///
/// // A writer evolves one tenant; readers of the other are unaffected.
/// let before_b = hub.snapshot("clinic-b")?;
/// let table_a = hub.snapshot("clinic-a")?.table().clone();
/// let mut delta = DeltaBuilder::new(Arc::clone(table_a.schema()));
/// delta.delete(3).delete(17);
/// let after_a = hub.apply("clinic-a", &delta.build())?;
/// assert_eq!(after_a.version(), 1);
/// assert_eq!(after_a.len(), 148);
/// assert_eq!(hub.snapshot("clinic-b")?.version(), before_b.version());
///
/// // Readers audit published versions; caches replay untouched groups.
/// let report = hub.audit_against("clinic-a", 0.3, 0.25)?;
/// assert!(report.worst_case >= report.mean);
/// # Ok::<(), bgkanon::SessionError>(())
/// ```
pub struct SessionHub<S = AnyStrategy> {
    shards: Vec<Shard>,
    durability: Option<Durability>,
    /// In-memory budget ([`with_budget`](Self::with_budget)); durable hubs
    /// configure theirs via [`DurabilityOptions::max_resident_bytes`].
    budget: Option<usize>,
    /// Monotonic logical clock stamping tenant touches (LRU order).
    touch_clock: AtomicU64,
    /// Rolled-up resident bytes across all tenants.
    resident: AtomicUsize,
    evictions: AtomicU64,
    rehydrations: AtomicU64,
    /// Cross-tenant `Adv(b′)` intern table (rank-7 lock, acquired last).
    interned: Mutex<InternTable>,
    /// The spelling-only type parameter (see the type's docs).
    marker: PhantomData<fn() -> S>,
}

impl SessionHub {
    /// Reader-audit configurations retained per tenant; beyond this the
    /// least recently used shared session (and its caches) is dropped.
    pub const MAX_READER_CACHES: usize = READER_CACHE_CAP;

    /// An empty in-memory hub.
    pub fn new() -> Self {
        SessionHub {
            shards: (0..DEFAULT_SHARD_COUNT)
                .map(|_| Shard {
                    tenants: Mutex::new(HashMap::new()),
                })
                .collect(),
            durability: None,
            budget: None,
            touch_clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            interned: Mutex::new(InternTable {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
            }),
            marker: PhantomData,
        }
    }

    /// An in-memory hub that keeps its rolled-up resident bytes at or
    /// under `max_resident_bytes`. Without a durable form to demote to,
    /// crossing the budget trims the coldest tenants' audit and reader
    /// caches (their tables and partition trees stay — an in-memory tenant
    /// has nowhere else to live). Durable hubs configure a budget via
    /// [`DurabilityOptions::max_resident_bytes`] and demote whole tenants
    /// instead.
    pub fn with_budget(max_resident_bytes: usize) -> Self {
        let mut hub = Self::new();
        hub.budget = Some(max_resident_bytes);
        hub
    }

    /// Open a **durable** hub rooted at `dir` with default
    /// [`DurabilityOptions`], recovering every tenant directory found
    /// there: each tenant resumes from its latest checkpoint (or its
    /// genesis table) plus a replay of its WAL tail, with a torn final
    /// record detected by checksum and discarded. The returned
    /// [`RecoveryReport`] lists every directory's outcome; a tenant that
    /// cannot be recovered consistently is reported and **not** served.
    ///
    /// An empty or missing `dir` opens an empty durable hub — `open` is
    /// also how a durable hub is created in the first place.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), SessionError> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`open`](Self::open) with explicit [`DurabilityOptions`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), SessionError> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| {
            SessionError::Durability(format!("could not create data dir {root:?}: {e}"))
        })?;
        let mut hub = Self::new();
        hub.durability = Some(Durability {
            root: root.clone(),
            options,
            registration: Mutex::new(()),
        });
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&root)
            .map_err(|e| SessionError::Durability(format!("could not list {root:?}: {e}")))?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|path| path.is_dir())
            .collect();
        dirs.sort();
        let mut report = RecoveryReport {
            tenants: Vec::new(),
        };
        for tenant_dir in dirs {
            let dir_label = tenant_dir
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let failed = |reason: String| TenantRecovery {
                tenant: dir_label.clone(),
                version: 0,
                from_checkpoint: None,
                replayed: 0,
                truncated_tail: false,
                error: Some(reason),
            };
            let recovered = match recover::recover_tenant_dir(&tenant_dir, &options) {
                Ok(recovered) => recovered,
                Err(reason) => {
                    report.tenants.push(failed(reason));
                    continue;
                }
            };
            let writer = match recover::reopen_wal(&tenant_dir, options.sync) {
                Ok(writer) => writer,
                Err(e) => {
                    report
                        .tenants
                        .push(failed(format!("could not reopen wal.log for appends: {e}")));
                    continue;
                }
            };
            if hub.contains(&recovered.name) {
                report.tenants.push(failed(format!(
                    "another directory already recovered tenant `{}`",
                    recovered.name
                )));
                continue;
            }
            report.tenants.push(TenantRecovery {
                tenant: recovered.name.clone(),
                version: recovered.version,
                from_checkpoint: recovered.from_checkpoint,
                replayed: recovered.replayed,
                truncated_tail: recovered.truncated_tail,
                error: None,
            });
            let snapshot = Arc::new(Self::snapshot_of(&recovered.name, &recovered.session));
            let bytes = recovered.session.bytes_accounted() + snapshot.bytes_accounted();
            let entry = Arc::new(Tenant {
                name: recovered.name.clone(),
                writer: Mutex::new(TenantState::Resident(Box::new(recovered.session))),
                wal: Some(Mutex::new(TenantWal {
                    dir: tenant_dir,
                    writer: Some(writer),
                    since_checkpoint: recovered.replayed as u64,
                    healthy: true,
                })),
                published: RwLock::new(Some(snapshot)),
                readers: ReaderCaches::default(),
                last_touch: AtomicU64::new(hub.touch_clock.fetch_add(1, Ordering::Relaxed)),
                session_bytes: AtomicUsize::new(bytes),
                reader_bytes: AtomicUsize::new(0),
            });
            hub.resident.fetch_add(bytes, Ordering::Relaxed);
            {
                let mut tenants = relock(hub.shard(&recovered.name).tenants.lock());
                tenants.insert(recovered.name, entry);
            }
            // Keep the open itself inside the budget: a fleet-sized data
            // root must not transiently resident every tenant at once.
            hub.maybe_evict(None);
        }
        Ok((hub, report))
    }

    /// Number of registry shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, tenant: &str) -> &Shard {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, SessionError> {
        relock(self.shard(name).tenants.lock())
            .get(name)
            .cloned()
            .ok_or_else(|| SessionError::UnknownTenant(name.to_owned()))
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| relock(s.tenants.lock()).len())
            .sum()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is a tenant with this id registered?
    pub fn contains(&self, tenant: &str) -> bool {
        relock(self.shard(tenant).tenants.lock()).contains_key(tenant)
    }

    /// Register a tenant: open a [`PublishSession`] on `table` with
    /// `publisher`'s requirements and publish version 0. The expensive work
    /// (planting the strategy state) runs outside every hub lock; only the
    /// final registry insert briefly takes the tenant's shard.
    pub fn register(
        &self,
        tenant: &str,
        table: &Table,
        publisher: &Publisher,
    ) -> Result<Arc<TenantSnapshot>, SessionError> {
        // On a durable hub, registrations are serialized: the genesis and
        // WAL files must be written exactly once per name, and the racing
        // loser must lose *before* touching the winner's files.
        let _registration = self
            .durability
            .as_ref()
            .map(|d| relock(d.registration.lock()));
        if self.contains(tenant) {
            return Err(SessionError::TenantExists(tenant.to_owned()));
        }
        let session = PublishSession::open(table, publisher)?;
        let wal = if let Some(durability) = &self.durability {
            let dir = durability.root.join(recover::dir_name_for(tenant));
            let durable = |e: std::io::Error, what: &str| {
                SessionError::Durability(format!("{what} for tenant `{tenant}` failed: {e}"))
            };
            std::fs::create_dir_all(&dir).map_err(|e| durable(e, "creating the directory"))?;
            recover::write_genesis(&dir, tenant, publisher, table)
                .map_err(|e| durable(e, "writing the genesis file"))?;
            let writer = recover::create_wal(&dir, 0, durability.options.sync)
                .map_err(|e| durable(e, "creating the WAL"))?;
            Some(Mutex::new(TenantWal {
                dir,
                writer: Some(writer),
                since_checkpoint: 0,
                healthy: true,
            }))
        } else {
            None
        };
        let snapshot = Arc::new(Self::snapshot_of(tenant, &session));
        let bytes = session.bytes_accounted() + snapshot.bytes_accounted();
        let entry = Arc::new(Tenant {
            name: tenant.to_owned(),
            writer: Mutex::new(TenantState::Resident(Box::new(session))),
            wal,
            published: RwLock::new(Some(Arc::clone(&snapshot))),
            readers: ReaderCaches::default(),
            last_touch: AtomicU64::new(self.touch_clock.fetch_add(1, Ordering::Relaxed)),
            session_bytes: AtomicUsize::new(bytes),
            reader_bytes: AtomicUsize::new(0),
        });
        {
            let mut tenants = relock(self.shard(tenant).tenants.lock());
            if tenants.contains_key(tenant) {
                // Raced with another registration of the same id (in-memory
                // hubs only — durable registrations hold the registration
                // lock).
                return Err(SessionError::TenantExists(tenant.to_owned()));
            }
            tenants.insert(tenant.to_owned(), entry);
        }
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.maybe_evict(Some(tenant));
        Ok(snapshot)
    }

    /// Remove a tenant, dropping its session and caches. Readers holding
    /// snapshot `Arc`s keep them — the versions they pinned stay valid. On
    /// a durable hub the tenant's directory is deleted too, so a reopen
    /// does not resurrect it.
    pub fn remove(&self, tenant: &str) -> Result<(), SessionError> {
        let removed = {
            let mut tenants = relock(self.shard(tenant).tenants.lock());
            tenants
                .remove(tenant)
                .ok_or_else(|| SessionError::UnknownTenant(tenant.to_owned()))?
        };
        let freed = removed.session_bytes.swap(0, Ordering::Relaxed)
            + removed.reader_bytes.swap(0, Ordering::Relaxed);
        self.resident.fetch_sub(freed, Ordering::Relaxed);
        if let Some(wal) = &removed.wal {
            let dir = relock(wal.lock()).dir.clone();
            std::fs::remove_dir_all(&dir).map_err(|e| {
                SessionError::Durability(format!(
                    "tenant `{tenant}` was removed from the hub but its directory \
                     {dir:?} could not be deleted: {e}"
                ))
            })?;
        }
        Ok(())
    }

    /// The tenant's current published version — an `Arc` clone behind a
    /// read lock held for nanoseconds; never blocked by an in-flight delta.
    /// A demoted tenant is transparently rehydrated from its durable form
    /// first.
    pub fn snapshot(&self, tenant: &str) -> Result<Arc<TenantSnapshot>, SessionError> {
        let entry = self.tenant(tenant)?;
        self.resident_snapshot(&entry)
    }

    /// Apply one delta to a tenant under its writer lock and publish the
    /// new version. Concurrent readers keep serving the previous version
    /// until the swap; on error the tenant is unchanged and stays
    /// registered.
    ///
    /// On a durable hub the validated delta is appended to the tenant's
    /// WAL (and, under the default [`crate::wal::SyncPolicy::Always`],
    /// fsynced) **before** the new version is published or this call
    /// returns — an acked apply survives any crash. Every
    /// [`checkpoint_every`](DurabilityOptions::checkpoint_every) applies,
    /// the session is checkpointed and the WAL rotated. If an append or
    /// checkpoint fails, the error is returned, nothing new is published,
    /// and the tenant refuses further applies until the hub is reopened
    /// (recovering to the last durable version) — it never serves state
    /// the log does not back.
    pub fn apply(&self, tenant: &str, delta: &Delta) -> Result<Arc<TenantSnapshot>, SessionError> {
        let entry = self.tenant(tenant)?;
        self.touch(&entry);
        let snapshot = {
            let mut state = relock(entry.writer.lock());
            self.rehydrate_locked(&entry, &mut state)?;
            let TenantState::Resident(session) = &mut *state else {
                return Err(SessionError::Durability(format!(
                    "tenant `{tenant}` has no resident session to apply to"
                )));
            };
            match (&entry.wal, &self.durability) {
                (Some(wal), Some(durability)) => {
                    let mut wal = relock(wal.lock());
                    if !wal.healthy {
                        return Err(SessionError::Durability(format!(
                            "tenant `{tenant}` refused the delta: its WAL hit an earlier \
                             failure; reopen the hub to recover"
                        )));
                    }
                    session.apply(delta)?;
                    let seq = session.deltas_applied() as u64;
                    let append = match wal.writer.as_mut() {
                        Some(writer) => writer.append(&encode_record(seq, delta)),
                        None => Err(std::io::Error::other("WAL writer closed while resident")),
                    };
                    if let Err(e) = append {
                        wal.healthy = false;
                        return Err(SessionError::Durability(format!(
                            "WAL append of version {seq} failed: {e}"
                        )));
                    }
                    wal.since_checkpoint += 1;
                    let every = durability.options.checkpoint_every;
                    if every > 0 && wal.since_checkpoint >= every {
                        let rotated =
                            recover::write_checkpoint(&wal.dir, seq, session).and_then(|()| {
                                recover::rotate_wal(&wal.dir, seq, durability.options.sync)
                            });
                        match rotated {
                            Ok(writer) => {
                                wal.writer = Some(writer);
                                wal.since_checkpoint = 0;
                            }
                            Err(e) => {
                                wal.healthy = false;
                                return Err(SessionError::Durability(format!(
                                    "checkpoint at version {seq} failed: {e}"
                                )));
                            }
                        }
                    }
                }
                _ => {
                    session.apply(delta)?;
                }
            }
            let snapshot = Arc::new(Self::snapshot_of(&entry.name, session));
            *relock(entry.published.write()) = Some(Arc::clone(&snapshot));
            self.charge(
                &entry.session_bytes,
                session.bytes_accounted() + snapshot.bytes_accounted(),
            );
            snapshot
        };
        self.recount_readers(&entry);
        self.maybe_evict(Some(&entry.name));
        Ok(snapshot)
    }

    /// Audit a tenant's current version with an externally supplied
    /// (caller-frozen) auditor, through the tenant's shared reader caches:
    /// any number of threads call this concurrently. The tenant keeps one
    /// entry per auditor, bound to one version like an `Adv(b′)` entry
    /// ([`audit_against`](Self::audit_against)). The first audit of
    /// another version starts from the entry's risks, however many deltas
    /// lie between them, and recomputes Ω only for the groups under a leaf
    /// stamp the entry's version lacked; after a rehydration, whose leaf
    /// stamps restart, it solves every group. From the
    /// second audit of one version at one `t` on, the entry keeps that
    /// report, and later audits of the version return a copy of it
    /// (ARCHITECTURE.md, "The report memo"). Pass the same `Auditor` (or
    /// clones sharing its `Arc`s) to hit the cache.
    pub fn audit_with(
        &self,
        tenant: &str,
        auditor: &Auditor,
        t: f64,
    ) -> Result<AuditReport, SessionError> {
        let entry = self.tenant(tenant)?;
        let snapshot = self.resident_snapshot(&entry)?;
        let target = snapshot.target();
        let shared = entry.readers.external(auditor, &target);
        let report = target.audit(&shared, t);
        self.recount_readers(&entry);
        self.maybe_evict(Some(&entry.name));
        Ok(report)
    }

    /// Audit a tenant's current version against the adversary `Adv(b′)`
    /// with threshold `t`, using the paper's smoothed-JS distance. The
    /// adversary's prior model always reflects **the version being
    /// audited** (like
    /// [`PublishSession::audit_against`](crate::PublishSession::audit_against)),
    /// but the tenant keeps one cache entry per `b′` and carries it from
    /// version to version instead of re-estimating:
    ///
    /// * the entry is bound to one version and keeps all of its risks in
    ///   one row-indexed vector; audits of that version assemble a report
    ///   from it, and from the second audit at one `t` on, copy the report
    ///   the entry keeps;
    /// * the first audit of a newer version needs that version's fold.
    ///   When the entry is exactly one version behind, the entry's fold and
    ///   row → point array are evolved by the change record [`apply`](Self::apply)
    ///   left on the snapshot ([`FoldedTable::evolve`], O(u) copying plus
    ///   O(delta · log u)); after a gap of several versions, a
    ///   rehydration or a recovery — or if the record disagrees with the
    ///   entry — the version is folded in full. If the hub's cross-tenant
    ///   intern table holds a model of identical provenance, it is shared.
    ///   Otherwise the entry's model is refreshed from the fold difference
    ///   ([`refresh_folded`](bgkanon_knowledge::PriorEstimator::refresh_folded)),
    ///   across any number of unaudited deltas — in place when no other
    ///   tenant or in-flight reader shares it. The new session starts from
    ///   the entry's risks
    ///   ([`step`](bgkanon_privacy::SharedAuditSession::step)), and only the
    ///   groups under a leaf stamp the entry's version did not have or
    ///   holding a row whose prior the refresh recomputed are solved. An
    ///   interned model, a rehydration (whose leaf stamps restart) or a
    ///   tenant with no entry at this `b′`, which also estimates from
    ///   scratch, solves every group;
    /// * a reader still holding an older version than the entry's audits
    ///   through a one-off session and leaves the entry alone.
    ///
    /// Every path is bit-identical to a fresh [`Auditor`] of the version.
    /// The intern table lets a fleet of tenants with common background
    /// knowledge pay for one model, not one per tenant.
    ///
    /// A NaN, infinite or non-positive `b′` is a
    /// [`SessionError::Bandwidth`].
    pub fn audit_against(
        &self,
        tenant: &str,
        b_prime: f64,
        t: f64,
    ) -> Result<AuditReport, SessionError> {
        let entry = self.tenant(tenant)?;
        let snapshot = self.resident_snapshot(&entry)?;
        let bandwidth = Bandwidth::uniform(b_prime, snapshot.table().qi_count())?;
        let shared =
            entry
                .readers
                .adversary(&snapshot.target(), bandwidth, Some(self), Parallelism::Auto);
        let report = snapshot.target().audit(&shared, t);
        self.recount_readers(&entry);
        self.maybe_evict(Some(&entry.name));
        Ok(report)
    }

    /// The hub's memory gauges: rolled-up resident bytes, residency
    /// counts, eviction/rehydration totals, and the intern table's size
    /// and hit counters.
    pub fn memory_stats(&self) -> MemoryStats {
        let (interned_models, interned_bytes, intern_hits, intern_misses) = {
            let interned = relock(self.interned.lock());
            let mut models = 0usize;
            let mut bytes = 0usize;
            for e in &interned.entries {
                if let Some(adversary) = e.adversary.upgrade() {
                    models += 1;
                    bytes += adversary.bytes_accounted()
                        + adversary.prior_model().map_or(0, |m| m.bytes_accounted());
                }
            }
            (models, bytes, interned.hits, interned.misses)
        };
        let mut resident_tenants = 0usize;
        let mut evicted_tenants = 0usize;
        for s in &self.shards {
            let tenants = relock(s.tenants.lock());
            // bgk-allow: R3 order-independent residency counters
            for t in tenants.values() {
                if t.snapshot_opt().is_some() {
                    resident_tenants += 1;
                } else {
                    evicted_tenants += 1;
                }
            }
        }
        MemoryStats {
            resident_bytes: self.resident.load(Ordering::Relaxed),
            budget_bytes: self.effective_budget(),
            resident_tenants,
            evicted_tenants,
            evictions: self.evictions.load(Ordering::Relaxed),
            rehydrations: self.rehydrations.load(Ordering::Relaxed),
            interned_models,
            interned_bytes,
            intern_hits,
            intern_misses,
        }
    }

    /// The budget this hub evicts against, whichever way it was configured.
    fn effective_budget(&self) -> Option<usize> {
        self.durability
            .as_ref()
            .and_then(|d| d.options.max_resident_bytes)
            .or(self.budget)
    }

    /// Stamp the tenant's last-touch clock (LRU eviction order).
    fn touch(&self, entry: &Tenant) {
        entry.last_touch.store(
            self.touch_clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Move `slot` to `new` bytes and roll the delta into the hub gauge.
    fn charge(&self, slot: &AtomicUsize, new: usize) {
        let old = slot.swap(new, Ordering::Relaxed);
        if new >= old {
            self.resident.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.resident.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Re-read the tenant's shared reader-cache bytes
    /// ([`ReaderCaches::bytes_accounted`]: a sum of per-session running
    /// totals, no walk over cache entries).
    fn recount_readers(&self, entry: &Tenant) {
        self.charge(&entry.reader_bytes, entry.readers.bytes_accounted());
    }

    /// The tenant's current snapshot, rehydrating a demoted tenant first.
    fn resident_snapshot(&self, entry: &Arc<Tenant>) -> Result<Arc<TenantSnapshot>, SessionError> {
        self.touch(entry);
        if let Some(snapshot) = entry.snapshot_opt() {
            return Ok(snapshot);
        }
        let snapshot = {
            let mut state = relock(entry.writer.lock());
            self.rehydrate_locked(entry, &mut state)?
        };
        self.maybe_evict(Some(&entry.name));
        Ok(snapshot)
    }

    /// With the tenant's writer lock held, make it resident: a no-op for a
    /// resident tenant, otherwise a recovery from the durable form —
    /// checkpoint + WAL-tail replay through [`crate::recover`], WAL
    /// descriptor reopened, snapshot republished. Recovery replays exactly
    /// the acked delta sequence, so the rehydrated tenant is bit-identical
    /// to one that was never demoted.
    fn rehydrate_locked(
        &self,
        entry: &Tenant,
        state: &mut TenantState,
    ) -> Result<Arc<TenantSnapshot>, SessionError> {
        if let TenantState::Resident(session) = state {
            if let Some(snapshot) = entry.snapshot_opt() {
                return Ok(snapshot);
            }
            let snapshot = Arc::new(Self::snapshot_of(&entry.name, session));
            *relock(entry.published.write()) = Some(Arc::clone(&snapshot));
            return Ok(snapshot);
        }
        let (Some(wal_slot), Some(durability)) = (&entry.wal, &self.durability) else {
            return Err(SessionError::Durability(format!(
                "tenant `{}` was demoted but has no durable form to rehydrate from",
                entry.name
            )));
        };
        let recovered = {
            let mut wal = relock(wal_slot.lock());
            let recovered =
                recover::recover_tenant_dir(&wal.dir, &durability.options).map_err(|reason| {
                    SessionError::Durability(format!(
                        "rehydrating tenant `{}` failed: {reason}",
                        entry.name
                    ))
                })?;
            let writer = recover::reopen_wal(&wal.dir, durability.options.sync).map_err(|e| {
                SessionError::Durability(format!(
                    "rehydrating tenant `{}`: could not reopen wal.log: {e}",
                    entry.name
                ))
            })?;
            wal.writer = Some(writer);
            wal.since_checkpoint = recovered.replayed as u64;
            wal.healthy = true;
            recovered
        };
        debug_assert_eq!(recovered.name, entry.name, "tenant directory mismatch");
        let snapshot = Arc::new(Self::snapshot_of(&entry.name, &recovered.session));
        self.charge(
            &entry.session_bytes,
            recovered.session.bytes_accounted() + snapshot.bytes_accounted(),
        );
        *state = TenantState::Resident(Box::new(recovered.session));
        *relock(entry.published.write()) = Some(Arc::clone(&snapshot));
        self.rehydrations.fetch_add(1, Ordering::Relaxed);
        Ok(snapshot)
    }

    /// When a budget is configured and the resident gauge exceeds it,
    /// demote the coldest tenants (ascending last-touch stamp) until the
    /// gauge is back under the low watermark (⅞ of the budget). `keep`
    /// names the tenant driving the current operation — it is never
    /// demoted, and a tenant whose writer lock is contended is skipped
    /// rather than waited on, so eviction never blocks serving threads.
    fn maybe_evict(&self, keep: Option<&str>) {
        let Some(budget) = self.effective_budget() else {
            return;
        };
        if self.resident.load(Ordering::Relaxed) <= budget {
            return;
        }
        let low = budget - budget / 8;
        let mut candidates: Vec<(u64, String, Arc<Tenant>)> = Vec::new();
        for s in &self.shards {
            let tenants = relock(s.tenants.lock());
            // bgk-allow: R3 candidates are sorted by (touch, name) below
            for t in tenants.values() {
                if keep.is_some_and(|k| k == t.name) {
                    continue;
                }
                candidates.push((
                    t.last_touch.load(Ordering::Relaxed),
                    t.name.clone(),
                    Arc::clone(t),
                ));
            }
        }
        candidates.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (_, _, tenant) in &candidates {
            if self.resident.load(Ordering::Relaxed) <= low {
                break;
            }
            self.demote(tenant);
        }
    }

    /// Demote one tenant: flush its durable form and drop the in-memory
    /// session, snapshot, caches and WAL descriptor (in-memory hubs trim
    /// caches instead — there is no durable form to fall back to). Best
    /// effort: a contended writer, an unhealthy WAL, or a failed
    /// checkpoint flush leaves the tenant resident.
    fn demote(&self, entry: &Tenant) {
        // try_lock, never lock: a tenant whose writer is held is mid-apply
        // — the opposite of cold — and eviction must not stall it.
        let Ok(mut state) = entry.writer.try_lock() else {
            return;
        };
        let TenantState::Resident(session) = &mut *state else {
            return;
        };
        let demoted = match &entry.wal {
            Some(wal) => {
                let mut wal = relock(wal.lock());
                if !wal.healthy {
                    // An unhealthy WAL means the session may be ahead of
                    // the log; only a full reopen may reconcile them.
                    return;
                }
                if wal.since_checkpoint > 0
                    && self
                        .durability
                        .as_ref()
                        .is_some_and(|d| d.options.checkpoint_every > 0)
                {
                    // Flush a checkpoint so rehydration resumes fast
                    // instead of replaying the whole WAL tail. With
                    // checkpointing disabled this is skipped and
                    // rehydration replays the tail — same bits, slower.
                    let seq = session.deltas_applied() as u64;
                    let sync = self
                        .durability
                        .as_ref()
                        .map(|d| d.options.sync)
                        .unwrap_or(crate::wal::SyncPolicy::Always);
                    let rotated = recover::write_checkpoint(&wal.dir, seq, session)
                        .and_then(|()| recover::rotate_wal(&wal.dir, seq, sync));
                    match rotated {
                        Ok(writer) => {
                            wal.writer = Some(writer);
                            wal.since_checkpoint = 0;
                        }
                        Err(_) => return,
                    }
                }
                wal.writer = None;
                true
            }
            None => {
                // In-memory hub: the table and strategy state have nowhere
                // to go; shed the rebuildable state (audit caches).
                session.evict_audit_caches();
                false
            }
        };
        if demoted {
            *state = TenantState::Evicted;
            *relock(entry.published.write()) = None;
            self.charge(&entry.session_bytes, 0);
        } else if let TenantState::Resident(session) = &*state {
            let snapshot_bytes = entry.snapshot_opt().map_or(0, |s| s.bytes_accounted());
            self.charge(
                &entry.session_bytes,
                session.bytes_accounted() + snapshot_bytes,
            );
        }
        entry.readers.clear();
        self.charge(&entry.reader_bytes, 0);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot_of(tenant: &str, session: &PublishSession) -> TenantSnapshot {
        TenantSnapshot {
            tenant: tenant.to_owned(),
            version: session.deltas_applied() as u64,
            requirement_name: session.requirement_name().to_owned(),
            table: session.table().clone(),
            anonymized: session.anonymized().clone(),
            stamps: Arc::new(session.leaf_stamps().to_vec()),
            epoch: session.epoch(),
            change: session.change().cloned(),
        }
    }
}

impl AdversaryIntern for SessionHub {
    /// A live interned adversary whose provenance is content-identical to
    /// `(fold, bandwidth, family)`, counted as an intern hit or miss. The
    /// intern lock is held only for the lookup; a miss is followed by an
    /// estimate or refresh outside it and an [`insert`](Self::insert).
    fn find(
        &self,
        fold: &FoldedTable,
        bandwidth: &Bandwidth,
        family: KernelFamily,
    ) -> Option<Arc<Adversary>> {
        let key = intern_key(fold, bandwidth, family);
        let mut interned = relock(self.interned.lock());
        let found = interned.find(key, fold, bandwidth, family);
        if found.is_some() {
            interned.hits += 1;
        } else {
            interned.misses += 1;
        }
        found
    }

    /// Intern a freshly built adversary. First insert wins a race: if
    /// another thread interned the same provenance meanwhile, that
    /// adversary is returned (its priors are bit-identical) so both callers
    /// share it.
    fn insert(&self, adversary: Adversary) -> Arc<Adversary> {
        let adversary = Arc::new(adversary);
        let Some(model) = adversary.prior_model() else {
            return adversary;
        };
        let (fold, bandwidth, family) = (model.folded(), model.bandwidth(), model.family());
        let key = intern_key(fold, bandwidth, family);
        let mut interned = relock(self.interned.lock());
        if let Some(won) = interned.find(key, fold, bandwidth, family) {
            return won;
        }
        interned.insert(key, &adversary);
        adversary
    }
}

impl Default for SessionHub {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SessionHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHub")
            .field("shards", &self.shards.len())
            .field("tenants", &self.len())
            .field("resident_bytes", &self.resident.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readers::{ReaderCache, ReaderKey};
    use bgkanon_data::{adult, DeltaBuilder};
    use bgkanon_privacy::SharedAuditSession;
    use bgkanon_stats::SmoothedJs;

    fn hub_with(tenants: &[(&str, u64)], rows: usize, k: usize) -> SessionHub {
        let hub = SessionHub::new();
        let publisher = Publisher::new().k_anonymity(k);
        for &(name, seed) in tenants {
            hub.register(name, &adult::generate(rows, seed), &publisher)
                .unwrap();
        }
        hub
    }

    /// The from-scratch reference for a k = 4 tenant's `snap`: its
    /// publication must equal a fresh publish, and its audit against a
    /// newly estimated `Adv(b′)` at t = 0.2 by `Auditor::report_reference`
    /// — the §V.A transcription, which shares no code path with the
    /// hub's `SharedAuditSession` — is returned.
    fn fresh_audit(snap: &TenantSnapshot, b_prime: f64) -> AuditReport {
        let table = snap.table();
        Publisher::new()
            .k_anonymity(4)
            .verify(table, snap.anonymized())
            .unwrap();
        let bandwidth = Bandwidth::uniform(b_prime, table.qi_count()).unwrap();
        let measure = SmoothedJs::paper_default(table.schema().sensitive_distance());
        Auditor::new(
            Arc::new(Adversary::kernel(table, bandwidth)),
            Arc::new(measure),
        )
        .report_reference(table, &snap.anonymized().row_groups(), 0.2)
    }

    fn delta_for(table: &Table, deletes: &[usize], inserts: usize, donor_seed: u64) -> Delta {
        let donors = adult::generate(inserts.max(1), donor_seed);
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for &r in deletes {
            b.delete(r);
        }
        for r in 0..inserts {
            b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn hub_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionHub>();
        assert_send_sync::<TenantSnapshot>();
        assert_send_sync::<PublishSession>();
    }

    #[test]
    fn register_snapshot_remove_roundtrip() {
        let hub = hub_with(&[("a", 1), ("b", 2)], 120, 4);
        assert_eq!(hub.len(), 2);
        assert!(!hub.is_empty());
        assert!(hub.contains("a"));
        assert!(!hub.contains("c"));
        let snap = hub.snapshot("a").unwrap();
        assert_eq!(snap.tenant(), "a");
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.len(), 120);
        assert!(!snap.is_empty());
        assert!(snap.group_count() >= 1);
        assert!(snap.requirement_name().contains("4-anonymity"));
        assert_eq!(snap.leaf_stamps().len(), snap.group_count());
        hub.remove("a").unwrap();
        assert!(!hub.contains("a"));
        assert!(matches!(
            hub.snapshot("a"),
            Err(SessionError::UnknownTenant(_))
        ));
        assert!(matches!(
            hub.remove("a"),
            Err(SessionError::UnknownTenant(_))
        ));
        // The pinned snapshot stays valid after removal.
        assert_eq!(snap.len(), 120);
        assert!(format!("{hub:?}").contains("SessionHub"));
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let hub = hub_with(&[("a", 1)], 100, 4);
        let err = hub
            .register(
                "a",
                &adult::generate(100, 3),
                &Publisher::new().k_anonymity(4),
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::TenantExists(_)));
        assert!(err.to_string().contains('a'));
        assert_eq!(hub.len(), 1);
    }

    #[test]
    fn apply_publishes_matching_from_scratch_output() {
        let hub = hub_with(&[("a", 7)], 300, 4);
        let base = hub.snapshot("a").unwrap();
        let d = delta_for(base.table(), &[3, 50, 211], 6, 42);
        let snap = hub.apply("a", &d).unwrap();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.len(), 303);
        // Old snapshot is still the old version, pinned.
        assert_eq!(base.version(), 0);
        assert_eq!(base.len(), 300);
        Publisher::new()
            .k_anonymity(4)
            .verify(snap.table(), snap.anonymized())
            .unwrap();
    }

    #[test]
    fn apply_error_leaves_tenant_intact() {
        let hub = hub_with(&[("a", 7)], 60, 4);
        let base = hub.snapshot("a").unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(base.table().schema()));
        b.delete(60); // out of range
        assert!(matches!(
            hub.apply("a", &b.build()),
            Err(SessionError::Data(_))
        ));
        assert_eq!(hub.snapshot("a").unwrap().version(), 0);
        assert!(matches!(
            hub.apply(
                "missing",
                &DeltaBuilder::new(Arc::clone(base.table().schema())).build()
            ),
            Err(SessionError::UnknownTenant(_))
        ));
    }

    #[test]
    fn audit_with_replays_cache_across_deltas_bit_identically() {
        let hub = hub_with(&[("a", 12)], 300, 4);
        let base = hub.snapshot("a").unwrap();
        let adversary = Arc::new(Adversary::kernel(
            base.table(),
            Bandwidth::uniform(0.3, base.table().qi_count()).unwrap(),
        ));
        let measure: Arc<dyn bgkanon_stats::BeliefDistance> = Arc::new(SmoothedJs::paper_default(
            base.table().schema().sensitive_distance(),
        ));
        let auditor = Auditor::new(adversary, measure);
        let first = hub.audit_with("a", &auditor, 0.2).unwrap();
        let d = delta_for(base.table(), &[5, 42], 4, 77);
        hub.apply("a", &d).unwrap();
        let cached = hub.audit_with("a", &auditor, 0.2).unwrap();
        let snap = hub.snapshot("a").unwrap();
        let reference =
            auditor.report_reference(snap.table(), &snap.anonymized().row_groups(), 0.2);
        assert_eq!(cached.first_difference(&reference), None);
        assert!(first.worst_case >= first.mean);
    }

    /// A caller auditor's entry is bound to one version, and the session of
    /// any later version of the same publishing session starts from its
    /// risks: one delta on or after a gap, only the groups under a stamp
    /// the entry's version lacked are solved. A reader of an older version
    /// gets a one-off session, and an entry of another publishing session
    /// carries nothing.
    #[test]
    fn caller_auditor_entry_carries_risks_by_stamp_across_steps_and_gaps() {
        // Another session first, so that this hub's session has an earlier
        // epoch to fake below.
        let _earlier = hub_with(&[("z", 1)], 40, 4);
        let hub = hub_with(&[("a", 14)], 400, 4);
        let v0 = hub.snapshot("a").unwrap();
        let table = v0.table();
        let auditor = Auditor::new(
            Arc::new(Adversary::kernel(
                table,
                Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
            )),
            Arc::new(SmoothedJs::paper_default(
                table.schema().sensitive_distance(),
            )),
        );
        let key = ReaderKey::External(
            Arc::as_ptr(auditor.adversary()) as usize,
            Arc::as_ptr(auditor.measure()) as *const () as usize,
        );
        let entry = hub.tenant("a").unwrap();
        let cached = || {
            let readers = entry.readers.entries();
            let cache = readers.iter().find(|c| c.key == key).unwrap();
            (cache.version, Arc::clone(&cache.session))
        };
        let audit = |snapshot: &TenantSnapshot| {
            let report = hub.audit_with("a", &auditor, 0.2).unwrap();
            let groups = snapshot.anonymized().row_groups();
            let fresh = auditor.report_reference(snapshot.table(), &groups, 0.2);
            assert_eq!(report.first_difference(&fresh), None);
        };
        // Nonempty groups of `now` under a stamp `then` lacks.
        let renewed = |now: &TenantSnapshot, then: &TenantSnapshot| {
            let old: std::collections::HashSet<u64> = then.leaf_stamps().iter().copied().collect();
            now.anonymized()
                .groups()
                .iter()
                .zip(now.leaf_stamps())
                .filter(|(group, stamp)| !group.rows.is_empty() && !old.contains(stamp))
                .count()
        };
        let nonempty = |snapshot: &TenantSnapshot| {
            let groups = snapshot.anonymized().groups();
            groups.iter().filter(|g| !g.rows.is_empty()).count()
        };
        audit(&v0);
        let (version, session) = cached();
        assert_eq!((version, session.cached_signatures()), (0, nonempty(&v0)));

        // One delta: only the groups under a stamp version 0 lacked.
        let v1 = hub
            .apply("a", &delta_for(table, &[5, 42, 43], 4, 61))
            .unwrap();
        audit(&v1);
        let one = renewed(&v1, &v0);
        assert!(0 < one && one < v1.group_count(), "{one} renewed");
        let (version, session) = cached();
        assert_eq!((version, session.cached_signatures()), (1, one));

        // Two deltas with no audit between them: still only the groups
        // under a stamp version 1 lacked.
        let v2 = hub.apply("a", &delta_for(v1.table(), &[7], 2, 62)).unwrap();
        let v3 = hub
            .apply("a", &delta_for(v2.table(), &[9, 100], 1, 63))
            .unwrap();
        audit(&v3);
        let gap = renewed(&v3, &v1);
        assert!(
            renewed(&v3, &v2) <= gap && gap < nonempty(&v3),
            "{gap} renewed"
        );
        let (version, session) = cached();
        assert_eq!((version, session.cached_signatures()), (3, gap));

        // A reader that pinned version 1 is served by a one-off session,
        // which starts from version 3's risks; the entry stays at version 3.
        let stale = entry.readers.external(&auditor, &v1.target());
        assert!(!Arc::ptr_eq(&stale, &session));
        assert_eq!(stale.cached_signatures(), renewed(&v1, &v3));
        let report = v1.target().audit(&stale, 0.2);
        let groups = v1.anonymized().row_groups();
        let fresh = auditor.report_reference(v1.table(), &groups, 0.2);
        assert_eq!(report.first_difference(&fresh), None);
        let (version, kept) = cached();
        assert_eq!(version, 3);
        assert!(Arc::ptr_eq(&kept, &session));

        // An entry of an earlier publishing session (as a reader that
        // started before a demotion installs it; the resumed session's
        // stamps restart) carries nothing: every group is solved.
        assert!(v3.epoch > 0);
        entry.readers.entries()[0].epoch = v3.epoch - 1;
        let v4 = hub
            .apply("a", &delta_for(v3.table(), &[11], 1, 64))
            .unwrap();
        audit(&v4);
        let (version, session) = cached();
        assert_eq!((version, session.cached_signatures()), (4, nonempty(&v4)));
    }

    #[test]
    fn audit_against_tracks_versions() {
        let hub = hub_with(&[("a", 12)], 250, 4);
        let before = hub.audit_against("a", 0.3, 0.2).unwrap();
        let replay = hub.audit_against("a", 0.3, 0.2).unwrap();
        assert_eq!(before.first_difference(&replay), None);

        let base = hub.snapshot("a").unwrap();
        let d = delta_for(base.table(), &[5, 42, 77], 8, 99);
        hub.apply("a", &d).unwrap();
        let after = hub.audit_against("a", 0.3, 0.2).unwrap();
        // Reference: a from-scratch publish of the evolved table, audited.
        let reference = fresh_audit(&hub.snapshot("a").unwrap(), 0.3);
        assert_eq!(after.first_difference(&reference), None);
        assert!(matches!(
            hub.audit_against("missing", 0.3, 0.2),
            Err(SessionError::UnknownTenant(_))
        ));
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let tenants: Vec<(String, u64)> = (0..4).map(|i| (format!("t{i}"), i as u64)).collect();
        let hub: Arc<SessionHub> = Arc::new(SessionHub::new());
        let publisher = Publisher::new().k_anonymity(4);
        for (name, seed) in &tenants {
            hub.register(name, &adult::generate(150, *seed), &publisher)
                .unwrap();
        }
        // Writers and readers run as shared-pool jobs (R2: no per-call
        // scopes). The jobs must stay pool leaves: `apply` here never
        // reaches a parallel engine (it never touches an adversary model),
        // and snapshot reads are pure — neither submits pool work.
        let mut jobs: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        // One writer per tenant, three deltas each.
        for (name, seed) in tenants.clone() {
            let hub = Arc::clone(&hub);
            jobs.push(Box::new(move || {
                for step in 0..3u64 {
                    let table = hub.snapshot(&name).unwrap().table().clone();
                    let d = delta_for(&table, &[(step as usize) * 2, 40], 2, seed + step);
                    hub.apply(&name, &d).unwrap();
                }
            }));
        }
        // Readers hammer snapshots of every tenant meanwhile.
        for _ in 0..2 {
            let hub = Arc::clone(&hub);
            let tenants = tenants.clone();
            jobs.push(Box::new(move || {
                for round in 0..12 {
                    let (name, _) = &tenants[round % tenants.len()];
                    let snap = hub.snapshot(name).unwrap();
                    // A snapshot is always internally consistent.
                    assert_eq!(snap.leaf_stamps().len(), snap.group_count());
                    let covered: usize = snap.anonymized().groups().iter().map(|g| g.len()).sum();
                    assert_eq!(covered, snap.len());
                }
            }));
        }
        bgkanon_data::shared_pool().run(jobs);
        // Every tenant's final state matches a from-scratch publish.
        for (name, _) in &tenants {
            let snap = hub.snapshot(name).unwrap();
            assert_eq!(snap.version(), 3);
            Publisher::new()
                .k_anonymity(4)
                .verify(snap.table(), snap.anonymized())
                .unwrap();
        }
    }

    #[test]
    fn memory_stats_accounts_resident_tenants() {
        let hub = hub_with(&[("a", 1), ("b", 2)], 150, 4);
        let stats = hub.memory_stats();
        assert_eq!(stats.resident_tenants, 2);
        assert_eq!(stats.evicted_tenants, 0);
        assert_eq!(stats.budget_bytes, None);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.rehydrations, 0);
        // The gauge covers at least both tables' QI codes.
        let floor: usize = ["a", "b"]
            .iter()
            .map(|t| hub.snapshot(t).unwrap().table().bytes_accounted())
            .sum();
        assert!(
            stats.resident_bytes >= floor,
            "gauge {} < table floor {floor}",
            stats.resident_bytes
        );
        // Audit caches grow the gauge; applying a delta re-charges it.
        hub.audit_against("a", 0.3, 0.2).unwrap();
        let after_audit = hub.memory_stats();
        assert!(after_audit.resident_bytes > stats.resident_bytes);
        assert!(format!("{hub:?}").contains("resident_bytes"));
        assert_eq!(stats, stats.clone());
    }

    #[test]
    fn identical_tables_intern_one_adversary_model() {
        // Same seed → identical content → one estimation, one interned
        // model, and bit-identical reports on both tenants.
        let hub = hub_with(&[("a", 9), ("b", 9)], 200, 4);
        let ra = hub.audit_against("a", 0.3, 0.2).unwrap();
        let rb = hub.audit_against("b", 0.3, 0.2).unwrap();
        assert_eq!(ra.first_difference(&rb), None);
        let stats = hub.memory_stats();
        assert_eq!(stats.interned_models, 1);
        assert_eq!(stats.intern_misses, 1);
        assert_eq!(stats.intern_hits, 1);
        assert!(stats.interned_bytes > 0);
        // A different bandwidth is a different provenance — new model.
        hub.audit_against("a", 0.5, 0.2).unwrap();
        assert_eq!(hub.memory_stats().interned_models, 2);
        // A different table content at the same b' must NOT share.
        let hub2 = hub_with(&[("a", 9), ("b", 10)], 200, 4);
        hub2.audit_against("a", 0.3, 0.2).unwrap();
        hub2.audit_against("b", 0.3, 0.2).unwrap();
        let stats2 = hub2.memory_stats();
        assert_eq!(stats2.interned_models, 2);
        assert_eq!(stats2.intern_hits, 0);
    }

    #[test]
    fn adversary_caches_carry_one_entry_per_bandwidth() {
        let hub = hub_with(&[("a", 4)], 200, 4);
        hub.audit_against("a", 0.3, 0.2).unwrap();
        hub.audit_against("a", 0.5, 0.2).unwrap();
        let entry = hub.tenant("a").unwrap();
        let versions = |entry: &Tenant| -> Vec<(ReaderKey, u64)> {
            entry
                .readers
                .entries()
                .iter()
                .map(|c| (c.key, c.version))
                .collect()
        };
        let bits = |b: f64| ReaderKey::Bandwidth(b.to_bits());
        assert!(versions(&entry) == vec![(bits(0.3), 0), (bits(0.5), 0)]);
        // An apply keeps both entries: each is the predecessor the next
        // audit at its b′ refreshes.
        let d = delta_for(hub.snapshot("a").unwrap().table(), &[1], 2, 11);
        hub.apply("a", &d).unwrap();
        assert!(versions(&entry) == vec![(bits(0.3), 0), (bits(0.5), 0)]);
        // Auditing version 1 replaces the 0.3 entry; there is never more
        // than one entry per b′.
        hub.audit_against("a", 0.3, 0.2).unwrap();
        assert!(versions(&entry) == vec![(bits(0.5), 0), (bits(0.3), 1)]);
    }

    #[test]
    fn cohort_delta_resolves_fewer_groups_than_it_publishes() {
        // Replace a cohort of rows inside one narrow age band: the delta
        // dirties a local slice of the partition and of the kernel prior,
        // so the refreshed version carries most groups' risks and solves
        // exactly the rest.
        use bgkanon_knowledge::{PriorEstimator, PriorModel};
        let hub = hub_with(&[("a", 21)], 2000, 4);
        hub.audit_against("a", 0.25, 0.2).unwrap();
        let key = ReaderKey::Bandwidth(0.25f64.to_bits());
        let entry = hub.tenant("a").unwrap();
        let session = |entry: &Tenant| {
            entry
                .readers
                .entries()
                .iter()
                .find(|c| c.key == key)
                .map(|c| Arc::clone(&c.session))
                .unwrap()
        };
        let mut model =
            PriorModel::clone(session(&entry).auditor().adversary().prior_model().unwrap());
        let base = hub.snapshot("a").unwrap();
        let table = base.table();
        let age = table.qi(0)[0];
        let cohort: Vec<usize> = (0..table.len())
            .filter(|&r| table.qi(r)[0] == age)
            .take(10)
            .collect();
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for &r in &cohort {
            b.delete(r);
            b.insert_codes(&table.qi(r), (table.sensitive_value(r) + 1) % 2)
                .unwrap();
        }
        let snap = hub.apply("a", &b.build()).unwrap();
        let report = hub.audit_against("a", 0.25, 0.2).unwrap();
        let solved = session(&entry).cached_signatures();

        // Independently: the points whose prior a refresh of the previous
        // model recomputes, and the groups that carry a new leaf stamp or
        // hold a row on such a point. Exactly those are solved.
        let bandwidth = Bandwidth::uniform(0.25, snap.table().qi_count()).unwrap();
        let (fold, row_points) = FoldedTable::with_row_points(snap.table());
        let dirty = PriorEstimator::new(Arc::clone(snap.table().schema()), bandwidth)
            .refresh_folded(&mut model, fold, Parallelism::Auto);
        let old_stamps: std::collections::HashSet<u64> =
            base.leaf_stamps().iter().copied().collect();
        let expected = snap
            .anonymized()
            .groups()
            .iter()
            .zip(snap.leaf_stamps())
            .filter(|(group, stamp)| {
                !old_stamps.contains(stamp)
                    || group.rows.iter().any(|&r| dirty.contains(row_points[r]))
            })
            .count();
        assert!(expected > 0, "the cohort dirtied no group");
        assert!(
            expected < snap.group_count(),
            "{expected} of {} groups dirty",
            snap.group_count()
        );
        assert_eq!(solved, expected);
        assert_eq!(report.first_difference(&fresh_audit(&snap, 0.25)), None);
    }

    /// Address of the prior model behind tenant `name`'s `Adv(b′)` entry.
    fn adversary_model_addr(hub: &SessionHub, name: &str, b: f64) -> usize {
        let entry = hub.tenant(name).unwrap();
        let readers = entry.readers.entries();
        let cache = readers
            .iter()
            .find(|c| c.key == ReaderKey::Bandwidth(b.to_bits()))
            .unwrap();
        let model = cache.session.auditor().adversary().prior_model().unwrap();
        Arc::as_ptr(model) as usize
    }

    #[test]
    fn unshared_model_is_refreshed_in_place_and_shared_one_is_cloned() {
        let hub = hub_with(&[("solo", 6), ("twin-a", 8), ("twin-b", 8)], 200, 4);
        for name in ["solo", "twin-a", "twin-b"] {
            hub.audit_against(name, 0.3, 0.2).unwrap();
        }
        let solo = adversary_model_addr(&hub, "solo", 0.3);
        let twins = adversary_model_addr(&hub, "twin-a", 0.3);
        assert_eq!(twins, adversary_model_addr(&hub, "twin-b", 0.3));
        for name in ["solo", "twin-a"] {
            let table = hub.snapshot(name).unwrap().table().clone();
            hub.apply(name, &delta_for(&table, &[2, 9], 3, 31)).unwrap();
            hub.audit_against(name, 0.3, 0.2).unwrap();
        }
        // The tenant held the only reference: same allocation, refreshed.
        assert_eq!(adversary_model_addr(&hub, "solo", 0.3), solo);
        // The twin's model was shared: the refresh worked on a clone and
        // the other twin still holds the untouched original.
        assert_ne!(adversary_model_addr(&hub, "twin-a", 0.3), twins);
        assert_eq!(adversary_model_addr(&hub, "twin-b", 0.3), twins);
    }

    #[test]
    fn older_snapshot_reader_does_not_roll_the_entry_back() {
        let hub = hub_with(&[("a", 5)], 300, 4);
        hub.audit_against("a", 0.3, 0.2).unwrap();
        let old = hub.snapshot("a").unwrap();
        let d = delta_for(old.table(), &[4, 80], 3, 19);
        hub.apply("a", &d).unwrap();
        hub.audit_against("a", 0.3, 0.2).unwrap();
        // A reader that pinned version 0 before the apply arrives now.
        let entry = hub.tenant("a").unwrap();
        let bandwidth = Bandwidth::uniform(0.3, old.table().qi_count()).unwrap();
        let stale =
            entry
                .readers
                .adversary(&old.target(), bandwidth, Some(&hub), Parallelism::Auto);
        let report = old.target().audit(&stale, 0.2);
        assert_eq!(report.first_difference(&fresh_audit(&old, 0.3)), None);
        // The cached entry still serves version 1.
        let cached: Vec<u64> = entry.readers.entries().iter().map(|c| c.version).collect();
        assert_eq!(cached, vec![1]);
    }

    #[test]
    fn bad_bandwidths_are_typed_errors() {
        let hub = hub_with(&[("a", 4)], 100, 4);
        for b in [f64::NAN, 0.0, -0.3, f64::INFINITY] {
            assert!(matches!(
                hub.audit_against("a", b, 0.2),
                Err(SessionError::Bandwidth(_))
            ));
        }
        // Nothing was cached for the rejected values.
        assert!(hub.tenant("a").unwrap().readers.entries().is_empty());
    }

    #[test]
    fn in_memory_budget_trims_cold_audit_caches() {
        let hub: SessionHub = SessionHub::with_budget(1);
        let publisher = Publisher::new().k_anonymity(4);
        hub.register("a", &adult::generate(150, 1), &publisher)
            .unwrap();
        hub.register("b", &adult::generate(150, 2), &publisher)
            .unwrap();
        // Every operation overflows the 1-byte budget, so audit caches
        // are shed — but tables and trees stay (nowhere durable to go),
        // tenants stay resident, and results stay bit-identical.
        let first = hub.audit_against("a", 0.3, 0.2).unwrap();
        let again = hub.audit_against("a", 0.3, 0.2).unwrap();
        assert_eq!(first.first_difference(&again), None);
        let stats = hub.memory_stats();
        assert_eq!(stats.budget_bytes, Some(1));
        assert!(stats.evictions > 0);
        assert_eq!(stats.resident_tenants, 2);
        assert_eq!(stats.evicted_tenants, 0);
        assert_eq!(stats.rehydrations, 0);
        assert_eq!(hub.snapshot("a").unwrap().len(), 150);
    }

    /// A copy of tenant `name`'s `Adv(b)` entry (its session shared).
    fn adversary_entry_copy(hub: &SessionHub, name: &str, b: f64) -> ReaderCache {
        let entry = hub.tenant(name).unwrap();
        let readers = entry.readers.entries();
        readers
            .iter()
            .find(|c| c.key == ReaderKey::Bandwidth(b.to_bits()))
            .unwrap()
            .clone()
    }

    #[test]
    fn apply_records_each_version_step_once() {
        let hub = hub_with(&[("a", 3)], 200, 4);
        assert!(hub.snapshot("a").unwrap().change.is_none());
        let d = delta_for(hub.snapshot("a").unwrap().table(), &[2, 9], 3, 5);
        let v1 = hub.apply("a", &d).unwrap();
        let record = v1.change.clone().expect("an apply records its change");
        assert_eq!(record.deleted.len(), 2);
        assert_eq!(record.delta.insert_count(), 3);
        assert!(v1.bytes_accounted() > record.bytes_accounted());
        // An empty delta republishes version 1: the record of how version
        // 1 came about is kept, not replaced by the empty delta.
        let empty = DeltaBuilder::new(Arc::clone(v1.table().schema())).build();
        let again = hub.apply("a", &empty).unwrap();
        assert_eq!(again.version(), 1);
        assert!(Arc::ptr_eq(again.change.as_ref().unwrap(), &record));
        // A rejected delta publishes nothing and leaves the record alone.
        let bad = delta_for(v1.table(), &[v1.len() + 7], 0, 5);
        assert!(hub.apply("a", &bad).is_err());
        let current = hub.snapshot("a").unwrap();
        assert_eq!(current.version(), 1);
        assert!(Arc::ptr_eq(current.change.as_ref().unwrap(), &record));
    }

    #[test]
    fn evolved_fold_needs_a_one_version_step_and_a_matching_record() {
        let hub = hub_with(&[("a", 8), ("b", 9)], 240, 4);
        hub.audit_against("a", 0.3, 0.2).unwrap();
        hub.audit_against("b", 0.3, 0.2).unwrap();
        let v0 = adversary_entry_copy(&hub, "a", 0.3);
        assert_eq!(v0.session.row_points().len(), 240);
        let s0 = hub.snapshot("a").unwrap();
        let d = delta_for(s0.table(), &[0, 50, 51], 4, 13);
        let v1 = hub.apply("a", &d).unwrap();

        // One version behind with a record: the evolved fold and row points
        // equal a fresh fold of version 1.
        let (evolution, row_points) = v0.evolved_fold(&v1.target()).expect("one step");
        let fold = evolution.folded();
        let (fresh, fresh_points) = FoldedTable::with_row_points(v1.table());
        assert!(fold.content_eq(&fresh));
        assert_eq!(fold.content_hash(), fresh.content_hash());
        assert_eq!(row_points, fresh_points);

        // Row points of the wrong length: no evolution, no panic.
        let short = ReaderCache {
            session: Arc::new(SharedAuditSession::bound(
                v0.session.auditor().clone(),
                s0.table(),
                &s0.target().group_rows(),
                s0.leaf_stamps(),
                v0.session.row_points()[..10].to_vec(),
                None,
            )),
            ..v0
        };
        assert!(short.evolved_fold(&v1.target()).is_none());

        // A record whose deletes the entry's fold cannot account for (the
        // entry belongs to another table): no evolution, no panic.
        let b_table = hub.snapshot("b").unwrap().table().clone();
        let b_fold = FoldedTable::new(&b_table);
        let a_table = hub.snapshot("a").unwrap().table().clone();
        let foreign_row = (0..a_table.len())
            .find(|&r| b_fold.find(&a_table.qi(r)).is_none())
            .expect("the tables differ");
        let d = delta_for(&a_table, &[foreign_row], 0, 1);
        let v2 = hub.apply("a", &d).unwrap();
        let b_entry = adversary_entry_copy(&hub, "b", 0.3);
        assert!(b_entry.evolved_fold(&v2.target()).is_none());

        // Two versions behind, or no record (a registration snapshot): the
        // caller folds in full.
        assert!(v0.evolved_fold(&v2.target()).is_none());
        let registered = hub.snapshot("b").unwrap();
        assert!(b_entry.evolved_fold(&registered.target()).is_none());

        // Either way the audits match a fresh auditor.
        let report = hub.audit_against("a", 0.3, 0.2).unwrap();
        let fresh = fresh_audit(&hub.snapshot("a").unwrap(), 0.3);
        assert_eq!(report.first_difference(&fresh), None);
    }

    /// After a durable tenant is demoted and rehydrated, its first audit
    /// folds the version in full and binds the entry's session to that
    /// fold's row points. The bound session, an unbound one around the same
    /// auditor and a plain `Auditor::report` all give the same bits.
    #[test]
    fn bound_session_after_rehydration_matches_unbound_and_fresh_reports() {
        let dir = std::env::temp_dir().join(format!(
            "bgkhub-{}-bound-after-rehydration",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions {
            sync: crate::wal::SyncPolicy::Never,
            checkpoint_every: 2,
            verify_on_open: false,
            max_resident_bytes: Some(1),
        };
        let (hub, _) = SessionHub::open_with(&dir, options).unwrap();
        let publisher = Publisher::new().k_anonymity(4);
        hub.register("t0", &adult::generate(220, 41), &publisher)
            .unwrap();
        hub.register("t1", &adult::generate(220, 42), &publisher)
            .unwrap();
        hub.audit_against("t0", 0.3, 0.2).unwrap();
        let table = hub.snapshot("t0").unwrap().table().clone();
        hub.apply("t0", &delta_for(&table, &[3, 70, 71], 4, 43))
            .unwrap();
        // Touching t1 demotes t0 under the 1-byte budget; auditing t0 then
        // rehydrates it with no `Adv(b′)` entry.
        hub.audit_against("t1", 0.3, 0.2).unwrap();
        let rehydrations = hub.memory_stats().rehydrations;
        let report = hub.audit_against("t0", 0.3, 0.2).unwrap();
        assert!(hub.memory_stats().rehydrations > rehydrations);

        let snapshot = hub.snapshot("t0").unwrap();
        let table = snapshot.table();
        let entry = adversary_entry_copy(&hub, "t0", 0.3);
        assert_eq!(entry.version, 1);
        let (_, full_fold_points) = FoldedTable::with_row_points(table);
        assert_eq!(entry.session.row_points(), full_fold_points.as_slice());

        let auditor = entry.session.auditor().clone();
        let groups = snapshot.anonymized().row_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let stamps = snapshot.leaf_stamps();
        let bound = SharedAuditSession::bound(
            auditor.clone(),
            table,
            &slices,
            stamps,
            full_fold_points,
            None,
        )
        .report_groups(table, &slices, Some(stamps), 0.2);
        let unbound = SharedAuditSession::new(auditor.clone()).report_groups(
            table,
            &slices,
            Some(snapshot.leaf_stamps()),
            0.2,
        );
        let plain = auditor.report(table, &groups, 0.2);
        for other in [bound, unbound, plain, fresh_audit(&snapshot, 0.3)] {
            assert_eq!(report.first_difference(&other), None);
        }
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_bytes_charge_the_entry_row_points() {
        let hub = hub_with(&[("a", 2)], 300, 4);
        hub.audit_against("a", 0.3, 0.2).unwrap();
        let entry = hub.tenant("a").unwrap();
        let readers = entry.readers.entries();
        let [cache] = readers.as_slice() else {
            panic!("one Adv(b′) entry");
        };
        // The entry's session owns the row → point array and charges it.
        assert_eq!(cache.session.row_points().len(), 300);
        let unbound = SharedAuditSession::new(cache.session.auditor().clone());
        assert_eq!(unbound.bytes_accounted(), 0);
        let sessions = cache.session.bytes_accounted() + 128;
        assert!(sessions >= 300 * 4 + 128);
        drop(readers);
        assert_eq!(entry.reader_bytes.load(Ordering::Relaxed), sessions);
    }
}
