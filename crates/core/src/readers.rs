//! Retained audit caches over the versions of one evolving table — the one
//! implementation behind both [`SessionHub`](crate::SessionHub)'s reader
//! audits and [`PublishSession`](crate::PublishSession)'s own.
//!
//! A [`ReaderCaches`] list holds one [`SharedAuditSession`] per audit
//! configuration, least recently used first and capped at
//! [`READER_CACHE_CAP`]:
//!
//! * an externally supplied auditor keeps one session across every version
//!   — the caller's model is frozen by definition, so partition-tree leaf
//!   stamps replay clean groups across deltas
//!   ([`external`](ReaderCaches::external));
//! * the paper's `Adv(b′)` keeps one entry per `b′` and carries it forward:
//!   the first audit of a newer version folds that version (evolving the
//!   entry's fold by the version's change record when there is one),
//!   refreshes the entry's model from the fold difference and replays every
//!   group the change left clean ([`adversary`](ReaderCaches::adversary)).
//!
//! The hub passes its cross-tenant intern table ([`AdversaryIntern`]) and
//! the change record [`SessionHub::apply`](crate::SessionHub::apply) left
//! on each snapshot; a session passes neither and takes the full-fold path.

use std::sync::{Arc, Mutex, PoisonError};

use bgkanon_anon::AnonymizedTable;
use bgkanon_data::{Delta, Parallelism, Table};
use bgkanon_knowledge::{
    Adversary, Bandwidth, DeletedRows, FoldedTable, KernelFamily, PriorEstimator,
};
use bgkanon_privacy::{AuditReport, Auditor, SharedAuditSession};
use bgkanon_stats::SmoothedJs;

/// Audit configurations retained per cache list
/// ([`SessionHub::MAX_READER_CACHES`](crate::SessionHub::MAX_READER_CACHES),
/// [`PublishSession::MAX_AUDIT_CACHES`](crate::PublishSession::MAX_AUDIT_CACHES)).
pub(crate) const READER_CACHE_CAP: usize = 8;

/// Recover a lock from a poisoned peer. The guarded state is kept
/// consistent at every await-free step (a panicking writer leaves either
/// the old or the new state, never a torn one), so continuing past a poison
/// flag is safe — and a serving hub must not let one panicked worker wedge
/// every other tenant.
pub(crate) fn relock<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Key of one retained audit configuration.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum ReaderKey {
    /// Externally supplied auditor: adversary + measure instance
    /// addresses. Valid across versions — the
    /// caller's model is frozen by definition, so stamp hits replay across
    /// deltas (the Fig. 1 "reuse the prior across releases" accounting).
    /// (Addresses are stored as `usize`, not raw pointers: the key is only
    /// ever compared, and a raw-pointer field would make the cache `!Send`.)
    External(usize, usize),
    /// `Adv(b′)`, keyed by the bandwidth bits alone: one entry per `b′`,
    /// carried forward from version to version. The entry's
    /// [`ReaderCache::version`] names the version its model reflects; the
    /// first audit of a newer version refreshes that model and replaces the
    /// entry ([`ReaderCaches::adversary`]).
    Bandwidth(u64),
}

/// One retained audit configuration: the shared session whose caches every
/// audit of this configuration goes through. An `Adv(b′)` entry's session
/// is bound to the row → point array of `version`'s table
/// ([`SharedAuditSession::row_points`]), which is carried to the next
/// version with the fold.
pub(crate) struct ReaderCache {
    pub(crate) key: ReaderKey,
    /// The version an `Adv(b′)` entry's model was estimated or refreshed to
    /// (0 and unused for external auditors).
    pub(crate) version: u64,
    pub(crate) session: Arc<SharedAuditSession>,
}

impl ReaderCache {
    /// The fold and row → point array of `target`'s version, carried from
    /// this entry by the target's change record ([`FoldedTable::evolve`])
    /// — `None`, for the caller's full fold, unless the entry is exactly
    /// one version behind and the record, the entry's fold and its row
    /// points all agree.
    pub(crate) fn evolved_fold(&self, target: &AuditTarget<'_>) -> Option<(FoldedTable, Vec<u32>)> {
        let (deleted, delta) = target.change?;
        if self.version + 1 != target.version {
            return None;
        }
        let model = self.session.auditor().adversary().prior_model()?;
        let evolution = model.folded()?.evolve(deleted, delta)?;
        let row_points = evolution.row_points(self.session.row_points(), delta)?;
        let fold = evolution.into_folded();
        (fold.rows() == target.table.len()).then_some((fold, row_points))
    }
}

/// One published version, as the caches audit it.
pub(crate) struct AuditTarget<'a> {
    pub(crate) table: &'a Table,
    pub(crate) anonymized: &'a AnonymizedTable,
    /// Leaf stamps, aligned with `anonymized.iter()`.
    pub(crate) stamps: &'a [u64],
    /// Number of deltas applied before this version.
    pub(crate) version: u64,
    /// The deleted rows and delta that led from the previous version to
    /// this one, when known.
    pub(crate) change: Option<(&'a DeletedRows, &'a Delta)>,
}

impl AuditTarget<'_> {
    /// The published groups as borrowed row slices, aligned with `stamps`.
    pub(crate) fn group_rows(&self) -> Vec<&[usize]> {
        self.anonymized.iter().map(|g| g.rows).collect()
    }

    /// Audit this version through `shared`, replaying every group it has
    /// already solved — bit-identical to a fresh [`Auditor::report`].
    pub(crate) fn audit(&self, shared: &SharedAuditSession, t: f64) -> AuditReport {
        shared.report_groups(self.table, &self.group_rows(), Some(self.stamps), t)
    }
}

/// A table of `Adv(b′)` adversaries shared across cache lists (the hub's
/// cross-tenant intern table): an adversary whose provenance — fold,
/// bandwidth and kernel family — is content-identical is reused instead of
/// estimated again.
pub(crate) trait AdversaryIntern {
    /// A live adversary of exactly this provenance, if one is held.
    fn find(
        &self,
        fold: &FoldedTable,
        bandwidth: &Bandwidth,
        family: KernelFamily,
    ) -> Option<Arc<Adversary>>;

    /// Hold `adversary`, or return an equal one another caller inserted
    /// first.
    fn insert(&self, adversary: Adversary) -> Arc<Adversary>;
}

/// What a cache list holds for `Adv(b′)`, relative to the version being
/// audited.
enum AdversaryEntry {
    /// A session for exactly this version.
    Current(Arc<SharedAuditSession>),
    /// The entry of an earlier version, taken out of the list: its model
    /// is refreshed to the new version and its clean stamps carried.
    Earlier(ReaderCache),
    /// The list already serves a newer version; this audit runs a one-off
    /// session and leaves the entry alone.
    Newer,
    /// Nothing cached at this `b′`.
    Missing,
}

/// The retained audit configurations of one evolving table, least recently
/// used first. The list lock is only held for lookups and swaps, never
/// across estimation or auditing.
#[derive(Default)]
pub(crate) struct ReaderCaches {
    readers: Mutex<Vec<ReaderCache>>,
}

impl ReaderCaches {
    /// The shared session for an externally supplied `auditor`, built on
    /// first use. Pass the same `Auditor` (or clones sharing its `Arc`s)
    /// to hit it.
    pub(crate) fn external(&self, auditor: &Auditor) -> Arc<SharedAuditSession> {
        let key = ReaderKey::External(
            Arc::as_ptr(auditor.adversary()) as usize,
            Arc::as_ptr(auditor.measure()) as *const () as usize,
        );
        {
            let mut readers = relock(self.readers.lock());
            if let Some(idx) = readers.iter().position(|c| c.key == key) {
                // Move to the back: LRU order for eviction.
                let entry = readers.remove(idx);
                let session = Arc::clone(&entry.session);
                readers.push(entry);
                return session;
            }
        }
        self.install(key, 0, SharedAuditSession::new(auditor.clone()))
    }

    /// The shared `Adv(b′)` session for `target`'s version, with the
    /// paper's smoothed-JS distance:
    ///
    /// * the entry of exactly this version is replayed;
    /// * the first audit of a newer version needs that version's fold. When
    ///   the entry is exactly one version behind and `target` carries its
    ///   change record, the entry's fold and row → point array are evolved
    ///   ([`FoldedTable::evolve`]); otherwise the version is folded in
    ///   full. If `intern` holds a model of identical provenance, it is
    ///   shared. Otherwise the entry's model is refreshed from the fold
    ///   difference ([`PriorEstimator::refresh_folded`]) — in place when
    ///   nothing else shares it — and the groups left clean (same leaf
    ///   stamp, no row whose prior changed) keep their cached risks
    ///   ([`SharedAuditSession::carried`]). Only a list with no entry at
    ///   this `b′` estimates from scratch. Every session built here takes
    ///   the version's row → point array, so a re-solved group reads its
    ///   priors by point;
    /// * an audit of an older version than the entry's runs a one-off
    ///   session and leaves the entry alone.
    ///
    /// Every path is bit-identical to a fresh [`Auditor`] of the version.
    pub(crate) fn adversary(
        &self,
        target: &AuditTarget<'_>,
        bandwidth: Bandwidth,
        intern: Option<&dyn AdversaryIntern>,
        parallelism: Parallelism,
    ) -> Arc<SharedAuditSession> {
        let bits = bandwidth.get(0).to_bits();
        let found = self.adversary_entry(bits, target.version);
        let newer = matches!(found, AdversaryEntry::Newer);
        let earlier = match found {
            AdversaryEntry::Current(session) => return session,
            AdversaryEntry::Earlier(cache) => Some(cache),
            AdversaryEntry::Newer | AdversaryEntry::Missing => None,
        };
        let table = target.table;
        let family = KernelFamily::Epanechnikov;
        let (fold, row_points) = earlier
            .as_ref()
            .and_then(|cache| cache.evolved_fold(target))
            .unwrap_or_else(|| FoldedTable::with_row_points(table));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        let session = if let Some(shared) =
            intern.and_then(|intern| intern.find(&fold, &bandwidth, family))
        {
            SharedAuditSession::with_row_points(Auditor::new(shared, measure), row_points)
        } else {
            let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
            let refreshable = earlier.and_then(|cache| {
                let carry = cache.session.carry_stamps(target.stamps);
                let model = cache
                    .session
                    .auditor()
                    .adversary()
                    .prior_model()
                    .map(Arc::clone);
                // Drop the old entry (and with it, unless another list or
                // an in-flight reader shares them, the old adversary's
                // handle on the model) so the refresh below mutates the
                // model in place instead of cloning it.
                drop(cache);
                model.map(|model| (carry, model))
            });
            let (model, carried) = match refreshable {
                Some((carry, mut model)) => {
                    let dirty =
                        estimator.refresh_folded(Arc::make_mut(&mut model), fold, parallelism);
                    (model, Some((carry, dirty)))
                }
                None => (Arc::new(estimator.estimate_folded(fold, parallelism)), None),
            };
            let label = format!("Adv({bandwidth})");
            let adversary = Adversary::from_model(&label, bandwidth, model);
            let adversary = match intern {
                Some(intern) => intern.insert(adversary),
                None => Arc::new(adversary),
            };
            let auditor = Auditor::new(adversary, measure);
            match carried {
                Some((carry, dirty)) => SharedAuditSession::carried(
                    auditor,
                    carry,
                    &target.group_rows(),
                    target.stamps,
                    row_points,
                    &dirty,
                ),
                None => SharedAuditSession::with_row_points(auditor, row_points),
            }
        };
        if newer {
            Arc::new(session)
        } else {
            self.install(ReaderKey::Bandwidth(bits), target.version, session)
        }
    }

    /// The `Adv(b′)` entry at bandwidth bits `bits`, judged against
    /// `version`. An earlier version's entry is removed from the list and
    /// handed to the caller, who alone refreshes it; a concurrent reader of
    /// the same version finds nothing and estimates instead.
    fn adversary_entry(&self, bits: u64, version: u64) -> AdversaryEntry {
        let mut readers = relock(self.readers.lock());
        let key = ReaderKey::Bandwidth(bits);
        let Some(idx) = readers.iter().position(|c| c.key == key) else {
            return AdversaryEntry::Missing;
        };
        let entry = readers.remove(idx);
        if entry.version == version {
            let session = Arc::clone(&entry.session);
            // Back to the end: LRU order for eviction.
            readers.push(entry);
            AdversaryEntry::Current(session)
        } else if entry.version > version {
            readers.insert(idx, entry);
            AdversaryEntry::Newer
        } else {
            AdversaryEntry::Earlier(entry)
        }
    }

    /// Cache `session` under `key` at `version`, unless an entry another
    /// reader built meanwhile is at least as new — then that entry wins for
    /// its own version, and a `session` for an older version is returned
    /// unretained.
    fn install(
        &self,
        key: ReaderKey,
        version: u64,
        session: SharedAuditSession,
    ) -> Arc<SharedAuditSession> {
        let session = Arc::new(session);
        let mut readers = relock(self.readers.lock());
        if let Some(idx) = readers.iter().position(|c| c.key == key) {
            let existing = &readers[idx];
            if existing.version == version {
                return Arc::clone(&existing.session);
            }
            if existing.version > version {
                return session;
            }
            readers.remove(idx);
        }
        if readers.len() >= READER_CACHE_CAP {
            readers.remove(0);
        }
        readers.push(ReaderCache {
            key,
            version,
            session: Arc::clone(&session),
        });
        session
    }

    /// Number of retained configurations.
    pub(crate) fn len(&self) -> usize {
        relock(self.readers.lock()).len()
    }

    /// Drop every retained configuration. Every cache is rebuild-on-miss,
    /// so later audits are bit-identical, just cold.
    pub(crate) fn clear(&self) {
        relock(self.readers.lock()).clear();
    }

    /// Heap bytes held: each session's caches and row → point array
    /// (4 B/row). The `Adv(b′)` models are not counted here — the hub
    /// charges them to its intern table. The sessions are cloned out under
    /// the brief list guard and summed outside it (each sum takes the
    /// session's own cache lock).
    pub(crate) fn bytes_accounted(&self) -> usize {
        let sessions: Vec<Arc<SharedAuditSession>> = relock(self.readers.lock())
            .iter()
            .map(|c| Arc::clone(&c.session))
            .collect();
        sessions.iter().map(|s| s.bytes_accounted() + 128).sum()
    }

    /// The retained entries, for tests that inspect them.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> std::sync::MutexGuard<'_, Vec<ReaderCache>> {
        relock(self.readers.lock())
    }
}
