//! Retained audit caches over the versions of one evolving table — the one
//! implementation behind both [`SessionHub`](crate::SessionHub)'s reader
//! audits and [`PublishSession`](crate::PublishSession)'s own.
//!
//! A [`ReaderCaches`] list holds one [`SharedAuditSession`] per audit
//! configuration, least recently used first and capped at
//! [`READER_CACHE_CAP`]. Every entry is one kind: a session **bound** to one
//! version, which keeps every risk of it in one row-indexed vector beside
//! each group's rows and leaf stamp. The session of another version starts
//! from the entry's risks, however many deltas lie between them, and solves
//! the groups under a leaf stamp the entry's version lacked. When the version
//! is exactly one delta newer and carries that delta's change record, the
//! entry's risk vector is compacted through the delta's deletes; otherwise
//! each kept group's risks are copied through its rows:
//!
//! * an externally supplied auditor keeps one entry per auditor
//!   ([`external`](ReaderCaches::external)). The caller's model is frozen by
//!   definition, so no other group needs solving;
//! * the paper's `Adv(b′)` keeps one entry per `b′`
//!   ([`adversary`](ReaderCaches::adversary)): the first audit of a newer
//!   version refreshes the entry's model to that version, and also solves
//!   the groups holding a row whose prior the refresh recomputed. On one
//!   step the entry's fold is also stepped across the delta; otherwise the
//!   version is folded in full.
//!
//! An `Adv(b′)` audit under an interned model or for a new `b′`, and an
//! audit with no entry of the same publishing session, solves every group.
//!
//! The hub passes its cross-tenant intern table ([`AdversaryIntern`]); both
//! the hub's snapshots and a session's own audits carry the change record of
//! the session's last apply.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use bgkanon_anon::AnonymizedTable;
use bgkanon_data::{Parallelism, Table};
use bgkanon_knowledge::{
    Adversary, Bandwidth, FoldEvolution, FoldedTable, KernelFamily, PriorEstimator,
};
use bgkanon_privacy::{AuditReport, Auditor, RiskStep, SharedAuditSession};
use bgkanon_stats::SmoothedJs;

use crate::session::VersionChange;

/// Audit configurations retained per cache list
/// ([`SessionHub::MAX_READER_CACHES`](crate::SessionHub::MAX_READER_CACHES),
/// [`PublishSession::MAX_AUDIT_CACHES`](crate::PublishSession::MAX_AUDIT_CACHES)).
pub(crate) const READER_CACHE_CAP: usize = 8;

/// Recover a lock from a poisoned peer: a serving hub must not let one
/// panicked worker wedge every other tenant. This is only as safe as the
/// guarded state. The reader list, the snapshot slot and the intern table
/// are swapped whole, so a panic leaves the old or the new value. A
/// session's strategy state is not: `Mondrian::refresh` can panic halfway
/// and leave a torn tree behind a recovered writer lock (ROADMAP item 5).
pub(crate) fn relock<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Key of one retained audit configuration.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum ReaderKey {
    /// Externally supplied auditor: adversary + measure instance
    /// addresses. One entry per auditor, carried from version to version:
    /// the caller's model is frozen by definition, so a later version
    /// re-solves only the groups under new stamps (the Fig. 1 "reuse the
    /// prior across releases" accounting). (Addresses are stored as
    /// `usize`, not raw pointers: the key is only ever compared, and a
    /// raw-pointer field would make the cache `!Send`.)
    External(usize, usize),
    /// `Adv(b′)`, keyed by the bandwidth bits alone: one entry per `b′`,
    /// carried forward from version to version. The entry's
    /// [`ReaderCache::version`] names the version its model reflects; the
    /// first audit of a newer version refreshes that model and replaces the
    /// entry ([`ReaderCaches::adversary`]).
    Bandwidth(u64),
}

/// One retained audit configuration: the shared session every audit of
/// this configuration goes through, bound to `version`. It keeps that
/// version's risks, groups and leaf stamps, and for `Adv(b′)` the row →
/// point array of its model's fold ([`SharedAuditSession::row_points`]),
/// from which the session of a later version starts.
#[derive(Clone)]
pub(crate) struct ReaderCache {
    pub(crate) key: ReaderKey,
    /// The publishing session whose leaf stamps the session holds
    /// ([`AuditTarget::epoch`]).
    pub(crate) epoch: u64,
    /// The version the session is bound to — for `Adv(b′)`, the one its
    /// model was estimated or refreshed to. A reader of another version
    /// starts from the session's risks when the epochs agree.
    pub(crate) version: u64,
    pub(crate) session: Arc<SharedAuditSession>,
}

impl ReaderCache {
    /// The entry's place in the table's history: its publishing session,
    /// then its version. Epochs grow, so a later pair is a later version.
    fn at(&self) -> (u64, u64) {
        (self.epoch, self.version)
    }

    /// The entry's risks for the session of `target`'s version
    /// ([`SharedAuditSession::step`]), compacted through the target's change
    /// record when the entry is exactly one version behind. `None` from
    /// another publishing session, whose leaf stamps are not the target's.
    fn risk_step(self, target: &AuditTarget<'_>) -> Option<RiskStep> {
        if self.epoch != target.epoch {
            return None;
        }
        let next = target
            .change
            .filter(|_| self.version + 1 == target.version)
            .map(|change| (change.delta.deletes(), target.table.len()));
        self.session.step(next)
    }

    /// The fold of `target`'s version, carried from this entry's by the
    /// target's change record ([`FoldedTable::evolve`]), with the version's
    /// row → point array — `None`, for the caller's full fold, unless the
    /// entry is exactly one version behind and the record, the entry's
    /// fold and its row points all agree.
    pub(crate) fn evolved_fold(
        &self,
        target: &AuditTarget<'_>,
    ) -> Option<(FoldEvolution, Vec<u32>)> {
        let change = target.change?;
        if self.version + 1 != target.version {
            return None;
        }
        let model = self.session.auditor().adversary().prior_model()?;
        let evolution = model.folded().evolve(&change.deleted, &change.delta)?;
        let row_points = evolution.row_points(self.session.row_points(), &change.delta)?;
        (evolution.folded().rows() == target.table.len()).then_some((evolution, row_points))
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
    /// The publishing session the version belongs to, drawn from one
    /// process-wide rising count when the session opens or resumes. Leaf
    /// stamps are unique within one session only (a resumed session's
    /// restart from zero), so risks carry by stamp only between versions of
    /// one epoch.
    pub(crate) epoch: u64,
    /// The record of the delta that led from the previous version to this
    /// one, when known.
    pub(crate) change: Option<&'a VersionChange>,
}

impl AuditTarget<'_> {
    /// The published groups as borrowed row slices, aligned with `stamps`.
    pub(crate) fn group_rows(&self) -> Vec<&[usize]> {
        self.anonymized.iter().map(|g| g.rows).collect()
    }

    /// Audit this version through `shared`: from the session's report memo
    /// when this `(version, t)` was audited through it twice already,
    /// otherwise from the session's risks of the version, or by solving
    /// every group when the session is bound to another one
    /// ([`SharedAuditSession::report_version`]) — bit-identical to a fresh
    /// [`Auditor::report`].
    pub(crate) fn audit(&self, shared: &SharedAuditSession, t: f64) -> AuditReport {
        shared.report_version(
            self.version,
            self.table,
            || self.group_rows(),
            Some(self.stamps),
            t,
        )
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

/// The fold an `Adv(b′)` audit estimates or refreshes its model to: the
/// previous version's carried one delta forward, or the version folded in
/// full.
enum NextFold {
    Evolved(FoldEvolution),
    Full(FoldedTable),
}

impl NextFold {
    fn fold(&self) -> &FoldedTable {
        match self {
            NextFold::Evolved(evolution) => evolution.folded(),
            NextFold::Full(fold) => fold,
        }
    }

    fn into_fold(self) -> FoldedTable {
        match self {
            NextFold::Evolved(evolution) => evolution.into_folded(),
            NextFold::Full(fold) => fold,
        }
    }
}

/// The retained audit configurations of one evolving table, least recently
/// used first. The list lock is only held for lookups and swaps, never
/// across estimation or auditing.
#[derive(Default)]
pub(crate) struct ReaderCaches {
    readers: Mutex<ReaderList>,
}

/// What the list lock of a [`ReaderCaches`] guards.
#[derive(Default)]
pub(crate) struct ReaderList {
    /// The retained entries, least recently used first.
    entries: Vec<ReaderCache>,
    /// The sessions being built, for the readers that wait for them.
    building: Vec<Building>,
}

/// A caller auditor's session one reader is building
/// ([`ReaderCaches::serve`]): the readers of the same auditor and version
/// wait on `cell` for it.
struct Building {
    key: ReaderKey,
    /// The version's epoch and number ([`ReaderCache::at`]).
    at: (u64, u64),
    cell: Arc<OnceLock<Arc<SharedAuditSession>>>,
}

#[cfg(test)]
impl std::ops::Deref for ReaderList {
    type Target = Vec<ReaderCache>;

    fn deref(&self) -> &Vec<ReaderCache> {
        &self.entries
    }
}

#[cfg(test)]
impl std::ops::DerefMut for ReaderList {
    fn deref_mut(&mut self) -> &mut Vec<ReaderCache> {
        &mut self.entries
    }
}

impl ReaderCaches {
    /// The shared session for an externally supplied `auditor`, bound to
    /// `target`'s version ([`SharedAuditSession::bound`]). Pass the same
    /// `Auditor` (or clones sharing its `Arc`s) to hit it. The caller's
    /// model is frozen, so no prior moves across a delta and priors resolve
    /// by QI.
    ///
    /// * The entry of exactly this version is returned as it is.
    /// * Otherwise the version's session starts from the entry's risks,
    ///   however many deltas lie between them, and only the groups under a
    ///   leaf stamp the entry's version lacked are solved
    ///   ([`SharedAuditSession::step`]). One reader builds the version's
    ///   session; concurrent readers of the version wait for it.
    /// * With no entry of this publishing session, every group is solved.
    /// * A session for an older version than the entry's is a one-off and
    ///   leaves the entry alone.
    pub(crate) fn external(
        &self,
        auditor: &Auditor,
        target: &AuditTarget<'_>,
    ) -> Arc<SharedAuditSession> {
        let key = ReaderKey::External(
            Arc::as_ptr(auditor.adversary()) as usize,
            Arc::as_ptr(auditor.measure()) as *const () as usize,
        );
        self.serve(key, target, |entry| {
            let step = entry.and_then(|cache| cache.risk_step(target));
            SharedAuditSession::bound(
                auditor.clone(),
                target.table,
                &target.group_rows(),
                target.stamps,
                Vec::new(),
                step.map(|step| (step, None)),
            )
        })
    }

    /// The shared `Adv(b′)` session for `target`'s version, with the
    /// paper's smoothed-JS distance, bound to that version
    /// ([`SharedAuditSession::bound`]): it is built with every risk of the
    /// version solved, so the audit that built it only assembles a report.
    ///
    /// * The entry of exactly this version is returned as it is.
    /// * The first audit of a newer version needs that version's fold and
    ///   model. When the entry is exactly one version behind and `target`
    ///   carries its change record, the entry's fold and row → point array
    ///   are evolved ([`FoldedTable::evolve`]) and its risk vector is
    ///   compacted through the delta's deletes; otherwise the version is
    ///   folded in full. If `intern` holds a model of identical provenance,
    ///   it is shared and every group is solved. Otherwise the entry's model
    ///   is refreshed from the fold difference
    ///   ([`PriorEstimator::refresh_folded`]) — in place when nothing else
    ///   shares it — and the session starts from the entry's risks
    ///   ([`SharedAuditSession::step`]): only the groups under a leaf stamp
    ///   the entry's version lacked or holding a row whose prior the refresh
    ///   recomputed are solved. With no entry at this `b′`, the model is
    ///   estimated from scratch and every group solved.
    /// * An audit of an older version than the entry's runs a one-off
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
        let key = ReaderKey::Bandwidth(bandwidth.get(0).to_bits());
        self.serve(key, target, |entry| {
            adversary_session(target, entry, bandwidth, intern, parallelism)
        })
    }

    /// The session under `key` for `target`'s version. The entry of exactly
    /// this version is returned as it is. Otherwise `build` makes one from
    /// what it is handed, and the session it builds is installed unless the
    /// entry is newer, which makes it a one-off that leaves the entry
    /// alone.
    ///
    /// A caller auditor's entry is handed over as a copy and stays listed.
    /// One reader builds each version's session from it, and every other
    /// reader of the version that arrives meanwhile waits for that session
    /// instead of building its own. The wait cannot stall the engine pool:
    /// such a build runs on the builder's own thread and submits no pool
    /// work.
    ///
    /// An `Adv(b′)` entry is handed over only when it is older, and is then
    /// taken out of the list: its builder alone refreshes the entry's model,
    /// in place, and a concurrent reader of the same version finds nothing
    /// and builds in full.
    fn serve(
        &self,
        key: ReaderKey,
        target: &AuditTarget<'_>,
        build: impl FnOnce(Option<ReaderCache>) -> SharedAuditSession,
    ) -> Arc<SharedAuditSession> {
        let at = (target.epoch, target.version);
        let (entry, cell, keep) = {
            let mut list = relock(self.readers.lock());
            let found = list.entries.iter().position(|c| c.key == key);
            let pending = list.building.iter().find(|b| b.key == key && b.at == at);
            match (found, key) {
                (Some(idx), _) if list.entries[idx].at() == at => {
                    // Move to the back: LRU order for eviction.
                    let entry = list.entries.remove(idx);
                    let session = Arc::clone(&entry.session);
                    list.entries.push(entry);
                    return session;
                }
                _ if pending.is_some() => (None, pending.map(|b| Arc::clone(&b.cell)), true),
                (Some(idx), ReaderKey::External(..)) if list.entries[idx].at() > at => {
                    (Some(list.entries[idx].clone()), None, false)
                }
                (Some(idx), ReaderKey::Bandwidth(_)) if list.entries[idx].at() > at => {
                    (None, None, false)
                }
                (_, ReaderKey::External(..)) => {
                    let entry = found.map(|idx| list.entries[idx].clone());
                    let cell = Arc::new(OnceLock::new());
                    // A build of an older version is superseded.
                    list.building.retain(|b| b.key != key || b.at > at);
                    list.building.push(Building {
                        key,
                        at,
                        cell: Arc::clone(&cell),
                    });
                    (entry, Some(cell), true)
                }
                (_, ReaderKey::Bandwidth(_)) => {
                    (found.map(|idx| list.entries.remove(idx)), None, true)
                }
            }
        };
        let session = match cell {
            // A waiter's closure runs only if the builder panicked.
            Some(cell) => Arc::clone(cell.get_or_init(|| Arc::new(build(entry)))),
            None => Arc::new(build(entry)),
        };
        if keep {
            self.install(key, at, session)
        } else {
            session
        }
    }

    /// Cache `session` under `key` at `at` (epoch, version) and retire the
    /// version's build, unless an entry another reader built meanwhile is
    /// at least as new — then that entry wins for its own version, and a
    /// `session` for an older version is returned unretained.
    fn install(
        &self,
        key: ReaderKey,
        at: (u64, u64),
        session: Arc<SharedAuditSession>,
    ) -> Arc<SharedAuditSession> {
        let mut list = relock(self.readers.lock());
        list.building.retain(|b| b.key != key || b.at != at);
        let entries = &mut list.entries;
        if let Some(idx) = entries.iter().position(|c| c.key == key) {
            let existing = &entries[idx];
            if existing.at() == at {
                return Arc::clone(&existing.session);
            }
            if existing.at() > at {
                return session;
            }
            entries.remove(idx);
        }
        if entries.len() >= READER_CACHE_CAP {
            entries.remove(0);
        }
        let (epoch, version) = at;
        entries.push(ReaderCache {
            key,
            epoch,
            version,
            session: Arc::clone(&session),
        });
        session
    }

    /// Number of retained configurations.
    pub(crate) fn len(&self) -> usize {
        relock(self.readers.lock()).entries.len()
    }

    /// Drop every retained configuration. Every cache is rebuild-on-miss,
    /// so later audits are bit-identical, just cold. A build under way
    /// still hands its session to the readers waiting for it.
    pub(crate) fn clear(&self) {
        let mut list = relock(self.readers.lock());
        list.entries.clear();
        list.building.clear();
    }

    /// Heap bytes held: each session's risks, leaf stamps, group rows, kept
    /// report and row → point array. The `Adv(b′)` models are not counted
    /// here — the hub charges them to its intern table. Each of the at most
    /// [`READER_CACHE_CAP`] sessions reports its own figure
    /// ([`SharedAuditSession::bytes_accounted`]), read under the brief list
    /// guard without taking the session's locks.
    pub(crate) fn bytes_accounted(&self) -> usize {
        relock(self.readers.lock())
            .entries
            .iter()
            .map(|c| c.session.bytes_accounted() + 128)
            .sum()
    }

    /// The retained entries, for tests that inspect them.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> std::sync::MutexGuard<'_, ReaderList> {
        relock(self.readers.lock())
    }
}

/// The `Adv(b′)` session for `target`'s version, carried forward from the
/// entry of an `earlier` version when there is one
/// ([`ReaderCaches::adversary`]).
fn adversary_session(
    target: &AuditTarget<'_>,
    earlier: Option<ReaderCache>,
    bandwidth: Bandwidth,
    intern: Option<&dyn AdversaryIntern>,
    parallelism: Parallelism,
) -> SharedAuditSession {
    let table = target.table;
    let family = KernelFamily::Epanechnikov;
    let (next, row_points) = match earlier
        .as_ref()
        .and_then(|cache| cache.evolved_fold(target))
    {
        Some((evolution, row_points)) => (NextFold::Evolved(evolution), row_points),
        None => {
            let (fold, row_points) = FoldedTable::with_row_points(table);
            (NextFold::Full(fold), row_points)
        }
    };
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let groups = target.group_rows();
    let bind = |auditor, previous| {
        SharedAuditSession::bound(auditor, table, &groups, target.stamps, row_points, previous)
    };
    if let Some(shared) = intern.and_then(|intern| intern.find(next.fold(), &bandwidth, family)) {
        bind(Auditor::new(shared, measure), None)
    } else {
        let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
        let refreshable = earlier.and_then(|cache| {
            let model = cache
                .session
                .auditor()
                .adversary()
                .prior_model()
                .map(Arc::clone);
            // Release the old session (and with it, unless another list
            // or an in-flight reader shares them, the old adversary's
            // handle on the model) so the refresh below mutates the
            // model in place instead of cloning it; its risks come along.
            let step = cache.risk_step(target);
            model.map(|model| (model, step))
        });
        let (model, stepped) = match refreshable {
            Some((mut model, step)) => {
                let target_model = Arc::make_mut(&mut model);
                let dirty = match next {
                    NextFold::Evolved(evolution) => {
                        estimator.refresh_evolved(target_model, evolution, parallelism)
                    }
                    NextFold::Full(fold) => {
                        estimator.refresh_folded(target_model, fold, parallelism)
                    }
                };
                (model, step.map(|step| (step, dirty)))
            }
            None => {
                let model = estimator.estimate_folded(next.into_fold(), parallelism);
                (Arc::new(model), None)
            }
        };
        let label = format!("Adv({bandwidth})");
        let adversary = Adversary::from_model(&label, bandwidth, model);
        let adversary = match intern {
            Some(intern) => intern.insert(adversary),
            None => Arc::new(adversary),
        };
        let (step, dirty) = stepped.unzip();
        bind(
            Auditor::new(adversary, measure),
            step.zip(dirty.as_ref().map(Some)),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use bgkanon_knowledge::{Adversary, Bandwidth};
    use bgkanon_privacy::{Auditor, SharedAuditSession};
    use bgkanon_stats::SmoothedJs;

    use super::{AuditTarget, ReaderCaches, ReaderKey};
    use crate::Publisher;

    /// While one reader builds a caller auditor's session of a version, a
    /// second reader of that version waits for it and gets the same session:
    /// its own build never runs.
    #[test]
    fn a_reader_of_a_version_being_built_waits_for_that_build() {
        let table = bgkanon_data::adult::generate(120, 5);
        let session = Publisher::new().k_anonymity(4).open(&table).unwrap();
        let target = AuditTarget {
            table: session.table(),
            anonymized: session.anonymized(),
            stamps: session.leaf_stamps(),
            version: 0,
            epoch: session.epoch(),
            change: None,
        };
        let auditor = Auditor::new(
            Arc::new(Adversary::kernel(
                &table,
                Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
            )),
            Arc::new(SmoothedJs::paper_default(
                table.schema().sensitive_distance(),
            )),
        );
        let caches = ReaderCaches::default();
        let key = ReaderKey::External(1, 2);
        let (started, building) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (caches, target, auditor) = (&caches, &target, &auditor);
        // bgk-allow: R2 two readers that block on each other; pool jobs may share one worker
        let (built, waited) = std::thread::scope(|scope| {
            let builder = scope.spawn(move || {
                caches.serve(key, target, |_| {
                    started.send(()).unwrap();
                    released.recv().unwrap();
                    let groups = target.group_rows();
                    SharedAuditSession::bound(
                        auditor.clone(),
                        target.table,
                        &groups,
                        target.stamps,
                        Vec::new(),
                        None,
                    )
                })
            });
            building.recv().unwrap();
            let waiter = scope.spawn(move || {
                caches.serve(key, target, |_| panic!("a second build of the version"))
            });
            // Let the waiter reach the build before it finishes.
            std::thread::sleep(Duration::from_millis(50));
            release.send(()).unwrap();
            (builder.join().unwrap(), waiter.join().unwrap())
        });
        assert!(Arc::ptr_eq(&built, &waited));
        assert_eq!(caches.len(), 1);
    }
}
