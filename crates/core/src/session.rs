//! Retained publishing sessions: the incremental republication engine.
//!
//! [`Publisher::publish`] is one-shot — it re-partitions all `n` rows and
//! forgets everything. A [`PublishSession`] keeps the engine state alive
//! between publications of an **evolving** table:
//!
//! * the instantiated privacy requirement (fixed when the session opens —
//!   the publisher's threat model holds still while the data moves);
//! * the retained strategy state (Mondrian's
//!   [`PartitionTree`](bgkanon_anon::PartitionTree), a bucket list, a
//!   generalization-lattice frontier — whichever [`AnyStrategy`] the
//!   publisher's algorithm selects), so a [`Delta`] reworks only what it
//!   dirties through [`AnonymizationStrategy::refresh`];
//! * retained audit caches, one per audit configuration, invalidated by
//!   leaf stamp — an audit after a delta recomputes Ω only for the groups
//!   the delta touched. Externally supplied auditors
//!   ([`audit_with`](PublishSession::audit_with)) embody the caller's
//!   chosen prior model and are never refreshed (the paper's Fig. 1
//!   "reuse the prior across releases" accounting). Session-built
//!   adversaries `Adv(b′)` ([`audit_against`](PublishSession::audit_against))
//!   always reflect the audited table: the first audit after any number of
//!   deltas refreshes the cached prior model from the fold difference
//!   ([`PriorEstimator::refresh_folded`]). When exactly one delta separates
//!   the audit from the previous one, the session's record of that delta
//!   carries the fold and the previous version's risks one step, and only
//!   the groups the delta touched are solved; after a gap of several
//!   deltas the current table is folded in full and every group solved.
//!   `apply` never touches an adversary; the caches are the ones
//!   [`SessionHub`](crate::SessionHub) readers go through, so both share one
//!   implementation. Each configuration also keeps a one-slot report memo
//!   keyed by the session's version (deltas applied) and `t`: from the
//!   second audit of one version at one `t` on, the report is a copy of the
//!   kept one
//!   ([`SharedAuditSession::report_version`](bgkanon_privacy::SharedAuditSession::report_version)).
//!
//! The correctness bar, enforced by `tests/tests/incremental.rs`: after
//! **any** sequence of deltas, [`PublishSession::snapshot`] is bit-identical
//! to a from-scratch [`Publisher::publish`] of the final table, and
//! [`PublishSession::audit_with`] is bit-identical to a fresh audit of that
//! from-scratch publication.
//!
//! [`PriorEstimator::refresh_folded`]: bgkanon_knowledge::PriorEstimator::refresh_folded

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon_anon::{AnonymizationStrategy, AnonymizedTable, AnyState, AnyStrategy, StrategyState};
use bgkanon_data::{Delta, Parallelism, Table};
use bgkanon_knowledge::bandwidth::BandwidthError;
use bgkanon_knowledge::{Bandwidth, DeletedRows};
use bgkanon_privacy::{AuditReport, Auditor, PrivacyRequirement};

use crate::publisher::{whole_table_satisfies, PublishError, PublishOutcome, Publisher};
use crate::readers::{AuditTarget, ReaderCaches, READER_CACHE_CAP};

/// Errors from [`PublishSession::apply`] and the
/// [`SessionHub`](crate::SessionHub) operations built on top of it.
///
/// `SessionError` is a [`std::error::Error`], so it composes with `?` and
/// `Box<dyn Error>` pipelines and exposes its cause chain:
///
/// ```
/// use bgkanon::SessionError;
///
/// let err = SessionError::UnknownTenant("acme".into());
/// assert!(err.to_string().contains("acme"));
/// let boxed: Box<dyn std::error::Error> = Box::new(err);
/// assert!(boxed.source().is_none());
/// ```
#[derive(Debug, Clone)]
pub enum SessionError {
    /// The delta could not be applied to the table (bad row index, invalid
    /// inserted row, or the table would become empty).
    Data(bgkanon_data::DataError),
    /// The post-delta table violates the session's requirement as a whole —
    /// no publication of it exists under this engine.
    Publish(PublishError),
    /// No tenant with this id is registered in the hub.
    UnknownTenant(String),
    /// A tenant with this id is already registered in the hub.
    TenantExists(String),
    /// The durability layer failed: a WAL append or checkpoint write did
    /// not reach stable storage, or a durable open hit an unusable data
    /// directory. The message carries the cause (the variant keeps a
    /// `String` so `SessionError` stays `Clone`).
    Durability(String),
    /// An adversary bandwidth `b′` was NaN, infinite or not positive.
    Bandwidth(BandwidthError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Data(e) => write!(f, "delta rejected: {e}"),
            SessionError::Publish(e) => write!(f, "{e}"),
            SessionError::UnknownTenant(t) => write!(f, "no tenant `{t}` is registered"),
            SessionError::TenantExists(t) => write!(f, "tenant `{t}` is already registered"),
            SessionError::Durability(reason) => write!(f, "durability failure: {reason}"),
            SessionError::Bandwidth(e) => write!(f, "invalid adversary bandwidth: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Data(e) => Some(e),
            SessionError::Publish(e) => Some(e),
            SessionError::Bandwidth(e) => Some(e),
            SessionError::UnknownTenant(_)
            | SessionError::TenantExists(_)
            | SessionError::Durability(_) => None,
        }
    }
}

impl From<bgkanon_data::DataError> for SessionError {
    fn from(e: bgkanon_data::DataError) -> Self {
        SessionError::Data(e)
    }
}

impl From<BandwidthError> for SessionError {
    fn from(e: BandwidthError) -> Self {
        SessionError::Bandwidth(e)
    }
}

impl From<PublishError> for SessionError {
    fn from(e: PublishError) -> Self {
        SessionError::Publish(e)
    }
}

/// One applied delta as the content it changed: the deleted rows' codes,
/// gathered from the pre-delta table, plus the delta itself. A session keeps
/// the record of its last apply and the hub publishes it on the snapshot of
/// that version, so an `Adv(b′)` entry exactly one version behind evolves its
/// fold ([`FoldedTable::evolve`](bgkanon_knowledge::FoldedTable::evolve)) and
/// steps its risks instead of re-folding the table and re-solving every
/// group. O(delta) to build; it copies no table.
#[derive(Debug)]
pub(crate) struct VersionChange {
    pub(crate) deleted: DeletedRows,
    pub(crate) delta: Delta,
}

impl VersionChange {
    /// Heap bytes held (the hub's accounting convention).
    pub(crate) fn bytes_accounted(&self) -> usize {
        let d = self.delta.schema().qi_count();
        self.deleted.bytes_accounted()
            + self.delta.delete_count() * 8
            + self.delta.insert_count() * (d + 1) * 4
            + 64
    }
}

/// A retained publish → audit pipeline over an evolving table.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon::data::DeltaBuilder;
/// use bgkanon::Publisher;
///
/// let table = bgkanon::data::adult::generate(300, 7);
/// let mut session = Publisher::new().k_anonymity(5).open(&table)?;
/// assert_eq!(session.len(), 300);
///
/// // Evolve the table: drop two rows, admit one.
/// let mut delta = DeltaBuilder::new(Arc::clone(table.schema()));
/// delta.delete(17).delete(230);
/// delta.insert_codes(&table.qi(3), table.sensitive_value(3))?;
/// let outcome = session.apply(&delta.build())?;
/// assert_eq!(outcome.anonymized.len(), 299);
///
/// // The session output is bit-identical to republishing from scratch.
/// let fresh = Publisher::new().k_anonymity(5).publish(session.table())?;
/// assert_eq!(
///     outcome.anonymized.group_count(),
///     fresh.anonymized.group_count(),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The session runs the [`AnyStrategy`] its publisher's
/// [`Algorithm`](crate::publisher::Algorithm) selects, dispatching at
/// runtime.
pub struct PublishSession {
    requirement: Arc<dyn PrivacyRequirement>,
    requirement_name: String,
    strategy: AnyStrategy,
    parallelism: Parallelism,
    table: Table,
    state: AnyState,
    anonymized: AnonymizedTable,
    stamps: Vec<u64>,
    /// The record of the delta that produced the current version; `None`
    /// before the first apply and after a resume.
    change: Option<Arc<VersionChange>>,
    readers: ReaderCaches,
    last_elapsed: Duration,
    deltas_applied: usize,
}

impl PublishSession {
    /// Open a session: instantiate `publisher`'s requirements against
    /// `table` (they stay fixed for the session's lifetime), plant the
    /// strategy state and derive the first publication.
    pub fn open(table: &Table, publisher: &Publisher) -> Result<Self, PublishError> {
        let requirement = publisher.instantiate(table)?;
        if !whole_table_satisfies(table, &requirement) {
            return Err(PublishError::Unsatisfiable {
                requirement: requirement.name(),
            });
        }
        let parallelism = publisher.parallelism_knob();
        let strategy = publisher.strategy(&requirement)?;
        let started = Instant::now(); // bgk-allow: R3 telemetry only: elapsed is reported, never branches
        let mut state = strategy.plant_with(table, parallelism)?;
        let last_elapsed = started.elapsed();
        // Amortize the refresh engine's derived caches (e.g. Mondrian's
        // per-node histograms) up front so the first delta runs at
        // steady-state speed.
        strategy.warm(&mut state, table);
        let (anonymized, stamps) = state.snapshot(table);
        Ok(PublishSession {
            requirement_name: requirement.name(),
            requirement,
            strategy,
            parallelism,
            table: table.clone(),
            state,
            anonymized,
            stamps,
            change: None,
            readers: ReaderCaches::default(),
            last_elapsed,
            deltas_applied: 0,
        })
    }

    /// Rebuild a session from recovered durable state ([`crate::recover`]):
    /// a checkpointed `table` + strategy `state` pair and the requirement
    /// re-instantiated from the genesis table. The state is adopted as-is —
    /// no re-partitioning — so the resumed publication is bit-identical to
    /// the one the checkpoint captured; [`AnonymizationStrategy::warm`]
    /// only rebuilds derived refresh caches.
    ///
    /// Audit caches start empty: the first audit at each `b′` estimates
    /// `Adv(b′)` from the resumed table, bit-identically to the session
    /// that wrote the checkpoint.
    pub(crate) fn resume(
        table: Table,
        requirement: Arc<dyn PrivacyRequirement>,
        parallelism: Parallelism,
        strategy: AnyStrategy,
        mut state: AnyState,
        deltas_applied: usize,
    ) -> Self {
        strategy.warm(&mut state, &table);
        let (anonymized, stamps) = state.snapshot(&table);
        PublishSession {
            requirement_name: requirement.name(),
            requirement,
            strategy,
            parallelism,
            table,
            state,
            anonymized,
            stamps,
            change: None,
            readers: ReaderCaches::default(),
            last_elapsed: Duration::ZERO,
            deltas_applied,
        }
    }

    /// Apply one delta: evolve the table, route the changes through the
    /// retained strategy state (reworking only what the delta dirties), and
    /// return the new publication, derived from the previous one where the
    /// strategy can ([`StrategyState::carried_snapshot`]). On error the
    /// session is unchanged and remains usable.
    pub fn apply(&mut self, delta: &Delta) -> Result<PublishOutcome, SessionError> {
        if delta.is_empty() {
            // Identity delta: the current publication is already the answer.
            return Ok(self.snapshot());
        }
        let next = self.table.apply_delta(delta)?;
        if !whole_table_satisfies(&next, &self.requirement) {
            return Err(PublishError::Unsatisfiable {
                requirement: self.requirement.name(),
            }
            .into());
        }
        // The strategy refresh is the last fallible step; its contract
        // leaves the state untouched on error, so a rejected delta (e.g.
        // bucketization losing ℓ-eligibility) leaves the whole session
        // unchanged.
        let started = Instant::now(); // bgk-allow: R3 telemetry only: elapsed is reported, never branches
        self.strategy
            .refresh(&mut self.state, &self.table, &next, delta.deletes())
            .map_err(PublishError::from)?;
        self.last_elapsed = started.elapsed();
        let (anonymized, stamps) =
            self.state
                .carried_snapshot(&next, &self.anonymized, &self.stamps, delta.deletes());
        self.change = DeletedRows::gather(&self.table, delta).map(|deleted| {
            Arc::new(VersionChange {
                deleted,
                delta: delta.clone(),
            })
        });
        self.table = next;
        self.anonymized = anonymized;
        self.stamps = stamps;
        self.deltas_applied += 1;
        Ok(self.snapshot())
    }

    /// The current publication, as a [`PublishOutcome`] (the same shape
    /// [`Publisher::publish`] returns); `elapsed` is the engine time of the
    /// last plant or delta-apply.
    pub fn snapshot(&self) -> PublishOutcome {
        PublishOutcome {
            anonymized: self.anonymized.clone(),
            requirement_name: self.requirement_name.clone(),
            elapsed: self.last_elapsed,
            parallelism: self.parallelism,
        }
    }

    /// The session's current table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The current published partition.
    pub fn anonymized(&self) -> &AnonymizedTable {
        &self.anonymized
    }

    /// The session's strategy (for checkpointing: its
    /// [`name()`](AnonymizationStrategy::name) tags the file).
    pub(crate) fn strategy(&self) -> &AnyStrategy {
        &self.strategy
    }

    /// The retained strategy state (for checkpointing via
    /// `format::checkpoint_text`).
    pub(crate) fn strategy_state(&self) -> &AnyState {
        &self.state
    }

    /// The per-group stamps of the current publication, aligned with
    /// [`anonymized()`](Self::anonymized)`.iter()`. A group's stamp
    /// changes whenever its membership changes and never collides between
    /// distinct memberships, which makes the stamps valid cache tokens for
    /// [`SharedAuditSession`](bgkanon_privacy::SharedAuditSession) — across
    /// deltas, only dirtied groups miss the cache.
    pub fn leaf_stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The record of the delta that produced the current version (kept
    /// across an empty delta, which republishes the version); `None` before
    /// the first apply and after a resume.
    pub(crate) fn change(&self) -> Option<&Arc<VersionChange>> {
        self.change.as_ref()
    }

    /// Name of the requirement fixed at open time.
    pub fn requirement_name(&self) -> &str {
        &self.requirement_name
    }

    /// Rows in the current table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the current table has no rows (never — sessions reject
    /// deltas that would empty the table).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Groups in the current publication.
    pub fn group_count(&self) -> usize {
        self.anonymized.group_count()
    }

    /// Number of deltas applied since the session opened.
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Audit the current publication with `auditor`, through this session's
    /// retained audit cache: groups untouched since the last audit with the
    /// same auditor replay their risks, only dirty groups recompute Ω, and
    /// a third or later audit of one version at one `t` copies the report
    /// the second kept. Bit-identical to a fresh
    /// [`Auditor::report`](bgkanon_privacy::Auditor::report) on the current
    /// table and groups.
    ///
    /// The cache is keyed by the auditor's model *instances* (its
    /// adversary/measure `Arc`s), so pass the same `Auditor` — or clones
    /// sharing its `Arc`s — across calls to actually hit it; an auditor
    /// constructed fresh per call audits at cold-cache cost. The session
    /// retains at most [`MAX_AUDIT_CACHES`](Self::MAX_AUDIT_CACHES)
    /// configurations, evicting the least recently used.
    pub fn audit_with(&mut self, auditor: &Auditor, t: f64) -> AuditReport {
        let shared = self.readers.external(auditor);
        self.target().audit(&shared, t)
    }

    /// Audit against the adversary `Adv(b′)` with threshold `t`, using the
    /// paper's smoothed-JS distance — the session counterpart of
    /// [`PublishOutcome::audit_against`]. The adversary's prior model always
    /// reflects the **current** table: it is estimated at the first call for
    /// each `b′`, and the first call after any number of deltas refreshes
    /// the model from the fold difference — the same carried entry
    /// [`SessionHub::audit_against`](crate::SessionHub::audit_against)
    /// keeps per tenant. One delta after the previous audit, the previous
    /// version's risks are stepped across the delta and only the groups it
    /// touched are solved; after several, every group is. Bit-identical to a
    /// fresh auditor of the current table and publication.
    ///
    /// A NaN, infinite or non-positive `b′` is a [`SessionError::Bandwidth`].
    pub fn audit_against(&mut self, b_prime: f64, t: f64) -> Result<AuditReport, SessionError> {
        let bandwidth = Bandwidth::uniform(b_prime, self.table.qi_count())?;
        let target = self.target();
        let shared = self
            .readers
            .adversary(&target, bandwidth, None, self.parallelism);
        Ok(target.audit(&shared, t))
    }

    /// Most audit configurations retained at once; beyond this the least
    /// recently used cache (and its memos) is dropped, bounding memory for
    /// callers that construct a fresh auditor per call.
    pub const MAX_AUDIT_CACHES: usize = READER_CACHE_CAP;

    /// Heap bytes this session holds resident: the working table, the
    /// strategy state, the current publication, group stamps, the record of
    /// the last delta, and the retained audit caches (risks, kept reports
    /// and row → point arrays, each read from a running total; the
    /// `Adv(b′)` prior models behind them are not counted). The serving hub
    /// rolls this into per-tenant gauges; shared `Arc` payloads are charged
    /// to every holder, making it a deterministic RSS proxy rather than an
    /// allocator-exact figure.
    pub fn bytes_accounted(&self) -> usize {
        self.table.bytes_accounted()
            + self.state.bytes_accounted()
            + self.anonymized.bytes_accounted()
            + self.stamps.len() * 8
            + self.change.as_ref().map_or(0, |c| c.bytes_accounted())
            + self.readers.bytes_accounted()
    }

    /// Drop every retained audit configuration. The demotion hook behind
    /// the serving hub's memory budget: every cache is rebuild-on-miss
    /// (`Adv(b′)` re-estimates from the current table), so subsequent
    /// audits are bit-identical, just cold.
    pub fn evict_audit_caches(&mut self) {
        self.readers.clear();
    }

    /// The current publication as the audit caches see it, with the record
    /// of the delta that produced it.
    fn target(&self) -> AuditTarget<'_> {
        AuditTarget {
            table: &self.table,
            anonymized: &self.anonymized,
            stamps: &self.stamps,
            version: self.deltas_applied as u64,
            change: self.change.as_deref(),
        }
    }
}

impl fmt::Debug for PublishSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishSession")
            .field("strategy", &self.strategy.name())
            .field("requirement", &self.requirement_name)
            .field("rows", &self.table.len())
            .field("groups", &self.anonymized.group_count())
            .field("deltas_applied", &self.deltas_applied)
            .field("audit_caches", &self.readers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy, DeltaBuilder};
    use bgkanon_knowledge::Adversary;
    use bgkanon_stats::SmoothedJs;

    fn delta(table: &Table, deletes: &[usize], inserts: usize, donor_seed: u64) -> Delta {
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
    fn open_matches_publish() {
        let t = adult::generate(400, 3);
        let publisher = Publisher::new().k_anonymity(5);
        let session = publisher.open(&t).unwrap();
        let outcome = publisher.verify(&t, session.anonymized()).unwrap();
        assert_eq!(session.requirement_name(), outcome.requirement_name);
        assert_eq!(session.deltas_applied(), 0);
        assert!(!session.is_empty());
    }

    #[test]
    fn apply_matches_from_scratch_publish() {
        let t = adult::generate(500, 9);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let d = delta(&t, &[3, 77, 141, 298], 10, 42);
        let outcome = session.apply(&d).unwrap();
        publisher
            .verify(session.table(), &outcome.anonymized)
            .unwrap();
        assert_eq!(session.deltas_applied(), 1);
    }

    #[test]
    fn empty_delta_is_identity() {
        let t = adult::generate(200, 4);
        let mut session = Publisher::new().k_anonymity(4).open(&t).unwrap();
        let before = session.snapshot();
        let outcome = session
            .apply(&DeltaBuilder::new(Arc::clone(t.schema())).build())
            .unwrap();
        assert_eq!(
            before.anonymized.first_difference(&outcome.anonymized),
            None
        );
    }

    #[test]
    fn delete_all_is_rejected_and_session_survives() {
        let t = adult::generate(120, 6);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        for r in 0..t.len() {
            b.delete(r);
        }
        let err = session.apply(&b.build()).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Data(bgkanon_data::DataError::EmptyTable)
        ));
        assert!(err.to_string().contains("delta rejected"));
        // The session is untouched and keeps working.
        assert_eq!(session.len(), 120);
        let d = delta(&t, &[0], 0, 1);
        assert!(session.apply(&d).is_ok());
    }

    #[test]
    fn unsatisfiable_delta_is_rejected_before_mutation() {
        // Shrink the table below k: the whole table stops satisfying the
        // requirement, which must surface as Unsatisfiable and leave the
        // session intact.
        let t = adult::generate(30, 6);
        let mut session = Publisher::new().k_anonymity(25).open(&t).unwrap();
        let d = delta(&t, &(0..10).collect::<Vec<_>>(), 0, 1);
        let err = session.apply(&d).unwrap_err();
        assert!(matches!(err, SessionError::Publish(_)));
        assert_eq!(session.len(), 30);
    }

    #[test]
    fn out_of_range_delete_is_rejected() {
        let t = adult::generate(50, 2);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(50);
        let err = session.apply(&b.build()).unwrap_err();
        assert!(matches!(err, SessionError::Data(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn session_audit_matches_fresh_audit() {
        let t = adult::generate(300, 12);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let adversary = Arc::new(Adversary::kernel(
            &t,
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        ));
        let measure: Arc<dyn bgkanon_stats::BeliefDistance> =
            Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let auditor = Auditor::new(adversary, measure);

        let first = session.audit_with(&auditor, 0.2);
        let d = delta(&t, &[5, 42], 4, 77);
        session.apply(&d).unwrap();
        let incremental = session.audit_with(&auditor, 0.2);
        assert_eq!(session.readers.len(), 1);

        let fresh = publisher.publish(session.table()).unwrap();
        let reference = fresh.audit_with(session.table(), &auditor, 0.2);
        assert_eq!(incremental.first_difference(&reference), None);
        // And the pre-delta report was a valid report too.
        assert!(first.worst_case >= first.mean);
    }

    #[test]
    fn audit_against_reuses_the_cached_adversary() {
        let t = toy::hospital_table();
        let mut session = Publisher::new()
            .k_anonymity(3)
            .bt_privacy(0.3, 0.25)
            .open(&t)
            .unwrap();
        let a = session.audit_against(0.3, 0.25).unwrap();
        assert!(a.worst_case <= 0.25 + 1e-9);
        let b = session.audit_against(0.3, 0.25).unwrap();
        assert_eq!(a.first_difference(&b), None);
        session.audit_against(0.5, 0.25).unwrap();
        assert_eq!(session.readers.len(), 2);
    }

    #[test]
    fn audit_against_tracks_the_evolving_table() {
        // The staleness fix: after deltas, audit_against must measure the
        // adversary the *current* table implies — bit-identical to a fresh
        // publish of that table, audited — not the model frozen at open.
        let t = adult::generate(300, 12);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let before = session.audit_against(0.3, 0.2).unwrap();
        assert!(before.worst_case >= before.mean);

        let d = delta(&t, &[5, 42, 77, 130], 8, 99);
        session.apply(&d).unwrap();
        let tracked = session.audit_against(0.3, 0.2).unwrap();

        let fresh = publisher
            .verify(session.table(), session.anonymized())
            .unwrap();
        let reference = fresh.audit_against(session.table(), 0.3, 0.2).unwrap();
        assert_eq!(tracked.first_difference(&reference), None);
        // The carried entry is still a single cache slot.
        assert_eq!(session.readers.len(), 1);
    }

    #[test]
    fn external_auditor_stays_caller_frozen() {
        // audit_with uses the caller's adversary as supplied — the Fig. 1
        // accounting where one estimated prior is reused across releases.
        let t = adult::generate(200, 5);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&t).unwrap();
        let adversary = Arc::new(Adversary::kernel(
            &t,
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        ));
        let measure: Arc<dyn bgkanon_stats::BeliefDistance> =
            Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let auditor = Auditor::new(adversary, measure);
        session.apply(&delta(&t, &[1, 2], 2, 7)).unwrap();
        let incremental = session.audit_with(&auditor, 0.2);
        let fresh = publisher.publish(session.table()).unwrap();
        let reference = fresh.audit_with(session.table(), &auditor, 0.2);
        assert_eq!(incremental.first_difference(&reference), None);
    }

    #[test]
    fn bad_bandwidths_are_typed_errors() {
        let t = adult::generate(80, 4);
        let mut session = Publisher::new().k_anonymity(4).open(&t).unwrap();
        for b in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = session.audit_against(b, 0.2).unwrap_err();
            assert!(matches!(err, SessionError::Bandwidth(_)), "{err}");
            assert!(err.to_string().contains("bandwidth"));
        }
        // Nothing was cached for the rejected values, and a valid b′ still
        // audits.
        assert_eq!(session.readers.len(), 0);
        session.audit_against(0.3, 0.2).unwrap();
        assert_eq!(session.readers.len(), 1);
    }

    #[test]
    fn audit_cache_is_bounded_lru() {
        let t = adult::generate(80, 3);
        let mut session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        // Distinct bandwidths force distinct cache entries.
        for i in 0..(PublishSession::MAX_AUDIT_CACHES + 3) {
            let b = 0.2 + 0.01 * i as f64;
            session.audit_against(b, 0.2).unwrap();
        }
        assert_eq!(session.readers.len(), PublishSession::MAX_AUDIT_CACHES);
        // The most recent entry survived and replays bit-identically.
        let b_last = 0.2 + 0.01 * (PublishSession::MAX_AUDIT_CACHES + 2) as f64;
        let a = session.audit_against(b_last, 0.2).unwrap();
        let b = session.audit_against(b_last, 0.2).unwrap();
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(session.readers.len(), PublishSession::MAX_AUDIT_CACHES);
    }

    #[test]
    fn debug_formats() {
        let t = adult::generate(60, 1);
        let session = Publisher::new().k_anonymity(3).open(&t).unwrap();
        let s = format!("{session:?}");
        assert!(s.contains("PublishSession"));
        assert!(s.contains("mondrian"));
        assert!(s.contains("3-anonymity"));
    }

    #[test]
    fn concrete_strategy_sessions_match_their_publishers() {
        use crate::publisher::Algorithm;
        let t = adult::generate(250, 21);
        let d = delta(&t, &[3, 40, 99], 5, 7);
        for algorithm in [
            Algorithm::Mondrian,
            Algorithm::Bucketize,
            Algorithm::FullDomain,
        ] {
            let publisher = Publisher::new().k_anonymity(3).algorithm(algorithm);
            let mut session = PublishSession::open(&t, &publisher).unwrap();
            assert_eq!(session.strategy().name(), algorithm.name());
            session.apply(&d).unwrap();
            publisher
                .verify(session.table(), session.anonymized())
                .unwrap();
        }
    }

    #[test]
    fn infeasible_strategy_refresh_leaves_the_session_unchanged() {
        use crate::publisher::Algorithm;
        let t = adult::generate(60, 22);
        let publisher = Publisher::new()
            .k_anonymity(3)
            .algorithm(Algorithm::Bucketize);
        let mut session = PublishSession::open(&t, &publisher).unwrap();
        assert_eq!(session.strategy().name(), "bucketize");
        let before = session.snapshot();
        // Flood the table with one sensitive value: 3-anonymity still holds
        // on the whole table (the pre-check passes), but no 3-diverse
        // bucket partition exists any more — the strategy refresh is what
        // rejects the delta.
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        let v = t.sensitive_value(0);
        for _ in 0..(2 * t.len()) {
            b.insert_codes(&t.qi(0), v).unwrap();
        }
        let err = session.apply(&b.build()).unwrap_err();
        assert!(
            matches!(err, SessionError::Publish(PublishError::Infeasible { .. })),
            "{err}"
        );
        assert_eq!(session.len(), 60);
        assert_eq!(session.deltas_applied(), 0);
        assert_eq!(
            before.anonymized.first_difference(session.anonymized()),
            None
        );
        // The session survives and keeps accepting feasible deltas.
        session.apply(&delta(&t, &[0], 0, 5)).unwrap();
    }
}
