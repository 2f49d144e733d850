//! Auditing a published grouping against an adversary — the probabilistic
//! background-knowledge attack of §V.A.
//!
//! Given the original table, the published partition into groups, and an
//! adversary profile, the [`Auditor`] computes every tuple's disclosure risk
//! `D[Ppri, Ppos]` and reports the worst case plus the number of
//! **vulnerable tuples** (risk above the threshold `t`) — the quantity
//! plotted in Fig. 1.
//!
//! Two paths compute the same risks, bit for bit:
//!
//! * [`Auditor::tuple_risks_reference`] / [`Auditor::report_reference`] —
//!   the per-group **reference** path, a direct transcription of §V.A: one
//!   prior lookup and one posterior per row;
//! * [`Auditor::tuple_risks_with`] / [`Auditor::report_with`] — the
//!   **batched** engine: groups are distributed over worker jobs on the
//!   process-wide [`shared_pool`](bgkanon_data::shared_pool)
//!   that share the one `Arc<Adversary>` prior model, and the Ω-estimate
//!   and the distance run through the group-risk kernel the (B,t) checks
//!   share, with per-worker scratch buffers. One worker
//!   ([`Parallelism::Serial`], and so [`Auditor::report`]) runs on the
//!   calling thread over the borrowed groups. Risks are bit-identical to
//!   the reference path; `tests/tests/parallel.rs` asserts this.
//!
//! The engine and [`SharedAuditSession`] handle a group the same way:
//! **prepare** (resolve each
//! member's prior and the sensitive histogram), **solve** (the group-risk
//! kernel, which evaluates each distinct prior of the group once) and emit.
//! No cache spans groups. Mondrian and full-domain releases split and
//! generalise on QI values only, so all rows of one QI point — and with
//! them every use of its prior — sit in one group: a cache of solved group
//! contents or of prepared priors never hits there. Only bucketization can
//! split a point across groups; measured on a mixed-strategy serving
//! workload, such caches replayed no `Adv(b′)` group, 6.8% of
//! external-auditor groups and 11% of prepared priors, which did not pay
//! for their hashing, locking and memory.
//! [`SharedAuditSession`] keeps risks only per published group, never by
//! contents: an unbound session's stamp cache is keyed by the group's leaf
//! stamp, and a bound session keeps one version's risks row by row and
//! steps them to the next version by its change record.

use std::collections::hash_map::Entry;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bgkanon_data::hash::{WordMap, WordSet};
use bgkanon_data::{Parallelism, Table};
use bgkanon_inference::{omega_posteriors, GroupPriors};
use bgkanon_knowledge::{Adversary, DirtyPoints, PriorModel};
use bgkanon_stats::measure::BeliefDistance;
use bgkanon_stats::Dist;

use crate::risk::{scan_group_risks, GroupMembers, RiskScratch};

/// How many groups a batch worker claims per scheduling step: large enough
/// to amortize the atomic increment, small enough to balance uneven group
/// sizes.
const GROUP_BATCH: usize = 64;

/// Result of auditing one published table against one adversary.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_knowledge::Adversary;
/// use bgkanon_privacy::Auditor;
/// use bgkanon_stats::SmoothedJs;
///
/// let table = bgkanon_data::toy::hospital_table();
/// let auditor = Auditor::new(
///     Arc::new(Adversary::t_closeness(&table)),
///     Arc::new(SmoothedJs::paper_default(table.schema().sensitive_distance())),
/// );
/// let report = auditor.report(&table, &bgkanon_data::toy::hospital_groups(), 0.1);
/// assert!(report.worst_case >= report.mean);
/// ```
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-row disclosure risk, indexed like the original table.
    pub risks: Vec<f64>,
    /// `max_q D[Ppri, Ppos]` — the worst-case disclosure risk (Fig. 3).
    pub worst_case: f64,
    /// Mean risk across tuples.
    pub mean: f64,
    /// Number of tuples whose risk exceeds the audit threshold (Fig. 1).
    pub vulnerable: usize,
    /// The audit threshold used for `vulnerable`.
    pub threshold: f64,
}

impl AuditReport {
    /// Where `self` and `other` first differ, or `None` when they are the
    /// same report bit for bit: the risk count, then the first row whose
    /// risk bits differ, then `worst_case`, `mean`, `vulnerable` and
    /// `threshold`. Floats compare by bits, so an uncovered row's NaN
    /// equals another NaN and `0.0` differs from `-0.0`. This is the one
    /// definition of "bit-identical audit".
    ///
    /// ```
    /// use std::sync::Arc;
    /// use bgkanon_knowledge::Adversary;
    /// use bgkanon_privacy::{Auditor, RiskDrift};
    /// use bgkanon_stats::SmoothedJs;
    ///
    /// let table = bgkanon_data::toy::hospital_table();
    /// let auditor = Auditor::new(
    ///     Arc::new(Adversary::t_closeness(&table)),
    ///     Arc::new(SmoothedJs::paper_default(table.schema().sensitive_distance())),
    /// );
    /// let report = auditor.report(&table, &bgkanon_data::toy::hospital_groups(), 0.1);
    /// assert_eq!(report.first_difference(&report.clone()), None);
    /// let stricter = auditor.report(&table, &bgkanon_data::toy::hospital_groups(), 0.05);
    /// assert!(matches!(
    ///     report.first_difference(&stricter),
    ///     Some(RiskDrift::Vulnerable(..) | RiskDrift::Threshold(..))
    /// ));
    /// ```
    pub fn first_difference(&self, other: &AuditReport) -> Option<RiskDrift> {
        let (a, b) = (self, other);
        if a.risks.len() != b.risks.len() {
            return Some(RiskDrift::RiskCount(a.risks.len(), b.risks.len()));
        }
        let differs = |x: f64, y: f64| x.to_bits() != y.to_bits();
        if let Some(row) = (0..a.risks.len()).find(|&r| differs(a.risks[r], b.risks[r])) {
            return Some(RiskDrift::Risk(row, a.risks[row], b.risks[row]));
        }
        [
            (
                differs(a.worst_case, b.worst_case),
                RiskDrift::WorstCase(a.worst_case, b.worst_case),
            ),
            (differs(a.mean, b.mean), RiskDrift::Mean(a.mean, b.mean)),
            (
                a.vulnerable != b.vulnerable,
                RiskDrift::Vulnerable(a.vulnerable, b.vulnerable),
            ),
            (
                differs(a.threshold, b.threshold),
                RiskDrift::Threshold(a.threshold, b.threshold),
            ),
        ]
        .into_iter()
        .find_map(|(differ, drift)| differ.then_some(drift))
    }
}

/// Where two audit reports first differ — the verdict of
/// [`AuditReport::first_difference`]. Values read (receiver, argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RiskDrift {
    /// The reports cover different row counts.
    RiskCount(usize, usize),
    /// The first row whose risk bits differ: its index, then the risks.
    Risk(usize, f64, f64),
    /// The worst-case risks differ.
    WorstCase(f64, f64),
    /// The mean risks differ.
    Mean(f64, f64),
    /// The vulnerable-tuple counts differ.
    Vulnerable(usize, usize),
    /// The audit thresholds differ.
    Threshold(f64, f64),
}

/// Replays the attack: prior from the adversary, posterior via the
/// Ω-estimate over each published group (§III.C: exact inference needs
/// matrix permanents and does not scale, so the audit never uses it).
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_data::Parallelism;
/// use bgkanon_knowledge::{Adversary, Bandwidth};
/// use bgkanon_privacy::Auditor;
/// use bgkanon_stats::SmoothedJs;
///
/// let table = bgkanon_data::toy::hospital_table();
/// let adversary = Arc::new(Adversary::kernel(
///     &table,
///     Bandwidth::uniform(0.3, 2).unwrap(),
/// ));
/// let measure = Arc::new(SmoothedJs::paper_default(table.schema().sensitive_distance()));
/// let auditor = Auditor::new(adversary, measure);
/// let groups = bgkanon_data::toy::hospital_groups();
/// // The batched engine returns the same risks as the reference path,
/// // bit for bit.
/// let reference = auditor.report_reference(&table, &groups, 0.25);
/// let batched = auditor.report_with(&table, &groups, 0.25, Parallelism::Auto);
/// assert_eq!(reference.first_difference(&batched), None);
/// ```
#[derive(Clone)]
pub struct Auditor {
    adversary: Arc<Adversary>,
    measure: Arc<dyn BeliefDistance>,
}

impl Auditor {
    /// Build from an adversary profile and a belief-distance measure.
    pub fn new(adversary: Arc<Adversary>, measure: Arc<dyn BeliefDistance>) -> Self {
        Auditor { adversary, measure }
    }

    /// The adversary being simulated.
    pub fn adversary(&self) -> &Arc<Adversary> {
        &self.adversary
    }

    /// The belief-distance measure in use.
    pub fn measure(&self) -> &Arc<dyn BeliefDistance> {
        &self.measure
    }

    /// The row-at-a-time reference path — a direct transcription of §V.A:
    /// one prior lookup and one posterior per row, no memoization. Kept as
    /// the ground truth the faster engines are verified against.
    pub fn tuple_risks_reference(&self, table: &Table, groups: &[Vec<usize>]) -> Vec<f64> {
        let mut risks = vec![f64::NAN; table.len()];
        for rows in groups {
            if rows.is_empty() {
                continue;
            }
            let priors =
                GroupPriors::from_table_rows(table, rows, |qi| self.adversary.prior(qi).clone());
            let posteriors = omega_posteriors(&priors);
            for (j, &row) in rows.iter().enumerate() {
                risks[row] = self.measure.distance(priors.prior(j), &posteriors[j]);
            }
        }
        risks
    }

    /// [`tuple_risks_reference`](Self::tuple_risks_reference) assembled
    /// into a report with vulnerability threshold `t`: the ground truth for
    /// [`report`](Self::report) and [`report_with`](Self::report_with).
    pub fn report_reference(&self, table: &Table, groups: &[Vec<usize>], t: f64) -> AuditReport {
        self.assemble_report(self.tuple_risks_reference(table, groups), t)
    }

    /// Full audit with vulnerability threshold `t`, on one worker on the
    /// calling thread ([`report_with`](Self::report_with) with
    /// [`Parallelism::Serial`]).
    pub fn report(&self, table: &Table, groups: &[Vec<usize>], t: f64) -> AuditReport {
        self.report_with(table, groups, t, Parallelism::Serial)
    }

    /// Disclosure risk of every tuple under the published `groups`
    /// (disjoint row-index sets covering the table) by the batched engine
    /// on `parallelism`'s worker count. Worker jobs on the process-wide
    /// [`shared_pool`](bgkanon_data::shared_pool) claim batches of groups
    /// from an atomic cursor and prepare, solve and emit each group in
    /// their own scratch, sharing this auditor's `Arc<Adversary>` and
    /// nothing else but the cursor. Running on the persistent pool (instead
    /// of a per-call `std::thread::scope`) means a serving process that
    /// audits continuously across many sessions pays thread spawns once,
    /// and concurrent audits interleave on the same workers instead of
    /// oversubscribing the machine. One worker runs on the calling thread,
    /// over the borrowed groups. Risks are bit-identical to
    /// [`tuple_risks_reference`](Self::tuple_risks_reference) for every
    /// worker count.
    pub fn tuple_risks_with(
        &self,
        table: &Table,
        groups: &[Vec<usize>],
        parallelism: Parallelism,
    ) -> Vec<f64> {
        let workers = parallelism.effective_threads();
        let mut risks = vec![f64::NAN; table.len()];
        if workers <= 1 {
            let mut scratch = AuditScratch::default();
            for rows in groups {
                self.audit_group(table, rows, &mut scratch, |row, risk| risks[row] = risk);
            }
            return risks;
        }
        let shared = Arc::new(BatchState {
            // O(1): tables share their row buffers.
            table: table.clone(),
            // One row-list copy per call — the same shape (and cost) the
            // `row_groups()` callers already materialize per audit.
            groups: groups.to_vec(),
            cursor: AtomicUsize::new(0),
        });
        let jobs: Vec<_> = (0..workers)
            .map(|_| {
                let auditor = self.clone();
                let state = Arc::clone(&shared);
                move || auditor.audit_worker(&state)
            })
            .collect();
        for (row, risk) in bgkanon_data::shared_pool().run(jobs).into_iter().flatten() {
            risks[row] = risk;
        }
        risks
    }

    /// Full audit with vulnerability threshold `t` on `parallelism`'s
    /// worker count (see [`tuple_risks_with`](Self::tuple_risks_with)).
    pub fn report_with(
        &self,
        table: &Table,
        groups: &[Vec<usize>],
        t: f64,
        parallelism: Parallelism,
    ) -> AuditReport {
        self.assemble_report(self.tuple_risks_with(table, groups, parallelism), t)
    }

    fn assemble_report(&self, risks: Vec<f64>, t: f64) -> AuditReport {
        let mut worst_case = 0.0f64;
        let mut sum = 0.0f64;
        let mut covered = 0usize;
        let mut vulnerable = 0usize;
        for &r in &risks {
            if r.is_nan() {
                continue;
            }
            covered += 1;
            sum += r;
            worst_case = worst_case.max(r);
            if r > t {
                vulnerable += 1;
            }
        }
        let mean = if covered == 0 {
            0.0
        } else {
            sum / covered as f64
        };
        AuditReport {
            risks,
            worst_case,
            mean,
            vulnerable,
            threshold: t,
        }
    }

    /// One worker of the batched engine: claims group batches and returns
    /// `(row, risk)` pairs for the rows it audited.
    fn audit_worker(&self, state: &BatchState) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::new();
        let mut scratch = AuditScratch::default();
        loop {
            let start = state.cursor.fetch_add(GROUP_BATCH, Ordering::Relaxed);
            if start >= state.groups.len() {
                return out;
            }
            for rows in &state.groups[start..state.groups.len().min(start + GROUP_BATCH)] {
                self.audit_group(&state.table, rows, &mut scratch, |row, risk| {
                    out.push((row, risk));
                });
            }
        }
    }

    /// Resolve a group's priors, prior identities and sensitive histogram
    /// into `scratch`.
    ///
    /// Each member's prior is resolved once, against the shared model:
    /// through `points` — the model and the point of its fold each table
    /// row folds into — when given, by the row's QI codes otherwise. Both
    /// find the very same `Dist`. The model is immutable for the duration
    /// of the audit, so a prior's address identifies it: equal addresses ⇒
    /// the very same `Dist`, which the kernel evaluates once per group.
    fn prepare_group<'a>(
        &'a self,
        table: &Table,
        rows: &[usize],
        points: Option<(&'a PriorModel, &[u32])>,
        scratch: &mut AuditScratch<'a>,
    ) {
        scratch.priors.clear();
        scratch.prior_ids.clear();
        for &r in rows {
            let by_point = points.and_then(|(model, points)| model.point_prior(*points.get(r)?));
            let p = match by_point {
                Some(p) => p,
                None => {
                    table.qi_into(r, &mut scratch.qi_buf);
                    self.adversary.prior(&scratch.qi_buf)
                }
            };
            scratch.priors.push(p);
            scratch.prior_ids.push(std::ptr::from_ref(p) as u64);
        }
        table.sensitive_counts_into(rows, &mut scratch.counts);
    }

    /// Prepare and solve one group of the batched engine, handing each
    /// `(row, risk)` to `emit`. An empty group emits nothing.
    fn audit_group<'a>(
        &'a self,
        table: &Table,
        rows: &[usize],
        scratch: &mut AuditScratch<'a>,
        emit: impl FnMut(usize, f64),
    ) {
        if rows.is_empty() {
            return;
        }
        self.prepare_group(table, rows, None, scratch);
        self.solve_group(rows, scratch, emit);
    }

    /// Prepare and solve every nonempty group that `stale` picks by index
    /// into the row-indexed `risks`, resolving priors as
    /// [`prepare_group`](Self::prepare_group) does. Returns the number of
    /// groups solved.
    fn solve_groups<'a>(
        &'a self,
        table: &Table,
        groups: &[&[usize]],
        points: Option<(&'a PriorModel, &[u32])>,
        risks: &mut [f64],
        mut stale: impl FnMut(usize) -> bool,
    ) -> usize {
        let mut scratch = AuditScratch::default();
        let mut solved = 0;
        for (gi, rows) in groups.iter().enumerate() {
            if rows.is_empty() || !stale(gi) {
                continue;
            }
            self.prepare_group(table, rows, points, &mut scratch);
            self.solve_group(rows, &mut scratch, |row, risk| risks[row] = risk);
            solved += 1;
        }
        solved
    }

    /// Solve the group of `rows` prepared in `scratch` and hand each
    /// `(row, risk)` to `emit`, in row order. Arithmetic mirrors the
    /// reference path exactly.
    fn solve_group(
        &self,
        rows: &[usize],
        scratch: &mut AuditScratch<'_>,
        mut emit: impl FnMut(usize, f64),
    ) {
        let AuditScratch {
            priors,
            prior_ids,
            counts,
            prepared,
            risk,
            ..
        } = scratch;
        let mut members = AuditMembers {
            measure: self.measure.as_ref(),
            priors,
            ids: prior_ids,
            prepared,
        };
        let mut rows = rows.iter();
        let _ = scan_group_risks(self.measure.as_ref(), &mut members, counts, risk, |r| {
            if let Some(&row) = rows.next() {
                emit(row, r);
            }
            ControlFlow::Continue(())
        });
    }
}

/// One audited group's members: its borrowed priors, their address
/// identities, and one buffer the measure prepares a prior into on demand.
/// The kernel asks once per distinct prior of the group, so nothing is
/// prepared twice within a group, and no group reuses another's.
struct AuditMembers<'s, 'a> {
    measure: &'s dyn BeliefDistance,
    priors: &'s [&'a Dist],
    ids: &'s [u64],
    prepared: &'s mut Vec<f64>,
}

impl GroupMembers for AuditMembers<'_, '_> {
    fn len(&self) -> usize {
        self.priors.len()
    }

    fn id(&self, j: usize) -> u64 {
        self.ids[j]
    }

    fn prior(&self, j: usize) -> &Dist {
        self.priors[j]
    }

    fn prepared(&mut self, j: usize) -> &[f64] {
        let prior = self.priors[j].as_slice();
        self.prepared.clear();
        self.prepared.resize(prior.len(), 0.0);
        self.measure.prepare_prior_into(prior, self.prepared);
        self.prepared
    }
}

/// State one batched-engine call shares across its pooled worker jobs. Jobs
/// are `'static`, so the call's inputs move in by value: the table clone is
/// O(1) (shared row buffers) and the auditor clone is two `Arc`s.
struct BatchState {
    table: Table,
    groups: Vec<Vec<usize>>,
    cursor: AtomicUsize,
}

/// Estimated owned heap bytes of one stamp-cache entry: the key word, the
/// shared risk vector payload, and fixed map-entry bookkeeping. An
/// accounting proxy (shared `Arc`s are charged to every holder), not an
/// allocator-exact measurement — the hub's memory budget only needs a
/// consistent, deterministic upper bound.
const CACHE_ENTRY_OVERHEAD: usize = 48;

fn cache_entry_bytes(key_words: usize, risk_count: usize) -> usize {
    key_words * 8 + risk_count * 8 + CACHE_ENTRY_OVERHEAD
}

/// Estimated owned heap bytes of a report kept in a [`ReportMemo`]: its risk
/// vector plus the same fixed bookkeeping as a cache entry.
fn report_bytes(report: &AuditReport) -> usize {
    cache_entry_bytes(0, report.risks.len())
}

/// Per-worker scratch buffers of the batched audit engine, borrowing priors
/// from the shared adversary model for the duration of one audit.
#[derive(Default)]
struct AuditScratch<'a> {
    /// Borrowed priors of the current group, in row order.
    priors: Vec<&'a Dist>,
    /// Address identity of each prior.
    prior_ids: Vec<u64>,
    /// Sensitive histogram of the current group.
    counts: Vec<u32>,
    /// The measure's preparation of the prior under evaluation, `m` values.
    prepared: Vec<f64>,
    /// The group-risk kernel's buffers.
    risk: RiskScratch,
    /// Reused QI gather buffer for per-row prior lookups.
    qi_buf: Vec<u32>,
}

/// One entry of an unbound [`SharedAuditSession`]'s stamp cache, tagged
/// with the generation of the report that last used it so stale entries can
/// be evicted.
struct CacheEntry {
    generation: u64,
    risks: Arc<Vec<f64>>,
}

/// A bound [`SharedAuditSession`]'s risks stepped one delta forward
/// ([`step`](SharedAuditSession::step)), for the session of the next version
/// ([`bound`](SharedAuditSession::bound)): the risk vector compacted through
/// the delta's deletes — survivors keep their order and the inserted rows
/// start as NaN, the row order of [`Table::apply_delta`] — and the set of
/// leaf stamps those risks were solved under. Holding it does not keep the
/// old session or its adversary model alive.
#[derive(Debug)]
pub struct RiskStep {
    risks: Vec<f64>,
    /// Rows of `risks` that survived the delta; the inserted rows follow.
    survivors: usize,
    stamps: WordSet<u64>,
}

/// The stamp cache of an unbound [`SharedAuditSession`].
struct StampCache {
    caches: Mutex<SharedCaches>,
    /// Bytes of every entry ([`cache_entry_bytes`]), changed only under the
    /// `caches` lock.
    bytes: AtomicUsize,
}

/// The entries a [`StampCache`] protects with its `caches` mutex.
struct SharedCaches {
    stamps: WordMap<u64, CacheEntry>,
    generation: u64,
}

/// The bytes of every entry in `caches`, walked one by one: what the
/// cache's running `bytes` total must equal.
fn walked_bytes(caches: &SharedCaches) -> usize {
    caches
        .stamps
        .values() // bgk-allow: R3 order-independent byte sum
        .map(|e| cache_entry_bytes(1, e.risks.len()))
        .sum()
}

impl StampCache {
    /// The cache guard, poison-tolerant: a reader that panicked while
    /// holding it may have left the entries half-updated, so a poisoned lock
    /// is recovered with the entries cleared and the byte total reset. Every
    /// entry is rebuild-on-miss and replays are bit-identical, so the next
    /// report simply recomputes — one panicked reader never wedges the
    /// tenant.
    fn lock(&self) -> MutexGuard<'_, SharedCaches> {
        self.caches.lock().unwrap_or_else(|poisoned| {
            self.caches.clear_poison();
            let mut caches = poisoned.into_inner();
            caches.stamps.clear();
            self.bytes.store(0, Ordering::Relaxed);
            caches
        })
    }
}

/// The one table version a bound [`SharedAuditSession`] audits, with every
/// risk of it.
struct BoundVersion {
    /// The point of the model's fold each row of the version folds into.
    row_points: Vec<u32>,
    /// The version's leaf stamps, aligned with its groups.
    stamps: Vec<u64>,
    /// Every row's risk, indexed like the version's table.
    risks: Vec<f64>,
}

/// What a [`SharedAuditSession`] keeps between reports.
enum Retained {
    /// An unbound session's stamp cache.
    Stamps(StampCache),
    /// A bound session's one version.
    Version(BoundVersion),
}

/// The one-slot report memo of a [`SharedAuditSession`]
/// ([`report_version`](SharedAuditSession::report_version)).
#[derive(Default)]
struct ReportMemo {
    /// `(version, t.to_bits())` of the last audit that claimed the slot.
    key: Option<(u64, u64)>,
    /// The report of `key`, kept from that key's second audit on.
    report: Option<Arc<AuditReport>>,
}

/// The model and row → point array to resolve `table`'s priors through,
/// when `row_points` has one entry per row of `table` and the auditor's
/// model a fold of as many rows.
fn point_priors<'a>(
    auditor: &'a Auditor,
    row_points: &'a [u32],
    table: &Table,
) -> Option<(&'a PriorModel, &'a [u32])> {
    let model = auditor.adversary.prior_model()?;
    let rows = row_points.len();
    let bound = rows == table.len() && model.folded().rows() == rows;
    bound.then_some((model.as_ref(), row_points))
}

/// `risks` of one table version laid out like the next: the entries of the
/// rows `deletes` removes are dropped, the survivors keep their order, and
/// NaN fills up to `rows` for the inserted rows — [`Table::apply_delta`]'s
/// row order. Returns the survivor count with the vector. `None` when
/// `deletes` is not strictly ascending within `risks`, or leaves more than
/// `rows` survivors.
fn compact(mut risks: Vec<f64>, deletes: &[usize], rows: usize) -> Option<(Vec<f64>, usize)> {
    let len = risks.len();
    let (mut kept, mut start) = (0, 0);
    for &end in deletes.iter().chain(std::iter::once(&len)) {
        if end < start || end > len {
            return None;
        }
        risks.copy_within(start..end, kept);
        kept += end - start;
        start = end + 1;
    }
    if kept > rows {
        return None;
    }
    risks.truncate(kept);
    risks.resize(rows, f64::NAN);
    Some((risks, kept))
}

/// One bit per row of a version's table: set for the inserted rows (from
/// `survivors` on) and for every row whose point of the model's fold is
/// `dirty`. Filled a word at a time in one pass over `row_points`.
fn dirty_rows(row_points: &[u32], dirty: &DirtyPoints, survivors: usize) -> Vec<u64> {
    let mut bits: Vec<u64> = row_points
        .chunks(64)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |word, (b, &point)| {
                word | (u64::from(dirty.contains(point)) << b)
            })
        })
        .collect();
    for row in survivors..row_points.len() {
        bits[row / 64] |= 1 << (row % 64);
    }
    bits
}

/// A retained audit state for repeated publications of an evolving table,
/// which **any number of reader threads share through `&self`** — the read
/// path of the serving hub, where audits run concurrently against immutable
/// published snapshots while a writer keeps applying deltas, and the audit
/// cache of a single-owner publishing session. A session is one of two
/// kinds.
///
/// An **unbound** session ([`new`](Self::new)) serves any number of
/// versions with one fixed adversary model — the caller's frozen auditor.
/// Its **stamp cache** replays group risks **bit-identically** to a fresh
/// audit (the values cached are exactly the ones a fresh run computes): an
/// opaque caller-supplied token per group → the group's risks. A stamp must
/// change whenever the group's membership (row set or order) changes and
/// never collide between distinct memberships audited by this session.
/// Partition-tree leaf stamps satisfy this *across versions of an evolving
/// table*, so after a delta only the groups the delta dirtied miss the
/// cache, no matter which reader thread audited the previous version. A
/// missed group is prepared, solved and stamped: no cache keyed by group
/// contents sits behind the stamps (see the [module docs](self) for why).
/// Entries no recent report used are dropped after a grace window, so
/// dissolved groups do not accumulate. The session keeps a running total of
/// the bytes its entries hold, added at each insert and subtracted in the
/// sweep, so [`bytes_accounted`](Self::bytes_accounted) reads two counters
/// instead of walking the cache. Group solving runs outside the lock; the
/// mutex only guards stamp lookups and inserts, so concurrent readers
/// contend for microseconds, not for the Ω computation. Two readers racing
/// on the same cold group may both solve it — they produce identical bits,
/// and the first insert wins.
///
/// A **bound** session ([`bound`](Self::bound)) audits exactly one table
/// version, whose model was estimated or refreshed to that version. It is
/// built with every risk of the version already solved, and keeps them as
/// one row-indexed vector beside the version's leaf stamps and the row →
/// point array of the model's fold, through which each member's prior is
/// read with no QI gather and no hashing. It holds no stamp cache and never
/// changes once built; its reports lock only the report memo below. When
/// the version is exactly one delta after the previous bound session's, the
/// new session starts from the previous one's vector ([`step`](Self::step))
/// and re-solves only the groups under a leaf stamp the previous version did
/// not have or holding a row whose prior the model's refresh recomputed;
/// every other bound session solves every group.
///
/// On top of either sits a one-slot **report memo** for callers that audit
/// numbered table versions ([`report_version`](Self::report_version)): the
/// second audit of one `(version, t)` keeps its report, and every later one
/// returns a copy of it without touching the session's risks.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_knowledge::{Adversary, Bandwidth};
/// use bgkanon_privacy::{Auditor, SharedAuditSession};
/// use bgkanon_stats::SmoothedJs;
///
/// let table = bgkanon_data::toy::hospital_table();
/// let auditor = Auditor::new(
///     Arc::new(Adversary::kernel(&table, Bandwidth::uniform(0.3, 2).unwrap())),
///     Arc::new(SmoothedJs::paper_default(table.schema().sensitive_distance())),
/// );
/// let groups = bgkanon_data::toy::hospital_groups();
/// let fresh = auditor.report_reference(&table, &groups, 0.25);
///
/// let shared = Arc::new(SharedAuditSession::new(auditor));
/// let slices: Vec<&[usize]> = groups.iter().map(|g| g.as_slice()).collect();
/// // `report_groups` takes `&self`: clone the Arc into as many reader
/// // threads as you like.
/// let replay = shared.report_groups(&table, &slices, None, 0.25);
/// assert_eq!(replay.first_difference(&fresh), None);
/// ```
pub struct SharedAuditSession {
    auditor: Auditor,
    retained: Retained,
    /// Groups this session has solved, over its lifetime.
    solved: AtomicUsize,
    report_memo: Mutex<ReportMemo>,
    /// Bytes of the report `report_memo` keeps ([`report_bytes`]), changed
    /// only under the `report_memo` lock.
    memo_bytes: AtomicUsize,
}

impl SharedAuditSession {
    /// Generations a stamp entry survives unused. Concurrent readers may
    /// interleave reports of adjacent versions, so a stamp another
    /// in-flight reader is about to hit again must not be evicted the
    /// moment one report skips it.
    const STAMP_GRACE: u64 = 4;

    /// Open an unbound session around `auditor`. The auditor's adversary
    /// model is pinned for the session's lifetime.
    pub fn new(auditor: Auditor) -> Self {
        let cache = StampCache {
            caches: Mutex::new(SharedCaches {
                stamps: WordMap::default(),
                generation: 0,
            }),
            bytes: AtomicUsize::new(0),
        };
        Self::with_retained(auditor, Retained::Stamps(cache), 0)
    }

    fn with_retained(auditor: Auditor, retained: Retained, solved: usize) -> Self {
        SharedAuditSession {
            auditor,
            retained,
            solved: AtomicUsize::new(solved),
            report_memo: Mutex::default(),
            memo_bytes: AtomicUsize::new(0),
        }
    }

    /// Open a session bound to one table version and solve it: `groups`
    /// and `stamps` are the version's published groups and their leaf
    /// stamps (the stamp contract above), and `row_points[r]` is the point
    /// of the auditor's model's fold that row `r` of `table` folds into
    /// ([`FoldedTable::with_row_points`](bgkanon_knowledge::FoldedTable::with_row_points)
    /// of the table the model was estimated or refreshed to).
    ///
    /// `previous` is the previous version's bound session stepped across
    /// the one delta between the versions ([`step`](Self::step)), with what
    /// [`PriorEstimator::refresh_folded`](bgkanon_knowledge::PriorEstimator::refresh_folded)
    /// recomputed when it refreshed that session's model to this version. A
    /// group is then re-solved only when its stamp is new or one of its
    /// rows is inserted or folds into a dirty point: every other group has
    /// the same member tuples, and member by member bit-identical priors and
    /// sensitive histogram, so its risks are exactly the stepped ones.
    /// Without `previous`, or when the groups or the row → point array do
    /// not cover `table` row for row, every group is solved.
    ///
    /// # Panics
    ///
    /// If `stamps` and `groups` differ in length.
    pub fn bound(
        auditor: Auditor,
        table: &Table,
        groups: &[&[usize]],
        stamps: &[u64],
        row_points: Vec<u32>,
        previous: Option<(RiskStep, &DirtyPoints)>,
    ) -> Self {
        assert_eq!(stamps.len(), groups.len(), "one stamp per group");
        let (risks, solved) = {
            let points = point_priors(&auditor, &row_points, table);
            let covered = groups.iter().map(|rows| rows.len()).sum::<usize>() == table.len();
            let previous = previous
                .filter(|(step, _)| covered && points.is_some() && step.risks.len() == table.len());
            let (mut risks, kept) = match previous {
                Some((step, dirty)) => {
                    let rows = dirty_rows(&row_points, dirty, step.survivors);
                    (step.risks, Some((step.stamps, rows)))
                }
                None => (vec![f64::NAN; table.len()], None),
            };
            let solved = auditor.solve_groups(table, groups, points, &mut risks, |gi| {
                let Some((kept, dirty_rows)) = &kept else {
                    return true;
                };
                !kept.contains(&stamps[gi])
                    || groups[gi]
                        .iter()
                        .any(|&row| dirty_rows[row / 64] & (1 << (row % 64)) != 0)
            });
            (risks, solved)
        };
        let version = BoundVersion {
            row_points,
            stamps: stamps.to_vec(),
            risks,
        };
        Self::with_retained(auditor, Retained::Version(version), solved)
    }

    /// Step this bound session's risks across one delta, for the session of
    /// the next version ([`bound`](Self::bound)): `deletes` are the rows the
    /// delta deletes from this session's version
    /// ([`Delta::deletes`](bgkanon_data::Delta::deletes)) and `rows` the
    /// next version's row count. The risks are moved out when this is the
    /// last handle on the session and copied otherwise; either way the
    /// handle, and with it this session's hold on its adversary model, is
    /// released. `None` for an unbound session, or when `deletes` does not
    /// fit this version.
    pub fn step(self: Arc<Self>, deletes: &[usize], rows: usize) -> Option<RiskStep> {
        let (risks, stamps) = match Arc::try_unwrap(self) {
            Ok(session) => match session.retained {
                Retained::Version(version) => (version.risks, version.stamps.into_iter().collect()),
                Retained::Stamps(_) => return None,
            },
            Err(shared) => match &shared.retained {
                Retained::Version(version) => (
                    version.risks.clone(),
                    version.stamps.iter().copied().collect(),
                ),
                Retained::Stamps(_) => return None,
            },
        };
        let (risks, survivors) = compact(risks, deletes, rows)?;
        Some(RiskStep {
            risks,
            survivors,
            stamps,
        })
    }

    /// The row → point array this session is bound to (empty when
    /// unbound).
    pub fn row_points(&self) -> &[u32] {
        match &self.retained {
            Retained::Version(version) => &version.row_points,
            Retained::Stamps(_) => &[],
        }
    }

    /// A bound session's risks, when `table` and `stamps` are its version's.
    fn version_risks(&self, table: &Table, stamps: Option<&[u64]>) -> Option<&[f64]> {
        match &self.retained {
            Retained::Version(version)
                if version.risks.len() == table.len()
                    && stamps == Some(version.stamps.as_slice()) =>
            {
                Some(&version.risks)
            }
            _ => None,
        }
    }

    /// The wrapped auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// Number of groups this session has solved so far: every group of a
    /// bound session's version it did not take from the previous version,
    /// plus one per group a report found neither in the report memo nor
    /// among the session's retained risks. The count only grows; the
    /// difference across a report is that report's Ω solves (diagnostics).
    pub fn cached_signatures(&self) -> usize {
        self.solved.load(Ordering::Relaxed)
    }

    /// Number of live stamp-cache entries (0 for a bound session).
    #[cfg(test)]
    fn cached_stamps(&self) -> usize {
        match &self.retained {
            Retained::Stamps(cache) => cache.lock().stamps.len(),
            Retained::Version(_) => 0,
        }
    }

    /// Heap bytes resident in the session — an unbound session's stamp
    /// cache; a bound session's risk vector (8 B/row), leaf stamps
    /// (8 B/group) and row → point array (4 B/row); and either's kept
    /// report — a deterministic owned-payload estimate read without a lock.
    /// The adversary model behind the auditor is **not** counted here: it is
    /// charged to its owner (the hub's intern table for `Adv(b')` models,
    /// the caller for external auditors), so a model shared by many tenants
    /// is accounted once.
    pub fn bytes_accounted(&self) -> usize {
        let retained = match &self.retained {
            Retained::Stamps(cache) => cache.bytes.load(Ordering::Relaxed),
            Retained::Version(version) => {
                version.risks.len() * 8 + version.stamps.len() * 8 + version.row_points.len() * 4
            }
        };
        retained + self.memo_bytes.load(Ordering::Relaxed)
    }

    /// The report-memo guard, recovered from a poisoned lock with the slot
    /// emptied, like [`StampCache::lock`].
    fn lock_report_memo(&self) -> MutexGuard<'_, ReportMemo> {
        self.report_memo.lock().unwrap_or_else(|poisoned| {
            self.report_memo.clear_poison();
            let mut memo = poisoned.into_inner();
            *memo = ReportMemo::default();
            self.memo_bytes.store(0, Ordering::Relaxed);
            memo
        })
    }

    /// [`report_groups`](Self::report_groups) of one numbered table
    /// version, through the session's one-slot report memo. `version`
    /// names the audited table, groups and stamps: every call with one
    /// `version` must pass the same inputs. `groups` is only called when
    /// the memo misses and the session holds no risks of the version. The
    /// slot is keyed by `(version, t.to_bits())`:
    ///
    /// * the first audit of a key claims the slot and keeps nothing, so a
    ///   caller that audits each version once never copies a report;
    /// * the second audit of the key keeps a copy of its report;
    /// * every later audit of the key returns a copy of the kept report
    ///   (the `Arc` is cloned under the lock, the risks copied outside it)
    ///   and leaves the session's risks untouched.
    ///
    /// A key of a newer version, or of another `t`, claims the slot and
    /// drops the kept report; an audit of an older version than the slot's
    /// leaves the slot alone. Every report is bit-identical to
    /// [`Auditor::report`] of the version.
    pub fn report_version<'g>(
        &self,
        version: u64,
        table: &Table,
        groups: impl FnOnce() -> Vec<&'g [usize]>,
        stamps: Option<&[u64]>,
        t: f64,
    ) -> AuditReport {
        let key = (version, t.to_bits());
        let (kept, second, dropped) = {
            let mut memo = self.lock_report_memo();
            if memo.key == Some(key) {
                (memo.report.clone(), true, None)
            } else if memo.key.is_some_and(|(v, _)| v > version) {
                (None, false, None)
            } else {
                memo.key = Some(key);
                self.memo_bytes.store(0, Ordering::Relaxed);
                (None, false, memo.report.take())
            }
        };
        drop(dropped);
        if let Some(kept) = kept {
            return AuditReport::clone(&kept);
        }
        let report = match self.version_risks(table, stamps) {
            Some(risks) => self.auditor.assemble_report(risks.to_vec(), t),
            None => self.report_groups(table, &groups(), stamps, t),
        };
        if second {
            let copy = Arc::new(report.clone());
            let mut memo = self.lock_report_memo();
            if memo.key == Some(key) && memo.report.is_none() {
                self.memo_bytes
                    .store(report_bytes(&copy), Ordering::Relaxed);
                memo.report = Some(copy);
            }
        }
        report
    }

    /// Audit `groups` with threshold `t` — bit-identical to
    /// [`Auditor::report`] on the same inputs, callable from any number of
    /// threads concurrently. `stamps`, when given, holds one token per
    /// group under the stamp contract above.
    ///
    /// An unbound session looks each group up in its stamp cache: a hit
    /// skips the group's preparation and solve, and a missed group is
    /// prepared, solved and stamped, taking the lock once, for its stamp
    /// insert. A bound session copies its retained risks when `table` and
    /// `stamps` are its version's, and otherwise solves every group, reading
    /// priors through its row → point array when that covers `table`, and
    /// keeps nothing.
    pub fn report_groups(
        &self,
        table: &Table,
        groups: &[&[usize]],
        stamps: Option<&[u64]>,
        t: f64,
    ) -> AuditReport {
        if let Some(stamps) = stamps {
            assert_eq!(stamps.len(), groups.len(), "one stamp per group");
        }
        let version = match &self.retained {
            Retained::Stamps(cache) => return self.report_stamped(cache, table, groups, stamps, t),
            Retained::Version(version) => version,
        };
        if let Some(risks) = self.version_risks(table, stamps) {
            return self.auditor.assemble_report(risks.to_vec(), t);
        }
        let points = point_priors(&self.auditor, &version.row_points, table);
        let mut risks = vec![f64::NAN; table.len()];
        let solved = self
            .auditor
            .solve_groups(table, groups, points, &mut risks, |_| true);
        self.solved.fetch_add(solved, Ordering::Relaxed);
        self.auditor.assemble_report(risks, t)
    }

    /// [`report_groups`](Self::report_groups) of an unbound session,
    /// through its stamp cache.
    fn report_stamped(
        &self,
        cache: &StampCache,
        table: &Table,
        groups: &[&[usize]],
        stamps: Option<&[u64]>,
        t: f64,
    ) -> AuditReport {
        let mut risks = vec![f64::NAN; table.len()];

        // Pass 1 (one short lock): bump the generation and collect every
        // stamp hit as an `Arc` clone. Only pointer bumps happen under the
        // lock — the per-row copies run after it is released, so readers in
        // the all-hits steady state contend for microseconds, not for the
        // O(n) risk scatter.
        let generation;
        let mut missed: Vec<usize> = Vec::new();
        let mut hits: Vec<(usize, Arc<Vec<f64>>)> = Vec::new();
        {
            let mut caches = cache.lock();
            caches.generation += 1;
            generation = caches.generation;
            for (gi, rows) in groups.iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                match stamps
                    .map(|s| s[gi])
                    .and_then(|s| caches.stamps.get_mut(&s))
                {
                    Some(entry) => {
                        entry.generation = generation;
                        hits.push((gi, Arc::clone(&entry.risks)));
                    }
                    None => missed.push(gi),
                }
            }
        }
        for (gi, solved) in hits {
            for (&row, &risk) in groups[gi].iter().zip(solved.iter()) {
                risks[row] = risk;
            }
        }

        // Pass 2: prepare and solve the misses outside the lock; only the
        // stamp insert takes it.
        let mut scratch = AuditScratch::default();
        self.solved.fetch_add(missed.len(), Ordering::Relaxed);
        for gi in missed {
            let rows = groups[gi];
            self.auditor.prepare_group(table, rows, None, &mut scratch);
            let mut solved = Vec::with_capacity(rows.len());
            self.auditor.solve_group(rows, &mut scratch, |row, risk| {
                risks[row] = risk;
                solved.push(risk);
            });
            if let Some(stamp) = stamps.map(|s| s[gi]) {
                let mut caches = cache.lock();
                match caches.stamps.entry(stamp) {
                    Entry::Occupied(mut entry) => entry.get_mut().generation = generation,
                    Entry::Vacant(slot) => {
                        cache
                            .bytes
                            .fetch_add(cache_entry_bytes(1, solved.len()), Ordering::Relaxed);
                        slot.insert(CacheEntry {
                            generation,
                            risks: Arc::new(solved),
                        });
                    }
                }
            }
        }

        // Graced invalidation: stamps no recent report touched are gone —
        // dissolved groups do not accumulate, while groups a concurrent
        // reader of an adjacent version still replays survive the window.
        {
            let mut caches = cache.lock();
            let generation = caches.generation;
            let mut freed = 0;
            caches.stamps.retain(|_, e| {
                let keep = e.generation + Self::STAMP_GRACE >= generation;
                if !keep {
                    freed += cache_entry_bytes(1, e.risks.len());
                }
                keep
            });
            cache.bytes.fetch_sub(freed, Ordering::Relaxed);
            debug_assert_eq!(
                cache.bytes.load(Ordering::Relaxed),
                walked_bytes(&caches),
                "the running cache byte total drifted from its entries"
            );
        }
        self.auditor.assemble_report(risks, t)
    }
}

impl std::fmt::Debug for SharedAuditSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("SharedAuditSession");
        out.field("auditor", &self.auditor)
            .field("solved_groups", &self.cached_signatures());
        match &self.retained {
            Retained::Stamps(cache) => out.field("cached_stamps", &cache.lock().stamps.len()),
            Retained::Version(version) => out.field("bound_rows", &version.risks.len()),
        };
        out.finish()
    }
}

impl std::fmt::Debug for Auditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Auditor")
            .field("adversary", &self.adversary.label())
            .field("measure", &self.measure.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;
    use bgkanon_knowledge::Bandwidth;
    use bgkanon_stats::measure::SmoothedJs;

    fn auditor(table: &Table, b: f64) -> Auditor {
        let adv = Arc::new(Adversary::kernel(
            table,
            Bandwidth::uniform(b, table.qi_count()).unwrap(),
        ));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        Auditor::new(adv, measure)
    }

    #[test]
    fn first_difference_compares_every_field_by_bits() {
        let report = AuditReport {
            risks: vec![0.1, f64::NAN, 0.0, 0.3],
            worst_case: 0.3,
            mean: 0.2,
            vulnerable: 1,
            threshold: 0.25,
        };
        // A clone matches, uncovered (NaN) rows included.
        assert_eq!(report.first_difference(&report.clone()), None);
        let flipped = f64::from_bits(0.3f64.to_bits() ^ 1);
        type Edit = fn(&mut AuditReport);
        let cases: [(Edit, RiskDrift); 8] = [
            (
                |r| r.risks[3] = f64::from_bits(0.3f64.to_bits() ^ 1),
                RiskDrift::Risk(3, 0.3, flipped),
            ),
            (|r| r.risks[2] = -0.0, RiskDrift::Risk(2, 0.0, -0.0)),
            (|r| r.risks.push(0.0), RiskDrift::RiskCount(4, 5)),
            (|r| r.worst_case = 0.4, RiskDrift::WorstCase(0.3, 0.4)),
            (|r| r.mean = 0.21, RiskDrift::Mean(0.2, 0.21)),
            (|r| r.vulnerable = 2, RiskDrift::Vulnerable(1, 2)),
            (|r| r.threshold = 0.2, RiskDrift::Threshold(0.25, 0.2)),
            // The first differing field wins: rows before the summary.
            (
                |r| (r.mean, r.risks[0]) = (0.0, 0.0),
                RiskDrift::Risk(0, 0.1, 0.0),
            ),
        ];
        for (edit, expected) in cases {
            let mut other = report.clone();
            edit(&mut other);
            assert_eq!(report.first_difference(&other), Some(expected));
        }
        let covered = AuditReport {
            risks: vec![0.1, 0.5, 0.0, 0.3],
            ..report.clone()
        };
        let drift = report.first_difference(&covered);
        assert!(matches!(drift, Some(RiskDrift::Risk(1, ..))), "{drift:?}");
    }

    #[test]
    fn risks_cover_all_rows() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let risks = a.tuple_risks_with(&t, &toy::hospital_groups(), Parallelism::Serial);
        assert_eq!(risks.len(), t.len());
        assert!(risks.iter().all(|r| !r.is_nan() && *r >= 0.0));
    }

    #[test]
    fn one_worker_engine_is_bit_identical_to_reference() {
        // The batched engine on the calling thread vs the row-at-a-time
        // §V.A transcription — same table, same groups, bit-identical risks.
        for seed in [3u64, 11] {
            let t = bgkanon_data::adult::generate(400, seed);
            let groups: Vec<Vec<usize>> = (0..t.len())
                .step_by(7)
                .map(|start| (start..(start + 7).min(t.len())).collect())
                .collect();
            for a in [
                auditor(&t, 0.3),
                Auditor::new(
                    Arc::new(Adversary::t_closeness(&t)),
                    Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance())),
                ),
            ] {
                let inline = a.tuple_risks_with(&t, &groups, Parallelism::Serial);
                let reference = a.tuple_risks_reference(&t, &groups);
                for (row, (x, y)) in inline.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "one worker vs reference diverge at row {row} (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn report_consistency() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let rep = a.report(&t, &toy::hospital_groups(), 0.05);
        assert!(rep.worst_case >= rep.mean);
        assert!(rep.vulnerable <= t.len());
        assert_eq!(rep.threshold, 0.05);
        // Zero threshold makes every tuple with positive risk vulnerable.
        let rep0 = a.report(&t, &toy::hospital_groups(), 0.0);
        assert!(rep0.vulnerable >= rep.vulnerable);
    }

    #[test]
    fn stronger_adversary_has_higher_worst_case() {
        // Smaller b (sharper prior) must not learn less in the worst case
        // than the blunt adversary on this correlated toy table.
        let t = toy::hospital_table();
        let sharp = auditor(&t, 0.15).report(&t, &toy::hospital_groups(), 0.1);
        let blunt = auditor(&t, 0.9).report(&t, &toy::hospital_groups(), 0.1);
        assert!(
            sharp.worst_case >= blunt.worst_case - 1e-9,
            "sharp {} vs blunt {}",
            sharp.worst_case,
            blunt.worst_case
        );
    }

    #[test]
    fn uncovered_rows_are_nan_and_ignored() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        // Audit only the first group.
        let rep = a.report(&t, &[vec![0, 1, 2]], 0.01);
        assert!(rep.risks[0].is_finite());
        assert!(rep.risks[5].is_nan());
        assert!(rep.vulnerable <= 3);
    }

    #[test]
    fn batched_engine_is_bit_identical_to_reference() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let a = auditor(&t, 0.3);
        let reference = a.tuple_risks_reference(&t, &groups);
        for workers in [1usize, 2, 4] {
            let batched = a.tuple_risks_with(&t, &groups, Parallelism::threads(workers));
            assert_eq!(reference.len(), batched.len());
            for (row, (s, b)) in reference.iter().zip(&batched).enumerate() {
                assert!(
                    s.to_bits() == b.to_bits(),
                    "row {row} diverges at {workers} workers: {s} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_engine_handles_constant_prior_adversaries() {
        // A constant-prior adversary makes every member of every group
        // share one prior object, which the kernel evaluates once per
        // group; results must still match.
        let t = toy::hospital_table();
        let adv = Arc::new(Adversary::t_closeness(&t));
        let measure = Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let a = Auditor::new(adv, measure);
        let groups = toy::hospital_groups();
        let reference = a.tuple_risks_reference(&t, &groups);
        for par in [Parallelism::Serial, Parallelism::threads(2)] {
            let batched = a.tuple_risks_with(&t, &groups, par);
            for (s, b) in reference.iter().zip(&batched) {
                assert_eq!(s.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn report_with_matches_report() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let groups = toy::hospital_groups();
        let reference = a.report_reference(&t, &groups, 0.1);
        let serial = a.report(&t, &groups, 0.1);
        let batched = a.report_with(&t, &groups, 0.1, Parallelism::Auto);
        assert_eq!(reference.first_difference(&serial), None);
        assert_eq!(reference.first_difference(&batched), None);
    }

    #[test]
    fn audit_session_replays_bit_identically() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let a = auditor(&t, 0.3);
        let fresh = a.report_reference(&t, &groups, 0.1);
        let session = SharedAuditSession::new(a);
        let first = session.report_groups(&t, &slices, None, 0.1);
        assert_eq!(session.cached_signatures(), groups.len());
        assert_eq!(session.cached_stamps(), 0);
        // Without stamps nothing is kept: the replay solves every group
        // again, to the same bits.
        let replay = session.report_groups(&t, &slices, None, 0.1);
        assert_eq!(session.cached_signatures(), 2 * groups.len());
        assert_eq!(fresh.first_difference(&first), None);
        assert_eq!(fresh.first_difference(&replay), None);
    }

    #[test]
    fn audit_session_stamps_bypass_and_invalidate() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let session = SharedAuditSession::new(auditor(&t, 0.3));
        let stamps = [11u64, 22, 33];
        let first = session.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(session.cached_stamps(), 3);
        assert_eq!(session.cached_signatures(), 3);
        // Same stamps: served from the stamp cache, same bits, no solve.
        let hit = session.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(session.cached_signatures(), 3);
        assert_eq!(first.first_difference(&hit), None);
        // Dropping one group evicts its stamp once the grace window has
        // passed; the partial reports stay bit-identical to a fresh audit.
        let fewer = [groups[0].clone(), groups[1].clone()];
        let reference = auditor(&t, 0.3).report_reference(&t, &fewer, 0.1);
        for _ in 0..=SharedAuditSession::STAMP_GRACE {
            let partial = session.report_groups(&t, &slices[..2], Some(&stamps[..2]), 0.1);
            assert!(partial.risks[groups[2][0]].is_nan());
            assert_eq!(partial.first_difference(&reference), None);
        }
        assert_eq!(session.cached_stamps(), 2);
        assert_eq!(session.cached_signatures(), 3);
        // A changed stamp misses the stamp cache: the group is solved once
        // more, to the same bits.
        let restamped = session.report_groups(&t, &slices, Some(&[11, 22, 44]), 0.1);
        assert_eq!(session.cached_signatures(), 4);
        assert_eq!(first.first_difference(&restamped), None);
    }

    #[test]
    fn shared_session_is_send_sync_and_replays_bit_identically() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedAuditSession>();

        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let a = auditor(&t, 0.3);
        let fresh = a.report_reference(&t, &groups, 0.1);
        let shared = SharedAuditSession::new(a);
        let stamps = [7u64, 8, 9];
        let first = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(shared.cached_stamps(), 3);
        assert_eq!(shared.cached_signatures(), 3);
        let replay = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(shared.cached_signatures(), 3);
        assert_eq!(fresh.first_difference(&first), None);
        assert_eq!(fresh.first_difference(&replay), None);
        assert!(format!("{shared:?}").contains("SharedAuditSession"));
    }

    #[test]
    fn shared_session_concurrent_readers_match_reference() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let a = auditor(&t, 0.3);
        let fresh = a.report_reference(&t, &groups, 0.1);
        let shared = Arc::new(SharedAuditSession::new(a));
        let stamps = [1u64, 2, 3];
        // Concurrent readers run as shared-pool jobs (R2: no per-call
        // scopes). The jobs are pool leaves — `report_groups` computes
        // inline and never submits pool work itself.
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let t = t.clone();
                let groups = groups.clone();
                move || {
                    let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
                    (0..8)
                        .map(|_| shared.report_groups(&t, &slices, Some(&stamps), 0.1))
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        let reports: Vec<AuditReport> = bgkanon_data::shared_pool()
            .run(jobs)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(reports.len(), 32);
        for rep in &reports {
            assert_eq!(fresh.first_difference(rep), None);
        }
    }

    #[test]
    fn shared_session_evicts_unused_entries_after_grace() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let shared = SharedAuditSession::new(auditor(&t, 0.3));
        let _ = shared.report_groups(&t, &slices, Some(&[1, 2, 3]), 0.1);
        let full_stamps = shared.cached_stamps();
        assert_eq!(full_stamps, 3);
        // Keep auditing only the first group; the other two groups' stamps
        // age out of the grace window, and the first group never re-solves.
        for _ in 0..=SharedAuditSession::STAMP_GRACE {
            let partial = shared.report_groups(&t, &slices[..1], Some(&[1]), 0.1);
            assert!(partial.risks[groups[0][0]].is_finite());
        }
        assert_eq!(shared.cached_stamps(), 1);
        assert_eq!(shared.cached_signatures(), 3);
        // The evicted groups are solved again, exactly once each.
        let _ = shared.report_groups(&t, &slices, Some(&[1, 2, 3]), 0.1);
        assert_eq!(shared.cached_stamps(), 3);
        assert_eq!(shared.cached_signatures(), 5);
    }

    #[test]
    fn poisoned_shared_caches_recover_with_fresh_reports() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let stamps = [4u64, 5, 6];
        let fresh = auditor(&t, 0.3).report_reference(&t, &groups, 0.1);
        let shared = Arc::new(SharedAuditSession::new(auditor(&t, 0.3)));
        let _ = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(shared.cached_stamps(), 3);

        // A pooled reader panics while holding the cache lock.
        let poisoner = Arc::clone(&shared);
        let job = move || {
            let _guard = stamp_cache(&poisoner).caches.lock();
            panic!("reader panicked while holding the audit caches");
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bgkanon_data::shared_pool().run(vec![job])
        }));
        assert!(outcome.is_err());
        assert!(stamp_cache(&shared).caches.is_poisoned());

        // The next report clears the caches, recomputes, and matches a
        // fresh auditor bit for bit; the lock is healthy again.
        let report = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert!(!stamp_cache(&shared).caches.is_poisoned());
        assert_eq!(report.first_difference(&fresh), None);
        assert_eq!(shared.cached_stamps(), 3);
    }

    /// The stamp cache of an unbound session.
    fn stamp_cache(session: &SharedAuditSession) -> &StampCache {
        match &session.retained {
            Retained::Stamps(cache) => cache,
            Retained::Version(_) => panic!("a bound session has no stamp cache"),
        }
    }

    /// `Adv(b)` on `table`'s fold, with the row → point array of that fold.
    fn folded_auditor(table: &Table, b: f64) -> (Auditor, Vec<u32>) {
        use bgkanon_knowledge::{FoldedTable, PriorEstimator};
        let bandwidth = Bandwidth::uniform(b, table.qi_count()).unwrap();
        let (fold, row_points) = FoldedTable::with_row_points(table);
        let model = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone())
            .estimate_folded(fold, Parallelism::Auto);
        let adversary = Arc::new(Adversary::from_model("Adv", bandwidth, Arc::new(model)));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        (Auditor::new(adversary, measure), row_points)
    }

    /// Groups of `size` consecutive rows over the first `rows` rows.
    fn runs(rows: usize, size: usize) -> Vec<Vec<usize>> {
        (0..rows)
            .step_by(size)
            .map(|start| (start..(start + size).min(rows)).collect())
            .collect()
    }

    #[test]
    fn bound_and_unbound_sessions_match_a_fresh_report() {
        for seed in [5u64, 13] {
            let t = bgkanon_data::adult::generate(300, seed);
            let (auditor, row_points) = folded_auditor(&t, 0.3);
            let groups = runs(t.len(), 5);
            let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            let stamps: Vec<u64> = (0..groups.len() as u64).collect();
            let other: Vec<u64> = stamps.iter().map(|s| s + 1_000).collect();
            let fresh = auditor.report_reference(&t, &groups, 0.2);

            let bound = SharedAuditSession::bound(
                auditor.clone(),
                &t,
                &slices,
                &stamps,
                row_points.clone(),
                None,
            );
            assert!(point_priors(bound.auditor(), bound.row_points(), &t).is_some());
            // Row points of another length leave the session on the QI path.
            let short = SharedAuditSession::bound(
                auditor.clone(),
                &t,
                &slices,
                &stamps,
                row_points[..t.len() - 1].to_vec(),
                None,
            );
            assert!(point_priors(short.auditor(), short.row_points(), &t).is_none());
            let unbound = SharedAuditSession::new(auditor.clone());
            assert!(unbound.row_points().is_empty());
            for session in [&bound, &short] {
                assert_eq!(session.cached_signatures(), groups.len());
                assert_eq!(session.cached_stamps(), 0);
            }
            for session in [&bound, &short, &unbound] {
                for stamps in [None, Some(&stamps[..]), Some(&other[..])] {
                    let report = session.report_groups(&t, &slices, stamps, 0.2);
                    assert_eq!(fresh.first_difference(&report), None, "seed {seed}");
                }
            }
            // A bound session serves its own version's stamps from its risks
            // and solves every group for any other input, keeping nothing;
            // the unbound one solves every group once per unseen stamp.
            for session in [&bound, &short, &unbound] {
                assert_eq!(session.cached_signatures(), 3 * groups.len());
            }
            assert_eq!(
                bound.bytes_accounted(),
                t.len() * 8 + groups.len() * 8 + t.len() * 4
            );
        }
    }

    #[test]
    fn compact_lays_risks_out_like_apply_delta() {
        let risks = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let (out, survivors) = compact(risks.clone(), &[1, 3], 5).unwrap();
        assert_eq!(survivors, 3);
        assert_eq!(out[..3], [0.0, 2.0, 4.0]);
        assert!(out[3..].iter().all(|r| r.is_nan()));
        assert_eq!(compact(risks.clone(), &[], 5), Some((risks.clone(), 5)));
        assert_eq!(
            compact(risks.clone(), &[0, 4], 3),
            Some((vec![1.0, 2.0, 3.0], 3))
        );
        // Out of order, repeated or past the end; more survivors than rows.
        for deletes in [&[3usize, 1][..], &[2, 2], &[5]] {
            assert_eq!(compact(risks.clone(), deletes, 5), None, "{deletes:?}");
        }
        assert_eq!(compact(risks, &[0], 3), None);
    }

    #[test]
    fn a_stepped_session_resolves_only_new_and_dirty_groups() {
        use bgkanon_data::DeltaBuilder;
        use bgkanon_knowledge::{FoldedTable, PriorEstimator};
        let t0 = bgkanon_data::adult::generate(400, 17);
        let (auditor0, points0) = folded_auditor(&t0, 0.25);
        let groups0 = runs(t0.len(), 4);
        let slices0: Vec<&[usize]> = groups0.iter().map(Vec::as_slice).collect();
        let stamps0: Vec<u64> = (0..groups0.len() as u64).collect();
        let v0 = Arc::new(SharedAuditSession::bound(
            auditor0.clone(),
            &t0,
            &slices0,
            &stamps0,
            points0,
            None,
        ));
        assert_eq!(v0.cached_signatures(), groups0.len());

        // Delete one row from each of two groups and insert two donor rows.
        let deletes = [13usize, 241];
        let donors = bgkanon_data::adult::generate(2, 99);
        let mut builder = DeltaBuilder::new(Arc::clone(t0.schema()));
        for &row in &deletes {
            builder.delete(row);
        }
        for row in 0..2 {
            builder
                .insert_codes(&donors.qi(row), donors.sensitive_value(row))
                .unwrap();
        }
        let delta = builder.build();
        let t1 = t0.apply_delta(&delta).unwrap();
        // Version 1: every group's survivors, renumbered; a group that lost
        // a row is restamped, and the two inserts form a new group.
        let renumber = |row: usize| row - deletes.iter().filter(|&&d| d < row).count();
        let mut groups1 = Vec::new();
        let mut stamps1 = Vec::new();
        for (g, rows) in groups0.iter().enumerate() {
            let survivors: Vec<usize> = rows
                .iter()
                .filter(|row| !deletes.contains(row))
                .map(|&row| renumber(row))
                .collect();
            let restamp = if survivors.len() == rows.len() {
                0
            } else {
                1_000
            };
            stamps1.push(restamp + g as u64);
            groups1.push(survivors);
        }
        groups1.push(vec![t1.len() - 2, t1.len() - 1]);
        stamps1.push(2_000);
        let slices1: Vec<&[usize]> = groups1.iter().map(Vec::as_slice).collect();

        // Refresh version 0's model to version 1.
        let model = auditor0.adversary().prior_model().unwrap();
        let mut model = PriorModel::clone(model);
        let bandwidth = model.bandwidth().clone();
        let (fold1, points1) = FoldedTable::with_row_points(&t1);
        let dirty = PriorEstimator::new(Arc::clone(t1.schema()), bandwidth.clone()).refresh_folded(
            &mut model,
            fold1,
            Parallelism::Auto,
        );
        let auditor1 = Auditor::new(
            Arc::new(Adversary::from_model(
                "Adv",
                bandwidth.clone(),
                Arc::new(model),
            )),
            Arc::clone(auditor0.measure()),
        );
        let expected = slices1
            .iter()
            .zip(&stamps1)
            .filter(|(rows, &stamp)| {
                stamp >= 1_000 || rows.iter().any(|&row| dirty.contains(points1[row]))
            })
            .count();
        assert!(
            (1..groups1.len()).contains(&expected),
            "{expected} of {} groups stale",
            groups1.len()
        );
        let fresh = Auditor::new(
            Arc::new(Adversary::kernel(&t1, bandwidth)),
            Arc::clone(auditor0.measure()),
        )
        .report_reference(&t1, &groups1, 0.2);

        // A step while another handle holds the session copies its risks;
        // the last handle's step moves them out. Both patch identically.
        let copied = Arc::clone(&v0).step(delta.deletes(), t1.len()).unwrap();
        let moved = v0.step(delta.deletes(), t1.len()).unwrap();
        for step in [copied, moved] {
            let v1 = SharedAuditSession::bound(
                auditor1.clone(),
                &t1,
                &slices1,
                &stamps1,
                points1.clone(),
                Some((step, &dirty)),
            );
            assert_eq!(v1.cached_signatures(), expected);
            // The version's report comes from the kept risks: the groups are
            // never asked for.
            let report = v1.report_version(1, &t1, Vec::new, Some(&stamps1), 0.2);
            assert_eq!(report.first_difference(&fresh), None);
            assert_eq!(v1.cached_signatures(), expected);
        }

        // Row points that do not cover the table: every group is solved.
        let stepped = SharedAuditSession::bound(
            auditor0.clone(),
            &t0,
            &slices0,
            &stamps0,
            FoldedTable::with_row_points(&t0).1,
            None,
        );
        let step = Arc::new(stepped).step(delta.deletes(), t1.len()).unwrap();
        let cold = SharedAuditSession::bound(
            auditor1.clone(),
            &t1,
            &slices1,
            &stamps1,
            points1[1..].to_vec(),
            Some((step, &dirty)),
        );
        assert_eq!(cold.cached_signatures(), groups1.len());
        let report = cold.report_groups(&t1, &slices1, Some(&stamps1), 0.2);
        assert_eq!(report.first_difference(&fresh), None);

        // Only a bound session steps, and only across deletes it can hold.
        let unbound = Arc::new(SharedAuditSession::new(auditor1.clone()));
        assert!(unbound.step(&[], t1.len()).is_none());
        assert!(Arc::new(cold).step(&[t1.len()], t1.len()).is_none());
    }

    #[test]
    fn running_byte_total_matches_a_walk_of_the_entries() {
        use bgkanon_knowledge::{FoldedTable, PriorEstimator};
        let t = bgkanon_data::adult::generate(240, 3);
        let (auditor, row_points) = folded_auditor(&t, 0.3);
        // A refresh to the same fold: no point dirty.
        let (fold, _) = FoldedTable::with_row_points(&t);
        let estimator = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        );
        let mut model = estimator.estimate_folded(fold.clone(), Parallelism::Auto);
        let clean = estimator.refresh_folded(&mut model, fold, Parallelism::Auto);
        let walk = |session: &SharedAuditSession| match &session.retained {
            Retained::Stamps(cache) => walked_bytes(&cache.lock()),
            Retained::Version(version) => {
                version.risks.len() * 8 + version.stamps.len() * 8 + version.row_points.len() * 4
            }
        };
        // xorshift64: the draws only pick the sequence.
        let mut state = 0x6a09_e667_f3bc_c908u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        let mut session = Arc::new(SharedAuditSession::new(auditor.clone()));
        let (mut version, mut groups, mut stamps) = (0u64, Vec::new(), Vec::new());
        let mut next_stamp = 0u64;
        for step in 0..160 {
            // Half the time the same version again; otherwise a new one:
            // random groups over a random prefix of the rows, some under
            // stamps seen before and some under fresh ones.
            if groups.is_empty() || draw(2) == 0 {
                version += 1;
                let rows = 20 + draw(t.len() - 20);
                let size = 2 + draw(6);
                groups = runs(rows, size);
                stamps = (0..groups.len())
                    .map(|g| {
                        // Only a full group's stamp recurs: equal stamps
                        // must mean equal members.
                        if draw(2) == 0 && groups[g].len() == size {
                            (size * 1_000 + g) as u64
                        } else {
                            next_stamp += 1;
                            1 << 40 | next_stamp
                        }
                    })
                    .collect();
            }
            let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            match draw(10) {
                // Bind a session to this version, stepped from the current
                // one when that is bound, or go back to an unbound one.
                0 => {
                    let previous = Arc::clone(&session).step(&[], t.len());
                    session = Arc::new(SharedAuditSession::bound(
                        auditor.clone(),
                        &t,
                        &slices,
                        &stamps,
                        row_points.clone(),
                        previous.map(|previous| (previous, &clean)),
                    ));
                }
                1 => session = Arc::new(SharedAuditSession::new(auditor.clone())),
                // A reader panics holding a lock: the next lock clears what
                // it guards and resets its total.
                2 => {
                    let poisoner = Arc::clone(&session);
                    let job = move || {
                        let _guard = match &poisoner.retained {
                            Retained::Stamps(cache) => Ok(cache.caches.lock()),
                            Retained::Version(_) => Err(poisoner.report_memo.lock()),
                        };
                        panic!("reader panicked while holding a session lock");
                    };
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        bgkanon_data::shared_pool().run(vec![job])
                    }));
                    assert!(outcome.is_err());
                }
                _ => {
                    let _ =
                        session.report_version(version, &t, || slices.clone(), Some(&stamps), 0.2);
                }
            }
            // The walk locks first: a poisoned lock is recovered (entries
            // cleared, total reset) before the total is read.
            let walked = walk(&session);
            let memo = session
                .lock_report_memo()
                .report
                .as_deref()
                .map_or(0, report_bytes);
            assert_eq!(session.bytes_accounted(), walked + memo, "step {step}");
        }
    }

    #[test]
    fn singleton_groups_fully_disclose() {
        // Publishing each tuple alone: posterior = point mass; risk maximal
        // among all groupings for this adversary/measure.
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let singletons: Vec<Vec<usize>> = (0..t.len()).map(|r| vec![r]).collect();
        let alone = a.report(&t, &singletons, 0.05);
        let grouped = a.report(&t, &toy::hospital_groups(), 0.05);
        assert!(alone.worst_case >= grouped.worst_case);
        assert!(alone.vulnerable >= grouped.vulnerable);
    }
}
