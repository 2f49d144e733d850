//! Auditing a published grouping against an adversary — the probabilistic
//! background-knowledge attack of §V.A.
//!
//! Given the original table, the published partition into groups, and an
//! adversary profile, the [`Auditor`] computes every tuple's disclosure risk
//! `D[Ppri, Ppos]` and reports the worst case plus the number of
//! **vulnerable tuples** (risk above the threshold `t`) — the quantity
//! plotted in Fig. 1.
//!
//! Three execution paths compute the same risks, bit for bit:
//!
//! * [`Auditor::tuple_risks_reference`] — the per-group **reference**
//!   path, a direct transcription of §V.A: one prior lookup and one
//!   posterior per row;
//! * [`Auditor::tuple_risks`] / [`Auditor::report`] — the **flat-scan**
//!   serial engine: it enumerates the distinct QI points once with the
//!   counting-sort spine, resolves each point's prior once, and reuses the
//!   batched engine's allocation-free kernels and signature memo;
//! * [`Auditor::tuple_risks_with`] / [`Auditor::report_with`] — the
//!   **batched** engine: groups are distributed over worker jobs on the
//!   process-wide [`shared_pool`](bgkanon_data::shared_pool)
//!   that share the one `Arc<Adversary>` prior model, posterior/permanent
//!   evaluations are memoized under a *group signature* (the sequence of
//!   prior identities plus the sensitive histogram — two groups with the
//!   same signature provably have the same risks), and the Ω-estimate and
//!   the distance run through the group-risk kernel the (B,t) checks share,
//!   with per-worker scratch buffers. Risks are bit-identical to the
//!   reference path; `tests/tests/parallel.rs` asserts this.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bgkanon_data::hash::WordMap;
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

/// Group signature → per-member risks, the memo one audit call builds.
type SignatureMemo = WordMap<Vec<u64>, Arc<Vec<f64>>>;

/// The guard of a per-call signature memo. A worker that panicked while
/// holding it may have left the memo half-updated, so a poisoned lock is
/// recovered with the memo cleared: every entry is rebuild-on-miss, and a
/// replay is bit-identical to a solve.
fn lock_memo(memo: &Mutex<SignatureMemo>) -> MutexGuard<'_, SignatureMemo> {
    memo.lock().unwrap_or_else(|poisoned| {
        memo.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.clear();
        guard
    })
}

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
/// let reference = auditor.report(&table, &groups, 0.25);
/// let batched = auditor.report_with(&table, &groups, 0.25, Parallelism::Auto);
/// assert_eq!(reference.worst_case.to_bits(), batched.worst_case.to_bits());
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

    /// Disclosure risk of every tuple under the published `groups`
    /// (disjoint row-index sets covering the table), by the flat-scan
    /// serial engine.
    ///
    /// Instead of one hash lookup per *row*, the table's distinct QI
    /// points are enumerated once with the counting-sort spine
    /// (`qi_sorted_rows`, sequential passes over the code columns) and
    /// each distinct point's prior is resolved exactly once; groups then
    /// read their priors by point id. Posteriors run through the
    /// allocation-free Ω kernels and the group signature memo of the
    /// batched engine — identical inputs, identical arithmetic, so risks
    /// are bit-identical to
    /// [`tuple_risks_reference`](Self::tuple_risks_reference).
    pub fn tuple_risks(&self, table: &Table, groups: &[Vec<usize>]) -> Vec<f64> {
        let n = table.len();
        let d = table.qi_count();

        // Row → distinct-point id via one radix pass; `reps[p]` is a
        // representative row of point `p`.
        let order = table.qi_sorted_rows();
        let cols: Vec<_> = (0..d).map(|a| table.qi_col(a)).collect();
        let mut point_of = vec![0u32; n];
        let mut reps: Vec<u32> = Vec::new();
        let mut prev = usize::MAX;
        for &r in &order {
            let r = r as usize;
            if reps.is_empty() || cols.iter().any(|c| c.get(r) != c.get(prev)) {
                reps.push(r as u32);
            }
            point_of[r] = (reps.len() - 1) as u32;
            prev = r;
        }

        // One prior resolution per distinct point, not per row.
        let mut qi = Vec::with_capacity(d);
        let priors_by_point: Vec<&Dist> = reps
            .iter()
            .map(|&r| {
                table.qi_into(r as usize, &mut qi);
                self.adversary.prior(&qi)
            })
            .collect();

        let memo: Mutex<SignatureMemo> = Mutex::default();
        let mut scratch = AuditScratch::default();
        let mut out: Vec<(usize, f64)> = Vec::new();
        for rows in groups {
            if rows.is_empty() {
                continue;
            }
            scratch.priors.clear();
            scratch.prior_ids.clear();
            for &r in rows {
                let p = priors_by_point[point_of[r] as usize];
                scratch.priors.push(p);
                scratch.prior_ids.push(std::ptr::from_ref(p) as u64);
            }
            table.sensitive_counts_into(rows, &mut scratch.counts);
            scratch.signature.clear();
            scratch.signature.extend_from_slice(&scratch.prior_ids);
            scratch
                .signature
                .extend(scratch.counts.iter().map(|&c| u64::from(c)));
            self.audit_prepared(rows, &memo, &mut scratch, &mut out);
        }
        let mut risks = vec![f64::NAN; n];
        for (row, risk) in out {
            risks[row] = risk;
        }
        risks
    }

    /// Full audit with vulnerability threshold `t`.
    pub fn report(&self, table: &Table, groups: &[Vec<usize>], t: f64) -> AuditReport {
        self.assemble_report(self.tuple_risks(table, groups), t)
    }

    /// Disclosure risks with an explicit execution engine.
    ///
    /// [`Parallelism::Serial`] runs the flat-scan serial engine
    /// ([`tuple_risks`](Self::tuple_risks)); any other knob runs the batched
    /// engine with that many workers, sharing this auditor's
    /// `Arc<Adversary>` across them and memoizing posterior computations by
    /// group signature. All paths produce bit-identical risks.
    pub fn tuple_risks_with(
        &self,
        table: &Table,
        groups: &[Vec<usize>],
        parallelism: Parallelism,
    ) -> Vec<f64> {
        if parallelism.is_serial() {
            self.tuple_risks(table, groups)
        } else {
            self.tuple_risks_batched(table, groups, parallelism.effective_threads())
        }
    }

    /// Full audit with an explicit execution engine (see
    /// [`tuple_risks_with`](Self::tuple_risks_with)).
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

    /// The batched engine. Worker jobs on the process-wide
    /// [`shared_pool`](bgkanon_data::shared_pool) claim batches of groups
    /// from an atomic cursor; each group's risks are either replayed from
    /// the signature memo or computed once and published to it. Running on
    /// the persistent pool (instead of a per-call `std::thread::scope`)
    /// means a serving process that audits continuously across many
    /// sessions pays thread spawns once, and concurrent audits interleave
    /// on the same workers instead of oversubscribing the machine.
    fn tuple_risks_batched(
        &self,
        table: &Table,
        groups: &[Vec<usize>],
        workers: usize,
    ) -> Vec<f64> {
        let shared = Arc::new(BatchState {
            // O(1): tables share their row buffers.
            table: table.clone(),
            // One row-list copy per call — the same shape (and cost) the
            // `row_groups()` callers already materialize per audit.
            groups: groups.to_vec(),
            cursor: AtomicUsize::new(0),
            memo: Mutex::default(),
        });
        let jobs: Vec<_> = (0..workers)
            .map(|_| {
                let auditor = self.clone();
                let state = Arc::clone(&shared);
                move || auditor.audit_worker(&state)
            })
            .collect();
        let outputs = bgkanon_data::shared_pool().run(jobs);
        let mut risks = vec![f64::NAN; table.len()];
        for (row, risk) in outputs.into_iter().flatten() {
            risks[row] = risk;
        }
        risks
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
                if rows.is_empty() {
                    continue;
                }
                self.audit_group(&state.table, rows, &state.memo, &mut scratch, &mut out);
            }
        }
    }

    /// Resolve a group's priors, prior identities, sensitive histogram and
    /// memo signature into `scratch`.
    ///
    /// Each member's prior is resolved once, against the shared model:
    /// through `points` — the model and the point of its fold each table
    /// row folds into — when given, by the row's QI codes otherwise. Both
    /// find the very same `Dist`. The model is immutable for the duration
    /// of the audit, so a prior's address identifies it: equal addresses ⇒
    /// the very same `Dist`.
    ///
    /// The group signature is the *sequence* of prior identities plus the
    /// sensitive histogram. The sequence (not just the multiset) matters
    /// because the reference path accumulates column sums — and the exact
    /// path its permanent DP — in row order, so only an order-preserving
    /// replay is guaranteed bit-identical.
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

        scratch.signature.clear();
        scratch.signature.extend_from_slice(&scratch.prior_ids);
        scratch
            .signature
            .extend(scratch.counts.iter().map(|&c| u64::from(c)));
    }

    /// Audit one group, replaying the memo when its signature was already
    /// solved.
    fn audit_group<'a>(
        &'a self,
        table: &Table,
        rows: &[usize],
        memo: &Mutex<SignatureMemo>,
        scratch: &mut AuditScratch<'a>,
        out: &mut Vec<(usize, f64)>,
    ) {
        self.prepare_group(table, rows, None, scratch);
        self.audit_prepared(rows, memo, scratch, out);
    }

    /// Memo lookup + solve + emit for a group whose scratch (priors,
    /// counts, signature) is already prepared — shared by the batched
    /// workers and the flat-scan serial engine.
    fn audit_prepared(
        &self,
        rows: &[usize],
        memo: &Mutex<SignatureMemo>,
        scratch: &mut AuditScratch<'_>,
        out: &mut Vec<(usize, f64)>,
    ) {
        let cached = lock_memo(memo).get(&scratch.signature).cloned();
        let solved = match cached {
            Some(solved) => solved,
            None => {
                let solved = Arc::new(self.solve_group(rows, scratch));
                lock_memo(memo).insert(scratch.signature.clone(), Arc::clone(&solved));
                solved
            }
        };
        for (&row, &risk) in rows.iter().zip(solved.iter()) {
            out.push((row, risk));
        }
    }

    /// Compute one group's risks, positionally aligned with its rows — the
    /// value the memo caches. Arithmetic mirrors the reference path exactly.
    fn solve_group(&self, rows: &[usize], scratch: &mut AuditScratch<'_>) -> Vec<f64> {
        let AuditScratch {
            priors,
            prior_ids,
            counts,
            prepared_at,
            prepared,
            risk,
            ..
        } = scratch;
        let mut members = AuditMembers {
            measure: self.measure.as_ref(),
            priors,
            ids: prior_ids,
            prepared_at,
            prepared,
        };
        let mut solved = Vec::with_capacity(rows.len());
        let _ = scan_group_risks(self.measure.as_ref(), &mut members, counts, risk, |r| {
            solved.push(r);
            ControlFlow::Continue(())
        });
        solved
    }
}

/// One audited group's members: its borrowed priors and their address
/// identities, with the measure's prepared priors cached per identity for
/// the scratch's lifetime in one flat array.
struct AuditMembers<'s, 'a> {
    measure: &'s dyn BeliefDistance,
    priors: &'s [&'a Dist],
    ids: &'s [u64],
    prepared_at: &'s mut WordMap<u64, usize>,
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
        let m = prior.len();
        let prepared = &mut *self.prepared;
        let measure = self.measure;
        let at = *self.prepared_at.entry(self.ids[j]).or_insert_with(|| {
            let at = prepared.len();
            prepared.resize(at + m, 0.0);
            measure.prepare_prior_into(prior, &mut prepared[at..]);
            at
        });
        &self.prepared[at..at + m]
    }
}

/// State one batched-engine call shares across its pooled worker jobs. Jobs
/// are `'static`, so the call's inputs move in by value: the table clone is
/// O(1) (shared row buffers) and the auditor clone is two `Arc`s.
struct BatchState {
    table: Table,
    groups: Vec<Vec<usize>>,
    cursor: AtomicUsize,
    /// Signature → per-prior-identity risks. Two groups share a signature
    /// exactly when they have the same multiset of priors and the same
    /// sensitive histogram, which determines every member's posterior and
    /// therefore its risk.
    memo: Mutex<SignatureMemo>,
}

/// Estimated owned heap bytes of one signature-memo entry: the boxed key,
/// the shared risk vector payload, and fixed map-entry bookkeeping. An
/// accounting proxy (shared `Arc`s are charged to every holder), not an
/// allocator-exact measurement — the hub's memory budget only needs a
/// consistent, deterministic upper bound.
const CACHE_ENTRY_OVERHEAD: usize = 48;

fn cache_entry_bytes(key_words: usize, risk_count: usize) -> usize {
    key_words * 8 + risk_count * 8 + CACHE_ENTRY_OVERHEAD
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
    /// Memo key under construction.
    signature: Vec<u64>,
    /// Offset in `prepared` of each prior identity's prepared prior.
    prepared_at: WordMap<u64, usize>,
    /// The measure's prepared priors, `m` values each, kept for the
    /// scratch's lifetime.
    prepared: Vec<f64>,
    /// The group-risk kernel's buffers.
    risk: RiskScratch,
    /// Reused QI gather buffer for per-row prior lookups.
    qi_buf: Vec<u32>,
}

/// One entry of a [`SharedAuditSession`] cache, tagged with the generation
/// of the report that last used it so stale entries can be evicted.
struct CacheEntry {
    generation: u64,
    risks: Arc<Vec<f64>>,
}

/// Stamp-cache entries read out of one [`SharedAuditSession`]
/// ([`carry_stamps`](SharedAuditSession::carry_stamps)) for a successor
/// session ([`carried`](SharedAuditSession::carried)): one optional risk
/// vector per stamp asked for. Holding it does not keep the old session or
/// its adversary model alive.
#[derive(Debug)]
pub struct StampCarry {
    risks: Vec<Option<Arc<Vec<f64>>>>,
}

/// The caches a [`SharedAuditSession`] protects with its one mutex.
struct SharedCaches {
    memo: WordMap<Vec<u64>, CacheEntry>,
    stamps: WordMap<u64, CacheEntry>,
    generation: u64,
}

/// A retained audit state for repeated publications of an evolving table,
/// which **any number of reader threads share through `&self`** — the read
/// path of the serving hub, where audits run concurrently against immutable
/// published snapshots while a writer keeps applying deltas, and the audit
/// cache of a single-owner publishing session.
///
/// The wrapped [`Auditor`] embodies one fixed adversary model (prior
/// identities stay valid for the session's lifetime), and two cache levels
/// replay group risks **bit-identically** to a fresh audit (the values
/// cached are exactly the ones a fresh run computes):
///
/// * a **signature memo** — group signature (prior-identity sequence +
///   sensitive histogram) → per-member risks, the same memo the batched
///   engine builds per call, here kept alive between calls;
/// * a **stamp cache** — an opaque caller-supplied token per group →
///   risks, letting unchanged groups skip even the signature computation.
///   A stamp must change whenever the group's membership (row set or
///   order) changes and never collide between distinct memberships
///   audited by this session. Partition-tree leaf stamps satisfy this
///   *across versions of an evolving table*, so after a delta only the
///   groups the delta dirtied miss the cache, no matter which reader
///   thread audited the previous version.
///
/// Entries no recent report used are dropped after a grace window, so
/// dissolved groups do not accumulate.
///
/// A session that audits one fixed table version can be bound to the row →
/// point array of its model's fold
/// ([`with_row_points`](Self::with_row_points), [`carried`](Self::carried)):
/// a re-solved group then reads each member's prior at its row's point,
/// with no QI gather and no hashing. It finds the same `Dist` the QI lookup
/// would, so reports do not change.
///
/// Group solving runs outside the lock; the mutex only guards cache
/// lookups and inserts, so concurrent readers contend for microseconds,
/// not for the Ω computation. Two readers racing on the same cold group
/// may both solve it — they produce identical bits, and the first insert
/// wins.
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
/// let fresh = auditor.report(&table, &groups, 0.25);
///
/// let shared = Arc::new(SharedAuditSession::new(auditor));
/// let slices: Vec<&[usize]> = groups.iter().map(|g| g.as_slice()).collect();
/// // `report_groups` takes `&self`: clone the Arc into as many reader
/// // threads as you like.
/// let replay = shared.report_groups(&table, &slices, None, 0.25);
/// assert_eq!(replay.worst_case.to_bits(), fresh.worst_case.to_bits());
/// ```
pub struct SharedAuditSession {
    auditor: Auditor,
    /// For a bound session, the point of the model's fold each row of the
    /// audited table folds into; empty otherwise.
    row_points: Vec<u32>,
    caches: Mutex<SharedCaches>,
}

impl SharedAuditSession {
    /// Generations a signature-memo entry survives unused: a stamp-served
    /// group never touches its memo entry, yet its signature comes straight
    /// back when a later delta rebuilds an equal-content group — evicting
    /// eagerly would turn that replay into a full Ω recomputation.
    const MEMO_GRACE: u64 = 8;
    /// Generations a stamp entry survives unused. Concurrent readers may
    /// interleave reports of adjacent versions, so a stamp another
    /// in-flight reader is about to hit again must not be evicted the
    /// moment one report skips it.
    const STAMP_GRACE: u64 = 4;

    /// Open a shared session around `auditor`. The auditor's adversary
    /// model is pinned for the session's lifetime.
    pub fn new(auditor: Auditor) -> Self {
        Self::with_row_points(auditor, Vec::new())
    }

    /// Open a session bound to one table version: `row_points[r]` is the
    /// point of the adversary model's fold that row `r` of that table folds
    /// into ([`FoldedTable::with_row_points`](bgkanon_knowledge::FoldedTable::with_row_points)
    /// of the table the model was estimated or refreshed to). Reports
    /// resolve priors through it whenever the table has one row per entry
    /// and the model a fold of as many rows; audit only that table version
    /// through a bound session.
    pub fn with_row_points(auditor: Auditor, row_points: Vec<u32>) -> Self {
        SharedAuditSession {
            auditor,
            row_points,
            caches: Mutex::new(SharedCaches {
                memo: WordMap::default(),
                stamps: WordMap::default(),
                generation: 0,
            }),
        }
    }

    /// Open a session for an adversary whose prior model was refreshed from
    /// the one behind `carry`'s session, seeded with the carried stamp
    /// entries of every **clean** group: its stamp was cached there and
    /// none of its rows folds into a point whose prior the refresh
    /// recomputed. Such a group has the same member tuples (the stamp
    /// contract) and, member by member, bit-identical priors and sensitive
    /// histogram, so its risks are exactly the cached ones. Every other
    /// group misses and is solved on the first report. The signature memo
    /// is never carried: it is keyed by prior identities inside the old
    /// model, which a refresh may move or overwrite.
    ///
    /// `groups` and `stamps` are the new version's, `row_points[r]` is the
    /// refreshed fold's point for row `r`
    /// ([`FoldedTable::with_row_points`](bgkanon_knowledge::FoldedTable::with_row_points)),
    /// and `dirty` is what
    /// [`PriorEstimator::refresh_folded`](bgkanon_knowledge::PriorEstimator::refresh_folded)
    /// returned. The session keeps `row_points` and is bound to the new
    /// version ([`with_row_points`](Self::with_row_points)).
    pub fn carried(
        auditor: Auditor,
        carry: StampCarry,
        groups: &[&[usize]],
        stamps: &[u64],
        row_points: Vec<u32>,
        dirty: &DirtyPoints,
    ) -> Self {
        let mut inherited = WordMap::with_capacity_and_hasher(groups.len(), Default::default());
        for ((rows, &stamp), risks) in groups.iter().zip(stamps).zip(carry.risks) {
            let Some(risks) = risks else {
                continue;
            };
            let clean = risks.len() == rows.len()
                && rows
                    .iter()
                    .all(|&r| row_points.get(r).is_some_and(|&p| !dirty.contains(p)));
            if clean {
                inherited.insert(
                    stamp,
                    CacheEntry {
                        generation: 0,
                        risks,
                    },
                );
            }
        }
        SharedAuditSession {
            auditor,
            row_points,
            caches: Mutex::new(SharedCaches {
                memo: WordMap::default(),
                stamps: inherited,
                generation: 0,
            }),
        }
    }

    /// The row → point array this session is bound to (empty when
    /// unbound).
    pub fn row_points(&self) -> &[u32] {
        &self.row_points
    }

    /// The model and row → point array to resolve `table`'s priors
    /// through, when this session is bound to a table of its length.
    fn point_priors(&self, table: &Table) -> Option<(&PriorModel, &[u32])> {
        let model = self.auditor.adversary.prior_model()?;
        let rows = self.row_points.len();
        let bound = rows == table.len() && model.folded().is_some_and(|f| f.rows() == rows);
        bound.then_some((model.as_ref(), self.row_points.as_slice()))
    }

    /// The risks this session has cached under each of `group_stamps`
    /// (`Arc` clones; the session is left as it was), for
    /// [`carried`](Self::carried) to hand to a successor session.
    pub fn carry_stamps(&self, group_stamps: &[u64]) -> StampCarry {
        let caches = self.lock_caches();
        let risks = group_stamps
            .iter()
            .map(|s| caches.stamps.get(s).map(|e| Arc::clone(&e.risks)))
            .collect();
        StampCarry { risks }
    }

    /// The wrapped auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// Number of live signature-memo entries (diagnostics).
    pub fn cached_signatures(&self) -> usize {
        self.lock_caches().memo.len()
    }

    /// Number of live stamp-cache entries.
    #[cfg(test)]
    fn cached_stamps(&self) -> usize {
        self.lock_caches().stamps.len()
    }

    /// Heap bytes resident in the session — signature memo, stamp cache
    /// and row → point array, a deterministic owned-payload estimate taken
    /// under one brief lock. The adversary model behind the auditor is **not**
    /// counted here: it is charged to its owner (the hub's intern table
    /// for `Adv(b')` models, the caller for external auditors), so a
    /// model shared by many tenants is accounted once.
    pub fn bytes_accounted(&self) -> usize {
        let caches = self.lock_caches();
        let memo: usize = caches
            .memo
            .iter() // bgk-allow: R3 order-independent byte sum
            .map(|(sig, e)| cache_entry_bytes(sig.len(), e.risks.len()))
            .sum();
        let stamps: usize = caches
            .stamps
            .values() // bgk-allow: R3 order-independent byte sum
            .map(|e| cache_entry_bytes(1, e.risks.len()))
            .sum();
        memo + stamps + self.row_points.len() * 4
    }

    /// The cache guard, poison-tolerant: a reader that panicked while
    /// holding it may have left the caches half-updated, so a poisoned lock
    /// is recovered with both caches cleared. Every entry is
    /// rebuild-on-miss and replays are bit-identical, so the next report
    /// simply recomputes — one panicked reader never wedges the tenant.
    fn lock_caches(&self) -> MutexGuard<'_, SharedCaches> {
        self.caches.lock().unwrap_or_else(|poisoned| {
            self.caches.clear_poison();
            let mut caches = poisoned.into_inner();
            caches.memo.clear();
            caches.stamps.clear();
            caches
        })
    }

    /// Audit `groups` with threshold `t` through the shared caches —
    /// bit-identical to [`Auditor::report`] on the same inputs, callable
    /// from any number of threads concurrently. `stamps`, when given, holds
    /// one token per group under the stamp contract above; hits skip even
    /// the signature computation. Measure preparation of priors is per
    /// call: a persistent prepared-prior cache would serialize readers on
    /// the mutex.
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
        let mut risks = vec![f64::NAN; table.len()];
        let points = self.point_priors(table);

        // Pass 1 (one short lock): bump the generation and collect every
        // stamp hit as an `Arc` clone. Only pointer bumps happen under the
        // lock — the per-row copies run after it is released, so readers in
        // the all-hits steady state contend for microseconds, not for the
        // O(n) risk scatter.
        let generation;
        let mut missed: Vec<usize> = Vec::new();
        let mut hits: Vec<(usize, Arc<Vec<f64>>)> = Vec::new();
        {
            let mut caches = self.lock_caches();
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

        // Pass 2: solve the misses outside the lock, consulting the
        // signature memo under brief locks.
        let mut scratch = AuditScratch::default();
        for gi in missed {
            let rows = groups[gi];
            self.auditor
                .prepare_group(table, rows, points, &mut scratch);
            let cached = {
                let mut caches = self.lock_caches();
                caches.memo.get_mut(&scratch.signature).map(|entry| {
                    entry.generation = generation;
                    Arc::clone(&entry.risks)
                })
            };
            let solved = match cached {
                Some(solved) => solved,
                None => {
                    let solved = Arc::new(self.auditor.solve_group(rows, &mut scratch));
                    let mut caches = self.lock_caches();
                    Arc::clone(
                        &caches
                            .memo
                            .entry(scratch.signature.clone())
                            .or_insert(CacheEntry {
                                generation,
                                risks: solved,
                            })
                            .risks,
                    )
                }
            };
            if let Some(stamp) = stamps.map(|s| s[gi]) {
                let mut caches = self.lock_caches();
                caches
                    .stamps
                    .entry(stamp)
                    .and_modify(|e| e.generation = generation)
                    .or_insert(CacheEntry {
                        generation,
                        risks: Arc::clone(&solved),
                    });
            }
            for (&row, &risk) in rows.iter().zip(solved.iter()) {
                risks[row] = risk;
            }
        }

        // Graced invalidation: entries no recent report touched are gone —
        // dissolved groups do not accumulate, while groups a concurrent
        // reader of an adjacent version still replays survive the window.
        {
            let mut caches = self.lock_caches();
            let generation = caches.generation;
            caches
                .memo
                .retain(|_, e| e.generation + Self::MEMO_GRACE >= generation);
            caches
                .stamps
                .retain(|_, e| e.generation + Self::STAMP_GRACE >= generation);
        }
        self.auditor.assemble_report(risks, t)
    }
}

impl std::fmt::Debug for SharedAuditSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (memo, stamps) = {
            let caches = self.lock_caches();
            (caches.memo.len(), caches.stamps.len())
        };
        f.debug_struct("SharedAuditSession")
            .field("auditor", &self.auditor)
            .field("cached_signatures", &memo)
            .field("cached_stamps", &stamps)
            .finish()
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
    fn risks_cover_all_rows() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let risks = a.tuple_risks(&t, &toy::hospital_groups());
        assert_eq!(risks.len(), t.len());
        assert!(risks.iter().all(|r| !r.is_nan() && *r >= 0.0));
    }

    #[test]
    fn flat_scan_engine_is_bit_identical_to_reference() {
        // The flat-scan serial path vs the row-at-a-time §V.A
        // transcription — same table, same groups, bit-identical risks.
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
                let flat = a.tuple_risks(&t, &groups);
                let reference = a.tuple_risks_reference(&t, &groups);
                for (row, (x, y)) in flat.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "flat vs reference diverge at row {row} (seed {seed})"
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
        let serial = a.tuple_risks_with(&t, &groups, Parallelism::Serial);
        for workers in [1usize, 2, 4] {
            let batched = a.tuple_risks_with(&t, &groups, Parallelism::threads(workers));
            assert_eq!(serial.len(), batched.len());
            for (row, (s, b)) in serial.iter().zip(&batched).enumerate() {
                assert!(
                    s.to_bits() == b.to_bits(),
                    "row {row} diverges at {workers} workers: {s} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_engine_handles_constant_prior_adversaries() {
        // A constant-prior adversary makes every group share one prior
        // object — the memo's best case; results must still match.
        let t = toy::hospital_table();
        let adv = Arc::new(Adversary::t_closeness(&t));
        let measure = Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
        let a = Auditor::new(adv, measure);
        let groups = toy::hospital_groups();
        let serial = a.tuple_risks_with(&t, &groups, Parallelism::Serial);
        let batched = a.tuple_risks_with(&t, &groups, Parallelism::threads(2));
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!(s.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn report_with_matches_report() {
        let t = toy::hospital_table();
        let a = auditor(&t, 0.3);
        let groups = toy::hospital_groups();
        let serial = a.report(&t, &groups, 0.1);
        let batched = a.report_with(&t, &groups, 0.1, Parallelism::Auto);
        assert_eq!(serial.worst_case.to_bits(), batched.worst_case.to_bits());
        assert_eq!(serial.mean.to_bits(), batched.mean.to_bits());
        assert_eq!(serial.vulnerable, batched.vulnerable);
    }

    #[test]
    fn audit_session_replays_bit_identically() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let a = auditor(&t, 0.3);
        let fresh = a.report(&t, &groups, 0.1);
        let session = SharedAuditSession::new(a);
        let first = session.report_groups(&t, &slices, None, 0.1);
        assert!(session.cached_signatures() > 0);
        assert_eq!(session.cached_stamps(), 0);
        let replay = session.report_groups(&t, &slices, None, 0.1);
        for ((f, a), b) in fresh.risks.iter().zip(&first.risks).zip(&replay.risks) {
            assert_eq!(f.to_bits(), a.to_bits());
            assert_eq!(f.to_bits(), b.to_bits());
        }
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
        // Same stamps: served from the stamp cache, same bits.
        let hit = session.report_groups(&t, &slices, Some(&stamps), 0.1);
        for (a, b) in first.risks.iter().zip(&hit.risks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Dropping one group evicts its stamp once the grace window has
        // passed; the partial reports stay bit-identical to a fresh audit.
        let fewer = [groups[0].clone(), groups[1].clone()];
        let reference = auditor(&t, 0.3).report(&t, &fewer, 0.1);
        for _ in 0..=SharedAuditSession::STAMP_GRACE {
            let partial = session.report_groups(&t, &slices[..2], Some(&stamps[..2]), 0.1);
            assert!(partial.risks[groups[2][0]].is_nan());
            assert_eq!(partial.worst_case.to_bits(), reference.worst_case.to_bits());
        }
        assert_eq!(session.cached_stamps(), 2);
        // A changed stamp misses the stamp cache but still replays the
        // group's signature, bit for bit.
        let solved = session.cached_signatures();
        let restamped = session.report_groups(&t, &slices, Some(&[11, 22, 44]), 0.1);
        assert_eq!(session.cached_signatures(), solved);
        for (a, b) in first.risks.iter().zip(&restamped.risks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shared_session_is_send_sync_and_replays_bit_identically() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedAuditSession>();

        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let a = auditor(&t, 0.3);
        let fresh = a.report(&t, &groups, 0.1);
        let shared = SharedAuditSession::new(a);
        let stamps = [7u64, 8, 9];
        let first = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(shared.cached_stamps(), 3);
        assert!(shared.cached_signatures() > 0);
        let replay = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        for ((f, a), b) in fresh.risks.iter().zip(&first.risks).zip(&replay.risks) {
            assert_eq!(f.to_bits(), a.to_bits());
            assert_eq!(f.to_bits(), b.to_bits());
        }
        assert!(format!("{shared:?}").contains("SharedAuditSession"));
    }

    #[test]
    fn shared_session_concurrent_readers_match_reference() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let a = auditor(&t, 0.3);
        let fresh = a.report(&t, &groups, 0.1);
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
            for (f, r) in fresh.risks.iter().zip(&rep.risks) {
                assert_eq!(f.to_bits(), r.to_bits());
            }
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
        // (and eventually signatures) age out of the grace windows.
        for _ in 0..(SharedAuditSession::MEMO_GRACE + SharedAuditSession::STAMP_GRACE) {
            let partial = shared.report_groups(&t, &slices[..1], Some(&[1]), 0.1);
            assert!(partial.risks[groups[0][0]].is_finite());
        }
        assert_eq!(shared.cached_stamps(), 1);
        assert!(shared.cached_signatures() <= 1);
    }

    #[test]
    fn poisoned_shared_caches_recover_with_fresh_reports() {
        let t = toy::hospital_table();
        let groups = toy::hospital_groups();
        let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
        let stamps = [4u64, 5, 6];
        let fresh = auditor(&t, 0.3).report(&t, &groups, 0.1);
        let shared = Arc::new(SharedAuditSession::new(auditor(&t, 0.3)));
        let _ = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert_eq!(shared.cached_stamps(), 3);

        // A pooled reader panics while holding the cache lock.
        let poisoner = Arc::clone(&shared);
        let job = move || {
            let _guard = poisoner.caches.lock();
            panic!("reader panicked while holding the audit caches");
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bgkanon_data::shared_pool().run(vec![job])
        }));
        assert!(outcome.is_err());
        assert!(shared.caches.is_poisoned());

        // The next report clears the caches, recomputes, and matches a
        // fresh auditor bit for bit; the lock is healthy again.
        let report = shared.report_groups(&t, &slices, Some(&stamps), 0.1);
        assert!(!shared.caches.is_poisoned());
        assert_eq!(report.risks.len(), fresh.risks.len());
        for (f, r) in fresh.risks.iter().zip(&report.risks) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
        assert_eq!(report.worst_case.to_bits(), fresh.worst_case.to_bits());
        assert_eq!(report.mean.to_bits(), fresh.mean.to_bits());
        assert_eq!(report.vulnerable, fresh.vulnerable);
        assert_eq!(shared.cached_stamps(), 3);
    }

    #[test]
    fn bound_and_unbound_sessions_match_a_fresh_report() {
        use bgkanon_data::Parallelism;
        use bgkanon_knowledge::{FoldedTable, PriorEstimator};
        for seed in [5u64, 13] {
            let t = bgkanon_data::adult::generate(300, seed);
            let bandwidth = Bandwidth::uniform(0.3, t.qi_count()).unwrap();
            let (fold, row_points) = FoldedTable::with_row_points(&t);
            let model = PriorEstimator::new(Arc::clone(t.schema()), bandwidth.clone())
                .estimate_folded(fold, Parallelism::Auto);
            let adversary = Arc::new(Adversary::from_model("Adv", bandwidth, Arc::new(model)));
            let measure = Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
            let auditor = Auditor::new(adversary, measure);
            let groups: Vec<Vec<usize>> = (0..t.len())
                .step_by(5)
                .map(|start| (start..(start + 5).min(t.len())).collect())
                .collect();
            let slices: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            let fresh = auditor.report(&t, &groups, 0.2);

            let bound = SharedAuditSession::with_row_points(auditor.clone(), row_points.clone());
            assert!(bound.point_priors(&t).is_some());
            let unbound = SharedAuditSession::new(auditor.clone());
            assert!(unbound.point_priors(&t).is_none());
            // Row points of another length leave the session on the QI path.
            let short = SharedAuditSession::with_row_points(
                auditor.clone(),
                row_points[..t.len() - 1].to_vec(),
            );
            assert!(short.point_priors(&t).is_none());
            for session in [&bound, &unbound, &short] {
                for stamps in [
                    None,
                    Some(&(0..groups.len() as u64).collect::<Vec<_>>()[..]),
                ] {
                    let report = session.report_groups(&t, &slices, stamps, 0.2);
                    for (x, y) in fresh.risks.iter().zip(&report.risks) {
                        assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}");
                    }
                    assert_eq!(report.worst_case.to_bits(), fresh.worst_case.to_bits());
                    assert_eq!(report.vulnerable, fresh.vulnerable);
                }
            }
            // Both paths memoize under the same prior identities.
            assert_eq!(bound.cached_signatures(), unbound.cached_signatures());
            assert_eq!(
                bound.bytes_accounted(),
                unbound.bytes_accounted() + row_points.len() * 4
            );
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
