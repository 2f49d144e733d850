//! Mondrian multidimensional partitioning (LeFevre et al.), parameterized by
//! a privacy requirement.
//!
//! Top-down: start with the whole table as one region; repeatedly pick the
//! dimension with the widest *normalized* range, split at the median, and
//! commit the split only if **both** halves satisfy the requirement;
//! otherwise try the next-widest dimension. A region where no dimension
//! admits a valid split becomes a published group. This reproduces the
//! "variations of Mondrian \[that\] use the original dimension selection and
//! median split heuristics, and check if the specific privacy requirement is
//! satisfied" (§V).
//!
//! Two execution engines produce the same partition:
//!
//! * [`Mondrian::anonymize`] — the single-threaded **reference** path: a
//!   direct transcription of the algorithm, kept simple on purpose so the
//!   optimized engine can be property-tested against it;
//! * [`Mondrian::plant_with`] — the **parallel** engine: worker jobs on
//!   the process-wide [`shared_pool`](bgkanon_data::shared_pool) steal
//!   regions from a shared deque, split them
//!   with a stable counting sort (QI domains are small dense codes), derive
//!   the right half's sensitive histogram by subtraction from the parent's,
//!   and reuse per-worker scratch buffers. Because every region is split by
//!   the same deterministic rule and the final groups are ordered by their
//!   first row, the output is bit-identical to the reference path regardless
//!   of scheduling — `tests/tests/parallel.rs` proves this property.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bgkanon_data::{Parallelism, Table};
use bgkanon_privacy::{GroupView, PrivacyRequirement};

use crate::anonymized::AnonymizedTable;
use crate::tree::{NodeRec, PartitionTree};

/// Children at least this large go to the shared deque for other workers to
/// steal; smaller ones are processed on the local stack to avoid lock
/// traffic on the long tail of tiny regions.
const STEAL_THRESHOLD: usize = 2048;

/// The Mondrian anonymizer.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_anon::Mondrian;
/// use bgkanon_data::Parallelism;
/// use bgkanon_privacy::KAnonymity;
///
/// let table = bgkanon_data::adult::generate(200, 42);
/// let mondrian = Mondrian::new(Arc::new(KAnonymity::new(5)));
/// let published = mondrian.anonymize(&table);
/// assert!(published.iter().all(|g| g.len() >= 5));
///
/// // The parallel engine yields the identical partition.
/// let parallel = mondrian.plant_with(&table, Parallelism::threads(2)).to_anonymized(&table);
/// assert_eq!(published.group_count(), parallel.group_count());
/// ```
pub struct Mondrian {
    requirement: Arc<dyn PrivacyRequirement>,
}

/// The decision one committed Mondrian split is made of: the sequence of
/// dimensions the splitter *tried* (each attempt stably re-sorts the
/// region's rows, so the sequence — not just the winner — determines the
/// row order handed to the children), the winning dimension, and the median
/// threshold. Rows with `value < median` go left, or `value ≤ median` when
/// `le_mode` is set (the case where the median equals the region minimum).
///
/// Retaining the decision is what makes incremental republication possible:
/// a delta-refresh replays the decision procedure on a node's updated rows
/// and keeps the subtree exactly when the replay reproduces this record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitDecision {
    /// Dimensions tried, in order, up to and including the winning one.
    pub attempts: Vec<usize>,
    /// The winning dimension.
    pub dim: usize,
    /// The median code on `dim`.
    pub median: u32,
    /// `false`: left half is `value < median`; `true`: `value ≤ median`.
    pub le_mode: bool,
}

impl SplitDecision {
    /// Does a row with code `value` on the split dimension go to the left
    /// child?
    pub fn goes_left(&self, value: u32) -> bool {
        if self.le_mode {
            value <= self.median
        } else {
            value < self.median
        }
    }
}

/// A pending region of the partition tree: its member rows (in the order the
/// parent split left them — this order is part of the algorithm's output),
/// its sensitive histogram (carried along so each split only has to count
/// one half), the set of dimensions that can still have positive width, and
/// the tree slot the region's node will occupy.
/// Normalized width is monotone under taking subsets (numeric ranges shrink;
/// a sub-range's LCA in a hierarchy is a descendant-or-self of the range's),
/// so a dimension observed at zero width never needs to be scanned again.
pub(crate) struct Region {
    pub(crate) slot: usize,
    pub(crate) rows: Vec<usize>,
    pub(crate) counts: Vec<u32>,
    pub(crate) live_dims: u64,
}

/// Reusable buffers for [`Mondrian::decide_only_counts`].
#[derive(Default)]
pub(crate) struct DecideScratch {
    /// Row indices of the node under replay (translated from ids).
    pub(crate) rows: Vec<usize>,
    widths: Vec<(usize, f64)>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    value_counts: Vec<u32>,
    counts_total: Vec<u32>,
    counts_left: Vec<u32>,
    counts_right: Vec<u32>,
}

/// Per-worker scratch buffers for the optimized splitter.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// `(dimension, normalized width)` candidates, widest first.
    widths: Vec<(usize, f64)>,
    /// Live dimensions of the current region, as a list.
    live: Vec<usize>,
    /// Per-dimension minimum code over the region.
    lo: Vec<u32>,
    /// Per-dimension maximum code over the region.
    hi: Vec<u32>,
    /// Counting-sort histogram over one QI domain.
    value_counts: Vec<u32>,
    /// Counting-sort placement cursors.
    cursors: Vec<usize>,
    /// The region's rows, re-sorted per candidate dimension.
    sorted: Vec<usize>,
    /// Counting-sort output buffer.
    tmp: Vec<usize>,
    /// Left half's sensitive histogram.
    counts_left: Vec<u32>,
    /// Right half's sensitive histogram (parent minus left).
    counts_right: Vec<u32>,
}

impl SplitScratch {
    /// The per-dimension min/max the last [`Mondrian::try_split_fast`] call
    /// left behind — the finished region's published ranges.
    pub(crate) fn ranges(&self) -> (Vec<u32>, Vec<u32>) {
        (self.lo.clone(), self.hi.clone())
    }
}

impl Mondrian {
    /// Build with the privacy requirement every published group must
    /// satisfy.
    pub fn new(requirement: Arc<dyn PrivacyRequirement>) -> Self {
        Mondrian { requirement }
    }

    /// The requirement in force.
    pub fn requirement(&self) -> &Arc<dyn PrivacyRequirement> {
        &self.requirement
    }

    /// Partition `table` into the finest groups Mondrian can certify, on the
    /// single-threaded reference path: the view of the [`PartitionTree`]
    /// built by [`plant`](Self::plant). Any engine of
    /// [`plant_with`](Self::plant_with) yields the identical partition.
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement —
    /// no anonymization can then exist under this algorithm.
    pub fn anonymize(&self, table: &Table) -> AnonymizedTable {
        self.plant(table).to_anonymized(table)
    }

    /// Partition `table` into a persistent [`PartitionTree`] on the
    /// single-threaded reference path (equivalent to
    /// [`plant_with`](Self::plant_with) with [`Parallelism::Serial`]).
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement.
    pub fn plant(&self, table: &Table) -> PartitionTree {
        self.plant_with(table, Parallelism::Serial)
    }

    /// Partition `table` into a persistent [`PartitionTree`] — the
    /// retained-state form of the partition, recording every committed
    /// split's [`SplitDecision`] so later deltas can be routed through it
    /// by [`Mondrian::refresh`](Self::refresh). Both engines produce the
    /// identical tree.
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement.
    pub fn plant_with(&self, table: &Table, parallelism: Parallelism) -> PartitionTree {
        assert!(!table.is_empty(), "cannot anonymize an empty table");
        let all_rows: Vec<usize> = (0..table.len()).collect();
        let root_counts = table.sensitive_counts_in(&all_rows);
        let root_view = GroupView {
            table,
            rows: &all_rows,
            sensitive_counts: &root_counts,
        };
        assert!(
            self.requirement.is_satisfied(&root_view),
            "the whole table does not satisfy `{}`; no Mondrian output exists",
            self.requirement.name()
        );
        // The optimized engine tracks live dimensions in a u64 bitmask;
        // wider schemas (>64 QI attributes) fall back to the reference
        // engine rather than fail.
        let (slots, records) = if parallelism.is_serial() || table.qi_count() > 64 {
            self.records_serial(table, all_rows)
        } else {
            self.records_parallel(
                table,
                Region {
                    slot: 0,
                    rows: all_rows,
                    counts: root_counts,
                    live_dims: live_mask(table.qi_count()),
                },
                parallelism.effective_threads(),
            )
        };
        PartitionTree::from_records(table, slots, records)
    }

    /// The reference engine: a plain explicit-stack depth-first expansion
    /// emitting one node record per region.
    fn records_serial(
        &self,
        table: &Table,
        all_rows: Vec<usize>,
    ) -> (usize, Vec<(usize, NodeRec)>) {
        let mut records = Vec::new();
        let mut slots = 1usize;
        let mut stack = vec![(0usize, all_rows)];
        while let Some((slot, rows)) = stack.pop() {
            match self.decide_split(table, &rows) {
                Some((decision, left, right)) => {
                    let (l, r) = (slots, slots + 1);
                    slots += 2;
                    records.push((slot, NodeRec::internal(decision, l, r, rows.len())));
                    stack.push((l, left));
                    stack.push((r, right));
                }
                None => records.push((slot, NodeRec::leaf_from_rows(table, rows))),
            }
        }
        (slots, records)
    }

    /// The parallel engine: `workers` threads steal regions from a shared
    /// LIFO deque; each worker keeps a local stack of small regions and its
    /// own scratch buffers, and emits node records into a local vector
    /// merged after the scope joins. Tree slots are handed out by an atomic
    /// counter, so slot *numbers* depend on scheduling while the tree
    /// *content* does not.
    fn records_parallel(
        &self,
        table: &Table,
        root: Region,
        workers: usize,
    ) -> (usize, Vec<(usize, NodeRec)>) {
        let engine = Arc::new(Engine {
            state: Mutex::new(EngineState {
                deque: vec![root],
                active: 0,
            }),
            available: Condvar::new(),
            slots: AtomicUsize::new(1),
        });
        // Worker jobs run on the process-wide pool — a serving process
        // planting and re-planting trees across many sessions reuses the
        // same threads instead of spawning a scope per call. Jobs are
        // `'static`: the table clone is O(1) and the requirement is an
        // `Arc`. A worker only ever blocks waiting on *running* workers of
        // its own engine (a region is held exclusively by the job splitting
        // it), so the call completes even when the pool serializes the jobs.
        let jobs: Vec<_> = (0..workers)
            .map(|_| {
                let mondrian = Mondrian::new(Arc::clone(&self.requirement));
                let table = table.clone();
                let engine = Arc::clone(&engine);
                move || mondrian.worker(&table, &engine)
            })
            .collect();
        let outputs = bgkanon_data::shared_pool().run(jobs);
        (
            engine.slots.load(Ordering::Relaxed),
            outputs.into_iter().flatten().collect(),
        )
    }

    /// One worker of the parallel engine.
    fn worker(&self, table: &Table, engine: &Engine) -> Vec<(usize, NodeRec)> {
        let mut scratch = SplitScratch::default();
        let mut local: Vec<Region> = Vec::new();
        let mut records: Vec<(usize, NodeRec)> = Vec::new();
        loop {
            // Drain the local stack first; fall back to stealing.
            let region = match local.pop() {
                Some(r) => r,
                None => match engine.steal() {
                    Some(r) => r,
                    None => return records,
                },
            };
            match self.try_split_fast(table, &region, &mut scratch) {
                Some((decision, mut left, mut right)) => {
                    let l = engine.slots.fetch_add(2, Ordering::Relaxed);
                    left.slot = l;
                    right.slot = l + 1;
                    records.push((
                        region.slot,
                        NodeRec::internal(decision, l, l + 1, region.rows.len()),
                    ));
                    // Offer large halves to other workers; keep small ones.
                    for child in [right, left] {
                        if child.rows.len() >= STEAL_THRESHOLD {
                            engine.offer(child);
                        } else {
                            local.push(child);
                        }
                    }
                }
                // try_split_fast left the region's per-dimension min/max in
                // the scratch, so the leaf's ranges come for free.
                None => records.push((
                    region.slot,
                    NodeRec::leaf_from_parts(
                        region.rows,
                        scratch.lo.clone(),
                        scratch.hi.clone(),
                        region.counts,
                    ),
                )),
            }
            if local.is_empty() {
                engine.finished();
            }
        }
    }

    /// Attempt a median split of `rows`, returning the committed decision
    /// and both halves if some dimension yields halves that both satisfy
    /// the requirement. This is the reference implementation the optimized
    /// splitter mirrors — and the replay oracle the incremental refresh
    /// uses to decide whether a retained split is still exactly what a
    /// from-scratch run would do.
    pub(crate) fn decide_split(
        &self,
        table: &Table,
        rows: &[usize],
    ) -> Option<(SplitDecision, Vec<usize>, Vec<usize>)> {
        if rows.len() < 2 {
            return None;
        }
        let d = table.qi_count();
        // Normalized width of each dimension over this region.
        let mut widths: Vec<(usize, f64)> = (0..d)
            .map(|i| {
                let (mut lo, mut hi) = (u32::MAX, 0u32);
                for &r in rows {
                    let v = table.qi_value(r, i);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                let w = if hi > lo {
                    table.schema().qi_distance(i).get(lo, hi)
                } else {
                    0.0
                };
                (i, w)
            })
            .collect();
        // Widest first; ties broken by attribute index for determinism.
        widths.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });

        let mut sorted = rows.to_vec();
        let mut attempts = Vec::new();
        for &(dim, width) in &widths {
            if width <= 0.0 {
                break; // Every remaining dimension is constant.
            }
            attempts.push(dim);
            sorted.sort_by_key(|&r| table.qi_value(r, dim));
            // Median split value: the value of the middle row. Rows with
            // value ≤ split go left; ties stay together (strict Mondrian on
            // discrete domains).
            let median_value = table.qi_value(sorted[sorted.len() / 2], dim);
            // Choose the split threshold so both sides are non-empty: prefer
            // `v < median_value` vs rest; if the left side is empty (median
            // equals minimum), use `v ≤ median_value` vs rest.
            let (split_at, le_mode) = {
                let lt = sorted
                    .iter()
                    .position(|&r| table.qi_value(r, dim) >= median_value)
                    .unwrap_or(0);
                if lt > 0 {
                    (lt, false)
                } else {
                    match sorted
                        .iter()
                        .position(|&r| table.qi_value(r, dim) > median_value)
                    {
                        Some(le) if le < sorted.len() => (le, true),
                        _ => continue, // All values equal — cannot split here.
                    }
                }
            };
            let (left, right) = sorted.split_at(split_at);
            let (left, right) = (left.to_vec(), right.to_vec());
            let mut buf_l = Vec::new();
            let mut buf_r = Vec::new();
            let lv = GroupView::compute(table, &left, &mut buf_l);
            let rv = GroupView::compute(table, &right, &mut buf_r);
            if self.requirement.is_satisfied(&lv) && self.requirement.is_satisfied(&rv) {
                let decision = SplitDecision {
                    attempts,
                    dim,
                    median: median_value,
                    le_mode,
                };
                return Some((decision, left, right));
            }
        }
        None
    }

    /// Decision-only replay of the reference procedure for
    /// counts-decidable requirements: same widths, same candidate order,
    /// same medians, same requirement booleans — but since neither the
    /// decision nor a counts-decidable check depends on row order, no
    /// sorting, no half materialization and no allocation beyond the
    /// reusable `scratch`. The incremental refresh calls this once per
    /// dirty node, so the constant matters.
    pub(crate) fn decide_only_counts(
        &self,
        table: &Table,
        rows: &[usize],
        scratch: &mut DecideScratch,
    ) -> Option<SplitDecision> {
        if rows.len() < 2 {
            return None;
        }
        let n = rows.len();
        let d = table.qi_count();
        let schema = table.schema();
        let m = schema.sensitive_domain_size();
        scratch.lo.clear();
        scratch.hi.clear();
        // One min/max pass per attribute: each pass gathers from a single
        // code vector (contiguous on columnar tables) instead of striding
        // across whole rows.
        for a in 0..d {
            let col = table.qi_col(a);
            let mut lo = col.get(rows[0]);
            let mut hi = lo;
            for &r in &rows[1..] {
                let v = col.get(r);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            scratch.lo.push(lo);
            scratch.hi.push(hi);
        }
        scratch.widths.clear();
        for i in 0..d {
            if scratch.hi[i] > scratch.lo[i] {
                let w = schema.qi_distance(i).get(scratch.lo[i], scratch.hi[i]);
                if w > 0.0 {
                    scratch.widths.push((i, w));
                }
            }
        }
        scratch.widths.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        table.sensitive_counts_into(rows, &mut scratch.counts_total);
        let mut attempts = Vec::new();
        for wi in 0..scratch.widths.len() {
            let (dim, _) = scratch.widths[wi];
            attempts.push(dim);
            let dom = schema.qi_attribute(dim).domain_size() as usize;
            let col = table.qi_col(dim);
            scratch.value_counts.clear();
            scratch.value_counts.resize(dom, 0);
            for &r in rows {
                scratch.value_counts[col.get(r) as usize] += 1;
            }
            // The value at sorted position n/2 — the reference's median row.
            let target = n / 2;
            let mut acc = 0usize;
            let mut median = 0usize;
            for (v, &c) in scratch.value_counts.iter().enumerate() {
                let next = acc + c as usize;
                if target < next {
                    median = v;
                    break;
                }
                acc = next;
            }
            let lt = acc;
            let le = lt + scratch.value_counts[median] as usize;
            let (split_at, le_mode) = if lt > 0 {
                (lt, false)
            } else if le < n {
                (le, true)
            } else {
                continue; // All values equal — cannot split here.
            };
            let bound = if le_mode {
                median as u32 + 1
            } else {
                median as u32
            };
            scratch.counts_left.clear();
            scratch.counts_left.resize(m, 0);
            let sens = table.sensitive_col();
            for &r in rows {
                if col.get(r) < bound {
                    scratch.counts_left[sens[r] as usize] += 1;
                }
            }
            scratch.counts_right.clear();
            scratch.counts_right.extend(
                scratch
                    .counts_total
                    .iter()
                    .zip(&scratch.counts_left)
                    .map(|(&t, &l)| t - l),
            );
            let requirement = &self.requirement;
            if requirement.is_satisfied_by_counts(split_at, &scratch.counts_left)
                && requirement.is_satisfied_by_counts(n - split_at, &scratch.counts_right)
            {
                return Some(SplitDecision {
                    attempts,
                    dim,
                    median: median as u32,
                    le_mode,
                });
            }
        }
        None
    }

    /// The optimized splitter: identical decisions to [`try_split`] (same
    /// dimension order, same median rule, same tie-breaking — counting sort
    /// is stable exactly like the reference's stable sort), but with a fused
    /// width scan over live dimensions only, O(|rows| + domain) sorting,
    /// smaller-half histograms with integer subtraction (exact, so
    /// bit-identity is unaffected) and zero per-call allocation on the
    /// failure paths.
    ///
    /// On return — `Some` or `None` — `scratch.lo`/`scratch.hi` hold the
    /// region's per-dimension min/max, which [`leaf_group`] turns into the
    /// published ranges without rescanning.
    pub(crate) fn try_split_fast(
        &self,
        table: &Table,
        region: &Region,
        scratch: &mut SplitScratch,
    ) -> Option<(SplitDecision, Region, Region)> {
        let rows = &region.rows;
        let d = table.qi_count();
        let schema = table.schema();

        // Dead dimensions are constant: their range is the first row's value.
        scratch.lo.clear();
        scratch.hi.clear();
        table.qi_into(rows[0], &mut scratch.lo);
        scratch.hi.extend_from_slice(&scratch.lo);
        if rows.len() < 2 {
            return None;
        }

        // One min/max pass per live dimension — each pass reads a single
        // code vector (contiguous on columnar tables) instead of striding
        // across whole rows.
        scratch.live.clear();
        scratch
            .live
            .extend((0..d).filter(|i| region.live_dims & (1 << i) != 0));
        for &i in &scratch.live {
            let col = table.qi_col(i);
            let mut lo = scratch.lo[i];
            let mut hi = scratch.hi[i];
            for &r in rows.iter() {
                let v = col.get(r);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            scratch.lo[i] = lo;
            scratch.hi[i] = hi;
        }
        scratch.widths.clear();
        let mut child_live = 0u64;
        for &i in &scratch.live {
            let (lo, hi) = (scratch.lo[i], scratch.hi[i]);
            if hi > lo {
                let w = schema.qi_distance(i).get(lo, hi);
                if w > 0.0 {
                    scratch.widths.push((i, w));
                    child_live |= 1 << i;
                }
            }
        }
        // Widest first; ties broken by attribute index — the reference's
        // comparator restricted to the positive-width dimensions it would
        // have visited before breaking on the first zero width.
        scratch.widths.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });

        scratch.sorted.clear();
        scratch.sorted.extend_from_slice(rows);
        let n = rows.len();
        let mut attempts = Vec::new();
        for wi in 0..scratch.widths.len() {
            let (dim, _) = scratch.widths[wi];
            attempts.push(dim);
            // Stable counting sort of `sorted` by the dimension's code,
            // gathering from that dimension's code vector alone.
            let dom = schema.qi_attribute(dim).domain_size() as usize;
            let col = table.qi_col(dim);
            scratch.value_counts.clear();
            scratch.value_counts.resize(dom, 0);
            for &r in &scratch.sorted {
                scratch.value_counts[col.get(r) as usize] += 1;
            }
            scratch.cursors.clear();
            scratch.cursors.resize(dom, 0);
            let mut acc = 0usize;
            for v in 0..dom {
                scratch.cursors[v] = acc;
                acc += scratch.value_counts[v] as usize;
            }
            scratch.tmp.resize(n, 0);
            for &r in &scratch.sorted {
                let v = col.get(r) as usize;
                scratch.tmp[scratch.cursors[v]] = r;
                scratch.cursors[v] += 1;
            }
            std::mem::swap(&mut scratch.sorted, &mut scratch.tmp);

            // Median rule, answered from the histogram: `lt` rows sort
            // strictly below the median value, `le` at or below it.
            let median_value = col.get(scratch.sorted[n / 2]) as usize;
            let lt: usize = scratch.value_counts[..median_value]
                .iter()
                .map(|&c| c as usize)
                .sum();
            let le = lt + scratch.value_counts[median_value] as usize;
            let (split_at, le_mode) = if lt > 0 {
                (lt, false)
            } else if le < n {
                (le, true)
            } else {
                continue; // All values equal — cannot split here.
            };

            // Count the smaller half; the other histogram is the exact
            // integer difference from the parent's — u32 arithmetic, so
            // bit-identity is unaffected.
            let (left, right) = scratch.sorted.split_at(split_at);
            let (scan, scanned_is_left) = if split_at * 2 <= n {
                (left, true)
            } else {
                (right, false)
            };
            table.sensitive_counts_into(scan, &mut scratch.counts_left);
            scratch.counts_right.clear();
            scratch.counts_right.extend(
                region
                    .counts
                    .iter()
                    .zip(&scratch.counts_left)
                    .map(|(&p, &s)| p - s),
            );
            let (counts_l, counts_r) = if scanned_is_left {
                (&scratch.counts_left, &scratch.counts_right)
            } else {
                (&scratch.counts_right, &scratch.counts_left)
            };
            let lv = GroupView {
                table,
                rows: left,
                sensitive_counts: counts_l,
            };
            let rv = GroupView {
                table,
                rows: right,
                sensitive_counts: counts_r,
            };
            if self.requirement.is_satisfied(&lv) && self.requirement.is_satisfied(&rv) {
                let decision = SplitDecision {
                    attempts,
                    dim,
                    median: median_value as u32,
                    le_mode,
                };
                return Some((
                    decision,
                    Region {
                        slot: 0, // assigned by the caller
                        rows: left.to_vec(),
                        counts: counts_l.clone(),
                        live_dims: child_live,
                    },
                    Region {
                        slot: 0, // assigned by the caller
                        rows: right.to_vec(),
                        counts: counts_r.clone(),
                        live_dims: child_live,
                    },
                ));
            }
        }
        None
    }
}

/// Bitmask with the lowest `d` bits set — all dimensions live.
pub(crate) fn live_mask(d: usize) -> u64 {
    assert!(d <= 64, "at most 64 QI dimensions supported");
    if d == 64 {
        u64::MAX
    } else {
        (1u64 << d) - 1
    }
}

/// Shared state of the work-stealing engine.
struct Engine {
    state: Mutex<EngineState>,
    available: Condvar,
    /// Next free tree slot (slot 0 is the root).
    slots: AtomicUsize,
}

struct EngineState {
    /// Pending regions available for stealing (LIFO: deepest first, which
    /// bounds the deque size by the tree depth times the worker count).
    deque: Vec<Region>,
    /// Number of workers currently holding work (processing a region or
    /// draining a non-empty local stack). New deque entries can only appear
    /// while some worker is active, so `deque.is_empty() && active == 0`
    /// means the partition is complete.
    active: usize,
}

impl Engine {
    /// Block until a region can be stolen; `None` once the partition is
    /// complete. Stealing marks the calling worker active.
    fn steal(&self) -> Option<Region> {
        let mut st = self.state.lock().expect("engine lock");
        loop {
            if let Some(region) = st.deque.pop() {
                st.active += 1;
                return Some(region);
            }
            if st.active == 0 {
                // Wake everyone else blocked here so they can observe
                // completion too.
                self.available.notify_all();
                return None;
            }
            st = self.available.wait(st).expect("engine lock");
        }
    }

    /// Publish a region for other workers.
    fn offer(&self, region: Region) {
        let mut st = self.state.lock().expect("engine lock");
        st.deque.push(region);
        drop(st);
        self.available.notify_one();
    }

    /// The calling worker's local stack drained; it no longer holds work.
    fn finished(&self) {
        let mut st = self.state.lock().expect("engine lock");
        st.active -= 1;
        let done = st.active == 0 && st.deque.is_empty();
        drop(st);
        if done {
            self.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy, TableBuilder};
    use bgkanon_privacy::{And, DistinctLDiversity, KAnonymity};

    fn mondrian_k(k: usize) -> Mondrian {
        Mondrian::new(Arc::new(KAnonymity::new(k)))
    }

    #[test]
    fn output_is_a_partition_satisfying_requirement() {
        let t = adult::generate(500, 3);
        let m = mondrian_k(4);
        let at = m.anonymize(&t);
        // Partition validity is asserted inside AnonymizedTable::new; check
        // the requirement on every group.
        for g in at.groups() {
            assert!(g.len() >= 4, "group of size {}", g.len());
        }
        assert!(
            at.group_count() > 1,
            "500 rows must split under 4-anonymity"
        );
    }

    #[test]
    fn groups_cannot_be_split_further_greedily() {
        // Finest-partition property: every leaf either is small or no median
        // split of it satisfies the requirement. We verify the weaker, exact
        // invariant that re-running Mondrian on a leaf yields one group.
        let t = adult::generate(300, 4);
        let m = mondrian_k(5);
        let at = m.anonymize(&t);
        for g in at.groups().iter().take(5) {
            let mut rows = TableBuilder::new(Arc::clone(t.schema()));
            for &r in g.rows.iter() {
                rows.push_codes(&t.qi(r), t.sensitive_value(r)).unwrap();
            }
            let sub = rows.build().unwrap();
            let sub_at = mondrian_k(5).anonymize(&sub);
            assert_eq!(sub_at.group_count(), 1);
        }
    }

    #[test]
    fn stricter_k_gives_fewer_larger_groups() {
        let t = adult::generate(800, 5);
        let loose = mondrian_k(3).anonymize(&t);
        let strict = mondrian_k(12).anonymize(&t);
        assert!(strict.group_count() <= loose.group_count());
        assert!(strict.average_group_size() >= loose.average_group_size());
        for g in strict.groups() {
            assert!(g.len() >= 12);
        }
    }

    #[test]
    fn deterministic_output() {
        let t = adult::generate(400, 6);
        let a = mondrian_k(5).anonymize(&t);
        let b = mondrian_k(5).anonymize(&t);
        assert_eq!(a.group_count(), b.group_count());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.rows, gb.rows);
        }
    }

    #[test]
    fn parallel_engine_matches_reference_bitwise() {
        let t = adult::generate(1200, 9);
        let m = mondrian_k(6);
        let serial = m.plant_with(&t, Parallelism::Serial).to_anonymized(&t);
        for workers in [1usize, 2, 4] {
            let parallel = m
                .plant_with(&t, Parallelism::threads(workers))
                .to_anonymized(&t);
            assert_eq!(serial.group_count(), parallel.group_count());
            for (ga, gb) in serial.groups().iter().zip(parallel.groups()) {
                assert_eq!(ga.rows, gb.rows, "row sets diverge at {workers} workers");
                assert_eq!(ga.ranges, gb.ranges);
                assert_eq!(ga.sensitive_counts, gb.sensitive_counts);
            }
        }
    }

    #[test]
    fn parallel_engine_handles_composite_requirements() {
        let t = adult::generate(700, 11);
        let req = And::pair(KAnonymity::new(4), DistinctLDiversity::new(3));
        let m = Mondrian::new(Arc::new(req));
        let serial = m.plant_with(&t, Parallelism::Serial).to_anonymized(&t);
        let parallel = m.plant_with(&t, Parallelism::threads(3)).to_anonymized(&t);
        assert_eq!(serial.group_count(), parallel.group_count());
        for (ga, gb) in serial.groups().iter().zip(parallel.groups()) {
            assert_eq!(ga.rows, gb.rows);
        }
    }

    #[test]
    fn composite_requirement_enforced() {
        let t = adult::generate(600, 7);
        let req = And::pair(KAnonymity::new(3), DistinctLDiversity::new(3));
        let m = Mondrian::new(Arc::new(req));
        let at = m.anonymize(&t);
        for g in at.groups() {
            assert!(g.len() >= 3);
            let distinct = g.sensitive_counts.iter().filter(|&&c| c > 0).count();
            assert!(distinct >= 3);
        }
    }

    #[test]
    fn toy_table_with_k1_splits_to_unique_qi_regions() {
        // k = 1 lets Mondrian cut down to QI-homogeneous cells.
        let t = toy::hospital_table();
        let at = mondrian_k(1).anonymize(&t);
        for g in at.groups() {
            // Within a leaf, no dimension has spread — or the group is a
            // single row. (Mondrian with k=1 always splits while some
            // dimension varies.)
            if g.len() > 1 {
                for range in &g.ranges {
                    assert_eq!(range.min, range.max);
                }
            }
        }
    }

    #[test]
    fn parallel_k1_matches_reference_on_toy_table() {
        let t = toy::hospital_table();
        let serial = mondrian_k(1)
            .plant_with(&t, Parallelism::Serial)
            .to_anonymized(&t);
        let parallel = mondrian_k(1)
            .plant_with(&t, Parallelism::threads(2))
            .to_anonymized(&t);
        assert_eq!(serial.group_count(), parallel.group_count());
        for (ga, gb) in serial.groups().iter().zip(parallel.groups()) {
            assert_eq!(ga.rows, gb.rows);
        }
    }

    #[test]
    #[should_panic(expected = "does not satisfy")]
    fn impossible_requirement_panics() {
        let t = toy::hospital_table();
        let m = mondrian_k(100);
        let _ = m.anonymize(&t);
    }

    #[test]
    #[should_panic(expected = "does not satisfy")]
    fn impossible_requirement_panics_in_parallel_mode_too() {
        let t = toy::hospital_table();
        let m = mondrian_k(100);
        let _ = m.plant_with(&t, Parallelism::threads(2)).to_anonymized(&t);
    }

    #[test]
    fn group_ranges_contain_member_values() {
        let t = adult::generate(300, 8);
        let at = mondrian_k(6).anonymize(&t);
        for g in at.groups() {
            for &r in &g.rows {
                for (i, range) in g.ranges.iter().enumerate() {
                    assert!(range.contains(t.qi_value(r, i)));
                }
            }
        }
    }
}
