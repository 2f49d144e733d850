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
//! One split rule decides every production split, one engine plants, and
//! one reference checks both:
//!
//! * `SplitRule` — the rule (widths, candidate order, median, `<`/`≤`
//!   mode, both halves checked), read through a monomorphized source: a
//!   region's table rows, re-sorted per attempt by a stable counting sort
//!   (QI domains are small dense codes) or only counted, or a refresh
//!   node's joint histogram;
//! * [`Mondrian::plant_with`] — the **production** engine: worker jobs on
//!   the process-wide [`shared_pool`](bgkanon_data::shared_pool) steal
//!   regions from a shared deque, split them by the rule on their ordered
//!   rows, derive the right half's sensitive histogram by subtraction from
//!   the parent's, and reuse per-worker scratch buffers. One worker
//!   ([`Parallelism::Serial`]) runs on the calling thread. Because every
//!   region is split by the same deterministic rule and the final groups
//!   are ordered by their first row, the output is bit-identical for every
//!   worker count;
//! * [`Mondrian::plant_reference`] — the **reference**: a direct
//!   transcription of the algorithm over `decide_split`, kept simple on
//!   purpose so the engine can be property-tested against it
//!   (`tests/tests/parallel.rs`).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bgkanon_data::{Parallelism, Schema, Table};
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
/// // Every worker count yields the reference's partition.
/// let reference = mondrian.plant_reference(&table).to_anonymized(&table);
/// let parallel = mondrian.plant_with(&table, Parallelism::threads(2)).to_anonymized(&table);
/// assert_eq!(published.first_difference(&reference), None);
/// assert_eq!(parallel.first_difference(&reference), None);
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
        self.cut().goes_left(value)
    }

    /// The decision's threshold, without its attempt sequence.
    pub(crate) fn cut(&self) -> Cut {
        Cut {
            dim: self.dim,
            median: self.median,
            le_mode: self.le_mode,
        }
    }
}

/// The threshold of a split, without its attempt sequence: the winning
/// dimension, its median code and the median mode. The split rule leaves
/// its attempt sequence in [`SplitRule::attempts`], so a refresh replay
/// that reproduces the retained [`SplitDecision`] is compared field by
/// field and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    pub(crate) dim: usize,
    pub(crate) median: u32,
    pub(crate) le_mode: bool,
}

impl Cut {
    /// How many codes of `dim` go left: those below the median, or up to
    /// and including it in `le_mode`.
    fn codes_left(self) -> usize {
        self.median as usize + usize::from(self.le_mode)
    }

    /// Does a row with code `value` on `dim` go to the left child?
    pub(crate) fn goes_left(self, value: u32) -> bool {
        (value as usize) < self.codes_left()
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
/// The mask tracks the first 64 dimensions; any further ones are always
/// scanned.
struct Region {
    slot: usize,
    rows: Vec<usize>,
    counts: Vec<u32>,
    live_dims: u64,
}

/// The one production copy of Mondrian's split rule, with its buffers.
///
/// [`decide`](Self::decide) reads a region through a [`SplitSource`]:
/// table rows ([`RowSource`]) for the plant, refresh rebuilds and small
/// refresh replays, a node's joint histogram ([`HistogramSource`]) for
/// large refresh replays. The reference [`Mondrian::decide_split`] states
/// the same rule independently.
#[derive(Default)]
pub(crate) struct SplitRule {
    /// `(dimension, normalized width)` candidates, widest first.
    widths: Vec<(usize, f64)>,
    /// Dimensions the last decision tried, in order.
    pub(crate) attempts: Vec<usize>,
    /// Per-dimension minimum code over the last region.
    lo: Vec<u32>,
    /// Per-dimension maximum code over the last region.
    hi: Vec<u32>,
}

/// What the split rule reads of a region. The rule is generic over it, so
/// each source's reads compile into the rule's loop.
pub(crate) trait SplitSource {
    /// Number of rows in the region (at least one).
    fn len(&self) -> usize;
    /// Minimum and maximum code of the region on `dim`.
    fn bounds(&mut self, dim: usize) -> (u32, u32);
    /// The region's row count per code of `dim`.
    fn value_counts(&mut self, dim: usize) -> &[u32];
    /// Do both halves of `cut` satisfy `requirement`? `left` rows go left.
    fn halves_satisfy(
        &mut self,
        requirement: &dyn PrivacyRequirement,
        cut: Cut,
        left: usize,
    ) -> bool;
}

impl SplitRule {
    /// Decide the split of the region `source` reads: candidate dimensions
    /// by positive normalized width, widest first with ties broken by
    /// index; on each, the median is the code at sorted position n/2, and
    /// the left half takes the codes below it — or, when that half would
    /// be empty, the codes up to and including it; the first candidate
    /// whose halves both satisfy `requirement` wins. Returns its cut, with
    /// the tried dimensions in [`attempts`](Self::attempts); `None` when
    /// no candidate splits. Either way the region's per-dimension bounds
    /// are left in the rule.
    pub(crate) fn decide<S: SplitSource>(
        &mut self,
        requirement: &dyn PrivacyRequirement,
        schema: &Schema,
        source: &mut S,
    ) -> Option<Cut> {
        let n = source.len();
        self.lo.clear();
        self.hi.clear();
        self.widths.clear();
        self.attempts.clear();
        for dim in 0..schema.qi_count() {
            let (lo, hi) = source.bounds(dim);
            self.lo.push(lo);
            self.hi.push(hi);
            if hi > lo {
                let w = schema.qi_distance(dim).get(lo, hi);
                if w > 0.0 {
                    self.widths.push((dim, w));
                }
            }
        }
        self.widths.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for &(dim, _) in &self.widths {
            self.attempts.push(dim);
            let counts = source.value_counts(dim);
            let (mut below, mut median) = (0usize, 0usize);
            for (code, &c) in counts.iter().enumerate() {
                if n / 2 < below + c as usize {
                    median = code;
                    break;
                }
                below += c as usize;
            }
            // A dimension of positive width has codes above its minimum, so
            // `≤ median` leaves rows on the right whenever `< median` leaves
            // none on the left.
            let (left, le_mode) = if below > 0 {
                (below, false)
            } else {
                (counts[median] as usize, true)
            };
            let cut = Cut {
                dim,
                median: median as u32,
                le_mode,
            };
            if source.halves_satisfy(requirement, cut, left) {
                return Some(cut);
            }
        }
        None
    }
}

/// The buffers a [`SplitSource`] reads a region through.
#[derive(Default)]
pub(crate) struct RegionBufs {
    /// The region's rows; an ordered [`RowSource`] re-sorts them.
    pub(crate) rows: Vec<usize>,
    /// Counting-sort output buffer.
    tmp: Vec<usize>,
    /// Row counts per code of one dimension (a [`HistogramSource`]: of
    /// every dimension, concatenated at the tree's domain offsets).
    value_counts: Vec<u32>,
    /// Counting-sort placement cursors.
    cursors: Vec<usize>,
    /// The region's sensitive histogram.
    pub(crate) total: Vec<u32>,
    /// Left half's sensitive histogram.
    left: Vec<u32>,
    /// Right half's sensitive histogram.
    right: Vec<u32>,
}

/// A region of table rows, held in [`RegionBufs::rows`], in one of two
/// modes:
///
/// * **unordered**, for counts-decidable requirements: neither the
///   decision nor a counts check depends on row order, so every read is a
///   count pass — no sort and no allocation beyond the buffers;
/// * **ordered**, for row-dependent requirements and for splits that hand
///   their halves on: each value-count pass also stably re-sorts the rows
///   by the dimension (a counting sort; the attempts' sorts compose), so
///   the halves are slices of the rows in the reference's order, checked
///   on group views.
pub(crate) struct RowSource<'a> {
    table: &'a Table,
    bufs: &'a mut RegionBufs,
    ordered: bool,
    /// Live-dimension mask: a dimension clear in it is known constant.
    live: u64,
    /// Rows in the left half at the last checked cut (ordered mode).
    split_at: usize,
}

impl<'a> RowSource<'a> {
    /// Count-only reads of the rows in `bufs.rows`.
    pub(crate) fn unordered(table: &'a Table, bufs: &'a mut RegionBufs) -> Self {
        RowSource {
            table,
            bufs,
            ordered: false,
            live: u64::MAX,
            split_at: 0,
        }
    }

    /// Ordered reads of the rows in `bufs.rows`, whose sensitive histogram
    /// `bufs.total` must hold. Dimensions clear in `live` are known
    /// constant and read from the first row alone.
    pub(crate) fn ordered(table: &'a Table, bufs: &'a mut RegionBufs, live: u64) -> Self {
        RowSource {
            table,
            bufs,
            ordered: true,
            live,
            split_at: 0,
        }
    }

    /// The rows and sensitive histogram of each half of the last cut whose
    /// halves satisfied the requirement, left first (ordered mode).
    fn halves(&self) -> [(&[usize], &[u32]); 2] {
        let (left, right) = self.bufs.rows.split_at(self.split_at);
        [(left, &self.bufs.left), (right, &self.bufs.right)]
    }
}

impl SplitSource for RowSource<'_> {
    fn len(&self) -> usize {
        self.bufs.rows.len()
    }

    fn bounds(&mut self, dim: usize) -> (u32, u32) {
        // One pass down the dimension's code vector.
        let col = self.table.qi_col(dim);
        let rows = &self.bufs.rows;
        let first = col.get(rows[0]);
        if dim < 64 && self.live & (1 << dim) == 0 {
            return (first, first);
        }
        rows[1..].iter().fold((first, first), |(lo, hi), &r| {
            let v = col.get(r);
            (lo.min(v), hi.max(v))
        })
    }

    fn value_counts(&mut self, dim: usize) -> &[u32] {
        let domain = self.table.schema().qi_attribute(dim).domain_size() as usize;
        let col = self.table.qi_col(dim);
        let b = &mut *self.bufs;
        b.value_counts.clear();
        b.value_counts.resize(domain, 0);
        for &r in &b.rows {
            b.value_counts[col.get(r) as usize] += 1;
        }
        if self.ordered {
            b.cursors.clear();
            let mut at = 0usize;
            b.cursors.extend(b.value_counts.iter().map(|&c| {
                at += c as usize;
                at - c as usize
            }));
            b.tmp.resize(b.rows.len(), 0);
            for &r in &b.rows {
                let cursor = &mut b.cursors[col.get(r) as usize];
                b.tmp[*cursor] = r;
                *cursor += 1;
            }
            std::mem::swap(&mut b.rows, &mut b.tmp);
        }
        &b.value_counts
    }

    fn halves_satisfy(
        &mut self,
        requirement: &dyn PrivacyRequirement,
        cut: Cut,
        left: usize,
    ) -> bool {
        let table = self.table;
        let m = table.schema().sensitive_domain_size();
        let b = &mut *self.bufs;
        let n = b.rows.len();
        if !self.ordered {
            // One pass files each row's sensitive code under its half: the
            // left half's histogram in the first `m` cells, the right's after.
            let (col, sensitive) = (table.qi_col(cut.dim), table.sensitive_col());
            let both = &mut b.left;
            both.clear();
            both.resize(2 * m, 0);
            for &r in &b.rows {
                let right = usize::from(!cut.goes_left(col.get(r)));
                both[right * m + sensitive[r] as usize] += 1;
            }
            let (counts_l, counts_r) = both.split_at(m);
            return requirement.is_satisfied_by_counts(left, counts_l)
                && requirement.is_satisfied_by_counts(n - left, counts_r);
        }
        // Count the smaller half; the other histogram is the exact integer
        // difference from the region's.
        let (rows_l, rows_r) = b.rows.split_at(left);
        let count_left = left * 2 <= n;
        table.sensitive_counts_into(if count_left { rows_l } else { rows_r }, &mut b.left);
        b.right.clear();
        b.right
            .extend(b.total.iter().zip(&b.left).map(|(&all, &half)| all - half));
        if !count_left {
            std::mem::swap(&mut b.left, &mut b.right);
        }
        self.split_at = left;
        let view = |rows, sensitive_counts| GroupView {
            table,
            rows,
            sensitive_counts,
        };
        requirement.is_satisfied(&view(rows_l, &b.left))
            && requirement.is_satisfied(&view(rows_r, &b.right))
    }
}

/// A region read from its joint histogram: entry `(dim_off[dim] + code) *
/// m + s` counts the region's rows with `code` on `dim` and sensitive code
/// `s`. Widths, medians and both halves' histograms all derive from it in
/// `O(domain · m)`, without the rows; only counts-decidable requirements
/// can be checked this way.
pub(crate) struct HistogramSource<'a> {
    joint: &'a [u32],
    dim_off: &'a [usize],
    m: usize,
    n: usize,
    bufs: &'a mut RegionBufs,
}

impl<'a> HistogramSource<'a> {
    /// Read the region of `joint`, whose dimensions start at `dim_off`,
    /// over a sensitive domain of `m` codes.
    pub(crate) fn new(
        joint: &'a [u32],
        dim_off: &'a [usize],
        m: usize,
        bufs: &'a mut RegionBufs,
    ) -> Self {
        // Per-dimension value marginals, concatenated like the histogram.
        bufs.value_counts.clear();
        bufs.value_counts
            .extend(joint.chunks_exact(m).map(|sens| sens.iter().sum::<u32>()));
        // The region's sensitive histogram: every row has one code on
        // dimension 0, so summing its slice counts each row once.
        bufs.total.clear();
        bufs.total.resize(m, 0);
        let first_codes = dim_off.get(1).map_or(joint.len(), |&end| end * m);
        for sens in joint[..first_codes].chunks_exact(m) {
            for (acc, &x) in bufs.total.iter_mut().zip(sens) {
                *acc += x;
            }
        }
        let n = bufs.total.iter().map(|&c| c as usize).sum();
        HistogramSource {
            joint,
            dim_off,
            m,
            n,
            bufs,
        }
    }

    /// The codes of `dim` in the concatenated domain.
    fn span(&self, dim: usize) -> Range<usize> {
        let end = self.dim_off.get(dim + 1).copied();
        self.dim_off[dim]..end.unwrap_or(self.joint.len() / self.m)
    }
}

impl SplitSource for HistogramSource<'_> {
    fn len(&self) -> usize {
        self.n
    }

    fn bounds(&mut self, dim: usize) -> (u32, u32) {
        let marginal = &self.bufs.value_counts[self.span(dim)];
        let lo = marginal.iter().position(|&c| c > 0).unwrap_or(0);
        let hi = marginal.iter().rposition(|&c| c > 0).unwrap_or(0);
        (lo as u32, hi as u32)
    }

    fn value_counts(&mut self, dim: usize) -> &[u32] {
        let span = self.span(dim);
        &self.bufs.value_counts[span]
    }

    fn halves_satisfy(
        &mut self,
        requirement: &dyn PrivacyRequirement,
        cut: Cut,
        left: usize,
    ) -> bool {
        let m = self.m;
        let start = self.dim_off[cut.dim] * m;
        let b = &mut *self.bufs;
        b.left.clear();
        b.left.resize(m, 0);
        for sens in self.joint[start..start + cut.codes_left() * m].chunks_exact(m) {
            for (acc, &x) in b.left.iter_mut().zip(sens) {
                *acc += x;
            }
        }
        b.right.clear();
        b.right
            .extend(b.total.iter().zip(&b.left).map(|(&all, &half)| all - half));
        requirement.is_satisfied_by_counts(left, &b.left)
            && requirement.is_satisfied_by_counts(self.n - left, &b.right)
    }
}

/// The split rule and the buffers its sources read through: one per
/// plant worker, one per refresh.
#[derive(Default)]
pub(crate) struct SplitScratch {
    pub(crate) rule: SplitRule,
    pub(crate) region: RegionBufs,
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

    /// Partition `table` into the finest groups Mondrian can certify: the
    /// view of the [`PartitionTree`] built by [`plant`](Self::plant).
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement —
    /// no anonymization can then exist under this algorithm.
    pub fn anonymize(&self, table: &Table) -> AnonymizedTable {
        self.plant(table).to_anonymized(table)
    }

    /// Partition `table` into a persistent [`PartitionTree`] on one worker,
    /// on the calling thread ([`plant_with`](Self::plant_with) with
    /// [`Parallelism::Serial`]).
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
    /// by [`Mondrian::refresh`](Self::refresh). Every worker count produces
    /// the tree of [`plant_reference`](Self::plant_reference).
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement.
    pub fn plant_with(&self, table: &Table, parallelism: Parallelism) -> PartitionTree {
        let (all_rows, root_counts) = self.root(table);
        let (slots, records) = self.records(
            table,
            all_rows,
            root_counts,
            parallelism.effective_threads(),
            &mut SplitScratch::default(),
        );
        PartitionTree::from_records(table, slots, records)
    }

    /// The reference plant: the tree a direct transcription of the
    /// algorithm grows, one `decide_split` per region
    /// (full sorts, materialized halves, every check on a fresh
    /// [`GroupView`]). The engine of [`plant_with`](Self::plant_with) is
    /// tested bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the whole table itself does not satisfy the requirement.
    pub fn plant_reference(&self, table: &Table) -> PartitionTree {
        let (all_rows, _) = self.root(table);
        let (slots, records) = self.records_reference(table, all_rows);
        PartitionTree::from_records(table, slots, records)
    }

    /// Every row of `table` with its sensitive histogram — the root region —
    /// after checking that the whole table satisfies the requirement.
    fn root(&self, table: &Table) -> (Vec<usize>, Vec<u32>) {
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
        (all_rows, root_counts)
    }

    /// The reference expansion loop: a plain explicit-stack depth-first
    /// walk over [`decide_split`](Self::decide_split) from the region of
    /// `rows` (slot 0), emitting one node record per region in the order it
    /// is decided. It serves [`plant_reference`](Self::plant_reference)
    /// alone.
    fn records_reference(&self, table: &Table, rows: Vec<usize>) -> (usize, Vec<(usize, NodeRec)>) {
        let mut records = Vec::new();
        let mut slots = 1usize;
        let mut stack = vec![(0usize, rows)];
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

    /// Expand the region of `rows` (whose sensitive histogram is `counts`)
    /// into node records, the region's own at slot 0, on `workers`
    /// workers: the one place a plant or a refresh rebuild picks its loop.
    ///
    /// The production engine: `workers` threads steal regions from a shared
    /// LIFO deque; each worker keeps a local stack of small regions and its
    /// own scratch buffers, and emits node records into a local vector
    /// merged after the jobs join. Tree slots are handed out by an atomic
    /// counter, so slot *numbers* depend on scheduling while the tree
    /// *content* does not. One worker runs on the calling thread, in
    /// `scratch`.
    pub(crate) fn records(
        &self,
        table: &Table,
        rows: Vec<usize>,
        counts: Vec<u32>,
        workers: usize,
        scratch: &mut SplitScratch,
    ) -> (usize, Vec<(usize, NodeRec)>) {
        let root = Region {
            slot: 0,
            rows,
            counts,
            live_dims: u64::MAX,
        };
        let engine = Engine {
            state: Mutex::new(EngineState {
                deque: vec![root],
                active: 0,
            }),
            available: Condvar::new(),
            slots: AtomicUsize::new(1),
        };
        if workers <= 1 {
            let records = self.worker(table, &engine, scratch);
            return (engine.slots.into_inner(), records);
        }
        let engine = Arc::new(engine);
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
                move || mondrian.worker(&table, &engine, &mut SplitScratch::default())
            })
            .collect();
        let outputs = bgkanon_data::shared_pool().run(jobs);
        (
            engine.slots.load(Ordering::Relaxed),
            outputs.into_iter().flatten().collect(),
        )
    }

    /// One worker of the production engine.
    fn worker(
        &self,
        table: &Table,
        engine: &Engine,
        scratch: &mut SplitScratch,
    ) -> Vec<(usize, NodeRec)> {
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
            match self.split_region(table, &region, scratch) {
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
                // The rule left the region's per-dimension min/max in the
                // scratch, so the leaf's ranges come for free.
                None => records.push((
                    region.slot,
                    NodeRec::leaf_from_parts(
                        region.rows,
                        scratch.rule.lo.clone(),
                        scratch.rule.hi.clone(),
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
    /// the requirement. The reference statement of the split rule, kept
    /// simple on purpose (full comparison sorts, materialized halves, every
    /// check on a fresh [`GroupView`]) and run only by
    /// [`plant_reference`](Self::plant_reference): the production
    /// [`SplitRule`] — plant, rebuild and every refresh replay — is tested
    /// decision-for-decision against it.
    fn decide_split(
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

    /// Split `region` by the rule on its rows, ordered, returning the
    /// committed decision and both halves as child regions. The halves'
    /// histograms are the smaller half's count and its exact difference
    /// from the region's; their live dimensions are those of positive
    /// width. On `None`, `scratch.rule` holds the region's per-dimension
    /// min/max, which the worker turns into a leaf's published ranges.
    fn split_region(
        &self,
        table: &Table,
        region: &Region,
        scratch: &mut SplitScratch,
    ) -> Option<(SplitDecision, Region, Region)> {
        let SplitScratch { rule, region: bufs } = scratch;
        bufs.rows.clear();
        bufs.rows.extend_from_slice(&region.rows);
        bufs.total.clear();
        bufs.total.extend_from_slice(&region.counts);
        let mut source = RowSource::ordered(table, bufs, region.live_dims);
        let cut = rule.decide(&*self.requirement, table.schema(), &mut source)?;
        let live_dims = rule
            .widths
            .iter()
            .filter(|&&(dim, _)| dim < 64)
            .fold(0, |mask, &(dim, _)| mask | 1 << dim);
        let [left, right] = source.halves().map(|(rows, counts)| Region {
            slot: 0, // assigned by the caller
            rows: rows.to_vec(),
            counts: counts.to_vec(),
            live_dims,
        });
        let decision = SplitDecision {
            attempts: rule.attempts.clone(),
            dim: cut.dim,
            median: cut.median,
            le_mode: cut.le_mode,
        };
        Some((decision, left, right))
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
    use bgkanon_knowledge::Bandwidth;
    use bgkanon_privacy::{And, BTPrivacy, DistinctLDiversity, KAnonymity, TCloseness};
    use proptest::prelude::*;

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
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn parallel_engine_matches_reference_bitwise() {
        let t = adult::generate(1200, 9);
        let m = mondrian_k(6);
        let reference = m.plant_reference(&t).to_anonymized(&t);
        for par in [
            Parallelism::Serial,
            Parallelism::threads(1),
            Parallelism::threads(2),
            Parallelism::threads(4),
        ] {
            let planted = m.plant_with(&t, par).to_anonymized(&t);
            assert_eq!(reference.first_difference(&planted), None, "{par:?}");
        }
    }

    #[test]
    fn parallel_engine_handles_composite_requirements() {
        let t = adult::generate(700, 11);
        let req = And::pair(KAnonymity::new(4), DistinctLDiversity::new(3));
        let m = Mondrian::new(Arc::new(req));
        let reference = m.plant_reference(&t).to_anonymized(&t);
        for par in [Parallelism::Serial, Parallelism::threads(3)] {
            let planted = m.plant_with(&t, par).to_anonymized(&t);
            assert_eq!(reference.first_difference(&planted), None, "{par:?}");
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
        let reference = mondrian_k(1).plant_reference(&t).to_anonymized(&t);
        for par in [Parallelism::Serial, Parallelism::threads(2)] {
            let planted = mondrian_k(1).plant_with(&t, par).to_anonymized(&t);
            assert_eq!(reference.first_difference(&planted), None, "{par:?}");
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

    /// The joint value × sensitive histogram of `rows`, laid out as a
    /// refresh node's, with its dimension offsets.
    fn joint_histogram(table: &Table, rows: &[usize]) -> (Vec<u32>, Vec<usize>) {
        let schema = table.schema();
        let m = schema.sensitive_domain_size();
        let mut dim_off = Vec::new();
        let mut total = 0usize;
        for dim in 0..table.qi_count() {
            dim_off.push(total);
            total += schema.qi_attribute(dim).domain_size() as usize;
        }
        let mut joint = vec![0u32; total * m];
        for &r in rows {
            let s = table.sensitive_value(r) as usize;
            for (dim, &off) in dim_off.iter().enumerate() {
                joint[(off + table.qi_value(r, dim) as usize) * m + s] += 1;
            }
        }
        (joint, dim_off)
    }

    /// Walk the reference recursion from `rows`, checking at every region
    /// that the split rule decides what `decide_split` decides: through
    /// the ordered row source (same attempts, cut and halves) for every
    /// requirement, and through the unordered row source and the histogram
    /// source for counts-decidable ones. Returns the number of splits.
    fn check_rule_against_reference(
        mondrian: &Mondrian,
        table: &Table,
        rows: Vec<usize>,
    ) -> Result<usize, TestCaseError> {
        let requirement = &**mondrian.requirement();
        let schema = table.schema();
        let mut scratch = SplitScratch::default();
        let SplitScratch { rule, region } = &mut scratch;
        let mut splits = 0;
        let mut stack = vec![rows];
        while let Some(rows) = stack.pop() {
            let reference = mondrian.decide_split(table, &rows);
            let expected = reference
                .as_ref()
                .map(|(decision, _, _)| (decision.attempts.clone(), decision.cut()));

            region.rows.clone_from(&rows);
            region.total = table.sensitive_counts_in(&rows);
            let mut source = RowSource::ordered(table, region, u64::MAX);
            let cut = rule.decide(requirement, schema, &mut source);
            prop_assert_eq!(
                cut.map(|cut| (rule.attempts.clone(), cut)),
                expected.clone()
            );
            if let Some((_, left, right)) = &reference {
                let [(l, l_counts), (r, r_counts)] = source.halves();
                prop_assert_eq!(l, &left[..]);
                prop_assert_eq!(r, &right[..]);
                prop_assert_eq!(l_counts, &table.sensitive_counts_in(left)[..]);
                prop_assert_eq!(r_counts, &table.sensitive_counts_in(right)[..]);
            }

            if requirement.counts_decidable() {
                region.rows.clone_from(&rows);
                let cut = rule.decide(
                    requirement,
                    schema,
                    &mut RowSource::unordered(table, region),
                );
                let unordered = cut.map(|cut| (rule.attempts.clone(), cut));
                prop_assert_eq!(&unordered, &expected);
                let (joint, dim_off) = joint_histogram(table, &rows);
                let m = schema.sensitive_domain_size();
                let mut source = HistogramSource::new(&joint, &dim_off, m, region);
                let cut = rule.decide(requirement, schema, &mut source);
                prop_assert_eq!(cut.map(|cut| (rule.attempts.clone(), cut)), unordered);
            }

            if let Some((_, left, right)) = reference {
                splits += 1;
                stack.push(left);
                stack.push(right);
            }
        }
        Ok(splits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The split rule against the reference, on a random subset of a
        /// small Adult table in a random order, under k-anonymity, distinct
        /// ℓ-diversity, t-closeness, k ∧ ℓ and k ∧ (B,t).
        #[test]
        fn split_rule_decides_like_the_reference(
            rows in 40usize..160,
            seed in 0u64..1u64 << 40,
            keys in prop::collection::vec(0u32..1_000, 160),
        ) {
            let table = adult::generate(rows, seed);
            let mut subset: Vec<usize> = (0..rows).filter(|&r| keys[r] % 4 != 0).collect();
            subset.sort_by_key(|&r| (keys[r], r));
            let k = 2 + (seed % 4) as usize;
            let bandwidth = Bandwidth::uniform(0.3, table.qi_count()).unwrap();
            let requirements: [Arc<dyn PrivacyRequirement>; 5] = [
                Arc::new(KAnonymity::new(k)),
                Arc::new(DistinctLDiversity::new(2)),
                Arc::new(TCloseness::new(0.4, &table)),
                Arc::new(And::pair(KAnonymity::new(k), DistinctLDiversity::new(2))),
                Arc::new(And::pair(
                    KAnonymity::new(k),
                    BTPrivacy::new(&table, bandwidth, 0.25),
                )),
            ];
            let mut splits = Vec::new();
            for requirement in requirements {
                let mondrian = Mondrian::new(requirement);
                splits.push(check_rule_against_reference(&mondrian, &table, subset.clone())?);
            }
            // k-anonymity alone always splits a region of 30-odd rows.
            prop_assert!(splits[0] > 0, "splits per requirement: {splits:?}");
        }
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
