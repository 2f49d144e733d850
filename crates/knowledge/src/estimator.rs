//! Nadaraya–Watson kernel regression estimation of the prior belief
//! function (Eq. 1–2 of the paper), built around **compact kernel support**.
//!
//! For a QI point `q = (q_1..q_d)` the estimated prior is
//!
//! ```text
//!            Σ_j P(t_j) · Π_i K_i(d_i(q_i, t_j[A_i]))
//! P̂pri(q) = ─────────────────────────────────────────
//!            Σ_j        Π_i K_i(d_i(q_i, t_j[A_i]))
//! ```
//!
//! where `P(t_j)` is the point-mass representation of tuple `t_j` and `d_i`
//! the normalized semantic distance of attribute `A_i`. Implementation
//! notes:
//!
//! * every shipped kernel family has compact support, so each per-attribute
//!   `r × r` weight table is stored **sparse** ([`SparseWeights`], CSR: per
//!   value `a` only the values `b` with nonzero weight);
//! * rows with identical QI combinations are folded into a reusable
//!   [`FoldedTable`] (weight = multiplicity), and a support index over
//!   the folded points (lexicographically sorted order + per-attribute
//!   inverted postings) lets a query enumerate **only the candidates inside
//!   the product-kernel support** — seeded from the most selective
//!   attribute — instead of scanning all `u` distinct points;
//! * candidates are accumulated in ascending sorted-point order, so the
//!   sparse result is **bit-identical** to the dense all-pairs reference
//!   ([`PriorEstimator::estimate_reference`], also selected by
//!   [`Parallelism::Serial`]), which `tests/tests/estimation.rs`
//!   property-tests across kernel families and bandwidths;
//! * compact support also makes the model **refreshable**: a [`Delta`] can
//!   only perturb priors inside the kernel neighborhood of the changed
//!   points, so [`PriorEstimator::refresh_folded`] recomputes exactly that
//!   dirty neighborhood of the new table's fold (carried across the delta
//!   by [`FoldedTable::evolve`], or folded afresh) and is bit-identical to
//!   a from-scratch estimate of the post-delta table.

use std::sync::{Arc, OnceLock};

use bgkanon_data::hash::{absorb, avalanche};
use bgkanon_data::{Delta, Parallelism, Schema, Table};
use bgkanon_stats::{Dist, Kernel};

use crate::bandwidth::Bandwidth;

/// Which kernel family to instantiate per attribute. The paper uses
/// Epanechnikov throughout; Uniform recovers the §II.D special cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelFamily {
    /// The paper's default.
    #[default]
    Epanechnikov,
    /// Box kernel.
    Uniform,
    /// Triangular kernel.
    Triangular,
}

impl KernelFamily {
    /// Instantiate a kernel of this family with bandwidth `b`.
    pub fn kernel(self, b: f64) -> Kernel {
        match self {
            KernelFamily::Epanechnikov => Kernel::epanechnikov(b),
            KernelFamily::Uniform => Kernel::uniform(b),
            KernelFamily::Triangular => Kernel::triangular(b),
        }
    }

    /// Stable lowercase name (used by the persistence format).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelFamily::Epanechnikov => "epanechnikov",
            KernelFamily::Uniform => "uniform",
            KernelFamily::Triangular => "triangular",
        }
    }
}

impl std::str::FromStr for KernelFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "epanechnikov" => Ok(KernelFamily::Epanechnikov),
            "uniform" => Ok(KernelFamily::Uniform),
            "triangular" => Ok(KernelFamily::Triangular),
            other => Err(format!("unknown kernel family `{other}`")),
        }
    }
}

/// One attribute's kernel weight table `W[a][b] = K(d(a, b))` in CSR form:
/// per value `a`, only the values `b` inside the kernel support (nonzero
/// weight) are stored. With the bench's bandwidth 0.25 the overwhelming
/// majority of the dense `r × r` table is exactly zero — the sparsity the
/// whole estimation engine is built on.
#[derive(Debug, Clone)]
pub struct SparseWeights {
    size: usize,
    /// `row_ptr[a]..row_ptr[a + 1]` slices `cols`/`weights` for value `a`.
    row_ptr: Vec<usize>,
    /// Support values per row, ascending.
    cols: Vec<u32>,
    /// Kernel weight per stored `(a, b)` pair.
    weights: Vec<f64>,
    /// True when every row's support is a contiguous code range (always the
    /// case for numeric attributes), enabling O(1) random access.
    contiguous: bool,
}

impl SparseWeights {
    fn build(kernel: &Kernel, dist: &bgkanon_data::distance::DistanceMatrix) -> Self {
        let r = dist.size();
        let mut row_ptr = Vec::with_capacity(r + 1);
        row_ptr.push(0usize);
        let mut cols = Vec::new();
        let mut weights = Vec::new();
        let mut contiguous = true;
        for a in 0..r {
            let start = cols.len();
            for (b, &d) in dist.row(a as u32).iter().enumerate() {
                let w = kernel.weight(d);
                if w > 0.0 {
                    cols.push(b as u32);
                    weights.push(w);
                }
            }
            // The diagonal distance is 0 and K(0) > 0 for every family, so
            // no row is ever empty.
            debug_assert!(cols.len() > start, "support row {a} is empty");
            let len = cols.len() - start;
            contiguous &= (cols[cols.len() - 1] - cols[start]) as usize + 1 == len;
            row_ptr.push(cols.len());
        }
        SparseWeights {
            size: r,
            row_ptr,
            cols,
            weights,
            contiguous,
        }
    }

    /// Domain size `r`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The support list of value `a`: every `b` with `W[a][b] > 0`,
    /// ascending.
    pub fn support(&self, a: u32) -> &[u32] {
        &self.cols[self.row_ptr[a as usize]..self.row_ptr[a as usize + 1]]
    }

    /// Kernel weight `W[a][b]`, 0.0 outside the support.
    #[inline]
    pub fn weight(&self, a: u32, b: u32) -> f64 {
        let lo = self.row_ptr[a as usize];
        let row = &self.cols[lo..self.row_ptr[a as usize + 1]];
        if self.contiguous {
            let first = row[0];
            if b >= first {
                let off = (b - first) as usize;
                if off < row.len() {
                    return self.weights[lo + off];
                }
            }
            0.0
        } else {
            match row.binary_search(&b) {
                Ok(i) => self.weights[lo + i],
                Err(_) => 0.0,
            }
        }
    }

    /// Fraction of the dense `r × r` table that is nonzero — the
    /// support-density diagnostic ([`Kernel::support_density`] over the
    /// attribute's distance matrix gives the same number).
    pub fn density(&self) -> f64 {
        self.cols.len() as f64 / (self.size * self.size) as f64
    }

    /// True when every row's support is one contiguous code range.
    fn is_contiguous(&self) -> bool {
        self.contiguous
    }
}

/// A borrowed view of one distinct QI combination: its codes, multiplicity
/// and sensitive histogram (the [`FoldedTable`] stores all points in flat
/// contiguous arrays for cache-friendly scans; this view is how they are
/// read back).
#[derive(Debug, Clone, Copy)]
pub struct FoldedPoint<'a> {
    qi: &'a [u32],
    count: u32,
    sensitive_counts: &'a [u32],
}

impl<'a> FoldedPoint<'a> {
    /// The QI code combination.
    pub fn qi(&self) -> &'a [u32] {
        self.qi
    }

    /// Number of table rows folded into this point.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Per-sensitive-value counts among those rows (sums to
    /// [`count`](Self::count)).
    pub fn sensitive_counts(&self) -> &'a [u32] {
        self.sensitive_counts
    }
}

/// The distinct-QI folding of a table: one point per distinct QI
/// combination, **sorted lexicographically**, plus the whole-table sensitive
/// totals. Storage is flat and row-major (codes, multiplicities and
/// histograms in three contiguous arrays), so the accumulation hot loops
/// scan linearly instead of chasing per-point allocations. This is the
/// substrate every estimation path shares — fold once, then estimate
/// ([`PriorEstimator::estimate_folded`]) and refresh against it without
/// re-scanning the table.
///
/// ```
/// use bgkanon_knowledge::FoldedTable;
///
/// let table = bgkanon_data::toy::hospital_table();
/// let folded = FoldedTable::new(&table);
/// assert_eq!(folded.rows(), table.len());
/// assert_eq!(folded.len(), table.group_by_qi().len());
/// // Points are sorted lexicographically by QI codes.
/// let qis: Vec<&[u32]> = folded.points().map(|p| p.qi()).collect();
/// assert!(qis.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct FoldedTable {
    qi_count: usize,
    m: usize,
    rows: usize,
    sensitive_totals: Vec<u64>,
    /// `u × d` row-major QI codes, rows sorted lexicographically.
    qi: Vec<u32>,
    /// Multiplicity per point.
    counts: Vec<u32>,
    /// `u × m` row-major sensitive histograms.
    hists: Vec<u32>,
    /// [`content_hash`](Self::content_hash), kept current by every
    /// constructor and by [`evolve`](Self::evolve).
    hash: u64,
}

/// Hash of one point: its QI codes, then its sensitive histogram (the
/// multiplicity is the histogram's sum).
#[inline]
fn point_hash(qi: &[u32], hist: &[u32]) -> u64 {
    avalanche(absorb(absorb(0x243f_6a88_85a3_08d3, qi), hist))
}

/// Hash of a fold's shape `(d, m)`, the summand every fold starts from.
fn shape_hash(qi_count: usize, m: usize) -> u64 {
    avalanche(absorb(0x1319_8a2e_0370_7344, &[qi_count as u32, m as u32]))
}

/// Point id [`FoldEvolution::new_point`] reports for a point the delta
/// deleted outright.
const GONE: u32 = u32::MAX;

/// The rows one [`Delta`] deletes, as content: each deleted row's QI codes
/// and sensitive code, gathered from the pre-delta table. With the delta's
/// own inserts that is everything [`FoldedTable::evolve`] needs — a fold
/// can be carried to the next version without the table it came from.
#[derive(Debug, Clone)]
pub struct DeletedRows {
    /// `k × d` row-major QI codes, in ascending row order.
    qi: Vec<u32>,
    /// Sensitive code per deleted row.
    sensitive: Vec<u32>,
}

impl DeletedRows {
    /// Gather the rows `delta` deletes from `table`, the table the delta
    /// applies to. O(deletes); `None` when a delete index is out of range.
    pub fn gather(table: &Table, delta: &Delta) -> Option<Self> {
        let d = table.qi_count();
        let mut qi = Vec::with_capacity(delta.delete_count() * d);
        let mut sensitive = Vec::with_capacity(delta.delete_count());
        for &row in delta.deletes() {
            if row >= table.len() {
                return None;
            }
            qi.extend((0..d).map(|a| table.qi_value(row, a)));
            sensitive.push(table.sensitive_value(row));
        }
        Some(DeletedRows { qi, sensitive })
    }

    /// Number of deleted rows.
    pub fn len(&self) -> usize {
        self.sensitive.len()
    }

    /// True when the delta deletes nothing.
    pub fn is_empty(&self) -> bool {
        self.sensitive.is_empty()
    }

    /// Heap bytes held — the accounting hook for callers that retain a
    /// change record (same convention as [`FoldedTable::bytes_accounted`]).
    pub fn bytes_accounted(&self) -> usize {
        self.qi.len() * 4 + self.sensitive.len() * 4 + 48
    }
}

/// A fold carried across one delta by [`FoldedTable::evolve`]: the new
/// fold and where each old point landed.
#[derive(Debug, Clone)]
pub struct FoldEvolution {
    folded: FoldedTable,
    /// Old point id → new point id, [`GONE`] for a point deleted outright.
    point_map: Vec<u32>,
}

impl FoldEvolution {
    /// The post-delta fold.
    pub fn folded(&self) -> &FoldedTable {
        &self.folded
    }

    /// Take the post-delta fold.
    pub fn into_folded(self) -> FoldedTable {
        self.folded
    }

    /// The post-delta id of old point `old`, or `None` when the delta
    /// deleted it outright (or `old` is out of range).
    fn new_point(&self, old: u32) -> Option<u32> {
        self.point_map
            .get(old as usize)
            .copied()
            .filter(|&p| p != GONE)
    }

    /// Carry a row → point array across the delta: `old_row_points` is the
    /// pre-delta table's ([`FoldedTable::with_row_points`]), and the result
    /// is the post-delta table's — survivors keep their order, then the
    /// inserts follow ([`Table::apply_delta`]). Equal to
    /// `FoldedTable::with_row_points(post_delta_table).1`. `None` when
    /// `old_row_points` or `delta` disagree with this evolution.
    pub fn row_points(&self, old_row_points: &[u32], delta: &Delta) -> Option<Vec<u32>> {
        let survivors = old_row_points.len().checked_sub(delta.delete_count())?;
        if survivors + delta.insert_count() != self.folded.rows {
            return None;
        }
        let mut out = Vec::with_capacity(self.folded.rows);
        let mut start = 0usize;
        let ends = delta.deletes().iter().copied();
        for end in ends.chain(std::iter::once(old_row_points.len())) {
            for &p in old_row_points.get(start..end)? {
                out.push(self.new_point(p)?);
            }
            start = end + 1;
        }
        for i in 0..delta.insert_count() {
            out.push(self.folded.find(delta.insert_qi(i))? as u32);
        }
        Some(out)
    }
}

/// One point of [`FoldedTable::evolve`]'s net change: its codes and the
/// signed count change per sensitive value.
struct NetChange<'a> {
    qi: &'a [u32],
    hist: Vec<i64>,
}

impl FoldedTable {
    /// Fold `table` by distinct QI combination. The rows are ordered with
    /// one LSD counting-sort radix pass per attribute
    /// ([`Table::qi_sorted_rows`] — columnar tables scan each code vector
    /// contiguously), then equal-QI runs of the sorted order collapse into
    /// points; the points come out already in lexicographic order, with no
    /// hash map and no per-point allocation.
    pub fn new(table: &Table) -> Self {
        Self::fold(table, None)
    }

    /// [`new`](Self::new), also returning the point each row folded into:
    /// `row_points[r]` is the sorted index of row `r`'s QI combination.
    /// Filled during the same pass, so a per-row question about the fold
    /// ("did this row's prior change?") is an array read, not a lookup.
    ///
    /// ```
    /// use bgkanon_knowledge::FoldedTable;
    ///
    /// let table = bgkanon_data::toy::hospital_table();
    /// let (folded, row_points) = FoldedTable::with_row_points(&table);
    /// for (r, &p) in row_points.iter().enumerate() {
    ///     assert_eq!(folded.point(p as usize).qi(), table.qi(r).as_slice());
    /// }
    /// ```
    pub fn with_row_points(table: &Table) -> (Self, Vec<u32>) {
        let mut row_points = vec![0u32; table.len()];
        let folded = Self::fold(table, Some(&mut row_points));
        (folded, row_points)
    }

    fn fold(table: &Table, mut row_points: Option<&mut [u32]>) -> Self {
        let d = table.qi_count();
        let m = table.schema().sensitive_domain_size();
        let n = table.len();
        let sens = table.sensitive_col();
        let mut sensitive_totals = vec![0u64; m];
        for &s in sens {
            sensitive_totals[s as usize] += 1;
        }
        let order = table.qi_sorted_rows();
        let cols: Vec<_> = (0..d).map(|a| table.qi_col(a)).collect();
        let mut qi = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut hists: Vec<u32> = Vec::new();
        let mut hash = shape_hash(d, m);
        let mut cur = vec![0u32; d];
        let mut i = 0usize;
        while i < n {
            let r0 = order[i] as usize;
            for (v, c) in cur.iter_mut().zip(&cols) {
                *v = c.get(r0);
            }
            let base = hists.len();
            hists.resize(base + m, 0);
            let mut count = 0u32;
            while i < n {
                let r = order[i] as usize;
                if count > 0 && cur.iter().zip(&cols).any(|(&v, c)| c.get(r) != v) {
                    break;
                }
                hists[base + sens[r] as usize] += 1;
                if let Some(points) = row_points.as_deref_mut() {
                    points[r] = counts.len() as u32;
                }
                count += 1;
                i += 1;
            }
            hash = hash.wrapping_add(point_hash(&cur, &hists[base..]));
            qi.extend_from_slice(&cur);
            counts.push(count);
        }
        FoldedTable {
            qi_count: d,
            m,
            rows: table.len(),
            sensitive_totals,
            qi,
            counts,
            hists,
            hash,
        }
    }

    /// Rebuild from raw `(codes, histogram)` points (the persistence
    /// layer's path). Points are sorted; multiplicities, totals and the
    /// content hash are derived from the histograms. `None` when a point's
    /// multiplicity or the row count overflows.
    pub(crate) fn from_points(
        qi_count: usize,
        m: usize,
        mut points: Vec<(Box<[u32]>, Vec<u32>)>,
    ) -> Option<Self> {
        points.sort_by(|a, b| a.0.cmp(&b.0));
        let u = points.len();
        let mut sensitive_totals = vec![0u64; m];
        let mut rows = 0usize;
        let mut qi = Vec::with_capacity(u * qi_count);
        let mut counts = Vec::with_capacity(u);
        let mut hists = Vec::with_capacity(u * m);
        let mut hash = shape_hash(qi_count, m);
        for (codes, hist) in &points {
            qi.extend_from_slice(codes);
            hists.extend_from_slice(hist);
            hash = hash.wrapping_add(point_hash(codes, hist));
            let count = hist.iter().try_fold(0u32, |sum, &c| sum.checked_add(c))?;
            rows = rows.checked_add(count as usize)?;
            counts.push(count);
            for (s, &c) in hist.iter().enumerate() {
                sensitive_totals[s] += u64::from(c);
            }
        }
        Some(FoldedTable {
            qi_count,
            m,
            rows,
            sensitive_totals,
            qi,
            counts,
            hists,
            hash,
        })
    }

    /// Number of distinct QI points `u`.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no rows were folded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of folded rows `n`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of QI attributes `d`.
    pub fn qi_count(&self) -> usize {
        self.qi_count
    }

    /// Sensitive domain size `m`.
    pub fn sensitive_domain_size(&self) -> usize {
        self.m
    }

    /// Heap bytes resident in this fold's flat arrays — the accounting
    /// hook the serving hub's memory budget rolls up per tenant. A
    /// deterministic owned-payload estimate, not an allocator-exact RSS.
    pub fn bytes_accounted(&self) -> usize {
        self.sensitive_totals.len() * 8
            + self.qi.len() * 4
            + self.counts.len() * 4
            + self.hists.len() * 4
            + 64
    }

    /// Content hash of the fold: a hash of its shape `(d, m)` plus the
    /// wrapping sum of one hash per point (its QI codes and sensitive
    /// histogram; multiplicities, row count and totals all follow from
    /// those). A sum does not depend on point order, so every constructor
    /// and [`evolve`](Self::evolve) keep it current point by point, and
    /// reading it is a field read. Two tables with identical row content
    /// fold to identical points, so this hash (plus bandwidth +
    /// kernel-family provenance) is the intern key under which the hub
    /// shares one estimated `P̂pri` model across tenants holding the same
    /// background knowledge. Collisions are guarded by
    /// [`content_eq`](Self::content_eq) before any sharing happens.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Field-wise equality of two folds — the collision guard behind
    /// [`content_hash`](Self::content_hash): the hub only shares a model
    /// across tenants when their folds are *equal*, never merely
    /// hash-equal.
    pub fn content_eq(&self, other: &FoldedTable) -> bool {
        self.qi_count == other.qi_count
            && self.m == other.m
            && self.rows == other.rows
            && self.sensitive_totals == other.sensitive_totals
            && self.qi == other.qi
            && self.counts == other.counts
            && self.hists == other.hists
    }

    /// QI codes of the point at sorted index `i`.
    #[inline]
    fn point_qi(&self, i: usize) -> &[u32] {
        &self.qi[i * self.qi_count..(i + 1) * self.qi_count]
    }

    /// Sensitive histogram of the point at sorted index `i`.
    #[inline]
    fn point_hist(&self, i: usize) -> &[u32] {
        &self.hists[i * self.m..(i + 1) * self.m]
    }

    /// The points in lexicographic QI order.
    pub fn points(&self) -> impl Iterator<Item = FoldedPoint<'_>> {
        (0..self.len()).map(|i| self.point(i))
    }

    /// Point at sorted index `i`.
    pub fn point(&self, i: usize) -> FoldedPoint<'_> {
        FoldedPoint {
            qi: self.point_qi(i),
            count: self.counts[i],
            sensitive_counts: self.point_hist(i),
        }
    }

    /// Index of the point with QI combination `qi`, if present.
    pub fn find(&self, qi: &[u32]) -> Option<usize> {
        match self.lower_bound(qi) {
            i if i < self.len() && self.point_qi(i) == qi => Some(i),
            _ => None,
        }
    }

    /// Index of the first point whose codes are not below `qi`.
    fn lower_bound(&self, qi: &[u32]) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.point_qi(mid) < qi {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The whole-table sensitive distribution `Q` — bit-identical to
    /// [`Table::sensitive_distribution`] of the folded table.
    pub fn table_distribution(&self) -> Dist {
        let n = self.rows as f64;
        Dist::new(
            self.sensitive_totals
                .iter()
                .map(|&c| c as f64 / n)
                .collect(),
        )
        .expect("table distribution is valid")
    }

    /// Carry the fold across one delta from content alone: `deleted` holds
    /// the deleted rows' codes ([`DeletedRows::gather`] on the pre-delta
    /// table) and `delta` supplies the inserts. The new sorted arrays are
    /// built from this fold in one merge pass — unchanged runs of points
    /// are copied in bulk, and the [content hash](Self::content_hash) is
    /// adjusted only for the changed points — so the cost is O(u) copying
    /// plus O(delta · log u), against a full re-fold's O(n · d).
    ///
    /// The result equals [`new`](Self::new) of the post-delta table:
    /// [`content_eq`](Self::content_eq), same content hash. `None`, leaving
    /// nothing changed, when the change disagrees with this fold: a delete
    /// of a row content the fold does not hold, codes of the wrong arity or
    /// out of the sensitive domain, or a delta that would empty the table.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use bgkanon_data::DeltaBuilder;
    /// use bgkanon_knowledge::{DeletedRows, FoldedTable};
    ///
    /// let table = bgkanon_data::adult::generate(200, 3);
    /// let (folded, row_points) = FoldedTable::with_row_points(&table);
    /// let mut delta = DeltaBuilder::new(Arc::clone(table.schema()));
    /// delta.delete(5).delete(17);
    /// delta.insert_codes(&table.qi(9), table.sensitive_value(2)).unwrap();
    /// let delta = delta.build();
    ///
    /// let deleted = DeletedRows::gather(&table, &delta).unwrap();
    /// let evolution = folded.evolve(&deleted, &delta).unwrap();
    /// let (fresh, fresh_points) = FoldedTable::with_row_points(&table.apply_delta(&delta).unwrap());
    /// assert!(evolution.folded().content_eq(&fresh));
    /// assert_eq!(evolution.folded().content_hash(), fresh.content_hash());
    /// assert_eq!(evolution.row_points(&row_points, &delta).unwrap(), fresh_points);
    /// ```
    pub fn evolve(&self, deleted: &DeletedRows, delta: &Delta) -> Option<FoldEvolution> {
        let (d, m) = (self.qi_count, self.m);
        if deleted.qi.len() != deleted.sensitive.len() * d
            || delta.schema().qi_count() != d
            || self.rows + delta.insert_count() <= deleted.len()
        {
            return None;
        }
        let touched = self.net_changes(deleted, delta)?;
        let u_old = self.len();
        let mut out = FoldedTable {
            qi_count: d,
            m,
            rows: self.rows,
            sensitive_totals: self.sensitive_totals.clone(),
            qi: Vec::with_capacity((u_old + touched.len()) * d),
            counts: Vec::with_capacity(u_old + touched.len()),
            hists: Vec::with_capacity((u_old + touched.len()) * m),
            hash: self.hash,
        };
        let mut point_map = vec![GONE; u_old];
        let mut scratch = vec![0u32; m];
        let mut next = 0usize;
        for change in &touched {
            let at = self.lower_bound(change.qi);
            out.copy_points(self, next..at, &mut point_map);
            next = at;
            let existing = at < u_old && self.point_qi(at) == change.qi;
            let old_hist = existing.then(|| self.point_hist(at));
            let mut count = 0u32;
            for (s, (slot, &delta_s)) in scratch.iter_mut().zip(&change.hist).enumerate() {
                let before = old_hist.map_or(0, |h| i64::from(h[s]));
                *slot = u32::try_from(before + delta_s).ok()?;
                count = count.checked_add(*slot)?;
                let total = i64::try_from(out.sensitive_totals[s]).ok()? + delta_s;
                out.sensitive_totals[s] = u64::try_from(total).ok()?;
            }
            let net: i64 = change.hist.iter().sum();
            out.rows = usize::try_from(i64::try_from(out.rows).ok()? + net).ok()?;
            if let Some(hist) = old_hist {
                out.hash = out.hash.wrapping_sub(point_hash(change.qi, hist));
                next += 1;
            }
            if count > 0 {
                if existing {
                    point_map[at] = out.counts.len() as u32;
                }
                out.hash = out.hash.wrapping_add(point_hash(change.qi, &scratch));
                out.qi.extend_from_slice(change.qi);
                out.counts.push(count);
                out.hists.extend_from_slice(&scratch);
            }
        }
        out.copy_points(self, next..u_old, &mut point_map);
        Some(FoldEvolution {
            folded: out,
            point_map,
        })
    }

    /// The net change per touched QI combination of `deleted` + `delta`'s
    /// inserts, sorted by codes, net-zero combinations dropped. `None` on a
    /// sensitive code outside the domain.
    fn net_changes<'a>(
        &self,
        deleted: &'a DeletedRows,
        delta: &'a Delta,
    ) -> Option<Vec<NetChange<'a>>> {
        let d = self.qi_count;
        let mut rows: Vec<(&'a [u32], u32, i64)> =
            Vec::with_capacity(deleted.len() + delta.insert_count());
        for (k, &s) in deleted.sensitive.iter().enumerate() {
            rows.push((&deleted.qi[k * d..(k + 1) * d], s, -1));
        }
        for i in 0..delta.insert_count() {
            rows.push((delta.insert_qi(i), delta.insert_sensitive(i), 1));
        }
        if rows.iter().any(|&(_, s, _)| s as usize >= self.m) {
            return None;
        }
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut touched: Vec<NetChange<'a>> = Vec::new();
        for (qi, s, sign) in rows {
            match touched.last_mut() {
                Some(last) if last.qi == qi => last.hist[s as usize] += sign,
                _ => {
                    let mut hist = vec![0i64; self.m];
                    hist[s as usize] += sign;
                    touched.push(NetChange { qi, hist });
                }
            }
        }
        touched.retain(|c| c.hist.iter().any(|&h| h != 0));
        Some(touched)
    }

    /// Append `old`'s points `range` unchanged (one bulk copy per array),
    /// recording where each landed.
    fn copy_points(
        &mut self,
        old: &FoldedTable,
        range: std::ops::Range<usize>,
        point_map: &mut [u32],
    ) {
        let first = self.counts.len() as u32;
        for (k, slot) in point_map[range.clone()].iter_mut().enumerate() {
            *slot = first + k as u32;
        }
        let (d, m) = (self.qi_count, self.m);
        self.qi
            .extend_from_slice(&old.qi[range.start * d..range.end * d]);
        self.counts.extend_from_slice(&old.counts[range.clone()]);
        self.hists
            .extend_from_slice(&old.hists[range.start * m..range.end * m]);
    }

    /// One merge of this fold's sorted points with `newer`'s. Returns the
    /// QI combinations whose histogram differs between the two (a point
    /// present in only one of them counts as changed), in ascending order,
    /// and `priors` — aligned with this fold's points — moved to the point
    /// ids of `newer`: a point `newer` shares with this fold takes its
    /// prior, a point new in `newer` gets `None`.
    fn merge_priors<'a>(
        &'a self,
        newer: &'a FoldedTable,
        priors: Vec<Dist>,
    ) -> (Vec<&'a [u32]>, Vec<Option<Dist>>) {
        use std::cmp::Ordering;
        let (mut i, mut j) = (0usize, 0usize);
        let mut changed: Vec<&'a [u32]> = Vec::new();
        let mut moved: Vec<Option<Dist>> = Vec::with_capacity(newer.len());
        let mut priors = priors.into_iter();
        while i < self.len() || j < newer.len() {
            let order = if i == self.len() {
                Ordering::Greater
            } else if j == newer.len() {
                Ordering::Less
            } else {
                self.point_qi(i).cmp(newer.point_qi(j))
            };
            match order {
                Ordering::Less => {
                    changed.push(self.point_qi(i));
                    priors.next();
                    i += 1;
                }
                Ordering::Greater => {
                    changed.push(newer.point_qi(j));
                    moved.push(None);
                    j += 1;
                }
                Ordering::Equal => {
                    if self.point_hist(i) != newer.point_hist(j) {
                        changed.push(newer.point_qi(j));
                    }
                    moved.push(priors.next());
                    i += 1;
                    j += 1;
                }
            }
        }
        (changed, moved)
    }
}

/// The points whose prior a refresh recomputed, as a bitset over the sorted
/// point indices of the refreshed model's fold
/// ([`PriorEstimator::refresh_folded`]). Every point outside it kept its
/// prior bit for bit; a group of rows none of which folds into a dirty point
/// (see [`FoldedTable::with_row_points`]) therefore has the same risks under
/// the refreshed model as under the old one.
#[derive(Debug, Clone)]
pub struct DirtyPoints {
    /// Points in the fold the ids index.
    points: usize,
    bits: Vec<u64>,
    count: usize,
}

impl DirtyPoints {
    /// No point dirty, over a fold of `points` points.
    fn none(points: usize) -> Self {
        DirtyPoints {
            points,
            bits: vec![0; points.div_ceil(64)],
            count: 0,
        }
    }

    /// Every one of `points` points dirty.
    fn all(points: usize) -> Self {
        let mut bits = vec![!0u64; points / 64];
        let tail = points % 64;
        if tail > 0 {
            bits.push((1u64 << tail) - 1);
        }
        DirtyPoints {
            points,
            bits,
            count: points,
        }
    }

    fn insert(&mut self, id: usize) {
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.count += 1;
        }
    }

    /// Is point `id` dirty? Ids outside the fold count as dirty — a caller
    /// holding an id the refresh never saw must not treat it as clean.
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        id >= self.points || self.bits[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Number of dirty points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the refresh changed no prior.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The dirty point ids, ascending.
    fn ids(&self) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.count);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                ids.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        ids
    }
}

/// Per-attribute inverted index over a [`FoldedTable`]'s points, in two
/// complementary forms built once per estimation pass:
///
/// * **postings** — per attribute value, the ascending list of point
///   indices carrying it (drives selectivity estimates, contiguous-range
///   seeds and posting-list gathers);
/// * **value bitsets** — per attribute value, a `u`-bit set over the
///   points. A query with narrow supports enumerates the **exact**
///   product-kernel support by AND-ing one (OR-folded) bitset per
///   attribute across the most selective attribute's id window — a few
///   hundred word operations instead of thousands of candidate probes.
#[derive(Debug, Clone)]
struct SupportIndex {
    /// Per attribute: (`offsets` of length `r + 1`, point `ids`).
    postings: Vec<(Vec<u32>, Vec<u32>)>,
    /// Bits per point-id word (`u.div_ceil(64)`).
    words: usize,
    /// Per attribute: `r × words` row-major point bitsets.
    value_bits: Vec<Vec<u64>>,
}

impl SupportIndex {
    fn build(folded: &FoldedTable, sizes: &[usize]) -> Self {
        let u = folded.len();
        let words = u.div_ceil(64);
        let mut value_bits = Vec::with_capacity(sizes.len());
        let postings = sizes
            .iter()
            .enumerate()
            .map(|(attr, &r)| {
                let mut offsets = vec![0u32; r + 1];
                let mut bits = vec![0u64; r * words];
                for id in 0..u {
                    let v = folded.point_qi(id)[attr] as usize;
                    offsets[v + 1] += 1;
                    bits[v * words + id / 64] |= 1u64 << (id % 64);
                }
                value_bits.push(bits);
                for v in 0..r {
                    offsets[v + 1] += offsets[v];
                }
                let mut cursor = offsets.clone();
                let mut ids = vec![0u32; u];
                for id in 0..u {
                    let v = folded.point_qi(id)[attr] as usize;
                    ids[cursor[v] as usize] = id as u32;
                    cursor[v] += 1;
                }
                (offsets, ids)
            })
            .collect();
        SupportIndex {
            postings,
            words,
            value_bits,
        }
    }
}

/// How a query enumerates the folded points: everything, a contiguous range
/// of the sorted order, or an explicitly gathered sorted id list.
enum CandidateSet<'a> {
    All,
    Range(usize, usize),
    List(&'a [u32]),
}

/// The estimated prior belief function `P̂pri` of one adversary.
///
/// Holds a distribution for every distinct QI combination of the estimation
/// table, stored as one vector aligned with the sorted points of the
/// [`FoldedTable`] it was estimated from: point `i`'s prior is
/// [`point_prior(i)`](Self::point_prior). The fold also makes the model
/// refreshable under table deltas ([`PriorEstimator::refresh_folded`]),
/// and the bandwidth/family provenance is kept with it; unseen
/// combinations fall back to the whole-table distribution
/// ([`prior_or_fallback`](Self::prior_or_fallback)). A QI lookup goes
/// through an open-addressing table of point ids, built on the first one.
#[derive(Debug, Clone)]
pub struct PriorModel {
    /// One prior per point, in ascending QI order: aligned with the points
    /// of `folded`, or with `keys` on a fold-less model.
    priors: Vec<Dist>,
    /// A fold-less model's sorted QI codes, `len × qi_count` row-major.
    /// Empty when the model carries its fold, whose points are the keys.
    keys: Vec<u32>,
    /// Number of codes per key.
    qi_count: usize,
    /// QI → point id table, built on the first QI lookup.
    index: OnceLock<PointIndex>,
    /// The whole-table sensitive distribution, used as the zero-weight
    /// fallback (it is also what Eq. 2 degrades to with maximal bandwidth).
    table_distribution: Dist,
    /// The folded estimation table — present on models built by the
    /// estimator (and reloaded v2 persisted models), absent on bare
    /// [`from_parts`](Self::from_parts) models.
    folded: Option<FoldedTable>,
    /// Bandwidth the model was estimated with, when known.
    bandwidth: Option<Bandwidth>,
    /// Kernel family the model was estimated with.
    family: KernelFamily,
}

/// Slot of a [`PointIndex`] that holds no point.
const VACANT: u32 = u32::MAX;

/// Open-addressing hash table from QI codes to a model's point ids, with
/// linear probing. The slot count is a power of two and at least twice the
/// point count, so every probe sequence reaches a vacant slot.
#[derive(Debug, Clone)]
struct PointIndex {
    slots: Vec<u32>,
}

/// Hash of one QI combination, for [`PointIndex`] slots.
#[inline]
fn qi_hash(qi: &[u32]) -> u64 {
    avalanche(absorb(0xa409_3822_299f_31d0, qi))
}

impl PriorModel {
    /// Assemble a model from `(QI codes, prior)` entries and the table
    /// distribution (the legacy persistence format and tests use this;
    /// prefer [`PriorEstimator::estimate`]). Entries are sorted by codes;
    /// of two entries with equal codes the later one wins. The result has
    /// no folded table, so [`PriorEstimator::refresh_folded`] re-estimates
    /// it in full. `None` when the entries' codes differ in length.
    pub fn from_parts(
        mut entries: Vec<(Vec<u32>, Dist)>,
        table_distribution: Dist,
    ) -> Option<Self> {
        let qi_count = entries.first().map_or(0, |(qi, _)| qi.len());
        if entries.iter().any(|(qi, _)| qi.len() != qi_count) {
            return None;
        }
        // Stable: equal codes keep their input order, so the last wins.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut keys: Vec<u32> = Vec::with_capacity(entries.len() * qi_count);
        let mut priors: Vec<Dist> = Vec::with_capacity(entries.len());
        for (qi, prior) in entries {
            match priors.last_mut() {
                Some(last) if keys[keys.len() - qi_count..] == qi[..] => *last = prior,
                _ => {
                    keys.extend_from_slice(&qi);
                    priors.push(prior);
                }
            }
        }
        Some(PriorModel {
            priors,
            keys,
            qi_count,
            index: OnceLock::new(),
            table_distribution,
            folded: None,
            bandwidth: None,
            family: KernelFamily::default(),
        })
    }

    /// A refreshable model from priors aligned with `folded`'s points.
    fn with_fold(
        priors: Vec<Dist>,
        table_distribution: Dist,
        folded: FoldedTable,
        bandwidth: Bandwidth,
        family: KernelFamily,
    ) -> Self {
        PriorModel {
            priors,
            keys: Vec::new(),
            qi_count: folded.qi_count(),
            index: OnceLock::new(),
            table_distribution,
            folded: Some(folded),
            bandwidth: Some(bandwidth),
            family,
        }
    }

    /// Assemble a refreshable model from `(QI codes, prior)` entries (the
    /// v2 persistence path). `None` unless the entries' codes are exactly
    /// the points of `folded`, one entry per point.
    pub(crate) fn from_parts_folded(
        mut entries: Vec<(Vec<u32>, Dist)>,
        folded: FoldedTable,
        bandwidth: Bandwidth,
        family: KernelFamily,
    ) -> Option<Self> {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let aligned = entries.len() == folded.len()
            && entries
                .iter()
                .enumerate()
                .all(|(i, (qi, _))| folded.point_qi(i) == qi.as_slice());
        if !aligned {
            return None;
        }
        let priors = entries.into_iter().map(|(_, prior)| prior).collect();
        let table_distribution = folded.table_distribution();
        Some(Self::with_fold(
            priors,
            table_distribution,
            folded,
            bandwidth,
            family,
        ))
    }

    /// QI codes of point `id`.
    #[inline]
    fn key(&self, id: usize) -> &[u32] {
        match &self.folded {
            Some(folded) => folded.point_qi(id),
            None => &self.keys[id * self.qi_count..(id + 1) * self.qi_count],
        }
    }

    fn build_index(&self) -> PointIndex {
        let mut slots = vec![VACANT; (2 * self.priors.len()).next_power_of_two()];
        let mask = slots.len() - 1;
        for id in 0..self.priors.len() {
            let mut s = qi_hash(self.key(id)) as usize & mask;
            while slots[s] != VACANT {
                s = (s + 1) & mask;
            }
            slots[s] = id as u32;
        }
        PointIndex { slots }
    }

    /// The point id of QI combination `qi`, if the model covers it: the
    /// index [`point_prior`](Self::point_prior) reads, below
    /// [`len`](Self::len). Callers that keep per-point tables of their own
    /// resolve rows through it; an uncovered `qi` gets the whole-table
    /// fallback ([`prior_or_fallback`](Self::prior_or_fallback)).
    pub fn point_id(&self, qi: &[u32]) -> Option<usize> {
        let slots = &self.index.get_or_init(|| self.build_index()).slots;
        let mask = slots.len() - 1;
        let mut s = qi_hash(qi) as usize & mask;
        loop {
            let id = slots[s];
            if id == VACANT {
                return None;
            }
            if self.key(id as usize) == qi {
                return Some(id as usize);
            }
            s = (s + 1) & mask;
        }
    }

    /// Prior belief for the QI combination `qi`, if it appeared in the
    /// estimation table.
    pub fn prior(&self, qi: &[u32]) -> Option<&Dist> {
        self.point_id(qi).map(|id| &self.priors[id])
    }

    /// Prior belief for `qi`, falling back to the whole-table distribution
    /// for combinations outside the estimation table.
    pub fn prior_or_fallback(&self, qi: &[u32]) -> &Dist {
        self.prior(qi).unwrap_or(&self.table_distribution)
    }

    /// Prior belief at point `id` of the model's fold (sorted index, as in
    /// [`FoldedTable::point`] and [`FoldedTable::with_row_points`]) — the
    /// very `Dist` [`prior`](Self::prior) returns for that point's codes,
    /// found without hashing them. `None` when `id` is out of range.
    pub fn point_prior(&self, id: u32) -> Option<&Dist> {
        self.priors.get(id as usize)
    }

    /// The whole-table sensitive distribution `Q`.
    pub fn table_distribution(&self) -> &Dist {
        &self.table_distribution
    }

    /// The folded estimation table, when the model carries one.
    pub fn folded(&self) -> Option<&FoldedTable> {
        self.folded.as_ref()
    }

    /// Bandwidth provenance, when known.
    pub fn bandwidth(&self) -> Option<&Bandwidth> {
        self.bandwidth.as_ref()
    }

    /// Kernel-family provenance ([`KernelFamily::Epanechnikov`] when
    /// unknown).
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Number of distinct QI combinations covered.
    pub fn len(&self) -> usize {
        self.priors.len()
    }

    /// True if no combinations are covered.
    pub fn is_empty(&self) -> bool {
        self.priors.is_empty()
    }

    /// Iterate over `(qi, prior)` pairs in ascending QI order — for a
    /// model with a fold, point by point.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &Dist)> {
        self.priors
            .iter()
            .enumerate()
            .map(|(id, prior)| (self.key(id), prior))
    }

    /// Heap bytes resident in this model: one `m`-ary distribution per
    /// point (keys are the fold's points, or a flat code array on a
    /// fold-less model), the table distribution, the retained fold and,
    /// once a QI lookup has built it, the point index. The accounting hook
    /// the serving hub's memory budget rolls up per tenant (and the intern
    /// table reports once per *shared* model); a deterministic
    /// owned-payload estimate, not an allocator-exact RSS.
    pub fn bytes_accounted(&self) -> usize {
        let m = self.table_distribution.len();
        let per_prior = m * 8 + std::mem::size_of::<Dist>();
        self.priors.len() * per_prior
            + self.keys.len() * 4
            + m * 8
            + self.folded.as_ref().map_or(0, FoldedTable::bytes_accounted)
            + self.index.get().map_or(0, |index| index.slots.len() * 4)
            + 64
    }
}

/// Configured kernel regression estimator for one bandwidth vector.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_knowledge::{Bandwidth, PriorEstimator};
///
/// let table = bgkanon_data::toy::hospital_table();
/// let estimator = PriorEstimator::new(
///     Arc::clone(table.schema()),
///     Bandwidth::uniform(0.4, 2).unwrap(),
/// );
/// let model = estimator.estimate(&table);
/// // One prior per distinct QI combination; all normalized.
/// assert_eq!(model.len(), table.group_by_qi().len());
/// ```
#[derive(Debug, Clone)]
pub struct PriorEstimator {
    schema: Arc<Schema>,
    bandwidth: Bandwidth,
    family: KernelFamily,
    /// Per attribute, the CSR kernel weight table
    /// `W_i[a][b] = K_i(d_i(a, b))`.
    weights: Vec<SparseWeights>,
}

impl PriorEstimator {
    /// Build an estimator for `schema` with bandwidths `bandwidth` (one per
    /// QI attribute) and the paper's Epanechnikov kernel.
    pub fn new(schema: Arc<Schema>, bandwidth: Bandwidth) -> Self {
        Self::with_family(schema, bandwidth, KernelFamily::Epanechnikov)
    }

    /// Build with an explicit kernel family.
    pub fn with_family(schema: Arc<Schema>, bandwidth: Bandwidth, family: KernelFamily) -> Self {
        assert_eq!(
            bandwidth.len(),
            schema.qi_count(),
            "bandwidth dimension {} must equal the number of QI attributes {}",
            bandwidth.len(),
            schema.qi_count()
        );
        let weights = (0..schema.qi_count())
            .map(|i| {
                let kernel = family.kernel(bandwidth.get(i));
                SparseWeights::build(&kernel, schema.qi_distance(i))
            })
            .collect();
        PriorEstimator {
            schema,
            bandwidth,
            family,
            weights,
        }
    }

    /// The bandwidth vector `B`.
    pub fn bandwidth(&self) -> &Bandwidth {
        &self.bandwidth
    }

    /// The kernel family in use.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Heap bytes of the CSR kernel weight tables — the estimator's only
    /// size-dependent state. Part of the serving hub's per-tenant memory
    /// accounting (a deterministic proxy, not allocator-exact).
    pub fn bytes_accounted(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.row_ptr.len() * 8 + w.cols.len() * 4 + w.weights.len() * 8 + 64)
            .sum::<usize>()
            + self.bandwidth.len() * 8
            + 64
    }

    /// Per-attribute support density (fraction of nonzero entries in each
    /// `r × r` kernel table) — the diagnostic that predicts the sparse
    /// engine's win over the dense scan.
    pub fn support_density(&self) -> Vec<f64> {
        self.weights.iter().map(SparseWeights::density).collect()
    }

    /// Product kernel weight `Π_i K_i(d_i(a_i, b_i))` between two QI
    /// points, short-circuiting on the first zero factor.
    #[inline]
    fn pair_weight(&self, a: &[u32], b: &[u32]) -> f64 {
        let mut w = 1.0;
        for (i, table) in self.weights.iter().enumerate() {
            w *= table.weight(a[i], b[i]);
            if w == 0.0 {
                return 0.0;
            }
        }
        w
    }

    /// Build the [`SupportIndex`] over `folded`'s points.
    fn index(&self, folded: &FoldedTable) -> SupportIndex {
        assert_eq!(
            folded.qi_count(),
            self.schema.qi_count(),
            "QI arity mismatch"
        );
        let sizes: Vec<usize> = self.weights.iter().map(SparseWeights::size).collect();
        SupportIndex::build(folded, &sizes)
    }

    /// Below this many points, iterating a contiguous sorted-order range
    /// beats gathering + intersecting posting lists.
    const RANGE_DIRECT_MAX: usize = 192;

    /// Enumerate the candidate points for query `q` (`buf` is reusable
    /// scratch): **seed** from the most selective attribute's posting lists
    /// and **intersect** with attribute 0's support window — because the
    /// points are sorted lexicographically, attribute 0's posting ids are
    /// the identity permutation, so a contiguous attribute-0 support is one
    /// id range `[lo, hi)` and each seed posting list restricts to it with
    /// two binary searches. The remaining attributes intersect away inside
    /// the product-weight computation, which short-circuits on the first
    /// zero factor. Every point with nonzero product weight is guaranteed
    /// to be in the set; with `ordered` the set comes out in ascending
    /// point order (required for bit-identical accumulation — dirty-marking
    /// passes `false` and skips the sort).
    fn candidates<'a>(
        &self,
        folded: &FoldedTable,
        index: &SupportIndex,
        q: &[u32],
        buf: &'a mut Vec<u32>,
        bits: &mut Vec<u64>,
        ordered: bool,
    ) -> CandidateSet<'a> {
        let u = folded.len();
        // Candidate count per attribute; track the best overall and the
        // best gatherable (non-attribute-0) seed.
        let mut best = (usize::MAX, 0usize);
        let mut best_rest = (usize::MAX, 0usize);
        for (i, w) in self.weights.iter().enumerate() {
            let (offsets, _) = &index.postings[i];
            let support = w.support(q[i]);
            let count = if w.is_contiguous() {
                let first = support[0] as usize;
                let last = support[support.len() - 1] as usize;
                (offsets[last + 1] - offsets[first]) as usize
            } else {
                support
                    .iter()
                    .map(|&b| (offsets[b as usize + 1] - offsets[b as usize]) as usize)
                    .sum()
            };
            if count < best.0 {
                best = (count, i);
            }
            if i > 0 && count < best_rest.0 {
                best_rest = (count, i);
            }
        }
        if best.0 >= u {
            return CandidateSet::All;
        }
        // Attribute 0's support window in sorted-point-id space.
        let window = if self.weights[0].is_contiguous() {
            let support = self.weights[0].support(q[0]);
            let (offsets, _) = &index.postings[0];
            let first = support[0] as usize;
            let last = support[support.len() - 1] as usize;
            Some((offsets[first] as usize, offsets[last + 1] as usize))
        } else {
            None
        };
        // Exact product-support enumeration: AND one (OR-folded) value
        // bitset per attribute across the window — whenever the supports
        // are narrow (the compact-support common case) this is a few
        // hundred word operations and yields exactly the nonzero-weight
        // point set, beating any posting-list gather.
        let (lo, hi) = window.unwrap_or((0, u));
        let w0 = lo / 64;
        let w1 = hi.div_ceil(64).max(w0 + 1);
        let span = w1 - w0;
        let skip0 = usize::from(window.is_some());
        let or_count: usize = (skip0..self.weights.len())
            .map(|i| self.weights[i].support(q[i]).len())
            .sum();
        // A gathered candidate costs several operations to copy and probe;
        // a bitset word-op is one — weigh the comparison accordingly.
        if or_count > 0 && span * (or_count + 2) < best.0 * 4 {
            let words_all = index.words;
            bits.resize(words_all.max(span), 0);
            let mut first = true;
            for ((weights, &q_i), rows) in self
                .weights
                .iter()
                .zip(q)
                .zip(&index.value_bits)
                .skip(skip0)
            {
                let support = weights.support(q_i);
                for (w, slot) in bits[..span].iter_mut().enumerate() {
                    if !first && *slot == 0 {
                        continue;
                    }
                    let mut mask = 0u64;
                    for &b in support {
                        mask |= rows[b as usize * words_all + w0 + w];
                    }
                    if first {
                        *slot = mask;
                    } else {
                        *slot &= mask;
                    }
                }
                first = false;
            }
            // Clip the window's partial boundary words.
            if lo % 64 != 0 {
                bits[0] &= !0u64 << (lo % 64);
            }
            if hi % 64 != 0 {
                bits[span - 1] &= !0u64 >> (64 - hi % 64);
            }
            buf.clear();
            for (wi, slot) in bits[..span].iter_mut().enumerate() {
                let mut word = std::mem::take(slot);
                while word != 0 {
                    buf.push(((w0 + wi) * 64 + word.trailing_zeros() as usize) as u32);
                    word &= word - 1;
                }
            }
            return CandidateSet::List(buf);
        }
        let seed = if best.1 == 0 {
            if let Some((lo, hi)) = window {
                if best_rest.0 >= u || hi - lo <= Self::RANGE_DIRECT_MAX {
                    // No gatherable seed, or the window is already tiny.
                    return CandidateSet::Range(lo, hi);
                }
                // Seed from the best non-window attribute instead; the
                // window restriction below does the actual narrowing.
                best_rest.1
            } else {
                0
            }
        } else {
            best.1
        };
        let (offsets, ids) = &index.postings[seed];
        buf.clear();
        if ordered {
            // Gather into a point-id bitset and read the set bits back in
            // ascending order — much cheaper than sorting the gathered
            // list, and ascending order is what bit-identical accumulation
            // requires.
            bits.resize(u.div_ceil(64), 0);
            let mut min_word = usize::MAX;
            let mut max_word = 0usize;
            for &b in self.weights[seed].support(q[seed]) {
                let mut slice =
                    &ids[offsets[b as usize] as usize..offsets[b as usize + 1] as usize];
                if seed != 0 {
                    if let Some((lo, hi)) = window {
                        let start = slice.partition_point(|&id| (id as usize) < lo);
                        let end = slice.partition_point(|&id| (id as usize) < hi);
                        slice = &slice[start..end];
                    }
                }
                for &id in slice {
                    let word = id as usize / 64;
                    bits[word] |= 1u64 << (id as usize % 64);
                    min_word = min_word.min(word);
                    max_word = max_word.max(word);
                }
            }
            if min_word == usize::MAX {
                return CandidateSet::List(buf);
            }
            for (word_idx, slot) in bits
                .iter_mut()
                .enumerate()
                .take(max_word + 1)
                .skip(min_word)
            {
                let mut word = std::mem::take(slot);
                while word != 0 {
                    buf.push((word_idx * 64 + word.trailing_zeros() as usize) as u32);
                    word &= word - 1;
                }
            }
        } else {
            for &b in self.weights[seed].support(q[seed]) {
                let mut slice =
                    &ids[offsets[b as usize] as usize..offsets[b as usize + 1] as usize];
                if seed != 0 {
                    if let Some((lo, hi)) = window {
                        let start = slice.partition_point(|&id| (id as usize) < lo);
                        let end = slice.partition_point(|&id| (id as usize) < hi);
                        slice = &slice[start..end];
                    }
                }
                buf.extend_from_slice(slice);
            }
        }
        CandidateSet::List(buf)
    }

    /// Accumulate Eq. 1–2 numerators/denominator over `candidates`, in
    /// ascending sorted-point order (what makes every engine bit-identical).
    fn accumulate(
        &self,
        q: &[u32],
        folded: &FoldedTable,
        candidates: CandidateSet<'_>,
        numer: &mut Vec<f64>,
    ) -> f64 {
        let m = folded.sensitive_domain_size();
        numer.clear();
        numer.resize(m, 0.0);
        let mut denom = 0.0f64;
        let mut visit = |id: usize| {
            let w = self.pair_weight(q, folded.point_qi(id));
            if w > 0.0 {
                denom += w * f64::from(folded.counts[id]);
                // Branch-free so the m-wide loop vectorizes. Bit-identical
                // to skipping zero counts: `w` is finite and positive, so a
                // zero count adds `+0.0` to a numerator that starts at
                // `+0.0` and never goes negative.
                for (n, &c) in numer.iter_mut().zip(folded.point_hist(id)) {
                    *n += w * f64::from(c);
                }
            }
        };
        match candidates {
            CandidateSet::All => (0..folded.len()).for_each(&mut visit),
            CandidateSet::Range(lo, hi) => (lo..hi).for_each(&mut visit),
            CandidateSet::List(ids) => ids.iter().for_each(|&id| visit(id as usize)),
        }
        denom
    }

    /// Turn accumulated numerators into the prior distribution (falling
    /// back to the table distribution outside every kernel support).
    fn finalize(&self, numer: &[f64], denom: f64, fallback: &Dist) -> Dist {
        if denom <= 0.0 {
            // No point of the table inside the kernel support (possible only
            // for q outside the table with small bandwidths).
            return fallback.clone();
        }
        let p: Vec<f64> = numer.iter().map(|&x| x / denom).collect();
        Dist::new(p).unwrap_or_else(|_| fallback.clone())
    }

    /// One sparse query against a prepared fold + index.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &self,
        folded: &FoldedTable,
        index: &SupportIndex,
        q: &[u32],
        fallback: &Dist,
        buf: &mut Vec<u32>,
        bits: &mut Vec<u64>,
        numer: &mut Vec<f64>,
    ) -> Dist {
        let candidates = self.candidates(folded, index, q, buf, bits, true);
        let denom = self.accumulate(q, folded, candidates, numer);
        self.finalize(numer, denom, fallback)
    }

    /// Estimate the full prior model over every distinct QI combination in
    /// `table` with the default [`Parallelism::Auto`] (the sparse engine on
    /// every available core).
    pub fn estimate(&self, table: &Table) -> PriorModel {
        self.estimate_with(table, Parallelism::Auto)
    }

    /// Estimate with an explicit parallelism knob, consistent with the
    /// Mondrian and audit engines: [`Parallelism::Serial`] selects the
    /// **dense all-pairs reference** path
    /// ([`estimate_reference`](Self::estimate_reference)), `Auto`/
    /// `Threads(n)` the sparse neighbor-bounded engine. All knobs produce
    /// bit-identical models.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use bgkanon_data::Parallelism;
    /// use bgkanon_knowledge::{Bandwidth, PriorEstimator};
    ///
    /// let table = bgkanon_data::adult::generate(150, 3);
    /// let estimator = PriorEstimator::new(
    ///     Arc::clone(table.schema()),
    ///     Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    /// );
    /// let dense = estimator.estimate_with(&table, Parallelism::Serial);
    /// let sparse = estimator.estimate_with(&table, Parallelism::threads(2));
    /// for (qi, p) in dense.iter() {
    ///     assert_eq!(p, sparse.prior(qi).unwrap()); // bit-identical
    /// }
    /// ```
    pub fn estimate_with(&self, table: &Table, parallelism: Parallelism) -> PriorModel {
        self.estimate_folded(FoldedTable::new(table), parallelism)
    }

    /// Estimate from an already-built fold (the fold is retained inside the
    /// returned model — reach it back via [`PriorModel::folded`]).
    pub fn estimate_folded(&self, folded: FoldedTable, parallelism: Parallelism) -> PriorModel {
        assert_eq!(
            folded.qi_count(),
            self.schema.qi_count(),
            "QI arity mismatch"
        );
        if parallelism.is_serial() {
            return self.reference_from(folded);
        }
        let fallback = folded.table_distribution();
        let index = self.index(&folded);
        let ids: Vec<u32> = (0..folded.len() as u32).collect();
        let (folded, fallback, priors) =
            self.query_points(folded, index, fallback, &ids, parallelism);
        PriorModel::with_fold(
            priors,
            fallback,
            folded,
            self.bandwidth.clone(),
            self.family,
        )
    }

    /// The sparse engine's priors at the points `ids` of `folded`, aligned
    /// with `ids`, on `parallelism` workers. Worker jobs run on the
    /// process-wide pool, so an estimation or refresh issued by a serving
    /// thread reuses the same workers as every other engine call instead
    /// of spawning a scope per call. Jobs are `'static`: the fold, index
    /// and fallback move in behind one `Arc` and come back out with the
    /// priors (the jobs have all dropped their handles once the pool
    /// returns), and each job carries its own estimator clone.
    fn query_points(
        &self,
        folded: FoldedTable,
        index: SupportIndex,
        fallback: Dist,
        ids: &[u32],
        parallelism: Parallelism,
    ) -> (FoldedTable, Dist, Vec<Dist>) {
        let threads = parallelism.effective_threads().min(ids.len().max(1));
        if threads <= 1 {
            let mut buf = Vec::new();
            let mut bits = Vec::new();
            let mut numer = Vec::new();
            let dists = ids
                .iter()
                .map(|&id| {
                    self.query(
                        &folded,
                        &index,
                        folded.point_qi(id as usize),
                        &fallback,
                        &mut buf,
                        &mut bits,
                        &mut numer,
                    )
                })
                .collect();
            return (folded, fallback, dists);
        }
        let shared = Arc::new((folded, index, fallback));
        let jobs: Vec<_> = ids
            .chunks(ids.len().div_ceil(threads))
            .map(|chunk| {
                let this = self.clone();
                let shared = Arc::clone(&shared);
                let chunk = chunk.to_vec();
                move || {
                    let (folded, index, fallback) = &*shared;
                    let mut buf = Vec::new();
                    let mut bits = Vec::new();
                    let mut numer = Vec::new();
                    chunk
                        .iter()
                        .map(|&id| {
                            this.query(
                                folded,
                                index,
                                folded.point_qi(id as usize),
                                fallback,
                                &mut buf,
                                &mut bits,
                                &mut numer,
                            )
                        })
                        .collect::<Vec<Dist>>()
                }
            })
            .collect();
        let dists = bgkanon_data::shared_pool()
            .run(jobs)
            .into_iter()
            .flatten()
            .collect();
        let (folded, _, fallback) =
            Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone());
        (folded, fallback, dists)
    }

    /// The dense all-pairs **reference** engine: a direct `O(u²·(d+m))`
    /// transcription of Eq. 1–2 over the folded points, single-threaded.
    /// This is the simple, auditable path the sparse engine is
    /// property-tested against — and what [`Parallelism::Serial`] selects.
    pub fn estimate_reference(&self, table: &Table) -> PriorModel {
        self.reference_from(FoldedTable::new(table))
    }

    fn reference_from(&self, folded: FoldedTable) -> PriorModel {
        assert_eq!(
            folded.qi_count(),
            self.schema.qi_count(),
            "QI arity mismatch"
        );
        let fallback = folded.table_distribution();
        let mut numer = Vec::new();
        let priors = (0..folded.len())
            .map(|i| {
                let denom =
                    self.accumulate(folded.point_qi(i), &folded, CandidateSet::All, &mut numer);
                self.finalize(&numer, denom, &fallback)
            })
            .collect();
        PriorModel::with_fold(
            priors,
            fallback,
            folded,
            self.bandwidth.clone(),
            self.family,
        )
    }

    /// Refresh `model` to the table `folded` was built from, however many
    /// deltas separate it from the table the model reflects — no delta log
    /// needed. The model's own fold is diffed against `folded` (one merge
    /// of two sorted point arrays), then only the kernel neighborhood of
    /// the changed points is recomputed. The refreshed model is
    /// **bit-identical** to [`estimate_folded`](Self::estimate_folded) of
    /// `folded`, and retains `folded` as its fold.
    ///
    /// Returns the points whose prior was recomputed, indexed like
    /// `folded`. A model that carries no fold, or was estimated with
    /// another bandwidth or kernel family, is re-estimated in full and
    /// every point is reported dirty.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use bgkanon_data::{DeltaBuilder, Parallelism};
    /// use bgkanon_knowledge::{Bandwidth, FoldedTable, PriorEstimator};
    ///
    /// let table = bgkanon_data::adult::generate(150, 7);
    /// let estimator = PriorEstimator::new(
    ///     Arc::clone(table.schema()),
    ///     Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    /// );
    /// let mut model = estimator.estimate(&table);
    ///
    /// // Two deltas later, refresh straight from the newest table's fold.
    /// let mut next = table.clone();
    /// for rows in [[3, 40], [7, 90]] {
    ///     let mut delta = DeltaBuilder::new(Arc::clone(table.schema()));
    ///     delta.delete(rows[0]).delete(rows[1]);
    ///     next = next.apply_delta(&delta.build()).unwrap();
    /// }
    /// let dirty = estimator.refresh_folded(&mut model, FoldedTable::new(&next), Parallelism::Auto);
    /// assert!(dirty.len() < model.len());
    ///
    /// let fresh = estimator.estimate(&next);
    /// for (qi, p) in fresh.iter() {
    ///     assert_eq!(p, model.prior(qi).unwrap());
    /// }
    /// ```
    pub fn refresh_folded(
        &self,
        model: &mut PriorModel,
        folded: FoldedTable,
        parallelism: Parallelism,
    ) -> DirtyPoints {
        let same_provenance = model.family == self.family
            && model.bandwidth.as_ref() == Some(&self.bandwidth)
            && model
                .folded
                .as_ref()
                .is_some_and(|old| old.qi_count == folded.qi_count && old.m == folded.m);
        match model.folded.take() {
            Some(old) if same_provenance => self.refresh_changed(model, old, folded, parallelism),
            _ => {
                *model = self.estimate_folded(folded, parallelism);
                DirtyPoints::all(model.len())
            }
        }
    }

    /// The refresh core behind [`refresh_folded`](Self::refresh_folded):
    /// `old` is the fold `model` was estimated on and `folded` the new one.
    /// One merge of the two point arrays finds the changed QI combinations
    /// and moves every surviving prior to its new point id. Compact kernel
    /// support means only priors within the (symmetric) product-kernel
    /// support of a changed combination can move, so exactly those points
    /// are recomputed, in ascending order, and overwrite their slots;
    /// combinations deleted outright lose their prior.
    fn refresh_changed(
        &self,
        model: &mut PriorModel,
        old: FoldedTable,
        mut folded: FoldedTable,
        parallelism: Parallelism,
    ) -> DirtyPoints {
        model.index = OnceLock::new();
        let (changed, mut priors) = old.merge_priors(&folded, std::mem::take(&mut model.priors));
        let mut dirty = DirtyPoints::none(folded.len());
        if !changed.is_empty() {
            let index = self.index(&folded);
            let mut buf = Vec::new();
            let mut bits = Vec::new();
            for &key in &changed {
                // Order is irrelevant for marking — skip the sort.
                let candidates = self.candidates(&folded, &index, key, &mut buf, &mut bits, false);
                let mut mark = |id: usize| {
                    if self.pair_weight(key, folded.point_qi(id)) > 0.0 {
                        dirty.insert(id);
                    }
                };
                match candidates {
                    CandidateSet::All => (0..folded.len()).for_each(&mut mark),
                    CandidateSet::Range(lo, hi) => (lo..hi).for_each(&mut mark),
                    CandidateSet::List(ids) => ids.iter().for_each(|&id| mark(id as usize)),
                }
            }
            drop(old);
            let ids = dirty.ids();
            let fallback = folded.table_distribution();
            let (back, fallback, dists) =
                self.query_points(folded, index, fallback, &ids, parallelism);
            for (&id, dist) in ids.iter().zip(dists) {
                priors[id as usize] = Some(dist);
            }
            folded = back;
            model.table_distribution = fallback;
        }
        // Every point the merge found no prior for is a changed point, and
        // a point always lies in its own kernel support, so each slot is
        // filled; re-estimate in full should that ever not hold.
        match priors.into_iter().collect::<Option<Vec<Dist>>>() {
            Some(priors) => {
                model.priors = priors;
                model.folded = Some(folded);
                dirty
            }
            None => {
                *model = self.estimate_folded(folded, parallelism);
                DirtyPoints::all(model.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy, DeltaBuilder};

    fn hospital() -> Table {
        toy::hospital_table()
    }

    /// The sparse engine's prior at an arbitrary query point `q`, through
    /// the same private query path the estimator runs per folded point.
    fn query_one(est: &PriorEstimator, folded: &FoldedTable, q: &[u32]) -> Dist {
        let fallback = folded.table_distribution();
        let (mut buf, mut bits, mut numer) = (Vec::new(), Vec::new(), Vec::new());
        est.query(
            folded,
            &est.index(folded),
            q,
            &fallback,
            &mut buf,
            &mut bits,
            &mut numer,
        )
    }

    #[test]
    #[ignore]
    fn probe_candidate_stats() {
        let t = adult::generate(100_000, 42);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.25, t.qi_count()).unwrap(),
        );
        for (i, w) in est.weights.iter().enumerate() {
            eprintln!(
                "attr {i}: r={} density={:.3} contiguous={}",
                w.size(),
                w.density(),
                w.is_contiguous()
            );
        }
        let folded = FoldedTable::new(&t);
        let index = est.index(&folded);
        let u = folded.len();
        let (mut tot_c, mut tot_sv, mut n_range, mut n_list, mut tot_range) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut buf = Vec::new();
        let mut bits = Vec::new();
        for i in 0..u {
            let q: Vec<u32> = folded.point_qi(i).to_vec();
            let cands = est.candidates(&folded, &index, &q, &mut buf, &mut bits, true);
            let ids: Vec<u32> = match cands {
                CandidateSet::All => (0..u as u32).collect(),
                CandidateSet::Range(lo, hi) => {
                    n_range += 1;
                    tot_range += (hi - lo) as u64;
                    (lo as u32..hi as u32).collect()
                }
                CandidateSet::List(l) => {
                    n_list += 1;
                    l.to_vec()
                }
            };
            tot_c += ids.len() as u64;
            tot_sv += ids
                .iter()
                .filter(|&&id| est.pair_weight(&q, folded.point_qi(id as usize)) > 0.0)
                .count() as u64;
        }
        eprintln!("u={u} mean_candidates={:.1} mean_survivors={:.1} range_queries={n_range} (mean len {:.1}) list_queries={n_list}",
            tot_c as f64 / u as f64, tot_sv as f64 / u as f64, tot_range as f64 / n_range.max(1) as f64);
    }

    #[test]
    fn priors_are_distributions() {
        let t = hospital();
        let b = Bandwidth::uniform(0.3, 2).unwrap();
        let est = PriorEstimator::new(Arc::clone(t.schema()), b);
        let model = est.estimate(&t);
        assert!(!model.is_empty());
        for (_, p) in model.iter() {
            let sum: f64 = p.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.as_slice().iter().all(|&x| x >= 0.0));
        }
        assert!(model.folded().is_some());
        assert_eq!(model.bandwidth().unwrap().get(0), 0.3);
    }

    #[test]
    fn sparse_engine_matches_dense_reference_bitwise() {
        for (n, b) in [(300usize, 0.25f64), (200, 0.6), (150, 1.5)] {
            let t = adult::generate(n, 11);
            for family in [
                KernelFamily::Epanechnikov,
                KernelFamily::Uniform,
                KernelFamily::Triangular,
            ] {
                let est = PriorEstimator::with_family(
                    Arc::clone(t.schema()),
                    Bandwidth::uniform(b, t.qi_count()).unwrap(),
                    family,
                );
                let dense = est.estimate_reference(&t);
                let sparse = est.estimate_with(&t, Parallelism::threads(2));
                assert_eq!(dense.len(), sparse.len());
                for (qi, p) in dense.iter() {
                    let q = sparse.prior(qi).expect("same key set");
                    for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{family:?} b={b} diverges");
                    }
                }
            }
        }
    }

    #[test]
    fn serial_knob_selects_the_reference_path() {
        let t = adult::generate(150, 5);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.25, t.qi_count()).unwrap(),
        );
        let serial = est.estimate_with(&t, Parallelism::Serial);
        let reference = est.estimate_reference(&t);
        for (qi, p) in reference.iter() {
            assert_eq!(
                p.as_slice(),
                serial.prior(qi).unwrap().as_slice(),
                "Serial must run the reference engine"
            );
        }
    }

    #[test]
    fn refresh_matches_from_scratch_estimate() {
        let t = adult::generate(250, 9);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.25, t.qi_count()).unwrap(),
        );
        let mut model = est.estimate(&t);

        let donors = adult::generate(10, 77);
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(3).delete(17).delete(200);
        for r in 0..10 {
            b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                .unwrap();
        }
        let delta = b.build();
        let deleted = DeletedRows::gather(&t, &delta).unwrap();
        let evolved = model.folded().unwrap().evolve(&deleted, &delta).unwrap();
        let dirty = est.refresh_folded(&mut model, evolved.into_folded(), Parallelism::threads(2));
        assert!(!dirty.is_empty());

        let next = t.apply_delta(&delta).unwrap();
        let fresh = est.estimate(&next);
        assert_eq!(model.len(), fresh.len());
        for (qi, p) in fresh.iter() {
            let q = model.prior(qi).expect("refreshed model covers the key");
            for (a, b) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "refresh drifts at {qi:?}");
            }
        }
        for (a, b) in model
            .table_distribution()
            .as_slice()
            .iter()
            .zip(fresh.table_distribution().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_delta_refresh_is_identity() {
        let t = adult::generate(100, 2);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        );
        let mut model = est.estimate(&t);
        let before = model.clone();
        let empty = DeltaBuilder::new(Arc::clone(t.schema())).build();
        let deleted = DeletedRows::gather(&t, &empty).unwrap();
        let evolved = model.folded().unwrap().evolve(&deleted, &empty).unwrap();
        let dirty = est.refresh_folded(&mut model, evolved.into_folded(), Parallelism::Auto);
        assert!(dirty.is_empty());
        assert_eq!(model.len(), before.len());
        for (qi, p) in before.iter() {
            assert_eq!(p.as_slice(), model.prior(qi).unwrap().as_slice());
        }
    }

    #[test]
    fn evolve_rejects_table_emptying_delta_before_mutation() {
        let t = adult::generate(20, 3);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.3, t.qi_count()).unwrap(),
        );
        let model = est.estimate(&t);
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        for r in 0..t.len() {
            b.delete(r);
        }
        let delta = b.build();
        // Table::apply_delta rejects the same delta with EmptyTable.
        assert!(t.apply_delta(&delta).is_err());
        let deleted = DeletedRows::gather(&t, &delta).unwrap();
        let folded = model.folded().unwrap();
        assert!(folded.evolve(&deleted, &delta).is_none());
        assert_eq!(folded.rows(), t.len());
    }

    #[test]
    fn from_parts_model_is_re_estimated_in_full() {
        let t = hospital();
        let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.3, 2).unwrap());
        let built = est.estimate(&t);
        let entries = built
            .iter()
            .map(|(qi, p)| (qi.to_vec(), p.clone()))
            .collect();
        let mut bare = PriorModel::from_parts(entries, built.table_distribution().clone()).unwrap();
        assert!(bare.folded().is_none());
        let dirty = est.refresh_folded(&mut bare, FoldedTable::new(&t), Parallelism::Auto);
        assert_eq!(dirty.len(), built.len());
        assert!(bare.folded().is_some());
        for (qi, p) in built.iter() {
            assert_eq!(p.as_slice(), bare.prior(qi).unwrap().as_slice());
        }
    }

    #[test]
    fn folded_table_tracks_delta() {
        let t = adult::generate(120, 4);
        let folded = FoldedTable::new(&t);
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(0).delete(5);
        b.insert_codes(&t.qi(1), t.sensitive_value(1)).unwrap();
        let delta = b.build();
        let deleted = DeletedRows::gather(&t, &delta).unwrap();
        let folded = folded.evolve(&deleted, &delta).unwrap().into_folded();
        let next = t.apply_delta(&delta).unwrap();
        let fresh = FoldedTable::new(&next);
        assert_eq!(folded.rows(), next.len());
        assert_eq!(folded.len(), fresh.len());
        for (a, b) in folded.points().zip(fresh.points()) {
            assert_eq!(a.qi(), b.qi());
            assert_eq!(a.count(), b.count());
            assert_eq!(a.sensitive_counts(), b.sensitive_counts());
        }
    }

    #[test]
    fn sparse_weights_match_kernel() {
        let t = adult::generate(50, 1);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.25, t.qi_count()).unwrap(),
        );
        for i in 0..t.qi_count() {
            let sw = &est.weights[i];
            let kernel = KernelFamily::Epanechnikov.kernel(0.25);
            let dist = t.schema().qi_distance(i);
            let mut nnz = 0;
            for a in 0..dist.size() as u32 {
                for b in 0..dist.size() as u32 {
                    let expect = kernel.weight(dist.get(a, b));
                    assert_eq!(sw.weight(a, b).to_bits(), expect.to_bits());
                    if expect > 0.0 {
                        nnz += 1;
                        assert!(sw.support(a).contains(&b));
                    }
                }
            }
            assert_eq!(sw.cols.len(), nnz);
            let density = sw.density();
            assert!((0.0..=1.0).contains(&density));
            // The diagnostic agrees with the Kernel-side computation.
            let mut all = Vec::new();
            for a in 0..dist.size() as u32 {
                all.extend_from_slice(dist.row(a));
            }
            assert!((density - kernel.support_density(&all)).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_kernel_full_bandwidth_gives_table_distribution() {
        // §II.D: uniform kernel with B = the whole (normalized) range makes
        // every tuple weight equal, so the prior is the table distribution.
        let t = hospital();
        let b = Bandwidth::uniform(1.0, 2).unwrap();
        let est = PriorEstimator::with_family(Arc::clone(t.schema()), b, KernelFamily::Uniform);
        let model = est.estimate(&t);
        let q = model.table_distribution();
        for (_, p) in model.iter() {
            assert!(
                p.max_abs_diff(q) < 1e-12,
                "prior {p} should equal table distribution {q}"
            );
        }
    }

    #[test]
    fn tiny_bandwidth_recovers_mle() {
        // B → 0: only exact QI matches carry weight, so the prior equals the
        // empirical distribution among tuples sharing the QI combination.
        let t = hospital();
        let b = Bandwidth::uniform(1e-6, 2).unwrap();
        let est = PriorEstimator::new(Arc::clone(t.schema()), b);
        let model = est.estimate(&t);
        // Row 2 (52, F, Flu) and row 8 (52, M, Gastritis) have unique QI
        // combos → point masses on their own sensitive values.
        let p = model.prior(&t.qi(2)).unwrap();
        assert!((p.get(2) - 1.0).abs() < 1e-9, "expected point mass on Flu");
        let p8 = model.prior(&t.qi(8)).unwrap();
        assert!((p8.get(3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_bandwidth_is_more_informed() {
        // The 69-year-old male (row 0) has Emphysema. A small-bandwidth
        // adversary assigns Emphysema higher prior probability at his QI
        // point than a large-bandwidth adversary.
        let t = hospital();
        let mk = |b: f64| {
            let est =
                PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(b, 2).unwrap());
            est.estimate(&t).prior(&t.qi(0)).unwrap().clone()
        };
        let sharp = mk(0.15);
        let blurry = mk(1.0);
        assert!(
            sharp.get(0) > blurry.get(0),
            "sharp {} vs blurry {}",
            sharp.get(0),
            blurry.get(0)
        );
    }

    #[test]
    fn estimate_at_unseen_point_works() {
        let t = hospital();
        let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.5, 2).unwrap());
        let folded = FoldedTable::new(&t);
        // Age 60 (code 20), M (code 1) is not in the table.
        assert!(folded.find(&[20, 1]).is_none());
        let p = query_one(&est, &folded, &[20, 1]);
        let sum: f64 = p.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_point_outside_support_falls_back() {
        let t = hospital();
        let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(1e-6, 2).unwrap());
        let folded = FoldedTable::new(&t);
        let p = query_one(&est, &folded, &[0, 1]); // age 40, M — nothing within 1e-6
        assert!(p.max_abs_diff(&model_table_dist(&t)) < 1e-12);
    }

    #[test]
    fn zero_neighbor_query_falls_back_to_table_distribution() {
        // A query outside every kernel support has an empty candidate set; the
        // estimate degrades to the whole-table distribution.
        let table = adult::generate(200, 8);
        let estimator = PriorEstimator::new(
            Arc::clone(table.schema()),
            Bandwidth::uniform(1e-9, table.qi_count()).unwrap(),
        );
        let folded = FoldedTable::new(&table);
        // Synthesize a QI combination absent from the table: flip the gender
        // code of an existing row and bump the age by one until unseen.
        let mut q: Vec<u32> = table.qi(0).to_vec();
        loop {
            q[0] = (q[0] + 1) % table.schema().qi_attribute(0).domain_size();
            if folded.find(&q).is_none() {
                break;
            }
        }
        let p = query_one(&estimator, &folded, &q);
        let expected = Dist::new(table.sensitive_distribution()).unwrap();
        assert!(p.max_abs_diff(&expected) < 1e-15);
    }

    fn model_table_dist(t: &Table) -> Dist {
        Dist::new(t.sensitive_distribution()).unwrap()
    }

    #[test]
    fn estimation_is_deterministic_across_runs() {
        let t = bgkanon_data::adult::generate(300, 5);
        let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.3, 6).unwrap());
        let a = est.estimate(&t);
        let b = est.estimate(&t);
        for (qi, p) in a.iter() {
            assert!(p.max_abs_diff(b.prior(qi).unwrap()) < 1e-15);
        }
    }

    #[test]
    fn per_attribute_bandwidths_differ() {
        // Knowing Age precisely but Sex loosely differs from the converse.
        let t = hospital();
        let mk = |b: Vec<f64>| {
            let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::new(b).unwrap());
            est.estimate(&t).prior(&t.qi(0)).unwrap().clone()
        };
        let age_sharp = mk(vec![0.1, 1.0]);
        let sex_sharp = mk(vec![1.0, 0.1]);
        assert!(age_sharp.max_abs_diff(&sex_sharp) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "bandwidth dimension")]
    fn dimension_mismatch_panics() {
        let t = hospital();
        let _ = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.3, 5).unwrap());
    }

    #[test]
    fn kernel_family_constructors() {
        assert_eq!(
            KernelFamily::Epanechnikov.kernel(0.5),
            Kernel::epanechnikov(0.5)
        );
        assert_eq!(KernelFamily::Uniform.kernel(0.5), Kernel::uniform(0.5));
        assert_eq!(
            KernelFamily::Triangular.kernel(0.5),
            Kernel::triangular(0.5)
        );
        for f in [
            KernelFamily::Epanechnikov,
            KernelFamily::Uniform,
            KernelFamily::Triangular,
        ] {
            assert_eq!(f.as_str().parse::<KernelFamily>().unwrap(), f);
        }
        assert!("gaussian".parse::<KernelFamily>().is_err());
    }

    #[test]
    fn prior_model_fallback_for_unknown_combination() {
        let t = hospital();
        let est = PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.3, 2).unwrap());
        let model = est.estimate(&t);
        // Age 70 (code 30) never occurs in the hospital table.
        let unknown = [30u32, 0u32];
        assert!(model.prior(&unknown).is_none());
        assert_eq!(
            model.prior_or_fallback(&unknown).as_slice(),
            model.table_distribution().as_slice()
        );
    }

    #[test]
    fn support_density_shrinks_with_bandwidth() {
        let t = adult::generate(50, 1);
        let density = |b: f64| {
            PriorEstimator::new(
                Arc::clone(t.schema()),
                Bandwidth::uniform(b, t.qi_count()).unwrap(),
            )
            .support_density()[0]
        };
        assert!(density(0.1) < density(0.5));
        assert_eq!(density(2.0), 1.0); // bandwidth past the range: dense
    }
}
