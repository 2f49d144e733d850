//! The persistent [`PartitionTree`]: Mondrian's recursion, retained.
//!
//! A one-shot Mondrian run makes a sequence of split decisions and then
//! forgets them, keeping only the leaf groups. The tree keeps the whole
//! recursion — every committed split decision, each
//! node's row membership (stored at the leaves, in the exact order the
//! reference plant would emit) and per-leaf QI ranges and sensitive
//! histograms — so a later batch of inserts and deletes can be routed
//! *through* it instead of triggering a from-scratch re-partition.
//!
//! # Incremental refresh, and why it is bit-identical
//!
//! [`Mondrian::refresh`] walks the tree top-down along the paths the delta
//! rows touch. At every dirty node it **replays the split rule** — the
//! plant's own — on the node's updated membership and compares the outcome
//! with the retained record:
//!
//! * replay reproduces the record exactly (same attempt sequence, same
//!   winning dimension, same median threshold) → the subtree is kept, the
//!   delta rows are routed to the children by the threshold, and only the
//!   children that actually receive changes are visited;
//! * anything differs — including a leaf that can now be split, or a split
//!   whose halves no longer satisfy the requirement (the collapse/merge
//!   case) — → the subtree is **rebuilt from scratch** from its rows, in
//!   the from-scratch input order.
//!
//! A kept subtree is one the from-scratch run would have produced
//! verbatim; a rebuilt subtree is from-scratch by construction. Hence the
//! refreshed tree is always bit-identical to `Mondrian::plant` on the final
//! table — the property `tests/tests/incremental.rs` enforces.
//!
//! Replays are cheap for two reasons. Rows are identified by **stable row
//! ids** (the id order always equals the current row order, because deletes
//! preserve relative order and inserts append), so clean subtrees need no
//! re-indexing after a delete. And for requirements decidable from `(size,
//! sensitive histogram)` alone — k-anonymity, ℓ-diversity, t-closeness —
//! large nodes carry a lazily built per-dimension value × sensitive
//! histogram from which the whole decision procedure (widths, medians,
//! requirement checks on both halves) is replayed in `O(domain · m)` time,
//! without touching the node's `O(n)` rows at all.

use std::ops::Range;

use bgkanon_data::Table;

use crate::anonymized::{AnonymizedTable, PartitionBuilder, QiRange};
use crate::mondrian::{Cut, HistogramSource, Mondrian, RowSource, SplitDecision, SplitScratch};

/// Sentinel for "no node" / "no parent".
const NONE: u32 = u32::MAX;
/// Sentinel in `row_of` for a deleted id.
const DEAD_ROW: u32 = u32::MAX;
/// Nodes with at least this many rows get the histogram replay fast path
/// (when the requirement is counts-decidable); smaller nodes replay on
/// their materialized rows, which is cheap at this size.
const STATS_THRESHOLD: usize = 192;

/// A node record emitted by the planting engines, addressed by tree slot.
pub(crate) enum NodeRec {
    Internal {
        decision: SplitDecision,
        left: usize,
        right: usize,
        size: usize,
    },
    Leaf {
        rows: Vec<usize>,
        lo: Vec<u32>,
        hi: Vec<u32>,
        counts: Vec<u32>,
    },
}

impl NodeRec {
    pub(crate) fn internal(
        decision: SplitDecision,
        left: usize,
        right: usize,
        size: usize,
    ) -> Self {
        NodeRec::Internal {
            decision,
            left,
            right,
            size,
        }
    }

    pub(crate) fn leaf_from_parts(
        rows: Vec<usize>,
        lo: Vec<u32>,
        hi: Vec<u32>,
        counts: Vec<u32>,
    ) -> Self {
        NodeRec::Leaf {
            rows,
            lo,
            hi,
            counts,
        }
    }

    /// Leaf record with ranges and histogram computed by scanning `rows`.
    pub(crate) fn leaf_from_rows(table: &Table, rows: Vec<usize>) -> Self {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        ranges_into(table, rows.iter().copied(), &mut lo, &mut hi);
        let counts = table.sensitive_counts_in(&rows);
        NodeRec::Leaf {
            rows,
            lo,
            hi,
            counts,
        }
    }
}

/// Per-dimension min/max codes over the (non-empty) `rows`, into `lo` and
/// `hi` (cleared first): one pass down each QI column, no per-row buffer.
fn ranges_into(
    table: &Table,
    rows: impl Iterator<Item = usize> + Clone,
    lo: &mut Vec<u32>,
    hi: &mut Vec<u32>,
) {
    lo.clear();
    hi.clear();
    for dim in 0..table.qi_count() {
        let col = table.qi_col(dim);
        let (min, max) = rows.clone().fold((u32::MAX, 0), |(lo, hi), r| {
            let v = col.get(r);
            (lo.min(v), hi.max(v))
        });
        lo.push(min);
        hi.push(max);
    }
}

/// Per-node value × sensitive histogram over the concatenated QI domains:
/// entry `(dim_off[dim] + value) * m + s` counts the node's rows with
/// `value` on `dim` and sensitive code `s`. Everything the decision
/// procedure needs — per-dimension ranges, widths, medians, candidate-half
/// sizes and sensitive histograms — is derived from it without touching the
/// node's rows.
struct NodeStats {
    joint: Vec<u32>,
}

/// A leaf: its member row ids in the reference plant's emission order,
/// the published QI ranges, the sensitive histogram, and a stamp that
/// changes whenever the membership does (the audit cache key).
#[derive(Default)]
struct LeafNode {
    rows: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    counts: Vec<u32>,
    stamp: u64,
}

/// An internal node: the retained split decision plus child links.
struct InternalNode {
    decision: SplitDecision,
    left: u32,
    right: u32,
    stats: Option<Box<NodeStats>>,
}

enum NodeKind {
    Leaf(LeafNode),
    Internal(InternalNode),
}

struct Node {
    parent: u32,
    size: usize,
    kind: NodeKind,
}

/// The retained state of one Mondrian partition: the full split tree over
/// stable row ids. Built by [`Mondrian::plant_with`], advanced in place by
/// [`Mondrian::refresh`], and projected to the published
/// [`AnonymizedTable`] by [`to_anonymized`](PartitionTree::to_anonymized).
///
/// Row ids and row indices are both `u32` (the id space is capped at
/// `u32::MAX`). Ids are never reused within a run of refreshes; when dead
/// ids come to outnumber live rows, a refresh renumbers the ids to the
/// current row indices in one pass, so the id maps stay within twice the
/// table plus one delta. The tree keeps running counts of its leaves and
/// histogram-carrying nodes, so
/// [`bytes_accounted`](PartitionTree::bytes_accounted) is O(1).
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_anon::Mondrian;
/// use bgkanon_privacy::KAnonymity;
///
/// let table = bgkanon_data::adult::generate(300, 42);
/// let mondrian = Mondrian::new(Arc::new(KAnonymity::new(5)));
/// let tree = mondrian.plant(&table);
/// // The published table is a view of the tree's leaves: one group, with
/// // its leaf stamp, per leaf.
/// let (published, stamps) = tree.snapshot(&table);
/// assert_eq!(stamps.len(), published.group_count());
/// assert_eq!(tree.len(), table.len());
/// ```
pub struct PartitionTree {
    d: usize,
    m: usize,
    root: u32,
    nodes: Vec<Node>,
    /// Recycled node slots (their payloads dropped).
    free: Vec<u32>,
    /// id → current row index ([`DEAD_ROW`] once deleted).
    row_of: Vec<u32>,
    /// current row index → id.
    id_of: Vec<u32>,
    /// Source of fresh leaf stamps.
    stamp_counter: u64,
    /// Offset of each QI dimension into the concatenated value domain.
    dim_off: Vec<usize>,
    /// Sum of all QI domain sizes.
    total_domain: usize,
    /// Number of live leaves.
    leaves: usize,
    /// Number of live internal nodes holding a replay histogram.
    stats_nodes: usize,
    /// The leaves the last refresh retired and stamped, from which
    /// [`carried_snapshot`](Self::carried_snapshot) derives the refreshed
    /// publication from the previous one.
    log: RefreshLog,
}

/// What one refresh did to the leaves: the stamps it retired (leaves it
/// restamped or dropped) and the slots of the leaves it stamped. Every
/// other leaf is exactly as the previous publication showed it. Cleared
/// when the next refresh starts.
#[derive(Default)]
struct RefreshLog {
    /// Row count of the table the refresh started from.
    rows_before: usize,
    /// Stamps of the leaves the refresh restamped or dropped, sorted once
    /// the refresh ends.
    retired: Vec<u64>,
    /// Slots of the leaves the refresh stamped.
    stamped: Vec<u32>,
    /// Threshold migrations and subtree rebuilds over the tree's life, so
    /// tests can tell that a delta sequence exercised both.
    #[cfg(test)]
    migrations: usize,
    #[cfg(test)]
    rebuilds: usize,
}

impl RefreshLog {
    fn start(&mut self, rows_before: usize) {
        self.rows_before = rows_before;
        self.retired.clear();
        self.stamped.clear();
    }
}

/// Where each row of a table lands once sorted deletes are removed from
/// it: one delete bitmask word and one count of the deletes before it per
/// 64 rows, so a survivor's new index is a rank and a deleted row is one
/// bit test.
struct Survivors {
    dead: Vec<u64>,
    below: Vec<u32>,
}

impl Survivors {
    /// `None` when `deletes` is not ascending and within `rows`.
    fn new(rows: usize, deletes: &[usize]) -> Option<Self> {
        let mut dead = vec![0u64; rows.div_ceil(64)];
        let mut last = None;
        for &row in deletes {
            if row >= rows || last.is_some_and(|l| l >= row) {
                return None;
            }
            dead[row / 64] |= 1 << (row % 64);
            last = Some(row);
        }
        let mut below = Vec::with_capacity(dead.len());
        let mut count = 0u32;
        for word in &dead {
            below.push(count);
            count += word.count_ones();
        }
        Some(Survivors { dead, below })
    }

    /// `row` less the deletes before it — its new index when it survives —
    /// and 1 when `row` itself is deleted, else 0.
    #[inline]
    fn rank(&self, row: usize) -> (usize, u64) {
        let (word, bit) = (row / 64, row % 64);
        let dead = self.dead[word];
        let earlier = (dead & ((1u64 << bit) - 1)).count_ones();
        (
            row - (self.below[word] + earlier) as usize,
            (dead >> bit) & 1,
        )
    }
}

impl PartitionTree {
    /// Assemble a freshly planted tree from engine records. Row ids start
    /// out as the row indices of `table`.
    pub(crate) fn from_records(
        table: &Table,
        slots: usize,
        records: Vec<(usize, NodeRec)>,
    ) -> Self {
        let d = table.qi_count();
        let mut dim_off = Vec::with_capacity(d);
        let mut total_domain = 0usize;
        for i in 0..d {
            dim_off.push(total_domain);
            total_domain += table.schema().qi_attribute(i).domain_size() as usize;
        }
        let n = table.len() as u32;
        let mut tree = PartitionTree {
            d,
            m: table.schema().sensitive_domain_size(),
            root: 0,
            nodes: Vec::with_capacity(slots),
            free: Vec::new(),
            row_of: (0..n).collect(),
            id_of: (0..n).collect(),
            stamp_counter: 0,
            dim_off,
            total_domain,
            leaves: 0,
            stats_nodes: 0,
            log: RefreshLog::default(),
        };
        let root = tree.alloc_node();
        tree.graft(root, slots, records);
        tree.log.start(table.len());
        tree
    }

    /// Install engine records (record slot 0 at node `root`, leaf rows as
    /// current row indices) as the subtree rooted at `root`. Every other
    /// record slot gets a recycled or fresh node first, so the records may
    /// come in any order; leaves take fresh stamps in record order, and
    /// their slots go on the refresh log.
    fn graft(&mut self, root: u32, slots: usize, records: Vec<(usize, NodeRec)>) {
        let mut node_of = vec![root; slots];
        for slot in &mut node_of[1..] {
            *slot = self.alloc_node();
        }
        for (slot, rec) in records {
            let at = node_of[slot];
            let (size, kind) = match rec {
                NodeRec::Internal {
                    decision,
                    left,
                    right,
                    size,
                } => {
                    let (left, right) = (node_of[left], node_of[right]);
                    self.nodes[left as usize].parent = at;
                    self.nodes[right as usize].parent = at;
                    let internal = InternalNode {
                        decision,
                        left,
                        right,
                        stats: None,
                    };
                    (size, NodeKind::Internal(internal))
                }
                NodeRec::Leaf {
                    rows,
                    lo,
                    hi,
                    counts,
                } => {
                    self.leaves += 1;
                    self.log.stamped.push(at);
                    let leaf = LeafNode {
                        rows: rows.iter().map(|&r| self.id_of[r]).collect(),
                        lo,
                        hi,
                        counts,
                        stamp: self.next_stamp(),
                    };
                    (rows.len(), NodeKind::Leaf(leaf))
                }
            };
            let node = &mut self.nodes[at as usize];
            node.size = size;
            node.kind = kind;
        }
    }

    /// Number of rows currently covered by the tree.
    pub fn len(&self) -> usize {
        self.nodes[self.root as usize].size
    }

    /// True when the tree covers no rows (never after planting).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the retained tree: per-node payloads (leaf row lists,
    /// range bounds, histograms; internal split stats) plus the id↔row
    /// maps. A deterministic accounting proxy for the serving hub's
    /// per-tenant memory gauges, not an allocator-exact figure. O(1): the
    /// leaves' row lists sum to [`len`](Self::len), every leaf carries `d`
    /// bounds each way and `m` counts, and every replay histogram spans the
    /// concatenated QI domains × `m`.
    pub fn bytes_accounted(&self) -> usize {
        let leaf = (2 * self.d + self.m) * 4;
        let stats = self.total_domain * self.m * 4 + 32;
        let bytes = self.nodes.len() * 96
            + self.len() * 4
            + self.leaves * leaf
            + self.stats_nodes * stats
            + self.free.len() * 4
            + (self.row_of.len() + self.id_of.len()) * 4
            + 128;
        debug_assert_eq!(bytes, self.bytes_walked(), "running tree gauge drifted");
        bytes
    }

    /// [`bytes_accounted`](Self::bytes_accounted) by walking every live
    /// node: the reference the running counts are checked against.
    fn bytes_walked(&self) -> usize {
        let mut payload = 0usize;
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            payload += match &self.nodes[node as usize].kind {
                NodeKind::Leaf(l) => (l.rows.len() + l.lo.len() + l.hi.len() + l.counts.len()) * 4,
                NodeKind::Internal(i) => {
                    stack.push(i.left);
                    stack.push(i.right);
                    i.stats.as_ref().map_or(0, |s| s.joint.len() * 4 + 32)
                }
            };
        }
        self.nodes.len() * 96
            + payload
            + self.free.len() * 4
            + (self.row_of.len() + self.id_of.len()) * 4
            + 128
    }

    /// Project the tree to the published [`AnonymizedTable`] — the same
    /// output (bit for bit) the one-shot [`Mondrian::anonymize`] returns.
    /// `table` must be the table the tree currently describes.
    pub fn to_anonymized(&self, table: &Table) -> AnonymizedTable {
        self.snapshot(table).0
    }

    /// Like [`to_anonymized`](PartitionTree::to_anonymized), additionally
    /// returning each group's **leaf stamp**, aligned with the group order.
    /// A stamp changes exactly when the leaf's membership does, so it can
    /// key caches of per-group derived values (the audit engine's
    /// [`SharedAuditSession`](bgkanon_privacy::SharedAuditSession) uses it).
    pub fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        let mut leaves: Vec<&LeafNode> = Vec::with_capacity(self.leaves);
        self.visit_leaves(&mut Vec::new(), self.root, &mut |leaf| leaves.push(leaf));
        // Deterministic group order: by first row index. The leaves
        // partition the rows, so first rows are unique and sorting one
        // packed `(first row, leaf slot)` key per leaf orders them.
        let mut order: Vec<u64> = leaves
            .iter()
            .enumerate()
            .map(|(slot, leaf)| (u64::from(self.row_of[leaf.rows[0] as usize]) << 32) | slot as u64)
            .collect();
        order.sort_unstable();
        let mut builder = PartitionBuilder::new(table, leaves.len());
        let mut stamps = Vec::with_capacity(leaves.len());
        for key in order {
            let leaf = leaves[(key & u64::from(u32::MAX)) as usize];
            self.push_leaf(&mut builder, leaf);
            stamps.push(leaf.stamp);
        }
        // The tree's own invariants guarantee the leaves partition the
        // table; `finish` re-checks that in debug builds only.
        (builder.finish(), stamps)
    }

    /// Append `leaf` to `builder` as a published group.
    fn push_leaf(&self, builder: &mut PartitionBuilder, leaf: &LeafNode) {
        builder.push(
            leaf.rows
                .iter()
                .map(|&id| self.row_of[id as usize] as usize),
            leaf.lo
                .iter()
                .zip(&leaf.hi)
                .map(|(&min, &max)| QiRange { min, max }),
            &leaf.counts,
        );
    }

    /// [`snapshot`](Self::snapshot) after a refresh, derived from the
    /// publication before it: `previous` and `previous_stamps` are the
    /// snapshot of the tree as the refresh found it, and `deletes` the
    /// delta's deletes (indices into the pre-delta table). The previous
    /// groups are walked in order; a group whose stamp the refresh retired
    /// is skipped, and every other group is copied — its rows renumbered
    /// through the deletes, its ranges and histogram as they were — with
    /// the leaves the refresh stamped merged in by first row. A kept leaf
    /// has the same rows, ranges, histogram and stamp as before, and the
    /// renumbering is monotone, so kept groups keep their relative order:
    /// the result is bit-identical to [`snapshot`](Self::snapshot) by
    /// construction (debug builds compare the two).
    ///
    /// Falls back to [`snapshot`](Self::snapshot) when the inputs do not
    /// fit the last refresh: `previous` does not cover the pre-delta
    /// table, a kept group holds a deleted row, or the kept and the newly
    /// stamped leaves are not all of the tree's leaves.
    pub(crate) fn carried_snapshot(
        &self,
        table: &Table,
        previous: &AnonymizedTable,
        previous_stamps: &[u64],
        deletes: &[usize],
    ) -> (AnonymizedTable, Vec<u64>) {
        let Some((published, stamps)) = self.carry(table, previous, previous_stamps, deletes)
        else {
            return self.snapshot(table);
        };
        #[cfg(debug_assertions)]
        {
            let (reference, reference_stamps) = self.snapshot(table);
            assert_eq!(
                published.first_difference(&reference),
                None,
                "carried snapshot drifted from the tree"
            );
            assert_eq!(stamps, reference_stamps, "carried stamps drifted");
        }
        (published, stamps)
    }

    /// The body of [`carried_snapshot`](Self::carried_snapshot); `None`
    /// for its fallback.
    fn carry(
        &self,
        table: &Table,
        previous: &AnonymizedTable,
        previous_stamps: &[u64],
        deletes: &[usize],
    ) -> Option<(AnonymizedTable, Vec<u64>)> {
        let log = &self.log;
        if previous.len() != log.rows_before || previous_stamps.len() != previous.group_count() {
            return None;
        }
        let survivors = Survivors::new(log.rows_before, deletes)?;
        // The stamped leaves, by first row.
        let mut fresh: Vec<(u32, &LeafNode)> = Vec::with_capacity(log.stamped.len());
        for &slot in &log.stamped {
            let NodeKind::Leaf(leaf) = &self.nodes[slot as usize].kind else {
                return None;
            };
            let &first = leaf.rows.first()?;
            fresh.push((self.row_of[first as usize], leaf));
        }
        fresh.sort_unstable_by_key(|&(first, _)| first);
        let mut fresh = fresh.into_iter().peekable();
        let mut builder = PartitionBuilder::new(table, self.leaves);
        let mut stamps = Vec::with_capacity(self.leaves);
        // The first row of kept group `g` in the new table (kept groups
        // are never empty).
        let kept_first = |g: usize| {
            let rows = previous.group(g).rows;
            rows.first().map(|&row| survivors.rank(row).0)
        };
        let kept = |g: usize| log.retired.binary_search(&previous_stamps[g]).is_err();
        let mut torn = 0u64;
        let mut g = 0;
        while g < previous_stamps.len() {
            if !kept(g) {
                g += 1;
                continue;
            }
            let first = kept_first(g)?;
            while let Some((_, leaf)) = fresh.next_if(|&(row, _)| (row as usize) < first) {
                self.push_leaf(&mut builder, leaf);
                stamps.push(leaf.stamp);
            }
            // Copy the run of kept groups up to the next retired group or
            // the next stamped leaf, whichever comes first.
            let before = fresh.peek().map_or(usize::MAX, |&(row, _)| row as usize);
            let start = g;
            g += 1;
            while g < previous_stamps.len() && kept(g) && kept_first(g)? < before {
                g += 1;
            }
            builder.push_run(previous, start..g, |row| {
                let (index, dead) = survivors.rank(row);
                torn |= dead;
                index
            });
            stamps.extend_from_slice(&previous_stamps[start..g]);
        }
        for (_, leaf) in fresh {
            self.push_leaf(&mut builder, leaf);
            stamps.push(leaf.stamp);
        }
        if torn != 0 || stamps.len() != self.leaves {
            return None;
        }
        Some((builder.finish(), stamps))
    }

    /// Visit the leaves under `from` in emission order (left before
    /// right), walking on the caller-owned node `stack`.
    fn visit_leaves<'a>(
        &'a self,
        stack: &mut Vec<u32>,
        from: u32,
        f: &mut impl FnMut(&'a LeafNode),
    ) {
        stack.clear();
        stack.push(from);
        while let Some(node) = stack.pop() {
            match &self.nodes[node as usize].kind {
                NodeKind::Leaf(leaf) => f(leaf),
                NodeKind::Internal(i) => {
                    stack.push(i.right);
                    stack.push(i.left);
                }
            }
        }
    }

    fn next_stamp(&mut self) -> u64 {
        let s = self.stamp_counter;
        self.stamp_counter += 1;
        s
    }

    fn alloc_node(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.nodes.push(Node {
                parent: NONE,
                size: 0,
                kind: NodeKind::Leaf(LeafNode::default()),
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Release the subtree at `node` for a rebuild: recycle every node
    /// strictly below it (dropping their payloads), take the whole
    /// subtree's leaves and histograms off the running counts and retire
    /// its leaves' stamps. `node` itself stays allocated, to be
    /// overwritten.
    fn release_subtree(&mut self, node: u32) {
        let mut stack = vec![node];
        while let Some(slot) = stack.pop() {
            match &self.nodes[slot as usize].kind {
                NodeKind::Leaf(leaf) => {
                    self.leaves -= 1;
                    self.log.retired.push(leaf.stamp);
                }
                NodeKind::Internal(i) => {
                    stack.push(i.left);
                    stack.push(i.right);
                    self.stats_nodes -= usize::from(i.stats.is_some());
                }
            }
            if slot != node {
                self.nodes[slot as usize].kind = NodeKind::Leaf(LeafNode::default());
                self.free.push(slot);
            }
        }
    }

    /// Renumber the ids to the current row indices once dead ids outnumber
    /// live rows, bounding the id maps by twice the table. Id order is row
    /// order before and after, so every comparison a refresh makes — and
    /// so every output and stamp — is unchanged; a checkpoint round trip
    /// ([`from_exported`](Self::from_exported)) renumbers the same way.
    fn compact_ids(&mut self) {
        let live = self.id_of.len();
        if self.row_of.len() - live <= live {
            return;
        }
        let row_of = &self.row_of;
        for node in &mut self.nodes {
            if let NodeKind::Leaf(leaf) = &mut node.kind {
                for id in &mut leaf.rows {
                    *id = row_of[*id as usize];
                }
            }
        }
        self.row_of.clear();
        self.row_of.extend(0..live as u32);
        self.id_of.clear();
        self.id_of.extend(0..live as u32);
    }

    /// The dimension sequence that orders a node's *input* rows, highest
    /// priority first: walking from the parent up to the root, each
    /// ancestor's attempted dimensions in reverse. (Stable sorts compose so
    /// the most recent sort dominates; the final tiebreak is the row id.)
    /// Duplicate dimensions keep only their first (highest-priority)
    /// occurrence — repeats can no longer change the order. Written into
    /// `chain`.
    fn input_chain(&self, node: u32, chain: &mut Vec<usize>) {
        chain.clear();
        let mut current = self.nodes[node as usize].parent;
        while current != NONE {
            let parent = &self.nodes[current as usize];
            if let NodeKind::Internal(i) = &parent.kind {
                for &dim in i.decision.attempts.iter().rev() {
                    if !chain.contains(&dim) {
                        chain.push(dim);
                    }
                }
            }
            current = parent.parent;
        }
    }

    /// Sort `ids` into the node's from-scratch input order: by the chain
    /// dimensions in priority order, then by id (id order ≡ row order).
    fn sort_into_input_order(&self, table: &Table, chain: &[usize], ids: &mut [u32]) {
        ids.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (
                self.row_of[a as usize] as usize,
                self.row_of[b as usize] as usize,
            );
            for &dim in chain {
                let ord = table.qi_value(ra, dim).cmp(&table.qi_value(rb, dim));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
    }
}

/// One node of an exported [`PartitionTree`], addressed by compact slot
/// number. [`PartitionTree::export_records`] emits nodes in preorder
/// (root first, left subtree before right), so the root is always slot 0
/// and child slots always follow their parent. Leaf membership is exported
/// as **current row indices** of the table the tree describes — the stable
/// internal row ids are an in-memory detail that a rebuilt tree re-derives.
///
/// This is the serialization boundary the durability layer
/// (`bgkanon-core`'s checkpoint files) stands on: a tree round-tripped
/// through `export_records` → [`PartitionTree::from_exported`] projects to
/// the bit-identical [`AnonymizedTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeNodeRecord {
    /// An internal node: the retained split decision plus child slots.
    Internal {
        /// The retained split decision the incremental refresh replays.
        decision: SplitDecision,
        /// Slot of the left child.
        left: usize,
        /// Slot of the right child.
        right: usize,
        /// Number of rows under this node.
        size: usize,
    },
    /// A leaf: its member rows, in the engine's emission order.
    Leaf {
        /// Member rows as current row indices of the described table.
        rows: Vec<usize>,
    },
}

impl PartitionTree {
    /// Export the live tree as a compact record list (see
    /// [`TreeNodeRecord`] for the layout contract). Recycled slots are not
    /// emitted; slot numbers in the output are preorder positions, not the
    /// tree's internal indices.
    pub fn export_records(&self) -> Vec<TreeNodeRecord> {
        // First pass: assign compact preorder slots to live nodes.
        let mut order: Vec<u32> = Vec::with_capacity(self.nodes.len() - self.free.len());
        let mut slot_of = vec![usize::MAX; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            slot_of[node as usize] = order.len();
            order.push(node);
            if let NodeKind::Internal(i) = &self.nodes[node as usize].kind {
                stack.push(i.right);
                stack.push(i.left);
            }
        }
        // Second pass: emit records with child links rewritten to slots.
        order
            .iter()
            .map(|&node| {
                let n = &self.nodes[node as usize];
                match &n.kind {
                    NodeKind::Internal(i) => TreeNodeRecord::Internal {
                        decision: i.decision.clone(),
                        left: slot_of[i.left as usize],
                        right: slot_of[i.right as usize],
                        size: n.size,
                    },
                    NodeKind::Leaf(leaf) => TreeNodeRecord::Leaf {
                        rows: leaf
                            .rows
                            .iter()
                            .map(|&id| self.row_of[id as usize] as usize)
                            .collect(),
                    },
                }
            })
            .collect()
    }

    /// Rebuild a tree from exported records against the table it described
    /// at export time. Leaf ranges and sensitive histograms are recomputed
    /// from `table`, and per-node replay histograms rebuild lazily — the
    /// result projects to the bit-identical snapshot and refreshes exactly
    /// like the original (leaf stamps restart from zero, which only resets
    /// caches keyed on them).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range slots or rows. In-range records that do not
    /// describe a well-formed partition of `table` (empty leaves,
    /// unreferenced or twice-referenced slots) build a tree that is not
    /// one, so callers deserializing untrusted bytes must validate first —
    /// `bgkanon-core`'s recovery path does.
    pub fn from_exported(table: &Table, records: Vec<TreeNodeRecord>) -> Self {
        let slots = records.len();
        let records: Vec<(usize, NodeRec)> = records
            .into_iter()
            .enumerate()
            .map(|(slot, rec)| {
                let rec = match rec {
                    TreeNodeRecord::Internal {
                        decision,
                        left,
                        right,
                        size,
                    } => NodeRec::internal(decision, left, right, size),
                    TreeNodeRecord::Leaf { rows } => NodeRec::leaf_from_rows(table, rows),
                };
                (slot, rec)
            })
            .collect();
        PartitionTree::from_records(table, slots, records)
    }
}

/// The QI codes and sensitive codes of the rows a delta removed, captured
/// from the pre-delta table so the refresh can route the removals down the
/// retained tree after the table itself has moved on. Deletes arrive sorted
/// and id order is row order, so `ids` is ascending and a deleted id's
/// capture is found by binary search.
#[derive(Default)]
struct Removed {
    d: usize,
    ids: Vec<u32>,
    qi: Vec<u32>,
    sensitive: Vec<u32>,
}

impl Removed {
    fn capture(tree: &PartitionTree, old_table: &Table, deletes: &[usize]) -> Self {
        let d = old_table.qi_count();
        let mut removed = Removed {
            d,
            ids: Vec::with_capacity(deletes.len()),
            qi: Vec::with_capacity(deletes.len() * d),
            sensitive: Vec::with_capacity(deletes.len()),
        };
        for &row in deletes {
            removed.ids.push(tree.id_of[row]);
            for a in 0..d {
                removed.qi.push(old_table.qi_value(row, a));
            }
            removed.sensitive.push(old_table.sensitive_value(row));
        }
        debug_assert!(removed.ids.windows(2).all(|w| w[0] < w[1]));
        removed
    }

    /// Position of the deleted `id` in the capture.
    fn index_of(&self, id: u32) -> usize {
        match self.ids.binary_search(&id) {
            Ok(idx) => idx,
            Err(_) => unreachable!("every dead id was removed by this delta"),
        }
    }

    fn qi(&self, idx: usize) -> &[u32] {
        &self.qi[idx * self.d..(idx + 1) * self.d]
    }
}

impl RefreshCtx<'_> {
    /// Add `id`'s row to (`add`) or take it from the node histogram
    /// `joint`: live rows read from the post-delta table, deleted rows from
    /// the captured values. (An id in a `dels` list can be *alive* — a row
    /// migrating to a sibling subtree after a threshold drift — so both
    /// cases are routine here.)
    fn tally(
        &self,
        joint: &mut [u32],
        row_of: &[u32],
        dim_off: &[usize],
        m: usize,
        id: u32,
        add: bool,
    ) {
        let row = row_of[id as usize];
        let dead = (row == DEAD_ROW).then(|| self.removed.index_of(id));
        let s = match dead {
            Some(di) => self.removed.sensitive[di],
            None => self.table.sensitive_value(row as usize),
        } as usize;
        for (dim, &off) in dim_off.iter().enumerate() {
            let v = match dead {
                Some(di) => self.removed.qi(di)[dim],
                None => self.table.qi_value(row as usize, dim),
            };
            let cell = &mut joint[(off + v as usize) * m + s];
            if add {
                *cell += 1;
            } else {
                *cell -= 1;
            }
        }
    }

    /// Code of `id` on `dim` (for threshold routing).
    fn value_on(&self, row_of: &[u32], id: u32, dim: usize) -> u32 {
        let row = row_of[id as usize];
        if row == DEAD_ROW {
            self.removed.qi(self.removed.index_of(id))[dim]
        } else {
            self.table.qi_value(row as usize, dim)
        }
    }
}

struct RefreshCtx<'a> {
    mondrian: &'a Mondrian,
    /// The post-delta table.
    table: &'a Table,
    removed: &'a Removed,
    /// Whether the requirement can be decided from (size, histogram) alone.
    counts_ok: bool,
}

/// The buffers one refresh reuses at every node it visits, so a refresh
/// allocates per call (and per rebuilt node), not per visited node or per
/// row.
#[derive(Default)]
struct RefreshScratch {
    /// The routed id lists of the open recursion frames. A frame's `ins`
    /// and `dels` are ranges into it; the frame pushes its children's lists
    /// (and any threshold migrants) above them and truncates back when the
    /// children are done.
    ids: Vec<u32>,
    /// The current node's gathered membership (replay and rebuild input).
    members: Vec<u32>,
    /// The current node's outgoing live ids (rows migrating out), sorted.
    live_dels: Vec<u32>,
    /// Node stack of leaf walks.
    stack: Vec<u32>,
    /// The current node's input-order sort chain.
    chain: Vec<usize>,
    /// The split rule and its buffers: every replay leaves its attempt
    /// sequence here, and rebuilds split in it.
    split: SplitScratch,
}

impl Mondrian {
    /// Route a delta through a retained partition tree, re-splitting only
    /// the subtrees the delta actually dirties.
    ///
    /// * `tree` must have been planted (or last refreshed) against
    ///   `old_table`;
    /// * `new_table` must be `old_table` with the (sorted, deduplicated,
    ///   in-bounds) `deletes` removed and any new rows appended — exactly
    ///   what [`Table::apply_delta`](bgkanon_data::Table::apply_delta)
    ///   produces;
    /// * the whole `new_table` must satisfy this requirement (callers check
    ///   this up front, as [`plant_with`](Mondrian::plant_with) would).
    ///
    /// Afterwards the tree is bit-identical to `self.plant(new_table)`:
    /// same structure, same leaf row order, same ranges and histograms.
    /// Leaves untouched by the delta keep their stamps; every leaf whose
    /// membership changed gets a fresh one. The tree logs the stamps it
    /// retires and the leaves it stamps, from which
    /// [`StrategyState::carried_snapshot`](crate::StrategyState::carried_snapshot)
    /// derives the new publication from the previous one.
    ///
    /// The walk serves every visited node from one set of buffers owned by
    /// the call: routed id lists are ranges of one stack-disciplined id
    /// buffer, replays leave their attempt sequence in scratch so the
    /// retained [`SplitDecision`] is compared (and a drifted threshold
    /// written into it) in place, and a leaf that stays a leaf is
    /// recomputed in its own buffers. What allocates is new state: rebuilt
    /// subtrees, first-touch histograms and growth of the id maps (which a
    /// refresh renumbers in one pass once dead ids outnumber live rows).
    pub fn refresh(
        &self,
        tree: &mut PartitionTree,
        old_table: &Table,
        new_table: &Table,
        deletes: &[usize],
    ) {
        assert_eq!(
            tree.len(),
            old_table.len(),
            "tree does not describe the pre-delta table"
        );
        let survivors = old_table.len() - deletes.len();
        let inserts = new_table.len() - survivors;
        assert!(!new_table.is_empty(), "cannot refresh onto an empty table");
        tree.log.start(old_table.len());
        // Ids are never reused between compactions (reuse would break the
        // id-order ≡ row-order invariant), so the id space grows by the
        // insert count on every refresh until dead ids outnumber live rows
        // and `compact_ids` renumbers. Only a table of about 2^31 rows can
        // still exhaust it: guard rather than silently wrap.
        tree.compact_ids();
        assert!(
            tree.row_of.len() + inserts <= u32::MAX as usize,
            "row-id space exhausted ({} historical ids); re-plant the tree",
            tree.row_of.len()
        );

        // Capture the removed rows' values, then advance the id maps in
        // place: from the first deleted row on, survivors' ids shift down to
        // their new row indices a block between deletes at a time (id order
        // of survivors equals their new row order), and fresh ids — larger
        // than every existing id — are appended for the inserts.
        let removed = Removed::capture(tree, old_table, deletes);
        for &id in &removed.ids {
            tree.row_of[id as usize] = DEAD_ROW;
        }
        let first_moved = deletes.first().copied().unwrap_or(old_table.len());
        let mut kept = first_moved;
        let mut start = first_moved;
        for &end in deletes.iter().chain(std::iter::once(&old_table.len())) {
            tree.id_of.copy_within(start..end, kept);
            kept += end - start;
            start = end + 1;
        }
        tree.id_of.truncate(kept);
        let first_fresh = tree.row_of.len() as u32;
        let fresh = first_fresh..first_fresh + inserts as u32;
        tree.id_of.extend(fresh.clone());
        tree.row_of.resize(tree.row_of.len() + inserts, DEAD_ROW);
        for (row, &id) in tree.id_of.iter().enumerate().skip(first_moved) {
            tree.row_of[id as usize] = row as u32;
        }

        let ctx = RefreshCtx {
            mondrian: self,
            table: new_table,
            removed: &removed,
            counts_ok: self.requirement().counts_decidable(),
        };
        let mut scratch = RefreshScratch::default();
        scratch.ids.extend(fresh);
        scratch.ids.extend_from_slice(&removed.ids);
        let dels = inserts..scratch.ids.len();
        let root = tree.root;
        process(&ctx, tree, &mut scratch, root, 0..inserts, dels);
        tree.log.retired.sort_unstable();
    }

    /// Pre-build the per-node histograms the delta refresh replays
    /// decisions from (they are otherwise built lazily on the first
    /// refresh that touches a node). Sessions call this once at open so
    /// the first delta is as fast as the steady state; a no-op when the
    /// requirement is not counts-decidable.
    pub fn warm_stats(&self, tree: &mut PartitionTree, table: &Table) {
        if !self.requirement().counts_decidable() {
            return;
        }
        let ctx = RefreshCtx {
            mondrian: self,
            table,
            removed: &Removed::default(),
            counts_ok: true,
        };
        let mut walk = Vec::new();
        let mut stack = vec![tree.root];
        while let Some(node) = stack.pop() {
            if tree.nodes[node as usize].size < STATS_THRESHOLD {
                continue;
            }
            if let NodeKind::Internal(i) = &tree.nodes[node as usize].kind {
                let (l, r) = (i.left, i.right);
                ensure_stats(&ctx, tree, &mut walk, node);
                stack.push(l);
                stack.push(r);
            }
        }
    }
}

/// Refresh one node. `ins` are ids entering the node's membership (fresh
/// inserts, or live rows migrating in after an ancestor's threshold
/// drifted); `dels` are ids leaving it (deleted rows, or live rows
/// migrating out). Both are ranges of `s.ids`, already known to belong to
/// this node.
///
/// Recursion depth equals the tree depth along dirty paths. Median splits
/// keep that logarithmic on real data; a pathologically skewed table could
/// deepen it (the planting engines are iterative for the same reason) —
/// if such workloads appear, this walk should move to an explicit stack.
fn process(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    s: &mut RefreshScratch,
    node: u32,
    ins: Range<usize>,
    dels: Range<usize>,
) {
    if ins.is_empty() && dels.is_empty() {
        return; // Clean subtree: nothing to recompute, stamps survive.
    }
    let new_size = tree.nodes[node as usize].size + ins.len() - dels.len();
    debug_assert!(new_size > 0, "a node can only empty out via its parent");
    match &tree.nodes[node as usize].kind {
        NodeKind::Leaf(_) => refresh_leaf(ctx, tree, s, node, ins, dels, new_size),
        NodeKind::Internal(_) => refresh_internal(ctx, tree, s, node, ins, dels, new_size),
    }
}

/// Index the *live* ids of `dels` into `s.live_dels`, sorted (deleted ids
/// are recognized by `row_of` directly; only migrating live rows need the
/// lookup).
fn index_live_dels(row_of: &[u32], s: &mut RefreshScratch, dels: Range<usize>) {
    let RefreshScratch { ids, live_dels, .. } = s;
    live_dels.clear();
    live_dels.extend(
        ids[dels]
            .iter()
            .copied()
            .filter(|&id| row_of[id as usize] != DEAD_ROW),
    );
    live_dels.sort_unstable();
}

/// Is `id` gone from a gathered membership — deleted outright, or among
/// the subtree's outgoing live ids?
fn is_gone(row_of: &[u32], live_dels: &[u32], id: u32) -> bool {
    row_of[id as usize] == DEAD_ROW || live_dels.binary_search(&id).is_ok()
}

fn refresh_internal(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    s: &mut RefreshScratch,
    node: u32,
    ins: Range<usize>,
    dels: Range<usize>,
    new_size: usize,
) {
    // Keep the node's histogram current (building it lazily on first
    // touch; a node that shrank under the threshold keeps updating the one
    // it has, for when it grows back), then replay the decision procedure
    // — from the histogram when the requirement allows it and the node is
    // large enough to make the O(n) row path expensive, from the
    // materialized rows otherwise.
    let use_stats = ctx.counts_ok && new_size >= STATS_THRESHOLD;
    if use_stats {
        ensure_stats(ctx, tree, &mut s.stack, node);
    }
    let PartitionTree {
        nodes,
        row_of,
        dim_off,
        m,
        ..
    } = &mut *tree;
    if let NodeKind::Internal(InternalNode {
        stats: Some(stats), ..
    }) = &mut nodes[node as usize].kind
    {
        for &id in &s.ids[ins.clone()] {
            ctx.tally(&mut stats.joint, row_of, dim_off, *m, id, true);
        }
        for &id in &s.ids[dels.clone()] {
            ctx.tally(&mut stats.joint, row_of, dim_off, *m, id, false);
        }
    }

    // Replay the split rule. The *decision* (attempt sequence, winning
    // dimension, median, mode) is a function of the node's row multiset
    // only — widths come from per-dimension ranges and medians from value
    // counts — so for counts-decidable requirements the rows can be
    // gathered in any order and the expensive input-order sort is deferred
    // until a rebuild actually needs it. Row-dependent requirements
    // ((B,t)-privacy) evaluate the adversary over the rows, so their
    // replay materializes the exact from-scratch order.
    let cut = match &tree.nodes[node as usize].kind {
        NodeKind::Internal(InternalNode {
            stats: Some(stats), ..
        }) if use_stats => {
            let SplitScratch { rule, region } = &mut s.split;
            let mut source = HistogramSource::new(&stats.joint, &tree.dim_off, tree.m, region);
            rule.decide(
                &**ctx.mondrian.requirement(),
                ctx.table.schema(),
                &mut source,
            )
        }
        _ => {
            gather_live(tree, s, node, ins.clone(), dels.clone());
            if !ctx.counts_ok {
                tree.input_chain(node, &mut s.chain);
                tree.sort_into_input_order(ctx.table, &s.chain, &mut s.members);
            }
            replay_from_rows(ctx, tree, &mut s.split, &s.members)
        }
    };

    let NodeKind::Internal(internal) = &tree.nodes[node as usize].kind else {
        unreachable!("refresh_internal on a leaf");
    };
    let stored = internal.decision.cut();
    let children = (internal.left, internal.right);
    let same_attempts = s.split.rule.attempts == internal.decision.attempts;
    match cut {
        Some(cut) if same_attempts && cut == stored => {
            tree.nodes[node as usize].size = new_size;
            route_children(
                ctx,
                tree,
                s,
                children,
                stored,
                stored,
                ins,
                dels,
                0..0,
                0..0,
            );
        }
        Some(cut) if same_attempts && cut.dim == stored.dim => {
            // Only the threshold drifted. The children's sort chains are
            // unchanged (same attempt sequence), so instead of rebuilding
            // the subtree the boundary rows are *migrated* between the two
            // children: gathered from the donor side and routed onward as
            // plain ins/dels. This is what keeps a shifting root median —
            // inevitable under sustained churn — an O(moved · depth)
            // event instead of an O(n log n) rebuild.
            index_live_dels(&tree.row_of, s, dels.clone());
            let base = s.ids.len();
            collect_migrants(ctx, tree, s, children.0, cut, false);
            let to_right = base..s.ids.len(); // rows leaving the left child
            collect_migrants(ctx, tree, s, children.1, cut, true);
            let to_left = to_right.end..s.ids.len(); // rows leaving the right child
            let n = &mut tree.nodes[node as usize];
            n.size = new_size;
            if let NodeKind::Internal(i) = &mut n.kind {
                i.decision.median = cut.median;
                i.decision.le_mode = cut.le_mode;
            }
            #[cfg(test)]
            {
                tree.log.migrations += 1;
            }
            route_children(
                ctx, tree, s, children, stored, cut, ins, dels, to_left, to_right,
            );
            s.ids.truncate(base);
        }
        _ => {
            // The decision drifted structurally (different attempt order or
            // winning dimension, or no valid split left — the collapse
            // case): rebuild the subtree from scratch on the node's rows,
            // now in true input order.
            if use_stats {
                gather_live(tree, s, node, ins, dels);
            }
            if ctx.counts_ok {
                // The counts path skipped the sort; a rebuild needs it.
                tree.input_chain(node, &mut s.chain);
                tree.sort_into_input_order(ctx.table, &s.chain, &mut s.members);
            }
            rebuild(ctx, tree, &mut s.split, node, &s.members);
        }
    }
}

/// Push onto `s.ids` the surviving ids under `from` that the drifted `cut`
/// sends to the other child: with `want_left`, the rows a right child
/// loses; without, the rows a left child loses. `s.live_dels` must index
/// the node's outgoing ids.
fn collect_migrants(
    ctx: &RefreshCtx<'_>,
    tree: &PartitionTree,
    s: &mut RefreshScratch,
    from: u32,
    cut: Cut,
    want_left: bool,
) {
    let RefreshScratch {
        ids,
        live_dels,
        stack,
        ..
    } = s;
    let row_of = &tree.row_of;
    let col = ctx.table.qi_col(cut.dim);
    tree.visit_leaves(stack, from, &mut |leaf| {
        for &id in &leaf.rows {
            if !is_gone(row_of, live_dels, id)
                && cut.goes_left(col.get(row_of[id as usize] as usize)) == want_left
            {
                ids.push(id);
            }
        }
    });
}

/// Split a confirmed node's incoming `ins`/`dels` between its children,
/// fold in the rows migrating across a drifted threshold, and recurse into
/// the dirty children. Inserts are *new* members, placed where the **new**
/// cut says; deletes are *existing* members, located where the **old** cut
/// put them. The children's lists are pushed onto `s.ids` above the
/// caller's ranges and popped once both children are done.
#[allow(clippy::too_many_arguments)]
fn route_children(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    s: &mut RefreshScratch,
    (left, right): (u32, u32),
    old_cut: Cut,
    new_cut: Cut,
    ins: Range<usize>,
    dels: Range<usize>,
    to_left: Range<usize>,
    to_right: Range<usize>,
) {
    let base = s.ids.len();
    let row_of = &tree.row_of;
    let ids = &mut s.ids;
    // One child's list: the ids of `from` that `cut` sends its way, then
    // the migrants `extra` (a row moving left is an insert for the left
    // child and a delete for the right child, and vice versa).
    let mut route = |from: Range<usize>, cut: Cut, want_left: bool, extra: Range<usize>| {
        let start = ids.len();
        for i in from {
            let id = ids[i];
            if cut.goes_left(ctx.value_on(row_of, id, cut.dim)) == want_left {
                ids.push(id);
            }
        }
        ids.extend_from_within(extra);
        start..ids.len()
    };
    let ins_l = route(ins.clone(), new_cut, true, to_left.clone());
    let dels_l = route(dels.clone(), old_cut, true, to_right.clone());
    let ins_r = route(ins, new_cut, false, to_right);
    let dels_r = route(dels, old_cut, false, to_left);
    process(ctx, tree, s, left, ins_l, dels_l);
    process(ctx, tree, s, right, ins_r, dels_r);
    s.ids.truncate(base);
}

fn refresh_leaf(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    s: &mut RefreshScratch,
    node: u32,
    ins: Range<usize>,
    dels: Range<usize>,
    new_size: usize,
) {
    // The leaf's stored rows are already in input order, so the merged
    // order is the stored survivors with each insert binary-searched into
    // place by the ancestor sort chain (the final tiebreak is the row id,
    // making the comparator a strict total order — each insert lands at
    // its exact from-scratch position). No full re-sort needed; the leaf's
    // own buffer is updated in place.
    index_live_dels(&tree.row_of, s, dels);
    let mut ids: Vec<u32> = match &mut tree.nodes[node as usize].kind {
        NodeKind::Leaf(leaf) => std::mem::take(&mut leaf.rows),
        NodeKind::Internal(_) => unreachable!("refresh_leaf on an internal node"),
    };
    ids.retain(|&id| !is_gone(&tree.row_of, &s.live_dels, id));
    if !ins.is_empty() {
        tree.input_chain(node, &mut s.chain);
        for &id in &s.ids[ins] {
            let row = tree.row_of[id as usize] as usize;
            let pos = ids.partition_point(|&other| {
                let other_row = tree.row_of[other as usize] as usize;
                for &dim in &s.chain {
                    let ord = ctx
                        .table
                        .qi_value(other_row, dim)
                        .cmp(&ctx.table.qi_value(row, dim));
                    if ord != std::cmp::Ordering::Equal {
                        return ord == std::cmp::Ordering::Less;
                    }
                }
                other < id
            });
            ids.insert(pos, id);
        }
    }
    debug_assert_eq!(ids.len(), new_size);
    match replay_from_rows(ctx, tree, &mut s.split, &ids) {
        None => {
            // Still a leaf: update membership, ranges, histogram, stamp —
            // all in the leaf's existing buffers, one column pass per
            // dimension.
            let stamp = tree.next_stamp();
            let (nodes, row_of, log) = (&mut tree.nodes, &tree.row_of, &mut tree.log);
            let n = &mut nodes[node as usize];
            n.size = new_size;
            let NodeKind::Leaf(leaf) = &mut n.kind else {
                unreachable!("refresh_leaf on an internal node");
            };
            log.retired.push(leaf.stamp);
            log.stamped.push(node);
            leaf.rows = ids;
            leaf.stamp = stamp;
            let rows = leaf.rows.iter().map(|&id| row_of[id as usize] as usize);
            ranges_into(ctx.table, rows.clone(), &mut leaf.lo, &mut leaf.hi);
            leaf.counts.fill(0);
            let sensitive = ctx.table.sensitive_col();
            for row in rows {
                leaf.counts[sensitive[row] as usize] += 1;
            }
        }
        Some(_) => rebuild(ctx, tree, &mut s.split, node, &ids),
    }
}

/// Fill `s.members` with a node's new membership in leaf-emission order
/// (NOT input order): surviving ids from its leaves, minus the outgoing
/// `dels`, plus the routed `ins`. Callers needing the from-scratch input
/// order sort afterwards with [`PartitionTree::sort_into_input_order`].
fn gather_live(
    tree: &PartitionTree,
    s: &mut RefreshScratch,
    node: u32,
    ins: Range<usize>,
    dels: Range<usize>,
) {
    index_live_dels(&tree.row_of, s, dels);
    let RefreshScratch {
        ids,
        members,
        live_dels,
        stack,
        ..
    } = s;
    let row_of = &tree.row_of;
    members.clear();
    tree.visit_leaves(stack, node, &mut |leaf| {
        members.extend(
            leaf.rows
                .iter()
                .copied()
                .filter(|&id| !is_gone(row_of, live_dels, id)),
        );
    });
    members.extend_from_slice(&ids[ins]);
}

/// Replay the split rule on the rows of `ids`: count passes only for
/// counts-decidable requirements, and otherwise the ordered source, whose
/// checks see the rows re-sorted from `ids`' order (the from-scratch input
/// order) attempt by attempt. A split's attempt sequence is left in
/// `scratch.rule`.
fn replay_from_rows(
    ctx: &RefreshCtx<'_>,
    tree: &PartitionTree,
    scratch: &mut SplitScratch,
    ids: &[u32],
) -> Option<Cut> {
    let SplitScratch { rule, region } = scratch;
    region.rows.clear();
    region
        .rows
        .extend(ids.iter().map(|&id| tree.row_of[id as usize] as usize));
    let requirement = &**ctx.mondrian.requirement();
    let schema = ctx.table.schema();
    if ctx.counts_ok {
        rule.decide(
            requirement,
            schema,
            &mut RowSource::unordered(ctx.table, region),
        )
    } else {
        ctx.table
            .sensitive_counts_into(&region.rows, &mut region.total);
        let mut source = RowSource::ordered(ctx.table, region, u64::MAX);
        rule.decide(requirement, schema, &mut source)
    }
}

/// Rebuild the subtree rooted at `slot` from scratch over `ids` (already in
/// from-scratch input order) on one worker of the planting engine,
/// recycling the old subtree's slots. Bit-identical to what planting the
/// final table would put here, because Mondrian's recursion is local to a
/// region's rows.
fn rebuild(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    scratch: &mut SplitScratch,
    slot: u32,
    ids: &[u32],
) {
    tree.release_subtree(slot);
    #[cfg(test)]
    {
        tree.log.rebuilds += 1;
    }
    let rows: Vec<usize> = ids
        .iter()
        .map(|&id| tree.row_of[id as usize] as usize)
        .collect();
    let counts = ctx.table.sensitive_counts_in(&rows);
    let (slots, records) = ctx.mondrian.records(ctx.table, rows, counts, 1, scratch);
    tree.graft(slot, slots, records);
}

/// Build the node's histogram from its current (pre-delta) membership —
/// survivors read from the new table, pending removals from the captured
/// values — so the caller can then apply the delta to it.
///
/// Built bottom-up: a parent's histogram is the element-wise sum of its
/// children's, so materializing stats for a whole dirty region costs one
/// row scan at the lowest stats level plus `O(domain · m)` per node above
/// it, instead of re-scanning every node's full subtree.
fn ensure_stats(ctx: &RefreshCtx<'_>, tree: &mut PartitionTree, stack: &mut Vec<u32>, node: u32) {
    if matches!(
        &tree.nodes[node as usize].kind,
        NodeKind::Internal(i) if i.stats.is_some()
    ) {
        return;
    }
    let mut joint = vec![0u32; tree.total_domain * tree.m];
    let (left, right) = match &tree.nodes[node as usize].kind {
        NodeKind::Internal(i) => (i.left, i.right),
        NodeKind::Leaf(_) => unreachable!("stats live on internal nodes"),
    };
    for child in [left, right] {
        let big_internal = matches!(&tree.nodes[child as usize].kind, NodeKind::Internal(_))
            && tree.nodes[child as usize].size >= STATS_THRESHOLD;
        if big_internal {
            ensure_stats(ctx, tree, stack, child);
            if let NodeKind::Internal(InternalNode {
                stats: Some(stats), ..
            }) = &tree.nodes[child as usize].kind
            {
                for (acc, &c) in joint.iter_mut().zip(&stats.joint) {
                    *acc += c;
                }
            }
        } else {
            // Small or leaf child: count its rows directly.
            let tree = &*tree;
            tree.visit_leaves(stack, child, &mut |leaf| {
                for &id in &leaf.rows {
                    ctx.tally(&mut joint, &tree.row_of, &tree.dim_off, tree.m, id, true);
                }
            });
        }
    }
    if let NodeKind::Internal(internal) = &mut tree.nodes[node as usize].kind {
        internal.stats = Some(Box::new(NodeStats { joint }));
    }
    tree.stats_nodes += 1;
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bgkanon_data::{adult, Delta, DeltaBuilder, Parallelism, Table};
    use bgkanon_knowledge::Bandwidth;
    use bgkanon_privacy::{And, BTPrivacy, DistinctLDiversity, KAnonymity, TCloseness};
    use proptest::prelude::*;

    use super::*;

    fn mondrian_k(k: usize) -> Mondrian {
        Mondrian::new(Arc::new(KAnonymity::new(k)))
    }

    fn assert_trees_agree(m: &Mondrian, refreshed: &PartitionTree, table: &Table) {
        let fresh = m.plant(table);
        let (a, _) = refreshed.snapshot(table);
        let (b, _) = fresh.snapshot(table);
        assert_eq!(a.first_difference(&b), None);
    }

    fn delta_of(table: &Table, deletes: &[usize], inserts: &[(Vec<u32>, u32)]) -> Delta {
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for &r in deletes {
            b.delete(r);
        }
        for (qi, s) in inserts {
            b.insert_codes(qi, *s).unwrap();
        }
        b.build()
    }

    #[test]
    fn plant_matches_anonymize_for_both_engines() {
        let t = adult::generate(600, 3);
        let m = mondrian_k(5);
        let direct = m.plant_reference(&t).to_anonymized(&t);
        for par in [Parallelism::Serial, Parallelism::threads(3)] {
            let tree = m.plant_with(&t, par);
            let viewed = tree.to_anonymized(&t);
            assert_eq!(direct.first_difference(&viewed), None);
            assert_eq!(tree.len(), t.len());
            assert!(viewed.group_count() > 1);
        }
    }

    #[test]
    fn refresh_insert_only_matches_replant() {
        let base = adult::generate(400, 7);
        let extra = adult::generate(40, 99);
        let m = mondrian_k(4);
        let mut tree = m.plant(&base);
        let inserts: Vec<(Vec<u32>, u32)> = (0..extra.len())
            .map(|r| (extra.qi(r).to_vec(), extra.sensitive_value(r)))
            .collect();
        let delta = delta_of(&base, &[], &inserts);
        let next = base.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &base, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
    }

    #[test]
    fn refresh_delete_only_matches_replant() {
        let base = adult::generate(400, 8);
        let m = mondrian_k(4);
        let mut tree = m.plant(&base);
        let deletes: Vec<usize> = (0..base.len()).step_by(23).collect();
        let delta = delta_of(&base, &deletes, &[]);
        let next = base.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &base, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
    }

    #[test]
    fn repeated_mixed_refreshes_match_replant() {
        let mut table = adult::generate(500, 11);
        let donors = adult::generate(200, 77);
        let m = mondrian_k(6);
        let mut tree = m.plant(&table);
        let mut donor_row = 0usize;
        for step in 0..5 {
            let deletes: Vec<usize> = (step..table.len()).step_by(17 + step).collect();
            let inserts: Vec<(Vec<u32>, u32)> = (0..12)
                .map(|_| {
                    let r = donor_row % donors.len();
                    donor_row += 1;
                    (donors.qi(r).to_vec(), donors.sensitive_value(r))
                })
                .collect();
            let delta = delta_of(&table, &deletes, &inserts);
            let next = table.apply_delta(&delta).unwrap();
            m.refresh(&mut tree, &table, &next, delta.deletes());
            assert_trees_agree(&m, &tree, &next);
            table = next;
        }
    }

    #[test]
    fn refresh_is_bit_identical_for_composite_counts_requirements() {
        // A conjunction of counts-decidable requirements is counts-decidable
        // too — exercise the stats path with a non-trivial model.
        let table = adult::generate(400, 21);
        let req = And::pair(KAnonymity::new(4), DistinctLDiversity::new(2));
        let m = Mondrian::new(Arc::new(req));
        let mut tree = m.plant(&table);
        let deletes: Vec<usize> = (0..60).map(|i| i * 6).collect();
        let delta = delta_of(&table, &deletes, &[]);
        let next = table.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &table, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
    }

    #[test]
    fn refresh_matches_the_reference_plant_for_row_dependent_requirements() {
        // (B,t)-privacy is not counts-decidable, so every replay reads the
        // node's rows in from-scratch input order. The requirement is
        // instantiated once, on the genesis table, as a session does.
        let genesis = adult::generate(300, 61);
        let donors = adult::generate(300, 67);
        let bandwidth = Bandwidth::uniform(0.3, genesis.qi_count()).unwrap();
        let bt = BTPrivacy::new(&genesis, bandwidth, 0.25);
        let m = Mondrian::new(Arc::new(And::pair(KAnonymity::new(4), bt)));
        let mut tree = m.plant(&genesis);
        let mut table = genesis;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |below: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % below
        };
        for step in 0..5 {
            let deletes: Vec<usize> = (0..table.len()).filter(|_| draw(16) == 0).collect();
            let inserts: Vec<(Vec<u32>, u32)> = (0..10 + 3 * step)
                .map(|_| {
                    let r = draw(donors.len());
                    (donors.qi(r).to_vec(), donors.sensitive_value(r))
                })
                .collect();
            let delta = delta_of(&table, &deletes, &inserts);
            let next = table.apply_delta(&delta).unwrap();
            m.refresh(&mut tree, &table, &next, delta.deletes());
            let reference = m.plant_reference(&next).to_anonymized(&next);
            let refreshed = tree.to_anonymized(&next);
            assert!(reference.group_count() > 1, "step {step}");
            assert_eq!(refreshed.first_difference(&reference), None, "step {step}");
            table = next;
        }
    }

    #[test]
    fn refresh_with_tcloseness_requirement() {
        let table = adult::generate(600, 31);
        let req = And::pair(KAnonymity::new(5), TCloseness::new(0.6, &table));
        let m = Mondrian::new(Arc::new(req));
        let mut tree = m.plant(&table);
        let deletes: Vec<usize> = (0..30).map(|i| i * 19).collect();
        let delta = delta_of(&table, &deletes, &[]);
        let next = table.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &table, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
    }

    #[test]
    fn clean_leaves_keep_stamps_dirty_leaves_change() {
        let base = adult::generate(800, 13);
        let m = mondrian_k(8);
        let mut tree = m.plant(&base);
        let (before, stamps_before) = tree.snapshot(&base);
        // Delete the first row of the first group only.
        let victim = before.groups()[0].rows[0];
        let delta = delta_of(&base, &[victim], &[]);
        let next = base.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &base, &next, delta.deletes());
        let (after, stamps_after) = tree.snapshot(&next);
        assert_trees_agree(&m, &tree, &next);
        // Most groups must survive with their stamps intact.
        let kept: usize = stamps_after
            .iter()
            .filter(|s| stamps_before.contains(s))
            .count();
        assert!(
            kept + 8 >= after.group_count(),
            "only a handful of groups may be dirtied by one delete (kept {kept} of {})",
            after.group_count()
        );
        assert!(kept < after.group_count(), "the dirty leaf must re-stamp");
    }

    #[test]
    fn export_import_roundtrip_is_bit_identical() {
        // Evolve a tree through mixed deltas (so ids ≠ rows and slots have
        // been recycled), export, rebuild, and compare snapshots bit for
        // bit. The rebuilt tree must also keep refreshing bit-identically.
        let mut table = adult::generate(400, 17);
        let donors = adult::generate(120, 23);
        let m = mondrian_k(5);
        let mut tree = m.plant(&table);
        let mut donor_row = 0usize;
        for step in 0..3 {
            let deletes: Vec<usize> = (step..table.len()).step_by(13 + step).collect();
            let inserts: Vec<(Vec<u32>, u32)> = (0..9)
                .map(|_| {
                    let r = donor_row % donors.len();
                    donor_row += 1;
                    (donors.qi(r).to_vec(), donors.sensitive_value(r))
                })
                .collect();
            let delta = delta_of(&table, &deletes, &inserts);
            let next = table.apply_delta(&delta).unwrap();
            m.refresh(&mut tree, &table, &next, delta.deletes());
            table = next;
        }
        let records = tree.export_records();
        assert!(matches!(records[0], TreeNodeRecord::Internal { .. }));
        let mut rebuilt = PartitionTree::from_exported(&table, records);
        let (a, _) = tree.snapshot(&table);
        let (b, _) = rebuilt.snapshot(&table);
        assert_eq!(a.first_difference(&b), None);
        // A further delta refreshes the rebuilt tree exactly like a
        // from-scratch plant of the final table.
        let deletes: Vec<usize> = (0..table.len()).step_by(29).collect();
        let delta = delta_of(&table, &deletes, &[]);
        let next = table.apply_delta(&delta).unwrap();
        m.warm_stats(&mut rebuilt, &table);
        m.refresh(&mut rebuilt, &table, &next, delta.deletes());
        assert_trees_agree(&m, &rebuilt, &next);
    }

    #[test]
    fn sustained_churn_keeps_the_id_space_bounded() {
        // Every delta retires 10% of the ids and issues as many fresh ones;
        // without renumbering, the id maps would grow by the insert count
        // forever. Compaction keeps them within twice the table plus one
        // delta, and must not change a single refresh outcome.
        let mut table = adult::generate(200, 41);
        let donors = adult::generate(400, 43);
        let m = mondrian_k(5);
        let mut tree = m.plant(&table);
        let mut donor_row = 0usize;
        let mut compactions = 0;
        for step in 0..40 {
            let deletes: Vec<usize> = (step % 10..table.len()).step_by(10).collect();
            let inserts: Vec<(Vec<u32>, u32)> = (0..deletes.len())
                .map(|_| {
                    let r = donor_row % donors.len();
                    donor_row += 1;
                    (donors.qi(r).to_vec(), donors.sensitive_value(r))
                })
                .collect();
            let delta = delta_of(&table, &deletes, &inserts);
            let next = table.apply_delta(&delta).unwrap();
            let ids_before = tree.row_of.len();
            m.refresh(&mut tree, &table, &next, delta.deletes());
            compactions += usize::from(tree.row_of.len() < ids_before);
            assert!(
                tree.row_of.len() <= 2 * tree.len() + inserts.len(),
                "step {step}: {} ids for {} rows",
                tree.row_of.len(),
                tree.len()
            );
            assert!(tree.bytes_accounted() > 0);
            assert_trees_agree(&m, &tree, &next);
            table = next;
        }
        assert!(compactions >= 2, "the id space was never renumbered");
    }

    #[test]
    fn cohort_churn_keeps_histograms_current() {
        // Each delta retires one age band and admits donors from another,
        // so histogram-carrying nodes shrink under the threshold and grow
        // back over it, where the next replay reads the histogram they kept
        // current in between.
        let mut table = adult::generate(2000, 51);
        let donors = adult::generate(2000, 53);
        let m = mondrian_k(4);
        let mut tree = m.plant(&table);
        m.warm_stats(&mut tree, &table);
        let band = |t: &Table, r: usize, lo: u32| (lo..lo + 6).contains(&t.qi_value(r, 0));
        for step in 0..12u32 {
            let lo = (step * 7) % 60;
            let deletes: Vec<usize> = (0..table.len()).filter(|&r| band(&table, r, lo)).collect();
            let inserts: Vec<(Vec<u32>, u32)> = (0..donors.len())
                .filter(|&r| band(&donors, r, (lo + 30) % 60))
                .take(deletes.len())
                .map(|r| (donors.qi(r).to_vec(), donors.sensitive_value(r)))
                .collect();
            let delta = delta_of(&table, &deletes, &inserts);
            let next = table.apply_delta(&delta).unwrap();
            m.refresh(&mut tree, &table, &next, delta.deletes());
            assert_trees_agree(&m, &tree, &next);
            table = next;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The carried snapshot against the from-scratch one, refresh after
        /// refresh, under k-anonymity and k ∧ (B,t). Each delta retires an
        /// age cohort plus scattered rows and admits donors of another
        /// cohort, so thresholds migrate, subtrees rebuild and the id space
        /// is renumbered within every case.
        #[test]
        fn carried_snapshots_match_the_tree(
            rows in 200usize..400,
            seed in 0u64..1u64 << 40,
            k in 3usize..7,
            row_dependent in 0u32..2,
        ) {
            let genesis = adult::generate(rows, seed);
            let donors = adult::generate(rows, seed ^ 0x5eed);
            let requirement: Arc<dyn bgkanon_privacy::PrivacyRequirement> = if row_dependent == 1 {
                let bandwidth = Bandwidth::uniform(0.3, genesis.qi_count()).unwrap();
                Arc::new(And::pair(
                    KAnonymity::new(k),
                    BTPrivacy::new(&genesis, bandwidth, 0.25),
                ))
            } else {
                Arc::new(KAnonymity::new(k))
            };
            let m = Mondrian::new(requirement);
            let mut tree = m.plant(&genesis);
            m.warm_stats(&mut tree, &genesis);
            let (mut published, mut stamps) = tree.snapshot(&genesis);
            let mut table = genesis;
            let mut state = seed | 1;
            let mut draw = |below: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize % below
            };
            let band = |t: &Table, r: usize, lo: u32| (lo..lo + 8).contains(&t.qi_value(r, 0));
            let mut compactions = 0;
            for step in 0..8 {
                let lo = draw(60) as u32;
                let deletes: Vec<usize> = (0..table.len())
                    .filter(|&r| band(&table, r, lo) || draw(8) == 0)
                    .collect();
                let count = deletes.len() + draw(8);
                let inserts: Vec<(Vec<u32>, u32)> = (0..donors.len())
                    .filter(|&r| band(&donors, r, (lo + 30) % 60) || draw(6) == 0)
                    .take(count)
                    .map(|r| (donors.qi(r).to_vec(), donors.sensitive_value(r)))
                    .collect();
                let delta = delta_of(&table, &deletes, &inserts);
                let next = table.apply_delta(&delta).unwrap();
                let ids_before = tree.row_of.len();
                m.refresh(&mut tree, &table, &next, delta.deletes());
                compactions += usize::from(tree.row_of.len() < ids_before);
                let carried = tree.carry(&next, &published, &stamps, delta.deletes());
                prop_assert!(carried.is_some(), "step {step}: the carry fell back");
                let (carried, carried_stamps) = carried.unwrap();
                let (reference, reference_stamps) = tree.snapshot(&next);
                prop_assert_eq!(carried.first_difference(&reference), None, "step {}", step);
                prop_assert_eq!(&carried_stamps, &reference_stamps, "step {}", step);
                (published, stamps, table) = (carried, carried_stamps, next);
            }
            prop_assert!(compactions > 0, "the id space was never renumbered");
            prop_assert!(tree.log.migrations > 0, "no threshold migrated");
            prop_assert!(tree.log.rebuilds > 0, "no subtree was rebuilt");
        }
    }

    #[test]
    fn collapse_under_min_size_merges_groups() {
        // Deleting rows until a split's halves drop under k forces the
        // refresh to collapse the subtree into one leaf, exactly as a
        // from-scratch run would.
        let base = adult::generate(64, 5);
        let m = mondrian_k(8);
        let mut tree = m.plant(&base);
        let groups_before = tree.snapshot(&base).0.group_count();
        // Delete most of the first group.
        let (at, _) = tree.snapshot(&base);
        let victims: Vec<usize> = at.groups()[0].rows.iter().copied().take(6).collect();
        let delta = delta_of(&base, &victims, &[]);
        let next = base.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &base, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
        assert!(tree.snapshot(&next).0.group_count() <= groups_before);
    }
}
