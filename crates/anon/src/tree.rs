//! The persistent [`PartitionTree`]: Mondrian's recursion, retained.
//!
//! A one-shot Mondrian run makes a sequence of split decisions and then
//! forgets them, keeping only the leaf groups. The tree keeps the whole
//! recursion — every committed split decision, each
//! node's row membership (stored at the leaves, in the exact order the
//! reference engine would emit) and per-leaf QI ranges and sensitive
//! histograms — so a later batch of inserts and deletes can be routed
//! *through* it instead of triggering a from-scratch re-partition.
//!
//! # Incremental refresh, and why it is bit-identical
//!
//! [`Mondrian::refresh`] walks the tree top-down along the paths the delta
//! rows touch. At every dirty node it **replays the reference decision
//! procedure** on the node's updated membership and compares the outcome
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

use std::collections::{BTreeMap, BTreeSet};

use bgkanon_data::Table;

use crate::anonymized::{AnonymizedTable, PartitionBuilder, QiRange};
use crate::mondrian::{DecideScratch, Mondrian, Region, SplitDecision, SplitScratch};

/// Sentinel for "no node" / "no parent".
const NONE: u32 = u32::MAX;
/// Sentinel in `row_of` for a deleted id.
const DEAD_ROW: usize = usize::MAX;
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
        let (lo, hi) = scan_ranges(table, &rows);
        let counts = table.sensitive_counts_in(&rows);
        NodeRec::Leaf {
            rows,
            lo,
            hi,
            counts,
        }
    }
}

/// Per-dimension min/max codes over `rows`.
fn scan_ranges(table: &Table, rows: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let d = table.qi_count();
    let first = table.qi(rows[0]);
    let mut lo = first.to_vec();
    let mut hi = first.to_vec();
    for &r in &rows[1..] {
        let q = table.qi(r);
        for i in 0..d {
            lo[i] = lo[i].min(q[i]);
            hi[i] = hi[i].max(q[i]);
        }
    }
    (lo, hi)
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

/// A leaf: its member row ids in the reference engine's emission order,
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
/// ```
/// use std::sync::Arc;
/// use bgkanon_anon::Mondrian;
/// use bgkanon_privacy::KAnonymity;
///
/// let table = bgkanon_data::adult::generate(300, 42);
/// let mondrian = Mondrian::new(Arc::new(KAnonymity::new(5)));
/// let tree = mondrian.plant(&table);
/// // The published table is a view of the tree's leaves.
/// let published = tree.to_anonymized(&table);
/// assert_eq!(tree.leaf_count(), published.group_count());
/// assert_eq!(tree.len(), table.len());
/// ```
pub struct PartitionTree {
    d: usize,
    m: usize,
    root: u32,
    nodes: Vec<Node>,
    /// Recycled node slots.
    free: Vec<u32>,
    /// id → current row index ([`DEAD_ROW`] once deleted).
    row_of: Vec<usize>,
    /// current row index → id.
    id_of: Vec<u32>,
    /// Source of fresh leaf stamps.
    stamp_counter: u64,
    /// Offset of each QI dimension into the concatenated value domain.
    dim_off: Vec<usize>,
    /// Sum of all QI domain sizes.
    total_domain: usize,
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
        let m = table.schema().sensitive_domain_size();
        let mut dim_off = Vec::with_capacity(d);
        let mut total_domain = 0usize;
        for i in 0..d {
            dim_off.push(total_domain);
            total_domain += table.schema().qi_attribute(i).domain_size() as usize;
        }
        let n = table.len();
        let mut nodes: Vec<Option<Node>> = Vec::with_capacity(slots);
        nodes.resize_with(slots, || None);
        let mut stamp_counter = 0u64;
        for (slot, rec) in records {
            let node = match rec {
                NodeRec::Internal {
                    decision,
                    left,
                    right,
                    size,
                } => Node {
                    parent: NONE,
                    size,
                    kind: NodeKind::Internal(InternalNode {
                        decision,
                        left: left as u32,
                        right: right as u32,
                        stats: None,
                    }),
                },
                NodeRec::Leaf {
                    rows,
                    lo,
                    hi,
                    counts,
                } => {
                    let stamp = stamp_counter;
                    stamp_counter += 1;
                    Node {
                        parent: NONE,
                        size: rows.len(),
                        kind: NodeKind::Leaf(LeafNode {
                            rows: rows.into_iter().map(|r| r as u32).collect(),
                            lo,
                            hi,
                            counts,
                            stamp,
                        }),
                    }
                }
            };
            nodes[slot] = Some(node);
        }
        let mut nodes: Vec<Node> = nodes
            .into_iter()
            .map(|n| n.expect("every allocated slot must be recorded"))
            .collect();
        // Wire parent links.
        for slot in 0..nodes.len() {
            if let NodeKind::Internal(internal) = &nodes[slot].kind {
                let (l, r) = (internal.left as usize, internal.right as usize);
                nodes[l].parent = slot as u32;
                nodes[r].parent = slot as u32;
            }
        }
        PartitionTree {
            d,
            m,
            root: 0,
            nodes,
            free: Vec::new(),
            row_of: (0..n).collect(),
            id_of: (0..n as u32).collect(),
            stamp_counter,
            dim_off,
            total_domain,
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

    /// Number of leaves — the published group count.
    pub fn leaf_count(&self) -> usize {
        let mut count = 0;
        self.visit_leaves(self.root, &mut |_| count += 1);
        count
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Heap bytes of the retained tree: per-node payloads (leaf row lists,
    /// range bounds, histograms; internal split stats) plus the id↔row
    /// maps. A deterministic accounting proxy for the serving hub's
    /// per-tenant memory gauges, not an allocator-exact figure.
    pub fn bytes_accounted(&self) -> usize {
        let nodes: usize = self
            .nodes
            .iter()
            .map(|n| {
                96 + match &n.kind {
                    NodeKind::Leaf(l) => {
                        l.rows.len() * 4 + (l.lo.len() + l.hi.len() + l.counts.len()) * 4
                    }
                    NodeKind::Internal(i) => i.stats.as_ref().map_or(0, |s| s.joint.len() * 4 + 32),
                }
            })
            .sum();
        nodes + self.free.len() * 4 + self.row_of.len() * 8 + self.id_of.len() * 4 + 128
    }

    /// Maximum root-to-leaf depth (root = 0).
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((node, depth)) = stack.pop() {
            match &self.nodes[node as usize].kind {
                NodeKind::Leaf(_) => max = max.max(depth),
                NodeKind::Internal(i) => {
                    stack.push((i.left, depth + 1));
                    stack.push((i.right, depth + 1));
                }
            }
        }
        max
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
        let mut leaves: Vec<&LeafNode> = Vec::new();
        self.visit_leaves(self.root, &mut |leaf| leaves.push(leaf));
        // Deterministic group order: by first row index. The leaves
        // partition the rows, so first rows are unique and sorting one
        // packed `(first row, leaf slot)` key per leaf orders them.
        let mut order: Vec<u64> = leaves
            .iter()
            .enumerate()
            .map(|(slot, leaf)| ((self.row_of[leaf.rows[0] as usize] as u64) << 32) | slot as u64)
            .collect();
        order.sort_unstable();
        let mut builder = PartitionBuilder::new(table, leaves.len());
        let mut stamps = Vec::with_capacity(leaves.len());
        for key in order {
            let leaf = leaves[(key & u64::from(u32::MAX)) as usize];
            builder.push(
                leaf.rows.iter().map(|&id| self.row_of[id as usize]),
                leaf.lo
                    .iter()
                    .zip(&leaf.hi)
                    .map(|(&min, &max)| QiRange { min, max }),
                &leaf.counts,
            );
            stamps.push(leaf.stamp);
        }
        // The tree's own invariants guarantee the leaves partition the
        // table; `finish` re-checks that in debug builds only.
        (builder.finish(), stamps)
    }

    fn visit_leaves<'a>(&'a self, from: u32, f: &mut impl FnMut(&'a LeafNode)) {
        let mut stack = vec![from];
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

    /// Collect the ids of every row under `from` (leaf emission order —
    /// callers sort when they need the node's input order).
    fn collect_ids(&self, from: u32, out: &mut Vec<u32>) {
        self.visit_leaves(from, &mut |leaf| out.extend_from_slice(&leaf.rows));
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

    /// Recycle every node strictly below `node`.
    fn free_subtree(&mut self, node: u32) {
        let mut stack = match &self.nodes[node as usize].kind {
            NodeKind::Leaf(_) => return,
            NodeKind::Internal(i) => vec![i.left, i.right],
        };
        while let Some(slot) = stack.pop() {
            if let NodeKind::Internal(i) = &self.nodes[slot as usize].kind {
                stack.push(i.left);
                stack.push(i.right);
            }
            self.free.push(slot);
        }
    }

    /// The dimension sequence that orders a node's *input* rows, highest
    /// priority first: walking from the parent up to the root, each
    /// ancestor's attempted dimensions in reverse. (Stable sorts compose so
    /// the most recent sort dominates; the final tiebreak is the row id.)
    /// Duplicate dimensions keep only their first (highest-priority)
    /// occurrence — repeats can no longer change the order.
    fn input_chain(&self, node: u32) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut seen = vec![false; self.d];
        let mut current = self.nodes[node as usize].parent;
        while current != NONE {
            let parent = &self.nodes[current as usize];
            if let NodeKind::Internal(i) = &parent.kind {
                for &dim in i.decision.attempts.iter().rev() {
                    if !seen[dim] {
                        seen[dim] = true;
                        chain.push(dim);
                    }
                }
            }
            current = parent.parent;
        }
        chain
    }

    /// Sort `ids` into the node's from-scratch input order: by the chain
    /// dimensions in priority order, then by id (id order ≡ row order).
    fn sort_into_input_order(&self, table: &Table, chain: &[usize], ids: &mut [u32]) {
        ids.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (self.row_of[a as usize], self.row_of[b as usize]);
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
                            .map(|&id| self.row_of[id as usize])
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
    /// Panics when the records do not describe a well-formed partition of
    /// `table` (out-of-range slots or rows, empty leaves, unreferenced
    /// slots). Callers deserializing untrusted bytes must validate first —
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
/// retained tree after the table itself has moved on.
struct Removed {
    d: usize,
    ids: Vec<u32>,
    qi: Vec<u32>,
    sensitive: Vec<u32>,
    index_of: BTreeMap<u32, usize>,
}

impl Removed {
    fn capture(tree: &PartitionTree, old_table: &Table, deletes: &[usize]) -> Self {
        let d = old_table.qi_count();
        let mut removed = Removed {
            d,
            ids: Vec::with_capacity(deletes.len()),
            qi: Vec::with_capacity(deletes.len() * d),
            sensitive: Vec::with_capacity(deletes.len()),
            index_of: BTreeMap::new(),
        };
        for &row in deletes {
            let id = tree.id_of[row];
            removed.index_of.insert(id, removed.ids.len());
            removed.ids.push(id);
            for a in 0..d {
                removed.qi.push(old_table.qi_value(row, a));
            }
            removed.sensitive.push(old_table.sensitive_value(row));
        }
        removed
    }

    fn qi(&self, idx: usize) -> &[u32] {
        &self.qi[idx * self.d..(idx + 1) * self.d]
    }
}

impl<'a> RefreshCtx<'a> {
    /// The QI codes and sensitive code of `id`: live rows read from the
    /// post-delta table, deleted rows from the captured values. (An id in a
    /// `dels` list can be *alive* — a row migrating to a sibling subtree
    /// after a threshold drift — so both cases are routine here.)
    fn values_into(&self, row_of: &[usize], id: u32, buf: &mut Vec<u32>) -> u32 {
        let row = row_of[id as usize];
        if row == DEAD_ROW {
            let di = self.removed.index_of[&id];
            buf.clear();
            buf.extend_from_slice(self.removed.qi(di));
            self.removed.sensitive[di]
        } else {
            self.table.qi_into(row, buf);
            self.table.sensitive_value(row)
        }
    }

    /// Code of `id` on `dim` (for threshold routing).
    fn value_on(&self, row_of: &[usize], id: u32, dim: usize) -> u32 {
        let row = row_of[id as usize];
        if row == DEAD_ROW {
            let di = self.removed.index_of[&id];
            self.removed.qi(di)[dim]
        } else {
            self.table.qi_value(row, dim)
        }
    }
}

/// The replayed decision outcome at one node.
enum Replay {
    Split(SplitDecision),
    NoSplit,
}

struct RefreshCtx<'a> {
    mondrian: &'a Mondrian,
    /// The post-delta table.
    table: &'a Table,
    removed: &'a Removed,
    /// Whether the requirement can be decided from (size, histogram) alone.
    counts_ok: bool,
    scratch: std::cell::RefCell<DecideScratch>,
    split_scratch: std::cell::RefCell<SplitScratch>,
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
    /// membership changed gets a fresh one.
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
        // Ids are never reused (reuse would break the id-order ≡ row-order
        // invariant), so the id space grows by the insert count on every
        // refresh; a session would need 2^32 cumulative inserts to exhaust
        // it. Guard rather than silently wrap.
        assert!(
            tree.row_of.len() + inserts <= u32::MAX as usize,
            "row-id space exhausted ({} historical ids); re-plant the tree",
            tree.row_of.len()
        );

        // Capture the removed rows' values, then advance the id maps: the
        // id order of survivors equals their new row order, and fresh ids
        // (larger than every existing id) are appended for the inserts.
        let removed = Removed::capture(tree, old_table, deletes);
        for &id in &removed.ids {
            tree.row_of[id as usize] = DEAD_ROW;
        }
        let mut new_id_of = Vec::with_capacity(new_table.len());
        {
            let mut dels = deletes.iter().copied().peekable();
            for row in 0..old_table.len() {
                if dels.peek() == Some(&row) {
                    dels.next();
                } else {
                    new_id_of.push(tree.id_of[row]);
                }
            }
        }
        let first_fresh = tree.row_of.len() as u32;
        let ins_ids: Vec<u32> = (0..inserts).map(|k| first_fresh + k as u32).collect();
        for _ in 0..inserts {
            tree.row_of.push(DEAD_ROW);
        }
        new_id_of.extend_from_slice(&ins_ids);
        for (row, &id) in new_id_of.iter().enumerate() {
            tree.row_of[id as usize] = row;
        }
        tree.id_of = new_id_of;

        let ctx = RefreshCtx {
            mondrian: self,
            table: new_table,
            removed: &removed,
            counts_ok: self.requirement().counts_decidable(),
            scratch: std::cell::RefCell::new(DecideScratch::default()),
            split_scratch: std::cell::RefCell::new(SplitScratch::default()),
        };
        let del_ids = removed.ids.clone();
        process(&ctx, tree, tree.root, ins_ids, del_ids);
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
        let removed = Removed {
            d: tree.d,
            ids: Vec::new(),
            qi: Vec::new(),
            sensitive: Vec::new(),
            index_of: BTreeMap::new(),
        };
        let ctx = RefreshCtx {
            mondrian: self,
            table,
            removed: &removed,
            counts_ok: true,
            scratch: std::cell::RefCell::new(DecideScratch::default()),
            split_scratch: std::cell::RefCell::new(SplitScratch::default()),
        };
        let mut stack = vec![tree.root];
        while let Some(node) = stack.pop() {
            if tree.nodes[node as usize].size < STATS_THRESHOLD {
                continue;
            }
            if let NodeKind::Internal(i) = &tree.nodes[node as usize].kind {
                let (l, r) = (i.left, i.right);
                ensure_stats(&ctx, tree, node);
                stack.push(l);
                stack.push(r);
            }
        }
    }
}

/// Refresh one node. `ins` are ids entering the node's membership (fresh
/// inserts, or live rows migrating in after an ancestor's threshold
/// drifted); `dels` are ids leaving it (deleted rows, or live rows
/// migrating out). Both lists are already known to belong to this node.
///
/// Recursion depth equals the tree depth along dirty paths. Median splits
/// keep that logarithmic on real data; a pathologically skewed table could
/// deepen it (the planting engines are iterative for the same reason) —
/// if such workloads appear, this walk should move to an explicit stack.
fn process(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    node: u32,
    ins: Vec<u32>,
    dels: Vec<u32>,
) {
    if ins.is_empty() && dels.is_empty() {
        return; // Clean subtree: nothing to recompute, stamps survive.
    }
    let new_size = tree.nodes[node as usize].size + ins.len() - dels.len();
    debug_assert!(new_size > 0, "a node can only empty out via its parent");
    match &tree.nodes[node as usize].kind {
        NodeKind::Leaf(_) => refresh_leaf(ctx, tree, node, ins, dels, new_size),
        NodeKind::Internal(_) => refresh_internal(ctx, tree, node, ins, dels, new_size),
    }
}

/// Is `id` gone from a gathered membership — deleted outright, or listed
/// in the subtree's outgoing `dels`?
fn is_gone(row_of: &[usize], dels: &BTreeSet<u32>, id: u32) -> bool {
    row_of[id as usize] == DEAD_ROW || dels.contains(&id)
}

/// Index the *live* ids of `dels` (deleted ids are recognized by
/// `row_of` directly; only migrating live rows need the lookup).
fn live_dels_set(tree: &PartitionTree, dels: &[u32]) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    for &id in dels {
        if tree.row_of[id as usize] != DEAD_ROW {
            set.insert(id);
        }
    }
    set
}

fn refresh_internal(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    node: u32,
    ins: Vec<u32>,
    dels: Vec<u32>,
    new_size: usize,
) {
    // Keep the node's histogram current (building it lazily on first
    // touch), then replay the decision procedure — from the histogram when
    // the requirement allows it and the node is large enough to make the
    // O(n) row path expensive, from the materialized rows otherwise.
    let use_stats = ctx.counts_ok && new_size >= STATS_THRESHOLD;
    if use_stats {
        ensure_stats(ctx, tree, node);
    }
    {
        let m = tree.m;
        let (nodes, row_of, dim_off) = (&mut tree.nodes, &tree.row_of, &tree.dim_off);
        if let NodeKind::Internal(internal) = &mut nodes[node as usize].kind {
            if let Some(stats) = internal.stats.as_deref_mut() {
                let mut qi = Vec::new();
                for &id in &ins {
                    let s = ctx.values_into(row_of, id, &mut qi);
                    update_stats(stats, dim_off, m, &qi, s, true);
                }
                for &id in &dels {
                    let s = ctx.values_into(row_of, id, &mut qi);
                    update_stats(stats, dim_off, m, &qi, s, false);
                }
            }
        }
    }

    // Replay the decision procedure. The *decision* (attempt sequence,
    // winning dimension, median, mode) is a function of the node's row
    // multiset only — widths come from per-dimension ranges and medians
    // from value counts — so for counts-decidable requirements the rows
    // can be gathered in any order and the expensive input-order sort is
    // deferred until a rebuild actually needs it. Row-dependent
    // requirements ((B,t)-privacy) evaluate the adversary over the rows,
    // so their replay materializes the exact from-scratch order.
    let mut gathered: Option<Vec<u32>> = None;
    let replay = if use_stats {
        replay_from_stats(ctx, tree, node, new_size)
    } else {
        let mut ids = gather_live(tree, node, &ins, &dels);
        if !ctx.counts_ok {
            let chain = tree.input_chain(node);
            tree.sort_into_input_order(ctx.table, &chain, &mut ids);
        }
        let replay = replay_from_rows(ctx, tree, &ids);
        gathered = Some(ids);
        replay
    };

    let stored = match &tree.nodes[node as usize].kind {
        NodeKind::Internal(i) => i.decision.clone(),
        NodeKind::Leaf(_) => unreachable!("refresh_internal on a leaf"),
    };
    match replay {
        Replay::Split(decision) if decision == stored => {
            tree.nodes[node as usize].size = new_size;
            route_children(
                ctx,
                tree,
                node,
                &stored,
                &stored,
                ins,
                dels,
                Vec::new(),
                Vec::new(),
            );
        }
        Replay::Split(decision)
            if decision.dim == stored.dim && decision.attempts == stored.attempts =>
        {
            // Only the threshold drifted. The children's sort chains are
            // unchanged (same attempt sequence), so instead of rebuilding
            // the subtree the boundary rows are *migrated* between the two
            // children: gathered from the donor side and routed onward as
            // plain ins/dels. This is what keeps a shifting root median —
            // inevitable under sustained churn — an O(moved · depth)
            // event instead of an O(n log n) rebuild.
            let (left, right) = match &tree.nodes[node as usize].kind {
                NodeKind::Internal(i) => (i.left, i.right),
                NodeKind::Leaf(_) => unreachable!(),
            };
            let dels_set = live_dels_set(tree, &dels);
            let mut to_left = Vec::new(); // rows leaving the right child
            let mut to_right = Vec::new(); // rows leaving the left child
            {
                let (row_of, nodes) = (&tree.row_of, &tree.nodes);
                let visit = |from: u32, out: &mut Vec<u32>, want_left: bool| {
                    let mut stack = vec![from];
                    while let Some(slot) = stack.pop() {
                        match &nodes[slot as usize].kind {
                            NodeKind::Leaf(leaf) => {
                                for &id in &leaf.rows {
                                    if is_gone(row_of, &dels_set, id) {
                                        continue;
                                    }
                                    let v = ctx.table.qi_value(row_of[id as usize], decision.dim);
                                    if decision.goes_left(v) == want_left {
                                        out.push(id);
                                    }
                                }
                            }
                            NodeKind::Internal(i) => {
                                stack.push(i.right);
                                stack.push(i.left);
                            }
                        }
                    }
                };
                visit(left, &mut to_right, false);
                visit(right, &mut to_left, true);
            }
            if let NodeKind::Internal(i) = &mut tree.nodes[node as usize].kind {
                i.decision = decision.clone();
            }
            tree.nodes[node as usize].size = new_size;
            route_children(
                ctx, tree, node, &stored, &decision, ins, dels, to_left, to_right,
            );
        }
        _ => {
            // The decision drifted structurally (different attempt order or
            // winning dimension, or no valid split left — the collapse
            // case): rebuild the subtree from scratch on the node's rows,
            // now in true input order.
            let mut ids = gathered.unwrap_or_else(|| gather_live(tree, node, &ins, &dels));
            if ctx.counts_ok {
                // The counts path skipped the sort; a rebuild needs it.
                let chain = tree.input_chain(node);
                tree.sort_into_input_order(ctx.table, &chain, &mut ids);
            }
            rebuild(ctx, tree, node, ids);
        }
    }
}

/// Split a confirmed node's incoming `ins`/`dels` between its children,
/// fold in the rows migrating across a drifted threshold, and recurse into
/// the dirty children. Inserts are *new* members, placed where the **new**
/// decision says; deletes are *existing* members, located where the **old**
/// decision put them.
#[allow(clippy::too_many_arguments)]
fn route_children(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    node: u32,
    old_decision: &SplitDecision,
    new_decision: &SplitDecision,
    ins: Vec<u32>,
    dels: Vec<u32>,
    to_left: Vec<u32>,
    to_right: Vec<u32>,
) {
    let mut ins_l = Vec::new();
    let mut ins_r = Vec::new();
    for id in ins {
        let v = ctx.value_on(&tree.row_of, id, new_decision.dim);
        if new_decision.goes_left(v) {
            ins_l.push(id);
        } else {
            ins_r.push(id);
        }
    }
    let mut dels_l = Vec::new();
    let mut dels_r = Vec::new();
    for id in dels {
        let v = ctx.value_on(&tree.row_of, id, old_decision.dim);
        if old_decision.goes_left(v) {
            dels_l.push(id);
        } else {
            dels_r.push(id);
        }
    }
    // Fold the migrations in: a row moving left is an insert for the left
    // child and a delete for the right child, and vice versa.
    dels_r.extend_from_slice(&to_left);
    ins_l.extend(to_left);
    dels_l.extend_from_slice(&to_right);
    ins_r.extend(to_right);
    let (left, right) = match &tree.nodes[node as usize].kind {
        NodeKind::Internal(i) => (i.left, i.right),
        NodeKind::Leaf(_) => unreachable!(),
    };
    process(ctx, tree, left, ins_l, dels_l);
    process(ctx, tree, right, ins_r, dels_r);
}

fn refresh_leaf(
    ctx: &RefreshCtx<'_>,
    tree: &mut PartitionTree,
    node: u32,
    ins: Vec<u32>,
    dels: Vec<u32>,
    new_size: usize,
) {
    // The leaf's stored rows are already in input order, so the merged
    // order is the stored survivors with each insert binary-searched into
    // place by the ancestor sort chain (the final tiebreak is the row id,
    // making the comparator a strict total order — each insert lands at
    // its exact from-scratch position). No full re-sort needed; the leaf's
    // own buffer is updated in place.
    let dels_set = live_dels_set(tree, &dels);
    let mut ids: Vec<u32> = match &mut tree.nodes[node as usize].kind {
        NodeKind::Leaf(leaf) => std::mem::take(&mut leaf.rows),
        NodeKind::Internal(_) => unreachable!("refresh_leaf on an internal node"),
    };
    ids.retain(|&id| !is_gone(&tree.row_of, &dels_set, id));
    if !ins.is_empty() {
        let chain = tree.input_chain(node);
        for &id in &ins {
            let row = tree.row_of[id as usize];
            let pos = ids.partition_point(|&other| {
                let other_row = tree.row_of[other as usize];
                for &dim in &chain {
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
    match replay_from_rows(ctx, tree, &ids) {
        Replay::NoSplit => {
            // Still a leaf: update membership, ranges, histogram, stamp —
            // all in the leaf's existing buffers.
            let d = tree.d;
            let m = tree.m;
            let first = ctx.table.qi(tree.row_of[ids[0] as usize]);
            let mut lo = first.to_vec();
            let mut hi = first.to_vec();
            let mut counts = vec![0u32; m];
            for &id in &ids {
                let row = tree.row_of[id as usize];
                let q = ctx.table.qi(row);
                for i in 0..d {
                    lo[i] = lo[i].min(q[i]);
                    hi[i] = hi[i].max(q[i]);
                }
                counts[ctx.table.sensitive_value(row) as usize] += 1;
            }
            let stamp = tree.next_stamp();
            let n = &mut tree.nodes[node as usize];
            n.size = new_size;
            n.kind = NodeKind::Leaf(LeafNode {
                rows: ids,
                lo,
                hi,
                counts,
                stamp,
            });
        }
        Replay::Split(_) => rebuild(ctx, tree, node, ids),
    }
}

/// A node's new membership as an id list in leaf-emission order (NOT input
/// order): surviving ids from its leaves, minus the outgoing `dels`, plus
/// the routed inserts. Callers needing the from-scratch input order sort
/// afterwards with [`PartitionTree::sort_into_input_order`].
fn gather_live(tree: &PartitionTree, node: u32, ins: &[u32], dels: &[u32]) -> Vec<u32> {
    let dels_set = live_dels_set(tree, dels);
    let mut ids = Vec::with_capacity(tree.nodes[node as usize].size + ins.len());
    tree.collect_ids(node, &mut ids);
    ids.retain(|&id| !is_gone(&tree.row_of, &dels_set, id));
    ids.extend_from_slice(ins);
    ids
}

/// Replay the reference decision procedure on materialized rows:
/// allocation-free and sort-free for counts-decidable requirements, the
/// full reference splitter (whose checks see the exact from-scratch row
/// order) otherwise.
fn replay_from_rows(ctx: &RefreshCtx<'_>, tree: &PartitionTree, ids: &[u32]) -> Replay {
    let mut scratch = ctx.scratch.borrow_mut();
    let mut rows = std::mem::take(&mut scratch.rows);
    rows.clear();
    rows.extend(ids.iter().map(|&id| tree.row_of[id as usize]));
    let replay = if ctx.counts_ok {
        match ctx
            .mondrian
            .decide_only_counts(ctx.table, &rows, &mut scratch)
        {
            Some(decision) => Replay::Split(decision),
            None => Replay::NoSplit,
        }
    } else {
        match ctx.mondrian.decide_split(ctx.table, &rows) {
            Some((decision, _, _)) => Replay::Split(decision),
            None => Replay::NoSplit,
        }
    };
    scratch.rows = rows;
    replay
}

/// Rebuild the subtree rooted at `slot` from scratch over `ids` (already in
/// from-scratch input order) with the reference engine, recycling the old
/// subtree's slots. Bit-identical to what planting the final table would
/// put here, because Mondrian's recursion is local to a region's rows.
fn rebuild(ctx: &RefreshCtx<'_>, tree: &mut PartitionTree, slot: u32, ids: Vec<u32>) {
    tree.free_subtree(slot);
    let rows: Vec<usize> = ids.iter().map(|&id| tree.row_of[id as usize]).collect();
    if tree.d > 64 {
        // The optimized splitter tracks live dimensions in a u64 bitmask;
        // wider schemas rebuild on the reference path (as planting does).
        rebuild_reference(ctx, tree, slot, rows);
        return;
    }
    let counts = ctx.table.sensitive_counts_in(&rows);
    let mut scratch = ctx.split_scratch.borrow_mut();
    // Run the optimized work-stealing splitter single-threaded over the
    // region — bit-identical to the reference engine (the property
    // `tests/tests/parallel.rs` maintains), and to what planting the final
    // table would put here, because Mondrian's recursion is local to a
    // region's rows.
    let mut stack = vec![Region {
        slot: slot as usize,
        rows,
        counts,
        live_dims: crate::mondrian::live_mask(tree.d),
    }];
    while let Some(region) = stack.pop() {
        let slot = region.slot as u32;
        let size = region.rows.len();
        match ctx
            .mondrian
            .try_split_fast(ctx.table, &region, &mut scratch)
        {
            Some((decision, mut left, mut right)) => {
                let l = tree.alloc_node();
                let r = tree.alloc_node();
                tree.nodes[l as usize].parent = slot;
                tree.nodes[r as usize].parent = slot;
                let n = &mut tree.nodes[slot as usize];
                n.size = size;
                n.kind = NodeKind::Internal(InternalNode {
                    decision,
                    left: l,
                    right: r,
                    stats: None,
                });
                left.slot = l as usize;
                right.slot = r as usize;
                stack.push(left);
                stack.push(right);
            }
            None => {
                // `try_split_fast` left the region's per-dimension min/max
                // in the scratch, so the leaf's ranges come for free.
                let (lo, hi) = scratch.ranges();
                let leaf_ids: Vec<u32> = region.rows.iter().map(|&r| tree.id_of[r]).collect();
                let stamp = tree.next_stamp();
                let n = &mut tree.nodes[slot as usize];
                n.size = size;
                n.kind = NodeKind::Leaf(LeafNode {
                    rows: leaf_ids,
                    lo,
                    hi,
                    counts: region.counts,
                    stamp,
                });
            }
        }
    }
}

/// The reference-engine rebuild used for schemas wider than the bitmask.
fn rebuild_reference(ctx: &RefreshCtx<'_>, tree: &mut PartitionTree, slot: u32, rows: Vec<usize>) {
    let mut stack = vec![(slot, rows)];
    while let Some((slot, rows)) = stack.pop() {
        let size = rows.len();
        match ctx.mondrian.decide_split(ctx.table, &rows) {
            Some((decision, left, right)) => {
                let l = tree.alloc_node();
                let r = tree.alloc_node();
                tree.nodes[l as usize].parent = slot;
                tree.nodes[r as usize].parent = slot;
                let n = &mut tree.nodes[slot as usize];
                n.size = size;
                n.kind = NodeKind::Internal(InternalNode {
                    decision,
                    left: l,
                    right: r,
                    stats: None,
                });
                stack.push((l, left));
                stack.push((r, right));
            }
            None => {
                let (lo, hi) = scan_ranges(ctx.table, &rows);
                let counts = ctx.table.sensitive_counts_in(&rows);
                let leaf_ids: Vec<u32> = rows.iter().map(|&r| tree.id_of[r]).collect();
                let stamp = tree.next_stamp();
                let n = &mut tree.nodes[slot as usize];
                n.size = size;
                n.kind = NodeKind::Leaf(LeafNode {
                    rows: leaf_ids,
                    lo,
                    hi,
                    counts,
                    stamp,
                });
            }
        }
    }
}

fn update_stats(stats: &mut NodeStats, dim_off: &[usize], m: usize, qi: &[u32], s: u32, add: bool) {
    for (dim, &v) in qi.iter().enumerate() {
        let idx = (dim_off[dim] + v as usize) * m + s as usize;
        if add {
            stats.joint[idx] += 1;
        } else {
            stats.joint[idx] -= 1;
        }
    }
}

/// Build the node's histogram from its current (pre-delta) membership —
/// survivors read from the new table, pending removals from the captured
/// values — so the caller can then apply the delta to it.
///
/// Built bottom-up: a parent's histogram is the element-wise sum of its
/// children's, so materializing stats for a whole dirty region costs one
/// row scan at the lowest stats level plus `O(domain · m)` per node above
/// it, instead of re-scanning every node's full subtree.
fn ensure_stats(ctx: &RefreshCtx<'_>, tree: &mut PartitionTree, node: u32) {
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
            ensure_stats(ctx, tree, child);
            if let NodeKind::Internal(i) = &tree.nodes[child as usize].kind {
                let child_joint = &i.stats.as_deref().expect("just ensured").joint;
                for (acc, &c) in joint.iter_mut().zip(child_joint) {
                    *acc += c;
                }
            }
        } else {
            // Small or leaf child: count its rows directly.
            let mut ids = Vec::with_capacity(tree.nodes[child as usize].size);
            tree.collect_ids(child, &mut ids);
            let mut stats = NodeStats { joint };
            let mut qi = Vec::new();
            for &id in &ids {
                let s = ctx.values_into(&tree.row_of, id, &mut qi);
                update_stats(&mut stats, &tree.dim_off, tree.m, &qi, s, true);
            }
            joint = stats.joint;
        }
    }
    if let NodeKind::Internal(internal) = &mut tree.nodes[node as usize].kind {
        internal.stats = Some(Box::new(NodeStats { joint }));
    }
}

/// Replay the full decision procedure from the node's histogram: widths
/// and candidate order from per-dimension ranges, medians and half sizes
/// from prefix sums, requirement checks from the derived half histograms.
/// Mirrors the reference `decide_split` decision-for-decision; only valid
/// when the requirement is counts-decidable.
fn replay_from_stats(ctx: &RefreshCtx<'_>, tree: &PartitionTree, node: u32, n: usize) -> Replay {
    if n < 2 {
        return Replay::NoSplit;
    }
    let stats = match &tree.nodes[node as usize].kind {
        NodeKind::Internal(i) => i.stats.as_deref().expect("ensured by caller"),
        NodeKind::Leaf(_) => unreachable!("stats replay on a leaf"),
    };
    let schema = ctx.table.schema();
    let m = tree.m;
    // Per-dimension value marginals and the node's sensitive histogram.
    let mut marginals: Vec<Vec<u32>> = Vec::with_capacity(tree.d);
    let mut node_counts = vec![0u32; m];
    for dim in 0..tree.d {
        let dom = schema.qi_attribute(dim).domain_size() as usize;
        let mut marg = vec![0u32; dom];
        for (v, slot) in marg.iter_mut().enumerate() {
            let base = (tree.dim_off[dim] + v) * m;
            let sens = &stats.joint[base..base + m];
            let mut c = 0u32;
            for &x in sens {
                c += x;
            }
            *slot = c;
            if dim == 0 {
                for (acc, &x) in node_counts.iter_mut().zip(sens) {
                    *acc += x;
                }
            }
        }
        marginals.push(marg);
    }
    // Candidate dimensions: positive normalized width, widest first, ties
    // by index — the reference comparator restricted to the dimensions it
    // would try before stopping at the first zero width.
    let mut widths: Vec<(usize, f64)> = Vec::new();
    for (dim, marg) in marginals.iter().enumerate() {
        let lo = marg.iter().position(|&c| c > 0);
        let hi = marg.iter().rposition(|&c| c > 0);
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if hi > lo {
                let w = schema.qi_distance(dim).get(lo as u32, hi as u32);
                if w > 0.0 {
                    widths.push((dim, w));
                }
            }
        }
    }
    widths.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });

    let requirement = ctx.mondrian.requirement();
    let mut attempts = Vec::new();
    let mut counts_l = vec![0u32; m];
    let mut counts_r = vec![0u32; m];
    for &(dim, _) in &widths {
        attempts.push(dim);
        let marg = &marginals[dim];
        // The value at sorted position n/2 — the reference's median row.
        let target = n / 2;
        let mut acc = 0usize;
        let mut median = 0usize;
        for (v, &c) in marg.iter().enumerate() {
            let next = acc + c as usize;
            if target < next {
                median = v;
                break;
            }
            acc = next;
        }
        let lt = acc; // rows with value < median (loop left acc there)
        let le = lt + marg[median] as usize;
        let (split_at, le_mode) = if lt > 0 {
            (lt, false)
        } else if le < n {
            (le, true)
        } else {
            continue; // All values equal — cannot split here.
        };
        // Sensitive histograms of both halves from the joint histogram.
        let bound = if le_mode { median + 1 } else { median };
        counts_l.iter_mut().for_each(|c| *c = 0);
        for v in 0..bound {
            let base = (tree.dim_off[dim] + v) * m;
            for (acc, &x) in counts_l.iter_mut().zip(&stats.joint[base..base + m]) {
                *acc += x;
            }
        }
        for ((r, &total), &l) in counts_r.iter_mut().zip(&node_counts).zip(&*counts_l) {
            *r = total - l;
        }
        let ok_l = requirement.is_satisfied_by_counts(split_at, &counts_l);
        let ok_r = ok_l && requirement.is_satisfied_by_counts(n - split_at, &counts_r);
        if ok_l && ok_r {
            return Replay::Split(SplitDecision {
                attempts,
                dim,
                median: median as u32,
                le_mode,
            });
        }
    }
    Replay::NoSplit
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bgkanon_data::{adult, Delta, DeltaBuilder, Parallelism, Table};
    use bgkanon_privacy::{And, DistinctLDiversity, KAnonymity, TCloseness};

    use super::*;

    fn mondrian_k(k: usize) -> Mondrian {
        Mondrian::new(Arc::new(KAnonymity::new(k)))
    }

    fn assert_trees_agree(m: &Mondrian, refreshed: &PartitionTree, table: &Table) {
        let fresh = m.plant(table);
        let (a, _) = refreshed.snapshot(table);
        let (b, _) = fresh.snapshot(table);
        assert_eq!(a.group_count(), b.group_count(), "group count diverges");
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.rows, gb.rows, "rows diverge");
            assert_eq!(ga.ranges, gb.ranges, "ranges diverge");
            assert_eq!(ga.sensitive_counts, gb.sensitive_counts);
        }
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
        let direct = m.anonymize(&t);
        for par in [Parallelism::Serial, Parallelism::threads(3)] {
            let tree = m.plant_with(&t, par);
            let viewed = tree.to_anonymized(&t);
            assert_eq!(direct.group_count(), viewed.group_count());
            for (a, b) in direct.groups().iter().zip(viewed.groups()) {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.ranges, b.ranges);
                assert_eq!(a.sensitive_counts, b.sensitive_counts);
            }
            assert_eq!(tree.len(), t.len());
            assert!(tree.depth() >= 1);
            assert!(tree.node_count() >= 2 * tree.leaf_count() - 1);
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
    fn refresh_is_bit_identical_for_non_counts_requirements() {
        // t-closeness is counts-decidable; the composite with ℓ-diversity
        // still is — exercise the stats path with a non-trivial model.
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
        assert_eq!(a.group_count(), b.group_count());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.rows, gb.rows);
            assert_eq!(ga.ranges, gb.ranges);
            assert_eq!(ga.sensitive_counts, gb.sensitive_counts);
        }
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
    fn collapse_under_min_size_merges_groups() {
        // Deleting rows until a split's halves drop under k forces the
        // refresh to collapse the subtree into one leaf, exactly as a
        // from-scratch run would.
        let base = adult::generate(64, 5);
        let m = mondrian_k(8);
        let mut tree = m.plant(&base);
        let groups_before = tree.leaf_count();
        // Delete most of the first group.
        let (at, _) = tree.snapshot(&base);
        let victims: Vec<usize> = at.groups()[0].rows.iter().copied().take(6).collect();
        let delta = delta_of(&base, &victims, &[]);
        let next = base.apply_delta(&delta).unwrap();
        m.refresh(&mut tree, &base, &next, delta.deletes());
        assert_trees_agree(&m, &tree, &next);
        assert!(tree.leaf_count() <= groups_before);
    }
}
