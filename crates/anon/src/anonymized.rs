//! The published artifact: a partition of the table into groups with
//! generalized QI boxes.
//!
//! # Layout
//!
//! An [`AnonymizedTable`] stores its partition as four flat arrays behind
//! one `Arc`: group offsets, the member rows of every group back to back,
//! `d` [`QiRange`]s per group and `m` sensitive counts per group. Readers
//! borrow one group at a time as a [`GroupRef`] ([`AnonymizedTable::group`],
//! [`AnonymizedTable::iter`]); publishing a new version allocates four
//! arrays, not three per group, and dropping the old one frees four.
//! [`Group`] remains the owned, caller-built input type of
//! [`AnonymizedTable::new`].

use std::sync::{Arc, OnceLock};

use bgkanon_data::{AttributeKind, Schema, Table};

/// Inclusive code range of one QI attribute within a group. For numeric
/// attributes this is the generalized interval `[min, max]`; for categorical
/// attributes the published generalization is the lowest common ancestor of
/// the values (computed for display), while the range records the raw code
/// span.
///
/// ```
/// use bgkanon_anon::QiRange;
///
/// let range = QiRange { min: 2, max: 5 };
/// assert!(range.contains(3) && !range.contains(6));
/// assert_eq!(range.width(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QiRange {
    /// Smallest code in the group.
    pub min: u32,
    /// Largest code in the group.
    pub max: u32,
}

impl QiRange {
    /// Does the range cover `code`?
    pub fn contains(&self, code: u32) -> bool {
        self.min <= code && code <= self.max
    }

    /// Number of codes covered.
    pub fn width(&self) -> u32 {
        self.max - self.min + 1
    }
}

/// One equivalence class, owned — the input type of
/// [`AnonymizedTable::new`]. A publication hands its groups out as
/// borrowed [`GroupRef`]s instead.
#[derive(Debug, Clone)]
pub struct Group {
    /// Member rows (indices into the original table).
    pub rows: Vec<usize>,
    /// Per-QI-attribute code ranges.
    pub ranges: Vec<QiRange>,
    /// Histogram of sensitive values within the group.
    pub sensitive_counts: Vec<u32>,
}

impl Group {
    /// Build a group from rows of `table`, computing ranges and counts.
    pub fn from_rows(table: &Table, rows: Vec<usize>) -> Self {
        assert!(!rows.is_empty(), "group must be non-empty");
        let mut ranges = Vec::with_capacity(table.qi_count());
        push_ranges(table, &rows, &mut ranges);
        let sensitive_counts = table.sensitive_counts_in(&rows);
        Group {
            rows,
            ranges,
            sensitive_counts,
        }
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the group has no rows (never after construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Append the per-attribute `[min, max]` code box of `rows` to `out`.
fn push_ranges(table: &Table, rows: &[usize], out: &mut Vec<QiRange>) {
    out.extend((0..table.qi_count()).map(|i| {
        rows.iter().fold(
            QiRange {
                min: u32::MAX,
                max: 0,
            },
            |range, &r| {
                let v = table.qi_value(r, i);
                QiRange {
                    min: range.min.min(v),
                    max: range.max.max(v),
                }
            },
        )
    }));
}

/// One group of a publication, borrowed from its flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRef<'a> {
    /// Member rows (indices into the original table).
    pub rows: &'a [usize],
    /// Per-QI-attribute code ranges.
    pub ranges: &'a [QiRange],
    /// Histogram of sensitive values within the group.
    pub sensitive_counts: &'a [u32],
}

impl GroupRef<'_> {
    /// Group size.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the group has no rows (never in a publication).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// An owned copy.
    fn to_group(self) -> Group {
        Group {
            rows: self.rows.to_vec(),
            ranges: self.ranges.to_vec(),
            sensitive_counts: self.sensitive_counts.to_vec(),
        }
    }

    /// Human-readable generalized QI labels, one per attribute: numeric
    /// attributes as `[lo,hi]`, categorical attributes as the lowest common
    /// ancestor in the hierarchy (or the single value). A range with no
    /// codes (`min > max`, only a caller-built [`Group`] can carry one) has
    /// no ancestor and is labelled `[lo,hi]` too.
    // bgk-allow: R7 the paper's Table I(b) labels, checked in tests/tests/paper_examples.rs
    pub fn generalized_labels(&self, schema: &Schema) -> Vec<String> {
        self.ranges
            .iter()
            .enumerate()
            .map(|(i, range)| {
                let attr = schema.qi_attribute(i);
                if range.min == range.max {
                    return attr.display_value(range.min);
                }
                let lca = match attr.kind() {
                    AttributeKind::Numeric { .. } => None,
                    AttributeKind::Categorical { hierarchy, .. } => hierarchy
                        .lca_of_set(range.min..=range.max)
                        .map(|lca| hierarchy.label(lca).to_owned()),
                };
                lca.unwrap_or_else(|| {
                    format!(
                        "[{},{}]",
                        attr.display_value(range.min),
                        attr.display_value(range.max)
                    )
                })
            })
            .collect()
    }
}

/// The flat partition of one publication, shared by all its clones.
#[derive(Debug)]
struct Partition {
    /// Group `g` holds `rows[offsets[g]..offsets[g + 1]]`; `groups + 1`
    /// entries, starting at 0.
    offsets: Vec<usize>,
    /// Member rows of every group, group after group.
    rows: Vec<usize>,
    /// `d` ranges per group, group after group.
    ranges: Vec<QiRange>,
    /// `m` sensitive counts per group, group after group.
    sensitive_counts: Vec<u32>,
    /// QI attribute count `d`.
    d: usize,
    /// Sensitive domain size `m`.
    m: usize,
    /// The owned [`AnonymizedTable::groups`] view, built on first call.
    owned: OnceLock<Vec<Group>>,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.rows == other.rows
            && self.ranges == other.ranges
            && self.sensitive_counts == other.sensitive_counts
    }
}

/// Why `groups` (row lists) do not partition `0..n_rows`, if they do not.
fn partition_defect<'a>(
    n_rows: usize,
    groups: impl Iterator<Item = &'a [usize]>,
) -> Option<String> {
    let mut seen = vec![false; n_rows];
    for rows in groups {
        for &r in rows {
            match seen.get_mut(r) {
                None => return Some(format!("row {r} out of bounds")),
                Some(true) => return Some(format!("row {r} appears in two groups")),
                Some(s) => *s = true,
            }
        }
    }
    (!seen.iter().all(|&s| s)).then(|| "groups must cover every row of the table".to_owned())
}

/// Writes a publication's flat arrays group by group — the one path every
/// strategy snapshot and [`AnonymizedTable::new`] go through.
pub(crate) struct PartitionBuilder {
    schema: Arc<Schema>,
    n_rows: usize,
    partition: Partition,
}

impl PartitionBuilder {
    /// An empty partition of `table`, with room for about `groups` groups.
    pub(crate) fn new(table: &Table, groups: usize) -> Self {
        let d = table.qi_count();
        let m = table.schema().sensitive_domain_size();
        let mut offsets = Vec::with_capacity(groups + 1);
        offsets.push(0);
        PartitionBuilder {
            schema: Arc::clone(table.schema()),
            n_rows: table.len(),
            partition: Partition {
                offsets,
                rows: Vec::with_capacity(table.len()),
                ranges: Vec::with_capacity(groups * d),
                sensitive_counts: Vec::with_capacity(groups * m),
                d,
                m,
                owned: OnceLock::new(),
            },
        }
    }

    /// Append a group with a known box (`d` ranges) and histogram (`m`
    /// counts).
    pub(crate) fn push(
        &mut self,
        rows: impl IntoIterator<Item = usize>,
        ranges: impl IntoIterator<Item = QiRange>,
        sensitive_counts: &[u32],
    ) {
        let p = &mut self.partition;
        p.rows.extend(rows);
        p.offsets.push(p.rows.len());
        p.ranges.extend(ranges);
        p.sensitive_counts.extend_from_slice(sensitive_counts);
    }

    /// The publication of `groups` (row lists, in order), each group's box
    /// and histogram scanned from `table`. Callers guarantee the lists
    /// partition the table's rows (debug builds check).
    pub(crate) fn from_row_lists(table: &Table, groups: &[Vec<usize>]) -> AnonymizedTable {
        let mut builder = PartitionBuilder::new(table, groups.len());
        let p = &mut builder.partition;
        for rows in groups {
            p.rows.extend_from_slice(rows);
            p.offsets.push(p.rows.len());
            push_ranges(table, rows, &mut p.ranges);
            let base = p.sensitive_counts.len();
            p.sensitive_counts.resize(base + p.m, 0);
            for &r in rows {
                p.sensitive_counts[base + table.sensitive_value(r) as usize] += 1;
            }
        }
        builder.finish()
    }

    /// The publication. Callers guarantee the groups partition the table's
    /// rows (debug builds check).
    pub(crate) fn finish(self) -> AnonymizedTable {
        let at = AnonymizedTable {
            schema: self.schema,
            partition: Arc::new(self.partition),
            n_rows: self.n_rows,
        };
        debug_assert_eq!(at.partition.ranges.len(), at.group_count() * at.partition.d);
        debug_assert_eq!(
            at.partition.sensitive_counts.len(),
            at.group_count() * at.partition.m
        );
        debug_assert_eq!(partition_defect(at.n_rows, at.iter().map(|g| g.rows)), None);
        at
    }
}

/// A published anonymized table: a partition of the original rows into
/// groups. (For bucketization the QI values are published exactly; for
/// generalization they are replaced by the group box — under the paper's
/// threat model both reveal the same group structure.)
///
/// Two publications are equal when they hold the same groups in the same
/// order — rows, ranges and sensitive counts — over the same row count.
///
/// ```
/// use bgkanon_anon::{AnonymizedTable, Group};
///
/// let table = bgkanon_data::toy::hospital_table();
/// let groups = bgkanon_data::toy::hospital_groups()
///     .into_iter()
///     .map(|rows| Group::from_rows(&table, rows))
///     .collect();
/// let published = AnonymizedTable::new(&table, groups);
/// assert_eq!(published.group_count(), 3);
/// assert_eq!(published.group(0).len(), 3);
/// assert_eq!(published.iter().map(|g| g.len()).sum::<usize>(), table.len());
/// ```
#[derive(Debug, Clone)]
pub struct AnonymizedTable {
    schema: Arc<Schema>,
    /// Shared so cloning a publication (sessions hand out snapshots of
    /// every release) is O(1) instead of a deep copy of all groups.
    partition: Arc<Partition>,
    n_rows: usize,
}

impl PartialEq for AnonymizedTable {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows
            && (Arc::ptr_eq(&self.partition, &other.partition) || self.partition == other.partition)
    }
}

impl AnonymizedTable {
    /// Assemble from groups; validates that the groups partition
    /// `0..table.len()` and that every group has one range per QI attribute
    /// and one count per sensitive value.
    pub fn new(table: &Table, groups: Vec<Group>) -> Self {
        let defect = partition_defect(table.len(), groups.iter().map(|g| g.rows.as_slice()));
        assert!(defect.is_none(), "{}", defect.unwrap_or_default());
        let mut builder = PartitionBuilder::new(table, groups.len());
        let (d, m) = (builder.partition.d, builder.partition.m);
        for (i, g) in groups.into_iter().enumerate() {
            assert_eq!(g.ranges.len(), d, "group {i}: one range per QI attribute");
            assert_eq!(
                g.sensitive_counts.len(),
                m,
                "group {i}: one count per sensitive value"
            );
            builder.push(g.rows, g.ranges, &g.sensitive_counts);
        }
        builder.finish()
    }

    /// The schema shared with the original table.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Group `i`, borrowed from the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if `i >= group_count()`.
    pub fn group(&self, i: usize) -> GroupRef<'_> {
        let p = &*self.partition;
        GroupRef {
            rows: &p.rows[p.offsets[i]..p.offsets[i + 1]],
            ranges: &p.ranges[i * p.d..(i + 1) * p.d],
            sensitive_counts: &p.sensitive_counts[i * p.m..(i + 1) * p.m],
        }
    }

    /// The equivalence classes in publication order, borrowed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = GroupRef<'_>> + '_ {
        (0..self.group_count()).map(move |i| self.group(i))
    }

    /// The equivalence classes as owned [`Group`]s — a compatibility view.
    /// The first call on a publication copies every group out of the flat
    /// arrays (one allocation per array per group, held until the
    /// publication is dropped); prefer [`iter`](Self::iter) or
    /// [`group`](Self::group), which borrow.
    pub fn groups(&self) -> &[Group] {
        self.partition
            .owned
            .get_or_init(|| self.iter().map(|g| g.to_group()).collect())
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.partition.offsets.len() - 1
    }

    /// Number of rows in the underlying table.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Average group size.
    pub fn average_group_size(&self) -> f64 {
        self.n_rows as f64 / self.group_count() as f64
    }

    /// Heap bytes of the partition: 8 B per row, and per group 8 B of
    /// offset, 8 B per QI range and 4 B per sensitive count, plus 64 B.
    /// The arrays sit behind an `Arc` — O(1) snapshot clones charge the
    /// same payload to every holder — so this is the accounting proxy the
    /// serving hub sums into per-tenant memory gauges, not an
    /// allocator-exact figure (the lazily built [`groups`](Self::groups)
    /// view is not counted).
    pub fn bytes_accounted(&self) -> usize {
        let p = &*self.partition;
        p.rows.len() * 8 + self.group_count() * (8 + p.d * 8 + p.m * 4) + 64
    }

    /// The groups as plain row-index lists (the shape the privacy
    /// [`Auditor`](bgkanon_privacy::Auditor) consumes).
    pub fn row_groups(&self) -> Vec<Vec<usize>> {
        self.iter().map(|g| g.rows.to_vec()).collect()
    }

    /// Write the published table as CSV: one line per tuple with its group
    /// id, the group's generalized QI labels, and the tuple's sensitive
    /// value (the sensitive column is what generalization releases; within a
    /// group its association with particular rows is hidden by
    /// construction). `table` must be the original the partition was built
    /// from.
    pub fn write_csv<W: std::io::Write>(
        &self,
        table: &Table,
        mut writer: W,
    ) -> std::io::Result<()> {
        let names: Vec<&str> = std::iter::once("group")
            .chain(self.schema.qi_attributes().iter().map(|a| a.name()))
            .chain(std::iter::once(self.schema.sensitive_attribute().name()))
            .collect();
        writeln!(writer, "{}", names.join(","))?;
        let sens = self.schema.sensitive_attribute();
        for (gi, g) in self.iter().enumerate() {
            let labels = g.generalized_labels(&self.schema).join(",");
            // Publish the sensitive multiset in code order, not row order —
            // the random permutation the paper's bucketization performs.
            let mut values: Vec<u32> = g.rows.iter().map(|&r| table.sensitive_value(r)).collect();
            values.sort_unstable();
            for s in values {
                writeln!(writer, "{gi},{labels},{}", sens.display_value(s))?;
            }
        }
        Ok(())
    }

    /// Render the published table as text, one group per block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (gi, g) in self.iter().enumerate() {
            let labels = g.generalized_labels(&self.schema).join(", ");
            out.push_str(&format!("group {gi} (n={}): [{labels}] — ", g.len()));
            let sens = self.schema.sensitive_attribute();
            let values: Vec<String> = g
                .sensitive_counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(s, &c)| format!("{}×{}", sens.display_value(s as u32), c))
                .collect();
            out.push_str(&values.join(", "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(g: &Group) -> GroupRef<'_> {
        GroupRef {
            rows: &g.rows,
            ranges: &g.ranges,
            sensitive_counts: &g.sensitive_counts,
        }
    }
    use bgkanon_data::toy;

    #[test]
    fn group_from_rows_computes_ranges() {
        let t = toy::hospital_table();
        let g = Group::from_rows(&t, vec![0, 1, 2]);
        // Ages 69, 45, 52 → codes 29, 5, 12 over domain 40..70.
        assert_eq!(g.ranges[0], QiRange { min: 5, max: 29 });
        // Sexes M, F, F → codes {0, 1}.
        assert_eq!(g.ranges[1], QiRange { min: 0, max: 1 });
        assert_eq!(g.sensitive_counts, vec![1, 1, 1, 0]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn generalized_labels_match_paper_table_1b() {
        let t = toy::hospital_table();
        let schema = t.schema();
        let g1 = Group::from_rows(&t, vec![0, 1, 2]);
        assert_eq!(view(&g1).generalized_labels(schema), vec!["[45,69]", "Sex"]);
        let g2 = Group::from_rows(&t, vec![3, 4, 5]);
        assert_eq!(view(&g2).generalized_labels(schema), vec!["[42,47]", "F"]);
        let g3 = Group::from_rows(&t, vec![6, 7, 8]);
        assert_eq!(view(&g3).generalized_labels(schema), vec!["[50,56]", "M"]);
    }

    #[test]
    fn qi_range_helpers() {
        let r = QiRange { min: 3, max: 7 };
        assert!(r.contains(3) && r.contains(7) && r.contains(5));
        assert!(!r.contains(2) && !r.contains(8));
        assert_eq!(r.width(), 5);
    }

    #[test]
    fn anonymized_table_validates_partition() {
        let t = toy::hospital_table();
        let groups: Vec<Group> = toy::hospital_groups()
            .into_iter()
            .map(|rows| Group::from_rows(&t, rows))
            .collect();
        let at = AnonymizedTable::new(&t, groups);
        assert_eq!(at.group_count(), 3);
        assert_eq!(at.len(), 9);
        assert!((at.average_group_size() - 3.0).abs() < 1e-12);
        assert_eq!(at.row_groups().len(), 3);
        let rendered = at.render();
        assert!(rendered.contains("group 0"));
        assert!(rendered.contains("Emphysema"));
    }

    #[test]
    fn csv_export_publishes_sorted_multisets() {
        let t = toy::hospital_table();
        let groups: Vec<Group> = toy::hospital_groups()
            .into_iter()
            .map(|rows| Group::from_rows(&t, rows))
            .collect();
        let at = AnonymizedTable::new(&t, groups);
        let mut out = Vec::new();
        at.write_csv(&t, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "group,Age,Sex,Disease");
        // 9 tuples + header.
        assert_eq!(lines.len(), 10);
        // First group publishes [45,69] / Sex with its three diseases in
        // code order (Emphysema < Cancer < Flu) — the association with
        // specific rows is gone.
        assert_eq!(lines[1], "0,[45,69],Sex,Emphysema");
        assert_eq!(lines[2], "0,[45,69],Sex,Cancer");
        assert_eq!(lines[3], "0,[45,69],Sex,Flu");
    }

    fn hospital_published() -> (Table, AnonymizedTable) {
        let t = toy::hospital_table();
        let groups: Vec<Group> = toy::hospital_groups()
            .into_iter()
            .map(|rows| Group::from_rows(&t, rows))
            .collect();
        let at = AnonymizedTable::new(&t, groups);
        (t, at)
    }

    #[test]
    fn views_borrow_the_flat_arrays() {
        let (t, at) = hospital_published();
        let first = at.group(0);
        assert_eq!(first.rows, &[0, 1, 2]);
        assert_eq!(first.ranges, Group::from_rows(&t, vec![0, 1, 2]).ranges);
        assert_eq!(first.sensitive_counts, &[1, 1, 1, 0]);
        let sizes: Vec<usize> = at.iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![3, 3, 3]);
        for (got, owned) in at.iter().zip(at.groups()) {
            assert_eq!(got, view(owned));
        }
    }

    #[test]
    fn bytes_accounted_follows_the_documented_formula() {
        let (t, at) = hospital_published();
        let (n, groups) = (t.len(), at.group_count());
        let (d, m) = (t.qi_count(), t.schema().sensitive_domain_size());
        assert_eq!(
            at.bytes_accounted(),
            n * 8 + groups * (8 + d * 8 + m * 4) + 64
        );
        // The lazily built owned view is not charged.
        let _ = at.groups();
        assert_eq!(
            at.bytes_accounted(),
            n * 8 + groups * (8 + d * 8 + m * 4) + 64
        );
    }

    #[test]
    fn equality_compares_groups_in_order() {
        let (t, at) = hospital_published();
        let (_, again) = hospital_published();
        assert!(at == again && at == at.clone());
        let mut reordered: Vec<Group> = at.groups().to_vec();
        reordered.swap(0, 1);
        assert!(at != AnonymizedTable::new(&t, reordered));
        let whole = AnonymizedTable::new(&t, vec![Group::from_rows(&t, (0..9).collect())]);
        assert!(at != whole);
    }

    #[test]
    fn empty_categorical_range_labels_as_an_interval() {
        let t = toy::hospital_table();
        let schema = t.schema();
        // Sex is categorical; a caller-built range with min > max covers
        // no code, so it has no common ancestor.
        let mut g = Group::from_rows(&t, vec![0, 1, 2]);
        g.ranges[1] = QiRange { min: 1, max: 0 };
        assert_eq!(
            view(&g).generalized_labels(schema),
            vec!["[45,69]", "[M,F]"]
        );
    }

    #[test]
    #[should_panic(expected = "cover every row")]
    fn incomplete_partition_rejected() {
        let t = toy::hospital_table();
        let groups = vec![Group::from_rows(&t, vec![0, 1, 2])];
        let _ = AnonymizedTable::new(&t, groups);
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn overlapping_partition_rejected() {
        let t = toy::hospital_table();
        let all: Vec<usize> = (0..9).collect();
        let groups = vec![
            Group::from_rows(&t, all.clone()),
            Group::from_rows(&t, vec![0]),
        ];
        let _ = AnonymizedTable::new(&t, groups);
    }
}
