//! The microdata [`Table`]: encoded rows over a [`Schema`].
//!
//! Codes are stored **columnar**: one flat `Vec<u32>` per QI attribute plus
//! a parallel `Vec<u32>` of sensitive codes. The hot kernels — Mondrian's
//! counting-sort splits, the group-by-QI signature pass, the kernel
//! estimator's fold — all iterate attribute-wise, so a column is consumed
//! as one sequential scan instead of a stride-`d` walk that wastes most of
//! each cache line. Every column sits behind its own `Arc`: a table is
//! immutable once built, so cloning one is O(d) pointer bumps — the serving
//! layer hands every reader thread its own `Table` handle of the version it
//! is auditing without copying row data.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::DataError;
use crate::schema::Schema;

/// An immutable, validated microdata table.
///
/// ```
/// use std::sync::Arc;
/// use bgkanon_data::{Attribute, Schema, TableBuilder};
///
/// let schema = Arc::new(Schema::new(
///     vec![Attribute::numeric_range("Age", 20, 60).unwrap()],
///     Attribute::categorical_flat("Disease", &["Flu", "HIV"]).unwrap(),
/// ).unwrap());
/// let mut builder = TableBuilder::new(schema);
/// builder.push_text(&["25", "Flu"]).unwrap();
/// builder.push_text(&["40", "HIV"]).unwrap();
/// let table = builder.build().unwrap();
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.sensitive_distribution(), vec![0.5, 0.5]);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    /// `cols[attr][row]`; each column shared independently.
    cols: Vec<Arc<Vec<u32>>>,
    /// Sensitive code per row. Shared like the QI columns.
    sensitive: Arc<Vec<u32>>,
}

/// A borrowed, zero-cost accessor for one QI attribute's contiguous code
/// column. Hot loops hoist one `QiCol` per dimension and call
/// [`get`](Self::get) per row; flat kernels scan
/// [`as_slice`](Self::as_slice).
#[derive(Debug, Clone, Copy)]
pub struct QiCol<'a> {
    data: &'a [u32],
}

impl<'a> QiCol<'a> {
    /// Code of `row` on this attribute.
    #[inline(always)]
    pub fn get(&self, row: usize) -> u32 {
        self.data[row]
    }

    /// The whole column as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &'a [u32] {
        self.data
    }
}

impl Table {
    /// Number of rows `n`.
    pub fn len(&self) -> usize {
        self.sensitive.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.sensitive.is_empty()
    }

    /// The table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of QI attributes `d`.
    pub fn qi_count(&self) -> usize {
        self.schema.qi_count()
    }

    /// Heap bytes of this table's code storage (QI columns + sensitive
    /// column). The buffers are `Arc`-shared — an O(1)-cloned table charges
    /// the same payload to every holder — so this is an accounting proxy
    /// the serving hub rolls into per-tenant memory gauges, not an
    /// allocator-exact RSS measurement.
    pub fn bytes_accounted(&self) -> usize {
        let qi: usize = self.cols.iter().map(|c| c.len() * 4 + 32).sum();
        qi + self.sensitive.len() * 4 + 32
    }

    /// Accessor for attribute `attr`'s codes.
    #[inline]
    pub fn qi_col(&self, attr: usize) -> QiCol<'_> {
        QiCol {
            data: &self.cols[attr],
        }
    }

    /// QI codes of row `row`, gathered in attribute order. Allocates; hot
    /// per-row paths should reuse a buffer via [`qi_into`](Self::qi_into)
    /// or hoist [`qi_col`](Self::qi_col) accessors per dimension.
    pub fn qi(&self, row: usize) -> Vec<u32> {
        let mut buf = Vec::with_capacity(self.schema.qi_count());
        self.qi_into(row, &mut buf);
        buf
    }

    /// Fill `buf` with row `row`'s QI codes, reusing its allocation.
    #[inline]
    pub fn qi_into(&self, row: usize, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c[row]));
    }

    /// QI code of row `row` on attribute `attr`.
    #[inline]
    pub fn qi_value(&self, row: usize, attr: usize) -> u32 {
        self.cols[attr][row]
    }

    /// Sensitive code of row `row`.
    #[inline]
    pub fn sensitive_value(&self, row: usize) -> u32 {
        self.sensitive[row]
    }

    /// The sensitive-code column.
    #[inline]
    pub fn sensitive_col(&self) -> &[u32] {
        &self.sensitive
    }

    /// Counts of each sensitive value over the whole table
    /// (`counts[s]` = number of rows with sensitive code `s`).
    pub fn sensitive_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.schema.sensitive_domain_size()];
        for &s in self.sensitive.iter() {
            counts[s as usize] += 1;
        }
        counts
    }

    /// The overall distribution `Q` of the sensitive attribute — the
    /// t-closeness reference distribution.
    pub fn sensitive_distribution(&self) -> Vec<f64> {
        let counts = self.sensitive_counts();
        let n = self.len() as f64;
        counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Counts of each sensitive value restricted to `rows`.
    pub fn sensitive_counts_in(&self, rows: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.schema.sensitive_domain_size()];
        self.sensitive_counts_into(rows, &mut counts);
        counts
    }

    /// Fill `counts` with the sensitive histogram of `rows`, reusing the
    /// buffer's allocation (the hot-path variant of
    /// [`sensitive_counts_in`](Self::sensitive_counts_in); the parallel
    /// Mondrian engine calls this once per candidate split).
    pub fn sensitive_counts_into(&self, rows: &[usize], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.schema.sensitive_domain_size(), 0);
        for &r in rows {
            counts[self.sensitive[r] as usize] += 1;
        }
    }

    /// Row indices `0..n` sorted lexicographically by their QI codes,
    /// stably (equal rows keep ascending index order). Implemented as one
    /// stable counting-sort pass per attribute, last attribute first — each
    /// pass is a flat scan of one contiguous column. This is the shared
    /// spine of [`group_by_qi`](Self::group_by_qi) and the kernel
    /// estimator's fold.
    pub fn qi_sorted_rows(&self) -> Vec<u32> {
        let n = self.len();
        let d = self.schema.qi_count();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        if d == 0 || n <= 1 {
            return perm;
        }
        let mut tmp = vec![0u32; n];
        let mut starts: Vec<u32> = Vec::new();
        for attr in (0..d).rev() {
            let col: &[u32] = &self.cols[attr];
            let dom = self.schema.qi_attribute(attr).domain_size() as usize;
            // Histogram, then exclusive prefix sum into per-value cursors.
            starts.clear();
            starts.resize(dom + 1, 0);
            for &v in col {
                starts[v as usize + 1] += 1;
            }
            for v in 1..=dom {
                starts[v] += starts[v - 1];
            }
            // Stable scatter of the current order.
            for &r in &perm {
                let v = col[r as usize] as usize;
                tmp[starts[v] as usize] = r;
                starts[v] += 1;
            }
            std::mem::swap(&mut perm, &mut tmp);
        }
        perm
    }

    /// Group rows by identical QI combinations. Returns an ordered map from
    /// the QI code vector to the list of row indices carrying it. This is
    /// the "distinct QI folding" used by the kernel estimator; the map is a
    /// `BTreeMap` so iteration order is the lexicographic code order —
    /// deterministic across runs and platforms, which keeps audit reports
    /// and serialized outputs built on top of it stable. Rows within a
    /// group are in ascending index order.
    pub fn group_by_qi(&self) -> BTreeMap<Box<[u32]>, Vec<usize>> {
        let d = self.schema.qi_count();
        let order = self.qi_sorted_rows();
        let cols: Vec<QiCol<'_>> = (0..d).map(|a| self.qi_col(a)).collect();
        let mut map: BTreeMap<Box<[u32]>, Vec<usize>> = BTreeMap::new();
        let mut key = vec![0u32; d];
        let mut rows: Vec<usize> = Vec::new();
        for &r in &order {
            let r = r as usize;
            if rows.is_empty() || cols.iter().enumerate().any(|(a, c)| c.get(r) != key[a]) {
                if !rows.is_empty() {
                    map.insert(key.clone().into_boxed_slice(), std::mem::take(&mut rows));
                }
                for (a, c) in cols.iter().enumerate() {
                    key[a] = c.get(r);
                }
            }
            rows.push(r);
        }
        if !rows.is_empty() {
            map.insert(key.into_boxed_slice(), rows);
        }
        map
    }

    /// Restrict the table to `rows` (in the given order), producing a new
    /// table sharing the schema.
    fn subset(&self, rows: &[usize]) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            cols: self
                .cols
                .iter()
                .map(|col| Arc::new(rows.iter().map(|&r| col[r]).collect()))
                .collect(),
            sensitive: Arc::new(rows.iter().map(|&r| self.sensitive[r]).collect()),
        }
    }

    /// Take the first `n` rows (or all rows if fewer).
    pub fn head(&self, n: usize) -> Table {
        let rows: Vec<usize> = (0..self.len().min(n)).collect();
        self.subset(&rows)
    }

    /// Assemble from raw, already-validated column buffers (the synthetic
    /// generator and the delta block-copy path).
    pub(crate) fn from_raw_columns(
        schema: Arc<Schema>,
        cols: Vec<Vec<u32>>,
        sensitive: Vec<u32>,
    ) -> Table {
        debug_assert_eq!(cols.len(), schema.qi_count());
        debug_assert!(cols.iter().all(|c| c.len() == sensitive.len()));
        Table {
            schema,
            cols: cols.into_iter().map(Arc::new).collect(),
            sensitive: Arc::new(sensitive),
        }
    }
}

/// Row-by-row (or chunk-by-chunk) builder for [`Table`], validating codes
/// against the schema. Codes accumulate column by column.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Arc<Schema>,
    cols: Vec<Vec<u32>>,
    sensitive: Vec<u32>,
}

impl TableBuilder {
    /// Start building a table over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let cols = vec![Vec::new(); schema.qi_count()];
        TableBuilder {
            schema,
            cols,
            sensitive: Vec::new(),
        }
    }

    /// Start from the rows of an existing table — the append path used by
    /// publishing sessions to evolve a table without re-encoding it. The
    /// codes are already validated, so this is one buffer copy per column.
    pub fn from_table(table: &Table) -> Self {
        TableBuilder {
            schema: Arc::clone(table.schema()),
            cols: table.cols.iter().map(|c| c.to_vec()).collect(),
            sensitive: table.sensitive.to_vec(),
        }
    }

    /// Append a row of already-encoded codes.
    pub fn push_codes(&mut self, qi: &[u32], sensitive: u32) -> Result<(), DataError> {
        if qi.len() != self.schema.qi_count() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.qi_count() + 1,
                found: qi.len() + 1,
                line: 0,
            });
        }
        for (i, &code) in qi.iter().enumerate() {
            self.schema.qi_attribute(i).check_code(code)?;
        }
        self.schema.sensitive_attribute().check_code(sensitive)?;
        for (col, &code) in self.cols.iter_mut().zip(qi) {
            col.push(code);
        }
        self.sensitive.push(sensitive);
        Ok(())
    }

    /// Append a row of textual values (QI values then the sensitive value).
    pub fn push_text(&mut self, fields: &[&str]) -> Result<(), DataError> {
        let d = self.schema.qi_count();
        if fields.len() != d + 1 {
            return Err(DataError::ArityMismatch {
                expected: d + 1,
                found: fields.len(),
                line: 0,
            });
        }
        let mut qi = Vec::with_capacity(d);
        for (i, f) in fields[..d].iter().enumerate() {
            qi.push(self.schema.qi_attribute(i).encode(f)?);
        }
        let s = self.schema.sensitive_attribute().encode(fields[d])?;
        self.push_codes(&qi, s)
    }

    /// Append a **column chunk**: `qi_cols[attr]` holds the chunk's codes
    /// for one attribute, `sensitive` the chunk's sensitive codes, all of
    /// equal length. Validation is one flat bounds scan per column and the
    /// copy is one `extend_from_slice` per column — the streaming-ingestion
    /// path [`read_csv`](crate::csv::read_csv) feeds, with no intermediate
    /// row materialization. Nothing is appended when any code is invalid.
    pub fn push_chunk(&mut self, qi_cols: &[Vec<u32>], sensitive: &[u32]) -> Result<(), DataError> {
        let d = self.schema.qi_count();
        if qi_cols.len() != d {
            return Err(DataError::ArityMismatch {
                expected: d + 1,
                found: qi_cols.len() + 1,
                line: 0,
            });
        }
        for (a, col) in qi_cols.iter().enumerate() {
            debug_assert_eq!(col.len(), sensitive.len());
            let attr = self.schema.qi_attribute(a);
            for &code in col {
                attr.check_code(code)?;
            }
        }
        let sens_attr = self.schema.sensitive_attribute();
        for &code in sensitive {
            sens_attr.check_code(code)?;
        }
        for (col, chunk) in self.cols.iter_mut().zip(qi_cols) {
            col.extend_from_slice(chunk);
        }
        self.sensitive.extend_from_slice(sensitive);
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.sensitive.len()
    }

    /// True if no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.sensitive.is_empty()
    }

    /// Finish building. Fails on an empty table.
    pub fn build(self) -> Result<Table, DataError> {
        if self.sensitive.is_empty() {
            return Err(DataError::EmptyTable);
        }
        Ok(Table::from_raw_columns(
            self.schema,
            self.cols,
            self.sensitive,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                vec![
                    Attribute::numeric_range("Age", 20, 70).unwrap(),
                    Attribute::categorical_flat("Sex", &["F", "M"]).unwrap(),
                ],
                Attribute::categorical_flat("Disease", &["Flu", "Cancer", "HIV"]).unwrap(),
            )
            .unwrap(),
        )
    }

    fn sample() -> Table {
        let mut b = TableBuilder::new(schema());
        b.push_text(&["25", "F", "Flu"]).unwrap();
        b.push_text(&["25", "F", "Cancer"]).unwrap();
        b.push_text(&["60", "M", "HIV"]).unwrap();
        b.push_text(&["60", "M", "Flu"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.qi_count(), 2);
        assert_eq!(t.qi(0), &[5, 0]);
        assert_eq!(t.sensitive_value(2), 2);
        assert_eq!(t.qi(3), &[40, 1]);
        assert_eq!(t.qi_value(3, 0), 40);
    }

    #[test]
    fn accessors_agree() {
        let t = sample();
        let mut buf = Vec::new();
        for row in 0..t.len() {
            let qi = t.qi(row);
            t.qi_into(row, &mut buf);
            assert_eq!(qi, buf);
            for (a, &code) in qi.iter().enumerate() {
                assert_eq!(t.qi_value(row, a), code);
                assert_eq!(t.qi_col(a).get(row), code);
                assert_eq!(t.qi_col(a).as_slice()[row], code);
            }
        }
    }

    #[test]
    fn sensitive_statistics() {
        let t = sample();
        assert_eq!(t.sensitive_counts(), vec![2, 1, 1]);
        let q = t.sensitive_distribution();
        assert_eq!(q, vec![0.5, 0.25, 0.25]);
        assert_eq!(t.sensitive_counts_in(&[0, 1]), vec![1, 1, 0]);
        assert_eq!(t.sensitive_col(), &[0, 1, 2, 0]);
    }

    #[test]
    fn qi_sorted_rows_is_stable_lexicographic() {
        let mut b = TableBuilder::new(schema());
        b.push_text(&["60", "M", "Flu"]).unwrap(); // (40, 1)
        b.push_text(&["25", "M", "Flu"]).unwrap(); // (5, 1)
        b.push_text(&["25", "F", "Flu"]).unwrap(); // (5, 0)
        b.push_text(&["25", "M", "HIV"]).unwrap(); // (5, 1) — ties row 1
        let t = b.build().unwrap();
        assert_eq!(t.qi_sorted_rows(), vec![2, 1, 3, 0]);
    }

    #[test]
    fn group_by_qi_folds_duplicates() {
        let t = sample();
        let g = t.group_by_qi();
        assert_eq!(g.len(), 2);
        assert_eq!(g[&Box::from([5u32, 0u32])], vec![0, 1]);
        assert_eq!(g[&Box::from([40u32, 1u32])], vec![2, 3]);
        // Iteration is lexicographic in the QI codes — stable across runs.
        let keys: Vec<&Box<[u32]>> = g.keys().collect();
        assert_eq!(keys[0].as_ref(), &[5u32, 0u32]);
        assert_eq!(keys[1].as_ref(), &[40u32, 1u32]);
    }

    #[test]
    fn builder_from_table_appends() {
        let t = sample();
        let mut b = TableBuilder::from_table(&t);
        assert_eq!(b.len(), 4);
        b.push_text(&["30", "F", "HIV"]).unwrap();
        let u = b.build().unwrap();
        assert_eq!(u.len(), 5);
        assert_eq!(u.qi(0), t.qi(0));
        assert_eq!(u.qi(4), &[10, 0]);
        assert_eq!(u.sensitive_value(4), 2);
    }

    #[test]
    fn push_chunk_appends_and_validates() {
        let mut b = TableBuilder::new(schema());
        b.push_chunk(&[vec![5, 40], vec![0, 1]], &[0, 2]).unwrap();
        b.push_chunk(&[vec![10], vec![1]], &[1]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.qi(1), &[40, 1]);
        assert_eq!(t.sensitive_col(), &[0, 2, 1]);
        // Arity and code validation.
        let mut b = TableBuilder::new(schema());
        assert!(b.push_chunk(&[vec![5]], &[0]).is_err());
        assert!(b.push_chunk(&[vec![5], vec![7]], &[0]).is_err());
        assert!(b.push_chunk(&[vec![5], vec![1]], &[9]).is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn subset_and_head() {
        let t = sample();
        let s = t.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sensitive_value(0), 2);
        assert_eq!(s.qi(1), &[5, 0]);
        assert_eq!(t.head(3).len(), 3);
        assert_eq!(t.head(100).len(), 4);
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = TableBuilder::new(schema());
        assert!(b.push_text(&["25", "F"]).is_err());
        assert!(b.push_text(&["25", "X", "Flu"]).is_err());
        assert!(b.push_codes(&[0], 0).is_err());
        assert!(b.push_codes(&[0, 5], 0).is_err());
        assert!(b.push_codes(&[0, 0], 9).is_err());
        assert!(b.is_empty());
        assert!(b.build().is_err());
    }

    #[test]
    fn clone_is_shallow_and_aliases_storage() {
        // The serving layer clones a table per published snapshot; that must
        // share the column buffers, not copy them.
        let t = sample();
        let c = t.clone();
        for a in 0..t.qi_count() {
            assert_eq!(
                t.qi_col(a).as_slice().as_ptr(),
                c.qi_col(a).as_slice().as_ptr()
            );
        }
        assert_eq!(t.sensitive_col().as_ptr(), c.sensitive_col().as_ptr());
        // A builder seeded from the table gets its own buffers.
        let mut b = TableBuilder::from_table(&t);
        b.push_text(&["30", "F", "HIV"]).unwrap();
        let u = b.build().unwrap();
        assert_ne!(
            t.qi_col(0).as_slice().as_ptr(),
            u.qi_col(0).as_slice().as_ptr()
        );
        assert_eq!(t.len(), 4);
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn empty_build_fails() {
        let b = TableBuilder::new(schema());
        assert!(matches!(b.build(), Err(DataError::EmptyTable)));
    }
}
