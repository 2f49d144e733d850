//! Row-level [`Delta`]s: validated batches of inserts and deletes that evolve
//! a [`Table`] between two publications.
//!
//! The paper's threat model is a publisher that releases microdata
//! repeatedly as the underlying table changes. A [`Delta`] captures one step
//! of that evolution — a set of rows to remove (addressed by their current
//! row indices) plus a batch of new rows to append — in a form the
//! incremental publishing engine can route through a retained partition
//! tree. [`Table::apply_delta`] materializes the step from scratch:
//! surviving rows keep their relative order and the inserts are appended,
//! which is exactly the table an equivalent one-shot rebuild would produce.
//!
//! ```
//! use std::sync::Arc;
//! use bgkanon_data::{Attribute, DeltaBuilder, Schema, TableBuilder};
//!
//! let schema = Arc::new(Schema::new(
//!     vec![Attribute::numeric_range("Age", 20, 60).unwrap()],
//!     Attribute::categorical_flat("Disease", &["Flu", "HIV"]).unwrap(),
//! ).unwrap());
//! let mut builder = TableBuilder::new(Arc::clone(&schema));
//! builder.push_text(&["25", "Flu"]).unwrap();
//! builder.push_text(&["40", "HIV"]).unwrap();
//! let table = builder.build().unwrap();
//!
//! // Delete row 0, insert a 55-year-old with Flu.
//! let mut delta = DeltaBuilder::new(Arc::clone(&schema));
//! delta.delete(0);
//! delta.insert_codes(&[35], 0).unwrap(); // age 55 over 20..=60, Flu
//! let delta = delta.build();
//! assert_eq!(delta.delete_count(), 1);
//! assert_eq!(delta.insert_count(), 1);
//!
//! let next = table.apply_delta(&delta).unwrap();
//! assert_eq!(next.len(), 2);
//! // Survivors keep their order; inserts are appended.
//! assert_eq!(next.qi(0), table.qi(1));
//! assert_eq!(next.qi(1), &[35]); // code of age 55 over domain 20..=60
//! ```

use std::sync::Arc;

use crate::error::DataError;
use crate::schema::Schema;
use crate::table::Table;

/// A validated batch of row deletions and insertions against one schema.
///
/// Deletes are **row indices into the table the delta will be applied to**
/// (the pre-delta table); inserts are fully encoded rows appended after the
/// survivors. Build one with [`DeltaBuilder`].
#[derive(Debug, Clone)]
pub struct Delta {
    schema: Arc<Schema>,
    /// Sorted, deduplicated row indices to remove.
    deletes: Vec<usize>,
    /// Row-major QI codes of the inserted rows.
    insert_qi: Vec<u32>,
    /// Sensitive code of each inserted row.
    insert_sensitive: Vec<u32>,
}

impl Delta {
    /// The schema the inserted rows were validated against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Row indices to delete, sorted ascending and deduplicated.
    pub fn deletes(&self) -> &[usize] {
        &self.deletes
    }

    /// Number of rows deleted.
    pub fn delete_count(&self) -> usize {
        self.deletes.len()
    }

    /// Number of rows inserted.
    pub fn insert_count(&self) -> usize {
        self.insert_sensitive.len()
    }

    /// QI codes of inserted row `i` (in insertion order).
    pub fn insert_qi(&self, i: usize) -> &[u32] {
        let d = self.schema.qi_count();
        &self.insert_qi[i * d..(i + 1) * d]
    }

    /// Sensitive code of inserted row `i`.
    pub fn insert_sensitive(&self, i: usize) -> u32 {
        self.insert_sensitive[i]
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.insert_sensitive.is_empty()
    }

    /// Total number of row changes (deletes + inserts).
    pub fn len(&self) -> usize {
        self.delete_count() + self.insert_count()
    }
}

/// Builder for [`Delta`], validating inserted rows against the schema as
/// they are added (the same checks [`TableBuilder`](crate::TableBuilder) performs).
#[derive(Debug)]
pub struct DeltaBuilder {
    schema: Arc<Schema>,
    deletes: Vec<usize>,
    insert_qi: Vec<u32>,
    insert_sensitive: Vec<u32>,
}

impl DeltaBuilder {
    /// Start an empty delta over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        DeltaBuilder {
            schema,
            deletes: Vec::new(),
            insert_qi: Vec::new(),
            insert_sensitive: Vec::new(),
        }
    }

    /// Mark row `row` (an index into the pre-delta table) for deletion.
    /// Duplicate marks are folded; bounds are checked at
    /// [`Table::apply_delta`] time, when the target table is known.
    pub fn delete(&mut self, row: usize) -> &mut Self {
        self.deletes.push(row);
        self
    }

    /// Append a row of already-encoded codes to the insert batch.
    pub fn insert_codes(&mut self, qi: &[u32], sensitive: u32) -> Result<&mut Self, DataError> {
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
        self.insert_qi.extend_from_slice(qi);
        self.insert_sensitive.push(sensitive);
        Ok(self)
    }

    /// Number of deletes marked so far (before deduplication).
    pub fn delete_count(&self) -> usize {
        self.deletes.len()
    }

    /// Number of rows in the insert batch so far.
    pub fn insert_count(&self) -> usize {
        self.insert_sensitive.len()
    }

    /// Finish building: deletes are sorted and deduplicated. An empty delta
    /// is valid (applying it is the identity).
    pub fn build(mut self) -> Delta {
        self.deletes.sort_unstable();
        self.deletes.dedup();
        Delta {
            schema: self.schema,
            deletes: self.deletes,
            insert_qi: self.insert_qi,
            insert_sensitive: self.insert_sensitive,
        }
    }
}

impl Table {
    /// Apply `delta`, producing the table an equivalent from-scratch build
    /// would yield: rows not deleted, in their current order, followed by
    /// the inserted rows in insertion order.
    ///
    /// Fails with [`DataError::RowOutOfRange`] when a delete index is out of
    /// bounds, with a validation error when an inserted row does not fit
    /// this table's schema, and with [`DataError::EmptyTable`] when the
    /// result would have no rows. The original table is never modified.
    pub fn apply_delta(&self, delta: &Delta) -> Result<Table, DataError> {
        for &row in delta.deletes() {
            if row >= self.len() {
                return Err(DataError::RowOutOfRange {
                    row,
                    rows: self.len(),
                });
            }
        }
        let d = self.qi_count();
        let survivors = self.len() - delta.delete_count();
        let final_rows = survivors + delta.insert_count();
        if final_rows == 0 {
            return Err(DataError::EmptyTable);
        }
        // Inserts are re-validated against *this* table's schema, up front:
        // the delta may have been built against a structurally identical
        // but distinct schema instance (e.g. re-read from CSV).
        for i in 0..delta.insert_count() {
            let qi = delta.insert_qi(i);
            if qi.len() != d {
                return Err(DataError::ArityMismatch {
                    expected: d + 1,
                    found: qi.len() + 1,
                    line: 0,
                });
            }
            for (a, &code) in qi.iter().enumerate() {
                self.schema().qi_attribute(a).check_code(code)?;
            }
            self.schema()
                .sensitive_attribute()
                .check_code(delta.insert_sensitive(i))?;
        }
        // Survivors are copied block-wise between deletes, one column at a
        // time — they came from this table, so no re-validation is needed.
        let survivors_of = |src: &[u32]| {
            let mut col = Vec::with_capacity(final_rows);
            let mut start = 0usize;
            for &del in delta.deletes() {
                col.extend_from_slice(&src[start..del]);
                start = del + 1;
            }
            col.extend_from_slice(&src[start..]);
            col
        };
        let cols = (0..d)
            .map(|a| {
                let mut col = survivors_of(self.qi_col(a).as_slice());
                col.extend((0..delta.insert_count()).map(|i| delta.insert_qi(i)[a]));
                col
            })
            .collect();
        let mut sensitive = survivors_of(self.sensitive_col());
        sensitive.extend((0..delta.insert_count()).map(|i| delta.insert_sensitive(i)));
        Ok(Table::from_raw_columns(
            Arc::clone(self.schema()),
            cols,
            sensitive,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::table::TableBuilder;

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
    fn empty_delta_is_identity() {
        let t = sample();
        let d = DeltaBuilder::new(Arc::clone(t.schema())).build();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        let u = t.apply_delta(&d).unwrap();
        assert_eq!(u.len(), t.len());
        for r in 0..t.len() {
            assert_eq!(u.qi(r), t.qi(r));
            assert_eq!(u.sensitive_value(r), t.sensitive_value(r));
        }
    }

    #[test]
    fn deletes_preserve_survivor_order() {
        let t = sample();
        let mut b = DeltaBuilder::new(schema());
        b.delete(2).delete(0).delete(2); // duplicates fold
        let d = b.build();
        assert_eq!(d.deletes(), &[0, 2]);
        let u = t.apply_delta(&d).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.sensitive_value(0), t.sensitive_value(1));
        assert_eq!(u.qi(1), t.qi(3));
    }

    #[test]
    fn inserts_append_after_survivors() {
        let t = sample();
        let mut b = DeltaBuilder::new(schema());
        b.delete(3);
        b.insert_codes(&[25, 0], 2).unwrap();
        b.insert_codes(&[0, 1], 0).unwrap();
        let d = b.build();
        assert_eq!(d.insert_count(), 2);
        assert_eq!(d.insert_qi(0), &[25, 0]);
        assert_eq!(d.insert_sensitive(0), 2);
        let u = t.apply_delta(&d).unwrap();
        assert_eq!(u.len(), 5);
        assert_eq!(u.qi(3), &[25, 0]);
        assert_eq!(u.qi(4), &[0, 1]);
        assert_eq!(u.sensitive_value(4), 0);
    }

    #[test]
    fn out_of_range_delete_rejected() {
        let t = sample();
        let mut b = DeltaBuilder::new(schema());
        b.delete(4);
        let err = t.apply_delta(&b.build()).unwrap_err();
        assert!(matches!(err, DataError::RowOutOfRange { row: 4, rows: 4 }));
    }

    #[test]
    fn delete_all_yields_empty_table_error() {
        let t = sample();
        let mut b = DeltaBuilder::new(schema());
        for r in 0..t.len() {
            b.delete(r);
        }
        assert!(matches!(
            t.apply_delta(&b.build()),
            Err(DataError::EmptyTable)
        ));
    }

    #[test]
    fn builder_validates_inserts() {
        let mut b = DeltaBuilder::new(schema());
        assert!(b.insert_codes(&[0], 0).is_err());
        assert!(b.insert_codes(&[0, 5], 0).is_err());
        assert!(b.insert_codes(&[0, 0], 9).is_err());
        assert_eq!(b.insert_count(), 0);
        assert_eq!(b.delete_count(), 0);
    }

    #[test]
    fn cross_schema_inserts_are_revalidated_at_apply() {
        // A delta built over a *smaller* schema instance: codes valid there
        // may be invalid here and must be rejected at apply time.
        let tiny = Arc::new(
            Schema::new(
                vec![
                    Attribute::numeric_range("Age", 20, 200).unwrap(),
                    Attribute::categorical_flat("Sex", &["F", "M"]).unwrap(),
                ],
                Attribute::categorical_flat("Disease", &["Flu", "Cancer", "HIV"]).unwrap(),
            )
            .unwrap(),
        );
        let mut b = DeltaBuilder::new(tiny);
        b.insert_codes(&[150, 0], 0).unwrap(); // age code 150 valid over 20..=200
        let err = sample().apply_delta(&b.build()).unwrap_err();
        assert!(matches!(err, DataError::CodeOutOfRange { .. }));
    }
}
