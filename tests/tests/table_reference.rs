//! Reference property tests for the table's column-scan kernels. Across
//! arbitrary delta sequences, every fast path must agree **bit for bit**
//! with a naive transcription of what it computes:
//!
//! * `qi_sorted_rows` (the counting-sort spine) with a stable
//!   `sort_by_key` on the gathered QI codes;
//! * `group_by_qi` with a `BTreeMap` entry loop over the rows;
//! * `apply_delta`'s block copies with a `TableBuilder` rebuilt from the
//!   survivors plus the inserts;
//! * `FoldedTable::with_row_points` with `group_by_qi`;
//! * the one-worker batched audit with `Auditor::tuple_risks_reference`.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table, TableBuilder};
use bgkanon::knowledge::{Adversary, Bandwidth, FoldedTable};
use bgkanon::privacy::Auditor;
use bgkanon::stats::SmoothedJs;
use bgkanon::Publisher;

/// The counting-sort spine against a stable comparison sort.
fn check_sorted_rows(table: &Table) -> Result<(), TestCaseError> {
    let mut expected: Vec<u32> = (0..table.len() as u32).collect();
    expected.sort_by_key(|&r| table.qi(r as usize));
    prop_assert_eq!(table.qi_sorted_rows(), expected, "qi_sorted_rows order");
    Ok(())
}

/// `group_by_qi` against a naive map built row by row.
fn check_group_by(table: &Table) -> Result<(), TestCaseError> {
    let mut expected: BTreeMap<Box<[u32]>, Vec<usize>> = BTreeMap::new();
    for row in 0..table.len() {
        expected
            .entry(table.qi(row).into_boxed_slice())
            .or_default()
            .push(row);
    }
    prop_assert!(table.group_by_qi() == expected, "group_by_qi diverges");
    Ok(())
}

/// The estimator's fold against `group_by_qi`: same points in the same
/// order, same multiplicities, histograms and row → point map.
fn check_fold(table: &Table) -> Result<(), TestCaseError> {
    let groups = table.group_by_qi();
    let (folded, row_points) = FoldedTable::with_row_points(table);
    prop_assert_eq!(folded.len(), groups.len(), "fold size");
    prop_assert_eq!(folded.rows(), table.len(), "fold row total");
    for (i, (codes, rows)) in groups.iter().enumerate() {
        let point = folded.point(i);
        prop_assert_eq!(point.qi(), codes.as_ref(), "fold key {}", i);
        prop_assert_eq!(point.count() as usize, rows.len(), "fold count {}", i);
        let histogram = table.sensitive_counts_in(rows);
        prop_assert_eq!(
            point.sensitive_counts(),
            histogram.as_slice(),
            "fold histogram {}",
            i
        );
        for &r in rows {
            prop_assert_eq!(row_points[r] as usize, i, "row_points[{}]", r);
        }
    }
    Ok(())
}

/// Publish, then audit with both reference adversaries: the batched
/// engine on one worker must reproduce the §V.A transcription bit for bit.
fn check_audit(table: &Table) -> Result<(), TestCaseError> {
    let publisher = Publisher::new()
        .k_anonymity(5)
        .parallelism(Parallelism::Serial);
    let Ok(outcome) = publisher.publish(table) else {
        return Ok(()); // unsatisfiable: nothing to audit
    };
    let groups = outcome.anonymized.row_groups();
    let measure: Arc<dyn bgkanon::stats::BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let bandwidth = Bandwidth::uniform(0.25, table.qi_count()).expect("positive bandwidth");
    let adversaries = [
        Adversary::kernel(table, bandwidth),
        Adversary::t_closeness(table),
    ];
    for adversary in adversaries {
        let auditor = Auditor::new(Arc::new(adversary), Arc::clone(&measure));
        let inline = auditor.tuple_risks_with(table, &groups, Parallelism::Serial);
        let reference = auditor.tuple_risks_reference(table, &groups);
        for (row, (a, b)) in inline.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "audit risk at row {}", row);
        }
    }
    Ok(())
}

/// `apply_delta` against a builder fed the survivors, then the inserts.
fn check_apply_delta(table: &Table, delta: &Delta, next: &Table) -> Result<(), TestCaseError> {
    let mut builder = TableBuilder::new(Arc::clone(table.schema()));
    let mut deleted = delta.deletes().iter().peekable();
    for row in 0..table.len() {
        if deleted.next_if_eq(&&row).is_none() {
            builder
                .push_codes(&table.qi(row), table.sensitive_value(row))
                .expect("survivor codes are valid");
        }
    }
    for i in 0..delta.insert_count() {
        builder
            .push_codes(delta.insert_qi(i), delta.insert_sensitive(i))
            .expect("insert codes are valid");
    }
    let expected = builder.build().expect("non-empty");
    prop_assert_eq!(next.len(), expected.len(), "row count after delta");
    for a in 0..table.qi_count() {
        prop_assert_eq!(
            next.qi_col(a).as_slice(),
            expected.qi_col(a).as_slice(),
            "column {} after delta",
            a
        );
    }
    prop_assert_eq!(next.sensitive_col(), expected.sensitive_col());
    Ok(())
}

/// A pseudo-random delta over `table`: some rows deleted, some fresh
/// synthetic rows appended, plus copies of existing rows so every step
/// carries tied QI combinations for the stability checks to see.
fn random_delta(table: &Table, rng: &mut SmallRng, del_frac: f64, inserts: usize) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if rng.gen_bool(del_frac) {
            builder.delete(row);
        }
    }
    let donors = adult::generate(inserts.max(1), rng.gen::<u64>());
    for r in 0..inserts {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
        let copy = rng.gen_range(0..table.len());
        builder
            .insert_codes(&table.qi(copy), table.sensitive_value(copy))
            .expect("existing rows share the schema");
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn column_kernels_match_references_across_delta_sequences(
        rows in 60usize..240,
        seed in 0u64..500,
        steps in 1usize..4,
    ) {
        let mut table = adult::generate(rows, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc01a_bdef);
        for step in 0..=steps {
            check_sorted_rows(&table)?;
            check_group_by(&table)?;
            check_fold(&table)?;
            check_audit(&table)?;
            if step == steps {
                break;
            }
            let delta = random_delta(&table, &mut rng, 0.05, 3 + step);
            let next = table.apply_delta(&delta).expect("inserts keep the table non-empty");
            check_apply_delta(&table, &delta, &next)?;
            table = next;
        }
    }
}
