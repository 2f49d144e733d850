//! Property tests of the production engines: for every table, requirement
//! and worker count — `Serial` (one worker, on the calling thread), `Auto`
//! and an explicit count — the work-stealing Mondrian and the batched
//! auditor must be **bit-identical** to the paper transcriptions they are
//! checked against, `Mondrian::plant_reference` and
//! `Auditor::tuple_risks_reference`/`report_reference`.

use std::sync::Arc;

use proptest::prelude::*;

use bgkanon::data::{adult, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;
use bgkanon::privacy::{And, DistinctLDiversity};

/// The knobs every engine is checked under.
fn knobs(workers: usize) -> [Parallelism; 3] {
    [
        Parallelism::Serial,
        Parallelism::Auto,
        Parallelism::threads(workers),
    ]
}

/// The groups of the reference k-anonymous Mondrian plant of `table`.
fn reference_groups(table: &Table, k: usize) -> Vec<Vec<usize>> {
    Mondrian::new(Arc::new(KAnonymity::new(k)))
        .plant_reference(table)
        .to_anonymized(table)
        .row_groups()
}

/// The paper-default auditor against `Adv(b)` of `table`.
fn kernel_auditor(table: &Table, b: f64) -> Auditor {
    let adversary = Arc::new(Adversary::kernel(
        table,
        Bandwidth::uniform(b, table.qi_count()).unwrap(),
    ));
    let measure = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    Auditor::new(adversary, measure)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_mondrian_equals_serial(
        rows in 40usize..400,
        seed in 0u64..1000,
        k in 2usize..9,
        workers in 1usize..5,
    ) {
        let table = adult::generate(rows, seed);
        let mondrian = Mondrian::new(Arc::new(KAnonymity::new(k)));
        let reference = mondrian.plant_reference(&table).to_anonymized(&table);
        for par in knobs(workers) {
            let planted = mondrian.plant_with(&table, par).to_anonymized(&table);
            prop_assert_eq!(
                reference.first_difference(&planted),
                None,
                "rows={rows} seed={seed} k={k} {par:?}"
            );
        }
    }

    #[test]
    fn parallel_mondrian_equals_serial_under_composite_requirements(
        rows in 60usize..300,
        seed in 0u64..500,
        workers in 1usize..4,
    ) {
        let table = adult::generate(rows, seed);
        let req = And::pair(KAnonymity::new(4), DistinctLDiversity::new(2));
        let mondrian = Mondrian::new(Arc::new(req));
        let reference = mondrian.plant_reference(&table).to_anonymized(&table);
        for par in knobs(workers) {
            let planted = mondrian.plant_with(&table, par).to_anonymized(&table);
            prop_assert_eq!(
                reference.first_difference(&planted),
                None,
                "rows={rows} seed={seed} {par:?}"
            );
        }
    }

    #[test]
    fn batched_audit_equals_serial_bitwise(
        rows in 40usize..250,
        seed in 0u64..500,
        k in 2usize..7,
        workers in 1usize..4,
        bandwidth in 0.15f64..0.6,
    ) {
        let table = adult::generate(rows, seed);
        let groups = reference_groups(&table, k);
        let auditor = kernel_auditor(&table, bandwidth);
        let reference = auditor.tuple_risks_reference(&table, &groups);
        for par in knobs(workers) {
            let batched = auditor.tuple_risks_with(&table, &groups, par);
            prop_assert_eq!(reference.len(), batched.len());
            for (row, (s, b)) in reference.iter().zip(&batched).enumerate() {
                prop_assert!(
                    s.to_bits() == b.to_bits(),
                    "row {} diverges: {} vs {} (rows={} seed={} k={} {:?})",
                    row, s, b, rows, seed, k, par
                );
            }
        }
    }

    #[test]
    fn parallel_plant_equals_serial_tree(
        rows in 40usize..300,
        seed in 0u64..500,
        k in 2usize..8,
        workers in 1usize..5,
    ) {
        // `plant_with` grows the retained tree a session keeps: every
        // knob's tree must induce the reference tree's partition. (Leaf
        // stamps are per-tree cache tokens in allocation order — schedule-
        // specific by design — so only their shape is asserted: one unique
        // stamp per group.)
        let table = adult::generate(rows, seed);
        let mondrian = Mondrian::new(Arc::new(KAnonymity::new(k)));
        let (reference, _) = mondrian.plant_reference(&table).snapshot(&table);
        for par in knobs(workers) {
            let (planted, stamps) = mondrian.plant_with(&table, par).snapshot(&table);
            prop_assert_eq!(
                reference.first_difference(&planted),
                None,
                "rows={rows} seed={seed} k={k} {par:?}"
            );
            prop_assert_eq!(stamps.len(), planted.group_count());
            let mut unique: Vec<u64> = stamps.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), stamps.len());
        }
    }

    #[test]
    fn batched_report_equals_serial_report_bitwise(
        rows in 40usize..200,
        seed in 0u64..400,
        k in 2usize..7,
        workers in 1usize..4,
    ) {
        // `report_with` aggregates `tuple_risks_with`; the assembled
        // worst-case/mean/vulnerable numbers must be bit-identical too.
        let table = adult::generate(rows, seed);
        let groups = reference_groups(&table, k);
        let auditor = kernel_auditor(&table, 0.3);
        let reference = auditor.report_reference(&table, &groups, 0.2);
        prop_assert_eq!(reference.first_difference(&auditor.report(&table, &groups, 0.2)), None);
        for par in knobs(workers) {
            let batched = auditor.report_with(&table, &groups, 0.2, par);
            prop_assert_eq!(reference.first_difference(&batched), None, "{:?}", par);
        }
    }
}

#[test]
fn publisher_parallelism_knob_is_transparent_end_to_end() {
    // The full pipeline — publish then audit — through the Publisher knob:
    // every knob must match the reference plant and the reference audit
    // bit-for-bit on groups and report numbers.
    let table = adult::generate(600, 13);
    let groups = reference_groups(&table, 5);
    let reference = Mondrian::new(Arc::new(KAnonymity::new(5)))
        .plant_reference(&table)
        .to_anonymized(&table);
    let reference_report = kernel_auditor(&table, 0.3).report_reference(&table, &groups, 0.2);
    for par in knobs(3) {
        let outcome = Publisher::new()
            .k_anonymity(5)
            .parallelism(par)
            .publish(&table)
            .expect("satisfiable");
        assert_eq!(
            reference.first_difference(&outcome.anonymized),
            None,
            "{par:?}"
        );
        let report = outcome
            .audit_against(&table, 0.3, 0.2)
            .expect("valid bandwidth");
        assert_eq!(reference_report.first_difference(&report), None, "{par:?}");
    }
}
