//! Property tests of the parallel engines: for every table, requirement and
//! worker count, the work-stealing Mondrian and the batched auditor must be
//! **bit-identical** to their single-threaded reference implementations.

use std::sync::Arc;

use proptest::prelude::*;

use bgkanon::data::{adult, Parallelism};
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;
use bgkanon::privacy::{And, DistinctLDiversity};

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
        let serial = mondrian.plant_with(&table, Parallelism::Serial).to_anonymized(&table);
        let parallel = mondrian.plant_with(&table, Parallelism::threads(workers)).to_anonymized(&table);
        prop_assert_eq!(
            serial.first_difference(&parallel),
            None,
            "rows={rows} seed={seed} k={k} workers={workers}"
        );
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
        let serial = mondrian.plant_with(&table, Parallelism::Serial).to_anonymized(&table);
        let parallel = mondrian.plant_with(&table, Parallelism::threads(workers)).to_anonymized(&table);
        prop_assert_eq!(
            serial.first_difference(&parallel),
            None,
            "rows={rows} seed={seed} workers={workers}"
        );
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
        let outcome = Publisher::new()
            .k_anonymity(k)
            .parallelism(Parallelism::Serial)
            .publish(&table)
            .expect("satisfiable");
        let groups = outcome.anonymized.row_groups();
        let adversary = Arc::new(Adversary::kernel(
            &table,
            Bandwidth::uniform(bandwidth, table.qi_count()).unwrap(),
        ));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        let auditor = Auditor::new(adversary, measure);
        let serial = auditor.tuple_risks_with(&table, &groups, Parallelism::Serial);
        let batched =
            auditor.tuple_risks_with(&table, &groups, Parallelism::threads(workers));
        prop_assert_eq!(serial.len(), batched.len());
        for (row, (s, b)) in serial.iter().zip(&batched).enumerate() {
            prop_assert!(
                s.to_bits() == b.to_bits(),
                "row {} diverges: {} vs {} (rows={} seed={} k={} workers={})",
                row, s, b, rows, seed, k, workers
            );
        }
    }

    #[test]
    fn parallel_plant_equals_serial_tree(
        rows in 40usize..300,
        seed in 0u64..500,
        k in 2usize..8,
        workers in 1usize..5,
    ) {
        // `plant_with` grows the retained tree a session keeps: the
        // persistent trees both engines grow must induce the identical
        // partition. (Leaf stamps are per-tree cache tokens in allocation
        // order — engine-specific by design — so only their shape is
        // asserted: one unique stamp per group.)
        let table = adult::generate(rows, seed);
        let mondrian = Mondrian::new(Arc::new(KAnonymity::new(k)));
        let serial = mondrian.plant_with(&table, Parallelism::Serial);
        let parallel = mondrian.plant_with(&table, Parallelism::threads(workers));
        let (sa, s_stamps) = serial.snapshot(&table);
        let (pa, p_stamps) = parallel.snapshot(&table);
        prop_assert_eq!(
            sa.first_difference(&pa),
            None,
            "rows={rows} seed={seed} k={k} workers={workers}"
        );
        prop_assert_eq!(s_stamps.len(), sa.group_count());
        prop_assert_eq!(p_stamps.len(), pa.group_count());
        let mut unique: Vec<u64> = p_stamps.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), p_stamps.len());
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
        let outcome = Publisher::new()
            .k_anonymity(k)
            .parallelism(Parallelism::Serial)
            .publish(&table)
            .expect("satisfiable");
        let groups = outcome.anonymized.row_groups();
        let adversary = Arc::new(Adversary::kernel(
            &table,
            Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
        ));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        let auditor = Auditor::new(adversary, measure);
        let serial = auditor.report_with(&table, &groups, 0.2, Parallelism::Serial);
        let batched = auditor.report_with(&table, &groups, 0.2, Parallelism::threads(workers));
        prop_assert_eq!(serial.first_difference(&batched), None);
    }
}

#[test]
fn publisher_parallelism_knob_is_transparent_end_to_end() {
    // The full pipeline — publish then audit — through the Publisher knob:
    // Auto and Serial must agree bit-for-bit on groups and report numbers.
    let table = adult::generate(600, 13);
    let serial = Publisher::new()
        .k_anonymity(5)
        .parallelism(Parallelism::Serial)
        .publish(&table)
        .expect("satisfiable");
    let parallel = Publisher::new()
        .k_anonymity(5)
        .parallelism(Parallelism::Auto)
        .publish(&table)
        .expect("satisfiable");
    assert_eq!(
        serial.anonymized.first_difference(&parallel.anonymized),
        None
    );
    let rs = serial
        .audit_against(&table, 0.3, 0.2)
        .expect("valid bandwidth");
    let rp = parallel
        .audit_against(&table, 0.3, 0.2)
        .expect("valid bandwidth");
    assert_eq!(rs.first_difference(&rp), None);
}
