//! The published partition's flat layout: the borrowed [`GroupRef`] views,
//! the owned compatibility view `groups()`, the validated constructor
//! `AnonymizedTable::new` and `row_groups()` must describe one and the same
//! partition, for every strategy, on session refreshes and one-shot
//! publishes alike — and the exported text must not change byte for byte.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::anon::GroupRef;
use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::prelude::*;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Mondrian,
    Algorithm::Bucketize,
    Algorithm::FullDomain,
];

/// A publisher whose specs every strategy can enforce, pinned to `algorithm`.
fn publisher_for(algorithm: Algorithm) -> Publisher {
    Publisher::new()
        .k_anonymity(3)
        .distinct_l_diversity(3)
        .algorithm(algorithm)
}

/// A pseudo-random delta over `table`: each row deleted with probability
/// `del_frac`, plus `inserts` rows drawn from a fresh Adult sample.
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
    }
    builder.build()
}

/// Every view of `at` agrees with every other, field for field.
fn assert_views_agree(table: &Table, at: &AnonymizedTable, context: &str) {
    let views: Vec<GroupRef<'_>> = at.iter().collect();
    assert_eq!(views.len(), at.group_count(), "iter length: {context}");
    let owned = at.groups();
    assert_eq!(owned.len(), views.len(), "groups() length: {context}");
    for (i, (view, group)) in views.iter().zip(owned).enumerate() {
        assert_eq!(*view, at.group(i), "group({i}): {context}");
        assert_eq!(view.rows, group.rows, "rows of {i}: {context}");
        assert_eq!(view.ranges, group.ranges, "ranges of {i}: {context}");
        assert_eq!(
            view.sensitive_counts, group.sensitive_counts,
            "counts of {i}: {context}"
        );
        assert_eq!(view.len(), group.len(), "len of {i}: {context}");
    }
    let rebuilt = AnonymizedTable::new(table, owned.to_vec());
    assert!(rebuilt == *at, "new(groups()) differs: {context}");
    assert!(
        rebuilt.iter().eq(at.iter()),
        "new(groups()) views differ: {context}"
    );
    let rows: Vec<Vec<usize>> = views.iter().map(|g| g.rows.to_vec()).collect();
    assert_eq!(at.row_groups(), rows, "row_groups: {context}");
    assert_eq!(
        rows.iter().map(Vec::len).sum::<usize>(),
        table.len(),
        "coverage: {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Session refreshes and one-shot publishes, across delta sequences of
    /// one to six steps: the layout's views agree, and the session serves
    /// exactly the one-shot publication of its table.
    #[test]
    fn views_agree_across_strategies_and_deltas(
        rows in 80usize..220,
        seed in 0u64..1u64 << 48,
        steps in 1usize..=6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for algorithm in ALGORITHMS {
            let publisher = publisher_for(algorithm);
            let table = adult::generate(rows, seed ^ 0x1a70);
            // A random base table can be infeasible for bucketize; that is
            // not this test's concern.
            let Ok(mut session) = publisher.open(&table) else {
                continue;
            };
            for step in 0..steps {
                let context = format!("{} step {step}", algorithm.name());
                let delta = random_delta(session.table(), &mut rng, 0.05, 5);
                let _ = session.apply(&delta);
                assert_views_agree(session.table(), session.anonymized(), &context);
                let fresh = publisher
                    .publish(session.table())
                    .expect("the session's resident table is always publishable");
                assert_views_agree(session.table(), &fresh.anonymized, &context);
                prop_assert!(*session.anonymized() == fresh.anonymized, "{}", context);
            }
        }
    }
}

/// The golden publications: per strategy, the `write_csv` and `render`
/// output of a fixed-seed publication and of the same session after two
/// deltas, as `(fixture file name, content)`.
fn golden_outputs() -> Vec<(String, String)> {
    fn push(out: &mut Vec<(String, String)>, stem: String, table: &Table, at: &AnonymizedTable) {
        let mut csv = Vec::new();
        at.write_csv(table, &mut csv).expect("write to a Vec");
        out.push((
            format!("{stem}.csv"),
            String::from_utf8(csv).expect("UTF-8 CSV"),
        ));
        out.push((format!("{stem}.txt"), at.render()));
    }
    let mut out = Vec::new();
    for algorithm in ALGORITHMS {
        let name = algorithm.name();
        let publisher = publisher_for(algorithm);
        let table = adult::generate(240, 0x601d);
        let mut session = publisher.open(&table).expect("feasible genesis");
        push(
            &mut out,
            format!("{name}_v0"),
            session.table(),
            session.anonymized(),
        );
        let mut rng = SmallRng::seed_from_u64(0x601d);
        for _ in 0..2 {
            let delta = random_delta(session.table(), &mut rng, 0.05, 6);
            session.apply(&delta).expect("feasible delta");
        }
        push(
            &mut out,
            format!("{name}_v2"),
            session.table(),
            session.anonymized(),
        );
    }
    out
}

/// `write_csv` and `render` are byte-identical to the fixtures under
/// `tests/fixtures/golden/`, which were written by the publication code
/// before it stored partitions as flat arrays. Regenerate them only for an
/// intended output change.
#[test]
fn exports_match_the_golden_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden");
    for (file, content) in golden_outputs() {
        let want = std::fs::read_to_string(dir.join(&file))
            .unwrap_or_else(|e| panic!("read fixture {file}: {e}"));
        assert!(content == want, "{file} differs from its golden fixture");
    }
}
