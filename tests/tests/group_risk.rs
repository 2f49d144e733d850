//! The group-risk kernel behind (B,t) checks and audits must reproduce the
//! paper-transcription arithmetic bit for bit: every member's risk equals
//! `measure.distance(prior, omega_posteriors(group)[j])` built from public
//! pieces, a (B,t) check is exactly `max risk <= t`, and the smoothed-JS
//! slice form equals its `Dist` form. The (B,t) and skyline publications
//! are pinned byte for byte by golden fixtures.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Table};
use bgkanon::prelude::*;
use bgkanon::privacy::GroupView;

/// Every member's risk by the reference transcription: clone each prior,
/// build all Ω-posteriors as `Dist`s, measure each pair.
fn reference_risks(
    adversary: &Adversary,
    measure: &SmoothedJs,
    table: &Table,
    rows: &[usize],
) -> Vec<f64> {
    let priors = GroupPriors::from_table_rows(table, rows, |qi| adversary.prior(qi).clone());
    omega_posteriors(&priors)
        .iter()
        .enumerate()
        .map(|(j, post)| measure.distance(priors.prior(j), post))
        .collect()
}

/// A random distribution over `m` values with some entries exactly zero.
fn sparse_dist(rng: &mut SmallRng, m: usize) -> Dist {
    let mut w: Vec<f64> = (0..m)
        .map(|_| {
            if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen::<f64>()
            }
        })
        .collect();
    let keep = rng.gen_range(0..m);
    w[keep] += 0.5;
    Dist::from_weights(&w).expect("positive mass")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kernel risks (per row through the auditor, the max through
    /// `group_risk`) against the reference, and the check's verdict at,
    /// just below and just above the group's worst risk.
    #[test]
    fn kernel_risks_match_the_reference_bit_for_bit(
        rows in 200usize..2000,
        seed in 0u64..1u64 << 48,
        b_index in 0usize..3,
    ) {
        let b = [0.2, 0.3, 0.5][b_index];
        let table = adult::generate(rows, seed);
        let bandwidth = Bandwidth::uniform(b, table.qi_count()).expect("valid bandwidth");
        let adversary = Arc::new(Adversary::kernel(&table, bandwidth));
        let measure = Arc::new(SmoothedJs::paper_default(table.schema().sensitive_distance()));
        let auditor = Auditor::new(Arc::clone(&adversary) as _, Arc::clone(&measure) as _);
        let requirement = BTPrivacy::with_parts(Arc::clone(&adversary), Arc::clone(&measure) as _, 0.25);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6e15);
        for _ in 0..6 {
            // A random subset, in random order, of a random size: small
            // groups dedup by scan, large ones by map.
            let size = [rng.gen_range(1usize..12), rng.gen_range(12usize..80), rng.gen_range(80..rows)]
                [rng.gen_range(0usize..3)];
            let mut group: Vec<usize> = (0..rows).collect();
            for i in 0..size {
                let j = rng.gen_range(i..rows);
                group.swap(i, j);
            }
            group.truncate(size);

            let expect = reference_risks(&adversary, &measure, &table, &group);
            let risks = auditor.tuple_risks_with(&table, std::slice::from_ref(&group), Parallelism::Serial);
            for (&row, want) in group.iter().zip(&expect) {
                prop_assert_eq!(risks[row].to_bits(), want.to_bits(), "row {}", row);
            }
            let worst = expect.iter().copied().fold(0.0, f64::max);
            let mut buf = Vec::new();
            let view = GroupView::compute(&table, &group, &mut buf);
            prop_assert_eq!(requirement.group_risk(&view).to_bits(), worst.to_bits());

            let below = f64::from_bits(worst.to_bits().wrapping_sub(1));
            let above = f64::from_bits(worst.to_bits() + 1);
            for t in [worst, below, above] {
                if !(t >= 0.0 && t.is_finite()) {
                    continue;
                }
                let check = BTPrivacy::with_parts(Arc::clone(&adversary), Arc::clone(&measure) as _, t);
                prop_assert_eq!(check.is_satisfied(&view), worst <= t, "t = {}", t);
            }
        }
    }

    /// The smoothed-JS slice form against its `Dist` form, on priors and
    /// posteriors with zero entries.
    #[test]
    fn smoothed_js_slice_distance_is_bit_identical(seed in 0u64..1u64 << 48) {
        let table = adult::generate(20, seed);
        let measure = SmoothedJs::paper_default(table.schema().sensitive_distance());
        let m = table.schema().sensitive_domain_size();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prepared = vec![0.0; m];
        let mut work = Vec::new();
        for _ in 0..50 {
            let p = if rng.gen_bool(0.2) { Dist::point_mass(rng.gen_range(0..m), m) } else { sparse_dist(&mut rng, m) };
            let q = if rng.gen_bool(0.2) { Dist::point_mass(rng.gen_range(0..m), m) } else { sparse_dist(&mut rng, m) };
            measure.prepare_prior_into(p.as_slice(), &mut prepared);
            let slice = measure.prepared_distance_into(&prepared, q.as_slice(), &mut work);
            prop_assert_eq!(slice.to_bits(), measure.distance(&p, &q).to_bits());
        }
    }
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

/// The golden (B,t) and skyline publications: the `write_csv` output of a
/// fixed-seed publication and of the same session after two deltas, as
/// `(fixture file name, content)`.
fn golden_outputs() -> Vec<(String, String)> {
    fn csv(table: &Table, at: &AnonymizedTable) -> String {
        let mut out = Vec::new();
        at.write_csv(table, &mut out).expect("write to a Vec");
        String::from_utf8(out).expect("UTF-8 CSV")
    }
    let publishers = [
        ("bt", Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25)),
        (
            "skyline",
            Publisher::new()
                .k_anonymity(4)
                .skyline(vec![(0.2, 0.35), (0.3, 0.25), (0.5, 0.2)]),
        ),
    ];
    let mut out = Vec::new();
    for (name, publisher) in publishers {
        let table = adult::generate(400, 0xb7_5e);
        let mut session = publisher.open(&table).expect("feasible genesis");
        out.push((
            format!("{name}_v0.csv"),
            csv(session.table(), session.anonymized()),
        ));
        let mut rng = SmallRng::seed_from_u64(0xb7_5e);
        for _ in 0..2 {
            let delta = random_delta(session.table(), &mut rng, 0.05, 8);
            session.apply(&delta).expect("feasible delta");
        }
        out.push((
            format!("{name}_v2.csv"),
            csv(session.table(), session.anonymized()),
        ));
    }
    out
}

/// The (B,t) and skyline exports are byte-identical to the fixtures under
/// `tests/fixtures/golden/`, which were written by the check code that
/// cloned every prior and built each posterior as a `Dist`. Regenerate them
/// only for an intended output change.
#[test]
fn bt_and_skyline_exports_match_the_golden_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden");
    for (file, content) in golden_outputs() {
        let want = std::fs::read_to_string(dir.join(&file))
            .unwrap_or_else(|e| panic!("read fixture {file}: {e}"));
        assert!(content == want, "{file} differs from its golden fixture");
    }
}
