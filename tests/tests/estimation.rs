//! Property tests of the sparse compact-support estimation engine: for any
//! table, bandwidth and kernel family, the neighbor-bounded sparse engine
//! must be **bit-identical** to the dense all-pairs reference, and a
//! refreshed model — one delta at a time, or straight from the fold of a
//! table any number of deltas later — must be bit-identical to a
//! from-scratch estimate of the final table after **any** delta sequence.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{
    load_model_str, save_model_string, Bandwidth, DeletedRows, FoldedTable, KernelFamily,
    PriorEstimator, PriorModel,
};
use bgkanon::stats::Dist;

fn family(index: usize) -> KernelFamily {
    match index % 3 {
        0 => KernelFamily::Epanechnikov,
        1 => KernelFamily::Uniform,
        _ => KernelFamily::Triangular,
    }
}

fn assert_bit_identical(
    a: &bgkanon::knowledge::PriorModel,
    b: &bgkanon::knowledge::PriorModel,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "model size diverges: {}", context);
    for (qi, p) in a.iter() {
        let q = b.prior(qi);
        prop_assert!(q.is_some(), "missing prior: {}", context);
        let q = q.expect("checked");
        for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "prior bits diverge: {}", context);
        }
    }
    for (x, y) in a
        .table_distribution()
        .as_slice()
        .iter()
        .zip(b.table_distribution().as_slice())
    {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "table distribution diverges: {}",
            context
        );
    }
    Ok(())
}

/// A pseudo-random delta over `table`: roughly `del_frac` of the rows
/// deleted and `inserts` fresh synthetic rows appended.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_engine_is_bit_identical_to_dense_reference(
        rows in 30usize..260,
        seed in 0u64..1000,
        b in 0.02f64..1.4,
        family_index in 0usize..3,
        threads in 1usize..4,
    ) {
        let table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let dense = estimator.estimate_reference(&table);
        let sparse = estimator.estimate_with(&table, Parallelism::threads(threads));
        let context = format!("rows={rows} seed={seed} b={b} family={family_index}");
        assert_bit_identical(&dense, &sparse, &context)?;
        // The Serial knob selects the same reference path.
        let serial = estimator.estimate_with(&table, Parallelism::Serial);
        assert_bit_identical(&dense, &serial, &context)?;
    }

    #[test]
    fn refresh_is_bit_identical_to_from_scratch_after_any_delta_sequence(
        rows in 40usize..220,
        seed in 0u64..500,
        b in 0.05f64..0.9,
        family_index in 0usize..3,
        steps in 1usize..4,
    ) {
        let mut table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let mut model = estimator.estimate(&table);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0e57_1ea7);
        for step in 0..steps {
            let delta = random_delta(&table, &mut rng, 0.05, 2 + step);
            let next = table.apply_delta(&delta);
            let Ok(next) = next else {
                // The delta emptied the table — nothing left to estimate.
                break;
            };
            estimator.refresh_with(&mut model, &table, &delta, Parallelism::threads(2));
            table = next;
            let fresh = estimator.estimate(&table);
            let context = format!(
                "rows={rows} seed={seed} b={b} family={family_index} step={step}"
            );
            assert_bit_identical(&fresh, &model, &context)?;
            // The maintained fold matches a from-scratch fold of the table.
            let folded = model.folded().expect("estimate-built models refresh");
            let scratch = FoldedTable::new(&table);
            prop_assert_eq!(folded.len(), scratch.len(), "fold size: {}", &context);
            prop_assert_eq!(folded.rows(), scratch.rows(), "fold rows: {}", &context);
            for (a, b) in folded.points().zip(scratch.points()) {
                prop_assert_eq!(a.qi(), b.qi(), "fold keys: {}", &context);
                prop_assert_eq!(a.count(), b.count(), "fold counts: {}", &context);
                prop_assert_eq!(
                    a.sensitive_counts(),
                    b.sensitive_counts(),
                    "fold histograms: {}",
                    &context
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fold-diff refresh spans a gap of 1–4 unaudited deltas in one
    /// step: bit-identical to `estimate_folded` of the final table, with
    /// every point outside the reported dirty set keeping its old prior
    /// bit for bit — and identical to stepping `refresh_with` through the
    /// same deltas, which runs on the same core.
    #[test]
    fn fold_diff_refresh_is_bit_identical_across_delta_gaps(
        rows in 40usize..220,
        seed in 0u64..500,
        b in 0.05f64..0.9,
        family_index in 0usize..3,
        gap in 1usize..5,
        threads in 1usize..4,
    ) {
        let mut table = adult::generate(rows, seed);
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth"),
            family(family_index),
        );
        let before = estimator.estimate(&table);
        let mut stepped = before.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xf01d_d1ff);
        for step in 0..gap {
            let delta = random_delta(&table, &mut rng, 0.05, 1 + step);
            let Ok(next) = table.apply_delta(&delta) else {
                break;
            };
            estimator.refresh_with(&mut stepped, &table, &delta, Parallelism::threads(threads));
            table = next;
        }
        let context = format!("rows={rows} seed={seed} b={b} family={family_index} gap={gap}");
        let mut model = before.clone();
        let dirty = estimator.refresh_folded(
            &mut model,
            FoldedTable::new(&table),
            Parallelism::threads(threads),
        );
        let fresh = estimator.estimate_folded(FoldedTable::new(&table), Parallelism::Serial);
        assert_bit_identical(&fresh, &model, &context)?;
        assert_bit_identical(&stepped, &model, &context)?;
        let folded = model.folded().expect("refreshed models keep their fold");
        prop_assert!(folded.content_eq(&FoldedTable::new(&table)), "fold: {}", &context);
        for (id, point) in folded.points().enumerate() {
            if dirty.contains(id as u32) {
                continue;
            }
            let old = before.prior(point.qi());
            prop_assert!(old.is_some(), "clean point was not in the old model: {}", &context);
            let new = model.prior(point.qi()).expect("every point has a prior");
            for (x, y) in old.expect("checked").as_slice().iter().zip(new.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "clean prior moved: {}", &context);
            }
        }
    }
}

/// A delta over `table` deleting every row of its first distinct QI
/// combination and inserting `inserts` rows at a combination the table
/// does not contain; returns the delta and both combinations.
fn delete_point_insert_unseen(table: &Table, inserts: usize) -> (Delta, Box<[u32]>, Vec<u32>) {
    let folded = FoldedTable::new(table);
    let gone: Box<[u32]> = folded.point(0).qi().into();
    let mut unseen = table.qi(0);
    loop {
        unseen[0] = (unseen[0] + 1) % table.schema().qi_attribute(0).domain_size();
        if folded.find(&unseen).is_none() {
            break;
        }
    }
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if table.qi(row).as_slice() == gone.as_ref() {
            builder.delete(row);
        }
    }
    for i in 0..inserts {
        builder
            .insert_codes(&unseen, (i % 2) as u32)
            .expect("codes come from the schema");
    }
    (builder.build(), gone, unseen)
}

/// A delta over `table` deleting one row and inserting an identical one:
/// the rows move, the fold does not.
fn net_zero_delta(table: &Table, row: usize) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    builder.delete(row);
    builder
        .insert_codes(&table.qi(row), table.sensitive_value(row))
        .expect("codes come from the table");
    builder.build()
}

/// The QI combinations whose histogram differs between two folds (present
/// in only one counts as differing), ascending — read off the public point
/// view, independently of the evolution core.
fn changed_between(old: &FoldedTable, new: &FoldedTable) -> Vec<Box<[u32]>> {
    let mut keys: BTreeSet<Box<[u32]>> = old.points().map(|p| p.qi().into()).collect();
    keys.extend(new.points().map(|p| Box::<[u32]>::from(p.qi())));
    let hist = |fold: &FoldedTable, qi: &[u32]| {
        fold.find(qi)
            .map(|i| fold.point(i).sensitive_counts().to_vec())
    };
    keys.into_iter()
        .filter(|qi| hist(old, qi) != hist(new, qi))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fold carried through 1–4 chained deltas by `FoldedTable::evolve`
    /// equals `FoldedTable::with_row_points` of every post-delta table:
    /// same content, same content hash, same row → point array (remapped
    /// from the previous step's), and the changed-point set is exactly the
    /// fold difference. The mix covers a point deleted outright plus an
    /// insert at an unseen point, and a net-zero delta. The `apply_delta`
    /// wrapper runs the same core, and a fold reloaded through persistence
    /// hashes equal.
    #[test]
    fn evolved_fold_matches_a_fresh_fold_across_chained_deltas(
        rows in 30usize..220,
        seed in 0u64..500,
        steps in 1usize..5,
        del_frac in 0.0f64..0.2,
        inserts in 0usize..6,
        mix in 0usize..4,
    ) {
        let mut table = adult::generate(rows, seed);
        let (mut fold, mut row_points) = FoldedTable::with_row_points(&table);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xe701_7e00);
        for step in 0..steps {
            let context = format!("rows={rows} seed={seed} step={step} mix={mix}");
            let delta = match (step + mix) % 4 {
                0 => delete_point_insert_unseen(&table, 1 + step % 3).0,
                1 => net_zero_delta(&table, rng.gen_range(0..table.len())),
                _ => random_delta(&table, &mut rng, del_frac, inserts),
            };
            let deleted = DeletedRows::gather(&table, &delta);
            prop_assert!(deleted.is_some(), "deletes are in range: {}", &context);
            let deleted = deleted.expect("checked");
            let evolution = fold.evolve(&deleted, &delta);
            let Ok(next) = table.apply_delta(&delta) else {
                // The delta would empty the table: the core refuses it too.
                prop_assert!(evolution.is_none(), "emptying delta evolved: {}", &context);
                break;
            };
            prop_assert!(evolution.is_some(), "evolve refused a valid delta: {}", &context);
            let evolution = evolution.expect("checked");
            let (fresh, fresh_points) = FoldedTable::with_row_points(&next);
            prop_assert!(evolution.folded().content_eq(&fresh), "fold: {}", &context);
            prop_assert_eq!(
                evolution.folded().content_hash(),
                fresh.content_hash(),
                "content hash: {}",
                &context
            );
            let points = evolution.row_points(&row_points, &delta);
            prop_assert_eq!(points.as_ref(), Some(&fresh_points), "row points: {}", &context);
            let expected = changed_between(&fold, &fresh);
            prop_assert_eq!(evolution.changed(), expected.as_slice(), "changed: {}", &context);
            if (step + mix) % 4 == 1 {
                prop_assert!(evolution.changed().is_empty(), "net-zero: {}", &context);
            }

            let mut stepped = fold.clone();
            let changed = stepped.apply_delta(&table, &delta);
            prop_assert!(stepped.content_eq(&fresh), "apply_delta fold: {}", &context);
            prop_assert_eq!(stepped.content_hash(), fresh.content_hash(), "apply_delta hash: {}", &context);
            prop_assert_eq!(&changed, &expected, "apply_delta changed: {}", &context);

            fold = evolution.into_folded();
            row_points = points.expect("checked");
            table = next;
        }
        let estimator = PriorEstimator::new(
            Arc::clone(table.schema()),
            Bandwidth::uniform(0.3, table.qi_count()).expect("positive bandwidth"),
        );
        let model = estimator.estimate_folded(fold.clone(), Parallelism::Auto);
        let reloaded = load_model_str(&save_model_string(&model));
        prop_assert!(reloaded.is_ok(), "persisted model reloads");
        let reloaded = reloaded.expect("checked");
        let reloaded = reloaded.folded().expect("persisted models keep their fold");
        prop_assert!(reloaded.content_eq(&fold), "reloaded fold");
        prop_assert_eq!(reloaded.content_hash(), fold.content_hash(), "reloaded hash");
    }
}

#[test]
fn evolve_refuses_a_change_the_fold_cannot_account_for() {
    // Rows gathered from another table: deleting content this fold does not
    // hold is a mismatch, reported as `None` rather than a panic.
    let table = adult::generate(120, 3);
    let other = adult::generate(120, 4);
    let folded = FoldedTable::new(&table);
    let (delta, _, _) = delete_point_insert_unseen(&other, 0);
    let foreign = DeletedRows::gather(&other, &delta).unwrap();
    assert!(folded.evolve(&foreign, &delta).is_none());
    // Deleting every row would empty the table.
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        builder.delete(row);
    }
    let everything = builder.build();
    let deleted = DeletedRows::gather(&table, &everything).unwrap();
    assert!(folded.evolve(&deleted, &everything).is_none());
    // An out-of-range delete cannot be gathered at all.
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    builder.delete(table.len());
    assert!(DeletedRows::gather(&table, &builder.build()).is_none());
    // Row points of the wrong table length do not remap.
    let (one, _, _) = delete_point_insert_unseen(&table, 1);
    let deleted = DeletedRows::gather(&table, &one).unwrap();
    let evolution = folded.evolve(&deleted, &one).unwrap();
    assert!(evolution.row_points(&[0; 5], &one).is_none());
}

#[test]
fn fold_diff_refresh_drops_deleted_points_and_adds_unseen_ones() {
    let table = adult::generate(300, 41);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
    );
    let mut model = estimator.estimate(&table);
    let (delta, gone, unseen) = delete_point_insert_unseen(&table, 3);
    let next = table.apply_delta(&delta).unwrap();
    let (folded, row_points) = FoldedTable::with_row_points(&next);
    let unseen_id = folded.find(&unseen).expect("inserted point is folded") as u32;
    let dirty = estimator.refresh_folded(&mut model, folded, Parallelism::Auto);
    assert!(model.prior(&gone).is_none(), "deleted point keeps a prior");
    assert!(
        model.prior(&unseen).is_some(),
        "inserted point has no prior"
    );
    assert!(dirty.contains(unseen_id));
    assert!(!dirty.is_empty() && dirty.len() < model.len());
    // Row → point ids index the refreshed model's fold.
    let refreshed = model.folded().unwrap();
    for (r, &p) in row_points.iter().enumerate() {
        assert_eq!(refreshed.point(p as usize).qi(), next.qi(r).as_slice());
    }
    let fresh = estimator.estimate_folded(FoldedTable::new(&next), Parallelism::Auto);
    assert_same_model(&fresh, &model);
}

#[test]
fn net_zero_delta_dirties_nothing_and_leaves_the_model_unchanged() {
    // Delete a row and insert an identical one: the table's rows move, but
    // its fold — and therefore every prior — is unchanged.
    let table = adult::generate(200, 13);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    );
    let before = estimator.estimate(&table);
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    builder.delete(17);
    builder
        .insert_codes(&table.qi(17), table.sensitive_value(17))
        .unwrap();
    let delta = builder.build();
    let next = table.apply_delta(&delta).unwrap();
    let mut folded_model = before.clone();
    let dirty = estimator.refresh_folded(
        &mut folded_model,
        FoldedTable::new(&next),
        Parallelism::Auto,
    );
    assert!(dirty.is_empty());
    assert_same_model(&before, &folded_model);
    let mut stepped = before.clone();
    estimator.refresh_with(&mut stepped, &table, &delta, Parallelism::Auto);
    assert_same_model(&before, &stepped);
}

#[test]
fn fold_diff_refresh_of_a_foreign_model_re_estimates_in_full() {
    // A model estimated at another bandwidth carries the wrong provenance:
    // it is replaced by a full estimate, and every point is dirty.
    let table = adult::generate(150, 5);
    let narrow = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.2, table.qi_count()).unwrap(),
    );
    let wide = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.6, table.qi_count()).unwrap(),
    );
    let mut model = narrow.estimate(&table);
    let dirty = wide.refresh_folded(&mut model, FoldedTable::new(&table), Parallelism::Auto);
    assert_eq!(dirty.len(), model.len());
    assert_same_model(&wide.estimate(&table), &model);
}

fn assert_same_model(a: &PriorModel, b: &PriorModel) {
    assert_bit_identical(a, b, "deterministic case").expect("models are bit-identical");
}

#[test]
fn full_bandwidth_uniform_kernel_reduces_to_table_distribution() {
    // §II.D: a uniform kernel spanning the whole normalized range weights
    // every tuple equally, so every prior collapses to the table
    // distribution — the fully dense support edge (B ≥ 1) of the sparse
    // engine.
    let table = adult::generate(400, 21);
    for b in [1.0, 1.25] {
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).unwrap(),
            KernelFamily::Uniform,
        );
        // Every per-attribute table is fully dense at this bandwidth.
        for density in estimator.support_density() {
            assert_eq!(density, 1.0, "b={b} must saturate the support");
        }
        let model = estimator.estimate(&table);
        let q = model.table_distribution();
        for (qi, p) in model.iter() {
            assert!(
                p.max_abs_diff(q) < 1e-12,
                "b={b}: prior at {qi:?} should equal the table distribution"
            );
        }
    }
}

#[test]
fn tiny_bandwidth_recovers_the_group_mle() {
    // B → 0: only exact QI matches carry weight, so each prior is the
    // empirical sensitive distribution of the rows sharing the combination.
    let table = adult::generate(500, 33);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(1e-9, table.qi_count()).unwrap(),
    );
    let model = estimator.estimate(&table);
    for (qi, rows) in table.group_by_qi() {
        let mle = Dist::from_counts(&table.sensitive_counts_in(&rows)).unwrap();
        let prior = model.prior(&qi).expect("every distinct point has a prior");
        assert!(
            prior.max_abs_diff(&mle) < 1e-12,
            "MLE recovery fails at {qi:?}"
        );
    }
}

#[test]
fn zero_neighbor_query_falls_back_to_table_distribution() {
    // A query outside every kernel support has an empty candidate set; the
    // estimate degrades to the whole-table distribution.
    let table = adult::generate(200, 8);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(1e-9, table.qi_count()).unwrap(),
    );
    let folded = FoldedTable::new(&table);
    // Synthesize a QI combination absent from the table: flip the gender
    // code of an existing row and bump the age by one until unseen.
    let mut q: Vec<u32> = table.qi(0).to_vec();
    loop {
        q[0] = (q[0] + 1) % table.schema().qi_attribute(0).domain_size();
        if folded.find(&q).is_none() {
            break;
        }
    }
    let p = estimator.estimate_many(&folded, &[&q]);
    let expected = Dist::new(table.sensitive_distribution()).unwrap();
    assert!(p[0].max_abs_diff(&expected) < 1e-15);
}

#[test]
fn estimate_many_is_consistent_with_model_priors() {
    let table = adult::generate(300, 77);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    );
    let model = estimator.estimate(&table);
    let folded = FoldedTable::new(&table);
    let owned: Vec<Vec<u32>> = (0..20).map(|r| table.qi(r * 7)).collect();
    let queries: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
    let many = estimator.estimate_many(&folded, &queries);
    for (q, p) in queries.iter().zip(&many) {
        let from_model = model.prior(q).expect("in-table point");
        for (x, y) in p.as_slice().iter().zip(from_model.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
