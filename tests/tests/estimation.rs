//! Property tests of the sparse compact-support estimation engine: for any
//! table, bandwidth and kernel family, the neighbor-bounded sparse engine
//! must be **bit-identical** to the dense all-pairs reference, and a
//! refreshed model — one delta at a time, or straight from the fold of a
//! table any number of deltas later — must be bit-identical to a
//! from-scratch estimate of the final table after **any** delta sequence.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use bgkanon::data::{
    adult, Attribute, Delta, DeltaBuilder, Parallelism, Schema, Table, TableBuilder,
};
use bgkanon::knowledge::{
    Adversary, Bandwidth, DeletedRows, FoldedTable, KernelFamily, PriorEstimator, PriorModel,
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

/// Refresh `model` across one `delta` to `table` the way the serving hub
/// carries an `Adv(b′)` entry: gather the deleted rows, evolve the model's
/// fold by the delta, refresh from the fold difference.
fn refresh_across(
    estimator: &PriorEstimator,
    model: &mut PriorModel,
    table: &Table,
    delta: &Delta,
    parallelism: Parallelism,
) {
    let deleted = DeletedRows::gather(table, delta).expect("deletes are in range");
    let folded = model.folded();
    let evolved = folded
        .evolve(&deleted, delta)
        .expect("the delta matches the fold");
    estimator.refresh_folded(model, evolved.into_folded(), parallelism);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_engine_is_bit_identical_to_dense_reference(
        // One case in four draws a 1k–3k-row table: enough distinct points
        // that one estimate mixes grid cells, bitset and posting queries.
        rows in (0usize..4, 0usize..2000)
            .prop_map(|(draw, k)| if draw == 0 { 1000 + k } else { 30 + k % 230 }),
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
        // The Serial knob runs the sparse engine on one thread, to the
        // same bits.
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
            refresh_across(&estimator, &mut model, &table, &delta, Parallelism::threads(2));
            table = next;
            let fresh = estimator.estimate(&table);
            let context = format!(
                "rows={rows} seed={seed} b={b} family={family_index} step={step}"
            );
            assert_bit_identical(&fresh, &model, &context)?;
            // The maintained fold matches a from-scratch fold of the table.
            let folded = model.folded();
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
    /// bit for bit — and identical to stepping the refresh through the same
    /// deltas one at a time, which runs on the same core.
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
            refresh_across(&estimator, &mut stepped, &table, &delta, Parallelism::threads(threads));
            table = next;
        }
        let context = format!("rows={rows} seed={seed} b={b} family={family_index} gap={gap}");
        let mut model = before.clone();
        let dirty = estimator.refresh_folded(
            &mut model,
            FoldedTable::new(&table),
            Parallelism::threads(threads),
        );
        let fresh = estimator.estimate_reference(&table);
        assert_bit_identical(&fresh, &model, &context)?;
        assert_bit_identical(&stepped, &model, &context)?;
        let folded = model.folded();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A fold carried through 1–4 chained deltas by `FoldedTable::evolve`
    /// equals `FoldedTable::with_row_points` of every post-delta table:
    /// same content, same content hash, same row → point array (remapped
    /// from the previous step's). The mix covers a point deleted outright
    /// plus an insert at an unseen point, and a net-zero delta, which
    /// leaves the fold unchanged.
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
            if (step + mix) % 4 == 1 {
                prop_assert!(evolution.folded().content_eq(&fold), "net-zero: {}", &context);
            }

            fold = evolution.into_folded();
            row_points = points.expect("checked");
            table = next;
        }
    }
}

/// A delta over `table` that churns whole points: every row of one or two
/// random distinct QI combinations is deleted, a few more rows go at
/// random, and rows land at one or two combinations the table does not
/// hold plus a few donor rows. Returns the delta and the deleted points'
/// codes.
fn point_churn_delta(table: &Table, rng: &mut SmallRng) -> (Delta, Vec<Vec<u32>>) {
    let folded = FoldedTable::new(table);
    let gone: Vec<Vec<u32>> = (0..rng.gen_range(1usize..3))
        .map(|_| folded.point(rng.gen_range(0..folded.len())).qi().to_vec())
        .collect();
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if gone.iter().any(|g| table.qi(row) == *g) || rng.gen_bool(0.02) {
            builder.delete(row);
        }
    }
    for _ in 0..rng.gen_range(1usize..3) {
        let mut unseen = table.qi(rng.gen_range(0..table.len()));
        loop {
            let a = rng.gen_range(0..unseen.len());
            let size = table.schema().qi_attribute(a).domain_size();
            unseen[a] = rng.gen_range(0..size);
            if folded.find(&unseen).is_none() {
                break;
            }
        }
        let m = table.schema().sensitive_domain_size() as u32;
        for _ in 0..rng.gen_range(1usize..3) {
            builder
                .insert_codes(&unseen, rng.gen_range(0..m))
                .expect("codes come from the schema");
        }
    }
    let donors = adult::generate(3, rng.gen::<u64>());
    for r in 0..donors.len() {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    (builder.build(), gone)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Priors stored by point survive point churn: across 1–8 deltas that
    /// delete whole points and create new ones, refreshed in gaps of 1–3
    /// deltas, the refreshed model equals `estimate_folded` of the table
    /// bit for bit. `Adversary::prior` agrees with a reference map built
    /// from that estimate — the very prior at each present QI (and the one
    /// the row's fold point names), the table distribution at an absent
    /// one, deleted points included.
    #[test]
    fn point_indexed_priors_match_a_reference_map_across_point_churn(
        rows in 40usize..200,
        seed in 0u64..500,
        b in 0.05f64..0.9,
        family_index in 0usize..3,
        deltas in 1usize..9,
        gap in 1usize..4,
        threads in 1usize..3,
    ) {
        let mut table = adult::generate(rows, seed);
        let bandwidth = Bandwidth::uniform(b, table.qi_count()).expect("positive bandwidth");
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            bandwidth.clone(),
            family(family_index),
        );
        let mut model = estimator.estimate(&table);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9017_c0de);
        let mut gone: Vec<Vec<u32>> = Vec::new();
        for step in 0..deltas {
            let (delta, deleted) = point_churn_delta(&table, &mut rng);
            let Ok(next) = table.apply_delta(&delta) else {
                break;
            };
            table = next;
            gone.extend(deleted);
            if (step + 1) % gap != 0 && step + 1 != deltas {
                continue;
            }
            let context = format!(
                "rows={rows} seed={seed} b={b} family={family_index} step={step} gap={gap}"
            );
            let (fold, row_points) = FoldedTable::with_row_points(&table);
            estimator.refresh_folded(&mut model, fold, Parallelism::threads(threads));
            let fresh = estimator.estimate_reference(&table);
            assert_bit_identical(&fresh, &model, &context)?;

            let reference: BTreeMap<Vec<u32>, &Dist> =
                fresh.iter().map(|(qi, p)| (qi.to_vec(), p)).collect();
            let shared = Arc::new(model.clone());
            let adversary = Adversary::from_model("Adv", bandwidth.clone(), Arc::clone(&shared));
            for (r, &point) in row_points.iter().enumerate() {
                let qi = table.qi(r);
                let prior = adversary.prior(&qi);
                let expected = reference.get(&qi).copied();
                prop_assert!(expected.is_some(), "row {} not in the reference: {}", r, &context);
                prop_assert_eq!(
                    bits(prior),
                    bits(expected.expect("checked")),
                    "prior at row {}: {}",
                    r,
                    &context
                );
                prop_assert!(
                    shared.point_prior(point).is_some_and(|p| std::ptr::eq(p, prior)),
                    "row {} resolves to another prior by point: {}",
                    r,
                    &context
                );
            }
            let fallback = bits(shared.table_distribution());
            let mut absent: Vec<Vec<u32>> = gone.clone();
            for _ in 0..8 {
                let mut qi = table.qi(rng.gen_range(0..table.len()));
                let a = rng.gen_range(0..qi.len());
                qi[a] = rng.gen_range(0..table.schema().qi_attribute(a).domain_size());
                absent.push(qi);
            }
            for qi in absent.iter().filter(|qi| !reference.contains_key(*qi)) {
                prop_assert!(shared.prior(qi).is_none(), "absent {:?} found: {}", qi, &context);
                prop_assert_eq!(bits(adversary.prior(qi)), fallback.clone(), "fallback: {}", &context);
            }
            // Lookups of the wrong arity miss instead of matching a prefix.
            prop_assert!(shared.prior(&table.qi(0)[1..]).is_none(), "short key: {}", &context);
        }
    }
}

fn bits(p: &Dist) -> Vec<u64> {
    p.as_slice().iter().map(|x| x.to_bits()).collect()
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
    let refreshed = model.folded();
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
    refresh_across(&estimator, &mut stepped, &table, &delta, Parallelism::Auto);
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
fn an_estimate_mixing_grid_and_fallback_queries_is_bit_identical() {
    // At b = 0.6 the 2,127 points of this table take every neighbour path
    // in one estimate: 2,109 queries are served by the rest-key grid, 17
    // by value bitsets and 1 by posting lists. Both the estimate and a
    // refresh (whose dirty marking asks unordered queries) must match the
    // dense reference bit for bit.
    let table = adult::generate(3_000, 42);
    let mut rng = SmallRng::seed_from_u64(42);
    let delta = random_delta(&table, &mut rng, 0.01, 20);
    let next = table.apply_delta(&delta).expect("valid delta");
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.6, table.qi_count()).unwrap(),
    );
    let dense = estimator.estimate_reference(&table);
    let dense_next = estimator.estimate_reference(&next);
    for threads in [1, 3] {
        let mut model = estimator.estimate_with(&table, Parallelism::threads(threads));
        assert_same_model(&dense, &model);
        refresh_across(
            &estimator,
            &mut model,
            &table,
            &delta,
            Parallelism::threads(threads),
        );
        assert_same_model(&dense_next, &model);
    }
}

/// A table whose attribute-`1..d` key space, 50³ = 125,000 keys, is over
/// the estimator's rest-key grid bound: every query of an estimate over it
/// takes the inverted index.
fn wide_key_table(rows: usize, seed: u64) -> Table {
    let qi = (0..4)
        .map(|a| Attribute::numeric_range(&format!("A{a}"), 0, if a == 0 { 39 } else { 49 }))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let sensitive = Attribute::categorical_flat("S", &["s0", "s1", "s2", "s3"]).unwrap();
    let schema = Arc::new(Schema::new(qi, sensitive).unwrap());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = TableBuilder::new(Arc::clone(&schema));
    for _ in 0..rows {
        let codes = [
            rng.gen_range(0..40u32),
            rng.gen_range(0..50u32),
            rng.gen_range(0..50u32),
            rng.gen_range(0..50u32),
        ];
        // The sensitive value leans on the first two codes.
        let s = if rng.gen_bool(0.6) {
            (codes[0] / 10 + codes[1] / 25) % 4
        } else {
            rng.gen_range(0..4u32)
        };
        builder.push_codes(&codes, s).unwrap();
    }
    builder.build().unwrap()
}

#[test]
fn a_key_space_over_the_grid_bound_estimates_bit_identically() {
    let table = wide_key_table(1_500, 3);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for row in 0..table.len() {
        if rng.gen_bool(0.02) {
            builder.delete(row);
        }
    }
    for row in 0..10 {
        builder
            .insert_codes(&table.qi(row), (table.sensitive_value(row) + 1) % 4)
            .unwrap();
    }
    let delta = builder.build();
    let next = table.apply_delta(&delta).expect("valid delta");
    for (family_index, b) in [0.03, 0.2, 0.6].into_iter().enumerate() {
        let estimator = PriorEstimator::with_family(
            Arc::clone(table.schema()),
            Bandwidth::uniform(b, table.qi_count()).unwrap(),
            family(family_index),
        );
        let mut model = estimator.estimate_with(&table, Parallelism::threads(2));
        assert_same_model(&estimator.estimate_reference(&table), &model);
        refresh_across(
            &estimator,
            &mut model,
            &table,
            &delta,
            Parallelism::threads(2),
        );
        assert_same_model(&estimator.estimate_reference(&next), &model);
    }
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
