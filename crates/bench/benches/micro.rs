//! Criterion microbenchmarks of the hot paths: kernel prior estimation,
//! posterior inference (Ω vs exact), Mondrian partitioning, belief
//! distances and permanent backends.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bgkanon::data::DeltaBuilder;
use bgkanon::inference::{exact_posteriors, omega_posteriors, GroupPriors};
use bgkanon::knowledge::{Adversary, Bandwidth, DeletedRows, FoldedTable, PriorEstimator};
use bgkanon::prelude::*;
use bgkanon::stats::divergence::js_divergence;
use bgkanon::stats::permanent::{likelihood_dp, likelihood_via_permanent};

fn bench_prior_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prior_estimation");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let table = bgkanon::data::adult::generate(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &table, |b, table| {
            let estimator = PriorEstimator::new(
                Arc::clone(table.schema()),
                Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
            );
            b.iter(|| estimator.estimate(table));
        });
    }
    group.finish();
}

fn bench_estimator_stages(c: &mut Criterion) {
    // The sparse engine's individual stages: fold and a 1%-delta refresh.
    let table = bgkanon::data::adult::generate(5_000, 42);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.25, table.qi_count()).unwrap(),
    );
    let model = estimator.estimate(&table);

    let mut delta = DeltaBuilder::new(Arc::clone(table.schema()));
    let donors = bgkanon::data::adult::generate(25, 7);
    for r in 0..25 {
        delta.delete(r * 100);
        delta
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .unwrap();
    }
    let delta = delta.build();

    let mut group = c.benchmark_group("estimator_stages");
    group.sample_size(10);
    group.bench_function("fold_5k", |b| {
        b.iter(|| FoldedTable::new(&table));
    });
    group.bench_function("refresh_1pct_delta", |b| {
        // The hub's carried refresh: gather the deleted rows, evolve the
        // model's fold by the delta, refresh from the fold difference. Each
        // iteration refreshes a fresh clone of the model (the clone is part
        // of the measured loop; it is cheap next to the recompute).
        b.iter(|| {
            let mut m = model.clone();
            let deleted = DeletedRows::gather(&table, &delta).unwrap();
            let evolved = m.folded().evolve(&deleted, &delta).unwrap();
            estimator.refresh_folded(&mut m, evolved.into_folded(), Parallelism::Auto);
            m
        });
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let table = bgkanon::data::adult::generate(2_000, 42);
    let adversary = Adversary::kernel(&table, Bandwidth::uniform(0.3, 6).unwrap());
    let rows: Vec<usize> = (0..10).collect();
    let group_priors =
        GroupPriors::from_table_rows(&table, &rows, |qi| adversary.prior(qi).clone());

    let mut group = c.benchmark_group("posterior_inference");
    group.bench_function("omega_k10", |b| {
        b.iter(|| omega_posteriors(&group_priors));
    });
    group.bench_function("exact_k10", |b| {
        b.iter(|| exact_posteriors(&group_priors));
    });
    group.finish();
}

fn bench_layout(c: &mut Criterion) {
    // The attribute-wise column scans in isolation: the group-by-QI
    // signature pass (and its counting-sort spine `qi_sorted_rows`),
    // Mondrian's counting-sort split, and the estimator's fold, on one
    // 100k-row table.
    let table = bgkanon::data::adult::generate(100_000, 42);
    let mut group = c.benchmark_group("layout");
    group.sample_size(10);
    group.bench_function("group_by_qi", |b| {
        b.iter(|| table.group_by_qi());
    });
    group.bench_function("qi_sorted_rows", |b| {
        b.iter(|| table.qi_sorted_rows());
    });
    group.bench_function("mondrian_split_k10", |b| {
        b.iter(|| {
            let m = Mondrian::new(Arc::new(KAnonymity::new(10)));
            m.anonymize(&table)
        });
    });
    group.bench_function("fold", |b| {
        b.iter(|| FoldedTable::new(&table));
    });
    group.finish();
}

fn bench_mondrian(c: &mut Criterion) {
    let table = bgkanon::data::adult::generate(5_000, 42);
    let mut group = c.benchmark_group("mondrian");
    group.sample_size(10);
    group.bench_function("k_anonymity_5", |b| {
        b.iter(|| {
            let m = Mondrian::new(Arc::new(KAnonymity::new(5)));
            m.anonymize(&table)
        });
    });
    group.bench_function("distinct_l_diversity_3", |b| {
        b.iter(|| {
            let m = Mondrian::new(Arc::new(bgkanon::privacy::And::pair(
                KAnonymity::new(3),
                DistinctLDiversity::new(3),
            )));
            m.anonymize(&table)
        });
    });
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let table = bgkanon::data::adult::generate(100, 42);
    let smoothed = SmoothedJs::paper_default(table.schema().sensitive_distance());
    let p = Dist::from_counts(&[3, 1, 0, 2, 0, 0, 1, 0, 0, 0, 4, 0, 1, 2]).unwrap();
    let q = Dist::uniform(14);
    let mut group = c.benchmark_group("belief_distance");
    group.bench_function("smoothed_js", |b| {
        b.iter(|| smoothed.distance(&p, &q));
    });
    group.bench_function("plain_js", |b| {
        b.iter(|| js_divergence(&p, &q));
    });
    group.finish();
}

fn bench_permanent(c: &mut Criterion) {
    let priors: Vec<Dist> = (0..12)
        .map(|i| {
            let x = 0.1 + 0.05 * (i as f64);
            Dist::from_weights(&[x, 1.0, 2.0 - x]).unwrap()
        })
        .collect();
    let counts = [4u32, 4, 4];
    let mut group = c.benchmark_group("permanent_k12");
    group.bench_function("multiplicity_dp", |b| {
        b.iter(|| likelihood_dp(&priors, &counts));
    });
    group.bench_function("ryser", |b| {
        b.iter(|| likelihood_via_permanent(&priors, &counts));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prior_estimation,
    bench_estimator_stages,
    bench_inference,
    bench_layout,
    bench_mondrian,
    bench_distances,
    bench_permanent
);
criterion_main!(benches);
