//! The recorded performance baselines: one harness over eight named
//! scenarios, each writing `BENCH_<scenario>.json` in one schema.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline                  # all eight, full size
//! cargo run --release -p bgkanon-bench --bin baseline -- fleet scale   # a subset
//! cargo run --release -p bgkanon-bench --bin baseline -- --smoke --out-dir /tmp/bench
//! ```
//!
//! `--smoke` runs the small sizes CI gates; `--out-dir` (default `.`) is
//! where the documents go. Any other argument must name a scenario; with
//! no names every scenario runs.
//!
//! | scenario | what it measures |
//! |---|---|
//! | `baseline` | Mondrian publish (Fig. 4(a)) and the §V.A audit against the kernel `Adv(0.25·1)` and the t-closeness adversary, the engines on one worker (`serial_*`) vs one worker per core (`parallel_*`), publications checked against [`Mondrian::plant_reference`] and audits against [`Auditor::tuple_risks_reference`] |
//! | `incremental` | a [`PublishSession`] absorbing 1% deltas plus its cached re-audit, vs a from-scratch publish + audit of the same table |
//! | `estimate` | P̂pri estimation (Fig. 4(b)): dense all-pairs reference vs the sparse engine — at `Adv(0.25·1)` and at a bandwidth whose queries take the estimator's inverted-index fallback — and the hub's carried refresh ([`DeletedRows::gather`], [`FoldedTable::evolve`], [`PriorEstimator::refresh_folded`]) vs re-estimation |
//! | `concurrent` | tenants × reader/writer threads through a [`SessionHub`](bgkanon::SessionHub) vs the serial one-session loop |
//! | `recovery` | cold `SessionHub::open`: WAL-only replay vs checkpoint + WAL-tail resume |
//! | `scale` | the one-worker publish → estimate → audit pipeline at 1M and 10M rows, publications checked against [`Mondrian::plant_reference`] and audits against [`Auditor::tuple_risks_reference`] |
//! | `fleet` | 10k Zipfian tenants replayed under resident-memory budgets of ½, ¼ and ⅛ of the unbounded peak |
//! | `strategies` | Mondrian, bucketization and full-domain refresh through 1% deltas vs a from-scratch publish |
//!
//! Every document has this shape:
//!
//! ```text
//! {"bench": "<scenario>", "smoke": …, "seed": 42, "threads": …,
//!  "config": {…scenario constants…},
//!  "rows": [{"label": "…", …values…, "identical_output": true}, …],
//!  "identical_output": <all rows>}
//! ```
//!
//! A scenario reads each constant through its [`Config`], which records
//! the value in the document's `config`, and returns labelled rows of
//! named values. The harness writes the document through
//! [`Json::render`], prints a table of the scenario's display columns from
//! the same rows, and exits non-zero when `identical_output` is false.
//! Before any number is recorded, each scenario checks its fast path
//! bit-identical to a reference: most abort on drift, and the serving
//! scenarios (`concurrent`, `recovery`, `fleet`) record it per row. A
//! timed section is the minimum over the scenario's `reps` runs, except
//! the `_mean` values, which average the delta steps.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bgkanon::anon::Mondrian;
use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{
    Adversary, Bandwidth, DeletedRows, FoldedTable, PriorEstimator, PriorModel,
};
use bgkanon::privacy::{Auditor, KAnonymity};
use bgkanon::stats::{BeliefDistance, SmoothedJs};
use bgkanon::{Algorithm, PublishSession, Publisher};
use bgkanon_bench::gate::Json;
use bgkanon_bench::report::Report;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// k of the published k-anonymity requirement.
const K: usize = 10;
/// Uniform bandwidth of the kernel auditing adversary.
const B_PRIME: f64 = 0.25;
/// Vulnerability threshold of the audit.
const THRESHOLD: f64 = 0.2;
/// Generator seed — every run must be reproducible.
const SEED: u64 = 42;

/// Named values, in display order.
type Values = Vec<(&'static str, Json)>;

/// One named benchmark scenario.
struct Scenario {
    name: &'static str,
    title: &'static str,
    /// The workload: one labelled row of named values per measurement.
    run: fn(&mut Config) -> Vec<Json>,
    /// The row keys shown as table columns, space-separated.
    columns: &'static str,
}

/// A scenario's constants at smoke or full size. Reading one records it
/// under its key, so the document's `config` is exactly what ran.
struct Config {
    smoke: bool,
    values: Vec<(String, Json)>,
}

impl Config {
    fn set(&mut self, key: &str, value: impl Into<Json>) {
        self.values.push((key.to_owned(), value.into()));
    }

    /// `small` at smoke size, `full` otherwise.
    fn pick<T: Into<Json> + Copy>(&mut self, key: &str, small: T, full: T) -> T {
        let value = if self.smoke { small } else { full };
        self.set(key, value);
        value
    }

    /// The list `small` at smoke size, `full` otherwise.
    fn picks<T: Into<Json> + Copy>(&mut self, key: &str, small: &[T], full: &[T]) -> Vec<T> {
        let items = if self.smoke { small } else { full };
        self.set(key, Json::Arr(items.iter().map(|&x| x.into()).collect()));
        items.to_vec()
    }

    /// The constants of the scenarios that publish `K`-anonymous tables and
    /// audit them against `Adv(B_PRIME)`.
    fn audited(&mut self) {
        self.set("requirement", format!("{K}-anonymity"));
        self.set("adversary_bandwidth", B_PRIME);
        self.set("audit_threshold", THRESHOLD);
    }
}

/// A result row: `label`, the named values, then whether this row's output
/// matched its reference bit for bit.
fn row<K: Into<String>>(
    label: impl Into<String>,
    identical: bool,
    values: impl IntoIterator<Item = (K, Json)>,
) -> Json {
    let mut members = vec![("label".to_owned(), Json::Str(label.into()))];
    members.extend(values.into_iter().map(|(k, v)| (k.into(), v)));
    members.push(("identical_output".to_owned(), identical.into()));
    Json::Obj(members)
}

fn keyed(values: Values) -> Vec<(String, Json)> {
    values.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

fn identical(row: &Json) -> bool {
    row.get("identical_output") == Some(&Json::Bool(true))
}

/// `x` rounded to `places` decimals, so the document stays readable.
fn round(x: f64, places: usize) -> Json {
    let text = format!("{x:.places$}");
    Json::Num(text.parse().expect("a formatted f64 parses"))
}

fn r3(x: f64) -> Json {
    round(x, 3)
}

static SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "baseline",
        title: "Baseline: publish + audit, serial vs parallel",
        run: run_baseline_mode,
        columns: "groups serial_publish_ms parallel_publish_ms serial_audit_kernel_ms \
                  parallel_audit_kernel_ms serial_audit_tcloseness_ms \
                  parallel_audit_tcloseness_ms speedup",
    },
    Scenario {
        name: "incremental",
        title: "Incremental republication: 1% delta apply vs full publish+audit",
        run: run_incremental_mode,
        columns: "groups open_ms apply_ms_mean inc_audit_ms_mean full_publish_ms_mean \
                  full_audit_ms_mean speedup_mean",
    },
    Scenario {
        name: "estimate",
        title: "P̂pri estimation: dense reference vs sparse engine vs carried refresh",
        run: run_estimate_mode,
        columns: "distinct_points support_density dense_reference_ms sparse_ms sparse_speedup \
                  sparse_parallel_ms sparse_parallel_speedup refresh_speedup_clustered \
                  refresh_speedup_age_band refresh_speedup_scattered",
    },
    Scenario {
        name: "concurrent",
        title: "Concurrent serving: SessionHub vs the serial one-session loop",
        run: run_concurrent_mode,
        columns: "elapsed_ms deltas_per_s audits_per_s audit_speedup groups",
    },
    Scenario {
        name: "recovery",
        title: "Recovery: cold-start SessionHub::open, WAL replay vs checkpoint resume",
        run: run_recovery_mode,
        columns: "deltas_per_tenant wal_open_ms wal_replayed checkpoint_open_ms \
                  checkpoint_replayed",
    },
    Scenario {
        name: "scale",
        title: "Scale: serial publish + estimate + audit, verified against the reference audit",
        run: run_scale_mode,
        columns: "groups publish_ms estimate_ms audit_ms audit_reference_ms fold_ms pipeline_ms \
                  reference_speedup",
    },
    Scenario {
        name: "fleet",
        title: "Fleet: Zipfian multi-tenant serving under resident-memory budgets",
        run: run_fleet_mode,
        columns: "budget_bytes peak_resident_bytes hit_rate evictions rehydrations audits_per_s",
    },
    Scenario {
        name: "strategies",
        title: "Strategy refresh: 1% delta apply vs from-scratch publish, per algorithm",
        run: run_strategies_mode,
        columns: "groups open_ms refresh_ms_mean scratch_publish_ms_mean speedup_mean",
    },
];

/// Wall-clock of `f`, in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Minimum wall-clock over `reps` runs, with the last run's value.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, mut best) = time_ms(&mut f);
    for _ in 1..reps {
        let (v, ms) = time_ms(&mut f);
        value = v;
        best = best.min(ms);
    }
    (value, best)
}

/// Do two risk vectors agree bit for bit?
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rows whose kernel risk exceeds the audit threshold.
fn vulnerable(risks: &[f64]) -> usize {
    risks.iter().filter(|&&r| r > THRESHOLD).count()
}

fn measure(table: &Table) -> Arc<dyn BeliefDistance> {
    let distances = table.schema().sensitive_distance();
    Arc::new(SmoothedJs::paper_default(distances))
}

fn bandwidth(table: &Table) -> Bandwidth {
    Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth")
}

/// An auditor against the kernel adversary `Adv(B_PRIME)` of `table`;
/// building it estimates the adversary's prior model.
fn kernel_auditor(table: &Table, measure: Arc<dyn BeliefDistance>) -> Auditor {
    let adversary = Adversary::kernel(table, bandwidth(table));
    Auditor::new(Arc::new(adversary), measure)
}

/// A `baseline` or `scale` table run through the first half of the Fig. 4
/// pipeline.
struct Pipeline {
    table: Table,
    groups: Vec<Vec<usize>>,
    /// Publish time per engine.
    publish_ms: Vec<f64>,
    estimate_ms: f64,
    /// The kernel `Adv(B_PRIME)` and the constant-prior t-closeness
    /// adversary (§II.D), the paper's two reference auditors.
    auditors: [Auditor; 2],
}

/// Generate `rows` rows, publish them under `K`-anonymity on each knob
/// (min over `reps`; every publication must equal the reference plant's),
/// and estimate the kernel prior (min over `estimate_reps`).
fn pipeline(rows: usize, engines: &[Parallelism], reps: usize, estimate_reps: usize) -> Pipeline {
    let table = adult::generate(rows, SEED);
    let mut publications = Vec::new();
    let mut publish_ms = Vec::new();
    for &engine in engines {
        let publisher = Publisher::new().k_anonymity(K).parallelism(engine);
        let (outcome, ms) = best_ms(reps, || publisher.publish(&table).expect("satisfiable"));
        publications.push(outcome.anonymized);
        publish_ms.push(ms);
    }
    // The recorded times must never be bought with drift.
    let reference = Mondrian::new(Arc::new(KAnonymity::new(K)))
        .plant_reference(&table)
        .to_anonymized(&table);
    for (engine, published) in engines.iter().zip(&publications) {
        if let Some(drift) = reference.first_difference(published) {
            panic!("{engine:?} publication differs from the reference plant: {drift}");
        }
    }
    let groups = reference.row_groups();
    let measure = measure(&table);
    let (kernel, estimate_ms) = best_ms(estimate_reps, || {
        kernel_auditor(&table, Arc::clone(&measure))
    });
    let tcloseness = Auditor::new(Arc::new(Adversary::t_closeness(&table)), measure);
    Pipeline {
        table,
        groups,
        publish_ms,
        estimate_ms,
        auditors: [kernel, tcloseness],
    }
}

/// Time two audit engines (min over `reps` each) and assert bit-identical
/// risks. Returns (risks, first ms, second ms).
fn audit_pair(
    reps: usize,
    what: &str,
    first: impl FnMut() -> Vec<f64>,
    second: impl FnMut() -> Vec<f64>,
) -> (Vec<f64>, f64, f64) {
    let (risks, first_ms) = best_ms(reps, first);
    let (check, second_ms) = best_ms(reps, second);
    assert!(same_bits(&risks, &check), "{what} audit engines diverge");
    (risks, first_ms, second_ms)
}

fn run_baseline_mode(cfg: &mut Config) -> Vec<Json> {
    cfg.audited();
    let sizes = cfg.picks("sizes", &[1_000], &[10_000, 100_000]);
    let reps = cfg.pick("reps", 1, 3);
    let engines = [Parallelism::Serial, Parallelism::Auto];
    sizes
        .into_iter()
        .map(|rows| {
            // The kernel prior is estimated once, outside the timed audits:
            // the paper's Fig. 4 accounting excludes it.
            let p = pipeline(rows, &engines, reps, 1);
            let audit = |auditor: &Auditor, what| {
                let (table, groups) = (&p.table, &p.groups);
                let engine = |e| move || auditor.tuple_risks_with(table, groups, e);
                let timed = audit_pair(reps, what, engine(engines[0]), engine(engines[1]));
                let reference = auditor.tuple_risks_reference(table, groups);
                assert!(
                    same_bits(&timed.0, &reference),
                    "{what} audit diverges from the reference"
                );
                timed
            };
            let (risks, serial_kernel, parallel_kernel) = audit(&p.auditors[0], "kernel");
            let (_, serial_tcl, parallel_tcl) = audit(&p.auditors[1], "t-closeness");
            let serial_total = p.publish_ms[0] + serial_kernel + serial_tcl;
            let parallel_total = p.publish_ms[1] + parallel_kernel + parallel_tcl;
            row(
                format!("{rows} rows"),
                true,
                vec![
                    ("rows", rows.into()),
                    ("groups", p.groups.len().into()),
                    ("vulnerable", vulnerable(&risks).into()),
                    ("serial_publish_ms", r3(p.publish_ms[0])),
                    ("parallel_publish_ms", r3(p.publish_ms[1])),
                    ("estimate_ms", r3(p.estimate_ms)),
                    ("serial_audit_kernel_ms", r3(serial_kernel)),
                    ("parallel_audit_kernel_ms", r3(parallel_kernel)),
                    ("serial_audit_tcloseness_ms", r3(serial_tcl)),
                    ("parallel_audit_tcloseness_ms", r3(parallel_tcl)),
                    ("serial_total_ms", r3(serial_total)),
                    ("parallel_total_ms", r3(parallel_total)),
                    ("speedup", r3(serial_total / parallel_total)),
                ],
            )
        })
        .collect()
}

fn run_scale_mode(cfg: &mut Config) -> Vec<Json> {
    cfg.audited();
    let sizes = cfg.picks("sizes", &[2_000], &[1_000_000, 10_000_000]);
    let reps = cfg.pick("reps", 2, 2);
    sizes
        .into_iter()
        .map(|rows| {
            let p = pipeline(rows, &[Parallelism::Serial], reps, reps);
            let table = &p.table;
            let (group_map, group_by_ms) = best_ms(reps, || table.group_by_qi());
            let (folded, fold_ms) = best_ms(reps, || FoldedTable::new(table));
            assert_eq!(folded.len(), group_map.len(), "fold size diverges");
            assert_eq!(folded.rows(), table.len(), "fold row total diverges");
            for (point, (codes, members)) in folded.points().zip(&group_map) {
                assert_eq!(point.qi(), codes.as_ref(), "fold key diverges");
                assert_eq!(point.count() as usize, members.len(), "fold count diverges");
                assert_eq!(
                    point.sensitive_counts(),
                    table.sensitive_counts_in(members).as_slice(),
                    "fold histogram diverges"
                );
            }
            let audit = |auditor: &Auditor, what| {
                let inline = || auditor.tuple_risks_with(table, &p.groups, Parallelism::Serial);
                audit_pair(reps, what, inline, || {
                    auditor.tuple_risks_reference(table, &p.groups)
                })
            };
            let (risks, kernel_ms, kernel_reference_ms) = audit(&p.auditors[0], "kernel");
            let (_, tcl_ms, tcl_reference_ms) = audit(&p.auditors[1], "t-closeness");
            let (audit_ms, reference_ms) =
                (kernel_ms + tcl_ms, kernel_reference_ms + tcl_reference_ms);
            row(
                format!("{rows} rows"),
                true,
                vec![
                    ("rows", rows.into()),
                    ("groups", p.groups.len().into()),
                    ("distinct_points", folded.len().into()),
                    ("vulnerable", vulnerable(&risks).into()),
                    ("publish_ms", r3(p.publish_ms[0])),
                    ("estimate_ms", r3(p.estimate_ms)),
                    ("audit_kernel_ms", r3(kernel_ms)),
                    ("audit_tcloseness_ms", r3(tcl_ms)),
                    ("audit_ms", r3(audit_ms)),
                    ("audit_reference_ms", r3(reference_ms)),
                    ("group_by_ms", r3(group_by_ms)),
                    ("fold_ms", r3(fold_ms)),
                    (
                        "pipeline_ms",
                        r3(p.publish_ms[0] + p.estimate_ms + audit_ms),
                    ),
                    ("reference_speedup", r3(reference_ms / audit_ms)),
                ],
            )
        })
        .collect()
}

/// How a delta's rows are distributed over the QI space.
///
/// * `Scattered` — uniform random churn, the worst case for a retained
///   tree: every delta row dirties its own root-to-leaf path;
/// * `Clustered` — a cohort update localized in a narrow age band (bulk
///   arrivals/departures share demographics), the case incremental
///   republication is built for: the delta descends through a handful of
///   subtrees and the rest of the tree is untouched.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Scattered,
    Clustered,
}

impl Workload {
    fn name(self) -> &'static str {
        ["scattered", "clustered"][self as usize]
    }
}

/// Build one 1%-churn delta over `table` (`delta_half` deletes + an equal
/// number of inserts, so the table size stays stable as in a steady-state
/// replacement workload). Every delta-driven scenario draws from it, so
/// they all measure the same churn patterns.
fn workload_delta(
    table: &Table,
    rng: &mut SmallRng,
    workload: Workload,
    delta_half: usize,
    donor_seed: u64,
) -> Delta {
    // Width (in age codes, domain 0..74) of the clustered cohort band.
    const BAND: u32 = 2;
    let n = table.len();
    let age_domain = table.schema().qi_attribute(0).domain_size();
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let donors = adult::generate(delta_half, donor_seed);
    match workload {
        Workload::Scattered => {
            let mut chosen = std::collections::HashSet::with_capacity(delta_half);
            while chosen.len() < delta_half {
                chosen.insert(rng.gen_range(0..n));
            }
            for &row in &chosen {
                builder.delete(row);
            }
            for r in 0..delta_half {
                builder
                    .insert_codes(&donors.qi(r), donors.sensitive_value(r))
                    .expect("donors share the schema");
            }
        }
        Workload::Clustered => {
            // One replacement cohort: retire records inside a narrow
            // age band and admit newcomers with the same ages but fresh
            // remaining attributes (a periodic cohort refresh). Age
            // marginals are preserved exactly, so churn stays local to
            // the band's subtrees. Bands the sampling leaves empty are
            // re-drawn — a no-op delta must never count as a measured
            // republication step.
            let mut ages = Vec::with_capacity(delta_half);
            let mut rows_in_band = Vec::new();
            for _attempt in 0..64 {
                let band_lo = rng.gen_range(0..age_domain.saturating_sub(BAND).max(1));
                for row in 0..n {
                    if ages.len() == delta_half {
                        break;
                    }
                    let age = table.qi_value(row, 0);
                    if age >= band_lo && age < band_lo + BAND && rng.gen_bool(0.5) {
                        rows_in_band.push(row);
                        ages.push(age);
                    }
                }
                if !ages.is_empty() {
                    break;
                }
            }
            assert!(!ages.is_empty(), "no populated age band found in 64 draws");
            for &row in &rows_in_band {
                builder.delete(row);
            }
            for (r, &age) in ages.iter().enumerate() {
                let mut qi = donors.qi(r).to_vec();
                qi[0] = age;
                builder
                    .insert_codes(&qi, donors.sensitive_value(r))
                    .expect("donors share the schema");
            }
        }
    }
    builder.build()
}

/// The scripted churn of the serving scenarios: tenant `tenant`'s delta at
/// `step`, clustered and scattered 1% deltas in turn. It depends only on
/// the tenant's current table, so every replay of the script derives the
/// same deltas from the same tables.
fn scripted_delta(table: &Table, tenant: usize, step: usize) -> Delta {
    let mut rng = SmallRng::seed_from_u64(SEED ^ ((tenant as u64) << 24) ^ ((step as u64) << 8));
    let workload = [Workload::Clustered, Workload::Scattered][(tenant + step) % 2];
    workload_delta(
        table,
        &mut rng,
        workload,
        (table.len() / 200).max(1),
        SEED + (tenant * 1_000 + step) as u64,
    )
}

/// One delta step's wall-clock: [apply, incremental audit, from-scratch
/// publish, from-scratch audit] in ms. The audits are 0 without an auditor.
type Step = [f64; 4];

/// Drive `reps` successive 1% deltas through `session`. Each step applies
/// the delta, then publishes the same table from scratch, both timed, and
/// asserts the two publications bit-identical; with an `auditor`, each side
/// is also audited and the risks must match. Returns the mean delta size
/// and the steps.
fn delta_steps(
    session: &mut PublishSession,
    publisher: &Publisher,
    auditor: Option<&Auditor>,
    workload: Workload,
    reps: usize,
    (rng_seed, donor_base): (u64, u64),
) -> (usize, Vec<Step>) {
    let delta_half = (session.table().len() / 200).max(1);
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut churned = 0;
    let mut steps = Vec::with_capacity(reps);
    for rep in 0..reps {
        let donors = donor_base + rep as u64;
        let delta = workload_delta(session.table(), &mut rng, workload, delta_half, donors);
        churned += delta.len();
        let (inc, apply_ms) = time_ms(|| session.apply(&delta).expect("satisfiable delta"));
        let (inc_report, inc_audit_ms) =
            time_ms(|| auditor.map(|a| session.audit_with(a, THRESHOLD)));
        let (scratch, scratch_ms) =
            time_ms(|| publisher.publish(session.table()).expect("satisfiable"));
        let (full_report, full_audit_ms) =
            time_ms(|| auditor.map(|a| scratch.audit_with(session.table(), a, THRESHOLD)));
        // The recorded speedup must never be bought with drift.
        let drift = inc.anonymized.first_difference(&scratch.anonymized);
        assert_eq!(drift, None, "publication drift");
        if let (Some(inc), Some(full)) = (inc_report, full_report) {
            assert_eq!(inc.first_difference(&full), None, "risk drift");
        }
        steps.push([apply_ms, inc_audit_ms, scratch_ms, full_audit_ms]);
    }
    (churned / reps, steps)
}

fn mean(steps: &[Step], f: impl Fn(&Step) -> f64) -> f64 {
    steps.iter().map(f).sum::<f64>() / steps.len() as f64
}

fn run_incremental_mode(cfg: &mut Config) -> Vec<Json> {
    cfg.audited();
    let sizes = cfg.picks("sizes", &[1_000], &[10_000, 100_000]);
    let reps = cfg.pick("reps", 2, 8);
    let mut rows_out = Vec::new();
    for rows in sizes {
        for workload in [Workload::Clustered, Workload::Scattered] {
            let table = adult::generate(rows, SEED);
            let publisher = Publisher::new()
                .k_anonymity(K)
                .parallelism(Parallelism::Auto);
            // One kernel adversary, estimated once from the base table and
            // reused across every release on both sides (the paper's Fig. 1
            // accounting).
            let measure = measure(&table);
            let (auditor, estimate_ms) = time_ms(|| kernel_auditor(&table, measure));
            let (mut session, open_ms) = time_ms(|| publisher.open(&table).expect("satisfiable"));
            let (_, first_audit_ms) = time_ms(|| session.audit_with(&auditor, THRESHOLD));
            let seeds = (SEED ^ 0xdead_beef, SEED + 1000);
            let (delta_rows, steps) = delta_steps(
                &mut session,
                &publisher,
                Some(&auditor),
                workload,
                reps,
                seeds,
            );
            let [apply, inc_audit, full_publish, full_audit] =
                [0, 1, 2, 3].map(|i| mean(&steps, |s| s[i]));
            let speedup_best = steps
                .iter()
                .map(|s| (s[2] + s[3]) / (s[0] + s[1]))
                .fold(0.0, f64::max);
            rows_out.push(row(
                format!("{rows} rows, {}", workload.name()),
                true,
                vec![
                    ("rows", rows.into()),
                    ("workload", workload.name().into()),
                    ("delta_rows", delta_rows.into()),
                    ("groups", session.group_count().into()),
                    ("open_ms", r3(open_ms)),
                    ("estimate_ms", r3(estimate_ms)),
                    ("first_audit_ms", r3(first_audit_ms)),
                    ("apply_ms_mean", r3(apply)),
                    ("inc_audit_ms_mean", r3(inc_audit)),
                    ("full_publish_ms_mean", r3(full_publish)),
                    ("full_audit_ms_mean", r3(full_audit)),
                    ("incremental_total_ms_mean", r3(apply + inc_audit)),
                    ("full_total_ms_mean", r3(full_publish + full_audit)),
                    (
                        "speedup_mean",
                        r3((full_publish + full_audit) / (apply + inc_audit)),
                    ),
                    ("speedup_best", r3(speedup_best)),
                ],
            ));
        }
    }
    rows_out
}

/// Every [`Algorithm`] behind the session API refreshing through 1% deltas
/// vs a from-scratch publish of the same table, one worker on both sides
/// so the comparison isolates the retained-state advantage.
fn run_strategies_mode(cfg: &mut Config) -> Vec<Json> {
    cfg.set("requirement", "4-anonymity ∧ distinct 3-diversity");
    let sizes = cfg.picks("sizes", &[1_000], &[10_000, 100_000]);
    let reps = cfg.pick("reps", 2, 8);
    use Algorithm::{Bucketize, FullDomain, Mondrian};
    let mut rows_out = Vec::new();
    for rows in sizes {
        for algorithm in [Mondrian, Bucketize, FullDomain] {
            for workload in [Workload::Clustered, Workload::Scattered] {
                let table = adult::generate(rows, SEED);
                let publisher = Publisher::new()
                    .k_anonymity(4)
                    .distinct_l_diversity(3)
                    .algorithm(algorithm)
                    .parallelism(Parallelism::Serial);
                let (mut session, open_ms) =
                    time_ms(|| publisher.open(&table).expect("satisfiable"));
                let seeds = (SEED ^ 0x5747_4759, SEED + 2000);
                let (delta_rows, steps) =
                    delta_steps(&mut session, &publisher, None, workload, reps, seeds);
                let (refresh, scratch) = (mean(&steps, |s| s[0]), mean(&steps, |s| s[2]));
                let speedup_best = steps.iter().map(|s| s[2] / s[0]).fold(0.0, f64::max);
                rows_out.push(row(
                    format!("{rows} rows, {}, {}", algorithm.name(), workload.name()),
                    true,
                    vec![
                        ("rows", rows.into()),
                        ("algorithm", algorithm.name().into()),
                        ("workload", workload.name().into()),
                        ("delta_rows", delta_rows.into()),
                        ("groups", session.group_count().into()),
                        ("open_ms", r3(open_ms)),
                        ("refresh_ms_mean", r3(refresh)),
                        ("scratch_publish_ms_mean", r3(scratch)),
                        ("speedup_mean", r3(scratch / refresh)),
                        ("speedup_best", r3(speedup_best)),
                    ],
                ));
            }
        }
    }
    rows_out
}

/// Build the estimation scenario's `clustered` delta: retire **every** row
/// of the highest-multiplicity QI profiles inside the most populated narrow
/// age band (until ½% of the table is deleted) and admit the same number
/// of rows at those same profiles with fresh sensitive values. The churn
/// is 1% of the rows but touches only a handful of distinct QI points.
fn cohort_delta(table: &Table, delta_half: usize, donor_seed: u64) -> Delta {
    const BAND: u32 = 2;
    let groups = table.group_by_qi();
    let age_domain = table.schema().qi_attribute(0).domain_size();
    // Most populated width-BAND age window.
    let mut rows_at_age = vec![0usize; age_domain as usize];
    for (qi, rows) in &groups {
        rows_at_age[qi[0] as usize] += rows.len();
    }
    let band_lo = (0..age_domain.saturating_sub(BAND - 1).max(1))
        .max_by_key(|&lo| {
            (lo..lo + BAND)
                .map(|a| rows_at_age[a as usize])
                .sum::<usize>()
        })
        .expect("non-empty age domain");
    // Band profiles, most populated first (deterministic tie-break on QI).
    let mut profiles: Vec<(&Box<[u32]>, &Vec<usize>)> = groups
        .iter()
        .filter(|(qi, _)| qi[0] >= band_lo && qi[0] < band_lo + BAND)
        .collect();
    profiles.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));

    let donors = adult::generate(delta_half.max(1), donor_seed);
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let mut taken = 0usize;
    for (qi, rows) in profiles {
        if taken >= delta_half {
            break;
        }
        let take = rows.len().min(delta_half - taken);
        for &row in &rows[..take] {
            builder.delete(row);
        }
        for _ in 0..take {
            builder
                .insert_codes(qi, donors.sensitive_value(taken % donors.len()))
                .expect("profile rows share the schema");
            taken += 1;
        }
    }
    builder.build()
}

/// Assert two prior models are bit-identical (the recorded speedups must
/// never be bought with drift).
fn assert_models_identical(a: &PriorModel, b: &PriorModel, context: &str) {
    let same_priors = a.len() == b.len()
        && a.iter().all(|(qi, p)| {
            b.prior(qi)
                .is_some_and(|q| same_bits(p.as_slice(), q.as_slice()))
        });
    let (x, y) = (a.table_distribution(), b.table_distribution());
    assert!(
        same_priors && same_bits(x.as_slice(), y.as_slice()),
        "{context}: prior models drift"
    );
}

/// The P̂pri engines at each size: the dense all-pairs reference vs the
/// sparse engine (one thread and `Auto`), then the carried refresh vs full
/// re-estimation under three 1% delta workloads. The kernel engine cares
/// about locality in kernel-support space, which differs from the
/// partition tree's:
///
/// * `clustered` — a demographic cohort churned at a few distinct QI
///   profiles ([`cohort_delta`]), so the dirty kernel neighborhood stays
///   small — the case the refresh is built for;
/// * `age_band` — `incremental`'s clustered workload: tree-local but not
///   kernel-local, since hundreds of distinct QI points change;
/// * `scattered` — uniform random churn, the worst case for both engines.
///
/// After those rows, one row per size times the dense reference against
/// the one-thread sparse engine at [`FALLBACK_B`].
fn run_estimate_mode(cfg: &mut Config) -> Vec<Json> {
    cfg.audited();
    let sizes = cfg.picks("sizes", &[1_000], &[10_000, 100_000]);
    let reps = cfg.pick("reps", 1, 3);
    cfg.set("fallback_bandwidth", FALLBACK_B);
    let mut rows: Vec<Json> = sizes
        .iter()
        .map(|&rows| {
            let table = adult::generate(rows, SEED);
            let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth(&table));
            let density = estimator.support_density();
            let (dense, dense_ms) = best_ms(reps, || estimator.estimate_reference(&table));
            let (sparse, sparse_ms) = best_ms(reps, || {
                estimator.estimate_with(&table, Parallelism::threads(1))
            });
            let (parallel, parallel_ms) =
                best_ms(reps, || estimator.estimate_with(&table, Parallelism::Auto));
            assert_models_identical(&dense, &sparse, "dense vs sparse");
            assert_models_identical(&dense, &parallel, "dense vs sparse-parallel");
            let mut values = keyed(vec![
                ("rows", rows.into()),
                ("distinct_points", dense.len().into()),
                (
                    "support_density",
                    round(density.iter().sum::<f64>() / density.len() as f64, 4),
                ),
                ("dense_reference_ms", r3(dense_ms)),
                ("sparse_ms", r3(sparse_ms)),
                ("sparse_parallel_ms", r3(parallel_ms)),
                ("sparse_speedup", r3(dense_ms / sparse_ms)),
                ("sparse_parallel_speedup", r3(dense_ms / parallel_ms)),
            ]);
            let delta_half = (rows / 200).max(1);
            let workloads = [
                ("clustered", None),
                ("age_band", Some(Workload::Clustered)),
                ("scattered", Some(Workload::Scattered)),
            ];
            for (workload, churn) in workloads {
                let mut rng = SmallRng::seed_from_u64(SEED ^ 0xe571_ae11);
                let delta = match churn {
                    None => cohort_delta(&table, delta_half, SEED + 77),
                    Some(w) => workload_delta(&table, &mut rng, w, delta_half, SEED + 77),
                };
                let next = table.apply_delta(&delta).expect("valid delta");
                let (fresh, reestimate_ms) =
                    best_ms(reps, || estimator.estimate_with(&next, Parallelism::Auto));
                let (mut refreshed, mut refresh_ms) = (None, f64::INFINITY);
                for _ in 0..reps {
                    let mut model = sparse.clone();
                    let (_, ms) = time_ms(|| {
                        let deleted =
                            DeletedRows::gather(&table, &delta).expect("deletes in range");
                        let folded = model.folded();
                        let evolved = folded
                            .evolve(&deleted, &delta)
                            .expect("delta matches the fold");
                        estimator.refresh_folded(
                            &mut model,
                            evolved.into_folded(),
                            Parallelism::Auto,
                        )
                    });
                    refresh_ms = refresh_ms.min(ms);
                    refreshed = Some(model);
                }
                assert_models_identical(
                    &fresh,
                    &refreshed.expect("reps >= 1"),
                    &format!("refresh vs re-estimate ({workload})"),
                );
                values.extend([
                    (format!("delta_rows_{workload}"), delta.len().into()),
                    (format!("refresh_ms_{workload}"), r3(refresh_ms)),
                    (format!("reestimate_ms_{workload}"), r3(reestimate_ms)),
                    (
                        format!("refresh_speedup_{workload}"),
                        r3(reestimate_ms / refresh_ms),
                    ),
                ]);
            }
            row(format!("{rows} rows"), true, values)
        })
        .collect();
    rows.extend(sizes.iter().map(|&rows| fallback_row(rows, reps)));
    rows
}

/// A bandwidth wide enough that nearly every query of an Adult estimate
/// takes the estimator's inverted-index fallback instead of its rest-key
/// grid (at 1k–100k rows, all but 0.1–0.8% of the queries).
const FALLBACK_B: f64 = 0.7;

/// The dense reference vs the one-thread sparse engine at [`FALLBACK_B`].
fn fallback_row(rows: usize, reps: usize) -> Json {
    let table = adult::generate(rows, SEED);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(FALLBACK_B, table.qi_count()).expect("positive bandwidth"),
    );
    let (dense, dense_ms) = best_ms(reps, || estimator.estimate_reference(&table));
    let (sparse, sparse_ms) = best_ms(reps, || {
        estimator.estimate_with(&table, Parallelism::threads(1))
    });
    assert_models_identical(&dense, &sparse, "dense vs sparse (fallback bandwidth)");
    let values = keyed(vec![
        ("rows", rows.into()),
        ("bandwidth", FALLBACK_B.into()),
        ("distinct_points", dense.len().into()),
        ("dense_reference_ms", r3(dense_ms)),
        ("sparse_ms", r3(sparse_ms)),
        ("sparse_speedup", r3(dense_ms / sparse_ms)),
    ]);
    row(format!("{rows} rows, b' {FALLBACK_B}"), true, values)
}

/// N tenants × M reader/writer threads through a [`SessionHub`](bgkanon::SessionHub), against
/// the **serial one-session loop** — one thread processing every tenant
/// sequentially through the single-owner session engine on one worker
/// and a fresh (uncached) audit per release, the pre-hub
/// way of serving the same workload. Both sides apply the identical
/// per-tenant delta sequences; every tenant's final table, publication and
/// final audit report are compared bit for bit across the two. Rows: the
/// serial loop, the hub, then one verdict per tenant.
fn run_concurrent_mode(cfg: &mut Config) -> Vec<Json> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    cfg.audited();
    let tenants = cfg.pick("tenants", 3, 8);
    let rows = cfg.pick("rows_per_tenant", 3_000, 10_000);
    let deltas = cfg.pick("deltas_per_tenant", 5, 6);
    let readers = cfg.pick("reader_threads", 2, 4);
    let writers = cfg.pick("writer_threads", 1, 2);
    // Audit requests served per phase: the serial loop audits once per
    // release; the hub's readers serve this many times more (a serving
    // layer exists to answer many queries per release).
    let audit_quota = tenants * (deltas + 1) * cfg.pick("quota_mult", 4, 4);

    let tables: Vec<Table> = (0..tenants)
        .map(|i| adult::generate(rows, SEED + i as u64))
        .collect();
    // Frozen per-tenant kernel adversaries (the Fig. 1 accounting: one
    // estimated prior reused across releases), built outside both timed
    // phases and shared by both so the audits compare exactly.
    let auditors: Vec<Auditor> = tables
        .iter()
        .map(|t| kernel_auditor(t, measure(t)))
        .collect();

    // ---- Phase 1: the serial one-session loop. --------------------------
    let serial_publisher = Publisher::new()
        .k_anonymity(K)
        .parallelism(Parallelism::Serial);
    let serial_started = Instant::now();
    let mut serial_tables: Vec<Table> = Vec::with_capacity(tenants);
    let mut serial_reports = Vec::with_capacity(tenants);
    let mut serial_audits = 0usize;
    for i in 0..tenants {
        let mut session = serial_publisher.open(&tables[i]).expect("satisfiable");
        let mut last = None;
        for step in 0..=deltas {
            if step > 0 {
                let d = scripted_delta(session.table(), i, step - 1);
                session.apply(&d).expect("valid scripted delta");
            }
            let groups = session.anonymized().row_groups();
            last = Some(auditors[i].report(session.table(), &groups, THRESHOLD));
            serial_audits += 1;
        }
        serial_tables.push(session.table().clone());
        serial_reports.push(last.expect("one audit per release"));
    }
    let serial_elapsed = serial_started.elapsed().as_secs_f64();
    let serial_deltas = tenants * deltas;

    // ---- Phase 2: the hub, writers + readers concurrent. ----------------
    let hub = bgkanon::SessionHub::new();
    let hub_publisher = Publisher::new().k_anonymity(K);
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        hub.register(name, &tables[i], &hub_publisher)
            .expect("satisfiable");
    }
    let served = AtomicUsize::new(0);
    let writers_done = AtomicBool::new(false);
    let hub_started = Instant::now();
    let hub_window = std::thread::scope(|scope| {
        // Shared by reference: every spawned closure copies these in.
        let (hub, names, auditors) = (&hub, &names, &auditors);
        let (served, writers_done) = (&served, &writers_done);
        let writer_handles: Vec<_> = (0..writers)
            .map(|w| {
                scope.spawn(move || {
                    // Tenants are partitioned over writers; each tenant's
                    // delta sequence stays ordered within its one writer.
                    for i in (w..tenants).step_by(writers.max(1)) {
                        for step in 0..deltas {
                            let snap = hub.snapshot(&names[i]).expect("registered");
                            let d = scripted_delta(snap.table(), i, step);
                            hub.apply(&names[i], &d).expect("valid scripted delta");
                        }
                    }
                })
            })
            .collect();
        for r in 0..readers {
            scope.spawn(move || {
                let mut round = r;
                // Serve the shared audit quota; keep serving while writers
                // are still publishing so the window always has reader load.
                loop {
                    let ticket = served.fetch_add(1, Ordering::Relaxed);
                    if ticket >= audit_quota && writers_done.load(Ordering::Relaxed) {
                        served.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                    let i = round % tenants;
                    let report = hub
                        .audit_with(&names[i], &auditors[i], THRESHOLD)
                        .expect("tenant registered");
                    assert!(report.worst_case >= 0.0);
                    round += 1;
                }
            });
        }
        for h in writer_handles {
            h.join().expect("writer thread");
        }
        writers_done.store(true, Ordering::Relaxed);
        hub_started.elapsed().as_secs_f64()
    });
    let hub_elapsed = hub_started.elapsed().as_secs_f64();
    let hub_audits = served.load(Ordering::Relaxed);

    // ---- Verification: concurrency must never buy throughput with drift.
    let verdicts: Vec<Json> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let snap = hub.snapshot(name).expect("registered");
            let (table, serial_table) = (snap.table(), &serial_tables[i]);
            // (a) The hub's evolved table is the serial loop's evolved table.
            let same_table = table.len() == serial_table.len()
                && (0..table.len()).all(|r| {
                    table.qi(r) == serial_table.qi(r)
                        && table.sensitive_value(r) == serial_table.sensitive_value(r)
                });
            // (b) The published partition matches a from-scratch publish.
            let verified = serial_publisher.verify(table, snap.anonymized());
            // (c) A final cached hub audit is bit-identical to the serial
            // loop's final fresh audit of the same release.
            let hub_report = hub
                .audit_with(name, &auditors[i], THRESHOLD)
                .expect("registered");
            let identical = same_table
                && verified.is_ok()
                && hub_report.first_difference(&serial_reports[i]).is_none();
            row(
                name.as_str(),
                identical,
                vec![
                    ("rows", snap.len().into()),
                    ("groups", snap.group_count().into()),
                ],
            )
        })
        .collect();
    let all_identical = verdicts.iter().all(identical);

    // Each phase's wall-clock, audits served, and deltas and audits per
    // second; the hub's delta rate is over its writers' window.
    let rates = |elapsed: f64, delta_window: f64, audits: usize| {
        let rates = [serial_deltas as f64 / delta_window, audits as f64 / elapsed];
        let values = vec![
            ("elapsed_ms", r3(elapsed * 1e3)),
            ("audits", audits.into()),
            ("deltas_per_s", r3(rates[0])),
            ("audits_per_s", r3(rates[1])),
        ];
        (values, rates)
    };
    let (serial, [serial_deltas_per_s, serial_audits_per_s]) =
        rates(serial_elapsed, serial_elapsed, serial_audits);
    let (mut hub_values, [hub_deltas_per_s, hub_audits_per_s]) =
        rates(hub_elapsed, hub_window, hub_audits);
    hub_values.extend([
        ("audit_speedup", r3(hub_audits_per_s / serial_audits_per_s)),
        ("delta_speedup", r3(hub_deltas_per_s / serial_deltas_per_s)),
    ]);
    let phases = [("serial loop", serial), ("hub", hub_values)];
    let phases = phases.map(|(label, values)| row(label, all_identical, values));
    phases.into_iter().chain(verdicts).collect()
}

/// Cold-start recovery cost: durable hubs are written once per size point
/// (the serving scenarios' scripted churn), dropped, and re-opened cold
/// under two durability configurations — WAL-only (every delta replayed
/// through the incremental engine) and checkpoint+WAL-tail (the partition
/// tree resumes from the latest checkpoint). Every re-opened tenant must
/// publish bit-identically to the hub that was dropped.
fn run_recovery_mode(cfg: &mut Config) -> Vec<Json> {
    use bgkanon::{DurabilityOptions, SessionHub, SyncPolicy};

    cfg.set("requirement", format!("{K}-anonymity"));
    cfg.set("sync", "always");
    let checkpoint_every = cfg.pick("checkpoint_every", 4u64, 4);
    let rows = cfg.pick("rows_per_tenant", 1_000, 5_000);
    let tenants = cfg.picks::<usize>("tenants", &[1, 2], &[2, 4, 8]);
    let deltas = cfg.picks::<usize>("deltas_per_tenant", &[4, 8], &[8, 16, 32]);
    // One tenant's publication: (version, publication) — enough to assert
    // bit-identity after a cold open.
    let capture = |hub: &SessionHub, name: &str| {
        let snap = hub.snapshot(name).expect("registered");
        (snap.version(), snap.anonymized().clone())
    };
    let publisher = Publisher::new().k_anonymity(K);
    let points = tenants.into_iter().zip(deltas);
    let mut out = Vec::new();
    for (point, (tenants, deltas)) in points.enumerate() {
        let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
        let mut values = vec![
            ("tenants", tenants.into()),
            ("deltas_per_tenant", deltas.into()),
        ];
        let mut identical = true;
        let lanes = [
            (["wal_open_ms", "wal_replayed"], 0),
            (
                ["checkpoint_open_ms", "checkpoint_replayed"],
                checkpoint_every,
            ),
        ];
        for ([open_key, replayed_key], every) in lanes {
            let dir = std::env::temp_dir().join(format!(
                "bgkanon_bench_recovery_{}_{point}_{every}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let options = DurabilityOptions {
                sync: SyncPolicy::Always,
                checkpoint_every: every,
                verify_on_open: false,
                max_resident_bytes: None,
            };
            // Write phase: register + scripted churn, then capture and drop.
            let expected: Vec<_> = {
                let (hub, _) = SessionHub::open_with(&dir, options).expect("create durable hub");
                for (i, name) in names.iter().enumerate() {
                    let table = adult::generate(rows, SEED + i as u64);
                    hub.register(name, &table, &publisher).expect("satisfiable");
                }
                for (i, name) in names.iter().enumerate() {
                    for step in 0..deltas {
                        let snap = hub.snapshot(name).expect("registered");
                        let d = scripted_delta(snap.table(), i, step);
                        hub.apply(name, &d).expect("valid scripted delta");
                    }
                }
                names.iter().map(|n| capture(&hub, n)).collect()
            };
            // Cold open: the only timed region.
            let ((hub, report), open_ms) =
                time_ms(|| SessionHub::open_with(&dir, options).expect("recover"));
            assert!(report.is_clean(), "recovery bench hit unrecoverable state");
            let replayed: usize = report.tenants.iter().map(|t| t.replayed).sum();
            identical &= names
                .iter()
                .zip(&expected)
                .all(|(name, want)| capture(&hub, name) == *want);
            values.extend([(open_key, r3(open_ms)), (replayed_key, replayed.into())]);
            drop(hub);
            let _ = std::fs::remove_dir_all(&dir);
        }
        out.push(row(format!("{tenants} tenant(s)"), identical, values));
    }
    out
}

/// Bounded-memory multi-tenancy: many small tenants in a durable hub,
/// driven by one seeded Zipfian script of interleaved audits and deltas.
/// The unbounded lane (row 0) establishes the operation-by-operation
/// output digests and the resident-byte peak; each budget lane then
/// replays the identical script under `max_resident_bytes` = peak /
/// fraction, and must reproduce every digest — eviction is a memory
/// policy, never a semantics.
fn run_fleet_mode(cfg: &mut Config) -> Vec<Json> {
    use bgkanon::data::hash::mix;
    use bgkanon::privacy::AuditReport;
    use bgkanon::{DurabilityOptions, SessionHub, SyncPolicy, TenantSnapshot};

    cfg.set("requirement", "4-anonymity");
    cfg.set("sync", "never");
    let checkpoint_every = cfg.pick("checkpoint_every", 8u64, 8);
    let tenants = cfg.pick("tenants", 400, 10_000);
    let rows = cfg.pick("rows_per_tenant", 64, 64);
    let distinct = cfg.pick("distinct_contents", 32, 32);
    let ops = cfg.pick("ops", 4 * 400, 4 * 10_000);
    let apply_fraction = cfg.pick("apply_fraction", 0.15, 0.15);
    let b_primes = cfg.picks("b_primes", &[0.3, 0.5], &[0.3, 0.5]);
    let budget_fractions = cfg.picks("budget_fractions", &[2, 4, 8], &[2, 4, 8]);

    // Deterministic Zipfian CDF over tenant ranks (rank 0 hottest).
    let zipf_s = cfg.pick("zipf_s", 1.3, 1.3);
    let weights: Vec<f64> = (0..tenants)
        .map(|r| 1.0 / ((r + 1) as f64).powf(zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0f64, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    // The access script is drawn once and replayed verbatim by every
    // lane, so budgeted and unbounded hubs see the same operations: a
    // tenant, then `None` to apply a delta or `Some(b′)` to audit it
    // against `Adv(b′)`.
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x00f1_ee70);
    let script: Vec<(usize, Option<f64>)> = (0..ops)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..1.0);
            let tenant = cdf.partition_point(|c| *c < x).min(tenants - 1);
            if rng.gen_bool(apply_fraction) {
                (tenant, None)
            } else {
                let b = b_primes[(rng.gen::<u64>() % b_primes.len() as u64) as usize];
                (tenant, Some(b))
            }
        })
        .collect();

    fn digest_snapshot(snap: &TenantSnapshot) -> u64 {
        let groups = snap.anonymized().iter().flat_map(|g| {
            let rows = g.rows.iter().map(|&r| r as u64);
            let ranges = g
                .ranges
                .iter()
                .map(|q| (u64::from(q.min) << 32) | u64::from(q.max));
            rows.chain(ranges)
                .chain(g.sensitive_counts.iter().map(|&c| u64::from(c)))
        });
        std::iter::once(snap.version()).chain(groups).fold(0, mix)
    }
    fn digest_report(report: &AuditReport) -> u64 {
        let (worst, mean) = (report.worst_case.to_bits(), report.mean.to_bits());
        let risks = report.risks.iter().map(|r| r.to_bits());
        [worst, mean, report.vulnerable as u64]
            .into_iter()
            .chain(risks)
            .fold(0, mix)
    }

    let publisher = Publisher::new().k_anonymity(4);
    let name_of = |i: usize| format!("tenant-{i:05}");
    // One lane: its row values, resident peak, and output digests (one per
    // operation, then one over every tenant's final snapshot).
    let run_lane = |tag: &str, budget: Option<usize>| -> (Values, usize, Vec<u64>) {
        let dir =
            std::env::temp_dir().join(format!("bgkanon_bench_fleet_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions {
            sync: SyncPolicy::Never,
            checkpoint_every,
            verify_on_open: false,
            max_resident_bytes: budget,
        };
        let (hub, _) = SessionHub::open_with(&dir, options).expect("create fleet hub");
        for i in 0..tenants {
            let table = adult::generate(rows, SEED + (i % distinct) as u64);
            hub.register(&name_of(i), &table, &publisher)
                .expect("small tenant is satisfiable");
        }
        let mut digests = Vec::with_capacity(ops + 1);
        let mut peak = hub.memory_stats().resident_bytes;
        let mut audits = 0usize;
        let mut rehydrations_mid = 0u64;
        let (_, elapsed_ms) = time_ms(|| {
            for (idx, &(t, audit)) in script.iter().enumerate() {
                match audit {
                    None => {
                        let name = name_of(t);
                        let delta = {
                            let snap = hub.snapshot(&name).expect("registered");
                            // Seeded per op index: every lane derives the
                            // identical delta from the identical table.
                            let mut delta_rng = SmallRng::seed_from_u64(SEED ^ (idx as u64) << 8);
                            workload_delta(
                                snap.table(),
                                &mut delta_rng,
                                Workload::Scattered,
                                2,
                                SEED + idx as u64,
                            )
                        };
                        let snap = hub.apply(&name, &delta).expect("scripted delta");
                        digests.push(digest_snapshot(&snap));
                    }
                    Some(b) => {
                        let report = hub
                            .audit_against(&name_of(t), b, THRESHOLD)
                            .expect("registered");
                        digests.push(digest_report(&report));
                        audits += 1;
                    }
                }
                if idx % 64 == 0 {
                    peak = peak.max(hub.memory_stats().resident_bytes);
                }
                if idx + 1 == ops / 2 {
                    rehydrations_mid = hub.memory_stats().rehydrations;
                }
            }
        });
        // Stats close with the script: the verification sweep below
        // rehydrates every evicted tenant and must not pollute them.
        let stats = hub.memory_stats();
        peak = peak.max(stats.resident_bytes);
        let final_snapshots = (0..tenants).map(|i| hub.snapshot(&name_of(i)).expect("registered"));
        digests.push(final_snapshots.fold(0, |h, snap| mix(h, digest_snapshot(&snap))));
        let warm_misses = (stats.rehydrations - rehydrations_mid) as f64;
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
        let mut values: Values = match budget {
            Some(budget) => vec![
                ("budget_bytes", budget.into()),
                // Unrounded: the gate's ceiling on it has no band.
                ("peak_over_budget", (peak as f64 / budget as f64).into()),
            ],
            None => Vec::new(),
        };
        values.extend([
            ("peak_resident_bytes", peak.into()),
            (
                "hit_rate",
                round(1.0 - warm_misses / (ops - ops / 2) as f64, 4),
            ),
            (
                "hit_rate_total",
                round(1.0 - stats.rehydrations as f64 / ops as f64, 4),
            ),
            ("evictions", stats.evictions.into()),
            ("rehydrations", stats.rehydrations.into()),
            ("elapsed_ms", r3(elapsed_ms)),
            ("audits_per_s", round(audits as f64 / (elapsed_ms / 1e3), 1)),
            ("interned_models", stats.interned_models.into()),
            ("intern_hits", stats.intern_hits.into()),
            ("intern_misses", stats.intern_misses.into()),
        ]);
        (values, peak, digests)
    };

    let (values, peak, reference) = run_lane("unbounded", None);
    let mut out = vec![row("unbounded", true, values)];
    for fraction in budget_fractions {
        let budget = peak / fraction;
        let (mut values, _, digests) = run_lane(&format!("budget_{fraction}"), Some(budget));
        values.insert(0, ("budget_fraction", fraction.into()));
        out.push(row(
            format!("peak/{fraction}"),
            digests == reference,
            values,
        ));
    }
    out
}

/// Run one scenario, print its table, write its document to
/// `out_dir/BENCH_<name>.json`, and fail if any row drifted.
fn run_scenario(scenario: &Scenario, smoke: bool, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut config = Config {
        smoke,
        values: Vec::new(),
    };
    let rows = (scenario.run)(&mut config);
    let config = Json::Obj(config.values);
    let all_identical = rows.iter().all(identical);

    let columns: Vec<&str> = scenario.columns.split_whitespace().collect();
    let mut report = Report::new(scenario.title, &columns);
    for row in &rows {
        let label = row.get("label").and_then(Json::as_str).unwrap_or_default();
        report.row(label, columns.iter().map(|k| cell(k, row.get(k))).collect());
    }
    report.note(&format!("config {}", config.render().trim_end()));
    println!("{}", report.render());

    let doc = Json::Obj(keyed(vec![
        ("bench", scenario.name.into()),
        ("smoke", smoke.into()),
        ("seed", SEED.into()),
        ("threads", Parallelism::Auto.effective_threads().into()),
        ("config", config),
        ("rows", Json::Arr(rows)),
        ("identical_output", all_identical.into()),
    ]));
    let path = out_dir.join(format!("BENCH_{}.json", scenario.name));
    std::fs::write(&path, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !all_identical {
        return Err(format!(
            "{} drifted from its reference — see {}",
            scenario.name,
            path.display()
        ));
    }
    Ok(())
}

/// A table cell: times in ms, speedups as `x`, byte counts in MB.
fn cell(key: &str, value: Option<&Json>) -> String {
    match value {
        None => "-".to_owned(),
        Some(Json::Num(x)) if key.contains("_ms") => format!("{x:.2}ms"),
        Some(Json::Num(x)) if key.contains("speedup") => format!("{x:.2}x"),
        Some(Json::Num(x)) if key.ends_with("_bytes") => format!("{:.1}MB", x / 1048576.0),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render().trim_end().to_owned(),
    }
}

/// Parse `[--smoke] [--out-dir DIR] [SCENARIO…]`; no names means every
/// scenario.
fn parse_args(args: &[String]) -> Result<(bool, &str, Vec<&'static Scenario>), String> {
    let (mut smoke, mut out_dir, mut picked) = (false, ".", Vec::new());
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = it.next().ok_or("--out-dir needs a directory")?,
            name => match SCENARIOS.iter().find(|s| s.name == name) {
                Some(scenario) => picked.push(scenario),
                None => return Err(format!("unknown argument `{name}`")),
            },
        }
    }
    if picked.is_empty() {
        picked = SCENARIOS.iter().collect();
    }
    Ok((smoke, out_dir, picked))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, out_dir, picked) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(problem) => {
            let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            eprintln!(
                "baseline: {problem}\nusage: baseline [--smoke] [--out-dir DIR] [SCENARIO...]\n\
                 scenarios: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(out_dir);
    if let Err(msg) = picked
        .iter()
        .try_for_each(|s| run_scenario(s, smoke, out_dir))
    {
        eprintln!("baseline: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_bench::gate::{parse, parse_rules};
    use std::collections::BTreeSet;

    #[test]
    fn thresholds_gate_exactly_the_scenarios() {
        let thresholds = parse(include_str!("../../thresholds.json")).unwrap();
        let rules = parse_rules(&thresholds).unwrap();
        let gated: BTreeSet<&str> = rules.iter().map(|r| r.bench.as_str()).collect();
        let scenarios: BTreeSet<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(gated, scenarios);
    }

    #[test]
    fn arguments_pick_scenarios_and_reject_unknowns() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let all = args(&["--smoke"]);
        let (smoke, out_dir, picked) = parse_args(&all).unwrap();
        assert!(smoke);
        assert_eq!(out_dir, ".");
        assert_eq!(picked.len(), SCENARIOS.len());
        let some = args(&["--out-dir", "/tmp/x", "fleet", "scale"]);
        let (smoke, out_dir, picked) = parse_args(&some).unwrap();
        assert!(!smoke);
        assert_eq!(out_dir, "/tmp/x");
        let names: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names, ["fleet", "scale"]);
        for bad in [
            &["--fleet"][..],
            &["--reps", "3"],
            &["--out-dir"],
            &["nope"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn config_records_what_the_run_reads() {
        for (smoke, want) in [(true, 1_000usize), (false, 10_000)] {
            let mut cfg = Config {
                smoke,
                values: Vec::new(),
            };
            assert_eq!(cfg.pick("rows", 1_000, 10_000), want);
            assert_eq!(
                cfg.picks("sizes", &[0.5], &[0.5, 2.0]).len(),
                2 - usize::from(smoke)
            );
            let doc = Json::Obj(cfg.values);
            assert_eq!(doc.get("rows").and_then(Json::as_f64), Some(want as f64));
            assert_eq!(parse(&doc.render()).unwrap(), doc);
        }
    }
}
