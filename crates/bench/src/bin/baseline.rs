//! The recorded performance baseline: publish + audit wall-clock on the
//! synthetic Adult table, serial reference engine vs. the parallel batched
//! engine, written to `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline            # 10k + 100k rows
//! cargo run --release -p bgkanon-bench --bin baseline -- --smoke # 1k rows (CI)
//! ```
//!
//! `--incremental` switches to the **incremental republication** benchmark,
//! written to `BENCH_incremental.json`: a [`PublishSession`](bgkanon::PublishSession) absorbs
//! repeated 1% deltas (½% deletes + ½% inserts) and each `session.apply` +
//! cached re-audit is timed against a from-scratch publish + audit of the
//! identical final table, with both sides verified bit-identical before
//! any number is recorded.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --incremental
//! cargo run --release -p bgkanon-bench --bin baseline -- --incremental --smoke
//! ```
//!
//! `--estimate` switches to the **P̂pri estimation** benchmark, written to
//! `BENCH_estimate.json`: the dense all-pairs reference engine vs the
//! sparse compact-support engine (single-threaded and `Auto`), plus the
//! hub's carried refresh ([`DeletedRows::gather`], then
//! [`FoldedTable::evolve`], then [`PriorEstimator::refresh_folded`]) vs
//! full re-estimation under the clustered / scattered 1% delta workloads —
//! every engine pair verified bit-identical before its timing is recorded.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --estimate
//! cargo run --release -p bgkanon-bench --bin baseline -- --estimate --smoke
//! ```
//!
//! `--concurrent` switches to the **multi-tenant serving** benchmark,
//! written to `BENCH_concurrent.json`: N tenants × M reader/writer threads
//! through a [`SessionHub`](bgkanon::SessionHub) (writers applying scripted
//! churn deltas, readers serving audit requests through the hub's shared
//! stamp caches) against the serial one-session loop — one thread, serial
//! reference engines, a fresh audit per release. Every tenant's final
//! table, publication and audit report are verified bit-identical between
//! the two phases before any throughput number is recorded.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --concurrent
//! cargo run --release -p bgkanon-bench --bin baseline -- --concurrent --smoke
//! ```
//!
//! `--recovery` switches to the **durable cold-start** benchmark, written
//! to `BENCH_recovery.json`: durable [`SessionHub`](bgkanon::SessionHub)s
//! absorb scripted churn, are dropped, and re-opened cold — timing
//! `SessionHub::open` under WAL-only replay vs checkpoint + WAL-tail
//! resume across tenant-count × WAL-length size points. Every re-opened
//! tenant must publish bit-identically to the hub that was dropped before
//! any number is recorded.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --recovery
//! cargo run --release -p bgkanon-bench --bin baseline -- --recovery --smoke
//! ```
//!
//! `--scale` switches to the **scale** benchmark, written to
//! `BENCH_scale.json`: the full serial publish → prior-estimate → audit
//! pipeline (plus isolated group-by-QI and estimator-fold passes) at 1M
//! and 10M rows. Before any number is recorded, both audits are verified
//! bit-identical to the row-at-a-time
//! [`Auditor::tuple_risks_reference`] (timed as `audit_reference_ms`) and
//! the estimator fold to [`Table::group_by_qi`] (codes, counts and
//! sensitive histograms).
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --scale
//! cargo run --release -p bgkanon-bench --bin baseline -- --scale --smoke
//! ```
//!
//! `--fleet` switches to the **bounded-memory fleet** benchmark, written
//! to `BENCH_fleet.json`: 10k small tenants (400 under `--smoke`) in a
//! durable hub, driven by a seeded Zipfian access script of interleaved
//! audits and deltas. One unbounded reference lane establishes the
//! operation-by-operation output digests and the unbounded resident-byte
//! peak; budget lanes then replay the *identical* script under
//! `max_resident_bytes` ceilings of ½, ¼ and ⅛ of that peak, recording
//! peak resident bytes, hit rates, eviction/rehydration counts and audit
//! throughput. Every lane's digests must match the reference bit-for-bit
//! — eviction is a memory policy, never a semantics.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --fleet
//! cargo run --release -p bgkanon-bench --bin baseline -- --fleet --smoke
//! ```
//!
//! With `--strategies` it benchmarks every anonymization strategy behind
//! the session API — Mondrian, bucketization, full-domain generalization —
//! refreshing through 1% deltas vs a from-scratch publish of the same
//! post-delta table, written to `BENCH_strategies.json`. Serial engines on
//! both sides, so the speedup isolates the retained-state advantage; every
//! step is verified bit-identical before its timing is recorded.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --strategies
//! cargo run --release -p bgkanon-bench --bin baseline -- --strategies --smoke
//! ```
//!
//! Methodology:
//!
//! * **publish** — Mondrian under 10-anonymity (the partitioning cost the
//!   paper's Fig. 4(a) measures); the serial column runs the reference
//!   engine, the parallel column the work-stealing engine;
//! * **audit** — the full §V.A disclosure-risk audit of the published
//!   partition against the paper's two reference adversaries: the kernel
//!   `Adv(0.25·1)` (its prior model estimated once, outside the timed
//!   regions, and shared by both engines — the paper's Fig. 4 accounting
//!   excludes estimation, and it is identical work either way; the cost is
//!   still recorded in `estimate_ms`) and the constant-prior t-closeness
//!   adversary of §II.D, whose audit the batched engine collapses from one
//!   posterior per *row* to one per *group signature*;
//! * every timed section is the **minimum over `--reps N`** (default 3)
//!   runs, and both engines must produce bit-identical groups and risks —
//!   the run aborts otherwise, so the recorded speedup is never bought with
//!   drift.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{
    Adversary, Bandwidth, DeletedRows, FoldedTable, PriorEstimator, PriorModel,
};
use bgkanon::privacy::Auditor;
use bgkanon::stats::SmoothedJs;
use bgkanon::{Algorithm, Publisher};
use bgkanon_bench::report::Report;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// k of the published k-anonymity requirement.
const K: usize = 10;
/// Uniform bandwidth of the kernel auditing adversary.
const B_PRIME: f64 = 0.25;
/// Vulnerability threshold of the audit.
const THRESHOLD: f64 = 0.2;
/// Generator seed — the baseline must be reproducible.
const SEED: u64 = 42;

struct SizeResult {
    rows: usize,
    groups: usize,
    serial_publish_ms: f64,
    parallel_publish_ms: f64,
    estimate_ms: f64,
    serial_audit_kernel_ms: f64,
    parallel_audit_kernel_ms: f64,
    serial_audit_tcloseness_ms: f64,
    parallel_audit_tcloseness_ms: f64,
    vulnerable: usize,
}

impl SizeResult {
    fn serial_total_ms(&self) -> f64 {
        self.serial_publish_ms + self.serial_audit_kernel_ms + self.serial_audit_tcloseness_ms
    }

    fn parallel_total_ms(&self) -> f64 {
        self.parallel_publish_ms + self.parallel_audit_kernel_ms + self.parallel_audit_tcloseness_ms
    }

    fn speedup(&self) -> f64 {
        self.serial_total_ms() / self.parallel_total_ms()
    }
}

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

/// Audit with one adversary on both engines, asserting bit-identical risks.
/// Returns (serial_ms, parallel_ms, serial risks).
fn audit_both_engines(
    auditor: &Auditor,
    table: &Table,
    groups: &[Vec<usize>],
    reps: usize,
) -> (f64, f64, Vec<f64>) {
    let (serial_risks, serial_ms) = best_ms(reps, || {
        auditor.tuple_risks_with(table, groups, Parallelism::Serial)
    });
    let (parallel_risks, parallel_ms) = best_ms(reps, || {
        auditor.tuple_risks_with(table, groups, Parallelism::Auto)
    });
    for (row, (s, p)) in serial_risks.iter().zip(&parallel_risks).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "audit engines diverge at row {row}"
        );
    }
    (serial_ms, parallel_ms, serial_risks)
}

fn run_size(rows: usize, reps: usize) -> SizeResult {
    let table = adult::generate(rows, SEED);

    let serial_publisher = Publisher::new()
        .k_anonymity(K)
        .parallelism(Parallelism::Serial);
    let parallel_publisher = Publisher::new()
        .k_anonymity(K)
        .parallelism(Parallelism::Auto);

    let (serial_outcome, serial_publish_ms) = best_ms(reps, || {
        serial_publisher.publish(&table).expect("satisfiable")
    });
    let (parallel_outcome, parallel_publish_ms) = best_ms(reps, || {
        parallel_publisher.publish(&table).expect("satisfiable")
    });

    // The recorded speedup must never be bought with drift.
    let sg = serial_outcome.anonymized.groups();
    let pg = parallel_outcome.anonymized.groups();
    assert_eq!(sg.len(), pg.len(), "engines disagree on group count");
    for (a, b) in sg.iter().zip(pg) {
        assert_eq!(a.rows, b.rows, "engines disagree on a group's rows");
    }
    let groups = serial_outcome.anonymized.row_groups();

    let measure: Arc<dyn bgkanon::stats::BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));

    // Kernel adversary: one shared prior model, estimated outside the timed
    // regions.
    let (kernel_auditor, estimate_ms) = time_ms(|| {
        let adversary = Arc::new(Adversary::kernel(
            &table,
            Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
        ));
        Auditor::new(adversary, Arc::clone(&measure))
    });
    let (serial_audit_kernel_ms, parallel_audit_kernel_ms, kernel_risks) =
        audit_both_engines(&kernel_auditor, &table, &groups, reps);
    let vulnerable = kernel_risks
        .iter()
        .filter(|r| !r.is_nan() && **r > THRESHOLD)
        .count();

    // Constant-prior t-closeness adversary (§II.D).
    let tcl_auditor = Auditor::new(Arc::new(Adversary::t_closeness(&table)), measure);
    let (serial_audit_tcloseness_ms, parallel_audit_tcloseness_ms, _) =
        audit_both_engines(&tcl_auditor, &table, &groups, reps);

    SizeResult {
        rows,
        groups: sg.len(),
        serial_publish_ms,
        parallel_publish_ms,
        estimate_ms,
        serial_audit_kernel_ms,
        parallel_audit_kernel_ms,
        serial_audit_tcloseness_ms,
        parallel_audit_tcloseness_ms,
        vulnerable,
    }
}

fn json(results: &[SizeResult], threads: usize, smoke: bool, reps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"baseline\",\n");
    out.push_str(&format!("  \"requirement\": \"{K}-anonymity\",\n"));
    out.push_str(&format!("  \"adversary_bandwidth\": {B_PRIME},\n"));
    out.push_str(&format!("  \"audit_threshold\": {THRESHOLD},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"groups\": {}, \"vulnerable\": {}, \
             \"serial_publish_ms\": {:.3}, \"parallel_publish_ms\": {:.3}, \
             \"estimate_ms\": {:.3}, \
             \"serial_audit_kernel_ms\": {:.3}, \"parallel_audit_kernel_ms\": {:.3}, \
             \"serial_audit_tcloseness_ms\": {:.3}, \"parallel_audit_tcloseness_ms\": {:.3}, \
             \"serial_total_ms\": {:.3}, \"parallel_total_ms\": {:.3}, \
             \"speedup\": {:.3}, \"identical_output\": true}}{}\n",
            r.rows,
            r.groups,
            r.vulnerable,
            r.serial_publish_ms,
            r.parallel_publish_ms,
            r.estimate_ms,
            r.serial_audit_kernel_ms,
            r.parallel_audit_kernel_ms,
            r.serial_audit_tcloseness_ms,
            r.parallel_audit_tcloseness_ms,
            r.serial_total_ms(),
            r.parallel_total_ms(),
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One measured delta step of the incremental benchmark.
struct DeltaStep {
    apply_ms: f64,
    inc_audit_ms: f64,
    full_publish_ms: f64,
    full_audit_ms: f64,
}

impl DeltaStep {
    fn speedup(&self) -> f64 {
        (self.full_publish_ms + self.full_audit_ms) / (self.apply_ms + self.inc_audit_ms)
    }
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
        match self {
            Workload::Scattered => "scattered",
            Workload::Clustered => "clustered",
        }
    }
}

/// Build one 1%-churn delta over `table` (`delta_half` deletes + an equal
/// number of inserts, so the table size stays stable as in a steady-state
/// replacement workload). Shared by the incremental and estimation
/// benchmarks so both measure the same churn patterns.
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

/// Incremental results for one table size and workload.
struct IncrementalResult {
    rows: usize,
    workload: Workload,
    /// Mean rows actually churned per delta (deletes + inserts); the
    /// clustered workload can fall short of the nominal 1% when the chosen
    /// band is sparsely populated.
    delta_rows: usize,
    groups: usize,
    open_ms: f64,
    estimate_ms: f64,
    first_audit_ms: f64,
    steps: Vec<DeltaStep>,
}

impl IncrementalResult {
    fn mean(&self, f: impl Fn(&DeltaStep) -> f64) -> f64 {
        self.steps.iter().map(f).sum::<f64>() / self.steps.len() as f64
    }

    /// Speedup of the mean incremental step over the mean full republish.
    fn speedup_mean(&self) -> f64 {
        (self.mean(|s| s.full_publish_ms) + self.mean(|s| s.full_audit_ms))
            / (self.mean(|s| s.apply_ms) + self.mean(|s| s.inc_audit_ms))
    }

    fn speedup_best(&self) -> f64 {
        self.steps
            .iter()
            .map(DeltaStep::speedup)
            .fold(0.0, f64::max)
    }
}

/// Run the incremental republication benchmark at one size and workload:
/// `reps` successive 1% deltas through one session, each checked
/// bit-identical against a from-scratch publish + audit of the same final
/// table.
fn run_incremental(rows: usize, reps: usize, workload: Workload) -> IncrementalResult {
    let table = adult::generate(rows, SEED);
    let publisher = Publisher::new()
        .k_anonymity(K)
        .parallelism(Parallelism::Auto);
    let measure: Arc<dyn bgkanon::stats::BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    // One kernel adversary, estimated once from the base table and reused
    // across every release on both sides (the paper's Fig. 1 accounting).
    let (auditor, estimate_ms) = time_ms(|| {
        Auditor::new(
            Arc::new(Adversary::kernel(
                &table,
                Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
            )),
            measure,
        )
    });
    let (mut session, open_ms) = time_ms(|| publisher.open(&table).expect("satisfiable"));
    let (_, first_audit_ms) = time_ms(|| session.audit_with(&auditor, THRESHOLD));

    // 1% churn per delta: exactly 0.5% deletes + an equal number of
    // inserts, so the table size — and with it the median positions the
    // retained splits hinge on — stays stable, as in a steady-state
    // replacement workload.
    let delta_half = (rows / 200).max(1);
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xdead_beef);
    let mut steps = Vec::with_capacity(reps);
    let mut churned = 0usize;
    for rep in 0..reps {
        let delta = workload_delta(
            session.table(),
            &mut rng,
            workload,
            delta_half,
            SEED + 1000 + rep as u64,
        );
        churned += delta.len();

        let (outcome, apply_ms) = time_ms(|| session.apply(&delta).expect("satisfiable delta"));
        let (inc_report, inc_audit_ms) = time_ms(|| session.audit_with(&auditor, THRESHOLD));

        let (full_outcome, full_publish_ms) =
            time_ms(|| publisher.publish(session.table()).expect("satisfiable"));
        let (full_report, full_audit_ms) =
            time_ms(|| full_outcome.audit_with(session.table(), &auditor, THRESHOLD));

        // The recorded speedup must never be bought with drift.
        let inc_groups = outcome.anonymized.groups();
        let full_groups = full_outcome.anonymized.groups();
        assert_eq!(inc_groups.len(), full_groups.len(), "group count drift");
        for (a, b) in inc_groups.iter().zip(full_groups) {
            assert_eq!(a.rows, b.rows, "group membership drift");
            assert_eq!(a.ranges, b.ranges, "range drift");
        }
        for (row, (a, b)) in inc_report.risks.iter().zip(&full_report.risks).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "risk drift at row {row}");
        }

        steps.push(DeltaStep {
            apply_ms,
            inc_audit_ms,
            full_publish_ms,
            full_audit_ms,
        });
    }
    IncrementalResult {
        rows,
        workload,
        delta_rows: churned / reps,
        groups: session.group_count(),
        open_ms,
        estimate_ms,
        first_audit_ms,
        steps,
    }
}

fn incremental_json(
    results: &[IncrementalResult],
    threads: usize,
    smoke: bool,
    reps: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"incremental\",\n");
    out.push_str(&format!("  \"requirement\": \"{K}-anonymity\",\n"));
    out.push_str(&format!("  \"adversary_bandwidth\": {B_PRIME},\n"));
    out.push_str(&format!("  \"audit_threshold\": {THRESHOLD},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"workload\": \"{}\", \"delta_rows\": {}, \"groups\": {}, \
             \"open_ms\": {:.3}, \"estimate_ms\": {:.3}, \"first_audit_ms\": {:.3}, \
             \"apply_ms_mean\": {:.3}, \"inc_audit_ms_mean\": {:.3}, \
             \"full_publish_ms_mean\": {:.3}, \"full_audit_ms_mean\": {:.3}, \
             \"incremental_total_ms_mean\": {:.3}, \"full_total_ms_mean\": {:.3}, \
             \"speedup_mean\": {:.3}, \"speedup_best\": {:.3}, \
             \"identical_output\": true}}{}\n",
            r.rows,
            r.workload.name(),
            r.delta_rows,
            r.groups,
            r.open_ms,
            r.estimate_ms,
            r.first_audit_ms,
            r.mean(|s| s.apply_ms),
            r.mean(|s| s.inc_audit_ms),
            r.mean(|s| s.full_publish_ms),
            r.mean(|s| s.full_audit_ms),
            r.mean(|s| s.apply_ms + s.inc_audit_ms),
            r.mean(|s| s.full_publish_ms + s.full_audit_ms),
            r.speedup_mean(),
            r.speedup_best(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// How the estimation benchmark's 1% delta is distributed over the QI
/// space. The kernel engine cares about locality in **kernel-support**
/// space, which is not the same as the partition tree's notion:
///
/// * `Clustered` — a demographic cohort: rows churned at a **small set of
///   distinct QI profiles** inside one narrow age band (bulk
///   arrival/departure of records sharing coarse demographics). The
///   kernel-support analogue of the incremental bench's cohort: the delta
///   touches few distinct points, so the dirty kernel neighborhood stays
///   small — the case `refresh` is built for;
/// * `AgeBand` — `BENCH_incremental.json`'s "clustered" workload (narrow
///   age band, fresh random demographics). Tree-local but **not**
///   kernel-local: hundreds of distinct QI points change, so their united
///   kernel neighborhoods cover a large share of the table;
/// * `Scattered` — uniform random churn, the worst case for both engines.
#[derive(Clone, Copy, PartialEq)]
enum EstimateWorkload {
    Clustered,
    AgeBand,
    Scattered,
}

impl EstimateWorkload {
    fn name(self) -> &'static str {
        match self {
            EstimateWorkload::Clustered => "clustered",
            EstimateWorkload::AgeBand => "age_band",
            EstimateWorkload::Scattered => "scattered",
        }
    }
}

/// Build the estimation bench's `Clustered` delta: retire **every** row of
/// the highest-multiplicity QI profiles inside the most populated narrow
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

/// Estimation results for one refresh workload.
struct RefreshResult {
    workload: EstimateWorkload,
    delta_rows: usize,
    refresh_ms: f64,
    reestimate_ms: f64,
}

/// Estimation engine results for one table size.
struct EstimateResult {
    rows: usize,
    distinct_points: usize,
    /// Mean per-attribute kernel-table density (fraction of nonzero
    /// weights) at the bench bandwidth.
    support_density: f64,
    dense_reference_ms: f64,
    sparse_ms: f64,
    sparse_parallel_ms: f64,
    refresh: Vec<RefreshResult>,
}

impl EstimateResult {
    fn sparse_speedup(&self) -> f64 {
        self.dense_reference_ms / self.sparse_ms
    }

    fn sparse_parallel_speedup(&self) -> f64 {
        self.dense_reference_ms / self.sparse_parallel_ms
    }
}

/// Assert two prior models are bit-identical (the recorded speedups must
/// never be bought with drift).
fn assert_models_identical(a: &PriorModel, b: &PriorModel, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: model size drift");
    for (qi, p) in a.iter() {
        let q = b
            .prior(qi)
            .unwrap_or_else(|| panic!("{context}: missing prior"));
        for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{context}: prior drift at {qi:?}");
        }
    }
    for (x, y) in a
        .table_distribution()
        .as_slice()
        .iter()
        .zip(b.table_distribution().as_slice())
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: table distribution drift"
        );
    }
}

/// Benchmark the P̂pri estimation engines at one size: the dense all-pairs
/// reference vs the sparse neighbor-bounded engine (single-threaded and
/// `Auto`), plus the hub's carried refresh (deleted-row gather + fold
/// evolution + fold-diff refresh) vs full re-estimation under the 1% delta
/// workloads — every comparison verified bit-identical before its timing is
/// recorded.
fn run_estimate(rows: usize, reps: usize) -> EstimateResult {
    let table = adult::generate(rows, SEED);
    let estimator = PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
    );
    let density = estimator.support_density();
    let support_density = density.iter().sum::<f64>() / density.len() as f64;

    let (dense, dense_reference_ms) = best_ms(reps, || estimator.estimate_reference(&table));
    let (sparse, sparse_ms) = best_ms(reps, || {
        estimator.estimate_with(&table, Parallelism::threads(1))
    });
    let (parallel, sparse_parallel_ms) =
        best_ms(reps, || estimator.estimate_with(&table, Parallelism::Auto));
    assert_models_identical(&dense, &sparse, "dense vs sparse");
    assert_models_identical(&dense, &parallel, "dense vs sparse-parallel");

    // Carried refresh vs full re-estimation under 1% churn.
    let delta_half = (rows / 200).max(1);
    let mut refresh = Vec::new();
    for workload in [
        EstimateWorkload::Clustered,
        EstimateWorkload::AgeBand,
        EstimateWorkload::Scattered,
    ] {
        let mut rng = SmallRng::seed_from_u64(SEED ^ 0xe571_ae11);
        let delta = match workload {
            EstimateWorkload::Clustered => cohort_delta(&table, delta_half, SEED + 77),
            EstimateWorkload::AgeBand => {
                workload_delta(&table, &mut rng, Workload::Clustered, delta_half, SEED + 77)
            }
            EstimateWorkload::Scattered => {
                workload_delta(&table, &mut rng, Workload::Scattered, delta_half, SEED + 77)
            }
        };
        let next = table.apply_delta(&delta).expect("valid delta");

        let (fresh, reestimate_ms) =
            best_ms(reps, || estimator.estimate_with(&next, Parallelism::Auto));
        let mut refresh_ms = f64::INFINITY;
        let mut refreshed = None;
        for _ in 0..reps {
            let mut model = sparse.clone();
            let (_, ms) = time_ms(|| {
                let deleted = DeletedRows::gather(&table, &delta).expect("deletes in range");
                let folded = model.folded().expect("estimated models keep their fold");
                let evolved = folded
                    .evolve(&deleted, &delta)
                    .expect("delta matches the fold");
                estimator.refresh_folded(&mut model, evolved.into_folded(), Parallelism::Auto)
            });
            refresh_ms = refresh_ms.min(ms);
            refreshed = Some(model);
        }
        let refreshed = refreshed.expect("reps >= 1");
        assert_models_identical(
            &fresh,
            &refreshed,
            &format!("refresh vs re-estimate ({})", workload.name()),
        );
        refresh.push(RefreshResult {
            workload,
            delta_rows: delta.len(),
            refresh_ms,
            reestimate_ms,
        });
    }

    EstimateResult {
        rows,
        distinct_points: dense.len(),
        support_density,
        dense_reference_ms,
        sparse_ms,
        sparse_parallel_ms,
        refresh,
    }
}

fn estimate_json(results: &[EstimateResult], threads: usize, smoke: bool, reps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"estimate\",\n");
    out.push_str(&format!("  \"adversary_bandwidth\": {B_PRIME},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"distinct_points\": {}, \"support_density\": {:.4}, \
             \"dense_reference_ms\": {:.3}, \"sparse_ms\": {:.3}, \"sparse_parallel_ms\": {:.3}, \
             \"sparse_speedup\": {:.3}, \"sparse_parallel_speedup\": {:.3}, \
             \"workloads\": [",
            r.rows,
            r.distinct_points,
            r.support_density,
            r.dense_reference_ms,
            r.sparse_ms,
            r.sparse_parallel_ms,
            r.sparse_speedup(),
            r.sparse_parallel_speedup(),
        ));
        for (j, w) in r.refresh.iter().enumerate() {
            out.push_str(&format!(
                "{{\"workload\": \"{}\", \"delta_rows\": {}, \"refresh_ms\": {:.3}, \
                 \"reestimate_ms\": {:.3}, \"refresh_speedup\": {:.3}}}{}",
                w.workload.name(),
                w.delta_rows,
                w.refresh_ms,
                w.reestimate_ms,
                w.reestimate_ms / w.refresh_ms,
                if j + 1 < r.refresh.len() { ", " } else { "" },
            ));
        }
        out.push_str(&format!(
            "], \"identical_output\": true}}{}\n",
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_estimate_mode(sizes: &[usize], reps: usize, out_path: &str, smoke: bool) {
    let threads = Parallelism::Auto.effective_threads();
    let mut report = Report::new(
        "P̂pri estimation: dense reference vs sparse engine vs session refresh",
        &[
            "distinct",
            "density",
            "dense",
            "sparse",
            "sparse-par",
            "speedup",
            "refresh(clu)",
            "refresh(band)",
            "refresh(sca)",
        ],
    );
    let mut results = Vec::new();
    for &rows in sizes {
        let r = run_estimate(rows, reps);
        let per_workload = |w: EstimateWorkload| {
            r.refresh
                .iter()
                .find(|x| x.workload == w)
                .map(|x| format!("{:.1}x", x.reestimate_ms / x.refresh_ms))
                .unwrap_or_default()
        };
        report.row(
            &format!("{rows} rows"),
            vec![
                format!("{}", r.distinct_points),
                format!("{:.1}%", 100.0 * r.support_density),
                format!("{:.1}ms", r.dense_reference_ms),
                format!("{:.1}ms", r.sparse_ms),
                format!("{:.1}ms", r.sparse_parallel_ms),
                format!("{:.1}x", r.sparse_parallel_speedup()),
                per_workload(EstimateWorkload::Clustered),
                per_workload(EstimateWorkload::AgeBand),
                per_workload(EstimateWorkload::Scattered),
            ],
        );
        results.push(r);
    }
    report.note(&format!(
        "{threads} worker thread(s); min over {reps} rep(s); bandwidth {B_PRIME}; density = mean \
         nonzero fraction of the per-attribute kernel tables; refresh columns = speedup of \
         the carried refresh (gather + FoldedTable::evolve + refresh_folded) over full \
         re-estimation under one 1% delta (clustered = \
         demographic cohort at few distinct QI profiles, band = BENCH_incremental's age-band \
         cohort, scattered = uniform churn); every engine pair verified bit-identical before \
         timing is recorded"
    ));
    println!("{}", report.render());

    let payload = estimate_json(&results, threads, smoke, reps);
    let mut file = std::fs::File::create(out_path).expect("create estimate json");
    file.write_all(payload.as_bytes())
        .expect("write estimate json");
    println!("wrote {out_path}");
}

/// One size point of the scale benchmark: serial wall-clock of each
/// pipeline stage, plus the reference audit it is verified against.
struct ScaleResult {
    rows: usize,
    groups: usize,
    distinct_points: usize,
    vulnerable: usize,
    publish_ms: f64,
    estimate_ms: f64,
    audit_kernel_ms: f64,
    audit_tcloseness_ms: f64,
    /// Both adversaries' audits through `tuple_risks_reference`.
    audit_reference_ms: f64,
    group_by_ms: f64,
    fold_ms: f64,
}

impl ScaleResult {
    /// The end-to-end publish+audit path: partition the table, estimate
    /// the auditing adversary's prior model, audit against both reference
    /// adversaries.
    fn pipeline_ms(&self) -> f64 {
        self.publish_ms + self.estimate_ms + self.audit_kernel_ms + self.audit_tcloseness_ms
    }

    /// Reference audit time over flat-scan audit time, both adversaries.
    fn reference_speedup(&self) -> f64 {
        self.audit_reference_ms / (self.audit_kernel_ms + self.audit_tcloseness_ms)
    }
}

/// Audit `groups` with the serial flat-scan engine and with the reference
/// transcription, asserting bit-identical risks. Returns (risks, flat_ms,
/// reference_ms).
fn audit_against_reference(
    auditor: &Auditor,
    table: &Table,
    groups: &[Vec<usize>],
    reps: usize,
    name: &str,
) -> (Vec<f64>, f64, f64) {
    let (risks, flat_ms) = best_ms(reps, || {
        auditor.tuple_risks_with(table, groups, Parallelism::Serial)
    });
    let (reference, reference_ms) = best_ms(reps, || auditor.tuple_risks_reference(table, groups));
    for (row, (a, b)) in risks.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} audit diverges from the reference at row {row}"
        );
    }
    (risks, flat_ms, reference_ms)
}

/// Run the full serial publish→estimate→audit pipeline (plus the isolated
/// group-by-QI and fold passes) on one generated table, verifying every
/// audit and the fold against their references.
fn run_scale(rows: usize, reps: usize) -> ScaleResult {
    let table = adult::generate(rows, SEED);
    let publisher = Publisher::new()
        .k_anonymity(K)
        .parallelism(Parallelism::Serial);
    let (outcome, publish_ms) = best_ms(reps, || publisher.publish(&table).expect("satisfiable"));
    let groups = outcome.anonymized.row_groups();

    let (group_map, group_by_ms) = best_ms(reps, || table.group_by_qi());
    let (folded, fold_ms) = best_ms(reps, || FoldedTable::new(&table));
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

    let measure: Arc<dyn bgkanon::stats::BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let (kernel_auditor, estimate_ms) = best_ms(reps, || {
        let adversary = Arc::new(Adversary::kernel(
            &table,
            Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth"),
        ));
        Auditor::new(adversary, Arc::clone(&measure))
    });
    let (kernel_risks, audit_kernel_ms, kernel_reference_ms) =
        audit_against_reference(&kernel_auditor, &table, &groups, reps, "kernel");
    let tcl_auditor = Auditor::new(Arc::new(Adversary::t_closeness(&table)), measure);
    let (_, audit_tcloseness_ms, tcl_reference_ms) =
        audit_against_reference(&tcl_auditor, &table, &groups, reps, "t-closeness");

    let vulnerable = kernel_risks
        .iter()
        .filter(|x| !x.is_nan() && **x > THRESHOLD)
        .count();
    ScaleResult {
        rows,
        groups: groups.len(),
        distinct_points: folded.len(),
        vulnerable,
        publish_ms,
        estimate_ms,
        audit_kernel_ms,
        audit_tcloseness_ms,
        audit_reference_ms: kernel_reference_ms + tcl_reference_ms,
        group_by_ms,
        fold_ms,
    }
}

fn scale_json(results: &[ScaleResult], smoke: bool, reps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"requirement\": \"{K}-anonymity\",\n"));
    out.push_str(&format!("  \"adversary_bandwidth\": {B_PRIME},\n"));
    out.push_str(&format!("  \"audit_threshold\": {THRESHOLD},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str("  \"threads\": 1,\n");
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"groups\": {}, \"distinct_points\": {}, \
             \"vulnerable\": {},\n     \"publish_ms\": {:.3}, \"estimate_ms\": {:.3}, \
             \"audit_kernel_ms\": {:.3}, \"audit_tcloseness_ms\": {:.3}, \
             \"audit_reference_ms\": {:.3}, \"group_by_ms\": {:.3}, \"fold_ms\": {:.3}, \
             \"pipeline_ms\": {:.3},\n     \"reference_speedup\": {:.3}, \
             \"identical_output\": true}}{}\n",
            r.rows,
            r.groups,
            r.distinct_points,
            r.vulnerable,
            r.publish_ms,
            r.estimate_ms,
            r.audit_kernel_ms,
            r.audit_tcloseness_ms,
            r.audit_reference_ms,
            r.group_by_ms,
            r.fold_ms,
            r.pipeline_ms(),
            r.reference_speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_scale_mode(sizes: &[usize], reps: usize, out_path: &str, smoke: bool) {
    let mut report = Report::new(
        "Scale: serial publish + estimate + audit, verified against the reference audit",
        &[
            "groups",
            "publish",
            "estimate",
            "audit",
            "ref audit",
            "fold",
            "pipeline",
            "ref speedup",
        ],
    );
    let mut results = Vec::new();
    for &rows in sizes {
        let r = run_scale(rows, reps);
        report.row(
            &format!("{rows} rows"),
            vec![
                format!("{}", r.groups),
                format!("{:.1}ms", r.publish_ms),
                format!("{:.1}ms", r.estimate_ms),
                format!("{:.1}ms", r.audit_kernel_ms + r.audit_tcloseness_ms),
                format!("{:.1}ms", r.audit_reference_ms),
                format!("{:.1}ms", r.fold_ms),
                format!("{:.1}ms", r.pipeline_ms()),
                format!("{:.2}x", r.reference_speedup()),
            ],
        );
        results.push(r);
    }
    report.note(&format!(
        "serial engine; min over {reps} rep(s); audit = kernel + t-closeness adversaries \
         through the flat-scan engine, ref audit = the same two through \
         tuple_risks_reference; both audits verified bit-identical to the reference and the \
         estimator fold to group_by_qi before any number is recorded"
    ));
    println!("{}", report.render());

    let payload = scale_json(&results, smoke, reps);
    let mut file = std::fs::File::create(out_path).expect("create scale json");
    file.write_all(payload.as_bytes())
        .expect("write scale json");
    println!("wrote {out_path}");
}

fn run_incremental_mode(sizes: &[usize], reps: usize, out_path: &str, smoke: bool) {
    let threads = Parallelism::Auto.effective_threads();
    let mut report = Report::new(
        "Incremental republication: 1% delta apply vs full publish+audit",
        &[
            "groups",
            "open",
            "apply",
            "inc audit",
            "full pub",
            "full audit",
            "speedup",
        ],
    );
    let mut results = Vec::new();
    for &rows in sizes {
        for workload in [Workload::Clustered, Workload::Scattered] {
            let r = run_incremental(rows, reps, workload);
            report.row(
                &format!("{rows} rows, {}", workload.name()),
                vec![
                    format!("{}", r.groups),
                    format!("{:.1}ms", r.open_ms),
                    format!("{:.2}ms", r.mean(|s| s.apply_ms)),
                    format!("{:.2}ms", r.mean(|s| s.inc_audit_ms)),
                    format!("{:.1}ms", r.mean(|s| s.full_publish_ms)),
                    format!("{:.1}ms", r.mean(|s| s.full_audit_ms)),
                    format!("{:.2}x", r.speedup_mean()),
                ],
            );
            results.push(r);
        }
    }
    report.note(&format!(
        "{threads} worker thread(s); {reps} delta(s) per size/workload, each ½% deletes + ½% \
         inserts (clustered = one narrow age-band cohort, scattered = uniform churn); one kernel \
         prior model estimated once (estimate_ms) and shared by both sides; every step's groups \
         and risks verified bit-identical before timing is recorded"
    ));
    println!("{}", report.render());

    let payload = incremental_json(&results, threads, smoke, reps);
    let mut file = std::fs::File::create(out_path).expect("create incremental json");
    file.write_all(payload.as_bytes())
        .expect("write incremental json");
    println!("wrote {out_path}");
}

/// Outcome of verifying one tenant of the concurrent benchmark.
struct TenantVerdict {
    name: String,
    rows: usize,
    groups: usize,
    identical: bool,
}

/// The concurrent serving benchmark: N tenants × M reader/writer threads
/// through a [`SessionHub`](bgkanon::SessionHub), against the **serial one-session loop** — one
/// thread processing every tenant sequentially through the single-owner
/// session engine with the serial reference engines and a fresh (uncached)
/// audit per release, the pre-hub way of serving the same workload. Both
/// sides apply the identical per-tenant delta sequences and serve the same
/// number of audit requests; every tenant's final publication and final
/// audit report are verified bit-identical across the two before any
/// throughput number is recorded.
fn run_concurrent_mode(smoke: bool, out_path: &str) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let (tenants, readers, writers, rows, deltas) = if smoke {
        (3usize, 2usize, 1usize, 3_000usize, 5usize)
    } else {
        (8, 4, 2, 10_000, 6)
    };
    // Audit requests served per phase: the serial loop audits once per
    // release; the hub's readers serve this many times more (a serving
    // layer exists to answer many queries per release).
    let quota_mult = 4usize;
    let audit_quota = tenants * (deltas + 1) * quota_mult;
    let threads = Parallelism::Auto.effective_threads();

    // Deterministic per-tenant delta sequences, replayed identically by
    // both phases (the delta for a step depends only on the tenant's
    // current table, which evolves identically on both sides).
    let delta_for = |table: &Table, tenant: usize, step: usize| -> Delta {
        let mut rng =
            SmallRng::seed_from_u64(SEED ^ ((tenant as u64) << 24) ^ ((step as u64) << 8));
        let workload = if (tenant + step).is_multiple_of(2) {
            Workload::Clustered
        } else {
            Workload::Scattered
        };
        workload_delta(
            table,
            &mut rng,
            workload,
            (rows / 200).max(1),
            SEED + (tenant * 1_000 + step) as u64,
        )
    };

    let tables: Vec<Table> = (0..tenants)
        .map(|i| adult::generate(rows, SEED + i as u64))
        .collect();
    // Frozen per-tenant kernel adversaries (the Fig. 1 accounting: one
    // estimated prior reused across releases), built outside both timed
    // phases and shared by both so the audits compare exactly.
    let auditors: Vec<Auditor> = tables
        .iter()
        .map(|t| {
            let adversary = Arc::new(Adversary::kernel(
                t,
                Bandwidth::uniform(B_PRIME, t.qi_count()).expect("positive bandwidth"),
            ));
            let measure: Arc<dyn bgkanon::stats::BeliefDistance> =
                Arc::new(SmoothedJs::paper_default(t.schema().sensitive_distance()));
            Auditor::new(adversary, measure)
        })
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
        let mut last = auditors[i].report(
            session.table(),
            &session.anonymized().row_groups(),
            THRESHOLD,
        );
        serial_audits += 1;
        for step in 0..deltas {
            let d = delta_for(session.table(), i, step);
            session.apply(&d).expect("valid scripted delta");
            last = auditors[i].report(
                session.table(),
                &session.anonymized().row_groups(),
                THRESHOLD,
            );
            serial_audits += 1;
        }
        serial_tables.push(session.table().clone());
        serial_reports.push(last);
    }
    let serial_elapsed = serial_started.elapsed().as_secs_f64();
    let serial_deltas = tenants * deltas;

    // ---- Phase 2: the hub, writers + readers concurrent. ----------------
    let hub: Arc<bgkanon::SessionHub> = Arc::new(bgkanon::SessionHub::new());
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
        let writer_handles: Vec<_> = (0..writers)
            .map(|w| {
                let hub = Arc::clone(&hub);
                let names = &names;
                let delta_for = &delta_for;
                scope.spawn(move || {
                    // Tenants are partitioned over writers; each tenant's
                    // delta sequence stays ordered within its one writer.
                    for i in (w..tenants).step_by(writers.max(1)) {
                        for step in 0..deltas {
                            let snap = hub.snapshot(&names[i]).expect("registered");
                            let d = delta_for(snap.table(), i, step);
                            hub.apply(&names[i], &d).expect("valid scripted delta");
                        }
                    }
                })
            })
            .collect();
        for r in 0..readers {
            let hub = Arc::clone(&hub);
            let names = &names;
            let auditors = &auditors;
            let served = &served;
            let writers_done = &writers_done;
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
    let mut verdicts: Vec<TenantVerdict> = Vec::with_capacity(tenants);
    for (i, name) in names.iter().enumerate() {
        let snap = hub.snapshot(name).expect("registered");
        let mut identical = true;
        // (a) The hub's evolved table is the serial loop's evolved table.
        identical &= snap.table().len() == serial_tables[i].len();
        if identical {
            for r in 0..snap.table().len() {
                if snap.table().qi(r) != serial_tables[i].qi(r)
                    || snap.table().sensitive_value(r) != serial_tables[i].sensitive_value(r)
                {
                    identical = false;
                    break;
                }
            }
        }
        // (b) The published partition matches a from-scratch publish.
        let fresh = serial_publisher.publish(snap.table()).expect("satisfiable");
        identical &= snap.anonymized().group_count() == fresh.anonymized.group_count();
        if identical {
            for (a, b) in snap
                .anonymized()
                .groups()
                .iter()
                .zip(fresh.anonymized.groups())
            {
                if a.rows != b.rows || a.ranges != b.ranges {
                    identical = false;
                    break;
                }
            }
        }
        // (c) A final cached hub audit is bit-identical to the serial
        // loop's final fresh audit of the same release.
        let hub_report = hub
            .audit_with(name, &auditors[i], THRESHOLD)
            .expect("registered");
        identical &= hub_report.risks.len() == serial_reports[i].risks.len();
        if identical {
            for (a, b) in hub_report.risks.iter().zip(&serial_reports[i].risks) {
                if a.to_bits() != b.to_bits() {
                    identical = false;
                    break;
                }
            }
        }
        verdicts.push(TenantVerdict {
            name: name.clone(),
            rows: snap.len(),
            groups: snap.group_count(),
            identical,
        });
    }
    let all_identical = verdicts.iter().all(|v| v.identical);

    let serial_audits_per_s = serial_audits as f64 / serial_elapsed;
    let serial_deltas_per_s = serial_deltas as f64 / serial_elapsed;
    let hub_audits_per_s = hub_audits as f64 / hub_elapsed;
    let hub_deltas_per_s = serial_deltas as f64 / hub_window;
    let audit_speedup = hub_audits_per_s / serial_audits_per_s;
    let delta_speedup = hub_deltas_per_s / serial_deltas_per_s;

    let mut report = Report::new(
        "Concurrent serving: SessionHub vs the serial one-session loop",
        &["elapsed", "deltas/s", "audits/s"],
    );
    report.row(
        "serial loop",
        vec![
            format!("{:.0}ms", serial_elapsed * 1e3),
            format!("{serial_deltas_per_s:.1}"),
            format!("{serial_audits_per_s:.1}"),
        ],
    );
    report.row(
        "hub",
        vec![
            format!("{:.0}ms", hub_elapsed * 1e3),
            format!("{hub_deltas_per_s:.1}"),
            format!("{hub_audits_per_s:.1}"),
        ],
    );
    report.note(&format!(
        "{tenants} tenants × {rows} rows; {deltas} deltas/tenant; {readers} reader + \
         {writers} writer thread(s) on {threads} core(s); hub served {hub_audits} audit \
         requests ({quota_mult}× the serial loop's {serial_audits}); audit speedup \
         {audit_speedup:.2}x, delta speedup {delta_speedup:.2}x; every tenant verified \
         bit-identical: {all_identical}"
    ));
    println!("{}", report.render());

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"concurrent\",\n");
    out.push_str(&format!("  \"requirement\": \"{K}-anonymity\",\n"));
    out.push_str(&format!("  \"adversary_bandwidth\": {B_PRIME},\n"));
    out.push_str(&format!("  \"audit_threshold\": {THRESHOLD},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"tenants\": {tenants},\n"));
    out.push_str(&format!("  \"rows_per_tenant\": {rows},\n"));
    out.push_str(&format!("  \"deltas_per_tenant\": {deltas},\n"));
    out.push_str(&format!("  \"reader_threads\": {readers},\n"));
    out.push_str(&format!("  \"writer_threads\": {writers},\n"));
    out.push_str(&format!(
        "  \"serial\": {{\"elapsed_ms\": {:.3}, \"audits\": {serial_audits}, \
         \"deltas_per_s\": {serial_deltas_per_s:.3}, \"audits_per_s\": \
         {serial_audits_per_s:.3}}},\n",
        serial_elapsed * 1e3
    ));
    out.push_str(&format!(
        "  \"hub\": {{\"elapsed_ms\": {:.3}, \"audits\": {hub_audits}, \
         \"deltas_per_s\": {hub_deltas_per_s:.3}, \"audits_per_s\": \
         {hub_audits_per_s:.3}}},\n",
        hub_elapsed * 1e3
    ));
    out.push_str(&format!("  \"delta_speedup\": {delta_speedup:.3},\n"));
    out.push_str(&format!("  \"audit_speedup\": {audit_speedup:.3},\n"));
    out.push_str("  \"tenant_verdicts\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tenant\": \"{}\", \"rows\": {}, \"groups\": {}, \
             \"identical_output\": {}}}{}\n",
            v.name,
            v.rows,
            v.groups,
            v.identical,
            if i + 1 < verdicts.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"identical_output\": {all_identical}\n"));
    out.push_str("}\n");
    let mut file = std::fs::File::create(out_path).expect("create concurrent json");
    file.write_all(out.as_bytes())
        .expect("write concurrent json");
    println!("wrote {out_path}");
    assert!(
        all_identical,
        "concurrent serving drifted from the serial replay — see {out_path}"
    );
}

/// Cold-start recovery cost: durable hubs are written once per size point
/// (same scripted churn as the concurrent bench), dropped, and re-opened
/// cold under two durability configurations — WAL-only (every delta
/// replayed through the incremental engine) and checkpoint+WAL-tail (the
/// partition tree resumes from the latest checkpoint). Every re-opened
/// tenant must publish bit-identically to the hub that was dropped.
fn run_recovery_mode(smoke: bool, out_path: &str) {
    use bgkanon::{DurabilityOptions, SessionHub, SyncPolicy};

    let rows = if smoke { 1_000usize } else { 5_000usize };
    let size_points: &[(usize, usize)] = if smoke {
        &[(1, 4), (2, 8)]
    } else {
        &[(2, 8), (4, 16), (8, 32)]
    };
    let checkpoint_every = 4u64;
    let delta_half = (rows / 200).max(1);

    let delta_for = |table: &Table, tenant: usize, step: usize| -> Delta {
        let mut rng =
            SmallRng::seed_from_u64(SEED ^ ((tenant as u64) << 24) ^ ((step as u64) << 8));
        let workload = if (tenant + step).is_multiple_of(2) {
            Workload::Clustered
        } else {
            Workload::Scattered
        };
        workload_delta(
            table,
            &mut rng,
            workload,
            delta_half,
            SEED + (tenant * 1_000 + step) as u64,
        )
    };

    struct RecoveryPoint {
        tenants: usize,
        deltas: usize,
        wal_open_ms: f64,
        wal_replayed: usize,
        checkpoint_open_ms: f64,
        checkpoint_replayed: usize,
        identical: bool,
    }

    // Captured publication of one tenant: (version, per-group rows/ranges/
    // sensitive counts) — enough to assert bit-identity after a cold open.
    type Captured = (
        u64,
        Vec<(Vec<usize>, Vec<bgkanon::anon::QiRange>, Vec<u32>)>,
    );
    let capture = |hub: &SessionHub, name: &str| -> Captured {
        let snap = hub.snapshot(name).expect("registered");
        let groups = snap
            .anonymized()
            .groups()
            .iter()
            .map(|g| (g.rows.clone(), g.ranges.clone(), g.sensitive_counts.clone()))
            .collect();
        (snap.version(), groups)
    };

    let publisher = Publisher::new().k_anonymity(K);
    let mut points: Vec<RecoveryPoint> = Vec::with_capacity(size_points.len());
    for (point, &(tenants, deltas)) in size_points.iter().enumerate() {
        let mut open_ms = [0.0f64; 2];
        let mut replayed = [0usize; 2];
        let mut identical = true;
        for (cfg, every) in [0u64, checkpoint_every].into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!(
                "bgkanon_bench_recovery_{}_{point}_{cfg}",
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
            let expected: Vec<Captured> = {
                let (hub, _) = SessionHub::open_with(&dir, options).expect("create durable hub");
                let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
                for (i, name) in names.iter().enumerate() {
                    let table = adult::generate(rows, SEED + i as u64);
                    hub.register(name, &table, &publisher).expect("satisfiable");
                }
                for (i, name) in names.iter().enumerate() {
                    for step in 0..deltas {
                        let snap = hub.snapshot(name).expect("registered");
                        let d = delta_for(snap.table(), i, step);
                        hub.apply(name, &d).expect("valid scripted delta");
                    }
                }
                names.iter().map(|n| capture(&hub, n)).collect()
            };
            // Cold open: the only timed region.
            let ((hub, report), ms) =
                time_ms(|| SessionHub::open_with(&dir, options).expect("recover"));
            assert!(report.is_clean(), "recovery bench hit unrecoverable state");
            open_ms[cfg] = ms;
            replayed[cfg] = report.tenants.iter().map(|t| t.replayed).sum();
            for (i, want) in expected.iter().enumerate() {
                let got = capture(&hub, &format!("tenant-{i}"));
                identical &= *want == got;
            }
            drop(hub);
            let _ = std::fs::remove_dir_all(&dir);
        }
        points.push(RecoveryPoint {
            tenants,
            deltas,
            wal_open_ms: open_ms[0],
            wal_replayed: replayed[0],
            checkpoint_open_ms: open_ms[1],
            checkpoint_replayed: replayed[1],
            identical,
        });
    }
    let all_identical = points.iter().all(|p| p.identical);

    let mut report = Report::new(
        "Recovery: cold-start SessionHub::open, WAL replay vs checkpoint resume",
        &[
            "deltas/tenant",
            "WAL-only open",
            "ckpt+tail open",
            "replayed",
        ],
    );
    for p in &points {
        report.row(
            &format!("{} tenant(s)", p.tenants),
            vec![
                format!("{}", p.deltas),
                format!("{:.1}ms", p.wal_open_ms),
                format!("{:.1}ms", p.checkpoint_open_ms),
                format!("{} vs {}", p.wal_replayed, p.checkpoint_replayed),
            ],
        );
    }
    report.note(&format!(
        "{rows} rows/tenant, fsync always, checkpoint every {checkpoint_every} deltas; \
         every re-opened tenant verified bit-identical to the dropped hub: {all_identical}"
    ));
    println!("{}", report.render());

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"recovery\",\n");
    out.push_str(&format!("  \"requirement\": \"{K}-anonymity\",\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"rows_per_tenant\": {rows},\n"));
    out.push_str("  \"sync\": \"always\",\n");
    out.push_str(&format!("  \"checkpoint_every\": {checkpoint_every},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"deltas_per_tenant\": {}, \"wal_open_ms\": {:.3}, \
             \"wal_replayed\": {}, \"checkpoint_open_ms\": {:.3}, \
             \"checkpoint_replayed\": {}, \"identical_output\": {}}}{}\n",
            p.tenants,
            p.deltas,
            p.wal_open_ms,
            p.wal_replayed,
            p.checkpoint_open_ms,
            p.checkpoint_replayed,
            p.identical,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"identical_output\": {all_identical}\n"));
    out.push_str("}\n");
    let mut file = std::fs::File::create(out_path).expect("create recovery json");
    file.write_all(out.as_bytes()).expect("write recovery json");
    println!("wrote {out_path}");
    assert!(
        all_identical,
        "recovered state drifted from the dropped hub — see {out_path}"
    );
}

fn run_fleet_mode(smoke: bool, out_path: &str) {
    use bgkanon::privacy::AuditReport;
    use bgkanon::{DurabilityOptions, SessionHub, SyncPolicy, TenantSnapshot};

    let tenants: usize = if smoke { 400 } else { 10_000 };
    let rows = 64usize;
    let distinct = 32usize;
    let ops = tenants * 4;
    let zipf_s = 1.3f64;
    let fleet_k = 4usize;
    let b_primes = [0.3f64, 0.5];
    let apply_fraction = 0.15f64;
    let checkpoint_every = 8u64;

    // Deterministic Zipfian CDF over tenant ranks (rank 0 hottest).
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
    // lane, so budgeted and unbounded hubs see the same operations.
    enum Op {
        Apply(usize),
        Audit(usize, f64),
    }
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x00f1_ee70);
    let script: Vec<Op> = (0..ops)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..1.0);
            let tenant = cdf.partition_point(|c| *c < x).min(tenants - 1);
            if rng.gen_bool(apply_fraction) {
                Op::Apply(tenant)
            } else {
                let b = b_primes[(rng.gen::<u64>() % b_primes.len() as u64) as usize];
                Op::Audit(tenant, b)
            }
        })
        .collect();

    fn fold(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    }
    fn digest_snapshot(snap: &TenantSnapshot) -> u64 {
        let mut h = fold(0xcbf2_9ce4_8422_2325, snap.version());
        for g in snap.anonymized().groups() {
            for &r in &g.rows {
                h = fold(h, r as u64);
            }
            for q in &g.ranges {
                h = fold(h, (u64::from(q.min) << 32) | u64::from(q.max));
            }
            for &c in &g.sensitive_counts {
                h = fold(h, u64::from(c));
            }
        }
        h
    }
    fn digest_report(report: &AuditReport) -> u64 {
        let mut h = fold(0xcbf2_9ce4_8422_2325, report.worst_case.to_bits());
        h = fold(h, report.mean.to_bits());
        h = fold(h, report.vulnerable as u64);
        for r in &report.risks {
            h = fold(h, r.to_bits());
        }
        h
    }

    struct Lane {
        budget_bytes: Option<usize>,
        peak_resident_bytes: usize,
        elapsed_ms: f64,
        audits: usize,
        hit_rate: f64,
        hit_rate_total: f64,
        evictions: u64,
        rehydrations: u64,
        interned_models: usize,
        intern_hits: u64,
        intern_misses: u64,
        digests: Vec<u64>,
        final_digest: u64,
    }

    let publisher = Publisher::new().k_anonymity(fleet_k);
    let name_of = |i: usize| format!("tenant-{i:05}");
    let run_lane = |tag: &str, budget: Option<usize>| -> Lane {
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
        let mut digests = Vec::with_capacity(ops);
        let mut peak = hub.memory_stats().resident_bytes;
        let mut audits = 0usize;
        let mut rehydrations_mid = 0u64;
        let (_, elapsed_ms) = time_ms(|| {
            for (idx, op) in script.iter().enumerate() {
                match *op {
                    Op::Apply(t) => {
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
                    Op::Audit(t, b) => {
                        let report = hub
                            .audit_against(&name_of(t), b, THRESHOLD)
                            .expect("registered");
                        digests.push(digest_report(&report));
                        audits += 1;
                    }
                }
                if idx % 64 == 0 {
                    let s = hub.memory_stats();
                    peak = peak.max(s.resident_bytes);
                    if std::env::var_os("FLEET_DEBUG").is_some() {
                        eprintln!(
                            "op {idx}: resident {} evicted {} bytes {} rehy {}",
                            s.resident_tenants, s.evicted_tenants, s.resident_bytes, s.rehydrations
                        );
                    }
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
        let mut final_digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..tenants {
            let snap = hub.snapshot(&name_of(i)).expect("registered");
            final_digest = fold(final_digest, digest_snapshot(&snap));
        }
        let warm_ops = (ops - ops / 2) as f64;
        let warm_misses = (stats.rehydrations - rehydrations_mid) as f64;
        drop(hub);
        let _ = std::fs::remove_dir_all(&dir);
        Lane {
            budget_bytes: budget,
            peak_resident_bytes: peak,
            elapsed_ms,
            audits,
            hit_rate: 1.0 - warm_misses / warm_ops,
            hit_rate_total: 1.0 - stats.rehydrations as f64 / ops as f64,
            evictions: stats.evictions,
            rehydrations: stats.rehydrations,
            interned_models: stats.interned_models,
            intern_hits: stats.intern_hits,
            intern_misses: stats.intern_misses,
            digests,
            final_digest,
        }
    };

    let unbounded = run_lane("unbounded", None);
    let fractions = [2usize, 4, 8];
    let lanes: Vec<(usize, Lane)> = fractions
        .iter()
        .map(|&f| {
            let budget = unbounded.peak_resident_bytes / f;
            (f, run_lane(&format!("budget_{f}"), Some(budget)))
        })
        .collect();
    let identical_of = |lane: &Lane| -> bool {
        lane.digests == unbounded.digests && lane.final_digest == unbounded.final_digest
    };
    let all_identical = lanes.iter().all(|(_, l)| identical_of(l));

    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let mut report = Report::new(
        "Fleet: Zipfian multi-tenant serving under resident-memory budgets",
        &[
            "budget",
            "peak resident",
            "hit rate",
            "evict/rehydrate",
            "audits/s",
        ],
    );
    report.row(
        "unbounded",
        vec![
            "-".to_owned(),
            format!("{:.1}MB", mb(unbounded.peak_resident_bytes)),
            "1.000".to_owned(),
            "0 / 0".to_owned(),
            format!(
                "{:.0}",
                unbounded.audits as f64 / (unbounded.elapsed_ms / 1e3)
            ),
        ],
    );
    for (f, lane) in &lanes {
        report.row(
            &format!("peak/{f}"),
            vec![
                format!("{:.1}MB", mb(lane.budget_bytes.unwrap_or(0))),
                format!("{:.1}MB", mb(lane.peak_resident_bytes)),
                format!("{:.3}", lane.hit_rate),
                format!("{} / {}", lane.evictions, lane.rehydrations),
                format!("{:.0}", lane.audits as f64 / (lane.elapsed_ms / 1e3)),
            ],
        );
    }
    report.note(&format!(
        "{tenants} tenants × {rows} rows ({distinct} distinct contents), {ops} Zipf(s={zipf_s}) \
         ops ({:.0}% deltas), {fleet_k}-anonymity, sync=never, checkpoint every {checkpoint_every}; \
         {} prior models interned ({} hits / {} misses); hit rate = warm-window fraction of \
         operations served without rehydration; every budget lane's outputs bit-identical to the \
         unbounded lane: {all_identical}",
        apply_fraction * 100.0,
        unbounded.interned_models,
        unbounded.intern_hits,
        unbounded.intern_misses,
    ));
    println!("{}", report.render());

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fleet\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"tenants\": {tenants},\n"));
    out.push_str(&format!("  \"rows_per_tenant\": {rows},\n"));
    out.push_str(&format!("  \"distinct_contents\": {distinct},\n"));
    out.push_str(&format!("  \"ops\": {ops},\n"));
    out.push_str(&format!("  \"zipf_s\": {zipf_s},\n"));
    out.push_str(&format!("  \"apply_fraction\": {apply_fraction},\n"));
    out.push_str(&format!("  \"requirement\": \"{fleet_k}-anonymity\",\n"));
    out.push_str(&format!(
        "  \"unbounded\": {{\"peak_resident_bytes\": {}, \"elapsed_ms\": {:.3}, \
         \"audits_per_s\": {:.1}, \"evictions\": {}, \"interned_models\": {}, \
         \"intern_hits\": {}, \"intern_misses\": {}}},\n",
        unbounded.peak_resident_bytes,
        unbounded.elapsed_ms,
        unbounded.audits as f64 / (unbounded.elapsed_ms / 1e3),
        unbounded.evictions,
        unbounded.interned_models,
        unbounded.intern_hits,
        unbounded.intern_misses,
    ));
    out.push_str("  \"lanes\": [\n");
    for (i, (f, lane)) in lanes.iter().enumerate() {
        let budget = lane.budget_bytes.unwrap_or(0);
        out.push_str(&format!(
            "    {{\"budget_fraction\": {f}, \"budget_bytes\": {budget}, \
             \"peak_resident_bytes\": {}, \"peak_over_budget\": {:.4}, \
             \"hit_rate\": {:.4}, \"hit_rate_total\": {:.4}, \"evictions\": {}, \
             \"rehydrations\": {}, \"elapsed_ms\": {:.3}, \"audits_per_s\": {:.1}, \
             \"identical_output\": {}}}{}\n",
            lane.peak_resident_bytes,
            lane.peak_resident_bytes as f64 / budget as f64,
            lane.hit_rate,
            lane.hit_rate_total,
            lane.evictions,
            lane.rehydrations,
            lane.elapsed_ms,
            lane.audits as f64 / (lane.elapsed_ms / 1e3),
            identical_of(lane),
            if i + 1 < lanes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"identical_output\": {all_identical}\n"));
    out.push_str("}\n");
    let mut file = std::fs::File::create(out_path).expect("create fleet json");
    file.write_all(out.as_bytes()).expect("write fleet json");
    println!("wrote {out_path}");
    assert!(
        all_identical,
        "a budgeted lane's outputs drifted from the unbounded lane — see {out_path}"
    );
}

/// One measured delta step of the strategies benchmark.
struct StrategyStep {
    refresh_ms: f64,
    scratch_ms: f64,
}

/// Strategies results for one (size, algorithm, workload) cell.
struct StrategyResult {
    rows: usize,
    algorithm: Algorithm,
    workload: Workload,
    delta_rows: usize,
    groups: usize,
    open_ms: f64,
    steps: Vec<StrategyStep>,
}

impl StrategyResult {
    fn mean(&self, f: impl Fn(&StrategyStep) -> f64) -> f64 {
        self.steps.iter().map(f).sum::<f64>() / self.steps.len() as f64
    }

    /// Speedup of the mean incremental refresh over the mean from-scratch
    /// publish of the same post-delta table.
    fn speedup_mean(&self) -> f64 {
        self.mean(|s| s.scratch_ms) / self.mean(|s| s.refresh_ms)
    }

    fn speedup_best(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.scratch_ms / s.refresh_ms)
            .fold(0.0, f64::max)
    }
}

/// Run the strategy-refresh benchmark for one cell: `reps` successive 1%
/// deltas through one session of `algorithm`, each step timed against a
/// from-scratch publish of the same post-delta table and checked
/// bit-identical before any number is recorded.
fn run_strategies(
    rows: usize,
    reps: usize,
    algorithm: Algorithm,
    workload: Workload,
) -> StrategyResult {
    let table = adult::generate(rows, SEED);
    let publisher = Publisher::new()
        .k_anonymity(4)
        .distinct_l_diversity(3)
        .algorithm(algorithm)
        .parallelism(Parallelism::Serial);
    let (mut session, open_ms) = time_ms(|| publisher.open(&table).expect("satisfiable"));
    let delta_half = (rows / 200).max(1);
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5747_4759);
    let mut steps = Vec::with_capacity(reps);
    let mut churned = 0usize;
    for rep in 0..reps {
        let delta = workload_delta(
            session.table(),
            &mut rng,
            workload,
            delta_half,
            SEED + 2000 + rep as u64,
        );
        churned += delta.len();
        let (outcome, refresh_ms) = time_ms(|| session.apply(&delta).expect("satisfiable delta"));
        let (scratch, scratch_ms) =
            time_ms(|| publisher.publish(session.table()).expect("satisfiable"));
        // The recorded speedup must never be bought with drift.
        let inc = outcome.anonymized.groups();
        let full = scratch.anonymized.groups();
        assert_eq!(inc.len(), full.len(), "group count drift");
        for (a, b) in inc.iter().zip(full) {
            assert_eq!(a.rows, b.rows, "group membership drift");
            assert_eq!(a.ranges, b.ranges, "range drift");
            assert_eq!(a.sensitive_counts, b.sensitive_counts, "histogram drift");
        }
        steps.push(StrategyStep {
            refresh_ms,
            scratch_ms,
        });
    }
    StrategyResult {
        rows,
        algorithm,
        workload,
        delta_rows: churned / reps,
        groups: session.group_count(),
        open_ms,
        steps,
    }
}

fn strategies_json(results: &[StrategyResult], smoke: bool, reps: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"strategies\",\n");
    out.push_str("  \"requirement\": \"4-anonymity ∧ distinct 3-diversity\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"algorithm\": \"{}\", \"workload\": \"{}\", \
             \"delta_rows\": {}, \"groups\": {}, \"open_ms\": {:.3}, \
             \"refresh_ms_mean\": {:.3}, \"scratch_publish_ms_mean\": {:.3}, \
             \"speedup_mean\": {:.3}, \"speedup_best\": {:.3}, \
             \"identical_output\": true}}{}\n",
            r.rows,
            r.algorithm.name(),
            r.workload.name(),
            r.delta_rows,
            r.groups,
            r.open_ms,
            r.mean(|s| s.refresh_ms),
            r.mean(|s| s.scratch_ms),
            r.speedup_mean(),
            r.speedup_best(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The strategies benchmark: every [`Algorithm`] behind the session API —
/// Mondrian, bucketization, full-domain generalization — refreshing through
/// 1% deltas vs a from-scratch publish of the same table, serial engines on
/// both sides so the comparison isolates the retained-state advantage.
fn run_strategies_mode(sizes: &[usize], reps: usize, out_path: &str, smoke: bool) {
    let mut report = Report::new(
        "Strategy refresh: 1% delta apply vs from-scratch publish, per algorithm",
        &["groups", "open", "refresh", "scratch", "speedup"],
    );
    let mut results = Vec::new();
    for &rows in sizes {
        for algorithm in [
            Algorithm::Mondrian,
            Algorithm::Bucketize,
            Algorithm::FullDomain,
        ] {
            for workload in [Workload::Clustered, Workload::Scattered] {
                let r = run_strategies(rows, reps, algorithm, workload);
                report.row(
                    &format!("{rows} rows, {}, {}", algorithm.name(), workload.name()),
                    vec![
                        format!("{}", r.groups),
                        format!("{:.1}ms", r.open_ms),
                        format!("{:.2}ms", r.mean(|s| s.refresh_ms)),
                        format!("{:.2}ms", r.mean(|s| s.scratch_ms)),
                        format!("{:.2}x", r.speedup_mean()),
                    ],
                );
                results.push(r);
            }
        }
    }
    report.note(&format!(
        "{reps} delta(s) per cell, each ½% deletes + ½% inserts (clustered = one narrow \
         age-band cohort, scattered = uniform churn); serial engines on both sides; every \
         step's groups, ranges and histograms verified bit-identical before timing is recorded"
    ));
    println!("{}", report.render());

    let payload = strategies_json(&results, smoke, reps);
    let mut file = std::fs::File::create(out_path).expect("create strategies json");
    file.write_all(payload.as_bytes())
        .expect("write strategies json");
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let incremental = args.iter().any(|a| a == "--incremental");
    let estimate = args.iter().any(|a| a == "--estimate");
    let concurrent = args.iter().any(|a| a == "--concurrent");
    let recovery = args.iter().any(|a| a == "--recovery");
    let scale = args.iter().any(|a| a == "--scale");
    let fleet = args.iter().any(|a| a == "--fleet");
    let strategies = args.iter().any(|a| a == "--strategies");
    assert!(
        [
            incremental,
            estimate,
            concurrent,
            recovery,
            scale,
            fleet,
            strategies
        ]
        .iter()
        .filter(|b| **b)
        .count()
            <= 1,
        "--incremental, --estimate, --concurrent, --recovery, --scale, --fleet and \
         --strategies are mutually exclusive"
    );
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| {
        if incremental {
            "BENCH_incremental.json".to_owned()
        } else if estimate {
            "BENCH_estimate.json".to_owned()
        } else if concurrent {
            "BENCH_concurrent.json".to_owned()
        } else if recovery {
            "BENCH_recovery.json".to_owned()
        } else if scale {
            "BENCH_scale.json".to_owned()
        } else if fleet {
            "BENCH_fleet.json".to_owned()
        } else if strategies {
            "BENCH_strategies.json".to_owned()
        } else {
            "BENCH_baseline.json".to_owned()
        }
    });
    if concurrent {
        run_concurrent_mode(smoke, &out_path);
        return;
    }
    if recovery {
        run_recovery_mode(smoke, &out_path);
        return;
    }
    if fleet {
        run_fleet_mode(smoke, &out_path);
        return;
    }
    let reps: usize = arg_after("--reps")
        .map(|v| v.parse().expect("--reps takes a positive integer"))
        .unwrap_or(if scale {
            2
        } else {
            match (incremental || strategies, smoke) {
                (true, true) => 2,
                (true, false) => 8,
                (false, true) => 1,
                (false, false) => 3,
            }
        });
    assert!(reps >= 1, "--reps takes a positive integer");
    let sizes: Vec<usize> = if scale {
        if smoke {
            vec![2_000]
        } else {
            vec![1_000_000, 10_000_000]
        }
    } else if smoke {
        vec![1_000]
    } else {
        vec![10_000, 100_000]
    };
    if scale {
        run_scale_mode(&sizes, reps, &out_path, smoke);
        return;
    }
    if incremental {
        run_incremental_mode(&sizes, reps, &out_path, smoke);
        return;
    }
    if strategies {
        run_strategies_mode(&sizes, reps, &out_path, smoke);
        return;
    }
    if estimate {
        run_estimate_mode(&sizes, reps, &out_path, smoke);
        return;
    }
    let threads = Parallelism::Auto.effective_threads();

    let mut report = Report::new(
        "Baseline: publish + audit, serial vs parallel",
        &[
            "groups",
            "ser pub",
            "par pub",
            "ser Adv(b')",
            "par Adv(b')",
            "ser tcl",
            "par tcl",
            "speedup",
        ],
    );
    let mut results = Vec::new();
    for &rows in &sizes {
        let r = run_size(rows, reps);
        report.row(
            &format!("{rows} rows"),
            vec![
                format!("{}", r.groups),
                format!("{:.1}ms", r.serial_publish_ms),
                format!("{:.1}ms", r.parallel_publish_ms),
                format!("{:.1}ms", r.serial_audit_kernel_ms),
                format!("{:.1}ms", r.parallel_audit_kernel_ms),
                format!("{:.1}ms", r.serial_audit_tcloseness_ms),
                format!("{:.1}ms", r.parallel_audit_tcloseness_ms),
                format!("{:.2}x", r.speedup()),
            ],
        );
        results.push(r);
    }
    report.note(&format!(
        "{threads} worker thread(s); min over {reps} rep(s); kernel prior estimated once \
         (estimate_ms) and shared by both engines; outputs verified bit-identical"
    ));
    println!("{}", report.render());

    let payload = json(&results, threads, smoke, reps);
    let mut file = std::fs::File::create(&out_path).expect("create baseline json");
    file.write_all(payload.as_bytes())
        .expect("write baseline json");
    println!("wrote {out_path}");
}
