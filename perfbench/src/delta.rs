//! `durable_delta_100k`: one durable tenant of 100k rows, each op a durable
//! `apply` of a 1% clustered-cohort delta followed by an `audit_against` of
//! the new version, then a timed cold reopen.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon::anon::{AnonymizationStrategy, Mondrian};
use bgkanon::data::{adult, Delta, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth, FoldedTable, PriorEstimator};
use bgkanon::privacy::{Auditor, KAnonymity, PrivacyRequirement, SharedAuditSession};
use bgkanon::stats::SmoothedJs;
use bgkanon::wal::{encode_record, scan, WalWriter};
use bgkanon::{DurabilityOptions, Publisher, SessionHub, SyncPolicy};

use crate::inputs::{check_ingest, clustered_delta, ingest, scatter_delta, Donors};
use crate::util::{
    cpu_ms, digest_publication, digest_risks, digest_table, dirty_from_stamps, file_len,
    file_version, latency_metrics, mean, median, ms_since, peak_rss_mb, satisfies_whole, HostSpeed,
    Metric, Rng, Tracer, Unstolen,
};
use crate::{check_publication, check_report, Outcome, RunArgs};

pub const B_PRIME: f64 = 0.25;
pub const T: f64 = 0.2;
const TENANT: &str = "delta-100k";

/// Sizes and counts of the workload; `full()` is what the benchmark runs.
#[derive(Clone)]
pub struct Config {
    pub rows: usize,
    pub k: usize,
    pub checkpoint_every: u64,
    /// WAL records left for the reopen to replay.
    pub recovery_tail: u64,
    pub setup_reps: usize,
    pub recovery_reps: usize,
    /// The loop runs past the deadline until it has this many ops.
    pub min_ops: usize,
    /// Ops the traced run executes and replays.
    pub trace_ops: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            rows: 100_000,
            k: 10,
            checkpoint_every: 32,
            recovery_tail: 16,
            setup_reps: 5,
            recovery_reps: 5,
            min_ops: 100,
            trace_ops: 64,
        }
    }

    fn options(&self) -> DurabilityOptions {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: self.checkpoint_every,
            verify_on_open: false,
            max_resident_bytes: None,
        }
    }

    fn publisher(&self) -> Publisher {
        Publisher::new()
            .k_anonymity(self.k)
            .parallelism(Parallelism::Auto)
    }
}

/// What the hub did for one op, recorded outside the timed region.
struct HubOp {
    apply_ms: f64,
    audit_ms: f64,
    apply_cpu_ms: f64,
    audit_cpu_ms: f64,
    /// The host-speed scale of the op's CPU times.
    scale: f64,
    checkpoint_bytes: Option<u64>,
    publication: u64,
    risks: u64,
    dirty_groups: u64,
    dirty_rows: u64,
    wal_bytes: u64,
}

struct Setup {
    hub: SessionHub,
    genesis: Table,
    setup_s: f64,
    read_csv_ms: f64,
}

fn setup(cfg: &Config, seed: u64, dir: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let started = Unstolen::start()?;
    let generated = adult::generate(cfg.rows, seed);
    let ingested = ingest(&generated, &dir.join("tenant.csv"))?;
    let (hub, _) = SessionHub::open_with(dir.join("hub"), cfg.options())
        .map_err(|e| format!("open hub: {e}"))?;
    hub.register(TENANT, &ingested.table, &cfg.publisher())
        .map_err(|e| format!("register: {e}"))?;
    hub.audit_against(TENANT, B_PRIME, T)
        .map_err(|e| format!("first audit: {e}"))?;
    let (setup_s, _) = started.elapsed_s()?;
    check_ingest(&generated, &ingested.table)?;
    Ok(Setup {
        hub,
        genesis: ingested.table,
        setup_s,
        read_csv_ms: ingested.read_ms,
    })
}

/// The seeded delta script: the table is evolved through every delta so
/// each one is built against the version it will be applied to.
fn script(genesis: &Table, seed: u64, len: usize) -> Vec<Delta> {
    let half = (genesis.len() / 200).max(1);
    let donors = Donors::new(4 * half, seed);
    let mut rng = Rng::new(seed ^ 0xde17a);
    let mut table = genesis.clone();
    (0..len)
        .map(|_| {
            let delta = clustered_delta(&table, &mut rng, half, &donors);
            table = table
                .apply_delta(&delta)
                .expect("the script's deltas fit the table they were built on");
            delta
        })
        .collect()
}

fn tenant_dir(hub_root: &Path) -> Result<std::path::PathBuf, String> {
    let dir = hub_root.join(TENANT);
    if dir.join("genesis.tbl").exists() {
        Ok(dir)
    } else {
        Err(format!("no tenant directory at {dir:?}"))
    }
}

pub fn run(cfg: &Config, args: &RunArgs, work: &Path) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { cfg.setup_reps };
    // Set-up times are scaled like request times, by a probe after each rep.
    let mut speed = HostSpeed::new();
    let mut setup_raw = Vec::new();
    let mut setup_samples = Vec::new();
    let mut read_csv_samples = Vec::new();
    let mut kept: Option<Setup> = None;
    for rep in 0..reps {
        if let Some(previous) = kept.take() {
            drop(previous.hub);
            let _ = std::fs::remove_dir_all(work.join(format!("setup-{}", rep - 1)));
        }
        let s = setup(cfg, args.seed, &work.join(format!("setup-{rep}")))?;
        speed.probe();
        setup_raw.push(s.setup_s);
        setup_samples.push(s.setup_s * speed.scale());
        read_csv_samples.push(s.read_csv_ms);
        kept = Some(s);
    }
    let Setup { hub, genesis, .. } = kept.expect("at least one setup rep");
    let hub_root = work.join(format!("setup-{}", reps - 1)).join("hub");
    let dir = tenant_dir(&hub_root)?;

    let ops_cap = if args.trace {
        cfg.trace_ops
    } else {
        (args.seconds as usize * 12).max(cfg.min_ops)
    };
    // Cohort deltas for the loop, plus enough to reach the next checkpoint
    // after it.
    let deltas = script(&genesis, args.seed, ops_cap + cfg.checkpoint_every as usize);
    // Uniform-scatter churn for the recovery tail: its replay cost varies far
    // less from seed to seed than cohort churn's. The table size never
    // changes, so these can be built against the genesis table.
    let tail_deltas: Vec<Delta> = {
        let half = (genesis.len() / 200).max(1);
        let donors = Donors::new(4 * half, args.seed ^ 0x7a11);
        let mut rng = Rng::new(args.seed ^ 0x7a11);
        (0..cfg.recovery_tail)
            .map(|_| scatter_delta(&genesis, &mut rng, half, &donors))
            .collect()
    };

    // The timed loop: one closed-loop client, apply then audit.
    let mut ops: Vec<HubOp> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut prev_stamps = hub
        .snapshot(TENANT)
        .map_err(|e| e.to_string())?
        .leaf_stamps()
        .to_vec();
    let mut prev_checkpoint = file_version(&dir.join("checkpoint.tbl"));
    let deadline = Duration::from_secs(args.seconds);
    let probed_before_loop = speed.spent_ms();
    let unstolen = Unstolen::start()?;
    let started = Instant::now();
    for delta in &deltas[..ops_cap] {
        let elapsed = started.elapsed();
        if !args.trace
            && elapsed >= deadline
            && (ops.len() >= cfg.min_ops || elapsed >= deadline * 3)
        {
            break;
        }
        attempted += 1;
        let (t0, c0) = (Instant::now(), cpu_ms());
        let applied = catch_unwind(AssertUnwindSafe(|| hub.apply(TENANT, delta)));
        let (apply_ms, c1) = (ms_since(t0), cpu_ms());
        let t1 = Instant::now();
        let audited = catch_unwind(AssertUnwindSafe(|| hub.audit_against(TENANT, B_PRIME, T)));
        let (audit_ms, c2) = (ms_since(t1), cpu_ms());
        // Bookkeeping outside the timed region.
        speed.tick();
        let (Ok(Ok(snapshot)), Ok(Ok(report))) = (applied, audited) else {
            failed += 1;
            continue;
        };
        let checkpoint = file_version(&dir.join("checkpoint.tbl"));
        let checkpoint_bytes =
            (checkpoint != prev_checkpoint).then(|| checkpoint.map_or(0, |c| c.1));
        prev_checkpoint = checkpoint;
        let traced = args.trace;
        let (dirty_groups, dirty_rows) = if traced {
            dirty_from_stamps(&prev_stamps, snapshot.leaf_stamps(), snapshot.anonymized())
        } else {
            (0, 0)
        };
        if traced {
            prev_stamps = snapshot.leaf_stamps().to_vec();
        }
        ops.push(HubOp {
            apply_ms,
            audit_ms,
            apply_cpu_ms: c1 - c0,
            audit_cpu_ms: c2 - c1,
            scale: speed.scale(),
            checkpoint_bytes,
            publication: if traced {
                digest_publication(snapshot.anonymized())
            } else {
                0
            },
            risks: if traced { digest_risks(&report) } else { 0 },
            dirty_groups,
            dirty_rows,
            wal_bytes: encode_record(snapshot.version(), delta).len() as u64 + 12,
        });
    }
    let (loop_s, loop_steal_s) = unstolen.elapsed_s()?;
    let measured = ops.len();

    // Apply cohort deltas up to the next checkpoint, then `recovery_tail`
    // scatter deltas: every reopen loads a checkpoint of cohort churn and
    // replays the same number of scatter records.
    let consumed = attempted as usize;
    let version = hub.snapshot(TENANT).map_err(|e| e.to_string())?.version();
    let to_checkpoint =
        (cfg.checkpoint_every - version % cfg.checkpoint_every) % cfg.checkpoint_every;
    let closing = deltas[consumed..consumed + to_checkpoint as usize]
        .iter()
        .chain(&tail_deltas);
    for delta in closing {
        attempted += 1;
        if !matches!(
            catch_unwind(AssertUnwindSafe(|| hub.apply(TENANT, delta))),
            Ok(Ok(_))
        ) {
            failed += 1;
        }
    }

    // Correctness gate: the final publication against a from-scratch
    // publish, the final audit against a fresh auditor.
    let snapshot = hub.snapshot(TENANT).map_err(|e| e.to_string())?;
    let final_table = snapshot.table().clone();
    let fresh = cfg
        .publisher()
        .publish(&final_table)
        .map_err(|e| format!("from-scratch publish failed: {e}"))?;
    check_publication(
        snapshot.anonymized(),
        &fresh.anonymized,
        "durable_delta_100k final publication",
    )?;
    let report = hub
        .audit_against(TENANT, B_PRIME, T)
        .map_err(|e| e.to_string())?;
    check_report(
        &report,
        &fresh_report(&final_table, &snapshot.anonymized().row_groups()),
        "durable_delta_100k final audit",
    )?;
    let before = (
        snapshot.version(),
        digest_table(&final_table),
        digest_publication(snapshot.anonymized()),
    );
    let memory = hub.memory_stats();
    drop(snapshot);
    drop(hub);

    // Cold reopen, checked bit-identical to the hub that was dropped.
    let mut recovery_samples = Vec::new();
    let mut replayed = 0usize;
    // The first reopen is checked, not timed: it faults in what every later
    // reopen reuses. A traced run reports no recovery time.
    let recovery_reps = if args.trace { 0 } else { cfg.recovery_reps };
    for rep in 0..=recovery_reps {
        let t = Instant::now();
        let (reopened, recovery) =
            SessionHub::<bgkanon::anon::AnyStrategy>::open_with(&hub_root, cfg.options())
                .map_err(|e| format!("reopen: {e}"))?;
        if rep > 0 {
            recovery_samples.push(t.elapsed().as_secs_f64());
        }
        if !recovery.is_clean() || recovery.recovered() != 1 {
            return Err(format!(
                "reopen did not recover the tenant cleanly: {recovery:?}"
            ));
        }
        replayed = recovery.tenants[0].replayed;
        if replayed as u64 != cfg.recovery_tail {
            return Err(format!(
                "the reopen replayed {replayed} WAL records, expected {}",
                cfg.recovery_tail
            ));
        }
        if rep == 0 {
            let snap = reopened.snapshot(TENANT).map_err(|e| e.to_string())?;
            let after = (
                snap.version(),
                digest_table(snap.table()),
                digest_publication(snap.anonymized()),
            );
            if after != before {
                return Err("the reopened tenant differs from the dropped one".into());
            }
        }
    }

    let mut metrics = Vec::new();
    let mut detail = vec![(
        "recovery_samples_s".to_owned(),
        format!("{recovery_samples:?}"),
    )];
    if !args.trace {
        let scaled = |f: fn(&HubOp) -> f64| ops.iter().map(|o| f(o) * o.scale).collect::<Vec<_>>();
        metrics.push(Metric::timed(
            "setup_s",
            median(&setup_samples),
            "s",
            setup_samples.len(),
        ));
        latency_metrics(
            &mut metrics,
            "op",
            &scaled(|o| o.apply_cpu_ms + o.audit_cpu_ms),
        )?;
        latency_metrics(&mut metrics, "apply", &scaled(|o| o.apply_cpu_ms))?;
        latency_metrics(&mut metrics, "audit", &scaled(|o| o.audit_cpu_ms))?;
        let raw = |f: fn(&HubOp) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
        detail.extend([
            (
                "ops_per_s".to_owned(),
                format!(
                    "{}",
                    measured as f64 / (loop_s - (speed.spent_ms() - probed_before_loop) / 1e3)
                ),
            ),
            ("raw.setup_s".to_owned(), format!("{}", median(&setup_raw))),
            ("loop_steal_s".to_owned(), format!("{loop_steal_s}")),
            (
                "probe_median_ms".to_owned(),
                format!("{}", speed.median_ms()),
            ),
            ("probes".to_owned(), format!("{}", speed.len())),
            (
                "cpu.op_p50_ms".to_owned(),
                format!("{}", raw(|o| o.apply_cpu_ms + o.audit_cpu_ms)),
            ),
            (
                "wall.op_p50_ms".to_owned(),
                format!("{}", raw(|o| o.apply_ms + o.audit_ms)),
            ),
        ]);
        // Cold-reopen time is reported here, not gated: between seeds it
        // spreads wider than any bound the benchmark may set.
        detail.push((
            "recovery_s".to_owned(),
            format!("{}", median(&recovery_samples)),
        ));
        metrics.push(Metric::timed("peak_rss_mb", peak_rss_mb()?, "MB", 1));
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
            detail,
        });
    }

    // Traced run: replay the same ops through the layers' public calls.
    let mut tracer = Tracer::new();
    let replay = replay(cfg, &genesis, &deltas[..ops.len()], &ops, &mut tracer, work)?;
    tracer.write_jsonl(&args.spans_path(), "op")?;

    let n = ops.len();
    let stage = |name: &str| mean(&tracer.stage_samples(name));
    let plain: Vec<usize> = (0..n)
        .filter(|&i| ops[i].checkpoint_bytes.is_none())
        .collect();
    let hub_ms: Vec<f64> = plain
        .iter()
        .map(|&i| ops[i].apply_ms + ops[i].audit_ms)
        .collect();
    let sums: Vec<f64> = plain.iter().map(|&i| tracer.op_sum_ms(i)).collect();
    let walls: Vec<f64> = plain.iter().map(|&i| replay.wall_ms[i]).collect();
    let self_ms = mean(&hub_ms) - mean(&sums);
    let checkpoints: Vec<u64> = ops.iter().filter_map(|o| o.checkpoint_bytes).collect();
    let checkpoint_apply: Vec<f64> = ops
        .iter()
        .filter(|o| o.checkpoint_bytes.is_some())
        .map(|o| o.apply_ms)
        .collect();
    let wal_path = dir.join("wal.log");
    let mut scan_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        scan(&wal_path).map_err(|e| format!("scan wal.log: {e}"))?;
        scan_ms.push(ms_since(t));
    }
    let bytes_read = file_len(&dir.join("genesis.tbl"))
        + file_len(&dir.join("checkpoint.tbl"))
        + file_len(&wal_path);
    let per_delta = |f: &dyn Fn(&HubOp) -> u64| ops.iter().map(f).sum::<u64>() as f64 / n as f64;

    metrics.push(Metric::timed(
        "data.read_csv_ms",
        median(&read_csv_samples),
        "ms",
        read_csv_samples.len(),
    ));
    metrics.push(Metric::timed(
        "data.apply_delta_ms",
        stage("data.apply_delta"),
        "ms",
        n,
    ));
    metrics.push(Metric::timed("anon.plant_ms", replay.plant_ms, "ms", 1));
    metrics.push(Metric::timed(
        "anon.refresh_ms",
        stage("anon.refresh"),
        "ms",
        n,
    ));
    metrics.push(Metric::timed(
        "anon.refresh.mondrian_ms",
        stage("anon.refresh"),
        "ms",
        n,
    ));
    metrics.push(Metric::timed(
        "anon.snapshot_ms",
        stage("anon.snapshot"),
        "ms",
        n,
    ));
    metrics.push(Metric::count(
        "anon.dirty_groups",
        per_delta(&|o| o.dirty_groups),
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "anon.dirty_rows",
        per_delta(&|o| o.dirty_rows),
        "count",
        n,
    ));
    metrics.push(Metric::timed(
        "knowledge.fold_ms",
        stage("knowledge.fold"),
        "ms",
        n,
    ));
    metrics.push(Metric::timed(
        "knowledge.estimate_ms",
        stage("knowledge.estimate"),
        "ms",
        n,
    ));
    metrics.push(Metric::count(
        "knowledge.distinct_points",
        mean(&replay.distinct_points),
        "count",
        n,
    ));
    metrics.push(Metric::timed(
        "privacy.requirement_check_ms",
        stage("privacy.requirement_check"),
        "ms",
        n,
    ));
    metrics.push(Metric::timed(
        "privacy.audit_ms",
        stage("privacy.audit"),
        "ms",
        n,
    ));
    metrics.push(Metric::count(
        "privacy.omega_solves",
        replay.solves as f64 / n as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "privacy.replay_ratio",
        1.0 - replay.solves as f64 / replay.groups as f64,
        "ratio",
        n,
    ));
    metrics.push(Metric::timed(
        "core.wal.append_ms",
        stage("core.wal.append"),
        "ms",
        n,
    ));
    metrics.push(Metric::count(
        "core.wal.bytes_per_delta",
        per_delta(&|o| o.wal_bytes),
        "bytes",
        n,
    ));
    metrics.push(Metric::count(
        "core.wal.fsyncs_per_delta",
        (n as f64 + FSYNCS_PER_CHECKPOINT * checkpoints.len() as f64) / n as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "core.checkpoint.count",
        checkpoints.len() as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "core.checkpoint.bytes",
        checkpoints.iter().sum::<u64>() as f64,
        "bytes",
        checkpoints.len(),
    ));
    metrics.push(Metric::timed(
        "core.checkpoint.apply_ms",
        mean(&checkpoint_apply),
        "ms",
        checkpoint_apply.len(),
    ));
    metrics.push(Metric::count(
        "core.recover.replayed_records",
        replayed as f64,
        "count",
        1,
    ));
    metrics.push(Metric::timed(
        "core.recover.wal_scan_ms",
        median(&scan_ms),
        "ms",
        scan_ms.len(),
    ));
    metrics.push(Metric::count(
        "core.recover.bytes_read",
        bytes_read as f64,
        "bytes",
        1,
    ));
    metrics.push(Metric::timed(
        "core.hub.self_ms",
        self_ms,
        "ms",
        plain.len(),
    ));
    metrics.push(Metric::count(
        "core.hub.evictions",
        memory.evictions as f64,
        "count",
        1,
    ));
    metrics.push(Metric::count(
        "core.hub.rehydrations",
        memory.rehydrations as f64,
        "count",
        1,
    ));
    metrics.push(Metric::count(
        "core.hub.intern_hit_ratio",
        ratio(memory.intern_hits, memory.intern_misses),
        "ratio",
        1,
    ));
    metrics.push(Metric::count(
        "core.hub.resident_mb",
        memory.resident_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    ));

    let stage_sum = mean(&sums);
    let hub_mean = mean(&hub_ms);
    detail.extend([
        ("stage_sum_ms".to_owned(), format!("{stage_sum}")),
        ("hub_op_ms".to_owned(), format!("{hub_mean}")),
        (
            "stage_sum_gap".to_owned(),
            format!("{}", (hub_mean - stage_sum) / hub_mean),
        ),
        (
            "stage_sum_tolerance".to_owned(),
            format!("{STAGE_SUM_TOLERANCE}"),
        ),
        (
            "stage_sum_ok".to_owned(),
            format!(
                "{}",
                ((hub_mean - stage_sum) / hub_mean).abs() <= STAGE_SUM_TOLERANCE
            ),
        ),
        (
            "tracing_overhead_ms".to_owned(),
            format!("{}", mean(&walls) - hub_mean),
        ),
        (
            "replay_outside_spans_ms".to_owned(),
            format!("{}", mean(&walls) - stage_sum),
        ),
        ("compared_ops".to_owned(), format!("{}", plain.len())),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// `fsync`s one checkpoint costs: the checkpoint file and its directory,
/// then the rotated WAL's header and its directory.
pub const FSYNCS_PER_CHECKPOINT: f64 = 4.0;

/// Largest share of the hub's op latency the traced stages may miss or
/// exceed. The hub does work no public layer call covers (cloning the
/// published version, content-hashing the fold for the intern table, memory
/// accounting); that gap is reported as `core.hub.self_ms`.
pub const STAGE_SUM_TOLERANCE: f64 = 0.25;

pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// A fresh `Adv(b')` audit of `groups`, the reference every hub audit must
/// match bit for bit.
pub fn fresh_report(table: &Table, groups: &[Vec<usize>]) -> bgkanon::privacy::AuditReport {
    let bandwidth = Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth");
    let auditor = Auditor::new(
        Arc::new(Adversary::kernel(table, bandwidth)),
        Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        )),
    );
    auditor.report_with(table, groups, T, Parallelism::Auto)
}

struct Replay {
    plant_ms: f64,
    wall_ms: Vec<f64>,
    distinct_points: Vec<f64>,
    solves: u64,
    groups: u64,
}

/// Replay the hub's ops through the layers' public calls, in the order the
/// hub makes them, with a span around each call; every op's publication
/// and risks must match the hub's bit for bit.
fn replay(
    cfg: &Config,
    genesis: &Table,
    deltas: &[Delta],
    hub_ops: &[HubOp],
    tracer: &mut Tracer,
    work: &Path,
) -> Result<Replay, String> {
    let requirement: Arc<dyn PrivacyRequirement> = Arc::new(KAnonymity::new(cfg.k));
    let strategy = Mondrian::new(Arc::clone(&requirement));
    let t = Instant::now();
    let mut state = AnonymizationStrategy::plant_with(&strategy, genesis, Parallelism::Auto)
        .map_err(|e| e.to_string())?;
    AnonymizationStrategy::warm(&strategy, &mut state, genesis);
    let plant_ms = ms_since(t);
    let mut wal = WalWriter::create(&work.join("replay-wal.log"), 0, SyncPolicy::Always)
        .map_err(|e| format!("create replay WAL: {e}"))?;
    let schema = Arc::clone(genesis.schema());
    let bandwidth = Bandwidth::uniform(B_PRIME, genesis.qi_count()).expect("positive bandwidth");
    let mut table = genesis.clone();
    let mut out = Replay {
        plant_ms,
        wall_ms: Vec::new(),
        distinct_points: Vec::new(),
        solves: 0,
        groups: 0,
    };
    for (i, (delta, hub_op)) in deltas.iter().zip(hub_ops).enumerate() {
        let t = Instant::now();
        let next = tracer
            .span(i, "data.apply_delta", || table.apply_delta(delta))
            .map_err(|e| e.to_string())?;
        let satisfied = tracer.span(i, "privacy.requirement_check", || {
            satisfies_whole(&next, requirement.as_ref())
        });
        if !satisfied {
            return Err(format!(
                "replay op {i}: the table stopped satisfying the requirement"
            ));
        }
        tracer
            .span(i, "anon.refresh", || {
                AnonymizationStrategy::refresh(
                    &strategy,
                    &mut state,
                    &table,
                    &next,
                    delta.deletes(),
                )
            })
            .map_err(|e| e.to_string())?;
        let (anonymized, stamps) = tracer.span(i, "anon.snapshot", || state.snapshot(&next));
        tracer
            .span(i, "core.wal.append", || {
                wal.append(&encode_record(i as u64 + 1, delta))
            })
            .map_err(|e| format!("replay WAL append: {e}"))?;
        let fold = tracer.span(i, "knowledge.fold", || FoldedTable::new(&next));
        out.distinct_points.push(fold.len() as f64);
        let model = tracer.span(i, "knowledge.estimate", || {
            PriorEstimator::new(Arc::clone(&schema), bandwidth.clone())
                .estimate_folded(fold, Parallelism::Auto)
        });
        let adversary = Adversary::from_model(
            &format!("Adv({bandwidth})"),
            bandwidth.clone(),
            Arc::new(model),
        );
        let measure = SmoothedJs::paper_default(next.schema().sensitive_distance());
        let shared = SharedAuditSession::new(Auditor::new(Arc::new(adversary), Arc::new(measure)));
        let groups: Vec<&[usize]> = anonymized
            .groups()
            .iter()
            .map(|g| g.rows.as_slice())
            .collect();
        let report = tracer.span(i, "privacy.audit", || {
            shared.report_groups(&next, &groups, Some(&stamps), T)
        });
        out.wall_ms.push(ms_since(t));
        out.solves += shared.cached_signatures() as u64;
        out.groups += groups.len() as u64;
        if digest_publication(&anonymized) != hub_op.publication
            || digest_risks(&report) != hub_op.risks
        {
            return Err(format!("replay op {i} differs from the hub's output"));
        }
        table = next;
    }
    Ok(out)
}
