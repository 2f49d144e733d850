//! `fleet_mixed`: a durable hub of small tenants of four strategy kinds,
//! held under a resident-byte budget below its working set. One
//! closed-loop client sends Zipf-chosen writes (`apply` of a 1% scatter
//! delta) and reads (`audit_with` a caller-frozen auditor, or
//! `audit_against(b')`); then a timed cold reopen.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgkanon::anon::{
    AnonymizationStrategy, AnonymizedTable, AnyState, AnyStrategy, Bucketize, FullDomain, Mondrian,
    StrategyState,
};
use bgkanon::data::{adult, Delta, Parallelism, Table};
use bgkanon::knowledge::{Adversary, Bandwidth, FoldedTable, PriorEstimator};
use bgkanon::privacy::{
    And, Auditor, BTPrivacy, DistinctLDiversity, KAnonymity, PrivacyRequirement, SharedAuditSession,
};
use bgkanon::stats::SmoothedJs;
use bgkanon::wal::{encode_record, scan, WalWriter};
use bgkanon::{Algorithm, DurabilityOptions, Publisher, SessionHub, SyncPolicy};

use crate::delta::{fresh_report, ratio, B_PRIME, FSYNCS_PER_CHECKPOINT, T};
use crate::inputs::{check_ingest, ingest, scatter_delta, Donors};
use crate::util::{
    cpu_ms, digest_publication, digest_risks, digest_table, dirty_from_stamps, file_len,
    file_version, latency_metrics, mean, median, ms_since, peak_rss_mb, percentile,
    satisfies_whole, HostSpeed, Metric, Rng, Tracer, Unstolen, Zipf,
};
use crate::{check_publication, check_report, Outcome, RunArgs};

/// The (B,t) tenants' threshold. At t ≤ 0.25 a 1000-row table's random
/// churn now and then leaves the whole table violating the requirement, and
/// the hub rightly rejects that delta; the workload must not fail requests.
const BT_T: f64 = 0.3;

/// The four tenant kinds, in the order their latency modes rise.
pub const KINDS: [&str; 4] = ["mondrian", "bucketize", "mondrian_bt", "fulldomain"];

/// One tenant kind: how many tenants, their size, and the share of requests
/// addressed to the kind.
#[derive(Clone)]
pub struct Kind {
    pub tenants: usize,
    pub rows: usize,
    pub share: f64,
}

#[derive(Clone)]
pub struct Config {
    /// Indexed like [`KINDS`].
    pub kinds: [Kind; 4],
    pub write_fraction: f64,
    /// Share of reads that are `audit_against(b')`; the rest are
    /// `audit_with` a caller-frozen auditor.
    pub against_fraction: f64,
    pub zipf_s: f64,
    pub checkpoint_every: u64,
    pub clients: usize,
    /// Resident budget as a share of the tenants' raw table bytes.
    pub budget_share: f64,
    pub setup_reps: usize,
    pub recovery_reps: usize,
    pub min_writes: usize,
    pub min_reads: usize,
    pub trace_ops: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            kinds: [
                Kind {
                    tenants: 8,
                    rows: 1500,
                    share: 0.345,
                },
                Kind {
                    tenants: 8,
                    rows: 1500,
                    share: 0.34,
                },
                Kind {
                    tenants: 8,
                    rows: 1000,
                    share: 0.30,
                },
                Kind {
                    tenants: 4,
                    rows: 500,
                    share: 0.015,
                },
            ],
            write_fraction: 0.3,
            against_fraction: 0.2,
            zipf_s: 0.8,
            checkpoint_every: 8,
            clients: 1,
            budget_share: 10.0,
            setup_reps: 5,
            recovery_reps: 15,
            min_writes: 100,
            min_reads: 100,
            trace_ops: 400,
        }
    }

    fn options(&self, budget: usize) -> DurabilityOptions {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: self.checkpoint_every,
            verify_on_open: false,
            max_resident_bytes: Some(budget),
        }
    }
}

fn publisher(kind: usize) -> Publisher {
    match KINDS[kind] {
        "mondrian" => Publisher::new().k_anonymity(10),
        "bucketize" => Publisher::new()
            .algorithm(Algorithm::Bucketize)
            .distinct_l_diversity(3),
        "mondrian_bt" => Publisher::new().k_anonymity(10).bt_privacy(B_PRIME, BT_T),
        _ => Publisher::new()
            .algorithm(Algorithm::FullDomain)
            .k_anonymity(5)
            .distinct_l_diversity(2),
    }
}

/// The requirement and strategy [`publisher`] makes the hub build, rebuilt
/// from the public constructors for the traced replay.
fn strategy(kind: usize, genesis: &Table) -> (Arc<dyn PrivacyRequirement>, AnyStrategy) {
    match KINDS[kind] {
        "mondrian" => {
            let req: Arc<dyn PrivacyRequirement> = Arc::new(KAnonymity::new(10));
            (Arc::clone(&req), AnyStrategy::Mondrian(Mondrian::new(req)))
        }
        "bucketize" => (
            Arc::new(DistinctLDiversity::new(3)),
            AnyStrategy::Bucketize(Bucketize::new(3)),
        ),
        "mondrian_bt" => {
            let bw = Bandwidth::uniform(B_PRIME, genesis.qi_count()).expect("positive bandwidth");
            let req: Arc<dyn PrivacyRequirement> = Arc::new(And::new(vec![
                Box::new(KAnonymity::new(10)),
                Box::new(BTPrivacy::new(genesis, bw, BT_T)),
            ]));
            (Arc::clone(&req), AnyStrategy::Mondrian(Mondrian::new(req)))
        }
        _ => {
            let req: Arc<dyn PrivacyRequirement> = Arc::new(And::new(vec![
                Box::new(KAnonymity::new(5)),
                Box::new(DistinctLDiversity::new(2)),
            ]));
            (
                Arc::clone(&req),
                AnyStrategy::FullDomain(FullDomain::new_monotone(req)),
            )
        }
    }
}

/// The from-scratch publication a tenant's current version must equal. A
/// session fixes its requirement when it opens, and (B,t)-privacy captures
/// a prior estimated from the table it is instantiated on, so that kind's
/// reference plants under the requirement built from the genesis table;
/// every other kind's is `Publisher::publish` of the current table.
fn reference_publication(tenant: &Tenant, table: &Table) -> Result<AnonymizedTable, String> {
    if KINDS[tenant.kind] == "mondrian_bt" {
        let (_, strategy) = strategy(tenant.kind, &tenant.genesis);
        let state = strategy
            .plant_with(table, Parallelism::Auto)
            .map_err(|e| e.to_string())?;
        return Ok(state.snapshot(table).0);
    }
    publisher(tenant.kind)
        .publish(table)
        .map(|outcome| outcome.anonymized)
        .map_err(|e| format!("from-scratch publish of {} failed: {e}", tenant.name))
}

struct Tenant {
    name: String,
    kind: usize,
    genesis: Table,
    /// The requirement the hub instantiated from `genesis`.
    requirement: Arc<dyn PrivacyRequirement>,
    auditor: Auditor,
    half: usize,
}

struct Setup {
    hub: SessionHub,
    tenants: Vec<Tenant>,
    root: PathBuf,
    budget: usize,
    setup_s: f64,
    read_csv_ms: f64,
}

fn setup(cfg: &Config, seed: u64, dir: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let started = Unstolen::start()?;
    let mut specs = Vec::new();
    let mut read_csv_ms = 0.0;
    let mut generated = Vec::new();
    for (kind, k) in cfg.kinds.iter().enumerate() {
        for i in 0..k.tenants {
            let name = format!("{}-{i:02}", KINDS[kind]);
            let table = adult::generate(
                k.rows,
                seed.wrapping_mul(1000).wrapping_add(specs.len() as u64),
            );
            let ingested = ingest(&table, &dir.join(format!("{name}.csv")))?;
            read_csv_ms += ingested.read_ms;
            generated.push(table);
            specs.push((name, kind, ingested.table));
        }
    }
    let table_bytes: usize = specs.iter().map(|(_, _, t)| t.bytes_accounted()).sum();
    let budget = (cfg.budget_share * table_bytes as f64) as usize;
    let root = dir.join("hub");
    let (hub, _) =
        SessionHub::open_with(&root, cfg.options(budget)).map_err(|e| format!("open hub: {e}"))?;
    let mut registered = Vec::new();
    for (name, kind, table) in specs {
        hub.register(&name, &table, &publisher(kind))
            .map_err(|e| format!("register {name}: {e}"))?;
        let bandwidth = Bandwidth::uniform(B_PRIME, table.qi_count()).expect("positive bandwidth");
        let auditor = Auditor::new(
            Arc::new(Adversary::kernel(&table, bandwidth)),
            Arc::new(SmoothedJs::paper_default(
                table.schema().sensitive_distance(),
            )),
        );
        registered.push((name, kind, table, auditor));
    }
    let (setup_s, _) = started.elapsed_s()?;
    let tenants: Vec<Tenant> = registered
        .into_iter()
        .map(|(name, kind, table, auditor)| Tenant {
            half: (table.len() / 200).max(1),
            requirement: strategy(kind, &table).0,
            name,
            kind,
            genesis: table,
            auditor,
        })
        .collect();
    for (t, g) in tenants.iter().zip(&generated) {
        check_ingest(g, &t.genesis)?;
        if !root.join(&t.name).join("genesis.tbl").exists() {
            return Err(format!("no tenant directory for {}", t.name));
        }
    }
    Ok(Setup {
        hub,
        tenants,
        root,
        budget,
        setup_s,
        read_csv_ms,
    })
}

enum Op {
    Write(usize, Delta),
    With(usize),
    Against(usize),
}

impl Op {
    fn tenant(&self) -> usize {
        match self {
            Op::Write(t, _) | Op::With(t) | Op::Against(t) => *t,
        }
    }
}

/// A scatter delta the tenant's requirement accepts on `table`, and the
/// table it produces. Random churn can now and then leave a small table
/// violating its (B,t) requirement as a whole, a delta the hub rightly
/// rejects; such draws are redrawn so no request is bound to fail.
fn accepted_delta(
    table: &Table,
    requirement: &dyn PrivacyRequirement,
    rng: &mut Rng,
    half: usize,
    donors: &Donors,
) -> (Delta, Table) {
    for _ in 0..1000 {
        let delta = scatter_delta(table, rng, half, donors);
        let next = table
            .apply_delta(&delta)
            .expect("scatter deltas fit their table");
        if satisfies_whole(&next, requirement) {
            return (delta, next);
        }
    }
    panic!("no accepted delta in 1000 draws");
}

/// One seeded script per client: a kind by its request share, a tenant of
/// that kind by Zipf rank, then a write or one of the two reads. Each
/// tenant is written by one client only (tenant index modulo the client
/// count), so its delta sequence is fixed by the seed and every delta is
/// built against the table it will be applied to. Clients' scripts are
/// independent and are generated in parallel.
fn scripts(cfg: &Config, tenants: &[Tenant], seed: u64, len: usize) -> Vec<Vec<Op>> {
    assert!(
        cfg.kinds.iter().all(|k| k.tenants >= cfg.clients),
        "every kind needs a tenant per client to write"
    );
    let donors = Donors::new(4096, seed);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let donors = &donors;
                scope.spawn(move || client_script(cfg, tenants, seed, len, c, donors))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("script generation does not panic"))
            .collect()
    })
}

fn client_script(
    cfg: &Config,
    tenants: &[Tenant],
    seed: u64,
    len: usize,
    client: usize,
    donors: &Donors,
) -> Vec<Op> {
    let of_kind = |k: usize, writer: bool| -> Vec<usize> {
        (0..tenants.len())
            .filter(|&t| tenants[t].kind == k && (!writer || t % cfg.clients == client))
            .collect()
    };
    let readable: Vec<Vec<usize>> = (0..KINDS.len()).map(|k| of_kind(k, false)).collect();
    let writable: Vec<Vec<usize>> = (0..KINDS.len()).map(|k| of_kind(k, true)).collect();
    let zipf = |ts: &Vec<usize>| Zipf::new(ts.len(), cfg.zipf_s);
    let read_zipfs: Vec<Zipf> = readable.iter().map(zipf).collect();
    let write_zipfs: Vec<Zipf> = writable.iter().map(zipf).collect();
    // The tables this client's writes evolve, indexed like `tenants`.
    let mut tables: Vec<Table> = tenants.iter().map(|t| t.genesis.clone()).collect();
    let total: f64 = cfg.kinds.iter().map(|k| k.share).sum();
    let mut rng = Rng::new(seed ^ (0xf1ee7 * (client as u64 + 1)));
    (0..len)
        .map(|_| {
            let mut x = rng.unit() * total;
            let mut kind = 0;
            while kind + 1 < KINDS.len() && x >= cfg.kinds[kind].share {
                x -= cfg.kinds[kind].share;
                kind += 1;
            }
            if rng.chance(cfg.write_fraction) {
                let t = writable[kind][write_zipfs[kind].sample(&mut rng)];
                let tenant = &tenants[t];
                let (delta, next) = accepted_delta(
                    &tables[t],
                    tenant.requirement.as_ref(),
                    &mut rng,
                    tenant.half,
                    donors,
                );
                tables[t] = next;
                return Op::Write(t, delta);
            }
            let t = readable[kind][read_zipfs[kind].sample(&mut rng)];
            if rng.chance(cfg.against_fraction) {
                Op::Against(t)
            } else {
                Op::With(t)
            }
        })
        .collect()
}

/// A number as JSON, `null` when there is none.
fn json_number(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| format!("{v}"))
}

/// The result of one hub request: publication digest for a write, risks
/// digest for a read. A typed error or a caught panic is an `Err`.
fn execute(hub: &SessionHub, tenants: &[Tenant], op: &Op) -> Result<u64, String> {
    let tenant = &tenants[op.tenant()];
    let out = catch_unwind(AssertUnwindSafe(|| match op {
        Op::Write(_, delta) => hub
            .apply(&tenant.name, delta)
            .map(|s| digest_publication(s.anonymized())),
        Op::With(_) => hub
            .audit_with(&tenant.name, &tenant.auditor, T)
            .map(|r| digest_risks(&r)),
        Op::Against(_) => hub
            .audit_against(&tenant.name, B_PRIME, T)
            .map(|r| digest_risks(&r)),
    }));
    match out {
        Ok(Ok(digest)) => Ok(digest),
        Ok(Err(e)) => Err(format!("{}: {e}", tenant.name)),
        Err(_) => Err(format!("{}: the request panicked", tenant.name)),
    }
}

/// One timed request: tenant kind, request type (0 for a write, 1 for
/// `audit_with`, 2 for `audit_against`), wall and CPU milliseconds, and CPU
/// milliseconds scaled to the reference host speed.
struct Sample {
    kind: usize,
    request: u8,
    wall_ms: f64,
    cpu_ms: f64,
    scaled_ms: f64,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

fn client(
    hub: &SessionHub,
    tenants: &[Tenant],
    script: &[Op],
    cfg: &Config,
    deadline: Duration,
    started: Instant,
    speed: &mut HostSpeed,
) -> ClientLog {
    let mut log = ClientLog::default();
    let (mut writes, mut reads) = (0usize, 0usize);
    let (min_writes, min_reads) = (
        cfg.min_writes / cfg.clients + 1,
        cfg.min_reads / cfg.clients + 1,
    );
    for op in script {
        let elapsed = started.elapsed();
        if elapsed >= deadline
            && ((writes >= min_writes && reads >= min_reads) || elapsed >= deadline * 3)
        {
            break;
        }
        log.attempted += 1;
        let (t, c) = (Instant::now(), cpu_ms());
        let result = execute(hub, tenants, op);
        let (wall_ms, cpu_ms) = (ms_since(t), cpu_ms() - c);
        speed.tick();
        if let Err(e) = result {
            if log.failed < 3 {
                eprintln!("request failed: {e}");
            }
            log.failed += 1;
            continue;
        }
        let kind = match op {
            Op::Write(..) => 0,
            Op::With(_) => 1,
            Op::Against(_) => 2,
        };
        if kind == 0 {
            writes += 1;
        } else {
            reads += 1;
        }
        log.samples.push(Sample {
            kind: tenants[op.tenant()].kind,
            request: kind,
            wall_ms,
            cpu_ms,
            scaled_ms: cpu_ms * speed.scale(),
        });
    }
    log
}

/// Apply scatter deltas until every tenant's WAL is empty (its last apply
/// wrote a checkpoint), so the reopen does the same work whatever the loop
/// left behind. An apply can only empty other tenants' logs (by demoting
/// them), so one pass in order suffices.
fn drain_wals(
    hub: &SessionHub,
    tenants: &[Tenant],
    root: &Path,
    seed: u64,
) -> Result<(u64, u64), String> {
    let donors = Donors::new(1024, seed ^ 0xd7a1);
    let mut rng = Rng::new(seed ^ 0xd7a1);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (t, tenant) in tenants.iter().enumerate() {
        let wal = root.join(&tenant.name).join("wal.log");
        loop {
            let tail = scan(&wal)
                .map_err(|e| format!("scan {wal:?}: {e}"))?
                .records
                .len();
            if tail == 0 {
                break;
            }
            if attempted > 64 * tenants.len() as u64 {
                return Err("draining the WALs did not converge".into());
            }
            let table = hub
                .snapshot(&tenant.name)
                .map_err(|e| e.to_string())?
                .table()
                .clone();
            let (delta, _) = accepted_delta(
                &table,
                tenant.requirement.as_ref(),
                &mut rng,
                tenant.half,
                &donors,
            );
            attempted += 1;
            if let Err(e) = execute(hub, tenants, &Op::Write(t, delta)) {
                eprintln!("request failed: {e}");
                failed += 1;
            }
        }
    }
    Ok((attempted, failed))
}

pub fn run(cfg: &Config, args: &RunArgs, work: &Path) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { cfg.setup_reps };
    // Set-up times are scaled like request times, by a probe after each rep.
    let mut speed = HostSpeed::new();
    let mut setup_raw = Vec::new();
    let mut setup_samples = Vec::new();
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
        kept = Some(s);
    }
    let Setup {
        hub,
        tenants,
        root,
        budget,
        read_csv_ms,
        ..
    } = kept.expect("at least one setup rep");

    let len = if args.trace {
        cfg.trace_ops / cfg.clients + 1
    } else {
        args.seconds as usize * 400
    };
    let scripts = scripts(cfg, &tenants, args.seed, len);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut logs = Vec::new();
    let (mut loop_s, mut loop_steal_s) = (0.0, 0.0);
    let mut traced = None;
    if args.trace {
        // One client, the two scripts interleaved: the hub's counters and
        // the replay below then repeat exactly for a seed.
        let merged: Vec<&Op> = (0..len)
            .flat_map(|i| scripts.iter().map(move |s| &s[i]))
            .take(cfg.trace_ops)
            .collect();
        traced = Some(hub_replay(&hub, &tenants, &merged, &root)?);
        attempted += merged.len() as u64;
    } else {
        // A request's CPU time is read from the process clock, which
        // charges it to that request only while no other is in flight.
        let [script] = scripts.as_slice() else {
            return Err("the timed loop runs exactly one client".into());
        };
        let deadline = Duration::from_secs(args.seconds);
        let probed_before_loop = speed.spent_ms();
        let unstolen = Unstolen::start()?;
        logs.push(client(
            &hub,
            &tenants,
            script,
            cfg,
            deadline,
            Instant::now(),
            &mut speed,
        ));
        (loop_s, loop_steal_s) = unstolen.elapsed_s()?;
        loop_s -= (speed.spent_ms() - probed_before_loop) / 1e3;
    }
    for log in &logs {
        attempted += log.attempted;
        failed += log.failed;
    }
    let memory = hub.memory_stats();

    let (a, f) = drain_wals(&hub, &tenants, &root, args.seed)?;
    attempted += a;
    failed += f;

    // Correctness gate, tenant by tenant.
    let mut before = Vec::new();
    for tenant in &tenants {
        let snap = hub.snapshot(&tenant.name).map_err(|e| e.to_string())?;
        let table = snap.table();
        check_publication(
            snap.anonymized(),
            &reference_publication(tenant, table)?,
            &tenant.name,
        )?;
        let groups = snap.anonymized().row_groups();
        let with = hub
            .audit_with(&tenant.name, &tenant.auditor, T)
            .map_err(|e| e.to_string())?;
        check_report(
            &with,
            &tenant
                .auditor
                .report_with(table, &groups, T, Parallelism::Auto),
            &tenant.name,
        )?;
        let against = hub
            .audit_against(&tenant.name, B_PRIME, T)
            .map_err(|e| e.to_string())?;
        check_report(&against, &fresh_report(table, &groups), &tenant.name)?;
        before.push((
            snap.version(),
            digest_table(table),
            digest_publication(snap.anonymized()),
        ));
    }
    drop(hub);

    // Cold reopen under the same budget, checked tenant by tenant.
    let mut recovery_samples = Vec::new();
    let mut replayed = 0usize;
    // The first reopen is checked, not timed: it faults in what every later
    // reopen reuses. A traced run reports no recovery time.
    let recovery_reps = if args.trace { 0 } else { cfg.recovery_reps };
    for rep in 0..=recovery_reps {
        let t = Instant::now();
        let (reopened, recovery) = SessionHub::<AnyStrategy>::open_with(&root, cfg.options(budget))
            .map_err(|e| format!("reopen: {e}"))?;
        if rep > 0 {
            recovery_samples.push(t.elapsed().as_secs_f64());
        }
        if !recovery.is_clean() || recovery.recovered() != tenants.len() {
            return Err(format!("reopen did not recover every tenant: {recovery:?}"));
        }
        replayed = recovery.tenants.iter().map(|t| t.replayed).sum();
        if rep == 0 {
            for (tenant, expected) in tenants.iter().zip(&before) {
                let snap = reopened.snapshot(&tenant.name).map_err(|e| e.to_string())?;
                let after = (
                    snap.version(),
                    digest_table(snap.table()),
                    digest_publication(snap.anonymized()),
                );
                if after != *expected {
                    return Err(format!(
                        "reopened tenant {} differs from the dropped one",
                        tenant.name
                    ));
                }
            }
        }
    }

    let mut metrics = Vec::new();
    let mut detail = vec![(
        "recovery_samples_s".to_owned(),
        format!("{recovery_samples:?}"),
    )];
    if !args.trace {
        let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
        let scaled = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.scaled_ms)
                .collect()
        };
        let apply = scaled(&|s| s.request == 0);
        metrics.push(Metric::timed(
            "setup_s",
            median(&setup_samples),
            "s",
            setup_samples.len(),
        ));
        latency_metrics(&mut metrics, "op", &scaled(&|_| true))?;
        latency_metrics(&mut metrics, "apply", &apply)?;
        let audit = scaled(&|s| s.request != 0);
        latency_metrics(&mut metrics, "audit", &audit)?;
        let raw = |f: fn(&&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        detail.extend([
            (
                "ops_per_s".to_owned(),
                format!("{}", samples.len() as f64 / loop_s),
            ),
            ("raw.setup_s".to_owned(), format!("{}", median(&setup_raw))),
            ("loop_steal_s".to_owned(), format!("{loop_steal_s}")),
            (
                "probe_median_ms".to_owned(),
                format!("{}", speed.median_ms()),
            ),
            ("probes".to_owned(), format!("{}", speed.len())),
            ("cpu.op_p50_ms".to_owned(), format!("{}", raw(|s| s.cpu_ms))),
            (
                "wall.op_p50_ms".to_owned(),
                format!("{}", raw(|s| s.wall_ms)),
            ),
        ]);
        // Cold-reopen time is reported here, not gated: between seeds it
        // spreads wider than any bound the benchmark may set.
        detail.push((
            "recovery_s".to_owned(),
            format!("{}", median(&recovery_samples)),
        ));
        metrics.push(Metric::timed("peak_rss_mb", peak_rss_mb()?, "MB", 1));
        // Where each percentile falls among the latency modes of the kinds
        // and request types: each population's median and its share of
        // the requests of its type.
        let reads = audit.len() as f64;
        for (k, name) in KINDS.iter().enumerate() {
            let v = scaled(&|s| s.kind == k && s.request == 0);
            detail.push((
                format!("apply_scaled_p50_ms.{name}"),
                json_number(percentile(&v, 0.5)),
            ));
            detail.push((
                format!("apply_share.{name}"),
                format!("{}", v.len() as f64 / apply.len() as f64),
            ));
        }
        for (t, name) in [(1u8, "audit_with"), (2, "audit_against")] {
            let v = scaled(&|s| s.request == t);
            for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
                detail.push((
                    format!("{name}_scaled_q{q}_ms"),
                    json_number(percentile(&v, q)),
                ));
            }
            detail.push((
                format!("{name}_share"),
                format!("{}", v.len() as f64 / reads),
            ));
        }
        detail.push(("budget_bytes".into(), format!("{budget}")));
        detail.push(("loop_evictions".into(), format!("{}", memory.evictions)));
        detail.push((
            "loop_rehydrations".into(),
            format!("{}", memory.rehydrations),
        ));
        detail.push(("clients".into(), format!("{}", cfg.clients)));
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
            detail,
        });
    }

    let hub_ops = traced.expect("traced run");
    let mut tracer = Tracer::new();
    let merged: Vec<&Op> = (0..len)
        .flat_map(|i| scripts.iter().map(move |s| &s[i]))
        .take(cfg.trace_ops)
        .collect();
    let replay = layer_replay(&tenants, &merged, &hub_ops, &mut tracer, work)?;
    tracer.write_jsonl(&args.spans_path(), "op")?;

    let writes: Vec<usize> = (0..merged.len())
        .filter(|&i| matches!(merged[i], Op::Write(..)))
        .collect();
    let nw = writes.len();
    let stage = |name: &str| mean(&tracer.stage_samples(name));
    let refresh_of = |k: usize| {
        let v: Vec<f64> = writes
            .iter()
            .filter(|&&i| tenants[merged[i].tenant()].kind == k)
            .map(|&i| tracer.op_stage_ms(i, "anon.refresh"))
            .collect();
        mean(&v)
    };
    let self_ms: Vec<f64> = (0..merged.len())
        .map(|i| hub_ops[i].ms - tracer.op_sum_ms(i))
        .collect();
    let checkpoints: u64 = hub_ops.iter().map(|o| o.checkpoints).sum();
    let checkpoint_bytes: u64 = hub_ops.iter().map(|o| o.checkpoint_bytes).sum();
    let checkpoint_apply: Vec<f64> = hub_ops
        .iter()
        .filter(|o| o.own_checkpoint)
        .map(|o| o.ms)
        .collect();
    let wal_bytes: u64 = hub_ops.iter().map(|o| o.wal_bytes).sum();
    let mut scan_ms = Vec::new();
    let mut bytes_read = 0u64;
    for pass in 0..3 {
        let t = Instant::now();
        for tenant in &tenants {
            let dir = root.join(&tenant.name);
            scan(&dir.join("wal.log")).map_err(|e| format!("scan {}: {e}", tenant.name))?;
            if pass == 0 {
                bytes_read += file_len(&dir.join("genesis.tbl"))
                    + file_len(&dir.join("checkpoint.tbl"))
                    + file_len(&dir.join("wal.log"));
            }
        }
        scan_ms.push(ms_since(t));
    }
    let n = merged.len();
    metrics.push(Metric::timed(
        "data.read_csv_ms",
        read_csv_ms,
        "ms",
        tenants.len(),
    ));
    metrics.push(Metric::timed(
        "data.apply_delta_ms",
        stage("data.apply_delta"),
        "ms",
        nw,
    ));
    metrics.push(Metric::timed(
        "anon.plant_ms",
        replay.plant_ms,
        "ms",
        tenants.len(),
    ));
    metrics.push(Metric::timed(
        "anon.refresh_ms",
        stage("anon.refresh"),
        "ms",
        nw,
    ));
    metrics.push(Metric::timed(
        "anon.refresh.mondrian_ms",
        refresh_of(0),
        "ms",
        nw,
    ));
    metrics.push(Metric::timed(
        "anon.snapshot_ms",
        stage("anon.snapshot"),
        "ms",
        nw,
    ));
    metrics.push(Metric::count(
        "anon.dirty_groups",
        replay.dirty_groups as f64 / nw as f64,
        "count",
        nw,
    ));
    metrics.push(Metric::count(
        "anon.dirty_rows",
        replay.dirty_rows as f64 / nw as f64,
        "count",
        nw,
    ));
    metrics.push(Metric::timed(
        "knowledge.fold_ms",
        stage("knowledge.fold"),
        "ms",
        replay.estimates,
    ));
    metrics.push(Metric::timed(
        "knowledge.estimate_ms",
        stage("knowledge.estimate"),
        "ms",
        replay.estimates,
    ));
    metrics.push(Metric::count(
        "knowledge.distinct_points",
        mean(&replay.distinct_points),
        "count",
        replay.estimates,
    ));
    metrics.push(Metric::timed(
        "privacy.requirement_check_ms",
        stage("privacy.requirement_check"),
        "ms",
        nw,
    ));
    metrics.push(Metric::timed(
        "privacy.audit_ms",
        stage("privacy.audit"),
        "ms",
        n - nw,
    ));
    metrics.push(Metric::count(
        "privacy.omega_solves",
        replay.solves as f64 / (n - nw) as f64,
        "count",
        n - nw,
    ));
    metrics.push(Metric::count(
        "privacy.replay_ratio",
        1.0 - replay.solves as f64 / replay.groups as f64,
        "ratio",
        n - nw,
    ));
    metrics.push(Metric::timed(
        "core.wal.append_ms",
        stage("core.wal.append"),
        "ms",
        nw,
    ));
    metrics.push(Metric::count(
        "core.wal.bytes_per_delta",
        wal_bytes as f64 / nw as f64,
        "bytes",
        nw,
    ));
    metrics.push(Metric::count(
        "core.wal.fsyncs_per_delta",
        (nw as f64 + FSYNCS_PER_CHECKPOINT * checkpoints as f64) / nw as f64,
        "count",
        nw,
    ));
    metrics.push(Metric::count(
        "core.checkpoint.count",
        checkpoints as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "core.checkpoint.bytes",
        checkpoint_bytes as f64,
        "bytes",
        checkpoints as usize,
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
        tenants.len(),
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
        tenants.len(),
    ));
    metrics.push(Metric::timed("core.hub.self_ms", mean(&self_ms), "ms", n));
    metrics.push(Metric::count(
        "core.hub.evictions",
        memory.evictions as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "core.hub.rehydrations",
        memory.rehydrations as f64,
        "count",
        n,
    ));
    metrics.push(Metric::count(
        "core.hub.intern_hit_ratio",
        ratio(memory.intern_hits, memory.intern_misses),
        "ratio",
        n,
    ));
    metrics.push(Metric::count(
        "core.hub.resident_mb",
        memory.resident_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    ));
    for (k, name) in KINDS.iter().enumerate() {
        detail.push((
            format!("anon.refresh.{name}_ms"),
            format!("{}", refresh_of(k)),
        ));
    }
    let hub_mean = mean(&hub_ops.iter().map(|o| o.ms).collect::<Vec<_>>());
    let sum_mean = mean(&(0..n).map(|i| tracer.op_sum_ms(i)).collect::<Vec<_>>());
    detail.push(("stage_sum_ms".into(), format!("{sum_mean}")));
    detail.push(("hub_op_ms".into(), format!("{hub_mean}")));
    detail.push((
        "tracing_overhead_ms".into(),
        format!("{}", mean(&replay.wall_ms) - hub_mean),
    ));
    detail.push((
        "replay_outside_spans_ms".into(),
        format!("{}", mean(&replay.wall_ms) - sum_mean),
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// One request of the traced single-client hub run.
struct HubOp {
    ms: f64,
    digest: u64,
    /// Checkpoints any tenant wrote during the request (own or demotion).
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// The request's own tenant wrote a checkpoint.
    own_checkpoint: bool,
    wal_bytes: u64,
}

fn hub_replay(
    hub: &SessionHub,
    tenants: &[Tenant],
    ops: &[&Op],
    root: &Path,
) -> Result<Vec<HubOp>, String> {
    let checkpoint_paths: Vec<PathBuf> = tenants
        .iter()
        .map(|t| root.join(&t.name).join("checkpoint.tbl"))
        .collect();
    let mut versions: Vec<Option<(u64, u64)>> =
        checkpoint_paths.iter().map(|p| file_version(p)).collect();
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let digest =
            execute(hub, tenants, op).map_err(|e| format!("traced request {i} failed: {e}"))?;
        let ms = ms_since(t);
        let mut record = HubOp {
            ms,
            digest,
            checkpoints: 0,
            checkpoint_bytes: 0,
            own_checkpoint: false,
            wal_bytes: 0,
        };
        for (t, path) in checkpoint_paths.iter().enumerate() {
            let now = file_version(path);
            if now != versions[t] {
                record.checkpoints += 1;
                record.checkpoint_bytes += now.map_or(0, |v| v.1);
                record.own_checkpoint |= t == op.tenant() && matches!(op, Op::Write(..));
                versions[t] = now;
            }
        }
        if let Op::Write(_, delta) = op {
            // Frame: length (4) + payload + checksum (8).
            record.wal_bytes = encode_record(0, delta).len() as u64 + 12;
        }
        out.push(record);
    }
    Ok(out)
}

/// Per-tenant state of the layer replay.
struct ReplayTenant {
    requirement: Arc<dyn PrivacyRequirement>,
    strategy: AnyStrategy,
    state: AnyState,
    table: Table,
    anonymized: AnonymizedTable,
    stamps: Vec<u64>,
    version: u64,
    wal: WalWriter,
    frozen: SharedAuditSession,
    against: Option<(u64, SharedAuditSession)>,
}

struct Replay {
    plant_ms: f64,
    wall_ms: Vec<f64>,
    distinct_points: Vec<f64>,
    estimates: usize,
    solves: u64,
    groups: u64,
    dirty_groups: u64,
    dirty_rows: u64,
}

/// Replay each tenant's requests single-threaded through the layers'
/// public calls; every result must match the hub's bit for bit.
fn layer_replay(
    tenants: &[Tenant],
    ops: &[&Op],
    hub_ops: &[HubOp],
    tracer: &mut Tracer,
    work: &Path,
) -> Result<Replay, String> {
    let wal_dir = work.join("replay-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("create {wal_dir:?}: {e}"))?;
    let mut out = Replay {
        plant_ms: 0.0,
        wall_ms: Vec::new(),
        distinct_points: Vec::new(),
        estimates: 0,
        solves: 0,
        groups: 0,
        dirty_groups: 0,
        dirty_rows: 0,
    };
    let mut states = Vec::with_capacity(tenants.len());
    for tenant in tenants {
        let (requirement, strategy) = strategy(tenant.kind, &tenant.genesis);
        let t = Instant::now();
        let mut state = strategy
            .plant_with(&tenant.genesis, Parallelism::Auto)
            .map_err(|e| e.to_string())?;
        strategy.warm(&mut state, &tenant.genesis);
        out.plant_ms += ms_since(t);
        let (anonymized, stamps) = state.snapshot(&tenant.genesis);
        let wal = WalWriter::create(
            &wal_dir.join(format!("{}.log", tenant.name)),
            0,
            SyncPolicy::Always,
        )
        .map_err(|e| format!("create replay WAL: {e}"))?;
        states.push(ReplayTenant {
            requirement,
            strategy,
            state,
            table: tenant.genesis.clone(),
            anonymized,
            stamps,
            version: 0,
            wal,
            frozen: SharedAuditSession::new(tenant.auditor.clone()),
            against: None,
        });
    }
    for (i, (op, hub_op)) in ops.iter().zip(hub_ops).enumerate() {
        let s = &mut states[op.tenant()];
        let t = Instant::now();
        let digest = match op {
            Op::Write(_, delta) => {
                let next = tracer
                    .span(i, "data.apply_delta", || s.table.apply_delta(delta))
                    .map_err(|e| e.to_string())?;
                let satisfied = tracer.span(i, "privacy.requirement_check", || {
                    satisfies_whole(&next, s.requirement.as_ref())
                });
                if !satisfied {
                    return Err(format!(
                        "replay op {i}: the table stopped satisfying the requirement"
                    ));
                }
                tracer
                    .span(i, "anon.refresh", || {
                        s.strategy
                            .refresh(&mut s.state, &s.table, &next, delta.deletes())
                    })
                    .map_err(|e| e.to_string())?;
                let (anonymized, stamps) =
                    tracer.span(i, "anon.snapshot", || s.state.snapshot(&next));
                s.version += 1;
                let seq = s.version;
                tracer
                    .span(i, "core.wal.append", || {
                        s.wal.append(&encode_record(seq, delta))
                    })
                    .map_err(|e| format!("replay WAL append: {e}"))?;
                let (g, r) = dirty_from_stamps(&s.stamps, &stamps, &anonymized);
                out.dirty_groups += g;
                out.dirty_rows += r;
                s.table = next;
                s.anonymized = anonymized;
                s.stamps = stamps;
                digest_publication(&s.anonymized)
            }
            Op::With(_) => {
                let groups: Vec<&[usize]> = s
                    .anonymized
                    .groups()
                    .iter()
                    .map(|g| g.rows.as_slice())
                    .collect();
                let before = s.frozen.cached_signatures();
                let report = tracer.span(i, "privacy.audit", || {
                    s.frozen
                        .report_groups(&s.table, &groups, Some(&s.stamps), T)
                });
                out.solves += s.frozen.cached_signatures().saturating_sub(before) as u64;
                out.groups += groups.len() as u64;
                digest_risks(&report)
            }
            Op::Against(_) => {
                if s.against.as_ref().map(|a| a.0) != Some(s.version) {
                    let fold = tracer.span(i, "knowledge.fold", || FoldedTable::new(&s.table));
                    out.distinct_points.push(fold.len() as f64);
                    out.estimates += 1;
                    let bandwidth = Bandwidth::uniform(B_PRIME, s.table.qi_count())
                        .expect("positive bandwidth");
                    let model = tracer.span(i, "knowledge.estimate", || {
                        PriorEstimator::new(Arc::clone(s.table.schema()), bandwidth.clone())
                            .estimate_folded(fold, Parallelism::Auto)
                    });
                    let adversary = Adversary::from_model(
                        &format!("Adv({bandwidth})"),
                        bandwidth.clone(),
                        Arc::new(model),
                    );
                    let measure = SmoothedJs::paper_default(s.table.schema().sensitive_distance());
                    s.against = Some((
                        s.version,
                        SharedAuditSession::new(Auditor::new(
                            Arc::new(adversary),
                            Arc::new(measure),
                        )),
                    ));
                }
                let shared = &s.against.as_ref().expect("estimated above").1;
                let groups: Vec<&[usize]> = s
                    .anonymized
                    .groups()
                    .iter()
                    .map(|g| g.rows.as_slice())
                    .collect();
                let before = shared.cached_signatures();
                let report = tracer.span(i, "privacy.audit", || {
                    shared.report_groups(&s.table, &groups, Some(&s.stamps), T)
                });
                out.solves += shared.cached_signatures().saturating_sub(before) as u64;
                out.groups += groups.len() as u64;
                digest_risks(&report)
            }
        };
        out.wall_ms.push(ms_since(t));
        if digest != hub_op.digest {
            return Err(format!(
                "replay op {i} ({}) differs from the hub's output",
                tenants[op.tenant()].name
            ));
        }
    }
    Ok(out)
}
