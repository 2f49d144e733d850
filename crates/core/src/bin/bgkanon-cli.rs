//! `bgkanon-cli` — command-line front end for the library.
//!
//! ```text
//! bgkanon-cli generate  --rows 30162 --seed 42 --out adult_synth.csv
//! bgkanon-cli publish   --input adult_synth.csv --model bt --k 4 --b 0.3 --t 0.25 --out published.csv
//! bgkanon-cli publish   --input base.csv --model kanon --k 5 \
//!                       --delete-rows 3,17,42 --insert-rows newcomers.csv --out published.csv
//! bgkanon-cli audit     --input adult_synth.csv --model ldiv --k 3 --l 3 --b-prime 0.3 --t 0.25
//! bgkanon-cli mine      --input adult_synth.csv --min-support 50 --pairwise
//! ```
//!
//! `publish` and `audit` run through a retained [`PublishSession`]: the
//! table is partitioned once, optional `--delete-rows` / `--insert-rows`
//! deltas are applied incrementally through the session, and the audit
//! replays its group-risk cache.
//!
//! Input files use the 7-column Adult layout produced by `generate`
//! (`Age,Workclass,Education,Marital-status,Race,Gender,Occupation`), or the
//! raw UCI `adult.data` format with `--format adult-data`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::Arc;

use bgkanon::data::csv::{read_csv, write_csv, CsvOptions};
use bgkanon::data::{adult, Table};
use bgkanon::knowledge::mining::{mine_negative_rules, MiningConfig};
use bgkanon::prelude::*;
use bgkanon::utility;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  bgkanon-cli generate  --rows N --seed S --out FILE
  bgkanon-cli publish   --input FILE --model (kanon|ldiv|probldiv|tclose|bt|skyline)
                        [--k K] [--l L] [--t T] [--b B]
                        [--skyline b:t,b:t,... | \"(b,t),(b,t),...\"]
                        [--algorithm mondrian|bucketize|fulldomain] [--explain]
                        [--delete-rows I,J,...] [--insert-rows FILE]
                        [--format csv|adult-data] [--threads N|serial|auto] [--out FILE]
  bgkanon-cli audit     --input FILE --model ... [model flags] --b-prime B --t T
                        [--delete-rows I,J,...] [--insert-rows FILE] [--threads ...]
  bgkanon-cli serve     [--tenants N] [--rows N] [--deltas N] [--readers N]
                        [--audits N] [--seed S] [--b-prime B] [--t T]
                        [--model ... model flags] [--threads ...]
                        [--algorithm mondrian|bucketize|fulldomain] [--explain]
                        [--data-dir DIR] [--max-resident-mb N]
                        (scripted multi-tenant SessionHub workload, verified
                         against from-scratch publications; with --data-dir the
                         hub is durable: state is recovered on start and the
                         final state is re-verified through a cold reopen;
                         --max-resident-mb bounds the hub's accounted resident
                         bytes — cold tenants are demoted to their durable form
                         and rehydrated transparently on the next touch)
  bgkanon-cli mine      --input FILE [--min-support N] [--pairwise]";

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "generate" => generate(&flags),
        "publish" => publish(&flags),
        "audit" => audit(&flags),
        "serve" => serve(&flags),
        "mine" => mine(&flags),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{a}`"))?;
        if key == "pairwise" || key == "explain" {
            flags.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

fn load_table(flags: &HashMap<String, String>) -> Result<Table, String> {
    let path = flags
        .get("input")
        .ok_or("--input FILE is required")?
        .clone();
    let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let format = flags.get("format").map(String::as_str).unwrap_or("csv");
    let (table, report) = match format {
        "adult-data" => adult::load_adult_csv(reader).map_err(|e| e.to_string())?,
        "csv" => {
            let options = CsvOptions {
                has_header: true,
                ..CsvOptions::default()
            };
            read_csv(reader, adult::adult_schema(), &options).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown --format `{other}` (csv | adult-data)")),
    };
    eprintln!(
        "loaded {} tuples from {path} ({} rows skipped for missing values)",
        report.loaded, report.skipped_missing
    );
    Ok(table)
}

/// Parse the `--threads` flag into the engine [`Parallelism`] knob:
/// `serial` runs every engine on the calling thread, `auto` (or the
/// flag's absence) one worker per core, and a number an explicit count.
fn parse_parallelism(flags: &HashMap<String, String>) -> Result<Parallelism, String> {
    match flags.get("threads").map(String::as_str) {
        None | Some("auto") => Ok(Parallelism::Auto),
        Some("serial") => Ok(Parallelism::Serial),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Parallelism::threads(n)),
            _ => Err(format!(
                "invalid value `{v}` for --threads (serial | auto | a positive count)"
            )),
        },
    }
}

/// Parse `--skyline` points. Two spellings are accepted: the flag's
/// original `b:t,b:t,...` form and the paper's tuple notation
/// `(b,t),(b,t),...`.
fn parse_skyline_points(spec: &str) -> Result<Vec<(f64, f64)>, String> {
    let spec = spec.trim();
    let mut pairs = Vec::new();
    if spec.starts_with('(') {
        for part in spec.split(')') {
            let part = part.trim().trim_start_matches(',').trim();
            if part.is_empty() {
                continue;
            }
            let inner = part
                .strip_prefix('(')
                .ok_or_else(|| format!("bad skyline point `{part})` (expected (b,t))"))?;
            let (bs, ts) = inner
                .split_once(',')
                .ok_or_else(|| format!("bad skyline point `({inner})` (expected (b,t))"))?;
            let bp: f64 = bs
                .trim()
                .parse()
                .map_err(|_| format!("bad b in `({inner})`"))?;
            let tp: f64 = ts
                .trim()
                .parse()
                .map_err(|_| format!("bad t in `({inner})`"))?;
            pairs.push((bp, tp));
        }
    } else {
        for part in spec.split(',') {
            let (bs, ts) = part
                .split_once(':')
                .ok_or_else(|| format!("bad skyline point `{part}` (expected b:t)"))?;
            let bp: f64 = bs.parse().map_err(|_| format!("bad b in `{part}`"))?;
            let tp: f64 = ts.parse().map_err(|_| format!("bad t in `{part}`"))?;
            pairs.push((bp, tp));
        }
    }
    if pairs.is_empty() {
        return Err("empty --skyline point list".to_owned());
    }
    Ok(pairs)
}

/// Apply the optional `--algorithm` flag to a publisher.
fn apply_algorithm(
    publisher: Publisher,
    flags: &HashMap<String, String>,
) -> Result<Publisher, String> {
    match flags.get("algorithm") {
        None => Ok(publisher),
        Some(name) => Algorithm::parse(name)
            .map(|a| publisher.algorithm(a))
            .ok_or_else(|| {
                format!("unknown --algorithm `{name}` (mondrian | bucketize | fulldomain)")
            }),
    }
}

fn build_publisher(flags: &HashMap<String, String>) -> Result<Publisher, String> {
    let model = flags.get("model").ok_or("--model is required")?.as_str();
    let k: usize = parse(flags, "k")?.unwrap_or(3);
    let l: usize = parse(flags, "l")?.unwrap_or(k);
    let t: f64 = parse(flags, "t")?.unwrap_or(0.25);
    let b: f64 = parse(flags, "b")?.unwrap_or(0.3);
    let publisher = Publisher::new()
        .k_anonymity(k)
        .parallelism(parse_parallelism(flags)?);
    let publisher = apply_algorithm(publisher, flags)?;
    Ok(match model {
        "kanon" => publisher,
        "ldiv" => publisher.distinct_l_diversity(l),
        "probldiv" => publisher.probabilistic_l_diversity(l),
        "tclose" => publisher.t_closeness(t),
        "bt" => publisher.bt_privacy(b, t),
        "skyline" => {
            let spec = flags
                .get("skyline")
                .ok_or("--skyline b:t,b:t,... is required for the skyline model")?;
            publisher.skyline(parse_skyline_points(spec)?)
        }
        other => return Err(format!("unknown --model `{other}`")),
    })
}

fn generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let rows: usize = parse(flags, "rows")?.unwrap_or(adult::ADULT_DEFAULT_ROWS);
    let seed: u64 = parse(flags, "seed")?.unwrap_or(42);
    let out = flags.get("out").ok_or("--out FILE is required")?;
    let table = adult::generate(rows, seed);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_csv(&table, BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!("wrote {rows} synthetic Adult tuples to {out}");
    Ok(())
}

/// Parse the optional `--delete-rows I,J,...` and `--insert-rows FILE`
/// flags into a [`Delta`] over the loaded table's schema.
fn build_delta(flags: &HashMap<String, String>, table: &Table) -> Result<Option<Delta>, String> {
    let deletes = flags.get("delete-rows");
    let inserts = flags.get("insert-rows");
    if deletes.is_none() && inserts.is_none() {
        return Ok(None);
    }
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    if let Some(spec) = deletes {
        for part in spec.split(',') {
            let row: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("bad row index `{part}` in --delete-rows"))?;
            builder.delete(row);
        }
    }
    if let Some(path) = inserts {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let options = CsvOptions {
            has_header: true,
            ..CsvOptions::default()
        };
        let (rows, report) = read_csv(BufReader::new(file), Arc::clone(table.schema()), &options)
            .map_err(|e| e.to_string())?;
        for r in 0..rows.len() {
            builder
                .insert_codes(&rows.qi(r), rows.sensitive_value(r))
                .map_err(|e| e.to_string())?;
        }
        eprintln!(
            "loaded {} insert rows from {path} ({} skipped for missing values)",
            report.loaded, report.skipped_missing
        );
    }
    Ok(Some(builder.build()))
}

/// Open a session, apply the optional delta, and report the engine stats.
fn open_session(flags: &HashMap<String, String>) -> Result<(Table, PublishSession), String> {
    let table = load_table(flags)?;
    let publisher = build_publisher(flags)?;
    explain_if_asked(flags, &publisher, &table)?;
    let mut session = publisher.open(&table).map_err(|e| e.to_string())?;
    eprintln!(
        "requirement: {}\ngroups: {} (avg size {:.1}) in {:?}",
        session.requirement_name(),
        session.group_count(),
        session.anonymized().average_group_size(),
        session.snapshot().elapsed
    );
    if let Some(delta) = build_delta(flags, &table)? {
        let outcome = session.apply(&delta).map_err(|e| e.to_string())?;
        eprintln!(
            "delta: -{} +{} rows → {} groups in {:?} (incremental)",
            delta.delete_count(),
            delta.insert_count(),
            outcome.anonymized.group_count(),
            outcome.elapsed
        );
    }
    Ok((table, session))
}

fn publish(flags: &HashMap<String, String>) -> Result<(), String> {
    let (_, session) = open_session(flags)?;
    let anonymized = session.anonymized();
    eprintln!(
        "utility: DM {}  GCP {:.1}",
        utility::discernibility(anonymized),
        utility::global_certainty_penalty(anonymized)
    );
    if let Some(out) = flags.get("out") {
        let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        anonymized
            .write_csv(session.table(), BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("published table written to {out}");
    }
    Ok(())
}

/// Under `--explain`, print the strategy the publisher would run on
/// `table` and its resolved parameters.
fn explain_if_asked(
    flags: &HashMap<String, String>,
    publisher: &Publisher,
    table: &Table,
) -> Result<(), String> {
    if flags.contains_key("explain") {
        let line = publisher.explain(table).map_err(|e| e.to_string())?;
        eprintln!("strategy: {line}");
    }
    Ok(())
}

fn audit(flags: &HashMap<String, String>) -> Result<(), String> {
    let (_, mut session) = open_session(flags)?;
    let b_prime: f64 = parse(flags, "b-prime")?.unwrap_or(0.3);
    let t: f64 = parse(flags, "t")?.unwrap_or(0.25);
    let report = session
        .audit_against(b_prime, t)
        .map_err(|e| e.to_string())?;
    println!("requirement : {}", session.requirement_name());
    println!("adversary   : Adv(b'={b_prime}) with threshold t={t}");
    println!("worst-case  : {:.4}", report.worst_case);
    println!("mean risk   : {:.4}", report.mean);
    println!("vulnerable  : {}/{}", report.vulnerable, session.len());
    Ok(())
}

/// One scripted, deterministic churn delta for tenant table `table`:
/// `half` deletes at arithmetically scattered indices plus `half` donor
/// inserts, so the table size stays stable across steps.
fn scripted_delta(table: &Table, half: usize, mix: u64) -> Result<Delta, String> {
    let n = table.len();
    let half = half.max(1).min(n.saturating_sub(1).max(1));
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for j in 0..half {
        builder.delete(((mix as usize).wrapping_mul(31).wrapping_add(j * 37)) % n);
    }
    let donors = adult::generate(half, mix.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    for r in 0..half {
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .map_err(|e| e.to_string())?;
    }
    Ok(builder.build())
}

/// Drive a scripted multi-tenant workload through a [`SessionHub`]: one
/// writer thread per tenant applies churn deltas while `--readers` threads
/// continuously audit every tenant's published snapshots through the hub's
/// shared caches. Every tenant's final publication is then verified
/// bit-identical to a from-scratch publish of its final table — the command
/// fails if concurrency ever bought throughput with drift.
fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let tenants: usize = parse(flags, "tenants")?.unwrap_or(4).max(1);
    let rows: usize = parse(flags, "rows")?.unwrap_or(2000).max(50);
    let deltas: usize = parse(flags, "deltas")?.unwrap_or(4);
    let readers: usize = parse(flags, "readers")?.unwrap_or(2);
    let audit_rounds: usize = parse(flags, "audits")?.unwrap_or(6);
    let seed: u64 = parse(flags, "seed")?.unwrap_or(42);
    let b_prime: f64 = parse(flags, "b-prime")?.unwrap_or(0.3);
    let t: f64 = parse(flags, "t")?.unwrap_or(0.25);
    let publisher = if flags.contains_key("model") {
        build_publisher(flags)?
    } else {
        apply_algorithm(
            Publisher::new()
                .k_anonymity(parse(flags, "k")?.unwrap_or(4))
                .parallelism(parse_parallelism(flags)?),
            flags,
        )?
    };

    let max_resident_mb: Option<usize> = parse(flags, "max-resident-mb")?;
    let max_resident_bytes = max_resident_mb.map(|mb| mb.max(1) * 1024 * 1024);
    let data_dir = flags.get("data-dir").cloned();
    let hub = match &data_dir {
        Some(dir) => {
            let options = bgkanon::DurabilityOptions {
                max_resident_bytes,
                ..Default::default()
            };
            let (hub, report) = SessionHub::open_with(dir, options).map_err(|e| e.to_string())?;
            for tenant in &report.tenants {
                match &tenant.error {
                    None => eprintln!(
                        "  recovered `{}` at version {} ({} WAL records replayed{})",
                        tenant.tenant,
                        tenant.version,
                        tenant.replayed,
                        if tenant.truncated_tail {
                            ", torn tail discarded"
                        } else {
                            ""
                        }
                    ),
                    Some(reason) => {
                        return Err(format!(
                            "tenant `{}` unrecoverable: {reason}",
                            tenant.tenant
                        ))
                    }
                }
            }
            Arc::new(hub)
        }
        None => match max_resident_bytes {
            Some(budget) => Arc::new(SessionHub::with_budget(budget)),
            None => Arc::new(SessionHub::new()),
        },
    };
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        if hub.contains(name) {
            continue; // recovered from --data-dir; keep its evolved state
        }
        let table = adult::generate(rows, seed.wrapping_add(i as u64));
        hub.register(name, &table, &publisher)
            .map_err(|e| e.to_string())?;
    }
    if let Ok(snap) = hub.snapshot(&names[0]) {
        explain_if_asked(flags, &publisher, snap.table())?;
    }
    eprintln!(
        "hub: {} tenants × {rows} rows under `{}` ({} shards)",
        hub.len(),
        hub.snapshot(&names[0])
            .map_err(|e| e.to_string())?
            .requirement_name(),
        hub.shard_count()
    );

    // Frozen per-tenant kernel adversaries, estimated before serving starts
    // (the Fig. 1 accounting: one prior model reused across releases).
    let auditors: Arc<Vec<Auditor>> = Arc::new(
        names
            .iter()
            .map(|name| {
                let snap = hub.snapshot(name).expect("registered above");
                let adversary = Arc::new(bgkanon::knowledge::Adversary::kernel(
                    snap.table(),
                    bgkanon::knowledge::Bandwidth::uniform(b_prime, snap.table().qi_count())
                        .expect("positive bandwidth"),
                ));
                let measure: Arc<dyn BeliefDistance> = Arc::new(SmoothedJs::paper_default(
                    snap.table().schema().sensitive_distance(),
                ));
                Auditor::new(adversary, measure)
            })
            .collect(),
    );

    let half = (rows / 200).max(1); // ~1% churn per delta
    let started = std::time::Instant::now();
    let total_audits = std::sync::atomic::AtomicUsize::new(0);
    let writers_done = std::sync::atomic::AtomicBool::new(false);
    let failure: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        for (i, name) in names.iter().enumerate() {
            let hub = Arc::clone(&hub);
            let failure = &failure;
            scope.spawn(move || {
                for step in 0..deltas {
                    let result = hub
                        .snapshot(name)
                        .map_err(|e| e.to_string())
                        .and_then(|snap| {
                            scripted_delta(
                                snap.table(),
                                half,
                                seed ^ ((i as u64) << 32) ^ step as u64,
                            )
                        })
                        .and_then(|d| hub.apply(name, &d).map_err(|e| e.to_string()));
                    if let Err(e) = result {
                        failure
                            .lock()
                            .expect("failure lock")
                            .get_or_insert_with(|| format!("writer {name}: {e}"));
                        return;
                    }
                }
            });
        }
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let hub = Arc::clone(&hub);
                let names = &names;
                let auditors = Arc::clone(&auditors);
                let total_audits = &total_audits;
                let writers_done = &writers_done;
                scope.spawn(move || {
                    let mut rounds = 0usize;
                    // Keep auditing until the writers finish, and then run
                    // the scripted minimum so short workloads still measure.
                    while rounds < audit_rounds
                        || !writers_done.load(std::sync::atomic::Ordering::Relaxed)
                    {
                        let i = (r + rounds) % names.len();
                        if let Ok(report) = hub.audit_with(&names[i], &auditors[i], t) {
                            assert!(report.worst_case >= 0.0);
                            total_audits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        rounds += 1;
                    }
                })
            })
            .collect();
        // `scope` joins the writers implicitly; flag completion for readers
        // once every writer handle would have finished — simplest is to
        // join writers first via a dedicated watcher: writers are the
        // unnamed spawns above, so instead poll tenant versions.
        loop {
            let done = names.iter().all(|n| {
                hub.snapshot(n)
                    .map(|s| s.version() as usize >= deltas)
                    .unwrap_or(true)
            });
            if done || failure.lock().expect("failure lock").is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        writers_done.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in reader_handles {
            let _ = h.join();
        }
    });
    if let Some(e) = failure.lock().expect("failure lock").take() {
        return Err(e);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let applied = tenants * deltas;
    let audits = total_audits.load(std::sync::atomic::Ordering::Relaxed);
    eprintln!(
        "served {applied} deltas and {audits} audits in {elapsed:.2}s \
         ({:.1} deltas/s, {:.1} audits/s, {readers} readers)",
        applied as f64 / elapsed,
        audits as f64 / elapsed,
    );
    if max_resident_bytes.is_some() {
        let stats = hub.memory_stats();
        eprintln!(
            "memory: {:.1}MB resident of {:.1}MB budget, {}/{} tenants resident, \
             {} evictions, {} rehydrations, {} interned models",
            stats.resident_bytes as f64 / (1024.0 * 1024.0),
            stats.budget_bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0),
            stats.resident_tenants,
            stats.resident_tenants + stats.evicted_tenants,
            stats.evictions,
            stats.rehydrations,
            stats.interned_models,
        );
    }

    // Verification: every tenant's final publication must be bit-identical
    // to a from-scratch publish of its final table, and its served audit to
    // a fresh audit of that publication by the tenant's frozen auditor.
    for (name, auditor) in names.iter().zip(auditors.iter()) {
        let snap = hub.snapshot(name).map_err(|e| e.to_string())?;
        publisher
            .verify(snap.table(), snap.anonymized())
            .map_err(|e| format!("{name}: version {}: {e}", snap.version()))?;
        let served = hub
            .audit_with(name, auditor, t)
            .map_err(|e| e.to_string())?;
        let fresh = auditor.report(snap.table(), &snap.anonymized().row_groups(), t);
        if let Some(drift) = served.first_difference(&fresh) {
            return Err(format!(
                "{name}: version {}: served audit drifted from a fresh audit: {drift:?}",
                snap.version()
            ));
        }
        eprintln!(
            "  {name}: version {} · {} rows · {} groups · identical to from-scratch ✓",
            snap.version(),
            snap.len(),
            snap.group_count()
        );
    }
    // Durable mode: re-open the data directory cold and prove that the
    // recovered hub publishes exactly what the live hub was serving.
    if let Some(dir) = &data_dir {
        let (reopened, report) = SessionHub::open(dir).map_err(|e| e.to_string())?;
        if !report.is_clean() {
            return Err(format!(
                "reopen left {} tenant(s) unrecoverable",
                report.unrecoverable().len()
            ));
        }
        for name in &names {
            let live = hub.snapshot(name).map_err(|e| e.to_string())?;
            let cold = reopened.snapshot(name).map_err(|e| e.to_string())?;
            if cold.version() != live.version() {
                return Err(format!(
                    "{name}: recovered version {} != served version {}",
                    cold.version(),
                    live.version()
                ));
            }
            if let Some(drift) = cold.anonymized().first_difference(live.anonymized()) {
                return Err(format!(
                    "{name}: version {}: recovered publication drifted: {drift}",
                    live.version()
                ));
            }
        }
        eprintln!(
            "  durability: {} tenant(s) reopened from `{dir}` bit-identical to served state ✓",
            names.len()
        );
    }
    println!("serve: {tenants} tenants verified identical to from-scratch publications and audits");
    Ok(())
}

fn mine(flags: &HashMap<String, String>) -> Result<(), String> {
    let table = load_table(flags)?;
    let config = MiningConfig {
        min_support: parse(flags, "min-support")?.unwrap_or(50),
        pairwise: flags.contains_key("pairwise"),
    };
    let rules = mine_negative_rules(&table, &config);
    println!(
        "{} negative association rules (min support {}):",
        rules.len(),
        config.min_support
    );
    let sensitive = table.schema().sensitive_attribute();
    for rule in &rules {
        println!(
            "  {} ⇒ ¬{}   (support {})",
            rule.pattern.display(&table),
            sensitive.display_value(rule.sensitive_value),
            rule.support
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn parse_flags_handles_values_and_switches() {
        let args: Vec<String> = ["--rows", "10", "--pairwise", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("rows").unwrap(), "10");
        assert_eq!(f.get("pairwise").unwrap(), "true");
        assert_eq!(f.get("seed").unwrap(), "7");
    }

    #[test]
    fn parse_flags_rejects_bad_shapes() {
        assert!(parse_flags(&["rows".to_string()]).is_err());
        assert!(parse_flags(&["--rows".to_string()]).is_err());
    }

    #[test]
    fn parse_typed_values() {
        let f = flags(&[("k", "5"), ("t", "0.2")]);
        assert_eq!(parse::<usize>(&f, "k").unwrap(), Some(5));
        assert_eq!(parse::<f64>(&f, "t").unwrap(), Some(0.2));
        assert_eq!(parse::<usize>(&f, "absent").unwrap(), None);
        assert!(parse::<usize>(&f, "t").is_err());
    }

    #[test]
    fn build_publisher_for_every_model() {
        for model in ["kanon", "ldiv", "probldiv", "tclose", "bt"] {
            let f = flags(&[("model", model), ("k", "3")]);
            assert!(build_publisher(&f).is_ok(), "{model}");
        }
        let sky = flags(&[("model", "skyline"), ("skyline", "0.2:0.3,0.4:0.2")]);
        assert!(build_publisher(&sky).is_ok());
        let bad_sky = flags(&[("model", "skyline"), ("skyline", "0.2-0.3")]);
        assert!(build_publisher(&bad_sky).is_err());
        let unknown = flags(&[("model", "nope")]);
        assert!(build_publisher(&unknown).is_err());
        let missing = flags(&[]);
        assert!(build_publisher(&missing).is_err());
    }

    #[test]
    fn skyline_points_accept_both_spellings() {
        let legacy = parse_skyline_points("0.2:0.3,0.4:0.2").unwrap();
        let tuples = parse_skyline_points("(0.2, 0.3), (0.4, 0.2)").unwrap();
        assert_eq!(legacy, vec![(0.2, 0.3), (0.4, 0.2)]);
        assert_eq!(legacy, tuples);
        assert!(parse_skyline_points("").is_err());
        assert!(parse_skyline_points("(0.2)").is_err());
        assert!(parse_skyline_points("(0.2,x)").is_err());
        assert!(parse_skyline_points("0.2,0.3").is_err());
    }

    #[test]
    fn algorithm_flag_selects_the_strategy() {
        let table = bgkanon::data::adult::generate(100, 5);
        for (name, algorithm) in [
            ("mondrian", Algorithm::Mondrian),
            ("bucketize", Algorithm::Bucketize),
            ("fulldomain", Algorithm::FullDomain),
        ] {
            let f = flags(&[("model", "kanon"), ("k", "3"), ("algorithm", name)]);
            assert_eq!(
                build_publisher(&f).unwrap().explain(&table).unwrap(),
                Publisher::new()
                    .k_anonymity(3)
                    .algorithm(algorithm)
                    .explain(&table)
                    .unwrap()
            );
        }
        // Legacy invocations (no flag) stay Mondrian.
        let f = flags(&[("model", "kanon"), ("k", "3")]);
        assert_eq!(
            build_publisher(&f).unwrap().explain(&table).unwrap(),
            Publisher::new().k_anonymity(3).explain(&table).unwrap()
        );
        let bad = flags(&[("model", "kanon"), ("algorithm", "warp")]);
        assert!(build_publisher(&bad).unwrap_err().contains("--algorithm"));
    }

    #[test]
    fn publish_runs_bucketize_with_explain() {
        let dir = std::env::temp_dir().join("bgkanon_cli_bucketize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv");
        let out = dir.join("published.csv");
        run(&[
            "generate".into(),
            "--rows".into(),
            "150".into(),
            "--seed".into(),
            "8".into(),
            "--out".into(),
            base.to_string_lossy().into_owned(),
        ])
        .unwrap();
        run(&[
            "publish".into(),
            "--input".into(),
            base.to_string_lossy().into_owned(),
            "--model".into(),
            "ldiv".into(),
            "--l".into(),
            "3".into(),
            "--algorithm".into(),
            "bucketize".into(),
            "--explain".into(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&out).unwrap().lines().count() > 1);
        for p in [&base, &out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_runs_a_fulldomain_workload() {
        run(&[
            "serve".into(),
            "--tenants".into(),
            "1".into(),
            "--rows".into(),
            "80".into(),
            "--deltas".into(),
            "1".into(),
            "--readers".into(),
            "1".into(),
            "--audits".into(),
            "1".into(),
            "--threads".into(),
            "2".into(),
            "--algorithm".into(),
            "fulldomain".into(),
            "--explain".into(),
        ])
        .unwrap();
    }

    #[test]
    fn parse_parallelism_flag() {
        assert_eq!(parse_parallelism(&flags(&[])).unwrap(), Parallelism::Auto);
        assert_eq!(
            parse_parallelism(&flags(&[("threads", "auto")])).unwrap(),
            Parallelism::Auto
        );
        assert_eq!(
            parse_parallelism(&flags(&[("threads", "serial")])).unwrap(),
            Parallelism::Serial
        );
        assert_eq!(
            parse_parallelism(&flags(&[("threads", "3")])).unwrap(),
            Parallelism::threads(3)
        );
        assert!(parse_parallelism(&flags(&[("threads", "0")])).is_err());
        assert!(parse_parallelism(&flags(&[("threads", "fast")])).is_err());
    }

    #[test]
    fn serve_runs_a_small_verified_workload() {
        run(&[
            "serve".into(),
            "--tenants".into(),
            "2".into(),
            "--rows".into(),
            "120".into(),
            "--deltas".into(),
            "2".into(),
            "--readers".into(),
            "2".into(),
            "--audits".into(),
            "2".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn serve_with_data_dir_recovers_across_runs() {
        let dir =
            std::env::temp_dir().join(format!("bgkanon_cli_serve_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = |dir: &std::path::Path| -> Vec<String> {
            [
                "serve",
                "--tenants",
                "2",
                "--rows",
                "120",
                "--deltas",
                "2",
                "--readers",
                "1",
                "--audits",
                "1",
                "--threads",
                "2",
                "--data-dir",
            ]
            .iter()
            .map(|s| s.to_string())
            .chain([dir.to_string_lossy().into_owned()])
            .collect()
        };
        // First run registers durably; second run recovers the evolved
        // tenants and keeps applying deltas on top of the recovered state.
        run(&args(&dir)).unwrap();
        run(&args(&dir)).unwrap();
        // Third run under a 1MB resident budget: serving demotes cold
        // tenants to disk and the end-of-run verification still holds.
        let mut budgeted = args(&dir);
        budgeted.extend(["--max-resident-mb".to_owned(), "1".to_owned()]);
        run(&budgeted).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rejects_unknown_command() {
        let args: Vec<String> = vec!["frobnicate".into()];
        assert!(run(&args).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn publish_session_end_to_end_with_delta() {
        let dir = std::env::temp_dir().join("bgkanon_cli_publish_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv");
        let extra = dir.join("extra.csv");
        let out = dir.join("published.csv");
        // Base table and a small insert batch, via the generate command.
        for (path, rows, seed) in [(&base, "120", "3"), (&extra, "6", "9")] {
            run(&[
                "generate".into(),
                "--rows".into(),
                rows.to_string(),
                "--seed".into(),
                seed.to_string(),
                "--out".into(),
                path.to_string_lossy().into_owned(),
            ])
            .unwrap();
        }
        run(&[
            "publish".into(),
            "--input".into(),
            base.to_string_lossy().into_owned(),
            "--model".into(),
            "kanon".into(),
            "--k".into(),
            "4".into(),
            "--delete-rows".into(),
            "0, 7,13".into(),
            "--insert-rows".into(),
            extra.to_string_lossy().into_owned(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "group,Age,Workclass,Education,Marital-status,Race,Gender,Occupation"
        );
        // 120 - 3 + 6 tuples plus the header.
        assert_eq!(lines.len(), 124);
        for p in [&base, &extra, &out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn audit_runs_through_a_session() {
        let dir = std::env::temp_dir().join("bgkanon_cli_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv");
        run(&[
            "generate".into(),
            "--rows".into(),
            "80".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            base.to_string_lossy().into_owned(),
        ])
        .unwrap();
        run(&[
            "audit".into(),
            "--input".into(),
            base.to_string_lossy().into_owned(),
            "--model".into(),
            "kanon".into(),
            "--k".into(),
            "3".into(),
            "--delete-rows".into(),
            "2".into(),
            "--b-prime".into(),
            "0.3".into(),
            "--t".into(),
            "0.2".into(),
        ])
        .unwrap();
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn bad_b_prime_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("bgkanon_cli_bad_b_prime_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv");
        run(&[
            "generate".into(),
            "--rows".into(),
            "60".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            base.to_string_lossy().into_owned(),
        ])
        .unwrap();
        for b_prime in ["0", "-1", "NaN", "inf"] {
            let err = run(&[
                "audit".into(),
                "--input".into(),
                base.to_string_lossy().into_owned(),
                "--model".into(),
                "kanon".into(),
                "--k".into(),
                "3".into(),
                "--b-prime".into(),
                b_prime.into(),
            ])
            .unwrap_err();
            assert!(err.contains("bandwidth"), "{b_prime}: {err}");
        }
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn bad_publish_bandwidth_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("bgkanon_cli_bad_publish_b_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv").to_string_lossy().into_owned();
        let out = dir.join("out.csv").to_string_lossy().into_owned();
        let args = |extra: &[&str]| -> Vec<String> {
            let mut args: Vec<String> = ["publish", "--input", &base, "--out", &out, "--k", "3"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };
        run(&[
            "generate".into(),
            "--rows".into(),
            "60".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            base.clone(),
        ])
        .unwrap();
        for b in ["0", "-0.3", "NaN", "inf"] {
            let err = run(&args(&["--model", "bt", "--b", b, "--t", "0.3"])).unwrap_err();
            assert!(err.contains("bandwidth"), "bt {b}: {err}");
            let skyline = format!("0.3:0.3,{b}:0.4");
            let err = run(&args(&["--model", "skyline", "--skyline", &skyline])).unwrap_err();
            assert!(err.contains("bandwidth"), "skyline {b}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_delta_flags_are_rejected() {
        let dir = std::env::temp_dir().join("bgkanon_cli_bad_delta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.csv");
        run(&[
            "generate".into(),
            "--rows".into(),
            "40".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            base.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let err = run(&[
            "publish".into(),
            "--input".into(),
            base.to_string_lossy().into_owned(),
            "--model".into(),
            "kanon".into(),
            "--delete-rows".into(),
            "x".into(),
        ])
        .unwrap_err();
        assert!(err.contains("bad row index"));
        let err = run(&[
            "publish".into(),
            "--input".into(),
            base.to_string_lossy().into_owned(),
            "--model".into(),
            "kanon".into(),
            "--delete-rows".into(),
            "999".into(),
        ])
        .unwrap_err();
        assert!(err.contains("out of range"));
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn generate_and_reload_roundtrip() {
        let dir = std::env::temp_dir().join("bgkanon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        let out = path.to_string_lossy().to_string();
        run(&[
            "generate".into(),
            "--rows".into(),
            "50".into(),
            "--seed".into(),
            "1".into(),
            "--out".into(),
            out.clone(),
        ])
        .unwrap();
        let f = flags(&[("input", out.as_str())]);
        let table = load_table(&f).unwrap();
        assert_eq!(table.len(), 50);
        std::fs::remove_file(&path).ok();
    }
}
