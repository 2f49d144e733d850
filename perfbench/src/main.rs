//! The bgkanon benchmark: seeded workloads over the public API of the
//! `bgkanon` crate, each checked bit for bit before it reports a number.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable_delta_100k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it carries every per-layer
//! metric instead, from a separate traced run that replays the same ops
//! through each layer's public calls. The lines before it describe the run:
//! sample counts, the stage-sum check and tracing overhead. Spans of a
//! traced run are written to `.bench_out/`. Scratch files live under
//! `.bench_work/` and are removed when the run ends.
//!
//! `perfbench/workloads.json` describes the workloads and what each
//! per-layer metric is expected to move.

mod delta;
mod fleet;
mod inputs;
mod util;

use std::path::{Path, PathBuf};

use bgkanon::anon::AnonymizedTable;
use bgkanon::privacy::AuditReport;

use crate::util::Metric;

/// End-to-end metrics, reported with `--trace 0` by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_scaled_p10_ms", "ms"),
    ("apply_scaled_p10_ms", "ms"),
    ("audit_scaled_p10_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` by every workload.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("data.read_csv_ms", "ms"),
    ("data.apply_delta_ms", "ms"),
    ("anon.plant_ms", "ms"),
    ("anon.refresh_ms", "ms"),
    ("anon.refresh.mondrian_ms", "ms"),
    ("anon.snapshot_ms", "ms"),
    ("anon.dirty_groups", "count"),
    ("anon.dirty_rows", "count"),
    ("knowledge.fold_ms", "ms"),
    ("knowledge.estimate_ms", "ms"),
    ("knowledge.distinct_points", "count"),
    ("privacy.requirement_check_ms", "ms"),
    ("privacy.audit_ms", "ms"),
    ("privacy.omega_solves", "count"),
    ("privacy.replay_ratio", "ratio"),
    ("core.wal.append_ms", "ms"),
    ("core.wal.bytes_per_delta", "bytes"),
    ("core.wal.fsyncs_per_delta", "count"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.bytes", "bytes"),
    ("core.checkpoint.apply_ms", "ms"),
    ("core.recover.replayed_records", "count"),
    ("core.recover.wal_scan_ms", "ms"),
    ("core.recover.bytes_read", "bytes"),
    ("core.hub.self_ms", "ms"),
    ("core.hub.evictions", "count"),
    ("core.hub.rehydrations", "count"),
    ("core.hub.intern_hit_ratio", "ratio"),
    ("core.hub.resident_mb", "MB"),
];

pub const WORKLOADS: [&str; 2] = ["durable_delta_100k", "fleet_mixed"];

/// The command line every run takes.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {WORKLOADS:?})"
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Further `key = JSON value` pairs for the description lines.
    pub detail: Vec<(String, String)>,
}

/// Publications must agree group for group: rows, ranges, sensitive counts.
pub fn check_publication(
    got: &AnonymizedTable,
    want: &AnonymizedTable,
    what: &str,
) -> Result<(), String> {
    let same = got.group_count() == want.group_count()
        && got.groups().iter().zip(want.groups()).all(|(a, b)| {
            a.rows == b.rows && a.ranges == b.ranges && a.sensitive_counts == b.sensitive_counts
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "{what}: publication is not bit-identical to a from-scratch publish"
        ))
    }
}

/// Audit reports must agree risk for risk, bit for bit.
pub fn check_report(got: &AuditReport, want: &AuditReport, what: &str) -> Result<(), String> {
    let same = got.risks.len() == want.risks.len()
        && got
            .risks
            .iter()
            .zip(&want.risks)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        && got.worst_case.to_bits() == want.worst_case.to_bits()
        && got.vulnerable == want.vulnerable;
    if same {
        Ok(())
    } else {
        Err(format!(
            "{what}: audit risks are not bit-identical to a fresh auditor's"
        ))
    }
}

pub fn run(args: &RunArgs, work: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "durable_delta_100k" => delta::run(&delta::Config::full(), args, work),
        _ => fleet::run(&fleet::Config::full(), args, work),
    }
}

/// Check a run's metrics against the declared list, in order.
fn check_metrics(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    if got != want {
        return Err(format!(
            "the run reported {got:?}, the benchmark declares {want:?}"
        ));
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    Ok(())
}

fn render(args: &RunArgs, outcome: &Outcome, pinned: Option<usize>) -> (String, String) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pinned_cpu\": {}, \"available_parallelism\": {threads}, \"metrics\": {{",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        pinned.map_or_else(|| "null".to_owned(), |c| c.to_string())
    );
    let mut result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        detail.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"exact\": {}}}",
            m.name, m.value, m.unit, m.samples, m.exact
        ));
        result.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    detail.push('}');
    for (key, value) in &outcome.detail {
        detail.push_str(&format!(", \"{key}\": {value}"));
    }
    detail.push('}');
    result.push_str("}}");
    (detail, result)
}

/// Confine the process to one CPU before any thread starts. The engine's
/// `Parallelism::Auto` then runs one worker, and a run measures one core of
/// a shared host rather than how the scheduler spreads threads over all of
/// them. The highest-numbered allowed CPU is taken, the one least likely to
/// service the host's interrupts.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("the process may run on no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn main() {
    let pinned = pin_to_one_cpu();
    if let Err(e) = &pinned {
        eprintln!("warning: running on every allowed CPU: {e}");
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {work:?}: {e}"))
        .and_then(|()| {
            std::panic::catch_unwind(|| run(&args, &work))
                .unwrap_or_else(|_| Err("the run panicked".into()))
        });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome.and_then(|o| check_metrics(&o, args.trace).map(|()| o)) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!(
                    "# {:<32} {:>14.4} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            let (detail, result) = render(&args, &outcome, pinned.ok());
            println!("{detail}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("error: {e}; no result recorded");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(workload: &str, seed: u64, tag: &str) -> Outcome {
        let args = RunArgs {
            workload: workload.to_owned(),
            seed,
            seconds: 1,
            trace: true,
        };
        let work = PathBuf::from(".bench_work")
            .join(format!("test-{workload}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        let outcome = match workload {
            "durable_delta_100k" => {
                let cfg = delta::Config {
                    rows: 3000,
                    checkpoint_every: 4,
                    recovery_tail: 2,
                    trace_ops: 10,
                    ..delta::Config::full()
                };
                delta::run(&cfg, &args, &work)
            }
            _ => {
                let mut cfg = fleet::Config::full();
                for kind in cfg.kinds.iter_mut() {
                    kind.tenants = 2;
                    kind.rows = 400;
                }
                cfg.trace_ops = 60;
                cfg.checkpoint_every = 4;
                fleet::run(&cfg, &args, &work)
            }
        };
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(".bench_work");
        let _ = std::fs::remove_file(args.spans_path());
        let _ = std::fs::remove_dir(".bench_out");
        outcome.unwrap()
    }

    fn counts(outcome: &Outcome) -> Vec<(String, u64)> {
        outcome
            .metrics
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    }

    /// Two traced runs with one seed give identical deterministic counts.
    #[test]
    fn counts_repeat_for_a_seed() {
        for workload in WORKLOADS {
            let a = traced(workload, 11, "a");
            let b = traced(workload, 11, "b");
            check_metrics(&a, true).unwrap();
            assert!(!counts(&a).is_empty());
            assert_eq!(counts(&a), counts(&b), "{workload}");
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(util::percentile(&v, 0.9), Some(90.0));
        assert_eq!(util::percentile(&v[..99], 0.9), None);
        assert_eq!(util::percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(util::percentile(&v[..19], 0.5), None);
    }
}
