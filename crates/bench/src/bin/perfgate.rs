//! `perfgate` — the CI performance-regression gate.
//!
//! ```text
//! cargo run --release -p bgkanon-bench --bin baseline -- --smoke --out-dir /tmp/bench
//! cargo run --release -p bgkanon-bench --bin perfgate -- \
//!     --thresholds crates/bench/thresholds.json /tmp/bench/BENCH_*.json
//! ```
//!
//! Every document the `baseline` harness writes has one schema, so a rule
//! names its value as `rows[i].<key>` of the document whose `bench` field
//! matches the rule's.
//!
//! Exits non-zero when any `identical_output` flag in any supplied
//! benchmark document is false, when a gated `time_ms` metric exceeds 2×
//! its committed expectation, when a gated `ratio` metric drops below half
//! of it, when a gated `ceiling` metric exceeds its expectation at all,
//! when a gated `count` metric differs from its expectation at all, or
//! when a rule's benchmark document was not supplied at all (so
//! deleting a bench step cannot silently disable its gate). See
//! [`bgkanon_bench::gate`] for the rule format.

use std::process::ExitCode;

use bgkanon_bench::gate::{parse, parse_rules, run_gate, Json};

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfgate: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut thresholds_path: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--thresholds" {
            thresholds_path = Some(it.next().ok_or("--thresholds needs a file path")?.clone());
        } else {
            inputs.push(arg.clone());
        }
    }
    let thresholds_path = thresholds_path
        .ok_or("usage: perfgate --thresholds thresholds.json BENCH_a.json [BENCH_b.json ...]")?;
    if inputs.is_empty() {
        return Err("no benchmark JSON files supplied".into());
    }

    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rules = parse_rules(&load(&thresholds_path)?)?;
    let docs: Vec<(String, Json)> = inputs
        .iter()
        .map(|path| Ok((path.clone(), load(path)?)))
        .collect::<Result<_, String>>()?;

    let checks = run_gate(&rules, &docs);
    let mut failures = 0usize;
    for check in &checks {
        println!("{check}");
        if !check.passed {
            failures += 1;
        }
    }
    println!(
        "perfgate: {} check(s), {} failure(s)",
        checks.len(),
        failures
    );
    if failures > 0 {
        return Err(format!(
            "{failures} gate check(s) failed — either a benchmark output drifted \
             (identical_output must never be false) or a smoke metric regressed past \
             its 2× band; recalibrate crates/bench/thresholds.json only with a \
             justified perf change"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &std::path::Path, name: &str, content: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn end_to_end_pass_and_fail() {
        let dir = std::env::temp_dir().join("bgkanon_perfgate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let thresholds = write(
            &dir,
            "thresholds.json",
            r#"{"rules": [{"bench": "demo", "metric": "total_ms",
                           "kind": "time_ms", "expected": 10.0}]}"#,
        );
        let good = write(
            &dir,
            "good.json",
            r#"{"bench": "demo", "total_ms": 12.0, "identical_output": true}"#,
        );
        let slow = write(
            &dir,
            "slow.json",
            r#"{"bench": "demo", "total_ms": 25.0, "identical_output": true}"#,
        );
        let drift = write(
            &dir,
            "drift.json",
            r#"{"bench": "demo", "total_ms": 1.0, "identical_output": false}"#,
        );
        let t = |files: &[&String]| {
            let mut args = vec!["--thresholds".to_owned(), thresholds.clone()];
            args.extend(files.iter().map(|f| (*f).clone()));
            run(&args)
        };
        assert!(t(&[&good]).is_ok());
        assert!(t(&[&slow]).unwrap_err().contains("gate check"));
        assert!(t(&[&drift]).is_err());
        assert!(run(&["--thresholds".to_owned(), thresholds.clone()]).is_err());
        assert!(run(std::slice::from_ref(&good)).is_err());
        for f in ["thresholds.json", "good.json", "slow.json", "drift.json"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }
}
