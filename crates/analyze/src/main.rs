//! `analyze` — the repo-invariant gate CLI.
//!
//! ```text
//! cargo run -p bgkanon-analyze                    # gate against baseline
//! cargo run -p bgkanon-analyze -- --json          # machine-readable report
//! cargo run -p bgkanon-analyze -- --locks         # R1 lock-site inventory
//! cargo run -p bgkanon-analyze -- --explain R3    # rule rationale
//! cargo run -p bgkanon-analyze -- --update-baseline
//! ```
//!
//! Exit codes: 0 = tree matches the baseline, 1 = gate failure (new or
//! stale findings), 2 = usage / IO error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bgkanon_analyze::json::Json;
use bgkanon_analyze::{analyze_workspace, explain, Baseline, Diff};

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    json: bool,
    locks: bool,
    update: bool,
    explain: Option<String>,
}

fn usage() -> &'static str {
    "usage: analyze [--root DIR] [--baseline PATH] [--json] [--locks] \
     [--update-baseline] [--explain RULE]\n\
     \n\
     Walks crates/*/src/**.rs and enforces the seven repo invariants \
     (R1 lock discipline, R2 pool usage, R3 determinism, R4 cache growth, \
     R5 bit-identity pairing, R6 panic audit, R7 public surface), diffing findings against \
     the committed baseline: new findings fail, fixed findings must be \
     removed from the baseline."
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        json: false,
        locks: false,
        update: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a path")?));
            }
            "--json" => opts.json = true,
            "--locks" => opts.locks = true,
            "--update-baseline" => opts.update = true,
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule (R1..R7)")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // When run via `cargo run -p bgkanon-analyze` the cwd is the workspace
    // root; fall back to CARGO_MANIFEST_DIR/../.. so the bin also works
    // from inside a crate directory.
    if !opts.root.join("crates").is_dir() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let candidate = PathBuf::from(manifest).join("..").join("..");
            if candidate.join("crates").is_dir() {
                opts.root = candidate;
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("analyze: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(rule) = &opts.explain {
        let rule = rule.to_uppercase();
        return match explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("analyze: no such rule `{rule}` (R1..R7)");
                ExitCode::from(2)
            }
        };
    }

    let analysis = match analyze_workspace(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: failed to walk {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    if opts.locks {
        println!(
            "R1 classified lock sites ({} across {} files scanned):",
            analysis.lock_sites.len(),
            analysis.files.len()
        );
        for site in &analysis.lock_sites {
            println!(
                "  {}:{}  fn {:<28} {:<14} rank {}  via `{}` ({})",
                site.file,
                site.line,
                site.function,
                site.class,
                site.rank,
                site.receiver,
                if site.bound {
                    "let-bound guard"
                } else {
                    "statement temporary"
                },
            );
        }
        return ExitCode::SUCCESS;
    }

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("crates/analyze/baseline.json"));

    if opts.update {
        let doc = Baseline::render(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, doc) {
            eprintln!("analyze: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "analyze: baseline updated — {} findings recorded in {}",
            analysis.findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let diff = Diff::compute(&analysis.findings, &baseline);

    if opts.json {
        let findings: Vec<Json> = analysis
            .findings
            .iter()
            .map(|f| {
                let mut m = BTreeMap::new();
                m.insert("rule".into(), Json::Str(f.rule.into()));
                m.insert("key".into(), Json::Str(f.key.clone()));
                m.insert("file".into(), Json::Str(f.file.clone()));
                m.insert("line".into(), Json::Num(f.line as f64));
                m.insert("message".into(), Json::Str(f.message.clone()));
                m.insert(
                    "baselined".into(),
                    Json::Bool(baseline.entries.contains_key(&f.key)),
                );
                Json::Obj(m)
            })
            .collect();
        let stale: Vec<Json> = diff
            .stale
            .iter()
            .map(|(key, line, message)| {
                let mut m = BTreeMap::new();
                m.insert("key".into(), Json::Str(key.clone()));
                m.insert("line".into(), Json::Num(*line as f64));
                m.insert("message".into(), Json::Str(message.clone()));
                Json::Obj(m)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert(
            "files_scanned".into(),
            Json::Num(analysis.files.len() as f64),
        );
        doc.insert("findings".into(), Json::Arr(findings));
        doc.insert("stale_baseline".into(), Json::Arr(stale));
        doc.insert("clean".into(), Json::Bool(diff.is_clean()));
        print!("{}", Json::Obj(doc).pretty());
        return if diff.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &analysis.findings {
        *per_rule.entry(f.rule).or_default() += 1;
    }
    let summary: Vec<String> = per_rule
        .iter()
        .map(|(rule, n)| format!("{rule}: {n}"))
        .collect();
    println!(
        "analyze: scanned {} files — {} findings ({}), {} baselined",
        analysis.files.len(),
        analysis.findings.len(),
        if summary.is_empty() {
            "none".to_owned()
        } else {
            summary.join(", ")
        },
        baseline.entries.len(),
    );

    if diff.is_clean() {
        println!("analyze: tree matches the committed baseline — gate passes");
        return ExitCode::SUCCESS;
    }
    if !diff.new.is_empty() {
        println!("\nNEW findings (not in baseline — fix or re-baseline deliberately):");
        for f in &diff.new {
            println!("  [{}] {}:{} {}", f.rule, f.file, f.line, f.message);
        }
    }
    if !diff.stale.is_empty() {
        println!("\nSTALE baseline entries (fixed — remove from baseline):");
        for (key, line, message) in &diff.stale {
            println!("  {key} (was line {line}: {message})");
        }
    }
    println!(
        "\nanalyze: gate FAILS — {} new, {} stale; run with --update-baseline \
         after review, or annotate sanctioned sites with `// bgk-allow: Rn reason`",
        diff.new.len(),
        diff.stale.len()
    );
    ExitCode::FAILURE
}
