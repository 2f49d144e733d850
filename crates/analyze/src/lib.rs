//! `bgkanon-analyze` — the repo-invariant static-analysis gate.
//!
//! Walks every `crates/*/src/**.rs` file in the workspace with a lightweight
//! comment/string-aware Rust lexer and a brace-scope tracker, and enforces
//! seven rules (see [`rules::explain`] or `cargo run -p bgkanon-analyze --
//! --explain R1`):
//!
//! - **R1 lock discipline** — classified `SessionHub`/`SharedAuditSession`
//!   guards acquire in the sanctioned registration → shard → tenant-writer →
//!   wal → published → caches → intern-table order, and no expensive engine call runs
//!   under a held guard.
//! - **R2 pool usage** — `std::thread::{spawn,scope}` only inside
//!   `crates/data/src/exec.rs`; everything else submits to `shared_pool()`.
//! - **R3 determinism** — no hash-ordered iteration or wall-clock reads in
//!   library crates (annotate sanctioned sites `// bgk-allow: R3 …`).
//! - **R4 cache growth** — inserts into `*cache*`/`*memo*` fields require an
//!   accounting/eviction hook on the owning type.
//! - **R5 bit-identity pairing** — every public `*_with(…, Parallelism…)`
//!   entry point keeps a serial twin and appears in the `tests/tests/`
//!   bit-identity suites.
//! - **R6 panic audit** — `.unwrap()`/`.expect(`/`panic!` inventory may only
//!   ratchet down against the committed baseline.
//! - **R7 public surface** — every library `pub fn` has a non-test caller
//!   outside its own file (another crate file, a bin, a bench target,
//!   `examples/` or `perfbench/src`), or a `// bgk-allow: R7 <reason>` note.
//!
//! Findings diff against `crates/analyze/baseline.json` the same way the
//! bench perfgate diffs against its floor: **new findings fail the gate, and
//! fixed findings must be removed from the baseline**.

pub mod json;
pub mod lexer;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use json::Json;
pub use rules::{analyze_file, explain, Corpus, FileAnalysis, Finding, LockSite};

/// Everything the gate learned about one workspace tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings across all files, sorted by key.
    pub findings: Vec<Finding>,
    /// The R1 classified-lock inventory (`--locks`).
    pub lock_sites: Vec<LockSite>,
    /// Files scanned, workspace-relative, sorted.
    pub files: Vec<String>,
}

/// Analyze a workspace rooted at `root`: every `.rs` file under
/// `crates/*/src/`, with `tests/tests/*.rs` read as the R5 suite corpus and
/// `crates/*/benches/`, `examples/` and `perfbench/src/` read as R7 callers.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut library = Vec::new();
    let mut others = Vec::new();
    for crate_dir in sorted_entries(&root.join("crates"))? {
        collect_rs_files(&crate_dir.join("src"), &mut library)?;
        collect_rs_files(&crate_dir.join("benches"), &mut others)?;
    }
    library.sort();
    for dir in ["tests/tests", "examples", "perfbench/src"] {
        collect_rs_files(&root.join(dir), &mut others)?;
    }

    let read = |path: &PathBuf| -> io::Result<(String, String)> {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok((rel, fs::read_to_string(path)?))
    };
    let library = library.iter().map(read).collect::<io::Result<Vec<_>>>()?;
    let mut corpus = Corpus::default();
    for (rel, source) in &library {
        corpus.add(rel, source);
    }
    for path in &others {
        let (rel, source) = read(path)?;
        corpus.add(&rel, &source);
    }

    let mut analysis = Analysis::default();
    for (rel, source) in library {
        let file_analysis = analyze_file(&rel, &source, &corpus);
        analysis.findings.extend(file_analysis.findings);
        analysis.lock_sites.extend(file_analysis.lock_sites);
        analysis.files.push(rel);
    }
    analysis.findings.sort();
    analysis
        .lock_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(analysis)
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

/// Every `.rs` file under `dir`, recursively and in sorted order; a missing
/// directory adds nothing.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The committed debt register: finding keys accepted by a previous
/// `--update-baseline` run, with their last-known lines and messages for
/// human readers.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Key → (line, message) as recorded at baseline time.
    pub entries: BTreeMap<String, (u32, String)>,
}

impl Baseline {
    /// Load a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::default());
        }
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let version = doc.get("version").and_then(Json::as_f64).unwrap_or(0.0);
        if version != 1.0 {
            return Err(format!(
                "{}: unsupported baseline version {version}",
                path.display()
            ));
        }
        let mut entries = BTreeMap::new();
        for item in doc.get("findings").and_then(Json::as_arr).unwrap_or(&[]) {
            let key = item
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: finding without key", path.display()))?;
            let line = item.get("line").and_then(Json::as_f64).unwrap_or(0.0) as u32;
            let message = item
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            entries.insert(key.to_owned(), (line, message));
        }
        Ok(Self { entries })
    }

    /// Serialize findings as a fresh baseline document.
    pub fn render(findings: &[Finding]) -> String {
        let items: Vec<Json> = findings
            .iter()
            .map(|f| {
                let mut m = BTreeMap::new();
                m.insert("rule".into(), Json::Str(f.rule.into()));
                m.insert("key".into(), Json::Str(f.key.clone()));
                m.insert("file".into(), Json::Str(f.file.clone()));
                m.insert("line".into(), Json::Num(f.line as f64));
                m.insert("message".into(), Json::Str(f.message.clone()));
                Json::Obj(m)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("version".into(), Json::Num(1.0));
        doc.insert("findings".into(), Json::Arr(items));
        Json::Obj(doc).pretty()
    }
}

/// The gate verdict: findings not in the baseline (fail), and baseline
/// entries no longer found (also fail — the register must ratchet down).
#[derive(Debug)]
pub struct Diff<'a> {
    /// Findings absent from the baseline.
    pub new: Vec<&'a Finding>,
    /// Baseline keys with no current finding, with recorded (line, message).
    pub stale: Vec<(String, u32, String)>,
}

impl<'a> Diff<'a> {
    /// Compare current findings against the committed baseline.
    pub fn compute(findings: &'a [Finding], baseline: &Baseline) -> Self {
        let current: BTreeSet<&str> = findings.iter().map(|f| f.key.as_str()).collect();
        let new = findings
            .iter()
            .filter(|f| !baseline.entries.contains_key(&f.key))
            .collect();
        let stale = baseline
            .entries
            .iter()
            .filter(|(key, _)| !current.contains(key.as_str()))
            .map(|(key, (line, message))| (key.clone(), *line, message.clone()))
            .collect();
        Self { new, stale }
    }

    /// True when the tree matches the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(key: &str) -> Finding {
        Finding {
            rule: "R6",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            key: key.into(),
            message: "m".into(),
        }
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let findings = vec![finding("R6|a|f|unwrap:0"), finding("R6|a|f|unwrap:1")];
        let rendered = Baseline::render(&findings);
        let dir = std::env::temp_dir().join("bgkanon-analyze-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(&path, &rendered).unwrap();
        let loaded = Baseline::load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 2);

        // Identical tree: clean.
        let diff = Diff::compute(&findings, &loaded);
        assert!(diff.is_clean());

        // A new finding fails…
        let grown = vec![
            finding("R6|a|f|unwrap:0"),
            finding("R6|a|f|unwrap:1"),
            finding("R6|b|g|panic!:0"),
        ];
        let diff = Diff::compute(&grown, &loaded);
        assert_eq!(diff.new.len(), 1);
        assert!(diff.stale.is_empty());

        // …and so does a fixed-but-not-removed baseline entry.
        let shrunk = vec![finding("R6|a|f|unwrap:0")];
        let diff = Diff::compute(&shrunk, &loaded);
        assert!(diff.new.is_empty());
        assert_eq!(diff.stale.len(), 1);
    }

    #[test]
    fn missing_baseline_is_empty() {
        let loaded = Baseline::load(Path::new("/nonexistent/baseline.json")).unwrap();
        assert!(loaded.entries.is_empty());
        let findings = vec![finding("R6|a|f|unwrap:0")];
        assert!(!Diff::compute(&findings, &loaded).is_clean());
    }
}
