//! Fixture corpus: one positive and one negative file per rule under
//! `crates/analyze/fixtures/`. Each fixture is analyzed under a synthetic
//! library-crate path (`crates/fixture/src/lib.rs`) — the fixtures never
//! compile into the workspace, they only feed the lexer.

use std::fs;
use std::path::PathBuf;

use bgkanon_analyze::{analyze_file, Corpus};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

const FIXTURE_PATH: &str = "crates/fixture/src/lib.rs";

/// Run a fixture as library code in a workspace that also holds `others`
/// (path, source): suites under `tests/tests/` feed the R5 coverage scan,
/// and every file feeds the R7 caller index.
fn run(name: &str, others: &[(&str, &str)]) -> Vec<(String, String)> {
    let source = fixture(name);
    let mut corpus = Corpus::default();
    corpus.add(FIXTURE_PATH, &source);
    for (path, text) in others {
        corpus.add(path, text);
    }
    analyze_file(FIXTURE_PATH, &source, &corpus)
        .findings
        .into_iter()
        .map(|f| (f.rule.to_owned(), f.key))
        .collect()
}

fn rules_of(findings: &[(String, String)]) -> Vec<&str> {
    findings.iter().map(|(rule, _)| rule.as_str()).collect()
}

#[test]
fn r1_fixtures() {
    let bad = run("r1_bad.rs", &[]);
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R1" && key.contains("order")),
        "descending lock order must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R1" && key.contains("expensive:report_groups")),
        "expensive call under guard must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R1" && key.contains("order:wal")),
        "taking the wal guard under the published guard must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R1" && key.contains("order:shard")),
        "taking the shard guard under the intern-table guard must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R1" && key.contains("expensive:estimate_model")),
        "estimation under the intern-table guard must be flagged: {bad:?}"
    );
    let good = run("r1_good.rs", &[]);
    assert!(
        !rules_of(&good).contains(&"R1"),
        "sanctioned order/scoping must pass: {good:?}"
    );
}

#[test]
fn r2_fixtures() {
    let bad = run("r2_bad.rs", &[]);
    assert_eq!(
        rules_of(&bad).iter().filter(|r| **r == "R2").count(),
        2,
        "one scope + one spawn: {bad:?}"
    );
    let good = run("r2_good.rs", &[]);
    assert!(
        !rules_of(&good).contains(&"R2"),
        "pool submission (and strings/comments) must pass: {good:?}"
    );
}

#[test]
fn r3_fixtures() {
    let bad = run("r3_bad.rs", &[]);
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R3" && key.contains("counts.iter")),
        "hash iteration must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R3" && key.contains("Instant::now")),
        "wall-clock read must be flagged: {bad:?}"
    );
    let good = run("r3_good.rs", &[]);
    assert!(
        !rules_of(&good).contains(&"R3"),
        "BTree iteration and annotated sorts must pass: {good:?}"
    );
}

#[test]
fn r4_fixtures() {
    let bad = run("r4_bad.rs", &[]);
    assert_eq!(
        rules_of(&bad).iter().filter(|r| **r == "R4").count(),
        1,
        "unaccounted memo insert: {bad:?}"
    );
    let good = run("r4_good.rs", &[]);
    assert!(
        !rules_of(&good).contains(&"R4"),
        "bytes_accounted + evict_until must sanction the cache: {good:?}"
    );
}

#[test]
fn r5_fixtures() {
    let bad = run("r5_bad.rs", &[]);
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R5" && key.contains("missing-serial")),
        "missing serial twin must be flagged: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|(rule, key)| rule == "R5" && key.contains("untested")),
        "missing suite coverage must be flagged: {bad:?}"
    );
    let good = run(
        "r5_good.rs",
        &[(
            "tests/tests/suite.rs",
            "assert_eq!(e.solve_risks_with(&t, Parallelism::Serial), e.solve_risks_with(&t, par));",
        )],
    );
    assert!(
        !rules_of(&good).contains(&"R5"),
        "paired + suite-covered entry point must pass: {good:?}"
    );
}

#[test]
fn r6_fixtures() {
    let bad = run("r6_bad.rs", &[]);
    assert_eq!(
        rules_of(&bad).iter().filter(|r| **r == "R6").count(),
        3,
        "unwrap + panic! + expect: {bad:?}"
    );
    let good = run("r6_good.rs", &[]);
    assert!(
        !rules_of(&good).contains(&"R6"),
        "recoverable paths, test panics and annotated invariants must pass: {good:?}"
    );
}

fn r7_names(findings: &[(String, String)]) -> Vec<&str> {
    findings
        .iter()
        .filter(|(rule, _)| rule == "R7")
        .map(|(_, key)| key.split('|').nth(2).unwrap_or(""))
        .collect()
}

#[test]
fn r7_fixtures() {
    let bad = run(
        "r7_bad.rs",
        &[
            (
                "crates/other/src/lib.rs",
                "pub fn go() -> u32 { fixture::entry(1) }\n\
              #[cfg(test)]\nmod tests { fn t() { fixture::only_in_cfg_test(1); } }",
            ),
            ("tests/tests/uses.rs", "fn t() { fixture::only_tested(1); }"),
        ],
    );
    assert_eq!(
        r7_names(&bad),
        ["only_local", "only_tested", "only_in_cfg_test"],
        "callers in the same file, in tests/ or in #[cfg(test)] do not count: {bad:?}"
    );
    let good = run(
        "r7_good.rs",
        &[
            ("examples/demo.rs", "fn main() { fixture::from_example(); }"),
            (
                "perfbench/src/main.rs",
                "fn main() { fixture::from_perfbench(); }",
            ),
            (
                "crates/fixture/src/bin/tool.rs",
                "fn main() { fixture::from_bin(); }",
            ),
            (
                "crates/other/src/lib.rs",
                "fn go(e: &Engine) { e.solve_with(p); }",
            ),
        ],
    );
    assert!(
        r7_names(&good).is_empty(),
        "callers in examples/, perfbench/src and bins, allow notes and R5 twins pass: {good:?}"
    );
    // Without the caller files every unannotated, unpaired `pub fn` is flagged.
    let alone = run("r7_good.rs", &[]);
    assert_eq!(
        r7_names(&alone),
        ["from_example", "from_perfbench", "from_bin", "solve_with"],
        "{alone:?}"
    );
}

#[test]
fn fixtures_do_not_cross_contaminate() {
    // Each `bad` fixture trips exactly its own rule — keeps the corpus
    // honest as rules evolve.
    for (name, rule) in [
        ("r2_bad.rs", "R2"),
        ("r3_bad.rs", "R3"),
        ("r4_bad.rs", "R4"),
        ("r6_bad.rs", "R6"),
        ("r7_bad.rs", "R7"),
    ] {
        let findings = run(name, &[]);
        assert!(
            findings.iter().all(|(r, _)| r == rule),
            "{name} must only trip {rule}: {findings:?}"
        );
    }
}
