//! The CI performance-regression gate: machine-readable checks over the
//! `BENCH_*.json` files the smoke benchmarks emit.
//!
//! These invariants are enforced on every gated run:
//!
//! 1. **No drift, ever** — every `identical_output` flag anywhere in any
//!    benchmark document must be `true`. A speedup bought with divergent
//!    output is a correctness bug, not a regression, and fails the gate
//!    outright.
//! 2. **No silent 2× regression** — each rule in the committed thresholds
//!    file (`crates/bench/thresholds.json`) names a benchmark, a metric
//!    path and the expected value measured when the rule was committed. A
//!    `time_ms` metric fails when it exceeds **2×** the expectation; a
//!    `ratio` (throughput/speedup) metric fails when it drops below
//!    **half** of it. The 2× band absorbs runner-to-runner noise while
//!    still catching the step changes that matter.
//! 3. **Hard ceilings** — a `ceiling` metric fails as soon as it exceeds
//!    its expectation, with no band: for contracts that are exact by
//!    construction (a deterministic byte count against a configured
//!    budget), where any excess is a bug rather than noise.
//! 4. **Exact counts** — a `count` metric fails unless it equals its
//!    expectation: for deterministic work counters (records replayed by a
//!    seeded recovery script), where any difference in either direction
//!    means the system did different work.
//!
//! The workspace vendors no JSON dependency, so this module carries one
//! minimal writer ([`Json::render`]) and one recursive-descent reader
//! ([`parse`]) for the subset the benchmarks emit: objects, arrays,
//! strings, finite numbers, booleans and null. The benchmark harness
//! (`baseline.rs`) builds a [`Json`] value and renders it, so the gate
//! reads back exactly the value the harness built.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element of an array by index.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Resolve a dotted metric path with optional `[i]` indexing, e.g.
    /// `rows[0].parallel_total_ms` or `config.sizes[1]`.
    pub fn lookup(&self, path: &str) -> Option<&Json> {
        let mut current = self;
        for part in path.split('.') {
            let (key, indexes) = match part.find('[') {
                Some(b) => (&part[..b], &part[b..]),
                None => (part, ""),
            };
            if !key.is_empty() {
                current = current.get(key)?;
            }
            for idx in indexes.split('[').filter(|s| !s.is_empty()) {
                let idx = idx.strip_suffix(']')?;
                current = current.at(idx.parse().ok()?)?;
            }
        }
        Some(current)
    }

    /// Collect every value stored under `key` anywhere in the document
    /// (depth-first), with its dotted path — how the gate finds all
    /// `identical_output` flags.
    pub fn find_all<'a>(&'a self, key: &str) -> Vec<(String, &'a Json)> {
        let mut found = Vec::new();
        self.find_all_into(key, "", &mut found);
        found
    }

    /// Render as JSON text that [`parse`] reads back to an equal value.
    /// A container holding an object puts each child on its own indented
    /// line; every other container renders on one line. Numbers use the
    /// shortest text that parses back to the same `f64`; a non-finite
    /// number, which JSON cannot express, renders as `null`. Strings
    /// escape `"`, `\\`, newline and tab, the escapes [`parse`] reads;
    /// every other character is written as it is.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return render_str(s, out),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', members.collect())
            }
        };
        // A container holding an object breaks before each child and
        // before its close; the others stay on one line.
        let broken = children.iter().any(|(_, v)| matches!(v, Json::Obj(_)));
        let (sep, newline, step) = if broken {
            (",", "\n", "  ")
        } else {
            (", ", "", "")
        };
        let indent = |depth: usize| format!("{newline}{}", step.repeat(depth));
        out.push(open);
        for (i, (key, value)) in children.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(&indent(depth + 1));
            if let Some(key) = key {
                render_str(key, out);
                out.push_str(": ");
            }
            value.render_into(out, depth + 1);
        }
        out.push_str(&indent(depth));
        out.push(close);
    }

    fn find_all_into<'a>(&'a self, key: &str, prefix: &str, out: &mut Vec<(String, &'a Json)>) {
        match self {
            Json::Obj(members) => {
                for (k, v) in members {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    if k == key {
                        out.push((path.clone(), v));
                    }
                    v.find_all_into(key, &path, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.find_all_into(key, &format!("{prefix}[{i}]"), out);
                }
            }
            _ => {}
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    let escaped = s
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t");
    out.push_str(&format!("\"{escaped}\""));
}

/// `From` conversions into the matching variant, for building documents.
macro_rules! json_from {
    ($($ty:ty => $variant:ident $(as $cast:ty)?),*) => {$(
        impl From<$ty> for Json {
            fn from(x: $ty) -> Self {
                Json::$variant((x $(as $cast)?).into())
            }
        }
    )*};
}

json_from!(
    f64 => Num,
    usize => Num as f64,
    u64 => Num as f64,
    bool => Bool,
    &str => Str,
    String => Str
);

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                expect(bytes, pos, b':')?;
                members.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            other => {
                                return Err(format!("unsupported escape {other:?} at byte {pos}"))
                            }
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Advance over one UTF-8 scalar.
                        let start = *pos;
                        *pos += 1;
                        while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?,
                        );
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

/// The direction of one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Wall-clock in milliseconds: fails when it grows past 2× expected.
    TimeMs,
    /// Throughput or speedup ratio: fails when it drops below expected/2.
    Ratio,
    /// A hard upper bound: fails as soon as it exceeds expected, no band.
    Ceiling,
    /// A deterministic work counter: fails unless it equals expected.
    Count,
}

/// One committed threshold rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The `bench` field of the document the rule applies to.
    pub bench: String,
    /// Dotted metric path inside that document.
    pub metric: String,
    /// The metric's direction.
    pub kind: MetricKind,
    /// The committed expectation (the value observed when the rule was
    /// last calibrated).
    pub expected: f64,
}

impl Rule {
    /// The value at which this rule starts failing.
    pub fn limit(&self) -> f64 {
        match self.kind {
            MetricKind::TimeMs => self.expected * 2.0,
            MetricKind::Ratio => self.expected / 2.0,
            MetricKind::Ceiling | MetricKind::Count => self.expected,
        }
    }

    /// Does `value` violate the rule?
    pub fn violated_by(&self, value: f64) -> bool {
        match self.kind {
            MetricKind::TimeMs | MetricKind::Ceiling => value > self.limit(),
            MetricKind::Ratio => value < self.limit(),
            MetricKind::Count => value != self.limit(),
        }
    }
}

/// Parse the committed thresholds document into rules.
pub fn parse_rules(thresholds: &Json) -> Result<Vec<Rule>, String> {
    let Some(Json::Arr(entries)) = thresholds.get("rules") else {
        return Err("thresholds file must have a top-level `rules` array".into());
    };
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let field = |k: &str| {
                entry
                    .get(k)
                    .ok_or_else(|| format!("rule {i}: missing `{k}`"))
            };
            let kind = match field("kind")?.as_str() {
                Some("time_ms") => MetricKind::TimeMs,
                Some("ratio") => MetricKind::Ratio,
                Some("ceiling") => MetricKind::Ceiling,
                Some("count") => MetricKind::Count,
                other => return Err(format!("rule {i}: bad kind {other:?}")),
            };
            Ok(Rule {
                bench: field("bench")?
                    .as_str()
                    .ok_or_else(|| format!("rule {i}: `bench` must be a string"))?
                    .to_owned(),
                metric: field("metric")?
                    .as_str()
                    .ok_or_else(|| format!("rule {i}: `metric` must be a string"))?
                    .to_owned(),
                kind,
                expected: field("expected")?
                    .as_f64()
                    .ok_or_else(|| format!("rule {i}: `expected` must be a number"))?,
            })
        })
        .collect()
}

/// The verdict of one gate check, for reporting.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked (file, metric, rule).
    pub label: String,
    /// Human-readable detail (observed vs limit).
    pub detail: String,
    /// Did it pass?
    pub passed: bool,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} — {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.label,
            self.detail
        )
    }
}

/// Run the gate over parsed benchmark documents (`(source label, doc)`).
/// Returns every individual check; the gate passes iff all of them do.
/// Every rule must find its benchmark among the documents — a missing
/// benchmark file is itself a failure (otherwise dropping a bench step
/// would silently disable its gate).
pub fn run_gate(rules: &[Rule], docs: &[(String, Json)]) -> Vec<Check> {
    let mut checks = Vec::new();
    // 1. No drift anywhere.
    for (source, doc) in docs {
        let flags = doc.find_all("identical_output");
        if flags.is_empty() {
            checks.push(Check {
                label: format!("{source}: identical_output"),
                detail: "document carries no identical_output flag".into(),
                passed: false,
            });
            continue;
        }
        for (path, value) in flags {
            let ok = value.as_bool() == Some(true);
            checks.push(Check {
                label: format!("{source}: {path}"),
                detail: if ok {
                    "bit-identical".into()
                } else {
                    format!("expected true, found {value:?}")
                },
                passed: ok,
            });
        }
    }
    // 2. No metric past its regression band.
    for rule in rules {
        let matching: Vec<&(String, Json)> = docs
            .iter()
            .filter(|(_, doc)| doc.get("bench").and_then(Json::as_str) == Some(rule.bench.as_str()))
            .collect();
        if matching.is_empty() {
            checks.push(Check {
                label: format!("{}: {}", rule.bench, rule.metric),
                detail: format!("no document with bench=\"{}\" was supplied", rule.bench),
                passed: false,
            });
            continue;
        }
        for (source, doc) in matching {
            let check = match doc.lookup(&rule.metric).and_then(Json::as_f64) {
                None => Check {
                    label: format!("{source}: {}", rule.metric),
                    detail: "metric missing from document".into(),
                    passed: false,
                },
                Some(value) => {
                    let passed = !rule.violated_by(value);
                    let relation = match rule.kind {
                        MetricKind::TimeMs | MetricKind::Ceiling => "≤",
                        MetricKind::Ratio => "≥",
                        MetricKind::Count => "=",
                    };
                    Check {
                        label: format!("{source}: {}", rule.metric),
                        detail: format!(
                            "{value:.3} (must stay {relation} {:.3}; committed expectation \
                             {:.3})",
                            rule.limit(),
                            rule.expected
                        ),
                        passed,
                    }
                }
            };
            checks.push(check);
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "bench": "baseline",
        "threads": 1,
        "sizes": [
            {"rows": 1000, "parallel_total_ms": 4.25, "identical_output": true},
            {"rows": 2000, "parallel_total_ms": 9.5, "identical_output": true}
        ],
        "label": "smoke \"run\""
    }"#;

    #[test]
    fn parse_roundtrip_and_lookup() {
        let doc = parse(DOC).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("baseline"));
        assert_eq!(doc.get("threads").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.lookup("sizes[1].parallel_total_ms").unwrap().as_f64(),
            Some(9.5)
        );
        assert_eq!(doc.lookup("sizes[0].rows").unwrap().as_f64(), Some(1000.0));
        assert_eq!(doc.get("label").unwrap().as_str(), Some("smoke \"run\""));
        assert!(doc.lookup("sizes[9].rows").is_none());
        assert!(doc.lookup("missing.path").is_none());
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert_eq!(
            parse("[-1.5e2, null]").unwrap().at(0).unwrap().as_f64(),
            Some(-150.0)
        );
    }

    #[test]
    fn render_round_trips_through_parse() {
        let row = |label: &str, x: f64| {
            Json::Obj(vec![
                ("label".into(), label.into()),
                ("x".into(), x.into()),
                ("identical_output".into(), true.into()),
            ])
        };
        let doc = Json::Obj(vec![
            ("bench".into(), "baseline".into()),
            ("none".into(), Json::Null),
            ("smoke".into(), false.into()),
            ("seed".into(), 42u64.into()),
            ("rows".into(), 1_000_000usize.into()),
            ("tiny".into(), 1.5e-7.into()),
            ("big".into(), 1.25e21.into()),
            ("negative".into(), (-0.1).into()),
            ("third".into(), (1.0 / 3.0).into()),
            ("quoted".into(), "a \"quoted\" \\ path\n\twith tab".into()),
            ("unicode".into(), "P̂pri ∧ ½ — 🦀".into()),
            ("empty".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Arr(vec![1.0.into(), 2.5.into()]),
                    Json::Arr(vec![]),
                ]),
            ),
            (
                "config".into(),
                Json::Obj(vec![("sizes".into(), Json::Arr(vec![1e3.into()]))]),
            ),
            (
                "rows_list".into(),
                Json::Arr(vec![row("1000 rows", 0.125), row("ä", 3.0)]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc, "{text}");
        // Integer-valued numbers print without a fraction; a row of
        // scalars stays on one line inside the broken rows array.
        assert!(text.contains("\"rows\": 1000000,"), "{text}");
        assert!(text.contains(
            "\n    {\"label\": \"1000 rows\", \"x\": 0.125, \"identical_output\": true},"
        ));
        // A non-finite number has no JSON spelling and renders as null.
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn find_all_walks_nested_structures() {
        let doc = parse(DOC).unwrap();
        let flags = doc.find_all("identical_output");
        assert_eq!(flags.len(), 2);
        assert_eq!(flags[0].0, "sizes[0].identical_output");
        assert!(flags.iter().all(|(_, v)| v.as_bool() == Some(true)));
    }

    fn rules() -> Vec<Rule> {
        parse_rules(
            &parse(
                r#"{"rules": [
                    {"bench": "baseline", "metric": "sizes[0].parallel_total_ms",
                     "kind": "time_ms", "expected": 5.0},
                    {"bench": "concurrent", "metric": "audit_speedup",
                     "kind": "ratio", "expected": 4.0}
                ]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn rule_bands_are_two_x() {
        let rules = rules();
        assert_eq!(rules[0].limit(), 10.0);
        assert!(!rules[0].violated_by(9.9));
        assert!(rules[0].violated_by(10.1));
        assert_eq!(rules[1].limit(), 2.0);
        assert!(!rules[1].violated_by(2.1));
        assert!(rules[1].violated_by(1.9));
    }

    #[test]
    fn ceiling_rules_have_no_band() {
        let rules = parse_rules(
            &parse(
                r#"{"rules": [{"bench": "fleet", "metric": "lanes[0].peak_over_budget",
                     "kind": "ceiling", "expected": 1.0}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rules[0].kind, MetricKind::Ceiling);
        assert_eq!(rules[0].limit(), 1.0);
        assert!(!rules[0].violated_by(0.5));
        assert!(!rules[0].violated_by(1.0));
        assert!(rules[0].violated_by(1.0001));
        // Through the gate: at the ceiling passes, above it fails.
        let doc = |v: f64| {
            parse(&format!(
                r#"{{"bench": "fleet", "lanes": [{{"peak_over_budget": {v}}}],
                    "identical_output": true}}"#
            ))
            .unwrap()
        };
        let at = run_gate(&rules, &[("f.json".to_owned(), doc(1.0))]);
        assert!(at.iter().all(|c| c.passed), "{at:#?}");
        let above = run_gate(&rules, &[("f.json".to_owned(), doc(1.01))]);
        assert!(above
            .iter()
            .any(|c| !c.passed && c.detail.contains("≤ 1.000")));
    }

    #[test]
    fn count_rules_fail_on_any_difference() {
        let rules = parse_rules(
            &parse(
                r#"{"rules": [{"bench": "recovery", "metric": "sizes[0].wal_replayed",
                     "kind": "count", "expected": 16}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rules[0].kind, MetricKind::Count);
        assert_eq!(rules[0].limit(), 16.0);
        assert!(!rules[0].violated_by(16.0));
        assert!(rules[0].violated_by(15.0));
        assert!(rules[0].violated_by(17.0));
        assert!(rules[0].violated_by(f64::NAN));
        // Through the gate: equal passes; fewer or more fails.
        let doc = |v: u32| {
            parse(&format!(
                r#"{{"bench": "recovery", "sizes": [{{"wal_replayed": {v}}}],
                    "identical_output": true}}"#
            ))
            .unwrap()
        };
        let equal = run_gate(&rules, &[("r.json".to_owned(), doc(16))]);
        assert!(equal.iter().all(|c| c.passed), "{equal:#?}");
        for off in [15, 17] {
            let checks = run_gate(&rules, &[("r.json".to_owned(), doc(off))]);
            assert!(checks
                .iter()
                .any(|c| !c.passed && c.detail.contains("= 16.000")));
        }
    }

    #[test]
    fn gate_passes_a_healthy_run() {
        let docs = vec![
            ("base.json".to_owned(), parse(DOC).unwrap()),
            (
                "conc.json".to_owned(),
                parse(
                    r#"{"bench": "concurrent", "audit_speedup": 5.5,
                        "identical_output": true}"#,
                )
                .unwrap(),
            ),
        ];
        let checks = run_gate(&rules(), &docs);
        assert!(checks.iter().all(|c| c.passed), "{checks:#?}");
    }

    #[test]
    fn gate_fails_on_drift_regression_and_missing_bench() {
        let drifted = parse(
            r#"{"bench": "concurrent", "audit_speedup": 1.0,
                "identical_output": false}"#,
        )
        .unwrap();
        let docs = vec![("conc.json".to_owned(), drifted)];
        let checks = run_gate(&rules(), &docs);
        // identical_output false, ratio below half, and the baseline
        // document missing entirely — three failures.
        let failures: Vec<&Check> = checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(failures.len(), 3, "{checks:#?}");
        assert!(failures
            .iter()
            .any(|c| c.label.contains("identical_output")));
        assert!(failures.iter().any(|c| c.detail.contains("no document")));
        let rendered = format!("{}", failures[0]);
        assert!(rendered.starts_with("FAIL"));
    }

    #[test]
    fn gate_fails_on_missing_metric_or_flag() {
        let no_flag = parse(r#"{"bench": "baseline", "sizes": []}"#).unwrap();
        let docs = vec![("x.json".to_owned(), no_flag)];
        let checks = run_gate(&rules()[..1], &docs);
        assert!(checks
            .iter()
            .any(|c| !c.passed && c.detail.contains("no identical_output")));
        assert!(checks
            .iter()
            .any(|c| !c.passed && c.detail.contains("metric missing")));
    }

    #[test]
    fn parse_rules_rejects_malformed_thresholds() {
        assert!(parse_rules(&parse(r#"{"no_rules": 1}"#).unwrap()).is_err());
        assert!(parse_rules(
            &parse(
                r#"{"rules": [{"bench": "b", "metric": "m", "kind": "sideways", "expected": 1}]}"#
            )
            .unwrap()
        )
        .is_err());
        assert!(parse_rules(
            &parse(r#"{"rules": [{"bench": "b", "metric": "m", "kind": "ratio"}]}"#).unwrap()
        )
        .is_err());
    }
}
