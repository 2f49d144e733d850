//! The seven repo-invariant rules, evaluated over a lexed token stream with a
//! brace-scope tracker. Everything here is heuristic lexical analysis — no
//! type information — tuned to this workspace's idioms; the committed
//! baseline absorbs accepted debt and `// bgk-allow: Rn reason` comments
//! absorb sanctioned sites (see each rule's `explain` text).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// One rule violation (or inventoried debt item, for R6).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// `R1`…`R7`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (informational — not part of the baseline identity).
    pub line: u32,
    /// Stable identity for the baseline diff: `rule|file|context|index`,
    /// deliberately free of line numbers so unrelated edits don't churn
    /// the baseline.
    pub key: String,
    /// Human-readable description.
    pub message: String,
}

/// One classified lock acquisition — the R1 inventory behind `--locks`.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `.lock()`/`.read()`/`.write()` call.
    pub line: u32,
    /// Enclosing function.
    pub function: String,
    /// Lock-class name (`shard`, `tenant-writer`, `published`,
    /// `reader-caches`, `audit-caches`).
    pub class: &'static str,
    /// Rank in the sanctioned acquisition order (ascending only).
    pub rank: u8,
    /// The receiver field the class was derived from.
    pub receiver: String,
    /// `let`-bound guard (held to end of block) vs a temporary dropped at
    /// the end of its statement.
    pub bound: bool,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Rule violations found.
    pub findings: Vec<Finding>,
    /// R1 lock inventory (all classified acquisitions, violating or not).
    pub lock_sites: Vec<LockSite>,
}

/// The sanctioned lock order: a thread may only acquire a classified lock
/// with a **strictly higher rank** than every classified guard it already
/// holds (registration → shard → tenant-writer → wal → published →
/// caches → intern-table), and never two locks of the same class at once.
/// Receiver field name → (class, rank).
pub const LOCK_CLASSES: &[(&str, &str, u8)] = &[
    ("registration", "registration", 1),
    ("tenants", "shard", 2),
    ("writer", "tenant-writer", 3),
    ("wal", "wal", 4),
    ("published", "published", 5),
    ("readers", "reader-caches", 6),
    ("caches", "audit-caches", 6),
    ("memo", "audit-caches", 6),
    ("interned", "intern-table", 7),
];

/// Call-name prefixes considered expensive enough that holding any
/// classified lock across them is a serving-latency bug (rule R1b).
const EXPENSIVE_PREFIXES: &[&str] = &["omega", "estimate", "anonymize", "report"];

/// Map/set methods whose iteration order is the hash order (rule R3).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Type-path tokens the R3 declaration scanner walks through when matching
/// a `name: …HashMap<…>` ascription backwards from the `HashMap` token.
const TYPE_WRAPPERS: &[&str] = &[
    "std",
    "collections",
    "sync",
    "cell",
    "Mutex",
    "RwLock",
    "Arc",
    "Rc",
    "Box",
    "Option",
    "RefCell",
    "OnceLock",
    "mut",
    "dyn",
];

/// Where a file sits in the workspace, deciding which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Library code: `crates/<x>/src/**` excluding `src/bin/**`,
    /// `crates/bench` and `crates/analyze`. R1/R3/R4/R5/R6/R7 apply here.
    pub library: bool,
    /// R2 applies (everything scanned except the pool layer itself).
    pub r2: bool,
}

/// Derive the rule scope from a workspace-relative path.
pub fn scope_of(rel_path: &str) -> FileScope {
    let in_crates = rel_path.starts_with("crates/");
    let is_bin = rel_path.contains("/src/bin/");
    let is_bench = rel_path.starts_with("crates/bench/");
    let is_analyze = rel_path.starts_with("crates/analyze/");
    let is_exec = rel_path == "crates/data/src/exec.rs";
    FileScope {
        library: in_crates && !is_bin && !is_bench && !is_analyze,
        r2: in_crates && !is_analyze && !is_exec,
    }
}

/// What the rules read from outside the file under analysis.
#[derive(Debug, Default)]
pub struct Corpus {
    /// Concatenated text of the bit-identity suites (`tests/tests/*.rs`),
    /// consulted by R5.
    pub suites: String,
    /// Identifier → files whose non-test code names it, consulted by R7.
    pub callers: BTreeMap<String, BTreeSet<String>>,
}

impl Corpus {
    /// Read one workspace file: a `tests/tests/` suite feeds R5's coverage
    /// scan, and the non-test code of `crates/*/src`, `crates/*/benches`,
    /// `examples/` and `perfbench/src` feeds R7's caller index. Other paths
    /// are ignored, so a caller that lives only in tests never counts.
    pub fn add(&mut self, rel_path: &str, source: &str) {
        if rel_path.starts_with("tests/tests/") {
            self.suites.push_str(source);
            self.suites.push('\n');
            return;
        }
        let caller = (rel_path.starts_with("crates/")
            && (rel_path.contains("/src/") || rel_path.contains("/benches/")))
            || rel_path.starts_with("examples/")
            || rel_path.starts_with("perfbench/src/");
        if !caller {
            return;
        }
        let lexed = lex(source);
        let ctx = FileCtx::build(rel_path, &lexed);
        for (tok, in_test) in lexed.tokens.iter().zip(&ctx.in_test) {
            if tok.kind == TokenKind::Ident && !in_test {
                self.callers
                    .entry(tok.text.clone())
                    .or_default()
                    .insert(rel_path.to_owned());
            }
        }
    }
}

/// Analyze one source file against the workspace `corpus`.
pub fn analyze_file(rel_path: &str, source: &str, corpus: &Corpus) -> FileAnalysis {
    let scope = scope_of(rel_path);
    let lexed = lex(source);
    let ctx = FileCtx::build(rel_path, &lexed);
    let mut out = FileAnalysis::default();
    if scope.r2 {
        rule_r2(&ctx, &mut out);
    }
    if scope.library {
        rule_r1(&ctx, &mut out);
        rule_r3(&ctx, &mut out);
        rule_r4(&ctx, &mut out);
        rule_r5(&ctx, &corpus.suites, &mut out);
        rule_r6(&ctx, &mut out);
        rule_r7(&ctx, corpus, &mut out);
    }
    out.findings.sort();
    out
}

/// Shared per-file token context: brace matching, `#[cfg(test)]` regions,
/// function and struct spans.
struct FileCtx<'a> {
    rel_path: &'a str,
    lexed: &'a Lexed,
    tokens: &'a [Token],
    /// For each token index: true when inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// `(name, first_body_token, last_body_token)` for every `fn` with a
    /// body, in source order (inner fns appear after their enclosing fn).
    fn_spans: Vec<(String, usize, usize)>,
    /// Same for `struct`/`enum` bodies.
    struct_spans: Vec<(String, usize, usize)>,
}

impl<'a> FileCtx<'a> {
    fn build(rel_path: &'a str, lexed: &'a Lexed) -> Self {
        let tokens = &lexed.tokens[..];
        let match_of = brace_matches(tokens);
        let mut in_test = vec![false; tokens.len()];
        // `#[cfg(test)]` followed by any braced item marks the item body
        // (and the attribute tokens themselves) as test code.
        let mut i = 0;
        while i + 6 < tokens.len() {
            if tokens[i].is_punct('#')
                && tokens[i + 1].is_punct('[')
                && tokens[i + 2].is_ident("cfg")
                && tokens[i + 3].is_punct('(')
                && tokens[i + 4].is_ident("test")
                && tokens[i + 5].is_punct(')')
                && tokens[i + 6].is_punct(']')
            {
                let mut j = i + 7;
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_punct('{') {
                    let end = match_of[j].unwrap_or(tokens.len() - 1);
                    for flag in in_test.iter_mut().take(end + 1).skip(i) {
                        *flag = true;
                    }
                    i = j;
                }
            }
            i += 1;
        }

        let mut fn_spans = Vec::new();
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("fn") || i + 1 >= tokens.len() {
                continue;
            }
            if tokens[i + 1].kind != TokenKind::Ident {
                continue;
            }
            let name = tokens[i + 1].text.clone();
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                if let Some(end) = match_of[j] {
                    fn_spans.push((name, j, end));
                }
            }
        }

        let mut struct_spans = Vec::new();
        for i in 0..tokens.len() {
            if !(tokens[i].is_ident("struct") || tokens[i].is_ident("enum"))
                || i + 1 >= tokens.len()
                || tokens[i + 1].kind != TokenKind::Ident
            {
                continue;
            }
            let name = tokens[i + 1].text.clone();
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                if let Some(end) = match_of[j] {
                    struct_spans.push((name, j, end));
                }
            }
        }

        FileCtx {
            rel_path,
            lexed,
            tokens,
            in_test,
            fn_spans,
            struct_spans,
        }
    }

    /// Name of the innermost function containing token `idx`.
    fn fn_at(&self, idx: usize) -> &str {
        self.fn_spans
            .iter()
            .rfind(|(_, start, end)| *start <= idx && idx <= *end)
            .map(|(name, _, _)| name.as_str())
            .unwrap_or("<file>")
    }

    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.lexed.is_allowed(rule, line)
    }
}

/// For each `{` token, the index of its matching `}`.
fn brace_matches(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
            }
        }
    }
    out
}

fn lock_class(receiver: &str) -> Option<(&'static str, u8)> {
    LOCK_CLASSES
        .iter()
        .find(|(field, _, _)| *field == receiver)
        .map(|(_, class, rank)| (*class, *rank))
}

/// R1 — lock discipline. Within each non-test library function, classified
/// guards (`SessionHub` / `SharedAuditSession` lock classes) must be
/// acquired in strictly ascending rank order, never twice per class, and
/// no expensive engine call (`omega_*`/`estimate_*`/`anonymize_*`/
/// `report_*`) may run while any classified guard is held.
fn rule_r1(ctx: &FileCtx<'_>, out: &mut FileAnalysis) {
    struct LiveGuard {
        name: Option<String>,
        class: &'static str,
        rank: u8,
        /// Depth the guard's block lives at; `None` = statement-temporary.
        depth: Option<i32>,
    }

    for (fn_name, body_start, body_end) in &ctx.fn_spans {
        if ctx.in_test[*body_start] {
            continue;
        }
        // Skip spans that are nested inside an earlier span we already
        // walked (inner `fn`s are rare and would double-report).
        if ctx
            .fn_spans
            .iter()
            .any(|(_, s, e)| s < body_start && body_end <= e)
        {
            continue;
        }
        let t = ctx.tokens;
        let mut depth: i32 = 0;
        let mut live: Vec<LiveGuard> = Vec::new();
        let mut counts: std::collections::BTreeMap<String, u32> = Default::default();
        let mut i = *body_start;
        while i <= *body_end {
            let tok = &t[i];
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                live.retain(|g| g.depth.is_none() || g.depth.unwrap() <= depth);
            } else if tok.is_punct(';') {
                live.retain(|g| g.depth.is_some());
            } else if tok.is_ident("drop")
                && i + 2 <= *body_end
                && t[i + 1].is_punct('(')
                && t[i + 2].kind == TokenKind::Ident
            {
                let victim = &t[i + 2].text;
                live.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            } else if tok.kind == TokenKind::Ident
                && (tok.text == "lock" || tok.text == "read" || tok.text == "write")
                && i > 0
                && t[i - 1].is_punct('.')
                && i + 2 <= *body_end
                && t[i + 1].is_punct('(')
                && t[i + 2].is_punct(')')
            {
                let receiver =
                    (i >= 2 && t[i - 2].kind == TokenKind::Ident).then(|| t[i - 2].text.clone());
                if let Some((class, rank)) = receiver.as_deref().and_then(lock_class) {
                    let receiver = receiver.unwrap();
                    // Order check against everything currently held.
                    for g in &live {
                        let violation = if g.class == class {
                            Some(format!(
                                "acquires `{class}` while already holding a `{class}` guard \
                                 (self-deadlock on a Mutex class)"
                            ))
                        } else if g.rank >= rank {
                            Some(format!(
                                "acquires `{class}` (rank {rank}) while holding `{held}` \
                                 (rank {held_rank}) — sanctioned order is \
                                 registration → shard → tenant-writer → wal → \
                                 published → caches → intern-table",
                                held = g.class,
                                held_rank = g.rank,
                            ))
                        } else {
                            None
                        };
                        if let Some(message) = violation {
                            if !ctx.allowed("R1", tok.line) {
                                let n = counts.entry(format!("order:{class}")).or_default();
                                out.findings.push(Finding {
                                    rule: "R1",
                                    file: ctx.rel_path.to_owned(),
                                    line: tok.line,
                                    key: format!(
                                        "R1|{}|{}|order:{}:{}",
                                        ctx.rel_path, fn_name, class, n
                                    ),
                                    message: format!("fn {fn_name}: {message}"),
                                });
                                *n += 1;
                            }
                        }
                    }
                    // Guard bookkeeping: let-bound guards survive to the
                    // end of their block, temporaries to the statement. A
                    // lock chained past `unwrap`/`expect` into further
                    // methods (`….lock().expect(…).get(…)`) is consumed
                    // within its statement — the binding holds the chain's
                    // result, not the guard.
                    let binding = if chain_consumes_guard(t, i + 2, *body_end) {
                        None
                    } else {
                        let_binding_name(t, *body_start, i)
                    };
                    out.lock_sites.push(LockSite {
                        file: ctx.rel_path.to_owned(),
                        line: tok.line,
                        function: fn_name.clone(),
                        class,
                        rank,
                        receiver,
                        bound: binding.is_some(),
                    });
                    live.push(LiveGuard {
                        depth: binding.is_some().then_some(depth),
                        name: binding,
                        class,
                        rank,
                    });
                }
            } else if tok.kind == TokenKind::Ident
                && !live.is_empty()
                && i < *body_end
                && t[i + 1].is_punct('(')
                && EXPENSIVE_PREFIXES
                    .iter()
                    .any(|p| tok.text == *p || tok.text.starts_with(&format!("{p}_")))
                && !ctx.allowed("R1", tok.line)
            {
                let held = live.last().map(|g| g.class).unwrap_or("?");
                let n = counts.entry(format!("exp:{}", tok.text)).or_default();
                out.findings.push(Finding {
                    rule: "R1",
                    file: ctx.rel_path.to_owned(),
                    line: tok.line,
                    key: format!(
                        "R1|{}|{}|expensive:{}:{}",
                        ctx.rel_path, fn_name, tok.text, n
                    ),
                    message: format!(
                        "fn {fn_name}: expensive call `{}(…)` while a `{held}` guard is \
                         held — move the computation outside the lock",
                        tok.text
                    ),
                });
                *n += 1;
            }
            i += 1;
        }
    }
}

/// Starting at the `)` closing a `.lock()`-style call, skip any
/// `.unwrap()` / `.expect(…)` links and report whether the chain continues
/// with more method calls (which deref the guard and drop it at the end of
/// the statement).
fn chain_consumes_guard(t: &[Token], close: usize, hi: usize) -> bool {
    let mut j = close;
    loop {
        if j + 3 > hi || !t[j + 1].is_punct('.') {
            return false;
        }
        let name = &t[j + 2];
        if name.kind != TokenKind::Ident
            || !(name.text == "unwrap" || name.text == "expect")
            || !t[j + 3].is_punct('(')
        {
            // `.something_else(` right after the guard: consumed in-chain.
            return true;
        }
        // Skip to the matching `)` of the unwrap/expect call.
        let mut depth = 0i32;
        let mut k = j + 3;
        while k <= hi {
            if t[k].is_punct('(') {
                depth += 1;
            } else if t[k].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        if k > hi {
            return false;
        }
        j = k;
    }
}

/// If the statement containing token `at` is a simple `let [mut] name = …`
/// binding, return the bound name.
fn let_binding_name(t: &[Token], lo: usize, at: usize) -> Option<String> {
    let mut j = at;
    while j > lo {
        let tok = &t[j - 1];
        if tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !t[j].is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if k < t.len() && t[k].is_ident("mut") {
        k += 1;
    }
    (t[k].kind == TokenKind::Ident && k + 1 < t.len() && !t[k + 1].is_punct('('))
        .then(|| t[k].text.clone())
}

/// R2 — pool usage. `std::thread::spawn` / `std::thread::scope` are
/// forbidden everywhere but the pool layer itself
/// (`crates/data/src/exec.rs`): engines and tests submit to
/// `bgkanon_data::shared_pool()` instead, so a serving process never pays
/// per-call thread spawn/join and never oversubscribes the machine.
fn rule_r2(ctx: &FileCtx<'_>, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    let mut counts: std::collections::BTreeMap<String, u32> = Default::default();
    for i in 3..t.len() {
        let tok = &t[i];
        if tok.kind == TokenKind::Ident
            && (tok.text == "spawn" || tok.text == "scope")
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t[i - 3].is_ident("thread")
            && !ctx.allowed("R2", tok.line)
        {
            let fn_name = ctx.fn_at(i);
            let n = counts.entry(format!("{fn_name}|{}", tok.text)).or_default();
            out.findings.push(Finding {
                rule: "R2",
                file: ctx.rel_path.to_owned(),
                line: tok.line,
                key: format!("R2|{}|{}|{}:{}", ctx.rel_path, fn_name, tok.text, n),
                message: format!(
                    "fn {fn_name}: `std::thread::{}` outside the pool layer — submit \
                     jobs to `bgkanon_data::shared_pool()` instead",
                    tok.text
                ),
            });
            *n += 1;
        }
    }
}

/// Print macros rule R3 (c) keeps out of library code.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// R3 — determinism. (a) Iterating a `HashMap`/`HashSet` in library code
/// makes output depend on the hash seed; use `BTreeMap`/`BTreeSet` or sort
/// and annotate the site `// bgk-allow: R3 <how it is sorted>`.
/// (b) `Instant::now` / `SystemTime::now` outside `crates/bench` makes
/// library behavior time-dependent; profile-only timers must be annotated.
/// (c) `env::var` reads and `println!`/`eprintln!` make library behavior
/// depend on the process environment and write to streams the caller does
/// not own; configuration and telemetry are typed inputs and outputs.
fn rule_r3(ctx: &FileCtx<'_>, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    // Pass 1: collect identifiers declared with a hash-ordered type.
    let mut hashed: BTreeSet<String> = BTreeSet::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("HashMap") || t[i].is_ident("HashSet")) {
            continue;
        }
        let mut j = i;
        let mut saw_eq = false;
        while j > 0 {
            let prev = &t[j - 1];
            if prev.is_punct(':') && j >= 2 && t[j - 2].is_punct(':') {
                j -= 2; // path separator `::`
            } else if prev.is_punct(':') {
                // Type ascription: the token before names the binding.
                if j >= 2 && t[j - 2].kind == TokenKind::Ident {
                    hashed.insert(t[j - 2].text.clone());
                }
                break;
            } else if prev.is_punct('=') {
                saw_eq = true;
                j -= 1;
            } else if prev.kind == TokenKind::Ident && saw_eq {
                // `let [mut] name = HashMap::new()` (no ascription).
                let lead = j >= 2 && (t[j - 2].is_ident("let") || t[j - 2].is_ident("mut"));
                if lead {
                    hashed.insert(prev.text.clone());
                }
                break;
            } else if prev.kind == TokenKind::Ident && TYPE_WRAPPERS.contains(&prev.text.as_str())
                || prev.is_punct('<')
                || prev.is_punct('&')
                || prev.is_punct('(')
                || prev.kind == TokenKind::Lifetime
            {
                j -= 1;
            } else {
                break;
            }
        }
    }

    let mut counts: std::collections::BTreeMap<String, u32> = Default::default();
    let report = |rule_key: String,
                  line: u32,
                  fn_name: &str,
                  message: String,
                  out: &mut FileAnalysis,
                  counts: &mut std::collections::BTreeMap<String, u32>| {
        let n = counts.entry(rule_key.clone()).or_default();
        out.findings.push(Finding {
            rule: "R3",
            file: ctx.rel_path.to_owned(),
            line,
            key: format!("R3|{}|{}|{}:{}", ctx.rel_path, fn_name, rule_key, n),
            message,
        });
        *n += 1;
    };

    for i in 0..t.len() {
        if ctx.in_test[i] {
            continue;
        }
        let tok = &t[i];
        // (a) method-style iteration: `name.iter()` etc.
        if tok.kind == TokenKind::Ident
            && hashed.contains(&tok.text)
            && i + 3 < t.len()
            && t[i + 1].is_punct('.')
            && t[i + 2].kind == TokenKind::Ident
            && ITER_METHODS.contains(&t[i + 2].text.as_str())
            && t[i + 3].is_punct('(')
            && !ctx.allowed("R3", tok.line)
            && !ctx.allowed("R3", t[i + 2].line)
        {
            let fn_name = ctx.fn_at(i).to_owned();
            report(
                format!("{fn_name}|{}.{}", tok.text, t[i + 2].text),
                t[i + 2].line,
                &fn_name,
                format!(
                    "fn {fn_name}: `{}.{}()` iterates a hash-ordered collection — use a \
                     BTree collection or sort, then annotate `bgk-allow: R3`",
                    tok.text,
                    t[i + 2].text
                ),
                out,
                &mut counts,
            );
        }
        // (a) for-loop iteration: `for … in [&mut] name {`.
        if tok.is_ident("in") && i + 1 < t.len() {
            let mut j = i + 1;
            while j < t.len() && (t[j].is_punct('&') || t[j].is_ident("mut")) {
                j += 1;
            }
            if j + 1 < t.len()
                && t[j].kind == TokenKind::Ident
                && hashed.contains(&t[j].text)
                && t[j + 1].is_punct('{')
                && !ctx.allowed("R3", t[j].line)
            {
                let fn_name = ctx.fn_at(i).to_owned();
                report(
                    format!("{fn_name}|for-in {}", t[j].text),
                    t[j].line,
                    &fn_name,
                    format!(
                        "fn {fn_name}: `for … in {}` iterates a hash-ordered collection — \
                         use a BTree collection or sort, then annotate `bgk-allow: R3`",
                        t[j].text
                    ),
                    out,
                    &mut counts,
                );
            }
        }
        // (b) wall-clock reads in library code.
        if (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("now")
            && !ctx.allowed("R3", tok.line)
        {
            let fn_name = ctx.fn_at(i).to_owned();
            report(
                format!("{fn_name}|{}::now", tok.text),
                tok.line,
                &fn_name,
                format!(
                    "fn {fn_name}: `{}::now()` in library code — timing belongs in \
                     crates/bench; profile-only timers need `bgk-allow: R3`",
                    tok.text
                ),
                out,
                &mut counts,
            );
        }
        // (c) environment reads in library code.
        if tok.is_ident("env")
            && i + 3 < t.len()
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && (t[i + 3].is_ident("var") || t[i + 3].is_ident("var_os"))
            && !ctx.allowed("R3", tok.line)
        {
            let fn_name = ctx.fn_at(i).to_owned();
            report(
                format!("{fn_name}|env::{}", t[i + 3].text),
                tok.line,
                &fn_name,
                format!(
                    "fn {fn_name}: `env::{}` in library code — take configuration as a \
                     typed parameter; only bins and crates/bench read the environment",
                    t[i + 3].text
                ),
                out,
                &mut counts,
            );
        }
        // (c) print macros in library code.
        if tok.kind == TokenKind::Ident
            && PRINT_MACROS.contains(&tok.text.as_str())
            && i + 1 < t.len()
            && t[i + 1].is_punct('!')
            && !ctx.allowed("R3", tok.line)
        {
            let fn_name = ctx.fn_at(i).to_owned();
            report(
                format!("{fn_name}|{}!", tok.text),
                tok.line,
                &fn_name,
                format!(
                    "fn {fn_name}: `{}!` in library code — return diagnostics as typed \
                     output; only bins and crates/bench print",
                    tok.text
                ),
                out,
                &mut counts,
            );
        }
    }
}

/// R4 — cache growth. Inserting into a field named `*cache*`/`*memo*` in a
/// type with no accounting/eviction hook (`bytes_accounted` or an `evict*`
/// symbol in non-test code) is unbounded growth — fatal at fleet tenant
/// counts (ROADMAP item 5). Findings stay in the baseline until the type
/// grows a hook.
fn rule_r4(ctx: &FileCtx<'_>, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    // Cache-named fields declared by structs in this file.
    let mut cache_fields: BTreeSet<String> = BTreeSet::new();
    for (_, start, end) in &ctx.struct_spans {
        let mut depth = 0i32;
        for i in *start..=*end {
            if t[i].is_punct('{') {
                depth += 1;
            } else if t[i].is_punct('}') {
                depth -= 1;
            } else if depth == 1
                && t[i].kind == TokenKind::Ident
                && i < *end
                && t[i + 1].is_punct(':')
                && (i + 2 > *end || !t[i + 2].is_punct(':'))
            {
                let name = t[i].text.to_lowercase();
                if name.contains("cache") || name.contains("memo") {
                    cache_fields.insert(t[i].text.clone());
                }
            }
        }
    }
    if cache_fields.is_empty() {
        return;
    }
    let has_hook = t.iter().enumerate().any(|(i, tok)| {
        tok.kind == TokenKind::Ident
            && !ctx.in_test[i]
            && (tok.text == "bytes_accounted" || tok.text.starts_with("evict"))
    });
    if has_hook {
        return;
    }
    let mut counts: std::collections::BTreeMap<String, u32> = Default::default();
    for i in 0..t.len() {
        if ctx.in_test[i] {
            continue;
        }
        let tok = &t[i];
        if tok.kind == TokenKind::Ident
            && cache_fields.contains(&tok.text)
            && i + 3 < t.len()
            && t[i + 1].is_punct('.')
            && t[i + 2].kind == TokenKind::Ident
            && (t[i + 2].text == "insert" || t[i + 2].text == "entry")
            && t[i + 3].is_punct('(')
            && !ctx.allowed("R4", tok.line)
            && !ctx.allowed("R4", t[i + 2].line)
        {
            let fn_name = ctx.fn_at(i).to_owned();
            let n = counts.entry(format!("{fn_name}|{}", tok.text)).or_default();
            out.findings.push(Finding {
                rule: "R4",
                file: ctx.rel_path.to_owned(),
                line: t[i + 2].line,
                key: format!(
                    "R4|{}|{}|{}.{}:{}",
                    ctx.rel_path,
                    fn_name,
                    tok.text,
                    t[i + 2].text,
                    n
                ),
                message: format!(
                    "fn {fn_name}: `{}.{}(…)` grows a cache field with no \
                     `bytes_accounted`/eviction hook in its type — unbounded memory \
                     at fleet tenant counts (ROADMAP item 5)",
                    tok.text,
                    t[i + 2].text
                ),
            });
            *n += 1;
        }
    }
}

/// Token indices of the names of every public `*_with(…, Parallelism…)`
/// engine entry point in the file: a `pub fn`, or a method declared inside
/// a `pub trait` block (strategy contracts route engine selection through
/// traits).
fn parallel_entry_points(ctx: &FileCtx<'_>) -> Vec<usize> {
    let t = ctx.tokens;
    // Token ranges of `pub trait { … }` bodies: their methods are engine
    // entry points too, but carry no `pub` of their own.
    let mut trait_bodies: Vec<(usize, usize)> = Vec::new();
    let mut i = 1;
    while i < t.len() {
        if t[i].is_ident("trait") && t[i - 1].is_ident("pub") {
            let mut j = i;
            while j < t.len() && !t[j].is_punct('{') {
                j += 1;
            }
            let start = j;
            let mut depth = 0i32;
            while j < t.len() {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            trait_bodies.push((start, j));
            i = j;
        }
        i += 1;
    }
    let in_pub_trait = |idx: usize| trait_bodies.iter().any(|&(a, b)| idx > a && idx < b);
    let mut entries = Vec::new();
    for i in 1..t.len() {
        if ctx.in_test[i] || !t[i].is_ident("fn") {
            continue;
        }
        if !t[i - 1].is_ident("pub") && !in_pub_trait(i) {
            continue;
        }
        let Some(name_tok) = t.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident || !name_tok.text.ends_with("_with") {
            continue;
        }
        // Scan the parameter list for a `Parallelism` knob.
        let mut j = i + 2;
        while j < t.len() && !t[j].is_punct('(') {
            j += 1;
        }
        let mut depth = 0i32;
        while j < t.len() {
            if t[j].is_punct('(') {
                depth += 1;
            } else if t[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t[j].is_ident("Parallelism") {
                entries.push(i + 1);
                break;
            }
            j += 1;
        }
    }
    entries
}

/// R5 — bit-identity pairing. Every public `*_with(…, Parallelism…)` engine
/// entry point must (a) have a serial reference symbol (`<stem>` or
/// `<stem>_reference`) in the same file, and (b) be exercised by name in
/// the workspace bit-identity suites under `tests/tests/`.
fn rule_r5(ctx: &FileCtx<'_>, suite_text: &str, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    for idx in parallel_entry_points(ctx) {
        let name_tok = &t[idx];
        let name = &name_tok.text;
        let stem = name.trim_end_matches("_with");
        let reference = format!("{stem}_reference");
        let has_serial = t
            .windows(2)
            .any(|w| w[0].is_ident("fn") && (w[1].is_ident(stem) || w[1].is_ident(&reference)));
        if !has_serial && !ctx.allowed("R5", name_tok.line) {
            out.findings.push(Finding {
                rule: "R5",
                file: ctx.rel_path.to_owned(),
                line: name_tok.line,
                key: format!("R5|{}|{}|missing-serial", ctx.rel_path, name),
                message: format!(
                    "pub fn {name}: no serial reference symbol `{stem}`/`{reference}` \
                     in the same file — parallel engines need an auditable \
                     single-threaded twin"
                ),
            });
        }
        if !suite_text.contains(name.as_str()) && !ctx.allowed("R5", name_tok.line) {
            out.findings.push(Finding {
                rule: "R5",
                file: ctx.rel_path.to_owned(),
                line: name_tok.line,
                key: format!("R5|{}|{}|untested", ctx.rel_path, name),
                message: format!(
                    "pub fn {name}: not exercised by any bit-identity suite under \
                     tests/tests/ — parallel output is unverified against serial"
                ),
            });
        }
    }
}

/// R6 — panic audit. Inventories `.unwrap()` / `.expect(` / `panic!` in
/// non-test library code against the committed baseline: new sites fail
/// the gate, removed sites must leave the baseline (ratchet down only).
fn rule_r6(ctx: &FileCtx<'_>, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    let mut counts: std::collections::BTreeMap<String, u32> = Default::default();
    for i in 0..t.len() {
        if ctx.in_test[i] {
            continue;
        }
        let tok = &t[i];
        let kind = if tok.kind == TokenKind::Ident
            && (tok.text == "unwrap" || tok.text == "expect")
            && i > 0
            && t[i - 1].is_punct('.')
            && i + 1 < t.len()
            && t[i + 1].is_punct('(')
        {
            Some(tok.text.as_str())
        } else if tok.is_ident("panic") && i + 1 < t.len() && t[i + 1].is_punct('!') {
            Some("panic!")
        } else {
            None
        };
        let Some(kind) = kind else { continue };
        if ctx.allowed("R6", tok.line) {
            continue;
        }
        let fn_name = ctx.fn_at(i).to_owned();
        let n = counts.entry(format!("{fn_name}|{kind}")).or_default();
        out.findings.push(Finding {
            rule: "R6",
            file: ctx.rel_path.to_owned(),
            line: tok.line,
            key: format!("R6|{}|{}|{}:{}", ctx.rel_path, fn_name, kind, n),
            message: format!(
                "fn {fn_name}: `{kind}` in library code — inventoried; prefer a \
                 recoverable error path (baseline may only shrink)"
            ),
        });
        *n += 1;
    }
}

/// R7 — public surface. A `pub fn` in library code needs a non-test caller
/// outside its own file: an identifier of that name in another file of
/// `crates/*/src` (bins and `crates/bench` included), `crates/*/benches`,
/// `examples/` or `perfbench/src`. Tests, `#[cfg(test)]` modules and doctests do not
/// count. The serial twin (`<stem>`/`<stem>_reference`) of an R5 entry
/// point is exempt: R5 already requires it.
fn rule_r7(ctx: &FileCtx<'_>, corpus: &Corpus, out: &mut FileAnalysis) {
    let t = ctx.tokens;
    let mut twins = BTreeSet::new();
    for idx in parallel_entry_points(ctx) {
        let stem = t[idx].text.trim_end_matches("_with");
        twins.insert(stem.to_owned());
        twins.insert(format!("{stem}_reference"));
    }
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    for i in 1..t.len().saturating_sub(1) {
        if ctx.in_test[i] || !t[i].is_ident("fn") || !t[i - 1].is_ident("pub") {
            continue;
        }
        let name = &t[i + 1];
        let called_elsewhere = corpus
            .callers
            .get(&name.text)
            .is_some_and(|files| files.iter().any(|f| f != ctx.rel_path));
        if name.kind != TokenKind::Ident
            || called_elsewhere
            || twins.contains(&name.text)
            || ctx.allowed("R7", t[i - 1].line)
        {
            continue;
        }
        let n = counts.entry(name.text.clone()).or_default();
        out.findings.push(Finding {
            rule: "R7",
            file: ctx.rel_path.to_owned(),
            line: name.line,
            key: format!("R7|{}|{}|pub-fn:{}", ctx.rel_path, name.text, n),
            message: format!(
                "pub fn {}: no non-test caller outside this file — delete it, narrow \
                 it to private or `pub(crate)`, or annotate `bgk-allow: R7 <reason>`",
                name.text
            ),
        });
        *n += 1;
    }
}

/// One paragraph of rationale per rule, for `--explain`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "R1" => {
            "R1 lock discipline — the hub's correctness story is one sanctioned \
             acquisition order: registration (durable tenant creation) → shard \
             (registry bucket) → tenant-writer → wal (durable log + checkpoint) → \
             published (snapshot swap) → caches (reader-audit / audit-session \
             caches) → intern-table (cross-tenant model sharing). Within a \
             function, acquiring a classified lock at a rank ≤ any held classified \
             guard, or two guards of one class, is a deadlock in waiting; calling an \
             expensive engine symbol (omega_*/estimate_*/anonymize_*/report_*) under \
             any classified guard serializes the serving path. Temporary guards \
             (`…lock().expect(…)` chains without a `let`) die at their statement; \
             `let`-bound guards at their block or an explicit `drop`. Annotate \
             deliberate exceptions `// bgk-allow: R1 <why>`."
        }
        "R2" => {
            "R2 pool usage — every parallel stage submits jobs to the process-wide \
             `bgkanon_data::shared_pool()`; `std::thread::spawn`/`scope` anywhere \
             else (including tests) pays per-call spawn/join, oversubscribes the \
             machine under concurrent sessions, and dodges the pool's \
             jobs-never-block-on-jobs deadlock contract. The only sanctioned spawn \
             site is the pool layer itself, `crates/data/src/exec.rs`. Bin targets \
             that still scope (CLI serve demo, bench harness) are carried in the \
             baseline; library crates must stay at zero."
        }
        "R3" => {
            "R3 determinism — publication and audit output must be a pure function \
             of (table, requirement, seed): the paper-reproduction benches assert \
             bit-identity between engines and across republications. Iterating \
             `HashMap`/`HashSet` orders by hash seed, and wall-clock reads \
             (`Instant::now`/`SystemTime::now`) leak time into library behavior — \
             both are confined to `crates/bench` (and annotated profile timers). \
             Environment reads (`env::var`) and print macros \
             (`println!`/`eprintln!`) make library behavior depend on the process \
             environment and write to streams the caller does not own; they are \
             confined to bins, `crates/bench` and `crates/analyze` (test code is \
             exempt). Fix by switching to BTree collections (as \
             `Table::group_by_qi` does) or sorting before emission (as the \
             full-domain lattice engine's grouping does), by passing configuration \
             and returning telemetry as typed values, then annotate any sanctioned site \
             `// bgk-allow: R3 <why>`."
        }
        "R4" => {
            "R4 cache growth — every `insert`/`entry` into a `*cache*`/`*memo*` \
             field of a type with no `bytes_accounted`/`evict*` hook grows without \
             bound. Correctness is unaffected (all caches are rebuild-on-miss) but \
             ROADMAP item 5 (bounded-memory multi-tenancy) requires accounting + \
             eviction on every one. The baseline carries today's debt; new \
             unaccounted caches fail the gate."
        }
        "R5" => {
            "R5 bit-identity pairing — each public `*_with(…, Parallelism…)` engine \
             entry point must keep a single-threaded reference twin (`<stem>` or \
             `<stem>_reference`) in the same file and be exercised by name in the \
             `tests/tests/` bit-identity suites. The parallel engines are only \
             trustworthy because every one is property-tested bitwise against its \
             serial reference."
        }
        "R6" => {
            "R6 panic audit — `.unwrap()`/`.expect(`/`panic!` in non-test library \
             code are inventoried against the committed baseline: the gate fails on \
             any new site, and fixed sites must be deleted from the baseline so the \
             count only ratchets down. Pair with the CI clippy step \
             (`-W clippy::unwrap_used` on crates/core + crates/privacy) when \
             burning down."
        }
        "R7" => {
            "R7 public surface — a `pub fn` in a library crate needs a non-test \
             caller outside its own file: the same identifier in the non-test code \
             of another `crates/*/src` file (bins and crates/bench included), of \
             a `crates/*/benches` target, of `examples/` or of `perfbench/src`. \
             Callers in `tests/`, in `#[cfg(test)]` modules or in doctests do not \
             count, and neither does the defining file. The match is by name, so a \
             dead item can hide behind a live namesake. The serial twin of an R5 \
             entry point is exempt. Fix by deleting the item with its tests, or by \
             narrowing it to private or `pub(crate)`; a test-only item that checks \
             a paper claim keeps a `// bgk-allow: R7 <reason>` note on the line \
             above its `pub fn`."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(text: &str) -> Corpus {
        let mut corpus = Corpus::default();
        corpus.add("tests/tests/suite.rs", text);
        corpus
    }

    fn lib(source: &str) -> FileAnalysis {
        analyze_file("crates/fixture/src/lib.rs", source, &Corpus::default())
    }

    #[test]
    fn r2_flags_thread_scope_and_spawn() {
        let a =
            lib("fn f() { std::thread::scope(|s| {}); }\nfn g() { std::thread::spawn(|| {}); }");
        assert_eq!(a.findings.iter().filter(|f| f.rule == "R2").count(), 2);
        // …but not in the pool layer itself.
        let pool = analyze_file(
            "crates/data/src/exec.rs",
            "fn f() { std::thread::spawn(|| {}); }",
            &Corpus::default(),
        );
        assert!(pool.findings.is_empty());
    }

    #[test]
    fn r2_ignores_strings_comments_and_pool_submission() {
        let a = lib("// std::thread::scope is forbidden\n\
             fn f() { let s = \"std::thread::spawn\"; pool.spawn(|| {}); scope.spawn(|| {}); }");
        assert!(a.findings.iter().all(|f| f.rule != "R2"));
    }

    #[test]
    fn r1_order_violation_and_clean_order() {
        // readers (rank 4) held while taking tenants (rank 1): violation.
        let bad = lib(
            "fn f(&self) { let mut readers = self.readers.lock().unwrap(); \
             let t = self.shard.tenants.lock().unwrap(); }",
        );
        assert!(bad
            .findings
            .iter()
            .any(|f| f.rule == "R1" && f.key.contains("order")));
        // writer (2) then published (3): ascending, sanctioned.
        let good = lib(
            "fn f(&self) { let mut session = entry.writer.lock().unwrap(); \
             *entry.published.write().unwrap() = x; }",
        );
        assert!(good.findings.iter().all(|f| f.rule != "R1"));
        assert_eq!(good.lock_sites.len(), 2);
    }

    #[test]
    fn r1_guard_dies_at_block_end_or_drop() {
        let scoped = lib("fn f(&self) { { let g = self.readers.lock().unwrap(); } \
             let t = self.shard.tenants.lock().unwrap(); }");
        assert!(scoped.findings.iter().all(|f| f.rule != "R1"));
        let dropped = lib(
            "fn f(&self) { let g = self.readers.lock().unwrap(); drop(g); \
             let t = self.shard.tenants.lock().unwrap(); }",
        );
        assert!(dropped.findings.iter().all(|f| f.rule != "R1"));
    }

    #[test]
    fn r1_chained_guard_is_consumed_within_its_statement() {
        // `let cached = memo.lock().expect(…).get(…).cloned();` drops the
        // guard at the `;` — the binding holds the clone, not the guard —
        // so a second same-class lock in the next statement is fine.
        let a = lib(
            "fn f(&self) { let cached = memo.lock().expect(\"m\").get(&k).cloned(); \
             memo.lock().expect(\"m\").insert(k, v); }",
        );
        assert!(a.findings.iter().all(|f| f.rule != "R1"));
        assert_eq!(a.lock_sites.iter().filter(|s| s.bound).count(), 0);
    }

    #[test]
    fn r1_expensive_call_under_guard() {
        let bad = lib("fn f(&self) { let g = self.writer.lock().unwrap(); \
             let m = estimate_prior(&t); }");
        assert!(bad
            .findings
            .iter()
            .any(|f| f.rule == "R1" && f.key.contains("expensive")));
        // The same call after the guard's statement-free block is clean.
        let good = lib("fn f(&self) { { let g = self.writer.lock().unwrap(); } \
             let m = estimate_prior(&t); }");
        assert!(good.findings.iter().all(|f| f.rule != "R1"));
    }

    #[test]
    fn r3_flags_hash_iteration_not_btree() {
        let bad = lib("use std::collections::HashMap;\n\
             fn f() { let mut m: HashMap<u32, u32> = HashMap::new(); \
             for (k, v) in &m { } let _: Vec<_> = m.values().collect(); }");
        assert_eq!(bad.findings.iter().filter(|f| f.rule == "R3").count(), 2);
        let good = lib("use std::collections::BTreeMap;\n\
             fn f() { let mut m: BTreeMap<u32, u32> = BTreeMap::new(); \
             for (k, v) in &m { } }");
        assert!(good.findings.iter().all(|f| f.rule != "R3"));
    }

    #[test]
    fn r3_allows_annotated_sites_and_timing_rule() {
        let a = lib("fn f(m: &HashMap<u32, u32>) {\n\
             // bgk-allow: R3 collected then sorted below\n\
             let mut v: Vec<_> = m.iter().collect();\n\
             let t = std::time::Instant::now();\n}");
        assert_eq!(a.findings.iter().filter(|f| f.rule == "R3").count(), 1);
        assert!(a.findings[0].key.contains("Instant"));
    }

    #[test]
    fn r3_flags_env_reads_and_prints_outside_tests() {
        let bad = lib("fn f() {\n\
             if std::env::var(\"X\").is_ok() { eprintln!(\"x\"); }\n\
             let _ = env::var_os(\"Y\"); println!(\"y\");\n}");
        let keys: Vec<&str> = bad
            .findings
            .iter()
            .filter(|f| f.rule == "R3")
            .map(|f| f.key.as_str())
            .collect();
        assert_eq!(keys.len(), 4, "{keys:?}");
        assert!(keys.iter().any(|k| k.ends_with("f|env::var:0")));
        assert!(keys.iter().any(|k| k.ends_with("f|eprintln!:0")));
        // Test code, bins and the bench crate are exempt; so is a format
        // macro that only builds a string.
        let test_only = lib("fn g() -> String { format!(\"ok\") }\n\
             #[cfg(test)]\nmod tests { fn t() { eprintln!(\"{:?}\", std::env::var(\"X\")); } }");
        assert!(test_only.findings.iter().all(|f| f.rule != "R3"));
        let bin = analyze_file(
            "crates/fixture/src/bin/tool.rs",
            "fn main() { println!(\"{:?}\", std::env::var(\"X\")); }",
            &Corpus::default(),
        );
        assert!(bin.findings.is_empty());
        let bench = analyze_file(
            "crates/bench/src/report.rs",
            "fn r() { eprintln!(\"x\"); }",
            &Corpus::default(),
        );
        assert!(bench.findings.is_empty());
    }

    #[test]
    fn r4_cache_field_without_hook() {
        let bad = lib("struct S { risk_cache: HashMap<u64, f64> }\n\
             impl S { fn put(&mut self, k: u64, v: f64) { self.risk_cache.insert(k, v); } }");
        assert_eq!(bad.findings.iter().filter(|f| f.rule == "R4").count(), 1);
        let hooked = lib("struct S { risk_cache: HashMap<u64, f64> }\n\
             impl S { fn put(&mut self, k: u64, v: f64) { self.risk_cache.insert(k, v); }\n\
             fn evict_cold(&mut self) { self.risk_cache.clear(); } }");
        assert!(hooked.findings.iter().all(|f| f.rule != "R4"));
    }

    #[test]
    fn r5_requires_serial_twin_and_suite_coverage() {
        let src = "impl E { pub fn solve_with(&self, p: Parallelism) -> u32 { 0 } }";
        let uncovered = analyze_file("crates/fixture/src/lib.rs", src, &Corpus::default());
        assert_eq!(
            uncovered.findings.iter().filter(|f| f.rule == "R5").count(),
            2
        );
        let paired = analyze_file(
            "crates/fixture/src/lib.rs",
            "impl E { pub fn solve(&self) -> u32 { 0 }\n\
             pub fn solve_with(&self, p: Parallelism) -> u32 { 0 } }",
            &suite("assert_eq!(e.solve_with(Parallelism::Serial), e.solve_with(par));"),
        );
        assert!(paired.findings.iter().all(|f| f.rule != "R5"));
    }

    #[test]
    fn r5_covers_pub_trait_methods() {
        // A trait-declared `*_with(…, Parallelism)` carries no `pub` of its
        // own but is an engine entry point all the same.
        let uncovered = analyze_file(
            "crates/fixture/src/lib.rs",
            "pub trait S { fn grow_with(&self, p: Parallelism) -> u32; }",
            &Corpus::default(),
        );
        assert_eq!(
            uncovered.findings.iter().filter(|f| f.rule == "R5").count(),
            2
        );
        // A default-method serial twin + suite mention clears it.
        let paired = analyze_file(
            "crates/fixture/src/lib.rs",
            "pub trait S { fn grow(&self) -> u32 { self.grow_with(Parallelism::Serial) }\n\
             fn grow_with(&self, p: Parallelism) -> u32; }",
            &suite("assert_eq!(s.grow_with(Parallelism::Serial), s.grow_with(par));"),
        );
        assert!(paired.findings.iter().all(|f| f.rule != "R5"));
        // Private trait methods stay out of scope.
        let private = analyze_file(
            "crates/fixture/src/lib.rs",
            "trait S { fn grow_with(&self, p: Parallelism) -> u32; }",
            &Corpus::default(),
        );
        assert!(private.findings.iter().all(|f| f.rule != "R5"));
    }

    #[test]
    fn r6_inventories_panics_outside_tests() {
        let a = lib("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
             fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
             fn h() { panic!(\"boom\"); }\n\
             #[cfg(test)] mod tests { #[test] fn t() { None::<u32>.unwrap(); } }");
        assert_eq!(a.findings.iter().filter(|f| f.rule == "R6").count(), 3);
    }

    #[test]
    fn bin_targets_are_exempt_from_library_rules_but_not_r2() {
        let a = analyze_file(
            "crates/core/src/bin/bgkanon-cli.rs",
            "fn main() { let x = Some(1).unwrap(); std::thread::scope(|s| {}); }",
            &Corpus::default(),
        );
        assert!(a.findings.iter().all(|f| f.rule != "R6"));
        assert_eq!(a.findings.iter().filter(|f| f.rule == "R2").count(), 1);
    }

    #[test]
    fn explain_covers_all_rules() {
        for rule in ["R1", "R2", "R3", "R4", "R5", "R6", "R7"] {
            assert!(explain(rule).is_some());
        }
        assert!(explain("R9").is_none());
    }
}
