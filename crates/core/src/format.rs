//! The durable text formats of a tenant directory, and the only code that
//! knows them: the genesis file (`bgkanon-genesis v2`) and the checkpoint
//! file (`bgkanon-checkpoint v3`), with every block they are built from —
//! the shared tokens, the publisher's spec lines, the schema, hierarchy
//! and table blocks, and the three strategy-state codecs.
//!
//! This module converts between `&str` and values and does no file I/O:
//! [`crate::recover`] owns reading, atomic writing and the recovery
//! procedure. Writers append to one output string; readers take one line
//! [`Cursor`] over the whole file, so a reason names the file kind it was
//! read as and, when one line is at fault, that line, counted from the top
//! of the file.
//!
//! Reading is **validating**. A file is external input, so every reader
//! proves the value it returns is well formed — table codes against the
//! schema, spec values against the requirement constructors, a strategy
//! state against the checkpointed table — and corruption surfaces as a
//! tenant's recovery error, never as a panic or a wrong publication.

use std::fmt::{Display, Write as _};
use std::ops::RangeBounds;
use std::str::FromStr;
use std::sync::Arc;

use bgkanon_anon::{
    AnonymizationStrategy, AnyState, AnyStrategy, BucketizeState, FullDomainState, PartitionTree,
    SplitDecision, TreeNodeRecord,
};
use bgkanon_data::hierarchy::HierarchyBuilder;
use bgkanon_data::{
    Attribute, AttributeKind, DistanceMatrix, Hierarchy, Schema, Table, TableBuilder,
};

use crate::publisher::{Algorithm, BandwidthSpec, Publisher, Spec};
use crate::session::PublishSession;
use crate::wal::fnv1a64;

/// Genesis-file magic line (v2: columnar table block, one line per
/// attribute code vector).
const GENESIS_MAGIC: &str = "bgkanon-genesis v2";
/// Checkpoint-file magic line (v3: columnar table block, strategy-tagged
/// state block).
pub(crate) const CHECKPOINT_MAGIC: &str = "bgkanon-checkpoint v3";

// ---------------------------------------------------------------------------
// Tokens: line tags, unsigned integers and hex strings, written and read
// without a `fmt` call or an allocation per number.
// ---------------------------------------------------------------------------

/// The rest of `line` after its first whitespace-separated token, when
/// that token is `tag` — what follows `toks[0] == tag` for
/// `toks = line.split_whitespace()`.
fn strip_tag<'a>(line: &'a str, tag: &str) -> Option<&'a str> {
    line.trim_start()
        .strip_prefix(tag)
        .filter(|rest| rest.chars().next().is_none_or(char::is_whitespace))
}

/// Append a space and the decimal digits of `v` to `out` — the bytes
/// `write!(out, " {v}")` would append.
fn push_spaced(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = v;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push(' ');
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Parse the tokens `text.split_whitespace()` yields, each as
/// `str::parse::<T>` would, appending the ones that parse to `out`.
/// Returns the number of tokens and whether every one of them parsed.
///
/// An ASCII line is scanned byte by byte, accumulating plain digit runs as
/// it goes; any other token (a sign, an overflow, a letter) and any
/// non-ASCII line take `str::parse` and `split_whitespace` themselves, so
/// exactly the same tokens are accepted.
fn scan_ints<T>(text: &str, out: &mut Vec<T>) -> (usize, bool)
where
    T: FromStr + TryFrom<u64>,
{
    let mut count = 0;
    let mut all_parsed = true;
    let mut take = |parsed: Option<T>| {
        count += 1;
        match parsed {
            Some(v) => out.push(v),
            None => all_parsed = false,
        }
    };
    if !text.is_ascii() {
        text.split_whitespace()
            .for_each(|tok| take(tok.parse().ok()));
        return (count, all_parsed);
    }
    // `char::is_whitespace` on ASCII: space and `\t \n \x0b \x0c \r`.
    let space = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if space(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        let mut value = Some(0u64);
        while i < bytes.len() && !space(bytes[i]) {
            let b = bytes[i];
            value = value
                .filter(|_| b.is_ascii_digit())
                .and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            i += 1;
        }
        let parsed = value.and_then(|v| T::try_from(v).ok());
        take(parsed.or_else(|| text[start..i].parse().ok()));
    }
    (count, all_parsed)
}

/// Hex-encode a string's UTF-8 bytes — names and labels are stored this way
/// so the line-oriented format never has to quote whitespace.
pub(crate) fn hex_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decode [`hex_str`] output.
pub(crate) fn unhex_str(tok: &str) -> Result<String, String> {
    if !tok.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let mut bytes = Vec::with_capacity(tok.len() / 2);
    // Pairs are taken as bytes: a pair splitting a non-ASCII character is
    // not UTF-8 on its own, so it is a bad digit, not a slicing panic.
    for pair in tok.as_bytes().chunks_exact(2) {
        let b = std::str::from_utf8(pair)
            .ok()
            .and_then(|p| u8::from_str_radix(p, 16).ok())
            .ok_or_else(|| "bad hex digit".to_owned())?;
        bytes.push(b);
    }
    String::from_utf8(bytes).map_err(|_| "hex string is not UTF-8".into())
}

// ---------------------------------------------------------------------------
// The line cursor every reader shares.
// ---------------------------------------------------------------------------

/// Line reader over a whole file body. Every error it builds names the
/// number of the line last read, counted from the top of the text.
pub(crate) struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor {
            lines: text.lines(),
            line_no: 0,
        }
    }

    /// `msg`, prefixed with the number of the line last read.
    fn fail(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.line_no)
    }

    fn next(&mut self, what: impl Display) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| self.fail(format_args!("unexpected end of file, expected {what}")))
    }

    /// The rest of the next line after its first token, which must be `tag`.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, String> {
        let line = self.next(format_args!("a `{tag}` line"))?;
        strip_tag(line, tag)
            .ok_or_else(|| self.fail(format_args!("expected `{tag}`, got `{line}`")))
    }

    /// The tokens of the next line after its tag.
    fn record(&mut self, tag: &str) -> Result<Vec<&'a str>, String> {
        Ok(self.tagged(tag)?.split_whitespace().collect())
    }

    /// The number on a `tag <n>` head line.
    fn head<T: FromStr + PartialOrd>(&mut self, tag: &str, what: &str) -> Result<T, String> {
        let rest = self.tagged(tag)?;
        self.num(rest.split_whitespace().next(), what, ..)
    }

    /// Parse one token of the line last read as a `T` inside `range`
    /// (`..` for any value).
    fn num<T: FromStr + PartialOrd>(
        &self,
        tok: Option<&str>,
        what: &str,
        range: impl RangeBounds<T>,
    ) -> Result<T, String> {
        let value = tok
            .ok_or_else(|| self.fail(format_args!("missing {what}")))?
            .parse::<T>()
            .map_err(|_| self.fail(format_args!("unparseable {what}")))?;
        if !range.contains(&value) {
            return Err(self.fail(format_args!("{what} out of range")));
        }
        Ok(value)
    }

    /// Every token of `text` (part of the line last read) as a `T`.
    fn ints<T: FromStr + TryFrom<u64>>(&self, text: &str, what: &str) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        match scan_ints(text, &mut out) {
            (_, true) => Ok(out),
            (_, false) => Err(self.fail(format_args!("unparseable {what}"))),
        }
    }

    /// Every token of the next line after its tag, as a `T`.
    fn ints_line<T: FromStr + TryFrom<u64>>(
        &mut self,
        tag: &str,
        what: &str,
    ) -> Result<Vec<T>, String> {
        let rest = self.tagged(tag)?;
        self.ints(rest, what)
    }

    /// The next `tag` line, of exactly `n` codes. `describe` names the line
    /// in the count error; `what` names a code in the parse error.
    fn codes(
        &mut self,
        tag: &str,
        n: usize,
        describe: &str,
        what: &str,
    ) -> Result<Vec<u32>, String> {
        let rest = self.tagged(tag)?;
        let mut codes = Vec::with_capacity(n.min(rest.len()));
        let (count, parsed) = scan_ints(rest, &mut codes);
        if count != n {
            return Err(self.fail(format_args!("{describe} has {count} codes, expected {n}")));
        }
        if !parsed {
            return Err(self.fail(format_args!("unparseable {what}")));
        }
        Ok(codes)
    }
}

/// Verify and strip the trailing `checksum <hex>` line, returning the body.
pub(crate) fn check_trailer(text: &str) -> Result<&str, String> {
    let idx = text
        .rfind("\nchecksum ")
        .map(|i| i + 1)
        .or_else(|| text.starts_with("checksum ").then_some(0))
        .ok_or("missing checksum trailer")?;
    let body = &text[..idx];
    let stored = text[idx..]
        .trim_end()
        .strip_prefix("checksum ")
        .ok_or("malformed checksum trailer")?;
    let stored = u64::from_str_radix(stored, 16).map_err(|_| "unparseable checksum")?;
    if fnv1a64(body.as_bytes()) != stored {
        return Err("checksum mismatch".into());
    }
    Ok(body)
}

/// Append the `checksum` trailer over everything written so far.
pub(crate) fn push_trailer(out: &mut String) {
    let sum = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
}

/// Check a file's magic first line against the one format its kind has.
fn expect_magic(cur: &mut Cursor<'_>, magic: &str) -> Result<(), String> {
    match cur.next("the magic line")? {
        line if line == magic => Ok(()),
        line => Err(format!(
            "unsupported format `{line}` (only `{magic}` is read)"
        )),
    }
}

// ---------------------------------------------------------------------------
// Genesis file.
// ---------------------------------------------------------------------------

/// A parsed genesis file.
#[derive(Debug)]
pub(crate) struct Genesis {
    pub(crate) tenant: String,
    pub(crate) publisher: Publisher,
    pub(crate) table: Table,
}

/// The genesis file of `tenant`: its name, its publisher's spec lines, the
/// full schema (attributes, hierarchies, the sensitive distance matrix)
/// and the genesis table, closed by the checksum trailer.
pub(crate) fn genesis_text(tenant: &str, publisher: &Publisher, table: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{GENESIS_MAGIC}");
    let _ = writeln!(out, "tenant {}", hex_str(tenant));
    push_specs(&mut out, publisher);
    push_schema_block(&mut out, table.schema());
    push_table_block(&mut out, table);
    push_trailer(&mut out);
    out
}

/// Parse a genesis file. Errors start with `genesis:`.
pub(crate) fn parse_genesis(text: &str) -> Result<Genesis, String> {
    let read = || {
        let mut cur = Cursor::new(check_trailer(text)?);
        expect_magic(&mut cur, GENESIS_MAGIC)?;
        let toks = cur.record("tenant")?;
        let tenant = unhex_str(toks.first().copied().ok_or("missing tenant name")?)?;
        let publisher = read_specs(&mut cur)?;
        let schema = read_schema_block(&mut cur)?;
        let table = read_table_block(&mut cur, &schema)?;
        Ok(Genesis {
            tenant,
            publisher,
            table,
        })
    };
    read().map_err(|e: String| format!("genesis: {e}"))
}

// ---------------------------------------------------------------------------
// Checkpoint file.
// ---------------------------------------------------------------------------

/// A parsed checkpoint: the version-`K` table and the strategy state
/// imported against it.
pub(crate) struct Checkpoint {
    pub(crate) version: u64,
    pub(crate) table: Table,
    pub(crate) state: AnyState,
}

/// The checkpoint of `session` at `version`: the current table, the
/// strategy's `strategy <name>` tag and state block, and a `priors 0` line
/// (no adversary model is stored: audits re-derive them), closed by the
/// checksum trailer.
pub(crate) fn checkpoint_text(version: u64, session: &PublishSession) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CHECKPOINT_MAGIC}");
    let _ = writeln!(out, "version {version}");
    let _ = writeln!(out, "strategy {}", session.strategy().name());
    push_table_block(&mut out, session.table());
    push_state(&mut out, session.strategy_state());
    out.push_str("priors 0\n");
    push_trailer(&mut out);
    out
}

/// Parse a checkpoint of a tenant whose genesis `schema` and publisher
/// select `strategy`, importing its state block against the checkpointed
/// table. Errors start with `checkpoint:`.
pub(crate) fn parse_checkpoint(
    text: &str,
    schema: &Arc<Schema>,
    strategy: &AnyStrategy,
) -> Result<Checkpoint, String> {
    let read = || {
        let mut cur = Cursor::new(check_trailer(text)?);
        expect_magic(&mut cur, CHECKPOINT_MAGIC)?;
        let version: u64 = cur.head("version", "checkpoint version")?;
        match cur.record("strategy")?.as_slice() {
            [tag] if *tag == strategy.name() => {}
            [tag] => {
                return Err(cur.fail(format_args!(
                    "tagged strategy `{tag}`, but the genesis publisher selects `{}`",
                    strategy.name()
                )))
            }
            _ => return Err(cur.fail("malformed strategy line")),
        }
        let table = read_table_block(&mut cur, schema)?;
        let state = read_state(&mut cur, strategy, &table)?;
        let n_priors: usize = cur.head("priors", "prior count")?;
        if n_priors != 0 {
            return Err(cur.fail(format_args!(
                "unsupported format: `{CHECKPOINT_MAGIC}` with {n_priors} stored \
                 prior-model block(s) (only `priors 0` is read)"
            )));
        }
        Ok(Checkpoint {
            version,
            table,
            state,
        })
    };
    read().map_err(|e: String| format!("checkpoint: {e}"))
}

// ---------------------------------------------------------------------------
// Spec lines: `specs N`, then one line per declarative requirement, after
// an `algorithm <name>` selector line when the algorithm is not Mondrian.
// ---------------------------------------------------------------------------

/// Write the publisher's spec block. Floats use `{:.17e}` so they read
/// back bit-for-bit; the parallelism knob is deliberately *not* recorded —
/// engines are bit-identical across it, so recovered sessions run with the
/// default.
fn push_specs(out: &mut String, publisher: &Publisher) {
    // Mondrian publishers write no selector line: the shape that predates
    // the algorithm knob, which reads back as Mondrian.
    let selector = publisher.algorithm != Algorithm::Mondrian;
    let lines = publisher.specs.len() + usize::from(selector);
    let _ = writeln!(out, "specs {lines}");
    if selector {
        let _ = writeln!(out, "algorithm {}", publisher.algorithm.name());
    }
    for spec in &publisher.specs {
        match spec {
            Spec::K(k) => {
                let _ = write!(out, "spec k {k}");
            }
            Spec::DistinctL(l) => {
                let _ = write!(out, "spec distinct-l {l}");
            }
            Spec::ProbabilisticL(l) => {
                let _ = write!(out, "spec probabilistic-l {l}");
            }
            Spec::TCloseness(t) => {
                let _ = write!(out, "spec t-closeness {t:.17e}");
            }
            Spec::Bt {
                bandwidth: BandwidthSpec::Uniform(b),
                t,
            } => {
                let _ = write!(out, "spec bt-uniform {b:.17e} {t:.17e}");
            }
            Spec::Bt {
                bandwidth: BandwidthSpec::Vector(v),
                t,
            } => {
                let _ = write!(out, "spec bt-vector {t:.17e}");
                for b in v {
                    let _ = write!(out, " {b:.17e}");
                }
            }
            Spec::Skyline(pairs) => {
                out.push_str("spec skyline");
                for (b, t) in pairs {
                    let _ = write!(out, " {b:.17e} {t:.17e}");
                }
            }
        }
        out.push('\n');
    }
}

/// Read a spec block back into a publisher. A value the requirement
/// constructors would reject with a panic (k or ℓ of 0, a t-closeness
/// threshold outside [0, 1], a negative or non-finite (B,t) threshold) is
/// an error here. Bandwidths are checked when the publisher is
/// instantiated, which reports a bad one as a typed `PublishError`.
pub(crate) fn read_specs(cur: &mut Cursor<'_>) -> Result<Publisher, String> {
    // (B,t) thresholds the requirement constructors accept.
    let threshold = 0.0..=f64::MAX;
    let n: usize = cur.head("specs", "spec count")?;
    let mut publisher = Publisher::new();
    for _ in 0..n {
        let line = cur.next("a spec line")?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        let spec = match toks[..] {
            ["algorithm", name] => {
                publisher.algorithm = Algorithm::parse(name)
                    .ok_or_else(|| cur.fail(format_args!("unknown algorithm `{name}`")))?;
                continue;
            }
            ["algorithm", ..] => return Err(cur.fail(format_args!("malformed `{line}`"))),
            ["spec", kind, ref values @ ..] => (kind, values),
            _ => {
                return Err(cur.fail(format_args!(
                    "expected a `spec <kind> ...` line, got `{line}`"
                )))
            }
        };
        publisher.specs.push(match spec {
            ("k", &[k]) => Spec::K(cur.num(Some(k), "k", 1..)?),
            ("distinct-l", &[l]) => Spec::DistinctL(cur.num(Some(l), "l", 1..)?),
            ("probabilistic-l", &[l]) => Spec::ProbabilisticL(cur.num(Some(l), "l", 1..)?),
            ("t-closeness", &[t]) => Spec::TCloseness(cur.num(Some(t), "t", 0.0..=1.0)?),
            ("bt-uniform", &[b, t]) => Spec::Bt {
                bandwidth: BandwidthSpec::Uniform(cur.num(Some(b), "bandwidth", ..)?),
                t: cur.num(Some(t), "t", threshold.clone())?,
            },
            ("bt-vector", &[t, ref bandwidth @ ..]) if !bandwidth.is_empty() => Spec::Bt {
                t: cur.num(Some(t), "t", threshold.clone())?,
                bandwidth: BandwidthSpec::Vector(
                    bandwidth
                        .iter()
                        .map(|b| cur.num(Some(b), "bandwidth component", ..))
                        .collect::<Result<_, _>>()?,
                ),
            },
            ("skyline", pairs) if !pairs.is_empty() && pairs.len() % 2 == 0 => Spec::Skyline(
                pairs
                    .chunks_exact(2)
                    .map(|p| {
                        let b = cur.num(Some(p[0]), "skyline bandwidth", ..)?;
                        Ok((b, cur.num(Some(p[1]), "skyline t", threshold.clone())?))
                    })
                    .collect::<Result<_, String>>()?,
            ),
            (
                "k" | "distinct-l" | "probabilistic-l" | "t-closeness" | "bt-uniform" | "bt-vector"
                | "skyline",
                _,
            ) => return Err(cur.fail(format_args!("wrong number of values on `{line}`"))),
            (other, _) => return Err(cur.fail(format_args!("unknown spec kind `{other}`"))),
        });
    }
    if publisher.specs.is_empty() {
        return Err(cur.fail("no specs declared"));
    }
    Ok(publisher)
}

/// The spec block of `publisher`, on its own (for tests of the codec).
#[cfg(test)]
pub(crate) fn spec_text(publisher: &Publisher) -> String {
    let mut out = String::new();
    push_specs(&mut out, publisher);
    out
}

// ---------------------------------------------------------------------------
// Schema and hierarchy blocks.
// ---------------------------------------------------------------------------

fn push_hierarchy_block(out: &mut String, h: &Hierarchy) {
    let _ = writeln!(
        out,
        "hierarchy {} {}",
        h.node_count(),
        hex_str(h.label(h.root()))
    );
    // Every node but the root (node 0) has a parent: ids `1..n` in order.
    for (node, parent) in (0..h.node_count()).filter_map(|node| Some((node, h.parent(node)?))) {
        let kind = if h.leaf_code(node).is_some() {
            "leaf"
        } else {
            "internal"
        };
        let _ = writeln!(out, "hnode {parent} {kind} {}", hex_str(h.label(node)));
    }
}

/// Rebuild a hierarchy from its block. `HierarchyBuilder` assigns node ids
/// in push order and leaf codes in `leaf()` call order — both monotone — so
/// replaying nodes `1..n` in id order reproduces every id and leaf code
/// exactly as the original construction did.
fn read_hierarchy_block(cur: &mut Cursor<'_>) -> Result<Hierarchy, String> {
    let head = cur.record("hierarchy")?;
    let node_count: usize = cur.num(head.first().copied(), "hierarchy node count", 1..)?;
    let root_label = unhex_str(head.get(1).copied().ok_or("missing root label")?)?;
    let mut builder = HierarchyBuilder::new(&root_label);
    for expect_id in 1..node_count {
        let [parent, kind, label] = cur.record("hnode")?[..] else {
            return Err(cur.fail("hnode has wrong arity"));
        };
        let parent: usize = cur.num(Some(parent), "hnode parent", ..expect_id)?;
        let label = unhex_str(label)?;
        match kind {
            "leaf" => {
                builder.leaf(parent, &label);
            }
            "internal" => {
                if builder.internal(parent, &label) != expect_id {
                    return Err(cur.fail("hierarchy ids diverged during rebuild"));
                }
            }
            other => return Err(cur.fail(format_args!("unknown hnode kind `{other}`"))),
        }
    }
    builder
        .build()
        .map_err(|e| format!("invalid hierarchy: {e}"))
}

fn push_attr_block(out: &mut String, attr: &Attribute) {
    match attr.kind() {
        AttributeKind::Numeric { values } => {
            let _ = write!(out, "attr numeric {}", hex_str(attr.name()));
            for v in values {
                let _ = write!(out, " {v:.17e}");
            }
            out.push('\n');
        }
        AttributeKind::Categorical { labels, hierarchy } => {
            let _ = write!(
                out,
                "attr categorical {} {}",
                hex_str(attr.name()),
                labels.len()
            );
            for label in labels {
                let _ = write!(out, " {}", hex_str(label));
            }
            out.push('\n');
            push_hierarchy_block(out, hierarchy);
        }
    }
}

fn read_attr_block(cur: &mut Cursor<'_>) -> Result<Attribute, String> {
    let toks = cur.record("attr")?;
    let name = unhex_str(toks.get(1).copied().ok_or("missing attribute name")?)?;
    match toks.first().copied() {
        Some("numeric") => {
            let values = toks[2..]
                .iter()
                .map(|tok| cur.num(Some(tok), "numeric value", ..))
                .collect::<Result<Vec<f64>, String>>()?;
            Attribute::numeric(&name, values).map_err(|e| format!("invalid attribute: {e}"))
        }
        Some("categorical") => {
            let n_labels: usize = cur.num(toks.get(2).copied(), "label count", ..)?;
            if toks.len() != 3 + n_labels {
                return Err(cur.fail("label count mismatch"));
            }
            let labels = toks[3..]
                .iter()
                .map(|tok| unhex_str(tok))
                .collect::<Result<Vec<String>, String>>()?;
            let hierarchy = read_hierarchy_block(cur)?;
            Attribute::categorical(&name, labels, hierarchy)
                .map_err(|e| format!("invalid attribute: {e}"))
        }
        other => Err(cur.fail(format_args!("unknown attribute kind {other:?}"))),
    }
}

fn push_schema_block(out: &mut String, schema: &Schema) {
    let _ = writeln!(out, "schema {}", schema.qi_count());
    for i in 0..schema.qi_count() {
        push_attr_block(out, schema.qi_attribute(i));
    }
    push_attr_block(out, schema.sensitive_attribute());
    let sdist = schema.sensitive_distance();
    let _ = writeln!(out, "sdist {}", sdist.size());
    for a in 0..sdist.size() as u32 {
        out.push_str("sdrow");
        for v in sdist.row(a) {
            let _ = write!(out, " {v:.17e}");
        }
        out.push('\n');
    }
}

fn read_schema_block(cur: &mut Cursor<'_>) -> Result<Arc<Schema>, String> {
    let d: usize = cur.head("schema", "qi count")?;
    let mut qi = Vec::new();
    for _ in 0..d {
        qi.push(read_attr_block(cur)?);
    }
    let sensitive = read_attr_block(cur)?;
    let size: usize = cur.head("sdist", "distance size")?;
    let mut rows = Vec::new();
    for _ in 0..size {
        let toks = cur.record("sdrow")?;
        if toks.len() != size {
            return Err(cur.fail("sdrow has wrong arity"));
        }
        rows.push(
            toks.iter()
                .map(|tok| cur.num(Some(tok), "distance value", ..))
                .collect::<Result<Vec<f64>, String>>()?,
        );
    }
    let sdist = DistanceMatrix::from_rows(rows).map_err(|e| format!("invalid sdist: {e}"))?;
    // `with_sensitive_distance` installs the persisted matrix verbatim —
    // bit-identical to the original even if the derivation would differ.
    Schema::with_sensitive_distance(qi, sensitive, sdist)
        .map(Arc::new)
        .map_err(|e| format!("invalid schema: {e}"))
}

// ---------------------------------------------------------------------------
// Table block.
// ---------------------------------------------------------------------------

/// The columnar table block: `rows n`, then one `col` line per QI
/// attribute carrying that attribute's whole code vector, then one `sens`
/// line. Serialization order matches the in-memory columnar layout, so a
/// checkpoint of a 10M-row table streams each code vector sequentially
/// instead of striding across rows.
fn push_table_block(out: &mut String, table: &Table) {
    let _ = writeln!(out, "rows {}", table.len());
    for a in 0..table.qi_count() {
        out.push_str("col");
        for &q in table.qi_col(a).as_slice() {
            push_spaced(out, u64::from(q));
        }
        out.push('\n');
    }
    out.push_str("sens");
    for &s in table.sensitive_col() {
        push_spaced(out, u64::from(s));
    }
    out.push('\n');
}

/// Read a columnar table block, validating every code against the schema
/// through the [`TableBuilder`].
fn read_table_block(cur: &mut Cursor<'_>, schema: &Arc<Schema>) -> Result<Table, String> {
    let n: usize = cur.head("rows", "row count")?;
    let d = schema.qi_count();
    let mut builder = TableBuilder::new(Arc::clone(schema));
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(d);
    for a in 0..d {
        cols.push(cur.codes("col", n, &format!("column {a}"), "qi code")?);
    }
    let sens = cur.codes("sens", n, "sensitive column", "sensitive code")?;
    builder
        .push_chunk(&cols, &sens)
        .map_err(|e| cur.fail(format_args!("invalid table: {e}")))?;
    builder.build().map_err(|e| format!("invalid table: {e}"))
}

// ---------------------------------------------------------------------------
// Strategy state: `state N`, then the N lines of one codec per algorithm —
// Mondrian's tree, bucketization's bucket list, full domain's frontier.
// ---------------------------------------------------------------------------

/// Write `state`'s block: its `state N` head and its N lines.
fn push_state(out: &mut String, state: &AnyState) {
    match state {
        AnyState::Mondrian(tree) => {
            let records = tree.export_records();
            let _ = writeln!(out, "state {}", records.len() + 1);
            let _ = writeln!(out, "tree {}", records.len());
            for record in &records {
                match record {
                    TreeNodeRecord::Internal {
                        decision,
                        left,
                        right,
                        size,
                    } => {
                        out.push_str("tnode internal");
                        for v in [*left, *right, *size, decision.dim] {
                            push_spaced(out, v as u64);
                        }
                        push_spaced(out, u64::from(decision.median));
                        push_spaced(out, u64::from(decision.le_mode));
                        for &dim in &decision.attempts {
                            push_spaced(out, dim as u64);
                        }
                    }
                    TreeNodeRecord::Leaf { rows } => {
                        out.push_str("tnode leaf");
                        for &row in rows {
                            push_spaced(out, row as u64);
                        }
                    }
                }
                out.push('\n');
            }
        }
        AnyState::Bucketize(state) => {
            let buckets = state.buckets();
            let _ = writeln!(out, "state {}", buckets.len() + 1);
            let _ = writeln!(out, "buckets {}", buckets.len());
            for rows in buckets {
                out.push_str("bucket");
                for &row in rows {
                    push_spaced(out, row as u64);
                }
                out.push('\n');
            }
        }
        AnyState::FullDomain(state) => {
            let _ = writeln!(out, "state {}", state.frontier().len() + 2);
            out.push_str("levels");
            for &l in state.levels() {
                push_spaced(out, u64::from(l));
            }
            let _ = writeln!(out, "\nfrontier {}", state.frontier().len());
            for vector in state.frontier() {
                out.push('f');
                for &l in vector {
                    push_spaced(out, u64::from(l));
                }
                out.push('\n');
            }
        }
    }
}

/// Read a state block for `strategy` against the checkpointed `table`,
/// validating that it encodes a well-formed state *for that table* and
/// takes exactly the lines its head declares.
pub(crate) fn read_state(
    cur: &mut Cursor<'_>,
    strategy: &AnyStrategy,
    table: &Table,
) -> Result<AnyState, String> {
    let declared: usize = cur.head("state", "state line count")?;
    let head = cur.line_no;
    let state = match strategy {
        AnyStrategy::Mondrian(_) => read_tree(cur, table).map(AnyState::Mondrian),
        AnyStrategy::Bucketize(b) => read_buckets(cur, b.l(), table).map(AnyState::Bucketize),
        AnyStrategy::FullDomain(_) => read_frontier(cur, table).map(AnyState::FullDomain),
    }?;
    let used = cur.line_no - head;
    if used != declared {
        return Err(format!(
            "line {head}: the state block declares {declared} line(s), its records take {used}"
        ));
    }
    Ok(state)
}

/// Check that `groups` partition the rows `0..rows` with no empty part —
/// the common safety bar every imported state must clear before the
/// session serves it. `what` names the groups, in the plural.
fn check_partition<'g>(
    groups: impl IntoIterator<Item = &'g [usize]>,
    rows: usize,
    what: &str,
) -> Result<(), String> {
    let fault = |why: String| Err(format!("{what} do not partition the table: {why}"));
    let mut seen = vec![false; rows];
    for group in groups {
        if group.is_empty() {
            return fault("one is empty".into());
        }
        for &row in group {
            match seen.get_mut(row) {
                Some(seen) if !*seen => *seen = true,
                Some(_) => return fault(format!("row {row} appears twice")),
                None => return fault(format!("row {row} is out of range")),
            }
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(row) => fault(format!("row {row} is missing")),
        None => Ok(()),
    }
}

/// Walk an imported tree from its root, slot 0, and prove what
/// [`PartitionTree::from_exported`] and the delta refresh assume of it:
/// every slot is reached exactly once, the leaves partition `table`, every
/// leaf row lies on the side of each ancestor's split that leads to its
/// leaf (a delete is routed by that split), and every internal node's
/// `size` is the number of rows in the leaves below it.
fn check_tree(records: &[TreeNodeRecord], table: &Table) -> Result<(), String> {
    if records.is_empty() {
        return Err("empty tree".into());
    }
    let d = table.qi_count();
    // Per reached non-root slot: its parent slot, the parent's split and
    // whether the slot is the left child.
    let mut up: Vec<Option<(usize, &SplitDecision, bool)>> = vec![None; records.len()];
    let mut reached = vec![false; records.len()];
    // Reached slots in walk order: every parent before its children.
    let mut order = Vec::with_capacity(records.len());
    reached[0] = true;
    let mut stack = vec![0];
    while let Some(slot) = stack.pop() {
        order.push(slot);
        let TreeNodeRecord::Internal {
            decision,
            left,
            right,
            ..
        } = &records[slot]
        else {
            continue;
        };
        if decision.dim >= d || decision.attempts.iter().any(|&a| a >= d) {
            return Err(format!("tree node {slot}: split dimension out of range"));
        }
        for (child, is_left) in [(*left, true), (*right, false)] {
            match reached.get_mut(child) {
                Some(seen) if !*seen => *seen = true,
                Some(_) => return Err(format!("tree node {child} is linked twice")),
                None => return Err(format!("tree node {slot}: child link {child} out of range")),
            }
            up[child] = Some((slot, decision, is_left));
            stack.push(child);
        }
    }
    if let Some(slot) = reached.iter().position(|&r| !r) {
        return Err(format!("tree node {slot} is not reached from the root"));
    }
    let leaves = records.iter().filter_map(|record| match record {
        TreeNodeRecord::Leaf { rows } => Some(rows.as_slice()),
        TreeNodeRecord::Internal { .. } => None,
    });
    check_partition(leaves, table.len(), "tree leaves")?;
    // Bottom up: every slot's rows are final before its parent's.
    let mut held = vec![0usize; records.len()];
    for &slot in order.iter().rev() {
        match &records[slot] {
            TreeNodeRecord::Leaf { rows } => {
                held[slot] = rows.len();
                let mut at = slot;
                while let Some((parent, decision, is_left)) = up[at] {
                    let col = table.qi_col(decision.dim);
                    if let Some(&row) = rows
                        .iter()
                        .find(|&&row| decision.goes_left(col.get(row)) != is_left)
                    {
                        return Err(format!(
                            "tree leaf {slot} holds row {row} on the wrong side of node \
                             {parent}'s split"
                        ));
                    }
                    at = parent;
                }
            }
            TreeNodeRecord::Internal { size, .. } => {
                if *size != held[slot] {
                    return Err(format!(
                        "tree node {slot} claims {size} rows, the leaves below it hold {}",
                        held[slot]
                    ));
                }
            }
        }
        if let Some((parent, _, _)) = up[slot] {
            held[parent] += held[slot];
        }
    }
    Ok(())
}

fn read_tree(cur: &mut Cursor<'_>, table: &Table) -> Result<PartitionTree, String> {
    let node_count: usize = cur.head("tree", "tree node count")?;
    let mut records = Vec::new();
    for _ in 0..node_count {
        let line = cur.tagged("tnode")?;
        if let Some(rows) = strip_tag(line, "leaf") {
            records.push(TreeNodeRecord::Leaf {
                rows: cur.ints(rows, "leaf row")?,
            });
            continue;
        }
        let Some(rest) = strip_tag(line, "internal") else {
            return Err(cur.fail(format_args!("unknown tnode kind in `{line}`")));
        };
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let &[left, right, size, dim, median, le_mode, ref attempts @ ..] = toks.as_slice() else {
            return Err(cur.fail("internal node too short"));
        };
        records.push(TreeNodeRecord::Internal {
            left: cur.num(Some(left), "left child", ..)?,
            right: cur.num(Some(right), "right child", ..)?,
            size: cur.num(Some(size), "node size", ..)?,
            decision: SplitDecision {
                dim: cur.num(Some(dim), "split dim", ..)?,
                median: cur.num(Some(median), "split median", ..)?,
                le_mode: cur.num::<u8>(Some(le_mode), "le_mode", 0..=1)? == 1,
                attempts: attempts
                    .iter()
                    .map(|tok| cur.num(Some(tok), "attempt dim", ..))
                    .collect::<Result<_, _>>()?,
            },
        });
    }
    check_tree(&records, table)?;
    Ok(PartitionTree::from_exported(table, records))
}

/// `l` is the tenant's ℓ: every imported bucket must still carry ℓ
/// distinct sensitive values.
fn read_buckets(cur: &mut Cursor<'_>, l: usize, table: &Table) -> Result<BucketizeState, String> {
    let count: usize = cur.head("buckets", "bucket count")?;
    let mut buckets = Vec::new();
    for _ in 0..count {
        buckets.push(cur.ints_line("bucket", "bucket row")?);
    }
    check_partition(buckets.iter().map(Vec::as_slice), table.len(), "buckets")?;
    // The strategy's own invariant: every bucket carries at least ℓ
    // distinct sensitive values — a cheap full check, so a corrupted
    // (but well-formed) bucket list cannot resurrect as a publication
    // that silently violates the tenant's requirement.
    for (i, rows) in buckets.iter().enumerate() {
        let mut values: Vec<u32> = rows.iter().map(|&r| table.sensitive_value(r)).collect();
        values.sort_unstable();
        values.dedup();
        if values.len() < l {
            return Err(format!(
                "bucket {i} has {} distinct sensitive values, ℓ = {l}",
                values.len()
            ));
        }
    }
    Ok(BucketizeState::from_buckets(buckets))
}

fn read_frontier(cur: &mut Cursor<'_>, table: &Table) -> Result<FullDomainState, String> {
    let levels = cur.ints_line("levels", "level")?;
    let count: usize = cur.head("frontier", "frontier size")?;
    let mut frontier = Vec::new();
    for _ in 0..count {
        frontier.push(cur.ints_line("f", "frontier level")?);
    }
    // `rehydrate` validates arity, level bounds and DM-optimality of the
    // claimed choice, and recomputes the partition (derived state).
    FullDomainState::rehydrate(table, levels, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::Algorithm;
    use bgkanon_anon::StrategyState;
    use bgkanon_data::adult;
    use proptest::prelude::*;

    /// The `split_whitespace` + `str::parse` transcription `scan_ints`
    /// must agree with.
    fn reference<T: FromStr>(text: &str) -> (usize, bool, Vec<T>) {
        let parsed: Vec<Option<T>> = text.split_whitespace().map(|t| t.parse().ok()).collect();
        let all = parsed.iter().all(Option::is_some);
        (parsed.len(), all, parsed.into_iter().flatten().collect())
    }

    fn scanned<T: FromStr + TryFrom<u64>>(text: &str) -> (usize, bool, Vec<T>) {
        let mut out = Vec::new();
        let (count, all) = scan_ints(text, &mut out);
        (count, all, out)
    }

    const PIECES: [&str; 20] = [
        "0",
        "7",
        "007",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "+5",
        "-0",
        "-3",
        "1e3",
        "x",
        "١",
        " ",
        "  ",
        "\t",
        "\x0b",
        "\x0c",
        "\u{a0}",
        "\u{3000}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Same tokens, same values, same verdict as `split_whitespace` +
        /// `str::parse`, for `u32`, `u64` and `usize`.
        #[test]
        fn scan_matches_split_and_parse(picks in prop::collection::vec(0usize..20, 0..16)) {
            let text: String = picks.iter().map(|&p| PIECES[p]).collect::<Vec<_>>().join(" ");
            prop_assert_eq!(scanned::<u32>(&text), reference::<u32>(&text), "{:?}", text);
            prop_assert_eq!(scanned::<u64>(&text), reference::<u64>(&text), "{:?}", text);
            let glued: String = picks.iter().map(|&p| PIECES[p]).collect();
            prop_assert_eq!(scanned::<usize>(&glued), reference::<usize>(&glued), "{:?}", glued);
        }

        /// `strip_tag` accepts exactly the lines whose first token is the
        /// tag, and leaves exactly the remaining tokens.
        #[test]
        fn strip_tag_matches_split(picks in prop::collection::vec(0usize..20, 0..6), tag in 0usize..4) {
            let tag = ["col", "sens", "7", "x"][tag];
            for glue in ["", " ", "\u{3000}"] {
                let text: String = picks.iter().map(|&p| PIECES[p]).collect::<Vec<_>>().join(glue);
                for line in [format!("{tag}{text}"), format!("{tag} {text}"), text.clone()] {
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    let rest = strip_tag(&line, tag);
                    prop_assert_eq!(rest.is_some(), toks.first() == Some(&tag), "{:?}", line);
                    if let Some(rest) = rest {
                        prop_assert_eq!(rest.split_whitespace().collect::<Vec<_>>(), toks[1..].to_vec());
                    }
                }
            }
        }

        /// `push_spaced` writes what `write!(out, " {v}")` writes.
        #[test]
        fn push_matches_format(v in 0u64..u64::MAX, shift in 0u32..64) {
            for v in [v, v >> shift, u64::MAX, 0] {
                let mut out = String::from("x");
                push_spaced(&mut out, v);
                prop_assert_eq!(out, format!("x {v}"));
            }
        }
    }

    /// The strategy `publisher` selects for `table`.
    fn strategy_for(publisher: &Publisher, table: &Table) -> AnyStrategy {
        let requirement = publisher.instantiate(table).unwrap();
        publisher.strategy(&requirement).unwrap()
    }

    fn state_text(state: &AnyState) -> String {
        let mut out = String::new();
        push_state(&mut out, state);
        out
    }

    fn import(strategy: &AnyStrategy, table: &Table, text: &str) -> Result<AnyState, String> {
        read_state(&mut Cursor::new(text), strategy, table)
    }

    #[test]
    fn each_strategy_roundtrips_its_state_through_the_codec() {
        let table = adult::generate(200, 31);
        for algorithm in [
            Algorithm::Mondrian,
            Algorithm::Bucketize,
            Algorithm::FullDomain,
        ] {
            let publisher = Publisher::new().k_anonymity(3).algorithm(algorithm);
            let strategy = strategy_for(&publisher, &table);
            let state = strategy.plant(&table).expect("satisfiable");
            let rebuilt = import(&strategy, &table, &state_text(&state))
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            let (a, _) = state.snapshot(&table);
            let (b, _) = rebuilt.snapshot(&table);
            assert_eq!(a.first_difference(&b), None);
        }
    }

    #[test]
    fn corrupt_state_lines_are_rejected_not_panicking() {
        let table = adult::generate(120, 33);
        let mondrian = strategy_for(&Publisher::new().k_anonymity(3), &table);
        let good = state_text(&mondrian.plant(&table).unwrap());
        assert!(import(&mondrian, &table, &good).is_ok());

        // Duplicate a leaf row: leaves stop partitioning the table.
        let broken = good.replacen("tnode leaf ", "tnode leaf 0 0 ", 1);
        let reason = import(&mondrian, &table, &broken).err().unwrap();
        assert!(reason.contains("partition"), "{reason}");

        // Out-of-range child link.
        let (before, after) = good.split_once("tnode internal ").unwrap();
        let (_, after) = after.split_once(' ').unwrap();
        let broken = format!("{before}tnode internal 9999 {after}");
        let reason = import(&mondrian, &table, &broken).err().unwrap();
        assert!(reason.contains("out of range"), "{reason}");

        // Trailing garbage after the declared node count, counted in the
        // block head.
        let (head, body) = good.split_once('\n').unwrap();
        let lines: usize = head.strip_prefix("state ").unwrap().parse().unwrap();
        let broken = format!("state {}\n{body}tnode leaf 0\n", lines + 1);
        let reason = import(&mondrian, &table, &broken).err().unwrap();
        assert!(reason.contains("declares"), "{reason}");
        // A head that claims fewer lines than the records take.
        let broken = format!("state {}\n{body}", lines - 1);
        assert!(import(&mondrian, &table, &broken).is_err());

        // A bucket list with one bucket's rows dropped is not a partition.
        let bucketize = strategy_for(
            &Publisher::new()
                .distinct_l_diversity(3)
                .algorithm(Algorithm::Bucketize),
            &table,
        );
        let good = state_text(&bucketize.plant(&table).expect("3-eligible on adult"));
        let mut lines: Vec<&str> = good.lines().collect();
        lines.pop();
        let n = lines.len() - 2;
        let (state, buckets) = (format!("state {}", n + 1), format!("buckets {n}"));
        lines[0] = &state;
        lines[1] = &buckets;
        let reason = import(&bucketize, &table, &(lines.join("\n") + "\n"))
            .err()
            .unwrap();
        assert!(reason.contains("partition"), "{reason}");
    }
}
