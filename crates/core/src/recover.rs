//! Checkpoint and genesis persistence plus crash recovery for the durable
//! [`SessionHub`](crate::SessionHub).
//!
//! A durable tenant's directory holds three files:
//!
//! * `genesis.tbl` — written once at registration: the tenant's name, its
//!   publisher's declarative specs, the full schema (attributes,
//!   hierarchies, the sensitive distance matrix) and the genesis table.
//!   Privacy requirements capture table-derived reference state when they
//!   are instantiated, so recovery **always** re-instantiates them from the
//!   genesis table — never from a later checkpointed table — to reproduce
//!   the live session's requirement bit-for-bit.
//! * `checkpoint.tbl` — rewritten atomically (tmp + fsync + rename + dir
//!   fsync) every [`checkpoint_every`](crate::wal::DurabilityOptions::checkpoint_every)
//!   applied deltas: the version-`K` table, a `strategy <name>` tag, the
//!   strategy's exported state block (one codec per algorithm, dispatched
//!   on the session's [`AnyStrategy`](bgkanon_anon::AnyStrategy)), and a
//!   `priors 0` line. Files written before audit adversaries were
//!   re-derived on demand may carry `prior-model` blocks after that line
//!   (the versioned `bgkanon-knowledge::persist` format); recovery still
//!   parses and validates them, then drops them — the first audit at each
//!   `b′` re-estimates `Adv(b′)` from the recovered table, bit-identically.
//!   Untagged v1/v2 checkpoints predate the strategy layer; their tree block
//!   is byte-identical to the Mondrian strategy's state encoding, so they
//!   still load — as Mondrian sessions.
//! * `wal.log` — the append-only delta log ([`crate::wal`]).
//!
//! Both text files end with a `checksum <fnv1a64>` line over everything
//! before it; a checksum mismatch marks the tenant unrecoverable (a
//! checkpoint is rewritten in place via rename, so unlike the WAL there is
//! no "torn tail" to salvage — the file is either whole or wrong).
//!
//! Recovery per tenant: parse genesis → parse checkpoint (if any) → scan
//! the WAL, truncating a torn tail → resume the session from the
//! checkpoint (or open it fresh on the genesis table) → replay every WAL
//! record above the checkpoint version. Any inconsistency — checksum
//! mismatch, sequence gap, a delta the requirement rejects — reports the
//! tenant unrecoverable rather than serving reconstructed-but-wrong data.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use bgkanon_anon::AnonymizationStrategy;
use bgkanon_data::hierarchy::HierarchyBuilder;
use bgkanon_data::{
    Attribute, AttributeKind, DistanceMatrix, Hierarchy, Parallelism, Schema, Table, TableBuilder,
};
use bgkanon_knowledge::load_model_str;

use crate::publisher::Publisher;
use crate::session::PublishSession;
use crate::strategy;
use crate::tokens::{expect_tag, push_spaced, scan_ints};
use crate::wal::{self, fnv1a64, DurabilityOptions, SyncPolicy, WalError};

/// Genesis-file magic line (v2: columnar table block, one line per
/// attribute code vector).
const GENESIS_MAGIC: &str = "bgkanon-genesis v2";
/// Checkpoint-file magic line (v3: strategy-tagged state block).
const CHECKPOINT_MAGIC_V3: &str = "bgkanon-checkpoint v3";
/// Pre-strategy checkpoint magic (v2: columnar table block, untagged
/// Mondrian tree block) — still loads, as a Mondrian session.
const CHECKPOINT_MAGIC: &str = "bgkanon-checkpoint v2";
/// Pre-columnar genesis magic — files in this format still load (their
/// table block is one `r` line per row).
const GENESIS_MAGIC_V1: &str = "bgkanon-genesis v1";
/// Pre-columnar checkpoint magic — still loads.
const CHECKPOINT_MAGIC_V1: &str = "bgkanon-checkpoint v1";

/// What [`SessionHub::open`](crate::SessionHub::open) found on disk: one
/// entry per tenant directory, recovered or not.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, in directory order.
    pub tenants: Vec<TenantRecovery>,
}

impl RecoveryReport {
    /// Number of tenants recovered and serving.
    pub fn recovered(&self) -> usize {
        self.tenants.iter().filter(|t| t.error.is_none()).count()
    }

    /// The tenants that could **not** be recovered (and are not serving).
    pub fn unrecoverable(&self) -> Vec<&TenantRecovery> {
        self.tenants.iter().filter(|t| t.error.is_some()).collect()
    }

    /// True when every tenant directory recovered.
    pub fn is_clean(&self) -> bool {
        self.tenants.iter().all(|t| t.error.is_none())
    }
}

/// One tenant's recovery outcome.
#[derive(Debug)]
pub struct TenantRecovery {
    /// Tenant name (from its genesis file; the directory name when the
    /// genesis could not be read).
    pub tenant: String,
    /// Version the tenant recovered to (deltas applied since genesis).
    pub version: u64,
    /// Version of the checkpoint recovery started from, if one was used.
    pub from_checkpoint: Option<u64>,
    /// WAL records replayed on top of the starting state.
    pub replayed: usize,
    /// True when a torn final WAL record was detected and discarded.
    pub truncated_tail: bool,
    /// `Some(reason)` when the tenant could not be recovered. An
    /// unrecoverable tenant is **not** registered in the hub: it serves
    /// nothing rather than something wrong.
    pub error: Option<String>,
}

/// A successfully recovered tenant, ready for the hub to install.
pub(crate) struct RecoveredTenant {
    pub(crate) name: String,
    pub(crate) session: PublishSession,
    pub(crate) version: u64,
    pub(crate) from_checkpoint: Option<u64>,
    pub(crate) replayed: usize,
    pub(crate) truncated_tail: bool,
}

// ---------------------------------------------------------------------------
// Small codecs shared by both file formats.
// ---------------------------------------------------------------------------

/// Hex-encode a string's UTF-8 bytes — names and labels are stored this way
/// so the line-oriented format never has to quote whitespace.
fn hex_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decode [`hex_str`] output.
fn unhex_str(tok: &str) -> Result<String, String> {
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

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<T>()
        .map_err(|_| format!("unparseable {what}"))
}

/// Line cursor with positions for error messages.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| format!("unexpected end of file, expected {what}"))
    }

    /// Next line, already split on whitespace, with its first token checked.
    fn record(&mut self, tag: &str) -> Result<Vec<&'a str>, String> {
        let line = self.next(&format!("a `{tag}` line"))?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.first() != Some(&tag) {
            return Err(format!(
                "line {}: expected `{tag}`, got `{line}`",
                self.line_no
            ));
        }
        Ok(toks)
    }

    /// Next `tag` line of exactly `n` codes. `describe` names the line in
    /// the count error; `what` names a code in the parse error.
    fn codes(
        &mut self,
        tag: &str,
        n: usize,
        describe: &str,
        what: &str,
    ) -> Result<Vec<u32>, String> {
        let line = self.next(&format!("a `{tag}` line"))?;
        let rest = expect_tag(line, tag, format_args!("line {}", self.line_no))?;
        let mut codes = Vec::with_capacity(n.min(rest.len()));
        let (count, parsed) = scan_ints(rest, &mut codes);
        if count != n {
            return Err(format!(
                "line {}: {describe} has {count} codes, expected {n}",
                self.line_no
            ));
        }
        if !parsed {
            return Err(format!("unparseable {what}"));
        }
        Ok(codes)
    }
}

/// Verify and strip the trailing `checksum <hex>` line, returning the body.
fn check_trailer<'a>(text: &'a str, what: &str) -> Result<&'a str, String> {
    let idx = text
        .rfind("\nchecksum ")
        .map(|i| i + 1)
        .or_else(|| text.starts_with("checksum ").then_some(0))
        .ok_or_else(|| format!("{what}: missing checksum trailer"))?;
    let body = &text[..idx];
    let stored = text[idx..]
        .trim_end()
        .strip_prefix("checksum ")
        .ok_or_else(|| format!("{what}: malformed checksum trailer"))?;
    let stored =
        u64::from_str_radix(stored, 16).map_err(|_| format!("{what}: unparseable checksum"))?;
    if fnv1a64(body.as_bytes()) != stored {
        return Err(format!("{what}: checksum mismatch"));
    }
    Ok(body)
}

/// Append the `checksum` trailer over everything written so far.
fn push_trailer(out: &mut String) {
    let sum = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
}

/// Write `content` to `dir/name` atomically: tmp file, fsync, rename over
/// the target, fsync the directory.
fn write_atomic(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()
}

/// Directory name for a tenant: the name itself when filesystem-safe, else
/// `x-<hex>`. Names starting with `x-` are always escaped so the two forms
/// never collide; the authoritative name is always read back from the
/// genesis file, so the mapping only has to be injective, not invertible
/// by sight.
pub(crate) fn dir_name_for(tenant: &str) -> String {
    let safe = !tenant.is_empty()
        && !tenant.starts_with('.')
        && !tenant.starts_with("x-")
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if safe {
        tenant.to_owned()
    } else {
        format!("x-{}", hex_str(tenant))
    }
}

// ---------------------------------------------------------------------------
// Table and schema blocks.
// ---------------------------------------------------------------------------

/// The v2 (columnar) table block: `rows n`, then one `col` line per QI
/// attribute carrying that attribute's whole code vector, then one `sens`
/// line. Serialization order matches the in-memory columnar layout, so a
/// checkpoint of a 10M-row table streams each code vector sequentially
/// instead of striding across rows.
fn push_table_block(out: &mut String, table: &Table) {
    let n = table.len();
    let _ = writeln!(out, "rows {n}");
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

/// Parse a table block; `v2` selects the columnar block, `false` the
/// pre-columnar one-`r`-line-per-row form. Both validate every code against
/// the schema through the [`TableBuilder`].
fn parse_table_block(
    cur: &mut Cursor<'_>,
    schema: &Arc<Schema>,
    v2: bool,
) -> Result<Table, String> {
    let head = cur.record("rows")?;
    let n: usize = parse_num(head.get(1).copied(), "row count")?;
    let d = schema.qi_count();
    let mut builder = TableBuilder::new(Arc::clone(schema));
    if v2 {
        let mut cols: Vec<Vec<u32>> = Vec::with_capacity(d);
        for a in 0..d {
            cols.push(cur.codes("col", n, &format!("column {a}"), "qi code")?);
        }
        let sens = cur.codes("sens", n, "sensitive column", "sensitive code")?;
        builder
            .push_chunk(&cols, &sens)
            .map_err(|e| format!("line {}: invalid table: {e}", cur.line_no))?;
    } else {
        let mut qi = vec![0u32; d];
        for _ in 0..n {
            let toks = cur.record("r")?;
            if toks.len() != d + 2 {
                return Err(format!("line {}: row has wrong arity", cur.line_no));
            }
            for (slot, tok) in qi.iter_mut().zip(&toks[1..=d]) {
                *slot = parse_num(Some(tok), "qi code")?;
            }
            let sensitive = parse_num(Some(toks[d + 1]), "sensitive code")?;
            builder
                .push_codes(&qi, sensitive)
                .map_err(|e| format!("line {}: invalid row: {e}", cur.line_no))?;
        }
    }
    builder.build().map_err(|e| format!("invalid table: {e}"))
}

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
fn parse_hierarchy_block(cur: &mut Cursor<'_>) -> Result<Hierarchy, String> {
    let head = cur.record("hierarchy")?;
    let node_count: usize = parse_num(head.get(1).copied(), "hierarchy node count")?;
    if node_count == 0 {
        return Err("hierarchy with zero nodes".into());
    }
    let root_label = unhex_str(head.get(2).copied().ok_or("missing root label")?)?;
    let mut builder = HierarchyBuilder::new(&root_label);
    for expect_id in 1..node_count {
        let toks = cur.record("hnode")?;
        if toks.len() != 4 {
            return Err(format!("line {}: hnode has wrong arity", cur.line_no));
        }
        let parent: usize = parse_num(Some(toks[1]), "hnode parent")?;
        if parent >= expect_id {
            return Err(format!(
                "line {}: hnode parent {parent} not yet defined",
                cur.line_no
            ));
        }
        let label = unhex_str(toks[3])?;
        match toks[2] {
            "leaf" => {
                builder.leaf(parent, &label);
            }
            "internal" => {
                let id = builder.internal(parent, &label);
                if id != expect_id {
                    return Err(format!(
                        "line {}: hierarchy ids diverged during rebuild",
                        cur.line_no
                    ));
                }
            }
            other => {
                return Err(format!(
                    "line {}: unknown hnode kind `{other}`",
                    cur.line_no
                ))
            }
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

fn parse_attr_block(cur: &mut Cursor<'_>) -> Result<Attribute, String> {
    let toks = cur.record("attr")?;
    let name = unhex_str(toks.get(2).copied().ok_or("missing attribute name")?)?;
    match toks.get(1).copied() {
        Some("numeric") => {
            let values = toks[3..]
                .iter()
                .map(|tok| parse_num(Some(tok), "numeric value"))
                .collect::<Result<Vec<f64>, String>>()?;
            Attribute::numeric(&name, values).map_err(|e| format!("invalid attribute: {e}"))
        }
        Some("categorical") => {
            let n_labels: usize = parse_num(toks.get(3).copied(), "label count")?;
            if toks.len() != 4 + n_labels {
                return Err(format!("line {}: label count mismatch", cur.line_no));
            }
            let labels = toks[4..]
                .iter()
                .map(|tok| unhex_str(tok))
                .collect::<Result<Vec<String>, String>>()?;
            let hierarchy = parse_hierarchy_block(cur)?;
            Attribute::categorical(&name, labels, hierarchy)
                .map_err(|e| format!("invalid attribute: {e}"))
        }
        other => Err(format!("unknown attribute kind {other:?}")),
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

fn parse_schema_block(cur: &mut Cursor<'_>) -> Result<Arc<Schema>, String> {
    let head = cur.record("schema")?;
    let d: usize = parse_num(head.get(1).copied(), "qi count")?;
    let mut qi = Vec::new();
    for _ in 0..d {
        qi.push(parse_attr_block(cur)?);
    }
    let sensitive = parse_attr_block(cur)?;
    let sdist_head = cur.record("sdist")?;
    let size: usize = parse_num(sdist_head.get(1).copied(), "distance size")?;
    let mut rows = Vec::new();
    for _ in 0..size {
        let toks = cur.record("sdrow")?;
        if toks.len() != size + 1 {
            return Err(format!("line {}: sdrow has wrong arity", cur.line_no));
        }
        rows.push(
            toks[1..]
                .iter()
                .map(|tok| parse_num(Some(tok), "distance value"))
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
// Genesis file.
// ---------------------------------------------------------------------------

/// Serialize and atomically write a tenant's genesis file.
pub(crate) fn write_genesis(
    dir: &Path,
    tenant: &str,
    publisher: &Publisher,
    table: &Table,
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{GENESIS_MAGIC}");
    let _ = writeln!(out, "tenant {}", hex_str(tenant));
    let specs = publisher.spec_lines();
    let _ = writeln!(out, "specs {}", specs.len());
    for line in &specs {
        let _ = writeln!(out, "{line}");
    }
    push_schema_block(&mut out, table.schema());
    push_table_block(&mut out, table);
    push_trailer(&mut out);
    write_atomic(dir, "genesis.tbl", &out)
}

#[derive(Debug)]
struct Genesis {
    tenant: String,
    publisher: Publisher,
    table: Table,
}

fn parse_genesis(text: &str) -> Result<Genesis, String> {
    let body = check_trailer(text, "genesis")?;
    let mut cur = Cursor::new(body);
    let v2 = match cur.next("the genesis magic")? {
        GENESIS_MAGIC => true,
        GENESIS_MAGIC_V1 => false,
        _ => return Err("genesis: unknown format/version".into()),
    };
    let toks = cur.record("tenant")?;
    let tenant = unhex_str(toks.get(1).copied().ok_or("missing tenant name")?)?;
    let toks = cur.record("specs")?;
    let n_specs: usize = parse_num(toks.get(1).copied(), "spec count")?;
    let mut spec_lines = Vec::new();
    for _ in 0..n_specs {
        spec_lines.push(cur.next("a spec line")?);
    }
    let publisher = Publisher::from_spec_lines(spec_lines).map_err(|e| format!("genesis: {e}"))?;
    let schema = parse_schema_block(&mut cur)?;
    let table = parse_table_block(&mut cur, &schema, v2)?;
    Ok(Genesis {
        tenant,
        publisher,
        table,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint file.
// ---------------------------------------------------------------------------

/// Serialize and atomically write a tenant checkpoint at `version`: the
/// current table and the session strategy's tag and exported state block.
/// No adversary model is persisted (`priors 0`): audits re-derive them.
pub(crate) fn write_checkpoint(
    dir: &Path,
    version: u64,
    session: &PublishSession,
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{CHECKPOINT_MAGIC_V3}");
    let _ = writeln!(out, "version {version}");
    let _ = writeln!(out, "strategy {}", session.strategy().name());
    push_table_block(&mut out, session.table());
    let state_lines = strategy::export_state(session.strategy_state());
    let _ = writeln!(out, "state {}", state_lines.len());
    for line in &state_lines {
        out.push_str(line);
        out.push('\n');
    }
    let _ = writeln!(out, "priors 0");
    push_trailer(&mut out);
    write_atomic(dir, "checkpoint.tbl", &out)
}

struct Checkpoint {
    version: u64,
    /// The strategy tag (v3 files); `None` for untagged v1/v2 files, which
    /// can only resume Mondrian sessions.
    strategy: Option<String>,
    table: Table,
    /// The strategy's state block, verbatim — decoded and validated by
    /// [`strategy::import_state`] against the session's strategy, not
    /// here. For untagged files this is the legacy tree block (including
    /// its `tree <n>` head line), which is byte-identical to the Mondrian
    /// strategy's encoding.
    state_lines: Vec<String>,
}

fn parse_checkpoint(text: &str, schema: &Arc<Schema>) -> Result<Checkpoint, String> {
    let body = check_trailer(text, "checkpoint")?;
    let mut cur = Cursor::new(body);
    let (columnar, tagged) = match cur.next("the checkpoint magic")? {
        CHECKPOINT_MAGIC_V3 => (true, true),
        CHECKPOINT_MAGIC => (true, false),
        CHECKPOINT_MAGIC_V1 => (false, false),
        _ => return Err("checkpoint: unknown format/version".into()),
    };
    let toks = cur.record("version")?;
    let version: u64 = parse_num(toks.get(1).copied(), "checkpoint version")?;
    let strategy = if tagged {
        let toks = cur.record("strategy")?;
        match toks.as_slice() {
            [_, name] => Some((*name).to_owned()),
            _ => return Err("checkpoint: malformed strategy line".into()),
        }
    } else {
        None
    };
    let table = parse_table_block(&mut cur, schema, columnar)?;
    let mut state_lines = Vec::new();
    if tagged {
        let head = cur.record("state")?;
        let n: usize = parse_num(head.get(1).copied(), "state line count")?;
        for _ in 0..n {
            state_lines.push(cur.next("a state line")?.to_owned());
        }
    } else {
        let head = cur.record("tree")?;
        let n: usize = parse_num(head.get(1).copied(), "tree node count")?;
        state_lines.push(format!("tree {n}"));
        for _ in 0..n {
            state_lines.push(cur.next("a tnode line")?.to_owned());
        }
    }
    let head = cur.record("priors")?;
    // Prior-model blocks an older writer persisted: validated, then dropped.
    let n_priors: usize = parse_num(head.get(1).copied(), "prior count")?;
    for _ in 0..n_priors {
        let toks = cur.record("prior-model")?;
        let _: f64 = parse_num(toks.get(1).copied(), "prior bandwidth")?;
        let n_lines: usize = parse_num(toks.get(2).copied(), "prior line count")?;
        let mut block = String::new();
        for _ in 0..n_lines {
            block.push_str(cur.next("a prior-model line")?);
            block.push('\n');
        }
        load_model_str(&block).map_err(|e| format!("checkpoint: embedded prior: {e}"))?;
    }
    Ok(Checkpoint {
        version,
        strategy,
        table,
        state_lines,
    })
}

// ---------------------------------------------------------------------------
// Per-tenant recovery.
// ---------------------------------------------------------------------------

/// Recover one tenant directory. `Err(reason)` means the tenant is
/// unrecoverable: the hub reports it and serves nothing for it.
pub(crate) fn recover_tenant_dir(
    dir: &Path,
    options: &DurabilityOptions,
) -> Result<RecoveredTenant, String> {
    let genesis_text = std::fs::read_to_string(dir.join("genesis.tbl"))
        .map_err(|e| format!("unreadable genesis.tbl: {e}"))?;
    let genesis = parse_genesis(&genesis_text)?;
    let schema = Arc::clone(genesis.table.schema());

    let checkpoint_path = dir.join("checkpoint.tbl");
    let checkpoint = if checkpoint_path.exists() {
        let text = std::fs::read_to_string(&checkpoint_path)
            .map_err(|e| format!("unreadable checkpoint.tbl: {e}"))?;
        Some(parse_checkpoint(&text, &schema)?)
    } else {
        None
    };

    let wal_path = dir.join("wal.log");
    let scan = match wal::scan(&wal_path) {
        Ok(scan) => scan,
        Err(WalError::Io(e)) => return Err(format!("unreadable wal.log: {e}")),
        Err(e @ WalError::Corrupt { .. }) => return Err(e.to_string()),
    };
    if scan.truncated {
        // Torn tail: discard the partial final record before anything can
        // replay or append past it.
        wal::truncate_to(&wal_path, scan.good_len)
            .map_err(|e| format!("could not truncate torn wal.log tail: {e}"))?;
    }
    match &checkpoint {
        Some(ck) if scan.base > ck.version => {
            return Err(format!(
                "wal.log starts at version {} but the checkpoint is older (version {})",
                scan.base, ck.version
            ));
        }
        None if scan.base != 0 => {
            return Err(format!(
                "wal.log starts at version {} with no checkpoint",
                scan.base
            ));
        }
        _ => {}
    }

    // The requirement is instantiated from the GENESIS table in both
    // branches: several privacy models capture table-derived reference
    // state at instantiation time, and the live session instantiated them
    // exactly once, at registration.
    let (mut session, mut version, from_checkpoint) = match checkpoint {
        Some(ck) => {
            let requirement = genesis
                .publisher
                .instantiate(&genesis.table)
                .map_err(|e| format!("could not re-instantiate the requirement: {e}"))?;
            let strategy = genesis
                .publisher
                .strategy(&requirement)
                .map_err(|e| format!("could not rebuild the strategy: {e}"))?;
            match ck.strategy.as_deref() {
                Some(tag) if tag != strategy.name() => {
                    return Err(format!(
                        "checkpoint is tagged strategy `{tag}` but the genesis publisher \
                         selects `{}`",
                        strategy.name()
                    ));
                }
                // Untagged (pre-v3) checkpoints were written by the
                // Mondrian-only engine; their tree block only decodes as a
                // Mondrian state.
                None if strategy.name() != "mondrian" => {
                    return Err(format!(
                        "untagged (pre-v3) checkpoint can only resume a mondrian session, \
                         but the genesis publisher selects `{}`",
                        strategy.name()
                    ));
                }
                _ => {}
            }
            let state = strategy::import_state(&strategy, &ck.table, &ck.state_lines)
                .map_err(|e| format!("checkpoint: {e}"))?;
            let session = PublishSession::resume(
                ck.table,
                requirement,
                Parallelism::Auto,
                strategy,
                state,
                ck.version as usize,
            );
            (session, ck.version, Some(ck.version))
        }
        None => {
            let session = PublishSession::open(&genesis.table, &genesis.publisher)
                .map_err(|e| format!("could not republish the genesis table: {e}"))?;
            (session, 0, None)
        }
    };

    let mut replayed = 0usize;
    for (offset, payload) in &scan.records {
        let (seq, delta) =
            wal::decode_record(payload, &schema, *offset).map_err(|e| e.to_string())?;
        if seq <= version {
            // Pre-checkpoint record left by a crash between checkpointing
            // and log rotation: its effect is already in the checkpoint.
            continue;
        }
        if seq != version + 1 {
            return Err(format!(
                "wal.log sequence gap: expected {}, found {seq}",
                version + 1
            ));
        }
        session
            .apply(&delta)
            .map_err(|e| format!("replay of version {seq} failed: {e}"))?;
        version = seq;
        replayed += 1;
    }

    if options.verify_on_open {
        let fresh = genesis
            .publisher
            .publish(session.table())
            .map_err(|e| format!("verification republish failed: {e}"))?;
        if *session.anonymized() != fresh.anonymized {
            return Err("recovered state differs from a from-scratch publication".into());
        }
    }

    Ok(RecoveredTenant {
        name: genesis.tenant,
        session,
        version,
        from_checkpoint,
        replayed,
        truncated_tail: scan.truncated,
    })
}

/// Create a fresh WAL for a tenant directory (at registration or after a
/// checkpoint rotation). Exposed to the hub via this module so the file
/// names stay in one place.
pub(crate) fn create_wal(
    dir: &Path,
    base: u64,
    sync: SyncPolicy,
) -> std::io::Result<wal::WalWriter> {
    let writer = wal::WalWriter::create(&dir.join("wal.log"), base, sync)?;
    File::open(dir)?.sync_all()?;
    Ok(writer)
}

/// Rotate the WAL after a checkpoint at `version`: write a fresh log with
/// `base = version` at a temporary name, then atomically rename it over
/// `wal.log`. The returned writer's file handle follows the inode through
/// the rename, so appends after rotation land in the new log.
pub(crate) fn rotate_wal(
    dir: &Path,
    version: u64,
    sync: SyncPolicy,
) -> std::io::Result<wal::WalWriter> {
    let tmp = dir.join("wal.log.tmp");
    let writer = wal::WalWriter::create(&tmp, version, sync)?;
    std::fs::rename(&tmp, dir.join("wal.log"))?;
    File::open(dir)?.sync_all()?;
    Ok(writer)
}

/// Reopen an existing (already scanned and, if needed, truncated) WAL for
/// appending.
pub(crate) fn reopen_wal(dir: &Path, sync: SyncPolicy) -> std::io::Result<wal::WalWriter> {
    wal::WalWriter::open_end(&dir.join("wal.log"), sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_anon::AnyStrategy;
    use bgkanon_data::{adult, toy, DeltaBuilder};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("bgkrec-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["", "plain", "with space", "uni 🔒 code", "x-already"] {
            assert_eq!(unhex_str(&hex_str(s)).unwrap(), s);
        }
        assert!(unhex_str("abc").is_err());
        assert!(unhex_str("zz").is_err());
        assert!(unhex_str("4é5").is_err());
    }

    #[test]
    fn dir_names_are_injective_and_safe() {
        assert_eq!(dir_name_for("acme"), "acme");
        assert_eq!(dir_name_for("a.b_c-9"), "a.b_c-9");
        for odd in ["", ".hidden", "has space", "x-evil", "né"] {
            let dir = dir_name_for(odd);
            assert!(dir.starts_with("x-"), "{odd} -> {dir}");
            assert_eq!(unhex_str(&dir[2..]).unwrap(), odd);
        }
    }

    #[test]
    fn genesis_roundtrip_adult() {
        let dir = tmp_dir("genesis");
        let table = adult::generate(60, 5);
        let publisher = Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25);
        write_genesis(&dir, "tenant one", &publisher, &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let genesis = parse_genesis(&text).unwrap();
        assert_eq!(genesis.tenant, "tenant one");
        assert_eq!(genesis.publisher.spec_lines(), publisher.spec_lines());
        assert_eq!(genesis.table.len(), table.len());
        for r in 0..table.len() {
            assert_eq!(genesis.table.qi(r), table.qi(r));
            assert_eq!(genesis.table.sensitive_value(r), table.sensitive_value(r));
        }
        // Schema round-trips to bit-identical distances (hierarchy + matrix).
        let a = table.schema();
        let b = genesis.table.schema();
        assert_eq!(a.qi_count(), b.qi_count());
        for i in 0..a.sensitive_domain_size() as u32 {
            for (x, y) in a
                .sensitive_distance()
                .row(i)
                .iter()
                .zip(b.sensitive_distance().row(i))
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // And the rebuilt pair publishes bit-identically.
        let pa = publisher.publish(&table).unwrap();
        let pb = genesis.publisher.publish(&genesis.table).unwrap();
        for (x, y) in pa.anonymized.groups().iter().zip(pb.anonymized.groups()) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.ranges, y.ranges);
            assert_eq!(x.sensitive_counts, y.sensitive_counts);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn genesis_roundtrip_toy_categorical() {
        // The toy table exercises categorical attributes + hierarchies.
        let dir = tmp_dir("toy");
        let table = toy::hospital_table();
        let publisher = Publisher::new().k_anonymity(3);
        write_genesis(&dir, "toy", &publisher, &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let genesis = parse_genesis(&text).unwrap();
        let pa = publisher.publish(&table).unwrap();
        let pb = genesis.publisher.publish(&genesis.table).unwrap();
        for (x, y) in pa.anonymized.groups().iter().zip(pb.anonymized.groups()) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.ranges, y.ranges);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_genesis_is_rejected() {
        let dir = tmp_dir("corrupt");
        let table = adult::generate(40, 6);
        write_genesis(&dir, "t", &Publisher::new().k_anonymity(3), &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        assert!(parse_genesis(&text).is_ok());
        // Damage one body byte: the checksum catches it.
        let flipped = text.replacen("schema ", "sChema ", 1);
        assert_ne!(flipped, text);
        assert!(parse_genesis(&flipped).unwrap_err().contains("checksum"));
        // Chop the trailer entirely.
        let body = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let no_trailer = &body[..body.rfind("checksum").unwrap()];
        assert!(parse_genesis(no_trailer).unwrap_err().contains("checksum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let dir = tmp_dir("ckpt");
        let table = adult::generate(120, 7);
        let publisher = Publisher::new().k_anonymity(4);
        let mut session = publisher.open(&table).unwrap();
        session.audit_against(0.3, 0.2).unwrap();
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        b.delete(3).delete(57);
        b.insert_codes(&table.qi(8), table.sensitive_value(8))
            .unwrap();
        session.apply(&b.build()).unwrap();
        write_checkpoint(&dir, 1, &session).unwrap();

        let text = std::fs::read_to_string(dir.join("checkpoint.tbl")).unwrap();
        let ck = parse_checkpoint(&text, table.schema()).unwrap();
        assert_eq!(ck.version, 1);
        assert_eq!(ck.strategy.as_deref(), Some("mondrian"));
        // An audited session still persists no adversary model.
        assert!(text.contains("\npriors 0\n"));
        let requirement = publisher.instantiate(&table).unwrap();
        let strategy = publisher.strategy(&requirement).unwrap();
        let state = strategy::import_state(&strategy, &ck.table, &ck.state_lines).unwrap();
        let mut resumed =
            PublishSession::resume(ck.table, requirement, Parallelism::Auto, strategy, state, 1);
        // Publication bit-identical…
        for (x, y) in session
            .anonymized()
            .groups()
            .iter()
            .zip(resumed.anonymized().groups())
        {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.ranges, y.ranges);
            assert_eq!(x.sensitive_counts, y.sensitive_counts);
        }
        // …and `Adv(b′)`, re-derived on the resumed session's first audit,
        // audits identically to the writer's carried entry.
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        b.delete(10);
        let delta = b.build();
        session.apply(&delta).unwrap();
        resumed.apply(&delta).unwrap();
        let ra = session.audit_against(0.3, 0.2).unwrap();
        let rb = resumed.audit_against(0.3, 0.2).unwrap();
        assert_eq!(ra.worst_case.to_bits(), rb.worst_case.to_bits());
        assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
        for (x, y) in ra.risks.iter().zip(&rb.risks) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the on-disk bytes of each strategy's durable tenant: genesis
    /// plus the checkpoint taken after two deltas. A codec or writer change
    /// that alters a single byte of either file fails here, so format
    /// changes are deliberate (and come with a magic bump).
    #[test]
    fn checkpoint_and_genesis_bytes_are_pinned_per_strategy() {
        use crate::publisher::Algorithm;
        use crate::SessionHub;
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let cases = [
            (
                Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25),
                0xea59_1843_c1a5_b3b6_u64,
                0x66e6_3191_a617_f68f_u64,
            ),
            (
                Publisher::new()
                    .distinct_l_diversity(3)
                    .algorithm(Algorithm::Bucketize),
                0xbc6c_4721_eb3f_24d1,
                0x33d0_ef67_89c1_38b1,
            ),
            (
                Publisher::new()
                    .k_anonymity(4)
                    .algorithm(Algorithm::FullDomain),
                0x9e56_0ada_0766_42e9,
                0x0deb_b2f1_c141_a289,
            ),
        ];
        let table = adult::generate(150, 17);
        for (publisher, genesis_digest, checkpoint_digest) in cases {
            let dir = tmp_dir("pinned");
            let (hub, report): (SessionHub, _) = SessionHub::open_with(&dir, opts).unwrap();
            assert!(report.is_clean());
            hub.register("t", &table, &publisher).unwrap();
            for step in 0..2u64 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step as usize * 13).delete(40 + step as usize);
                let donors = adult::generate(3, 400 + step);
                for r in 0..3 {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                hub.apply("t", &b.build()).unwrap();
            }
            drop(hub);
            let tenant_dir = dir.join(dir_name_for("t"));
            let genesis = std::fs::read(tenant_dir.join("genesis.tbl")).unwrap();
            let checkpoint = std::fs::read(tenant_dir.join("checkpoint.tbl")).unwrap();
            let name = publisher.spec_lines().join("; ");
            assert!(
                checkpoint.starts_with(format!("{CHECKPOINT_MAGIC_V3}\nversion 2\n").as_bytes())
            );
            assert_eq!(fnv1a64(&genesis), genesis_digest, "{name} genesis bytes");
            assert_eq!(
                fnv1a64(&checkpoint),
                checkpoint_digest,
                "{name} checkpoint bytes"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Rewrite a current-format persistence file into the pre-columnar v1
    /// format: v1 magic line, one `r` line per row instead of the
    /// `col`/`sens` block, no strategy tag or `state` head (checkpoints),
    /// fresh checksum trailer. This is exactly the file shape the format
    /// bumps promise to keep loading.
    fn downgrade_to_v1(path: &Path) {
        let text = std::fs::read_to_string(path).unwrap();
        let body = check_trailer(&text, "file").unwrap();
        let mut lines = body.lines();
        let mut out = String::new();
        match lines.next().unwrap() {
            m if m == GENESIS_MAGIC => out.push_str(GENESIS_MAGIC_V1),
            m if m == CHECKPOINT_MAGIC_V3 => out.push_str(CHECKPOINT_MAGIC_V1),
            other => panic!("not a current-format file: magic `{other}`"),
        }
        out.push('\n');
        while let Some(line) = lines.next() {
            // Strategy tag and state-block head are v3-only records; the
            // Mondrian state lines they frame are the legacy tree block.
            if line.starts_with("strategy ") || line.starts_with("state ") {
                continue;
            }
            out.push_str(line);
            out.push('\n');
            if let Some(rest) = line.strip_prefix("rows ") {
                let n: usize = rest.trim().parse().unwrap();
                // The columnar block: d `col` lines then one `sens` line.
                let mut cols: Vec<Vec<u32>> = Vec::new();
                let sens: Vec<u32> = loop {
                    let l = lines.next().unwrap();
                    let codes = |body: &str| -> Vec<u32> {
                        body.split_whitespace()
                            .map(|t| t.parse().unwrap())
                            .collect()
                    };
                    if let Some(c) = l.strip_prefix("col") {
                        cols.push(codes(c));
                    } else if let Some(s) = l.strip_prefix("sens") {
                        break codes(s);
                    } else {
                        panic!("unexpected line inside table block: `{l}`");
                    }
                };
                assert_eq!(sens.len(), n);
                for r in 0..n {
                    out.push('r');
                    for col in &cols {
                        let _ = write!(out, " {}", col[r]);
                    }
                    let _ = writeln!(out, " {}", sens[r]);
                }
            }
        }
        push_trailer(&mut out);
        std::fs::write(path, out).unwrap();
    }

    /// Rewrite a v3 checkpoint into the pre-strategy v2 format: v2 magic,
    /// no `strategy` tag, no `state` head — the columnar table block and
    /// the raw tree block as the Mondrian-only engine wrote them.
    fn downgrade_checkpoint_to_v2(path: &Path) {
        let text = std::fs::read_to_string(path).unwrap();
        let body = check_trailer(&text, "file").unwrap();
        let mut lines = body.lines();
        let mut out = String::new();
        assert_eq!(lines.next().unwrap(), CHECKPOINT_MAGIC_V3);
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        for line in lines {
            if line.starts_with("strategy ") || line.starts_with("state ") {
                continue;
            }
            out.push_str(line);
            out.push('\n');
        }
        push_trailer(&mut out);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn v2_table_block_is_columnar_and_v1_still_parses() {
        let dir = tmp_dir("v1fmt");
        let table = adult::generate(80, 9);
        let publisher = Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25);
        write_genesis(&dir, "t", &publisher, &table).unwrap();
        let path = dir.join("genesis.tbl");

        // The v2 file serializes one line per attribute code vector.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(GENESIS_MAGIC));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("col ")).count(),
            table.qi_count()
        );
        assert_eq!(text.lines().filter(|l| l.starts_with("sens ")).count(), 1);
        assert!(!text.lines().any(|l| l.starts_with("r ")));
        let v2 = parse_genesis(&text).unwrap();
        assert_eq!(v2.table.len(), table.len());

        // The same content downgraded to the per-row v1 shape still loads
        // and decodes identical codes.
        downgrade_to_v1(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(GENESIS_MAGIC_V1));
        assert!(!text.lines().any(|l| l.starts_with("col ")));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("r ")).count(),
            table.len()
        );
        let v1 = parse_genesis(&text).unwrap();
        assert_eq!(v1.table.len(), table.len());
        for r in 0..table.len() {
            assert_eq!(v1.table.qi(r), table.qi(r));
            assert_eq!(v1.table.sensitive_value(r), table.sensitive_value(r));
        }
        assert_eq!(v1.publisher.spec_lines(), publisher.spec_lines());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_checkpoint_recovers_into_columnar_hub() {
        use crate::SessionHub;
        let dir = tmp_dir("v1hub");
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let table = adult::generate(150, 11);
        let publisher = Publisher::new().k_anonymity(4);
        let (expected_groups, expected_version) = {
            let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
            assert!(report.is_clean());
            hub.register("t", &table, &publisher).unwrap();
            // Three deltas: the checkpoint lands at version 2, the WAL
            // keeps version 3 — recovery exercises checkpoint + replay.
            let mut snap = hub.snapshot("t").unwrap();
            for step in 0..3u64 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step as usize * 7);
                let donors = adult::generate(2, 100 + step);
                for r in 0..2 {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                snap = hub.apply("t", &b.build()).unwrap();
            }
            assert_eq!(snap.version(), 3);
            let groups: Vec<_> = snap
                .anonymized()
                .groups()
                .iter()
                .map(|g| (g.rows.clone(), g.ranges.clone(), g.sensitive_counts.clone()))
                .collect();
            (groups, snap.version())
        };

        // Rewrite the tenant's files into the pre-columnar v1 format, as a
        // hub shut down before the format bump would have left them.
        let tenant_dir = dir.join(dir_name_for("t"));
        downgrade_to_v1(&tenant_dir.join("genesis.tbl"));
        downgrade_to_v1(&tenant_dir.join("checkpoint.tbl"));

        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        assert!(report.is_clean(), "{:?}", report.unrecoverable());
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].from_checkpoint, Some(2));
        assert_eq!(report.tenants[0].replayed, 1);
        let snap = hub.snapshot("t").unwrap();
        assert_eq!(snap.version(), expected_version);
        // The recovered session serves the exact publication the
        // pre-downgrade hub served.
        let groups = snap.anonymized().groups();
        assert_eq!(groups.len(), expected_groups.len());
        for (g, (rows, ranges, counts)) in groups.iter().zip(&expected_groups) {
            assert_eq!(&g.rows, rows);
            assert_eq!(&g.ranges, ranges);
            assert_eq!(&g.sensitive_counts, counts);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_checkpoint_loads_as_an_untagged_mondrian_session() {
        use crate::SessionHub;
        let dir = tmp_dir("v2ckpt");
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let table = adult::generate(150, 12);
        let publisher = Publisher::new().k_anonymity(4);
        let expected_groups = {
            let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
            assert!(report.is_clean());
            hub.register("t", &table, &publisher).unwrap();
            let mut snap = hub.snapshot("t").unwrap();
            for step in 0..3u64 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step as usize * 5);
                let donors = adult::generate(2, 200 + step);
                for r in 0..2 {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                snap = hub.apply("t", &b.build()).unwrap();
            }
            assert_eq!(snap.version(), 3);
            snap.anonymized()
                .groups()
                .iter()
                .map(|g| (g.rows.clone(), g.ranges.clone(), g.sensitive_counts.clone()))
                .collect::<Vec<_>>()
        };

        // Strip the checkpoint back to the pre-strategy v2 shape (the
        // genesis file stays as-is — its format did not change).
        let tenant_dir = dir.join(dir_name_for("t"));
        downgrade_checkpoint_to_v2(&tenant_dir.join("checkpoint.tbl"));

        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        assert!(report.is_clean(), "{:?}", report.unrecoverable());
        assert_eq!(report.tenants[0].from_checkpoint, Some(2));
        assert_eq!(report.tenants[0].replayed, 1);
        let snap = hub.snapshot("t").unwrap();
        let groups = snap.anonymized().groups();
        assert_eq!(groups.len(), expected_groups.len());
        for (g, (rows, ranges, counts)) in groups.iter().zip(&expected_groups) {
            assert_eq!(&g.rows, rows);
            assert_eq!(&g.ranges, ranges);
            assert_eq!(&g.sensitive_counts, counts);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-checksum helper: corrupt a file body semantically but keep the
    /// trailer valid, proving the *semantic* validation rejects it.
    fn rewrap(body: &str) -> String {
        let mut s = body.to_owned();
        push_trailer(&mut s);
        s
    }

    #[test]
    fn malformed_checkpoint_trees_are_rejected_not_panicking() {
        let dir = tmp_dir("badtree");
        let table = adult::generate(60, 8);
        let publisher = Publisher::new().k_anonymity(4);
        let session = publisher.open(&table).unwrap();
        write_checkpoint(&dir, 0, &session).unwrap();
        let good = std::fs::read_to_string(dir.join("checkpoint.tbl")).unwrap();
        // Parsing captures the state block verbatim; the import step is
        // what must reject it, without panicking.
        let import = |text: &str| -> Result<(), String> {
            let ck = parse_checkpoint(text, table.schema())?;
            let requirement = publisher.instantiate(&table).unwrap();
            let strategy = publisher.strategy(&requirement).unwrap();
            strategy::import_state(&strategy, &ck.table, &ck.state_lines).map(drop)
        };
        assert!(import(&good).is_ok());
        let body = check_trailer(&good, "checkpoint").unwrap();
        // Duplicate a leaf row.
        let broken = rewrap(&body.replacen("tnode leaf ", "tnode leaf 0 0 ", 1));
        match import(&broken) {
            Err(reason) => assert!(reason.contains("partition"), "{reason}"),
            Ok(_) => panic!("duplicated leaf row accepted"),
        }
        // Point a child link out of range.
        let broken = rewrap(&body.replacen("tnode internal ", "tnode internal 9999 ", 1));
        assert!(import(&broken).is_err());
        // A checkpoint tagged with a strategy the publisher does not select
        // is rejected by recovery (exercised through the full tenant-dir
        // path in the recovery integration tests).
        let broken = rewrap(&body.replacen("strategy mondrian", "strategy bucketize", 1));
        let ck = parse_checkpoint(&broken, table.schema()).unwrap();
        assert_eq!(ck.strategy.as_deref(), Some("bucketize"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn genesis_with_an_invalid_bandwidth_is_unrecoverable_not_panicking() {
        use crate::SessionHub;
        let dir = tmp_dir("badspec");
        let opts = DurabilityOptions::default();
        let table = adult::generate(60, 14);
        {
            let (hub, _) = SessionHub::open_with(&dir, opts).unwrap();
            let publisher = Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25);
            hub.register("t", &table, &publisher).unwrap();
        }
        // Swap the spec's bandwidth for zero, with a valid checksum: the
        // spec line parses, and re-instantiating it must fail typed.
        let path = dir.join(dir_name_for("t")).join("genesis.tbl");
        let text = std::fs::read_to_string(&path).unwrap();
        let body = check_trailer(&text, "genesis").unwrap();
        let body: String = body
            .lines()
            .map(|line| match line.strip_prefix("spec bt-uniform ") {
                Some(rest) => {
                    let t = rest.split_whitespace().nth(1).unwrap();
                    format!("spec bt-uniform 0e0 {t}\n")
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert!(body.contains("\nspec bt-uniform 0e0 "));
        std::fs::write(&path, rewrap(&body)).unwrap();

        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        let failed = report.unrecoverable();
        assert_eq!(failed.len(), 1);
        let reason = failed[0].error.as_deref().unwrap();
        assert!(reason.contains("bandwidth"), "{reason}");
        assert!(!hub.contains("t"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Splice a `priors 1` block — the persisted `Adv(b′)` model an older
    /// writer emitted — into a v3 checkpoint, with a fresh checksum.
    fn splice_prior_block(path: &Path, b_prime: f64, block: &str) {
        let text = std::fs::read_to_string(path).unwrap();
        let body = check_trailer(&text, "checkpoint").unwrap();
        assert!(body.ends_with("priors 0\n"), "writers emit no prior blocks");
        let mut out = body[..body.len() - "priors 0\n".len()].to_owned();
        let _ = writeln!(out, "priors 1");
        let _ = writeln!(out, "prior-model {b_prime:.17e} {}", block.lines().count());
        out.push_str(block);
        if !block.ends_with('\n') {
            out.push('\n');
        }
        push_trailer(&mut out);
        std::fs::write(path, out).unwrap();
    }

    #[test]
    fn v3_checkpoint_with_a_persisted_prior_recovers_and_audits_identically() {
        use crate::SessionHub;
        use bgkanon_knowledge::{save_model_string, Adversary, Bandwidth, PriorEstimator};
        use bgkanon_privacy::Auditor;
        use bgkanon_stats::SmoothedJs;
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let table = adult::generate(160, 13);
        let publisher = Publisher::new().k_anonymity(4);
        let b_prime = 0.3;
        let write = |dir: &Path| {
            let (hub, report) = SessionHub::open_with(dir, opts).unwrap();
            assert!(report.is_clean());
            hub.register("t", &table, &publisher).unwrap();
            for step in 0..3u64 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step as usize * 11);
                let donors = adult::generate(2, 300 + step);
                for r in 0..2 {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                hub.apply("t", &b.build()).unwrap();
            }
            hub.audit_against("t", b_prime, 0.2).unwrap()
        };

        // The checkpoint (version 2) gains the model an older writer would
        // have persisted: `Adv(b′)` estimated from the checkpointed table.
        let dir = tmp_dir("v3prior");
        let written = write(&dir);
        let path = dir.join(dir_name_for("t")).join("checkpoint.tbl");
        let text = std::fs::read_to_string(&path).unwrap();
        let ck = parse_checkpoint(&text, table.schema()).unwrap();
        assert_eq!(ck.version, 2);
        let bandwidth = Bandwidth::uniform(b_prime, table.qi_count()).unwrap();
        let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
        let model = estimator.estimate(&ck.table);
        splice_prior_block(&path, b_prime, &save_model_string(&model));
        assert!(parse_checkpoint(&std::fs::read_to_string(&path).unwrap(), table.schema()).is_ok());

        // Recovery drops the block; the first audit re-derives `Adv(b′)`
        // and matches the writing hub and a fresh auditor bit for bit.
        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        assert!(report.is_clean(), "{:?}", report.unrecoverable());
        assert_eq!(report.tenants[0].from_checkpoint, Some(2));
        let recovered = hub.audit_against("t", b_prime, 0.2).unwrap();
        let snap = hub.snapshot("t").unwrap();
        let fresh = Auditor::new(
            Arc::new(Adversary::kernel(snap.table(), bandwidth)),
            Arc::new(SmoothedJs::paper_default(
                snap.table().schema().sensitive_distance(),
            )),
        )
        .report(snap.table(), &snap.anonymized().row_groups(), 0.2);
        for reference in [&written, &fresh] {
            assert_eq!(recovered.risks.len(), reference.risks.len());
            for (x, y) in recovered.risks.iter().zip(&reference.risks) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(
                recovered.worst_case.to_bits(),
                reference.worst_case.to_bits()
            );
            assert_eq!(recovered.vulnerable, reference.vulnerable);
        }
        drop(hub);
        std::fs::remove_dir_all(&dir).ok();

        // The block is still validated: a damaged model line makes the
        // checkpoint — and with it the tenant — unrecoverable.
        let dir = tmp_dir("v3badprior");
        write(&dir);
        let path = dir.join(dir_name_for("t")).join("checkpoint.tbl");
        let block = save_model_string(&model).replacen("prior ", "prior x", 1);
        splice_prior_block(&path, b_prime, &block);
        let (hub, report) = SessionHub::open_with(&dir, opts).unwrap();
        assert_eq!(report.unrecoverable().len(), 1);
        assert!(!hub.contains("t"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Valid files the fuzz properties mutate: for each strategy a genesis
    /// and a v3 checkpoint (with the strategy that imports its state), plus
    /// the legacy shapes — a v1 genesis, v1 and v2 checkpoints and a v3
    /// checkpoint carrying a `prior-model` block.
    struct FuzzSeeds {
        schema: Arc<Schema>,
        genesis: Vec<String>,
        checkpoints: Vec<(String, AnyStrategy)>,
    }

    fn fuzz_seeds() -> &'static FuzzSeeds {
        use crate::publisher::Algorithm;
        use bgkanon_knowledge::{save_model_string, Bandwidth, PriorEstimator};
        static SEEDS: std::sync::OnceLock<FuzzSeeds> = std::sync::OnceLock::new();
        SEEDS.get_or_init(|| {
            let table = adult::generate(60, 21);
            let publishers = [
                Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25),
                Publisher::new()
                    .distinct_l_diversity(3)
                    .algorithm(Algorithm::Bucketize),
                Publisher::new()
                    .k_anonymity(4)
                    .algorithm(Algorithm::FullDomain),
            ];
            let mut genesis = Vec::new();
            let mut checkpoints = Vec::new();
            for (i, publisher) in publishers.iter().enumerate() {
                let dir = tmp_dir("fuzzseed");
                write_genesis(&dir, "t", publisher, &table).unwrap();
                let session = publisher.open(&table).unwrap();
                write_checkpoint(&dir, 3, &session).unwrap();
                let strategy = || {
                    let requirement = publisher.instantiate(&table).unwrap();
                    publisher.strategy(&requirement).unwrap()
                };
                let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
                genesis.push(read("genesis.tbl"));
                checkpoints.push((read("checkpoint.tbl"), strategy()));
                if i == 0 {
                    let model = PriorEstimator::new(
                        Arc::clone(table.schema()),
                        Bandwidth::uniform(0.3, table.qi_count()).unwrap(),
                    )
                    .estimate(&table);
                    splice_prior_block(
                        &dir.join("checkpoint.tbl"),
                        0.3,
                        &save_model_string(&model),
                    );
                    checkpoints.push((read("checkpoint.tbl"), strategy()));
                    write_checkpoint(&dir, 3, &session).unwrap();
                    downgrade_checkpoint_to_v2(&dir.join("checkpoint.tbl"));
                    checkpoints.push((read("checkpoint.tbl"), strategy()));
                    write_checkpoint(&dir, 3, &session).unwrap();
                    downgrade_to_v1(&dir.join("checkpoint.tbl"));
                    checkpoints.push((read("checkpoint.tbl"), strategy()));
                    downgrade_to_v1(&dir.join("genesis.tbl"));
                    genesis.push(read("genesis.tbl"));
                }
                std::fs::remove_dir_all(&dir).ok();
            }
            for text in &genesis {
                parse_genesis(text).unwrap();
            }
            for (text, strategy) in &checkpoints {
                let ck = parse_checkpoint(text, table.schema()).unwrap();
                strategy::import_state(strategy, &ck.table, &ck.state_lines).unwrap();
            }
            FuzzSeeds {
                schema: Arc::clone(table.schema()),
                genesis,
                checkpoints,
            }
        })
    }

    /// Feed `text` to every parser a durable tenant's files go through.
    fn parse_everything(text: &str, seeds: &FuzzSeeds, strategy: &AnyStrategy) {
        let _ = parse_genesis(text);
        if let Ok(ck) = parse_checkpoint(text, &seeds.schema) {
            let _ = strategy::import_state(strategy, &ck.table, &ck.state_lines);
        }
    }

    /// Regression: a genesis spec the requirement constructors reject with
    /// a panic (`k 0`, found by the spec-line fuzz property) is a parse
    /// error, so recovery reports the tenant instead of crashing.
    #[test]
    fn genesis_with_out_of_range_spec_is_rejected() {
        let dir = tmp_dir("kzero");
        let table = adult::generate(60, 21);
        write_genesis(&dir, "t", &Publisher::new().k_anonymity(4), &table).unwrap();
        let text = std::fs::read_to_string(dir.join("genesis.tbl")).unwrap();
        let body = check_trailer(&text, "genesis").unwrap();
        let err = parse_genesis(&rewrap(&body.replace("spec k 4", "spec k 0"))).unwrap_err();
        assert!(err.contains("k out of range"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(384))]

        /// Byte edits of valid genesis and checkpoint files (v1–v3, every
        /// strategy, a persisted prior block), re-checksummed so the edits
        /// reach the block parsers, give a value or an error — never a panic.
        #[test]
        fn mutated_durable_files_never_panic(
            pick in 0usize..64,
            edits in proptest::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..6),
            rechecksum in 0u8..4,
        ) {
            let seeds = fuzz_seeds();
            let files: Vec<(&str, &AnyStrategy)> = seeds
                .genesis
                .iter()
                .map(|g| (g.as_str(), &seeds.checkpoints[0].1))
                .chain(seeds.checkpoints.iter().map(|(c, s)| (c.as_str(), s)))
                .collect();
            let (text, strategy) = files[pick % files.len()];
            let body = check_trailer(text, "seed").unwrap();
            let mutated = crate::fuzz::mutate(body, &edits);
            let text = if rechecksum == 0 { mutated } else { rewrap(&mutated) };
            parse_everything(&text, seeds, strategy);
        }

        /// Byte edits of a valid state block, fed straight to every
        /// strategy's importer against the checkpointed table.
        #[test]
        fn mutated_state_blocks_never_panic(
            pick in 0usize..64,
            edits in proptest::collection::vec((0usize..1 << 20, 0u8..=255, 0u8..3), 1..6),
        ) {
            let seeds = fuzz_seeds();
            let (text, _) = &seeds.checkpoints[pick % seeds.checkpoints.len()];
            let ck = parse_checkpoint(text, &seeds.schema).unwrap();
            let block = ck.state_lines.join("\n");
            let lines: Vec<String> =
                crate::fuzz::mutate(&block, &edits).lines().map(str::to_owned).collect();
            for (_, strategy) in &seeds.checkpoints {
                let _ = strategy::import_state(strategy, &ck.table, &lines);
            }
        }

        /// Arbitrary bytes, with and without a valid checksum trailer.
        #[test]
        fn arbitrary_bytes_never_panic(noise in proptest::collection::vec(0u8..=255, 0..256)) {
            let seeds = fuzz_seeds();
            let text = String::from_utf8_lossy(&noise).into_owned();
            for text in [text.clone(), rewrap(&text)] {
                parse_everything(&text, seeds, &seeds.checkpoints[0].1);
                let lines: Vec<String> = text.lines().map(str::to_owned).collect();
                for (text, strategy) in &seeds.checkpoints {
                    let ck = parse_checkpoint(text, &seeds.schema).unwrap();
                    let _ = strategy::import_state(strategy, &ck.table, &lines);
                }
            }
        }
    }
}
