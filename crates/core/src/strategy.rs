//! The checkpoint codec for a session's strategy state: what a durable
//! checkpoint persists between the table block and the prior models.
//!
//! [`export_state`] writes an [`AnyState`] as whitespace-tokenized lines
//! (one logical record per line, no newlines inside a line);
//! [`import_state`] reads them back against the checkpointed table for the
//! session's [`AnyStrategy`]. Both dispatch to one private codec per
//! algorithm: Mondrian's tree, bucketization's bucket list and full
//! domain's level frontier. The checkpoint tags the block with the
//! strategy's [`name()`](bgkanon_anon::AnonymizationStrategy::name) so
//! recovery rebuilds the right state. Mondrian's encoding is byte-identical
//! to the pre-strategy v2 checkpoint tree block, which is how untagged
//! v1/v2 files keep loading (as Mondrian) after the format bump.
//!
//! Import is **validating**: a checkpoint is external input, so each
//! decoder proves the decoded state is a partition of the checkpointed
//! table (and, where cheap, that it satisfies the strategy's own
//! invariant) before handing it to the session — corruption surfaces as a
//! tenant's recovery error, never as a panic or a wrong publication.

use bgkanon_anon::{
    AnyState, AnyStrategy, BucketizeState, FullDomainState, PartitionTree, SplitDecision,
    TreeNodeRecord,
};
use bgkanon_data::Table;

/// Serialize `state` as checkpoint lines.
pub(crate) fn export_state(state: &AnyState) -> Vec<String> {
    match state {
        AnyState::Mondrian(tree) => export_tree(tree),
        AnyState::Bucketize(buckets) => export_buckets(buckets),
        AnyState::FullDomain(frontier) => export_frontier(frontier),
    }
}

/// Rebuild `strategy`'s state from [`export_state`] lines against the
/// checkpointed `table`, validating that the lines encode a well-formed
/// state *for that table*. Errors describe the corruption; recovery
/// surfaces them as the tenant's unrecoverability cause.
pub(crate) fn import_state(
    strategy: &AnyStrategy,
    table: &Table,
    lines: &[String],
) -> Result<AnyState, String> {
    match strategy {
        AnyStrategy::Mondrian(_) => import_tree(table, lines).map(AnyState::Mondrian),
        AnyStrategy::Bucketize(b) => import_buckets(b.l(), table, lines).map(AnyState::Bucketize),
        AnyStrategy::FullDomain(_) => import_frontier(table, lines).map(AnyState::FullDomain),
    }
}

// ---------------------------------------------------------------------------
// Line-codec helpers shared by the per-algorithm codecs.
// ---------------------------------------------------------------------------

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<T>()
        .map_err(|_| format!("unparseable {what}"))
}

/// Split `lines[idx]` on whitespace and check its tag token.
fn record<'a>(lines: &'a [String], idx: usize, tag: &str) -> Result<Vec<&'a str>, String> {
    let line = lines
        .get(idx)
        .ok_or_else(|| format!("state block ended early, expected a `{tag}` line"))?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.first() != Some(&tag) {
        return Err(format!(
            "state line {}: expected `{tag}`, got `{line}`",
            idx + 1
        ));
    }
    Ok(toks)
}

/// Check that `groups` is a partition of `0..table.len()` with no empty
/// part — the common safety bar every imported state must clear before the
/// session serves it.
fn check_partition(groups: &[Vec<usize>], table: &Table, what: &str) -> Result<(), String> {
    let mut seen = vec![false; table.len()];
    for rows in groups {
        if rows.is_empty() {
            return Err(format!("{what}: empty group"));
        }
        for &row in rows {
            if row >= table.len() || seen[row] {
                return Err(format!("{what}: groups do not partition the table"));
            }
            seen[row] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(format!("{what}: groups do not partition the table"));
    }
    Ok(())
}

fn expect_consumed(lines: &[String], consumed: usize) -> Result<(), String> {
    if lines.len() != consumed {
        return Err(format!(
            "state block has {} trailing line(s)",
            lines.len() - consumed
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mondrian: the tree codec (byte-identical to the v2 checkpoint block).
// ---------------------------------------------------------------------------

/// Semantic validation of an exported tree against its table, so malformed
/// checkpoints surface as recovery errors instead of panics inside
/// [`PartitionTree::from_exported`] (which documents that it panics on
/// inputs this function rejects).
fn validate_tree_records(records: &[TreeNodeRecord], table: &Table) -> Result<(), String> {
    if records.is_empty() {
        return Err("empty tree".into());
    }
    let n = records.len();
    let d = table.qi_count();
    let mut referenced = vec![0usize; n];
    let mut leaves: Vec<Vec<usize>> = Vec::new();
    for record in records {
        match record {
            TreeNodeRecord::Internal {
                decision,
                left,
                right,
                ..
            } => {
                for &child in &[*left, *right] {
                    if child == 0 || child >= n {
                        return Err("tree child link out of range".into());
                    }
                    referenced[child] += 1;
                }
                if decision.dim >= d || decision.attempts.iter().any(|&a| a >= d) {
                    return Err("split dimension out of range".into());
                }
            }
            TreeNodeRecord::Leaf { rows } => leaves.push(rows.clone()),
        }
    }
    check_partition(&leaves, table, "tree leaves").map_err(|e| e.replace("groups", "leaves"))?;
    if referenced[1..].iter().any(|&r| r != 1) {
        return Err("tree links are not a tree".into());
    }
    if let TreeNodeRecord::Internal { size, .. } = &records[0] {
        if *size != table.len() {
            return Err("root size disagrees with the table".into());
        }
    }
    Ok(())
}

fn export_tree(state: &PartitionTree) -> Vec<String> {
    let records = state.export_records();
    let mut lines = Vec::with_capacity(records.len() + 1);
    lines.push(format!("tree {}", records.len()));
    for record in &records {
        match record {
            TreeNodeRecord::Internal {
                decision,
                left,
                right,
                size,
            } => {
                let mut line = format!(
                    "tnode internal {left} {right} {size} {} {} {}",
                    decision.dim,
                    decision.median,
                    u8::from(decision.le_mode)
                );
                for &dim in &decision.attempts {
                    line.push_str(&format!(" {dim}"));
                }
                lines.push(line);
            }
            TreeNodeRecord::Leaf { rows } => {
                let mut line = String::from("tnode leaf");
                for &row in rows {
                    line.push_str(&format!(" {row}"));
                }
                lines.push(line);
            }
        }
    }
    lines
}

fn import_tree(table: &Table, lines: &[String]) -> Result<PartitionTree, String> {
    let head = record(lines, 0, "tree")?;
    let node_count: usize = parse_num(head.get(1).copied(), "tree node count")?;
    let mut records = Vec::with_capacity(node_count);
    for i in 0..node_count {
        let toks = record(lines, 1 + i, "tnode")?;
        match toks.get(1).copied() {
            Some("internal") => {
                if toks.len() < 8 {
                    return Err(format!("state line {}: internal node too short", i + 2));
                }
                records.push(TreeNodeRecord::Internal {
                    left: parse_num(Some(toks[2]), "left child")?,
                    right: parse_num(Some(toks[3]), "right child")?,
                    size: parse_num(Some(toks[4]), "node size")?,
                    decision: SplitDecision {
                        dim: parse_num(Some(toks[5]), "split dim")?,
                        median: parse_num(Some(toks[6]), "split median")?,
                        le_mode: match toks[7] {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("state line {}: bad le_mode", i + 2)),
                        },
                        attempts: toks[8..]
                            .iter()
                            .map(|tok| parse_num(Some(tok), "attempt dim"))
                            .collect::<Result<Vec<usize>, String>>()?,
                    },
                });
            }
            Some("leaf") => {
                records.push(TreeNodeRecord::Leaf {
                    rows: toks[2..]
                        .iter()
                        .map(|tok| parse_num(Some(tok), "leaf row"))
                        .collect::<Result<Vec<usize>, String>>()?,
                });
            }
            other => {
                return Err(format!(
                    "state line {}: unknown tnode kind {other:?}",
                    i + 2
                ))
            }
        }
    }
    expect_consumed(lines, 1 + node_count)?;
    validate_tree_records(&records, table)?;
    Ok(PartitionTree::from_exported(table, records))
}

// ---------------------------------------------------------------------------
// Bucketize: `buckets N` + one `bucket <rows…>` line per bucket.
// ---------------------------------------------------------------------------

fn export_buckets(state: &BucketizeState) -> Vec<String> {
    let buckets = state.buckets();
    let mut lines = Vec::with_capacity(buckets.len() + 1);
    lines.push(format!("buckets {}", buckets.len()));
    for rows in buckets {
        let mut line = String::from("bucket");
        for &row in rows {
            line.push_str(&format!(" {row}"));
        }
        lines.push(line);
    }
    lines
}

/// `l` is the tenant's ℓ: every imported bucket must still carry ℓ
/// distinct sensitive values.
fn import_buckets(l: usize, table: &Table, lines: &[String]) -> Result<BucketizeState, String> {
    let head = record(lines, 0, "buckets")?;
    let count: usize = parse_num(head.get(1).copied(), "bucket count")?;
    let mut buckets = Vec::with_capacity(count);
    for i in 0..count {
        let toks = record(lines, 1 + i, "bucket")?;
        buckets.push(
            toks[1..]
                .iter()
                .map(|tok| parse_num(Some(tok), "bucket row"))
                .collect::<Result<Vec<usize>, String>>()?,
        );
    }
    expect_consumed(lines, 1 + count)?;
    check_partition(&buckets, table, "buckets")?;
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
                "bucket {i} has {} distinct sensitive values, ℓ = {}",
                values.len(),
                l
            ));
        }
    }
    Ok(BucketizeState::from_buckets(buckets))
}

// ---------------------------------------------------------------------------
// FullDomain: chosen level vector + the satisfying frontier.
// ---------------------------------------------------------------------------

fn export_frontier(state: &FullDomainState) -> Vec<String> {
    let mut lines = Vec::with_capacity(state.frontier().len() + 2);
    let mut levels = String::from("levels");
    for &l in state.levels() {
        levels.push_str(&format!(" {l}"));
    }
    lines.push(levels);
    lines.push(format!("frontier {}", state.frontier().len()));
    for vector in state.frontier() {
        let mut line = String::from("f");
        for &l in vector {
            line.push_str(&format!(" {l}"));
        }
        lines.push(line);
    }
    lines
}

fn import_frontier(table: &Table, lines: &[String]) -> Result<FullDomainState, String> {
    let toks = record(lines, 0, "levels")?;
    let levels = toks[1..]
        .iter()
        .map(|tok| parse_num(Some(tok), "level"))
        .collect::<Result<Vec<u32>, String>>()?;
    let head = record(lines, 1, "frontier")?;
    let count: usize = parse_num(head.get(1).copied(), "frontier size")?;
    let mut frontier = Vec::with_capacity(count);
    for i in 0..count {
        let toks = record(lines, 2 + i, "f")?;
        frontier.push(
            toks[1..]
                .iter()
                .map(|tok| parse_num(Some(tok), "frontier level"))
                .collect::<Result<Vec<u32>, String>>()?,
        );
    }
    expect_consumed(lines, 2 + count)?;
    // `rehydrate` validates arity, level bounds and DM-optimality of
    // the claimed choice, and recomputes the partition (derived state).
    FullDomainState::rehydrate(table, levels, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::{Algorithm, Publisher};
    use bgkanon_anon::{AnonymizationStrategy, StrategyState};
    use bgkanon_data::adult;

    fn groups_match(a: &bgkanon_anon::AnonymizedTable, b: &bgkanon_anon::AnonymizedTable) {
        assert_eq!(a.group_count(), b.group_count());
        for (x, y) in a.groups().iter().zip(b.groups()) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.ranges, y.ranges);
            assert_eq!(x.sensitive_counts, y.sensitive_counts);
        }
    }

    /// The strategy `publisher` selects for `table`.
    fn strategy_for(publisher: &Publisher, table: &Table) -> AnyStrategy {
        let requirement = publisher.instantiate(table).unwrap();
        publisher.strategy(&requirement).unwrap()
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
            let lines = export_state(&state);
            let rebuilt = import_state(&strategy, &table, &lines)
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            let (a, _) = state.snapshot(&table);
            let (b, _) = rebuilt.snapshot(&table);
            groups_match(&a, &b);
        }
    }

    #[test]
    fn corrupt_state_lines_are_rejected_not_panicking() {
        let table = adult::generate(120, 33);
        let mondrian = strategy_for(&Publisher::new().k_anonymity(3), &table);
        let state = mondrian.plant(&table).unwrap();
        let good = export_state(&state);

        // Duplicate a leaf row: leaves stop partitioning the table.
        let mut broken = good.clone();
        let leaf = broken
            .iter()
            .position(|l| l.starts_with("tnode leaf "))
            .unwrap();
        broken[leaf] = broken[leaf].replacen("tnode leaf ", "tnode leaf 0 0 ", 1);
        let reason = import_state(&mondrian, &table, &broken).err().unwrap();
        assert!(reason.contains("partition"), "{reason}");

        // Out-of-range child link.
        let mut broken = good.clone();
        let internal = broken
            .iter()
            .position(|l| l.starts_with("tnode internal "))
            .unwrap();
        broken[internal] = broken[internal].replacen("tnode internal ", "tnode internal 9999 ", 1);
        assert!(import_state(&mondrian, &table, &broken).is_err());

        // Trailing garbage after the declared node count.
        let mut broken = good.clone();
        broken.push("tnode leaf 0".into());
        assert!(import_state(&mondrian, &table, &broken)
            .err()
            .unwrap()
            .contains("trailing"));

        // A bucket list that no longer carries ℓ distinct values.
        let bucketize = strategy_for(
            &Publisher::new()
                .distinct_l_diversity(3)
                .algorithm(Algorithm::Bucketize),
            &table,
        );
        let state = bucketize.plant(&table).expect("3-eligible on adult");
        let lines = export_state(&state);
        // Merge every row into one line claiming a single bucket: still a
        // partition, but ℓ-diversity of *that* bucket is fine — so instead
        // drop one bucket's rows entirely (not a partition).
        let mut broken = lines.clone();
        broken.truncate(broken.len() - 1);
        let n: usize = broken[0]
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        broken[0] = format!("buckets {}", n - 1);
        assert!(import_state(&bucketize, &table, &broken)
            .err()
            .unwrap()
            .contains("partition"));
    }
}
