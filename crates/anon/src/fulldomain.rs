//! Full-domain (global-recoding) generalization — the Incognito family
//! (LeFevre et al., the paper's reference \[34\]).
//!
//! Where Mondrian recodes *locally* (each region gets its own box),
//! full-domain generalization picks one **generalization level per
//! attribute** and applies it to every tuple:
//!
//! * categorical attributes generalize to the ancestor at height ≥ ℓ in
//!   their hierarchy (ℓ = 0 keeps leaves, ℓ = H collapses to the root);
//! * numeric attributes generalize to equal-width bins of `2^ℓ` codes
//!   (ℓ = 0 keeps exact values).
//!
//! The search returns the *minimal* satisfying level vectors (no strictly
//! lower vector satisfies) of a generalization-monotone requirement
//! (k-anonymity, distinct ℓ-diversity): coarsening only merges groups, so
//! a satisfying vector's whole up-set satisfies and a failing vector's
//! whole down-set fails. Every oracle answer tags one of those two sets,
//! and the search asks only about untagged nodes, binary-searching chains
//! of them upward from the lowest (predictive tagging, El Emam et al.,
//! JAMIA 2009). For non-monotone requirements ((B,t), t-closeness) every
//! node is checked.
//!
//! All lattice work runs on one engine, `Lattice`: per-attribute,
//! per-level recoding tables built once per table (Incognito's
//! precomputed recodings, LeFevre, DeWitt & Ramakrishnan, SIGMOD 2005),
//! and the table folded to its distinct QI points. A node is evaluated by
//! grouping the points on a packed mixed-radix key of their recoded codes;
//! counts-decidable requirements are answered from each group's size and
//! sensitive histogram, the others from the group's materialized rows.
//!
//! A refresh re-checks the previous answer against the delta before it
//! asks the oracle anything: a frontier vector stays satisfying when every
//! group the delta touched still satisfies, and a maximal failing node
//! stays failing while the delta leaves one of its failing groups alone.

use std::sync::Arc;

use bgkanon_data::{AttributeKind, Parallelism, Table};
use bgkanon_privacy::{GroupView, PrivacyRequirement};

use crate::anonymized::{AnonymizedTable, PartitionBuilder};
use crate::strategy::{reuse_stamps, AnonymizationStrategy, Infeasible, StrategyState};

/// One point of the generalization lattice: a level per QI attribute.
pub type Levels = Vec<u32>;

/// The full-domain generalizer.
pub struct FullDomain {
    requirement: Arc<dyn PrivacyRequirement>,
    /// Treat the requirement as monotone under generalization (enables
    /// two-way tagging). True for k-anonymity and distinct ℓ-diversity;
    /// set false for (B,t)-privacy or t-closeness.
    monotone: bool,
}

/// Result of a full-domain run.
#[derive(Debug, Clone)]
pub struct FullDomainOutcome {
    /// The chosen (minimal, best-utility) level vector.
    pub levels: Levels,
    /// The induced partition.
    pub anonymized: AnonymizedTable,
    /// Number of lattice nodes whose partition was evaluated against the
    /// requirement (oracle calls).
    pub nodes_checked: usize,
}

/// What one lattice search found.
struct Solution {
    frontier: Vec<Levels>,
    levels: Levels,
    groups: Vec<Vec<usize>>,
    calls: usize,
    certificate: Option<Certificate>,
}

/// What the last search proved, kept so the next refresh can re-check it
/// against the delta instead of asking the oracle: the DM of each frontier
/// vector, and one failing group of each maximal failing node, named by
/// the QI codes of one of its points. Only monotone, counts-decidable
/// searches produce one.
#[derive(Debug, Clone)]
struct Certificate {
    frontier_dm: Vec<u64>,
    failing: Vec<(Levels, Vec<u32>)>,
}

impl Certificate {
    fn bytes_accounted(&self) -> usize {
        let failing: usize = self
            .failing
            .iter()
            .map(|(v, codes)| (v.len() + codes.len()) * 4 + 48)
            .sum();
        self.frontier_dm.len() * 8 + failing
    }
}

/// One row a delta removed (`net` −1) or added (`net` +1), by QI codes.
struct Change {
    qi: Vec<u32>,
    net: i64,
}

/// What a refresh carries into its search from the previous one.
struct Prior<'a> {
    frontier: &'a [Levels],
    /// The previous certificate with the delta to re-check it against.
    certified: Option<(&'a Certificate, Vec<Change>)>,
}

impl FullDomain {
    /// Build for a generalization-monotone requirement (k-anonymity,
    /// distinct ℓ-diversity and their conjunctions).
    pub fn new_monotone(requirement: Arc<dyn PrivacyRequirement>) -> Self {
        FullDomain {
            requirement,
            monotone: true,
        }
    }

    /// Build for an arbitrary requirement; every lattice node is checked.
    pub fn new_exhaustive(requirement: Arc<dyn PrivacyRequirement>) -> Self {
        FullDomain {
            requirement,
            monotone: false,
        }
    }

    /// Maximum level of each attribute of `table`.
    fn max_levels(table: &Table) -> Levels {
        table
            .schema()
            .qi_attributes()
            .iter()
            .map(|a| match a.kind() {
                AttributeKind::Numeric { values } => {
                    // Smallest L with 2^L ≥ r: bins of 2^L codes collapse
                    // the domain into one bin.
                    let r = values.len() as u32;
                    32 - r.saturating_sub(1).leading_zeros()
                }
                AttributeKind::Categorical { hierarchy, .. } => hierarchy.height(),
            })
            .collect()
    }

    /// Generalized signature of `code` on attribute `attr` at `level`
    /// (a bin index or a hierarchy node id) — what the engine's recoding
    /// tables densify.
    fn signature(table: &Table, attr: usize, level: u32, code: u32) -> u32 {
        match table.schema().qi_attribute(attr).kind() {
            AttributeKind::Numeric { .. } => code >> level,
            AttributeKind::Categorical { hierarchy, .. } => {
                let mut node = hierarchy.leaf_node(code);
                while hierarchy.node_height(node) < level {
                    match hierarchy.parent(node) {
                        Some(p) => node = p,
                        None => break,
                    }
                }
                node as u32
            }
        }
    }

    /// Search the lattice of `table` and derive the frontier, the
    /// DM-optimal vector and its partition. Without a prior this is the
    /// from-scratch search.
    fn solve(&self, table: &Table, prior: Option<Prior<'_>>) -> Result<Solution, Infeasible> {
        if table.is_empty() {
            return Err(Infeasible::new("cannot anonymize an empty table"));
        }
        let engine = Lattice::new(table);
        let nodes = Nodes::new(engine.maxima.clone()).ok_or_else(|| {
            Infeasible::new("the generalization lattice of this schema is too large to search")
        })?;
        let certifiable = self.monotone && self.requirement.counts_decidable() && engine.packable;
        let mut search = Search {
            fd: self,
            engine: &engine,
            status: vec![Status::Unknown; nodes.len],
            dm: vec![None; nodes.len],
            witness: vec![None; nodes.len],
            nodes,
            calls: 0,
            scratch: Scratch::default(),
        };
        if let Some(prior) = prior.filter(|_| self.monotone) {
            if let Some((certificate, changes)) = prior.certified.filter(|_| certifiable) {
                search.recheck(prior.frontier, certificate, &changes);
            }
            // The old frontier, then its lower covers, as oracle probes.
            let mut covers: Vec<Levels> = Vec::new();
            for m in prior.frontier {
                for i in 0..m.len() {
                    if m[i] > 0 {
                        let mut cover = m.clone();
                        cover[i] -= 1;
                        covers.push(cover);
                    }
                }
            }
            covers.sort();
            covers.dedup();
            for v in prior.frontier.iter().chain(&covers) {
                let node = search.nodes.index(v);
                if search.status[node] == Status::Unknown {
                    search.probe(node);
                }
            }
        }
        let frontier = search.run();
        let dms: Vec<u64> = frontier
            .iter()
            .map(|&i| {
                search.dm[i]
                    .unwrap_or_else(|| engine.dm(search.nodes.levels(i), &mut Scratch::default()))
            })
            .collect();
        let chosen = choose(frontier.iter().zip(&dms).map(|(&i, &dm)| (i, dm)))
            .ok_or_else(|| self.top_fails())?;
        let levels = search.nodes.levels(chosen).to_vec();
        let certificate = if certifiable {
            search.certificate(dms)
        } else {
            None
        };
        Ok(Solution {
            frontier: frontier
                .iter()
                .map(|&i| search.nodes.levels(i).to_vec())
                .collect(),
            groups: engine.partition(&levels),
            levels,
            calls: search.calls,
            certificate,
        })
    }

    /// Search the lattice and return the best outcome: among the minimal
    /// satisfying level vectors, the one whose partition has the lowest
    /// Discernibility Metric. Returns [`Infeasible`] when even the top of
    /// the lattice (everything generalized to one group) fails, or when
    /// the table is empty.
    pub fn try_anonymize(&self, table: &Table) -> Result<FullDomainOutcome, Infeasible> {
        let solution = self.solve(table, None)?;
        Ok(FullDomainOutcome {
            levels: solution.levels,
            anonymized: PartitionBuilder::from_row_lists(table, &solution.groups),
            nodes_checked: solution.calls,
        })
    }

    fn top_fails(&self) -> Infeasible {
        Infeasible::new(format!(
            "even the top of the generalization lattice (one group of all \
             tuples) violates `{}`",
            self.requirement.name()
        ))
    }
}

/// Among `(candidate, DM)` pairs, the candidate with the lowest
/// Discernibility Metric (Σ|G|²); ties keep the earliest.
fn choose<T>(candidates: impl IntoIterator<Item = (T, u64)>) -> Option<T> {
    let mut best: Option<(u64, T)> = None;
    for (candidate, dm) in candidates {
        if best.as_ref().is_none_or(|(b, _)| dm < *b) {
            best = Some((dm, candidate));
        }
    }
    best.map(|(_, candidate)| candidate)
}

/// Componentwise `a ≤ b` over level vectors.
fn le(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The rows `deletes` removed from `old` and the rows appended to `new`;
/// `None` when the three do not describe one delta.
fn changes(old: &Table, new: &Table, deletes: &[usize]) -> Option<Vec<Change>> {
    let survivors = old.len().checked_sub(deletes.len())?;
    let inserts = new.len().checked_sub(survivors)?;
    let mut out = Vec::with_capacity(deletes.len() + inserts);
    for &row in deletes {
        if row >= old.len() {
            return None;
        }
        out.push(Change {
            qi: old.qi(row),
            net: -1,
        });
    }
    for row in survivors..new.len() {
        out.push(Change {
            qi: new.qi(row),
            net: 1,
        });
    }
    Some(out)
}

/// One table's lattice engine: the recoding tables and the table folded
/// to its distinct QI points. Built once per search; every node is
/// evaluated on the points, never on the rows.
struct Lattice<'t> {
    table: &'t Table,
    maxima: Levels,
    /// `recode[a][ℓ][code]`: dense generalized code of `code` on attribute
    /// `a` at level `ℓ` (codes sharing a signature share a dense code).
    recode: Vec<Vec<Vec<u32>>>,
    /// `card[a][ℓ]`: number of dense generalized codes of `a` at `ℓ`.
    card: Vec<Vec<u64>>,
    /// Every node's packed keys fit `u64` without re-densifying, so a key
    /// can be computed for any code vector (the refresh re-check needs it).
    packable: bool,
    /// `points[a][p]`: code of distinct QI point `p` on attribute `a`;
    /// points are in lexicographic code order.
    points: Vec<Vec<u32>>,
    /// Rows of point `p` are `rows[starts[p]..starts[p + 1]]`, ascending.
    rows: Vec<u32>,
    /// Sensitive code of each entry of `rows`.
    sensitive: Vec<u32>,
    starts: Vec<usize>,
}

/// Reusable buffers of one node evaluation.
#[derive(Default)]
struct Scratch {
    keys: Vec<u64>,
    /// `(key, point)` sorted by key: each run of one key is one group.
    order: Vec<(u64, u32)>,
    counts: Vec<u32>,
    rows: Vec<usize>,
}

impl<'t> Lattice<'t> {
    fn new(table: &'t Table) -> Self {
        let maxima = FullDomain::max_levels(table);
        let mut recode = Vec::with_capacity(maxima.len());
        let mut card = Vec::with_capacity(maxima.len());
        for (attr, &max) in maxima.iter().enumerate() {
            let domain = table.schema().qi_attribute(attr).domain_size();
            let mut tables = Vec::with_capacity(max as usize + 1);
            let mut cards = Vec::with_capacity(max as usize + 1);
            for level in 0..=max {
                let signatures: Vec<u32> = (0..domain)
                    .map(|code| FullDomain::signature(table, attr, level, code))
                    .collect();
                let mut distinct = signatures.clone();
                distinct.sort_unstable();
                distinct.dedup();
                tables.push(
                    signatures
                        .iter()
                        .map(|s| distinct.partition_point(|d| d < s) as u32)
                        .collect(),
                );
                cards.push(distinct.len() as u64);
            }
            recode.push(tables);
            card.push(cards);
        }
        // Level 0 has the most codes, so it bounds every node's key space.
        let packable = card
            .iter()
            .try_fold(1u64, |space, c| space.checked_mul(c[0]))
            .is_some();

        let d = maxima.len();
        let cols: Vec<&[u32]> = (0..d).map(|a| table.qi_col(a).as_slice()).collect();
        let sensitive_col = table.sensitive_col();
        let order = table.qi_sorted_rows();
        let mut points: Vec<Vec<u32>> = vec![Vec::new(); d];
        let mut starts = Vec::new();
        let mut prev: Option<usize> = None;
        for (i, &r) in order.iter().enumerate() {
            let r = r as usize;
            if prev.is_none_or(|p| cols.iter().any(|c| c[p] != c[r])) {
                starts.push(i);
                for (point, col) in points.iter_mut().zip(&cols) {
                    point.push(col[r]);
                }
            }
            prev = Some(r);
        }
        starts.push(order.len());
        Lattice {
            table,
            maxima,
            recode,
            card,
            packable,
            points,
            sensitive: order.iter().map(|&r| sensitive_col[r as usize]).collect(),
            rows: order,
            starts,
        }
    }

    fn point_count(&self) -> usize {
        self.starts.len() - 1
    }

    fn point_range(&self, point: u32) -> std::ops::Range<usize> {
        self.starts[point as usize]..self.starts[point as usize + 1]
    }

    fn point_codes(&self, point: u32) -> Vec<u32> {
        self.points.iter().map(|col| col[point as usize]).collect()
    }

    /// Packed key of the code vector `codes` at `levels` — the key
    /// [`point_keys`](Self::point_keys) gives a point with those codes.
    /// Only meaningful when the lattice is [`packable`](Self::packable).
    fn key_of(&self, codes: &[u32], levels: &[u32]) -> u64 {
        let mut key = 0u64;
        for (a, (&code, &level)) in codes.iter().zip(levels).enumerate() {
            let level = level as usize;
            key = key
                .wrapping_mul(self.card[a][level])
                .wrapping_add(u64::from(self.recode[a][level][code as usize]));
        }
        key
    }

    /// Fill `keys` with every point's key at `levels`: mixed-radix over
    /// the dense codes, first attribute most significant. Points share a
    /// key iff they share a group. Should the packed space overflow `u64`
    /// (never when [`packable`](Self::packable)), the keys built so far
    /// are first re-densified to ranks.
    fn point_keys(&self, levels: &[u32], keys: &mut Vec<u64>) {
        keys.clear();
        keys.resize(self.point_count(), 0);
        let mut space: u64 = 1;
        for (a, &level) in levels.iter().enumerate() {
            let table = &self.recode[a][level as usize];
            let radix = self.card[a][level as usize];
            if space.checked_mul(radix).is_none() {
                space = densify(keys);
            }
            for (key, &code) in keys.iter_mut().zip(&self.points[a]) {
                *key = *key * radix + u64::from(table[code as usize]);
            }
            space *= radix;
        }
    }

    /// Group the points at `levels`: afterwards `s.order` holds
    /// `(key, point)` sorted by key, and each run of equal keys is one
    /// group of the partition.
    fn group_points(&self, levels: &[u32], s: &mut Scratch) {
        self.point_keys(levels, &mut s.keys);
        s.order.clear();
        s.order
            .extend(s.keys.iter().enumerate().map(|(p, &k)| (k, p as u32)));
        s.order.sort_unstable();
    }

    /// Evaluate `requirement` on the partition at `levels`: its DM
    /// (Σ|G|²) if every group satisfies, else the first point of the first
    /// failing group found.
    fn verdict(
        &self,
        requirement: &dyn PrivacyRequirement,
        levels: &[u32],
        s: &mut Scratch,
    ) -> Result<u64, u32> {
        self.group_points(levels, s);
        let by_counts = requirement.counts_decidable();
        s.counts.clear();
        s.counts
            .resize(self.table.schema().sensitive_domain_size(), 0);
        let mut dm = 0u64;
        for run in s.order.chunk_by(|x, y| x.0 == y.0) {
            let mut len = 0usize;
            for &(_, p) in run {
                let range = self.point_range(p);
                len += range.len();
                for &v in &self.sensitive[range] {
                    s.counts[v as usize] += 1;
                }
            }
            let ok = if by_counts {
                requirement.is_satisfied_by_counts(len, &s.counts)
            } else {
                s.rows.clear();
                for &(_, p) in run {
                    s.rows
                        .extend(self.rows[self.point_range(p)].iter().map(|&r| r as usize));
                }
                s.rows.sort_unstable();
                requirement.is_satisfied(&GroupView {
                    table: self.table,
                    rows: &s.rows,
                    sensitive_counts: &s.counts,
                })
            };
            // Zero only the touched entries for the next group.
            for &(_, p) in run {
                for &v in &self.sensitive[self.point_range(p)] {
                    s.counts[v as usize] = 0;
                }
            }
            if !ok {
                return Err(run[0].1);
            }
            dm += (len * len) as u64;
        }
        Ok(dm)
    }

    /// Re-check a node that satisfied before `changes` with DM `dm`:
    /// untouched groups are as they were, so only the groups a changed row
    /// maps to are evaluated, from the folded points. Returns the new DM,
    /// or a point of a touched group that now fails. Needs a packable
    /// lattice and a counts-decidable requirement.
    fn recheck(
        &self,
        requirement: &dyn PrivacyRequirement,
        levels: &[u32],
        dm: u64,
        changes: &[Change],
        s: &mut Scratch,
    ) -> Result<u64, u32> {
        // (key, net size change) of every touched group.
        let mut touched: Vec<(u64, i64)> = changes
            .iter()
            .map(|c| (self.key_of(&c.qi, levels), c.net))
            .collect();
        touched.sort_unstable_by_key(|t| t.0);
        touched.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let domain = self.table.schema().sensitive_domain_size();
        s.counts.clear();
        s.counts.resize(touched.len() * domain, 0);
        let mut found: Vec<(usize, u32)> = vec![(0, 0); touched.len()];
        self.point_keys(levels, &mut s.keys);
        for (p, key) in s.keys.iter().enumerate() {
            if let Ok(t) = touched.binary_search_by_key(key, |t| t.0) {
                let range = self.point_range(p as u32);
                if found[t].0 == 0 {
                    found[t].1 = p as u32;
                }
                found[t].0 += range.len();
                for &v in &self.sensitive[range] {
                    s.counts[t * domain + v as usize] += 1;
                }
            }
        }
        let mut dm = dm;
        for (t, &(len, point)) in found.iter().enumerate() {
            let counts = &s.counts[t * domain..(t + 1) * domain];
            if len > 0 && !requirement.is_satisfied_by_counts(len, counts) {
                return Err(point);
            }
            let before = (len as i64 - touched[t].1).max(0) as u64;
            let len = len as u64;
            dm = dm.wrapping_sub(before * before).wrapping_add(len * len);
        }
        Ok(dm)
    }

    /// Discernibility Metric (Σ|G|²) of the partition at `levels`.
    fn dm(&self, levels: &[u32], s: &mut Scratch) -> u64 {
        self.group_points(levels, s);
        s.order
            .chunk_by(|x, y| x.0 == y.0)
            .map(|run| {
                let len: usize = run.iter().map(|&(_, p)| self.point_range(p).len()).sum();
                (len * len) as u64
            })
            .sum()
    }

    /// The partition at `levels`: groups sorted by their first row, rows
    /// ascending. The key order of the grouping never reaches the output.
    fn partition(&self, levels: &[u32]) -> Vec<Vec<usize>> {
        let mut s = Scratch::default();
        self.group_points(levels, &mut s);
        let mut groups: Vec<Vec<usize>> = s
            .order
            .chunk_by(|x, y| x.0 == y.0)
            .map(|run| {
                let mut rows: Vec<usize> = run
                    .iter()
                    .flat_map(|&(_, p)| &self.rows[self.point_range(p)])
                    .map(|&r| r as usize)
                    .collect();
                rows.sort_unstable();
                rows
            })
            .collect();
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }
}

/// Replace each key by its rank among the distinct keys; returns the
/// number of distinct keys (the new key space).
fn densify(keys: &mut [u64]) -> u64 {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for key in keys.iter_mut() {
        *key = distinct.partition_point(|d| d < key) as u64;
    }
    distinct.len() as u64
}

/// The lattice as a dense index space: node `i`'s level vector is the
/// mixed-radix digits of `i` (first attribute most significant), so index
/// order is lexicographic order.
struct Nodes {
    maxima: Levels,
    strides: Vec<usize>,
    /// `digits[i * d + a]`: level of attribute `a` at node `i`.
    digits: Vec<u32>,
    len: usize,
}

impl Nodes {
    /// `None` when the node count overflows `usize`.
    fn new(maxima: Levels) -> Option<Self> {
        let mut strides = vec![0; maxima.len()];
        let mut len = 1usize;
        for (stride, &max) in strides.iter_mut().zip(&maxima).rev() {
            *stride = len;
            len = len.checked_mul(max as usize + 1)?;
        }
        let mut digits = Vec::with_capacity(len.checked_mul(maxima.len())?);
        for node in 0..len {
            digits.extend(
                strides
                    .iter()
                    .zip(&maxima)
                    .map(|(&s, &m)| ((node / s) % (m as usize + 1)) as u32),
            );
        }
        Some(Nodes {
            maxima,
            strides,
            digits,
            len,
        })
    }

    fn levels(&self, node: usize) -> &[u32] {
        let d = self.maxima.len();
        &self.digits[node * d..(node + 1) * d]
    }

    fn index(&self, levels: &[u32]) -> usize {
        levels
            .iter()
            .zip(&self.strides)
            .map(|(&l, &s)| l as usize * s)
            .sum()
    }

    /// Upper (`up`) or lower covers of `node`.
    fn covers(&self, node: usize, up: bool) -> impl Iterator<Item = usize> + '_ {
        let levels = self.levels(node);
        (0..self.maxima.len()).filter_map(move |a| {
            if up && levels[a] < self.maxima[a] {
                Some(node + self.strides[a])
            } else if !up && levels[a] > 0 {
                Some(node - self.strides[a])
            } else {
                None
            }
        })
    }

    /// Every node in bottom-up sweep order: total level, then index — the
    /// order frontiers are emitted in.
    fn sweep_order(&self) -> Vec<usize> {
        let mut order: Vec<(u32, usize)> = (0..self.len)
            .map(|i| (self.levels(i).iter().sum(), i))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, i)| i).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Unknown,
    Sat,
    Fail,
}

/// One lattice search: node statuses, what proved each directly settled
/// node (its DM if it satisfies, a failing group's point if it fails) and
/// the oracle-call count.
struct Search<'a, 't> {
    fd: &'a FullDomain,
    engine: &'a Lattice<'t>,
    nodes: Nodes,
    status: Vec<Status>,
    dm: Vec<Option<u64>>,
    witness: Vec<Option<Vec<u32>>>,
    calls: usize,
    scratch: Scratch,
}

impl Search<'_, '_> {
    /// Record how `node` was settled; under a monotone requirement this
    /// tags its up-set (satisfied) or down-set (failed) too.
    fn settle(&mut self, node: usize, outcome: Result<u64, Vec<u32>>) -> bool {
        let status = match outcome {
            Ok(dm) => {
                self.dm[node] = Some(dm);
                Status::Sat
            }
            Err(codes) => {
                self.witness[node] = Some(codes);
                Status::Fail
            }
        };
        if !self.fd.monotone {
            self.status[node] = status;
            return status == Status::Sat;
        }
        // Invariant: a tagged node's whole up-set (Sat) or down-set (Fail)
        // is tagged, so the walk stops at tagged nodes.
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            if self.status[i] == Status::Unknown {
                self.status[i] = status;
                stack.extend(self.nodes.covers(i, status == Status::Sat));
            }
        }
        status == Status::Sat
    }

    /// Ask the oracle about `node`.
    fn probe(&mut self, node: usize) -> bool {
        self.calls += 1;
        let outcome = self
            .engine
            .verdict(
                &*self.fd.requirement,
                self.nodes.levels(node),
                &mut self.scratch,
            )
            .map_err(|point| self.engine.point_codes(point));
        self.settle(node, outcome)
    }

    /// Re-check the previous search's certificate against `changes`
    /// without the oracle where the delta allows: each old frontier vector
    /// from the groups the delta touched, each maximal failing node from
    /// its witness group (an untouched failing group still fails; a
    /// touched one costs an oracle call).
    fn recheck(&mut self, frontier: &[Levels], certificate: &Certificate, changes: &[Change]) {
        for (levels, &dm) in frontier.iter().zip(&certificate.frontier_dm) {
            let node = self.nodes.index(levels);
            if self.status[node] == Status::Unknown {
                let outcome = self
                    .engine
                    .recheck(
                        &*self.fd.requirement,
                        levels,
                        dm,
                        changes,
                        &mut self.scratch,
                    )
                    .map_err(|point| self.engine.point_codes(point));
                self.settle(node, outcome);
            }
        }
        for (levels, codes) in &certificate.failing {
            let node = self.nodes.index(levels);
            if self.status[node] != Status::Unknown {
                continue;
            }
            let key = self.engine.key_of(codes, levels);
            if changes
                .iter()
                .any(|c| self.engine.key_of(&c.qi, levels) == key)
            {
                self.probe(node);
            } else {
                self.settle(node, Err(codes.clone()));
            }
        }
    }

    /// Settle every remaining node and return the frontier in sweep
    /// order: the minimal satisfying nodes (monotone) or every satisfying
    /// node (exhaustive).
    fn run(&mut self) -> Vec<usize> {
        let order = self.nodes.sweep_order();
        for &start in &order {
            if self.status[start] != Status::Unknown {
                continue;
            }
            if !self.fd.monotone {
                self.probe(start);
                continue;
            }
            // Climb a chain of untagged nodes from `start`, then binary-
            // search it for its lowest satisfying node: each probe tags
            // every node above (or below) it on the chain.
            let mut path = vec![start];
            while let Some(up) = self
                .nodes
                .covers(path[path.len() - 1], true)
                .find(|&up| self.status[up] == Status::Unknown)
            {
                path.push(up);
            }
            let (mut lo, mut hi) = (0, path.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.probe(path[mid]) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
        }
        order
            .into_iter()
            .filter(|&i| {
                self.status[i] == Status::Sat
                    && (!self.fd.monotone
                        || self
                            .nodes
                            .covers(i, false)
                            .all(|below| self.status[below] == Status::Fail))
            })
            .collect()
    }

    /// The certificate of a finished monotone search: the frontier's DMs
    /// and a witness for every maximal failing node (each was settled
    /// directly, so each has one).
    fn certificate(&self, frontier_dm: Vec<u64>) -> Option<Certificate> {
        let mut failing = Vec::new();
        for node in 0..self.nodes.len {
            if self.status[node] == Status::Fail
                && self
                    .nodes
                    .covers(node, true)
                    .all(|up| self.status[up] == Status::Sat)
            {
                failing.push((
                    self.nodes.levels(node).to_vec(),
                    self.witness[node].clone()?,
                ));
            }
        }
        Some(Certificate {
            frontier_dm,
            failing,
        })
    }
}

/// Retained state of the [`FullDomain`] strategy: the chosen level vector,
/// the satisfying **frontier** of the lattice (the minimal satisfying
/// vectors under a monotone requirement; all satisfying vectors
/// otherwise), and the induced partition with its group stamps.
///
/// The frontier is what makes the refresh incremental. After a delta the
/// last search's certificate — the frontier's DMs and one failing group
/// per maximal failing node — is re-checked from the groups the delta
/// touched; the old frontier and its lower covers are then probed, and
/// only nodes none of these answers tag reach the search proper (see
/// [`AnonymizationStrategy::refresh`] on [`FullDomain`]).
#[derive(Debug, Clone)]
pub struct FullDomainState {
    levels: Levels,
    minimal: Vec<Levels>,
    groups: Vec<Vec<usize>>,
    stamps: Vec<u64>,
    next_stamp: u64,
    nodes_checked: usize,
    /// `None` after [`rehydrate`](Self::rehydrate) (a checkpoint persists
    /// no certificate) and for searches that cannot produce one.
    certificate: Option<Certificate>,
}

impl FullDomainState {
    /// The chosen (DM-optimal among the frontier) level vector.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// The satisfying frontier the last search found — what a checkpoint
    /// persists alongside [`levels`](Self::levels).
    ///
    /// **Order contract.** The vectors are in bottom-up sweep order: by
    /// total level (the sum of the vector), ties in lexicographic order
    /// (first attribute most significant). The order does not depend on
    /// how the search visited the lattice. Checkpoints persist it, and
    /// [`levels`](Self::levels) is the first vector of lowest DM in it.
    pub fn frontier(&self) -> &[Levels] {
        &self.minimal
    }

    /// Oracle calls (lattice nodes whose whole partition was evaluated
    /// against the requirement) of the last plant or refresh — a
    /// deterministic work counter for a given table and delta. A
    /// refresh's re-checks of the previous certificate evaluate only the
    /// groups the delta touched and are not counted.
    pub fn nodes_checked(&self) -> usize {
        self.nodes_checked
    }

    /// Rebuild a state from checkpointed `levels` + `frontier` against the
    /// checkpointed table. The partition is recomputed (it is derived
    /// state) and group stamps restart from zero — the same policy as
    /// [`PartitionTree::from_exported`](crate::PartitionTree::from_exported).
    /// Errors describe the corruption; recovery surfaces them as the
    /// tenant's unrecoverability cause.
    pub fn rehydrate(table: &Table, levels: Levels, frontier: Vec<Levels>) -> Result<Self, String> {
        let engine = Lattice::new(table);
        if frontier.is_empty() {
            return Err("full-domain state has an empty frontier".into());
        }
        for v in frontier.iter().chain(std::iter::once(&levels)) {
            if v.len() != engine.maxima.len() {
                return Err(format!(
                    "level vector has {} components, table has {} QI attributes",
                    v.len(),
                    engine.maxima.len()
                ));
            }
            if !le(v, &engine.maxima) {
                return Err("level vector exceeds the lattice maxima".into());
            }
        }
        let mut scratch = Scratch::default();
        match choose(frontier.iter().map(|v| (v, engine.dm(v, &mut scratch)))) {
            Some(chosen) if *chosen == levels => {}
            _ => {
                return Err(
                    "checkpointed level vector is not the DM-optimal choice of its frontier".into(),
                )
            }
        }
        let groups = engine.partition(&levels);
        let stamps = (0..groups.len() as u64).collect();
        let next_stamp = groups.len() as u64;
        Ok(FullDomainState {
            levels,
            minimal: frontier,
            groups,
            stamps,
            next_stamp,
            nodes_checked: 0,
            certificate: None,
        })
    }
}

impl StrategyState for FullDomainState {
    fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        (
            PartitionBuilder::from_row_lists(table, &self.groups),
            self.stamps.clone(),
        )
    }

    fn bytes_accounted(&self) -> usize {
        let groups: usize = self.groups.iter().map(|g| g.len() * 8 + 24).sum();
        let frontier: usize = self.minimal.iter().map(|v| v.len() * 4 + 24).sum();
        let certificate = self
            .certificate
            .as_ref()
            .map_or(0, Certificate::bytes_accounted);
        groups + frontier + certificate + self.levels.len() * 4 + self.stamps.len() * 8
    }
}

impl AnonymizationStrategy for FullDomain {
    type State = FullDomainState;

    fn name(&self) -> &'static str {
        "fulldomain"
    }

    fn describe(&self) -> String {
        format!(
            "full-domain generalization ({}) enforcing {}",
            if self.monotone {
                "monotone minimal-vector search"
            } else {
                "exhaustive lattice search"
            },
            self.requirement.name()
        )
    }

    fn plant_with(
        &self,
        table: &Table,
        _parallelism: Parallelism,
    ) -> Result<FullDomainState, Infeasible> {
        // The search is oracle-bound and sequential (each probe depends on
        // the tags of the ones before); every parallelism setting runs the
        // same serial search.
        let solution = self.solve(table, None)?;
        let stamps = (0..solution.groups.len() as u64).collect();
        Ok(FullDomainState {
            next_stamp: solution.groups.len() as u64,
            levels: solution.levels,
            minimal: solution.frontier,
            groups: solution.groups,
            stamps,
            nodes_checked: solution.calls,
            certificate: solution.certificate,
        })
    }

    fn refresh(
        &self,
        state: &mut FullDomainState,
        old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible> {
        // Seed the search from where the answer was last time. For a
        // monotone requirement a 1%-delta rarely moves the frontier: the
        // re-checked certificate and the probes of the old frontier and
        // its lower covers tag almost the whole lattice — every node above
        // a still-satisfying frontier vector, every node below a
        // still-failing one — leaving oracle calls only for whatever
        // actually changed. Without monotonicity nothing is inferred, the
        // re-search is full price, and only the stamp carry-over below is
        // incremental.
        let prior = Prior {
            frontier: &state.minimal,
            certified: state
                .certificate
                .as_ref()
                .and_then(|c| Some((c, changes(old, new, deletes)?))),
        };
        let solution = self.solve(new, Some(prior))?;
        let stamps = reuse_stamps(
            &state.groups,
            &state.stamps,
            deletes,
            &solution.groups,
            &mut state.next_stamp,
        );
        state.levels = solution.levels;
        state.minimal = solution.frontier;
        state.groups = solution.groups;
        state.stamps = stamps;
        state.nodes_checked = solution.calls;
        state.certificate = solution.certificate;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy, Delta, DeltaBuilder};
    use bgkanon_knowledge::Bandwidth;
    use bgkanon_privacy::{And, BTPrivacy, DistinctLDiversity, KAnonymity, TCloseness};
    use proptest::prelude::*;
    use reference::enumerate_lattice;

    /// The search as it was before the lattice engine, transcribed as the
    /// bit-identity reference: a bottom-up sweep of the lattice by total
    /// level, each node checked on a row-at-a-time partition, and a
    /// refresh that probes the old frontier and its lower covers before
    /// re-sweeping.
    mod reference {
        use std::collections::BTreeMap;

        use super::*;

        /// All level vectors `0 ≤ v_i ≤ maxima_i`, in lexicographic order.
        pub fn enumerate_lattice(maxima: &Levels) -> Vec<Levels> {
            let mut out = vec![Vec::new()];
            for &m in maxima {
                let mut next = Vec::with_capacity(out.len() * (m as usize + 1));
                for prefix in &out {
                    for level in 0..=m {
                        let mut v = prefix.clone();
                        v.push(level);
                        next.push(v);
                    }
                }
                out = next;
            }
            out
        }

        pub fn partition(table: &Table, levels: &Levels) -> Vec<Vec<usize>> {
            let d = table.qi_count();
            let mut map: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
            let mut sig = vec![0u32; d];
            for row in 0..table.len() {
                for (i, s) in sig.iter_mut().enumerate() {
                    *s = FullDomain::signature(table, i, levels[i], table.qi_value(row, i));
                }
                map.entry(sig.clone()).or_default().push(row);
            }
            let mut groups: Vec<Vec<usize>> = map.into_values().collect();
            groups.sort_by_key(|g| g[0]);
            groups
        }

        fn satisfies(fd: &FullDomain, table: &Table, levels: &Levels) -> bool {
            let mut buf = Vec::new();
            for rows in partition(table, levels) {
                let view = GroupView::compute(table, &rows, &mut buf);
                if !fd.requirement.is_satisfied(&view) {
                    return false;
                }
            }
            true
        }

        fn sweep(
            fd: &FullDomain,
            table: &Table,
            known_sat: &[Levels],
            known_fail: &[Levels],
        ) -> (Vec<Levels>, usize) {
            let mut nodes = enumerate_lattice(&FullDomain::max_levels(table));
            nodes.sort_by_key(|v| v.iter().sum::<u32>());
            let mut minimal: Vec<Levels> = Vec::new();
            let mut checked = 0usize;
            for node in &nodes {
                if fd.monotone && minimal.iter().any(|m| le(m, node)) {
                    continue;
                }
                let sat = if fd.monotone && known_sat.iter().any(|s| le(s, node)) {
                    true
                } else if fd.monotone && known_fail.iter().any(|f| le(node, f)) {
                    false
                } else {
                    checked += 1;
                    satisfies(fd, table, node)
                };
                if sat {
                    minimal.push(node.clone());
                }
            }
            (minimal, checked)
        }

        fn choose(table: &Table, candidates: &[Levels]) -> Option<Levels> {
            let mut best: Option<(u64, Levels)> = None;
            for levels in candidates {
                let dm: u64 = partition(table, levels)
                    .iter()
                    .map(|g| (g.len() * g.len()) as u64)
                    .sum();
                if best.as_ref().map(|(b, _)| dm < *b).unwrap_or(true) {
                    best = Some((dm, levels.clone()));
                }
            }
            best.map(|(_, levels)| levels)
        }

        pub struct State {
            pub levels: Levels,
            pub minimal: Vec<Levels>,
            pub groups: Vec<Vec<usize>>,
            pub stamps: Vec<u64>,
            pub next_stamp: u64,
        }

        /// `None` when even the top of the lattice fails.
        pub fn plant(fd: &FullDomain, table: &Table) -> Option<State> {
            let (minimal, _) = sweep(fd, table, &[], &[]);
            let levels = choose(table, &minimal)?;
            let groups = partition(table, &levels);
            Some(State {
                stamps: (0..groups.len() as u64).collect(),
                next_stamp: groups.len() as u64,
                levels,
                minimal,
                groups,
            })
        }

        /// `false` (state untouched) when even the top of the lattice fails.
        pub fn refresh(fd: &FullDomain, state: &mut State, new: &Table, deletes: &[usize]) -> bool {
            let minimal = if fd.monotone {
                let mut seeds: Vec<Levels> = Vec::new();
                for m in &state.minimal {
                    seeds.push(m.clone());
                    for i in 0..m.len() {
                        if m[i] > 0 {
                            let mut cover = m.clone();
                            cover[i] -= 1;
                            seeds.push(cover);
                        }
                    }
                }
                seeds.sort();
                seeds.dedup();
                let (known_sat, known_fail): (Vec<Levels>, Vec<Levels>) =
                    seeds.into_iter().partition(|node| satisfies(fd, new, node));
                sweep(fd, new, &known_sat, &known_fail).0
            } else {
                sweep(fd, new, &[], &[]).0
            };
            let Some(levels) = choose(new, &minimal) else {
                return false;
            };
            let groups = partition(new, &levels);
            state.stamps = reuse_stamps(
                &state.groups,
                &state.stamps,
                deletes,
                &groups,
                &mut state.next_stamp,
            );
            state.levels = levels;
            state.minimal = minimal;
            state.groups = groups;
            true
        }
    }

    /// The engine's state must be the reference's, field by field.
    fn assert_matches(state: &FullDomainState, reference: &reference::State, context: &str) {
        assert_eq!(
            state.minimal, reference.minimal,
            "frontier (order): {context}"
        );
        assert_eq!(state.levels, reference.levels, "chosen levels: {context}");
        assert_eq!(state.groups, reference.groups, "groups: {context}");
        assert_eq!(state.stamps, reference.stamps, "stamps: {context}");
        assert_eq!(
            state.next_stamp, reference.next_stamp,
            "next stamp: {context}"
        );
    }

    /// A delta deleting `deletes` rows picked by `seed` and inserting
    /// `inserts` copies of rows with one QI code shifted, so inserts can
    /// land on new points.
    fn small_delta(table: &Table, seed: u64, deletes: usize, inserts: usize) -> Delta {
        let pick = |i: u64, n: usize| {
            (seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) as usize % n
        };
        let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
        for i in 0..deletes as u64 {
            b.delete(pick(i, table.len()));
        }
        for i in 0..inserts as u64 {
            let row = pick(1000 + i, table.len());
            let mut codes = table.qi(row);
            let attr = pick(2000 + i, codes.len());
            let domain = table.schema().qi_attribute(attr).domain_size();
            codes[attr] = (codes[attr] + 1) % domain;
            b.insert_codes(&codes, table.sensitive_value(row)).unwrap();
        }
        b.build()
    }

    /// Plant with the engine and the reference, then refresh both through
    /// `steps` deltas — the engine also from a rehydrated copy, which has
    /// no certificate — checking every state against the reference.
    fn check_against_reference(fd: &FullDomain, table: &Table, seed: u64, steps: usize) {
        let mut state = fd.plant(table).unwrap();
        let mut expected = reference::plant(fd, table).unwrap();
        assert_matches(&state, &expected, "plant");
        let reference_outcome = fd.try_anonymize(table).unwrap();
        assert_eq!(reference_outcome.levels, expected.levels);
        let mut table = table.clone();
        for step in 0..steps {
            let seed = seed.wrapping_add(step as u64);
            let delta = small_delta(&table, seed, 1 + step % 3, 1 + (seed % 4) as usize);
            let next = table.apply_delta(&delta).unwrap();
            let mut rehydrated =
                FullDomainState::rehydrate(&table, state.levels.clone(), state.minimal.clone())
                    .unwrap();
            let ok = fd
                .refresh(&mut state, &table, &next, delta.deletes())
                .is_ok();
            assert_eq!(
                ok,
                reference::refresh(fd, &mut expected, &next, delta.deletes())
            );
            if !ok {
                return;
            }
            assert_matches(&state, &expected, &format!("refresh {step}"));
            fd.refresh(&mut rehydrated, &table, &next, delta.deletes())
                .unwrap();
            assert_eq!(
                rehydrated.minimal, expected.minimal,
                "rehydrated refresh {step}"
            );
            assert_eq!(
                rehydrated.groups, expected.groups,
                "rehydrated refresh {step}"
            );
            table = next;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Monotone requirements: k-anonymity, distinct ℓ-diversity and
        /// their conjunction, at plant time and across 1–4 refreshes.
        #[test]
        fn monotone_search_matches_the_reference_sweep(
            rows in 50usize..400,
            seed in 0u64..1u64 << 40,
            steps in 1usize..5,
        ) {
            let table = adult::generate(rows, seed);
            let k = 2 + (seed % 5) as usize;
            let models: [Arc<dyn PrivacyRequirement>; 3] = [
                Arc::new(KAnonymity::new(k)),
                Arc::new(DistinctLDiversity::new(2)),
                Arc::new(And::pair(KAnonymity::new(k), DistinctLDiversity::new(2))),
            ];
            for model in models {
                check_against_reference(&FullDomain::new_monotone(model), &table, seed, steps);
            }
        }

        /// t-closeness, searched exhaustively, at plant time and across
        /// 1–4 refreshes.
        #[test]
        fn exhaustive_search_matches_the_reference_sweep(
            rows in 40usize..80,
            seed in 0u64..1u64 << 40,
            steps in 1usize..5,
        ) {
            let table = adult::generate(rows, seed);
            let t = 0.2 + (seed % 3) as f64 * 0.1;
            let fd = FullDomain::new_exhaustive(Arc::new(TCloseness::new(t, &table)));
            check_against_reference(&fd, &table, seed, steps);
        }
    }

    #[test]
    fn rows_requirement_matches_the_reference_sweep() {
        // (B,t)-privacy is not counts-decidable: every group's rows are
        // materialized for the check.
        let table = adult::generate(30, 91);
        let bandwidth = Bandwidth::uniform(0.3, table.qi_count()).unwrap();
        let fd = FullDomain::new_exhaustive(Arc::new(BTPrivacy::new(&table, bandwidth, 0.25)));
        check_against_reference(&fd, &table, 91, 2);
    }

    #[test]
    fn wide_schemas_densify_keys_that_overflow_u64() {
        // 14 flat attributes of 41 values: 41^14 > 2^64, so packed keys are
        // re-densified mid-way and the refresh runs without a certificate.
        use bgkanon_data::{Attribute, Schema, TableBuilder};
        let labels: Vec<String> = (0..41).map(|i| format!("v{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let qi = (0..14)
            .map(|a| Attribute::categorical_flat(&format!("q{a}"), &labels).unwrap())
            .collect();
        let sensitive = Attribute::categorical_flat("s", &["x", "y", "z"]).unwrap();
        let schema = Arc::new(Schema::new(qi, sensitive).unwrap());
        let mut b = TableBuilder::new(Arc::clone(&schema));
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..80 {
            let mut next = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) as u32
            };
            let codes: Vec<u32> = (0..14).map(|_| next() % 3).collect();
            b.push_codes(&codes, next() % 3).unwrap();
        }
        let table = b.build().unwrap();
        let engine = Lattice::new(&table);
        assert!(!engine.packable);
        for levels in [vec![0; 14], vec![1; 14], (0..14).map(|a| a % 2).collect()] {
            assert_eq!(
                engine.partition(&levels),
                reference::partition(&table, &levels)
            );
        }
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(2)));
        check_against_reference(&fd, &table, 5, 1);
    }

    #[test]
    fn oracle_calls_are_pinned() {
        // Deterministic work counters: a 1k-row plant and a 1% refresh
        // (5 deletes + 5 inserts) under 4-anonymity ∧ distinct 3-diversity.
        let table = adult::generate(1000, 42);
        let fd = FullDomain::new_monotone(Arc::new(And::pair(
            KAnonymity::new(4),
            DistinctLDiversity::new(3),
        )));
        let mut state = fd.plant(&table).unwrap();
        assert_eq!(state.nodes_checked(), 78, "plant");
        let delta = small_delta(&table, 7, 5, 5);
        let next = table.apply_delta(&delta).unwrap();
        // Without a certificate (as after recovery) the refresh probes the
        // old frontier and its lower covers before searching.
        let mut rehydrated =
            FullDomainState::rehydrate(&table, state.levels.clone(), state.minimal.clone())
                .unwrap();
        fd.refresh(&mut rehydrated, &table, &next, delta.deletes())
            .unwrap();
        assert_eq!(rehydrated.nodes_checked(), 73, "seeded refresh");
        fd.refresh(&mut state, &table, &next, delta.deletes())
            .unwrap();
        assert_eq!(state.nodes_checked(), 0, "certified refresh");
    }

    #[test]
    fn partition_iteration_order_is_stable() {
        // Regression guard for the R3 determinism contract: the partition
        // is grouped on sorted packed keys, then sorted by lowest
        // contained row — repeated runs of the same input
        // must produce the identical group sequence, with no hash-seed
        // dependence anywhere in the path.
        let t = adult::generate(200, 9);
        let levels = vec![2u32, 1, 1, 1, 1, 1];
        let first = Lattice::new(&t).partition(&levels);
        for _ in 0..3 {
            assert_eq!(Lattice::new(&t).partition(&levels), first);
        }
        // Each row lives in exactly one group, so first-row keys are
        // distinct and the output order is strictly increasing.
        assert!(first.windows(2).all(|w| w[0][0] < w[1][0]));
    }

    #[test]
    fn lattice_enumeration_counts() {
        assert_eq!(enumerate_lattice(&vec![1, 2]).len(), 6);
        assert_eq!(enumerate_lattice(&vec![0]).len(), 1);
    }

    #[test]
    fn max_levels_match_schema() {
        let t = adult::generate(50, 1);
        let maxima = FullDomain::max_levels(&t);
        // Age: 74 values → 2^7 = 128 ≥ 74 → 7 levels. Hierarchy heights:
        // workclass 3, education 3, marital 3, race 2, gender 1.
        assert_eq!(maxima, vec![7, 3, 3, 3, 2, 1]);
    }

    #[test]
    fn top_of_lattice_collapses_to_one_group() {
        let t = adult::generate(120, 2);
        let top = FullDomain::max_levels(&t);
        let parts = Lattice::new(&t).partition(&top);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), t.len());
    }

    #[test]
    fn bottom_of_lattice_is_qi_grouping() {
        let t = adult::generate(120, 3);
        let bottom = vec![0u32; 6];
        let parts = Lattice::new(&t).partition(&bottom);
        assert_eq!(parts.len(), t.group_by_qi().len());
    }

    #[test]
    fn full_domain_k_anonymity_holds() {
        let t = adult::generate(400, 4);
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(5)));
        let outcome = fd
            .try_anonymize(&t)
            .expect("top of lattice always satisfies k ≤ n");
        for g in outcome.anonymized.groups() {
            assert!(g.len() >= 5, "group of {}", g.len());
        }
        // The chosen vector is not the top of the lattice (some structure
        // survives) on 400 correlated rows.
        assert!(outcome.levels.iter().sum::<u32>() < FullDomain::max_levels(&t).iter().sum());
    }

    #[test]
    fn monotone_pruning_checks_fewer_nodes() {
        let t = adult::generate(200, 5);
        let req = || Arc::new(KAnonymity::new(4));
        let pruned = FullDomain::new_monotone(req()).try_anonymize(&t).unwrap();
        let full = FullDomain::new_exhaustive(req()).try_anonymize(&t).unwrap();
        assert!(pruned.nodes_checked <= full.nodes_checked);
        // Both find level vectors satisfying the requirement.
        for g in full.anonymized.groups() {
            assert!(g.len() >= 4);
        }
    }

    #[test]
    fn composite_requirement_supported() {
        let t = adult::generate(300, 6);
        let fd = FullDomain::new_monotone(Arc::new(And::pair(
            KAnonymity::new(3),
            DistinctLDiversity::new(3),
        )));
        let outcome = fd.try_anonymize(&t).expect("satisfiable at the top");
        for g in outcome.anonymized.groups() {
            assert!(g.len() >= 3);
            assert!(g.sensitive_counts.iter().filter(|&&c| c > 0).count() >= 3);
        }
    }

    #[test]
    fn global_recoding_never_beats_local_recoding_on_dm() {
        // Mondrian (local recoding) is at least as fine as the best single
        // global level vector.
        use crate::mondrian::Mondrian;
        let t = adult::generate(500, 7);
        let k = 6;
        let local = Mondrian::new(Arc::new(KAnonymity::new(k))).anonymize(&t);
        let global = FullDomain::new_monotone(Arc::new(KAnonymity::new(k)))
            .try_anonymize(&t)
            .unwrap()
            .anonymized;
        let dm = |at: &AnonymizedTable| -> u64 {
            at.groups().iter().map(|g| (g.len() * g.len()) as u64).sum()
        };
        assert!(
            dm(&local) <= dm(&global),
            "local {} vs global {}",
            dm(&local),
            dm(&global)
        );
    }

    #[test]
    fn unsatisfiable_requirement_is_infeasible_only_if_top_fails() {
        let t = toy::hospital_table();
        // k = 100 > n: even one group of 9 fails.
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(100)));
        let err = fd.try_anonymize(&t).unwrap_err();
        assert!(err.reason.contains("100-anonymity"));
    }

    #[test]
    fn refresh_matches_from_scratch_after_deltas() {
        use bgkanon_data::DeltaBuilder;
        let t = adult::generate(300, 31);
        for fd in [
            FullDomain::new_monotone(Arc::new(KAnonymity::new(4))),
            FullDomain::new_exhaustive(Arc::new(KAnonymity::new(4))),
        ] {
            let mut state = fd.plant(&t).unwrap();
            let mut table = t.clone();
            let donors = adult::generate(20, 77);
            for step in 0..3 {
                let mut b = DeltaBuilder::new(Arc::clone(table.schema()));
                b.delete(step * 2).delete(step * 5 + 1);
                for r in (step * 4)..(step * 4 + 4) {
                    b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                        .unwrap();
                }
                let delta = b.build();
                let next = table.apply_delta(&delta).unwrap();
                fd.refresh(&mut state, &table, &next, delta.deletes())
                    .unwrap();
                table = next;
            }
            let (at, _) = state.snapshot(&table);
            let reference = fd.try_anonymize(&table).unwrap();
            assert_eq!(state.levels(), &reference.levels);
            assert_eq!(at.first_difference(&reference.anonymized), None);
        }
    }

    #[test]
    fn monotone_refresh_calls_the_oracle_less_than_a_replant() {
        use bgkanon_data::DeltaBuilder;
        let t = adult::generate(400, 32);
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(5)));
        let mut state = fd.plant(&t).unwrap();
        let replant_calls = state.nodes_checked();
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(3);
        let donors = adult::generate(3, 78);
        b.insert_codes(&donors.qi(0), donors.sensitive_value(0))
            .unwrap();
        let delta = b.build();
        let next = t.apply_delta(&delta).unwrap();
        fd.refresh(&mut state, &t, &next, delta.deletes()).unwrap();
        assert!(
            state.nodes_checked() < replant_calls,
            "refresh made {} oracle calls, replant {}",
            state.nodes_checked(),
            replant_calls
        );
    }

    #[test]
    fn infeasible_refresh_leaves_state_unchanged() {
        use bgkanon_data::DeltaBuilder;
        let t = toy::hospital_table();
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(6)));
        let mut state = fd.plant(&t).unwrap();
        let (before_at, before_stamps) = state.snapshot(&t);
        // Shrink below k: even the top of the lattice fails.
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        for r in 0..4 {
            b.delete(r);
        }
        let delta = b.build();
        let next = t.apply_delta(&delta).unwrap();
        let err = fd
            .refresh(&mut state, &t, &next, delta.deletes())
            .unwrap_err();
        assert!(err.reason.contains("6-anonymity"));
        let (after_at, after_stamps) = state.snapshot(&t);
        assert_eq!(before_stamps, after_stamps);
        assert_eq!(before_at.first_difference(&after_at), None);
    }

    #[test]
    fn rehydrate_roundtrips_and_validates() {
        let t = adult::generate(200, 33);
        let fd = FullDomain::new_monotone(Arc::new(KAnonymity::new(4)));
        let state = fd.plant(&t).unwrap();
        let rebuilt =
            FullDomainState::rehydrate(&t, state.levels().clone(), state.frontier().to_vec())
                .expect("clean roundtrip");
        let (a, stamps_a) = state.snapshot(&t);
        let (b, stamps_b) = rebuilt.snapshot(&t);
        assert_eq!(a.first_difference(&b), None);
        // Fresh plants also stamp from zero, so the two agree exactly.
        assert_eq!(stamps_a, stamps_b);
        // Corruption is rejected: empty frontier, wrong arity, non-optimal
        // chosen vector.
        assert!(FullDomainState::rehydrate(&t, state.levels().clone(), vec![]).is_err());
        assert!(FullDomainState::rehydrate(&t, vec![0, 0], state.frontier().to_vec()).is_err());
        let top = FullDomain::max_levels(&t);
        let mut frontier = state.frontier().to_vec();
        frontier.push(top.clone());
        // Claiming `top` as the chosen vector fails: the DM-optimal choice
        // of this frontier is still the originally chosen one.
        assert!(FullDomainState::rehydrate(&t, top, frontier).is_err());
    }

    #[test]
    fn signature_respects_hierarchy_levels() {
        let t = adult::generate(50, 8);
        // Gender at level 0: distinct codes; at level 1 (root): same node.
        let s0f = FullDomain::signature(&t, 5, 0, 0);
        let s0m = FullDomain::signature(&t, 5, 0, 1);
        assert_ne!(s0f, s0m);
        let s1f = FullDomain::signature(&t, 5, 1, 0);
        let s1m = FullDomain::signature(&t, 5, 1, 1);
        assert_eq!(s1f, s1m);
        // Age at level 3: bins of 8 codes.
        assert_eq!(FullDomain::signature(&t, 0, 3, 7), 0);
        assert_eq!(FullDomain::signature(&t, 0, 3, 8), 1);
    }
}
