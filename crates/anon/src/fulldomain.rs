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
//! The search walks the lattice of level vectors bottom-up by total level
//! and returns the *minimal* satisfying vectors (no strictly lower vector
//! satisfies the requirement), exploiting the **generalization
//! monotonicity** of size-based requirements (k-anonymity, distinct
//! ℓ-diversity): coarsening only merges groups. For non-monotone
//! requirements ((B,t), t-closeness) the lattice is searched exhaustively.

use std::collections::BTreeMap;
use std::sync::Arc;

use bgkanon_data::{AttributeKind, Parallelism, Table};
use bgkanon_privacy::{GroupView, PrivacyRequirement};

use crate::anonymized::{AnonymizedTable, Group};
use crate::strategy::{reuse_stamps, AnonymizationStrategy, Infeasible, StrategyState};

/// One point of the generalization lattice: a level per QI attribute.
pub type Levels = Vec<u32>;

/// The full-domain generalizer.
pub struct FullDomain {
    requirement: Arc<dyn PrivacyRequirement>,
    /// Treat the requirement as monotone under generalization (enables
    /// minimal-vector pruning). True for k-anonymity and distinct
    /// ℓ-diversity; set false for (B,t)-privacy or t-closeness.
    monotone: bool,
}

/// Result of a full-domain run.
#[derive(Debug, Clone)]
pub struct FullDomainOutcome {
    /// The chosen (minimal, best-utility) level vector.
    pub levels: Levels,
    /// The induced partition.
    pub anonymized: AnonymizedTable,
    /// Number of lattice nodes whose partition was materialized and checked.
    pub nodes_checked: usize,
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

    /// Build for an arbitrary requirement; every lattice node may be
    /// checked.
    pub fn new_exhaustive(requirement: Arc<dyn PrivacyRequirement>) -> Self {
        FullDomain {
            requirement,
            monotone: false,
        }
    }

    /// Maximum level of each attribute of `table`.
    pub fn max_levels(table: &Table) -> Levels {
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

    /// Generalized signature of `code` on attribute `attr` at `level`.
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

    /// Partition rows of `table` by their generalized signature at `levels`.
    pub fn partition(table: &Table, levels: &Levels) -> Vec<Vec<usize>> {
        assert_eq!(levels.len(), table.qi_count(), "one level per attribute");
        let d = table.qi_count();
        // BTreeMap, not HashMap: this is an output path — `into_values`
        // below walks the map, and group order must never depend on a
        // hash seed (analyzer rule R3; same fix as `Table::group_by_qi`).
        let mut map: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
        let mut sig = vec![0u32; d];
        for row in 0..table.len() {
            for (i, s) in sig.iter_mut().enumerate() {
                *s = Self::signature(table, i, levels[i], table.qi_value(row, i));
            }
            map.entry(sig.clone()).or_default().push(row);
        }
        let mut groups: Vec<Vec<usize>> = map.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Does the partition at `levels` satisfy the requirement?
    fn satisfies(&self, table: &Table, levels: &Levels) -> bool {
        let mut buf = Vec::new();
        for rows in Self::partition(table, levels) {
            let view = GroupView::compute(table, &rows, &mut buf);
            if !self.requirement.is_satisfied(&view) {
                return false;
            }
        }
        true
    }

    /// Sweep the lattice in increasing total-level order and collect the
    /// satisfying vectors — the *minimal* ones under a monotone
    /// requirement, all of them otherwise. Satisfaction is decided by the
    /// oracle ([`satisfies`](Self::satisfies)) except where the seeded
    /// knowledge answers it first (monotone only — both inferences are
    /// exact there: a node above a known-satisfying vector satisfies, a
    /// node below a known-failing vector fails). Returns the vectors and
    /// the number of oracle calls actually made; with empty seeds this is
    /// exactly the from-scratch search.
    fn sweep(
        &self,
        table: &Table,
        known_sat: &[Levels],
        known_fail: &[Levels],
    ) -> (Vec<Levels>, usize) {
        let maxima = Self::max_levels(table);
        // Enumerate the lattice in increasing total-level order.
        let mut nodes: Vec<Levels> = enumerate_lattice(&maxima);
        nodes.sort_by_key(|v| v.iter().sum::<u32>());

        let mut minimal: Vec<Levels> = Vec::new();
        let mut checked = 0usize;
        for node in &nodes {
            if self.monotone && minimal.iter().any(|m| le(m, node)) {
                // A lower satisfying vector dominates this node: with a
                // monotone requirement it satisfies too, but is not minimal.
                continue;
            }
            let sat = if self.monotone && known_sat.iter().any(|s| le(s, node)) {
                true
            } else if self.monotone && known_fail.iter().any(|f| le(node, f)) {
                false
            } else {
                checked += 1;
                self.satisfies(table, node)
            };
            if sat {
                minimal.push(node.clone());
            }
        }
        (minimal, checked)
    }

    /// Among `candidates`, the vector whose partition has the lowest
    /// Discernibility Metric (Σ|G|²); ties keep the earliest candidate.
    fn choose(table: &Table, candidates: &[Levels]) -> Option<Levels> {
        let mut best: Option<(u64, Levels)> = None;
        for levels in candidates {
            let dm: u64 = Self::partition(table, levels)
                .iter()
                .map(|g| (g.len() * g.len()) as u64)
                .sum();
            if best.as_ref().map(|(b, _)| dm < *b).unwrap_or(true) {
                best = Some((dm, levels.clone()));
            }
        }
        best.map(|(_, levels)| levels)
    }

    /// Search the lattice and return the best outcome: among the minimal
    /// satisfying level vectors, the one whose partition has the lowest
    /// Discernibility Metric. Returns [`Infeasible`] when even the top of
    /// the lattice (everything generalized to one group) fails, or when
    /// the table is empty.
    pub fn try_anonymize(&self, table: &Table) -> Result<FullDomainOutcome, Infeasible> {
        if table.is_empty() {
            return Err(Infeasible::new("cannot anonymize an empty table"));
        }
        let (minimal, checked) = self.sweep(table, &[], &[]);
        let levels = Self::choose(table, &minimal).ok_or_else(|| self.top_fails())?;
        let groups = Self::partition(table, &levels)
            .into_iter()
            .map(|rows| Group::from_rows(table, rows))
            .collect();
        Ok(FullDomainOutcome {
            levels,
            anonymized: AnonymizedTable::new(table, groups),
            nodes_checked: checked,
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

/// Componentwise `a ≤ b` over level vectors.
fn le(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Retained state of the [`FullDomain`] strategy: the chosen level vector,
/// the satisfying **frontier** of the lattice (the minimal satisfying
/// vectors under a monotone requirement; all satisfying vectors
/// otherwise), and the induced partition with its group stamps.
///
/// The frontier is what makes the refresh incremental: after a delta, the
/// old frontier and its lower covers are re-probed against the new table,
/// and the lattice re-sweep infers most nodes' satisfaction from those few
/// probes instead of materializing their partitions (see
/// [`AnonymizationStrategy::refresh`] on [`FullDomain`]).
#[derive(Debug, Clone)]
pub struct FullDomainState {
    levels: Levels,
    minimal: Vec<Levels>,
    groups: Vec<Vec<usize>>,
    stamps: Vec<u64>,
    next_stamp: u64,
    nodes_checked: usize,
}

impl FullDomainState {
    /// The chosen (DM-optimal among the frontier) level vector.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// The satisfying frontier the last search found, in lattice sweep
    /// order — what a checkpoint persists alongside
    /// [`levels`](Self::levels).
    pub fn frontier(&self) -> &[Levels] {
        &self.minimal
    }

    /// Oracle calls (partitions materialized and checked) of the last
    /// plant or refresh — the figure the `--strategies` bench reports.
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
        let maxima = FullDomain::max_levels(table);
        if frontier.is_empty() {
            return Err("full-domain state has an empty frontier".into());
        }
        for v in frontier.iter().chain(std::iter::once(&levels)) {
            if v.len() != maxima.len() {
                return Err(format!(
                    "level vector has {} components, table has {} QI attributes",
                    v.len(),
                    maxima.len()
                ));
            }
            if !le(v, &maxima) {
                return Err("level vector exceeds the lattice maxima".into());
            }
        }
        match FullDomain::choose(table, &frontier) {
            Some(chosen) if chosen == levels => {}
            _ => {
                return Err(
                    "checkpointed level vector is not the DM-optimal choice of its frontier".into(),
                )
            }
        }
        let groups = FullDomain::partition(table, &levels);
        let stamps = (0..groups.len() as u64).collect();
        let next_stamp = groups.len() as u64;
        Ok(FullDomainState {
            levels,
            minimal: frontier,
            groups,
            stamps,
            next_stamp,
            nodes_checked: 0,
        })
    }
}

impl StrategyState for FullDomainState {
    fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        let groups = self
            .groups
            .iter()
            .map(|rows| Group::from_rows(table, rows.clone()))
            .collect();
        (AnonymizedTable::new(table, groups), self.stamps.clone())
    }

    fn bytes_accounted(&self) -> usize {
        let groups: usize = self.groups.iter().map(|g| g.len() * 8 + 24).sum();
        let frontier: usize = self.minimal.iter().map(|v| v.len() * 4 + 24).sum();
        groups + frontier + self.levels.len() * 4 + self.stamps.len() * 8
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
        // The lattice sweep is oracle-bound and sequential (each skip
        // depends on the minimal vectors found so far); every parallelism
        // setting runs the same serial search.
        if table.is_empty() {
            return Err(Infeasible::new("cannot anonymize an empty table"));
        }
        let (minimal, checked) = self.sweep(table, &[], &[]);
        let levels = Self::choose(table, &minimal).ok_or_else(|| self.top_fails())?;
        let groups = Self::partition(table, &levels);
        let stamps = (0..groups.len() as u64).collect();
        let next_stamp = groups.len() as u64;
        Ok(FullDomainState {
            levels,
            minimal,
            groups,
            stamps,
            next_stamp,
            nodes_checked: checked,
        })
    }

    fn refresh(
        &self,
        state: &mut FullDomainState,
        _old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible> {
        if new.is_empty() {
            return Err(Infeasible::new("cannot anonymize an empty table"));
        }
        let (minimal, checked) = if self.monotone {
            // Seed the re-sweep from where the answer was last time: the
            // old frontier and its lower covers. For a monotone
            // requirement a 1%-delta rarely moves the frontier, so the
            // probes answer almost the whole lattice — every node above a
            // still-satisfying frontier vector is satisfied, every node
            // below a still-failing lower cover fails — leaving oracle
            // calls only for nodes incomparable to the entire frontier
            // (and for whatever actually changed).
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
            let mut known_sat: Vec<Levels> = Vec::new();
            let mut known_fail: Vec<Levels> = Vec::new();
            for node in seeds {
                if self.satisfies(new, &node) {
                    known_sat.push(node);
                } else {
                    known_fail.push(node);
                }
            }
            let probes = known_sat.len() + known_fail.len();
            let (minimal, swept) = self.sweep(new, &known_sat, &known_fail);
            (minimal, probes + swept)
        } else {
            // No monotonicity, no inference: the re-search is full price
            // and only the stamp carry-over below is incremental.
            self.sweep(new, &[], &[])
        };
        let levels = Self::choose(new, &minimal).ok_or_else(|| self.top_fails())?;
        let groups = Self::partition(new, &levels);
        let stamps = reuse_stamps(
            &state.groups,
            &state.stamps,
            deletes,
            &groups,
            &mut state.next_stamp,
        );
        state.levels = levels;
        state.minimal = minimal;
        state.groups = groups;
        state.stamps = stamps;
        state.nodes_checked = checked;
        Ok(())
    }
}

/// All level vectors `0 ≤ v_i ≤ maxima_i`.
fn enumerate_lattice(maxima: &Levels) -> Vec<Levels> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy};
    use bgkanon_privacy::{And, DistinctLDiversity, KAnonymity};

    #[test]
    fn partition_iteration_order_is_stable() {
        // Regression guard for the R3 determinism contract: the partition
        // is built in a `BTreeMap` (lexicographic signature order), then
        // sorted by lowest contained row — repeated runs of the same input
        // must produce the identical group sequence, with no hash-seed
        // dependence anywhere in the path.
        let t = adult::generate(200, 9);
        let levels = vec![2u32, 1, 1, 1, 1, 1];
        let first = FullDomain::partition(&t, &levels);
        for _ in 0..3 {
            assert_eq!(FullDomain::partition(&t, &levels), first);
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
        let parts = FullDomain::partition(&t, &top);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), t.len());
    }

    #[test]
    fn bottom_of_lattice_is_qi_grouping() {
        let t = adult::generate(120, 3);
        let bottom = vec![0u32; 6];
        let parts = FullDomain::partition(&t, &bottom);
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
            assert_eq!(at.group_count(), reference.anonymized.group_count());
            for (a, b) in at.groups().iter().zip(reference.anonymized.groups()) {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.ranges, b.ranges);
                assert_eq!(a.sensitive_counts, b.sensitive_counts);
            }
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
        for (a, b) in before_at.groups().iter().zip(after_at.groups()) {
            assert_eq!(a.rows, b.rows);
        }
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
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.rows, gb.rows);
        }
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
