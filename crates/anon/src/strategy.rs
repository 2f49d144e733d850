//! The strategy abstraction: one contract every anonymization algorithm
//! publishes through.
//!
//! A strategy is a pair of types: the algorithm itself (implementing
//! [`AnonymizationStrategy`]) and its retained **state** (implementing
//! [`StrategyState`]) — the data structure a publishing session keeps alive
//! between deltas so republication is incremental. For Mondrian the state is
//! the [`PartitionTree`]; for bucketization it is the bucket membership
//! ([`BucketizeState`]); for full-domain
//! generalization it is the satisfying frontier of the generalization
//! lattice ([`FullDomainState`]).
//!
//! The contract every implementation must uphold, proptest-enforced in
//! `tests/tests/strategies.rs`:
//!
//! * **Bit-identity.** After any sequence of [`refresh`]es the state's
//!   [`snapshot`](StrategyState::snapshot) is bit-identical to
//!   [`plant`](AnonymizationStrategy::plant)ing on the final table from
//!   scratch — incremental maintenance is an optimization, never a
//!   different answer. `plant_with` under any [`Parallelism`] is
//!   bit-identical to the strategy's reference: Mondrian's is
//!   [`Mondrian::plant_reference`]; bucketization and full-domain
//!   generalization have one engine each, which ignores the knob.
//! * **Error atomicity.** A [`refresh`] that returns [`Infeasible`] leaves
//!   the state untouched and usable.
//! * **Stamp semantics.** The `Vec<u64>` half of a snapshot carries one
//!   stamp per group, aligned with the anonymized table's groups. A group's
//!   stamp changes whenever its membership changes and never collides
//!   between distinct memberships, making the stamps valid cache tokens for
//!   audit-session risk caches.
//!
//! [`refresh`]: AnonymizationStrategy::refresh

use std::fmt;

use bgkanon_data::{Parallelism, Table};

use crate::anonymized::AnonymizedTable;
use crate::bucketize::{Bucketize, BucketizeState};
use crate::fulldomain::{FullDomain, FullDomainState};
use crate::mondrian::Mondrian;
use crate::tree::PartitionTree;

/// The algorithm cannot produce (or maintain) a publication for this input.
///
/// Mondrian reports infeasibility when the whole table violates the
/// requirement; bucketization when the most frequent sensitive value
/// exceeds `1/ℓ` of the tuples; full-domain generalization when even the
/// top of the lattice fails. The `reason` is human-readable and stable
/// enough to surface in CLI errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infeasible {
    /// Why no publication exists.
    pub reason: String,
}

impl Infeasible {
    /// Build from any displayable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Infeasible {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "infeasible: {}", self.reason)
    }
}

impl std::error::Error for Infeasible {}

/// Retained per-session algorithm state: whatever the strategy keeps alive
/// between deltas, able to derive the current publication on demand.
pub trait StrategyState: Send + Sync + 'static {
    /// Derive the current publication and its per-group stamps from the
    /// state and the table it reflects. Stamps are aligned with
    /// `AnonymizedTable::iter()` (see the module docs for their
    /// contract).
    fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>);

    /// [`snapshot`](Self::snapshot) right after a successful
    /// [`refresh`](AnonymizationStrategy::refresh) from `previous`'s table
    /// to `table`: `previous` and `previous_stamps` are the snapshot the
    /// state gave before that refresh, and `deletes` the delta's deletes
    /// (indices into the pre-delta table). The result must equal
    /// [`snapshot`](Self::snapshot) bit for bit, stamps included. A state
    /// that knows which groups the refresh left alone can copy those from
    /// `previous` instead of deriving every group again — Mondrian's
    /// [`PartitionTree`] does, from the leaves its last refresh retired and
    /// stamped. The default derives the publication from scratch.
    fn carried_snapshot(
        &self,
        table: &Table,
        previous: &AnonymizedTable,
        previous_stamps: &[u64],
        deletes: &[usize],
    ) -> (AnonymizedTable, Vec<u64>) {
        let _ = (previous, previous_stamps, deletes);
        self.snapshot(table)
    }

    /// Heap bytes this state holds resident — rolled into the serving
    /// hub's per-tenant memory gauges, same accounting policy as
    /// [`Table::bytes_accounted`].
    fn bytes_accounted(&self) -> usize;
}

/// An anonymization algorithm with an incremental refresh path.
///
/// Implementations carry the *parameters* of the algorithm (requirement,
/// ℓ, monotonicity); all mutable computation lives in the associated
/// [`State`](Self::State).
pub trait AnonymizationStrategy: Send + Sync + 'static {
    /// The retained state this algorithm maintains between deltas.
    type State: StrategyState;

    /// Stable machine-readable name (`"mondrian"`, `"bucketize"`,
    /// `"fulldomain"`) — used as the checkpoint strategy tag.
    fn name(&self) -> &'static str;

    /// Human-readable one-line description of the configured parameters,
    /// for the CLI's `--explain`.
    fn describe(&self) -> String;

    /// Build the state for `table` from scratch on `parallelism`'s worker
    /// count. Output is bit-identical across every [`Parallelism`];
    /// strategies without a parallel engine run on the calling thread
    /// regardless.
    fn plant_with(
        &self,
        table: &Table,
        parallelism: Parallelism,
    ) -> Result<Self::State, Infeasible>;

    /// [`plant_with`](Self::plant_with) on one worker, on the calling
    /// thread.
    fn plant(&self, table: &Table) -> Result<Self::State, Infeasible> {
        self.plant_with(table, Parallelism::Serial)
    }

    /// Amortize derived caches (histograms, scratch) after a plant or
    /// resume so the first refresh runs at steady-state speed. Must not
    /// change any observable output; default is a no-op.
    fn warm(&self, _state: &mut Self::State, _table: &Table) {}

    /// Evolve the state from `old` to `new` (relating the two through the
    /// delta's `deletes`, indices into `old`; inserted rows are appended
    /// at the tail of `new`). On `Ok` the state reflects `new`
    /// bit-identically to a from-scratch plant; on `Err` the state is
    /// unchanged and still reflects `old`.
    fn refresh(
        &self,
        state: &mut Self::State,
        old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible>;
}

/// Map a row index of the pre-delta table to its index in the post-delta
/// table: survivors shift down by the number of deleted rows below them,
/// deleted rows map to `None`. `sorted_deletes` is ascending and
/// deduplicated (the [`bgkanon_data::Delta`] contract).
pub(crate) fn remap_row(row: usize, sorted_deletes: &[usize]) -> Option<usize> {
    match sorted_deletes.binary_search(&row) {
        Ok(_) => None,
        Err(below) => Some(row - below),
    }
}

/// Carry group stamps across a refresh: a new group whose row list is
/// exactly an old group's row list remapped through the delta (same
/// records, same order) keeps its stamp; every other group draws a fresh
/// one from `next_stamp`. Old groups that lost a member to a delete can
/// never match — their membership changed by definition.
///
/// Exact-order matching (not set matching) is deliberate: a cached risk is
/// replayed only when recomputing it would walk the identical rows in the
/// identical order, so replay is bit-identical even where float summation
/// order matters.
pub(crate) fn reuse_stamps(
    old_groups: &[Vec<usize>],
    old_stamps: &[u64],
    deletes: &[usize],
    new_groups: &[Vec<usize>],
    next_stamp: &mut u64,
) -> Vec<u64> {
    use std::collections::BTreeMap;
    let mut surviving: Vec<(Vec<usize>, u64)> = Vec::with_capacity(old_groups.len());
    'groups: for (rows, &stamp) in old_groups.iter().zip(old_stamps) {
        let mut mapped = Vec::with_capacity(rows.len());
        for &r in rows {
            match remap_row(r, deletes) {
                Some(nr) => mapped.push(nr),
                None => continue 'groups,
            }
        }
        surviving.push((mapped, stamp));
    }
    let mut by_rows: BTreeMap<&[usize], u64> = surviving
        .iter()
        .map(|(rows, stamp)| (rows.as_slice(), *stamp))
        .collect();
    new_groups
        .iter()
        .map(|rows| match by_rows.remove(rows.as_slice()) {
            Some(stamp) => stamp,
            None => {
                let stamp = *next_stamp;
                *next_stamp += 1;
                stamp
            }
        })
        .collect()
}

impl StrategyState for PartitionTree {
    fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        PartitionTree::snapshot(self, table)
    }

    fn carried_snapshot(
        &self,
        table: &Table,
        previous: &AnonymizedTable,
        previous_stamps: &[u64],
        deletes: &[usize],
    ) -> (AnonymizedTable, Vec<u64>) {
        PartitionTree::carried_snapshot(self, table, previous, previous_stamps, deletes)
    }

    fn bytes_accounted(&self) -> usize {
        PartitionTree::bytes_accounted(self)
    }
}

impl AnonymizationStrategy for Mondrian {
    type State = PartitionTree;

    fn name(&self) -> &'static str {
        "mondrian"
    }

    fn describe(&self) -> String {
        format!(
            "mondrian (local recoding, median splits) enforcing {}",
            self.requirement().name()
        )
    }

    fn plant_with(
        &self,
        table: &Table,
        parallelism: Parallelism,
    ) -> Result<PartitionTree, Infeasible> {
        Ok(Mondrian::plant_with(self, table, parallelism))
    }

    fn warm(&self, state: &mut PartitionTree, table: &Table) {
        self.warm_stats(state, table);
    }

    fn refresh(
        &self,
        state: &mut PartitionTree,
        old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible> {
        Mondrian::refresh(self, state, old, new, deletes);
        Ok(())
    }
}

/// Runtime-selected strategy: the closed sum of the shipped algorithms,
/// paired with [`AnyState`]. This is what a `Publisher`-driven session
/// uses when the algorithm is chosen by configuration (`--algorithm`)
/// rather than by a type parameter (`bgkanon::Publisher` drives it).
pub enum AnyStrategy {
    /// Mondrian local recoding over a [`PartitionTree`].
    Mondrian(Mondrian),
    /// Anatomy-style ℓ-diverse bucketization.
    Bucketize(Bucketize),
    /// Incognito-style full-domain generalization.
    FullDomain(FullDomain),
}

/// State for [`AnyStrategy`]: the matching variant of the per-algorithm
/// state types.
pub enum AnyState {
    /// Mondrian's partition tree.
    Mondrian(PartitionTree),
    /// Bucketization's bucket membership.
    Bucketize(BucketizeState),
    /// Full-domain generalization's lattice frontier.
    FullDomain(FullDomainState),
}

impl StrategyState for AnyState {
    fn snapshot(&self, table: &Table) -> (AnonymizedTable, Vec<u64>) {
        match self {
            AnyState::Mondrian(s) => StrategyState::snapshot(s, table),
            AnyState::Bucketize(s) => s.snapshot(table),
            AnyState::FullDomain(s) => s.snapshot(table),
        }
    }

    fn carried_snapshot(
        &self,
        table: &Table,
        previous: &AnonymizedTable,
        previous_stamps: &[u64],
        deletes: &[usize],
    ) -> (AnonymizedTable, Vec<u64>) {
        match self {
            AnyState::Mondrian(s) => s.carried_snapshot(table, previous, previous_stamps, deletes),
            AnyState::Bucketize(s) => s.carried_snapshot(table, previous, previous_stamps, deletes),
            AnyState::FullDomain(s) => {
                s.carried_snapshot(table, previous, previous_stamps, deletes)
            }
        }
    }

    fn bytes_accounted(&self) -> usize {
        match self {
            AnyState::Mondrian(s) => StrategyState::bytes_accounted(s),
            AnyState::Bucketize(s) => s.bytes_accounted(),
            AnyState::FullDomain(s) => s.bytes_accounted(),
        }
    }
}

fn variant_mismatch(strategy: &AnyStrategy, state: &AnyState) -> Infeasible {
    let state_name = match state {
        AnyState::Mondrian(_) => "mondrian",
        AnyState::Bucketize(_) => "bucketize",
        AnyState::FullDomain(_) => "fulldomain",
    };
    Infeasible::new(format!(
        "strategy `{}` cannot refresh `{}` state",
        match strategy {
            AnyStrategy::Mondrian(_) => "mondrian",
            AnyStrategy::Bucketize(_) => "bucketize",
            AnyStrategy::FullDomain(_) => "fulldomain",
        },
        state_name
    ))
}

impl AnonymizationStrategy for AnyStrategy {
    type State = AnyState;

    fn name(&self) -> &'static str {
        match self {
            AnyStrategy::Mondrian(s) => AnonymizationStrategy::name(s),
            AnyStrategy::Bucketize(s) => s.name(),
            AnyStrategy::FullDomain(s) => s.name(),
        }
    }

    fn describe(&self) -> String {
        match self {
            AnyStrategy::Mondrian(s) => AnonymizationStrategy::describe(s),
            AnyStrategy::Bucketize(s) => s.describe(),
            AnyStrategy::FullDomain(s) => s.describe(),
        }
    }

    fn plant_with(&self, table: &Table, parallelism: Parallelism) -> Result<AnyState, Infeasible> {
        match self {
            AnyStrategy::Mondrian(s) => {
                AnonymizationStrategy::plant_with(s, table, parallelism).map(AnyState::Mondrian)
            }
            AnyStrategy::Bucketize(s) => s.plant_with(table, parallelism).map(AnyState::Bucketize),
            AnyStrategy::FullDomain(s) => {
                s.plant_with(table, parallelism).map(AnyState::FullDomain)
            }
        }
    }

    fn warm(&self, state: &mut AnyState, table: &Table) {
        if let (AnyStrategy::Mondrian(s), AnyState::Mondrian(tree)) = (self, &mut *state) {
            AnonymizationStrategy::warm(s, tree, table);
        }
    }

    fn refresh(
        &self,
        state: &mut AnyState,
        old: &Table,
        new: &Table,
        deletes: &[usize],
    ) -> Result<(), Infeasible> {
        match (self, state) {
            (AnyStrategy::Mondrian(s), AnyState::Mondrian(tree)) => {
                AnonymizationStrategy::refresh(s, tree, old, new, deletes)
            }
            (AnyStrategy::Bucketize(s), AnyState::Bucketize(st)) => {
                s.refresh(st, old, new, deletes)
            }
            (AnyStrategy::FullDomain(s), AnyState::FullDomain(st)) => {
                s.refresh(st, old, new, deletes)
            }
            (strategy, state) => Err(variant_mismatch(strategy, state)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::adult;
    use bgkanon_privacy::KAnonymity;
    use std::sync::Arc;

    #[test]
    fn mondrian_strategy_matches_inherent_engine() {
        let t = adult::generate(300, 21);
        let mondrian = Mondrian::new(Arc::new(KAnonymity::new(4)));
        let via_trait = AnonymizationStrategy::plant(&mondrian, &t).expect("satisfiable");
        let direct = mondrian.plant(&t);
        let (a, stamps_a) = StrategyState::snapshot(&via_trait, &t);
        let (b, stamps_b) = direct.snapshot(&t);
        assert_eq!(stamps_a, stamps_b);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn any_strategy_rejects_variant_mismatch() {
        let t = adult::generate(200, 22);
        let mondrian = AnyStrategy::Mondrian(Mondrian::new(Arc::new(KAnonymity::new(3))));
        let bucketize = AnyStrategy::Bucketize(Bucketize::new(3));
        let mut state = bucketize.plant(&t).expect("3-eligible");
        let err = mondrian
            .refresh(&mut state, &t, &t, &[])
            .expect_err("variant mismatch");
        assert!(err.to_string().contains("mondrian"));
        assert!(err.to_string().contains("bucketize"));
        // The state is untouched and still snapshots.
        let (at, _) = state.snapshot(&t);
        assert_eq!(at.len(), t.len());
    }

    #[test]
    fn infeasible_is_a_std_error() {
        let e = Infeasible::new("no ℓ-diverse partition");
        assert!(e.to_string().contains("infeasible"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_none());
    }
}
