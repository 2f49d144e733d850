//! High-level publishing pipeline: declare requirements, anonymize, audit.
//!
//! [`Publisher`] collects declarative requirement specs plus an
//! [`Algorithm`] selection; [`Publisher::publish`] instantiates the specs
//! against a concrete table (several models need the table to derive
//! reference distributions or prior models), runs the selected
//! anonymization strategy, and returns a [`PublishOutcome`] that can be
//! audited and scored for utility.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use bgkanon_anon::{
    AnonymizationStrategy, AnonymizedTable, AnyStrategy, Bucketize, FullDomain, Infeasible,
    Mondrian, PublicationDrift, StrategyState,
};
use bgkanon_data::{Parallelism, Table};
use bgkanon_knowledge::bandwidth::BandwidthError;
use bgkanon_knowledge::{Adversary, Bandwidth};
use bgkanon_privacy::{
    And, AuditReport, Auditor, BTPrivacy, DistinctLDiversity, GroupView, KAnonymity,
    PrivacyRequirement, ProbabilisticLDiversity, SkylineBTPrivacy, SkylineError, TCloseness,
};
use bgkanon_stats::SmoothedJs;

/// Declarative requirement, instantiated at publish time. The genesis
/// file stores one spec line per requirement ([`crate::format`]).
#[derive(Debug, Clone)]
pub(crate) enum Spec {
    K(usize),
    DistinctL(usize),
    ProbabilisticL(usize),
    TCloseness(f64),
    Bt { bandwidth: BandwidthSpec, t: f64 },
    Skyline(Vec<(f64, f64)>),
}

#[derive(Debug, Clone)]
pub(crate) enum BandwidthSpec {
    Uniform(f64),
    Vector(Vec<f64>),
}

impl Spec {
    /// Human-readable kind, for error messages about spec/algorithm
    /// mismatches.
    fn kind(&self) -> &'static str {
        match self {
            Spec::K(_) => "k-anonymity",
            Spec::DistinctL(_) => "distinct ℓ-diversity",
            Spec::ProbabilisticL(_) => "probabilistic ℓ-diversity",
            Spec::TCloseness(_) => "t-closeness",
            Spec::Bt { .. } => "(B,t)-privacy",
            Spec::Skyline(_) => "skyline (B,t)-privacy",
        }
    }
}

/// Which anonymization algorithm a [`Publisher`] (and every session opened
/// from it) runs. All three publish through the same
/// [`AnonymizationStrategy`] contract; they differ in how groups are formed
/// and which requirement kinds they can enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Mondrian multidimensional local recoding — the default; enforces any
    /// requirement combination.
    #[default]
    Mondrian,
    /// Anatomy-style bucketization on the sensitive attribute; enforces
    /// k-anonymity and distinct ℓ-diversity (the bucket invariant — ≥ ℓ
    /// distinct sensitive values, size ≥ ℓ — implies both).
    Bucketize,
    /// Incognito-style full-domain generalization over the level lattice;
    /// enforces any requirement combination.
    FullDomain,
}

impl Algorithm {
    /// The stable lowercase identifier (CLI flag value, genesis-file tag,
    /// strategy [`name()`](AnonymizationStrategy::name)).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mondrian => "mondrian",
            Algorithm::Bucketize => "bucketize",
            Algorithm::FullDomain => "fulldomain",
        }
    }

    /// Parse the identifier [`name()`](Self::name) emits.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mondrian" => Some(Algorithm::Mondrian),
            "bucketize" => Some(Algorithm::Bucketize),
            "fulldomain" => Some(Algorithm::FullDomain),
            _ => None,
        }
    }
}

/// Errors from [`Publisher::publish`].
#[derive(Debug, Clone)]
pub enum PublishError {
    /// No requirement was declared.
    NoRequirements,
    /// The table as a whole violates the requirement — Mondrian cannot emit
    /// any partition.
    Unsatisfiable {
        /// Name of the violated requirement.
        requirement: String,
    },
    /// A (B,t)-privacy or skyline bandwidth `b` is zero, negative, NaN or
    /// infinite.
    Bandwidth(BandwidthError),
    /// A skyline spec declares no `(b, t)` point.
    EmptySkyline,
    /// A bandwidth vector's dimension does not match the table.
    BandwidthDimension {
        /// Provided dimension.
        got: usize,
        /// Required dimension (number of QI attributes).
        expected: usize,
    },
    /// The selected algorithm cannot produce (or incrementally maintain) a
    /// publication for these specs or this table — e.g. bucketization asked
    /// to enforce t-closeness, or no ℓ-eligible bucket partition exists.
    Infeasible {
        /// Why the strategy cannot proceed.
        reason: String,
    },
}

impl From<Infeasible> for PublishError {
    fn from(e: Infeasible) -> Self {
        PublishError::Infeasible { reason: e.reason }
    }
}

impl From<SkylineError> for PublishError {
    fn from(e: SkylineError) -> Self {
        match e {
            SkylineError::NoPoints => PublishError::EmptySkyline,
            SkylineError::Bandwidth(e) => PublishError::Bandwidth(e),
        }
    }
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::NoRequirements => write!(f, "no privacy requirements declared"),
            PublishError::Unsatisfiable { requirement } => write!(
                f,
                "the whole table violates `{requirement}`; no anonymization exists"
            ),
            PublishError::Bandwidth(e) => write!(f, "invalid bandwidth: {e}"),
            PublishError::EmptySkyline => {
                write!(f, "a skyline needs at least one (b, t) point")
            }
            PublishError::BandwidthDimension { got, expected } => {
                write!(
                    f,
                    "bandwidth has {got} components, table has {expected} QI attributes"
                )
            }
            PublishError::Infeasible { reason } => write!(f, "infeasible: {reason}"),
        }
    }
}

impl std::error::Error for PublishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PublishError::Bandwidth(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a release is not what a from-scratch publish of its table gives —
/// the verdict of [`Publisher::verify`].
#[derive(Debug, Clone)]
pub enum Drift {
    /// The from-scratch reference could not be published at all.
    Republish(PublishError),
    /// The release differs from the from-scratch publication; the drift
    /// names the first differing part (release on the left, reference on
    /// the right).
    Publication(PublicationDrift),
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Republish(e) => write!(f, "from-scratch republish failed: {e}"),
            Drift::Publication(d) => {
                write!(f, "publication drifted from a from-scratch publish: {d}")
            }
        }
    }
}

impl std::error::Error for Drift {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Drift::Republish(e) => Some(e),
            Drift::Publication(_) => None,
        }
    }
}

/// Builder for a publishing run.
///
/// ```
/// use bgkanon::{Publisher, Parallelism};
///
/// let table = bgkanon::data::adult::generate(300, 7);
/// let outcome = Publisher::new()
///     .k_anonymity(5)
///     .parallelism(Parallelism::threads(2))
///     .publish(&table)?;
/// assert!(outcome.anonymized.iter().all(|g| g.len() >= 5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Publisher {
    pub(crate) specs: Vec<Spec>,
    parallelism: Parallelism,
    pub(crate) algorithm: Algorithm,
}

impl Publisher {
    /// Start an empty publisher (with [`Parallelism::Auto`] and
    /// [`Algorithm::Mondrian`]).
    pub fn new() -> Self {
        Publisher::default()
    }

    /// Select the anonymization algorithm. The default is
    /// [`Algorithm::Mondrian`]; bucketization and full-domain
    /// generalization publish the same [`AnonymizedTable`] group structure
    /// through their own strategies.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Select how many workers anonymization, prior estimation and the
    /// audits run off this publisher's outcome use. Every knob runs the
    /// same engines: [`Parallelism::Serial`] on one worker, on the calling
    /// thread; the default [`Parallelism::Auto`] with one worker per core.
    /// Output is bit-identical either way, and equal to each stage's
    /// reference: `Mondrian::plant_reference` for the Mondrian partition,
    /// `PriorEstimator::estimate_reference` for `Adv(b)` and
    /// `Auditor::report_reference` for the audit.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enforce k-anonymity.
    pub fn k_anonymity(mut self, k: usize) -> Self {
        self.specs.push(Spec::K(k));
        self
    }

    /// Enforce distinct ℓ-diversity.
    pub fn distinct_l_diversity(mut self, l: usize) -> Self {
        self.specs.push(Spec::DistinctL(l));
        self
    }

    /// Enforce probabilistic ℓ-diversity.
    pub fn probabilistic_l_diversity(mut self, l: usize) -> Self {
        self.specs.push(Spec::ProbabilisticL(l));
        self
    }

    /// Enforce t-closeness.
    pub fn t_closeness(mut self, t: f64) -> Self {
        self.specs.push(Spec::TCloseness(t));
        self
    }

    /// Enforce (B,t)-privacy with a uniform bandwidth `b` on every QI
    /// attribute.
    pub fn bt_privacy(mut self, b: f64, t: f64) -> Self {
        self.specs.push(Spec::Bt {
            bandwidth: BandwidthSpec::Uniform(b),
            t,
        });
        self
    }

    /// Enforce (B,t)-privacy with a per-attribute bandwidth vector.
    pub fn bt_privacy_vector(mut self, bandwidth: Vec<f64>, t: f64) -> Self {
        self.specs.push(Spec::Bt {
            bandwidth: BandwidthSpec::Vector(bandwidth),
            t,
        });
        self
    }

    /// Enforce skyline (B,t)-privacy over `(b, t)` pairs.
    pub fn skyline(mut self, pairs: Vec<(f64, f64)>) -> Self {
        self.specs.push(Spec::Skyline(pairs));
        self
    }

    /// Instantiate the requirements for `table`, run the selected
    /// [`Algorithm`], and return the outcome.
    ///
    /// This is the one-shot form of a publishing session: the same strategy
    /// plants its retained state and derives the published view from it,
    /// but none of that state (partition tree, bucket lists, lattice
    /// frontier, audit caches) outlives the call — callers that expect
    /// deltas open a [`PublishSession`](crate::PublishSession) instead.
    pub fn publish(&self, table: &Table) -> Result<PublishOutcome, PublishError> {
        let requirement = self.instantiate(table)?;
        if !whole_table_satisfies(table, &requirement) {
            return Err(PublishError::Unsatisfiable {
                requirement: requirement.name(),
            });
        }
        let requirement_name = requirement.name();
        let strategy = self.strategy(&requirement)?;
        let started = std::time::Instant::now(); // bgk-allow: R3 telemetry only: elapsed is reported, never branches
        let state = strategy.plant_with(table, self.parallelism)?;
        let elapsed = started.elapsed();
        let (anonymized, _stamps) = state.snapshot(table);
        Ok(PublishOutcome {
            anonymized,
            requirement_name,
            elapsed,
            parallelism: self.parallelism,
        })
    }

    /// Check that `published` is exactly what [`publish`](Self::publish)
    /// of `table` gives — the requirement re-instantiated against `table`,
    /// compared with [`AnonymizedTable::first_difference`]. This is the
    /// drift oracle for incremental releases: a session's, a hub
    /// snapshot's or a recovered tenant's publication must pass it. On
    /// success it returns the fresh outcome, so a caller that also checks
    /// an audit compares its report with the outcome's
    /// [`audit_against`](PublishOutcome::audit_against) through
    /// [`AuditReport::first_difference`].
    ///
    /// ```
    /// use bgkanon::Publisher;
    ///
    /// let table = bgkanon::data::adult::generate(200, 3);
    /// let publisher = Publisher::new().k_anonymity(4);
    /// let mut session = publisher.open(&table)?;
    /// let fresh = publisher.verify(session.table(), session.anonymized())?;
    /// let audit = session.audit_against(0.3, 0.2)?;
    /// assert_eq!(audit.first_difference(&fresh.audit_against(&table, 0.3, 0.2)?), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn verify(
        &self,
        table: &Table,
        published: &AnonymizedTable,
    ) -> Result<PublishOutcome, Drift> {
        let fresh = self.publish(table).map_err(Drift::Republish)?;
        match published.first_difference(&fresh.anonymized) {
            None => Ok(fresh),
            Some(drift) => Err(Drift::Publication(drift)),
        }
    }

    /// Describe the strategy this publisher would run on `table` — the
    /// algorithm plus its derived parameters (Mondrian's requirement,
    /// bucketization's ℓ, full-domain's search mode). The CLI's
    /// `--explain` flag prints this.
    pub fn explain(&self, table: &Table) -> Result<String, PublishError> {
        let requirement = self.instantiate(table)?;
        Ok(self.strategy(&requirement)?.describe())
    }

    /// Build the [`AnyStrategy`] the declared [`Algorithm`] and specs
    /// select, against an already-instantiated requirement.
    ///
    /// Bucketization enforces only k-anonymity and distinct ℓ-diversity:
    /// every bucket carries ≥ ℓ distinct sensitive values and ≥ ℓ rows, so
    /// ℓ is the max over the declared k and ℓ values; any other spec kind
    /// is infeasible for it. Full-domain generalization searches the level
    /// lattice with the two-way tagging search when every spec is monotone
    /// in levels (k-anonymity, distinct ℓ-diversity), exhaustively
    /// otherwise.
    pub(crate) fn strategy(
        &self,
        requirement: &Arc<dyn PrivacyRequirement>,
    ) -> Result<AnyStrategy, PublishError> {
        let monotone_specs = self
            .specs
            .iter()
            .all(|s| matches!(s, Spec::K(_) | Spec::DistinctL(_)));
        match self.algorithm {
            Algorithm::Mondrian => Ok(AnyStrategy::Mondrian(Mondrian::new(Arc::clone(
                requirement,
            )))),
            Algorithm::Bucketize => {
                if let Some(spec) = self
                    .specs
                    .iter()
                    .find(|s| !matches!(s, Spec::K(_) | Spec::DistinctL(_)))
                {
                    return Err(PublishError::Infeasible {
                        reason: format!(
                            "bucketization cannot enforce {}; only k-anonymity and distinct \
                             ℓ-diversity map onto ℓ-diverse buckets",
                            spec.kind()
                        ),
                    });
                }
                let l = self
                    .specs
                    .iter()
                    .map(|s| match s {
                        Spec::K(k) => *k,
                        Spec::DistinctL(l) => *l,
                        _ => unreachable!("filtered above"),
                    })
                    .max()
                    .unwrap_or(1)
                    .max(1);
                Ok(AnyStrategy::Bucketize(Bucketize::new(l)))
            }
            Algorithm::FullDomain => {
                let strategy = if monotone_specs {
                    FullDomain::new_monotone(Arc::clone(requirement))
                } else {
                    FullDomain::new_exhaustive(Arc::clone(requirement))
                };
                Ok(AnyStrategy::FullDomain(strategy))
            }
        }
    }

    /// Open a retained [`PublishSession`](crate::PublishSession) on
    /// `table`: instantiate the requirements, plant the partition tree and
    /// derive the first publication. Equivalent to
    /// [`publish`](Self::publish) plus keeping the engine state alive for
    /// incremental re-publication.
    pub fn open(&self, table: &Table) -> Result<crate::PublishSession, PublishError> {
        crate::PublishSession::open(table, self)
    }

    /// Instantiate this publisher's declarative specs against `table`.
    pub(crate) fn instantiate(
        &self,
        table: &Table,
    ) -> Result<Arc<dyn PrivacyRequirement>, PublishError> {
        if self.specs.is_empty() {
            return Err(PublishError::NoRequirements);
        }
        let d = table.qi_count();
        let mut parts: Vec<Box<dyn PrivacyRequirement>> = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let part: Box<dyn PrivacyRequirement> = match spec {
                Spec::K(k) => Box::new(KAnonymity::new(*k)),
                Spec::DistinctL(l) => Box::new(DistinctLDiversity::new(*l)),
                Spec::ProbabilisticL(l) => Box::new(ProbabilisticLDiversity::new(*l)),
                Spec::TCloseness(t) => Box::new(TCloseness::new(*t, table)),
                Spec::Bt { bandwidth, t } => {
                    let bw = match bandwidth {
                        BandwidthSpec::Uniform(b) => Bandwidth::uniform(*b, d),
                        BandwidthSpec::Vector(v) => {
                            if v.len() != d {
                                return Err(PublishError::BandwidthDimension {
                                    got: v.len(),
                                    expected: d,
                                });
                            }
                            Bandwidth::new(v.clone())
                        }
                    }
                    .map_err(PublishError::Bandwidth)?;
                    Box::new(BTPrivacy::new(table, bw, *t))
                }
                Spec::Skyline(pairs) => Box::new(SkylineBTPrivacy::from_pairs(table, pairs)?),
            };
            parts.push(part);
        }
        // One spec stands alone; several form a conjunction.
        Ok(match <[_; 1]>::try_from(parts) {
            Ok([only]) => only.into(),
            Err(parts) => Arc::new(And::new(parts)),
        })
    }

    /// The parallelism knob this publisher was configured with.
    pub(crate) fn parallelism_knob(&self) -> Parallelism {
        self.parallelism
    }
}

/// Does the whole `table` satisfy `requirement`? The pre-check sessions run
/// so callers get a `PublishError` instead of the Mondrian panic.
///
/// A counts-decidable requirement is answered from the table's size and
/// sensitive histogram, one pass over the sensitive column (the trait
/// contract makes that agree with the row-level check); row-dependent
/// requirements ((B,t), skyline) evaluate the whole-table group view.
pub(crate) fn whole_table_satisfies(
    table: &Table,
    requirement: &Arc<dyn PrivacyRequirement>,
) -> bool {
    if requirement.counts_decidable() {
        let mut counts = vec![0u32; table.schema().sensitive_domain_size()];
        for &s in table.sensitive_col() {
            counts[s as usize] += 1;
        }
        return requirement.is_satisfied_by_counts(table.len(), &counts);
    }
    let all_rows: Vec<usize> = (0..table.len()).collect();
    let mut buf = Vec::new();
    let root = GroupView::compute(table, &all_rows, &mut buf);
    requirement.is_satisfied(&root)
}

/// The result of a publishing run.
#[derive(Debug, Clone)]
pub struct PublishOutcome {
    /// The published partition.
    pub anonymized: AnonymizedTable,
    /// Name of the enforced requirement.
    pub requirement_name: String,
    /// Wall-clock anonymization time (excludes prior-model estimation done
    /// inside requirement construction, matching the paper's Fig. 4(a)
    /// accounting).
    pub elapsed: Duration,
    /// The execution engine the publisher ran with; audits launched from
    /// this outcome reuse it.
    pub parallelism: Parallelism,
}

impl PublishOutcome {
    /// Audit this release against the adversary `Adv(b′)` (uniform bandwidth
    /// `b'`) with vulnerability threshold `t`, using the paper's smoothed-JS
    /// distance.
    ///
    /// Fails with a [`BandwidthError`] when `b'` is not positive and
    /// finite (0, negative, NaN or ∞).
    pub fn audit_against(
        &self,
        table: &Table,
        b_prime: f64,
        t: f64,
    ) -> Result<AuditReport, BandwidthError> {
        let bandwidth = Bandwidth::uniform(b_prime, table.qi_count())?;
        let adversary = Arc::new(Adversary::kernel(table, bandwidth));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        Ok(Auditor::new(adversary, measure).report_with(
            table,
            &self.anonymized.row_groups(),
            t,
            self.parallelism,
        ))
    }

    /// Audit with a prebuilt auditor (reuse the adversary's prior model
    /// across several releases — the Fig. 1 experiments do this).
    pub fn audit_with(&self, table: &Table, auditor: &Auditor, t: f64) -> AuditReport {
        auditor.report_with(table, &self.anonymized.row_groups(), t, self.parallelism)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::{adult, toy};

    #[test]
    fn publish_toy_table_with_bt() {
        let t = toy::hospital_table();
        let outcome = Publisher::new()
            .k_anonymity(3)
            .bt_privacy(0.3, 0.25)
            .publish(&t)
            .expect("satisfiable");
        assert!(outcome.requirement_name.contains("3-anonymity"));
        assert!(outcome.requirement_name.contains("privacy"));
        // Audit against the same adversary: within threshold by construction.
        let report = outcome.audit_against(&t, 0.3, 0.25).unwrap();
        assert!(report.worst_case <= 0.25 + 1e-9);
        assert_eq!(report.vulnerable, 0);
    }

    #[test]
    fn audit_against_rejects_bad_bandwidths() {
        let t = toy::hospital_table();
        let outcome = Publisher::new().k_anonymity(3).publish(&t).unwrap();
        for b in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            let err = outcome.audit_against(&t, b, 0.25).unwrap_err();
            assert!(matches!(err, BandwidthError::NonPositive(_)), "b′={b}");
        }
    }

    #[test]
    fn bad_spec_bandwidths_are_typed_errors() {
        let t = toy::hospital_table(); // two QI attributes
        for b in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            for publisher in [
                Publisher::new().k_anonymity(3).bt_privacy(b, 0.25),
                Publisher::new().bt_privacy_vector(vec![0.3, b], 0.25),
                Publisher::new().skyline(vec![(0.3, 0.25), (b, 0.4)]),
            ] {
                let err = publisher.instantiate(&t).err().unwrap();
                assert!(
                    matches!(err, PublishError::Bandwidth(BandwidthError::NonPositive(_))),
                    "b={b}: {err}"
                );
                assert!(err.to_string().contains("bandwidth"), "{err}");
                assert!(publisher.publish(&t).is_err());
                assert!(publisher.open(&t).is_err());
            }
        }
        let err = Publisher::new().skyline(Vec::new()).instantiate(&t).err();
        assert!(matches!(err, Some(PublishError::EmptySkyline)), "{err:?}");
    }

    #[test]
    fn publish_all_four_models() {
        let t = adult::generate(400, 51);
        for publisher in [
            Publisher::new().k_anonymity(3).distinct_l_diversity(3),
            Publisher::new().k_anonymity(3).probabilistic_l_diversity(3),
            Publisher::new().k_anonymity(3).t_closeness(0.25),
            Publisher::new().k_anonymity(3).bt_privacy(0.3, 0.25),
        ] {
            let outcome = publisher.publish(&t).expect("satisfiable on adult");
            assert!(outcome.anonymized.group_count() >= 1);
        }
    }

    #[test]
    fn empty_publisher_errors() {
        let t = toy::hospital_table();
        assert!(matches!(
            Publisher::new().publish(&t),
            Err(PublishError::NoRequirements)
        ));
    }

    #[test]
    fn unsatisfiable_requirement_errors() {
        let t = toy::hospital_table();
        let err = Publisher::new().k_anonymity(100).publish(&t).unwrap_err();
        match err {
            PublishError::Unsatisfiable { requirement } => {
                assert!(requirement.contains("100-anonymity"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn bandwidth_vector_dimension_checked() {
        let t = toy::hospital_table();
        let err = Publisher::new()
            .bt_privacy_vector(vec![0.3; 5], 0.25)
            .publish(&t)
            .unwrap_err();
        assert!(matches!(
            err,
            PublishError::BandwidthDimension {
                got: 5,
                expected: 2
            }
        ));
    }

    #[test]
    fn skyline_publishing_works() {
        let t = toy::hospital_table();
        let outcome = Publisher::new()
            .k_anonymity(3)
            .skyline(vec![(0.2, 0.4), (0.4, 0.3)])
            .publish(&t)
            .expect("satisfiable");
        // Each skyline point individually holds on the published table.
        for (b, thr) in [(0.2, 0.4), (0.4, 0.3)] {
            let rep = outcome.audit_against(&t, b, thr).unwrap();
            assert!(rep.worst_case <= thr + 1e-9, "b={b}: {}", rep.worst_case);
        }
    }

    #[test]
    fn elapsed_is_populated() {
        let t = adult::generate(200, 52);
        let outcome = Publisher::new().k_anonymity(5).publish(&t).unwrap();
        assert!(outcome.elapsed.as_nanos() > 0);
    }

    #[test]
    fn publish_error_is_a_std_error() {
        // Callers can use `?` with `Box<dyn Error>`, as the examples do.
        fn pipeline(t: &Table) -> Result<usize, Box<dyn std::error::Error>> {
            let outcome = Publisher::new().publish(t)?;
            Ok(outcome.anonymized.group_count())
        }
        let err = pipeline(&toy::hospital_table()).unwrap_err();
        assert!(err.to_string().contains("no privacy"));
        let boxed: Box<dyn std::error::Error> = Box::new(PublishError::NoRequirements);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn outcome_records_parallelism() {
        let t = adult::generate(200, 53);
        let outcome = Publisher::new()
            .k_anonymity(5)
            .parallelism(Parallelism::Serial)
            .publish(&t)
            .unwrap();
        assert_eq!(outcome.parallelism, Parallelism::Serial);
        let auto = Publisher::new().k_anonymity(5).publish(&t).unwrap();
        assert_eq!(auto.parallelism, Parallelism::Auto);
        assert_eq!(outcome.anonymized.first_difference(&auto.anonymized), None);
    }

    /// Read spec lines through the genesis file's spec-block reader.
    fn from_spec_lines<S: AsRef<str>>(lines: &[S]) -> Result<Publisher, String> {
        let lines: Vec<&str> = lines.iter().map(AsRef::as_ref).collect();
        let text = format!("specs {}\n{}", lines.len(), lines.join("\n"));
        crate::format::read_specs(&mut crate::format::Cursor::new(&text))
    }

    /// The spec lines `publisher` writes, without the block head.
    fn spec_lines(publisher: &Publisher) -> Vec<String> {
        let text = crate::format::spec_text(publisher);
        text.lines().skip(1).map(str::to_owned).collect()
    }

    #[test]
    fn spec_lines_roundtrip_bit_identically() {
        let t = adult::generate(300, 54);
        let original = Publisher::new()
            .k_anonymity(3)
            .distinct_l_diversity(2)
            .probabilistic_l_diversity(2)
            .t_closeness(0.31)
            .bt_privacy(0.3, 0.25)
            .bt_privacy_vector(vec![0.25, 0.5, 0.125, 0.75, 0.3, 0.6], 0.2)
            .skyline(vec![(0.2, 0.4), (0.4, 0.3)]);
        let lines = spec_lines(&original);
        let rebuilt = from_spec_lines(&lines).expect("roundtrip");
        assert_eq!(spec_lines(&rebuilt), lines);
        // The rebuilt publisher produces the same publication bit-for-bit.
        let a = original.publish(&t).expect("satisfiable");
        let b = rebuilt.publish(&t).expect("satisfiable");
        assert_eq!(a.requirement_name, b.requirement_name);
        assert_eq!(a.anonymized.first_difference(&b.anonymized), None);
    }

    #[test]
    fn malformed_spec_lines_are_rejected() {
        for bad in [
            "speck 3",
            "spec",
            "spec k",
            "spec k 3 4",
            "spec k three",
            "spec warp 9",
            "spec bt-uniform 0.3",
            "spec bt-vector 0.2",
            "spec skyline 0.2",
            "spec skyline",
        ] {
            assert!(
                from_spec_lines(&[bad]).is_err(),
                "`{bad}` should be rejected"
            );
        }
        assert!(
            from_spec_lines::<&str>(&[]).is_err(),
            "empty spec list should be rejected"
        );
    }

    /// Parameters the requirement constructors would reject with a panic
    /// are parse errors, so a damaged genesis file cannot crash recovery.
    #[test]
    fn out_of_range_spec_values_are_rejected() {
        for bad in [
            "spec k 0",
            "spec distinct-l 0",
            "spec probabilistic-l 0",
            "spec t-closeness 1.5",
            "spec t-closeness -0.1",
            "spec t-closeness NaN",
            "spec bt-uniform 0.3 -1",
            "spec bt-uniform 0.3 inf",
            "spec bt-vector NaN 0.3 0.3",
            "spec skyline 0.3 0.2 0.4 -0.5",
        ] {
            let err = from_spec_lines(&[bad]).expect_err(bad);
            assert!(err.contains("out of range"), "`{bad}`: {err}");
        }
        // The edges of each range still parse.
        let edges = ["spec k 1", "spec t-closeness 0", "spec t-closeness 1"];
        let publisher = from_spec_lines(&edges).unwrap();
        publisher.instantiate(&adult::generate(40, 3)).unwrap();
    }

    /// Valid spec blocks of every spec kind and algorithm selector: the
    /// seeds the fuzz property mutates.
    fn spec_seeds() -> Vec<String> {
        [
            Publisher::new().k_anonymity(4).bt_privacy(0.3, 0.25),
            Publisher::new()
                .distinct_l_diversity(3)
                .probabilistic_l_diversity(2)
                .t_closeness(0.2),
            Publisher::new()
                .k_anonymity(2)
                .bt_privacy_vector(vec![0.3, 0.5, 0.25, 0.75, 0.3, 0.6], 0.4)
                .algorithm(Algorithm::FullDomain),
            Publisher::new()
                .skyline(vec![(0.2, 0.5), (0.4, 0.3)])
                .algorithm(Algorithm::Bucketize),
        ]
        .iter()
        .map(crate::format::spec_text)
        .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Byte edits of valid spec blocks give an error, or a publisher
        /// whose block round-trips and which instantiates against a table
        /// or refuses with a `PublishError` — never a panic.
        #[test]
        fn mutated_spec_lines_never_panic(
            pick in 0usize..64,
            edits in proptest::collection::vec((0usize..1 << 16, 0u8..=255, 0u8..3), 1..6),
        ) {
            use crate::format::{read_specs, spec_text, Cursor};
            let seeds = spec_seeds();
            let text = crate::fuzz::mutate(&seeds[pick % seeds.len()], &edits);
            if let Ok(publisher) = read_specs(&mut Cursor::new(&text)) {
                let written = spec_text(&publisher);
                let again = read_specs(&mut Cursor::new(&written));
                proptest::prop_assert_eq!(again.map(|p| spec_text(&p)), Ok(written));
                let table = adult::generate(40, 3);
                if let Ok(requirement) = publisher.instantiate(&table) {
                    let _ = publisher.strategy(&requirement);
                }
            }
        }
    }

    #[test]
    fn bucketize_and_fulldomain_publish_through_the_same_outcome() {
        let t = adult::generate(300, 55);
        for algorithm in [Algorithm::Bucketize, Algorithm::FullDomain] {
            let outcome = Publisher::new()
                .k_anonymity(3)
                .distinct_l_diversity(3)
                .algorithm(algorithm)
                .publish(&t)
                .expect("satisfiable on adult");
            assert!(outcome.anonymized.group_count() >= 1);
            // Both enforce the declared requirement on every group.
            for g in outcome.anonymized.groups() {
                assert!(g.len() >= 3);
                assert!(g.sensitive_counts.iter().filter(|&&c| c > 0).count() >= 3);
            }
        }
    }

    #[test]
    fn bucketize_rejects_non_diversity_specs() {
        let t = toy::hospital_table();
        let err = Publisher::new()
            .k_anonymity(3)
            .t_closeness(0.25)
            .algorithm(Algorithm::Bucketize)
            .publish(&t)
            .unwrap_err();
        match err {
            PublishError::Infeasible { reason } => assert!(reason.contains("t-closeness")),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn algorithm_line_roundtrips_and_legacy_lines_stay_mondrian() {
        let original = Publisher::new()
            .distinct_l_diversity(3)
            .algorithm(Algorithm::Bucketize);
        let lines = spec_lines(&original);
        assert_eq!(lines[0], "algorithm bucketize");
        let rebuilt = from_spec_lines(&lines).expect("roundtrip");
        assert_eq!(spec_lines(&rebuilt), lines);
        // Mondrian publishers serialize without the selector line (the
        // legacy byte shape), and legacy lines parse back as Mondrian.
        let legacy = spec_lines(&Publisher::new().k_anonymity(3));
        assert!(legacy.iter().all(|l| l.starts_with("spec ")));
        let parsed = from_spec_lines(&legacy).unwrap();
        assert_eq!(spec_lines(&parsed), legacy);
        for bad in ["algorithm warp", "algorithm", "algorithm mondrian extra"] {
            assert!(
                from_spec_lines(&[bad, "spec k 3"]).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn explain_names_the_strategy() {
        let t = adult::generate(100, 56);
        let text = Publisher::new().k_anonymity(4).explain(&t).unwrap();
        assert!(text.contains("mondrian"), "{text}");
        let text = Publisher::new()
            .k_anonymity(4)
            .algorithm(Algorithm::Bucketize)
            .explain(&t)
            .unwrap();
        assert!(text.contains("bucketize") && text.contains('4'), "{text}");
    }

    #[test]
    fn publish_error_display() {
        let e = PublishError::Unsatisfiable {
            requirement: "x".into(),
        };
        assert!(e.to_string().contains('x'));
        assert!(PublishError::NoRequirements
            .to_string()
            .contains("no privacy"));
    }
}
