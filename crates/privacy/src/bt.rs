//! The (B,t)-privacy principle (Definition 1, §IV.A).
//!
//! Given the background-knowledge parameter `B` and a threshold `t`, a
//! released table satisfies (B,t)-privacy iff for every tuple the adversary
//! `Adv(B)`'s belief change — measured by a [`BeliefDistance`] between her
//! prior `Ppri(B, q)` and posterior `Ppos(B, q, T*)` — is at most `t`:
//!
//! ```text
//! max_q D[Ppri(B, q), Ppos(B, q, T*)] ≤ t
//! ```
//!
//! Posteriors are computed with the Ω-estimate, matching the paper's
//! experimental setup; the distance defaults to the paper's smoothed-JS.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::Arc;

use bgkanon_data::Table;
use bgkanon_knowledge::{Adversary, Bandwidth};
use bgkanon_stats::measure::{BeliefDistance, SmoothedJs};
use bgkanon_stats::Dist;

use crate::requirement::{GroupView, PrivacyRequirement};
use crate::risk::{scan_group_risks, GroupMembers, RiskScratch};

/// The (B,t)-privacy requirement for one adversary profile.
#[derive(Clone)]
pub struct BTPrivacy {
    t: f64,
    adversary: Arc<Adversary>,
    measure: Arc<dyn BeliefDistance>,
    /// The measure's prepared prior of every point of the adversary's
    /// model, in point order, then of the fallback prior a QI outside the
    /// model gets: `(points + 1) × m` values, built once.
    prepared: Arc<[f64]>,
}

impl BTPrivacy {
    /// Build for `table` with bandwidth profile `bandwidth` and threshold
    /// `t`, using the paper's defaults: Epanechnikov kernel regression for
    /// the prior and smoothed-JS for the belief distance.
    ///
    /// Estimating the prior model costs `O(u²·d)` for `u` distinct QI
    /// combinations; reuse the value across candidate groups (this type is
    /// cheap to clone — the model is shared).
    pub fn new(table: &Table, bandwidth: Bandwidth, t: f64) -> Self {
        let adversary = Arc::new(Adversary::kernel(table, bandwidth));
        let measure = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        Self::with_parts(adversary, measure, t)
    }

    /// Build from an existing adversary and distance measure. Prepares the
    /// measure's half of every point's prior once, in `O(u·m²)` for the
    /// smoothed-JS measure.
    pub fn with_parts(adversary: Arc<Adversary>, measure: Arc<dyn BeliefDistance>, t: f64) -> Self {
        assert!(t >= 0.0 && t.is_finite(), "t must be non-negative, got {t}");
        let model = adversary.prior_model();
        let fallback = fallback_prior(&adversary);
        let m = fallback.len();
        let points = model.map_or(0, |model| model.len());
        let priors = model
            .into_iter()
            .flat_map(|model| model.iter().map(|(_, prior)| prior))
            .chain(std::iter::once(fallback));
        let mut prepared = vec![0.0; (points + 1) * m];
        for (out, prior) in prepared.chunks_exact_mut(m.max(1)).zip(priors) {
            measure.prepare_prior_into(prior.as_slice(), out);
        }
        BTPrivacy {
            t,
            adversary,
            measure,
            prepared: prepared.into(),
        }
    }

    /// The threshold `t`.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// The adversary `Adv(B)` this requirement defends against.
    pub fn adversary(&self) -> &Arc<Adversary> {
        &self.adversary
    }

    /// The belief-distance measure in use.
    pub fn measure(&self) -> &Arc<dyn BeliefDistance> {
        &self.measure
    }

    /// Worst-case disclosure risk of one candidate group: the maximum over
    /// its tuples of `D[prior, posterior]` under the Ω-estimate (0 for an
    /// empty group).
    pub fn group_risk(&self, group: &GroupView<'_>) -> f64 {
        let mut worst = 0.0;
        let _ = self.scan(group, |risk| {
            worst = f64::max(worst, risk);
            ControlFlow::Continue(())
        });
        worst
    }

    /// Run the group-risk kernel over `group`, each member's prior found by
    /// its QI's point in the adversary's model, in this thread's buffers.
    fn scan(
        &self,
        group: &GroupView<'_>,
        visit: impl FnMut(f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        CHECK_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                let flow = self.scan_with(group, &mut scratch, visit);
                if group.len() > RETAINED_GROUP_MAX {
                    *scratch = CheckScratch::default();
                }
                flow
            }
            // Only a measure that runs a check of its own gets here.
            Err(_) => self.scan_with(group, &mut CheckScratch::default(), visit),
        })
    }

    fn scan_with(
        &self,
        group: &GroupView<'_>,
        scratch: &mut CheckScratch,
        visit: impl FnMut(f64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let CheckScratch { qi, points, risk } = scratch;
        let table = group.table;
        let model = self.adversary.prior_model();
        let fallback = model.map_or(0, |model| model.len()) as u32;
        points.clear();
        points.extend(group.rows.iter().map(|&r| {
            table.qi_into(r, qi);
            model
                .and_then(|model| model.point_id(qi))
                .map_or(fallback, |id| id as u32)
        }));
        let mut members = PointMembers {
            requirement: self,
            points,
            m: fallback_prior(&self.adversary).len(),
        };
        scan_group_risks(
            self.measure.as_ref(),
            &mut members,
            group.sensitive_counts,
            risk,
            visit,
        )
    }

    /// The prior at `point` of the adversary's model, the fallback prior
    /// past its last point.
    fn point_prior(&self, point: u32) -> &Dist {
        self.adversary
            .prior_model()
            .and_then(|model| model.point_prior(point))
            .unwrap_or_else(|| fallback_prior(&self.adversary))
    }
}

thread_local! {
    /// Buffers of the (B,t) checks run on this thread: Mondrian checks
    /// candidate groups from its pool workers, through `&self`.
    static CHECK_SCRATCH: RefCell<CheckScratch> = RefCell::default();
}

/// A thread drops its check buffers after a group larger than this, so a
/// whole-table check does not pin table-sized buffers to the thread.
const RETAINED_GROUP_MAX: usize = 4096;

/// Working buffers of one (B,t) check.
#[derive(Default)]
struct CheckScratch {
    /// QI gather buffer.
    qi: Vec<u32>,
    /// Each member's point of the adversary's model.
    points: Vec<u32>,
    /// The group-risk kernel's buffers.
    risk: RiskScratch,
}

/// The prior a QI outside the adversary's model gets (what
/// [`Adversary::prior`] returns for it): the model's whole-table
/// distribution, or a constant adversary's one belief.
fn fallback_prior(adversary: &Adversary) -> &Dist {
    match adversary.prior_model() {
        Some(model) => model.table_distribution(),
        // A constant adversary's prior does not depend on the QI.
        None => adversary.prior(&[]),
    }
}

/// A candidate group's members as points of the adversary's model.
struct PointMembers<'a> {
    requirement: &'a BTPrivacy,
    /// Each member's point (the model's point count for the fallback).
    points: &'a [u32],
    /// Sensitive domain size.
    m: usize,
}

impl GroupMembers for PointMembers<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn id(&self, j: usize) -> u64 {
        u64::from(self.points[j])
    }

    fn prior(&self, j: usize) -> &Dist {
        self.requirement.point_prior(self.points[j])
    }

    fn prepared(&mut self, j: usize) -> &[f64] {
        let at = self.points[j] as usize * self.m;
        self.requirement
            .prepared
            .get(at..at + self.m)
            .unwrap_or_default()
    }
}

impl PrivacyRequirement for BTPrivacy {
    fn name(&self) -> String {
        match self.adversary.bandwidth() {
            Some(b) => format!("({b},t={})-privacy", self.t),
            None => format!("(?,t={})-privacy", self.t),
        }
    }

    /// Stops at the first member whose risk exceeds `t`. A NaN risk never
    /// does, as it never raises [`group_risk`](BTPrivacy::group_risk).
    fn is_satisfied(&self, group: &GroupView<'_>) -> bool {
        if group.is_empty() {
            return false;
        }
        self.scan(group, |risk| {
            if risk > self.t {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_continue()
    }
}

impl std::fmt::Debug for BTPrivacy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTPrivacy")
            .field("t", &self.t)
            .field("adversary", &self.adversary.label())
            .field("measure", &self.measure.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;
    use bgkanon_inference::{omega_posteriors, GroupPriors};

    fn bt(t: f64) -> (bgkanon_data::Table, BTPrivacy) {
        let table = toy::hospital_table();
        let req = BTPrivacy::new(&table, Bandwidth::uniform(0.3, 2).unwrap(), t);
        (table, req)
    }

    #[test]
    fn loose_threshold_accepts_paper_groups() {
        let (table, req) = bt(1.0);
        for rows in toy::hospital_groups() {
            let mut buf = Vec::new();
            let g = GroupView::compute(&table, &rows, &mut buf);
            assert!(req.is_satisfied(&g), "rows {rows:?}");
        }
    }

    #[test]
    fn tight_threshold_rejects_risky_group() {
        // Group {0,1,2} spans ages 45–69 and both sexes; a knowledgeable
        // adversary gains non-zero information about Bob (row 0), so risk
        // exceeds 0 and a t = 0 requirement fails.
        let (table, req) = bt(0.0);
        let rows = vec![0usize, 1, 2];
        let mut buf = Vec::new();
        let g = GroupView::compute(&table, &rows, &mut buf);
        assert!(req.group_risk(&g) > 0.0);
        assert!(!req.is_satisfied(&g));
    }

    #[test]
    fn risk_monotone_in_threshold() {
        let (table, req_loose) = bt(0.9);
        let req_tight = BTPrivacy::with_parts(
            Arc::clone(req_loose.adversary()),
            Arc::clone(req_loose.measure()),
            1e-6,
        );
        let rows = vec![0usize, 1, 2];
        let mut buf = Vec::new();
        let g = GroupView::compute(&table, &rows, &mut buf);
        // Same risk, different thresholds.
        assert!(req_loose.is_satisfied(&g) || !req_tight.is_satisfied(&g));
        assert_eq!(req_loose.group_risk(&g), req_tight.group_risk(&g));
    }

    #[test]
    fn whole_table_group_has_low_risk() {
        // Releasing everything in one group: the posterior is (close to) the
        // bucket distribution for everyone; risk is the distance between the
        // adversary's prior and the table-wide mix — finite and moderate.
        let (table, req) = bt(0.9);
        let rows: Vec<usize> = (0..table.len()).collect();
        let mut buf = Vec::new();
        let g = GroupView::compute(&table, &rows, &mut buf);
        let risk = req.group_risk(&g);
        assert!(risk.is_finite());
        assert!(req.is_satisfied(&g));
    }

    /// The risks of the pre-kernel path: clone every member's prior, build
    /// all Ω-posteriors as `Dist`s, and measure each pair.
    fn reference_risks(req: &BTPrivacy, table: &Table, rows: &[usize]) -> Vec<f64> {
        let priors =
            GroupPriors::from_table_rows(table, rows, |qi| req.adversary().prior(qi).clone());
        omega_posteriors(&priors)
            .iter()
            .enumerate()
            .map(|(j, post)| req.measure().distance(priors.prior(j), post))
            .collect()
    }

    #[test]
    fn uncovered_qis_use_the_fallback_prior() {
        // The model is estimated on one sample and checked against rows of
        // another: most of their QI combinations are outside the model.
        let estimated_on = bgkanon_data::adult::generate(150, 3);
        let checked = bgkanon_data::adult::generate(200, 4);
        let bandwidth = Bandwidth::uniform(0.3, estimated_on.qi_count()).unwrap();
        let req = BTPrivacy::new(&estimated_on, bandwidth, 0.2);
        let model = req.adversary().prior_model().unwrap();
        let uncovered: Vec<usize> = (0..checked.len())
            .filter(|&r| model.point_id(&checked.qi(r)).is_none())
            .collect();
        assert!(uncovered.len() > 20, "{}", uncovered.len());
        for rows in [
            &uncovered[..6],
            &uncovered[..],
            &[0usize, 1, 2, uncovered[0]][..],
        ] {
            let mut buf = Vec::new();
            let g = GroupView::compute(&checked, rows, &mut buf);
            let expect = reference_risks(&req, &checked, rows)
                .into_iter()
                .fold(0.0, f64::max);
            assert_eq!(req.group_risk(&g).to_bits(), expect.to_bits());
            assert_eq!(req.is_satisfied(&g), expect <= req.t());
        }
    }

    #[test]
    fn constant_adversaries_check_like_the_reference() {
        let table = bgkanon_data::adult::generate(120, 8);
        let measure: Arc<dyn BeliefDistance> = Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        ));
        for adversary in [Adversary::t_closeness(&table), Adversary::ignorant(&table)] {
            let req = BTPrivacy::with_parts(Arc::new(adversary), Arc::clone(&measure), 0.1);
            let rows: Vec<usize> = (10..40).collect();
            let mut buf = Vec::new();
            let g = GroupView::compute(&table, &rows, &mut buf);
            let expect = reference_risks(&req, &table, &rows)
                .into_iter()
                .fold(0.0, f64::max);
            assert_eq!(req.group_risk(&g).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn name_mentions_bandwidth_and_t() {
        let (_, req) = bt(0.25);
        let n = req.name();
        assert!(n.contains("0.3"), "{n}");
        assert!(n.contains("t=0.25"), "{n}");
    }

    #[test]
    #[should_panic(expected = "t must be non-negative")]
    fn negative_t_rejected() {
        let _ = bt(-0.1);
    }
}
