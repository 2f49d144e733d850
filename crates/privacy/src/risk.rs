//! The group-risk kernel: each member's Ω-estimate posterior (§III.D) and
//! its belief distance to the member's prior (§IV.B), the work behind both
//! a (B,t) check of a candidate group and an audit of a published one.
//!
//! [`scan_group_risks`] reads the group through [`GroupMembers`], writes
//! every intermediate into a reused [`RiskScratch`] and allocates nothing
//! once the scratch has grown to the group's size. Members that share a
//! prior are evaluated once. The arithmetic is the reference path's, term
//! for term: column sums in row order, [`omega_posterior_into`], and the
//! measure's prepared-prior slice form, which
//! [`BeliefDistance::prepare_prior_into`] guarantees bit-identical to
//! [`BeliefDistance::distance`]. So the risks equal
//! `measure.distance(prior_j, omega_posteriors(group)[j])` bit for bit.

use std::ops::ControlFlow;

use bgkanon_data::hash::WordMap;
use bgkanon_inference::{omega_column_sums, omega_posterior_into};
use bgkanon_stats::measure::BeliefDistance;
use bgkanon_stats::Dist;

/// Groups up to this size find repeated priors by a linear scan, which is
/// cheaper than hashing; larger ones use a map so a degenerate giant group
/// stays O(k).
const LINEAR_DEDUP_MAX: usize = 64;

/// A group's members as the kernel reads them, in row order.
pub(crate) trait GroupMembers {
    /// Number of members `k`.
    fn len(&self) -> usize;

    /// Identity of member `j`'s prior: members with equal ids have the
    /// very same prior, so their risks are equal and computed once.
    fn id(&self, j: usize) -> u64;

    /// Member `j`'s prior.
    fn prior(&self, j: usize) -> &Dist;

    /// Member `j`'s prior as the measure's
    /// [`prepare_prior_into`](BeliefDistance::prepare_prior_into) wrote it.
    fn prepared(&mut self, j: usize) -> &[f64];
}

/// Working buffers of [`scan_group_risks`], reused across groups.
#[derive(Default)]
pub(crate) struct RiskScratch {
    /// Ω column sums over the group's priors.
    col_sums: Vec<f64>,
    /// The member posterior under evaluation.
    posterior: Vec<f64>,
    /// The measure's working space.
    work: Vec<f64>,
    /// `(prior id, risk)` of the priors evaluated so far, small groups.
    seen: Vec<(u64, f64)>,
    /// The same, large groups.
    seen_map: WordMap<u64, f64>,
}

/// Hand each member's risk, in row order, to `visit`, which may stop the
/// scan by returning [`ControlFlow::Break`]. A member whose prior an earlier
/// member shares gets that member's risk without a second evaluation.
pub(crate) fn scan_group_risks<M: GroupMembers>(
    measure: &dyn BeliefDistance,
    members: &mut M,
    counts: &[u32],
    scratch: &mut RiskScratch,
    mut visit: impl FnMut(f64) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let k = members.len();
    let RiskScratch {
        col_sums,
        posterior,
        work,
        seen,
        seen_map,
    } = scratch;
    col_sums.clear();
    col_sums.resize(counts.len(), 0.0);
    let readable: &M = members;
    omega_column_sums((0..k).map(|j| readable.prior(j)), col_sums);
    posterior.clear();
    posterior.resize(counts.len(), 0.0);
    seen.clear();
    seen_map.clear();
    let by_scan = k <= LINEAR_DEDUP_MAX;
    for j in 0..k {
        let id = members.id(j);
        let known = if by_scan {
            seen.iter().find(|&&(s, _)| s == id).map(|&(_, risk)| risk)
        } else {
            seen_map.get(&id).copied()
        };
        let risk = match known {
            Some(risk) => risk,
            None => {
                member_posterior(members.prior(j), counts, col_sums, posterior);
                let risk = measure.prepared_distance_into(members.prepared(j), posterior, work);
                if by_scan {
                    seen.push((id, risk));
                } else {
                    seen_map.insert(id, risk);
                }
                risk
            }
        };
        visit(risk)?;
    }
    ControlFlow::Continue(())
}

/// Write one member's Ω-posterior into `out`. When every Ω term vanishes,
/// or the result is not a valid distribution (only malformed priors get
/// there), it is the bucket distribution `n_s / k` instead — the fallback
/// [`omega_posteriors`](bgkanon_inference::omega_posteriors) takes — and
/// uniform when the counts have no mass at all.
fn member_posterior(prior: &Dist, counts: &[u32], col_sums: &[f64], out: &mut [f64]) {
    if omega_posterior_into(prior, counts, col_sums, out) && Dist::validate(out).is_ok() {
        return;
    }
    // `Dist::from_counts`'s arithmetic: the `f64` sum, then one division
    // per entry.
    let total: f64 = counts.iter().map(|&c| f64::from(c)).sum();
    if total > 0.0 {
        for (o, &c) in out.iter_mut().zip(counts) {
            *o = f64::from(c) / total;
        }
    } else {
        let uniform = 1.0 / out.len() as f64;
        out.fill(uniform);
    }
}
