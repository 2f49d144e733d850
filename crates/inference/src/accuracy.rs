//! Accuracy evaluation of the Ω-estimate (§V.B, Fig. 2).
//!
//! For a group of `N` tuples with prior `Ppri`, exact posterior `Pexa` and
//! Ω-estimate `Pome`, the **average distance error** is
//!
//! ```text
//! ρ = (1/N) · Σ_j | D[Pexa_j, Ppri_j] − D[Pome_j, Ppri_j] |
//! ```
//!
//! i.e. how much the approximation distorts each tuple's *disclosure risk*
//! as measured by the belief distance `D`.

use bgkanon_stats::measure::BeliefDistance;

use crate::exact::exact_posteriors;
use crate::group::GroupPriors;
use crate::omega::omega_posteriors;

/// Average distance error ρ of the Ω-estimate on one group.
pub fn average_distance_error(group: &GroupPriors, measure: &dyn BeliefDistance) -> f64 {
    let exact = exact_posteriors(group);
    let omega = omega_posteriors(group);
    let n = group.len() as f64;
    exact
        .iter()
        .zip(&omega)
        .enumerate()
        .map(|(j, (e, o))| {
            let prior = group.prior(j);
            (measure.distance(prior, e) - measure.distance(prior, o)).abs()
        })
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_stats::measure::JsDivergence;
    use bgkanon_stats::Dist;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    #[test]
    fn error_is_zero_when_omega_is_exact() {
        let priors = vec![Dist::uniform(3); 4];
        let group = GroupPriors::new(priors, &[0, 1, 2, 2]);
        assert!(average_distance_error(&group, &JsDivergence).abs() < 1e-12);
    }

    #[test]
    fn error_positive_on_table_iii() {
        let (priors, codes) = bgkanon_data::toy::hiv_example_priors_zero();
        let priors: Vec<Dist> = priors.into_iter().map(|p| Dist::new(p).unwrap()).collect();
        let group = GroupPriors::new(priors, &codes);
        let rho = average_distance_error(&group, &JsDivergence);
        assert!(rho > 0.01, "Table III is the canonical inexact case: {rho}");
    }

    #[test]
    fn error_bounded_on_moderate_groups() {
        let priors = vec![
            d(&[0.6, 0.3, 0.1]),
            d(&[0.2, 0.7, 0.1]),
            d(&[0.1, 0.2, 0.7]),
            d(&[0.34, 0.33, 0.33]),
            d(&[0.5, 0.25, 0.25]),
        ];
        let group = GroupPriors::new(priors, &[0, 1, 2, 0, 1]);
        let rho = average_distance_error(&group, &JsDivergence);
        // Fig. 2's headline: within 0.1 of exact inference.
        assert!(rho < 0.1, "rho = {rho}");
    }
}
