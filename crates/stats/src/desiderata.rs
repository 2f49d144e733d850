//! Executable checks of the five desiderata for information-disclosure
//! measures (§IV-B.1).
//!
//! These helpers probe a [`BeliefDistance`] with the paper's own
//! counterexamples. They power unit/property tests and let downstream users
//! vet a custom measure before plugging it into the privacy model.

use bgkanon_data::DistanceMatrix;

use crate::dist::Dist;
use crate::measure::BeliefDistance;

/// Outcome of checking one desideratum.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Which desideratum was checked.
    pub property: &'static str,
    /// Whether the measure passed.
    pub passed: bool,
    /// Diagnostic detail.
    pub detail: String,
}

fn d(v: &[f64]) -> Dist {
    Dist::new(v.to_vec()).expect("static distributions are valid")
}

/// Embed a 2-value probe distribution `(a, 1−a)` into an `m`-value domain,
/// placing the mass on the two *extreme* values so that semantically aware
/// measures (which may smooth across nearby values) still see the shift.
fn pad2(a: f64, m: usize) -> Dist {
    let mut v = vec![0.0; m];
    v[0] = a;
    v[m - 1] = 1.0 - a;
    Dist::new(v).expect("padded probe is valid")
}

/// Desideratum 1: `D[P, P] = 0` for a sweep of distributions.
fn check_identity(measure: &dyn BeliefDistance, m: usize) -> CheckResult {
    let mut worst: f64 = 0.0;
    for i in 0..m {
        let p = Dist::point_mass(i, m);
        worst = worst.max(measure.distance(&p, &p).abs());
    }
    let u = Dist::uniform(m);
    worst = worst.max(measure.distance(&u, &u).abs());
    CheckResult {
        property: "identity of indiscernibles",
        passed: worst < 1e-9,
        detail: format!("max |D[P,P]| = {worst:.3e}"),
    }
}

/// Desideratum 2: `D[P, Q] ≥ 0` on a deterministic grid of pairs.
fn check_non_negativity(measure: &dyn BeliefDistance, m: usize) -> CheckResult {
    assert!(m >= 2, "probe needs at least two values");
    let mut min = f64::INFINITY;
    for i in 0..=10 {
        for j in 0..=10 {
            let a = i as f64 / 10.0;
            let b = j as f64 / 10.0;
            let p = pad2(a, m);
            let q = pad2(b, m);
            let v = measure.distance(&p, &q);
            if v.is_finite() {
                min = min.min(v);
            }
        }
    }
    CheckResult {
        property: "non-negativity",
        passed: min >= -1e-12,
        detail: format!("min D over grid = {min:.3e}"),
    }
}

/// Desideratum 3: the paper's probability-scaling probe — a `γ = 0.1`
/// increase from `α = 0.01` must count strictly more than from `β = 0.4`.
fn check_probability_scaling(measure: &dyn BeliefDistance, m: usize) -> CheckResult {
    assert!(m >= 2, "probe needs at least two values");
    let small = measure.distance(&pad2(0.01, m), &pad2(0.11, m));
    let large = measure.distance(&pad2(0.4, m), &pad2(0.5, m));
    CheckResult {
        property: "probability scaling",
        passed: small > large + 1e-12,
        detail: format!("D(0.01→0.11) = {small:.4}, D(0.4→0.5) = {large:.4}"),
    }
}

/// Desideratum 4: finite on distributions with zero entries in either
/// argument.
fn check_zero_probability(measure: &dyn BeliefDistance, m: usize) -> CheckResult {
    assert!(m >= 2, "probe needs at least two values");
    let cases = [
        (pad2(0.5, m), pad2(1.0, m)),
        (pad2(1.0, m), pad2(0.5, m)),
        (pad2(1.0, m), pad2(0.0, m)),
    ];
    let mut all_finite = true;
    let mut detail = String::new();
    for (p, q) in &cases {
        let v = measure.distance(p, q);
        if !v.is_finite() {
            all_finite = false;
            detail = format!("D[{p}, {q}] = {v}");
            break;
        }
    }
    CheckResult {
        property: "zero-probability definability",
        passed: all_finite,
        detail: if detail.is_empty() {
            "finite on all zero-entry cases".into()
        } else {
            detail
        },
    }
}

/// Desideratum 5: with the salary-style ordered ground distance, a belief
/// shift to nearby values must cost less than a shift to far values.
///
/// `distances` must describe a 6-value ordered domain (30K..90K analogue);
/// pass [`DistanceMatrix::numeric`] of `[30, 40, 50, 60, 80, 90]`.
fn check_semantic_awareness(
    measure: &dyn BeliefDistance,
    distances: &DistanceMatrix,
) -> CheckResult {
    assert_eq!(distances.size(), 6, "probe expects a 6-value domain");
    let low = d(&[0.5, 0.5, 0.0, 0.0, 0.0, 0.0]);
    let mid = d(&[0.0, 0.0, 0.5, 0.5, 0.0, 0.0]);
    let high = d(&[0.0, 0.0, 0.0, 0.0, 0.5, 0.5]);
    let near = measure.distance(&low, &mid);
    let far = measure.distance(&low, &high);
    CheckResult {
        property: "semantic awareness",
        passed: near.is_finite() && far.is_finite() && near < far - 1e-12,
        detail: format!("D(low→mid) = {near:.4}, D(low→high) = {far:.4}"),
    }
}

/// Run all five checks. `m` is the sensitive domain size for the identity
/// sweep; `salary_distances` the 6-value probe matrix for semantic
/// awareness.
// bgk-allow: R7 the paper's five desiderata (§IV-B.1), checked in tests/tests/paper_examples.rs
pub fn check_all(
    measure: &dyn BeliefDistance,
    m: usize,
    salary_distances: &DistanceMatrix,
) -> Vec<CheckResult> {
    vec![
        check_identity(measure, m),
        check_non_negativity(measure, m),
        check_probability_scaling(measure, m),
        check_zero_probability(measure, m),
        check_semantic_awareness(measure, salary_distances),
    ]
}

/// The 6-value salary-style probe matrix used throughout the tests.
// bgk-allow: R7 the semantic-awareness probe of the desiderata check in tests/
pub fn salary_probe_matrix() -> DistanceMatrix {
    DistanceMatrix::numeric(&[30.0, 40.0, 50.0, 60.0, 80.0, 90.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::measure::{JsDivergence, KlDivergence, OrderedEmd, SmoothedJs};

    #[test]
    fn kl_fails_zero_probability_only() {
        let kl = KlDivergence;
        assert!(check_identity(&kl, 4).passed);
        assert!(check_non_negativity(&kl, 2).passed);
        assert!(check_probability_scaling(&kl, 2).passed);
        assert!(!check_zero_probability(&kl, 2).passed);
    }

    #[test]
    fn js_fails_semantic_awareness_only() {
        let js = JsDivergence;
        let probe = salary_probe_matrix();
        assert!(check_identity(&js, 4).passed);
        assert!(check_non_negativity(&js, 2).passed);
        assert!(check_probability_scaling(&js, 2).passed);
        assert!(check_zero_probability(&js, 2).passed);
        assert!(!check_semantic_awareness(&js, &probe).passed);
    }

    #[test]
    fn emd_fails_probability_scaling() {
        let emd = OrderedEmd;
        let probe = salary_probe_matrix();
        assert!(check_identity(&emd, 4).passed);
        assert!(check_non_negativity(&emd, 2).passed);
        assert!(!check_probability_scaling(&emd, 2).passed);
        assert!(check_zero_probability(&emd, 2).passed);
        assert!(check_semantic_awareness(&emd, &probe).passed);
    }

    #[test]
    fn smoothed_js_passes_all_five() {
        let probe = salary_probe_matrix();
        // Use a 6-value smoothed-JS matched to the probe domain for the
        // semantic check, and a 4-value for the identity sweep.
        let m6 = SmoothedJs::new(&probe, Kernel::epanechnikov(0.6));
        for r in check_all(&m6, 6, &probe) {
            assert!(r.passed, "{}: {}", r.property, r.detail);
        }
    }
}
