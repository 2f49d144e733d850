//! Belief-distance measures quantifying information disclosure (§IV.B).
//!
//! A [`BeliefDistance`] `D[P, Q]` measures how much an adversary whose prior
//! is `P` learns when her posterior becomes `Q`. The paper's desiderata
//! (§IV-B.1):
//!
//! 1. identity of indiscernibles — `D[P, P] = 0`;
//! 2. non-negativity — `D[P, Q] ≥ 0`;
//! 3. probability scaling — a change from a small `α` to `α+γ` counts more
//!    than from a larger `β` to `β+γ`;
//! 4. zero-probability definability — defined even with zero entries;
//! 5. semantic awareness — reflects the ground distance between values.
//!
//! KL fails (4); JS fails (5); EMD fails (3). The paper's measure —
//! [`SmoothedJs`], JS divergence after kernel-smoothing both distributions
//! across the sensitive domain — satisfies all five.

use bgkanon_data::{DistanceMatrix, Hierarchy};

use crate::dist::Dist;
use crate::divergence::{js_divergence, js_divergence_slices, kl_divergence};
use crate::emd::{hierarchical_emd, ordered_emd};
use crate::kernel::Kernel;

/// A distance between a prior and a posterior belief.
///
/// Not required to be a metric: symmetry and the triangle inequality are
/// explicitly *not* demanded (§IV-B.1).
pub trait BeliefDistance: Send + Sync {
    /// Distance from prior `p` to posterior `q`.
    fn distance(&self, p: &Dist, q: &Dist) -> f64;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Write the prior-dependent half of the computation for prior `p`
    /// into `out` (of `p`'s length), such that
    /// `prepared_distance_into(out, q, _)` equals `distance(p, q)` **bit
    /// for bit**. Batch checkers prepare each distinct prior once and keep
    /// the result, which pays off when many tuples share a prior.
    ///
    /// The default copies `p`: a measure without a separable prior stage
    /// is "prepared" by its raw prior.
    fn prepare_prior_into(&self, p: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(p) {
            *o = x;
        }
    }

    /// Distance from a prior prepared by
    /// [`prepare_prior_into`](Self::prepare_prior_into) to posterior `q`,
    /// with `scratch` as working space (resized as needed, so one buffer
    /// serves every call). Measures that override `prepare_prior_into`
    /// must override this too.
    ///
    /// The default allocates and calls [`distance`](Self::distance) on the
    /// raw prior the default preparation copied.
    fn prepared_distance_into(&self, prepared: &[f64], q: &[f64], scratch: &mut Vec<f64>) -> f64 {
        let _ = scratch;
        self.distance(
            &Dist::from_vec_unchecked(prepared.to_vec()),
            &Dist::from_vec_unchecked(q.to_vec()),
        )
    }
}

/// Kullback–Leibler divergence. Fails the *zero-probability definability*
/// desideratum: when `p_i > 0` but `q_i = 0` the divergence is undefined and
/// this implementation returns `f64::INFINITY`.
#[derive(Debug, Clone, Copy, Default)]
pub struct KlDivergence;

impl BeliefDistance for KlDivergence {
    fn distance(&self, p: &Dist, q: &Dist) -> f64 {
        kl_divergence(p, q).unwrap_or(f64::INFINITY)
    }

    fn name(&self) -> &'static str {
        "KL"
    }
}

/// Jensen–Shannon divergence (Eq. 6), in bits. Defined everywhere and
/// bounded by 1, but not semantically aware.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsDivergence;

impl BeliefDistance for JsDivergence {
    fn distance(&self, p: &Dist, q: &Dist) -> f64 {
        js_divergence(p, q)
    }

    fn name(&self) -> &'static str {
        "JS"
    }
}

/// EMD over an ordered numeric sensitive domain. Semantically aware but
/// fails *probability scaling* (§IV.B's counterexample).
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderedEmd;

impl BeliefDistance for OrderedEmd {
    fn distance(&self, p: &Dist, q: &Dist) -> f64 {
        ordered_emd(p, q)
    }

    fn name(&self) -> &'static str {
        "EMD(ordered)"
    }
}

/// EMD over a categorical sensitive domain with a generalization hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchicalEmd {
    hierarchy: Hierarchy,
}

impl HierarchicalEmd {
    /// Build over the sensitive attribute's hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        HierarchicalEmd { hierarchy }
    }
}

impl BeliefDistance for HierarchicalEmd {
    fn distance(&self, p: &Dist, q: &Dist) -> f64 {
        hierarchical_emd(&self.hierarchy, p, q)
    }

    fn name(&self) -> &'static str {
        "EMD(hierarchical)"
    }
}

/// A precomputed Nadaraya–Watson smoother over the sensitive domain
/// (§IV-B.2): `p̂_i = Σ_j p_j K(d_ij) / Σ_j K(d_ij)`.
///
/// Smoothing does not preserve total mass exactly, so the result is
/// renormalized — the paper treats `P̂` as a probability distribution.
#[derive(Debug, Clone)]
pub struct Smoother {
    /// Row-normalized kernel weights, row-major `m × m`.
    weights: Vec<f64>,
    m: usize,
}

impl Smoother {
    /// Build a smoother from the sensitive attribute's distance matrix and a
    /// kernel. The paper uses the Epanechnikov kernel with a bandwidth of at
    /// least 0.5 on the height-2 Occupation hierarchy.
    pub fn new(distances: &DistanceMatrix, kernel: Kernel) -> Self {
        let m = distances.size();
        let mut weights = vec![0.0; m * m];
        for i in 0..m {
            let row = distances.row(i as u32);
            let mut sum = 0.0;
            for (j, &d) in row.iter().enumerate() {
                let w = kernel.weight(d);
                weights[i * m + j] = w;
                sum += w;
            }
            debug_assert!(sum > 0.0, "kernel must give d=0 positive weight");
            for j in 0..m {
                weights[i * m + j] /= sum;
            }
        }
        Smoother { weights, m }
    }

    /// Smooth a distribution (and renormalize). A thin wrapper over the
    /// slice form the prepared distance uses, so both agree bit for bit.
    fn smooth(&self, p: &Dist) -> Dist {
        assert_eq!(p.len(), self.m, "dimension mismatch");
        let mut out = vec![0.0; self.m];
        self.smooth_into(p.as_slice(), &mut out);
        Dist::from_vec_unchecked(out)
    }

    /// Smooth the probabilities `p` into `out` (both of the domain's size)
    /// and renormalize, with no allocation. Entry `i` is the weighted sum
    /// `Σ_j w_ij p_j` by `Iterator::sum` (which starts from −0.0; a
    /// hand-written accumulator would have to as well), and the
    /// renormalization validates and divides exactly as
    /// [`Dist::from_weights`] does, so the result is bit-identical to
    /// normalizing the sums through a `Dist`.
    ///
    /// Total: when the sums cannot be normalized (a kernel that gives some
    /// value no weight at all, or a malformed `p`), `out` is `p` itself —
    /// the distribution is left unsmoothed.
    pub(crate) fn smooth_into(&self, p: &[f64], out: &mut [f64]) {
        for (o, row) in out.iter_mut().zip(self.weights.chunks_exact(self.m.max(1))) {
            *o = row.iter().zip(p).map(|(&w, &pj)| w * pj).sum();
        }
        let valid = out
            .iter()
            .all(|&x| !(x.is_nan() || x < 0.0 || !x.is_finite()));
        let sum: f64 = out.iter().sum();
        if valid && sum > 0.0 {
            for x in out.iter_mut() {
                *x /= sum;
            }
        } else {
            for (o, &x) in out.iter_mut().zip(p) {
                *o = x;
            }
        }
    }
}

/// The paper's distance measure (§IV-B.2): kernel-smooth both distributions
/// across the sensitive domain, then take the JS divergence —
/// `D[P, Q] ≈ JS[P̂, Q̂]`. Satisfies all five desiderata.
///
/// ```
/// use bgkanon_data::DistanceMatrix;
/// use bgkanon_stats::{BeliefDistance, Dist, SmoothedJs};
///
/// // Salary-style ordered domain: semantic awareness matters.
/// let ground = DistanceMatrix::numeric(&[30.0, 40.0, 80.0, 90.0]);
/// let measure = SmoothedJs::paper_default(&ground);
/// let low = Dist::new(vec![0.5, 0.5, 0.0, 0.0]).unwrap();
/// let near = Dist::new(vec![0.0, 1.0, 0.0, 0.0]).unwrap();
/// let far = Dist::new(vec![0.0, 0.0, 0.5, 0.5]).unwrap();
/// assert!(measure.distance(&low, &near) < measure.distance(&low, &far));
/// ```
#[derive(Debug, Clone)]
pub struct SmoothedJs {
    smoother: Smoother,
}

impl SmoothedJs {
    /// Build from the sensitive attribute's distance matrix and a smoothing
    /// kernel.
    pub fn new(distances: &DistanceMatrix, kernel: Kernel) -> Self {
        SmoothedJs {
            smoother: Smoother::new(distances, kernel),
        }
    }

    /// The paper's default configuration: Epanechnikov kernel with
    /// bandwidth 0.55, just above the paper's stated minimum of 0.5 for the
    /// height-2 Occupation hierarchy. (At exactly 0.5 the Epanechnikov
    /// kernel gives distance-0.5 neighbours zero weight, i.e. no smoothing
    /// at all, so the effective bandwidth must exceed the minimum; keeping
    /// it close preserves the probability-scaling sensitivity that heavy
    /// smoothing would wash out.)
    pub fn paper_default(distances: &DistanceMatrix) -> Self {
        SmoothedJs::new(distances, Kernel::epanechnikov(0.55))
    }
}

impl BeliefDistance for SmoothedJs {
    fn distance(&self, p: &Dist, q: &Dist) -> f64 {
        js_divergence(&self.smoother.smooth(p), &self.smoother.smooth(q))
    }

    fn name(&self) -> &'static str {
        "smoothed-JS"
    }

    fn prepare_prior_into(&self, p: &[f64], out: &mut [f64]) {
        self.smoother.smooth_into(p, out);
    }

    fn prepared_distance_into(&self, prepared: &[f64], q: &[f64], scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        scratch.resize(q.len(), 0.0);
        self.smoother.smooth_into(q, scratch);
        js_divergence_slices(prepared, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::hierarchy::HierarchyBuilder;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    fn salary_like_matrix() -> DistanceMatrix {
        // 4 ordered values 30K, 40K, 50K, 60K.
        DistanceMatrix::numeric(&[30.0, 40.0, 50.0, 60.0])
    }

    #[test]
    fn kl_measure_returns_infinity_when_undefined() {
        let m = KlDivergence;
        assert_eq!(m.distance(&d(&[0.5, 0.5]), &d(&[1.0, 0.0])), f64::INFINITY);
        assert_eq!(m.distance(&d(&[0.5, 0.5]), &d(&[0.5, 0.5])), 0.0);
        assert_eq!(m.name(), "KL");
    }

    #[test]
    fn smoother_rows_are_convex_combinations() {
        let s = Smoother::new(&salary_like_matrix(), Kernel::epanechnikov(0.75));
        for i in 0..4 {
            let row = &s.weights[i * 4..(i + 1) * 4];
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&w| w >= 0.0));
            // Self-weight dominates.
            assert!(row[i] >= *row.iter().fold(&0.0, |a, b| if b > a { b } else { a }) - 1e-12);
        }
    }

    #[test]
    fn degenerate_smoother_leaves_the_distribution_unsmoothed() {
        // A kernel that gave the second value no weight at all.
        let s = Smoother {
            weights: vec![1.0, 0.0, f64::NAN, f64::NAN],
            m: 2,
        };
        let p = d(&[0.25, 0.75]);
        assert_eq!(s.smooth(&p), p);
    }

    #[test]
    fn smoothed_js_slice_form_matches_the_dist_form() {
        let m = SmoothedJs::paper_default(&salary_like_matrix());
        let p = d(&[0.7, 0.0, 0.3, 0.0]);
        let q = d(&[0.0, 0.0, 0.0, 1.0]);
        let mut prepared = vec![0.0; 4];
        m.prepare_prior_into(p.as_slice(), &mut prepared);
        assert_eq!(prepared.as_slice(), m.smoother.smooth(&p).as_slice());
        let mut scratch = Vec::new();
        let slice = m.prepared_distance_into(&prepared, q.as_slice(), &mut scratch);
        assert_eq!(slice.to_bits(), m.distance(&p, &q).to_bits());
        // The default preparation is the raw prior.
        let js = JsDivergence;
        js.prepare_prior_into(p.as_slice(), &mut prepared);
        let slice = js.prepared_distance_into(&prepared, q.as_slice(), &mut scratch);
        assert_eq!(slice.to_bits(), js.distance(&p, &q).to_bits());
    }

    #[test]
    fn smoothed_js_identity_and_nonnegativity() {
        let m = SmoothedJs::paper_default(&salary_like_matrix());
        let p = d(&[0.7, 0.1, 0.1, 0.1]);
        let q = d(&[0.1, 0.1, 0.1, 0.7]);
        assert_eq!(m.distance(&p, &p), 0.0);
        assert!(m.distance(&p, &q) > 0.0);
        assert_eq!(m.name(), "smoothed-JS");
    }

    #[test]
    fn smoothed_js_is_semantically_aware() {
        // §IV-B.1 example: {30K,40K} should be closer to {50K,60K} than to
        // {80K,90K}. We model 6 ordered salary values.
        let dist = DistanceMatrix::numeric(&[30.0, 40.0, 50.0, 60.0, 80.0, 90.0]);
        let m = SmoothedJs::new(&dist, Kernel::epanechnikov(0.6));
        let low = d(&[0.5, 0.5, 0.0, 0.0, 0.0, 0.0]);
        let mid = d(&[0.0, 0.0, 0.5, 0.5, 0.0, 0.0]);
        let high = d(&[0.0, 0.0, 0.0, 0.0, 0.5, 0.5]);
        assert!(
            m.distance(&low, &mid) < m.distance(&low, &high),
            "low→mid {} should be < low→high {}",
            m.distance(&low, &mid),
            m.distance(&low, &high)
        );
        // Plain JS cannot tell them apart.
        let js = JsDivergence;
        assert!((js.distance(&low, &mid) - js.distance(&low, &high)).abs() < 1e-12);
    }

    #[test]
    fn smoothed_js_is_defined_with_zeros() {
        let m = SmoothedJs::paper_default(&salary_like_matrix());
        let p = d(&[1.0, 0.0, 0.0, 0.0]);
        let q = d(&[0.0, 0.0, 0.0, 1.0]);
        let v = m.distance(&p, &q);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn smoothed_js_has_probability_scaling() {
        // EMD's counterexample: (0.01,0.99)→(0.11,0.89) vs (0.4,0.6)→(0.5,0.5).
        // A scaling-aware measure ranks the first change strictly larger.
        let dist = DistanceMatrix::numeric(&[0.0, 1.0]);
        let m = SmoothedJs::new(&dist, Kernel::epanechnikov(0.75));
        let small = m.distance(&d(&[0.01, 0.99]), &d(&[0.11, 0.89]));
        let large = m.distance(&d(&[0.4, 0.6]), &d(&[0.5, 0.5]));
        assert!(
            small > large,
            "rare-value change {small} must exceed common-value change {large}"
        );
        // EMD treats them identically.
        let e = OrderedEmd;
        let a = e.distance(&d(&[0.01, 0.99]), &d(&[0.11, 0.89]));
        let b = e.distance(&d(&[0.4, 0.6]), &d(&[0.5, 0.5]));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn hierarchical_emd_measure_works() {
        let mut b = HierarchyBuilder::new("Any");
        let x = b.internal(b.root(), "X");
        b.leaf(x, "a");
        b.leaf(x, "b");
        b.leaf(0, "c");
        let m = HierarchicalEmd::new(b.build().unwrap());
        let p = d(&[1.0, 0.0, 0.0]);
        let q = d(&[0.0, 1.0, 0.0]);
        let r = d(&[0.0, 0.0, 1.0]);
        assert!(m.distance(&p, &q) < m.distance(&p, &r));
        assert_eq!(m.name(), "EMD(hierarchical)");
    }
}
