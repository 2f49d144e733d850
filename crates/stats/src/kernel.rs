//! Kernel functions (§II.C).
//!
//! The paper chooses the **Epanechnikov** kernel for its low computational
//! cost, noting (citing Silverman; Wand & Jones) that the kernel *shape*
//! matters far less than the bandwidth `B`. The **uniform** kernel with
//! `B = range` recovers the t-closeness adversary (§II.D), and we also ship a
//! triangular kernel for sensitivity experiments.

/// A one-dimensional kernel with bandwidth `B`, evaluated on normalized
/// semantic distances `x ∈ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(x) = 3/(4B) · (1 − (x/B)²)` for `|x/B| < 1`, else 0.
    Epanechnikov {
        /// Bandwidth `B > 0`.
        bandwidth: f64,
    },
    /// `K(x) = 1/(2B)` for `|x| ≤ B`, else 0. With `B = 1` (the full
    /// normalized range) every point receives equal weight — the §II.D
    /// construction that reduces the prior to the whole-table distribution.
    Uniform {
        /// Bandwidth `B > 0`.
        bandwidth: f64,
    },
    /// `K(x) = (1 − |x/B|)/B` for `|x/B| < 1`, else 0.
    Triangular {
        /// Bandwidth `B > 0`.
        bandwidth: f64,
    },
}

impl Kernel {
    /// The paper's default kernel.
    pub fn epanechnikov(bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive and finite, got {bandwidth}"
        );
        Kernel::Epanechnikov { bandwidth }
    }

    /// Uniform (box) kernel.
    pub fn uniform(bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive and finite, got {bandwidth}"
        );
        Kernel::Uniform { bandwidth }
    }

    /// Triangular kernel.
    pub fn triangular(bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive and finite, got {bandwidth}"
        );
        Kernel::Triangular { bandwidth }
    }

    /// The bandwidth `B`.
    pub fn bandwidth(&self) -> f64 {
        match *self {
            Kernel::Epanechnikov { bandwidth }
            | Kernel::Uniform { bandwidth }
            | Kernel::Triangular { bandwidth } => bandwidth,
        }
    }

    /// Evaluate the kernel at distance `x`.
    #[inline]
    pub fn weight(&self, x: f64) -> f64 {
        match *self {
            Kernel::Epanechnikov { bandwidth } => {
                let u = x / bandwidth;
                if u.abs() < 1.0 {
                    0.75 / bandwidth * (1.0 - u * u)
                } else {
                    0.0
                }
            }
            Kernel::Uniform { bandwidth } => {
                if x.abs() <= bandwidth {
                    0.5 / bandwidth
                } else {
                    0.0
                }
            }
            Kernel::Triangular { bandwidth } => {
                let u = x / bandwidth;
                if u.abs() < 1.0 {
                    (1.0 - u.abs()) / bandwidth
                } else {
                    0.0
                }
            }
        }
    }

    /// Precompute the kernel over every entry of a distance row/table.
    pub fn weights(&self, distances: &[f64]) -> Vec<f64> {
        distances.iter().map(|&d| self.weight(d)).collect()
    }

    /// True exactly when [`weight`](Self::weight)`(x) > 0`. Weights vanish
    /// beyond the bandwidth `B` (every kernel family shipped here has
    /// compact support); whether the boundary `x = B` itself carries weight
    /// depends on the family, so membership is defined via `weight` and the
    /// two can never disagree there.
    #[inline]
    fn in_support(&self, x: f64) -> bool {
        self.weight(x) > 0.0
    }

    /// Fraction of `distances` inside the support — the sparsity
    /// diagnostic: a per-attribute kernel table over these distances has
    /// exactly this density of nonzero entries. Returns 0 for an empty
    /// slice.
    ///
    /// ```
    /// use bgkanon_stats::Kernel;
    ///
    /// let k = Kernel::epanechnikov(0.25);
    /// // Of the distances {0, 0.2, 0.5, 0.9} only the first two are inside.
    /// assert_eq!(k.support_density(&[0.0, 0.2, 0.5, 0.9]), 0.5);
    /// ```
    pub fn support_density(&self, distances: &[f64]) -> f64 {
        if distances.is_empty() {
            return 0.0;
        }
        let inside = distances.iter().filter(|&&d| self.in_support(d)).count();
        inside as f64 / distances.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epanechnikov_matches_formula() {
        let k = Kernel::epanechnikov(0.5);
        // K(0) = 3/(4·0.5) = 1.5
        assert!((k.weight(0.0) - 1.5).abs() < 1e-12);
        // K(0.25): u = 0.5 → 1.5 · (1 − 0.25) = 1.125
        assert!((k.weight(0.25) - 1.125).abs() < 1e-12);
        // At and beyond the bandwidth → 0.
        assert_eq!(k.weight(0.5), 0.0);
        assert_eq!(k.weight(0.9), 0.0);
        // Symmetric.
        assert_eq!(k.weight(-0.25), k.weight(0.25));
    }

    #[test]
    fn uniform_is_flat_inside_support() {
        let k = Kernel::uniform(1.0);
        assert_eq!(k.weight(0.0), 0.5);
        assert_eq!(k.weight(0.7), 0.5);
        assert_eq!(k.weight(1.0), 0.5);
        assert_eq!(k.weight(1.01), 0.0);
    }

    #[test]
    fn triangular_decays_linearly() {
        let k = Kernel::triangular(1.0);
        assert_eq!(k.weight(0.0), 1.0);
        assert!((k.weight(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(k.weight(1.0), 0.0);
    }

    #[test]
    fn weight_is_monotone_decreasing_in_distance() {
        for k in [
            Kernel::epanechnikov(0.3),
            Kernel::uniform(0.3),
            Kernel::triangular(0.3),
        ] {
            let mut prev = k.weight(0.0);
            for i in 1..=20 {
                let x = i as f64 / 20.0;
                let w = k.weight(x);
                assert!(w <= prev + 1e-12, "{k:?} at {x}");
                assert!(w >= 0.0);
                prev = w;
            }
        }
    }

    #[test]
    fn bandwidth_scales_support() {
        let small = Kernel::epanechnikov(0.2);
        let large = Kernel::epanechnikov(0.8);
        assert_eq!(small.weight(0.3), 0.0);
        assert!(large.weight(0.3) > 0.0);
    }

    #[test]
    fn weights_vectorized() {
        let k = Kernel::epanechnikov(0.5);
        let ws = k.weights(&[0.0, 0.25, 0.5]);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2], 0.0);
        assert!(ws[0] > ws[1]);
    }

    #[test]
    fn support_agrees_with_weight_everywhere() {
        for k in [
            Kernel::epanechnikov(0.25),
            Kernel::uniform(0.25),
            Kernel::triangular(0.25),
        ] {
            for i in 0..=1000 {
                let x = i as f64 / 1000.0;
                assert_eq!(k.in_support(x), k.weight(x) > 0.0, "{k:?} at {x}");
            }
            assert!(!k.in_support(0.25 + 1e-9), "{k:?}: support ends at B");
        }
        // The boundary: closed for uniform, open for the others.
        assert!(Kernel::uniform(0.25).in_support(0.25));
        assert!(!Kernel::epanechnikov(0.25).in_support(0.25));
        assert!(!Kernel::triangular(0.25).in_support(0.25));
    }

    #[test]
    fn support_density_counts_nonzero_fraction() {
        let k = Kernel::epanechnikov(0.5);
        assert_eq!(k.support_density(&[]), 0.0);
        assert_eq!(k.support_density(&[0.0, 0.1, 0.5, 0.7]), 0.5);
        assert_eq!(Kernel::uniform(1.0).support_density(&[0.0, 0.5, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Kernel::epanechnikov(0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn nan_bandwidth_rejected() {
        let _ = Kernel::uniform(f64::NAN);
    }
}
