//! Probability distributions over a finite sensitive domain.
//!
//! `Σ = {(p_1..p_m) | Σ p_i = 1}` from §II.A. Both the adversary's prior
//! belief `Ppri(q)` and the representation `P(t)` of an original tuple (a
//! point mass on its sensitive value) live in this type.

use std::fmt;

/// Tolerance when checking that probabilities sum to one.
pub const NORMALIZATION_EPS: f64 = 1e-9;

/// A probability distribution over `m` sensitive values.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist(Vec<f64>);

impl Dist {
    /// Build from raw probabilities; validates non-negativity and
    /// normalization within [`NORMALIZATION_EPS`].
    pub fn new(p: Vec<f64>) -> Result<Self, DistError> {
        Dist::validate(&p)?;
        Ok(Dist(p))
    }

    /// The checks [`new`](Self::new) makes, on a borrowed slice: `Ok` when
    /// `p` is non-empty, every entry is finite and non-negative, and the
    /// entries sum to one within [`NORMALIZATION_EPS`].
    pub fn validate(p: &[f64]) -> Result<(), DistError> {
        if p.is_empty() {
            return Err(DistError::Empty);
        }
        if let Some(&bad) = p.iter().find(|&&x| x.is_nan() || x < 0.0 || !x.is_finite()) {
            return Err(DistError::NegativeOrNan(bad));
        }
        let sum: f64 = p.iter().sum();
        if (sum - 1.0).abs() > NORMALIZATION_EPS {
            return Err(DistError::NotNormalized(sum));
        }
        Ok(())
    }

    /// Build from non-negative weights, normalizing them. Fails if the
    /// weights are all zero.
    pub fn from_weights(w: &[f64]) -> Result<Self, DistError> {
        if w.is_empty() {
            return Err(DistError::Empty);
        }
        if let Some(&bad) = w.iter().find(|&&x| x.is_nan() || x < 0.0 || !x.is_finite()) {
            return Err(DistError::NegativeOrNan(bad));
        }
        let sum: f64 = w.iter().sum();
        if sum <= 0.0 {
            return Err(DistError::ZeroMass);
        }
        Ok(Dist(w.iter().map(|&x| x / sum).collect()))
    }

    /// Wrap probabilities that already form a distribution, without
    /// re-validating them: the smoother's renormalized output and the
    /// prepared-distance fallback, whose inputs were validated upstream.
    pub(crate) fn from_vec_unchecked(p: Vec<f64>) -> Self {
        Dist(p)
    }

    /// Build from integer counts (e.g. a group's sensitive-value histogram).
    pub fn from_counts(counts: &[u32]) -> Result<Self, DistError> {
        let w: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
        Dist::from_weights(&w)
    }

    /// The uniform distribution over `m` values.
    pub fn uniform(m: usize) -> Self {
        assert!(m > 0, "uniform distribution needs at least one value");
        Dist(vec![1.0 / m as f64; m])
    }

    /// A point mass on value `i` (the representation `P(t)` of a tuple with
    /// `t[S] = s_i`, §II.A).
    pub fn point_mass(i: usize, m: usize) -> Self {
        assert!(i < m, "point mass index out of range");
        let mut p = vec![0.0; m];
        p[i] = 1.0;
        Dist(p)
    }

    /// Number of sensitive values `m`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the domain is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Probability of value `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// The probabilities as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// L∞ distance to `other`, handy in tests.
    pub fn max_abs_diff(&self, other: &Dist) -> f64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p:.4}")?;
        }
        write!(f, ")")
    }
}

/// Errors raised constructing a [`Dist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistError {
    /// Zero-length probability vector.
    Empty,
    /// A negative, NaN or infinite entry.
    NegativeOrNan(f64),
    /// Probabilities do not sum to one (carries the actual sum).
    NotNormalized(f64),
    /// All weights were zero when normalizing.
    ZeroMass,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Empty => write!(f, "empty probability vector"),
            DistError::NegativeOrNan(x) => write!(f, "invalid probability entry {x}"),
            DistError::NotNormalized(s) => write!(f, "probabilities sum to {s}, expected 1"),
            DistError::ZeroMass => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(Dist::new(vec![]).is_err());
        assert!(Dist::new(vec![0.5, 0.6]).is_err());
        assert!(Dist::new(vec![-0.1, 1.1]).is_err());
        assert!(Dist::new(vec![f64::NAN, 1.0]).is_err());
        assert!(Dist::new(vec![0.3, 0.7]).is_ok());
        assert!(Dist::from_weights(&[0.0, 0.0]).is_err());
        let d = Dist::from_weights(&[1.0, 3.0]).unwrap();
        assert_eq!(d.as_slice(), &[0.25, 0.75]);
        let c = Dist::from_counts(&[2, 2, 0]).unwrap();
        assert_eq!(c.as_slice(), &[0.5, 0.5, 0.0]);
    }

    #[test]
    fn uniform_and_point_mass() {
        let u = Dist::uniform(4);
        assert_eq!(u.get(2), 0.25);
        let p = Dist::point_mass(1, 3);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "point mass index")]
    fn point_mass_bounds_checked() {
        let _ = Dist::point_mass(3, 3);
    }

    #[test]
    fn max_abs_diff_works() {
        let p = Dist::new(vec![0.9, 0.1]).unwrap();
        let q = Dist::new(vec![0.5, 0.5]).unwrap();
        assert!((p.max_abs_diff(&q) - 0.4).abs() < 1e-12);
        assert_eq!(p.max_abs_diff(&p), 0.0);
    }

    #[test]
    fn display_formats() {
        let p = Dist::new(vec![0.25, 0.75]).unwrap();
        assert_eq!(format!("{p}"), "(0.2500, 0.7500)");
    }
}
