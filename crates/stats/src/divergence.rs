//! Kullback–Leibler and Jensen–Shannon divergences (§IV.B).
//!
//! KL is undefined when `p_i > 0` but `q_i = 0` (it fails the paper's
//! *zero-probability definability* desideratum); JS repairs this by measuring
//! against the average distribution. Both are computed in **bits** (base-2
//! logarithms), the convention of Lin's original JS paper — JS is then
//! bounded by 1, matching the scale of the paper's disclosure-risk plots
//! (Fig. 3 reaches risks near 1.0).

use crate::dist::Dist;

/// Kullback–Leibler divergence `KL[P‖Q] = Σ p_i log₂(p_i / q_i)` in bits.
///
/// Returns `None` when undefined, i.e. some `p_i > 0` with `q_i = 0`.
/// Terms with `p_i = 0` contribute zero by convention.
pub fn kl_divergence(p: &Dist, q: &Dist) -> Option<f64> {
    assert_eq!(p.len(), q.len(), "dimension mismatch");
    let mut acc = 0.0;
    for i in 0..p.len() {
        let pi = p.get(i);
        if pi > 0.0 {
            let qi = q.get(i);
            if qi == 0.0 {
                return None;
            }
            acc += pi * (pi / qi).log2();
        }
    }
    Some(acc)
}

/// Jensen–Shannon divergence
/// `JS[P,Q] = ½·KL[P‖M] + ½·KL[Q‖M]` with `M = (P+Q)/2` (Eq. 6), in bits.
///
/// Always defined: whenever `p_i > 0`, `m_i ≥ p_i/2 > 0`. Bounded by 1.
/// Computed over the probability slices, with no allocation.
pub fn js_divergence(p: &Dist, q: &Dist) -> f64 {
    assert_eq!(p.len(), q.len(), "dimension mismatch");
    js_divergence_slices(p.as_slice(), q.as_slice())
}

/// [`js_divergence`] over raw probability slices of equal length, with no
/// allocation. Each half is [`kl_divergence`] against the average
/// `m_i = 0.5 · (p_i + q_i)`, accumulated from `0.0` in ascending `i`, and
/// the result is `0.5 · (KL[P‖M] + KL[Q‖M])` — the same operations in the
/// same order as building the average as a [`Dist`], so the two forms agree
/// bit for bit.
///
/// Total: a term whose average underflows to zero (`p_i` a subnormal,
/// `q_i = 0`) is skipped. Its exact value, `p_i · log₂(2p_i / p_i) = p_i`,
/// is below the resolution of any non-zero sum.
pub(crate) fn js_divergence_slices(p: &[f64], q: &[f64]) -> f64 {
    let mut kl_p = 0.0;
    let mut kl_q = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        let mi = 0.5 * (pi + qi);
        if mi == 0.0 {
            continue;
        }
        if pi > 0.0 {
            kl_p += pi * (pi / mi).log2();
        }
        if qi > 0.0 {
            kl_q += qi * (qi / mi).log2();
        }
    }
    0.5 * (kl_p + kl_q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    #[test]
    fn kl_identity_is_zero() {
        let p = d(&[0.3, 0.7]);
        assert_eq!(kl_divergence(&p, &p), Some(0.0));
    }

    #[test]
    fn kl_known_value() {
        let p = d(&[0.5, 0.5]);
        let q = d(&[0.25, 0.75]);
        // 0.5 log2(2) + 0.5 log2(2/3)
        let expect = 0.5 + 0.5 * (2.0f64 / 3.0).log2();
        assert!((kl_divergence(&p, &q).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn kl_undefined_on_zero_support() {
        let p = d(&[0.5, 0.5]);
        let q = d(&[1.0, 0.0]);
        assert_eq!(kl_divergence(&p, &q), None);
        // But defined the other way round (0 · ln is dropped).
        assert!(kl_divergence(&q, &p).is_some());
    }

    #[test]
    fn kl_is_asymmetric() {
        let p = d(&[0.9, 0.1]);
        let q = d(&[0.5, 0.5]);
        let a = kl_divergence(&p, &q).unwrap();
        let b = kl_divergence(&q, &p).unwrap();
        assert!((a - b).abs() > 1e-3);
    }

    #[test]
    fn js_identity_and_symmetry() {
        let p = d(&[0.2, 0.3, 0.5]);
        let q = d(&[0.5, 0.25, 0.25]);
        assert_eq!(js_divergence(&p, &p), 0.0);
        assert!((js_divergence(&p, &q) - js_divergence(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn js_defined_with_zeros_and_bounded() {
        let p = d(&[1.0, 0.0]);
        let q = d(&[0.0, 1.0]);
        let v = js_divergence(&p, &q);
        // Maximal JS = 1 bit for disjoint supports.
        assert!((v - 1.0).abs() < 1e-12);
        for (a, b) in [(&p, &q), (&q, &p)] {
            assert!(js_divergence(a, b) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn js_slices_match_the_dist_form_bit_for_bit() {
        let cases = [
            (d(&[0.2, 0.3, 0.5]), d(&[0.5, 0.25, 0.25])),
            (d(&[1.0, 0.0, 0.0]), d(&[0.0, 0.0, 1.0])),
            (d(&[0.1, 0.0, 0.9]), d(&[0.1, 0.0, 0.9])),
        ];
        for (p, q) in &cases {
            let m = Dist::from_vec_unchecked(
                p.as_slice()
                    .iter()
                    .zip(q.as_slice())
                    .map(|(&a, &b)| 0.5 * (a + b))
                    .collect(),
            );
            let half = |a: &Dist| kl_divergence(a, &m).unwrap();
            let expect = 0.5 * (half(p) + half(q));
            let got = js_divergence_slices(p.as_slice(), q.as_slice());
            assert_eq!(got.to_bits(), expect.to_bits(), "{p} vs {q}");
        }
    }

    #[test]
    fn js_is_total_when_the_average_underflows() {
        let tiny = f64::from_bits(1);
        let v = js_divergence_slices(&[tiny, 1.0 - tiny], &[0.0, 1.0]);
        assert!(v.is_finite() && v >= 0.0, "{v}");
    }

    #[test]
    fn js_nonnegative_on_random_pairs() {
        // Small deterministic sweep.
        for i in 0..10 {
            for j in 0..10 {
                let a = (i as f64 + 0.5) / 10.5;
                let b = (j as f64 + 0.5) / 10.5;
                let p = d(&[a, 1.0 - a]);
                let q = d(&[b, 1.0 - b]);
                assert!(js_divergence(&p, &q) >= -1e-15);
            }
        }
    }
}
