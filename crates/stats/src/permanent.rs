//! Likelihood of a sensitive-value multiset: matrix permanents (§III.C).
//!
//! For a group `E = {t_1..t_k}` with sensitive multiset `S`, the likelihood
//! `P(S|E)` is the sum over every distinct assignment of the multiset to the
//! tuples of the product of prior probabilities — the permanent of the
//! `k × k` prior matrix divided by `Π n_i!` for value multiplicities `n_i`.
//! Computing the permanent is #P-complete, so exact inference is only viable
//! for small groups. Two backends are provided, and the unit tests check
//! both against a brute-force enumeration of the distinct assignments:
//!
//! * [`likelihood_dp`] — dynamic programming over remaining-count vectors,
//!   `O(k · q · Π(n_i + 1))` for `q` distinct values (the workhorse);
//! * [`likelihood_via_permanent`] — the raw `k × k` permanent by Ryser's
//!   inclusion–exclusion formula, `O(2^k · k)`.

use crate::dist::Dist;

/// Maximum group size accepted by the exact backends; beyond this the DP
/// state space or Ryser's `2^k` loop becomes impractical and callers should
/// use the Ω-estimate instead.
pub const MAX_EXACT_GROUP: usize = 20;

/// The distinct sensitive values present in `counts` (i.e. `n_i > 0`).
pub fn present_values(counts: &[u32]) -> Vec<usize> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, _)| i)
        .collect()
}

/// Brute-force reference: recursively assign each tuple a value with
/// remaining multiplicity and sum the products.
///
/// `priors[j]` is tuple `t_j`'s prior distribution over the full sensitive
/// domain; `counts[s]` is the multiplicity of value `s` in the group.
#[cfg(test)]
fn likelihood_enumerate(priors: &[Dist], counts: &[u32]) -> f64 {
    let k: u32 = counts.iter().sum();
    assert_eq!(
        k as usize,
        priors.len(),
        "multiset size must equal group size"
    );
    let mut remaining = counts.to_vec();
    fn rec(priors: &[Dist], j: usize, remaining: &mut [u32]) -> f64 {
        if j == priors.len() {
            return 1.0;
        }
        let mut acc = 0.0;
        for s in 0..remaining.len() {
            if remaining[s] > 0 {
                let p = priors[j].get(s);
                if p > 0.0 {
                    remaining[s] -= 1;
                    acc += p * rec(priors, j + 1, remaining);
                    remaining[s] += 1;
                }
            }
        }
        acc
    }
    rec(priors, 0, &mut remaining)
}

/// Dynamic program over remaining-count vectors.
///
/// State: how many copies of each distinct value remain to be assigned to
/// the *last* `|c|` tuples. Because the number of processed tuples is
/// implied by the total remaining count, a single table indexed by the
/// mixed-radix encoding of the count vector suffices.
pub fn likelihood_dp(priors: &[Dist], counts: &[u32]) -> f64 {
    let k: u32 = counts.iter().sum();
    assert_eq!(
        k as usize,
        priors.len(),
        "multiset size must equal group size"
    );
    let k = k as usize;
    if k == 0 {
        return 1.0;
    }
    assert!(
        k <= MAX_EXACT_GROUP,
        "group of size {k} exceeds MAX_EXACT_GROUP = {MAX_EXACT_GROUP}"
    );
    let values = present_values(counts);
    let q = values.len();
    // Mixed-radix strides: state index = Σ c_v · stride_v.
    let mut strides = vec![0usize; q];
    let mut size = 1usize;
    for (v, s) in strides.iter_mut().enumerate() {
        *s = size;
        size *= counts[values[v]] as usize + 1;
    }
    // table[state] = likelihood of assigning the remaining multiset `state`
    // to the last |state| tuples. Filled in increasing order of total count,
    // which increasing state index does NOT guarantee in general — but every
    // transition strictly decreases one digit, so a plain increasing scan
    // works because each state only reads states with smaller indices.
    let mut table = vec![0.0f64; size];
    table[0] = 1.0;
    // Decode digits on the fly.
    let mut digits = vec![0u32; q];
    for state in 1..size {
        // Decode `state` into digits.
        let mut rest = state;
        let mut total = 0u32;
        for v in (0..q).rev() {
            let d = rest / strides[v];
            rest %= strides[v];
            digits[v] = d as u32;
            total += d as u32;
        }
        // This state covers the last `total` tuples, i.e. tuple index
        // k - total is assigned next.
        let j = k - total as usize;
        let mut acc = 0.0;
        for v in 0..q {
            if digits[v] > 0 {
                let p = priors[j].get(values[v]);
                if p > 0.0 {
                    acc += p * table[state - strides[v]];
                }
            }
        }
        table[state] = acc;
    }
    table[size - 1]
}

/// Ryser's formula for the permanent of a dense `k × k` matrix given as
/// row-major `data`: `per(A) = (−1)^k Σ_{S ⊆ cols} (−1)^{|S|} Π_i Σ_{j∈S} a_ij`.
///
/// Iterates subsets in Gray-code order so each step updates the row sums in
/// `O(k)`.
fn permanent_ryser(data: &[f64], k: usize) -> f64 {
    assert_eq!(data.len(), k * k, "matrix must be k × k");
    assert!(
        k <= MAX_EXACT_GROUP,
        "matrix of size {k} exceeds MAX_EXACT_GROUP = {MAX_EXACT_GROUP}"
    );
    if k == 0 {
        return 1.0;
    }
    let mut row_sums = vec![0.0f64; k];
    let mut total = 0.0f64;
    let mut gray: usize = 0;
    let n_subsets: usize = 1 << k;
    for iter in 1..n_subsets {
        // Gray code of `iter` differs from the previous in exactly one bit.
        let new_gray = iter ^ (iter >> 1);
        let changed = new_gray ^ gray;
        let col = changed.trailing_zeros() as usize;
        let sign_in = new_gray & changed != 0; // column added?
        for (i, rs) in row_sums.iter_mut().enumerate() {
            let a = data[i * k + col];
            if sign_in {
                *rs += a;
            } else {
                *rs -= a;
            }
        }
        gray = new_gray;
        let prod: f64 = row_sums.iter().product();
        let parity = new_gray.count_ones() as usize;
        // (−1)^{k−|S|}
        if (k - parity).is_multiple_of(2) {
            total += prod;
        } else {
            total -= prod;
        }
    }
    total
}

/// Factorial as `f64` (exact for `n ≤ 20`).
fn factorial(n: u32) -> f64 {
    (1..=n).map(f64::from).product()
}

/// `P(S|E)` computed through the raw permanent: build the `k × k` matrix
/// whose columns repeat each value `n_i` times, take the permanent, and
/// divide by `Π n_i!` to collapse identical-column permutations into one
/// distinct assignment each.
pub fn likelihood_via_permanent(priors: &[Dist], counts: &[u32]) -> f64 {
    let k: u32 = counts.iter().sum();
    assert_eq!(
        k as usize,
        priors.len(),
        "multiset size must equal group size"
    );
    let k = k as usize;
    if k == 0 {
        return 1.0;
    }
    let mut data = vec![0.0f64; k * k];
    let mut col = 0usize;
    for (s, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            for (j, prior) in priors.iter().enumerate() {
                data[j * k + col] = prior.get(s);
            }
            col += 1;
        }
    }
    let mut divisor = 1.0;
    for &c in counts {
        divisor *= factorial(c);
    }
    permanent_ryser(&data, k) / divisor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: &[f64]) -> Dist {
        Dist::new(v.to_vec()).unwrap()
    }

    /// Priors from the paper's Table II(b): code 0 = HIV, code 1 = none.
    fn paper_priors() -> Vec<Dist> {
        vec![d(&[0.05, 0.95]), d(&[0.05, 0.95]), d(&[0.30, 0.70])]
    }

    #[test]
    fn paper_example_likelihood() {
        // P({none,none,HIV}|{t1,t2,t3})
        //   = .95·.95·.30 + .95·.05·.70 + .05·.95·.70 = 0.33725
        let counts = [1u32, 2u32];
        let expect = 0.95 * 0.95 * 0.30 + 0.95 * 0.05 * 0.70 + 0.05 * 0.95 * 0.70;
        for f in [
            likelihood_enumerate,
            likelihood_dp,
            likelihood_via_permanent,
        ] {
            let got = f(&paper_priors(), &counts);
            assert!((got - expect).abs() < 1e-12, "got {got}, expect {expect}");
        }
    }

    #[test]
    fn backends_agree_on_random_instances() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let m = rng.gen_range(2..5usize);
            let k = rng.gen_range(1..7usize);
            let priors: Vec<Dist> = (0..k)
                .map(|_| {
                    let w: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() + 1e-3).collect();
                    Dist::from_weights(&w).unwrap()
                })
                .collect();
            let mut counts = vec![0u32; m];
            for _ in 0..k {
                counts[rng.gen_range(0..m)] += 1;
            }
            let a = likelihood_enumerate(&priors, &counts);
            let b = likelihood_dp(&priors, &counts);
            let c = likelihood_via_permanent(&priors, &counts);
            assert!((a - b).abs() < 1e-10 * a.max(1e-30), "enum {a} vs dp {b}");
            assert!((a - c).abs() < 1e-9 * a.max(1e-30), "enum {a} vs ryser {c}");
        }
    }

    #[test]
    fn ryser_known_values() {
        // Permanent of [[1,2],[3,4]] = 1·4 + 2·3 = 10.
        assert!((permanent_ryser(&[1.0, 2.0, 3.0, 4.0], 2) - 10.0).abs() < 1e-12);
        // All-ones 3×3 permanent = 3! = 6.
        assert!((permanent_ryser(&[1.0; 9], 3) - 6.0).abs() < 1e-12);
        // Identity matrix permanent = 1.
        let mut id = vec![0.0; 16];
        for i in 0..4 {
            id[i * 4 + i] = 1.0;
        }
        assert!((permanent_ryser(&id, 4) - 1.0).abs() < 1e-12);
        // 0×0 permanent is 1 by convention.
        assert_eq!(permanent_ryser(&[], 0), 1.0);
    }

    #[test]
    fn dp_handles_all_same_value() {
        // All k tuples share one value: likelihood = Π priors.
        let priors = vec![d(&[0.2, 0.8]), d(&[0.5, 0.5]), d(&[0.9, 0.1])];
        let counts = [3u32, 0];
        let expect = 0.2 * 0.5 * 0.9;
        assert!((likelihood_dp(&priors, &counts) - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_prior_blocks_assignments() {
        // Table III: t1, t2 cannot have HIV → only one arrangement survives.
        let priors = vec![d(&[0.0, 1.0]), d(&[0.0, 1.0]), d(&[0.30, 0.70])];
        let counts = [1u32, 2u32];
        let expect = 1.0 * 1.0 * 0.30;
        for f in [
            likelihood_enumerate,
            likelihood_dp,
            likelihood_via_permanent,
        ] {
            assert!((f(&priors, &counts) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(1), 1.0);
        assert_eq!(factorial(5), 120.0);
    }

    #[test]
    fn present_values_filters_zeros() {
        assert_eq!(present_values(&[0, 3, 0, 1]), vec![1, 3]);
        assert!(present_values(&[0, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "MAX_EXACT_GROUP")]
    fn oversized_group_rejected() {
        let priors: Vec<Dist> = (0..21).map(|_| d(&[0.5, 0.5])).collect();
        let mut counts = vec![0u32; 2];
        counts[0] = 21;
        let _ = likelihood_dp(&priors, &counts);
    }

    #[test]
    #[should_panic(expected = "multiset size")]
    fn mismatched_sizes_rejected() {
        let _ = likelihood_dp(&paper_priors(), &[1, 1]);
    }
}
