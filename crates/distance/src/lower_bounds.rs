//! Cascading lower bounds for DTW (and ED) pruning.
//!
//! All bounds return **squared** values so they compose with the squared
//! thresholds of the early-abandoning kernels:
//!
//! `LB_Kim-FL ≤ LB_Keogh ≤ DTW²` and `LB_PAA ≤ DTW²` (Eq. 3).

/// LB_Kim (first/last variant): squared distance contributed by the first
/// and last aligned points, which every warping path must pay.
#[inline]
pub fn lb_kim_fl_sq(s: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(s.len(), q.len());
    if s.is_empty() {
        return 0.0;
    }
    let m = s.len();
    let df = s[0] - q[0];
    let dl = s[m - 1] - q[m - 1];
    df * df + dl * dl
}

/// Per-point LB_Keogh excursion beyond the envelope, branch-free.
///
/// At most one of the two clamped deltas is non-zero, so their sum is the
/// excursion; squaring it reproduces the branchy `(v − u)²` / `(v − l)²`
/// cases bit-for-bit (`(l − v)² == (v − l)²` exactly, and adding `+0.0`
/// to a non-negative accumulator is a no-op at the bit level).
#[inline(always)]
fn keogh_excursion(v: f64, l: f64, u: f64) -> f64 {
    (v - u).max(0.0) + (l - v).max(0.0)
}

/// LB_Keogh squared: `Σᵢ (sᵢ − uᵢ)²` when `sᵢ > uᵢ`, `(sᵢ − lᵢ)²` when
/// `sᵢ < lᵢ`, else 0 — against the query envelope `(lower, upper)`.
///
/// Branch-free body; bit-identical to [`lb_keogh_sq_scalar`].
#[inline]
pub fn lb_keogh_sq(s: &[f64], lower: &[f64], upper: &[f64]) -> f64 {
    debug_assert_eq!(s.len(), lower.len());
    debug_assert_eq!(s.len(), upper.len());
    let mut acc = 0.0;
    for ((&v, &l), &u) in s.iter().zip(lower).zip(upper) {
        let d = keogh_excursion(v, l, u);
        acc += d * d;
    }
    acc
}

/// Early-abandoning LB_Keogh: `None` as soon as the accumulation exceeds
/// `threshold_sq`.
///
/// Runs the branch-free body over fixed-width chunks, checking the
/// threshold once per chunk instead of once per element — the verdict and
/// the returned accumulation are unchanged because the accumulator is
/// non-decreasing (bit-identical to [`lb_keogh_sq_early_abandon_scalar`]).
#[inline]
pub fn lb_keogh_sq_early_abandon(
    s: &[f64],
    lower: &[f64],
    upper: &[f64],
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(s.len(), lower.len());
    debug_assert_eq!(s.len(), upper.len());
    const LANES: usize = 8;
    let mut acc = 0.0;
    let mut sc = s.chunks_exact(LANES);
    let mut lc = lower.chunks_exact(LANES);
    let mut uc = upper.chunks_exact(LANES);
    for ((cs, cl), cu) in (&mut sc).zip(&mut lc).zip(&mut uc) {
        for ((&v, &l), &u) in cs.iter().zip(cl).zip(cu) {
            let d = keogh_excursion(v, l, u);
            acc += d * d;
        }
        if acc > threshold_sq {
            return None;
        }
    }
    for ((&v, &l), &u) in sc.remainder().iter().zip(lc.remainder()).zip(uc.remainder()) {
        let d = keogh_excursion(v, l, u);
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// The pre-optimization scalar LB_Keogh (branchy per-element cases and a
/// per-element threshold check). Retained as the bit-identity oracle and
/// the old-vs-new baseline of `benches/distance_kernels.rs`.
#[inline]
pub fn lb_keogh_sq_early_abandon_scalar(
    s: &[f64],
    lower: &[f64],
    upper: &[f64],
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(s.len(), lower.len());
    debug_assert_eq!(s.len(), upper.len());
    let mut acc = 0.0;
    for i in 0..s.len() {
        let v = s[i];
        if v > upper[i] {
            let d = v - upper[i];
            acc += d * d;
        } else if v < lower[i] {
            let d = v - lower[i];
            acc += d * d;
        }
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// Branchy counterpart of [`lb_keogh_sq`], kept as its bit-identity
/// oracle.
#[inline]
pub fn lb_keogh_sq_scalar(s: &[f64], lower: &[f64], upper: &[f64]) -> f64 {
    debug_assert_eq!(s.len(), lower.len());
    debug_assert_eq!(s.len(), upper.len());
    let mut acc = 0.0;
    for i in 0..s.len() {
        let v = s[i];
        if v > upper[i] {
            let d = v - upper[i];
            acc += d * d;
        } else if v < lower[i] {
            let d = v - lower[i];
            acc += d * d;
        }
    }
    acc
}

/// LB_PAA squared (Eq. 3 of the paper, from Zhu & Shasha): windows of width
/// `w`; `µ_s`, `µ_l`, `µ_u` are the per-window means of the candidate and of
/// the envelope series. `LB_PAA ≤ DTW_ρ²`.
#[inline]
pub fn lb_paa_sq(mu_s: &[f64], mu_l: &[f64], mu_u: &[f64], w: usize) -> f64 {
    debug_assert_eq!(mu_s.len(), mu_l.len());
    debug_assert_eq!(mu_s.len(), mu_u.len());
    let wf = w as f64;
    let mut acc = 0.0;
    for i in 0..mu_s.len() {
        let v = mu_s[i];
        if v > mu_u[i] {
            let d = v - mu_u[i];
            acc += wf * d * d;
        } else if v < mu_l[i] {
            let d = v - mu_l[i];
            acc += wf * d * d;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw_banded;
    use crate::envelope::keogh_envelope;

    fn window_means(xs: &[f64], w: usize) -> Vec<f64> {
        xs.chunks_exact(w).map(|c| c.iter().sum::<f64>() / w as f64).collect()
    }

    fn pseudo(n: usize, a: u64, b: u64) -> Vec<f64> {
        (0..n).map(|i| (((i as u64 * a + b) % 97) as f64) * 0.21 - 10.0).collect()
    }

    #[test]
    fn kim_fl_below_dtw() {
        for seed in 0..5u64 {
            let s = pseudo(60, 31 + seed, 7);
            let q = pseudo(60, 17 + seed, 3);
            let d = dtw_banded(&s, &q, 5);
            assert!(lb_kim_fl_sq(&s, &q) <= d * d + 1e-9);
        }
    }

    #[test]
    fn keogh_below_dtw() {
        for seed in 0..5u64 {
            let s = pseudo(64, 29 + seed, 11);
            let q = pseudo(64, 13 + seed, 5);
            for rho in [0usize, 2, 6, 15] {
                let (l, u) = keogh_envelope(&q, rho);
                let lb = lb_keogh_sq(&s, &l, &u);
                let d = dtw_banded(&s, &q, rho);
                assert!(
                    lb <= d * d + 1e-9,
                    "LB_Keogh {lb} > DTW² {} (rho={rho}, seed={seed})",
                    d * d
                );
            }
        }
    }

    #[test]
    fn paa_below_dtw() {
        for seed in 0..5u64 {
            let s = pseudo(64, 23 + seed, 19);
            let q = pseudo(64, 37 + seed, 2);
            for rho in [0usize, 3, 8] {
                let (l, u) = keogh_envelope(&q, rho);
                for w in [4usize, 8, 16] {
                    let lb = lb_paa_sq(
                        &window_means(&s, w),
                        &window_means(&l, w),
                        &window_means(&u, w),
                        w,
                    );
                    let d = dtw_banded(&s, &q, rho);
                    assert!(lb <= d * d + 1e-9, "LB_PAA {lb} > DTW² {} (rho={rho}, w={w})", d * d);
                }
            }
        }
    }

    #[test]
    fn paa_below_keogh() {
        // PAA over the envelope is a coarsening of LB_Keogh.
        let s = pseudo(64, 41, 13);
        let q = pseudo(64, 43, 29);
        let (l, u) = keogh_envelope(&q, 4);
        let keogh = lb_keogh_sq(&s, &l, &u);
        let paa = lb_paa_sq(&window_means(&s, 8), &window_means(&l, 8), &window_means(&u, 8), 8);
        assert!(paa <= keogh + 1e-9);
    }

    #[test]
    fn early_abandon_keogh_consistency() {
        let s = pseudo(64, 47, 5);
        let q = pseudo(64, 53, 23);
        let (l, u) = keogh_envelope(&q, 3);
        let exact = lb_keogh_sq(&s, &l, &u);
        assert_eq!(lb_keogh_sq_early_abandon(&s, &l, &u, exact + 1e-9), Some(exact));
        assert_eq!(lb_keogh_sq_early_abandon(&s, &l, &u, exact * 0.5), None);
    }

    #[test]
    fn inside_envelope_is_zero() {
        let q = [1.0, 2.0, 3.0, 2.0, 1.0];
        let (l, u) = keogh_envelope(&q, 2);
        assert_eq!(lb_keogh_sq(&q, &l, &u), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(lb_kim_fl_sq(&[], &[]), 0.0);
        assert_eq!(lb_keogh_sq(&[], &[], &[]), 0.0);
        assert_eq!(lb_paa_sq(&[], &[], &[], 8), 0.0);
    }
}
