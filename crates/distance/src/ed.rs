//! Euclidean distance kernels.

/// Squared Euclidean distance between equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release the shorter
/// length governs (zip semantics) — callers are expected to pass
/// equal-length slices.
#[inline]
pub fn ed_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "ED over unequal lengths");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance `ED(S, Q) = sqrt(Σ (sᵢ − qᵢ)²)`.
#[inline]
pub fn ed(a: &[f64], b: &[f64]) -> f64 {
    ed_sq(a, b).sqrt()
}

/// Chunk width of the early-abandoning accumulation passes: the threshold
/// is checked once per `LANES` elements instead of once per element. The
/// verdict and any returned value are unchanged because the accumulator is
/// non-decreasing — exceeding the threshold mid-chunk implies exceeding it
/// at the chunk boundary too.
const LANES: usize = 8;

/// Early-abandoning squared ED: returns `Some(d²)` iff `d² ≤ threshold_sq`,
/// abandoning the accumulation as soon as it exceeds the threshold.
///
/// Chunked accumulation (one threshold check per `LANES` elements);
/// bit-identical to [`ed_early_abandon_scalar`].
#[inline]
pub fn ed_early_abandon(a: &[f64], b: &[f64], threshold_sq: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for (x, y) in ca.iter().zip(cb) {
            let d = x - y;
            acc += d * d;
        }
        if acc > threshold_sq {
            return None;
        }
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        let d = x - y;
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// The pre-optimization per-element-check ED kernel, retained as the
/// bit-identity oracle and the old-vs-new baseline of
/// `benches/distance_kernels.rs`.
#[inline]
pub fn ed_early_abandon_scalar(a: &[f64], b: &[f64], threshold_sq: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// Early-abandoning squared ED between the *z-normalized* `s` and an
/// already-normalized query `q_norm`, normalizing `s` on the fly from the
/// provided statistics (the UCR Suite trick: no materialized Ŝ).
///
/// With `sigma_s == 0`, `s` normalizes to all-zeros.
///
/// Chunked accumulation (one threshold check per `LANES` elements);
/// bit-identical to [`ed_norm_early_abandon_scalar`].
#[inline]
pub fn ed_norm_early_abandon(
    s: &[f64],
    q_norm: &[f64],
    mu_s: f64,
    sigma_s: f64,
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(s.len(), q_norm.len());
    let mut acc = 0.0;
    if sigma_s == 0.0 {
        let mut qc = q_norm.chunks_exact(LANES);
        for cq in &mut qc {
            for &q in cq {
                acc += q * q;
            }
            if acc > threshold_sq {
                return None;
            }
        }
        for &q in qc.remainder() {
            acc += q * q;
            if acc > threshold_sq {
                return None;
            }
        }
        return Some(acc);
    }
    let inv = 1.0 / sigma_s;
    let mut sc = s.chunks_exact(LANES);
    let mut qc = q_norm.chunks_exact(LANES);
    for (cs, cq) in (&mut sc).zip(&mut qc) {
        for (x, q) in cs.iter().zip(cq) {
            let d = (x - mu_s) * inv - q;
            acc += d * d;
        }
        if acc > threshold_sq {
            return None;
        }
    }
    for (x, q) in sc.remainder().iter().zip(qc.remainder()) {
        let d = (x - mu_s) * inv - q;
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// The pre-optimization per-element-check normalize-on-the-fly ED kernel,
/// retained as the bit-identity oracle and the old-vs-new baseline of
/// `benches/distance_kernels.rs`.
#[inline]
pub fn ed_norm_early_abandon_scalar(
    s: &[f64],
    q_norm: &[f64],
    mu_s: f64,
    sigma_s: f64,
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(s.len(), q_norm.len());
    let mut acc = 0.0;
    if sigma_s == 0.0 {
        for &q in q_norm {
            acc += q * q;
            if acc > threshold_sq {
                return None;
            }
        }
        return Some(acc);
    }
    let inv = 1.0 / sigma_s;
    for (x, q) in s.iter().zip(q_norm.iter()) {
        let d = (x - mu_s) * inv - q;
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// Early-abandoning normalized ED that visits coordinates in a caller-chosen
/// `order` (UCR Suite reorders by `|q̂ᵢ|` descending so large contributions
/// are accumulated first, abandoning sooner).
///
/// Deliberately *not* chunked: the gather-indexed access already defeats
/// contiguous loads, and the reorder exists to abandon as early as
/// possible — batching its threshold checks would trade away exactly the
/// early exits it buys.
#[inline]
pub fn ed_norm_early_abandon_ordered(
    s: &[f64],
    q_norm: &[f64],
    order: &[usize],
    mu_s: f64,
    sigma_s: f64,
    threshold_sq: f64,
) -> Option<f64> {
    debug_assert_eq!(s.len(), q_norm.len());
    debug_assert_eq!(s.len(), order.len());
    let mut acc = 0.0;
    if sigma_s == 0.0 {
        for &q in q_norm {
            acc += q * q;
            if acc > threshold_sq {
                return None;
            }
        }
        return Some(acc);
    }
    let inv = 1.0 / sigma_s;
    for &i in order {
        let d = (s[i] - mu_s) * inv - q_norm[i];
        acc += d * d;
        if acc > threshold_sq {
            return None;
        }
    }
    Some(acc)
}

/// Descending-magnitude coordinate order of a normalized query — the
/// abandonment-friendly order used by `ed_norm_early_abandon_ordered`.
pub fn abandon_order(q_norm: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..q_norm.len()).collect();
    order.sort_by(|&a, &b| {
        q_norm[b].abs().partial_cmp(&q_norm[a].abs()).expect("normalized query contains NaN")
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{mean_std, z_normalized};

    #[test]
    fn ed_known_value() {
        assert_eq!(ed(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(ed_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(ed(&[], &[]), 0.0);
    }

    #[test]
    fn early_abandon_agrees_when_within() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.5, 1.0, 3.25, 5.0];
        let exact = ed_sq(&a, &b);
        assert_eq!(ed_early_abandon(&a, &b, exact), Some(exact));
        assert_eq!(ed_early_abandon(&a, &b, exact + 1e-9), Some(exact));
        assert_eq!(ed_early_abandon(&a, &b, exact - 1e-9), None);
    }

    #[test]
    fn norm_early_abandon_matches_materialized() {
        let s = [5.0, 9.0, 1.0, 4.0, 7.0];
        let q = [0.0, 2.0, -1.0, 0.5, 1.0];
        let q_norm = z_normalized(&q);
        let s_norm = z_normalized(&s);
        let exact = ed_sq(&s_norm, &q_norm);
        let (mu, sigma) = mean_std(&s);
        let got = ed_norm_early_abandon(&s, &q_norm, mu, sigma, exact + 1e-9).unwrap();
        assert!((got - exact).abs() < 1e-9);
        assert!(ed_norm_early_abandon(&s, &q_norm, mu, sigma, exact - 1e-6).is_none());
    }

    #[test]
    fn norm_early_abandon_constant_candidate() {
        let s = [4.0; 6];
        let q = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let q_norm = z_normalized(&q);
        // Ŝ = 0 ⇒ distance² = Σ q̂² = m (population-normalized).
        let got = ed_norm_early_abandon(&s, &q_norm, 4.0, 0.0, 1e18).unwrap();
        assert!((got - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ordered_variant_same_result() {
        let s = [5.0, 9.0, 1.0, 4.0, 7.0, -2.0];
        let q = [0.0, 2.0, -1.0, 0.5, 1.0, 0.25];
        let q_norm = z_normalized(&q);
        let (mu, sigma) = mean_std(&s);
        let order = abandon_order(&q_norm);
        let plain = ed_norm_early_abandon(&s, &q_norm, mu, sigma, 1e18).unwrap();
        let ordered = ed_norm_early_abandon_ordered(&s, &q_norm, &order, mu, sigma, 1e18).unwrap();
        assert!((plain - ordered).abs() < 1e-9);
    }

    #[test]
    fn abandon_order_is_descending_magnitude() {
        let q = [0.1, -5.0, 2.0, 0.0];
        let order = abandon_order(&q);
        assert_eq!(order, vec![1, 2, 0, 3]);
    }
}
