//! Sakoe–Chiba band-constrained Dynamic Time Warping.
//!
//! Definition (§II-A): squared point costs accumulated along the optimal
//! warping path, alignment pairs restricted to `|i − j| ≤ ρ`; the distance
//! is the square root of the cumulative cost. `ρ = 0` degenerates to ED.

use crate::scratch::KernelScratch;

/// Banded DTW distance between equal-length sequences.
///
/// Runs in O(m·(2ρ+1)) time and O(m) space. Returns `f64::INFINITY` only
/// when both inputs are non-empty but no path exists (cannot happen for
/// equal lengths and ρ ≥ 0) — for empty inputs it returns 0.
pub fn dtw_banded(a: &[f64], b: &[f64], rho: usize) -> f64 {
    dtw_banded_early_abandon(a, b, rho, f64::INFINITY).expect("unbounded DTW cannot abandon").sqrt()
}

/// Early-abandoning banded DTW on **squared** threshold.
///
/// Returns `Some(cost²)` iff the squared DTW cost is `≤ threshold_sq`;
/// abandons (returns `None`) as soon as every cell of the current row
/// exceeds the threshold, since costs are non-decreasing along any path.
///
/// Allocates its DP rows per call; hot paths use
/// [`dtw_banded_early_abandon_scratch`] with a per-worker
/// [`KernelScratch`].
///
/// # Panics
/// Panics if `a.len() != b.len()` (the subsequence-matching setting always
/// compares equal lengths).
pub fn dtw_banded_early_abandon(
    a: &[f64],
    b: &[f64],
    rho: usize,
    threshold_sq: f64,
) -> Option<f64> {
    dtw_banded_early_abandon_scratch(a, b, rho, threshold_sq, &mut KernelScratch::new())
}

/// [`dtw_banded_early_abandon`] over reusable scratch rows: the
/// allocation-free hot path. Bit-identical to the scalar kernel (the
/// property suite compares `to_bits`).
pub fn dtw_banded_early_abandon_scratch(
    a: &[f64],
    b: &[f64],
    rho: usize,
    threshold_sq: f64,
    scratch: &mut KernelScratch,
) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "DTW over unequal lengths");
    let m = a.len();
    if m == 0 {
        return (0.0 <= threshold_sq).then_some(0.0);
    }
    let band = rho.min(m - 1);
    let width = 2 * band + 1;
    let (prev, curr) = scratch.dp_rows(width + 2);
    banded_core(a, b, band, threshold_sq, prev, curr, |x, y| {
        let d = x - y;
        d * d
    })
}

/// The branch-peeled banded DP core shared by DTW and GDTW.
///
/// Layout: `row[k]` holds the cost of column `j = i - band + k`, so the
/// window is stationary in `k` while it slides in `j`. Neighbours of cell
/// `(i, j)` at index `k`: up `(i-1, j)` → `prev[k+1]`, diagonal
/// `(i-1, j-1)` → `prev[k]`, left `(i, j-1)` → `curr[k-1]`.
///
/// The hot loop carries no boundary branches: row 0 is peeled entirely
/// (only the left neighbour exists, so the row is a running prefix sum),
/// and each later row peels only its first band cell, whose missing
/// neighbours are covered by the ∞ padding — every cell a row does *not*
/// write was reset to ∞, so `prev[k0]` reads ∞ exactly when the diagonal
/// neighbour is out of band. The interior runs over pre-sliced windows of
/// `prev`/`curr`/`b` (bounds checks hoisted), with the left neighbour
/// carried in a register.
///
/// Preconditions: `m ≥ 1`, `band ≤ m - 1`, both rows exactly
/// `2·band + 3` long (one ∞ pad past each band edge). Row contents may
/// be arbitrary on entry.
#[inline(always)]
pub(crate) fn banded_core<F: Fn(f64, f64) -> f64>(
    a: &[f64],
    b: &[f64],
    band: usize,
    threshold: f64,
    prev: &mut [f64],
    curr: &mut [f64],
    point: F,
) -> Option<f64> {
    let m = a.len();
    let width = 2 * band + 1;
    debug_assert!(m >= 1 && band < m);
    debug_assert_eq!(prev.len(), width + 2);
    debug_assert_eq!(curr.len(), width + 2);
    let inf = f64::INFINITY;
    let (mut prev, mut curr) = (prev, curr);

    // Row 0 peeled: cell (0, 0) costs point(a₀, b₀); every later cell of
    // the row only has a left neighbour, so the row is a prefix sum.
    curr.fill(inf);
    let a0 = a[0];
    let mut running = point(a0, b[0]);
    debug_assert!(running >= 0.0, "negative point cost breaks early abandoning");
    curr[band] = running;
    let mut row_min = inf.min(running);
    for (k, &bv) in (band + 1..).zip(&b[1..=band]) {
        let d = point(a0, bv);
        debug_assert!(d >= 0.0, "negative point cost breaks early abandoning");
        running += d;
        curr[k] = running;
        row_min = row_min.min(running);
    }
    if row_min > threshold {
        return None;
    }
    std::mem::swap(&mut prev, &mut curr);

    for (i, &ai) in a.iter().enumerate().skip(1) {
        let j_lo = i.saturating_sub(band);
        let j_hi = (i + band).min(m - 1);
        let k0 = j_lo + band - i;
        curr.fill(inf);
        // First band cell peeled: it never has a left neighbour, and
        // `prev[k0]` is ∞ exactly when the diagonal is out of band, so one
        // expression covers both the j_lo == 0 and j_lo > 0 cases.
        let d = point(ai, b[j_lo]);
        debug_assert!(d >= 0.0, "negative point cost breaks early abandoning");
        let mut left = prev[k0 + 1].min(prev[k0]) + d;
        curr[k0] = left;
        let mut row_min = inf.min(left);
        // Interior: branch-free over pre-sliced windows.
        let len = j_hi - j_lo;
        let up = &prev[k0 + 2..k0 + 2 + len];
        let diag = &prev[k0 + 1..k0 + 1 + len];
        let bs = &b[j_lo + 1..j_lo + 1 + len];
        let out = &mut curr[k0 + 1..k0 + 1 + len];
        for t in 0..len {
            let d = point(ai, bs[t]);
            debug_assert!(d >= 0.0, "negative point cost breaks early abandoning");
            let cost = up[t].min(diag[t]).min(left) + d;
            out[t] = cost;
            row_min = row_min.min(cost);
            left = cost;
        }
        if row_min > threshold {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let total = prev[band];
    (total <= threshold).then_some(total)
}

/// The pre-optimization scalar kernel: per-cell boundary branches inside
/// the band loop, DP rows allocated per call. Retained as the
/// bit-identity oracle for [`dtw_banded_early_abandon_scratch`] and as
/// the old-vs-new baseline of `benches/distance_kernels.rs`.
#[allow(clippy::needless_range_loop)] // band-relative indexing reads clearer with explicit i/j
pub fn dtw_banded_early_abandon_scalar(
    a: &[f64],
    b: &[f64],
    rho: usize,
    threshold_sq: f64,
) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "DTW over unequal lengths");
    let m = a.len();
    if m == 0 {
        return (0.0 <= threshold_sq).then_some(0.0);
    }
    let band = rho.min(m - 1);
    let width = 2 * band + 1;
    // prev[k] holds cost for column j = i-1 - band + k of the previous row.
    let inf = f64::INFINITY;
    let mut prev = vec![inf; width + 2];
    let mut curr = vec![inf; width + 2];

    for i in 0..m {
        let j_lo = i.saturating_sub(band);
        let j_hi = (i + band).min(m - 1);
        let mut row_min = inf;
        curr.iter_mut().for_each(|c| *c = inf);
        for j in j_lo..=j_hi {
            // Index within the band-relative buffer: k = j - (i - band).
            let k = j + band - i; // in [0, width)
            let d = a[i] - b[j];
            let d = d * d;
            let best_prev = if i == 0 && j == 0 {
                0.0
            } else {
                // Neighbours: (i-1, j) → prev[k+1]; (i-1, j-1) → prev[k];
                // (i, j-1) → curr[k-1]. Band-relative because the window
                // shifts right by one each row.
                let up = if i > 0 && k + 1 < width + 1 { prev[k + 1] } else { inf };
                let diag = if i > 0 && j > 0 { prev[k] } else { inf };
                let left = if j > 0 && k > 0 { curr[k - 1] } else { inf };
                up.min(diag).min(left)
            };
            let cost = best_prev + d;
            curr[k] = cost;
            if cost < row_min {
                row_min = cost;
            }
        }
        if row_min > threshold_sq {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let final_k = (m - 1) + band - (m - 1); // = band
    let total = prev[final_k];
    (total <= threshold_sq).then_some(total)
}

/// Reference quadratic implementation (full matrix, no band buffer tricks)
/// — used by tests and available for validation.
#[allow(clippy::needless_range_loop)]
pub fn dtw_banded_reference(a: &[f64], b: &[f64], rho: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    let m = a.len();
    if m == 0 {
        return 0.0;
    }
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; m + 1]; m + 1];
    dp[0][0] = 0.0;
    for i in 1..=m {
        for j in 1..=m {
            if i.abs_diff(j) > rho {
                continue;
            }
            let d = a[i - 1] - b[j - 1];
            let d = d * d;
            let best = dp[i - 1][j - 1].min(dp[i - 1][j]).min(dp[i][j - 1]);
            if best < inf {
                dp[i][j] = best + d;
            }
        }
    }
    dp[m][m].sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed::ed;

    #[test]
    fn zero_band_equals_ed() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [0.5, 2.0, 2.5, 7.0];
        assert!((dtw_banded(&a, &b, 0) - ed(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn identical_series_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dtw_banded(&a, &a, 2), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw_banded(&[], &[], 3), 0.0);
    }

    #[test]
    fn warping_reduces_distance_of_shifted_series() {
        // b is a one-step shifted copy of a; DTW with band ≥ 1 should align
        // them nearly perfectly while ED cannot.
        let a: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let b: Vec<f64> = (0..50).map(|i| (((i + 1) as f64) * 0.3).sin()).collect();
        let d_ed = ed(&a, &b);
        let d_dtw = dtw_banded(&a, &b, 3);
        assert!(d_dtw < d_ed * 0.5, "dtw {d_dtw} vs ed {d_ed}");
    }

    #[test]
    fn banded_matches_reference() {
        // Pseudo-random but deterministic inputs.
        let a: Vec<f64> = (0..40).map(|i| (((i * 73) % 31) as f64) * 0.37 - 4.0).collect();
        let b: Vec<f64> = (0..40).map(|i| (((i * 41) % 29) as f64) * 0.53 - 5.0).collect();
        for rho in [0usize, 1, 2, 5, 12, 39, 100] {
            let fast = dtw_banded(&a, &b, rho);
            let slow = dtw_banded_reference(&a, &b, rho);
            assert!((fast - slow).abs() < 1e-9, "rho={rho}: fast {fast} vs reference {slow}");
        }
    }

    #[test]
    fn wider_band_never_increases_distance() {
        let a: Vec<f64> = (0..30).map(|i| ((i * 7 % 13) as f64).cos() * 3.0).collect();
        let b: Vec<f64> = (0..30).map(|i| ((i * 5 % 11) as f64).sin() * 3.0).collect();
        let mut last = f64::INFINITY;
        for rho in 0..10 {
            let d = dtw_banded(&a, &b, rho);
            assert!(d <= last + 1e-12, "rho={rho} increased distance");
            last = d;
        }
    }

    #[test]
    fn early_abandon_consistency() {
        let a: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).sin() * 2.0).collect();
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.9).cos() * 2.0).collect();
        let exact = dtw_banded(&a, &b, 4);
        let sq = exact * exact;
        assert!(dtw_banded_early_abandon(&a, &b, 4, sq + 1e-9).is_some());
        assert!(dtw_banded_early_abandon(&a, &b, 4, sq * 0.99 - 1e-9).is_none());
    }

    #[test]
    fn scratch_kernel_bit_identical_to_scalar() {
        let a: Vec<f64> = (0..60).map(|i| (((i * 73) % 31) as f64) * 0.37 - 4.0).collect();
        let b: Vec<f64> = (0..60).map(|i| (((i * 41) % 29) as f64) * 0.53 - 5.0).collect();
        let mut scratch = KernelScratch::new();
        for rho in [0usize, 1, 2, 5, 12, 59, 100] {
            for thr in [0.0, 1.0, 50.0, 1e4, f64::INFINITY] {
                let fast = dtw_banded_early_abandon_scratch(&a, &b, rho, thr, &mut scratch);
                let slow = dtw_banded_early_abandon_scalar(&a, &b, rho, thr);
                assert_eq!(
                    fast.map(f64::to_bits),
                    slow.map(f64::to_bits),
                    "rho={rho} thr={thr}: {fast:?} vs {slow:?}"
                );
            }
        }
    }

    #[test]
    fn warm_scratch_never_allocates() {
        let a: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut scratch = KernelScratch::new();
        let _ = dtw_banded_early_abandon_scratch(&a, &b, 6, f64::INFINITY, &mut scratch);
        let warm = scratch.alloc_events();
        for rho in [0usize, 3, 6] {
            for _ in 0..20 {
                let _ = dtw_banded_early_abandon_scratch(&a, &b, rho, 1e6, &mut scratch);
            }
        }
        assert_eq!(scratch.alloc_events(), warm, "warm DTW must be allocation-free");
    }

    #[test]
    fn band_larger_than_series_is_clamped() {
        let a = [1.0, 2.0];
        let b = [2.0, 1.0];
        let d1 = dtw_banded(&a, &b, 1);
        let d_huge = dtw_banded(&a, &b, 1_000_000);
        assert!((d1 - d_huge).abs() < 1e-12);
    }
}
