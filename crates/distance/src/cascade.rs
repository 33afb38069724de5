//! The shared lower-bound cascade used by every DTW verification site.
//!
//! Candidate verification — whether a candidate came out of the KV-index
//! (phase 2 of Algorithm 1) or out of a sequential UCR-Suite scan — always
//! runs the same gauntlet in front of the full distance kernel:
//!
//! ```text
//! LB_Kim-FL  →  LB_Keogh (early-abandoning)  →  banded DTW (early-abandoning)
//!   O(1)            O(m)                          O(m·(2ρ+1))
//! ```
//!
//! Each stage is *admissible* (it never exceeds the true squared DTW
//! distance, so pruning never loses a match) and strictly more expensive
//! than the previous one. [`LbCascade`] packages the query, its Keogh
//! envelope and the band radius so call sites stop re-implementing the
//! chain, and [`CascadeStats`] records where each candidate died — the
//! per-stage pruning numbers `MatchStats` and EXPLAIN report.
//!
//! On stage ordering: `LB_Kim-FL` uses the *exact* first/last point costs
//! (every banded warping path must pay them), while `LB_Keogh` measures
//! against the envelope, which is wider at the endpoints for `ρ ≥ 1`. The
//! stages are therefore ordered by *cost*, not by containment; for `ρ = 0`
//! the containment chain `LB_Kim-FL ≤ LB_Keogh ≤ DTW²` is exact (the
//! property tests pin both facts down).
//!
//! For top-k and threshold queries the effective threshold tightens as
//! results accumulate; [`BestSoFar`] threads that shrinking bound through
//! the cascade so later candidates abandon earlier.
//!
//! # Adaptive stage demotion
//!
//! A lower bound only pays for itself while it prunes: on a workload where
//! (say) LB_Kim-FL rejects nothing, every candidate still pays its O(1) —
//! or LB_Keogh's O(m) — toll before reaching the kernel. When built with
//! an [`AdaptivePolicy`], a cascade measures each stage's observed pruning
//! rate over a sliding window of candidates and **demotes** (skips) a
//! stage whose rate falls below the policy's floor. Demotion is bounded:
//! after `probation` skipped candidates the stage is re-enabled and must
//! re-earn its keep over a fresh window, so a workload shift re-activates
//! it. Skipping an *admissible* bound can only let more candidates
//! through to the exact DTW kernel — returned distances are bit-identical
//! with the adaptive machinery on or off; only cost and
//! [`CascadeStats`] change (the property suite pins this down). The state
//! is shared across clones via relaxed atomics: workers race on window
//! boundaries, which at worst blurs a window edge, never correctness.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::dtw::dtw_banded_early_abandon_scratch;
use crate::envelope::keogh_envelope;
use crate::lower_bounds::{lb_keogh_sq_early_abandon, lb_kim_fl_sq};
use crate::scratch::KernelScratch;

/// Where candidates died along the cascade, plus how many survived to the
/// full kernel. The constraint counter is incremented by callers that run
/// an O(1) cNSM constraint pre-stage in front of the cascade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Candidates rejected by the cNSM constraints before the cascade.
    pub pruned_constraint: u64,
    /// Candidates rejected by LB_Kim-FL.
    pub pruned_lb_kim: u64,
    /// Candidates rejected by LB_Keogh.
    pub pruned_lb_keogh: u64,
    /// Candidates that reached the full distance kernel.
    pub full_distance_computations: u64,
    /// Candidates whose LB_Kim-FL stage was skipped by adaptive demotion.
    pub adaptive_skipped_lb_kim: u64,
    /// Candidates whose LB_Keogh stage was skipped by adaptive demotion.
    pub adaptive_skipped_lb_keogh: u64,
    /// Wall time spent inside LB_Kim-FL, nanoseconds. Zero unless the
    /// cascade runs timed ([`LbCascade::set_timed`]).
    pub lb_kim_nanos: u64,
    /// Wall time spent inside LB_Keogh, nanoseconds (timed cascades only).
    pub lb_keogh_nanos: u64,
    /// Wall time spent inside the exact kernel, nanoseconds (timed
    /// cascades only).
    pub dtw_nanos: u64,
}

impl CascadeStats {
    /// Accumulates `other` into `self` (worker-pool merging).
    pub fn merge(&mut self, other: &CascadeStats) {
        self.pruned_constraint += other.pruned_constraint;
        self.pruned_lb_kim += other.pruned_lb_kim;
        self.pruned_lb_keogh += other.pruned_lb_keogh;
        self.full_distance_computations += other.full_distance_computations;
        self.adaptive_skipped_lb_kim += other.adaptive_skipped_lb_kim;
        self.adaptive_skipped_lb_keogh += other.adaptive_skipped_lb_keogh;
        self.lb_kim_nanos += other.lb_kim_nanos;
        self.lb_keogh_nanos += other.lb_keogh_nanos;
        self.dtw_nanos += other.dtw_nanos;
    }

    /// Total candidates pruned before the full kernel.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_constraint + self.pruned_lb_kim + self.pruned_lb_keogh
    }
}

/// Tuning knobs of adaptive cascade stage demotion. See the module docs
/// for the state machine; `Default` is a conservative setting (5% floor
/// over 256-candidate windows, 2048-candidate probation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptivePolicy {
    /// Candidates measured per decision window (clamped to ≥ 1 in use).
    pub window: u32,
    /// A stage whose pruning rate over a completed window falls below
    /// this fraction is demoted.
    pub min_prune_rate: f64,
    /// Candidates a demoted stage skips before re-probation re-enables it.
    pub probation: u32,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self { window: 256, min_prune_rate: 0.05, probation: 2048 }
    }
}

/// One stage's demotion gate: measuring (`skip_left == 0`, counting seen /
/// pruned toward the current window) or demoted (`skip_left > 0`,
/// draining toward re-probation). All counters are relaxed atomics — the
/// gate is shared across worker threads through the cascade's `Arc`.
#[derive(Debug, Default)]
struct StageGate {
    seen: AtomicU64,
    pruned: AtomicU64,
    skip_left: AtomicU64,
}

impl StageGate {
    /// Consumes one skip token if the stage is demoted. The token that
    /// reaches zero ends the probation: the next candidate runs the stage
    /// again on a fresh window.
    fn try_skip(&self) -> bool {
        self.skip_left.fetch_update(Relaxed, Relaxed, |v| v.checked_sub(1)).is_ok()
    }

    /// Records one measured stage outcome; on a window boundary decides
    /// whether to demote.
    fn record(&self, pruned: bool, policy: &AdaptivePolicy) {
        if pruned {
            self.pruned.fetch_add(1, Relaxed);
        }
        let seen = self.seen.fetch_add(1, Relaxed) + 1;
        let window = u64::from(policy.window.max(1));
        if seen >= window {
            // Close the window. Racing workers may split one window into
            // slightly uneven pieces; the decision stays rate-based.
            let pruned_w = self.pruned.swap(0, Relaxed);
            self.seen.store(0, Relaxed);
            if (pruned_w as f64) < policy.min_prune_rate * (seen as f64) {
                self.skip_left.store(u64::from(policy.probation), Relaxed);
            }
        }
    }
}

/// Shared adaptive state of one cascade instance (and all its clones).
#[derive(Debug)]
struct AdaptiveState {
    policy: AdaptivePolicy,
    kim: StageGate,
    keogh: StageGate,
}

/// A query prepared for cascaded DTW verification: the query itself, its
/// Keogh envelope and the Sakoe–Chiba band radius.
///
/// Both the batched executor / KV-matcher (normalized or raw domain) and
/// the UCR-Suite baseline verify through this one type.
///
/// Clones share the adaptive demotion state (when enabled): the executor's
/// workers verify through `&self`, so one instance's pruning-rate windows
/// aggregate observations from every thread.
#[derive(Clone, Debug)]
pub struct LbCascade {
    query: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rho: usize,
    adaptive: Option<Arc<AdaptiveState>>,
    /// When set, each stage's wall time is accumulated into the
    /// `*_nanos` fields of [`CascadeStats`] (one branch per stage when
    /// off). Timing never changes verdicts or distances.
    timed: bool,
}

impl LbCascade {
    /// Prepares the cascade: computes the Keogh envelope of `query` for
    /// band radius `rho`. Adaptive demotion is off (the fixed stage
    /// order); see [`LbCascade::set_adaptive`].
    pub fn new(query: Vec<f64>, rho: usize) -> Self {
        let (lower, upper) = keogh_envelope(&query, rho);
        Self { query, lower, upper, rho, adaptive: None, timed: false }
    }

    /// Enables or disables per-stage wall-time accounting (the EXPLAIN
    /// path). Off by default; when off, the only overhead is one branch
    /// per stage.
    pub fn set_timed(&mut self, timed: bool) {
        self.timed = timed;
    }

    /// Whether per-stage wall-time accounting is on.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Enables (`Some`) or disables (`None`) adaptive stage demotion,
    /// resetting any accumulated gate state.
    pub fn set_adaptive(&mut self, policy: Option<AdaptivePolicy>) {
        self.adaptive = policy.map(|policy| {
            Arc::new(AdaptiveState {
                policy,
                kim: StageGate::default(),
                keogh: StageGate::default(),
            })
        });
    }

    /// Whether adaptive stage demotion is enabled.
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive.is_some()
    }

    /// The query sequence.
    pub fn query(&self) -> &[f64] {
        &self.query
    }

    /// Lower Keogh envelope `L`.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper Keogh envelope `U`.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// The band radius ρ.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// Stage 1 alone: returns `true` (and counts the prune) when LB_Kim-FL
    /// already exceeds `threshold_sq`. Callers that interleave their own
    /// cheap stages (e.g. FAST's PAA bound) run this first and finish with
    /// [`LbCascade::verify_skip_kim`]. Always runs the stage — adaptive
    /// demotion applies only inside [`LbCascade::verify`], where the
    /// cascade owns the stage order.
    #[inline]
    pub fn prune_kim(&self, s: &[f64], threshold_sq: f64, stats: &mut CascadeStats) -> bool {
        if lb_kim_fl_sq(s, &self.query) > threshold_sq {
            stats.pruned_lb_kim += 1;
            true
        } else {
            false
        }
    }

    /// The full cascade: LB_Kim-FL → LB_Keogh → banded DTW, all against the
    /// squared threshold. Returns `Some(dtw²)` iff the candidate qualifies.
    #[inline]
    pub fn verify(
        &self,
        s: &[f64],
        threshold_sq: f64,
        scratch: &mut KernelScratch,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        let t = self.timed.then(Instant::now);
        let kim_pruned = if let Some(ad) = &self.adaptive {
            if ad.kim.try_skip() {
                stats.adaptive_skipped_lb_kim += 1;
                false
            } else {
                let pruned = lb_kim_fl_sq(s, &self.query) > threshold_sq;
                ad.kim.record(pruned, &ad.policy);
                if pruned {
                    stats.pruned_lb_kim += 1;
                }
                pruned
            }
        } else {
            self.prune_kim(s, threshold_sq, stats)
        };
        if let Some(t) = t {
            stats.lb_kim_nanos += t.elapsed().as_nanos() as u64;
        }
        if kim_pruned {
            return None;
        }
        self.verify_skip_kim(s, threshold_sq, scratch, stats)
    }

    /// Stages 2–3 only (LB_Keogh → banded DTW), for callers that already
    /// ran an equivalent of stage 1.
    #[inline]
    pub fn verify_skip_kim(
        &self,
        s: &[f64],
        threshold_sq: f64,
        scratch: &mut KernelScratch,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        let run_keogh = match &self.adaptive {
            Some(ad) if ad.keogh.try_skip() => {
                stats.adaptive_skipped_lb_keogh += 1;
                false
            }
            _ => true,
        };
        if run_keogh {
            let t = self.timed.then(Instant::now);
            let pruned =
                lb_keogh_sq_early_abandon(s, &self.lower, &self.upper, threshold_sq).is_none();
            if let Some(ad) = &self.adaptive {
                ad.keogh.record(pruned, &ad.policy);
            }
            if let Some(t) = t {
                stats.lb_keogh_nanos += t.elapsed().as_nanos() as u64;
            }
            if pruned {
                stats.pruned_lb_keogh += 1;
                return None;
            }
        }
        stats.full_distance_computations += 1;
        let t = self.timed.then(Instant::now);
        let out = dtw_banded_early_abandon_scratch(s, &self.query, self.rho, threshold_sq, scratch);
        if let Some(t) = t {
            stats.dtw_nanos += t.elapsed().as_nanos() as u64;
        }
        out
    }

    /// Top-k verification: runs the cascade against `best.threshold_sq()`
    /// (which shrinks as results accumulate) and offers any qualifying
    /// distance to `best`. Returns `Some(dtw²)` iff the candidate entered
    /// the current top-k.
    #[inline]
    pub fn verify_topk(
        &self,
        s: &[f64],
        best: &mut BestSoFar,
        scratch: &mut KernelScratch,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        let d_sq = self.verify(s, best.threshold_sq(), scratch, stats)?;
        best.offer(d_sq).then_some(d_sq)
    }
}

/// Best-so-far threshold threading for top-k (and plain threshold)
/// queries.
///
/// Holds the `k` smallest squared distances seen so far, never exceeding
/// `ceiling_sq` (the ε² of a threshold query, or `f64::INFINITY` for pure
/// top-k). [`BestSoFar::threshold_sq`] is the effective cascade threshold:
/// the ceiling until `k` results exist, then the current k-th best — so
/// every later candidate is verified against the tightest provable bound.
#[derive(Clone, Debug)]
pub struct BestSoFar {
    k: usize,
    ceiling_sq: f64,
    /// Max-heap (by `total_cmp`) of the kept squared distances, |heap| ≤ k.
    heap: std::collections::BinaryHeap<TotalF64>,
}

/// `f64` ordered by `total_cmp` so it can live in a heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl BestSoFar {
    /// A tracker keeping the `k` best squared distances at or below
    /// `ceiling_sq`.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize, ceiling_sq: f64) -> Self {
        assert!(k > 0, "top-k with k = 0");
        Self { k, ceiling_sq, heap: std::collections::BinaryHeap::new() }
    }

    /// The current effective squared threshold.
    pub fn threshold_sq(&self) -> f64 {
        if self.heap.len() < self.k {
            self.ceiling_sq
        } else {
            let worst = self.heap.peek().expect("k > 0 and heap full").0;
            worst.min(self.ceiling_sq)
        }
    }

    /// Offers a squared distance; keeps it iff it beats the current
    /// threshold, evicting the worst kept entry when full. Returns whether
    /// the entry was kept.
    pub fn offer(&mut self, d_sq: f64) -> bool {
        if d_sq > self.threshold_sq() {
            return false;
        }
        self.heap.push(TotalF64(d_sq));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        true
    }

    /// Number of results currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing qualified yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept squared distances, ascending.
    pub fn kept_sq(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.heap.iter().map(|t| t.0).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw_banded;
    use crate::lower_bounds::lb_keogh_sq;

    fn pseudo(n: usize, a: u64, b: u64) -> Vec<f64> {
        (0..n).map(|i| (((i as u64 * a + b) % 97) as f64) * 0.21 - 10.0).collect()
    }

    #[test]
    fn verify_matches_exact_dtw() {
        let mut scratch = KernelScratch::new();
        for seed in 0..6u64 {
            let q = pseudo(64, 17 + seed, 3);
            let s = pseudo(64, 31 + seed, 7);
            for rho in [0usize, 3, 9] {
                let cascade = LbCascade::new(q.clone(), rho);
                let exact = dtw_banded(&s, &q, rho);
                let mut stats = CascadeStats::default();
                // Loose threshold: must accept with the exact value.
                let got = cascade.verify(&s, exact * exact + 1e-9, &mut scratch, &mut stats);
                assert!(got.is_some(), "rho={rho} seed={seed}");
                assert!((got.unwrap().sqrt() - exact).abs() < 1e-9);
                // Tight threshold: must prune at some stage.
                let mut stats = CascadeStats::default();
                if exact > 0.0 {
                    let out = cascade.verify(&s, exact * exact * 0.5, &mut scratch, &mut stats);
                    assert!(out.is_none());
                    assert!(stats.pruned_total() + stats.full_distance_computations >= 1);
                }
            }
        }
    }

    #[test]
    fn skip_kim_equals_full_when_kim_passes() {
        let q = pseudo(48, 13, 5);
        let s = pseudo(48, 19, 11);
        let cascade = LbCascade::new(q.clone(), 4);
        let thr = 1e9;
        let mut scratch = KernelScratch::new();
        let mut a = CascadeStats::default();
        let mut b = CascadeStats::default();
        assert!(!cascade.prune_kim(&s, thr, &mut a));
        assert_eq!(
            cascade.verify(&s, thr, &mut scratch, &mut a),
            cascade.verify_skip_kim(&s, thr, &mut scratch, &mut b)
        );
    }

    #[test]
    fn stats_attribute_each_stage() {
        let q = vec![0.0; 32];
        let cascade = LbCascade::new(q, 2);
        let mut scratch = KernelScratch::new();
        // Endpoint spike → killed by LB_Kim-FL.
        let mut s = vec![0.0; 32];
        s[0] = 100.0;
        let mut stats = CascadeStats::default();
        assert!(cascade.verify(&s, 1.0, &mut scratch, &mut stats).is_none());
        assert_eq!(stats.pruned_lb_kim, 1);
        // Mid-sequence spike (outside any warped endpoint) → LB_Keogh.
        let mut s = vec![0.0; 32];
        s[16] = 100.0;
        let mut stats = CascadeStats::default();
        assert!(cascade.verify(&s, 1.0, &mut scratch, &mut stats).is_none());
        assert_eq!(stats.pruned_lb_keogh, 1);
        assert_eq!(stats.pruned_lb_kim, 0);
        // Identical sequence → survives to the kernel and qualifies.
        let s = vec![0.0; 32];
        let mut stats = CascadeStats::default();
        assert_eq!(cascade.verify(&s, 1.0, &mut scratch, &mut stats), Some(0.0));
        assert_eq!(stats.full_distance_computations, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CascadeStats {
            pruned_constraint: 1,
            pruned_lb_kim: 2,
            pruned_lb_keogh: 3,
            full_distance_computations: 4,
            adaptive_skipped_lb_kim: 5,
            adaptive_skipped_lb_keogh: 6,
            lb_kim_nanos: 7,
            lb_keogh_nanos: 8,
            dtw_nanos: 9,
        };
        a.merge(&a.clone());
        assert_eq!(a.pruned_total(), 12);
        assert_eq!(a.full_distance_computations, 8);
        assert_eq!(a.adaptive_skipped_lb_kim, 10);
        assert_eq!(a.adaptive_skipped_lb_keogh, 12);
        assert_eq!(a.lb_kim_nanos, 14);
        assert_eq!(a.lb_keogh_nanos, 16);
        assert_eq!(a.dtw_nanos, 18);
    }

    #[test]
    fn timed_cascade_is_result_identical_and_fills_stage_nanos() {
        let q = pseudo(48, 13, 5);
        let plain = LbCascade::new(q.clone(), 4);
        let mut timed = LbCascade::new(q.clone(), 4);
        timed.set_timed(true);
        assert!(timed.timed());
        let mut scratch = KernelScratch::new();
        let mut kernel_hits = 0u64;
        for seed in 0..12u64 {
            let s = pseudo(48, 19 + seed, 11);
            for thr in [1e9, 500.0, 50.0] {
                let mut tp = CascadeStats::default();
                let mut pp = CascadeStats::default();
                let t = timed.verify(&s, thr, &mut scratch, &mut tp);
                let p = plain.verify(&s, thr, &mut scratch, &mut pp);
                assert_eq!(t.map(f64::to_bits), p.map(f64::to_bits));
                // Untimed cascades never touch the nanos fields.
                assert_eq!(pp.lb_kim_nanos + pp.lb_keogh_nanos + pp.dtw_nanos, 0);
                // Timing never changes the counter accounting.
                assert_eq!(
                    (tp.pruned_lb_kim, tp.pruned_lb_keogh),
                    (pp.pruned_lb_kim, pp.pruned_lb_keogh)
                );
                kernel_hits += tp.full_distance_computations;
                if tp.full_distance_computations > 0 {
                    // Kim always ran; every stage that ran was clocked (a
                    // fast stage may legitimately round to 0 ns, so only
                    // the invariant "untimed stays zero" is strict).
                    let _ = tp.lb_kim_nanos;
                }
            }
        }
        assert!(kernel_hits > 0, "workload never reached the kernel");
    }

    #[test]
    fn keogh_prune_is_sound_against_kernel() {
        // Whenever the cascade prunes at Keogh, the true DTW must exceed
        // the threshold (spot check; the property tests sweep this).
        let mut scratch = KernelScratch::new();
        for seed in 0..8u64 {
            let q = pseudo(40, 23 + seed, 9);
            let s = pseudo(40, 29 + seed, 1);
            let cascade = LbCascade::new(q.clone(), 3);
            let (l, u) = keogh_envelope(&q, 3);
            let keogh = lb_keogh_sq(&s, &l, &u);
            if keogh > 0.0 {
                let thr = keogh * 0.9;
                let mut stats = CascadeStats::default();
                if cascade.verify(&s, thr, &mut scratch, &mut stats).is_none() {
                    let exact = dtw_banded(&s, &q, 3);
                    assert!(exact * exact > thr - 1e-9);
                }
            }
        }
    }

    #[test]
    fn adaptive_demotes_useless_stage_and_reprobates() {
        // A cascade whose query equals every candidate: no stage ever
        // prunes, so both gates demote after one window, skip for exactly
        // `probation` candidates, then measure a fresh window.
        let q = pseudo(32, 7, 1);
        let mut cascade = LbCascade::new(q.clone(), 2);
        let policy = AdaptivePolicy { window: 8, min_prune_rate: 0.05, probation: 16 };
        cascade.set_adaptive(Some(policy));
        assert!(cascade.adaptive_enabled());
        let mut scratch = KernelScratch::new();
        let mut stats = CascadeStats::default();
        // Window 1: measured (no skips yet), zero prunes → demote.
        for _ in 0..8 {
            assert!(cascade.verify(&q, 1e9, &mut scratch, &mut stats).is_some());
        }
        assert_eq!(stats.adaptive_skipped_lb_kim, 0);
        assert_eq!(stats.adaptive_skipped_lb_keogh, 0);
        // Probation: the next 16 candidates skip both stages.
        for _ in 0..16 {
            assert!(cascade.verify(&q, 1e9, &mut scratch, &mut stats).is_some());
        }
        assert_eq!(stats.adaptive_skipped_lb_kim, 16);
        assert_eq!(stats.adaptive_skipped_lb_keogh, 16);
        // Re-probation: stages measure again (no further skips until the
        // next window closes).
        for _ in 0..7 {
            assert!(cascade.verify(&q, 1e9, &mut scratch, &mut stats).is_some());
        }
        assert_eq!(stats.adaptive_skipped_lb_kim, 16);
        assert_eq!(stats.adaptive_skipped_lb_keogh, 16);
        assert_eq!(stats.full_distance_computations, 8 + 16 + 7);
    }

    #[test]
    fn adaptive_keeps_pruning_stage_active() {
        // Every candidate dies at LB_Kim-FL: a 100% pruning rate never
        // demotes, so no skips accumulate.
        let q = vec![0.0; 32];
        let mut cascade = LbCascade::new(q, 2);
        cascade.set_adaptive(Some(AdaptivePolicy {
            window: 4,
            min_prune_rate: 0.05,
            probation: 32,
        }));
        let mut s = vec![0.0; 32];
        s[0] = 100.0;
        let mut scratch = KernelScratch::new();
        let mut stats = CascadeStats::default();
        for _ in 0..32 {
            assert!(cascade.verify(&s, 1.0, &mut scratch, &mut stats).is_none());
        }
        assert_eq!(stats.pruned_lb_kim, 32);
        assert_eq!(stats.adaptive_skipped_lb_kim, 0);
    }

    #[test]
    fn adaptive_distances_bit_identical_to_plain() {
        // Skipping admissible bounds can only route more candidates to the
        // exact kernel — every returned distance must match the plain
        // cascade bit for bit.
        let q = pseudo(48, 13, 5);
        let plain = LbCascade::new(q.clone(), 4);
        let mut adaptive = LbCascade::new(q.clone(), 4);
        adaptive.set_adaptive(Some(AdaptivePolicy {
            window: 4,
            min_prune_rate: 0.9, // absurd floor: demote as often as possible
            probation: 8,
        }));
        let mut scratch = KernelScratch::new();
        for seed in 0..40u64 {
            let s = pseudo(48, 19 + seed, 11);
            for thr in [1e9, 500.0, 50.0] {
                let mut ap = CascadeStats::default();
                let mut pp = CascadeStats::default();
                let a = adaptive.verify(&s, thr, &mut scratch, &mut ap);
                let p = plain.verify(&s, thr, &mut scratch, &mut pp);
                match (a, p) {
                    (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (None, None) => {}
                    // A skipped bound may push the decision down to the
                    // kernel, but the accept/reject verdict is identical
                    // because every stage is admissible.
                    (a, p) => panic!("adaptive {a:?} vs plain {p:?} (seed={seed}, thr={thr})"),
                }
            }
        }
    }

    #[test]
    fn clones_share_adaptive_state() {
        let q = pseudo(32, 7, 1);
        let mut cascade = LbCascade::new(q.clone(), 2);
        cascade.set_adaptive(Some(AdaptivePolicy {
            window: 8,
            min_prune_rate: 0.05,
            probation: 16,
        }));
        let clone = cascade.clone();
        let mut scratch = KernelScratch::new();
        let mut stats = CascadeStats::default();
        // Drive the shared gates to demotion through the original...
        for _ in 0..8 {
            cascade.verify(&q, 1e9, &mut scratch, &mut stats).unwrap();
        }
        // ...and observe the skip through the clone.
        let mut stats = CascadeStats::default();
        clone.verify(&q, 1e9, &mut scratch, &mut stats).unwrap();
        assert_eq!(stats.adaptive_skipped_lb_kim, 1);
        assert_eq!(stats.adaptive_skipped_lb_keogh, 1);
    }

    #[test]
    fn best_so_far_tightens_threshold() {
        let mut best = BestSoFar::new(2, 100.0);
        assert_eq!(best.threshold_sq(), 100.0);
        assert!(best.offer(50.0));
        assert_eq!(best.threshold_sq(), 100.0, "ceiling until k results exist");
        assert!(best.offer(10.0));
        assert_eq!(best.threshold_sq(), 50.0, "k-th best once full");
        assert!(!best.offer(70.0), "worse than the k-th best is rejected");
        assert!(best.offer(5.0));
        assert_eq!(best.kept_sq(), vec![5.0, 10.0]);
        assert_eq!(best.threshold_sq(), 10.0);
        assert_eq!(best.len(), 2);
    }

    #[test]
    fn best_so_far_respects_ceiling() {
        let mut best = BestSoFar::new(8, 4.0);
        assert!(!best.offer(4.1), "above the ε² ceiling even when not full");
        assert!(best.offer(4.0));
        assert!(!best.is_empty());
    }

    #[test]
    fn verify_topk_keeps_k_best() {
        let q = pseudo(32, 11, 3);
        let cascade = LbCascade::new(q.clone(), 2);
        // Candidates at increasing distance from q.
        let candidates: Vec<Vec<f64>> =
            (0..6).map(|j| q.iter().map(|v| v + j as f64 * 0.5).collect::<Vec<f64>>()).collect();
        let mut best = BestSoFar::new(3, f64::INFINITY);
        let mut scratch = KernelScratch::new();
        let mut stats = CascadeStats::default();
        let mut accepted = 0;
        for c in &candidates {
            if cascade.verify_topk(c, &mut best, &mut scratch, &mut stats).is_some() {
                accepted += 1;
            }
        }
        assert!(accepted >= 3);
        let kept = best.kept_sq();
        assert_eq!(kept.len(), 3);
        // The kept set is exactly the three nearest candidates.
        let mut all: Vec<f64> = candidates.iter().map(|c| dtw_banded(c, &q, 2).powi(2)).collect();
        all.sort_by(f64::total_cmp);
        for (a, b) in kept.iter().zip(&all[..3]) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "k = 0")]
    fn zero_k_rejected() {
        BestSoFar::new(0, 1.0);
    }
}
