//! KV-match — Algorithm 1 of the paper.
//!
//! Phase 1 (index probing): for each disjoint query window `Q_i`, compute
//! the lemma range `[LR_i, UR_i]`, scan the index once, union the returned
//! interval sets into `IS_i`, left-shift by `i·w` into `CS_i`, and
//! intersect into the running candidate set `CS`.
//!
//! Phase 2 (post-processing): fetch `X(WI.l, WI.r − WI.l + |Q|)` for every
//! candidate interval and verify each of its `|WI|` subsequences with the
//! appropriate distance kernel, guarded by the same cascading lower bounds
//! UCR Suite uses (so the head-to-head comparison is fair).

use std::ops::Range;
use std::time::Instant;

use parking_lot::Mutex;

use kvmatch_distance::cascade::{AdaptivePolicy, BestSoFar, CascadeStats, LbCascade};
use kvmatch_distance::ed::{abandon_order, ed_early_abandon, ed_norm_early_abandon_ordered};
use kvmatch_distance::lp::{lp_norm_pow_early_abandon, lp_pow_early_abandon};
use kvmatch_distance::normalize::{mean_std, z_normalize};
use kvmatch_distance::scratch::KernelScratch;
use kvmatch_distance::LpExponent;
use kvmatch_storage::{KvStore, SeriesStore};
use kvmatch_timeseries::PrefixStats;

use crate::cache::RowCache;
use crate::index::KvIndex;
use crate::interval::{IntervalSet, WindowInterval};
use crate::query::Measure;
use crate::query::{select_top_k, Constraint, CoreError, MatchResult, MatchStats, QuerySpec};
use crate::ranges::{
    cnsm_dtw_range, cnsm_ed_range, cnsm_lp_range, rsm_dtw_range, rsm_ed_range, rsm_lp_range,
    MeanRange,
};

/// A query pre-processed for matching: global statistics, normalized form,
/// verification cascades and envelope prefix statistics. Shared by the
/// basic matcher, KV-match_DP and the batched [`QueryExecutor`].
///
/// [`QueryExecutor`]: crate::exec::QueryExecutor
pub struct PreparedQuery {
    /// The original specification.
    pub spec: QuerySpec,
    /// `|Q|`.
    pub m: usize,
    /// Global query mean `µ^Q`.
    pub mu_q: f64,
    /// Global query std `σ^Q`.
    pub sigma_q: f64,
    q_stats: PrefixStats,
    /// Raw-domain cascade (DTW only) plus its envelope prefix statistics
    /// (the latter feed the Lemma-2/4 window ranges).
    cascade: Option<CascadeData>,
    /// Normalized query (cNSM only).
    q_norm: Vec<f64>,
    /// Early-abandon coordinate order over `q_norm` (cNSM-ED).
    order: Vec<usize>,
    /// Normalized-domain cascade (cNSM-DTW verification).
    cascade_norm: Option<LbCascade>,
}

struct CascadeData {
    cascade: LbCascade,
    l_stats: PrefixStats,
    u_stats: PrefixStats,
}

impl PreparedQuery {
    /// Validates and pre-processes a query.
    pub fn new(spec: QuerySpec) -> Result<Self, CoreError> {
        spec.validate()?;
        let m = spec.query.len();
        let (mu_q, sigma_q) = mean_std(&spec.query);
        let q_stats = PrefixStats::new(&spec.query);
        let cascade = if spec.measure.is_dtw() {
            let mut cascade = LbCascade::new(spec.query.clone(), spec.measure.rho());
            cascade.set_timed(spec.explain);
            let l_stats = PrefixStats::new(cascade.lower());
            let u_stats = PrefixStats::new(cascade.upper());
            Some(CascadeData { cascade, l_stats, u_stats })
        } else {
            None
        };
        let (q_norm, order, cascade_norm) = if spec.is_normalized() {
            // (µ, σ) are already in hand — clone and normalize in place
            // instead of paying z_normalized's duplicate statistics pass.
            let mut q_norm = spec.query.clone();
            z_normalize(&mut q_norm, mu_q, sigma_q);
            let order = abandon_order(&q_norm);
            let cascade_norm = spec.measure.is_dtw().then(|| {
                let mut c = LbCascade::new(q_norm.clone(), spec.measure.rho());
                c.set_timed(spec.explain);
                c
            });
            (q_norm, order, cascade_norm)
        } else {
            (Vec::new(), Vec::new(), None)
        };
        Ok(Self { spec, m, mu_q, sigma_q, q_stats, cascade, q_norm, order, cascade_norm })
    }

    /// Enables (`Some`) or disables (`None`) adaptive cascade stage
    /// demotion on every DTW cascade this query owns (raw and normalized
    /// domain). Adaptive demotion never changes returned distances — only
    /// which admissible lower bounds get evaluated. No-op for non-DTW
    /// measures.
    pub fn set_adaptive(&mut self, policy: Option<AdaptivePolicy>) {
        if let Some(data) = &mut self.cascade {
            data.cascade.set_adaptive(policy);
        }
        if let Some(cascade) = &mut self.cascade_norm {
            cascade.set_adaptive(policy);
        }
    }

    /// The lemma range `[LR, UR]` for the query window `Q(offset, w)`.
    ///
    /// Dispatches to Lemma 1/2/3/4 according to the query type. Window
    /// widths other than a fixed `w` are allowed — the lemmas hold per
    /// window (the property KV-match_DP exploits, §VI-A).
    pub fn window_range(&self, offset: usize, w: usize) -> MeanRange {
        let eps = self.spec.epsilon;
        match (&self.spec.constraint, &self.cascade) {
            (None, None) => match self.spec.measure {
                Measure::Lp { p } => rsm_lp_range(self.q_stats.range_mean(offset, w), eps, w, p),
                _ => rsm_ed_range(self.q_stats.range_mean(offset, w), eps, w),
            },
            (None, Some(env)) => rsm_dtw_range(
                env.l_stats.range_mean(offset, w),
                env.u_stats.range_mean(offset, w),
                eps,
                w,
            ),
            (Some(c), None) => match self.spec.measure {
                Measure::Lp { p } => cnsm_lp_range(
                    self.q_stats.range_mean(offset, w),
                    self.mu_q,
                    self.sigma_q,
                    eps,
                    c.alpha,
                    c.beta,
                    w,
                    p,
                ),
                _ => cnsm_ed_range(
                    self.q_stats.range_mean(offset, w),
                    self.mu_q,
                    self.sigma_q,
                    eps,
                    c.alpha,
                    c.beta,
                    w,
                ),
            },
            (Some(c), Some(env)) => cnsm_dtw_range(
                env.l_stats.range_mean(offset, w),
                env.u_stats.range_mean(offset, w),
                self.mu_q,
                self.sigma_q,
                eps,
                c.alpha,
                c.beta,
                w,
            ),
        }
    }

    #[inline]
    fn constraint_ok(&self, c: &Constraint, mu_s: f64, sigma_s: f64) -> bool {
        (mu_s - self.mu_q).abs() <= c.beta
            && sigma_s >= self.sigma_q / c.alpha
            && sigma_s <= self.sigma_q * c.alpha
    }

    /// The query's comparison-domain bound: distances are compared (and
    /// early-abandoned) in squared space for ED/DTW and in p-th-power
    /// space for Lp, so this is `ε²` or `pow_p(ε)` respectively. Top-k
    /// verification starts from this ceiling and tightens it as results
    /// accumulate ([`BestSoFar`]).
    pub fn threshold_ceiling(&self) -> f64 {
        match self.spec.measure {
            Measure::Lp { p } => p.pow(self.spec.epsilon),
            _ => self.spec.epsilon * self.spec.epsilon,
        }
    }

    /// Maps a comparison-domain value back to the reported distance —
    /// `sqrt` for ED/DTW, the p-th root for Lp.
    pub fn distance_of(&self, comparison: f64) -> f64 {
        match self.spec.measure {
            Measure::Lp { p } => p.root(comparison),
            _ => comparison.sqrt(),
        }
    }

    /// Verifies one candidate subsequence `s` (with its statistics) against
    /// the query; returns the achieved distance when it qualifies. DTW
    /// candidates run the shared [`LbCascade`]; every stage outcome is
    /// recorded in `stats`.
    pub fn verify(
        &self,
        s: &[f64],
        mu_s: f64,
        sigma_s: f64,
        scratch: &mut KernelScratch,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        self.verify_within(s, mu_s, sigma_s, self.threshold_ceiling(), scratch, stats)
            .map(|raw| self.distance_of(raw))
    }

    /// [`PreparedQuery::verify`] against an explicit comparison-domain
    /// bound instead of the spec's ε — the top-k path, where the bound is
    /// the best-so-far threshold (≤ the ceiling, shrinking as results
    /// accumulate). Returns the qualifying value **in the comparison
    /// domain** (the kernel's native squared / p-th-power accumulator):
    /// top-k thresholding must stay in that domain end-to-end, because
    /// rooting and re-squaring can round a threshold *below* the exact
    /// value it came from and wrongly abandon tied candidates. Any
    /// returned value is exact (early abandoning only ever rejects), so a
    /// candidate inside the final top-k produces the same bits no matter
    /// how tight the bound was when it ran.
    pub fn verify_within(
        &self,
        s: &[f64],
        mu_s: f64,
        sigma_s: f64,
        bound: f64,
        scratch: &mut KernelScratch,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        if let Measure::Lp { p } = self.spec.measure {
            return self.verify_lp(s, mu_s, sigma_s, p, bound, stats);
        }
        match (&self.spec.constraint, self.spec.measure.is_dtw()) {
            (None, false) => {
                stats.full_distance_computations += 1;
                ed_early_abandon(s, &self.spec.query, bound)
            }
            (None, true) => {
                let cascade = &self.cascade.as_ref().expect("RSM-DTW has a cascade").cascade;
                cascade.verify(s, bound, scratch, stats)
            }
            (Some(c), false) => {
                if !self.constraint_ok(c, mu_s, sigma_s) {
                    stats.pruned_constraint += 1;
                    return None;
                }
                stats.full_distance_computations += 1;
                ed_norm_early_abandon_ordered(s, &self.q_norm, &self.order, mu_s, sigma_s, bound)
            }
            (Some(c), true) => {
                if !self.constraint_ok(c, mu_s, sigma_s) {
                    stats.pruned_constraint += 1;
                    return None;
                }
                // Materialize Ŝ once in the scratch's norm buffer, reuse
                // it for every cascade stage. `take_norm` detaches the
                // buffer so the cascade can borrow the scratch's DP rows
                // alongside it; `restore_norm` hands the capacity back.
                let mut s_norm = scratch.take_norm(s);
                z_normalize(&mut s_norm, mu_s, sigma_s);
                let cascade = self.cascade_norm.as_ref().expect("cNSM-DTW has a cascade");
                let out = cascade.verify(&s_norm, bound, scratch, stats);
                scratch.restore_norm(s_norm);
                out
            }
        }
    }

    /// Lp verification (RSM-Lp / cNSM-Lp), in the p-th-power domain.
    fn verify_lp(
        &self,
        s: &[f64],
        mu_s: f64,
        sigma_s: f64,
        p: LpExponent,
        bound_pow: f64,
        stats: &mut CascadeStats,
    ) -> Option<f64> {
        match &self.spec.constraint {
            None => {
                stats.full_distance_computations += 1;
                lp_pow_early_abandon(s, &self.spec.query, p, bound_pow)
            }
            Some(c) => {
                if !self.constraint_ok(c, mu_s, sigma_s) {
                    stats.pruned_constraint += 1;
                    return None;
                }
                stats.full_distance_computations += 1;
                lp_norm_pow_early_abandon(s, &self.q_norm, mu_s, sigma_s, p, bound_pow)
            }
        }
    }

    /// A best-so-far tracker for this query's top-k execution, or `None`
    /// for plain range queries. The tracker lives behind a mutex so
    /// parallel verification workers tighten one shared threshold.
    pub(crate) fn best_so_far(&self) -> Option<Mutex<BestSoFar>> {
        self.spec.limit.map(|k| Mutex::new(BestSoFar::new(k, self.threshold_ceiling())))
    }
}

/// One candidate interval's data, fetched once: the block
/// `X(WI.l, |WI| − 1 + |Q|)` every candidate of the interval reads, plus
/// (cNSM only) the block's prefix statistics. Those prefix sums are the
/// anchor every candidate's µ/σ is computed from, so verifying the block
/// in ranges reproduces verifying it whole bit for bit.
pub(crate) struct FetchedInterval {
    left: usize,
    count: usize,
    buf: Vec<f64>,
    ps: Option<PrefixStats>,
}

impl FetchedInterval {
    /// Phase 2, step 1: one [`SeriesStore::fetch`] (and, for cNSM, one
    /// [`PrefixStats`]) for candidate interval `wi`.
    pub(crate) fn fetch<D: SeriesStore>(
        data: &D,
        prep: &PreparedQuery,
        wi: WindowInterval,
    ) -> Result<Self, CoreError> {
        let left = wi.left as usize;
        let count = wi.size() as usize;
        let buf = data.fetch(left, count - 1 + prep.m)?;
        let ps = prep.spec.is_normalized().then(|| PrefixStats::new(&buf));
        Ok(Self { left, count, buf, ps })
    }

    /// Candidates in the interval; `k < candidates()` names the
    /// subsequence starting at `WI.l + k`.
    pub(crate) fn candidates(&self) -> usize {
        self.count
    }

    /// Data points the fetch read.
    pub(crate) fn points(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// Everything phase 2 produced for one range of a fetched interval.
pub(crate) struct RangeVerification {
    /// Qualified subsequences, in offset order. For top-k queries the
    /// `distance` field holds the **comparison-domain** value (squared /
    /// p-th-power) until the final [`select_top_k`] +
    /// [`finish_topk_distances`] pass — selection and thresholding must
    /// share the kernels' exact domain, so rooting happens only at the
    /// very end.
    pub results: Vec<MatchResult>,
    /// Per-cascade-stage pruning counts.
    pub cascade: CascadeStats,
    /// Kernel scratch buffer growths this range forced (0 once the
    /// worker's scratch is warm).
    pub alloc_events: u64,
}

/// Phase 2, step 2: verifies candidates `ks` (block-relative, within
/// `0..block.candidates()`) of a fetched interval. The single
/// verification routine behind the sequential matchers, which pass each
/// interval whole, and each [`QueryExecutor`] work item, which passes a
/// bounded range — batched and sequential execution produce bit-identical
/// results because they both run this over the same block.
///
/// For top-k queries `best` carries the query's shared [`BestSoFar`]:
/// each candidate is verified against the tracker's current threshold
/// (≤ ε, shrinking as results accumulate — cross-candidate tightening
/// across *all* of the query's ranges, even when they run on different
/// worker threads), and every qualifying distance is offered back.
/// Candidates the tracker rejects are provably outside the final top-k
/// (the threshold only shrinks), so dropping them preserves exactness.
///
/// [`QueryExecutor`]: crate::exec::QueryExecutor
pub(crate) fn verify_range(
    prep: &PreparedQuery,
    block: &FetchedInterval,
    ks: Range<usize>,
    scratch: &mut KernelScratch,
    best: Option<&Mutex<BestSoFar>>,
) -> RangeVerification {
    let m = prep.m;
    let l = block.left;
    let allocs_before = scratch.alloc_events();
    let ceiling = prep.threshold_ceiling();
    let mut results = Vec::new();
    let mut cascade = CascadeStats::default();
    for k in ks {
        let s = &block.buf[k..k + m];
        let (mu_s, sigma_s) = match &block.ps {
            Some(ps) => ps.range_mean_std(k, m),
            None => (0.0, 0.0),
        };
        // A stale (looser) threshold read is always safe; the offer below
        // re-checks against the freshest one.
        let bound = match best {
            Some(b) => b.lock().threshold_sq(),
            None => ceiling,
        };
        if let Some(raw) = prep.verify_within(s, mu_s, sigma_s, bound, scratch, &mut cascade) {
            match best {
                Some(b) => {
                    // Offer the kernel's exact comparison-domain value —
                    // never a rooted-and-resquared copy, which can round
                    // below `raw` and make the shared threshold wrongly
                    // abandon exact ties.
                    if !b.lock().offer(raw) {
                        continue; // strictly worse than the current k-th best
                    }
                    results.push(MatchResult { offset: l + k, distance: raw });
                }
                None => {
                    results.push(MatchResult { offset: l + k, distance: prep.distance_of(raw) });
                }
            }
        }
    }
    RangeVerification { results, cascade, alloc_events: scratch.alloc_events() - allocs_before }
}

/// Converts a top-k result set's comparison-domain values into reported
/// distances — the final step after [`select_top_k`], shared by every
/// execution path.
pub(crate) fn finish_topk_distances(prep: &PreparedQuery, results: &mut [MatchResult]) {
    for r in results {
        r.distance = prep.distance_of(r.distance);
    }
}

/// Verifies every candidate interval of `cs` against the series store.
/// Shared by [`KvMatcher`] and the DP matcher. Top-k specs thread a
/// [`BestSoFar`] across the intervals and reduce the survivors with
/// [`select_top_k`] — the same selection the batched executor applies, so
/// both paths stay bit-identical.
pub(crate) fn verify_candidates<D: SeriesStore>(
    data: &D,
    prep: &PreparedQuery,
    cs: &IntervalSet,
    stats: &mut MatchStats,
) -> Result<Vec<MatchResult>, CoreError> {
    let best = prep.best_so_far();
    let mut results = Vec::new();
    let mut scratch = KernelScratch::with_query_capacity(prep.m, prep.spec.measure.rho());
    for wi in cs.intervals() {
        let block = FetchedInterval::fetch(data, prep, *wi)?;
        stats.points_fetched += block.points();
        let v = verify_range(prep, &block, 0..block.candidates(), &mut scratch, best.as_ref());
        stats.absorb_cascade(&v.cascade);
        stats.alloc_events += v.alloc_events;
        results.extend(v.results);
    }
    if let Some(k) = prep.spec.limit {
        select_top_k(&mut results, k);
        finish_topk_distances(prep, &mut results);
    }
    stats.matches = results.len() as u64;
    Ok(results)
}

/// Algorithm 1, lines 2–12 — the one phase-1 loop behind [`KvMatcher`],
/// KV-match_DP and the batched executor. Each segment is an
/// `(index, query offset, window width)` triple, probed in the order
/// given: scan the index over the window's lemma range, left-shift the
/// returned interval set by the window's query offset and intersect it
/// into the running candidate set, stopping as soon as that set is empty.
/// `segments` is pulled lazily, so the items a caller sees consumed are
/// the probes issued. Probe accounting and the final candidate counts
/// land in `stats`; `n` is the series length and must be at least
/// `prep.m`.
pub(crate) fn candidate_set<'i, S: KvStore + 'i>(
    prep: &PreparedQuery,
    segments: impl IntoIterator<Item = (&'i KvIndex<S>, usize, usize)>,
    cache: Option<&RowCache>,
    n: usize,
    stats: &mut MatchStats,
) -> Result<IntervalSet, CoreError> {
    let mut cs: Option<IntervalSet> = None;
    for (index, offset, w) in segments {
        let range = prep.window_range(offset, w);
        let (is, info) = match cache {
            Some(cache) => index.probe_cached(range.lower, range.upper, cache)?,
            None => index.probe(range.lower, range.upper)?,
        };
        stats.absorb_probe(&info);
        let csi = is.shift_left(offset as u64);
        cs = Some(match cs {
            None => csi,
            Some(prev) => prev.intersect(&csi),
        });
        if cs.as_ref().expect("just set").is_empty() {
            break;
        }
    }
    let cs = cs.expect("a query has at least one window").clamp_max((n - prep.m) as u64);
    stats.candidates = cs.num_positions();
    stats.candidate_intervals = cs.num_intervals() as u64;
    Ok(cs)
}

/// The basic fixed-window KV-match matcher.
pub struct KvMatcher<'a, S: KvStore, D: SeriesStore> {
    index: &'a KvIndex<S>,
    data: &'a D,
    row_cache: Option<&'a RowCache>,
}

impl<'a, S: KvStore, D: SeriesStore> KvMatcher<'a, S, D> {
    /// Binds an index to its data store. Fails when the index was built
    /// over a series of a different length.
    pub fn new(index: &'a KvIndex<S>, data: &'a D) -> Result<Self, CoreError> {
        if index.series_len() != data.len() {
            return Err(CoreError::CorruptIndex(format!(
                "index covers a series of length {}, data store has {}",
                index.series_len(),
                data.len()
            )));
        }
        Ok(Self { index, data, row_cache: None })
    }

    /// Reuses index rows across queries through `cache` (§VI-C
    /// optimization 1). Results are identical; repeated or overlapping
    /// probes skip the store.
    pub fn with_row_cache(mut self, cache: &'a RowCache) -> Self {
        self.row_cache = Some(cache);
        self
    }

    fn probe(&self, lr: f64, ur: f64) -> Result<(IntervalSet, crate::index::ScanInfo), CoreError> {
        match self.row_cache {
            Some(cache) => self.index.probe_cached(lr, ur, cache),
            None => self.index.probe(lr, ur),
        }
    }

    /// Phase-1 only: the per-window candidate sets `CS_i` (already
    /// left-shifted) and their running intersection `CS` — the quantities
    /// Table VII compares against FRM. Unlike [`KvMatcher::execute`], every
    /// window is probed even when the intersection empties early.
    pub fn window_candidate_sets(
        &self,
        spec: &QuerySpec,
    ) -> Result<(Vec<IntervalSet>, IntervalSet), CoreError> {
        let prep = PreparedQuery::new(spec.clone())?;
        let w = self.index.window();
        let m = prep.m;
        if m < w {
            return Err(CoreError::QueryTooShort { query_len: m, window: w });
        }
        let n = self.data.len();
        if m > n {
            return Ok((Vec::new(), IntervalSet::new()));
        }
        let p = m / w;
        let max_start = (n - m) as u64;
        let mut sets = Vec::with_capacity(p);
        // Not `candidate_set`: every window is probed and each `CS_i` kept.
        for i in 0..p {
            let range = prep.window_range(i * w, w);
            let (is, _) = self.probe(range.lower, range.upper)?;
            sets.push(is.shift_left((i * w) as u64).clamp_max(max_start));
        }
        let mut cs = sets[0].clone();
        for s in &sets[1..] {
            cs = cs.intersect(s);
        }
        Ok((sets, cs))
    }

    /// Executes Algorithm 1, returning qualified subsequences (ordered by
    /// offset) and execution statistics.
    pub fn execute(&self, spec: &QuerySpec) -> Result<(Vec<MatchResult>, MatchStats), CoreError> {
        let prep = PreparedQuery::new(spec.clone())?;
        let w = self.index.window();
        let m = prep.m;
        if m < w {
            return Err(CoreError::QueryTooShort { query_len: m, window: w });
        }
        let n = self.data.len();
        let mut stats = MatchStats::default();
        if m > n {
            return Ok((Vec::new(), stats));
        }

        // Phase 1: index probing (Lines 2–12).
        let t1 = Instant::now();
        let windows = (0..m / w).map(|i| (self.index, i * w, w));
        let cs = candidate_set(&prep, windows, self.row_cache, n, &mut stats)?;
        stats.phase1_nanos = t1.elapsed().as_nanos() as u64;

        // Phase 2: verification (Lines 13–18).
        let t2 = Instant::now();
        let results = verify_candidates(self.data, &prep, &cs, &mut stats)?;
        stats.phase2_nanos = t2.elapsed().as_nanos() as u64;
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuildConfig;
    use crate::naive::naive_search;
    use kvmatch_storage::memory::MemoryKvStoreBuilder;
    use kvmatch_storage::{MemoryKvStore, MemorySeriesStore};
    use kvmatch_timeseries::generator::composite_series;

    fn build_index(xs: &[f64], w: usize) -> KvIndex<MemoryKvStore> {
        let (idx, _) = KvIndex::<MemoryKvStore>::build_into(
            xs,
            IndexBuildConfig::new(w),
            MemoryKvStoreBuilder::new(),
        )
        .unwrap();
        idx
    }

    fn check_equals_naive(xs: &[f64], w: usize, spec: &QuerySpec) -> MatchStats {
        let idx = build_index(xs, w);
        let data = MemorySeriesStore::new(xs.to_vec());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let (got, stats) = matcher.execute(spec).unwrap();
        let want = naive_search(xs, spec);
        let got_offsets: Vec<usize> = got.iter().map(|r| r.offset).collect();
        let want_offsets: Vec<usize> = want.iter().map(|r| r.offset).collect();
        assert_eq!(got_offsets, want_offsets, "offset sets differ");
        for (g, w_) in got.iter().zip(&want) {
            assert!(
                (g.distance - w_.distance).abs() < 1e-6,
                "distance mismatch at {}: {} vs {}",
                g.offset,
                g.distance,
                w_.distance
            );
        }
        stats
    }

    #[test]
    fn rsm_ed_equals_naive() {
        let xs = composite_series(31, 6_000);
        let q = xs[1000..1160].to_vec();
        for eps in [0.0, 1.0, 5.0, 20.0, 60.0] {
            let stats = check_equals_naive(&xs, 50, &QuerySpec::rsm_ed(q.clone(), eps));
            assert_eq!(stats.index_accesses, 3, "p = 160/50 = 3 probes");
        }
    }

    #[test]
    fn rsm_dtw_equals_naive() {
        let xs = composite_series(37, 3_000);
        let q = xs[500..650].to_vec();
        for eps in [1.0, 8.0, 30.0] {
            check_equals_naive(&xs, 50, &QuerySpec::rsm_dtw(q.clone(), eps, 7));
        }
    }

    #[test]
    fn cnsm_ed_equals_naive() {
        let xs = composite_series(41, 6_000);
        let q = xs[2000..2200].to_vec();
        for (eps, alpha, beta) in [(0.5, 1.1, 0.5), (2.0, 1.5, 2.0), (5.0, 2.0, 10.0)] {
            check_equals_naive(&xs, 50, &QuerySpec::cnsm_ed(q.clone(), eps, alpha, beta));
        }
    }

    #[test]
    fn cnsm_dtw_equals_naive() {
        let xs = composite_series(43, 2_500);
        let q = xs[700..860].to_vec();
        for (eps, alpha, beta) in [(1.0, 1.2, 1.0), (4.0, 2.0, 5.0)] {
            check_equals_naive(&xs, 40, &QuerySpec::cnsm_dtw(q.clone(), eps, 5, alpha, beta));
        }
    }

    #[test]
    fn query_not_multiple_of_window_keeps_prefix() {
        // |Q| = 130, w = 50 ⇒ p = 2 windows; the 30-sample tail is ignored
        // by phase 1 but fully verified in phase 2.
        let xs = composite_series(47, 4_000);
        let q = xs[100..230].to_vec();
        check_equals_naive(&xs, 50, &QuerySpec::rsm_ed(q, 10.0));
    }

    #[test]
    fn query_shorter_than_window_errors() {
        let xs = composite_series(51, 1_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let err = matcher.execute(&QuerySpec::rsm_ed(vec![0.0; 20], 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::QueryTooShort { query_len: 20, window: 50 }));
    }

    #[test]
    fn mismatched_series_length_rejected() {
        let xs = composite_series(53, 1_000);
        let idx = build_index(&xs, 25);
        let other = MemorySeriesStore::new(vec![0.0; 500]);
        assert!(KvMatcher::new(&idx, &other).is_err());
    }

    #[test]
    fn self_match_is_always_found() {
        // Pull queries straight from the data: offset must be reported
        // with distance 0 for RSM-ED and cNSM-ED.
        let xs = composite_series(59, 5_000);
        for off in [0usize, 1234, 4800 - 200] {
            let q = xs[off..off + 200].to_vec();
            let idx = build_index(&xs, 50);
            let data = MemorySeriesStore::new(xs.clone());
            let matcher = KvMatcher::new(&idx, &data).unwrap();
            let (res, _) = matcher.execute(&QuerySpec::rsm_ed(q.clone(), 1e-9)).unwrap();
            assert!(res.iter().any(|r| r.offset == off), "RSM self-match at {off}");
            let (res, _) = matcher.execute(&QuerySpec::cnsm_ed(q, 1e-9, 1.0001, 0.001)).unwrap();
            assert!(res.iter().any(|r| r.offset == off), "cNSM self-match at {off}");
        }
    }

    #[test]
    fn empty_result_on_far_query() {
        let xs = vec![0.0; 2_000];
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs);
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let q = vec![1e6; 100];
        let (res, stats) = matcher.execute(&QuerySpec::rsm_ed(q, 1.0)).unwrap();
        assert!(res.is_empty());
        assert_eq!(stats.candidates, 0);
        // Early exit: the first empty intersection stops probing.
        assert!(stats.index_accesses <= 2);
    }

    #[test]
    fn stats_are_consistent() {
        let xs = composite_series(61, 4_000);
        let q = xs[100..400].to_vec();
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let (res, stats) = matcher.execute(&QuerySpec::rsm_ed(q, 15.0)).unwrap();
        assert_eq!(stats.matches as usize, res.len());
        assert!(stats.candidates >= stats.matches);
        assert!(stats.candidate_intervals <= stats.candidates);
        assert!(stats.points_fetched >= stats.candidates);
        assert_eq!(stats.index_accesses, 6);
    }

    #[test]
    fn window_candidate_sets_intersect_to_cs() {
        let xs = composite_series(63, 4_000);
        let q = xs[500..800].to_vec();
        let spec = QuerySpec::rsm_ed(q, 12.0);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let (sets, cs) = matcher.window_candidate_sets(&spec).unwrap();
        assert_eq!(sets.len(), 6);
        // CS ⊆ every CS_i, and every true match is in CS.
        for r in naive_search(&xs, &spec) {
            assert!(cs.contains(r.offset as u64), "match {} missing from CS", r.offset);
            for (i, s) in sets.iter().enumerate() {
                assert!(s.contains(r.offset as u64), "match {} missing from CS_{i}", r.offset);
            }
        }
        let (_, stats) = matcher.execute(&spec).unwrap();
        assert_eq!(stats.candidates, cs.num_positions());
    }

    #[test]
    fn topk_returns_k_nearest_with_deterministic_ties() {
        let mut xs = composite_series(71, 4_000);
        // Plant the exact query at three offsets: three distance-0 ties.
        let q = xs[500..650].to_vec();
        xs[1200..1350].copy_from_slice(&q);
        xs[3000..3150].copy_from_slice(&q);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let spec = QuerySpec::rsm_ed(q, 25.0).top_k(2);
        let (got, stats) = matcher.execute(&spec).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(stats.matches, 2);
        // Ties break by lower offset: 500 and 1200 win over 3000.
        assert_eq!(got[0], MatchResult { offset: 500, distance: 0.0 });
        assert_eq!(got[1], MatchResult { offset: 1200, distance: 0.0 });
        // The oracle agrees bit-identically (same ED kernel, raw slices).
        assert_eq!(got, naive_search(&xs, &spec));
        // Nearest-first ordering on non-tied data too.
        let spec = QuerySpec::rsm_ed(xs[2000..2150].to_vec(), 30.0).top_k(5);
        let (got, _) = matcher.execute(&spec).unwrap();
        assert_eq!(got, naive_search(&xs, &spec));
        for pair in got.windows(2) {
            assert!(pair[0].distance <= pair[1].distance, "not nearest-first: {got:?}");
        }
    }

    #[test]
    fn topk_respects_epsilon_ceiling() {
        let xs = composite_series(73, 3_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let q = xs[700..900].to_vec();
        // ε = 0 keeps only the self-match even though k = 10 slots exist.
        let (got, _) = matcher.execute(&QuerySpec::rsm_ed(q.clone(), 0.0).top_k(10)).unwrap();
        assert_eq!(got, vec![MatchResult { offset: 700, distance: 0.0 }]);
        // k = 0 is rejected up front.
        assert!(matches!(
            matcher.execute(&QuerySpec::rsm_ed(q, 1.0).top_k(0)),
            Err(CoreError::InvalidQuery(_))
        ));
    }

    /// Fetches `wi` and verifies it whole — the sequential matchers' path.
    fn verify_whole(
        data: &MemorySeriesStore,
        prep: &PreparedQuery,
        wi: WindowInterval,
        scratch: &mut KernelScratch,
    ) -> RangeVerification {
        let block = FetchedInterval::fetch(data, prep, wi).unwrap();
        verify_range(prep, &block, 0..block.candidates(), scratch, None)
    }

    fn result_bits(results: &[MatchResult]) -> Vec<(usize, u64)> {
        results.iter().map(|r| (r.offset, r.distance.to_bits())).collect()
    }

    #[test]
    fn warm_verify_interval_is_allocation_free() {
        // The zero-allocation contract of the kernel pass: once a worker's
        // KernelScratch has grown to a query's working-set size, repeated
        // verify_range calls perform no kernel heap allocations —
        // KernelScratch counts every buffer growth, so a zero delta on the
        // warm repetition proves it. Covers all four query classes
        // (RSM/cNSM × ED/DTW); the cNSM-DTW case exercises the
        // take_norm/restore_norm round trip.
        let xs = composite_series(77, 2_000);
        let q = xs[300..460].to_vec();
        let data = MemorySeriesStore::new(xs.clone());
        let specs = [
            QuerySpec::rsm_ed(q.clone(), 25.0),
            QuerySpec::rsm_dtw(q.clone(), 25.0, 7),
            QuerySpec::cnsm_ed(q.clone(), 5.0, 1.5, 2.0),
            QuerySpec::cnsm_dtw(q.clone(), 5.0, 7, 1.5, 2.0),
        ];
        for spec in specs {
            let prep = PreparedQuery::new(spec.clone()).unwrap();
            let wi = WindowInterval::new(200, 600);
            let mut scratch = KernelScratch::new();
            // Cold pass: the scratch grows to size.
            verify_whole(&data, &prep, wi, &mut scratch);
            let warm = scratch.alloc_events();
            // Warm passes: zero further kernel allocations.
            for _ in 0..3 {
                verify_whole(&data, &prep, wi, &mut scratch);
            }
            assert_eq!(
                scratch.alloc_events(),
                warm,
                "warm verify_range allocated ({:?})",
                spec.measure
            );
        }
    }

    #[test]
    fn ranges_of_a_block_concatenate_to_the_whole() {
        // Cutting one fetched interval into ranges — uneven ones, and in
        // any order — yields the whole-interval results and cascade
        // counts bit for bit: every range reads the same block and the
        // same prefix-statistics anchor.
        let xs = composite_series(81, 2_500);
        let q = xs[900..1060].to_vec();
        let data = MemorySeriesStore::new(xs.clone());
        let wi = WindowInterval::new(100, 1_900);
        for spec in [
            QuerySpec::rsm_ed(q.clone(), 30.0),
            QuerySpec::rsm_dtw(q.clone(), 20.0, 6),
            QuerySpec::cnsm_ed(q.clone(), 6.0, 1.5, 2.0),
            QuerySpec::cnsm_dtw(q.clone(), 5.0, 6, 1.5, 2.0),
        ] {
            let prep = PreparedQuery::new(spec.clone()).unwrap();
            let mut scratch = KernelScratch::new();
            let whole = verify_whole(&data, &prep, wi, &mut scratch);
            let block = FetchedInterval::fetch(&data, &prep, wi).unwrap();
            let cuts = [0, 1, 97, 640, 641, 1_333, block.candidates()];
            let mut ranges: Vec<Range<usize>> = cuts.windows(2).map(|c| c[0]..c[1]).collect();
            ranges.reverse();
            let mut parts: Vec<(usize, RangeVerification)> = ranges
                .into_iter()
                .map(|ks| (ks.start, verify_range(&prep, &block, ks, &mut scratch, None)))
                .collect();
            parts.sort_by_key(|(start, _)| *start);
            let mut results = Vec::new();
            let mut cascade = CascadeStats::default();
            for (_, part) in parts {
                results.extend(part.results);
                cascade.merge(&part.cascade);
            }
            assert!(!whole.results.is_empty(), "{:?}: vacuous", spec.measure);
            assert_eq!(result_bits(&results), result_bits(&whole.results), "{:?}", spec.measure);
            assert_eq!(cascade, whole.cascade, "{:?}", spec.measure);
        }
    }

    #[test]
    fn adaptive_cascade_same_results() {
        // Adaptive stage demotion must never change which subsequences
        // qualify or their distances — only the lower-bound work done.
        let xs = composite_series(79, 2_500);
        let q = xs[600..760].to_vec();
        let data = MemorySeriesStore::new(xs.clone());
        for spec in [
            QuerySpec::rsm_dtw(q.clone(), 20.0, 6),
            QuerySpec::cnsm_dtw(q.clone(), 4.0, 6, 1.5, 2.0),
        ] {
            let plain = PreparedQuery::new(spec.clone()).unwrap();
            let mut adaptive = PreparedQuery::new(spec.clone()).unwrap();
            adaptive.set_adaptive(Some(AdaptivePolicy {
                window: 16,
                min_prune_rate: 0.9, // demote aggressively
                probation: 64,
            }));
            let wi = WindowInterval::new(100, 1200);
            let mut scratch = KernelScratch::new();
            let a = verify_whole(&data, &plain, wi, &mut scratch);
            let b = verify_whole(&data, &adaptive, wi, &mut scratch);
            assert_eq!(
                result_bits(&a.results),
                result_bits(&b.results),
                "adaptive changed results ({:?})",
                spec.measure
            );
        }
    }

    #[test]
    fn query_longer_than_series_is_empty_ok() {
        let xs = composite_series(67, 500);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let (res, _) = matcher.execute(&QuerySpec::rsm_ed(vec![0.0; 1000], 5.0)).unwrap();
        assert!(res.is_empty());
    }
}
