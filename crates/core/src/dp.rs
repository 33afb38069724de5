//! KV-match_DP — dynamic query segmentation over multiple indexes (§VI).
//!
//! A [`MultiIndex`] holds `L` KV-indexes with window widths
//! `Σ = {w_u · 2^(i−1)}`. A query is split into variable-length disjoint
//! windows by a two-dimensional dynamic program minimizing the objective
//! `F(SG) = (∏ nI(IS_i))^(1/p) / n` (Eq. 8), where each `nI(IS_i)` is
//! estimated from the meta tables alone (Eq. 9's `C` terms) — no index I/O
//! happens during segmentation.

use std::time::Instant;

use kvmatch_storage::{KvStore, KvStoreBuilder, SeriesStore};

use crate::build::IndexBuildConfig;
use crate::cache::RowCache;
use crate::index::KvIndex;
use crate::matcher::{candidate_set, verify_candidates, PreparedQuery};
use crate::query::{CoreError, MatchResult, MatchStats, QuerySpec};

/// Configuration of the index set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexSetConfig {
    /// Minimum window width `w_u`.
    pub wu: usize,
    /// Number of indexes `L`; widths are `w_u · 2^(i−1)`, `1 ≤ i ≤ L`.
    pub levels: usize,
    /// Bucket width `d` for every index.
    pub width_d: f64,
    /// Merge threshold γ for every index.
    pub merge_gamma: f64,
}

impl Default for IndexSetConfig {
    /// Paper defaults: `w_u = 25`, `L = 5` ⇒ Σ = {25, 50, 100, 200, 400}.
    fn default() -> Self {
        Self { wu: 25, levels: 5, width_d: 0.5, merge_gamma: 0.8 }
    }
}

impl IndexSetConfig {
    /// The window widths Σ, ascending.
    pub fn window_lengths(&self) -> Vec<usize> {
        (0..self.levels).map(|i| self.wu << i).collect()
    }

    /// Build configuration for one width.
    pub fn build_config(&self, window: usize) -> IndexBuildConfig {
        IndexBuildConfig {
            window,
            width_d: self.width_d,
            merge_gamma: self.merge_gamma,
            ..IndexBuildConfig::new(window)
        }
    }
}

/// One window of a query segmentation: `Q(offset, window)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// 0-based offset into the query.
    pub offset: usize,
    /// Window width (∈ Σ).
    pub window: usize,
}

/// A set of KV-indexes over the same series with doubling window widths.
#[derive(Debug)]
pub struct MultiIndex<S: KvStore> {
    indexes: Vec<KvIndex<S>>,
    wu: usize,
}

impl<S: KvStore> MultiIndex<S> {
    /// Wraps pre-built indexes. They must cover the same series and have
    /// the doubling-width structure `w_u · 2^i`, ascending.
    pub fn new(indexes: Vec<KvIndex<S>>) -> Result<Self, CoreError> {
        if indexes.is_empty() {
            return Err(CoreError::CorruptIndex("multi-index needs ≥ 1 index".into()));
        }
        let wu = indexes[0].window();
        let n = indexes[0].series_len();
        for (i, idx) in indexes.iter().enumerate() {
            if idx.window() != wu << i {
                return Err(CoreError::CorruptIndex(format!(
                    "index {i} has window {}, expected {}",
                    idx.window(),
                    wu << i
                )));
            }
            if idx.series_len() != n {
                return Err(CoreError::CorruptIndex(
                    "indexes cover different series lengths".into(),
                ));
            }
        }
        Ok(Self { indexes, wu })
    }

    /// Builds the full index set over `xs`, creating one store per width
    /// through `make_builder(window)`.
    pub fn build_with<B, F>(
        xs: &[f64],
        config: IndexSetConfig,
        mut make_builder: F,
    ) -> Result<MultiIndex<B::Store>, CoreError>
    where
        B: KvStoreBuilder,
        F: FnMut(usize) -> B,
    {
        let mut indexes = Vec::with_capacity(config.levels);
        for w in config.window_lengths() {
            let (idx, _) =
                KvIndex::<B::Store>::build_into(xs, config.build_config(w), make_builder(w))?;
            indexes.push(idx);
        }
        MultiIndex::new(indexes)
    }

    /// The minimum window width `w_u`.
    pub fn wu(&self) -> usize {
        self.wu
    }

    /// Number of levels `L`.
    pub fn levels(&self) -> usize {
        self.indexes.len()
    }

    /// All indexes, ascending width.
    pub fn indexes(&self) -> &[KvIndex<S>] {
        &self.indexes
    }

    /// Length of the covered series.
    pub fn series_len(&self) -> usize {
        self.indexes[0].series_len()
    }

    /// The index for window width `w` (must be in Σ).
    pub fn index_for(&self, w: usize) -> Option<&KvIndex<S>> {
        if !w.is_multiple_of(self.wu) {
            return None;
        }
        let ratio = w / self.wu;
        if !ratio.is_power_of_two() {
            return None;
        }
        let level = ratio.trailing_zeros() as usize;
        self.indexes.get(level)
    }

    /// Total scan operations across all member indexes.
    pub fn total_index_accesses(&self) -> u64 {
        self.indexes.iter().map(|i| i.store().io_stats().scans()).sum()
    }

    /// The optimal segmentation of `prep`'s query (Algorithm 2 / Eq. 9).
    ///
    /// Runs entirely on the meta tables. Returns segments in query order;
    /// the query suffix shorter than `w_u` is left uncovered (ignoring it
    /// preserves correctness, §V-A footnote).
    pub fn segment_query(&self, prep: &PreparedQuery) -> Result<Vec<Segment>, CoreError> {
        let wu = self.wu;
        let m_prime = prep.m / wu;
        if m_prime == 0 {
            return Err(CoreError::QueryTooShort { query_len: prep.m, window: wu });
        }
        let levels = self.indexes.len();
        let inf = f64::INFINITY;

        // ln C_{start,ϕ}: estimated nI(IS) of the window Q(start·wu, ϕ·wu),
        // from the meta table of KV-index_{ϕ·wu}. Precomputed once per
        // (start, level) — the DP loop below would otherwise recompute each
        // entry O(m') times.
        let cost_table: Vec<Vec<f64>> = (0..levels)
            .map(|level| {
                let phi = 1usize << level;
                let w = phi * wu;
                (0..m_prime.saturating_sub(phi - 1))
                    .map(|start| {
                        let range = prep.window_range(start * wu, w);
                        let c =
                            self.indexes[level].meta().estimate_intervals(range.lower, range.upper);
                        (c as f64).max(0.5).ln()
                    })
                    .collect()
            })
            .collect();
        let ln_cost =
            |start: usize, phi: usize| -> f64 { cost_table[phi.trailing_zeros() as usize][start] };

        // v[i][j] = ln of the Eq. 9 sub-state; P[i][j] = chosen ϕ.
        let dim = m_prime + 1;
        let mut v = vec![inf; dim * dim];
        let mut back = vec![0usize; dim * dim];
        v[0] = 0.0; // v[0][0] = ln 1
        for i in 1..=m_prime {
            let max_k = levels.min(i.ilog2() as usize + 1);
            for j in 1..=i {
                let mut best = inf;
                let mut best_phi = 0usize;
                for k in 1..=max_k {
                    let phi = 1usize << (k - 1);
                    if phi > i {
                        break;
                    }
                    let prev = v[(i - phi) * dim + (j - 1)];
                    if !prev.is_finite() {
                        continue;
                    }
                    let cand = ((j - 1) as f64 * prev + ln_cost(i - phi, phi)) / j as f64;
                    if cand < best {
                        best = cand;
                        best_phi = phi;
                    }
                }
                v[i * dim + j] = best;
                back[i * dim + j] = best_phi;
            }
        }

        // Pick the window count with minimal objective, then walk back.
        let (mut j, _) = (1..=m_prime)
            .map(|j| (j, v[m_prime * dim + j]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("objective is never NaN"))
            .expect("m' ≥ 1");
        let mut i = m_prime;
        let mut segments = Vec::new();
        while i != 0 {
            let phi = back[i * dim + j];
            debug_assert!(phi >= 1, "broken backward pointer at ({i}, {j})");
            segments.push(Segment { offset: (i - phi) * wu, window: phi * wu });
            i -= phi;
            j -= 1;
        }
        segments.reverse();
        Ok(segments)
    }
}

/// Tuning knobs of the DP matcher (§VI-C optimizations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DpOptions {
    /// Probe windows in ascending estimated-cost order (optimization 2),
    /// stopping as soon as the intersection becomes empty.
    pub reorder_by_cost: bool,
    /// Process at most this many windows (optimization 3): the remaining
    /// `CS_i` filters are skipped, which keeps correctness (each is a
    /// superset of the result) at the price of more phase-2 candidates.
    pub max_windows: Option<usize>,
}

impl Default for DpOptions {
    fn default() -> Self {
        Self { reorder_by_cost: true, max_windows: None }
    }
}

/// The KV-match_DP matcher.
pub struct DpMatcher<'a, S: KvStore, D: SeriesStore> {
    multi: &'a MultiIndex<S>,
    data: &'a D,
    options: DpOptions,
    row_cache: Option<&'a RowCache>,
}

impl<'a, S: KvStore, D: SeriesStore> DpMatcher<'a, S, D> {
    /// Binds a multi-index to its data store.
    pub fn new(multi: &'a MultiIndex<S>, data: &'a D) -> Result<Self, CoreError> {
        if multi.series_len() != data.len() {
            return Err(CoreError::CorruptIndex(format!(
                "multi-index covers length {}, data store has {}",
                multi.series_len(),
                data.len()
            )));
        }
        Ok(Self { multi, data, options: DpOptions::default(), row_cache: None })
    }

    /// Reuses index rows across queries through `cache` (§VI-C
    /// optimization 1). The cache is shared across all member indexes —
    /// keys carry the window width.
    pub fn with_row_cache(mut self, cache: &'a RowCache) -> Self {
        self.row_cache = Some(cache);
        self
    }

    /// Overrides the DP options.
    pub fn with_options(mut self, options: DpOptions) -> Self {
        self.options = options;
        self
    }

    /// Executes the query: DP segmentation, multi-index probing,
    /// intersection, verification.
    pub fn execute(&self, spec: &QuerySpec) -> Result<(Vec<MatchResult>, MatchStats), CoreError> {
        let (results, stats, _) = self.execute_traced(spec)?;
        Ok((results, stats))
    }

    /// Like [`DpMatcher::execute`] but also returns the chosen segmentation.
    pub fn execute_traced(
        &self,
        spec: &QuerySpec,
    ) -> Result<(Vec<MatchResult>, MatchStats, Vec<Segment>), CoreError> {
        let prep = PreparedQuery::new(spec.clone())?;
        let n = self.data.len();
        let mut stats = MatchStats::default();
        if prep.m > n {
            return Ok((Vec::new(), stats, Vec::new()));
        }

        let t1 = Instant::now();
        let mut segments = self.multi.segment_query(&prep)?;

        // Probe order: ascending estimated cost when requested.
        let mut order: Vec<usize> = (0..segments.len()).collect();
        if self.options.reorder_by_cost {
            let costs: Vec<u64> = segments
                .iter()
                .map(|seg| {
                    let range = prep.window_range(seg.offset, seg.window);
                    self.multi
                        .index_for(seg.window)
                        .expect("segment windows come from Σ")
                        .meta()
                        .estimate_intervals(range.lower, range.upper)
                })
                .collect();
            order.sort_by_key(|&i| costs[i]);
        }
        let limit = self.options.max_windows.unwrap_or(segments.len()).max(1);

        let windows = order.iter().take(limit).map(|&si| {
            let seg = segments[si];
            let idx = self.multi.index_for(seg.window).expect("segment windows come from Σ");
            (idx, seg.offset, seg.window)
        });
        let cs = candidate_set(&prep, windows, self.row_cache, n, &mut stats)?;
        stats.phase1_nanos = t1.elapsed().as_nanos() as u64;

        let t2 = Instant::now();
        let results = verify_candidates(self.data, &prep, &cs, &mut stats)?;
        stats.phase2_nanos = t2.elapsed().as_nanos() as u64;
        segments.sort_by_key(|s| s.offset);
        Ok((results, stats, segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_search;
    use kvmatch_storage::memory::MemoryKvStoreBuilder;
    use kvmatch_storage::{MemoryKvStore, MemorySeriesStore};
    use kvmatch_timeseries::generator::composite_series;

    fn small_cfg() -> IndexSetConfig {
        IndexSetConfig { wu: 25, levels: 4, ..Default::default() }
    }

    fn build_multi(xs: &[f64], cfg: IndexSetConfig) -> MultiIndex<MemoryKvStore> {
        MultiIndex::<MemoryKvStore>::build_with::<MemoryKvStoreBuilder, _>(xs, cfg, |_| {
            MemoryKvStoreBuilder::new()
        })
        .unwrap()
    }

    #[test]
    fn window_lengths_double() {
        assert_eq!(IndexSetConfig::default().window_lengths(), vec![25, 50, 100, 200, 400]);
        assert_eq!(small_cfg().window_lengths(), vec![25, 50, 100, 200]);
    }

    #[test]
    fn index_for_lookup() {
        let xs = composite_series(71, 3_000);
        let multi = build_multi(&xs, small_cfg());
        assert_eq!(multi.index_for(25).unwrap().window(), 25);
        assert_eq!(multi.index_for(200).unwrap().window(), 200);
        assert!(multi.index_for(75).is_none());
        assert!(multi.index_for(400).is_none(), "beyond configured levels");
        assert!(multi.index_for(30).is_none());
    }

    #[test]
    fn segmentation_tiles_query_prefix() {
        let xs = composite_series(73, 10_000);
        let multi = build_multi(&xs, small_cfg());
        for m in [25usize, 100, 130, 333, 1024, 2048] {
            let q = xs[50..50 + m].to_vec();
            let prep = PreparedQuery::new(QuerySpec::rsm_ed(q, 5.0)).unwrap();
            let segs = multi.segment_query(&prep).unwrap();
            assert!(!segs.is_empty());
            // Windows tile [0, (m/wu)·wu) contiguously.
            let mut cursor = 0usize;
            for s in &segs {
                assert_eq!(s.offset, cursor, "m={m}");
                assert!(multi.index_for(s.window).is_some(), "window {} not in Σ", s.window);
                cursor += s.window;
            }
            assert_eq!(cursor, (m / 25) * 25, "m={m}");
        }
    }

    #[test]
    fn segmentation_rejects_short_query() {
        let xs = composite_series(79, 2_000);
        let multi = build_multi(&xs, small_cfg());
        let prep = PreparedQuery::new(QuerySpec::rsm_ed(vec![1.0; 10], 5.0)).unwrap();
        assert!(matches!(multi.segment_query(&prep), Err(CoreError::QueryTooShort { .. })));
    }

    fn check_dp_equals_naive(xs: &[f64], spec: &QuerySpec) {
        let multi = build_multi(xs, small_cfg());
        let data = MemorySeriesStore::new(xs.to_vec());
        let matcher = DpMatcher::new(&multi, &data).unwrap();
        let (got, _) = matcher.execute(spec).unwrap();
        let want = naive_search(xs, spec);
        assert_eq!(
            got.iter().map(|r| r.offset).collect::<Vec<_>>(),
            want.iter().map(|r| r.offset).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dp_rsm_ed_equals_naive() {
        let xs = composite_series(83, 6_000);
        let q = xs[1500..1800].to_vec();
        for eps in [1.0, 10.0, 40.0] {
            check_dp_equals_naive(&xs, &QuerySpec::rsm_ed(q.clone(), eps));
        }
    }

    #[test]
    fn dp_cnsm_ed_equals_naive() {
        let xs = composite_series(89, 6_000);
        let q = xs[3000..3300].to_vec();
        check_dp_equals_naive(&xs, &QuerySpec::cnsm_ed(q, 3.0, 1.5, 5.0));
    }

    #[test]
    fn dp_rsm_dtw_equals_naive() {
        let xs = composite_series(97, 2_500);
        let q = xs[400..600].to_vec();
        check_dp_equals_naive(&xs, &QuerySpec::rsm_dtw(q, 6.0, 5));
    }

    #[test]
    fn dp_cnsm_dtw_equals_naive() {
        let xs = composite_series(101, 2_000);
        let q = xs[900..1100].to_vec();
        check_dp_equals_naive(&xs, &QuerySpec::cnsm_dtw(q, 3.0, 5, 1.5, 4.0));
    }

    #[test]
    fn options_do_not_change_results() {
        let xs = composite_series(103, 5_000);
        let q = xs[100..500].to_vec();
        let spec = QuerySpec::rsm_ed(q, 20.0);
        let multi = build_multi(&xs, small_cfg());
        let data = MemorySeriesStore::new(xs.clone());
        let baseline = DpMatcher::new(&multi, &data)
            .unwrap()
            .with_options(DpOptions { reorder_by_cost: false, max_windows: None });
        let (want, _) = baseline.execute(&spec).unwrap();
        for opts in [
            DpOptions { reorder_by_cost: true, max_windows: None },
            DpOptions { reorder_by_cost: true, max_windows: Some(2) },
            DpOptions { reorder_by_cost: false, max_windows: Some(1) },
        ] {
            let m = DpMatcher::new(&multi, &data).unwrap().with_options(opts);
            let (got, _) = m.execute(&spec).unwrap();
            assert_eq!(got, want, "{opts:?}");
        }
    }

    #[test]
    fn max_windows_increases_candidates() {
        let xs = composite_series(107, 8_000);
        let q = xs[2000..2800].to_vec();
        let spec = QuerySpec::rsm_ed(q, 25.0);
        let multi = build_multi(&xs, small_cfg());
        let data = MemorySeriesStore::new(xs.clone());
        let all = DpMatcher::new(&multi, &data).unwrap();
        let (_, stats_all) = all.execute(&spec).unwrap();
        let limited = DpMatcher::new(&multi, &data)
            .unwrap()
            .with_options(DpOptions { reorder_by_cost: true, max_windows: Some(1) });
        let (_, stats_one) = limited.execute(&spec).unwrap();
        assert!(stats_one.candidates >= stats_all.candidates);
        assert!(stats_one.index_accesses <= stats_all.index_accesses);
    }

    #[test]
    fn multi_index_validation() {
        let xs = composite_series(109, 2_000);
        let a = {
            let (idx, _) = KvIndex::<MemoryKvStore>::build_into(
                &xs,
                IndexBuildConfig::new(25),
                MemoryKvStoreBuilder::new(),
            )
            .unwrap();
            idx
        };
        let b = {
            let (idx, _) = KvIndex::<MemoryKvStore>::build_into(
                &xs,
                IndexBuildConfig::new(75), // not 50 ⇒ breaks the doubling chain
                MemoryKvStoreBuilder::new(),
            )
            .unwrap();
            idx
        };
        assert!(MultiIndex::new(vec![a, b]).is_err());
        assert!(MultiIndex::<MemoryKvStore>::new(vec![]).is_err());
    }
}
