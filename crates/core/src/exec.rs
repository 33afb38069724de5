//! Batched, multi-threaded query execution across one or many series.
//!
//! [`QueryExecutor`] takes a *batch* of ED/DTW queries — possibly
//! targeting different series of a catalog — and answers all of them with
//! less total work than running [`KvMatcher`](crate::matcher::KvMatcher)
//! once per query. The batching model has three layers:
//!
//! 1. **Planning once.** Every query is validated and pre-processed
//!    ([`PreparedQuery`]) up front: window segmentation (`p = ⌊m/w⌋`
//!    windows at offsets `i·w`), lemma ranges, envelopes and cascade
//!    material are computed exactly once per query before any I/O starts,
//!    and each query is routed to its target series (an
//!    [`UnknownSeries`](crate::query::CoreError::UnknownSeries) routing
//!    error fails the batch before any work runs).
//! 2. **Shared probing.** Phase 1 runs on the calling thread, routing
//!    every window probe through the target series' [`RowCache`]. Queries
//!    whose lemma ranges overlap — the common case for related queries
//!    over the same series — hit rows another query already fetched, so
//!    each distinct row span costs one store scan for the *whole batch*.
//!    Caches are **per series**: same-window rows of different series
//!    never alias. Probe accounting keeps real scans
//!    ([`MatchStats::index_accesses`]) and cache-served probes
//!    ([`MatchStats::probe_cache_hits`]) distinct.
//! 3. **Fanned-out verification in bounded ranges.** Phase 2 cuts every
//!    candidate interval of every query — across *all* series — into
//!    work items: contiguous ranges of the interval's candidates whose
//!    kernel work is capped at `RANGE_CELLS` band cells (`m·(2ρ+1)` per
//!    candidate, ρ = 0 for ED). KV-match yields few, long intervals, so
//!    whole-interval items would leave the slowest interval on one thread
//!    while the others idle; bounded ranges keep a
//!    [`std::thread::scope`] pool evenly busy. Each interval is still
//!    fetched once (one store fetch and, for cNSM, one set of prefix
//!    statistics), by the first worker to reach one of its ranges, and
//!    dropped when its last range is verified. Each item runs the same
//!    range verification routine (and the same shared
//!    [`LbCascade`](kvmatch_distance::LbCascade) stages) the sequential
//!    matcher runs over whole intervals, reading the same fetched block
//!    and the same µ/σ anchor, so batched results are **bit-identical**
//!    per series to per-query [`KvMatcher`](crate::matcher::KvMatcher)
//!    output — the equivalence tests assert exact equality, including
//!    distances.
//!
//! Worker results are merged back in deterministic (query, interval,
//! range) order, which is the sequential offset order; per-query
//! statistics report the same candidate and fetch counts as sequential
//! execution, while [`BatchStats`] carries the batch-level numbers and
//! [`BatchOutput::per_series`] the per-series split (wall time, probe
//! sharing, matches).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kvmatch_storage::{KvStore, SeriesId, SeriesStore};

use kvmatch_distance::{AdaptivePolicy, BestSoFar, KernelScratch};
use parking_lot::Mutex;

use crate::cache::{RowCache, RowCacheStats};
use crate::index::KvIndex;
use crate::interval::{IntervalSet, WindowInterval};
use crate::matcher::{
    candidate_set, verify_range, FetchedInterval, PreparedQuery, RangeVerification,
};
use crate::query::{select_top_k, CoreError, MatchResult, MatchStats, QuerySpec};

/// Tuning knobs for a [`QueryExecutor`].
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Verification worker threads; `0` resolves to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Row-cache capacity (decoded index rows kept for probe sharing),
    /// per series.
    pub cache_capacity: usize,
    /// Row-cache *interval* budget per series (`0` = unbounded): caps the
    /// summed interval count across cached rows, so long-running serving
    /// bounds cache memory even when individual rows are huge. Evictions
    /// it forces surface in [`MatchStats::cache_evictions`].
    pub cache_interval_budget: u64,
    /// Adaptive cascade stage demotion for DTW verification (`None` = the
    /// fixed LB_Kim-FL → LB_Keogh → DTW order, the default). When set,
    /// each query's cascade demotes lower-bound stages whose observed
    /// pruning rate falls below the policy's floor — results are always
    /// bit-identical; only the per-stage work and
    /// [`CascadeStats`](kvmatch_distance::CascadeStats) change.
    pub adaptive_cascade: Option<AdaptivePolicy>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self { threads: 0, cache_capacity: 4096, cache_interval_budget: 0, adaptive_cascade: None }
    }
}

impl ExecutorConfig {
    /// A fresh per-series row cache honouring this config's bounds.
    pub(crate) fn new_cache(&self) -> RowCache {
        RowCache::with_interval_budget(self.cache_capacity, self.cache_interval_budget)
    }
}

/// One query's answer: the same `(results, stats)` pair
/// [`KvMatcher::execute`](crate::matcher::KvMatcher::execute) returns.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Qualified subsequences, ordered by offset.
    pub results: Vec<MatchResult>,
    /// Per-query execution statistics.
    pub stats: MatchStats,
}

/// Batch-level statistics: where the shared work went.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: u64,
    /// Distinct series the batch touched.
    pub series_touched: u64,
    /// Wall-clock nanoseconds of the (sequential) probe phase.
    pub probe_nanos: u64,
    /// Wall-clock nanoseconds of the (parallel) verification phase.
    pub verify_nanos: u64,
    /// Window probes issued across the batch.
    pub probes: u64,
    /// Probes served without any store scan (shared via the row cache).
    pub probe_cache_hits: u64,
    /// Real store scans issued.
    pub store_scans: u64,
    /// Verification work items executed: bounded candidate ranges, at
    /// least one per candidate interval.
    pub work_items: u64,
    /// Worker threads used for verification.
    pub threads: u64,
    /// Row-cache counter movement over this batch, summed across the
    /// per-series caches.
    pub row_cache: RowCacheStats,
}

/// One series' share of a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeriesBatchStats {
    /// The series.
    pub series: SeriesId,
    /// Queries routed to this series.
    pub queries: u64,
    /// Summed phase-1 nanoseconds of those queries (probing is
    /// sequential, so this is attributable wall time).
    pub probe_nanos: u64,
    /// Summed interval-fetch and per-range verification nanoseconds
    /// attributed to this series (CPU time, not wall time — verification
    /// interleaves across series on the shared pool).
    pub verify_nanos: u64,
    /// Window probes issued for this series.
    pub probes: u64,
    /// Probes served entirely from this series' row cache.
    pub probe_cache_hits: u64,
    /// Real store scans issued for this series.
    pub store_scans: u64,
    /// Verification work items of this series.
    pub work_items: u64,
    /// Qualified results across this series' queries.
    pub matches: u64,
}

/// The whole batch's answers plus batch statistics.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// Per-query outputs, in input order.
    pub outputs: Vec<QueryOutput>,
    /// Batch-level statistics.
    pub stats: BatchStats,
    /// Per-series split, ordered by series id (only series that received
    /// at least one query appear).
    pub per_series: Vec<SeriesBatchStats>,
}

/// Kernel work one phase-2 work item may carry, in band cells: a
/// candidate costs `m·(2ρ+1)` cells (ρ = 0 for ED and Lp). At this cap an
/// RSM-DTW query with m = 192, ρ = 8 verifies 245 candidates per item
/// and an ED query with m = 256 verifies 3 125.
const RANGE_CELLS: usize = 800_000;

/// Candidates per phase-2 work item for `prep`: [`RANGE_CELLS`] worth of
/// band cells, and at least one.
fn range_len(prep: &PreparedQuery) -> usize {
    (RANGE_CELLS / (prep.m * (2 * prep.spec.measure.rho() + 1))).max(1)
}

/// A per-query execution plan produced by phase 1.
struct Plan {
    prep: PreparedQuery,
    target: usize,
    probes: u64,
    work_items: u64,
    cs: IntervalSet,
    stats: MatchStats,
    /// Top-k only: the query's shared best-so-far threshold. Workers
    /// verifying *any* of this query's ranges — potentially on different
    /// threads — tighten and read the same bound, so a good match found
    /// in one range abandons candidates in every other.
    best: Option<Mutex<BestSoFar>>,
}

/// One candidate interval of one query in phase 2. Its data is fetched by
/// the first worker to verify one of its ranges and dropped by the worker
/// that finishes its last, so a batch holds about one block per worker,
/// as whole-interval verification did.
struct IntervalSlot {
    query: usize,
    wi: WindowInterval,
    block: Mutex<Option<Arc<FetchedInterval>>>,
    ranges_left: AtomicUsize,
}

impl IntervalSlot {
    /// The interval's block, fetched on first use; the `u64` is the points
    /// this call fetched (0 when the block was already there).
    fn acquire<D: SeriesStore>(
        &self,
        data: &D,
        prep: &PreparedQuery,
    ) -> Result<(Arc<FetchedInterval>, u64), CoreError> {
        let mut held = self.block.lock();
        if let Some(block) = &*held {
            return Ok((Arc::clone(block), 0));
        }
        let block = Arc::new(FetchedInterval::fetch(data, prep, self.wi)?);
        *held = Some(Arc::clone(&block));
        let points = block.points();
        Ok((block, points))
    }

    /// Marks one range verified; the last one drops the block.
    fn release(&self) {
        if self.ranges_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.block.lock() = None;
        }
    }
}

/// One unit of phase-2 work: candidates `start..end` of one interval.
struct WorkItem {
    slot: usize,
    start: usize,
    end: usize,
}

/// What a worker produced for one [`WorkItem`]: the points it fetched and
/// the range's verification.
struct WorkOutput {
    item_idx: usize,
    nanos: u64,
    outcome: Result<(u64, RangeVerification), CoreError>,
}

/// One series served by a [`QueryExecutor`]: its index view, its data
/// store, and its private row cache.
struct ExecTarget<'a, S: KvStore, D: SeriesStore> {
    series: SeriesId,
    index: &'a KvIndex<S>,
    data: &'a D,
    cache: Arc<RowCache>,
}

/// Batched multi-threaded executor over one or more (index, data store)
/// pairs — one per series.
pub struct QueryExecutor<'a, S: KvStore, D: SeriesStore> {
    targets: Vec<ExecTarget<'a, S, D>>,
    by_series: HashMap<u64, usize>,
    config: ExecutorConfig,
}

impl<'a, S: KvStore, D: SeriesStore> QueryExecutor<'a, S, D> {
    /// Binds an executor to one index and its data store (with default
    /// configuration). The target series is the index's own
    /// ([`SeriesId::DEFAULT`] for single-series indexes, so specs built
    /// by the plain constructors route here). Fails when the index
    /// covers a series of a different length.
    pub fn new(index: &'a KvIndex<S>, data: &'a D) -> Result<Self, CoreError> {
        Self::with_config(index, data, ExecutorConfig::default())
    }

    /// Binds a single-series executor with explicit configuration.
    pub fn with_config(
        index: &'a KvIndex<S>,
        data: &'a D,
        config: ExecutorConfig,
    ) -> Result<Self, CoreError> {
        let series = index.series();
        let cache = Arc::new(config.new_cache());
        Self::multi([(series, index, data, cache)], config)
    }

    /// Binds an executor over many series. Each target brings its own
    /// row cache (the catalog passes long-lived caches in, so probe
    /// sharing survives across batches and materializations keep clean
    /// series' caches warm). Series ids must be unique and every index
    /// must match its data store's length.
    pub fn multi(
        targets: impl IntoIterator<Item = (SeriesId, &'a KvIndex<S>, &'a D, Arc<RowCache>)>,
        config: ExecutorConfig,
    ) -> Result<Self, CoreError> {
        let mut resolved = Vec::new();
        let mut by_series = HashMap::new();
        for (series, index, data, cache) in targets {
            if index.series_len() != data.len() {
                return Err(CoreError::CorruptIndex(format!(
                    "{series}: index covers a series of length {}, data store has {}",
                    index.series_len(),
                    data.len()
                )));
            }
            if by_series.insert(series.raw(), resolved.len()).is_some() {
                return Err(CoreError::InvalidQuery(format!("duplicate executor target {series}")));
            }
            resolved.push(ExecTarget { series, index, data, cache });
        }
        if resolved.is_empty() {
            return Err(CoreError::InvalidQuery("executor needs at least one target".into()));
        }
        Ok(Self { targets: resolved, by_series, config })
    }

    /// The series this executor serves, in target order.
    pub fn series(&self) -> Vec<SeriesId> {
        self.targets.iter().map(|t| t.series).collect()
    }

    /// The first target's row cache (the only one for single-series
    /// executors). Persists across batches, so repeated batches keep
    /// sharing probe work.
    pub fn cache(&self) -> &RowCache {
        &self.targets[0].cache
    }

    /// The row cache serving `series`, if the executor has that target.
    pub fn cache_for(&self, series: SeriesId) -> Option<&RowCache> {
        self.by_series.get(&series.raw()).map(|&i| &*self.targets[i].cache)
    }

    /// The resolved verification thread count.
    pub fn threads(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Executes a batch of queries, each routed to its target series.
    /// Per-query results are bit-identical to running
    /// [`KvMatcher::execute`](crate::matcher::KvMatcher::execute) on each
    /// spec against its own series in isolation; any invalid or
    /// unroutable query or storage error fails the whole batch.
    pub fn execute_batch(&self, specs: &[QuerySpec]) -> Result<BatchOutput, CoreError>
    where
        D: Sync,
    {
        let cache_before: Vec<RowCacheStats> =
            self.targets.iter().map(|t| t.cache.stats()).collect();
        let mut batch = BatchStats { queries: specs.len() as u64, ..BatchStats::default() };

        // Phase 0: route and plan every query before any I/O.
        let mut plans = Vec::with_capacity(specs.len());
        for spec in specs {
            let target = *self
                .by_series
                .get(&spec.series.raw())
                .ok_or(CoreError::UnknownSeries(spec.series))?;
            let mut prep = PreparedQuery::new(spec.clone())?;
            prep.set_adaptive(self.config.adaptive_cascade);
            let w = self.targets[target].index.window();
            if prep.m < w {
                return Err(CoreError::QueryTooShort { query_len: prep.m, window: w });
            }
            let best = prep.best_so_far();
            plans.push(Plan {
                prep,
                target,
                probes: 0,
                work_items: 0,
                cs: IntervalSet::new(),
                stats: MatchStats::default(),
                best,
            });
        }
        batch.series_touched = {
            let mut touched: Vec<usize> = plans.iter().map(|p| p.target).collect();
            touched.sort_unstable();
            touched.dedup();
            touched.len() as u64
        };

        // Phase 1: probe through each series' shared row cache,
        // sequentially.
        let t_probe = Instant::now();
        for plan in &mut plans {
            let t1 = Instant::now();
            let target = &self.targets[plan.target];
            let w = target.index.window();
            let n = target.data.len();
            let m = plan.prep.m;
            if m > n {
                continue; // no window fits; empty candidate set
            }
            let windows =
                (0..m / w).map(|i| (target.index, i * w, w)).inspect(|_| plan.probes += 1);
            plan.cs = candidate_set(&plan.prep, windows, Some(&target.cache), n, &mut plan.stats)?;
            batch.probes += plan.probes;
            batch.store_scans += plan.stats.index_accesses;
            batch.probe_cache_hits += plan.stats.probe_cache_hits;
            plan.stats.phase1_nanos = t1.elapsed().as_nanos() as u64;
        }
        batch.probe_nanos = t_probe.elapsed().as_nanos() as u64;

        // Phase 2: cut every candidate interval into bounded ranges and
        // fan the ranges of every series out over one worker pool.
        let mut slots = Vec::new();
        let mut items = Vec::new();
        for (query, plan) in plans.iter_mut().enumerate() {
            let span = range_len(&plan.prep);
            for &wi in plan.cs.intervals() {
                let count = wi.size() as usize;
                let ranges = count.div_ceil(span);
                items.extend((0..ranges).map(|r| WorkItem {
                    slot: slots.len(),
                    start: r * span,
                    end: ((r + 1) * span).min(count),
                }));
                slots.push(IntervalSlot {
                    query,
                    wi,
                    block: Mutex::new(None),
                    ranges_left: AtomicUsize::new(ranges),
                });
                plan.work_items += ranges as u64;
            }
        }
        batch.work_items = items.len() as u64;

        // Workers only need each plan's data store; collecting the refs
        // here keeps the spawned closures independent of the store type
        // `S` (only `D: Sync` is required).
        let data_refs: Vec<&D> = self.targets.iter().map(|t| t.data).collect();
        let threads = self.threads().min(items.len()).max(1);
        batch.threads = threads as u64;
        let t_verify = Instant::now();
        // One scratch per worker: after its first item it is warm and
        // verification performs no kernel heap allocations.
        let work = |item_idx: usize, scratch: &mut KernelScratch| {
            let item = &items[item_idx];
            let slot = &slots[item.slot];
            let plan = &plans[slot.query];
            let t = Instant::now();
            let outcome =
                slot.acquire(data_refs[plan.target], &plan.prep).map(|(block, points)| {
                    let ks = item.start..item.end;
                    let verification =
                        verify_range(&plan.prep, &block, ks, scratch, plan.best.as_ref());
                    slot.release();
                    (points, verification)
                });
            WorkOutput { item_idx, nanos: t.elapsed().as_nanos() as u64, outcome }
        };
        let mut outputs: Vec<WorkOutput> = if threads == 1 {
            // Single worker: run inline, skipping thread spawn/join cost.
            let mut scratch = KernelScratch::new();
            (0..items.len()).map(|item_idx| work(item_idx, &mut scratch)).collect()
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut produced = Vec::new();
                            let mut scratch = KernelScratch::new();
                            loop {
                                let item_idx = next.fetch_add(1, Ordering::Relaxed);
                                if item_idx >= items.len() {
                                    break;
                                }
                                produced.push(work(item_idx, &mut scratch));
                            }
                            produced
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("verification worker panicked"))
                    .collect()
            })
        };
        batch.verify_nanos = t_verify.elapsed().as_nanos() as u64;

        // Merge in deterministic (query, interval, range) order. Items
        // were created query-by-query over already-sorted interval sets,
        // each cut into ascending ranges, so ascending item index
        // reproduces the sequential append order. The inline
        // (single-worker) path produced them in that order already.
        if threads > 1 {
            outputs.sort_unstable_by_key(|o| o.item_idx);
        }
        let mut merged: Vec<Vec<MatchResult>> = plans.iter().map(|_| Vec::new()).collect();
        for out in outputs {
            let query = slots[items[out.item_idx].slot].query;
            let plan = &mut plans[query];
            let (points, v) = out.outcome?;
            plan.stats.points_fetched += points;
            plan.stats.absorb_cascade(&v.cascade);
            plan.stats.alloc_events += v.alloc_events;
            plan.stats.phase2_nanos += out.nanos;
            merged[query].extend(v.results);
        }

        for (target, before) in self.targets.iter().zip(&cache_before) {
            let delta = target.cache.stats().since(before);
            batch.row_cache.hits += delta.hits;
            batch.row_cache.misses += delta.misses;
            batch.row_cache.evictions += delta.evictions;
        }

        // Per-series split plus final per-query outputs.
        let mut per_target: Vec<SeriesBatchStats> = self
            .targets
            .iter()
            .map(|t| SeriesBatchStats { series: t.series, ..SeriesBatchStats::default() })
            .collect();
        let outputs: Vec<QueryOutput> = plans
            .into_iter()
            .zip(merged)
            .map(|(mut plan, mut results)| {
                // Top-k: reduce the accumulated survivors (still carrying
                // comparison-domain values) to the final k with the same
                // deterministic selection the sequential matcher applies,
                // then root the distances — worker interleaving only
                // affects which *excess* candidates were kept along the
                // way, never the selected set.
                if let Some(k) = plan.prep.spec.limit {
                    select_top_k(&mut results, k);
                    crate::matcher::finish_topk_distances(&plan.prep, &mut results);
                }
                plan.stats.matches = results.len() as u64;
                let s = &mut per_target[plan.target];
                s.queries += 1;
                s.probe_nanos += plan.stats.phase1_nanos;
                s.verify_nanos += plan.stats.phase2_nanos;
                s.probes += plan.probes;
                s.probe_cache_hits += plan.stats.probe_cache_hits;
                s.store_scans += plan.stats.index_accesses;
                s.work_items += plan.work_items;
                s.matches += plan.stats.matches;
                QueryOutput { results, stats: plan.stats }
            })
            .collect();
        let mut per_series: Vec<SeriesBatchStats> =
            per_target.into_iter().filter(|s| s.queries > 0).collect();
        per_series.sort_by_key(|s| s.series);
        Ok(BatchOutput { outputs, stats: batch, per_series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexBuildConfig;
    use crate::matcher::KvMatcher;
    use kvmatch_storage::memory::MemoryKvStoreBuilder;
    use kvmatch_storage::{KvStoreBuilder, MemoryKvStore, MemorySeriesStore};
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

    #[test]
    fn batch_equals_sequential_matcher() {
        let xs = composite_series(71, 6_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let specs = vec![
            QuerySpec::rsm_ed(xs[100..300].to_vec(), 12.0),
            QuerySpec::rsm_dtw(xs[900..1100].to_vec(), 6.0, 5),
            QuerySpec::cnsm_ed(xs[2500..2700].to_vec(), 2.0, 1.5, 3.0),
            QuerySpec::cnsm_dtw(xs[4000..4160].to_vec(), 2.0, 5, 1.5, 3.0),
        ];
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let exec = QueryExecutor::with_config(
            &idx,
            &data,
            ExecutorConfig { threads: 3, ..ExecutorConfig::default() },
        )
        .unwrap();
        let batch = exec.execute_batch(&specs).unwrap();
        assert_eq!(batch.outputs.len(), specs.len());
        for (spec, out) in specs.iter().zip(&batch.outputs) {
            let (want, want_stats) = matcher.execute(spec).unwrap();
            assert_eq!(out.results, want, "batched results must be bit-identical");
            assert_eq!(out.stats.candidates, want_stats.candidates);
            assert_eq!(out.stats.candidate_intervals, want_stats.candidate_intervals);
            assert_eq!(out.stats.matches, want_stats.matches);
            assert_eq!(out.stats.points_fetched, want_stats.points_fetched);
        }
        assert_eq!(batch.stats.series_touched, 1);
        assert_eq!(batch.per_series.len(), 1);
        assert_eq!(batch.per_series[0].queries, specs.len() as u64);
    }

    #[test]
    fn overlapping_queries_share_probes() {
        let xs = composite_series(73, 8_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        // The same query repeated: after the first, every probe is a hit.
        let q = xs[1000..1300].to_vec();
        let specs = vec![QuerySpec::rsm_ed(q, 10.0); 4];
        let exec = QueryExecutor::new(&idx, &data).unwrap();
        let batch = exec.execute_batch(&specs).unwrap();
        assert!(batch.stats.probe_cache_hits >= 3 * (300 / 50) - 3, "{:?}", batch.stats);
        assert!(batch.stats.row_cache.hits > 0);
        // Repeated queries' stats show the cache serving their rows.
        let repeat = &batch.outputs[1].stats;
        assert_eq!(repeat.index_accesses, 0, "fully cache-served probes issue no scans");
        assert!(repeat.probe_cache_hits > 0);
        assert!(repeat.rows_from_cache > 0);
    }

    #[test]
    fn cache_persists_across_batches() {
        let xs = composite_series(79, 4_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let exec = QueryExecutor::new(&idx, &data).unwrap();
        let specs = vec![QuerySpec::rsm_ed(xs[500..700].to_vec(), 8.0)];
        let first = exec.execute_batch(&specs).unwrap();
        let second = exec.execute_batch(&specs).unwrap();
        assert_eq!(first.outputs[0].results, second.outputs[0].results);
        assert_eq!(second.stats.store_scans, 0, "second batch fully cache-served");
        assert_eq!(second.stats.probe_cache_hits, second.stats.probes);
    }

    #[test]
    fn empty_batch_and_long_query() {
        let xs = composite_series(83, 1_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let exec = QueryExecutor::new(&idx, &data).unwrap();
        let empty = exec.execute_batch(&[]).unwrap();
        assert!(empty.outputs.is_empty());
        assert!(empty.per_series.is_empty());
        // A query longer than the series yields an empty result, like the
        // sequential matcher.
        let batch = exec.execute_batch(&[QuerySpec::rsm_ed(vec![0.0; 2_000], 5.0)]).unwrap();
        assert!(batch.outputs[0].results.is_empty());
        assert_eq!(batch.outputs[0].stats.candidates, 0);
    }

    #[test]
    fn invalid_query_fails_whole_batch() {
        let xs = composite_series(89, 1_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let exec = QueryExecutor::new(&idx, &data).unwrap();
        let specs = vec![
            QuerySpec::rsm_ed(xs[0..100].to_vec(), 5.0),
            QuerySpec::rsm_ed(vec![0.0; 20], 1.0),
        ];
        assert!(matches!(
            exec.execute_batch(&specs),
            Err(CoreError::QueryTooShort { query_len: 20, window: 50 })
        ));
    }

    #[test]
    fn mismatched_series_length_rejected() {
        let xs = composite_series(97, 1_000);
        let idx = build_index(&xs, 25);
        let other = MemorySeriesStore::new(vec![0.0; 500]);
        assert!(QueryExecutor::new(&idx, &other).is_err());
    }

    #[test]
    fn single_thread_config_still_correct() {
        let xs = composite_series(101, 3_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let exec = QueryExecutor::with_config(
            &idx,
            &data,
            ExecutorConfig { threads: 1, cache_capacity: 8, ..ExecutorConfig::default() },
        )
        .unwrap();
        let spec = QuerySpec::rsm_dtw(xs[700..900].to_vec(), 8.0, 6);
        let batch = exec.execute_batch(std::slice::from_ref(&spec)).unwrap();
        let (want, _) = matcher.execute(&spec).unwrap();
        assert_eq!(batch.outputs[0].results, want);
        assert_eq!(batch.stats.threads, 1);
    }

    /// Three single-series indexes served by one executor: a mixed batch
    /// routes each query to its series and stays bit-identical to
    /// dedicated sequential matchers.
    #[test]
    fn mixed_series_batch_routes_and_matches() {
        let ids = [SeriesId::new(1), SeriesId::new(2), SeriesId::new(5)];
        let series: Vec<Vec<f64>> = [111u64, 222, 333]
            .iter()
            .map(|&seed| composite_series(seed, 4_000 + (seed as usize % 7) * 500))
            .collect();
        // Build each series into one shared store via the prefix layout.
        let mut builder = MemoryKvStoreBuilder::new();
        for (id, xs) in ids.iter().zip(&series) {
            let (rows, _) = crate::build::build_rows(xs, IndexBuildConfig::new(50));
            KvIndex::<MemoryKvStore>::append_series_rows(
                &mut builder,
                *id,
                &rows,
                IndexBuildConfig::new(50),
                xs.len(),
            )
            .unwrap();
        }
        let store = std::sync::Arc::new(builder.finish().unwrap());
        let views: Vec<KvIndex<std::sync::Arc<MemoryKvStore>>> = ids
            .iter()
            .map(|id| KvIndex::open_series(std::sync::Arc::clone(&store), *id).unwrap())
            .collect();
        let stores: Vec<MemorySeriesStore> =
            series.iter().map(|xs| MemorySeriesStore::new(xs.clone())).collect();

        let exec = QueryExecutor::multi(
            ids.iter()
                .zip(&views)
                .zip(&stores)
                .map(|((id, v), d)| (*id, v, d, Arc::new(RowCache::new(1024)))),
            ExecutorConfig { threads: 4, ..ExecutorConfig::default() },
        )
        .unwrap();
        assert_eq!(exec.series(), ids.to_vec());

        // A mixed, interleaved batch: every query type, every series.
        let mut specs = Vec::new();
        for (i, (id, xs)) in ids.iter().zip(&series).enumerate() {
            let at = 300 + i * 157;
            specs.push(QuerySpec::rsm_ed(xs[at..at + 200].to_vec(), 10.0).with_series(*id));
            specs.push(QuerySpec::rsm_dtw(xs[at + 50..at + 250].to_vec(), 5.0, 6).with_series(*id));
            specs.push(
                QuerySpec::cnsm_ed(xs[at + 100..at + 300].to_vec(), 2.0, 1.5, 3.0).with_series(*id),
            );
        }
        // Interleave so no series' queries are contiguous.
        let interleaved: Vec<QuerySpec> =
            (0..3).flat_map(|k| specs.iter().skip(k).step_by(3).cloned()).collect();

        let batch = exec.execute_batch(&interleaved).unwrap();
        assert_eq!(batch.stats.series_touched, 3);
        assert_eq!(batch.per_series.len(), 3);
        for (spec, out) in interleaved.iter().zip(&batch.outputs) {
            let i = ids.iter().position(|id| *id == spec.series).unwrap();
            let solo_idx = build_index(&series[i], 50);
            let matcher = KvMatcher::new(&solo_idx, &stores[i]).unwrap();
            let (want, _) = matcher.execute(spec).unwrap();
            assert_eq!(out.results, want, "{} diverged", spec.series);
        }
        // The per-series split accounts for every query and match.
        assert_eq!(batch.per_series.iter().map(|s| s.queries).sum::<u64>(), 9);
        let total_matches: u64 = batch.outputs.iter().map(|o| o.stats.matches).sum();
        assert_eq!(batch.per_series.iter().map(|s| s.matches).sum::<u64>(), total_matches);
    }

    /// Batched top-k — with its shared, cross-worker threshold tightening
    /// — must stay bit-identical to the sequential matcher's top-k, for
    /// every query type and any thread count.
    #[test]
    fn batched_topk_equals_sequential_topk() {
        let mut xs = composite_series(113, 6_000);
        let q = xs[800..1000].to_vec();
        xs[4000..4200].copy_from_slice(&q); // exact tie for determinism stress
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let matcher = KvMatcher::new(&idx, &data).unwrap();
        let specs = vec![
            QuerySpec::rsm_ed(q.clone(), 40.0).top_k(3),
            QuerySpec::rsm_dtw(xs[1500..1700].to_vec(), 12.0, 6).top_k(4),
            QuerySpec::cnsm_ed(xs[2500..2700].to_vec(), 3.0, 1.5, 4.0).top_k(2),
            QuerySpec::cnsm_dtw(xs[3200..3360].to_vec(), 2.5, 5, 1.5, 4.0).top_k(2),
            // A mixed batch: range queries ride along unchanged.
            QuerySpec::rsm_ed(q, 10.0),
        ];
        for threads in [1usize, 4] {
            let exec = QueryExecutor::with_config(
                &idx,
                &data,
                ExecutorConfig { threads, ..ExecutorConfig::default() },
            )
            .unwrap();
            let batch = exec.execute_batch(&specs).unwrap();
            for (spec, out) in specs.iter().zip(&batch.outputs) {
                let (want, _) = matcher.execute(spec).unwrap();
                assert_eq!(out.results, want, "threads={threads} diverged for {spec:?}");
                if let Some(k) = spec.limit {
                    assert!(out.results.len() <= k);
                }
            }
        }
    }

    /// The adaptive cascade config knob must never change any result —
    /// stage demotion only re-routes candidates between admissible lower
    /// bounds and the exact kernel.
    #[test]
    fn adaptive_cascade_config_is_result_invariant() {
        let xs = composite_series(127, 5_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let specs = vec![
            QuerySpec::rsm_dtw(xs[900..1100].to_vec(), 8.0, 6),
            QuerySpec::cnsm_dtw(xs[2000..2160].to_vec(), 3.0, 5, 1.5, 3.0),
            QuerySpec::rsm_dtw(xs[3000..3200].to_vec(), 15.0, 6).top_k(3),
        ];
        let plain = QueryExecutor::new(&idx, &data).unwrap().execute_batch(&specs).unwrap();
        let adaptive = QueryExecutor::with_config(
            &idx,
            &data,
            ExecutorConfig {
                threads: 2,
                adaptive_cascade: Some(AdaptivePolicy {
                    window: 8,
                    min_prune_rate: 0.9, // demote as aggressively as possible
                    probation: 32,
                }),
                ..ExecutorConfig::default()
            },
        )
        .unwrap()
        .execute_batch(&specs)
        .unwrap();
        for (a, b) in plain.outputs.iter().zip(&adaptive.outputs) {
            assert_eq!(a.results, b.results, "adaptive cascade changed results");
        }
    }

    /// A failing interval fetch inside a worker fails the whole batch
    /// with the storage error, at any thread count — including when the
    /// interval is cut into several ranges that all try to fetch it.
    #[test]
    fn fetch_error_fails_the_batch() {
        struct FailingFetch(MemorySeriesStore);
        impl SeriesStore for FailingFetch {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn fetch(&self, _offset: usize, _len: usize) -> kvmatch_storage::Result<Vec<f64>> {
                Err(kvmatch_storage::StorageError::Corrupt("injected fetch failure".into()))
            }
            fn io_stats(&self) -> kvmatch_storage::IoStats {
                self.0.io_stats()
            }
        }
        let xs = composite_series(131, 4_000);
        let idx = build_index(&xs, 50);
        let data = FailingFetch(MemorySeriesStore::new(xs.clone()));
        // ε = ∞ admits every position: one interval, many ranges.
        let specs = [QuerySpec::rsm_dtw(xs[500..700].to_vec(), f64::INFINITY, 8)];
        for threads in [1usize, 4] {
            let exec = QueryExecutor::with_config(
                &idx,
                &data,
                ExecutorConfig { threads, ..ExecutorConfig::default() },
            )
            .unwrap();
            assert!(
                matches!(exec.execute_batch(&specs), Err(CoreError::Storage(_))),
                "threads={threads}"
            );
        }
    }

    /// A spec targeting a series the executor doesn't serve fails the
    /// batch up front.
    #[test]
    fn unknown_series_rejected() {
        let xs = composite_series(103, 1_000);
        let idx = build_index(&xs, 50);
        let data = MemorySeriesStore::new(xs.clone());
        let exec = QueryExecutor::new(&idx, &data).unwrap();
        let spec = QuerySpec::rsm_ed(xs[0..100].to_vec(), 5.0).with_series(SeriesId::new(42));
        assert!(matches!(
            exec.execute_batch(std::slice::from_ref(&spec)),
            Err(CoreError::UnknownSeries(id)) if id == SeriesId::new(42)
        ));
        assert!(exec.cache_for(SeriesId::new(42)).is_none());
        assert!(exec.cache_for(SeriesId::DEFAULT).is_some());
    }

    /// Same-window series must not alias in the caches: repeated mixed
    /// batches stay correct and the second run is fully cache-served.
    #[test]
    fn per_series_caches_do_not_alias() {
        let a = composite_series(107, 3_000);
        let b = composite_series(109, 3_000);
        let idx_a = build_index(&a, 50);
        let idx_b = build_index(&b, 50);
        let da = MemorySeriesStore::new(a.clone());
        let db = MemorySeriesStore::new(b.clone());
        let ida = SeriesId::new(1);
        let idb = SeriesId::new(2);
        // Rebind the single-series indexes as two catalog targets. The
        // indexes themselves are series 0 views, so probe keys would
        // collide if the executor shared one cache — each target's
        // private cache keeps them apart.
        let exec = QueryExecutor::multi(
            [
                (ida, &idx_a, &da, Arc::new(RowCache::new(512))),
                (idb, &idx_b, &db, Arc::new(RowCache::new(512))),
            ],
            ExecutorConfig { threads: 2, ..ExecutorConfig::default() },
        )
        .unwrap();
        let specs = vec![
            QuerySpec::rsm_ed(a[100..350].to_vec(), 8.0).with_series(ida),
            QuerySpec::rsm_ed(b[100..350].to_vec(), 8.0).with_series(idb),
        ];
        let first = exec.execute_batch(&specs).unwrap();
        let second = exec.execute_batch(&specs).unwrap();
        for (x, y) in first.outputs.iter().zip(&second.outputs) {
            assert_eq!(x.results, y.results);
        }
        assert_eq!(second.stats.store_scans, 0, "warm mixed batch is fully cache-served");
        // And each series' answers equal its dedicated matcher's.
        let (want_a, _) = KvMatcher::new(&idx_a, &da).unwrap().execute(&specs[0]).unwrap();
        let (want_b, _) = KvMatcher::new(&idx_b, &db).unwrap().execute(&specs[1]).unwrap();
        assert_eq!(first.outputs[0].results, want_a);
        assert_eq!(first.outputs[1].results, want_b);
    }
}
