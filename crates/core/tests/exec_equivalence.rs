//! Batched-vs-sequential equivalence: for random workloads, the
//! [`QueryExecutor`] must return exactly what per-query [`KvMatcher`]
//! execution returns — same offsets, bit-identical distances — for every
//! query type, thread count and cache configuration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvmatch_core::{
    ExecutorConfig, IndexBuildConfig, KvIndex, KvMatcher, MatchResult, QueryExecutor, QuerySpec,
};
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

/// Draws a random workload of all four query types, with queries sampled
/// from the series itself (jittered ε so selectivity varies).
fn random_specs(xs: &[f64], count: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let m = rng.random_range(100..260);
            let off = rng.random_range(0..=xs.len() - m);
            let q = xs[off..off + m].to_vec();
            match rng.random_range(0..4u32) {
                0 => QuerySpec::rsm_ed(q, rng.random_range(0.5..20.0)),
                1 => QuerySpec::rsm_dtw(q, rng.random_range(0.5..10.0), rng.random_range(1..8)),
                2 => QuerySpec::cnsm_ed(
                    q,
                    rng.random_range(0.5..4.0),
                    rng.random_range(1.1..2.0),
                    rng.random_range(0.5..6.0),
                ),
                _ => QuerySpec::cnsm_dtw(
                    q,
                    rng.random_range(0.5..3.0),
                    rng.random_range(1..6),
                    rng.random_range(1.1..2.0),
                    rng.random_range(0.5..6.0),
                ),
            }
        })
        .collect()
}

fn assert_batch_equals_sequential(seed: u64, n: usize, w: usize, threads: usize, queries: usize) {
    let xs = composite_series(seed, n);
    let idx = build_index(&xs, w);
    let data = MemorySeriesStore::new(xs.clone());
    let specs = random_specs(&xs, queries, seed.wrapping_mul(7919));
    let matcher = KvMatcher::new(&idx, &data).unwrap();
    let exec = QueryExecutor::with_config(
        &idx,
        &data,
        ExecutorConfig { threads, cache_capacity: 512, ..ExecutorConfig::default() },
    )
    .unwrap();
    let batch = exec.execute_batch(&specs).unwrap();
    assert_eq!(batch.outputs.len(), specs.len());
    let mut total_matches = 0u64;
    for (i, (spec, out)) in specs.iter().zip(&batch.outputs).enumerate() {
        let (want, want_stats) = matcher.execute(spec).unwrap();
        assert_eq!(
            out.results, want,
            "query {i} (seed {seed}, threads {threads}): batched differs from sequential"
        );
        // Phase-1 candidate accounting is also identical: caching changes
        // *where* rows come from, never which candidates are produced.
        assert_eq!(out.stats.candidates, want_stats.candidates, "query {i} candidates");
        assert_eq!(
            out.stats.candidate_intervals, want_stats.candidate_intervals,
            "query {i} intervals"
        );
        assert_eq!(out.stats.matches, want_stats.matches, "query {i} matches");
        assert_eq!(
            out.stats.full_distance_computations, want_stats.full_distance_computations,
            "query {i} full distances"
        );
        total_matches += out.stats.matches;
    }
    assert!(total_matches > 0, "workload (seed {seed}) should produce at least one match");
}

#[test]
fn random_workloads_match_ed_and_dtw() {
    assert_batch_equals_sequential(1101, 6_000, 50, 4, 10);
    assert_batch_equals_sequential(1103, 5_000, 40, 2, 8);
}

#[test]
fn random_workload_single_thread() {
    assert_batch_equals_sequential(1109, 4_000, 50, 1, 6);
}

#[test]
fn random_workload_more_threads_than_items() {
    assert_batch_equals_sequential(1117, 3_000, 25, 16, 4);
}

fn bits(results: &[MatchResult]) -> Vec<(usize, u64)> {
    results.iter().map(|r| (r.offset, r.distance.to_bits())).collect()
}

/// Candidate sets holding intervals at least 4× a work item's range, so
/// phase 2 cuts them into bounded ranges over one fetched block. Answers
/// stay bit-identical to the sequential matcher at every thread count —
/// the cNSM-DTW case pins the per-interval µ/σ anchor — and so do the
/// candidate, fetch and (for range queries) cascade counters.
#[test]
fn intervals_split_into_ranges_match_sequential() {
    let xs = composite_series(1129, 6_000);
    let idx = build_index(&xs, 50);
    let data = MemorySeriesStore::new(xs.clone());
    let matcher = KvMatcher::new(&idx, &data).unwrap();
    // Candidates per range → largest candidate interval: m = 192, ρ = 8:
    // 245 → 1 114 (top-k: 2 078); m = 160, ρ = 5: 454 → 2 374; ED with
    // m = 800: 1 000 → 5 201.
    let specs = [
        QuerySpec::rsm_dtw(xs[1_000..1_192].to_vec(), 120.0, 8),
        QuerySpec::cnsm_dtw(xs[2_500..2_660].to_vec(), 6.0, 5, 3.0, 20.0),
        QuerySpec::rsm_dtw(xs[4_000..4_192].to_vec(), 120.0, 8).top_k(5),
        QuerySpec::rsm_ed(xs[3_000..3_800].to_vec(), 320.0),
    ];
    for spec in &specs {
        let (want, want_stats) = matcher.execute(spec).unwrap();
        assert!(!want.is_empty(), "{:?}: vacuous case", spec.measure);
        for threads in [1usize, 2, 4] {
            let exec = QueryExecutor::with_config(
                &idx,
                &data,
                ExecutorConfig { threads, ..ExecutorConfig::default() },
            )
            .unwrap();
            let batch = exec.execute_batch(std::slice::from_ref(spec)).unwrap();
            let got = &batch.outputs[0];
            let case = format!("{:?} top-k {:?}, threads {threads}", spec.measure, spec.limit);
            assert_eq!(bits(&got.results), bits(&want), "{case}: answers differ");
            assert_eq!(got.stats.candidates, want_stats.candidates, "{case}");
            assert_eq!(got.stats.candidate_intervals, want_stats.candidate_intervals, "{case}");
            assert_eq!(got.stats.points_fetched, want_stats.points_fetched, "{case}");
            assert!(
                batch.stats.work_items >= want_stats.candidate_intervals + 3,
                "{case}: no interval split into 4+ ranges ({} items over {} intervals)",
                batch.stats.work_items,
                want_stats.candidate_intervals
            );
            if spec.limit.is_none() {
                // Top-k cascade counts depend on how fast the shared
                // threshold tightens; range-query counts cannot.
                assert_eq!(got.stats.pruned_constraint, want_stats.pruned_constraint, "{case}");
                assert_eq!(got.stats.pruned_lb_kim, want_stats.pruned_lb_kim, "{case}");
                assert_eq!(got.stats.pruned_lb_keogh, want_stats.pruned_lb_keogh, "{case}");
                assert_eq!(
                    got.stats.full_distance_computations, want_stats.full_distance_computations,
                    "{case}"
                );
            }
        }
    }
    // All four in one batch: more work items than candidate intervals.
    let exec = QueryExecutor::with_config(
        &idx,
        &data,
        ExecutorConfig { threads: 2, ..ExecutorConfig::default() },
    )
    .unwrap();
    let batch = exec.execute_batch(&specs).unwrap();
    let intervals: u64 = batch.outputs.iter().map(|o| o.stats.candidate_intervals).sum();
    assert!(batch.stats.work_items > intervals, "{:?}", batch.stats);
    for (spec, out) in specs.iter().zip(&batch.outputs) {
        assert_eq!(bits(&out.results), bits(&matcher.execute(spec).unwrap().0));
    }
}

#[test]
fn repeated_batches_stay_equivalent_with_warm_cache() {
    // A warm row cache must not change any result across repeated batches.
    let xs = composite_series(1123, 5_000);
    let idx = build_index(&xs, 50);
    let data = MemorySeriesStore::new(xs.clone());
    let specs = random_specs(&xs, 6, 99);
    let matcher = KvMatcher::new(&idx, &data).unwrap();
    let exec = QueryExecutor::new(&idx, &data).unwrap();
    let first = exec.execute_batch(&specs).unwrap();
    let second = exec.execute_batch(&specs).unwrap();
    for ((spec, a), b) in specs.iter().zip(&first.outputs).zip(&second.outputs) {
        let (want, _) = matcher.execute(spec).unwrap();
        assert_eq!(a.results, want);
        assert_eq!(b.results, want);
    }
    assert!(
        second.stats.probe_cache_hits == second.stats.probes,
        "second batch should be fully cache-served: {:?}",
        second.stats
    );
}
