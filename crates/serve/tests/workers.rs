//! Multi-worker correctness suite.
//!
//! * 8 concurrent submitters against a 4-worker pool must produce, for
//!   every single request, results **bit-identical** to the same request
//!   served by a single-worker pool (and to the sequential matcher).
//! * Appends act as ordering barriers **for their own series only**: a
//!   query behind an append sees its points, while a query on another
//!   series flows through the pool without waiting for ingestion.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kvmatch_core::{
    Catalog, IndexAppender, IndexBuildConfig, KvMatcher, MatchResult, MemoryCatalogBackend,
    QuerySpec, SeriesId,
};
use kvmatch_serve::{QueryRequest, QueryService, Submit};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::MemorySeriesStore;
use kvmatch_timeseries::generator::composite_series;

use common::{Gate, SealGatedBackend};

const SUBMITTERS: usize = 8;
const REQUESTS_PER_THREAD: usize = 24;

fn fixture() -> (Vec<SeriesId>, Vec<Vec<f64>>, Vec<QueryRequest>) {
    // Four series so a 4-worker pool can be fully utilized.
    let ids = [SeriesId::new(1), SeriesId::new(3), SeriesId::new(5), SeriesId::new(8)];
    let series: Vec<Vec<f64>> = vec![
        composite_series(301, 6_000),
        composite_series(302, 5_000),
        composite_series(303, 7_000),
        composite_series(304, 4_500),
    ];
    // Mixed pool: every query type, every series, with planted top-k
    // ties so deterministic tie-breaking is exercised across workers.
    let mut pool = Vec::new();
    for (i, (id, xs)) in ids.iter().zip(&series).enumerate() {
        for k in 0..4usize {
            let at = 350 + 823 * k + 151 * i;
            let q = xs[at..at + 200].to_vec();
            let req = match k % 4 {
                0 => QueryRequest::range(QuerySpec::rsm_ed(q, 10.0).with_series(*id)),
                1 => QueryRequest::top_k(QuerySpec::rsm_ed(q, 50.0).with_series(*id), 3),
                2 => QueryRequest::range(QuerySpec::rsm_dtw(q, 6.0, 5).with_series(*id)),
                _ => QueryRequest::top_k(QuerySpec::cnsm_ed(q, 3.0, 1.5, 4.0).with_series(*id), 4),
            };
            pool.push(req);
        }
    }
    (ids.to_vec(), series, pool)
}

fn catalog_over(
    ids: &[SeriesId],
    series: &[Vec<f64>],
    workers: usize,
) -> QueryService<MemoryCatalogBackend> {
    let mut catalog = Catalog::new(MemoryCatalogBackend);
    for (id, xs) in ids.iter().zip(series) {
        catalog.create_series_with(*id, IndexBuildConfig::new(50), xs).unwrap();
    }
    QueryService::builder(catalog)
        .queue_capacity(8)
        .max_batch(8)
        .max_batch_delay(Duration::from_millis(1))
        .workers(workers)
        .build()
        .expect("valid topology")
}

/// Drives the whole pool through `service` once per entry, serially, and
/// collects per-entry results — the single-worker reference answers.
fn reference_answers(
    service: &QueryService<MemoryCatalogBackend>,
    pool: &[QueryRequest],
) -> Vec<Vec<MatchResult>> {
    pool.iter()
        .map(|req| {
            let handle = loop {
                match service.submit_timeout(req.clone(), Duration::from_secs(5)) {
                    Submit::Accepted(h) => break h,
                    Submit::Rejected(r) if r.is_retryable() => continue,
                    Submit::Rejected(_) => panic!("service closed"),
                }
            };
            handle.wait().expect("reference request served").results
        })
        .collect()
}

#[test]
fn four_workers_bit_identical_with_single_worker() {
    let (ids, series, pool) = fixture();

    // Reference 1: the sequential matcher over the same appender-built
    // layout the catalog materializes.
    let sequential: Vec<Vec<MatchResult>> = pool
        .iter()
        .map(|req| {
            let i = ids.iter().position(|id| *id == req.spec.series).unwrap();
            let mut app = IndexAppender::new(IndexBuildConfig::new(50));
            app.push_chunk(&series[i]);
            let (idx, _) = app.finish_into(MemoryKvStoreBuilder::new()).unwrap();
            let data = MemorySeriesStore::new(series[i].clone());
            let (want, _) = KvMatcher::new(&idx, &data).unwrap().execute(&req.spec).unwrap();
            want
        })
        .collect();

    // Reference 2: the same requests through a single-worker service.
    let single = catalog_over(&ids, &series, 1);
    let single_answers = reference_answers(&single, &pool);
    single.shutdown();
    for (i, (got, want)) in single_answers.iter().zip(&sequential).enumerate() {
        assert_eq!(got, want, "single-worker service diverged from sequential (pool #{i})");
    }

    // Stress: 8 submitters hammer a 4-worker pool with the same pool.
    let service = catalog_over(&ids, &series, 4);
    assert_eq!(service.workers(), 4);
    let local_rejections = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..SUBMITTERS {
            let service = &service;
            let pool = &pool;
            let single_answers = &single_answers;
            let local_rejections = &local_rejections;
            scope.spawn(move || {
                for r in 0..REQUESTS_PER_THREAD {
                    let which = (t * 5 + r) % pool.len();
                    let mut request = pool[which].clone();
                    let handle = loop {
                        match service.submit(request) {
                            Submit::Accepted(h) => break h,
                            Submit::Rejected(r) if r.is_retryable() => {
                                local_rejections.fetch_add(1, Ordering::Relaxed);
                                request = r.request;
                            }
                            Submit::Rejected(_) => panic!("service closed mid-test"),
                        }
                        match service.submit_timeout(request, Duration::from_millis(50)) {
                            Submit::Accepted(h) => break h,
                            Submit::Rejected(r) if r.is_retryable() => {
                                local_rejections.fetch_add(1, Ordering::Relaxed);
                                request = r.request;
                            }
                            Submit::Rejected(_) => panic!("service closed mid-test"),
                        }
                    };
                    let response = handle.wait().expect("admitted requests are served");
                    assert_eq!(
                        response.results, single_answers[which],
                        "thread {t} request {r} (pool #{which}): 4-worker result diverged \
                         from the single-worker answer"
                    );
                }
            });
        }
    });

    let m = service.metrics();
    let offered = (SUBMITTERS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(m.completed, offered, "every request answered exactly once");
    assert_eq!(m.submitted, offered);
    assert_eq!(
        m.rejected,
        local_rejections.load(Ordering::Relaxed),
        "rejection counter agrees with the submitters' tally"
    );
    assert_eq!(m.failed, 0);
    assert_eq!(m.expired, 0);
    assert_eq!(m.expired_exec, 0);
    // The per-worker split accounts for every dispatched shard/query.
    assert_eq!(m.workers.len(), 4);
    assert_eq!(m.workers.iter().map(|w| w.batches).sum::<u64>(), m.batches);
    assert_eq!(m.workers.iter().map(|w| w.queries).sum::<u64>(), m.batched_queries);
    assert!(m.workers.iter().any(|w| w.busy_us > 0), "somebody must have done the work");
    assert!(m.max_batch_occupancy <= 8, "shards never exceed max_batch");
    service.shutdown();
}

/// Appends barrier their own series; other series' queries flow past.
#[test]
fn appends_barrier_own_series_while_other_series_flow() {
    let a = SeriesId::new(1);
    let b = SeriesId::new(2);
    let base_a = composite_series(401, 4_000);
    let base_b = composite_series(402, 4_000);
    // Series a's ingest parks mid-seal at the gate until b's query is
    // answered, so "b did not wait for a's ingestion" is an ordering
    // fact, not a race against how fast the burst materializes.
    let gate = Arc::new(Gate::default());
    let mut catalog = Catalog::new(SealGatedBackend::new(&gate));
    catalog.create_series_with(a, IndexBuildConfig::new(50), &base_a).unwrap();
    catalog.create_series_with(b, IndexBuildConfig::new(50), &base_b).unwrap();
    let service = QueryService::builder(catalog)
        .max_batch_delay(Duration::from_millis(25))
        .workers(2)
        .build()
        .expect("valid topology");
    let probe_b =
        QueryRequest::range(QuerySpec::rsm_ed(base_b[700..900].to_vec(), 1e-9).with_series(b));
    // Warm-up proves the startup snapshot is published before the gate
    // arms.
    let submit = |request| {
        service.submit_timeout(request, Duration::from_secs(10)).into_result().expect("accepted")
    };
    submit(probe_b.clone()).wait().expect("warm-up served");

    // A heavy ingest burst on series a: the first append parks the
    // ingest lane mid-seal, the other seven queue up behind it...
    gate.arm();
    let tail: Vec<Vec<f64>> = (0..8).map(|i| composite_series(410 + i, 10_000)).collect();
    let append = |chunk: &Vec<f64>| service.append(a, chunk.clone(), Duration::from_secs(10));
    let mut acks = vec![append(&tail[0]).unwrap()];
    gate.wait_until_parked();
    acks.extend(tail[1..].iter().map(|chunk| append(chunk).unwrap()));
    // ...then a query on a (must observe every appended point) and a
    // query on b (must not wait for the ingestion).
    let last = tail.last().unwrap();
    let probe_a =
        QueryRequest::range(QuerySpec::rsm_ed(last[9_700..9_950].to_vec(), 1e-9).with_series(a));
    let h_a = submit(probe_a);
    let h_b = submit(probe_b);

    let resp_b = h_b.wait().expect("series-b query served");
    assert!(gate.is_parked(), "series-b query was answered while a's ingest was parked");
    gate.release();
    let resp_a = h_a.wait().expect("series-a query served");
    for ack in acks {
        ack.wait().expect("append applied");
    }

    // Barrier: the query behind the appends sees the very last chunk
    // (offset 4_000 + 7·10_000 + 9_700 into the full stream).
    assert!(
        resp_a.results.iter().any(|r| r.offset == 4_000 + 7 * 10_000 + 9_700),
        "query behind the appends must see every appended point: {:?}",
        resp_a.results
    );
    assert!(resp_b.results.iter().any(|r| r.offset == 700), "series-b self-match lost");
    // Flow: b's query — submitted *after* a's — was not held behind a's
    // ingest barrier. Its latency must undercut the barriered query's,
    // which had to wait for all eight appends to land and materialize.
    assert!(
        resp_b.latency < resp_a.latency,
        "other-series query should not wait for the ingest barrier \
         (b: {:?}, a: {:?})",
        resp_b.latency,
        resp_a.latency
    );

    let m = service.metrics();
    assert_eq!(m.appends, 8);
    assert_eq!(m.completed, 3);
    assert!(m.ingest_depth_peak >= 1, "the ingest lane carried the appends");

    // And the handed-back catalog holds the full stream.
    let catalog = service.shutdown();
    assert_eq!(catalog.series_len(a), Some(4_000 + 80_000));
    assert_eq!(catalog.series_len(b), Some(4_000));
}
