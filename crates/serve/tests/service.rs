//! Behavioural tests of the serving layer: identity-preserving fan-back,
//! deadline expiry, error isolation, deterministic backpressure, ordered
//! appends and graceful shutdown.

mod common;

use std::sync::Arc;
use std::time::Duration;

use kvmatch_core::catalog::{CatalogBackend, GenerationInput};
use kvmatch_core::{
    Catalog, CoreError, IndexAppender, IndexBuildConfig, KvMatcher, MemoryCatalogBackend,
    QuerySpec, SeriesId,
};
use kvmatch_serve::{QueryKind, QueryRequest, QueryService, ServeError, Submit};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::{IoStats, MemorySeriesStore, SeriesStore};
use kvmatch_timeseries::generator::composite_series;

use common::Gate;

fn catalog_with(series: &[(SeriesId, Vec<f64>)]) -> Catalog<MemoryCatalogBackend> {
    let mut cat = Catalog::new(MemoryCatalogBackend);
    for (id, xs) in series {
        cat.create_series_with(*id, IndexBuildConfig::new(50), xs).unwrap();
    }
    cat
}

/// The sequential ground truth over the same (appender-built) layout the
/// catalog serves.
fn expected(xs: &[f64], spec: &QuerySpec) -> Vec<kvmatch_core::MatchResult> {
    let mut app = IndexAppender::new(IndexBuildConfig::new(50));
    app.push_chunk(xs);
    let (idx, _) = app.finish_into(MemoryKvStoreBuilder::new()).unwrap();
    let data = MemorySeriesStore::new(xs.to_vec());
    let (results, _) = KvMatcher::new(&idx, &data).unwrap().execute(spec).unwrap();
    results
}

#[test]
fn responses_preserve_request_identity() {
    let ids = [SeriesId::new(1), SeriesId::new(2)];
    let series: Vec<Vec<f64>> = vec![composite_series(11, 5_000), composite_series(12, 4_000)];
    let cat = catalog_with(&[(ids[0], series[0].clone()), (ids[1], series[1].clone())]);
    // A generous batching window so every submission lands in one batch.
    let service = QueryService::builder(cat)
        .max_batch_delay(Duration::from_millis(50))
        .build()
        .expect("valid topology");

    // Distinct queries with distinct answers, interleaved across series
    // and kinds.
    let mut requests = Vec::new();
    for (i, (id, xs)) in ids.iter().zip(&series).enumerate() {
        for k in 0..4usize {
            let at = 300 + 613 * k + 97 * i;
            let spec = QuerySpec::rsm_ed(xs[at..at + 200].to_vec(), 8.0).with_series(*id);
            let req = if k % 2 == 0 {
                QueryRequest::range(spec)
            } else {
                QueryRequest::top_k(spec, 1 + k)
            };
            requests.push((spec_key(&req), req));
        }
    }
    let handles: Vec<_> = requests
        .iter()
        .map(|(_, req)| service.submit(req.clone()).into_result().expect("submission accepted"))
        .collect();
    for ((key, req), handle) in requests.iter().zip(handles) {
        let resp = handle.wait().expect("served");
        let i = ids.iter().position(|id| *id == req.spec.series).unwrap();
        let want = expected(&series[i], &req.spec);
        assert_eq!(resp.results, want, "response crossed wires for request {key}");
        if let QueryKind::TopK(k) = req.kind() {
            assert!(resp.results.len() <= k);
        }
    }
    let m = service.metrics();
    assert_eq!(m.completed, 8);
    assert_eq!(m.submitted, 8);
    assert!(m.avg_batch_occupancy >= 1.0);
    assert!(m.latency_p50_us <= m.latency_p99_us);
    service.shutdown();
}

fn spec_key(req: &QueryRequest) -> String {
    format!("{:?}/{:?}/{}", req.spec.series, req.kind(), req.spec.query.len())
}

#[test]
fn zero_deadline_expires_before_dispatch() {
    let id = SeriesId::new(1);
    let xs = composite_series(21, 3_000);
    let service =
        QueryService::builder(catalog_with(&[(id, xs.clone())])).build().expect("valid topology");
    let req = QueryRequest::range(QuerySpec::rsm_ed(xs[100..300].to_vec(), 5.0).with_series(id))
        .with_deadline(Duration::ZERO);
    let outcome = service.submit(req).into_result().expect("submission accepted").wait();
    assert!(
        matches!(outcome, Err(ServeError::DeadlineExceeded)),
        "zero deadline must expire, got {outcome:?}"
    );
    let m = service.metrics();
    assert_eq!(m.expired, 1);
    assert_eq!(m.completed, 0);
    service.shutdown();
}

#[test]
fn bad_request_does_not_fail_its_batchmates() {
    let id = SeriesId::new(1);
    let xs = composite_series(31, 4_000);
    let service = QueryService::builder(catalog_with(&[(id, xs.clone())]))
        .max_batch_delay(Duration::from_millis(50))
        .build()
        .expect("valid topology");
    let good = QueryRequest::range(QuerySpec::rsm_ed(xs[500..700].to_vec(), 6.0).with_series(id));
    // Routed at a series the catalog does not host — fails the executor
    // batch as a unit, so the scheduler must isolate it.
    let bad = QueryRequest::range(
        QuerySpec::rsm_ed(xs[500..700].to_vec(), 6.0).with_series(SeriesId::new(99)),
    );
    let h_good1 = service.submit(good.clone()).into_result().expect("submission accepted");
    let h_bad = service.submit(bad).into_result().expect("submission accepted");
    let h_good2 = service.submit(good.clone()).into_result().expect("submission accepted");
    assert_eq!(h_good1.wait().expect("good request survives").results, expected(&xs, &good.spec));
    assert!(matches!(h_bad.wait(), Err(ServeError::Query(_))));
    assert_eq!(h_good2.wait().expect("good request survives").results, expected(&xs, &good.spec));
    let m = service.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.failed, 1);
    service.shutdown();
}

/// A volatile backend whose data stores park a fetch at the gate — it
/// holds an executor worker mid-verification for as long as a test needs.
struct FetchGatedBackend {
    inner: MemoryCatalogBackend,
    gate: Arc<Gate>,
}

struct GatedSeries {
    inner: MemorySeriesStore,
    gate: Arc<Gate>,
}

impl SeriesStore for GatedSeries {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, offset: usize, len: usize) -> kvmatch_storage::Result<Vec<f64>> {
        self.gate.enter();
        self.inner.fetch(offset, len)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}

impl CatalogBackend for FetchGatedBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = GatedSeries;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        let inner = self.inner.data_store(series, xs)?;
        Ok(GatedSeries { inner, gate: Arc::clone(&self.gate) })
    }
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let id = SeriesId::new(1);
    let xs = composite_series(41, 12_000);
    let gate = Arc::new(Gate::default());
    let mut catalog =
        Catalog::new(FetchGatedBackend { inner: MemoryCatalogBackend, gate: Arc::clone(&gate) });
    catalog.create_series_with(id, IndexBuildConfig::new(50), &xs).unwrap();
    // One worker, so the pipeline serializes: while the held query
    // executes, the front scheduler holds at most one further shard in
    // hand (blocked at the rendezvous hand-off waiting for the busy
    // worker) — everything behind it stays in the bounded queue.
    let service = QueryService::builder(catalog)
        .queue_capacity(2)
        .max_batch(1)
        .max_batch_delay(Duration::ZERO)
        .workers(1)
        .build()
        .expect("valid topology");
    // A query parked at the gate in its first fetch keeps the only
    // worker busy while the queue fills behind it.
    gate.arm();
    let heavy = QueryRequest::range(
        QuerySpec::rsm_dtw(xs[1_000..1_300].to_vec(), f64::INFINITY, 8).with_series(id),
    );
    let h_heavy = service.submit(heavy).into_result().expect("submission accepted");
    gate.wait_until_parked();
    let quick =
        || QueryRequest::range(QuerySpec::rsm_ed(xs[100..300].to_vec(), 1e-6).with_series(id));
    // q1 is drained into the next shard, which blocks at the hand-off.
    let q1 = service.submit(quick()).into_result().expect("submission accepted");
    while service.metrics().queue_depth > 0 {
        std::thread::yield_now();
    }
    // q2 + q3 now fill the 2-slot queue behind the blocked scheduler:
    // admission control must reject, handing the request back.
    let q2 = service.submit(quick()).into_result().expect("submission accepted");
    let q3 = service.submit(quick()).into_result().expect("submission accepted");
    match service.submit(quick()) {
        Submit::Rejected(r) => {
            assert!(r.is_retryable(), "a full queue is backpressure, not shutdown");
            assert_eq!(r.rejected.capacity, 2);
            assert_eq!(r.rejected.depth, 2, "rejection reports the observed queue state");
            assert_eq!(r.request.spec.query.len(), 200, "request comes back untouched");
        }
        other => panic!("expected rejection, got {}", submit_name(&other)),
    }
    // A timed submission gives up too while the queue stays full.
    assert!(matches!(
        service.submit_timeout(quick(), Duration::from_millis(10)),
        Submit::Rejected(_)
    ));
    // A turned-away append hands the points back unconsumed.
    let rejected = match service.append(id, vec![1.0, 2.0, 3.0], Duration::from_millis(5)) {
        Err(rejected) => rejected,
        Ok(_) => panic!("append into a full queue must be rejected"),
    };
    assert!(rejected.is_retryable());
    assert_eq!(
        rejected.rejected,
        kvmatch_serve::Rejected {
            kind: kvmatch_serve::RejectKind::Backpressure,
            capacity: 2,
            depth: 2,
            shard: 0
        },
        "append rejection carries the same shape as query rejection"
    );
    assert_eq!(rejected.points, vec![1.0, 2.0, 3.0], "points come back for retry");
    assert_eq!(service.metrics().rejected, 3);
    assert_eq!(service.metrics().queue_depth, 2);
    // Everything admitted is eventually served.
    gate.release();
    assert!(h_heavy.wait().is_ok());
    assert!(q1.wait().is_ok());
    assert!(q2.wait().is_ok());
    assert!(q3.wait().is_ok());
    service.shutdown();
}

fn submit_name(s: &Submit) -> &'static str {
    match s {
        Submit::Accepted(_) => "Accepted",
        Submit::Rejected(_) => "Rejected",
    }
}

#[test]
fn appends_are_ordered_with_queries() {
    let id = SeriesId::new(1);
    let xs = composite_series(51, 3_000);
    let service = QueryService::builder(catalog_with(&[(id, xs.clone())]))
        .max_batch_delay(Duration::from_millis(20))
        .build()
        .expect("valid topology");
    let fresh = composite_series(52, 400);
    // Submit an append and, behind it, a query for the appended points —
    // the append is a barrier, so the query must see them.
    let ack = service.append(id, fresh.clone(), Duration::from_secs(1)).unwrap();
    let probe =
        QueryRequest::range(QuerySpec::rsm_ed(fresh[50..300].to_vec(), 1e-9).with_series(id));
    let h = service.submit(probe).into_result().expect("submission accepted");
    ack.wait().unwrap();
    let resp = h.wait().unwrap();
    assert!(
        resp.results.iter().any(|r| r.offset == 3_050),
        "query behind the append must see appended points: {:?}",
        resp.results
    );
    assert_eq!(service.metrics().appends, 1);
    let catalog = service.shutdown();
    assert_eq!(catalog.series_len(id), Some(3_400));
}

#[test]
fn explain_returns_spans_and_mirrors_stats_without_changing_results() {
    let id = SeriesId::new(1);
    let xs = composite_series(71, 6_000);
    let service =
        QueryService::builder(catalog_with(&[(id, xs.clone())])).build().expect("valid topology");
    let spec = QuerySpec::rsm_dtw(xs[700..950].to_vec(), 10.0, 5).with_series(id);

    let plain = service
        .submit(QueryRequest::range(spec.clone()))
        .into_result()
        .expect("submission accepted")
        .wait()
        .expect("served");
    assert!(plain.explain.is_none(), "no explain flag, no report");

    let explained = service
        .submit(QueryRequest::range(spec.with_explain(true)))
        .into_result()
        .expect("submission accepted")
        .wait()
        .expect("served");
    assert_eq!(explained.results, plain.results, "explain must not perturb results");

    let report = explained.explain.as_deref().expect("explain flag yields a report");
    assert_ne!(report.trace_id, 0);
    let span = |name: &str| report.spans.iter().find(|s| s.name == name);
    let queue = span("serve.queue").expect("queue span recorded");
    let execute = span("serve.execute").expect("execute span recorded");
    assert_eq!(report.queue_nanos, queue.nanos);
    assert_eq!(report.execute_nanos, execute.nanos);
    assert!(execute.nanos > 0, "execution takes measurable time");

    // The report's prune accounting is the executor's, verbatim.
    let stats = &explained.stats;
    assert_eq!(report.probe_nanos, stats.phase1_nanos);
    assert_eq!(report.pruned_constraint, stats.pruned_constraint);
    assert_eq!(report.pruned_lb_kim, stats.pruned_lb_kim);
    assert_eq!(report.pruned_lb_keogh, stats.pruned_lb_keogh);
    assert_eq!(report.full_distance_computations, stats.full_distance_computations);
    assert_eq!(report.rows_scanned, stats.rows_scanned);
    assert_eq!(report.alloc_events, stats.alloc_events);

    // The service scrape exposes the serving families and the slow log
    // has seen both queries (capacity permitting).
    let text = service.metrics_text();
    assert!(text.contains("# TYPE kvmatch_serve_completed_total counter"), "{text}");
    assert!(text.contains("kvmatch_serve_latency_us_count"), "{text}");
    assert!(text.contains("# slowlog"), "{text}");
    service.shutdown();
}

#[test]
fn shutdown_serves_admitted_requests_and_closes_admissions() {
    let id = SeriesId::new(1);
    let xs = composite_series(61, 3_000);
    let service =
        QueryService::builder(catalog_with(&[(id, xs.clone())])).build().expect("valid topology");
    let spec = QuerySpec::rsm_ed(xs[200..400].to_vec(), 4.0).with_series(id);
    let handles: Vec<_> = (0..5)
        .map(|_| {
            service
                .submit(QueryRequest::range(spec.clone()))
                .into_result()
                .expect("submission accepted")
        })
        .collect();
    let want = expected(&xs, &spec);
    let catalog = service.shutdown();
    for h in handles {
        assert_eq!(h.wait().expect("admitted work is drained").results, want);
    }
    // The catalog comes back usable.
    assert_eq!(catalog.series_len(id), Some(3_000));
}
