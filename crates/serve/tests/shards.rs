//! Shard-per-core scale-out correctness suite.
//!
//! * A mixed-series batch scattered across a 4-shard service must come
//!   back **bit-identical** to the same batch through a 1-shard service
//!   and to dedicated sequential matchers — identity-preserving
//!   fan-back across the router.
//! * The router is total: an unknown series scatters cleanly, fails
//!   inside its shard as `UnknownSeries`, and its batchmates succeed.
//! * Backpressure is per shard: a saturated shard rejects with its own
//!   id while the other shards keep accepting — and a shard whose
//!   catalog write lock is parked mid-seal never slows another shard's
//!   readers (the steady-state query path takes no `RwLock<Catalog>`
//!   at all, and no cross-shard lock exists to contend on).
//! * A failing backend on one shard surfaces on that shard's appends
//!   and metrics only; the rest of the keyspace keeps serving.

mod common;

use std::sync::Arc;
use std::time::Duration;

use kvmatch_core::catalog::{CatalogBackend, GenerationInput};
use kvmatch_core::{
    Catalog, CoreError, IndexAppender, IndexBuildConfig, KvMatcher, MatchResult,
    MemoryCatalogBackend, QuerySpec, ReadView, SeriesId,
};
use kvmatch_serve::{
    ConfigError, QueryRequest, QueryService, RejectKind, Rejected, Router, ServeError, Submit,
};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::MemorySeriesStore;
use kvmatch_timeseries::generator::composite_series;

use common::Gate;

const SHARDS: usize = 4;

/// Eight series whose ids cover every residue mod 4, so a 4-shard
/// router puts exactly two series on every shard.
fn fixture() -> (Vec<SeriesId>, Vec<Vec<f64>>, Vec<QueryRequest>) {
    let ids: Vec<SeriesId> = (1..=8).map(SeriesId::new).collect();
    let series: Vec<Vec<f64>> =
        (0..8).map(|i| composite_series(701 + i as u64, 3_000 + 500 * i)).collect();
    let mut pool = Vec::new();
    for (i, (id, xs)) in ids.iter().zip(&series).enumerate() {
        for k in 0..3usize {
            let at = 250 + 677 * k + 131 * i;
            let q = xs[at..at + 180].to_vec();
            let req = match k % 3 {
                0 => QueryRequest::range(QuerySpec::rsm_ed(q, 8.0).with_series(*id)),
                1 => QueryRequest::top_k(QuerySpec::rsm_ed(q, 40.0).with_series(*id), 3),
                _ => QueryRequest::range(QuerySpec::rsm_dtw(q, 5.0, 5).with_series(*id)),
            };
            pool.push(req);
        }
    }
    (ids, series, pool)
}

fn service_over(
    ids: &[SeriesId],
    series: &[Vec<f64>],
    shards: usize,
) -> QueryService<MemoryCatalogBackend> {
    let mut catalog = Catalog::new(MemoryCatalogBackend);
    for (id, xs) in ids.iter().zip(series) {
        catalog.create_series_with(*id, IndexBuildConfig::new(50), xs).unwrap();
    }
    QueryService::builder(catalog)
        .shards(shards)
        .workers(2)
        .max_batch_delay(Duration::from_millis(2))
        .build()
        .expect("valid topology")
}

fn sequential_answers(
    ids: &[SeriesId],
    series: &[Vec<f64>],
    pool: &[QueryRequest],
) -> Vec<Vec<MatchResult>> {
    pool.iter()
        .map(|req| {
            let i = ids.iter().position(|id| *id == req.spec.series).unwrap();
            let mut app = IndexAppender::new(IndexBuildConfig::new(50));
            app.push_chunk(&series[i]);
            let (idx, _) = app.finish_into(MemoryKvStoreBuilder::new()).unwrap();
            let data = MemorySeriesStore::new(series[i].clone());
            let (want, _) = KvMatcher::new(&idx, &data).unwrap().execute(&req.spec).unwrap();
            want
        })
        .collect()
}

/// Scatters the whole pool as one mixed-series batch and gathers the
/// input-aligned outcomes (retrying rejected entries individually).
fn batch_answers(
    service: &QueryService<MemoryCatalogBackend>,
    pool: &[QueryRequest],
) -> Vec<Vec<MatchResult>> {
    let handles: Vec<_> = service
        .submit_batch(pool.to_vec())
        .into_iter()
        .map(|submit| match submit {
            Submit::Accepted(h) => h,
            Submit::Rejected(r) => loop {
                match service.submit_timeout(r.request.clone(), Duration::from_secs(5)) {
                    Submit::Accepted(h) => break h,
                    Submit::Rejected(r) if r.is_retryable() => continue,
                    Submit::Rejected(_) => panic!("service closed"),
                }
            },
        })
        .collect();
    handles.into_iter().map(|h| h.wait().expect("batch entry served").results).collect()
}

/// The tentpole acceptance: mixed-series batches through 4 shards,
/// through 1 shard, and through dedicated sequential matchers produce
/// byte-for-byte identical results — and the per-shard metric families
/// account for exactly the traffic the router assigned them.
#[test]
fn four_shard_scatter_gather_is_bit_identical() {
    let (ids, series, pool) = fixture();
    let sequential = sequential_answers(&ids, &series, &pool);

    let single = service_over(&ids, &series, 1);
    assert_eq!(single.shards(), 1);
    let single_answers = batch_answers(&single, &pool);
    single.shutdown();
    for (i, (got, want)) in single_answers.iter().zip(&sequential).enumerate() {
        assert_eq!(got, want, "1-shard service diverged from sequential (pool #{i})");
    }

    let sharded = service_over(&ids, &series, SHARDS);
    assert_eq!(sharded.shards(), SHARDS);
    assert_eq!(sharded.workers(), SHARDS * 2, "2 workers per shard");
    // Three rounds of the full mixed batch, so every shard sees repeat
    // traffic under concurrent scatter.
    for round in 0..3 {
        let sharded_answers = batch_answers(&sharded, &pool);
        for (i, (got, want)) in sharded_answers.iter().zip(&single_answers).enumerate() {
            assert_eq!(
                got, want,
                "round {round}: 4-shard result diverged from the 1-shard answer (pool #{i})"
            );
        }
    }

    // Fan-back preserved identity, and the shard label space accounts
    // for every request: per-shard counters sum to the globals, and
    // each shard's submitted count is exactly the pool share the
    // router assigned it.
    let m = sharded.metrics();
    assert_eq!(m.completed, (pool.len() * 3) as u64);
    assert_eq!(m.shards.len(), SHARDS);
    assert_eq!(m.shards.iter().map(|s| s.submitted).sum::<u64>(), m.submitted);
    assert_eq!(m.shards.iter().map(|s| s.completed).sum::<u64>(), m.completed);
    assert_eq!(m.shards.iter().map(|s| s.batches).sum::<u64>(), m.batches);
    let router = sharded.router();
    for shard in 0..SHARDS {
        let assigned =
            pool.iter().filter(|req| router.route(req.spec.series) == shard).count() as u64;
        assert_eq!(
            m.shards[shard].submitted,
            assigned * 3,
            "shard {shard} must see exactly its routed share"
        );
    }

    // The unified read path: every series resolves to its owning
    // shard's published snapshot, and the `ReadView` trait answers
    // through it without touching the service pipeline.
    for (id, xs) in ids.iter().zip(&series) {
        let view = sharded.read_view(*id).expect("owning shard has published");
        assert!(view.contains_series(*id));
        let spec = QuerySpec::rsm_ed(xs[100..280].to_vec(), 1e-9).with_series(*id);
        let out = view.execute(std::slice::from_ref(&spec)).expect("view executes");
        assert!(
            out.outputs[0].results.iter().any(|r| r.offset == 100),
            "read view lost the planted match"
        );
    }
    assert!(
        sharded.read_view(SeriesId::new(999)).is_none() || {
            // Series 999 routes to some shard; its snapshot exists but must
            // not claim to contain the unknown series.
            !sharded.read_view(SeriesId::new(999)).unwrap().contains_series(SeriesId::new(999))
        }
    );

    // The reassembled catalog holds every series.
    let catalog = sharded.shutdown();
    for (id, xs) in ids.iter().zip(&series) {
        assert_eq!(catalog.series_len(*id), Some(xs.len()));
    }
}

/// The router is total: unknown series scatter to a shard like any
/// other id and fail there as `UnknownSeries`, without disturbing the
/// batchmates sharing the scatter.
#[test]
fn unknown_series_fails_in_its_shard_while_batchmates_succeed() {
    let (ids, series, pool) = fixture();
    let sequential = sequential_answers(&ids, &series, &pool);
    let service = service_over(&ids, &series, SHARDS);

    let ghost = SeriesId::new(42);
    let mut batch = pool.clone();
    batch.insert(
        2,
        QueryRequest::range(QuerySpec::rsm_ed(series[0][50..250].to_vec(), 1.0).with_series(ghost)),
    );
    let handles: Vec<_> = service
        .submit_batch(batch)
        .into_iter()
        .map(|s| s.into_result().expect("scatter admits every entry"))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait();
        if i == 2 {
            match outcome {
                Err(ServeError::Query(CoreError::UnknownSeries(id))) => assert_eq!(id, ghost),
                other => panic!("ghost entry must fail as UnknownSeries, got {other:?}"),
            }
        } else {
            let want = &sequential[if i < 2 { i } else { i - 1 }];
            assert_eq!(
                &outcome.expect("batchmate served").results,
                want,
                "batchmate #{i} disturbed by the ghost entry"
            );
        }
    }
    let m = service.metrics();
    assert_eq!(m.failed, 1, "exactly the ghost entry failed");
    assert_eq!(m.completed, pool.len() as u64);
    service.shutdown();
}

/// Once armed for a series, the owning shard's next `seal_generation`
/// parks until released. Cloned per shard (`shard_instance`), sharing
/// the gate — only the shard that ingests the gated series ever parks.
#[derive(Clone)]
struct ShardGatedBackend {
    inner: MemoryCatalogBackend,
    gate: Arc<Gate>,
    gated: SeriesId,
}

impl CatalogBackend for ShardGatedBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = <MemoryCatalogBackend as CatalogBackend>::Data;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        if input.series == self.gated {
            self.gate.enter();
        }
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        self.inner.data_store(series, xs)
    }

    fn shard_instance(&self) -> Option<Self> {
        Some(self.clone())
    }
}

/// The no-cross-shard-coupling acceptance, in the snapshot-stall style:
/// one shard's ingest parks mid-seal *holding that shard's catalog
/// write lock*, its query lane backs up behind the per-series epoch
/// barrier until admission rejects — naming the saturated shard — and
/// the other shards' readers flow the whole time. Queries on healthy
/// shards complete while the gated shard's write lock is provably still
/// held, so the steady-state query path cannot be taking any
/// `RwLock<Catalog>` shared across shards.
#[test]
fn saturated_shard_rejects_with_its_id_while_others_serve() {
    // Series 1..=4 cover all four shards; series 1 (shard 1) is gated.
    let ids: Vec<SeriesId> = (1..=4).map(SeriesId::new).collect();
    let series: Vec<Vec<f64>> = (0..4).map(|i| composite_series(801 + i, 4_000)).collect();
    let gated = ids[0];
    let gate = Arc::new(Gate::default());
    let backend = ShardGatedBackend { inner: MemoryCatalogBackend, gate: Arc::clone(&gate), gated };
    let mut catalog = Catalog::new(backend);
    for (id, xs) in ids.iter().zip(&series) {
        catalog.create_series_with(*id, IndexBuildConfig::new(50), xs).unwrap();
    }
    // Tiny per-shard lanes with one worker each: once the gated shard's
    // worker parks at the epoch barrier, a handful of queued queries
    // saturates its admission.
    let queue_capacity = 4;
    let service = QueryService::builder(catalog)
        .shards(SHARDS)
        .workers(1)
        .queue_capacity(queue_capacity)
        .max_batch(4)
        .max_batch_delay(Duration::ZERO)
        .build()
        .expect("valid topology");
    let router = *service.router();
    let gated_shard = router.route(gated);

    // Park the gated shard's ingest mid-seal.
    gate.arm();
    let tail = composite_series(899, 2_000);
    let ack = service.append(gated, tail.clone(), Duration::from_secs(10)).expect("admitted");
    gate.wait_until_parked();

    // Fill the gated shard's lane with queries barriered behind the
    // append until admission pushes back. The rejection names the shard.
    let probe = || {
        QueryRequest::range(
            QuerySpec::rsm_ed(series[0][300..500].to_vec(), 1e-9).with_series(gated),
        )
    };
    let mut parked = Vec::new();
    let rejection: Rejected = loop {
        match service.submit(probe()) {
            Submit::Accepted(h) => parked.push(h),
            Submit::Rejected(r) if r.is_retryable() => break r.rejected,
            Submit::Rejected(_) => panic!("service closed mid-test"),
        }
        assert!(
            parked.len() <= 3 * queue_capacity,
            "the gated shard's pipeline must be bounded (queue + one in-flight batch)"
        );
    };
    assert_eq!(rejection.kind, RejectKind::Backpressure);
    assert_eq!(
        rejection.shard, gated_shard,
        "the rejection must name the saturated shard, not the service"
    );
    assert_eq!(rejection.capacity, queue_capacity);

    // Every OTHER shard accepts and serves while the gated shard is
    // still parked — proving per-shard admission and a query path free
    // of cross-shard locking (shard 1's catalog write lock is held by
    // the parked seal the whole time).
    for (i, id) in ids.iter().enumerate().skip(1) {
        let other = QueryRequest::range(
            QuerySpec::rsm_ed(series[i][700..900].to_vec(), 1e-9).with_series(*id),
        );
        let resp = service
            .submit_timeout(other, Duration::from_secs(10))
            .into_result()
            .unwrap_or_else(|r| panic!("healthy shard {} rejected: {r:?}", router.route(*id)))
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("healthy-shard query starved behind another shard's stall"))
            .expect("healthy-shard query succeeded");
        assert!(resp.results.iter().any(|r| r.offset == 700));
    }
    assert!(gate.is_parked(), "seal released early; the independence assertions proved nothing");

    // Release: the ack lands, the parked queries drain with post-append
    // answers, and the whole keyspace is intact on shutdown.
    gate.release();
    ack.wait().expect("append applied");
    for handle in parked {
        let resp = handle.wait().expect("barriered query served after release");
        assert!(resp.results.iter().any(|r| r.offset == 300));
    }

    let m = service.metrics();
    assert!(m.rejected >= 1);
    assert_eq!(
        m.shards[gated_shard].rejected, m.rejected,
        "every rejection came from the gated shard"
    );
    for (i, shard) in m.shards.iter().enumerate() {
        if i != gated_shard {
            assert_eq!(shard.rejected, 0, "healthy shard {i} must not have pushed back");
        }
    }
    let catalog = service.shutdown();
    assert_eq!(catalog.series_len(gated), Some(4_000 + 2_000));
}

/// A backend that fails every seal of one series — cloned per shard, so
/// exactly one shard's ingest goes bad.
#[derive(Clone)]
struct ShardFailingBackend {
    inner: MemoryCatalogBackend,
    poisoned: SeriesId,
}

impl CatalogBackend for ShardFailingBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = <MemoryCatalogBackend as CatalogBackend>::Data;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        if input.series == self.poisoned {
            return Err(CoreError::CorruptIndex("injected shard failure".into()));
        }
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        self.inner.data_store(series, xs)
    }

    fn shard_instance(&self) -> Option<Self> {
        Some(self.clone())
    }
}

/// Shard-failure isolation: a backend failure on one shard surfaces on
/// that shard's acks and its labelled metrics; appends and queries on
/// every other shard keep working untouched.
#[test]
fn shard_failure_stays_on_its_shard() {
    let ids: Vec<SeriesId> = (1..=4).map(SeriesId::new).collect();
    let poisoned = ids[1];
    let mut catalog = Catalog::new(ShardFailingBackend { inner: MemoryCatalogBackend, poisoned });
    let series: Vec<Vec<f64>> = (0..4).map(|i| composite_series(901 + i, 3_000)).collect();
    for (i, (id, xs)) in ids.iter().zip(&series).enumerate() {
        catalog.create_series(*id, IndexBuildConfig::new(50)).unwrap();
        catalog.append(*id, xs).unwrap();
        // Seed generations exist for every healthy series; the poisoned
        // one stays unmaterialized (its seals always fail).
        let _ = i;
    }
    let _ = catalog.materialize(); // poisoned series fails; others publish
    let service =
        QueryService::builder(catalog).shards(SHARDS).workers(1).build().expect("valid topology");
    let bad_shard = service.router().route(poisoned);

    // An append to the poisoned series fails its ack with the injected
    // error...
    let err = service
        .append(poisoned, composite_series(950, 500), Duration::from_secs(10))
        .expect("append admitted")
        .wait()
        .expect_err("poisoned seal must fail the ack");
    assert!(
        matches!(&err, ServeError::Materialize(msg) if msg.contains("injected shard failure")),
        "unexpected ack error: {err:?}"
    );

    // ...while appends and queries on every other shard land clean.
    for (i, id) in ids.iter().enumerate() {
        if *id == poisoned {
            continue;
        }
        service
            .append(*id, composite_series(960 + i as u64, 500), Duration::from_secs(10))
            .expect("append admitted")
            .wait()
            .expect("healthy shard's append applied");
        let probe = QueryRequest::range(
            QuerySpec::rsm_ed(series[i][500..700].to_vec(), 1e-9).with_series(*id),
        );
        let resp = service
            .submit_timeout(probe, Duration::from_secs(10))
            .into_result()
            .expect("accepted")
            .wait()
            .expect("healthy shard serves");
        assert!(resp.results.iter().any(|r| r.offset == 500));
    }

    let m = service.metrics();
    assert!(m.materialize_failures >= 1, "the failure must be counted");
    assert_eq!(m.shards.len(), SHARDS);
    assert_eq!(m.shards[bad_shard].appends, 1, "the poisoned shard saw exactly its append");
    let healthy_appends: u64 =
        m.shards.iter().enumerate().filter(|(i, _)| *i != bad_shard).map(|(_, s)| s.appends).sum();
    assert_eq!(healthy_appends, 3, "three healthy appends across the other shards");
    drop(service);
}

/// The validating builder: every invalid topology is rejected before
/// any thread spawns, with a typed, matchable error.
#[test]
fn builder_rejects_invalid_topologies() {
    let make = || {
        let mut c = Catalog::new(MemoryCatalogBackend);
        c.create_series_with(SeriesId::new(1), IndexBuildConfig::new(50), &[0.0; 500]).unwrap();
        c
    };
    assert_eq!(
        QueryService::builder(make()).shards(0).build().err(),
        Some(ConfigError::ZeroShards)
    );
    assert_eq!(
        QueryService::builder(make()).workers(0).build().err(),
        Some(ConfigError::ZeroWorkers)
    );
    assert_eq!(
        QueryService::builder(make()).max_batch(0).build().err(),
        Some(ConfigError::ZeroBatch)
    );
    assert_eq!(
        QueryService::builder(make()).queue_capacity(4).max_batch(8).build().err(),
        Some(ConfigError::QueueSmallerThanBatch { queue_capacity: 4, max_batch: 8 })
    );

    // A backend without `shard_instance` support only serves
    // single-shard: asking for more is a typed error, not a panic.
    struct Unshardable(MemoryCatalogBackend);
    impl CatalogBackend for Unshardable {
        type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
        type Data = <MemoryCatalogBackend as CatalogBackend>::Data;
        fn seal_generation(
            &mut self,
            input: GenerationInput<'_>,
        ) -> Result<Self::Store, CoreError> {
            self.0.seal_generation(input)
        }
        fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
            self.0.data_store(series, xs)
        }
    }
    let mut catalog = Catalog::new(Unshardable(MemoryCatalogBackend));
    catalog.create_series_with(SeriesId::new(1), IndexBuildConfig::new(50), &[0.0; 500]).unwrap();
    assert_eq!(
        QueryService::builder(catalog).shards(2).build().err(),
        Some(ConfigError::UnshardableBackend { shards: 2 })
    );
    // ...but the same backend at one shard is fine.
    let mut catalog = Catalog::new(Unshardable(MemoryCatalogBackend));
    catalog.create_series_with(SeriesId::new(1), IndexBuildConfig::new(50), &[0.0; 500]).unwrap();
    QueryService::builder(catalog).build().expect("single shard needs no shard_instance");

    // The router itself is pure arithmetic and clamps to ≥ 1 shard.
    let router = Router::new(SHARDS);
    for raw in 0..64u64 {
        assert_eq!(router.route(SeriesId::new(raw)), (raw % SHARDS as u64) as usize);
    }
}
