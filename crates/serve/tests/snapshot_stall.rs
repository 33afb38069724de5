//! The tentpole's serving guarantee: readers are never blocked by
//! ingestion for longer than a snapshot pointer swap.
//!
//! A gated backend parks `seal_generation` mid-materialization — the
//! ingest lane is then stuck holding the catalog's *write* lock for an
//! arbitrarily long "compaction". Queries submitted during the stall
//! must still complete (served from the pinned previous snapshot), and
//! the acknowledgement/epoch machinery must come out the other side
//! intact: the barriered query sees the appended points once the seal
//! finally lands.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use kvmatch_core::catalog::{CatalogBackend, GenerationInput};
use kvmatch_core::{Catalog, CoreError, IndexBuildConfig, MemoryCatalogBackend, QuerySpec};
use kvmatch_serve::{QueryRequest, QueryService};
use kvmatch_storage::SeriesId;
use kvmatch_timeseries::generator::composite_series;

use common::{Gate, SealGatedBackend};

#[test]
fn readers_flow_while_ingest_seals_a_generation() {
    let a = SeriesId::new(1);
    let b = SeriesId::new(2);
    let base_a = composite_series(501, 4_000);
    let base_b = composite_series(502, 4_000);
    let gate = Arc::new(Gate::default());
    let mut catalog = Catalog::new(SealGatedBackend::new(&gate));
    catalog.create_series_with(a, IndexBuildConfig::new(50), &base_a).unwrap();
    catalog.create_series_with(b, IndexBuildConfig::new(50), &base_b).unwrap();
    let service = QueryService::builder(catalog).workers(2).build().expect("valid topology");

    // Warm-up proves the service is up before the gate arms.
    let warm =
        QueryRequest::range(QuerySpec::rsm_ed(base_b[100..300].to_vec(), 1e-9).with_series(b));
    let resp = service
        .submit_timeout(warm, Duration::from_secs(10))
        .into_result()
        .expect("submission accepted")
        .wait()
        .expect("warm-up served");
    assert!(resp.results.iter().any(|r| r.offset == 100));

    // Arm the gate, then append to series `a`: the ingest lane will take
    // the catalog write lock, enter `seal_generation`, and park there —
    // the old world, where readers shared that lock, is now stalled for
    // as long as we please.
    gate.arm();
    let tail = composite_series(503, 6_000);
    let ack = service.append(a, tail.clone(), Duration::from_secs(10)).expect("append admitted");
    gate.wait_until_parked();

    // While the seal is parked: queries on the *other* series, and on
    // the burst series from *before* the append (pre-append submissions
    // carry no epoch requirement — they pin the previous snapshot), must
    // all be answered.
    let stalled_probes = vec![
        QueryRequest::range(QuerySpec::rsm_ed(base_b[700..900].to_vec(), 1e-9).with_series(b)),
        QueryRequest::top_k(
            QuerySpec::rsm_ed(base_b[1_500..1_700].to_vec(), 25.0).with_series(b),
            3,
        ),
        QueryRequest::range(
            QuerySpec::rsm_dtw(base_b[2_200..2_400].to_vec(), 4.0, 5).with_series(b),
        ),
    ];
    let started = Instant::now();
    for (i, probe) in stalled_probes.into_iter().enumerate() {
        let handle = service
            .submit_timeout(probe, Duration::from_secs(10))
            .into_result()
            .expect("submission accepted");
        let resp = handle
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("query not served during the stall"))
            .expect("query succeeded during the stall");
        assert!(!resp.results.is_empty(), "probe {i} lost its planted match");
    }
    let stall_read_time = started.elapsed();
    // The load-bearing assertion: every one of those queries completed
    // while the seal was STILL parked — readers never waited for it.
    assert!(
        gate.is_parked(),
        "seal released early ({stall_read_time:?}); the stall assertions proved nothing"
    );

    // A query on the burst series submitted *after* the append waits at
    // the per-series epoch gate (ordering), but must not prevent others
    // from flowing — and must see the new points once released.
    let behind =
        QueryRequest::range(QuerySpec::rsm_ed(tail[5_600..5_850].to_vec(), 1e-9).with_series(a));
    let behind_handle = service
        .submit_timeout(behind, Duration::from_secs(10))
        .into_result()
        .expect("submission accepted");
    // "Not ready" hands the handle back — the consume-or-re-own contract
    // of `wait_timeout`.
    let behind_handle = match behind_handle.wait_timeout(Duration::from_millis(200)) {
        Err(still_waiting) => still_waiting,
        Ok(_) => panic!("the barriered query must wait for its append, not serve stale data"),
    };
    assert!(gate.is_parked(), "nothing should have released the seal");

    // Release: the ack lands Ok, and the barriered query sees the tail.
    gate.release();
    ack.wait().expect("append applied and snapshot published");
    let resp = behind_handle
        .wait_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("barriered query not served after release"))
        .expect("barriered query succeeded");
    assert!(
        resp.results.iter().any(|r| r.offset == 4_000 + 5_600),
        "post-append query must observe the appended points: {:?}",
        resp.results
    );

    let m = service.metrics();
    assert_eq!(m.materialize_failures, 0);
    assert_eq!(m.failed, 0);
    let catalog = service.shutdown();
    assert_eq!(catalog.series_len(a), Some(4_000 + 6_000));
}

/// A backend whose sealing can be switched to fail — every seal after
/// `fail_after` errors out.
struct FailingBackend {
    inner: MemoryCatalogBackend,
    seals: u64,
    fail_after: u64,
}

impl CatalogBackend for FailingBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = <MemoryCatalogBackend as CatalogBackend>::Data;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        self.seals += 1;
        if self.seals > self.fail_after {
            return Err(CoreError::CorruptIndex("injected seal failure".into()));
        }
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        self.inner.data_store(series, xs)
    }
}

/// Satellite: a failed post-append materialization is surfaced — the
/// append's acknowledgement carries `ServeError::Materialize`, the
/// failure is counted, and readers keep serving the last good snapshot
/// instead of wedging.
#[test]
fn failed_materialization_is_surfaced_not_swallowed() {
    let a = SeriesId::new(1);
    let base = composite_series(601, 3_000);
    let mut catalog = Catalog::new(FailingBackend {
        inner: MemoryCatalogBackend,
        seals: 0,
        fail_after: 1, // the initial create_series_with seal succeeds
    });
    catalog.create_series_with(a, IndexBuildConfig::new(50), &base).unwrap();
    let service = QueryService::builder(catalog).build().expect("valid topology");

    // The append lands in the catalog, but its snapshot rebuild fails.
    let err = service
        .append(a, composite_series(602, 1_000), Duration::from_secs(10))
        .expect("append admitted")
        .wait()
        .expect_err("failed materialization must fail the ack");
    match err {
        kvmatch_serve::ServeError::Materialize(msg) => {
            assert!(msg.contains("injected seal failure"), "unexpected message: {msg}");
        }
        other => panic!("expected ServeError::Materialize, got {other:?}"),
    }

    // The failure is visible to operators...
    assert!(service.metrics().materialize_failures >= 1);

    // ...and readers still serve the last good snapshot: the base points
    // answer, the unpublished tail does not wedge anything.
    let probe =
        QueryRequest::range(QuerySpec::rsm_ed(base[400..600].to_vec(), 1e-9).with_series(a));
    let resp = service
        .submit_timeout(probe, Duration::from_secs(10))
        .into_result()
        .expect("submission accepted")
        .wait()
        .expect("queries keep flowing after a failed materialization");
    assert!(resp.results.iter().any(|r| r.offset == 400));
    drop(service);
}
