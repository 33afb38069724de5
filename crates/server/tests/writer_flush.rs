//! The connection writer must not sit on finished answers. Replies go out
//! in request order, but a reply already written is flushed before the
//! writer blocks on a later request that has not finished — here an
//! append whose ingest is parked mid-seal by a gated backend.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use kvmatch_client::Client;
use kvmatch_core::catalog::{CatalogBackend, GenerationInput};
use kvmatch_core::{Catalog, CoreError, IndexBuildConfig, MemoryCatalogBackend, QuerySpec};
use kvmatch_proto::{Request, Response};
use kvmatch_serve::QueryService;
use kvmatch_server::{Server, ServerOptions};
use kvmatch_storage::SeriesId;
use kvmatch_timeseries::generator::composite_series;

/// Once armed, the next `seal_generation` parks until released.
#[derive(Default)]
struct SealGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    sealing: bool,
    released: bool,
}

impl SealGate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    fn wait_until_sealing(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.sealing {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.released = true;
        s.armed = false;
        self.cv.notify_all();
    }

    fn enter(&self) {
        let mut s = self.state.lock().unwrap();
        if !s.armed {
            return;
        }
        s.sealing = true;
        self.cv.notify_all();
        while !s.released {
            s = self.cv.wait(s).unwrap();
        }
        s.sealing = false;
    }
}

struct GatedBackend {
    inner: MemoryCatalogBackend,
    gate: Arc<SealGate>,
}

impl CatalogBackend for GatedBackend {
    type Store = <MemoryCatalogBackend as CatalogBackend>::Store;
    type Data = <MemoryCatalogBackend as CatalogBackend>::Data;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        self.gate.enter();
        self.inner.seal_generation(input)
    }

    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        self.inner.data_store(series, xs)
    }
}

#[test]
fn finished_reply_is_flushed_while_a_later_append_is_pending() {
    let a = SeriesId::new(1);
    let b = SeriesId::new(2);
    let xs_b = composite_series(902, 3_000);
    let gate = Arc::new(SealGate::default());
    let mut catalog =
        Catalog::new(GatedBackend { inner: MemoryCatalogBackend, gate: Arc::clone(&gate) });
    catalog
        .create_series_with(a, IndexBuildConfig::new(50), &composite_series(901, 3_000))
        .unwrap();
    catalog.create_series_with(b, IndexBuildConfig::new(50), &xs_b).unwrap();
    // The batch delay holds the query for a while, so its reply is
    // written only after the append behind it is queued for the writer.
    let service = Arc::new(
        QueryService::builder(catalog)
            .max_batch_delay(Duration::from_millis(50))
            .build()
            .expect("valid topology"),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let client = Client::connect_retry(server.local_addr(), 20, Duration::from_millis(50))
        .expect("client connects");
    let probe = QuerySpec::rsm_ed(xs_b[400..600].to_vec(), 1e-9).with_series(b);
    // Warm-up: the service has published its first snapshot before the
    // gate arms.
    client.query(probe.clone(), None).expect("warm-up served");

    gate.arm();
    let query =
        client.send(&Request::Query { spec: probe, deadline_us: None }).expect("query sent");
    let append = client
        .send(&Request::Append { series: a, points: composite_series(903, 500) })
        .expect("append sent");
    gate.wait_until_sealing();

    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(query.wait_query());
    });
    let reply = rx.recv_timeout(Duration::from_secs(10));
    // Unpark the ingest whatever happened, so a failure cannot hang.
    gate.release();
    let reply = reply
        .expect("the query's reply stayed buffered behind the pending append")
        .expect("query served");
    assert!(reply.results.iter().any(|r| r.offset == 400));
    waiter.join().unwrap();
    assert!(matches!(append.wait(), Ok(Response::Appended)), "append acknowledged");

    drop(client);
    server.shutdown();
    let catalog = Arc::try_unwrap(service).ok().expect("server released the service").shutdown();
    assert_eq!(catalog.series_len(a), Some(3_500));
}
