//! The acceptance test of the wire stack: concurrent client connections
//! drive a mixed range / top-k / append workload against a real
//! `kvmatch-server` over TCP, with pipelined request ids, and every
//! answer must be **bit-identical** to the same request served by an
//! in-process [`QueryService`] over the same demo catalog.

use std::sync::Arc;
use std::time::Duration;

use kvmatch_client::Client;
use kvmatch_core::{MatchResult, QuerySpec, SeriesId};
use kvmatch_proto::{code, Request};
use kvmatch_serve::{QueryRequest, Submit};
use kvmatch_server::demo::DemoSpec;
use kvmatch_server::{Server, ServerOptions};
use kvmatch_timeseries::generator::composite_series;

/// A small but non-trivial demo shape (4 series × 5 000 points).
fn spec() -> DemoSpec {
    DemoSpec { n: 20_000, w: 50, series: 4, seed: 42, threads: 0, submitters: 8, shards: 1 }
}

/// The query pool over the non-append series (indices 1..4): per series,
/// alternating exact-range / wide-range / top-k probes.
fn query_pool(spec: &DemoSpec) -> Vec<QueryRequest> {
    let mut pool = Vec::new();
    for i in 1..spec.series {
        let id = SeriesId::new(i as u64 + 1);
        let xs = spec.series_data(i);
        for k in 0..4usize {
            let at = 300 + 677 * k + 131 * i;
            let q = xs[at..at + 200].to_vec();
            pool.push(match k % 3 {
                0 => QueryRequest::range(QuerySpec::rsm_ed(q, 1e-9).with_series(id)),
                1 => QueryRequest::range(QuerySpec::rsm_ed(q, 12.0).with_series(id)),
                _ => QueryRequest::top_k(QuerySpec::rsm_ed(q, 50.0).with_series(id), 1 + k),
            });
        }
    }
    pool
}

#[test]
fn concurrent_connections_pipelined_bit_identical_with_in_process_service() {
    let spec = spec();
    let pool = query_pool(&spec);

    // The in-process reference: the same catalog, the same serving
    // pipeline, no sockets.
    let reference = spec.spawn_service(2);
    let expected: Vec<Vec<MatchResult>> = pool
        .iter()
        .map(|req| {
            let handle = match reference.submit_timeout(req.clone(), Duration::from_secs(10)) {
                Submit::Accepted(h) => h,
                Submit::Rejected(_) => panic!("reference submission rejected"),
            };
            handle.wait().expect("reference request served").results
        })
        .collect();
    reference.shutdown();

    // The system under test: the same catalog behind a TCP server.
    let service = Arc::new(spec.spawn_service(2));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    const QUERY_CONNS: usize = 4;
    const ROUNDS: usize = 6;
    const WINDOW: usize = 8;
    std::thread::scope(|scope| {
        // Four query connections, each pipelining a WINDOW of requests
        // before collecting — in-flight ids overlap by construction.
        for t in 0..QUERY_CONNS {
            let pool = &pool;
            let expected = &expected;
            scope.spawn(move || {
                let client = Client::connect_retry(addr, 20, Duration::from_millis(50))
                    .expect("client connects");
                client.ping().expect("ping");
                for round in 0..ROUNDS {
                    let picks: Vec<usize> =
                        (0..WINDOW).map(|j| (t * 13 + round * 7 + j) % pool.len()).collect();
                    let pending: Vec<_> = picks
                        .iter()
                        .map(|&which| {
                            let req = &pool[which];
                            client
                                .send(&Request::Query { spec: req.spec.clone(), deadline_us: None })
                                .expect("send")
                        })
                        .collect();
                    // Collect in reverse submission order: correctness
                    // must come from request-id demux, not from luck.
                    for (which, pending) in picks.into_iter().zip(pending).rev() {
                        let reply = pending.wait_query().expect("query served over the wire");
                        assert_eq!(
                            reply.results, expected[which],
                            "connection {t} round {round} pool #{which}: socket answer \
                             diverged from the in-process service"
                        );
                    }
                }
            });
        }

        // A fifth connection streams appends into series 1 and proves
        // the ingest barrier holds across the wire.
        scope.spawn(move || {
            let client = Client::connect_retry(addr, 20, Duration::from_millis(50))
                .expect("append client connects");
            let id = SeriesId::new(1);
            let base_len = spec.n_per_series();
            let tail = composite_series(spec.seed ^ 0x0A99_E17D, 3_000);
            for chunk in tail.chunks(1_000) {
                client.append(id, chunk.to_vec()).expect("append applied over the wire");
            }
            // A query behind the appends (same connection, same series)
            // must see the appended points at their exact offset.
            let probe = QuerySpec::rsm_ed(tail[2_600..2_850].to_vec(), 1e-9).with_series(id);
            let reply = client.query(probe, None).expect("post-append query served");
            assert!(
                reply.results.iter().any(|r| r.offset == base_len + 2_600),
                "append barrier broken over the wire: {:?}",
                reply.results
            );
        });
    });

    // Server-side error taxonomy crosses the wire as stable codes.
    let client = Client::connect(addr).expect("probe client connects");
    let unknown = QuerySpec::rsm_ed(vec![0.0; 200], 1.0).with_series(SeriesId::new(999));
    match client.query(unknown, None) {
        Err(kvmatch_client::ClientError::Server(err)) => {
            assert_eq!(err.code, code::UNKNOWN_SERIES, "unexpected code: {err:?}");
        }
        other => panic!("expected a server error frame, got {other:?}"),
    }

    // The metrics frame folds network counters into the serving snapshot.
    let m = client.metrics().expect("metrics served");
    let offered = (QUERY_CONNS * ROUNDS * WINDOW) as u64;
    assert!(m.completed >= offered, "expected >= {offered} completed, got {}", m.completed);
    assert_eq!(m.appends, 3);
    assert!(m.net_connections_accepted >= 6);
    assert!(m.net_frames_in > offered);
    assert!(m.net_frames_out > offered);
    assert!(m.net_bytes_in > 0 && m.net_bytes_out > 0);
    assert_eq!(m.net_protocol_errors, 0);

    // Graceful shutdown: the request is acknowledged, the drain signal
    // fires, and every thread joins.
    client.shutdown_server().expect("shutdown acknowledged");
    server.wait_shutdown_requested();
    drop(client);
    server.shutdown();
    let service = Arc::try_unwrap(service).ok().expect("all server references released");
    let mut catalog = service.shutdown();
    assert_eq!(catalog.series_len(SeriesId::new(1)), Some(spec.n_per_series() + 3_000));
    // The served catalog still answers in-process after the front door
    // closed.
    let xs = spec.series_data(1);
    let probe = QuerySpec::rsm_ed(xs[400..600].to_vec(), 1e-9).with_series(SeriesId::new(2));
    let batch = catalog.execute_batch(std::slice::from_ref(&probe)).unwrap();
    assert!(batch.outputs[0].results.iter().any(|r| r.offset == 400));
}

/// EXPLAIN over a real socket: the report crosses the wire with the
/// serve-side spans plus the server- and client-added ones, its prune
/// accounting equals the executor stats verbatim, results are
/// bit-identical to the unexplained query, and the text exposition
/// endpoint scrapes the full metric family set.
#[test]
fn explain_over_the_wire_carries_spans_and_exact_prune_counts() {
    let spec =
        DemoSpec { n: 8_000, w: 50, series: 2, seed: 17, threads: 0, submitters: 2, shards: 1 };
    let service = Arc::new(spec.spawn_service(2));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let client = Client::connect_retry(addr, 20, Duration::from_millis(50)).expect("connect");

    let xs = spec.series_data(1);
    let probe = QuerySpec::rsm_dtw(xs[500..750].to_vec(), 15.0, 5).with_series(SeriesId::new(2));

    let plain = client.query(probe.clone(), None).expect("plain query served");
    assert!(plain.explain.is_none(), "no explain flag, no report on the wire");

    let explained = client.query(probe.with_explain(true), None).expect("explain query served");
    assert_eq!(explained.results, plain.results, "explain must not perturb wire results");
    let report = explained.explain.as_deref().expect("explain report crossed the wire");
    assert_ne!(report.trace_id, 0);

    // Span taxonomy: serve-side queue/execute, the server's socket span,
    // and the client-side round trip appended locally.
    let span = |name: &str| report.spans.iter().find(|s| s.name == name);
    let execute = span("serve.execute").expect("execute span");
    let request = span("server.request").expect("server span");
    let rtt = span("client.rtt").expect("client span");
    assert!(span("serve.queue").is_some(), "queue span");
    assert!(request.nanos >= execute.nanos, "socket span covers execution");
    assert!(rtt.nanos >= request.nanos, "round trip covers the server");

    // Prune accounting must equal the cascade's own stats, verbatim.
    let stats = &explained.stats;
    assert_eq!(report.pruned_constraint, stats.pruned_constraint);
    assert_eq!(report.pruned_lb_kim, stats.pruned_lb_kim);
    assert_eq!(report.pruned_lb_keogh, stats.pruned_lb_keogh);
    assert_eq!(report.full_distance_computations, stats.full_distance_computations);
    assert_eq!(report.probe_nanos, stats.phase1_nanos);
    assert_eq!(report.lb_kim_nanos, stats.lb_kim_nanos);
    assert_eq!(report.lb_keogh_nanos, stats.lb_keogh_nanos);
    assert_eq!(report.dtw_nanos, stats.dtw_nanos);
    assert_eq!(report.alloc_events, stats.alloc_events);
    assert_eq!(report.adaptive_skipped_lb_kim, stats.adaptive_skipped_lb_kim);
    assert_eq!(report.adaptive_skipped_lb_keogh, stats.adaptive_skipped_lb_keogh);

    // The text exposition endpoint serves a scrapeable payload covering
    // serving, network and histogram families.
    let text = client.metrics_text().expect("metrics text served");
    for needle in [
        "# TYPE kvmatch_serve_submitted_total counter",
        "# TYPE kvmatch_serve_queue_depth gauge",
        "# TYPE kvmatch_serve_latency_us summary",
        "kvmatch_serve_latency_us_count",
        "# TYPE kvmatch_net_frames_in_total counter",
        "kvmatch_net_connections_active",
        "kvmatch_serve_worker_batches_total{worker=\"0\"}",
    ] {
        assert!(text.contains(needle), "scrape missing {needle}:\n{text}");
    }
    // The slow log has entries by now and rides the same scrape.
    assert!(text.contains("# slowlog rank="), "{text}");

    client.shutdown_server().expect("shutdown acknowledged");
    server.wait_shutdown_requested();
    drop(client);
    server.shutdown();
    Arc::try_unwrap(service).ok().expect("all server references released").shutdown();
}

/// Regression: a pipelining client that stops reading and then dies must
/// not wedge its connection thread. With the response path saturated the
/// reader blocks pushing into the full outgoing queue; when the client's
/// reset kills the writer, the writer must close that queue so the reader
/// unblocks — otherwise `Server::shutdown` hangs forever in its joins.
#[test]
fn dead_pipelining_client_does_not_wedge_shutdown() {
    use std::io::{ErrorKind, Write};

    let spec =
        DemoSpec { n: 4_000, w: 50, series: 1, seed: 9, threads: 0, submitters: 2, shards: 1 };
    let service = Arc::new(spec.spawn_service(1));
    // A tiny outgoing queue makes the reader block as soon as the writer
    // stalls against our unread socket.
    let options = ServerOptions {
        out_queue: 2,
        drain_timeout: Duration::from_secs(1),
        ..ServerOptions::default()
    };
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", options).expect("bind");
    let addr = server.local_addr();

    let raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.set_nonblocking(true).expect("nonblocking");
    let ping = Request::Ping.encode(1).unwrap();
    // Flood pings without reading a single pong. Pongs fill our receive
    // buffer until the server's writer blocks, then its outgoing queue
    // fills, then its reader blocks in push_wait, then our own writes
    // stall. A full second of sustained WouldBlock means the connection
    // is wedged end to end.
    // A nonblocking write can take part of a frame; `sent` resumes it,
    // so the stream never carries a torn frame the server would reject.
    let mut stalled = 0u32;
    let mut sent = 0;
    while stalled < 40 {
        match (&raw).write(&ping[sent..]) {
            Ok(n) => {
                stalled = 0;
                sent = (sent + n) % ping.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stalled += 1;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("unexpected socket error: {e}"),
        }
    }
    // Closing with unread data in the receive buffer resets the
    // connection, so the server's blocked write fails promptly.
    drop(raw);

    server.shutdown();
    Arc::try_unwrap(service).ok().expect("all server references released").shutdown();
}

/// Malformed bytes on the socket are answered with a typed error frame
/// (request id 0) and the connection is closed — the server never
/// panics and other connections keep serving.
#[test]
fn protocol_violation_closes_only_the_offending_connection() {
    let spec =
        DemoSpec { n: 4_000, w: 50, series: 1, seed: 7, threads: 0, submitters: 2, shards: 1 };
    let service = Arc::new(spec.spawn_service(1));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    // A well-behaved connection, kept open across the violation.
    let good = Client::connect_retry(addr, 20, Duration::from_millis(50)).expect("connect");
    good.ping().expect("ping before the violation");

    // A raw socket speaking garbage: valid length prefix, bogus version.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&[10, 0, 0, 0, 42, 0x04, 0, 0, 0, 0, 0, 0, 0, 0]).expect("write garbage");
        let payload =
            kvmatch_proto::read_frame(&mut raw).expect("error frame arrives").expect("not EOF");
        let frame = kvmatch_proto::decode_response(&payload).expect("decodes");
        assert_eq!(frame.request_id, 0);
        match frame.message {
            kvmatch_proto::Response::Error(err) => {
                assert_eq!(err.code, code::UNSUPPORTED_VERSION)
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // ...and then EOF: the connection is closed.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "no bytes after the error frame");
    }

    // The violation is counted, and the good connection still serves.
    good.ping().expect("ping after the violation");
    let m = good.metrics().expect("metrics");
    assert_eq!(m.net_protocol_errors, 1);

    good.shutdown_server().expect("shutdown acknowledged");
    server.wait_shutdown_requested();
    drop(good);
    server.shutdown();
}
