//! TCP front door for the KV-match serving pipeline.
//!
//! [`Server`] binds a `TcpListener` and speaks [`kvmatch_proto`] on top
//! of an existing [`QueryService`]: a **thread-per-connection acceptor**
//! where each connection runs a reader thread (decode frames, admit work
//! into the service in arrival order) and a writer thread (resolve
//! response handles, encode, write). Because the reader admits a request
//! and moves on without waiting for its response, **one connection can
//! have many requests in flight** — the pipelined request ids of
//! [`kvmatch_proto`] keep the answers attributable.
//!
//! Ordering guarantees inherited from the service: requests are submitted
//! in socket arrival order, so the per-series append/query ordering of
//! the ingest lane holds across the wire exactly as it does in-process.
//! Responses are also written in arrival order (FIFO — a slow query
//! head-of-line blocks later answers on the *same* connection; other
//! connections are unaffected), but every answer already written is
//! flushed before the writer waits on an unfinished one. The ids still
//! travel with every frame, so clients never depend on that ordering.
//!
//! Backpressure is layered: the service's bounded queue rejects
//! (`REJECTED` error frames carrying queue state) after a bounded
//! admission wait, and each connection's outgoing queue is bounded too —
//! a client that stops reading eventually stops being read from (TCP
//! does the rest).
//!
//! Shutdown: a `Shutdown` request (or [`Server::shutdown`]) stops the
//! acceptor, drains every admitted request to its connection, then joins
//! all threads. The [`demo`] module builds the deterministic catalog the
//! `kvmatch-server` binary serves, so external processes can reconstruct
//! bit-identical expected answers.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kvmatch_core::catalog::CatalogBackend;
use kvmatch_obs::{Counter, Gauge, Registry, SpanRecord};
use kvmatch_proto as proto;
use kvmatch_proto::{Request, Response};
use kvmatch_serve::sync::BoundedQueue;
use kvmatch_serve::wire;
use kvmatch_serve::{AppendHandle, QueryService, ResponseHandle, ServeError, Submit};

pub mod demo;

/// Tuning knobs of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// How long a connection's reader waits for submission-queue space
    /// before answering a `REJECTED` error frame. A bounded wait turns
    /// most transient backpressure into socket-level pushback instead of
    /// error round-trips.
    pub admission_wait: Duration,
    /// The same bound for appends (the ingest lane shares the queue).
    pub append_wait: Duration,
    /// Per-connection bound on responses awaiting write. A full queue
    /// blocks the connection's reader — backpressure against pipelining
    /// clients that stop reading.
    pub out_queue: usize,
    /// How long [`Server::shutdown`] waits for open connections to
    /// finish before force-closing their sockets.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            admission_wait: Duration::from_millis(250),
            append_wait: Duration::from_millis(250),
            out_queue: 1024,
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// Network-side counters, folded into the wire metrics response next to
/// the serving snapshot. Registered on the service's shared
/// [`Registry`] under `kvmatch_net_*` names, so the text exposition
/// covers sockets and scheduler in a single scrape.
struct NetMetrics {
    connections_accepted: Arc<Counter>,
    connections_active: Arc<Gauge>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    protocol_errors: Arc<Counter>,
}

impl NetMetrics {
    fn on_registry(r: &Registry) -> Self {
        Self {
            connections_accepted: r.counter("kvmatch_net_connections_accepted_total"),
            connections_active: r.gauge("kvmatch_net_connections_active"),
            frames_in: r.counter("kvmatch_net_frames_in_total"),
            frames_out: r.counter("kvmatch_net_frames_out_total"),
            bytes_in: r.counter("kvmatch_net_bytes_in_total"),
            bytes_out: r.counter("kvmatch_net_bytes_out_total"),
            protocol_errors: r.counter("kvmatch_net_protocol_errors_total"),
        }
    }
}

/// A point-in-time copy of the server's network counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetSnapshot {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Request frames read off sockets.
    pub frames_in: u64,
    /// Response frames written to sockets.
    pub frames_out: u64,
    /// Request payload bytes read off sockets (length prefixes excluded).
    pub bytes_in: u64,
    /// Response frame bytes written to sockets.
    pub bytes_out: u64,
    /// Connections terminated for protocol violations.
    pub protocol_errors: u64,
}

impl NetMetrics {
    fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            connections_accepted: self.connections_accepted.get(),
            connections_active: self.connections_active.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            protocol_errors: self.protocol_errors.get(),
        }
    }
}

/// Latched "a client asked us to shut down" signal.
struct ShutdownSignal {
    state: Mutex<bool>,
    cond: Condvar,
}

impl ShutdownSignal {
    fn new() -> Self {
        Self { state: Mutex::new(false), cond: Condvar::new() }
    }

    fn raise(&self) {
        *self.state.lock().expect("shutdown signal poisoned") = true;
        self.cond.notify_all();
    }

    fn wait(&self) {
        let mut raised = self.state.lock().expect("shutdown signal poisoned");
        while !*raised {
            raised = self.cond.wait(raised).expect("shutdown signal poisoned");
        }
    }
}

struct ServerShared<B: CatalogBackend> {
    service: Arc<QueryService<B>>,
    options: ServerOptions,
    net: NetMetrics,
    shutdown: ShutdownSignal,
    /// Accept-loop exit flag (set by [`Server::shutdown`]).
    closing: AtomicBool,
    /// Live connection sockets, for force-close on drain timeout.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running TCP front door over a shared [`QueryService`].
pub struct Server<B: CatalogBackend> {
    shared: Arc<ServerShared<B>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl<B> Server<B>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    /// Binds `addr` and starts accepting. The service stays shared — the
    /// caller keeps its own `Arc` for in-process submissions, metrics,
    /// and the final `QueryService::shutdown`.
    pub fn bind<A: ToSocketAddrs>(
        service: Arc<QueryService<B>>,
        addr: A,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let net = NetMetrics::on_registry(&service.registry());
        let shared = Arc::new(ServerShared {
            service,
            options,
            net,
            shutdown: ShutdownSignal::new(),
            closing: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("kvmatch-server-accept".into())
            .spawn(move || accept_loop(listener, acceptor_shared))?;
        Ok(Self { shared, local_addr, acceptor: Some(acceptor) })
    }

    /// The bound address (with the OS-assigned port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until some client sends a `Shutdown` request.
    pub fn wait_shutdown_requested(&self) {
        self.shared.shutdown.wait();
    }

    /// A point-in-time copy of the network counters.
    pub fn net_metrics(&self) -> NetSnapshot {
        self.shared.net.snapshot()
    }

    /// Graceful drain: stop accepting, wait up to
    /// [`ServerOptions::drain_timeout`] for open connections to finish
    /// (every admitted request is answered to its socket), force-close
    /// stragglers, join all threads.
    pub fn shutdown(mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
        let handles =
            self.acceptor.take().expect("shutdown runs once").join().expect("acceptor panicked");
        let deadline = Instant::now() + self.shared.options.drain_timeout;
        while Instant::now() < deadline {
            if self.shared.net.connections_active.get() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (_, stream) in self.shared.conns.lock().expect("conns poisoned").drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn accept_loop<B>(listener: TcpListener, shared: Arc<ServerShared<B>>) -> Vec<JoinHandle<()>>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if shared.closing.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Reap connections that already ended so a long-running server
        // holds one JoinHandle per *open* connection, not per connection
        // ever accepted.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        next_conn += 1;
        let conn_id = next_conn;
        shared.net.connections_accepted.inc();
        shared.net.connections_active.add(1);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().expect("conns poisoned").insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        match std::thread::Builder::new().name(format!("kvmatch-server-conn-{conn_id}")).spawn(
            move || {
                connection(stream, conn_id, &conn_shared);
                conn_shared.conns.lock().expect("conns poisoned").remove(&conn_id);
                conn_shared.net.connections_active.sub(1);
            },
        ) {
            Ok(handle) => handles.push(handle),
            Err(_) => {
                shared.conns.lock().expect("conns poisoned").remove(&conn_id);
                shared.net.connections_active.sub(1);
            }
        }
    }
    handles
}

/// One response awaiting write, in request arrival order.
enum Outgoing {
    /// Already resolved (errors, pongs, metrics, acks).
    Ready(u64, Box<Response>),
    /// A query in flight inside the service. The `Instant` is the
    /// arrival time at the socket, for the `server.request` span an
    /// explain response carries.
    Query(u64, ResponseHandle, Instant),
    /// An append in flight inside the ingest lane.
    Append(u64, AppendHandle),
}

/// One connection: this thread reads and admits; a sibling thread
/// resolves and writes.
fn connection<B>(stream: TcpStream, conn_id: u64, shared: &Arc<ServerShared<B>>)
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let out: Arc<BoundedQueue<Outgoing>> = Arc::new(BoundedQueue::new(shared.options.out_queue));
    let writer = {
        let out = Arc::clone(&out);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("kvmatch-server-conn-{conn_id}-writer"))
            .spawn(move || writer_loop(write_half, &out, &shared))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    let mut reader = BufReader::new(stream);
    loop {
        let payload = match proto::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean EOF at a frame boundary — the client is done.
            Ok(None) => break,
            Err(err) => {
                // Transport death is silent; protocol violations get one
                // explanatory error frame before the connection closes.
                if !matches!(err, proto::ProtoError::Io(_)) {
                    shared.net.protocol_errors.inc();
                    let wire_err = proto::WireError {
                        code: err.wire_code(),
                        detail: err.to_string(),
                        rejected: None,
                    };
                    let _ = out.push_wait(Outgoing::Ready(0, Box::new(Response::Error(wire_err))));
                }
                break;
            }
        };
        shared.net.bytes_in.add(payload.len() as u64);
        let frame = match proto::decode_request(&payload) {
            Ok(frame) => frame,
            Err(err) => {
                shared.net.protocol_errors.inc();
                let wire_err = proto::WireError {
                    code: err.wire_code(),
                    detail: err.to_string(),
                    rejected: None,
                };
                let _ = out.push_wait(Outgoing::Ready(0, Box::new(Response::Error(wire_err))));
                break;
            }
        };
        shared.net.frames_in.inc();
        let id = frame.request_id;
        let item = match frame.message {
            Request::Query { spec, deadline_us } => {
                let arrived = Instant::now();
                let request = wire::query_request(spec, deadline_us);
                match shared.service.submit_timeout(request, shared.options.admission_wait) {
                    Submit::Accepted(handle) => Outgoing::Query(id, handle, arrived),
                    Submit::Rejected(r) => Outgoing::Ready(
                        id,
                        Box::new(Response::Error(wire::wire_error(&ServeError::Rejected(
                            r.rejected,
                        )))),
                    ),
                }
            }
            Request::Append { series, points } => {
                match shared.service.append(series, points, shared.options.append_wait) {
                    Ok(handle) => Outgoing::Append(id, handle),
                    Err(rejected) => Outgoing::Ready(
                        id,
                        Box::new(Response::Error(wire::wire_error(&ServeError::Rejected(
                            rejected.rejected,
                        )))),
                    ),
                }
            }
            Request::Metrics => {
                let mut m = wire::wire_metrics(&shared.service.metrics());
                let net = shared.net.snapshot();
                m.net_connections_accepted = net.connections_accepted;
                m.net_connections_active = net.connections_active;
                m.net_frames_in = net.frames_in;
                m.net_frames_out = net.frames_out;
                m.net_bytes_in = net.bytes_in;
                m.net_bytes_out = net.bytes_out;
                m.net_protocol_errors = net.protocol_errors;
                Outgoing::Ready(id, Box::new(Response::Metrics(m)))
            }
            Request::MetricsText => {
                // The shared registry holds serving and network metrics
                // alike; one render is the whole exposition.
                let text = shared.service.metrics_text();
                Outgoing::Ready(id, Box::new(Response::MetricsText(text)))
            }
            Request::Ping => Outgoing::Ready(id, Box::new(Response::Pong)),
            Request::Shutdown => {
                shared.shutdown.raise();
                Outgoing::Ready(id, Box::new(Response::ShutdownStarted))
            }
        };
        // A full outgoing queue blocks here — reader backpressure.
        if out.push_wait(item).is_err() {
            break;
        }
    }
    // Everything admitted has been pushed; let the writer drain and exit.
    out.close();
    let _ = writer.join();
}

/// The connection's writer: resolve each outgoing item in FIFO order,
/// encode, write; flush when the queue runs empty (batching flushes
/// under pipelined load) and before blocking on a handle that is not
/// ready, so written replies never wait behind unfinished work.
fn writer_loop<B>(stream: TcpStream, out: &BoundedQueue<Outgoing>, shared: &ServerShared<B>)
where
    B: CatalogBackend,
{
    let mut writer = BufWriter::new(stream);
    while let Some(item) = out.pop_wait() {
        let (id, response) = match item {
            Outgoing::Ready(id, response) => (id, *response),
            Outgoing::Query(id, handle, arrived) => {
                let result = match handle.wait_timeout(Duration::ZERO) {
                    Ok(result) => result,
                    Err(pending) => {
                        if writer.flush().is_err() {
                            abort_outgoing(out);
                            return;
                        }
                        pending.wait()
                    }
                };
                match result {
                    Ok(mut resp) => {
                        // The server's own span: socket arrival to
                        // response write, wrapping the service's
                        // queue/execute spans.
                        if let Some(explain) = resp.explain.as_mut() {
                            explain.spans.push(SpanRecord {
                                name: "server.request".into(),
                                depth: 0,
                                nanos: arrived.elapsed().as_nanos().min(u128::from(u64::MAX))
                                    as u64,
                            });
                        }
                        (id, wire::wire_response(&resp))
                    }
                    Err(err) => (id, Response::Error(wire::wire_error(&err))),
                }
            }
            Outgoing::Append(id, handle) => {
                // An append handle has no readiness probe: flush whatever
                // is buffered before its (possibly long) ingest wait.
                if !writer.buffer().is_empty() && writer.flush().is_err() {
                    abort_outgoing(out);
                    return;
                }
                match handle.wait() {
                    Ok(()) => (id, Response::Appended),
                    Err(err) => (id, Response::Error(wire::wire_error(&err))),
                }
            }
        };
        // A response too large for one frame (encode enforces MAX_FRAME)
        // degrades to an error frame the client can attribute and act on.
        let frame = match response.encode(id) {
            Ok(frame) => frame,
            Err(err) => {
                let wire_err = proto::WireError {
                    code: err.wire_code(),
                    detail: err.to_string(),
                    rejected: None,
                };
                match Response::Error(wire_err).encode(id) {
                    Ok(frame) => frame,
                    Err(_) => {
                        abort_outgoing(out);
                        return;
                    }
                }
            }
        };
        if writer.write_all(&frame).is_err() {
            abort_outgoing(out);
            return;
        }
        shared.net.frames_out.inc();
        shared.net.bytes_out.add(frame.len() as u64);
        if out.is_empty() && writer.flush().is_err() {
            abort_outgoing(out);
            return;
        }
    }
    let _ = writer.flush();
}

/// The write half died mid-stream: close the outgoing queue so the
/// connection reader's `push_wait` fails with `Closed` instead of
/// blocking forever on a queue nobody drains (a pipelining client that
/// stopped reading would otherwise wedge the connection thread — and
/// with it `Server::shutdown`'s join — indefinitely), then discard what
/// was queued. Dropping unresolved handles is safe: they are oneshot
/// receivers, the service completes the work regardless.
fn abort_outgoing(out: &BoundedQueue<Outgoing>) {
    out.close();
    while out.pop_wait().is_some() {}
}
