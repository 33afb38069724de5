//! Load generation over real sockets: the served fixture (catalog →
//! `QueryService` → `Server` on loopback → `Client` connections) and the
//! closed-loop, scheduled and append-stream drivers. Every driver claims
//! the threads it puts load from with the load guard before it starts.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvmatch_client::{Client, ClientError};
use kvmatch_core::catalog::{Catalog, CatalogBackend};
use kvmatch_core::{MatchResult, SeriesId};
use kvmatch_obs::Registry;
use kvmatch_proto::Request;
use kvmatch_serve::QueryService;
use kvmatch_server::{Server, ServerOptions};

use crate::host::{admit_connections, LoadThreads};
use crate::inputs::{replay_order, PoolEntry};
use crate::stats::{nanos, Samples, Schedule};

/// A catalog behind the full serving stack, with its client connections.
pub struct Served<B: CatalogBackend> {
    pub service: Arc<QueryService<B>>,
    server: Server<B>,
    pub clients: Vec<Client>,
}

impl<B> Served<B>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    /// Builds the service with the product's `ServiceBuilder` defaults
    /// except the stated topology, binds a loopback server with default
    /// `ServerOptions`, and opens `connections` clients.
    pub fn start(
        catalog: Catalog<B>,
        shards: usize,
        workers: usize,
        connections: usize,
        registry: Option<Arc<Registry>>,
    ) -> Result<Self, String> {
        admit_connections(connections)?;
        let mut builder = QueryService::builder(catalog).shards(shards).workers(workers);
        if let Some(registry) = registry {
            builder = builder.registry(registry);
        }
        let service = Arc::new(builder.build().expect("the workload's topology is valid"));
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
            .expect("bind a loopback port");
        let addr = server.local_addr();
        let clients = (0..connections)
            .map(|_| {
                let client = Client::connect_retry(addr, 40, Duration::from_millis(25))
                    .expect("client connects to the loopback server");
                // Connected means served: one round trip per connection.
                client.ping().expect("server answers its first ping");
                client
            })
            .collect();
        Ok(Self { service, server, clients })
    }

    pub fn net_metrics(&self) -> kvmatch_server::NetSnapshot {
        self.server.net_metrics()
    }

    /// Closes the clients, drains the server, stops the service and hands
    /// the catalog back. Every thread the fixture started has ended when
    /// this returns.
    pub fn shutdown(self) -> Catalog<B> {
        drop(self.clients);
        self.server.shutdown();
        Arc::try_unwrap(self.service)
            .ok()
            .expect("the server joined every connection thread holding the service")
            .shutdown()
    }
}

/// What one measured window produced.
#[derive(Default)]
pub struct Outcome {
    /// Latency of every correct operation counted in the window, ns.
    pub latency: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub window: Duration,
}

impl Outcome {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Correct operations per second of window.
    pub fn throughput(&self) -> f64 {
        self.correct() as f64 / self.window.as_secs_f64().max(1e-9)
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.latency.extend(other.latency);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Decides whether `results` answer pool entry `entry` correctly.
pub type Verify<'a> = &'a (dyn Fn(&PoolEntry, &[MatchResult]) -> bool + Sync);

/// Judges one reply; a rejected, expired, failed or wrong answer is a
/// failed operation.
fn judge(
    entry: &PoolEntry,
    reply: Result<kvmatch_client::QueryReply, ClientError>,
    verify: Verify<'_>,
) -> bool {
    match reply {
        Ok(reply) if verify(entry, &reply.results) => true,
        Ok(_) => {
            eprintln!("WRONG ANSWER on a {} query", entry.class.name());
            false
        }
        Err(err) => {
            eprintln!("FAILED {} query: {}", entry.class.name(), err);
            false
        }
    }
}

/// Closed loop: each connection keeps `pipeline` requests in flight and
/// sends the next only when one completes. An operation counts when it was
/// sent after the warm-up and completed before the window closed; a wrong
/// answer counts as a failure whenever it happens.
pub fn closed_loop(
    clients: &[Client],
    pool: &[PoolEntry],
    seed: u64,
    pipeline: usize,
    warmup: Duration,
    window: Duration,
    verify: Verify<'_>,
) -> Result<Outcome, String> {
    let _load = LoadThreads::claim(clients.len())?;
    let start = Instant::now();
    let from = start + warmup;
    let to = from + window;
    let mut total = Outcome { window, ..Outcome::default() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let order = replay_order(seed, c, pool.len());
                    let mut out =
                        Outcome { latency: Samples::with_capacity(1 << 16), ..Outcome::default() };
                    let mut inflight = VecDeque::with_capacity(pipeline);
                    let mut cursor = 0usize;
                    loop {
                        while inflight.len() < pipeline && Instant::now() < to {
                            let which = order[cursor % order.len()];
                            cursor += 1;
                            let spec = pool[which].spec.clone();
                            let sent = Instant::now();
                            match client.send(&Request::Query { spec, deadline_us: None }) {
                                Ok(pending) => inflight.push_back((which, sent, pending)),
                                Err(err) => {
                                    eprintln!("FAILED send: {}", err);
                                    out.attempted += 1;
                                    out.failed += 1;
                                    return out;
                                }
                            }
                        }
                        let Some((which, sent, pending)) = inflight.pop_front() else { break };
                        let reply = pending.wait_query();
                        let done = Instant::now();
                        let ok = judge(&pool[which], reply, verify);
                        let counted = sent >= from && done <= to;
                        if counted || !ok {
                            out.attempted += 1;
                        }
                        if !ok {
                            out.failed += 1;
                        } else if counted {
                            out.latency.push_at(nanos(done - from), nanos(done - sent));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("closed-loop connection thread"));
        }
    });
    Ok(total)
}

/// A fixed schedule of `per_second` requests split evenly over the
/// connections, one thread per connection. Request `i` of a connection
/// leaves at its due time — or, when the reply before it is still out, as
/// soon as that arrives: a connection never has two requests in flight —
/// and its latency runs from the *due* time, so a stall charges every
/// request it delayed. Returns the outcome and how late each counted
/// request left.
pub fn scheduled_loop(
    clients: &[Client],
    pool: &[PoolEntry],
    seed: u64,
    per_second: f64,
    warmup: Duration,
    window: Duration,
    verify: Verify<'_>,
) -> Result<(Outcome, Samples), String> {
    let _load = LoadThreads::claim(clients.len())?;
    let start = Instant::now() + Duration::from_millis(5);
    let from = start + warmup;
    let to = from + window;
    let per_connection = per_second / clients.len() as f64;
    let stagger = Duration::from_secs_f64(1.0 / per_second);
    let mut total = Outcome { window, ..Outcome::default() };
    let mut lag = Samples::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let schedule = Schedule::new(start + stagger * c as u32, per_connection);
                scope.spawn(move || {
                    let order = replay_order(seed, c, pool.len());
                    let mut lag = Samples::with_capacity(1 << 16);
                    let mut out =
                        Outcome { latency: Samples::with_capacity(1 << 16), ..Outcome::default() };
                    for i in 0u64.. {
                        if schedule.due(i) >= to {
                            break;
                        }
                        let (due, late) = schedule.wait_for(i);
                        let which = order[i as usize % order.len()];
                        let reply = client.query(pool[which].spec.clone(), None);
                        let done = Instant::now();
                        let ok = judge(&pool[which], reply, verify);
                        let counted = due >= from;
                        if counted || !ok {
                            out.attempted += 1;
                        }
                        if !ok {
                            out.failed += 1;
                        } else if counted {
                            lag.push(late);
                            out.latency.push_at(nanos(done - from), nanos(done - due));
                        }
                    }
                    (out, lag)
                })
            })
            .collect();
        for handle in handles {
            let (out, connection_lag) = handle.join().expect("scheduled connection thread");
            total.absorb(out);
            lag.extend(connection_lag);
        }
    });
    Ok((total, lag))
}

/// One append of a scheduled stream.
pub struct AppendOp {
    pub series: SeriesId,
    pub points: Vec<f64>,
}

/// How an append stream is paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// The next append leaves when the previous one is acknowledged;
    /// latency runs from the send.
    ClosedLoop,
    /// Append `i` is due at `start + i / rate`; latency runs from the due
    /// time, so an append that overruns its slot charges the ones it
    /// delayed.
    PerSecond(f64),
}

/// Sends `ops` over one connection, one blocking append at a time — the
/// appends of a series must stay ordered, and a second append in flight
/// would sit behind the first in the server's in-order response queue.
/// The stream runs on the calling thread. Returns the outcome and how many
/// appends were acknowledged (warm-up included), in op order.
pub fn append_stream(
    client: &Client,
    ops: impl Iterator<Item = AppendOp>,
    pace: Pace,
    warmup: Duration,
    window: Duration,
) -> Result<(Outcome, u64), String> {
    let _load = LoadThreads::claim(1)?;
    let start = Instant::now() + Duration::from_millis(5);
    let from = start + warmup;
    let to = from + window;
    let schedule = match pace {
        Pace::ClosedLoop => None,
        Pace::PerSecond(rate) => Some(Schedule::new(start, rate)),
    };
    let mut out =
        Outcome { latency: Samples::with_capacity(1 << 14), window, ..Outcome::default() };
    let mut acked = 0u64;
    for (i, op) in ops.enumerate() {
        let due = match &schedule {
            Some(schedule) if schedule.due(i as u64) >= to => break,
            Some(schedule) => schedule.wait_for(i as u64).0,
            None if Instant::now() >= to => break,
            None => Instant::now(),
        };
        let result = client.append(op.series, op.points);
        let done = Instant::now();
        let counted = due >= from;
        if counted || result.is_err() {
            out.attempted += 1;
        }
        match result {
            Ok(()) => {
                acked += 1;
                if counted {
                    out.latency
                        .push_at(nanos(done - from), nanos(done.saturating_duration_since(due)));
                }
            }
            Err(err) => {
                eprintln!("FAILED append to {}: {}", op.series, err);
                out.failed += 1;
                // A lost ack leaves the series length unknown to the
                // checker; stop the stream rather than guess.
                break;
            }
        }
    }
    Ok((out, acked))
}
