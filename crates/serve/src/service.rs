//! The query service: a [`Router`] scattering submissions across N
//! [`CatalogShard`]s, each running the full
//! micro-batching pipeline — bounded lane, front scheduler,
//! series-partitioned worker dispatch, dedicated ingest lane — over its
//! own catalog slice, with admission control and identity-preserving
//! fan-back.
//!
//! ```text
//!  clients                router                       catalog shards
//!  ───────                ──────                       ──────────────
//!  submit ──► SeriesId → shard hash ──► shard 0: queue ► scheduler ► workers ► pinned
//!    │                │               ► shard 1: queue ► scheduler ► workers   snapshot
//!    │     full? Rejected{shard}      ► shard N: queue ► scheduler ► workers  (lock-free)
//!    │    (per-shard backpressure)                 │
//!    │                                             └─ appends ► shard's ingest lane
//!    ▼                                                (per-series epoch barrier)
//!  ResponseHandle ◄────────── oneshot per request ◄── fan-back (input order)
//! ```
//!
//! Routing happens at submission: the [`Router`] hashes the request's
//! [`SeriesId`] to a shard and the request joins *that shard's* bounded
//! lane. From there the shard's own scheduler drains micro-batches,
//! partitions them by `(series, ingest epoch)` and hands runs to its
//! worker pool, exactly as the single-catalog pipeline did — each worker
//! **pins the shard's latest published
//! [`CatalogSnapshot`]** (one
//! `Arc` clone under a pointer-sized lock) and executes against that
//! immutable generation set with no catalog lock held at all. Because a
//! series lives on exactly one shard, the per-series epoch barriers and
//! the submission-order guarantees of the one-catalog design carry over
//! unchanged, while shards share *nothing*: no lock, no queue, no write
//! guard. An ingest stall, a failing backend or a saturated lane on one
//! shard leaves every other shard serving at full speed.
//!
//! Identity is preserved end-to-end: each request owns a oneshot
//! channel, runs keep their jobs in submission order, and
//! `execute_batch` returns outputs in input order, so the gather side
//! can never cross wires — a mixed-series batch scattered over four
//! shards returns bit-identical answers to the same batch on one shard.
//!
//! Construction goes through the validating [`ServiceBuilder`]
//! (`QueryService::builder(catalog).shards(4).build()?`); reads outside
//! the request path go through [`QueryService::read_view`], which pins a
//! shard's snapshot implementing
//! [`ReadView`](kvmatch_core::catalog::ReadView).

use std::sync::Arc;
use std::time::{Duration, Instant};

use kvmatch_core::catalog::{Catalog, CatalogBackend, CatalogSnapshot};
use kvmatch_core::{CoreError, MatchResult, MatchStats, QuerySpec, SeriesId};
use kvmatch_obs::{ExplainReport, Registry, TraceCtx};

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::shard::{CatalogShard, Command, Job, Router};
use crate::sync::{oneshot, PushError};

/// The resolved, validated tuning of a [`QueryService`] — produced only
/// by [`ServiceBuilder::build`], so every shard pipeline can trust its
/// invariants (non-zero workers/batch, queue ≥ batch).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServiceConfig {
    /// Per-shard admission-control bound: requests queued on one shard's
    /// lane at once.
    pub(crate) queue_capacity: usize,
    /// Scheduler flush trigger 1: dispatch once this many commands are
    /// drained into the forming batch.
    pub(crate) max_batch: usize,
    /// Scheduler flush trigger 2: dispatch at latest this long after the
    /// batch's first command arrived, full or not.
    pub(crate) max_batch_delay: Duration,
    /// Deadline applied to requests that don't carry their own.
    pub(crate) default_deadline: Option<Duration>,
    /// Executor workers per shard.
    pub(crate) workers: usize,
    /// Catalog shards.
    pub(crate) shards: usize,
}

/// A rejected [`ServiceBuilder`] configuration, naming the violated
/// invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards(0)`: at least one catalog shard must exist.
    ZeroShards,
    /// `workers(0)`: every shard needs at least one executor worker.
    ZeroWorkers,
    /// `max_batch(0)`: the scheduler cannot form empty batches.
    ZeroBatch,
    /// The per-shard queue cannot hold even one full batch — the
    /// scheduler would never reach `max_batch` occupancy.
    QueueSmallerThanBatch {
        /// The configured per-shard queue bound.
        queue_capacity: usize,
        /// The configured batch bound it cannot hold.
        max_batch: usize,
    },
    /// More than one shard was requested over a backend that cannot
    /// mint independent per-shard instances
    /// ([`CatalogBackend::shard_instance`] returned `None` — e.g. a
    /// single-directory LSM backend). Such catalogs serve at
    /// `shards(1)`.
    UnshardableBackend {
        /// The requested shard count.
        shards: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ZeroWorkers => write!(f, "workers per shard must be at least 1"),
            ConfigError::ZeroBatch => write!(f, "max_batch must be at least 1"),
            ConfigError::QueueSmallerThanBatch { queue_capacity, max_batch } => write!(
                f,
                "queue_capacity ({queue_capacity}) must hold at least one full batch (max_batch = {max_batch})"
            ),
            ConfigError::UnshardableBackend { shards } => write!(
                f,
                "backend cannot provide independent shard instances (requested {shards} shards); serve it with shards(1)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating constructor of a [`QueryService`]: typed defaults,
/// chainable setters, and a [`build`](ServiceBuilder::build) that
/// rejects inconsistent topologies instead of spawning them.
///
/// ```no_run
/// # use kvmatch_core::{Catalog, MemoryCatalogBackend};
/// # use kvmatch_serve::QueryService;
/// # let catalog = Catalog::new(MemoryCatalogBackend);
/// let service = QueryService::builder(catalog)
///     .shards(4)
///     .workers(2)
///     .queue_capacity(128)
///     .build()
///     .expect("valid topology");
/// ```
///
/// Defaults: 1 shard, 2 workers per shard, per-shard queue of 256,
/// batches of up to 32 commands flushed within 2 ms, no default
/// deadline, a private metrics [`Registry`].
pub struct ServiceBuilder<B: CatalogBackend> {
    catalog: Catalog<B>,
    shards: usize,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    max_batch_delay: Duration,
    default_deadline: Option<Duration>,
    registry: Option<Arc<Registry>>,
}

impl<B> ServiceBuilder<B>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    /// A builder over `catalog` with the default topology (see the type
    /// docs). Equivalent to [`QueryService::builder`].
    pub fn new(catalog: Catalog<B>) -> Self {
        Self {
            catalog,
            shards: 1,
            workers: 2,
            queue_capacity: 256,
            max_batch: 32,
            max_batch_delay: Duration::from_millis(2),
            default_deadline: None,
            registry: None,
        }
    }

    /// Catalog shards: independent `Catalog` + scheduler + worker-pool +
    /// ingest-lane pipelines, one per core under load. Series are placed
    /// by the [`Router`]; more than one shard requires a backend whose
    /// [`CatalogBackend::shard_instance`] mints independent instances.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Executor workers *per shard* (the service runs `shards × workers`
    /// workers in total). Runs of one micro-batch — one per `(series,
    /// ingest epoch)` — execute on distinct workers concurrently; a
    /// shard's scheduler hands a run only to an *idle* worker, so
    /// query-side buffering stays bounded at `queue_capacity + max_batch`
    /// per shard regardless of the pool size.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-shard admission-control bound: requests queued on one shard's
    /// lane at once. A full lane rejects ([`Submit::Rejected`], stamped
    /// with the shard id) — that rejection *is* the backpressure signal,
    /// and it is per shard: one saturated shard does not reject traffic
    /// routed elsewhere.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Scheduler flush trigger 1: dispatch once this many commands are
    /// drained into the forming batch.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Scheduler flush trigger 2: dispatch at latest this long after the
    /// batch's first command arrived, full or not — bounds the latency
    /// cost of waiting for batchmates.
    pub fn max_batch_delay(mut self, delay: Duration) -> Self {
        self.max_batch_delay = delay;
        self
    }

    /// Deadline applied to requests that don't carry their own (none by
    /// default). Expired requests are answered
    /// [`ServeError::DeadlineExceeded`] instead of their results.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Registers the serving metrics on a caller-provided [`Registry`] —
    /// so the server (or a test) can expose its own counters alongside
    /// the serving layer's (including the per-shard
    /// `kvmatch_serve_shard_*` families) in a single text scrape.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Validates the topology, splits the catalog across the shards and
    /// starts every pipeline. The catalog is consumed either way; on
    /// `Err` nothing was spawned.
    pub fn build(self) -> Result<QueryService<B>, ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.queue_capacity < self.max_batch {
            return Err(ConfigError::QueueSmallerThanBatch {
                queue_capacity: self.queue_capacity,
                max_batch: self.max_batch,
            });
        }
        if self.shards > 1 && self.catalog.backend().shard_instance().is_none() {
            return Err(ConfigError::UnshardableBackend { shards: self.shards });
        }
        let config = ServiceConfig {
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            max_batch_delay: self.max_batch_delay,
            default_deadline: self.default_deadline,
            workers: self.workers,
            shards: self.shards,
        };
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = Arc::new(Metrics::on_registry(registry, config.shards, config.workers));
        let router = Router::new(config.shards);
        // Split the catalog along the exact placement the router will
        // apply to every submission — same arithmetic, same totals —
        // so a routed request always lands on the shard owning its
        // series.
        let slices = self
            .catalog
            .split_routed(config.shards, |series| router.route(series))
            .map_err(|_| ConfigError::UnshardableBackend { shards: config.shards })?;
        let shards = slices
            .into_iter()
            .enumerate()
            .map(|(id, slice)| CatalogShard::spawn(id, slice, config, Arc::clone(&metrics)))
            .collect();
        Ok(QueryService { router, shards, metrics, config })
    }
}

/// What a request asks for — derived from
/// [`QuerySpec::limit`](kvmatch_core::QuerySpec) but named explicitly at
/// the serving surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Every subsequence within ε, offset order.
    Range,
    /// The k nearest subsequences within ε, nearest-first.
    TopK(usize),
}

/// One client request: a routed query spec plus an optional per-request
/// deadline (measured from submission; expired requests are answered
/// with [`ServeError::DeadlineExceeded`] instead of their results).
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The query, already routed at a series via
    /// [`QuerySpec::with_series`](kvmatch_core::QuerySpec::with_series).
    pub spec: QuerySpec,
    /// Per-request deadline; `None` falls back to
    /// [`ServiceBuilder::default_deadline`].
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A range request (clears any top-k limit on the spec).
    pub fn range(mut spec: QuerySpec) -> Self {
        spec.limit = None;
        Self { spec, deadline: None }
    }

    /// A top-k request: the `k` nearest subsequences within the spec's ε.
    pub fn top_k(spec: QuerySpec, k: usize) -> Self {
        Self { spec: spec.top_k(k), deadline: None }
    }

    /// The request's kind.
    pub fn kind(&self) -> QueryKind {
        match self.spec.limit {
            Some(k) => QueryKind::TopK(k),
            None => QueryKind::Range,
        }
    }

    /// Attaches a deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served answer.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Range: qualified subsequences in offset order. Top-k: the k
    /// nearest, nearest-first (ties by lower offset).
    pub results: Vec<MatchResult>,
    /// The executor's per-query statistics.
    pub stats: MatchStats,
    /// Submit→response latency as measured by the service.
    pub latency: Duration,
    /// The structured trace, present iff the request's spec carried
    /// [`QuerySpec::explain`](kvmatch_core::QuerySpec). Stage timings and
    /// prune counts mirror [`QueryResponse::stats`]; the span list adds
    /// where the request spent its queueing and execution wall time.
    pub explain: Option<Box<ExplainReport>>,
}

/// Why admission control turned a command away. Shared by query and
/// append rejections, and by the wire protocol's rejection payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The shard's bounded lane stayed full for the whole wait —
    /// explicit backpressure; retrying after a backoff is expected.
    Backpressure,
    /// The service is shutting down; retrying cannot succeed.
    ShuttingDown,
}

/// One admission rejection, with the lane state that caused it. The
/// same shape covers queries ([`RejectedQuery`]), appends
/// ([`RejectedAppend`]) and the wire protocol's `REJECTED` error
/// payload, so every surface reports backpressure identically —
/// including *which shard* pushed back, since backpressure is per shard:
/// a client seeing rejections from shard 2 can keep its traffic for
/// other shards flowing at full rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Backpressure or shutdown.
    pub kind: RejectKind,
    /// The configured per-shard lane capacity
    /// ([`ServiceBuilder::queue_capacity`]).
    pub capacity: usize,
    /// The rejecting shard's lane depth observed at rejection time
    /// (≈ `capacity` for backpressure; whatever remained for shutdown).
    pub depth: usize,
    /// The shard whose lane rejected the command — the one the
    /// [`Router`] places the command's series on.
    pub shard: usize,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RejectKind::Backpressure => {
                write!(
                    f,
                    "shard {} queue full ({}/{} queued)",
                    self.shard, self.depth, self.capacity
                )
            }
            RejectKind::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// Serving-layer failures, delivered through the response channel.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control turned the command away (the routed shard's
    /// lane full for the whole wait, or the service is closing).
    Rejected(Rejected),
    /// The request's deadline passed — before dispatch (the queueing
    /// bound) or during execution (checked again before fan-back).
    DeadlineExceeded,
    /// The service shut down before producing a response.
    ShutDown,
    /// The query itself failed.
    Query(CoreError),
    /// The append was applied, but rebuilding the published snapshot
    /// failed afterwards — the points are ingested (and, on durable
    /// backends, persisted) yet queries keep serving the previous
    /// snapshot until a later materialization succeeds. Carries the
    /// underlying error rendered as text.
    Materialize(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected by admission control: {r}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShutDown => write!(f, "service shut down"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::Materialize(e) => {
                write!(f, "append applied but snapshot rebuild failed: {e}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

/// A turned-away query submission: the admission verdict plus the
/// caller's request, handed back untouched so it can be retried or shed.
#[derive(Debug)]
pub struct RejectedQuery {
    /// Why, and in what lane state (including the rejecting shard).
    pub rejected: Rejected,
    /// The request, returned unconsumed.
    pub request: QueryRequest,
}

impl RejectedQuery {
    /// True when retrying after a backoff can succeed (backpressure);
    /// false when the service is shutting down.
    pub fn is_retryable(&self) -> bool {
        self.rejected.kind == RejectKind::Backpressure
    }
}

/// Admission-control outcome of a submission.
#[must_use = "a rejected submission must be handled (retry, shed, or back off)"]
pub enum Submit {
    /// Admitted — await the response on the handle.
    Accepted(ResponseHandle),
    /// Not admitted — backpressure or shutdown, distinguished by
    /// [`RejectedQuery::rejected`]`.kind`. The request rides back inside.
    Rejected(RejectedQuery),
}

impl Submit {
    /// Converts the outcome into a `Result`, the non-panicking
    /// replacement for the `expect_accepted()` pattern: callers either
    /// propagate the rejection or match on
    /// [`RejectedQuery::is_retryable`] to retry.
    // The Err variant is deliberately large: the unconsumed request
    // rides back by value so a retry needs no clone.
    #[allow(clippy::result_large_err)]
    pub fn into_result(self) -> Result<ResponseHandle, RejectedQuery> {
        match self {
            Submit::Accepted(h) => Ok(h),
            Submit::Rejected(r) => Err(r),
        }
    }

    /// True for [`Submit::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Submit::Accepted(_))
    }
}

/// The client's future: one response, delivered exactly once.
pub struct ResponseHandle {
    rx: oneshot::Receiver<Result<QueryResponse, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShutDown))
    }

    /// Blocks up to `timeout`. Consumes the handle like [`wait`] does —
    /// the two waiting APIs share one ownership story — and hands it
    /// back as the `Err` arm when the response has not arrived yet, so
    /// "not ready" keeps the handle usable without `&self` aliasing:
    ///
    /// ```ignore
    /// handle = match handle.wait_timeout(tick) {
    ///     Ok(response) => break response,
    ///     Err(still_waiting) => still_waiting, // keep polling
    /// };
    /// ```
    ///
    /// [`wait`]: ResponseHandle::wait
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<QueryResponse, ServeError>, ResponseHandle> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(oneshot::RecvTimeoutError::Timeout) => Err(self),
            Err(oneshot::RecvTimeoutError::Disconnected) => Ok(Err(ServeError::ShutDown)),
        }
    }
}

/// Acknowledgement future of an [`QueryService::append`] command.
pub struct AppendHandle {
    rx: oneshot::Receiver<Result<(), ServeError>>,
}

impl AppendHandle {
    /// Blocks until the append was applied or failed. An `Ok` ack means
    /// the points are queryable and the backend's durability hook has
    /// returned. For the LSM backend that hook writes the points' WAL
    /// record to the file before the ack, so an acked append survives a
    /// process crash; the record is fsynced only when
    /// `LsmOptions::sync_wal` is set (off by default), so without it a
    /// power loss can drop the most recently acked appends.
    pub fn wait(self) -> Result<(), ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShutDown))
    }
}

/// A turned-away append: the admission verdict plus the caller's points,
/// handed back untouched so they can be retried — the same [`Rejected`]
/// shape as [`RejectedQuery`] carries for queries.
#[derive(Debug)]
pub struct RejectedAppend {
    /// Why, and in what lane state (including the rejecting shard).
    pub rejected: Rejected,
    /// The points, returned unconsumed.
    pub points: Vec<f64>,
}

impl RejectedAppend {
    /// True when retrying after a backoff can succeed (backpressure).
    pub fn is_retryable(&self) -> bool {
        self.rejected.kind == RejectKind::Backpressure
    }
}

/// The serving front door over a [`Catalog`]: build it with
/// [`QueryService::builder`], submit [`QueryRequest`]s from any number
/// of threads, receive [`ResponseHandle`]s. See the
/// [crate docs](crate) for the quick-start and the
/// [`shard` module](crate::shard) for the scale-out topology.
pub struct QueryService<B: CatalogBackend> {
    router: Router,
    shards: Vec<CatalogShard<B>>,
    metrics: Arc<Metrics>,
    config: ServiceConfig,
}

impl<B> QueryService<B>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    /// A [`ServiceBuilder`] over `catalog` — the only way to construct a
    /// service. `build()` takes ownership of the catalog, splits it
    /// across the configured shards and starts every pipeline;
    /// [`QueryService::shutdown`] reassembles and hands the catalog
    /// back.
    pub fn builder(catalog: Catalog<B>) -> ServiceBuilder<B> {
        ServiceBuilder::new(catalog)
    }

    /// Non-blocking submission: routed to its series' shard, admitted or
    /// immediately [`Submit::Rejected`] when that shard's lane is full.
    pub fn submit(&self, request: QueryRequest) -> Submit {
        self.submit_inner(request, None)
    }

    /// Blocking submission: waits up to `wait` for space on the routed
    /// shard's lane before giving up with [`Submit::Rejected`].
    pub fn submit_timeout(&self, request: QueryRequest, wait: Duration) -> Submit {
        self.submit_inner(request, Some(wait))
    }

    /// Cross-shard scatter: submits a mixed-series batch in order, each
    /// request to its series' shard, and returns the per-request
    /// outcomes input-aligned. The gather side needs no extra API —
    /// every accepted request fans back through its own
    /// [`ResponseHandle`], so waiting on the handles in order yields
    /// responses in submission order regardless of how the batch
    /// scattered.
    pub fn submit_batch(&self, requests: Vec<QueryRequest>) -> Vec<Submit> {
        requests.into_iter().map(|request| self.submit(request)).collect()
    }

    fn submit_inner(&self, request: QueryRequest, wait: Option<Duration>) -> Submit {
        let shard_id = self.router.route(request.spec.series);
        let shard = &self.shards[shard_id].shared;
        let (tx, rx) = oneshot::channel();
        // An explain query opens its trace at admission — `serve.queue`
        // covers everything from here to worker dispatch.
        let trace = request.spec.explain.then(|| {
            let mut trace = Box::new(TraceCtx::new());
            trace.begin("serve.queue");
            trace
        });
        let job = Command::Query(Job {
            spec: request.spec,
            // Keep the request's own deadline (the service default is
            // applied at dispatch) so a rejected submission hands the
            // request back truly untouched.
            deadline: request.deadline,
            submitted: Instant::now(),
            trace,
            tx,
        });
        let pushed = match wait {
            None => shard.queue.try_push(job),
            Some(d) => shard.queue.push_timeout(job, d),
        };
        match pushed {
            Ok(()) => {
                let depth = shard.queue.len() as u64;
                self.metrics.submitted.inc();
                self.metrics.queue_depth_peak.record_max(depth);
                shard.shard_metrics.submitted.inc();
                shard.shard_metrics.queue_depth_peak.record_max(depth);
                Submit::Accepted(ResponseHandle { rx })
            }
            Err(PushError::Full(cmd)) => {
                self.metrics.rejected.inc();
                shard.shard_metrics.rejected.inc();
                Submit::Rejected(RejectedQuery {
                    rejected: self.rejection(RejectKind::Backpressure, shard_id),
                    request: recover_request(cmd),
                })
            }
            Err(PushError::Closed(cmd)) => Submit::Rejected(RejectedQuery {
                rejected: self.rejection(RejectKind::ShuttingDown, shard_id),
                request: recover_request(cmd),
            }),
        }
    }

    /// Stamps a rejection with the routed shard's lane state observed
    /// right now.
    fn rejection(&self, kind: RejectKind, shard: usize) -> Rejected {
        Rejected {
            kind,
            capacity: self.config.queue_capacity,
            depth: self.shards[shard].shared.queue.len(),
            shard,
        }
    }

    /// Enqueues a streaming append, routed to its series' shard. It is
    /// ordered with queries *on its own series*: queries submitted after
    /// the append see its points, while queries on other series keep
    /// flowing through the worker pools during ingestion. Shares the
    /// shard's bounded lane — and therefore the per-shard backpressure —
    /// with queries; a turned-away append hands the points back
    /// ([`RejectedAppend`]) so the caller can retry.
    pub fn append(
        &self,
        series: SeriesId,
        points: Vec<f64>,
        wait: Duration,
    ) -> Result<AppendHandle, RejectedAppend> {
        let shard_id = self.router.route(series);
        let shard = &self.shards[shard_id].shared;
        let (tx, rx) = oneshot::channel();
        match shard.queue.push_timeout(Command::Append { series, points, tx }, wait) {
            Ok(()) => Ok(AppendHandle { rx }),
            Err(PushError::Full(Command::Append { points, .. })) => {
                self.metrics.rejected.inc();
                shard.shard_metrics.rejected.inc();
                Err(RejectedAppend {
                    rejected: self.rejection(RejectKind::Backpressure, shard_id),
                    points,
                })
            }
            Err(PushError::Closed(Command::Append { points, .. })) => Err(RejectedAppend {
                rejected: self.rejection(RejectKind::ShuttingDown, shard_id),
                points,
            }),
            Err(PushError::Full(_) | PushError::Closed(_)) => {
                unreachable!("append pushes come back as appends")
            }
        }
    }

    /// Pins the latest snapshot published by the shard hosting `series`
    /// — the [`ReadView`](kvmatch_core::catalog::ReadView) read path for
    /// callers outside the request pipeline (admin surfaces, tests,
    /// sequential baselines). One `Arc` clone under a pointer-sized
    /// lock; never the shard's catalog lock. `None` before the shard's
    /// first materialization.
    pub fn read_view(&self, series: SeriesId) -> Option<Arc<CatalogSnapshot<B>>> {
        self.shards[self.router.route(series)].read_view()
    }

    /// The series→shard placement this service routes with.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Catalog shards serving this catalog.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// A point-in-time metrics snapshot (service-wide counters plus the
    /// per-shard and per-worker splits).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(&self.live_depths())
    }

    /// The registry every serving metric lives on — callers may register
    /// their own metrics here to join the same exposition.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Prometheus-style text exposition of the whole registry plus the
    /// slow-query log — the body of the wire `MetricsText` response.
    pub fn metrics_text(&self) -> String {
        self.metrics.render_text(&self.live_depths())
    }

    /// Executor workers across all shards.
    pub fn workers(&self) -> usize {
        self.metrics.workers.len()
    }

    /// Each shard's live `(queue, ingest)` lane depths, indexed by
    /// shard id.
    fn live_depths(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| (s.shared.queue.len(), s.shared.ingest.len())).collect()
    }

    /// Graceful shutdown: stops admissions on every shard, serves
    /// everything already queued (queries and appends), retires the
    /// worker pools and ingest lanes, then reassembles the shards'
    /// catalog slices and hands the whole catalog back.
    pub fn shutdown(mut self) -> Catalog<B> {
        for shard in &self.shards {
            shard.close();
        }
        for shard in &mut self.shards {
            shard.join();
        }
        dump_slowlog(&self.metrics);
        let mut shards = std::mem::take(&mut self.shards).into_iter();
        let mut catalog =
            shards.next().expect("a built service has at least one shard").into_catalog();
        for shard in shards {
            catalog
                .absorb(shard.into_catalog())
                .expect("shard series sets are disjoint by construction");
        }
        catalog
    }
}

impl<B: CatalogBackend> Drop for QueryService<B> {
    fn drop(&mut self) {
        if self.shards.is_empty() {
            return; // shutdown() already retired everything
        }
        for shard in &self.shards {
            shard.close();
        }
        for shard in &mut self.shards {
            shard.join();
        }
        dump_slowlog(&self.metrics);
    }
}

/// Dumps the slow-query log on the way out — the last chance to see what
/// hurt before the process forgets. Runs once per service, after every
/// shard pipeline has been joined.
fn dump_slowlog(metrics: &Metrics) {
    if metrics.slowlog.depth() > 0 {
        let mut out = String::new();
        metrics.slowlog.render_into(&mut out);
        eprint!("{out}");
    }
}

fn recover_request(cmd: Command) -> QueryRequest {
    match cmd {
        Command::Query(job) => QueryRequest { spec: job.spec, deadline: job.deadline },
        Command::Append { .. } => unreachable!("submissions only enqueue queries"),
    }
}
