//! Transport-independent wire protocol for the KV-match serving layer.
//!
//! The serving pipeline (`kvmatch-serve`) is an in-process API; this crate
//! defines the stable binary surface that lets remote processes drive it.
//! `kvmatch-server` speaks it on the accept side, `kvmatch-client` on the
//! connect side, and nothing in here knows about sockets — frames are encoded
//! to `Vec<u8>` and parsed from byte slices, with [`read_frame`] /
//! [`write_frame`] as thin `io::Read`/`io::Write` adapters.
//!
//! # Frame layout
//!
//! Every message, in either direction, is one frame:
//!
//! ```text
//! [ payload_len: u32 LE ][ version: u8 ][ opcode: u8 ][ request_id: u64 LE ][ body ... ]
//!                        `-------------------- payload (payload_len bytes) -----------'
//! ```
//!
//! * `payload_len` counts everything after itself (version byte through body
//!   end) and is capped at [`MAX_FRAME`]; larger prefixes are rejected before
//!   any allocation happens, and encoders refuse to *produce* such frames
//!   ([`ProtoError::FrameTooLarge`]) so an oversized message surfaces as a
//!   typed error on the sending side instead of a connection teardown.
//! * `version` is [`VERSION`]. Decoders reject every other value with
//!   [`ProtoError::UnknownVersion`] so a server can answer an incompatible
//!   client with [`code::UNSUPPORTED_VERSION`] instead of misparsing it.
//! * `opcode` selects the [`Request`] or [`Response`] variant (request
//!   opcodes have the high bit clear, response opcodes have it set).
//! * `request_id` is chosen by the client and echoed verbatim in the
//!   response; a connection may have many requests in flight (pipelining)
//!   and ids are how responses are demultiplexed. Id 0 is **reserved** for
//!   connection-scoped server error frames — request codecs reject it
//!   ([`ProtoError::ReservedRequestId`]).
//!
//! All integers are little-endian; `f64` travels as `to_bits()` so values
//! round-trip bit-identically (NaN payloads included) — `benchmark/` and
//! the socket tests lean on this to prove socket answers equal in-process
//! answers.
//!
//! Decoding is total: any byte sequence either parses or yields a typed
//! [`ProtoError`]. The decoder never panics and never allocates more than
//! the declared (bounds-checked) payload.

use std::fmt;
use std::io::{self, Read, Write};

use kvmatch_core::{Constraint, CoreError, MatchResult, MatchStats, Measure, QuerySpec, SeriesId};
use kvmatch_distance::LpExponent;
pub use kvmatch_obs::{ExplainReport, SpanRecord};

/// The protocol version this crate encodes and accepts.
pub const VERSION: u8 = 3;

/// Oldest protocol version accepted — equal to [`VERSION`]: no peer of an
/// older version exists, so there is one wire layout.
pub const MIN_VERSION: u8 = VERSION;

/// Upper bound on `payload_len` (64 MiB). A length prefix beyond this is
/// rejected as [`ProtoError::FrameTooLarge`] before any buffer is reserved,
/// so a malicious or corrupt prefix cannot trigger a huge allocation.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Stable numeric error codes carried by [`Response::Error`] frames.
///
/// Codes 1–4 mirror the serving-layer `ServeError` variants, 10–15 mirror
/// `CoreError`, and 30–33 are protocol-level failures the peer raises
/// before a request ever reaches the scheduler. The table is append-only:
/// codes are never renumbered or reused.
pub mod code {
    /// Admission control turned the request away (queue full or shutting
    /// down); details ride in [`WireRejected`](super::WireRejected).
    pub const REJECTED: u16 = 1;
    /// The request's deadline passed before or during execution.
    pub const DEADLINE_EXCEEDED: u16 = 2;
    /// The service stopped before the request completed.
    pub const SHUTTING_DOWN: u16 = 3;
    /// An append was acknowledged but the post-append snapshot rebuild
    /// failed; readers still serve the previous snapshot.
    pub const MATERIALIZE_FAILED: u16 = 4;
    /// Parameter-domain violation (`CoreError::InvalidQuery`).
    pub const INVALID_QUERY: u16 = 10;
    /// `|Q| < w` (`CoreError::QueryTooShort`).
    pub const QUERY_TOO_SHORT: u16 = 11;
    /// Query routed to a series the catalog does not hold.
    pub const UNKNOWN_SERIES: u16 = 12;
    /// Appends pending materialization (`CoreError::Unmaterialized`).
    pub const UNMATERIALIZED: u16 = 13;
    /// Storage-layer failure.
    pub const STORAGE: u16 = 14;
    /// Persisted index failed validation.
    pub const CORRUPT_INDEX: u16 = 15;
    /// The peer sent a frame whose body failed to parse.
    pub const MALFORMED_FRAME: u16 = 30;
    /// The peer sent an unknown version byte; the error detail names the
    /// supported version and the connection is closed after the reply.
    pub const UNSUPPORTED_VERSION: u16 = 31;
    /// The peer sent an opcode this side does not understand.
    pub const UNKNOWN_OPCODE: u16 = 32;
    /// The peer declared a payload larger than [`MAX_FRAME`](super::MAX_FRAME).
    pub const FRAME_TOO_LARGE: u16 = 33;
}

mod opcode {
    pub const REQ_QUERY: u8 = 0x01;
    pub const REQ_APPEND: u8 = 0x02;
    pub const REQ_METRICS: u8 = 0x03;
    pub const REQ_PING: u8 = 0x04;
    pub const REQ_SHUTDOWN: u8 = 0x05;
    pub const REQ_METRICS_TEXT: u8 = 0x06;
    pub const RESP_QUERY: u8 = 0x81;
    pub const RESP_APPENDED: u8 = 0x82;
    pub const RESP_METRICS: u8 = 0x83;
    pub const RESP_PONG: u8 = 0x84;
    pub const RESP_SHUTDOWN: u8 = 0x85;
    pub const RESP_METRICS_TEXT: u8 = 0x86;
    pub const RESP_ERROR: u8 = 0xFF;
}

/// A client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Execute a subsequence-matching query (range or top-k via
    /// `spec.limit`). `deadline_us` bounds queue wait + execution;
    /// `None` uses the server's default deadline.
    Query {
        /// The query specification, exactly as the in-process API takes it.
        spec: QuerySpec,
        /// Optional per-request deadline, microseconds.
        deadline_us: Option<u64>,
    },
    /// Append points to a series through the ingest lane. The response is
    /// sent once the append is durably applied (ingest-lane `wait` mode).
    Append {
        /// Target series.
        series: SeriesId,
        /// Points to append.
        points: Vec<f64>,
    },
    /// Fetch a serving + network metrics snapshot.
    Metrics,
    /// Fetch the full Prometheus-style text exposition (every registered
    /// metric plus the slow-query log).
    MetricsText,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
}

/// A server→client message. `Error` can answer any request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful query execution.
    Query {
        /// Qualified subsequences (nearest-first for top-k).
        results: Vec<MatchResult>,
        /// Execution statistics.
        stats: MatchStats,
        /// Submit→response latency measured inside the service, µs.
        latency_us: u64,
        /// The structured trace, present iff the request's spec set
        /// `explain`.
        explain: Option<Box<ExplainReport>>,
    },
    /// The append was applied.
    Appended,
    /// Metrics snapshot.
    Metrics(WireMetrics),
    /// Prometheus-style text exposition.
    MetricsText(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownStarted,
    /// The request failed; see [`WireError`].
    Error(WireError),
}

/// Wire form of a failed request: a stable numeric [`code`], a
/// human-readable detail string, and — for admission rejections — the
/// queue-state payload that lets clients implement informed backoff.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// One of the [`code`] constants.
    pub code: u16,
    /// Human-readable context (never required for dispatching on `code`).
    pub detail: String,
    /// Present iff `code == code::REJECTED`.
    pub rejected: Option<WireRejected>,
}

/// Admission-rejection detail mirroring `kvmatch_serve`'s `Rejected`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRejected {
    /// 0 = backpressure (queue full), 1 = shutting down.
    pub kind: u8,
    /// Configured queue capacity.
    pub capacity: u64,
    /// Queue depth observed at rejection time.
    pub depth: u64,
    /// The rejecting shard's id.
    pub shard: u64,
}

/// `WireRejected::kind` value for backpressure rejections.
pub const REJECT_KIND_BACKPRESSURE: u8 = 0;
/// `WireRejected::kind` value for shutdown rejections.
pub const REJECT_KIND_SHUTDOWN: u8 = 1;

/// Serving + network counters carried by [`Response::Metrics`]. The first
/// block mirrors `kvmatch_serve::MetricsSnapshot` (aggregated over workers);
/// the `net_*` block is the server's per-connection accounting folded
/// together.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireMetrics {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Admitted requests whose deadline passed before dispatch.
    pub expired: u64,
    /// Requests whose deadline passed during execution.
    pub expired_exec: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a query error.
    pub failed: u64,
    /// Append commands applied by the ingest lane.
    pub appends: u64,
    /// Failed snapshot rebuilds.
    pub materialize_failures: u64,
    /// Executor shard batches dispatched.
    pub batches: u64,
    /// Queries summed across those batches.
    pub batched_queries: u64,
    /// `batched_queries / batches`.
    pub avg_batch_occupancy: f64,
    /// Largest batch dispatched.
    pub max_batch_occupancy: u64,
    /// Requests waiting right now.
    pub queue_depth: u64,
    /// Deepest the queue has been.
    pub queue_depth_peak: u64,
    /// Appends waiting in the ingest lane right now.
    pub ingest_depth: u64,
    /// Deepest the ingest lane has been.
    pub ingest_depth_peak: u64,
    /// Dispatch workers serving the scheduler.
    pub workers: u64,
    /// Median submit→response latency, µs.
    pub latency_p50_us: u64,
    /// 95th-percentile latency, µs.
    pub latency_p95_us: u64,
    /// 99th-percentile latency, µs.
    pub latency_p99_us: u64,
    /// Worst observed latency, µs.
    pub latency_max_us: u64,
    /// Connections accepted since startup.
    pub net_connections_accepted: u64,
    /// Connections currently open.
    pub net_connections_active: u64,
    /// Request frames read off sockets.
    pub net_frames_in: u64,
    /// Response frames written to sockets.
    pub net_frames_out: u64,
    /// Payload bytes read off sockets.
    pub net_bytes_in: u64,
    /// Payload bytes written to sockets.
    pub net_bytes_out: u64,
    /// Connections terminated for protocol violations.
    pub net_protocol_errors: u64,
}

impl fmt::Display for WireMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: submitted {}, completed {}, failed {}, rejected {}, \
             expired {}+{}, appends {} ({} materialize failures)",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected,
            self.expired,
            self.expired_exec,
            self.appends,
            self.materialize_failures,
        )?;
        writeln!(
            f,
            "batch: {} batches / {} queries (avg {:.2}, max {}), workers {}",
            self.batches,
            self.batched_queries,
            self.avg_batch_occupancy,
            self.max_batch_occupancy,
            self.workers,
        )?;
        writeln!(
            f,
            "queue: depth {} (peak {}), ingest {} (peak {})",
            self.queue_depth, self.queue_depth_peak, self.ingest_depth, self.ingest_depth_peak,
        )?;
        writeln!(
            f,
            "latency_us: p50 {}, p95 {}, p99 {}, max {}",
            self.latency_p50_us, self.latency_p95_us, self.latency_p99_us, self.latency_max_us,
        )?;
        write!(
            f,
            "net: {} accepted ({} active), frames {}/{} in/out, bytes {}/{} in/out, \
             {} protocol errors",
            self.net_connections_accepted,
            self.net_connections_active,
            self.net_frames_in,
            self.net_frames_out,
            self.net_bytes_in,
            self.net_bytes_out,
            self.net_protocol_errors,
        )
    }
}

/// Typed decode/IO failures. Decoding never panics; every malformed input
/// maps to one of these.
#[derive(Debug)]
pub enum ProtoError {
    /// The input ended before the declared structure did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The version byte is not [`VERSION`].
    UnknownVersion(u8),
    /// The opcode byte is not a known request/response opcode.
    UnknownOpcode(u8),
    /// The body parsed structurally but carried an invalid value.
    Malformed(String),
    /// The body contained bytes beyond the declared structure.
    TrailingBytes,
    /// A request frame used id 0, which is reserved for connection-scoped
    /// server error frames (raised by `Request::encode` and
    /// [`decode_request`]; responses may carry id 0).
    ReservedRequestId,
    /// Transport failure while reading or writing a frame.
    Io(io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::FrameTooLarge(len) => {
                write!(f, "declared payload of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            ProtoError::UnknownVersion(v) => {
                write!(f, "unknown protocol version {v} (supported: {VERSION})")
            }
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after frame body"),
            ProtoError::ReservedRequestId => {
                write!(f, "request id 0 is reserved for connection-scoped error frames")
            }
            ProtoError::Io(err) => write!(f, "frame io: {err}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(err: io::Error) -> Self {
        // A clean EOF mid-frame is a truncation, not a transport fault.
        if err.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(err)
        }
    }
}

impl ProtoError {
    /// The [`code`] a peer should answer this decode failure with.
    pub fn wire_code(&self) -> u16 {
        match self {
            ProtoError::UnknownVersion(_) => code::UNSUPPORTED_VERSION,
            ProtoError::UnknownOpcode(_) => code::UNKNOWN_OPCODE,
            ProtoError::FrameTooLarge(_) => code::FRAME_TOO_LARGE,
            _ => code::MALFORMED_FRAME,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    put_u32(buf, xs.len() as u32);
    for &x in xs {
        put_f64(buf, x);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
    }
}

fn put_spec(buf: &mut Vec<u8>, spec: &QuerySpec) {
    put_u64(buf, spec.series.raw());
    put_f64s(buf, &spec.query);
    put_f64(buf, spec.epsilon);
    match spec.measure {
        Measure::Ed => buf.push(0),
        Measure::Dtw { rho } => {
            buf.push(1);
            put_u32(buf, rho as u32);
        }
        Measure::Lp { p } => {
            buf.push(2);
            match p {
                LpExponent::Finite(p) => {
                    buf.push(0);
                    put_u32(buf, p);
                }
                LpExponent::Infinity => buf.push(1),
            }
        }
    }
    match spec.constraint {
        None => buf.push(0),
        Some(Constraint { alpha, beta }) => {
            buf.push(1);
            put_f64(buf, alpha);
            put_f64(buf, beta);
        }
    }
    put_opt_u64(buf, spec.limit.map(|k| k as u64));
    buf.push(spec.explain as u8);
}

fn put_stats(buf: &mut Vec<u8>, s: &MatchStats) {
    for v in [
        s.candidates,
        s.candidate_intervals,
        s.index_accesses,
        s.rows_scanned,
        s.rows_from_cache,
        s.intervals_collected,
        s.probe_cache_hits,
        s.cache_evictions,
        s.points_fetched,
        s.pruned_constraint,
        s.pruned_lb_kim,
        s.pruned_lb_keogh,
        s.full_distance_computations,
        s.matches,
        s.phase1_nanos,
        s.phase2_nanos,
        s.lb_kim_nanos,
        s.lb_keogh_nanos,
        s.dtw_nanos,
        s.alloc_events,
        s.adaptive_skipped_lb_kim,
        s.adaptive_skipped_lb_keogh,
    ] {
        put_u64(buf, v);
    }
}

fn put_explain(buf: &mut Vec<u8>, report: &ExplainReport) {
    for (_, v) in report.counters() {
        put_u64(buf, v);
    }
    put_u32(buf, report.spans.len() as u32);
    for span in &report.spans {
        put_str(buf, &span.name);
        put_u32(buf, span.depth);
        put_u64(buf, span.nanos);
    }
}

fn put_metrics(buf: &mut Vec<u8>, m: &WireMetrics) {
    for v in [
        m.submitted,
        m.rejected,
        m.expired,
        m.expired_exec,
        m.completed,
        m.failed,
        m.appends,
        m.materialize_failures,
        m.batches,
        m.batched_queries,
    ] {
        put_u64(buf, v);
    }
    put_f64(buf, m.avg_batch_occupancy);
    for v in [
        m.max_batch_occupancy,
        m.queue_depth,
        m.queue_depth_peak,
        m.ingest_depth,
        m.ingest_depth_peak,
        m.workers,
        m.latency_p50_us,
        m.latency_p95_us,
        m.latency_p99_us,
        m.latency_max_us,
        m.net_connections_accepted,
        m.net_connections_active,
        m.net_frames_in,
        m.net_frames_out,
        m.net_bytes_in,
        m.net_bytes_out,
        m.net_protocol_errors,
    ] {
        put_u64(buf, v);
    }
}

/// Assembles one frame, enforcing on the way *out* the same bound
/// [`read_frame`] enforces on the way in. The check runs on the final
/// `usize` body length, so it also subsumes every `as u32` element-count
/// cast above: a sequence long enough to wrap a `u32` count is orders of
/// magnitude past [`MAX_FRAME`] in bytes, and the frame errors here
/// before the truncated count could ever reach a peer.
fn frame(opcode: u8, request_id: u64, body: Vec<u8>) -> Result<Vec<u8>, ProtoError> {
    let payload_len = 1 + 1 + 8 + body.len();
    if payload_len > MAX_FRAME as usize {
        let reported = u32::try_from(payload_len).unwrap_or(u32::MAX);
        return Err(ProtoError::FrameTooLarge(reported));
    }
    let mut out = Vec::with_capacity(4 + payload_len);
    put_u32(&mut out, payload_len as u32);
    out.push(VERSION);
    out.push(opcode);
    put_u64(&mut out, request_id);
    out.extend_from_slice(&body);
    Ok(out)
}

fn check_version(version: u8) -> Result<(), ProtoError> {
    if version == VERSION {
        Ok(())
    } else {
        Err(ProtoError::UnknownVersion(version))
    }
}

impl Request {
    /// Encodes this request as one complete frame (length prefix included).
    ///
    /// Fails with [`ProtoError::FrameTooLarge`] when the encoded payload
    /// would exceed [`MAX_FRAME`] (a peer would reject it unread anyway),
    /// and with [`ProtoError::ReservedRequestId`] for request id 0 —
    /// that id is reserved for connection-scoped server error frames.
    pub fn encode(&self, request_id: u64) -> Result<Vec<u8>, ProtoError> {
        if request_id == 0 {
            return Err(ProtoError::ReservedRequestId);
        }
        let mut body = Vec::new();
        let op = match self {
            Request::Query { spec, deadline_us } => {
                put_spec(&mut body, spec);
                put_opt_u64(&mut body, *deadline_us);
                opcode::REQ_QUERY
            }
            Request::Append { series, points } => {
                put_u64(&mut body, series.raw());
                put_f64s(&mut body, points);
                opcode::REQ_APPEND
            }
            Request::Metrics => opcode::REQ_METRICS,
            Request::MetricsText => opcode::REQ_METRICS_TEXT,
            Request::Ping => opcode::REQ_PING,
            Request::Shutdown => opcode::REQ_SHUTDOWN,
        };
        frame(op, request_id, body)
    }
}

impl Response {
    /// Encodes this response as one complete frame (length prefix included).
    ///
    /// Fails with [`ProtoError::FrameTooLarge`] when the encoded payload
    /// would exceed [`MAX_FRAME`] — a query answer that large must be
    /// replaced by an error frame, not sent to a peer that will reject it.
    /// Request id 0 is legal here: it tags connection-scoped error frames.
    pub fn encode(&self, request_id: u64) -> Result<Vec<u8>, ProtoError> {
        let mut body = Vec::new();
        let op = match self {
            Response::Query { results, stats, latency_us, explain } => {
                put_u32(&mut body, results.len() as u32);
                for r in results {
                    put_u64(&mut body, r.offset as u64);
                    put_f64(&mut body, r.distance);
                }
                put_stats(&mut body, stats);
                put_u64(&mut body, *latency_us);
                match explain {
                    None => body.push(0),
                    Some(report) => {
                        body.push(1);
                        put_explain(&mut body, report);
                    }
                }
                opcode::RESP_QUERY
            }
            Response::Appended => opcode::RESP_APPENDED,
            Response::Metrics(m) => {
                put_metrics(&mut body, m);
                opcode::RESP_METRICS
            }
            Response::MetricsText(text) => {
                put_str(&mut body, text);
                opcode::RESP_METRICS_TEXT
            }
            Response::Pong => opcode::RESP_PONG,
            Response::ShutdownStarted => opcode::RESP_SHUTDOWN,
            Response::Error(err) => {
                put_u16(&mut body, err.code);
                put_str(&mut body, &err.detail);
                match &err.rejected {
                    None => body.push(0),
                    Some(r) => {
                        body.push(1);
                        body.push(r.kind);
                        put_u64(&mut body, r.capacity);
                        put_u64(&mut body, r.depth);
                        put_u64(&mut body, r.shard);
                    }
                }
                opcode::RESP_ERROR
            }
        };
        frame(op, request_id, body)
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed f64 vector. The element count is validated against
    /// the bytes actually present before allocating.
    fn f64s(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.u32()? as usize;
        if self.remaining() < n.saturating_mul(8) {
            return Err(ProtoError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("error detail is not UTF-8".into()))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(ProtoError::Malformed(format!("invalid option tag {tag}"))),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

fn usize_from(v: u64, what: &str) -> Result<usize, ProtoError> {
    usize::try_from(v).map_err(|_| ProtoError::Malformed(format!("{what} overflows usize")))
}

fn take_spec(c: &mut Cursor<'_>) -> Result<QuerySpec, ProtoError> {
    let series = SeriesId::new(c.u64()?);
    let query = c.f64s()?;
    let epsilon = c.f64()?;
    let measure = match c.u8()? {
        0 => Measure::Ed,
        1 => Measure::Dtw { rho: c.u32()? as usize },
        2 => match c.u8()? {
            0 => Measure::Lp { p: LpExponent::Finite(c.u32()?) },
            1 => Measure::Lp { p: LpExponent::Infinity },
            tag => return Err(ProtoError::Malformed(format!("invalid Lp tag {tag}"))),
        },
        tag => return Err(ProtoError::Malformed(format!("invalid measure tag {tag}"))),
    };
    let constraint = match c.u8()? {
        0 => None,
        1 => Some(Constraint { alpha: c.f64()?, beta: c.f64()? }),
        tag => return Err(ProtoError::Malformed(format!("invalid constraint tag {tag}"))),
    };
    let limit = match c.opt_u64()? {
        None => None,
        Some(k) => Some(usize_from(k, "top-k limit")?),
    };
    let explain = match c.u8()? {
        0 => false,
        1 => true,
        tag => return Err(ProtoError::Malformed(format!("invalid explain tag {tag}"))),
    };
    Ok(QuerySpec { series, query, epsilon, measure, constraint, limit, explain })
}

fn take_stats(c: &mut Cursor<'_>) -> Result<MatchStats, ProtoError> {
    Ok(MatchStats {
        candidates: c.u64()?,
        candidate_intervals: c.u64()?,
        index_accesses: c.u64()?,
        rows_scanned: c.u64()?,
        rows_from_cache: c.u64()?,
        intervals_collected: c.u64()?,
        probe_cache_hits: c.u64()?,
        cache_evictions: c.u64()?,
        points_fetched: c.u64()?,
        pruned_constraint: c.u64()?,
        pruned_lb_kim: c.u64()?,
        pruned_lb_keogh: c.u64()?,
        full_distance_computations: c.u64()?,
        matches: c.u64()?,
        phase1_nanos: c.u64()?,
        phase2_nanos: c.u64()?,
        lb_kim_nanos: c.u64()?,
        lb_keogh_nanos: c.u64()?,
        dtw_nanos: c.u64()?,
        alloc_events: c.u64()?,
        adaptive_skipped_lb_kim: c.u64()?,
        adaptive_skipped_lb_keogh: c.u64()?,
    })
}

fn take_explain(c: &mut Cursor<'_>) -> Result<ExplainReport, ProtoError> {
    let mut report = ExplainReport::default();
    let fields = report.counters().len();
    for i in 0..fields {
        let v = c.u64()?;
        report.set_counter(i, v);
    }
    let n = c.u32()? as usize;
    // Each span is at least a 4-byte name length + depth + nanos.
    if c.remaining() < n.saturating_mul(16) {
        return Err(ProtoError::Truncated);
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let name = c.str()?;
        let depth = c.u32()?;
        let nanos = c.u64()?;
        spans.push(SpanRecord { name, depth, nanos });
    }
    report.spans = spans;
    Ok(report)
}

fn take_metrics(c: &mut Cursor<'_>) -> Result<WireMetrics, ProtoError> {
    Ok(WireMetrics {
        submitted: c.u64()?,
        rejected: c.u64()?,
        expired: c.u64()?,
        expired_exec: c.u64()?,
        completed: c.u64()?,
        failed: c.u64()?,
        appends: c.u64()?,
        materialize_failures: c.u64()?,
        batches: c.u64()?,
        batched_queries: c.u64()?,
        avg_batch_occupancy: c.f64()?,
        max_batch_occupancy: c.u64()?,
        queue_depth: c.u64()?,
        queue_depth_peak: c.u64()?,
        ingest_depth: c.u64()?,
        ingest_depth_peak: c.u64()?,
        workers: c.u64()?,
        latency_p50_us: c.u64()?,
        latency_p95_us: c.u64()?,
        latency_p99_us: c.u64()?,
        latency_max_us: c.u64()?,
        net_connections_accepted: c.u64()?,
        net_connections_active: c.u64()?,
        net_frames_in: c.u64()?,
        net_frames_out: c.u64()?,
        net_bytes_in: c.u64()?,
        net_bytes_out: c.u64()?,
        net_protocol_errors: c.u64()?,
    })
}

/// A parsed frame: the echoed request id plus the decoded message.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame<T> {
    /// The pipelining id this frame belongs to.
    pub request_id: u64,
    /// The protocol version the frame arrived in (always [`VERSION`]:
    /// every other value is refused before a `Frame` exists).
    pub version: u8,
    /// The decoded message.
    pub message: T,
}

/// Splits a payload (everything after the length prefix) into
/// `(version, opcode, request_id, body)`, refusing a version byte other
/// than [`VERSION`].
fn split_payload(payload: &[u8]) -> Result<(u8, u8, u64, &[u8]), ProtoError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    check_version(version)?;
    let op = c.u8()?;
    let request_id = c.u64()?;
    let body = &payload[c.pos..];
    Ok((version, op, request_id, body))
}

/// Decodes a request payload (the bytes after the length prefix).
/// Request id 0 is rejected ([`ProtoError::ReservedRequestId`]) — it is
/// reserved for the error frames a server sends when a request cannot be
/// attributed, so accepting it would let a response be misattributed.
pub fn decode_request(payload: &[u8]) -> Result<Frame<Request>, ProtoError> {
    let (version, op, request_id, body) = split_payload(payload)?;
    if request_id == 0 {
        return Err(ProtoError::ReservedRequestId);
    }
    let mut c = Cursor::new(body);
    let message = match op {
        opcode::REQ_QUERY => {
            let spec = take_spec(&mut c)?;
            let deadline_us = c.opt_u64()?;
            Request::Query { spec, deadline_us }
        }
        opcode::REQ_APPEND => {
            let series = SeriesId::new(c.u64()?);
            let points = c.f64s()?;
            Request::Append { series, points }
        }
        opcode::REQ_METRICS => Request::Metrics,
        opcode::REQ_METRICS_TEXT => Request::MetricsText,
        opcode::REQ_PING => Request::Ping,
        opcode::REQ_SHUTDOWN => Request::Shutdown,
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(Frame { request_id, version, message })
}

/// Decodes a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Frame<Response>, ProtoError> {
    let (version, op, request_id, body) = split_payload(payload)?;
    let mut c = Cursor::new(body);
    let message = match op {
        opcode::RESP_QUERY => {
            let n = c.u32()? as usize;
            if c.remaining() < n.saturating_mul(16) {
                return Err(ProtoError::Truncated);
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let offset = usize_from(c.u64()?, "match offset")?;
                let distance = c.f64()?;
                results.push(MatchResult { offset, distance });
            }
            let stats = take_stats(&mut c)?;
            let latency_us = c.u64()?;
            let explain = match c.u8()? {
                0 => None,
                1 => Some(Box::new(take_explain(&mut c)?)),
                tag => return Err(ProtoError::Malformed(format!("invalid explain tag {tag}"))),
            };
            Response::Query { results, stats, latency_us, explain }
        }
        opcode::RESP_APPENDED => Response::Appended,
        opcode::RESP_METRICS => Response::Metrics(take_metrics(&mut c)?),
        opcode::RESP_METRICS_TEXT => Response::MetricsText(c.str()?),
        opcode::RESP_PONG => Response::Pong,
        opcode::RESP_SHUTDOWN => Response::ShutdownStarted,
        opcode::RESP_ERROR => {
            let code = c.u16()?;
            let detail = c.str()?;
            let rejected = match c.u8()? {
                0 => None,
                1 => Some(WireRejected {
                    kind: c.u8()?,
                    capacity: c.u64()?,
                    depth: c.u64()?,
                    shard: c.u64()?,
                }),
                tag => return Err(ProtoError::Malformed(format!("invalid rejection tag {tag}"))),
            };
            Response::Error(WireError { code, detail, rejected })
        }
        other => return Err(ProtoError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(Frame { request_id, version, message })
}

// ---------------------------------------------------------------------------
// Stream adapters
// ---------------------------------------------------------------------------

/// Reads one length-prefixed payload off a stream. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed between messages);
/// mid-frame EOF is [`ProtoError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a boundary EOF is distinguishable from a
    // truncated prefix.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 { Ok(None) } else { Err(ProtoError::Truncated) };
            }
            Ok(n) => got += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    let payload_len = u32::from_le_bytes(len_buf);
    if payload_len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(payload_len));
    }
    // version + opcode + request_id is the smallest legal payload.
    if payload_len < 10 {
        return Err(ProtoError::Malformed(format!(
            "payload length {payload_len} below header size"
        )));
    }
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one already-encoded frame (as produced by
/// [`Request::encode`]/[`Response::encode`]) to a stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame).map_err(ProtoError::from)
}

/// Convenience: reads and decodes one request frame.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Frame<Request>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => decode_request(&payload).map(Some),
    }
}

/// Convenience: reads and decodes one response frame.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Frame<Response>>, ProtoError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => decode_response(&payload).map(Some),
    }
}

/// Maps a `CoreError` to its stable wire code.
pub fn core_error_code(err: &CoreError) -> u16 {
    match err {
        CoreError::InvalidQuery(_) => code::INVALID_QUERY,
        CoreError::QueryTooShort { .. } => code::QUERY_TOO_SHORT,
        CoreError::UnknownSeries(_) => code::UNKNOWN_SERIES,
        CoreError::Unmaterialized => code::UNMATERIALIZED,
        CoreError::Storage(_) => code::STORAGE,
        CoreError::CorruptIndex(_) => code::CORRUPT_INDEX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_len(frame: &[u8]) -> &[u8] {
        &frame[4..]
    }

    #[test]
    fn simple_round_trips() {
        for (req, id) in
            [(Request::Metrics, 1u64), (Request::Ping, u64::MAX), (Request::Shutdown, 2)]
        {
            let enc = req.encode(id).unwrap();
            let frame = decode_request(strip_len(&enc)).unwrap();
            assert_eq!(frame.request_id, id);
            assert_eq!(frame.message, req);
        }
        // Responses may carry the reserved id 0 (connection-scoped errors).
        for (resp, id) in
            [(Response::Appended, 7u64), (Response::Pong, 0), (Response::ShutdownStarted, 9)]
        {
            let enc = resp.encode(id).unwrap();
            let frame = decode_response(strip_len(&enc)).unwrap();
            assert_eq!(frame.request_id, id);
            assert_eq!(frame.message, resp);
        }
    }

    #[test]
    fn nan_distance_round_trips_bit_identically() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let resp = Response::Query {
            results: vec![MatchResult { offset: 3, distance: weird }],
            stats: MatchStats::default(),
            latency_us: 12,
            explain: None,
        };
        let enc = resp.encode(1).unwrap();
        let frame = decode_response(strip_len(&enc)).unwrap();
        match frame.message {
            Response::Query { results, .. } => {
                assert_eq!(results[0].distance.to_bits(), weird.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_read_recovers_boundary_eof() {
        let req = Request::Ping.encode(42).unwrap();
        let mut stream: &[u8] = &req;
        let frame = read_request(&mut stream).unwrap().unwrap();
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.message, Request::Ping);
        assert!(read_request(&mut stream).unwrap().is_none());
    }
}
