//! The four workloads and what they share: run arguments, the report a
//! run produces, repeated set-up, and the pieces of the traced run common
//! to every workload that goes through the serving stack.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kvmatch_core::catalog::{Catalog, CatalogBackend};
use kvmatch_core::{IndexBuildConfig, MemoryCatalogBackend, SeriesId};
use kvmatch_serve::MetricsSnapshot;
use kvmatch_server::NetSnapshot;
use serde_json::Value;

use crate::drive::{append_stream, AppendOp, Outcome, Pace, Served};
use crate::inputs::{self, series_id, Layout, OracleSeries, PoolEntry, WINDOW};
use crate::layers::{self, LayerSamples};
use crate::metrics::MetricSet;
use crate::stats::{median_f64, nanos, Samples};
use crate::trace::Tracer;

pub mod dtw_verify;
pub mod ed_point;
pub mod ingest_mixed;
pub mod offline_file;

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// One line on why it exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub run: fn(&RunArgs) -> Result<Report, String>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dtw_verify",
        why: "verification-bound: banded DTW and its lower-bound cascade are most of each request, wire and scheduler little",
        run: dtw_verify::run,
    },
    Workload {
        name: "ed_point",
        why: "overhead-bound: cheap cached ED queries, so client, proto, server and the batch-delay wait dominate; mirror of dtw_verify",
        run: ed_point::run,
    },
    Workload {
        name: "ingest_mixed",
        why: "writes beside reads on the durable LSM path: scheduled appends and closed-loop queries share the catalog code",
        run: ingest_mixed::run,
    },
    Workload {
        name: "offline_file",
        why: "library path, no serving stack and no row cache: file-store scans, probe, interval algebra and index build do the work",
        run: offline_file::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Arguments of one run.
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and trace-file directory (inside the benchmark's own tree).
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Caches fill and lazy set-up finishes here, unmeasured.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 8.0).clamp(0.25, 2.0))
    }

    /// A fresh scratch directory for this process.
    pub fn scratch(&self, label: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory under the out dir");
        dir
    }
}

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// End-to-end metrics this run's sample cannot carry (a p99 of fewer
    /// than 1 000 samples): left out of the result, never estimated.
    pub withheld: Vec<&'static str>,
    /// Informational values (sample counts, settings, extra percentiles).
    pub info: Vec<(String, Value)>,
}

impl Report {
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.info.push((key.to_string(), value.into()));
    }

    pub fn absorb(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
    }

    /// Counts one pass/fail check as an operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// Set-up repeats per run; the reported `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// A fixture whose construction was timed.
pub trait Fixture {
    /// Data already generated → ready to take the first request, seconds.
    fn setup_s(&self) -> f64;
    /// The index-building part of that, seconds.
    fn build_s(&self) -> f64;
    fn teardown(self);
}

/// Sets up `repeats` times, tears all but the last down, and returns the
/// last fixture with the median set-up time and the *fastest* index build.
/// A set-up is what a user waits for, so it is reported as it usually is;
/// the build is a fixed amount of work whose time is a rate's denominator
/// (`build_points_s`), and on this host what is added to it — a 10 ms
/// deschedule inside a 36 ms build, an `fsync` that takes 5 ms, not 0.5 —
/// is the host's, so the least disturbed of the repeats measures the code.
pub fn repeated_setup<F: Fixture>(
    repeats: usize,
    mut make: impl FnMut(usize) -> Result<F, String>,
) -> Result<(F, f64, f64), String> {
    let mut setups = Vec::with_capacity(repeats);
    let mut builds = Vec::with_capacity(repeats);
    let mut last = None;
    for k in 0..repeats {
        if let Some(previous) = last.take() {
            F::teardown(previous);
        }
        let fixture = make(k)?;
        setups.push(fixture.setup_s());
        builds.push(fixture.build_s());
        last = Some(fixture);
    }
    let fastest_build = builds.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((last.expect("at least one set-up"), median_f64(&setups), fastest_build))
}

/// A memory-backed catalog behind the serving stack.
pub struct MemoryFixture {
    pub served: Served<MemoryCatalogBackend>,
    setup_s: f64,
    build_s: f64,
    /// Encoded index rows across all series, bytes.
    pub index_bytes: u64,
    pub index_rows: u64,
}

impl MemoryFixture {
    pub fn build(
        data: &[Vec<f64>],
        shards: usize,
        workers: usize,
        connections: usize,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut catalog = Catalog::new(MemoryCatalogBackend);
        for (i, xs) in data.iter().enumerate() {
            catalog
                .create_series_with(series_id(i), IndexBuildConfig::new(WINDOW), xs)
                .expect("fresh series ids");
        }
        catalog.materialize().expect("memory backend materializes");
        let build_s = t0.elapsed().as_secs_f64();
        let mut index_bytes = 0;
        let mut index_rows = 0;
        for i in 0..data.len() {
            index_bytes += catalog.store(series_id(i)).expect("sealed").payload_bytes() as u64;
            index_rows += catalog.index(series_id(i)).expect("sealed").meta().row_count() as u64;
        }
        let served = Served::start(catalog, shards, workers, connections, None)?;
        Ok(Self { served, setup_s: t0.elapsed().as_secs_f64(), build_s, index_bytes, index_rows })
    }
}

impl Fixture for MemoryFixture {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn build_s(&self) -> f64 {
        self.build_s
    }
    fn teardown(self) {
        drop(self.served.shutdown());
    }
}

/// One oracle per series of a workload, ids in series order.
pub fn oracles_for(data: &[Vec<f64>], layout: Layout) -> Vec<OracleSeries> {
    data.iter()
        .enumerate()
        .map(|(i, xs)| OracleSeries::new(series_id(i), xs.clone(), layout))
        .collect()
}

/// Books a finished pool: the exhaustive-scan check of every 16th query,
/// and how long oracle and pool construction took since `started`.
pub fn book_pool(
    report: &mut Report,
    oracles: &[OracleSeries],
    pool: &[PoolEntry],
    started: Instant,
) {
    let (checked, disagreeing) = inputs::naive_check(oracles, pool);
    report.attempted += checked;
    report.failed += disagreeing;
    report.note("oracle_s", started.elapsed().as_secs_f64());
}

/// Records `peak_rss_mb`: `VmHWM` of this process, MiB. Called right after
/// the query window — the high-water mark never falls, and what the append
/// probes and post-run checks allocate afterwards is the benchmark's own.
pub fn note_peak_rss(report: &mut Report) {
    report.metrics.set("peak_rss_mb", peak_rss_mb());
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency percentiles a run reports. The median is the whole window's.
///
/// The named p99 is the **calm-stretch tail estimate**
/// ([`Samples::calm_quantile_ns`]): the second-lowest of the p99s of five
/// consecutive stretches of the window. The reference host, a shared
/// 2-vCPU VM, is descheduled or holds an `fsync` for tens to hundreds of
/// milliseconds now and then: over ten seeds the whole-window p99 of
/// `ed_point` read 3.6 to 65 ms, that of `ingest_mixed`'s appends 9 to
/// 534 ms, and in three runs of ten even the median of the five stretches
/// was carried off (26 to 40 ms against 10 to 11) — spreads no bound the
/// driver allows can hold. The price is stated, not hidden: a stretch's
/// p99 rests on a few samples only, and a change that adds rare long
/// stalls moves the whole-window p99, not the named one. The whole-window
/// p99 is therefore carried beside it as `*_p99_whole_window_ms`, into the
/// suite's summary too, where `compare` judges it like a named metric.
///
/// Either p99 is reported only when the window holds the 1 000 samples a
/// p99 needs (ten beyond it); a shorter run withholds both.
pub fn report_latency(report: &mut Report, p50: &'static str, p99: &'static str, samples: Samples) {
    let what = p50.trim_end_matches("_p50_ms");
    let calm_p99_ms = samples.calm_quantile_ns(0.99) as f64 / 1e6;
    let sorted = samples.sorted();
    eprintln!("{} p99(calm stretch)={calm_p99_ms:.4}ms", sorted.describe(what));
    report.metrics.set(p50, sorted.quantile_ms(0.5));
    report.note(&format!("{what}_samples"), sorted.len());
    if sorted.supports(0.99) {
        report.metrics.set(p99, calm_p99_ms);
        report.note(&format!("{what}_p99_whole_window_ms"), sorted.quantile_ms(0.99));
    } else {
        eprintln!(
            "WITHHELD: {p99} needs 1000 samples (ten beyond it), this window gave {}",
            sorted.len()
        );
        report.withheld.push(p99);
    }
    if let Some(q) = sorted.highest_supported().filter(|&q| q > 0.99) {
        report.note(&format!("{what}_p{}_ms", q * 100.0), sorted.quantile_ms(q));
    }
}

/// Points per append of the quiet append probe.
pub const QUIET_APPEND_POINTS: usize = 100;
/// Appends the probe sends: a fixed count, not a fixed time, so that the
/// p99 of their acknowledgements always has its 1 000 samples.
const QUIET_APPENDS: usize = 2_000;

/// The quiet append probe of the memory-backed served workloads: small
/// appends in closed loop after the query window, round-robin over the
/// series, so the append path of every served topology has an ack latency
/// on record. Returns the outcome and the points acknowledged per series.
fn quiet_append_probe(
    served: &Served<MemoryCatalogBackend>,
    seed: u64,
    series_count: usize,
) -> Result<(Outcome, Vec<usize>), String> {
    let per_series = QUIET_APPENDS.div_ceil(series_count) * QUIET_APPEND_POINTS;
    let tails: Vec<Vec<f64>> = (0..series_count)
        .map(|i| inputs::series(inputs::mix(seed, 0xA99E), i, per_series))
        .collect();
    let ops = (0..QUIET_APPENDS).map(|k| {
        let s = k % series_count;
        let at = (k / series_count) * QUIET_APPEND_POINTS;
        AppendOp { series: series_id(s), points: tails[s][at..at + QUIET_APPEND_POINTS].to_vec() }
    });
    // The ops run out long before the window does.
    let (outcome, acked) = append_stream(
        &served.clients[0],
        ops,
        Pace::ClosedLoop,
        Duration::from_millis(200),
        Duration::from_secs(60),
    )?;
    let mut grown = vec![0usize; series_count];
    for k in 0..acked as usize {
        grown[k % series_count] += QUIET_APPEND_POINTS;
    }
    Ok((outcome, grown))
}

/// What every memory-backed served workload does after its query window:
/// the quiet append probe, the check that every acknowledged point is
/// served, and the metrics common to all workloads.
pub fn finish_memory_run(
    report: &mut Report,
    fixture: &MemoryFixture,
    seed: u64,
    series_count: usize,
    points_per_series: usize,
    setup_s: f64,
    build_s: f64,
) -> Result<(), String> {
    let (appends, grown) = quiet_append_probe(&fixture.served, seed, series_count)?;
    report.absorb(&appends);
    report_latency(report, "append_ack_p50_ms", "append_ack_p99_ms", appends.latency);
    let expected: Vec<_> =
        grown.iter().enumerate().map(|(i, g)| (series_id(i), points_per_series + g)).collect();
    check_series_lengths(report, &fixture.served, &expected);
    report_common(report, setup_s, build_s, series_count * points_per_series, fixture.index_bytes);
    Ok(())
}

/// Every acknowledged point is in the published snapshot.
pub fn check_series_lengths<B>(
    report: &mut Report,
    served: &Served<B>,
    expected: &[(SeriesId, usize)],
) where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    for &(series, want) in expected {
        let got = served
            .service
            .read_view(series)
            .and_then(|v| v.generation(series).map(|g| g.index().series_len()));
        report.check(got == Some(want), &format!("{series} holds {got:?} points, acked {want}"));
    }
}

/// Counter readings bracketing a loaded window.
pub struct Counters {
    at: Instant,
    serve: MetricsSnapshot,
    net: NetSnapshot,
}

impl Counters {
    pub fn read<B>(served: &Served<B>) -> Self
    where
        B: CatalogBackend + Send + Sync + 'static,
        B::Store: Send + Sync + 'static,
        B::Data: Send + Sync + 'static,
    {
        Self { at: Instant::now(), serve: served.service.metrics(), net: served.net_metrics() }
    }

    /// Loaded-run waiting and traffic, as deltas from `before` to `self`.
    pub fn report_since(&self, before: &Counters, m: &mut MetricSet) {
        let (a, b) = (&self.serve, &before.serve);
        m.set("server.frames_in", (self.net.frames_in - before.net.frames_in) as f64);
        m.set("server.bytes_out", (self.net.bytes_out - before.net.bytes_out) as f64);
        m.set(
            "server.protocol_errors",
            (self.net.protocol_errors - before.net.protocol_errors) as f64,
        );
        let batches = a.batches - b.batches;
        if batches > 0 {
            m.set(
                "serve.batch_occupancy",
                (a.batched_queries - b.batched_queries) as f64 / batches as f64,
            );
        }
        m.set("serve.queue_depth_peak", a.queue_depth_peak as f64);
        m.set("serve.ingest_depth_peak", a.ingest_depth_peak as f64);
        m.set("serve.rejected", (a.rejected - b.rejected) as f64);
        m.set(
            "serve.expired",
            ((a.expired + a.expired_exec) - (b.expired + b.expired_exec)) as f64,
        );
        let busy_us: u64 =
            a.workers.iter().zip(&b.workers).map(|(x, y)| x.busy_us - y.busy_us).sum();
        let capacity_us = nanos(self.at - before.at) as f64 / 1e3 * a.workers.len() as f64;
        m.set("serve.worker_busy_share", busy_us as f64 / capacity_us.max(1.0));
    }
}

/// How the traced run splits `--seconds`.
pub struct TracePlan {
    /// Untraced loaded window the counter deltas come from.
    pub loaded: Duration,
    /// Budget of the four-depth replay.
    pub replay: Duration,
}

impl TracePlan {
    pub fn of(args: &RunArgs) -> Self {
        Self {
            loaded: Duration::from_secs_f64(args.seconds * 0.4),
            replay: Duration::from_secs_f64(args.seconds * 0.6),
        }
    }
}

/// Requests the traced replay walks through, at most.
pub const TRACE_REQUESTS: usize = 200;

/// The serve-side cost of an append: acks of in-process
/// `QueryService::append` against direct `Catalog::append` + `materialize`
/// of the same chunks on a shadow catalog holding the same series.
pub fn append_self_time<B>(
    served: &Served<B>,
    shadow: &mut Catalog<B>,
    chunks: &[(SeriesId, Vec<f64>)],
    m: &mut MetricSet,
) -> Result<(), String>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    let mut served_us = Vec::with_capacity(chunks.len());
    let mut direct_ms = Vec::with_capacity(chunks.len());
    for (series, points) in chunks {
        let t = Instant::now();
        served
            .service
            .append(*series, points.clone(), Duration::from_secs(5))
            .map_err(|r| format!("in-process append rejected: {}", r.rejected))?
            .wait()
            .map_err(|e| format!("in-process append failed: {e}"))?;
        served_us.push(nanos(t.elapsed()) as f64 / 1e3);
        let t = Instant::now();
        shadow.append(*series, points).map_err(|e| format!("shadow append: {e}"))?;
        shadow.materialize().map_err(|e| format!("shadow materialize: {e}"))?;
        direct_ms.push(nanos(t.elapsed()) as f64 / 1e6);
    }
    let direct = median_f64(&direct_ms);
    m.set("core.append_materialize_ms", direct);
    m.set("serve.append_self_us", (median_f64(&served_us) - direct * 1e3).max(0.0));
    Ok(())
}

/// Writes the trace file and the per-layer metrics of a finished replay,
/// and prints the layer table to stderr.
pub fn finish_trace(
    args: &RunArgs,
    workload: &str,
    tracer: &Tracer,
    acc: &LayerSamples,
    report: &mut Report,
) -> Result<(), String> {
    acc.report(&mut report.metrics);
    let shares = layers::layer_shares(tracer, &mut report.metrics);
    eprintln!("traced {} requests; self time as a share of the request:", acc.requests);
    for (layer, share) in &shares {
        eprintln!("  {layer:<14} {:>6.2} %", share * 100.0);
        report.note(&format!("trace_share.{layer}"), *share);
    }
    report.note("trace_requests", acc.requests);
    let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
    tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The traced run of a memory-backed served workload: a loaded window for
/// the counter deltas (driven by `load`), then the four-depth replay of
/// the pool in connection 0's seeded order, then the measurements that
/// need no load.
pub fn traced_memory(
    args: &RunArgs,
    workload: &str,
    fixture: &MemoryFixture,
    data: &[Vec<f64>],
    pool: &[PoolEntry],
    load: impl FnOnce(Duration, Duration) -> Result<Outcome, String>,
    report: &mut Report,
) -> Result<(), String> {
    let plan = TracePlan::of(args);
    let served = &fixture.served;

    let before = Counters::read(served);
    let outcome = load(args.warmup().min(plan.loaded / 4), plan.loaded)?;
    Counters::read(served).report_since(&before, &mut report.metrics);
    report.absorb(&outcome);

    report.metrics.set("wire.ping_rtt_us", layers::ping_rtt_us(&served.clients[0], 200));
    let mut tracer = Tracer::new();
    let mut acc = LayerSamples::default();
    let order = inputs::replay_order(args.seed, 0, pool.len());
    let mut specs = order.iter().take(TRACE_REQUESTS).map(|&i| &pool[i].spec);
    layers::trace_served(
        &mut tracer,
        &mut acc,
        &served.service,
        &served.clients[0],
        &mut specs,
        plan.replay,
    )?;
    finish_trace(args, workload, &tracer, &acc, report)?;

    report.metrics.set("core.build_rows_points_s", layers::build_rows_points_s(&data[0]));
    report.metrics.set("core.index_rows", fixture.index_rows as f64);
    let mut shadow = Catalog::new(MemoryCatalogBackend);
    for (i, xs) in data.iter().enumerate() {
        shadow
            .create_series_with(series_id(i), IndexBuildConfig::new(WINDOW), xs)
            .map_err(|e| format!("shadow catalog: {e}"))?;
    }
    shadow.materialize().map_err(|e| format!("shadow catalog: {e}"))?;
    let tail = inputs::series(inputs::mix(args.seed, 0x5AD0), 0, 30 * QUIET_APPEND_POINTS);
    let chunks: Vec<(SeriesId, Vec<f64>)> = tail
        .chunks(QUIET_APPEND_POINTS)
        .enumerate()
        .map(|(k, c)| (series_id(k % data.len()), c.to_vec()))
        .collect();
    append_self_time(served, &mut shadow, &chunks, &mut report.metrics)
}

/// Fills the end-to-end metrics every workload reports the same way.
pub fn report_common(
    report: &mut Report,
    setup_s: f64,
    build_s: f64,
    points: usize,
    index_bytes: u64,
) {
    report.metrics.set("setup_s", setup_s);
    report.metrics.set("build_points_s", points as f64 / build_s.max(1e-9));
    report.metrics.set("index_bytes_per_point", index_bytes as f64 / points as f64);
}
