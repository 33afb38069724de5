//! `ingest_mixed` — writes beside reads on the durable path. Thirty-two series
//! on `LsmCatalogBackend` in a scratch directory (`shards(1)`, the only
//! topology LSM allows) behind the serving stack. Connection A appends on
//! a fixed schedule, each append to a seeded-random series (see
//! [`AppendPlan`]); connection B issues rsm_ed / cnsm_ed queries in closed
//! loop on the same series. The series grow 2.5-fold during the run, so
//! seal → delta run → compaction → retire completes hundreds of cycles. The same `core` catalog and index code writes
//! and reads at once: a read-side gain bought with a write-side cost, or
//! an LSM change that stalls readers, shows in one row.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvmatch_core::catalog::{Catalog, CatalogBackend, ReadView};
use kvmatch_core::{IndexBuildConfig, MatchResult, MemoryCatalogBackend, QuerySpec, SeriesId};
use kvmatch_lsm::{LsmCatalogBackend, LsmDb, LsmOptions};
use kvmatch_obs::Registry;
use kvmatch_storage::SeriesStore;
use rand::Rng;

use super::{
    append_self_time, book_pool, finish_trace, note_peak_rss, repeated_setup, report_common,
    report_latency, Counters, Fixture, Report, RunArgs, TracePlan, TRACE_REQUESTS,
};
use crate::drive::{append_stream, closed_loop, AppendOp, Outcome, Pace, Served};
use crate::inputs::{
    self, draw_pool, recomputed_match_ok, same_bits, series_id, shuffle_pool, Band, Class, Layout,
    OracleSeries, PoolEntry, WINDOW,
};
use crate::layers::{self, LayerSamples};
use crate::stats::{median_f64, nanos};
use crate::trace::Tracer;

const SERIES: usize = 32;
/// Points per series before the run.
const INITIAL: usize = 10_000;
/// Appends per second and points per append: 24 000 points/s.
const APPEND_RATE: f64 = 60.0;
const APPEND_POINTS: usize = 400;
const WORKERS: usize = 2;
/// Queries per class (rsm_ed : cnsm_ed = 1 : 1) and the band their draws
/// are kept in, on the initial data.
const POOL_PER_CLASS: usize = 32;
const BAND: Band = Band { selectivity: (0.2, 0.5), abandon_depth: None, max_matches: 64 };
/// LSM set-up repeats (each writes a fresh directory).
const SETUP_REPEATS: usize = 15;
/// Appends (after the loaded window) the serve-side append cost is timed on.
const SHADOW_APPENDS: usize = 24;
/// Pool queries re-run after the reopen against a memory-backed catalog.
const REOPEN_PROBES: usize = 16;

struct LsmFixture {
    served: Served<LsmCatalogBackend>,
    dir: PathBuf,
    setup_s: f64,
    build_s: f64,
    index_bytes: u64,
    index_rows: u64,
}

fn open_catalog(
    dir: &Path,
    registry: Option<&Registry>,
) -> Result<Catalog<LsmCatalogBackend>, String> {
    let backend = LsmCatalogBackend::open(dir, LsmOptions::default())
        .map_err(|e| format!("open LSM backend in {}: {e}", dir.display()))?;
    if let Some(registry) = registry {
        backend.points_db().publish_metrics(registry);
    }
    Catalog::open(backend).map_err(|e| format!("open catalog over {}: {e}", dir.display()))
}

fn seed_catalog(catalog: &mut Catalog<LsmCatalogBackend>, data: &[Vec<f64>]) -> Result<(), String> {
    for (i, xs) in data.iter().enumerate() {
        catalog
            .create_series_with(series_id(i), IndexBuildConfig::new(WINDOW), &xs[..INITIAL])
            .map_err(|e| format!("seed {}: {e}", series_id(i)))?;
    }
    catalog.materialize().map_err(|e| format!("materialize: {e}"))
}

/// Bytes of the index run files one series has on disk.
fn run_bytes(backend: &LsmCatalogBackend, series: SeriesId) -> u64 {
    let dir = backend.series_dir(series);
    backend
        .run_files_on_disk(series)
        .unwrap_or_default()
        .iter()
        .filter_map(|name| std::fs::metadata(dir.join(name)).ok())
        .map(|meta| meta.len())
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

impl LsmFixture {
    fn build(dir: PathBuf, data: &[Vec<f64>]) -> Result<Self, String> {
        let t0 = Instant::now();
        let registry = Arc::new(Registry::new());
        let mut catalog = open_catalog(&dir, Some(&registry))?;
        seed_catalog(&mut catalog, data)?;
        let build_s = t0.elapsed().as_secs_f64();
        let index_bytes = (0..data.len()).map(|i| run_bytes(catalog.backend(), series_id(i))).sum();
        let index_rows = (0..data.len())
            .map(|i| catalog.index(series_id(i)).expect("sealed").meta().row_count() as u64)
            .sum();
        let served = Served::start(catalog, 1, WORKERS, 2, Some(registry))?;
        Ok(Self {
            served,
            dir,
            setup_s: t0.elapsed().as_secs_f64(),
            build_s,
            index_bytes,
            index_rows,
        })
    }
}

impl Fixture for LsmFixture {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn build_s(&self) -> f64 {
        self.build_s
    }
    fn teardown(self) {
        drop(self.served.shutdown());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Which series each scheduled append goes to: a seeded random draw per
/// append, not round-robin. Equal appends in lock step put every series'
/// size-tiered compaction at the same instant — one fold per series back to back,
/// acknowledgements stalled for 100–265 ms a few times per run — which is a
/// property of the schedule, not of the LSM. Drawn at random, the series
/// drift apart and each fold delays only the appends behind it.
struct AppendPlan {
    targets: Vec<usize>,
}

impl AppendPlan {
    fn new(seed: u64, ops: usize) -> Self {
        let mut rng = inputs::rng_for(seed, 0xA9);
        Self { targets: (0..ops).map(|_| rng.random_range(0..SERIES)).collect() }
    }

    /// Appends series `s` has received after the first `acked` ops.
    fn appends_to(&self, acked: u64, s: usize) -> usize {
        self.targets[..acked as usize].iter().filter(|&&t| t == s).count()
    }

    /// Points series `s` holds after the first `acked` ops.
    fn length_after(&self, acked: u64, s: usize) -> usize {
        INITIAL + self.appends_to(acked, s) * APPEND_POINTS
    }

    /// Length every series must be generated to for the whole plan.
    fn full_length(&self) -> usize {
        (0..SERIES)
            .map(|s| self.length_after(self.targets.len() as u64, s))
            .max()
            .unwrap_or(INITIAL)
    }

    /// The ops in order: each takes its series' next [`APPEND_POINTS`].
    fn ops<'a>(&'a self, data: &'a [Vec<f64>]) -> impl Iterator<Item = AppendOp> + 'a {
        let mut sent = [0usize; SERIES];
        self.targets.iter().map(move |&s| {
            let at = INITIAL + sent[s] * APPEND_POINTS;
            sent[s] += 1;
            AppendOp { series: series_id(s), points: data[s][at..at + APPEND_POINTS].to_vec() }
        })
    }
}

/// Appends on connection 0 and queries on connection 1, side by side.
fn mixed_load(
    served: &Served<LsmCatalogBackend>,
    plan: &AppendPlan,
    data: &[Vec<f64>],
    pool: &[PoolEntry],
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Result<(Outcome, Outcome, u64), String> {
    // A match inside the initial prefix must be the pre-computed answer,
    // bit for bit; one that touches appended points is recomputed from
    // the raw data.
    let verify = |entry: &PoolEntry, got: &[MatchResult]| {
        let last_prefix_offset = INITIAL - entry.spec.query.len();
        let split = got.partition_point(|hit| hit.offset <= last_prefix_offset);
        same_bits(&got[..split], &entry.expected)
            && got[split..]
                .iter()
                .all(|hit| recomputed_match_ok(&data[entry.series], &entry.spec, hit))
    };
    std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            append_stream(
                &served.clients[0],
                plan.ops(data),
                Pace::PerSecond(APPEND_RATE),
                warmup,
                window,
            )
        });
        let queries = closed_loop(&served.clients[1..], pool, seed, 1, warmup, window, &verify);
        let (appends, acked) = appender.join().expect("append stream thread")?;
        Ok((queries?, appends, acked))
    })
}

/// After the run: stop the service, reopen the directory from disk, and
/// hold the recovered catalog to the acknowledged points and to a
/// memory-backed catalog over the same points. Returns the reopen time.
fn reopen_check(
    report: &mut Report,
    dir: &Path,
    plan: &AppendPlan,
    data: &[Vec<f64>],
    pool: &[PoolEntry],
    acked: u64,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut reopened = open_catalog(dir, None)?;
    let reopen_ms = nanos(t.elapsed()) as f64 / 1e6;
    reopened.materialize().map_err(|e| format!("materialize the reopened catalog: {e}"))?;

    let mut memory = Catalog::new(MemoryCatalogBackend);
    for (s, xs) in data.iter().enumerate() {
        let id = series_id(s);
        let want = &xs[..plan.length_after(acked, s)];
        let got = reopened.data(id).map(|d| d.fetch(0, d.len()));
        let same = matches!(&got, Some(Ok(points))
            if points.len() == want.len() && points.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()));
        report.check(same, &format!("{id}: every acknowledged point survives the reopen"));
        memory
            .create_series_with(id, IndexBuildConfig::new(WINDOW), want)
            .map_err(|e| format!("memory twin: {e}"))?;
    }
    memory.materialize().map_err(|e| format!("memory twin: {e}"))?;

    let specs: Vec<QuerySpec> = pool.iter().take(REOPEN_PROBES).map(|e| e.spec.clone()).collect();
    let durable = reopened.snapshot().ok_or("no snapshot after reopen")?.execute(&specs);
    let volatile = memory.snapshot().ok_or("no snapshot of the memory twin")?.execute(&specs);
    match (durable, volatile) {
        (Ok(durable), Ok(volatile)) => {
            for (d, v) in durable.outputs.iter().zip(&volatile.outputs) {
                report.check(
                    same_bits(&d.results, &v.results),
                    "reopened LSM catalog answers like a memory catalog over the same points",
                );
            }
        }
        (d, v) => return Err(format!("probe set failed: lsm {:?}, memory {:?}", d.err(), v.err())),
    }
    Ok(reopen_ms)
}

/// `LsmDb::put` and `flush` on a scratch store, with values the size of
/// the points rows the catalog's durability hook writes.
fn lsm_direct(dir: &Path, report: &mut Report) -> Result<(), String> {
    let db = LsmDb::open(dir, LsmOptions::default()).map_err(|e| format!("scratch LsmDb: {e}"))?;
    let value = vec![0x5Au8; APPEND_POINTS * 8];
    let mut put_us = Vec::with_capacity(400);
    let mut flush_ms = Vec::new();
    for k in 0u64..400 {
        let t = Instant::now();
        db.put(&k.to_be_bytes(), &value).map_err(|e| format!("put: {e}"))?;
        put_us.push(nanos(t.elapsed()) as f64 / 1e3);
        if k % 100 == 99 {
            let t = Instant::now();
            db.flush().map_err(|e| format!("flush: {e}"))?;
            flush_ms.push(nanos(t.elapsed()) as f64 / 1e6);
        }
    }
    report.metrics.set("lsm.put_us", median_f64(&put_us));
    report.metrics.set("lsm.flush_ms", median_f64(&flush_ms));
    Ok(())
}

/// The fastest of [`SETUP_REPEATS`] index builds of the initial series on
/// the *memory* backend, seconds — what `build_points_s` is taken from
/// here. The durable build is two `fsync`s and three file creations per
/// series around 15 ms of indexing: as a rate it followed the host's
/// `fsync` latency through its phases (spread 10–29 % over five sets of
/// ten seeds, whatever the estimator), so it stays in `setup_s`, and is
/// printed as `lsm_build_points_s`.
fn memory_build_s(data: &[Vec<f64>]) -> Result<f64, String> {
    let mut fastest = f64::INFINITY;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut catalog = Catalog::new(MemoryCatalogBackend);
        for (i, xs) in data.iter().enumerate() {
            catalog
                .create_series_with(series_id(i), IndexBuildConfig::new(WINDOW), &xs[..INITIAL])
                .map_err(|e| format!("memory build: {e}"))?;
        }
        catalog.materialize().map_err(|e| format!("memory build: {e}"))?;
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    Ok(fastest)
}

fn exposition_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse::<f64>().ok()))
        .unwrap_or(0.0)
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    // Each series is generated to the length it can reach; the service
    // sees the first INITIAL points at set-up and the rest as appends.
    let span = args.warmup() + args.window() + Duration::from_secs(1);
    let schedule = AppendPlan::new(
        args.seed,
        (span.as_secs_f64() * APPEND_RATE).ceil() as usize + SHADOW_APPENDS,
    );
    let full = schedule.full_length();
    let data: Vec<Vec<f64>> = (0..SERIES).map(|i| inputs::series(args.seed, i, full)).collect();

    let t = Instant::now();
    let oracles: Vec<OracleSeries> = data
        .iter()
        .enumerate()
        .map(|(i, xs)| OracleSeries::new(series_id(i), xs[..INITIAL].to_vec(), Layout::Appended))
        .collect();
    let mut rng = inputs::rng_for(args.seed, 0x1A);
    let mut pool = Vec::new();
    for class in [Class::RSM_ED, Class::CNSM_ED] {
        pool.extend(draw_pool(&mut rng, &oracles, class, POOL_PER_CLASS, BAND));
    }
    let pool = shuffle_pool(args.seed, pool);
    book_pool(&mut report, &oracles, &pool, t);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (fixture, setup_s, build_s) =
        repeated_setup(repeats, |k| LsmFixture::build(args.scratch(&format!("lsm-{k}")), &data))?;
    report.note(
        "topology",
        format!(
            "LsmCatalogBackend shards(1).workers({WORKERS}); connection A appends {APPEND_RATE}/s x \
             {APPEND_POINTS} points on a schedule, connection B queries closed loop x 1"
        ),
    );
    let plan = TracePlan::of(args);
    let (warmup, window) = if args.trace {
        (args.warmup().min(plan.loaded / 4), plan.loaded)
    } else {
        (args.warmup(), args.window())
    };

    let before = Counters::read(&fixture.served);
    let (queries, appends, mut acked) =
        mixed_load(&fixture.served, &schedule, &data, &pool, args.seed, warmup, window)?;
    Counters::read(&fixture.served).report_since(&before, &mut report.metrics);
    report.absorb(&queries);
    report.absorb(&appends);
    report.note("appends_acked", acked);

    if args.trace {
        report
            .metrics
            .set("wire.ping_rtt_us", layers::ping_rtt_us(&fixture.served.clients[1], 200));
        let mut tracer = Tracer::new();
        let mut acc = LayerSamples::default();
        let order = inputs::replay_order(args.seed, 0, pool.len());
        let mut specs = order.iter().take(TRACE_REQUESTS).map(|&i| &pool[i].spec);
        layers::trace_served(
            &mut tracer,
            &mut acc,
            &fixture.served.service,
            &fixture.served.clients[1],
            &mut specs,
            plan.replay,
        )?;
        finish_trace(args, "ingest_mixed", &tracer, &acc, &mut report)?;
        report
            .metrics
            .set("core.build_rows_points_s", layers::build_rows_points_s(&data[0][..INITIAL]));
        report.metrics.set("core.index_rows", fixture.index_rows as f64);

        // The appends the serve-side cost is measured on continue the
        // schedule, so the reopen check still knows every series' length.
        let shadow_dir = args.scratch("lsm-shadow");
        let mut shadow = open_catalog(&shadow_dir, None)?;
        seed_catalog(&mut shadow, &data)?;
        let chunks: Vec<(SeriesId, Vec<f64>)> = schedule
            .ops(&data)
            .skip(acked as usize)
            .take(SHADOW_APPENDS)
            .map(|op| (op.series, op.points))
            .collect();
        // The shadow must hold what the served catalog holds before the
        // timed chunks land on both.
        for op in schedule.ops(&data).take(acked as usize) {
            shadow.append(op.series, &op.points).map_err(|e| format!("shadow catch-up: {e}"))?;
        }
        shadow.materialize().map_err(|e| format!("shadow catch-up: {e}"))?;
        append_self_time(&fixture.served, &mut shadow, &chunks, &mut report.metrics)?;
        acked += chunks.len() as u64;
        drop(shadow);
        let _ = std::fs::remove_dir_all(&shadow_dir);

        let scratch_db = args.scratch("lsm-direct");
        lsm_direct(&scratch_db, &mut report)?;
        let _ = std::fs::remove_dir_all(&scratch_db);
    } else {
        report.metrics.set("throughput_ops_s", queries.throughput());
        report_latency(&mut report, "latency_p50_ms", "latency_p99_ms", queries.latency);
        note_peak_rss(&mut report);
        report_latency(&mut report, "append_ack_p50_ms", "append_ack_p99_ms", appends.latency);
        report.note("lsm_build_points_s", (SERIES * INITIAL) as f64 / build_s.max(1e-9));
        let build_s = memory_build_s(&data)?;
        report_common(&mut report, setup_s, build_s, SERIES * INITIAL, fixture.index_bytes);
    }

    let expected: Vec<_> =
        (0..SERIES).map(|s| (series_id(s), schedule.length_after(acked, s))).collect();
    super::check_series_lengths(&mut report, &fixture.served, &expected);
    let exposition = fixture.served.service.metrics_text();
    report.metrics.set(
        "lsm.compaction_bytes",
        exposition_counter(&exposition, "kvmatch_lsm_compaction_bytes_total"),
    );

    // Shut the service down, then hold the directory to what was acked.
    let LsmFixture { served, dir, .. } = fixture;
    let catalog = served.shutdown();
    let maintenance = catalog.backend().maintenance_stats();
    report.metrics.set("lsm.runs_sealed", maintenance.runs_sealed as f64);
    report.metrics.set("lsm.delta_runs_sealed", maintenance.delta_runs_sealed as f64);
    report.metrics.set("lsm.compactions", maintenance.compactions as f64);
    report.metrics.set("lsm.generations_retired", maintenance.generations_retired as f64);
    let points: usize = (0..SERIES).map(|s| schedule.length_after(acked, s)).sum();
    report.metrics.set("lsm.space_amp", dir_bytes(&dir) as f64 / (8 * points) as f64);
    report.note("lsm_cycles", format!("{maintenance:?}"));
    drop(catalog);
    let reopen_ms = reopen_check(&mut report, &dir, &schedule, &data, &pool, acked)?;
    report.metrics.set("lsm.reopen_ms", reopen_ms);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}
