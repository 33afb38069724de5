//! `offline_file` — the library path, colder than any cache. One long
//! series; `KvIndex::build_into` onto a `FileKvStoreBuilder` is timed, then
//! a single thread runs sequential `KvMatcher::execute` **without** a
//! `RowCache` against the file index and a `FileSeriesStore`. Every fourth
//! query is a variable-length one answered by `DpMatcher` over a 3-level
//! file-backed `MultiIndex`. No DTW, so `distance` stays small. There is no
//! client, proto, server or serve here at all: `storage` scans, `core`
//! probing, interval algebra and index build do the work, so serving-layer
//! changes predict no change and index-encoding / probe / store changes
//! show.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kvmatch_core::{
    DpMatcher, IndexAppender, IndexBuildConfig, IndexSetConfig, KvIndex, KvMatcher, MatchResult,
    MatchStats, MultiIndex, PreparedQuery, QuerySpec,
};
use kvmatch_storage::memory::MemoryKvStoreBuilder;
use kvmatch_storage::{
    FileKvStore, FileKvStoreBuilder, FileSeriesStore, KvStore, MemoryKvStore, SeriesStore,
};

use super::{
    book_pool, finish_trace, note_peak_rss, repeated_setup, report_common, report_latency, Fixture,
    Report, RunArgs, TracePlan, SETUP_REPEATS, TRACE_REQUESTS,
};
use crate::host::LoadThreads;
use crate::inputs::{
    self, draw_pool, same_bits, series_id, Band, Class, Layout, OracleSeries, PoolEntry, WINDOW,
};
use crate::layers::{self, LayerSamples, Phases};
use crate::stats::{median_f64, nanos, Samples};
use crate::trace::{Layer, Tracer};

const POINTS: usize = 600_000;
/// 256-query pool (twice the issue's 128, to average out what a single
/// series' regimes do to a seed's pool): every fourth query
/// variable-length (`DpMatcher`), and rsm_ed : cnsm_ed = 3 : 1 within both
/// the fixed and the variable part.
const FIXED: [(Class, usize); 2] = [(Class::RSM_ED, 144), (Class::CNSM_ED, 48)];
/// `(length, class, count)` of the 64 variable-length queries.
const VARIABLE: [(usize, Class, usize); 6] = [
    (300, Class::RSM_ED, 16),
    (300, Class::CNSM_ED, 6),
    (450, Class::RSM_ED, 16),
    (450, Class::CNSM_ED, 5),
    (700, Class::RSM_ED, 16),
    (700, Class::CNSM_ED, 5),
];
/// The band every class's draws are kept in.
const BAND: Band = Band { selectivity: (0.2, 0.5), abandon_depth: None, max_matches: 256 };
/// Σ = {25, 50, 100}.
const INDEX_SET: IndexSetConfig =
    IndexSetConfig { wu: 25, levels: 3, width_d: 0.5, merge_gamma: 0.8 };
/// The library-path append probe: every append resumes an appender from
/// the file index and pushes one chunk, so all appends meet the same index.
/// Most chunks are small; one in [`BULK_EVERY`] is a back-fill ten times
/// as long. The back-fills are 4 % of the appends, so the p99 of the
/// acknowledgements lies well inside their class (its 73rd percentile)
/// and reads what a back-fill costs. Among equal chunks the p99 is
/// whichever of them the host slowed: its bursts (some 15 ms long, every
/// quarter of a second while a phase lasts) reach a few per cent of the
/// appends, but a tenth of the back-fills, not the quarter that would
/// move the p99 (README, "Why the library append probe is bimodal").
const APPEND_POINTS: usize = 50_000;
const BULK_POINTS: usize = 10 * APPEND_POINTS;
const BULK_EVERY: usize = 25;
const APPENDS: usize = 1_200;
/// Fresh points the chunks are cut from: 20 small chunks, 2 back-fills.
/// A small chunk spans twenty of the generator's regimes, whose cost per
/// point differs; the median is over all twenty chunks.
const FRESH_POINTS: usize = 2 * BULK_POINTS;

struct FileFixture {
    index: KvIndex<FileKvStore>,
    multi: MultiIndex<FileKvStore>,
    data: FileSeriesStore,
    dir: PathBuf,
    setup_s: f64,
    build_s: f64,
}

impl FileFixture {
    /// `dir` already holds `series.bin`; everything derived from it is
    /// built here, timed.
    fn build(dir: PathBuf, xs: &[f64]) -> Self {
        let t0 = Instant::now();
        let (index, _) = KvIndex::<FileKvStore>::build_into(
            xs,
            IndexBuildConfig::new(WINDOW),
            FileKvStoreBuilder::create(dir.join("w50.kvi")).expect("create the index file"),
        )
        .expect("build the file index");
        let build_s = t0.elapsed().as_secs_f64();
        let multi =
            MultiIndex::<FileKvStore>::build_with::<FileKvStoreBuilder, _>(xs, INDEX_SET, |w| {
                FileKvStoreBuilder::create(dir.join(format!("set-w{w}.kvi")))
                    .expect("create an index-set file")
            })
            .expect("build the index set");
        let data = FileSeriesStore::open(dir.join("series.bin")).expect("open the data file");
        Self { index, multi, data, dir, setup_s: t0.elapsed().as_secs_f64(), build_s }
    }

    fn execute(&self, entry: &PoolEntry, spec: &QuerySpec) -> (Vec<MatchResult>, MatchStats) {
        if is_variable(entry) {
            DpMatcher::new(&self.multi, &self.data).expect("dp matcher binds").execute(spec)
        } else {
            KvMatcher::new(&self.index, &self.data).expect("matcher binds").execute(spec)
        }
        .expect("pool queries execute")
    }
}

impl Fixture for FileFixture {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn build_s(&self) -> f64 {
        self.build_s
    }
    fn teardown(self) {
        let dir = self.dir.clone();
        drop(self);
        for name in ["w50.kvi", "set-w25.kvi", "set-w50.kvi", "set-w100.kvi"] {
            let _ = std::fs::remove_file(dir.join(name));
        }
    }
}

fn is_variable(entry: &PoolEntry) -> bool {
    entry.class.m != Class::RSM_ED.m
}

/// The pool in its fixed 3-fixed-then-1-variable rhythm, variable-length
/// answers recomputed by a memory-backed `DpMatcher` (its candidate
/// intervals, and so its cNSM bits, differ from the fixed-window
/// matcher's).
fn build_pool(seed: u64, oracle: &OracleSeries) -> Vec<PoolEntry> {
    let oracles = std::slice::from_ref(oracle);
    let mut rng = inputs::rng_for(seed, 0x0F);
    let mut fixed = Vec::new();
    for (class, count) in FIXED {
        fixed.extend(draw_pool(&mut rng, oracles, class, count, BAND));
    }
    let mut variable = Vec::new();
    for (m, class, count) in VARIABLE {
        let class = class.with_len(m);
        variable.extend(draw_pool(&mut rng, oracles, class, count, BAND));
    }
    let multi = MultiIndex::<MemoryKvStore>::build_with::<MemoryKvStoreBuilder, _>(
        oracle.xs(),
        INDEX_SET,
        |_| MemoryKvStoreBuilder::new(),
    )
    .expect("memory index set builds");
    let dp = DpMatcher::new(&multi, &oracle.data).expect("dp oracle binds");
    for entry in &mut variable {
        entry.expected = dp.execute(&entry.spec).expect("dp oracle answers").0;
    }
    let mut fixed = inputs::shuffle_pool(seed, fixed).into_iter();
    let mut variable = inputs::shuffle_pool(seed ^ 1, variable).into_iter();
    let mut pool = Vec::with_capacity(256);
    loop {
        let before = pool.len();
        pool.extend(fixed.by_ref().take(3));
        pool.extend(variable.by_ref().take(1));
        if pool.len() == before {
            return pool;
        }
    }
}

fn write_series(dir: &Path, xs: &[f64]) -> Result<(), String> {
    kvmatch_timeseries::io::write_series(dir.join("series.bin"), xs)
        .map_err(|e| format!("write the data file: {e}"))
}

/// Sequential closed loop on one thread, every answer checked.
fn measure(
    fixture: &FileFixture,
    pool: &[PoolEntry],
    args: &RunArgs,
    report: &mut Report,
) -> Result<(), String> {
    let _load = LoadThreads::claim(1)?;
    let order = inputs::replay_order(args.seed, 0, pool.len());
    let from = Instant::now() + args.warmup();
    let to = from + args.window();
    let mut latency = Samples::with_capacity(1 << 16);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &which in order.iter().cycle() {
        let sent = Instant::now();
        if sent >= to {
            break;
        }
        let entry = &pool[which];
        let (got, _) = fixture.execute(entry, &entry.spec);
        let done = Instant::now();
        let ok = same_bits(&got, &entry.expected);
        let counted = sent >= from && done <= to;
        if counted || !ok {
            attempted += 1;
        }
        if !ok {
            eprintln!("WRONG ANSWER on a {} query (m={})", entry.class.name(), entry.class.m);
            failed += 1;
        } else if counted {
            latency.push(nanos(done - sent));
        }
    }
    report.attempted += attempted;
    report.failed += failed;
    let correct = attempted - failed;
    report.metrics.set("throughput_ops_s", correct as f64 / args.window().as_secs_f64());
    report_latency(report, "latency_p50_ms", "latency_p99_ms", latency);
    note_peak_rss(report);
    Ok(())
}

/// The library's ingest path: an `IndexAppender` resumed from the file
/// index (untimed; its median is printed) takes one `push_chunk` (timed).
/// No service and no durability — the acknowledgement a library caller
/// gets is the return.
fn append_probe(
    fixture: &FileFixture,
    xs: &[f64],
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let tail = &xs[xs.len() - (WINDOW - 1)..];
    let fresh = inputs::series(inputs::mix(seed, 0xA99E), 0, FRESH_POINTS);
    let mut small = fresh.chunks(APPEND_POINTS).cycle();
    let mut bulk = fresh.chunks(BULK_POINTS).cycle();
    let mut acks = Samples::with_capacity(APPENDS);
    let mut resume_ms = Vec::with_capacity(APPENDS);
    let mut absorbed = true;
    for k in 0..APPENDS {
        let chunk = if k % BULK_EVERY == BULK_EVERY - 1 { bulk.next() } else { small.next() }
            .expect("a cycle does not end");
        let t = Instant::now();
        let mut appender = IndexAppender::from_index(&fixture.index, tail)
            .map_err(|e| format!("resume an appender from the file index: {e}"))?;
        resume_ms.push(nanos(t.elapsed()) as f64 / 1e6);
        let t = Instant::now();
        appender.push_chunk(chunk);
        acks.push(nanos(t.elapsed()));
        absorbed &= appender.series_len() == xs.len() + chunk.len();
    }
    report.check(absorbed, "every appender absorbed its chunk");
    report.note("append_resume_ms", median_f64(&resume_ms));
    report.attempted += APPENDS as u64;
    report_latency(report, "append_ack_p50_ms", "append_ack_p99_ms", acks);
    Ok(())
}

/// The traced replay of the library path: the matcher call is the root
/// span; the direct calls replay it one layer further in.
fn traced(
    fixture: &FileFixture,
    pool: &[PoolEntry],
    args: &RunArgs,
    report: &mut Report,
) -> Result<(), String> {
    let plan = TracePlan::of(args);
    let deadline = Instant::now() + plan.loaded + plan.replay;
    let mut tracer = Tracer::new();
    let mut acc = LayerSamples::default();
    let order = inputs::replay_order(args.seed, 0, pool.len());
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    for &which in order.iter().take(TRACE_REQUESTS) {
        if Instant::now() >= deadline {
            break;
        }
        let entry = &pool[which];
        let request = acc.requests;
        let t = Instant::now();
        let (plain, _) = fixture.execute(entry, &entry.spec);
        plain_ns.push(nanos(t.elapsed()) as f64);
        report.check(same_bits(&plain, &entry.expected), "untraced replay answers like the oracle");

        // EXPLAIN turns the per-stage clocks on: the traced variant.
        let explained = entry.spec.clone().with_explain(true);
        let ((got, stats), root) =
            tracer.time("core.execute", Layer::Unattributed, request, None, || {
                fixture.execute(entry, &explained)
            });
        traced_ns.push(tracer.span(root).duration_ns() as f64);
        report.check(same_bits(&got, &plain), "EXPLAIN leaves the answer unchanged");

        let index = if is_variable(entry) {
            let prep =
                PreparedQuery::new(entry.spec.clone()).map_err(|e| format!("prepare: {e}"))?;
            let t = Instant::now();
            let segments =
                fixture.multi.segment_query(&prep).map_err(|e| format!("segment: {e}"))?;
            acc.push_dp_segment(nanos(t.elapsed()));
            std::hint::black_box(segments);
            fixture.multi.index_for(WINDOW).ok_or("the index set lacks w = 50")?
        } else {
            &fixture.index
        };
        let phases = Phases {
            probe_ns: stats.phase1_nanos,
            verify_ns: stats.phase2_nanos,
            scanned: stats.index_accesses > 0,
        };
        acc.absorb_execution(
            tracer.span(root).duration_ns(),
            &phases,
            &stats,
            stats.index_accesses,
        );
        layers::direct_calls(
            &mut tracer,
            &mut acc,
            request,
            root,
            &phases,
            index,
            &[],
            &fixture.data,
            &entry.spec,
        );
    }
    acc.set_overhead_samples(plain_ns, traced_ns);
    finish_trace(args, "offline_file", &tracer, &acc, report)
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let xs = inputs::series(args.seed, 0, POINTS);
    let dir = args.scratch("offline");
    write_series(&dir, &xs)?;

    let t = Instant::now();
    let oracle = OracleSeries::new(series_id(0), xs.clone(), Layout::Bulk);
    let pool = build_pool(args.seed, &oracle);
    book_pool(&mut report, std::slice::from_ref(&oracle), &pool, t);
    report.note("topology", "one thread, sequential KvMatcher / DpMatcher over FileKvStore + FileSeriesStore, no RowCache");

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (fixture, setup_s, build_s) =
        repeated_setup(repeats, |_| Ok(FileFixture::build(dir.clone(), &xs)))?;
    if args.trace {
        traced(&fixture, &pool, args, &mut report)?;
        report.metrics.set("core.build_rows_points_s", layers::build_rows_points_s(&xs));
        report.metrics.set("core.index_rows", fixture.index.meta().row_count() as f64);
    } else {
        measure(&fixture, &pool, args, &mut report)?;
        append_probe(&fixture, &xs, args.seed, &mut report)?;
        let index_bytes = fixture.index.store().file_bytes();
        report_common(&mut report, setup_s, build_s, POINTS, index_bytes);
    }
    report.note("index_store_rows", fixture.index.store().row_count());
    report.note("data_points", fixture.data.len());
    fixture.teardown();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}
