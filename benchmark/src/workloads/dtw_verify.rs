//! `dtw_verify` — verification-bound. RSM-DTW and cNSM-DTW range queries
//! (3 : 1, so the median sits inside one class) over a memory-backed
//! catalog behind the full serving stack, two connections in closed loop
//! with one request in flight each. Banded DTW and its lower-bound cascade
//! should be most of every request and the wire and scheduler little, so a
//! kernel, cascade or fused-verification gain shows here and a wire or
//! scheduler gain predicts no change.

use std::time::Instant;

use kvmatch_core::MatchResult;

use super::{
    book_pool, finish_memory_run, note_peak_rss, oracles_for, repeated_setup, report_latency,
    traced_memory, Fixture, MemoryFixture, Report, RunArgs, SETUP_REPEATS,
};
use crate::drive::closed_loop;
use crate::inputs::{self, draw_pool, same_bits, shuffle_pool, Band, Class, Layout, PoolEntry};

const CONNECTIONS: usize = 2;
const SERIES: usize = 24;
const POINTS: usize = 10_000;
const SHARDS: usize = 2;
const WORKERS: usize = 1;
/// Pool: 192 distinct queries, rsm_dtw : cnsm_dtw = 3 : 1 — twice the
/// issue's 96, because a query's cost still varies by a third of its mean
/// inside the bands and the run's p99 is set by the pool's dearest few.
///
/// Both classes take queries the window-mean filter can do little for, so
/// that most subsequences of the series go through the cascade, with small
/// answers (a match costs a complete DTW and 16 bytes on the wire; a copy
/// of a quiet regime has thousands). For rsm_dtw, three quarters of the
/// load, the filter's share alone leaves cost spread over a factor of
/// five, series by series; the abandon depth narrows it to two.
const POOL: [(Class, usize, Band); 2] = [
    (
        Class::RSM_DTW,
        144,
        Band { selectivity: (0.3, 1.0), abandon_depth: Some((6.0, 12.0)), max_matches: 64 },
    ),
    (Class::CNSM_DTW, 48, Band { selectivity: (0.6, 1.0), abandon_depth: None, max_matches: 64 }),
];

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let data: Vec<Vec<f64>> = (0..SERIES).map(|i| inputs::series(args.seed, i, POINTS)).collect();

    let t = Instant::now();
    let oracles = oracles_for(&data, Layout::Appended);
    let mut rng = inputs::rng_for(args.seed, 0xD7);
    let mut pool = Vec::new();
    for (class, count, band) in POOL {
        pool.extend(draw_pool(&mut rng, &oracles, class, count, band));
    }
    let pool = shuffle_pool(args.seed, pool);
    book_pool(&mut report, &oracles, &pool, t);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (fixture, setup_s, build_s) =
        repeated_setup(repeats, |_| MemoryFixture::build(&data, SHARDS, WORKERS, CONNECTIONS))?;
    report.note("topology", format!("shards({SHARDS}).workers({WORKERS}), {CONNECTIONS} connections x 1 in flight, closed loop"));
    let verify = |entry: &PoolEntry, got: &[MatchResult]| same_bits(got, &entry.expected);
    let clients = &fixture.served.clients;

    if args.trace {
        let load =
            |warmup, window| closed_loop(clients, &pool, args.seed, 1, warmup, window, &verify);
        traced_memory(args, "dtw_verify", &fixture, &data, &pool, load, &mut report)?;
    } else {
        let outcome =
            closed_loop(clients, &pool, args.seed, 1, args.warmup(), args.window(), &verify)?;
        report.absorb(&outcome);
        report.metrics.set("throughput_ops_s", outcome.throughput());
        report_latency(&mut report, "latency_p50_ms", "latency_p99_ms", outcome.latency);
        note_peak_rss(&mut report);
        finish_memory_run(&mut report, &fixture, args.seed, SERIES, POINTS, setup_s, build_s)?;
    }
    fixture.teardown();
    Ok(report)
}
