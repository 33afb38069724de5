//! `ed_point` — overhead-bound, the mirror image of `dtw_verify`. Cheap
//! ED queries (rsm_ed range, cnsm_ed range, rsm_ed top-5 in equal parts)
//! over 64 short series whose whole index fits the default row cache, so
//! steady-state probes are cache hits and each request computes little:
//! client, proto, server and serve — thread hops, flush policy, the
//! batch-delay wait, router and queue — dominate, and `distance` is small.
//!
//! Two phases, counted separately:
//! (a) a fixed schedule over two connections for 40 % of the window,
//!     latency from each request's due time — `latency_p50_ms` /
//!     `latency_p99_ms`;
//! (b) closed loop, two connections × eight pipelined, for 60 % of the
//!     window — `throughput_ops_s`. It gets the larger share because its
//!     throughput wanders with how the two connections' response bursts
//!     fall against the batch delay (±6 % over 5 s, ±3 % over 12 s).

use std::time::{Duration, Instant};

use kvmatch_core::MatchResult;

use super::{
    book_pool, finish_memory_run, note_peak_rss, oracles_for, repeated_setup, report_latency,
    traced_memory, Fixture, MemoryFixture, Report, RunArgs, SETUP_REPEATS,
};
use crate::drive::{closed_loop, scheduled_loop};
use crate::inputs::{self, draw_pool, same_bits, shuffle_pool, Band, Class, Layout, PoolEntry};

const CONNECTIONS: usize = 2;
const SERIES: usize = 64;
const POINTS: usize = 20_000;
const SHARDS: usize = 2;
const WORKERS: usize = 1;
/// Queries per class; three classes make the 512-query pool (171+171+170).
const POOL: [(Class, usize); 3] =
    [(Class::RSM_ED, 171), (Class::CNSM_ED, 171), (Class::RSM_ED_TOP5, 170)];
/// Queries whose filter admits a fifth to a half of the positions (a few
/// thousand cheap ED candidates, a third of a millisecond of compute) and
/// whose answers are small.
const BAND: Band = Band { selectivity: (0.2, 0.5), abandon_depth: None, max_matches: 64 };
/// Offered rate of the scheduled phase, requests per second over both
/// connections. Fixed, not derived from a measurement, so that two
/// commits are offered the same load. It is low on purpose: at 150/s a
/// connection's requests do not overlap, so every request is the lone
/// request that waits out `max_batch_delay`. Once requests overlap on a
/// connection, the server's in-order response writer (which flushes only
/// when its queue runs empty) holds finished answers behind unfinished
/// ones, and the tail becomes a lottery of chain lengths — p99 ranged from
/// 7 to 46 ms across seeds at 500/s. Phase (b) is where that shows.
pub const SCHEDULED_RATE: f64 = 300.0;
/// Requests in flight per connection in the closed-loop phase.
const PIPELINE: usize = 8;
/// Share of `--seconds` given to the scheduled phase.
const SCHEDULED_SHARE: f64 = 0.4;

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let data: Vec<Vec<f64>> = (0..SERIES).map(|i| inputs::series(args.seed, i, POINTS)).collect();

    let t = Instant::now();
    let oracles = oracles_for(&data, Layout::Appended);
    let mut rng = inputs::rng_for(args.seed, 0xED);
    let mut pool = Vec::new();
    for (class, count) in POOL {
        pool.extend(draw_pool(&mut rng, &oracles, class, count, BAND));
    }
    let pool = shuffle_pool(args.seed, pool);
    book_pool(&mut report, &oracles, &pool, t);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (fixture, setup_s, build_s) =
        repeated_setup(repeats, |_| MemoryFixture::build(&data, SHARDS, WORKERS, CONNECTIONS))?;
    report.note(
        "topology",
        format!(
            "shards({SHARDS}).workers({WORKERS}), {CONNECTIONS} connections; {SCHEDULED_RATE} req/s on a \
             schedule (one thread and at most one request in flight per connection), then closed \
             loop x {PIPELINE} pipelined"
        ),
    );
    let verify = |entry: &PoolEntry, got: &[MatchResult]| same_bits(got, &entry.expected);
    let clients = &fixture.served.clients;

    if args.trace {
        let load = |warmup: Duration, window: Duration| {
            let (mut outcome, _) = scheduled_loop(
                clients,
                &pool,
                args.seed,
                SCHEDULED_RATE,
                warmup,
                window.mul_f64(SCHEDULED_SHARE),
                &verify,
            )?;
            let closed = closed_loop(
                clients,
                &pool,
                args.seed,
                PIPELINE,
                Duration::ZERO,
                window.mul_f64(1.0 - SCHEDULED_SHARE),
                &verify,
            )?;
            outcome.absorb(closed);
            Ok(outcome)
        };
        traced_memory(args, "ed_point", &fixture, &data, &pool, load, &mut report)?;
    } else {
        let (scheduled, lag) = scheduled_loop(
            clients,
            &pool,
            args.seed,
            SCHEDULED_RATE,
            args.warmup(),
            args.window().mul_f64(SCHEDULED_SHARE),
            &verify,
        )?;
        report.absorb(&scheduled);
        report.note("scheduled_served_ops_s", scheduled.throughput());
        report.note("gen_lag_p99_ms", lag.sorted().quantile_ms(0.99));
        report_latency(&mut report, "latency_p50_ms", "latency_p99_ms", scheduled.latency);

        let closed = closed_loop(
            clients,
            &pool,
            args.seed,
            PIPELINE,
            args.warmup() / 2,
            args.window().mul_f64(1.0 - SCHEDULED_SHARE),
            &verify,
        )?;
        report.absorb(&closed);
        report.metrics.set("throughput_ops_s", closed.throughput());
        eprintln!("{}", closed.latency.sorted().describe("closed_loop_latency"));
        note_peak_rss(&mut report);
        finish_memory_run(&mut report, &fixture, args.seed, SERIES, POINTS, setup_s, build_s)?;
    }
    fixture.teardown();
    Ok(report)
}
