//! The outside-in layer trace: the same request replayed at successively
//! shallower depths (socket → in-process submit → pinned snapshot → direct
//! layer calls), a span around every call, and the per-layer metrics
//! derived from them. Counters come from what the program already exposes
//! (`MatchStats`, `BatchStats`, `ExplainReport`, `IoStats`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use kvmatch_client::Client;
use kvmatch_core::catalog::{CatalogBackend, ReadView};
use kvmatch_core::{IntervalSet, KvIndex, KvMatcher, MatchStats, PreparedQuery, QuerySpec};
use kvmatch_distance::{
    dtw_banded_early_abandon_scratch, ed_early_abandon, ed_norm_early_abandon,
    lb_keogh_sq_early_abandon, lb_kim_fl_sq, mean_std, z_normalized, KernelScratch,
};
use kvmatch_proto::{decode_request, decode_response, Request, Response};
use kvmatch_serve::QueryService;
use kvmatch_storage::{encode_f64, KvStore, SeriesStore};

use crate::metrics::MetricSet;
use crate::stats::{median_f64, nanos};
use crate::trace::{Layer, SpanId, Tracer};

/// Candidates per request the kernel timings sample.
const KERNEL_SAMPLE: usize = 64;
/// Band radius the DTW-family kernels are timed at on a workload whose
/// own queries carry none.
const DEFAULT_RHO: usize = 8;

/// Per-request measurements of one traced replay; medians and sums of
/// these become the per-layer metrics.
#[derive(Default)]
pub struct LayerSamples {
    pub requests: u32,
    encode_request_ns: Vec<f64>,
    decode_request_ns: Vec<f64>,
    encode_response_ns: Vec<f64>,
    decode_response_ns: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    traced_root_ns: Vec<f64>,
    plain_root_ns: Vec<f64>,
    wire_self_ns: Vec<f64>,
    serve_self_ns: Vec<f64>,
    queue_wait_ns: Vec<f64>,
    execute_ns: Vec<f64>,
    probe_ns: Vec<f64>,
    verify_ns: Vec<f64>,
    core_self_ns: Vec<f64>,
    candidate_sets_ns: Vec<f64>,
    interval_fold_ns: Vec<f64>,
    dp_segment_ns: Vec<f64>,
    scan_ns: Vec<f64>,
    fetch_ns: Vec<f64>,
    lb_kim_ns: Vec<f64>,
    lb_keogh_ns: Vec<f64>,
    dtw_ns: Vec<f64>,
    ed_ns: Vec<f64>,
    ed_norm_ns: Vec<f64>,
    envelope_ns: Vec<f64>,
    dtw_cells: Vec<f64>,
    stats: MatchStats,
    probes: u64,
    scans: u64,
    scan_rows: u64,
    scan_bytes: u64,
    scan_seeks: u64,
}

impl LayerSamples {
    pub fn push_dp_segment(&mut self, ns: u64) {
        self.dp_segment_ns.push(ns as f64);
    }

    /// Books one replayed execution: its wall time, the phases the program
    /// reported for it, and its counters.
    pub fn absorb_execution(
        &mut self,
        execute_ns: u64,
        phases: &Phases,
        stats: &MatchStats,
        probes: u64,
    ) {
        self.requests += 1;
        self.execute_ns.push(execute_ns as f64);
        self.probe_ns.push(stats.phase1_nanos as f64);
        self.verify_ns.push(stats.phase2_nanos as f64);
        self.core_self_ns
            .push(execute_ns.saturating_sub(phases.probe_ns + phases.verify_ns) as f64);
        self.absorb_stats(stats, probes);
    }

    /// Root durations of the same requests untraced and traced — the two
    /// sides of `trace.overhead_pct`.
    pub fn set_overhead_samples(&mut self, plain_ns: Vec<f64>, traced_ns: Vec<f64>) {
        self.plain_root_ns = plain_ns;
        self.traced_root_ns = traced_ns;
    }

    fn absorb_stats(&mut self, s: &MatchStats, probes: u64) {
        let t = &mut self.stats;
        t.candidates += s.candidates;
        t.index_accesses += s.index_accesses;
        t.rows_scanned += s.rows_scanned;
        t.probe_cache_hits += s.probe_cache_hits;
        t.pruned_constraint += s.pruned_constraint;
        t.pruned_lb_kim += s.pruned_lb_kim;
        t.pruned_lb_keogh += s.pruned_lb_keogh;
        t.full_distance_computations += s.full_distance_computations;
        t.matches += s.matches;
        t.alloc_events += s.alloc_events;
        self.probes += probes;
    }

    /// Writes every metric this replay can answer.
    pub fn report(&self, m: &mut MetricSet) {
        let med = median_f64;
        m.set("proto.encode_request_ns", med(&self.encode_request_ns));
        m.set("proto.decode_request_ns", med(&self.decode_request_ns));
        m.set("proto.encode_response_ns", med(&self.encode_response_ns));
        m.set("proto.decode_response_ns", med(&self.decode_response_ns));
        m.set("proto.request_bytes", med(&self.request_bytes));
        m.set("proto.response_bytes", med(&self.response_bytes));
        m.set("wire.self_us", med(&self.wire_self_ns) / 1e3);
        m.set("serve.self_us", med(&self.serve_self_ns) / 1e3);
        m.set("serve.queue_wait_us", med(&self.queue_wait_ns) / 1e3);
        m.set("core.execute_us", med(&self.execute_ns) / 1e3);
        m.set("core.probe_us", med(&self.probe_ns) / 1e3);
        m.set("core.verify_us", med(&self.verify_ns) / 1e3);
        m.set("core.self_us", med(&self.core_self_ns) / 1e3);
        m.set("core.candidate_sets_us", med(&self.candidate_sets_ns) / 1e3);
        m.set("core.interval_fold_us", med(&self.interval_fold_ns) / 1e3);
        m.set("core.dp_segment_us", med(&self.dp_segment_ns) / 1e3);
        let per_request = |total: u64| total as f64 / f64::from(self.requests.max(1));
        let s = &self.stats;
        m.set("core.index_accesses", per_request(s.index_accesses));
        m.set("core.rows_scanned", per_request(s.rows_scanned));
        m.set("core.probe_cache_hit_share", share(s.probe_cache_hits, self.probes));
        m.set("core.candidates", per_request(s.candidates));
        m.set("core.match_share", share(s.matches, s.candidates));
        m.set("distance.lb_kim_ns", med(&self.lb_kim_ns));
        m.set("distance.lb_keogh_ns", med(&self.lb_keogh_ns));
        m.set("distance.dtw_ns", med(&self.dtw_ns));
        m.set("distance.ed_ns", med(&self.ed_ns));
        m.set("distance.ed_norm_ns", med(&self.ed_norm_ns));
        m.set("distance.envelope_ns", med(&self.envelope_ns));
        m.set("distance.pruned_constraint_share", share(s.pruned_constraint, s.candidates));
        m.set("distance.pruned_lb_kim_share", share(s.pruned_lb_kim, s.candidates));
        m.set("distance.pruned_lb_keogh_share", share(s.pruned_lb_keogh, s.candidates));
        m.set("distance.full_share", share(s.full_distance_computations, s.candidates));
        m.set("distance.dtw_cells", med(&self.dtw_cells));
        m.set("distance.alloc_events", s.alloc_events as f64);
        m.set("storage.scan_us", med(&self.scan_ns) / 1e3);
        m.set("storage.rows_per_scan", share(self.scan_rows, self.scans));
        m.set("storage.bytes_per_scan", share(self.scan_bytes, self.scans));
        m.set("storage.seeks", share(self.scan_seeks, self.scans));
        m.set("storage.fetch_us", med(&self.fetch_ns) / 1e3);
        let plain = med(&self.plain_root_ns);
        if plain > 0.0 {
            m.set("trace.overhead_pct", (med(&self.traced_root_ns) / plain - 1.0) * 100.0);
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Writes `trace.unattributed_share` and returns each layer's share of the
/// traced requests' root time, for the stderr table.
pub fn layer_shares(tracer: &Tracer, m: &mut MetricSet) -> Vec<(&'static str, f64)> {
    let root = tracer.root_ns().max(1) as f64;
    let by_layer = tracer.layer_self_ns();
    let shares: Vec<(&'static str, f64)> =
        Layer::ALL.iter().zip(by_layer).map(|(l, ns)| (l.name(), ns as f64 / root)).collect();
    m.set("trace.unattributed_share", shares.last().expect("unattributed is listed").1);
    shares
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, nanos(t.elapsed()))
}

/// The `proto` layer on this request's own frames: encode and decode of
/// the request and of the response that answered it.
fn proto_calls(
    tracer: &mut Tracer,
    acc: &mut LayerSamples,
    request: u32,
    parent: Option<SpanId>,
    spec: &QuerySpec,
    response: &Response,
) {
    let message = Request::Query { spec: spec.clone(), deadline_us: None };
    let id = u64::from(request) + 1;
    let (frame, span) = tracer.time("proto.encode_request", Layer::Proto, request, parent, || {
        message.encode(id).expect("pool requests fit a frame")
    });
    acc.encode_request_ns.push(tracer.span(span).duration_ns() as f64);
    acc.request_bytes.push(frame.len() as f64);
    let (decoded, span) =
        tracer.time("proto.decode_request", Layer::Proto, request, parent, || {
            decode_request(&frame[4..])
        });
    black_box(decoded.expect("own frame decodes"));
    acc.decode_request_ns.push(tracer.span(span).duration_ns() as f64);

    let (frame, span) = tracer.time("proto.encode_response", Layer::Proto, request, parent, || {
        response.encode(id).expect("pool responses fit a frame")
    });
    acc.encode_response_ns.push(tracer.span(span).duration_ns() as f64);
    acc.response_bytes.push(frame.len() as f64);
    let (decoded, span) =
        tracer.time("proto.decode_response", Layer::Proto, request, parent, || {
            decode_response(&frame[4..])
        });
    black_box(decoded.expect("own frame decodes"));
    acc.decode_response_ns.push(tracer.span(span).duration_ns() as f64);
}

/// What the program reported about one execution's phases.
pub struct Phases {
    /// Wall time of phase 1 (probing, interval algebra), ns.
    pub probe_ns: u64,
    /// Wall time of phase 2 (fetch + verification), ns.
    pub verify_ns: u64,
    /// True when phase 1 issued real store scans (not row-cache hits).
    pub scanned: bool,
}

/// Direct calls into `core`, `storage` and `distance` for one request,
/// recorded beneath `exec` (the span of the execution they replay).
#[allow(clippy::too_many_arguments)]
pub fn direct_calls<S: KvStore, D: SeriesStore>(
    tracer: &mut Tracer,
    acc: &mut LayerSamples,
    request: u32,
    exec: SpanId,
    phases: &Phases,
    index: &KvIndex<S>,
    key_prefix: &[u8],
    data: &D,
    spec: &QuerySpec,
) {
    let started = Instant::now();
    let parent = Some(exec);
    let (prep, _) = tracer.time("core.prepare", Layer::Core, request, parent, || {
        PreparedQuery::new(spec.clone()).expect("pool specs are valid")
    });
    let probe_phase =
        tracer.record("core.probe_phase", Layer::Core, request, parent, started, phases.probe_ns);
    let verify_phase = tracer.record(
        "distance.verify_phase",
        Layer::Distance,
        request,
        parent,
        started,
        phases.verify_ns,
    );

    // storage: the scans phase 1 issues, straight at the store.
    let w = index.window();
    let windows = prep.m / w;
    let entries = index.meta().entries();
    let key_of = |low: f64| {
        let mut key = key_prefix.to_vec();
        key.extend_from_slice(&encode_f64(low));
        key
    };
    let ranges: Vec<(Vec<u8>, Vec<u8>)> = (0..windows)
        .filter_map(|i| {
            let range = prep.window_range(i * w, w);
            let (si, ei) = index.meta().rows_overlapping(range.lower, range.upper);
            (si < ei).then(|| {
                let end = if ei < entries.len() { entries[ei].low } else { entries[ei - 1].up };
                (key_of(entries[si].low), key_of(end))
            })
        })
        .collect();
    let io = index.store().io_stats();
    let seeks_before = io.seeks();
    let scan_start = Instant::now();
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for (start, end) in &ranges {
        let scanned = index.store().scan(start, end).expect("index store scans");
        rows += scanned.len() as u64;
        bytes += scanned.iter().map(|r| (r.key.len() + r.value.len()) as u64).sum::<u64>();
        black_box(scanned);
    }
    let scan_ns = nanos(scan_start.elapsed());
    acc.scan_ns.push(scan_ns as f64);
    acc.scans += ranges.len() as u64;
    acc.scan_rows += rows;
    acc.scan_bytes += bytes;
    acc.scan_seeks += io.seeks() - seeks_before;
    if phases.scanned {
        tracer.record(
            "storage.scan",
            Layer::Storage,
            request,
            Some(probe_phase),
            scan_start,
            scan_ns,
        );
    }

    // core: phase 1 through the public matcher, then the interval algebra
    // on its own — the shift / intersect the matcher folds its windows
    // with, and the union a probe merges rows with — over the raw `IS_i`.
    let matcher = KvMatcher::new(index, data).expect("matcher binds");
    let ((_, cs), ns) = timed(|| matcher.window_candidate_sets(spec).expect("phase-1 probe"));
    acc.candidate_sets_ns.push(ns as f64);
    let raw: Vec<IntervalSet> = (0..windows)
        .map(|i| {
            let range = prep.window_range(i * w, w);
            index.probe(range.lower, range.upper).expect("index probe").0
        })
        .collect();
    let (_, ns) = timed(|| {
        let mut folded: Option<IntervalSet> = None;
        let mut merged = IntervalSet::new();
        for (i, set) in raw.iter().enumerate() {
            merged = merged.union(set);
            let shifted = set.shift_left((i * w) as u64);
            folded = Some(match folded {
                None => shifted,
                Some(prev) => prev.intersect(&shifted),
            });
        }
        black_box((folded, merged))
    });
    acc.interval_fold_ns.push(ns as f64);

    // storage: the candidate data phase 2 fetches.
    let m = prep.m;
    let fetch_start = Instant::now();
    let mut blocks: Vec<(usize, Vec<f64>)> = Vec::with_capacity(cs.num_intervals());
    for iv in cs.intervals() {
        let block = data.fetch(iv.left as usize, iv.size() as usize - 1 + m).expect("data fetch");
        blocks.push((iv.left as usize, block));
    }
    let fetch_ns = nanos(fetch_start.elapsed());
    acc.fetch_ns.push(fetch_ns as f64);
    tracer.record(
        "storage.fetch",
        Layer::Storage,
        request,
        Some(verify_phase),
        fetch_start,
        fetch_ns,
    );

    kernel_timings(acc, &prep, spec, &blocks, cs.num_positions());
}

/// Per-candidate kernel costs on candidates sampled evenly from this
/// request's own candidate set, each kernel with a warm scratch and the
/// request's own ε. A batch is timed and divided, because one LB_Kim call
/// is shorter than a clock read.
fn kernel_timings(
    acc: &mut LayerSamples,
    prep: &PreparedQuery,
    spec: &QuerySpec,
    blocks: &[(usize, Vec<f64>)],
    candidates: u64,
) {
    let m = prep.m;
    let rho = if spec.measure.is_dtw() { spec.measure.rho() } else { DEFAULT_RHO };
    let mut scratch = KernelScratch::with_query_capacity(m, rho);
    let ((), ns) = timed(|| {
        black_box(scratch.envelope(&spec.query, rho));
    });
    acc.envelope_ns.push(ns as f64);
    if spec.measure.is_dtw() {
        acc.dtw_cells.push((m * (2 * rho + 1)) as f64);
    }
    if candidates == 0 {
        return;
    }
    let stride = (candidates as usize).div_ceil(KERNEL_SAMPLE).max(1);
    let mut sample: Vec<&[f64]> = Vec::with_capacity(KERNEL_SAMPLE);
    let mut seen = 0usize;
    for (_, block) in blocks {
        let positions = block.len() + 1 - m;
        let mut k = (stride - seen % stride) % stride;
        while k < positions {
            sample.push(&block[k..k + m]);
            k += stride;
        }
        seen += positions;
    }
    if sample.is_empty() {
        return;
    }
    let n = sample.len() as f64;
    let eps_sq = spec.epsilon * spec.epsilon;
    // cNSM kernels run on normalized candidates against the normalized
    // query; RSM kernels on the raw ones.
    let normalized = spec.is_normalized();
    let q: Vec<f64> = if normalized { z_normalized(&spec.query) } else { spec.query.clone() };
    let owned: Vec<Vec<f64>>;
    let cands: Vec<&[f64]> = if normalized {
        owned = sample.iter().map(|s| z_normalized(s)).collect();
        owned.iter().map(Vec::as_slice).collect()
    } else {
        sample.clone()
    };
    let (lower, upper) = {
        let (l, u) = scratch.envelope(&q, rho);
        (l.to_vec(), u.to_vec())
    };
    let per = |acc: &mut Vec<f64>, f: &mut dyn FnMut(&[f64])| {
        let t = Instant::now();
        for s in &cands {
            f(s);
        }
        acc.push(nanos(t.elapsed()) as f64 / n);
    };
    per(&mut acc.lb_kim_ns, &mut |s| {
        black_box(lb_kim_fl_sq(s, &q));
    });
    per(&mut acc.lb_keogh_ns, &mut |s| {
        black_box(lb_keogh_sq_early_abandon(s, &lower, &upper, eps_sq));
    });
    per(&mut acc.dtw_ns, &mut |s| {
        black_box(dtw_banded_early_abandon_scratch(s, &q, rho, eps_sq, &mut scratch));
    });
    per(&mut acc.ed_ns, &mut |s| {
        black_box(ed_early_abandon(s, &q, eps_sq));
    });
    // The on-the-fly-normalizing kernel takes the raw candidate.
    let q_norm = z_normalized(&spec.query);
    let t = Instant::now();
    for s in &sample {
        let (mu, sigma) = mean_std(s);
        black_box(ed_norm_early_abandon(s, &q_norm, mu, sigma, eps_sq));
    }
    acc.ed_norm_ns.push(nanos(t.elapsed()) as f64 / n);
}

/// Replays `specs` one at a time, single client, one in flight, at four
/// depths, until `budget` is spent or the specs run out.
pub fn trace_served<B>(
    tracer: &mut Tracer,
    acc: &mut LayerSamples,
    service: &QueryService<B>,
    client: &Client,
    specs: &mut dyn Iterator<Item = &QuerySpec>,
    budget: Duration,
) -> Result<(), String>
where
    B: CatalogBackend + Send + Sync + 'static,
    B::Store: Send + Sync + 'static,
    B::Data: Send + Sync + 'static,
{
    let deadline = Instant::now() + budget;
    for spec in specs {
        if Instant::now() >= deadline {
            break;
        }
        let request = acc.requests;

        // Untraced socket round trip of the same request: the reference
        // for the tracing overhead.
        let (plain, plain_ns) = timed(|| client.query(spec.clone(), None));
        let plain = plain.map_err(|e| format!("untraced replay failed: {e}"))?;
        acc.plain_root_ns.push(plain_ns as f64);

        // Depth 0: the socket, EXPLAIN on.
        let (reply, root) = tracer.time("client.query", Layer::Wire, request, None, || {
            client.query(spec.clone().with_explain(true), None)
        });
        let reply = reply.map_err(|e| format!("traced socket replay failed: {e}"))?;
        if !crate::inputs::same_bits(&reply.results, &plain.results) {
            return Err("EXPLAIN changed a query's answer".into());
        }
        acc.traced_root_ns.push(tracer.span(root).duration_ns() as f64);
        if let Some(explain) = &reply.explain {
            acc.queue_wait_ns.push(explain.queue_nanos as f64);
        }

        // Depth 1: in-process submit, no socket.
        let (response, submit) =
            tracer.time("serve.submit_wait", Layer::Serve, request, Some(root), || {
                kvmatch_serve::Submit::into_result(
                    service.submit(kvmatch_serve::wire::query_request(spec.clone(), None)),
                )
                .map_err(|r| format!("in-process submit rejected: {}", r.rejected))
                .and_then(|h| h.wait().map_err(|e| format!("in-process replay failed: {e}")))
            });
        let response = response?;

        // Depth 2: the pinned snapshot, no scheduler.
        let view = service
            .read_view(spec.series)
            .ok_or_else(|| "no snapshot published for a pool series".to_string())?;
        let (batch, exec) =
            tracer.time("core.execute_batch", Layer::Unattributed, request, Some(submit), || {
                view.execute(std::slice::from_ref(spec))
            });
        let batch = batch.map_err(|e| format!("snapshot replay failed: {e}"))?;
        let out = &batch.outputs[0];
        if !crate::inputs::same_bits(&out.results, &response.results) {
            return Err("snapshot and service answers differ".into());
        }

        let d0 = tracer.span(root).duration_ns();
        let d1 = tracer.span(submit).duration_ns();
        let d2 = tracer.span(exec).duration_ns();
        acc.wire_self_ns.push(d0.saturating_sub(d1) as f64);
        acc.serve_self_ns.push(d1.saturating_sub(d2) as f64);
        let phases = Phases {
            probe_ns: batch.stats.probe_nanos,
            verify_ns: batch.stats.verify_nanos,
            scanned: batch.stats.store_scans > 0,
        };
        acc.absorb_execution(d2, &phases, &out.stats, batch.stats.probes);

        // Depth 3: each layer's public functions, directly.
        proto_calls(
            tracer,
            acc,
            request,
            Some(root),
            spec,
            &kvmatch_serve::wire::wire_response(&response),
        );
        let generation = view
            .generation(spec.series)
            .ok_or_else(|| "pool series missing from its snapshot".to_string())?;
        direct_calls(
            tracer,
            acc,
            request,
            exec,
            &phases,
            generation.index(),
            &spec.series.encode(),
            generation.data(),
            spec,
        );
    }
    Ok(())
}

/// Median round trip of `n` pings.
pub fn ping_rtt_us(client: &Client, n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .filter_map(|_| {
            let (pong, ns) = timed(|| client.ping());
            pong.ok().map(|()| ns as f64 / 1e3)
        })
        .collect();
    median_f64(&samples)
}

/// `build_rows` throughput over one series, points per second.
pub fn build_rows_points_s(xs: &[f64]) -> f64 {
    let config = kvmatch_core::IndexBuildConfig::new(crate::inputs::WINDOW);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (rows, ns) = timed(|| kvmatch_core::build::build_rows(xs, config));
            black_box(rows);
            xs.len() as f64 / (ns as f64 / 1e9)
        })
        .collect();
    median_f64(&samples)
}
