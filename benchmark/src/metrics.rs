//! The metric tables: names, units and direction, exactly as
//! `BENCHMARK.json` declares them. A run fills a [`MetricSet`]; printing
//! checks it against the table so a renamed or forgotten metric fails the
//! run instead of silently vanishing from the result.

use serde_json::{Map, Value};

/// Which way a metric gets worse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// One end-to-end metric: name, unit, direction and `compare`'s bound.
/// `BENCHMARK.json` carries the same rows (a unit test holds them equal),
/// but its own bounds.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `compare`'s bound, on equal seeds run by run: the share by which the
    /// metric may worsen before a change counts as a regression. 10 % as
    /// the issue fixed it; the index size of a given seed repeats exactly,
    /// so any growth at all is a finding. A row whose own run-to-run spread
    /// is wider than this is `unresolved`, not widened.
    ///
    /// `BENCHMARK.json`'s bounds are the driver's and are wider: the driver
    /// measures steadiness over runs on *different* seeds and has one bound
    /// per metric for all four workloads, so each has to hold the
    /// seed-to-seed spread of the data on the workload where that is widest
    /// (see the README's repeatability table).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.10),
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.10),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.10),
    e2e("latency_p99_ms", "ms", Better::Lower, 0.10),
    e2e("append_ack_p50_ms", "ms", Better::Lower, 0.10),
    e2e("append_ack_p99_ms", "ms", Better::Lower, 0.10),
    e2e("build_points_s", "points/s", Better::Higher, 0.10),
    e2e("index_bytes_per_point", "bytes", Better::Lower, 0.0),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// `(name, unit)` pairs of the end-to-end table, for rendering.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)`: per-layer metrics carry no bound. Counts of failures
/// and waiting get worse upwards, rates downwards; `compare` only needs
/// to know which moved.
pub const PER_LAYER: &[(&str, &str)] = &[
    // proto
    ("proto.encode_request_ns", "ns"),
    ("proto.decode_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("proto.request_bytes", "bytes"),
    ("proto.response_bytes", "bytes"),
    // client + server
    ("wire.ping_rtt_us", "us"),
    ("wire.self_us", "us"),
    ("server.frames_in", "count"),
    ("server.bytes_out", "bytes"),
    ("server.protocol_errors", "count"),
    // serve
    ("serve.self_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_occupancy", "count"),
    ("serve.queue_depth_peak", "count"),
    ("serve.worker_busy_share", "share"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.ingest_depth_peak", "count"),
    ("serve.append_self_us", "us"),
    // core
    ("core.execute_us", "us"),
    ("core.probe_us", "us"),
    ("core.verify_us", "us"),
    ("core.self_us", "us"),
    ("core.candidate_sets_us", "us"),
    ("core.interval_fold_us", "us"),
    ("core.dp_segment_us", "us"),
    ("core.index_accesses", "count"),
    ("core.rows_scanned", "count"),
    ("core.probe_cache_hit_share", "share"),
    ("core.candidates", "count"),
    ("core.match_share", "share"),
    ("core.build_rows_points_s", "points/s"),
    ("core.append_materialize_ms", "ms"),
    ("core.index_rows", "count"),
    // distance
    ("distance.lb_kim_ns", "ns"),
    ("distance.lb_keogh_ns", "ns"),
    ("distance.dtw_ns", "ns"),
    ("distance.ed_ns", "ns"),
    ("distance.ed_norm_ns", "ns"),
    ("distance.envelope_ns", "ns"),
    ("distance.pruned_constraint_share", "share"),
    ("distance.pruned_lb_kim_share", "share"),
    ("distance.pruned_lb_keogh_share", "share"),
    ("distance.full_share", "share"),
    ("distance.dtw_cells", "cells"),
    ("distance.alloc_events", "count"),
    // storage
    ("storage.scan_us", "us"),
    ("storage.rows_per_scan", "count"),
    ("storage.bytes_per_scan", "bytes"),
    ("storage.seeks", "count"),
    ("storage.fetch_us", "us"),
    // lsm
    ("lsm.put_us", "us"),
    ("lsm.flush_ms", "ms"),
    ("lsm.runs_sealed", "count"),
    ("lsm.delta_runs_sealed", "count"),
    ("lsm.compactions", "count"),
    ("lsm.generations_retired", "count"),
    ("lsm.compaction_bytes", "bytes"),
    ("lsm.space_amp", "share"),
    ("lsm.reopen_ms", "ms"),
    // trace
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "share"),
];

/// Values measured by one run, keyed by metric name.
#[derive(Default)]
pub struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Renders the `metrics` object for `table`, in table order.
    ///
    /// End-to-end metrics must all be present and non-zero. A per-layer
    /// metric a workload has no such layer for (the `lsm.*` rows of a
    /// memory-backed workload, the `wire.*` rows of the library path)
    /// reads 0.
    pub fn render(
        &self,
        table: &[(&'static str, &'static str)],
        strict: bool,
    ) -> Result<Value, String> {
        for (name, _) in &self.values {
            if !END_TO_END.iter().any(|m| m.name == *name)
                && !PER_LAYER.iter().any(|(n, _)| n == name)
            {
                return Err(format!("metric {name} is not declared in the metric tables"));
            }
        }
        let mut out = Map::new();
        for (name, unit) in table {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if strict => return Err(format!("end-to-end metric {name} was not measured")),
                None => 0.0,
            };
            if strict && value == 0.0 {
                return Err(format!("end-to-end metric {name} read exactly 0"));
            }
            let mut entry = Map::new();
            entry.insert("value".to_string(), Value::from(value));
            entry.insert("unit".to_string(), Value::from(*unit));
            out.insert(name.to_string(), Value::Object(entry));
        }
        Ok(Value::Object(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_issue() {
        assert_eq!(END_TO_END.len(), 9);
        assert_eq!(PER_LAYER.len(), 63);
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|(n, _)| *n)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 72, "metric names are unique");
    }

    #[test]
    fn strict_render_rejects_missing_zero_and_undeclared() {
        let table = end_to_end_units();
        let mut m = MetricSet::default();
        assert!(m.render(&table, true).is_err());
        for (name, _) in &table {
            m.set(name, 1.5);
        }
        assert!(m.render(&table, true).is_ok());
        m.set("setup_s", 0.0);
        assert!(m.render(&table, true).is_err());
        m.set("setup_s", 2.0);
        m.set("no.such_metric", 1.0);
        assert!(m.render(&table, true).is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let Value::Object(doc) = serde_json::from_str(text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is an object")
        };
        let rows = |key: &str| match doc.get(key) {
            Some(Value::Array(rows)) => rows.clone(),
            _ => panic!("{key} is an array"),
        };
        let field = |row: &Value, key: &str| match row {
            Value::Object(m) => m.get(key).cloned().unwrap_or(Value::Null),
            _ => Value::Null,
        };
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), Value::from(m.name));
            assert_eq!(field(row, "unit"), Value::from(m.unit));
            assert_eq!(field(row, "better"), Value::from(m.better.word()));
            // The driver's bound: a share of the median, at most a quarter,
            // and never tighter than what `compare` holds on equal seeds.
            let Value::Number(driver_bound) = field(row, "bound") else { panic!("{}", m.name) };
            assert!(driver_bound <= 0.25 && driver_bound >= m.bound, "{}", m.name);
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), Value::from(*name));
            assert_eq!(field(row, "unit"), Value::from(*unit));
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(field(row, "name"), Value::from(w.name));
            assert_eq!(field(row, "why"), Value::from(w.why));
        }
        assert_eq!(doc.get("run_seconds"), Some(&Value::from(crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn lenient_render_fills_absent_layers_with_zero() {
        let mut m = MetricSet::default();
        m.set("lsm.put_us", 12.25);
        let Value::Object(out) = m.render(PER_LAYER, false).unwrap() else { panic!("object") };
        assert_eq!(out.len(), 63);
        let Some(Value::Object(put)) = out.get("lsm.put_us") else { panic!("entry") };
        assert_eq!(put.get("value"), Some(&Value::from(12.25)));
        assert_eq!(put.get("unit"), Some(&Value::from("us")));
        let Some(Value::Object(ping)) = out.get("wire.ping_rtt_us") else { panic!("entry") };
        assert_eq!(ping.get("value"), Some(&Value::from(0.0)));
    }
}
