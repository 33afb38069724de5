//! The whole benchmark in one command: every workload in its own child
//! process (so `peak_rss_mb` is that workload's alone and one workload's
//! threads never linger into the next), gathered into a summary JSON that
//! `compare` reads.

use std::process::{Command, Stdio};

use serde_json::{Map, Value};

use crate::host::HostFacts;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};
use crate::Cli;

pub const SCHEMA: &str = "kvmatch-benchmark/v1";

/// Informational values of a run that the summary keeps, because `compare`
/// judges them beside the named metrics: the whole-window p99s, which a
/// rare long stall moves and the calm-stretch tail estimates do not.
pub const WHOLE_WINDOW: [&str; 2] =
    ["latency_p99_whole_window_ms", "append_ack_p99_whole_window_ms"];

/// One child run: its result (the last line of its stdout) and its
/// informational values (the line before).
struct ChildRun {
    result: Map<String, Value>,
    info: Map<String, Value>,
}

fn run_child(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let Some(Ok(Value::Object(result))) = lines.next().map(serde_json::from_str) else {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) exited with {} and printed no result",
            workload.name, output.status
        ));
    };
    let info = match lines.next().map(serde_json::from_str) {
        Some(Ok(Value::Object(mut line))) => match line.remove("info") {
            Some(Value::Object(info)) => info,
            _ => Map::new(),
        },
        _ => Map::new(),
    };
    Ok(ChildRun { result, info })
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Number(n)) => *n,
        _ => 0.0,
    }
}

/// `metrics.<name>.value` of one result line.
fn metric(result: &Map<String, Value>, name: &str) -> Option<f64> {
    let Some(Value::Object(metrics)) = result.get("metrics") else { return None };
    let Some(Value::Object(entry)) = metrics.get(name) else { return None };
    match entry.get("value") {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

/// Median and quartiles of one metric over the repeats, as `compare`
/// wants them: `{"median":..,"q1":..,"q3":..,"values":[..]}`.
fn spread_entry(mut values: Vec<f64>, unit: &str) -> Value {
    let raw = values.clone();
    values.sort_by(f64::total_cmp);
    let (q1, median, q3) = quartiles(&values);
    let mut entry = Map::new();
    entry.insert("median".into(), Value::from(median));
    entry.insert("q1".into(), Value::from(q1));
    entry.insert("q3".into(), Value::from(q3));
    entry.insert("unit".into(), Value::from(unit));
    entry.insert("values".into(), Value::Array(raw.into_iter().map(Value::from).collect()));
    Value::Object(entry)
}

/// Quartiles by the exclusive method (`statistics.quantiles(v, n=4)` in
/// Python), which is what the driver's steadiness check computes. A
/// single value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |k: f64| {
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    (at(1.0), at(2.0), at(3.0))
}

/// Runs every workload `cli.repeats` times (seeds `seed`, `seed + 1`, …),
/// untraced, plus one traced run each when `--trace` is given, and writes
/// the summary.
pub fn run(cli: &Cli) -> Result<bool, String> {
    let facts = HostFacts::collect();
    let mut all_correct = true;
    let mut workloads = Map::new();
    for workload in &WORKLOADS {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut whole_window: Vec<Vec<f64>> = vec![Vec::new(); WHOLE_WINDOW.len()];
        for r in 0..cli.repeats {
            let ChildRun { result, info } =
                run_child(workload, cli.seed + r as u64, cli.seconds, false)?;
            attempted += number(result.get("attempted"));
            failed += number(result.get("failed"));
            for (slot, m) in per_metric.iter_mut().zip(END_TO_END) {
                slot.push(
                    metric(&result, m.name).ok_or(format!("{} lacks {}", workload.name, m.name))?,
                );
            }
            for (slot, name) in whole_window.iter_mut().zip(WHOLE_WINDOW) {
                if let Some(Value::Number(v)) = info.get(name) {
                    slot.push(*v);
                }
            }
        }
        let mut entry = Map::new();
        let mut e2e = Map::new();
        for (values, m) in per_metric.into_iter().zip(END_TO_END) {
            e2e.insert(m.name.into(), spread_entry(values, m.unit));
        }
        entry.insert("why".into(), Value::from(workload.why));
        entry.insert("end_to_end".into(), Value::Object(e2e));
        let mut informational = Map::new();
        for (values, name) in whole_window.into_iter().zip(WHOLE_WINDOW) {
            if values.len() == cli.repeats {
                informational.insert(name.into(), spread_entry(values, "ms"));
            }
        }
        entry.insert("informational".into(), Value::Object(informational));
        if cli.trace {
            let ChildRun { result, .. } = run_child(workload, cli.seed, cli.seconds, true)?;
            attempted += number(result.get("attempted"));
            failed += number(result.get("failed"));
            let mut layers = Map::new();
            for (name, unit) in PER_LAYER {
                layers.insert(
                    (*name).into(),
                    spread_entry(vec![metric(&result, name).unwrap_or(0.0)], unit),
                );
            }
            entry.insert("per_layer".into(), Value::Object(layers));
        }
        entry.insert("attempted".into(), Value::from(attempted));
        entry.insert("failed".into(), Value::from(failed));
        entry.insert("failed_share".into(), Value::from(failed / attempted.max(1.0)));
        all_correct &= failed == 0.0;
        workloads.insert(workload.name.into(), Value::Object(entry));
    }

    let mut summary = Map::new();
    summary.insert("schema".into(), Value::from(SCHEMA));
    summary.insert("host".into(), facts.to_value());
    summary.insert("seed".into(), Value::from(cli.seed));
    summary.insert("repeats".into(), Value::from(cli.repeats));
    summary.insert("seconds".into(), Value::from(cli.seconds));
    summary.insert("workloads".into(), Value::Object(workloads));
    // This benchmark defines the instrument; it claims no gain.
    summary.insert("claim".into(), Value::Null);
    let text = Value::Object(summary).to_string();
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join(format!("summary-{}.json", cli.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("summary written to {}", path.display());
    println!("{text}");
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
