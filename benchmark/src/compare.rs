//! `benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric with both medians, the change, the metric's bound and a verdict;
//! per-layer changes beneath, naming the layer that moved most.
//!
//! Both summaries must hold the same seeds. A metric is compared **run by
//! run on equal seeds**: how much worse B's run on seed `s` is than A's on
//! seed `s`, then the median of those changes and the distance between
//! their quartiles. The inputs of a seed are the same on both sides, so
//! what the data contributes (the index size of a seed's series, the cost
//! of its query pool) cancels, and the spread that is left is the host's.
//!
//! Verdicts: `regressed` when the median change is worse than the metric's
//! bound; `unresolved` when the changes spread wider than the bound, so the
//! comparison cannot carry a claim either way; `ok` otherwise.

use serde_json::{Map, Value};

use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::median_f64;
use crate::suite::{quartiles, WHOLE_WINDOW};

/// `compare`'s bound on the whole-window p99s, the named p99s' own.
const WHOLE_WINDOW_BOUND: f64 = 0.10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The change of one metric over the paired runs, as shares of A's value.
#[derive(Clone, Copy, Debug)]
pub struct Change {
    /// Median of the per-seed worsenings (negative when B is better).
    pub worse: f64,
    /// Distance between their quartiles; 0 for a single pair.
    pub spread: f64,
}

/// Judges B's runs against A's, pair by pair.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Change, Verdict) {
    let mut changes: Vec<f64> =
        a.iter().zip(b).map(|(&x, &y)| metric.better.worsening(x, y)).collect();
    changes.sort_by(f64::total_cmp);
    let (q1, worse, q3) = quartiles(&changes);
    let change = Change { worse, spread: q3 - q1 };
    // An exact bound still has to let floating-point dust through.
    let bound = metric.bound + 1e-9;
    let verdict = if change.spread > bound {
        Verdict::Unresolved
    } else if change.worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (change, verdict)
}

fn object<'a>(v: Option<&'a Value>, what: &str) -> Result<&'a Map<String, Value>, String> {
    match v {
        Some(Value::Object(m)) => Ok(m),
        _ => Err(format!("{what} is missing or not an object")),
    }
}

/// The per-seed values of one summary entry, in seed order.
fn values(entry: Option<&Value>) -> Option<Vec<f64>> {
    let Some(Value::Object(e)) = entry else { return None };
    let Some(Value::Array(values)) = e.get("values") else { return None };
    values
        .iter()
        .map(|v| match v {
            Value::Number(n) => Some(*n),
            _ => None,
        })
        .collect()
}

fn load(path: &str) -> Result<Map<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    match serde_json::from_str(&text) {
        Ok(Value::Object(doc)) if doc.get("schema") == Some(&Value::from(crate::suite::SCHEMA)) => {
            Ok(doc)
        }
        Ok(_) => Err(format!("{path} is not a {} summary", crate::suite::SCHEMA)),
        Err(e) => Err(format!("parse {path}: {e}")),
    }
}

/// Per-layer metrics of one workload that moved, largest relative change
/// first, and the layer holding the largest.
fn layer_changes(a: &Map<String, Value>, b: &Map<String, Value>) -> Vec<(String, f64, f64, f64)> {
    let mut moved: Vec<(String, f64, f64, f64)> = PER_LAYER
        .iter()
        .filter_map(|(name, _)| {
            let (va, vb) = (median_f64(&values(a.get(name))?), median_f64(&values(b.get(name))?));
            let base = va.abs().max(vb.abs());
            (base > 0.0).then(|| (name.to_string(), va, vb, (vb - va) / base))
        })
        .filter(|(_, _, _, change)| change.abs() >= 0.02)
        .collect();
    moved.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
    moved
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.get("seed") != b.get("seed") || a.get("repeats") != b.get("repeats") {
        return Err(format!(
            "{path_a} holds seeds from {:?} x {:?}, {path_b} from {:?} x {:?}: \
             compare pairs runs on equal seeds",
            a.get("seed"),
            a.get("repeats"),
            b.get("seed"),
            b.get("repeats")
        ));
    }
    let (wa, wb) =
        (object(a.get("workloads"), "A.workloads")?, object(b.get("workloads"), "B.workloads")?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    let mut regressed = false;
    for (name, entry_a) in wa.iter() {
        let Some(entry_b) = wb.get(name) else {
            println!("{name:<13} missing from B");
            continue;
        };
        let (ea, eb) = (object(Some(entry_a), name)?, object(Some(entry_b), name)?);
        let (e2e_a, e2e_b) = (
            object(ea.get("end_to_end"), "end_to_end")?,
            object(eb.get("end_to_end"), "end_to_end")?,
        );
        for metric in END_TO_END {
            let (va, vb) = match (values(e2e_a.get(metric.name)), values(e2e_b.get(metric.name))) {
                (Some(va), Some(vb)) if va.len() == vb.len() && !va.is_empty() => (va, vb),
                _ => {
                    println!("{name:<13} {:<28} missing", metric.name);
                    continue;
                }
            };
            let (change, verdict) = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{name:<13} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {:>7.2}%  {}",
                metric.name,
                median_f64(&va),
                median_f64(&vb),
                change.worse * 100.0,
                metric.bound * 100.0,
                change.spread * 100.0,
                verdict.word()
            );
        }
        // The whole-window p99s: informational to the driver, judged here,
        // because a rare long stall shows in them and nowhere else.
        if let (Ok(ia), Ok(ib)) = (
            object(ea.get("informational"), "informational"),
            object(eb.get("informational"), "informational"),
        ) {
            for whole in WHOLE_WINDOW {
                let metric = EndToEnd {
                    name: whole,
                    unit: "ms",
                    better: Better::Lower,
                    bound: WHOLE_WINDOW_BOUND,
                };
                let (Some(va), Some(vb)) = (values(ia.get(whole)), values(ib.get(whole))) else {
                    continue;
                };
                let (change, verdict) = judge(&metric, &va, &vb);
                regressed |= verdict == Verdict::Regressed;
                println!(
                    "{name:<13} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {:>7.2}%  {}",
                    whole.trim_end_matches("_ms"),
                    median_f64(&va),
                    median_f64(&vb),
                    change.worse * 100.0,
                    metric.bound * 100.0,
                    change.spread * 100.0,
                    verdict.word()
                );
            }
        }
        let failed_share = |e: &Map<String, Value>| match e.get("failed_share") {
            Some(Value::Number(n)) => *n,
            _ => 0.0,
        };
        let (fa, fb) = (failed_share(ea), failed_share(eb));
        // Absolute bound: one more failure in a thousand operations.
        let verdict = if fb > fa + 0.001 { Verdict::Regressed } else { Verdict::Ok };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{name:<13} {:<28} {fa:>14.6} {fb:>14.6} {:>9} {:>7} {:>8}  {}",
            "failed_share",
            "",
            "+0.001",
            "",
            verdict.word()
        );
        if let (Ok(la), Ok(lb)) =
            (object(ea.get("per_layer"), "per_layer"), object(eb.get("per_layer"), "per_layer"))
        {
            let moved = layer_changes(la, lb);
            match moved.first() {
                Some((top, _, _, _)) => {
                    let layer = top.split('.').next().unwrap_or(top);
                    println!(
                        "  per-layer: `{layer}` moved most ({} metrics changed by 2 % or more)",
                        moved.len()
                    );
                }
                None => println!("  per-layer: nothing moved by 2 % or more"),
            }
            for (metric, va, vb, change) in moved.iter().take(12) {
                println!("    {metric:<34} {va:>14.4} -> {vb:>14.4}  {:>+8.2}%", change * 100.0);
            }
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd =
        EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 };
    const RATE: EndToEnd =
        EndToEnd { name: "throughput_ops_s", unit: "ops/s", better: Better::Higher, bound: 0.10 };
    const SIZE: EndToEnd = EndToEnd {
        name: "index_bytes_per_point",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.0,
    };

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let a = [10.0, 20.0, 30.0];
        assert_eq!(judge(&LATENCY, &a, &[10.9, 21.8, 32.7]).1, Verdict::Ok);
        assert_eq!(judge(&LATENCY, &a, &[11.5, 23.0, 34.5]).1, Verdict::Regressed);
        assert_eq!(judge(&LATENCY, &a, &[5.0, 10.0, 15.0]).1, Verdict::Ok);
        assert_eq!(judge(&RATE, &a, &[8.5, 17.0, 25.5]).1, Verdict::Regressed);
        assert_eq!(judge(&RATE, &a, &[13.0, 26.0, 39.0]).1, Verdict::Ok);
    }

    #[test]
    fn runs_are_paired_by_seed_so_the_data_cancels() {
        // Seeds whose pools cost 10, 20 and 30 ms: a spread of 100 % of
        // the median across seeds, yet each run of B is 4 % worse than
        // its twin, and that is what is judged.
        let (change, verdict) = judge(&LATENCY, &[10.0, 20.0, 30.0], &[10.4, 20.8, 31.2]);
        assert!((change.worse - 0.04).abs() < 1e-12 && change.spread < 1e-12);
        assert_eq!(verdict, Verdict::Ok);
        // Changes scattered wider than the bound cannot carry a verdict.
        let (change, verdict) =
            judge(&LATENCY, &[10.0, 10.0, 10.0, 10.0], &[9.0, 10.0, 11.5, 12.5]);
        assert!(change.spread > 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn index_size_is_held_exactly() {
        let a = [0.5, 0.4, 0.45];
        assert_eq!(judge(&SIZE, &a, &a).1, Verdict::Ok);
        assert_eq!(judge(&SIZE, &a, &[0.505, 0.404, 0.4545]).1, Verdict::Regressed);
        // Growth on one seed only does not pass as `ok` either.
        assert_eq!(judge(&SIZE, &a, &[0.51, 0.4, 0.45]).1, Verdict::Unresolved);
    }

    #[test]
    fn values_come_in_seed_order() {
        let entry = serde_json::from_str(
            r#"{"median":10,"q1":9.5,"q3":10.5,"unit":"ms","values":[10.5,9.5,10]}"#,
        )
        .unwrap();
        assert_eq!(values(Some(&entry)), Some(vec![10.5, 9.5, 10.0]));
        assert!(values(Some(&Value::Null)).is_none());
    }
}
