//! The repo benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//! benchmark [--seed <n>] [--seconds <s>] [--repeats <r>] [--trace] [--out <file>]
//!     every workload, each in its own child process, and a summary JSON
//! benchmark compare A.json B.json
//!     two summaries side by side with a verdict per metric
//! ```

#![deny(deprecated)]

mod compare;
mod drive;
mod host;
mod inputs;
mod layers;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{Map, Value};

use workloads::{Report, RunArgs};

/// Measured window when `--seconds` is not given; `BENCHMARK.json` states
/// the same number as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
pub const DEFAULT_SEED: u64 = 42;

/// Parsed command line of the run modes.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Suite mode: untraced runs per workload, on seeds `seed`, `seed + 1`, ….
    pub repeats: usize,
    pub out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeats: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--repeats" => {
                cli.repeats = value("a count")?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if cli.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` is the
            // driver's spelling.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Where scratch directories and trace files go: `$KVM_BENCH_OUT`, else
/// `benchmark/out` under the working directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("KVM_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark").join("out"))
}

/// Runs one workload in this process and prints its result line.
fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; expected one of {names:?}")
    })?;
    let facts = host::HostFacts::collect();
    eprintln!(
        "# {} seed={} seconds={} trace={} | {}",
        workload.name,
        cli.seed,
        cli.seconds,
        cli.trace,
        facts.line()
    );
    eprintln!("# {}", host::settings_line());
    let args =
        RunArgs { seed: cli.seed, seconds: cli.seconds, trace: cli.trace, out_dir: out_dir() };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let report = (workload.run)(&args)?;
    eprintln!("# {}", host::load_line());
    let result = result_line(&report, cli.trace)?;
    // Informational values travel on the line before the result, which
    // stays the last line of stdout; the suite picks them up from there.
    println!("{}", info_line(&report));
    println!("{result}");
    Ok(report.failed == 0)
}

/// `{"info": {...}}`: sample counts, settings and the percentiles that are
/// not named metrics.
fn info_line(report: &Report) -> Value {
    let info: Map<String, Value> = report.info.iter().cloned().collect();
    let mut line = Map::new();
    line.insert("info".to_string(), Value::Object(info));
    Value::Object(line)
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
fn result_line(report: &Report, trace: bool) -> Result<Value, String> {
    for (key, value) in &report.info {
        eprintln!("info {key} = {value}");
    }
    eprintln!(
        "failed_share = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if report.attempted == 0 {
        return Err("the run attempted no operation".into());
    }
    let metrics = if trace {
        report.metrics.render(metrics::PER_LAYER, false)?
    } else {
        let mut table = metrics::end_to_end_units();
        table.retain(|(name, _)| !report.withheld.contains(name));
        report.metrics.render(&table, true)?
    };
    let mut out = Map::new();
    out.insert("correct".to_string(), Value::Bool(report.failed == 0));
    out.insert("attempted".to_string(), Value::from(report.attempted));
    out.insert("failed".to_string(), Value::from(report.failed));
    out.insert("metrics".to_string(), metrics);
    Ok(Value::Object(out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        _ => parse(&args).and_then(|cli| match cli.workload.clone() {
            Some(name) => run_one(&cli, &name),
            None => suite::run(&cli),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAIL: at least one operation failed or one answer was wrong");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_spelling_and_the_short_one() {
        let cli = parse(&argv("--workload ed_point --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("ed_point"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, false));
        assert!(parse(&argv("--trace 1")).unwrap().trace);
        assert!(parse(&argv("--trace --seed 3")).unwrap().trace);
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
    }
}
