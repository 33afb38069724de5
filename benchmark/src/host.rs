//! Host facts and resolved settings, echoed with every output: a number
//! that depends on threads is unreadable without the core count beside it.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use kvmatch_core::ExecutorConfig;
use kvmatch_lsm::LsmOptions;
use kvmatch_server::ServerOptions;
use serde_json::{Map, Value};

pub struct HostFacts {
    pub available_parallelism: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub git_commit: String,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostFacts {
    pub fn collect() -> Self {
        Self {
            available_parallelism: parallelism(),
            rustc: first_line("rustc", &["--version"]),
            // Fixed in this package's Cargo.toml; `run.sh` never builds
            // anything else.
            profile: if cfg!(debug_assertions) {
                "debug (NOT a measurement build)"
            } else {
                "release"
            },
            git_commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "available_parallelism={} rustc=\"{}\" profile={} commit={}",
            self.available_parallelism, self.rustc, self.profile, self.git_commit
        )
    }

    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("available_parallelism".into(), Value::from(self.available_parallelism));
        m.insert("rustc".into(), Value::from(self.rustc.as_str()));
        m.insert("profile".into(), Value::from(self.profile));
        m.insert("git_commit".into(), Value::from(self.git_commit.as_str()));
        m.insert("settings".into(), Value::from(settings_line()));
        Value::Object(m)
    }
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generating threads alive now, and the most there ever were.
static LOAD_THREADS: AtomicUsize = AtomicUsize::new(0);
static PEAK_LOAD_THREADS: AtomicUsize = AtomicUsize::new(0);
static CONNECTIONS: AtomicUsize = AtomicUsize::new(0);

/// The load guard. A driver claims the threads it is about to put load
/// from (its own, if it drives from the calling thread) and holds the
/// claim until they have ended; the claim is refused when it would bring
/// the load threads alive at once above `available_parallelism`. A
/// workload that needs more measures an oversubscribed host, not the
/// system — the missing fact behind `bench_report`'s unreadable scaling
/// rows.
#[derive(Debug)]
pub struct LoadThreads(usize);

impl LoadThreads {
    pub fn claim(threads: usize) -> Result<Self, String> {
        let alive = LOAD_THREADS.fetch_add(threads, Ordering::SeqCst) + threads;
        if alive > parallelism() {
            LOAD_THREADS.fetch_sub(threads, Ordering::SeqCst);
            return Err(format!(
                "{alive} load threads at once exceed available_parallelism = {}; \
                 refusing to measure an oversubscribed host",
                parallelism()
            ));
        }
        PEAK_LOAD_THREADS.fetch_max(alive, Ordering::SeqCst);
        Ok(Self(threads))
    }
}

impl Drop for LoadThreads {
    fn drop(&mut self) {
        LOAD_THREADS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// The same rule for the client connections of a served fixture.
pub fn admit_connections(connections: usize) -> Result<(), String> {
    if connections > parallelism() {
        return Err(format!(
            "{connections} connections exceed available_parallelism = {}; \
             refusing to measure an oversubscribed host",
            parallelism()
        ));
    }
    CONNECTIONS.fetch_max(connections, Ordering::SeqCst);
    Ok(())
}

/// What the guard admitted over the run, for the output.
pub fn load_line() -> String {
    format!(
        "load guard: at most {} load threads at once, {} connections, available_parallelism = {}",
        PEAK_LOAD_THREADS.load(Ordering::SeqCst),
        CONNECTIONS.load(Ordering::SeqCst),
        parallelism()
    )
}

/// The product defaults every workload runs with, read from the product
/// where it exposes them. `ServiceBuilder` keeps its defaults private; the
/// values quoted are the ones its documentation states, and no workload
/// overrides them (only `shards` and `workers`, echoed per workload).
pub fn settings_line() -> String {
    let server = ServerOptions::default();
    let exec = ExecutorConfig::default();
    let lsm = LsmOptions::default();
    format!(
        "ServiceBuilder defaults (queue_capacity=256 max_batch=32 max_batch_delay=2ms, no deadline); \
         ServerOptions {{ admission_wait={:?} append_wait={:?} out_queue={} drain_timeout={:?} }}; \
         ExecutorConfig {{ threads={} (0=auto) cache_capacity={} cache_interval_budget={} adaptive_cascade={} }}; \
         LsmOptions {{ memtable_bytes={} block_bytes={} l0_compaction_trigger={} sync_wal={} }}",
        server.admission_wait,
        server.append_wait,
        server.out_queue,
        server.drain_timeout,
        exec.threads,
        exec.cache_capacity,
        exec.cache_interval_budget,
        exec.adaptive_cascade.is_some(),
        lsm.memtable_bytes,
        lsm.block_bytes,
        lsm.l0_compaction_trigger,
        lsm.sync_wal,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test that touches the guard's counters.
    #[test]
    fn load_guard_counts_live_claims_and_refuses_oversubscription() {
        let all = LoadThreads::claim(parallelism()).expect("the host's own parallelism is allowed");
        assert!(LoadThreads::claim(1).is_err(), "one more thread than cores");
        drop(all);
        let one = LoadThreads::claim(1).expect("a released claim frees its threads");
        assert!(LoadThreads::claim(parallelism()).is_err());
        drop(one);
        assert!(admit_connections(parallelism()).is_ok());
        assert!(admit_connections(parallelism() + 1).is_err());
        assert!(load_line().contains(&format!("at most {} load threads", parallelism())));
    }
}
