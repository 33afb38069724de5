//! The deterministic demo catalog the `kvmatch-server` binary serves.
//!
//! Everything here is a pure function of [`DemoSpec`], which is itself a
//! pure function of the `KVM_*` environment — so a client or an
//! integration test running in a *different process* can rebuild the
//! exact catalog the server holds and compute expected answers that are
//! bit-identical to what arrives over the socket.

use kvmatch_core::exec::ExecutorConfig;
use kvmatch_core::{Catalog, IndexBuildConfig, MemoryCatalogBackend, SeriesId};
use kvmatch_serve::QueryService;
use kvmatch_timeseries::generator::composite_series;

/// The shape of the demo catalog: sizes and the seed everything derives
/// from.
#[derive(Clone, Copy, Debug)]
pub struct DemoSpec {
    /// Total points across all series (split evenly).
    pub n: usize,
    /// Index window width.
    pub w: usize,
    /// Number of series.
    pub series: usize,
    /// Master seed; per-series seeds derive from it.
    pub seed: u64,
    /// Executor verification threads (0 = library default).
    pub threads: usize,
    /// Expected concurrent submitters; sizes the admission queue.
    pub submitters: usize,
    /// Catalog shards (each with its own lane + worker set).
    pub shards: usize,
}

impl Default for DemoSpec {
    fn default() -> Self {
        Self { n: 120_000, w: 50, series: 4, seed: 42, threads: 0, submitters: 8, shards: 1 }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl DemoSpec {
    /// Reads `KVM_N`, `KVM_W`, `KVM_SERIES`, `KVM_SEED`, `KVM_THREADS`,
    /// `KVM_SUBMITTERS` and `KVM_SHARDS`.
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            n: env_usize("KVM_N", d.n),
            w: env_usize("KVM_W", d.w),
            series: env_usize("KVM_SERIES", d.series).max(1),
            seed: std::env::var("KVM_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(d.seed),
            threads: env_usize("KVM_THREADS", d.threads),
            submitters: env_usize("KVM_SUBMITTERS", d.submitters).max(1),
            shards: env_usize("KVM_SHARDS", d.shards).max(1),
        }
    }

    /// Points per series.
    pub fn n_per_series(&self) -> usize {
        (self.n / self.series).max(self.w * 20).min(20_000)
    }

    /// Series ids are `1..=series`.
    pub fn ids(&self) -> Vec<SeriesId> {
        (0..self.series).map(|i| SeriesId::new(i as u64 + 1)).collect()
    }

    /// The data of series index `i` (0-based).
    pub fn series_data(&self, i: usize) -> Vec<f64> {
        composite_series(self.seed.wrapping_add(104_729 * (i as u64 + 1)), self.n_per_series())
    }

    /// Builds and materializes the full demo catalog.
    pub fn build_catalog(&self) -> Catalog<MemoryCatalogBackend> {
        let mut catalog = Catalog::with_exec_config(
            MemoryCatalogBackend,
            ExecutorConfig { threads: self.threads, ..ExecutorConfig::default() },
        );
        for (i, id) in self.ids().into_iter().enumerate() {
            catalog.create_series(id, IndexBuildConfig::new(self.w)).expect("create series");
            catalog.append(id, &self.series_data(i)).expect("append series data");
        }
        catalog.materialize().expect("materialize demo catalog");
        catalog
    }

    /// Spawns the demo service at the given per-shard worker count:
    /// catalog split across `self.shards`, admission queue sized from
    /// the expected submitter count.
    pub fn spawn_service(&self, workers: usize) -> QueryService<MemoryCatalogBackend> {
        let queue = (self.submitters * 2).max(4).max(16);
        QueryService::builder(self.build_catalog())
            .shards(self.shards)
            .workers(workers)
            .queue_capacity(queue)
            .max_batch(16)
            .max_batch_delay(std::time::Duration::from_millis(1))
            .build()
            .expect("demo topology is valid by construction")
    }
}
