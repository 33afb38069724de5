//! # kvmatch — KV-match subsequence matching for time series
//!
//! A from-scratch Rust reproduction of *"KV-match: A Subsequence Matching
//! Approach Supporting Normalization and Time Warping"* (ICDE 2019;
//! extended version arXiv:1710.00560).
//!
//! One mean-value key-value index answers four query types with no false
//! dismissals:
//!
//! * **RSM-ED / RSM-DTW** — raw subsequence matching under Euclidean
//!   distance or band-constrained Dynamic Time Warping,
//! * **cNSM-ED / cNSM-DTW** — *constrained normalized* subsequence
//!   matching: `D(Ŝ, Q̂) ≤ ε` with amplitude-scaling bound
//!   `1/α ≤ σS/σQ ≤ α` and offset-shifting bound `|µS − µQ| ≤ β`.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `kvmatch-core` | KV-index, KV-match, KV-match_DP, catalog, top-k |
//! | [`serve`] | `kvmatch-serve` | query service: micro-batching front scheduler, series-partitioned worker pool, ingest lane, backpressure, metrics |
//! | [`obs`] | `kvmatch-obs` | observability: metrics registry + text exposition, per-query traces and `EXPLAIN` reports, slow-query log (`docs/OBSERVABILITY.md`) |
//! | [`proto`] | `kvmatch-proto` | the wire protocol: versioned length-prefixed frames, request/response enums, stable error codes (`docs/WIRE.md`) |
//! | [`client`] | `kvmatch-client` | blocking TCP client with request-id pipelining against a `kvmatch-server` |
//! | [`timeseries`] | `kvmatch-timeseries` | series container, statistics, generators |
//! | [`distance`] | `kvmatch-distance` | ED, banded DTW, envelopes, lower bounds |
//! | [`storage`] | `kvmatch-storage` | file/memory/sharded KV stores, series stores |
//! | [`lsm`] | `kvmatch-lsm` | from-scratch LSM-tree engine (LevelDB-class backend, §VII-C) |
//! | [`rtree`] | `kvmatch-rtree` | the R-tree substrate for the baselines |
//! | [`baselines`] | `kvmatch-baselines` | UCR Suite, FAST, FRM/GeneralMatch, DMatch |
//!
//! ## Example
//!
//! ```
//! use kvmatch::prelude::*;
//!
//! // A sine series with a planted, amplitude-scaled pattern.
//! let mut xs: Vec<f64> = (0..4000).map(|i| (i as f64 * 0.05).sin()).collect();
//! let template: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin() * 3.0 + 10.0).collect();
//! xs[1000..1200].copy_from_slice(&template);
//!
//! // Index once, query many ways.
//! let (index, _) = KvIndex::<MemoryKvStore>::build_into(
//!     &xs, IndexBuildConfig::new(50), MemoryKvStoreBuilder::new()).unwrap();
//! let data = MemorySeriesStore::new(xs.clone());
//! let matcher = KvMatcher::new(&index, &data).unwrap();
//!
//! // cNSM-ED: find normalized matches whose mean stays near the query's.
//! let spec = QuerySpec::cnsm_ed(template, 0.5, 1.5, 2.0);
//! let (hits, _) = matcher.execute(&spec).unwrap();
//! assert!(hits.iter().any(|h| h.offset == 1000));
//! ```

pub use kvmatch_baselines as baselines;
pub use kvmatch_client as client;
pub use kvmatch_core as core;
pub use kvmatch_distance as distance;
pub use kvmatch_lsm as lsm;
pub use kvmatch_obs as obs;
pub use kvmatch_proto as proto;
pub use kvmatch_rtree as rtree;
pub use kvmatch_serve as serve;
pub use kvmatch_storage as storage;
pub use kvmatch_timeseries as timeseries;

/// One-stop imports for typical use.
pub mod prelude {
    pub use kvmatch_client::{Client, ClientError, QueryReply};
    pub use kvmatch_core::{
        select_top_k, Catalog, CatalogBackend, Constraint, CoreError, DpMatcher, DpOptions,
        ExecutorConfig, IndexAppender, IndexBuildConfig, IndexSetConfig, KvIndex, KvMatcher,
        MatchResult, MatchStats, Measure, MemoryCatalogBackend, MultiIndex, QueryExecutor,
        QuerySpec, ReadView, RowCache, SeriesId,
    };
    pub use kvmatch_distance::LpExponent;
    pub use kvmatch_lsm::{LsmCatalogBackend, LsmKvStore, LsmKvStoreBuilder, LsmOptions};
    pub use kvmatch_obs::{ExplainReport, Registry, SpanRecord, TraceCtx};
    pub use kvmatch_proto::{Request, Response, WireError, WireMetrics};
    pub use kvmatch_serve::{
        ConfigError, MetricsSnapshot, QueryKind, QueryRequest, QueryResponse, QueryService,
        Rejected, RejectedQuery, ResponseHandle, Router, ServeError, ServiceBuilder, ShardSnapshot,
        Submit, WorkerSnapshot,
    };
    pub use kvmatch_storage::memory::MemoryKvStoreBuilder;
    pub use kvmatch_storage::{
        FileKvStore, FileKvStoreBuilder, FileSeriesStore, KvStore, MemoryKvStore,
        MemorySeriesStore, SeriesStore,
    };
    pub use kvmatch_timeseries::{CompositeGenerator, TimeSeries};
}
