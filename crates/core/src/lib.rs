//! # kvmatch-core — KV-index, KV-match and KV-match_DP
//!
//! The primary contribution of *"KV-match: A Subsequence Matching Approach
//! Supporting Normalization and Time Warping"* (ICDE 2019, extended version
//! arXiv:1710.00560): a single one-dimensional key-value index over
//! sliding-window mean values that answers four query types —
//!
//! * **RSM-ED / RSM-DTW** — raw subsequence matching,
//! * **cNSM-ED / cNSM-DTW** — constrained *normalized* subsequence matching
//!   (`D(Ŝ, Q̂) ≤ ε` with `1/α ≤ σS/σQ ≤ α` and `|µS − µQ| ≤ β`),
//!
//! with no false dismissals, over any storage backend providing an ordered
//! scan (see `kvmatch-storage`).
//!
//! ## Quick start
//!
//! ```
//! use kvmatch_core::{IndexBuildConfig, KvIndex, KvMatcher, QuerySpec};
//! use kvmatch_storage::memory::MemoryKvStoreBuilder;
//! use kvmatch_storage::{MemoryKvStore, MemorySeriesStore};
//!
//! // Some data and a query drawn from it.
//! let xs: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.05).sin() * 3.0).collect();
//! let q = xs[300..500].to_vec();
//!
//! // Build the index (w = 50) and run an RSM-ED query.
//! let (index, _) = KvIndex::<MemoryKvStore>::build_into(
//!     &xs,
//!     IndexBuildConfig::new(50),
//!     MemoryKvStoreBuilder::new(),
//! ).unwrap();
//! let data = MemorySeriesStore::new(xs.clone());
//! let matcher = KvMatcher::new(&index, &data).unwrap();
//! let (results, stats) = matcher.execute(&QuerySpec::rsm_ed(q, 0.5)).unwrap();
//! assert!(results.iter().any(|r| r.offset == 300));
//! assert!(stats.candidates < 2000, "index pruned the scan");
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`interval`] | §IV-A, §V-C | window intervals, set algebra |
//! | [`ranges`] | §III | Lemmas 1–4 filtering ranges |
//! | [`build`] | §IV-B | index construction (streaming, parallel) |
//! | [`meta`] | §IV-A | the meta table |
//! | [`index`] | §IV | persisted index over a `KvStore` |
//! | [`matcher`] | §V | KV-match, Algorithm 1 |
//! | [`exec`] | — | batched multi-threaded query executor (multi-series routing) |
//! | [`catalog`] | §VII | multi-series catalog + streaming ingestion |
//! | [`dp`] | §VI | KV-match_DP: multi-index + Eq. 9 segmentation |
//! | [`naive`] | §II | exhaustive reference implementation |
//! | [`query`] | §II | query specs, results, statistics, errors |

pub mod append;
pub mod build;
pub mod cache;
pub mod catalog;
pub mod dp;
pub mod exec;
pub mod index;
pub mod interval;
pub mod matcher;
pub mod meta;
pub mod naive;
pub mod query;
pub mod ranges;

pub use append::IndexAppender;
pub use build::{BuildStats, IndexBuildConfig, IndexRow, RowAccumulator};
pub use cache::{RowCache, RowCacheStats};
pub use catalog::{
    seal_with_builder, BackendMaintenanceStats, Catalog, CatalogBackend, CatalogSnapshot,
    CatalogStats, GenerationInput, MemoryCatalogBackend, ReadView, SeriesGeneration,
};
pub use dp::{DpMatcher, DpOptions, IndexSetConfig, MultiIndex, Segment};
pub use exec::{
    BatchOutput, BatchStats, ExecutorConfig, QueryExecutor, QueryOutput, SeriesBatchStats,
};
pub use index::{KvIndex, ScanInfo};
pub use interval::{IntervalSet, WindowInterval};
pub use kvmatch_storage::SeriesId;
pub use matcher::{KvMatcher, PreparedQuery};
pub use meta::{IndexParams, MetaEntry, MetaTable};
pub use naive::{naive_count, naive_search};
pub use query::{select_top_k, Constraint, CoreError, MatchResult, MatchStats, Measure, QuerySpec};
pub use ranges::MeanRange;
