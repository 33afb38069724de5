//! Multi-series catalog: immutable per-series index generations behind
//! copy-free reader snapshots.
//!
//! The paper's deployment target (§VII: data-center and IoT monitoring)
//! serves *many* append-only series concurrently from one ordered store,
//! with new points streaming in while subsequence queries keep running.
//! [`Catalog`] is that layer: it owns one [`IndexAppender`] + data buffer
//! per series and seals each series' rows into an immutable
//! [`SeriesGeneration`] — index store, phase-2 data store and row cache,
//! all frozen together. Readers never touch the mutable side: they pin a
//! [`CatalogSnapshot`] (an `Arc` per series generation) and run entire
//! batches against it.
//!
//! ## Ingestion model: pin → build-aside → swap → retire
//!
//! [`Catalog::append`] streams live points through the series'
//! [`IndexAppender`] (rolling-mean bucketing, O(1) per point) and hands
//! them to the backend's durability hook
//! ([`CatalogBackend::persist_points`] — the LSM backend routes them
//! through its WAL + memtable). [`Catalog::materialize`] then seals the
//! next generation of **only the dirty series** off to the side
//! ([`CatalogBackend::seal_generation`]) and publishes it with a pointer
//! swap, so a burst on one series costs O(that series' rows), not
//! O(catalog). Clean series keep their generation (and warm row cache)
//! by pointer; dirty series carry forward the cache entries of rows the
//! new generation left byte-identical ([`RowCache::carry_forward`]).
//! Superseded generations are retired only once provably unreachable —
//! when no snapshot pins them any more.
//!
//! ## Backends
//!
//! [`CatalogBackend`] abstracts the substrate exactly like the paper's
//! "any ordered store" claim: [`MemoryCatalogBackend`] (tests, small
//! data) and `LsmCatalogBackend` in the `kvmatch-lsm` crate (per-series
//! sorted runs with size-tiered compaction + WAL-durable points).
//!
//! Equivalence guarantee, enforced by randomized tests: a generational
//! catalog answers every series' queries **bit-identically** to a
//! full-rebuild catalog and to a dedicated single-series
//! [`KvMatcher`](crate::matcher::KvMatcher) over the same data.

use std::collections::BTreeMap;
use std::sync::Arc;

use kvmatch_storage::{
    KvStore, KvStoreBuilder, MemoryKvStore, MemorySeriesStore, SeriesId, SeriesStore,
};

use kvmatch_storage::memory::MemoryKvStoreBuilder;

use crate::append::IndexAppender;
use crate::build::{IndexBuildConfig, IndexRow};
use crate::cache::RowCache;
use crate::exec::{BatchOutput, ExecutorConfig, QueryExecutor};
use crate::index::KvIndex;
use crate::query::{CoreError, QuerySpec};

/// Everything a backend needs to seal one series' next index generation.
pub struct GenerationInput<'a> {
    /// The series being sealed.
    pub series: SeriesId,
    /// Catalog-unique, monotonically increasing generation number.
    pub generation: u64,
    /// The series' index configuration.
    pub config: IndexBuildConfig,
    /// Total series length the rows cover.
    pub series_len: usize,
    /// The complete current row set, sorted by `low`.
    pub rows: &'a [IndexRow],
    /// `Some(k)`: rows `..k` are byte-identical to this series' previous
    /// sealed generation, so a run-structured backend may persist only
    /// the delta `rows[k..]` (plus the meta row, which always changes).
    /// `None`: no prior generation — persist everything.
    pub changed_from: Option<usize>,
}

/// Counters a backend keeps about its own maintenance work (run seals,
/// compactions, retired generations). Volatile backends report zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendMaintenanceStats {
    /// Sorted runs sealed (full or delta).
    pub runs_sealed: u64,
    /// Of those, runs holding only a changed suffix of the row set.
    pub delta_runs_sealed: u64,
    /// Size-tiered compaction folds performed.
    pub compactions: u64,
    /// Generations whose files were reclaimed.
    pub generations_retired: u64,
}

/// Storage substrate of a [`Catalog`]: where sealed index generations
/// live, where phase-2 verification reads series data from, and
/// (optionally) where freshly ingested points go for durability.
pub trait CatalogBackend {
    /// The physical store hosting one sealed generation's index rows.
    type Store: KvStore;
    /// Per-series data store serving phase-2 fetches.
    type Data: SeriesStore + Sync;

    /// Seals one series' current rows into an immutable store — the next
    /// generation of that series. Backends without run-structured
    /// storage simply build a fresh store over the full row set
    /// ([`seal_with_builder`]); run-structured backends may honour
    /// [`GenerationInput::changed_from`] and persist only the delta.
    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError>;

    /// A data store over the series' current points.
    fn data_store(&mut self, series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError>;

    /// Durability hook invoked for every appended chunk *before* it is
    /// acknowledged; `start` is the series offset of `points[0]`. The
    /// default is a no-op (volatile backends).
    fn persist_points(
        &mut self,
        series: SeriesId,
        start: u64,
        points: &[f64],
    ) -> Result<(), CoreError> {
        let _ = (series, start, points);
        Ok(())
    }

    /// Invoked once a superseded generation is provably unreachable — no
    /// snapshot pins it any more — so backends with on-disk state can
    /// reclaim exactly the files no live generation references. Default:
    /// no-op (volatile backends free memory by dropping the store).
    fn retire_generation(&mut self, series: SeriesId, generation: u64) -> Result<(), CoreError> {
        let _ = (series, generation);
        Ok(())
    }

    /// The backend's maintenance counters. Default: all zero.
    fn maintenance_stats(&self) -> BackendMaintenanceStats {
        BackendMaintenanceStats::default()
    }

    /// Durability hook for a newly registered series' index
    /// configuration, so a restarted catalog can rebuild the series'
    /// appender with the same windowing. Default: no-op (volatile
    /// backends).
    fn persist_series_config(
        &mut self,
        series: SeriesId,
        config: &IndexBuildConfig,
    ) -> Result<(), CoreError> {
        let _ = (series, config);
        Ok(())
    }

    /// Replays everything a previous life persisted: each series'
    /// (id, index configuration, points), in ascending id order.
    /// [`Catalog::open`] feeds these straight back through the appenders
    /// so the caller never replays manually. Default: nothing to recover
    /// (volatile backends).
    fn recover_series(&mut self) -> Result<Vec<(SeriesId, IndexBuildConfig, Vec<f64>)>, CoreError> {
        Ok(Vec::new())
    }

    /// A fresh, independent backend instance for shard-per-core catalog
    /// scale-out ([`Catalog::split_routed`]): each shard owns its own
    /// backend so shards never synchronize on storage. `None` — the
    /// default — declares the backend unshardable (it owns exclusive
    /// durable state, like an LSM directory) and restricts its catalogs
    /// to single-shard serving.
    fn shard_instance(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// Seals a generation through any sorted-append [`KvStoreBuilder`] by
/// writing the full row set — the one-store-per-generation path used by
/// backends without run-structured storage.
pub fn seal_with_builder<Bld: KvStoreBuilder>(
    mut builder: Bld,
    input: &GenerationInput<'_>,
) -> Result<Bld::Store, CoreError> {
    KvIndex::<Bld::Store>::append_series_rows(
        &mut builder,
        input.series,
        input.rows,
        input.config,
        input.series_len,
    )?;
    Ok(builder.finish()?)
}

/// `BTreeMap`-store backend: everything in memory. The default for tests
/// and moderate data sizes.
#[derive(Clone, Debug, Default)]
pub struct MemoryCatalogBackend;

impl CatalogBackend for MemoryCatalogBackend {
    type Store = MemoryKvStore;
    type Data = MemorySeriesStore;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        seal_with_builder(MemoryKvStoreBuilder::new(), &input)
    }

    fn data_store(&mut self, _series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        Ok(MemorySeriesStore::new(xs.to_vec()))
    }

    fn shard_instance(&self) -> Option<Self> {
        Some(MemoryCatalogBackend)
    }
}

/// One immutable, sealed state of one series: index store, opened index
/// view, phase-2 data store, and the row cache warmed for exactly this
/// row set. Readers hold these by `Arc`; nothing in here ever mutates
/// (the cache is interior-mutable but only ever caches rows of *this*
/// generation, which are immutable).
pub struct SeriesGeneration<B: CatalogBackend> {
    generation: u64,
    store: Arc<B::Store>,
    index: KvIndex<Arc<B::Store>>,
    data: B::Data,
    cache: Arc<RowCache>,
}

impl<B: CatalogBackend> SeriesGeneration<B> {
    /// The catalog-unique generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sealed index view.
    pub fn index(&self) -> &KvIndex<Arc<B::Store>> {
        &self.index
    }

    /// The sealed phase-2 data store.
    pub fn data(&self) -> &B::Data {
        &self.data
    }

    /// The physical store behind the index view.
    pub fn store(&self) -> &Arc<B::Store> {
        &self.store
    }

    /// This generation's row cache.
    pub fn cache(&self) -> &Arc<RowCache> {
        &self.cache
    }
}

/// A consistent, immutable view of every series' current generation at
/// one materialization point. Snapshots are what readers execute
/// against: pinning one is an `Arc` clone, queries run without touching
/// the catalog (or any lock), and concurrent ingestion can seal and
/// publish new generations freely — the snapshot keeps serving the state
/// it pinned.
pub struct CatalogSnapshot<B: CatalogBackend> {
    entries: BTreeMap<u64, Arc<SeriesGeneration<B>>>,
    exec_config: ExecutorConfig,
}

impl<B: CatalogBackend> CatalogSnapshot<B> {
    /// Series visible in this snapshot, ascending.
    pub fn series(&self) -> Vec<SeriesId> {
        self.entries.keys().map(|&raw| SeriesId::new(raw)).collect()
    }

    /// Number of series visible.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pinned generation of one series.
    pub fn generation(&self, series: SeriesId) -> Option<&Arc<SeriesGeneration<B>>> {
        self.entries.get(&series.raw())
    }

    /// Binds a batched executor over the pinned generations.
    pub fn executor(&self) -> Result<QueryExecutor<'_, Arc<B::Store>, B::Data>, CoreError> {
        if self.entries.is_empty() {
            return Err(CoreError::InvalidQuery("catalog has no series".into()));
        }
        QueryExecutor::multi(
            self.entries
                .iter()
                .map(|(&raw, g)| (SeriesId::new(raw), g.index(), g.data(), Arc::clone(g.cache()))),
            self.exec_config,
        )
    }

    /// One-shot convenience: bind an executor and run `specs`. Safe from
    /// many threads at once — the snapshot is immutable and the row
    /// caches are thread-safe.
    pub fn execute_batch(&self, specs: &[QuerySpec]) -> Result<BatchOutput, CoreError>
    where
        B::Data: Sync,
    {
        self.executor()?.execute_batch(specs)
    }

    /// True when `series` has a published generation in this snapshot.
    pub fn contains(&self, series: SeriesId) -> bool {
        self.entries.contains_key(&series.raw())
    }
}

/// A consistent, lock-free read surface over materialized series state —
/// the one trait both read paths implement:
///
/// * [`CatalogSnapshot`] — the pinned, immutable view a
///   [`Catalog::snapshot`] hands out;
/// * a serving-layer shard handle (`kvmatch_serve`'s
///   `QueryService::read_view`) — the same snapshot pinned through the
///   shard that owns the series, without touching the catalog lock.
///
/// Everything here executes against immutable generations: no catalog
/// borrow, no lock, safe from any number of threads.
pub trait ReadView {
    /// Series answerable through this view, ascending.
    fn view_series(&self) -> Vec<SeriesId>;

    /// True when `series` has a published generation in this view.
    fn contains_series(&self, series: SeriesId) -> bool;

    /// Executes `specs` as one batch; outputs come back in input order.
    fn execute(&self, specs: &[QuerySpec]) -> Result<BatchOutput, CoreError>;
}

impl<B: CatalogBackend> ReadView for CatalogSnapshot<B> {
    fn view_series(&self) -> Vec<SeriesId> {
        self.series()
    }

    fn contains_series(&self, series: SeriesId) -> bool {
        self.contains(series)
    }

    fn execute(&self, specs: &[QuerySpec]) -> Result<BatchOutput, CoreError> {
        self.execute_batch(specs)
    }
}

/// One series' live (mutable) state inside the catalog: the appender and
/// point buffer absorbing ingestion, plus the currently published
/// generation.
struct SeriesEntry<B: CatalogBackend> {
    appender: IndexAppender,
    buffer: Vec<f64>,
    current: Option<Arc<SeriesGeneration<B>>>,
    dirty: bool,
}

/// Ingestion/materialization counters of a [`Catalog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Points accepted by [`Catalog::append`] over the catalog's life.
    pub points_ingested: u64,
    /// Append calls served.
    pub append_calls: u64,
    /// Materializations performed (each seals every dirty series once).
    pub materializations: u64,
    /// Per-series generations sealed across all materializations.
    pub generations_sealed: u64,
    /// Superseded generations reclaimed (unpinned by every snapshot).
    pub generations_retired: u64,
    /// Series replayed by [`Catalog::open`] from a durable backend.
    pub series_recovered: u64,
    /// Points those replays restored (not double-counted as ingested —
    /// they were counted in the life that appended them).
    pub points_recovered: u64,
}

/// A set of append-only series served through immutable per-series
/// generations and copy-free snapshots. See the module docs for the
/// model.
pub struct Catalog<B: CatalogBackend> {
    backend: B,
    entries: BTreeMap<u64, SeriesEntry<B>>,
    snapshot: Option<Arc<CatalogSnapshot<B>>>,
    next_generation: u64,
    /// Superseded generations still awaiting retirement: each is held
    /// until its `Arc` count proves no snapshot pins it any more.
    retired: Vec<(SeriesId, Arc<SeriesGeneration<B>>)>,
    exec_config: ExecutorConfig,
    stats: CatalogStats,
}

impl<B: CatalogBackend> Catalog<B> {
    /// An empty catalog over `backend` with default executor settings.
    pub fn new(backend: B) -> Self {
        Self::with_exec_config(backend, ExecutorConfig::default())
    }

    /// An empty catalog with explicit executor settings (verification
    /// threads, per-series cache capacity).
    pub fn with_exec_config(backend: B, exec_config: ExecutorConfig) -> Self {
        Self {
            backend,
            entries: BTreeMap::new(),
            snapshot: None,
            next_generation: 1,
            retired: Vec::new(),
            exec_config,
            stats: CatalogStats::default(),
        }
    }

    /// Opens a catalog over a (possibly pre-existing) durable backend,
    /// **automatically replaying** every series a previous life
    /// persisted — ids, index configurations and WAL-durable points all
    /// come back through [`CatalogBackend::recover_series`] without the
    /// caller touching `recover_points` manually. Over a fresh backend
    /// (or a volatile one) this is simply an empty catalog.
    pub fn open(backend: B) -> Result<Self, CoreError> {
        Self::open_with_exec_config(backend, ExecutorConfig::default())
    }

    /// [`Catalog::open`] with explicit executor settings.
    pub fn open_with_exec_config(
        mut backend: B,
        exec_config: ExecutorConfig,
    ) -> Result<Self, CoreError> {
        let recovered = backend.recover_series()?;
        let mut catalog = Self::with_exec_config(backend, exec_config);
        for (series, config, points) in recovered {
            if catalog.entries.contains_key(&series.raw()) {
                return Err(CoreError::CorruptIndex(format!("backend recovered {series} twice")));
            }
            // Feed the replayed points straight through the appender —
            // the same path live ingestion takes — but skip the persist
            // hooks: the backend already holds these durably.
            let mut entry = SeriesEntry {
                appender: IndexAppender::new(config),
                buffer: Vec::new(),
                current: None,
                dirty: true,
            };
            entry.appender.push_chunk(&points);
            catalog.stats.points_recovered += points.len() as u64;
            catalog.stats.series_recovered += 1;
            entry.buffer = points;
            catalog.entries.insert(series.raw(), entry);
        }
        Ok(catalog)
    }

    /// Registers an empty series with its own index configuration
    /// (window width may differ per series). The configuration is handed
    /// to the backend's durability hook before the series exists, so a
    /// restart can rebuild the appender identically. Fails on duplicate
    /// ids.
    pub fn create_series(
        &mut self,
        series: SeriesId,
        config: IndexBuildConfig,
    ) -> Result<(), CoreError> {
        if self.entries.contains_key(&series.raw()) {
            return Err(CoreError::InvalidQuery(format!("{series} already exists")));
        }
        self.backend.persist_series_config(series, &config)?;
        self.entries.insert(
            series.raw(),
            SeriesEntry {
                appender: IndexAppender::new(config),
                buffer: Vec::new(),
                current: None,
                dirty: true,
            },
        );
        Ok(())
    }

    /// Registers a series and bulk-loads its initial points through the
    /// append path (one create + append convenience).
    pub fn create_series_with(
        &mut self,
        series: SeriesId,
        config: IndexBuildConfig,
        points: &[f64],
    ) -> Result<(), CoreError> {
        self.create_series(series, config)?;
        self.append(series, points)
    }

    /// Streams live points into a series: the backend durability hook
    /// first, then rolling-mean index maintenance via the series'
    /// [`IndexAppender`]. The points are visible to the next
    /// executor/batch call. On a durability failure nothing is ingested
    /// — the catalog never serves points it could not persist, and a
    /// retried append does not double-ingest.
    pub fn append(&mut self, series: SeriesId, points: &[f64]) -> Result<(), CoreError> {
        let entry = self.entries.get_mut(&series.raw()).ok_or(CoreError::UnknownSeries(series))?;
        self.stats.append_calls += 1;
        if points.is_empty() {
            return Ok(());
        }
        let start = entry.buffer.len() as u64;
        self.backend.persist_points(series, start, points)?;
        entry.appender.push_chunk(points);
        entry.buffer.extend_from_slice(points);
        entry.dirty = true;
        self.stats.points_ingested += points.len() as u64;
        Ok(())
    }

    /// Registered series, ascending.
    pub fn series(&self) -> Vec<SeriesId> {
        self.entries.keys().map(|&raw| SeriesId::new(raw)).collect()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no series is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current length of one series (including unmaterialized appends).
    pub fn series_len(&self, series: SeriesId) -> Option<usize> {
        self.entries.get(&series.raw()).map(|e| e.buffer.len())
    }

    /// Ingestion counters.
    pub fn stats(&self) -> CatalogStats {
        self.stats
    }

    /// The backend (e.g. to reach its durability store or maintenance
    /// counters).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// True when some series has appends no published snapshot has
    /// absorbed yet.
    pub fn needs_materialize(&self) -> bool {
        self.snapshot.is_none() || self.entries.values().any(|e| e.dirty || e.current.is_none())
    }

    /// Seals the next generation of every dirty series off to the side,
    /// then publishes a fresh [`CatalogSnapshot`] with a pointer swap
    /// (no-op when nothing changed). Clean series keep their generation
    /// — and warm row cache — by pointer; dirty series carry forward the
    /// cache entries of rows the new generation left byte-identical.
    /// Superseded generations are retired once no snapshot pins them.
    pub fn materialize(&mut self) -> Result<(), CoreError> {
        if !self.needs_materialize() {
            return Ok(());
        }
        // Build aside: published state stays fully readable throughout.
        let mut fresh: Vec<(u64, Arc<SeriesGeneration<B>>)> = Vec::new();
        for (&raw, entry) in self.entries.iter() {
            if entry.current.is_some() && !entry.dirty {
                continue;
            }
            let series = SeriesId::new(raw);
            let generation = self.next_generation;
            self.next_generation += 1;
            let changed_from = entry.current.is_some().then(|| entry.appender.changed_rows_from());
            let store = Arc::new(self.backend.seal_generation(GenerationInput {
                series,
                generation,
                config: entry.appender.config(),
                series_len: entry.appender.series_len(),
                rows: entry.appender.rows(),
                changed_from,
            })?);
            let index = KvIndex::open_series(Arc::clone(&store), series)?;
            let data = self.backend.data_store(series, &entry.buffer)?;
            let cache = match (&entry.current, changed_from) {
                (Some(cur), Some(k)) => Arc::new(cur.cache.carry_forward(k)),
                _ => Arc::new(self.exec_config.new_cache()),
            };
            fresh.push((raw, Arc::new(SeriesGeneration { generation, store, index, data, cache })));
            self.stats.generations_sealed += 1;
        }
        // Publish: per-series pointer swaps, then one snapshot swap.
        for (raw, generation) in fresh {
            let entry = self.entries.get_mut(&raw).expect("just sealed");
            if let Some(old) = entry.current.replace(generation) {
                self.retired.push((SeriesId::new(raw), old));
            }
            entry.dirty = false;
            entry.appender.mark_sealed();
        }
        let snapshot = CatalogSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(&raw, e)| {
                    (raw, Arc::clone(e.current.as_ref().expect("every series sealed")))
                })
                .collect(),
            exec_config: self.exec_config,
        };
        self.snapshot = Some(Arc::new(snapshot));
        self.stats.materializations += 1;
        self.reclaim()
    }

    /// Retires every superseded generation no longer pinned by any
    /// snapshot; still-pinned ones stay queued for the next pass.
    fn reclaim(&mut self) -> Result<(), CoreError> {
        let mut keep = Vec::new();
        for (series, generation) in self.retired.drain(..) {
            // A strong count of 1 means this queue holds the only
            // reference: no snapshot (ours or a reader's pin) can reach
            // the generation, and since clones only come from snapshots,
            // none can appear later — it is provably unreachable.
            if Arc::strong_count(&generation) == 1 {
                let number = generation.generation;
                drop(generation);
                self.backend.retire_generation(series, number)?;
                self.stats.generations_retired += 1;
            } else {
                keep.push((series, generation));
            }
        }
        self.retired = keep;
        Ok(())
    }

    /// The current published snapshot — the handle readers pin. `None`
    /// before the first materialization.
    pub fn snapshot(&self) -> Option<Arc<CatalogSnapshot<B>>> {
        self.snapshot.clone()
    }

    /// The published index view of one series (None before its first
    /// materialization or for unknown ids).
    pub fn index(&self, series: SeriesId) -> Option<&KvIndex<Arc<B::Store>>> {
        self.entries.get(&series.raw()).and_then(|e| e.current.as_deref()).map(|g| g.index())
    }

    /// The published data store of one series.
    pub fn data(&self, series: SeriesId) -> Option<&B::Data> {
        self.entries.get(&series.raw()).and_then(|e| e.current.as_deref()).map(|g| g.data())
    }

    /// The physical store behind one series' published generation.
    pub fn store(&self, series: SeriesId) -> Option<&Arc<B::Store>> {
        self.entries.get(&series.raw()).and_then(|e| e.current.as_deref()).map(|g| g.store())
    }

    /// Materializes (if needed) and binds a batched executor over every
    /// series. The executor borrows the catalog, so run the batches you
    /// need, then drop it before appending again.
    pub fn executor(&mut self) -> Result<QueryExecutor<'_, Arc<B::Store>, B::Data>, CoreError> {
        self.materialize()?;
        if self.entries.is_empty() {
            return Err(CoreError::InvalidQuery("catalog has no series".into()));
        }
        QueryExecutor::multi(
            self.entries.iter().map(|(&raw, e)| {
                let generation = e.current.as_deref().expect("materialized");
                (
                    SeriesId::new(raw),
                    generation.index(),
                    generation.data(),
                    Arc::clone(generation.cache()),
                )
            }),
            self.exec_config,
        )
    }

    /// One-shot convenience: materialize, bind an executor, run `specs`.
    /// Per-generation row caches survive across calls (clean series keep
    /// their generation), so repeated calls keep sharing probe work.
    pub fn execute_batch(&mut self, specs: &[QuerySpec]) -> Result<BatchOutput, CoreError>
    where
        B::Data: Sync,
    {
        self.executor()?.execute_batch(specs)
    }

    /// Splits the catalog into `shards` independently owned catalogs for
    /// shard-per-core serving: every series entry (appender, buffer and
    /// its current sealed generation, moved by pointer — nothing is
    /// resealed) lands in the catalog `route(series)` names, so the
    /// split is bit-identical to the original. Shard 0 keeps this
    /// catalog's backend; every other shard gets a fresh
    /// [`CatalogBackend::shard_instance`]. Hands the catalog back
    /// unchanged as the `Err` arm when the backend is unshardable (or
    /// `shards` is zero). Each shard's published snapshot starts empty —
    /// materialize once (cheap: republishing moved generations seals
    /// nothing) before serving reads.
    // The `Err` arm IS the unchanged catalog — ownership must round-trip
    // on failure, so its size is the point, not an accident.
    #[allow(clippy::result_large_err)]
    pub fn split_routed(
        mut self,
        shards: usize,
        route: impl Fn(SeriesId) -> usize,
    ) -> Result<Vec<Catalog<B>>, Catalog<B>> {
        if shards == 0 {
            return Err(self);
        }
        if shards == 1 {
            self.snapshot = None;
            return Ok(vec![self]);
        }
        let mut backends = Vec::with_capacity(shards - 1);
        for _ in 1..shards {
            match self.backend.shard_instance() {
                Some(backend) => backends.push(backend),
                None => return Err(self),
            }
        }
        let mut out: Vec<Catalog<B>> = backends
            .into_iter()
            .map(|backend| {
                let mut shard = Catalog::with_exec_config(backend, self.exec_config);
                // Generation numbers stay unique within each shard's own
                // backend; continuing from the parent's counter keeps
                // them monotone across the split as well.
                shard.next_generation = self.next_generation;
                shard
            })
            .collect();
        let entries = std::mem::take(&mut self.entries);
        for (raw, entry) in entries {
            let target = route(SeriesId::new(raw)).min(shards - 1);
            match target {
                0 => drop(self.entries.insert(raw, entry)),
                t => drop(out[t - 1].entries.insert(raw, entry)),
            }
        }
        // Superseded-but-pinned generations follow the series that owns
        // them so each shard retires its own.
        for (series, generation) in std::mem::take(&mut self.retired) {
            let target = route(series).min(shards - 1);
            match target {
                0 => self.retired.push((series, generation)),
                t => out[t - 1].retired.push((series, generation)),
            }
        }
        // The pre-split snapshot spans series this catalog no longer
        // owns; drop it so every shard republishes exactly its own set.
        self.snapshot = None;
        out.insert(0, self);
        Ok(out)
    }

    /// Moves every series of `other` into this catalog — the inverse of
    /// [`Catalog::split_routed`], used when a sharded service shuts down
    /// and hands one catalog back. Generations move by pointer
    /// (bit-identical); `other`'s backend is dropped, its ingest
    /// counters are folded into this catalog's [`CatalogStats`], and the
    /// published snapshot is invalidated (the next materialization
    /// republishes the union without resealing anything). Fails on a
    /// duplicate series id before anything moves, leaving this catalog
    /// unchanged (`other` is consumed either way).
    pub fn absorb(&mut self, other: Catalog<B>) -> Result<(), CoreError> {
        if let Some(&raw) = other.entries.keys().find(|raw| self.entries.contains_key(raw)) {
            return Err(CoreError::InvalidQuery(format!(
                "cannot absorb catalog: {} exists on both sides",
                SeriesId::new(raw)
            )));
        }
        for (raw, entry) in other.entries {
            self.entries.insert(raw, entry);
        }
        self.retired.extend(other.retired);
        self.next_generation = self.next_generation.max(other.next_generation);
        self.stats.points_ingested += other.stats.points_ingested;
        self.stats.append_calls += other.stats.append_calls;
        self.stats.materializations += other.stats.materializations;
        self.stats.generations_sealed += other.stats.generations_sealed;
        self.stats.generations_retired += other.stats.generations_retired;
        self.stats.series_recovered += other.stats.series_recovered;
        self.stats.points_recovered += other.stats.points_recovered;
        self.snapshot = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::KvMatcher;
    use crate::query::QuerySpec;
    use kvmatch_timeseries::generator::composite_series;

    fn ids() -> [SeriesId; 3] {
        [SeriesId::new(1), SeriesId::new(2), SeriesId::new(7)]
    }

    fn seeded(seed: u64, n: usize) -> Vec<f64> {
        composite_series(seed, n)
    }

    #[test]
    fn catalog_serves_each_series_like_a_dedicated_matcher() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let data: Vec<Vec<f64>> = vec![seeded(1, 5_000), seeded(2, 4_000), seeded(3, 6_000)];
        for (id, xs) in ids().iter().zip(&data) {
            cat.create_series_with(*id, IndexBuildConfig::new(50), xs).unwrap();
        }
        let mut specs = Vec::new();
        for (id, xs) in ids().iter().zip(&data) {
            specs.push(QuerySpec::rsm_ed(xs[200..450].to_vec(), 9.0).with_series(*id));
            specs.push(
                QuerySpec::cnsm_dtw(xs[1000..1200].to_vec(), 2.0, 5, 1.5, 3.0).with_series(*id),
            );
        }
        let batch = cat.execute_batch(&specs).unwrap();
        for (spec, out) in specs.iter().zip(&batch.outputs) {
            let i = ids().iter().position(|id| *id == spec.series).unwrap();
            // Dedicated single-series pipeline over the same points. The
            // catalog builds through the append path, so compare against
            // an appender-built index (row boundaries differ from a
            // γ-merged bulk build, results must not).
            let mut app = IndexAppender::new(IndexBuildConfig::new(50));
            app.push_chunk(&data[i]);
            let (solo, _) =
                app.finish_into(kvmatch_storage::memory::MemoryKvStoreBuilder::new()).unwrap();
            let store = MemorySeriesStore::new(data[i].clone());
            let (want, _) = KvMatcher::new(&solo, &store).unwrap().execute(spec).unwrap();
            assert_eq!(out.results, want, "{} diverged from dedicated matcher", spec.series);
        }
        assert_eq!(batch.stats.series_touched, 3);
        assert_eq!(cat.stats().materializations, 1);
        assert_eq!(cat.stats().generations_sealed, 3);
    }

    #[test]
    fn streaming_appends_are_immediately_queryable() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(3);
        let xs = seeded(11, 6_000);
        cat.create_series(id, IndexBuildConfig::new(25)).unwrap();
        // Ingest in uneven chunks.
        let mut fed = 0usize;
        for chunk in xs.chunks(613) {
            cat.append(id, chunk).unwrap();
            fed += chunk.len();
            assert_eq!(cat.series_len(id), Some(fed));
        }
        // Query spans the whole stream, including the final chunk.
        let spec = QuerySpec::rsm_ed(xs[5_700..5_950].to_vec(), 1e-9).with_series(id);
        let batch = cat.execute_batch(std::slice::from_ref(&spec)).unwrap();
        assert!(
            batch.outputs[0].results.iter().any(|r| r.offset == 5_700),
            "self-match over freshly appended points not found"
        );
        assert_eq!(cat.stats().points_ingested, xs.len() as u64);

        // Append more; the next batch sees it without explicit rebuild.
        let more = seeded(13, 500);
        cat.append(id, &more).unwrap();
        assert!(cat.needs_materialize());
        let spec2 = QuerySpec::rsm_ed(more[100..350].to_vec(), 1e-9).with_series(id);
        let batch2 = cat.execute_batch(std::slice::from_ref(&spec2)).unwrap();
        assert!(batch2.outputs[0].results.iter().any(|r| r.offset == 6_100));
        assert_eq!(cat.stats().materializations, 2);
    }

    #[test]
    fn clean_series_caches_survive_other_series_appends() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let a = SeriesId::new(1);
        let b = SeriesId::new(2);
        let xa = seeded(21, 4_000);
        let xb = seeded(22, 4_000);
        cat.create_series_with(a, IndexBuildConfig::new(50), &xa).unwrap();
        cat.create_series_with(b, IndexBuildConfig::new(50), &xb).unwrap();
        let spec_a = QuerySpec::rsm_ed(xa[500..750].to_vec(), 6.0).with_series(a);
        cat.execute_batch(std::slice::from_ref(&spec_a)).unwrap();

        // Appending to b seals b's next generation only: a keeps its
        // generation (and warm cache) by pointer.
        let a_before = Arc::clone(cat.snapshot().unwrap().generation(a).unwrap());
        cat.append(b, &seeded(23, 300)).unwrap();
        let batch = cat.execute_batch(std::slice::from_ref(&spec_a)).unwrap();
        assert_eq!(batch.stats.store_scans, 0, "a's probes should be fully cache-served");
        assert_eq!(batch.stats.probe_cache_hits, batch.stats.probes);
        let snap = cat.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&a_before, snap.generation(a).unwrap()),
            "clean series must keep its generation by pointer"
        );
        assert_eq!(cat.stats().generations_sealed, 3, "initial a+b, then b once more");
    }

    #[test]
    fn same_series_append_carries_unsuperseded_cache_rows() {
        // Base data bounded in [0, 1]: every window mean sits low.
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(4);
        let base: Vec<f64> = (0..4_000).map(|i| (i % 100) as f64 / 100.0).collect();
        cat.create_series_with(id, IndexBuildConfig::new(50), &base).unwrap();
        let spec = QuerySpec::rsm_ed(base[500..750].to_vec(), 0.5).with_series(id);
        cat.execute_batch(std::slice::from_ref(&spec)).unwrap();

        // Appended points push every new window mean far above the old
        // rows, so the changed suffix starts past every row the earlier
        // probes touched — those cache entries must carry forward.
        let burst = vec![1_000.0; 400];
        cat.append(id, &burst).unwrap();
        let batch = cat.execute_batch(std::slice::from_ref(&spec)).unwrap();
        assert_eq!(
            batch.stats.store_scans, 0,
            "probes below the changed suffix must stay cache-served"
        );
        // And the merged answer still matches a dedicated matcher over
        // the full series.
        let mut full = base.clone();
        full.extend_from_slice(&burst);
        let mut app = IndexAppender::new(IndexBuildConfig::new(50));
        app.push_chunk(&full);
        let (solo, _) =
            app.finish_into(kvmatch_storage::memory::MemoryKvStoreBuilder::new()).unwrap();
        let store = MemorySeriesStore::new(full);
        let (want, _) = KvMatcher::new(&solo, &store).unwrap().execute(&spec).unwrap();
        assert_eq!(batch.outputs[0].results, want);
    }

    #[test]
    fn snapshots_pin_consistent_state_across_appends() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(6);
        let xs = seeded(81, 3_000);
        cat.create_series_with(id, IndexBuildConfig::new(25), &xs).unwrap();
        cat.materialize().unwrap();
        let pinned = cat.snapshot().unwrap();
        let spec = QuerySpec::rsm_ed(xs[100..300].to_vec(), 3.0).with_series(id);
        let before =
            pinned.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0].results.clone();

        // Ingest + publish a new generation; the pinned snapshot must
        // keep serving exactly the state it pinned.
        let more = seeded(82, 800);
        cat.append(id, &more).unwrap();
        cat.materialize().unwrap();
        let again =
            pinned.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0].results.clone();
        assert_eq!(before, again, "pinned snapshot drifted after a publish");

        // The new snapshot sees the appended points.
        let tail = QuerySpec::rsm_ed(more[200..500].to_vec(), 1e-9).with_series(id);
        let fresh = cat.snapshot().unwrap();
        assert!(fresh.execute_batch(std::slice::from_ref(&tail)).unwrap().outputs[0]
            .results
            .iter()
            .any(|r| r.offset == 3_200));
        // ... while the pinned one, over shorter data, must not.
        assert!(!pinned.execute_batch(std::slice::from_ref(&tail)).unwrap().outputs[0]
            .results
            .iter()
            .any(|r| r.offset == 3_200));

        // The superseded generation is retired only once unpinned.
        assert_eq!(cat.stats().generations_retired, 0);
        drop(pinned);
        drop(before);
        cat.append(id, &seeded(83, 100)).unwrap();
        cat.materialize().unwrap();
        assert!(cat.stats().generations_retired >= 1, "unpinned generations must retire");
    }

    /// The tentpole equivalence guarantee: interleaved appends +
    /// incremental (delta-tracked) materializations answer queries
    /// bit-identically to a catalog built in one shot over the final
    /// data.
    #[test]
    fn generational_materialize_matches_full_rebuild() {
        let a = SeriesId::new(1);
        let b = SeriesId::new(2);
        let xa = seeded(91, 3_000);
        let xb = seeded(92, 2_500);

        let mut incremental = Catalog::new(MemoryCatalogBackend);
        incremental.create_series(a, IndexBuildConfig::new(40)).unwrap();
        incremental.create_series(b, IndexBuildConfig::new(40)).unwrap();
        // Interleave uneven chunks with materializations so delta
        // tracking, carry-forward and generation reuse all engage.
        for (i, chunk) in xa.chunks(700).enumerate() {
            incremental.append(a, chunk).unwrap();
            if i % 2 == 0 {
                incremental.materialize().unwrap();
            }
        }
        for chunk in xb.chunks(450) {
            incremental.append(b, chunk).unwrap();
            incremental.materialize().unwrap();
        }
        incremental.materialize().unwrap();

        let mut oneshot = Catalog::new(MemoryCatalogBackend);
        oneshot.create_series_with(a, IndexBuildConfig::new(40), &xa).unwrap();
        oneshot.create_series_with(b, IndexBuildConfig::new(40), &xb).unwrap();

        let specs = vec![
            QuerySpec::rsm_ed(xa[200..420].to_vec(), 8.0).with_series(a),
            QuerySpec::rsm_dtw(xa[2_600..2_800].to_vec(), 4.0, 6).with_series(a),
            QuerySpec::cnsm_ed(xb[900..1_100].to_vec(), 2.0, 1.5, 3.0).with_series(b),
            QuerySpec::rsm_ed(xb[2_300..2_480].to_vec(), 1e-9).with_series(b),
        ];
        let from_incremental = incremental.execute_batch(&specs).unwrap();
        let from_oneshot = oneshot.execute_batch(&specs).unwrap();
        for (x, y) in from_incremental.outputs.iter().zip(&from_oneshot.outputs) {
            assert_eq!(x.results, y.results, "generational answer diverged from full rebuild");
        }
        assert!(incremental.stats().generations_sealed > 2);
    }

    #[test]
    fn unknown_and_duplicate_series_rejected() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(1);
        cat.create_series(id, IndexBuildConfig::new(25)).unwrap();
        assert!(cat.create_series(id, IndexBuildConfig::new(25)).is_err());
        assert!(matches!(cat.append(SeriesId::new(2), &[1.0]), Err(CoreError::UnknownSeries(_))));
        // Batch routed at an unregistered series fails up front.
        cat.append(id, &seeded(41, 500)).unwrap();
        let stray = QuerySpec::rsm_ed(vec![0.0; 30], 1.0).with_series(SeriesId::new(99));
        assert!(matches!(
            cat.execute_batch(std::slice::from_ref(&stray)),
            Err(CoreError::UnknownSeries(_))
        ));
        // Empty catalogs cannot build executors.
        let mut empty = Catalog::new(MemoryCatalogBackend);
        assert!(empty.executor().is_err());
        assert!(empty.is_empty());
    }

    /// Readers share one pinned snapshot: concurrent batches through
    /// [`ReadView`] agree with the exclusive-borrow path.
    #[test]
    fn concurrent_snapshot_readers_get_the_exclusive_path_answer() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(1);
        let xs = seeded(71, 4_000);
        cat.create_series_with(id, IndexBuildConfig::new(50), &xs).unwrap();
        let spec = QuerySpec::rsm_ed(xs[300..550].to_vec(), 7.0).with_series(id);
        let want =
            cat.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0].results.clone();
        let snapshot = cat.snapshot().unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let batch = through_read_view(&*snapshot, std::slice::from_ref(&spec));
                    assert_eq!(batch.outputs[0].results, want);
                });
            }
        });
    }

    #[test]
    fn empty_appends_do_not_dirty_or_ingest() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let id = SeriesId::new(5);
        cat.create_series_with(id, IndexBuildConfig::new(25), &seeded(51, 1_000)).unwrap();
        cat.materialize().unwrap();
        assert!(!cat.needs_materialize());
        cat.append(id, &[]).unwrap();
        assert!(!cat.needs_materialize(), "empty append must not force a rebuild");
        let stats = cat.stats();
        assert_eq!(stats.points_ingested, 1_000);
        assert_eq!(stats.append_calls, 2);
    }

    #[test]
    fn per_series_windows_may_differ() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let a = SeriesId::new(1);
        let b = SeriesId::new(2);
        let xa = seeded(61, 3_000);
        let xb = seeded(62, 3_000);
        cat.create_series_with(a, IndexBuildConfig::new(25), &xa).unwrap();
        cat.create_series_with(b, IndexBuildConfig::new(100), &xb).unwrap();
        cat.materialize().unwrap();
        assert_eq!(cat.index(a).unwrap().window(), 25);
        assert_eq!(cat.index(b).unwrap().window(), 100);
        // A query long enough for a but not b fails only when routed at b.
        let q = xa[100..150].to_vec();
        assert!(cat.execute_batch(&[QuerySpec::rsm_ed(q.clone(), 5.0).with_series(a)]).is_ok());
        assert!(matches!(
            cat.execute_batch(&[QuerySpec::rsm_ed(q, 5.0).with_series(b)]),
            Err(CoreError::QueryTooShort { window: 100, .. })
        ));
    }

    /// Runs a batch through any [`ReadView`] — the generic read path the
    /// serving layer's shard handles share with plain snapshots.
    fn through_read_view<V: ReadView>(view: &V, specs: &[QuerySpec]) -> BatchOutput {
        view.execute(specs).unwrap()
    }

    #[test]
    fn split_shards_serve_bit_identically_and_absorb_restores_the_union() {
        let mut cat = Catalog::new(MemoryCatalogBackend);
        let raws = [1u64, 2, 3, 6, 11];
        let mut specs = Vec::new();
        for (i, &raw) in raws.iter().enumerate() {
            let xs = seeded(80 + i as u64, 3_000 + 500 * i);
            cat.create_series_with(SeriesId::new(raw), IndexBuildConfig::new(50), &xs).unwrap();
            specs.push(
                QuerySpec::rsm_ed(xs[120..320].to_vec(), 9.0).with_series(SeriesId::new(raw)),
            );
        }
        let want = cat.execute_batch(&specs).unwrap();
        let ingested = cat.stats().points_ingested;

        let route = |id: SeriesId| (id.raw() % 4) as usize;
        let shards = match cat.split_routed(4, route) {
            Ok(shards) => shards,
            Err(_) => panic!("memory backend is shardable"),
        };
        assert_eq!(shards.len(), 4);
        let mut merged = None;
        for (idx, mut shard) in shards.into_iter().enumerate() {
            // Republishing moved generations seals nothing new.
            let sealed_before = shard.stats().generations_sealed;
            shard.materialize().unwrap();
            assert_eq!(shard.stats().generations_sealed, sealed_before);
            let snap = shard.snapshot().unwrap();
            let owned: Vec<u64> =
                raws.iter().copied().filter(|&raw| route(SeriesId::new(raw)) == idx).collect();
            assert_eq!(snap.view_series().iter().map(|s| s.raw()).collect::<Vec<_>>(), owned);
            // Each shard answers its own series bit-identically to the
            // pre-split catalog, through the ReadView trait.
            for (&raw, (spec, want)) in raws.iter().zip(specs.iter().zip(&want.outputs)) {
                assert_eq!(snap.contains_series(SeriesId::new(raw)), owned.contains(&raw));
                if owned.contains(&raw) {
                    let out = through_read_view(&*snap, std::slice::from_ref(spec));
                    assert_eq!(out.outputs[0].results, want.results);
                }
            }
            match &mut merged {
                None => merged = Some(shard),
                Some(base) => base.absorb(shard).unwrap(),
            }
        }
        let mut merged = merged.unwrap();
        assert_eq!(merged.len(), raws.len());
        assert_eq!(merged.stats().points_ingested, ingested);
        assert_eq!(merged.execute_batch(&specs).unwrap().outputs.len(), want.outputs.len());
        for (got, want) in merged.execute_batch(&specs).unwrap().outputs.iter().zip(&want.outputs) {
            assert_eq!(got.results, want.results);
        }
    }

    #[test]
    fn absorb_refuses_duplicate_series() {
        let mut a = Catalog::new(MemoryCatalogBackend);
        let mut b = Catalog::new(MemoryCatalogBackend);
        a.create_series_with(SeriesId::new(7), IndexBuildConfig::new(25), &seeded(1, 500)).unwrap();
        b.create_series_with(SeriesId::new(7), IndexBuildConfig::new(25), &seeded(2, 500)).unwrap();
        assert!(a.absorb(b).is_err());
        assert_eq!(a.len(), 1, "failed absorb leaves the receiver unchanged");
    }

    #[test]
    fn split_hands_back_unshardable_catalogs_intact() {
        /// A memory backend that *declines* shard scale-out — the shape
        /// of backends owning exclusive durable state.
        struct Unshardable(MemoryCatalogBackend);
        impl CatalogBackend for Unshardable {
            type Store = MemoryKvStore;
            type Data = MemorySeriesStore;
            fn seal_generation(
                &mut self,
                input: GenerationInput<'_>,
            ) -> Result<Self::Store, CoreError> {
                self.0.seal_generation(input)
            }
            fn data_store(
                &mut self,
                series: SeriesId,
                xs: &[f64],
            ) -> Result<Self::Data, CoreError> {
                self.0.data_store(series, xs)
            }
        }

        let mut cat = Catalog::new(Unshardable(MemoryCatalogBackend));
        cat.create_series_with(SeriesId::new(3), IndexBuildConfig::new(25), &seeded(9, 800))
            .unwrap();
        let cat = match cat.split_routed(4, |id| (id.raw() % 4) as usize) {
            Err(cat) => cat,
            Ok(_) => panic!("an unshardable backend must refuse the split"),
        };
        assert_eq!(cat.len(), 1, "refused split hands the catalog back intact");
        // shards = 0 is refused regardless of the backend.
        assert!(Catalog::new(MemoryCatalogBackend).split_routed(0, |_| 0).is_err());
    }
}
