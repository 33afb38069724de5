//! LSM-backed [`CatalogBackend`]: durable multi-series serving through
//! per-series sorted runs with size-tiered compaction.
//!
//! Layout under one root directory:
//!
//! * `points/` — an [`LsmDb`] receiving every appended chunk through the
//!   catalog's durability hook. Each chunk is one WAL-logged `put` keyed
//!   `series.encode() ++ start_offset.to_be()`, so ingested points
//!   survive a crash *before* the next index materialization and can be
//!   replayed with [`LsmCatalogBackend::recover_points`].
//! * `series-<id>/` — one directory of immutable index runs per series.
//!   Sealing a generation writes **one** run: the full row set for a
//!   first build, or just the changed suffix (plus the always-rewritten
//!   meta row) for an incremental build — the newest-wins
//!   [`merge`](crate::merge) across the generation's run list
//!   reconstructs the complete index at read time
//!   ([`SeriesRunStore`]). A size-tiered schedule
//!   ([`plan_compaction`]) folds contiguous same-tier runs so read
//!   fan-in stays bounded. The backend tracks every *live* generation's
//!   run list in memory; retirement deletes exactly the run files no
//!   live generation references.
//! * `series.conf` — one line per registered series recording its index
//!   configuration (float fields as exact bit patterns), rewritten
//!   atomically on every
//!   [`Catalog::create_series`](kvmatch_core::Catalog::create_series).
//!   Together with `points/` it makes restart fully automatic:
//!   [`Catalog::open`](kvmatch_core::Catalog::open) replays every series
//!   through [`CatalogBackend::recover_series`] with the caller doing
//!   nothing.
//!
//! ## Crash safety
//!
//! Index runs are *derived* data: every row is rebuildable from the
//! `points/` WAL. [`LsmCatalogBackend::open`] therefore wipes `series-*`
//! (and legacy `index-*`) directories wholesale — a crash in any window
//! of the seal → retire sequence (stray sealed run, superseded runs that
//! were about to be retired) recovers to the same state as a clean
//! shutdown: the next materialization rebuilds from replayed points,
//! bit-identical to an in-order rebuild. Directories left by earlier
//! layouts may still hold a `RUNS` manifest file; the wipe removes it
//! with the rest, and nothing writes one any more.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};

use kvmatch_core::catalog::{BackendMaintenanceStats, CatalogBackend, GenerationInput};
use kvmatch_core::{CoreError, IndexBuildConfig, KvIndex};
use kvmatch_storage::{IoStats, MemorySeriesStore, SeriesId, StorageError};

use crate::db::{LsmDb, LsmOptions};
use crate::merge::{drop_tombstones, merge_runs};
use crate::runs::{plan_compaction, RunMeta, SeriesRunBuilder, SeriesRunStore};
use crate::sstable::{TableBuilder, TableReader};

/// File recording every registered series' index configuration.
const SERIES_CONF: &str = "series.conf";

/// Runs sharing a size tier fold once this many sit adjacent.
const DEFAULT_COMPACTION_FANOUT: usize = 4;

/// Live run-list state of one series.
struct SeriesRunState {
    dir: PathBuf,
    next_run: u64,
    /// The latest sealed generation's runs, newest first.
    current: Vec<RunMeta>,
    /// Every live (not yet retired) generation's run names, newest first.
    generations: BTreeMap<u64, Vec<String>>,
}

impl SeriesRunState {
    fn new(dir: PathBuf) -> Self {
        Self { dir, next_run: 0, current: Vec::new(), generations: BTreeMap::new() }
    }

    fn run_name(&mut self) -> String {
        let name = format!("run-{:06}.sst", self.next_run);
        self.next_run += 1;
        name
    }

    /// Folds `runs[span]` into one run file. The replaced files are NOT
    /// deleted — older live generations may still reference them;
    /// retirement reclaims them once nothing does.
    fn fold(
        &mut self,
        runs: &mut Vec<RunMeta>,
        span: std::ops::Range<usize>,
        opts: &LsmOptions,
    ) -> Result<(), StorageError> {
        let inputs = runs[span.clone()]
            .iter()
            .map(|r| TableReader::open(&self.dir.join(&r.name), IoStats::new())?.scan_all())
            .collect::<Result<Vec<_>, _>>()?;
        // Span order == newest-first priority, so the merge keeps exactly
        // the rows the unfolded list would serve.
        let merged = drop_tombstones(merge_runs(inputs));
        let name = self.run_name();
        let mut table =
            TableBuilder::create(&self.dir.join(&name), opts.block_bytes, opts.bloom_bits_per_key)?;
        for entry in &merged {
            table.add(&entry.key, entry.value.as_deref())?;
        }
        let meta = table.finish()?;
        runs.splice(span, [RunMeta { name, entries: meta.entries, bytes: meta.file_bytes }]);
        Ok(())
    }
}

/// Catalog substrate over the LSM engine. See the module docs.
pub struct LsmCatalogBackend {
    root: PathBuf,
    opts: LsmOptions,
    points: LsmDb,
    configs: BTreeMap<u64, IndexBuildConfig>,
    series_state: BTreeMap<u64, SeriesRunState>,
    maintenance: BackendMaintenanceStats,
    compaction_fanout: usize,
}

impl LsmCatalogBackend {
    /// Opens (or creates) the backend under `root`. Reopening an existing
    /// root recovers the `points/` WAL and the series-configuration
    /// manifest; index runs are derived data and are wiped (see the
    /// module docs on crash safety), so every crash window recovers to
    /// the state a clean rebuild from points produces.
    pub fn open(root: &Path, opts: LsmOptions) -> Result<Self, StorageError> {
        std::fs::create_dir_all(root)?;
        let points = LsmDb::open(&root.join("points"), opts)?;
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            // `series-<id>` run directories plus legacy whole-store
            // `index-<generation>` directories from earlier layouts.
            if (name.starts_with("series-") || name.starts_with("index-"))
                && entry.file_type()?.is_dir()
            {
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        let configs = read_series_configs(&root.join(SERIES_CONF))?;
        Ok(Self {
            root: root.to_path_buf(),
            opts,
            points,
            configs,
            series_state: BTreeMap::new(),
            maintenance: BackendMaintenanceStats::default(),
            compaction_fanout: DEFAULT_COMPACTION_FANOUT,
        })
    }

    /// Overrides how many adjacent same-tier runs trigger a fold
    /// (clamped to ≥ 2; default 4). Lower values compact more eagerly.
    pub fn set_compaction_fanout(&mut self, fanout: usize) {
        self.compaction_fanout = fanout.max(2);
    }

    /// The registered series and their index configurations (ascending).
    pub fn series_configs(&self) -> impl Iterator<Item = (SeriesId, &IndexBuildConfig)> {
        self.configs.iter().map(|(&raw, c)| (SeriesId::new(raw), c))
    }

    /// Atomically and durably rewrites `series.conf`: write-to-temp,
    /// fsync the temp file, rename, fsync the directory — so a crash at
    /// any point leaves either the previous manifest or the new one, and
    /// a manifest entry is never *less* durable than the points WAL it
    /// describes, even when that WAL is fsynced (`LsmOptions::sync_wal`;
    /// otherwise a power loss could strand durable points behind a
    /// missing series registration).
    fn write_series_configs(&self) -> Result<(), StorageError> {
        use std::io::Write;
        let mut out = String::new();
        for (raw, c) in &self.configs {
            out.push_str(&format!(
                "series={raw} window={} width_d={:016x} gamma={:016x} max_merge={}\n",
                c.window,
                c.width_d.to_bits(),
                c.merge_gamma.to_bits(),
                c.max_merge_buckets
            ));
        }
        let tmp = self.root.join(format!("{SERIES_CONF}.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.root.join(SERIES_CONF))?;
        // Persist the rename itself (directory metadata).
        std::fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }

    /// The durability store receiving appended chunks.
    pub fn points_db(&self) -> &LsmDb {
        &self.points
    }

    /// The directory holding one series' index runs.
    pub fn series_dir(&self, series: SeriesId) -> PathBuf {
        self.root.join(format!("series-{}", series.raw()))
    }

    /// Live (unretired) generation numbers of one series, ascending.
    pub fn live_generations(&self, series: SeriesId) -> Vec<u64> {
        self.series_state
            .get(&series.raw())
            .map(|s| s.generations.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Run count of the latest sealed generation of one series.
    pub fn current_run_count(&self, series: SeriesId) -> usize {
        self.series_state.get(&series.raw()).map_or(0, |s| s.current.len())
    }

    /// Run files currently on disk for one series, sorted by name.
    pub fn run_files_on_disk(&self, series: SeriesId) -> Result<Vec<String>, StorageError> {
        let dir = self.series_dir(series);
        let mut out = Vec::new();
        if !dir.exists() {
            return Ok(out);
        }
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if let Some(name) = name.to_str() {
                if name.starts_with("run-") && name.ends_with(".sst") {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Replays one series' WAL-durable points, in offset order — the
    /// recovery path a restarted catalog uses to rebuild its appenders.
    ///
    /// Chunk keys carry their start offset, and a recovered catalog may
    /// re-ingest the same points with *different* chunk boundaries, so
    /// chunks from an earlier life can overlap later ones. Series are
    /// append-only, so any two chunks agree wherever they overlap;
    /// splicing each chunk in at its offset (scan order is offset
    /// order) reconstructs the series regardless of chunking. Only a
    /// genuine gap — a chunk starting past the points recovered so far
    /// — is corruption.
    pub fn recover_points(&self, series: SeriesId) -> Result<Vec<f64>, StorageError> {
        let start = series.key(&[]);
        let mut out: Vec<f64> = Vec::new();
        for (key, value) in self.points.scan(&start, &series.range_end())? {
            if key.len() != 16 {
                return Err(StorageError::Corrupt(format!(
                    "points row key has {} bytes, expected 16",
                    key.len()
                )));
            }
            if value.len() % 8 != 0 {
                return Err(StorageError::Corrupt("points row not a multiple of 8 bytes".into()));
            }
            let offset = u64::from_be_bytes(key[8..16].try_into().expect("8 bytes")) as usize;
            if offset > out.len() {
                return Err(StorageError::Corrupt(format!(
                    "points chunk at offset {offset} leaves a gap after {}",
                    out.len()
                )));
            }
            out.truncate(offset);
            for chunk in value.chunks_exact(8) {
                out.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
        }
        Ok(out)
    }
}

/// Parses `series.conf`. A missing file is an empty manifest; a
/// malformed line is corruption (the manifest is always written whole).
fn read_series_configs(path: &Path) -> Result<BTreeMap<u64, IndexBuildConfig>, StorageError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |line: &str| StorageError::Corrupt(format!("bad series.conf line: {line:?}"));
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = BTreeMap::new();
        for part in line.split_whitespace() {
            let (key, value) = part.split_once('=').ok_or_else(|| corrupt(line))?;
            fields.insert(key.to_string(), value.to_string());
        }
        let take = |k: &str| fields.get(k).cloned().ok_or_else(|| corrupt(line));
        let series: u64 = take("series")?.parse().map_err(|_| corrupt(line))?;
        let window: usize = take("window")?.parse().map_err(|_| corrupt(line))?;
        let width_bits = u64::from_str_radix(&take("width_d")?, 16).map_err(|_| corrupt(line))?;
        let gamma_bits = u64::from_str_radix(&take("gamma")?, 16).map_err(|_| corrupt(line))?;
        let max_merge: usize = take("max_merge")?.parse().map_err(|_| corrupt(line))?;
        let config = IndexBuildConfig {
            window,
            width_d: f64::from_bits(width_bits),
            merge_gamma: f64::from_bits(gamma_bits),
            max_merge_buckets: max_merge,
        };
        if out.insert(series, config).is_some() {
            return Err(StorageError::Corrupt(format!("duplicate series {series} in manifest")));
        }
    }
    Ok(out)
}

impl CatalogBackend for LsmCatalogBackend {
    type Store = SeriesRunStore;
    type Data = MemorySeriesStore;

    fn seal_generation(&mut self, input: GenerationInput<'_>) -> Result<Self::Store, CoreError> {
        let dir = self.root.join(format!("series-{}", input.series.raw()));
        let state =
            self.series_state.entry(input.series.raw()).or_insert_with(|| SeriesRunState::new(dir));
        std::fs::create_dir_all(&state.dir).map_err(StorageError::from)?;

        // Delta-seal only when a previous run list exists to shadow.
        let delta_from = input.changed_from.filter(|_| !state.current.is_empty());

        // 1. Seal the new run: full rows, or just the changed suffix
        //    (the meta row always rewrites — series_len changed).
        let name = state.run_name();
        let mut builder = SeriesRunBuilder::create(
            &state.dir.join(&name),
            self.opts.block_bytes,
            self.opts.bloom_bits_per_key,
        )?;
        match delta_from {
            Some(from) => {
                KvIndex::<SeriesRunStore>::append_series_rows_from(
                    &mut builder,
                    input.series,
                    input.rows,
                    from,
                    input.config,
                    input.series_len,
                )?;
                self.maintenance.delta_runs_sealed += 1;
            }
            None => {
                KvIndex::<SeriesRunStore>::append_series_rows(
                    &mut builder,
                    input.series,
                    input.rows,
                    input.config,
                    input.series_len,
                )?;
            }
        }
        let table = builder.finish_run()?;
        self.maintenance.runs_sealed += 1;

        // 2. The generation's run list: a delta shadows the previous
        //    list; a full run replaces it outright.
        let mut runs = vec![RunMeta { name, entries: table.entries, bytes: table.file_bytes }];
        if delta_from.is_some() {
            runs.extend(state.current.iter().cloned());
        }

        // 3. Size-tiered folds: while some tier has `fanout` adjacent
        //    runs, merge them into one (each fold shrinks the list, so
        //    this terminates).
        loop {
            let sizes: Vec<u64> = runs.iter().map(|r| r.bytes).collect();
            let Some(span) = plan_compaction(&sizes, self.compaction_fanout) else { break };
            state.fold(&mut runs, span, &self.opts)?;
            self.maintenance.compactions += 1;
        }

        // 4. Record the generation.
        state.current = runs.clone();
        state.generations.insert(input.generation, runs.iter().map(|r| r.name.clone()).collect());

        let paths: Vec<PathBuf> = runs.iter().map(|r| state.dir.join(&r.name)).collect();
        // Live rows of the sealed generation: every index row + meta.
        Ok(SeriesRunStore::open(&paths, input.rows.len() + 1)?)
    }

    fn retire_generation(&mut self, series: SeriesId, generation: u64) -> Result<(), CoreError> {
        let Some(state) = self.series_state.get_mut(&series.raw()) else {
            return Ok(());
        };
        if state.generations.remove(&generation).is_none() {
            return Ok(());
        }
        // Delete exactly the run files no live generation references
        // (this also sweeps crash leftovers of interrupted folds).
        let referenced: HashSet<&String> = state.generations.values().flatten().collect();
        for entry in std::fs::read_dir(&state.dir).map_err(StorageError::from)? {
            let entry = entry.map_err(StorageError::from)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("run-")
                && name.ends_with(".sst")
                && !referenced.contains(&name.to_string())
            {
                std::fs::remove_file(entry.path()).map_err(StorageError::from)?;
            }
        }
        self.maintenance.generations_retired += 1;
        Ok(())
    }

    fn maintenance_stats(&self) -> BackendMaintenanceStats {
        self.maintenance
    }

    fn data_store(&mut self, _series: SeriesId, xs: &[f64]) -> Result<Self::Data, CoreError> {
        Ok(MemorySeriesStore::new(xs.to_vec()))
    }

    fn persist_points(
        &mut self,
        series: SeriesId,
        start: u64,
        points: &[f64],
    ) -> Result<(), CoreError> {
        let key = series.key(&start.to_be_bytes());
        let mut value = Vec::with_capacity(points.len() * 8);
        for &v in points {
            value.extend_from_slice(&v.to_le_bytes());
        }
        self.points.put(&key, &value).map_err(CoreError::from)
    }

    fn persist_series_config(
        &mut self,
        series: SeriesId,
        config: &IndexBuildConfig,
    ) -> Result<(), CoreError> {
        let previous = self.configs.insert(series.raw(), *config);
        if let Err(e) = self.write_series_configs() {
            // Roll the in-memory manifest back: a failed create_series
            // must not leave a phantom entry that the next successful
            // rewrite would durably persist.
            match previous {
                Some(prev) => self.configs.insert(series.raw(), prev),
                None => self.configs.remove(&series.raw()),
            };
            return Err(e.into());
        }
        Ok(())
    }

    fn recover_series(&mut self) -> Result<Vec<(SeriesId, IndexBuildConfig, Vec<f64>)>, CoreError> {
        // Refuse to silently drop WAL points whose series has no
        // manifest entry (e.g. a root written before series.conf
        // existed, or a torn manifest). Dropping them would let the
        // operator re-create the series and append from offset 0 over
        // surviving stale chunks — the next recovery would then splice
        // old and new data into one corrupt series with no error.
        let full_start: Vec<u8> = Vec::new();
        let full_end = vec![0xFF; 17]; // longer than any 16-byte point key
        for (key, _) in self.points.scan(&full_start, &full_end)? {
            if key.len() >= 8 {
                let raw = u64::from_be_bytes(key[0..8].try_into().expect("8 bytes"));
                if !self.configs.contains_key(&raw) {
                    return Err(CoreError::CorruptIndex(format!(
                        "points store holds data for series {raw} but series.conf has no \
                         entry for it — refusing to recover (re-register the series in the \
                         manifest or remove its points before opening)"
                    )));
                }
            }
        }
        let mut out = Vec::with_capacity(self.configs.len());
        for (&raw, config) in &self.configs {
            let series = SeriesId::new(raw);
            let points = self.recover_points(series)?;
            out.push((series, *config, points));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvmatch_core::catalog::Catalog;
    use kvmatch_core::{IndexBuildConfig, MemoryCatalogBackend, QuerySpec};
    use kvmatch_storage::KvStore;

    fn wave(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.03;
                (t + seed as f64).sin() * 2.0 + (t * 0.37).cos() * (seed as f64 % 5.0 + 1.0)
            })
            .collect()
    }

    #[test]
    fn lsm_catalog_appends_are_durable_and_queryable() {
        let dir = tempfile::tempdir().unwrap();
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let mut cat = Catalog::new(backend);
        let a = SeriesId::new(1);
        let b = SeriesId::new(6);
        let xa = wave(1, 3_000);
        let xb = wave(2, 2_000);
        cat.create_series(a, IndexBuildConfig::new(50)).unwrap();
        cat.create_series(b, IndexBuildConfig::new(40)).unwrap();
        for chunk in xa.chunks(700) {
            cat.append(a, chunk).unwrap();
        }
        cat.append(b, &xb).unwrap();

        // Queries over the ingested points answer through per-series
        // run stores.
        let specs = vec![
            QuerySpec::rsm_ed(xa[800..1_050].to_vec(), 1e-9).with_series(a),
            QuerySpec::rsm_ed(xb[300..550].to_vec(), 1e-9).with_series(b),
        ];
        let batch = cat.execute_batch(&specs).unwrap();
        assert!(batch.outputs[0].results.iter().any(|r| r.offset == 800));
        assert!(batch.outputs[1].results.iter().any(|r| r.offset == 300));
        assert!(cat.store(a).unwrap().row_count() > 0);
        assert!(cat.store(b).unwrap().row_count() > 0);

        // Durability: every appended point is recoverable from the
        // points WAL/memtable path, even before any flush.
        let back = cat.backend();
        assert_eq!(back.recover_points(a).unwrap(), xa);
        assert_eq!(back.recover_points(b).unwrap(), xb);
        assert_eq!(back.recover_points(SeriesId::new(3)).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn reopened_backend_replays_points() {
        let dir = tempfile::tempdir().unwrap();
        let xs = wave(7, 1_500);
        let id = SeriesId::new(2);
        {
            let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
            let mut cat = Catalog::new(backend);
            cat.create_series(id, IndexBuildConfig::new(25)).unwrap();
            for chunk in xs.chunks(333) {
                cat.append(id, chunk).unwrap();
            }
            // Drop without materializing: only the WAL path persisted.
        }
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let recovered = backend.recover_points(id).unwrap();
        assert_eq!(recovered, xs, "points must survive process restart");

        // A restarted catalog rebuilt from the recovered points answers
        // queries over them.
        let mut cat = Catalog::new(backend);
        cat.create_series_with(id, IndexBuildConfig::new(25), &recovered).unwrap();
        let spec = QuerySpec::rsm_ed(xs[900..1_100].to_vec(), 1e-9).with_series(id);
        let batch = cat.execute_batch(std::slice::from_ref(&spec)).unwrap();
        assert!(batch.outputs[0].results.iter().any(|r| r.offset == 900));

        // Second life appended more points with different chunk
        // boundaries than the first (one big re-ingest chunk overlapping
        // the old 333-point chunks, then fresh data)...
        let more = wave(8, 400);
        cat.append(id, &more).unwrap();
        drop(cat);

        // ...and a THIRD life must still recover the full series: the
        // splice logic reconciles overlapping chunk keys from both
        // earlier lives instead of reporting corruption.
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let full: Vec<f64> = xs.iter().chain(&more).copied().collect();
        assert_eq!(
            backend.recover_points(id).unwrap(),
            full,
            "recovery must survive a recover-and-reingest cycle"
        );
    }

    /// The ROADMAP follow-up: a restarted catalog replays its series
    /// automatically — `Catalog::open` over an existing root brings back
    /// every id, configuration and point without the caller touching
    /// `recover_points`.
    #[test]
    fn restarted_catalog_recovers_automatically() {
        let dir = tempfile::tempdir().unwrap();
        let a = SeriesId::new(3);
        let b = SeriesId::new(8);
        let xa = wave(11, 2_400);
        let xb = wave(12, 1_800);
        let cfg_a = IndexBuildConfig::new(50);
        let cfg_b = IndexBuildConfig::new(30).with_width(0.25).with_gamma(0.7);
        {
            let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
            let mut cat = Catalog::open(backend).unwrap();
            assert!(cat.is_empty(), "fresh root recovers nothing");
            cat.create_series(a, cfg_a).unwrap();
            cat.create_series(b, cfg_b).unwrap();
            for chunk in xa.chunks(700) {
                cat.append(a, chunk).unwrap();
            }
            cat.append(b, &xb).unwrap();
            // Drop without materializing: only WAL + manifest persist.
        }

        // Second life: everything is back without manual replay.
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let mut cat = Catalog::open(backend).unwrap();
        assert_eq!(cat.series(), vec![a, b]);
        assert_eq!(cat.series_len(a), Some(xa.len()));
        assert_eq!(cat.series_len(b), Some(xb.len()));
        assert_eq!(cat.stats().series_recovered, 2);
        assert_eq!(cat.stats().points_recovered, (xa.len() + xb.len()) as u64);
        assert_eq!(cat.stats().points_ingested, 0, "recovery is not re-ingestion");
        cat.materialize().unwrap();
        // Per-series configurations survive exactly (bit-level floats).
        assert_eq!(cat.index(a).unwrap().window(), 50);
        assert_eq!(cat.index(b).unwrap().window(), 30);

        // Queries over the recovered catalog are bit-identical to a
        // dedicated appender-built matcher over the original points.
        let specs = vec![
            QuerySpec::rsm_ed(xa[900..1_150].to_vec(), 4.0).with_series(a),
            QuerySpec::rsm_ed(xb[200..420].to_vec(), 1e-9).with_series(b).top_k(2),
        ];
        let batch = cat.execute_batch(&specs).unwrap();
        for (spec, out, (xs, cfg)) in [
            (&specs[0], &batch.outputs[0], (&xa, cfg_a)),
            (&specs[1], &batch.outputs[1], (&xb, cfg_b)),
        ]
        .map(|(s, o, d)| (s, o, d))
        {
            let mut app = kvmatch_core::IndexAppender::new(cfg);
            app.push_chunk(xs);
            let (solo, _) =
                app.finish_into(kvmatch_storage::memory::MemoryKvStoreBuilder::new()).unwrap();
            let store = kvmatch_storage::MemorySeriesStore::new(xs.to_vec());
            let (want, _) =
                kvmatch_core::KvMatcher::new(&solo, &store).unwrap().execute(spec).unwrap();
            assert_eq!(&out.results, &want, "recovered catalog diverged for {}", spec.series);
        }

        // Third life: appends from the second life survive too.
        let more = wave(13, 500);
        cat.append(a, &more).unwrap();
        drop(cat);
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let cat = Catalog::open(backend).unwrap();
        assert_eq!(cat.series_len(a), Some(xa.len() + more.len()));
    }

    /// Crash/restart mid-compaction. A process can die in any window of
    /// the seal → retire sequence; whichever leftovers it strands (a
    /// freshly sealed run no live generation names, superseded runs that
    /// were about to be retired), recovery must serve answers
    /// bit-identical to an in-order rebuild over the same points.
    #[test]
    fn recovery_is_bit_identical_across_mid_compaction_crash_points() {
        let id = SeriesId::new(5);
        let chunks: Vec<Vec<f64>> = vec![wave(21, 900), wave(22, 700), wave(23, 500)];
        let full: Vec<f64> = chunks.iter().flatten().copied().collect();
        let spec = QuerySpec::rsm_ed(full[400..650].to_vec(), 3.0).with_series(id);

        // In-order rebuild reference: the same appends, volatile backend.
        let mut reference = Catalog::new(MemoryCatalogBackend);
        reference.create_series(id, IndexBuildConfig::new(25)).unwrap();
        for chunk in &chunks {
            reference.append(id, chunk).unwrap();
        }
        let want = reference.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0]
            .results
            .clone();

        // `sabotage(dir)` plants one crash window's leftovers after a
        // life of interleaved appends + materializations.
        type Sabotage = Box<dyn Fn(&Path)>;
        let scenarios: Vec<(&str, Sabotage)> = vec![
            (
                "crash mid run-seal",
                Box::new(|dir: &Path| {
                    // A stray, torn run no live generation names.
                    std::fs::write(dir.join("run-999999.sst"), b"torn half-written run").unwrap();
                }),
            ),
            (
                "crash after sealing, before retirement",
                Box::new(|dir: &Path| {
                    // Retirement never ran: superseded runs linger on
                    // disk that no live generation needs. Fabricate one
                    // such orphan.
                    std::fs::write(dir.join("run-000000.sst.orphan"), b"").unwrap();
                }),
            ),
        ];

        for (label, sabotage) in scenarios {
            let dir = tempfile::tempdir().unwrap();
            {
                let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
                let mut cat = Catalog::open(backend).unwrap();
                cat.create_series(id, IndexBuildConfig::new(25)).unwrap();
                for chunk in &chunks {
                    cat.append(id, chunk).unwrap();
                    cat.materialize().unwrap(); // seals runs, retires superseded
                }
                let sdir = cat.backend().series_dir(id);
                sabotage(&sdir);
                // Process "dies" here: no clean shutdown.
            }
            let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
            let mut cat = Catalog::open(backend).unwrap();
            assert_eq!(cat.series_len(id), Some(full.len()), "{label}: points lost");
            let got =
                cat.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0].results.clone();
            assert_eq!(got, want, "{label}: recovered answers diverged from in-order rebuild");
        }
    }

    /// The tentpole equivalence guarantee on the durable backend:
    /// interleaved appends + incremental delta-run sealing (with
    /// compaction engaged) answer bit-identically to a full rebuild.
    #[test]
    fn generational_lsm_matches_full_rebuild() {
        let id = SeriesId::new(1);
        let xs = wave(31, 4_000);
        let lsm_dir = tempfile::tempdir().unwrap();
        let mut backend = LsmCatalogBackend::open(lsm_dir.path(), LsmOptions::tiny()).unwrap();
        backend.set_compaction_fanout(2); // compact eagerly
        let mut incremental = Catalog::new(backend);
        incremental.create_series(id, IndexBuildConfig::new(40)).unwrap();
        for chunk in xs.chunks(500) {
            incremental.append(id, chunk).unwrap();
            incremental.materialize().unwrap();
        }

        let full_dir = tempfile::tempdir().unwrap();
        let backend = LsmCatalogBackend::open(full_dir.path(), LsmOptions::tiny()).unwrap();
        let mut oneshot = Catalog::new(backend);
        oneshot.create_series_with(id, IndexBuildConfig::new(40), &xs).unwrap();

        let specs = vec![
            QuerySpec::rsm_ed(xs[100..340].to_vec(), 6.0).with_series(id),
            QuerySpec::rsm_dtw(xs[3_600..3_840].to_vec(), 3.0, 5).with_series(id),
            QuerySpec::rsm_ed(xs[3_700..3_950].to_vec(), 1e-9).with_series(id),
        ];
        let got = incremental.execute_batch(&specs).unwrap();
        let want = oneshot.execute_batch(&specs).unwrap();
        for (x, y) in got.outputs.iter().zip(&want.outputs) {
            assert_eq!(x.results, y.results, "delta-run catalog diverged from full rebuild");
        }
        let maintenance = incremental.backend().maintenance_stats();
        assert!(maintenance.delta_runs_sealed > 0, "delta path never engaged");
        assert!(maintenance.compactions > 0, "size-tiered folds never engaged");
        assert!(maintenance.generations_retired > 0, "superseded generations never retired");
    }

    #[test]
    fn superseded_generations_are_retired_only_when_unpinned() {
        let dir = tempfile::tempdir().unwrap();
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let mut cat = Catalog::new(backend);
        let id = SeriesId::new(1);
        cat.create_series_with(id, IndexBuildConfig::new(25), &wave(3, 1_000)).unwrap();
        cat.materialize().unwrap();

        // Pin the first generation, then publish two more.
        let pinned = cat.snapshot().unwrap();
        cat.append(id, &wave(4, 200)).unwrap();
        cat.materialize().unwrap();
        cat.append(id, &wave(5, 200)).unwrap();
        cat.materialize().unwrap();

        // The pinned generation's runs must still exist (and answer).
        assert!(cat.backend().live_generations(id).len() >= 2, "pinned generation must stay live");
        let spec = QuerySpec::rsm_ed(wave(3, 1_000)[100..300].to_vec(), 1e-9).with_series(id);
        assert!(pinned.execute_batch(std::slice::from_ref(&spec)).unwrap().outputs[0]
            .results
            .iter()
            .any(|r| r.offset == 100));

        // Unpin and publish once more: everything superseded retires,
        // leaving only the live generation's run files on disk.
        drop(pinned);
        cat.append(id, &wave(6, 200)).unwrap();
        cat.materialize().unwrap();
        let back = cat.backend();
        assert_eq!(back.live_generations(id).len(), 1, "only the live generation remains");
        // Every on-disk run file must belong to a live generation.
        let live: std::collections::BTreeSet<String> =
            back.series_state[&id.raw()].generations.values().flatten().cloned().collect();
        assert!(!live.is_empty(), "the live generation has runs");
        let on_disk: std::collections::BTreeSet<String> =
            back.run_files_on_disk(id).unwrap().into_iter().collect();
        assert_eq!(on_disk, live, "orphan run files survived retirement");
        assert!(back.maintenance_stats().generations_retired >= 3);
    }

    /// WAL points with no manifest entry (pre-manifest roots, torn
    /// manifests) must refuse recovery rather than silently dropping the
    /// series — re-creating it would append from offset 0 over the stale
    /// chunks and corrupt the next recovery.
    #[test]
    fn recovery_refuses_unmanifested_points() {
        let dir = tempfile::tempdir().unwrap();
        let id = SeriesId::new(4);
        {
            let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
            let mut cat = Catalog::new(backend);
            cat.create_series(id, IndexBuildConfig::new(25)).unwrap();
            cat.append(id, &wave(9, 600)).unwrap();
        }
        // Simulate a root from before the manifest existed.
        std::fs::remove_file(dir.path().join("series.conf")).unwrap();
        let backend = LsmCatalogBackend::open(dir.path(), LsmOptions::tiny()).unwrap();
        let err = match Catalog::open(backend) {
            Err(e) => e,
            Ok(_) => panic!("unmanifested points must not vanish"),
        };
        assert!(err.to_string().contains("series.conf has no entry"), "unexpected error: {err}");
    }
}
