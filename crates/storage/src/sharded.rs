//! Simulated distributed deployment (the paper's HBase table version,
//! §VII-B), substituted per DESIGN.md §5.
//!
//! A [`ShardedKvStore`] splits the key space into `regions` contiguous
//! ranges (like HBase regions). Each region is an independent
//! [`MemoryKvStore`] with its own counters; a range scan fans out to the
//! overlapping regions and merges results in key order. Per-operation
//! latency is *modelled*, not slept: every region touched adds
//! `latency_per_scan_ns` to the shared [`IoStats`] so experiments can report
//! network cost without wall-clock noise.
//!
//! This is a *store* partitioned by key range; a "shard" in the serving
//! docs always means a `CatalogShard` of `kvmatch-serve`, never this.

use bytes::Bytes;

use crate::kv::{KvStore, KvStoreBuilder, Row, StorageError};
use crate::memory::MemoryKvStore;
use crate::stats::IoStats;

/// Configuration of the simulated cluster.
#[derive(Clone, Debug)]
pub struct ShardingConfig {
    /// Number of regions (the paper's cluster has 7 region servers).
    pub regions: usize,
    /// Modelled latency added per region-scan RPC, in nanoseconds.
    pub latency_per_scan_ns: u64,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self { regions: 7, latency_per_scan_ns: 500_000 }
    }
}

/// Range-partitioned store over in-memory regions.
pub struct ShardedKvStore {
    /// `split_keys[i]` is the inclusive lower bound of region `i+1`;
    /// region 0 starts at the empty key.
    split_keys: Vec<Vec<u8>>,
    regions: Vec<MemoryKvStore>,
    config: ShardingConfig,
    stats: IoStats,
}

impl std::fmt::Debug for ShardedKvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvStore")
            .field("regions", &self.regions.len())
            .field("rows", &self.row_count())
            .finish()
    }
}

impl ShardedKvStore {
    /// Region index owning `key`.
    fn region_of(&self, key: &[u8]) -> usize {
        self.split_keys.partition_point(|s| s.as_slice() <= key)
    }

    /// Per-region row counts (for balance diagnostics).
    pub fn region_row_counts(&self) -> Vec<usize> {
        self.regions.iter().map(|r| r.row_count()).collect()
    }

    /// The sharding configuration.
    pub fn config(&self) -> &ShardingConfig {
        &self.config
    }
}

impl KvStore for ShardedKvStore {
    fn scan(&self, start: &[u8], end: &[u8]) -> crate::Result<Vec<Row>> {
        self.stats.record_scan();
        if start >= end {
            return Ok(Vec::new());
        }
        let first = self.region_of(start);
        let last = self.region_of(end); // end exclusive, but touching its region is harmless
        let mut out = Vec::new();
        for r in first..=last.min(self.regions.len() - 1) {
            self.stats.record_simulated_latency(self.config.latency_per_scan_ns);
            let rows = self.regions[r].scan(start, end)?;
            out.extend(rows);
        }
        // Regions are ordered and disjoint ⇒ concatenation is sorted.
        debug_assert!(out.windows(2).all(|w| w[0].key < w[1].key));
        let bytes: u64 = out.iter().map(|r| (r.key.len() + r.value.len()) as u64).sum();
        self.stats.record_read(out.len() as u64, bytes);
        Ok(out)
    }

    fn scan_all(&self) -> crate::Result<Vec<Row>> {
        self.stats.record_scan();
        let mut out = Vec::new();
        for r in &self.regions {
            self.stats.record_simulated_latency(self.config.latency_per_scan_ns);
            out.extend(r.scan_all()?);
        }
        let bytes: u64 = out.iter().map(|r| (r.key.len() + r.value.len()) as u64).sum();
        self.stats.record_read(out.len() as u64, bytes);
        Ok(out)
    }

    fn get(&self, key: &[u8]) -> crate::Result<Option<Bytes>> {
        let r = self.region_of(key).min(self.regions.len() - 1);
        self.regions[r].get(key)
    }

    fn row_count(&self) -> usize {
        self.regions.iter().map(|r| r.row_count()).sum()
    }

    fn io_stats(&self) -> IoStats {
        self.stats.clone()
    }
}

/// Builder that buffers sorted rows, then splits them into balanced regions.
pub struct ShardedKvStoreBuilder {
    rows: Vec<(Vec<u8>, Vec<u8>)>,
    config: ShardingConfig,
    last_key: Option<Vec<u8>>,
}

impl ShardedKvStoreBuilder {
    /// Builder with the given cluster configuration.
    pub fn new(config: ShardingConfig) -> Self {
        assert!(config.regions > 0, "need at least one region");
        Self { rows: Vec::new(), config, last_key: None }
    }
}

impl KvStoreBuilder for ShardedKvStoreBuilder {
    type Store = ShardedKvStore;

    fn append(&mut self, key: &[u8], value: &[u8]) -> crate::Result<()> {
        if let Some(last) = &self.last_key {
            if key <= &last[..] {
                return Err(StorageError::KeyOrder { key: key.to_vec() });
            }
        }
        self.last_key = Some(key.to_vec());
        self.rows.push((key.to_vec(), value.to_vec()));
        Ok(())
    }

    fn finish(self) -> crate::Result<ShardedKvStore> {
        let n_regions = self.config.regions;
        let per = self.rows.len().div_ceil(n_regions).max(1);
        let mut regions: Vec<MemoryKvStore> = Vec::with_capacity(n_regions);
        let mut split_keys = Vec::new();
        for chunk_idx in 0..n_regions {
            let region = MemoryKvStore::new();
            let lo = chunk_idx * per;
            let hi = ((chunk_idx + 1) * per).min(self.rows.len());
            if lo < hi {
                if chunk_idx > 0 {
                    split_keys.push(self.rows[lo].0.clone());
                }
                for (k, v) in &self.rows[lo..hi] {
                    region.insert(Bytes::from(k.clone()), Bytes::from(v.clone()));
                }
            } else if chunk_idx > 0 {
                // Empty tail region: give it an unreachable split key just
                // above the last real key so region_of stays well-defined.
                let mut k = self.rows.last().map(|(k, _)| k.clone()).unwrap_or_default();
                k.push(0xFF);
                k.push(chunk_idx as u8);
                split_keys.push(k);
            }
            regions.push(region);
        }
        Ok(ShardedKvStore { split_keys, regions, config: self.config, stats: IoStats::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n_rows: usize, regions: usize) -> ShardedKvStore {
        let mut b =
            ShardedKvStoreBuilder::new(ShardingConfig { regions, latency_per_scan_ns: 1_000 });
        for i in 0..n_rows {
            let k = format!("k{i:05}");
            b.append(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn scan_merges_across_regions() {
        let s = build(100, 7);
        let rows = s.scan(b"k00010", b"k00050").unwrap();
        assert_eq!(rows.len(), 40);
        assert!(rows.windows(2).all(|w| w[0].key < w[1].key));
        assert_eq!(&rows[0].key[..], b"k00010");
        assert_eq!(&rows[39].key[..], b"k00049");
    }

    #[test]
    fn scan_all_is_complete_and_sorted() {
        let s = build(57, 4);
        let rows = s.scan_all().unwrap();
        assert_eq!(rows.len(), 57);
        assert!(rows.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn row_distribution_is_balanced() {
        let s = build(70, 7);
        let counts = s.region_row_counts();
        assert_eq!(counts.len(), 7);
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn get_routes_to_owning_region() {
        let s = build(30, 3);
        assert_eq!(&s.get(b"k00000").unwrap().unwrap()[..], b"v0");
        assert_eq!(&s.get(b"k00029").unwrap().unwrap()[..], b"v29");
        assert!(s.get(b"zzz").unwrap().is_none());
    }

    #[test]
    fn latency_is_modelled_per_region_touch() {
        let s = build(100, 10);
        s.scan(b"k00000", b"k00100").unwrap(); // spans all 10 regions
        assert!(s.io_stats().simulated_latency_ns() >= 10_000);
    }

    #[test]
    fn more_rows_than_region_granularity() {
        let s = build(3, 7); // fewer rows than regions
        assert_eq!(s.row_count(), 3);
        assert_eq!(s.scan_all().unwrap().len(), 3);
        assert_eq!(&s.get(b"k00002").unwrap().unwrap()[..], b"v2");
    }

    #[test]
    fn empty_store_works() {
        let b = ShardedKvStoreBuilder::new(ShardingConfig::default());
        let s = b.finish().unwrap();
        assert_eq!(s.row_count(), 0);
        assert!(s.scan(b"a", b"z").unwrap().is_empty());
    }
}
