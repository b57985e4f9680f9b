//! The lock-striped sharded disk cache: N independent [`DiskCache`]
//! shard files behind one façade, selected by key.
//!
//! PR 6's `DiskCache` funnels every lookup and append through a single
//! global `Mutex<DiskInner>`, which is fine for one connection but
//! serializes the warm path as soon as `tgc serve` answers concurrent
//! traffic. [`ShardedDiskCache`] spreads the key space over `shards`
//! files — `<base>.<k>` next to the configured cache path — each a full
//! `DiskCache` with its own lock, so lookups for different keys proceed
//! in parallel and an append only stalls the 1/N of traffic that hashes
//! to the same shard.
//!
//! ## Layout
//!
//! ```text
//! cache.tgc.0      shard 0: header + entries with key % N == 0
//! cache.tgc.1      shard 1: ...
//! ...
//! cache.tgc.{N-1}
//! ```
//!
//! Every shard file keeps the PR 6 invariants verbatim (checksummed
//! appends, torn-tail recovery, atomic tmp+rename compaction) because
//! each shard *is* a `DiskCache`; the chaos journal therefore sweeps
//! every per-shard durable site automatically. The shard for a key is
//! `key % shards` — a pure function of the key — so a warm restart with
//! the same shard count replays byte-identically: the same entries land
//! in the same files in the same order.

use crate::diskcache::{DiskCache, DiskRecovery, DiskStats};
use std::path::{Path, PathBuf};
use treegion_chaos::Chaos;

/// A key-sharded collection of [`DiskCache`] files. All methods take
/// `&self`; each shard is internally synchronized.
#[derive(Debug)]
pub struct ShardedDiskCache {
    base: PathBuf,
    shards: Vec<DiskCache>,
}

/// The shard file path for shard `k` of the store rooted at `base`:
/// `<base>.<k>`.
#[must_use]
pub fn shard_path(base: &Path, k: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".{k}"));
    PathBuf::from(os)
}

impl ShardedDiskCache {
    /// Opens (or creates) `shards` shard files rooted at `base`, running
    /// the PR 6 recovery scan on each. The returned [`DiskRecovery`]
    /// aggregates all shards (counts summed, flags OR-ed).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (and injected faults) as strings.
    pub fn open(base: &Path, shards: usize, chaos: Chaos) -> Result<(Self, DiskRecovery), String> {
        let n = shards.max(1);
        let mut total = DiskRecovery::default();
        let mut opened = Vec::with_capacity(n);
        for k in 0..n {
            let (shard, rec) = DiskCache::open_chaos(&shard_path(base, k), chaos.clone())?;
            total.replayed += rec.replayed;
            total.dropped += rec.dropped;
            total.torn_tail |= rec.torn_tail;
            total.compacted |= rec.compacted;
            opened.push(shard);
        }
        let store = ShardedDiskCache {
            base: base.to_path_buf(),
            shards: opened,
        };
        Ok((store, total))
    }

    fn shard(&self, key: u64) -> &DiskCache {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks up a payload in the shard owning `key`.
    pub fn get(&self, key: u64) -> Option<String> {
        self.shard(key).get(key)
    }

    /// Stores a payload durably in the shard owning `key` (append,
    /// flush, fsync before the in-memory map update — the `DiskCache`
    /// contract per shard).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the shard is left unchanged.
    pub fn put(&self, key: u64, payload: &str) -> Result<(), String> {
        self.shard(key).put(key, payload)
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(DiskCache::len).sum()
    }

    /// `true` when no shard stores an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated hit/miss/contention counters over all shards.
    pub fn stats(&self) -> DiskStats {
        self.shards
            .iter()
            .map(DiskCache::stats)
            .fold(DiskStats::default(), DiskStats::merged)
    }

    /// Per-shard counters, indexed by shard number.
    pub fn shard_stats(&self) -> Vec<DiskStats> {
        self.shards.iter().map(DiskCache::stats).collect()
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The configured base path (shard files are `<base>.<k>`).
    #[must_use]
    pub fn base_path(&self) -> &Path {
        &self.base
    }

    /// Compacts every shard in place (graceful-drain checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn compact(&self) -> Result<(), String> {
        for shard in &self.shards {
            shard.compact()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpbase(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tgc-shardcache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.tgc")
    }

    fn cleanup(base: &Path) {
        std::fs::remove_dir_all(base.parent().unwrap()).ok();
    }

    #[test]
    fn entries_land_in_their_key_shard_and_survive_reopen() {
        let base = tmpbase("reopen");
        let (c, r) = ShardedDiskCache::open(&base, 4, None).unwrap();
        assert_eq!(r, DiskRecovery::default());
        for k in 0..16u64 {
            c.put(k, &format!("payload-{k}")).unwrap();
        }
        assert_eq!(c.len(), 16);
        // Shard files exist and each holds exactly the keys ≡ k (mod 4).
        for k in 0..4 {
            let text = std::fs::read_to_string(shard_path(&base, k)).unwrap();
            for key in 0..16u64 {
                let marker = format!("entry {key:016x} ");
                assert_eq!(
                    text.contains(&marker),
                    key % 4 == k as u64,
                    "key {key} placement in shard {k}"
                );
            }
        }
        drop(c);
        let (c2, r2) = ShardedDiskCache::open(&base, 4, None).unwrap();
        assert_eq!(r2.replayed, 16);
        assert!(!r2.compacted);
        for k in 0..16u64 {
            assert_eq!(c2.get(k).as_deref(), Some(format!("payload-{k}").as_str()));
        }
        cleanup(&base);
    }

    #[test]
    fn torn_tail_in_one_shard_only_costs_that_shard() {
        let base = tmpbase("torn");
        let (c, _) = ShardedDiskCache::open(&base, 4, None).unwrap();
        for k in 0..8u64 {
            c.put(k, "keep").unwrap();
        }
        drop(c);
        // kill -9 signature in shard 2 only.
        let victim = shard_path(&base, 2);
        let mut text = std::fs::read_to_string(&victim).unwrap();
        text.push_str("entry 00000000000000ff half-written");
        std::fs::write(&victim, &text).unwrap();

        let (c2, r) = ShardedDiskCache::open(&base, 4, None).unwrap();
        assert!(r.torn_tail);
        assert!(r.compacted);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.replayed, 8);
        for k in 0..8u64 {
            assert_eq!(c2.get(k).as_deref(), Some("keep"), "key {k} lost");
        }
        cleanup(&base);
    }

    #[test]
    fn shard_stats_aggregate() {
        let base = tmpbase("stats");
        let (c, _) = ShardedDiskCache::open(&base, 2, None).unwrap();
        c.put(0, "a").unwrap();
        c.put(1, "b").unwrap();
        assert!(c.get(0).is_some());
        assert!(c.get(2).is_none()); // miss in shard 0
        let per = c.shard_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].hits, 1);
        assert_eq!(per[0].misses, 1);
        let total = c.stats();
        assert_eq!((total.hits, total.misses, total.entries), (1, 1, 2));
        cleanup(&base);
    }

    #[test]
    fn one_shard_is_a_valid_degenerate_store() {
        let base = tmpbase("one");
        let (c, _) = ShardedDiskCache::open(&base, 0, None).unwrap();
        assert_eq!(c.shards(), 1);
        c.put(7, "x").unwrap();
        assert_eq!(c.get(7).as_deref(), Some("x"));
        cleanup(&base);
    }
}
