//! The durable disk tier of the formation/result cache: an append-only,
//! checksummed, crash-recoverable key→payload log.
//!
//! `tgc serve` keys this store by `(module digest, RegionConfig, machine,
//! heuristic)` so repeat traffic over the same regions is a durable
//! lookup that survives a `kill -9` — the demand-driven-region argument
//! (Way & Pollock) applied to a long-lived compile service.
//!
//! ## On-disk format
//!
//! One header plus one record per entry, each line sealed with the
//! [`crate::records`] checksum framing:
//!
//! ```text
//! tgc-disk-cache v1 ~<seal>
//! entry <key:016x> <escaped payload> ~<seal>
//! ```
//!
//! Payloads are arbitrary text (rendered per-region schedules), folded to
//! one line with [`crate::records::escape`]. Every write is an
//! **append, flush, fsync** sequence, so a hard kill can only damage the
//! final record. A later `entry` for an existing key shadows the earlier
//! one (last write wins), which keeps appends cheap; [`DiskCache::open`]
//! deduplicates on replay.
//!
//! ## Recovery
//!
//! [`DiskCache::open`] scans the log with [`crate::records::recover`]:
//! sealed records replay into the in-memory map, a torn tail (the
//! `kill -9` signature) is truncated, and when anything needed repair the
//! surviving records are compacted and rewritten atomically (tmp file +
//! rename) before the cache accepts new appends. A warm restart is
//! therefore byte-identical to a cold run: either a record survived
//! verification and replays the exact bytes the cold run produced, or it
//! was dropped and the cell recomputes.

use crate::checkpoint::fnv1a;
use crate::records;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use treegion_chaos::{shim, Chaos};

/// First line of every cache file (sealed like any other record).
const HEADER: &str = "tgc-disk-cache v1";

/// What [`DiskCache::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskRecovery {
    /// Records that survived verification and were replayed.
    pub replayed: usize,
    /// Lines dropped (torn tail or corrupt records).
    pub dropped: usize,
    /// Whether the file ended mid-append (the hard-kill signature).
    pub torn_tail: bool,
    /// Whether the survivors were compacted and rewritten.
    pub compacted: bool,
}

/// Hit/miss counters for the disk tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Blocking lock acquires that found the store lock already held
    /// (another thread was mid-lookup or mid-append).
    pub contention: u64,
}

impl DiskStats {
    /// Element-wise sum, for aggregating per-shard stats.
    #[must_use]
    pub fn merged(self, other: DiskStats) -> DiskStats {
        DiskStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
            contention: self.contention + other.contention,
        }
    }
}

struct DiskInner {
    map: HashMap<u64, String>,
    file: shim::ChaosFile,
}

/// The crash-safe key→payload store. All methods take `&self`; the store
/// is internally synchronized and shared across server workers.
pub struct DiskCache {
    path: PathBuf,
    inner: Mutex<DiskInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
    chaos: Chaos,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Renders one entry record (unsealed payload line).
fn render_entry(key: u64, payload: &str) -> String {
    format!("entry {key:016x} {}", records::escape(payload))
}

/// Parses one recovered payload line into `(key, payload)`. Lines that
/// are not entries (e.g. the header) return `None`.
fn parse_entry(line: &str) -> Option<(u64, String)> {
    let rest = line.strip_prefix("entry ")?;
    let (key, payload) = rest.split_once(' ')?;
    let key = u64::from_str_radix(key, 16).ok()?;
    Some((key, records::unescape(payload)))
}

impl DiskCache {
    /// Opens (or creates) the cache at `path`, running the recovery scan.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as strings. Damaged *records* are not
    /// errors — they are dropped by recovery and reported in
    /// [`DiskRecovery`].
    pub fn open(path: &Path) -> Result<(Self, DiskRecovery), String> {
        Self::open_chaos(path, None)
    }

    /// [`DiskCache::open`] with a chaos handle: every durable operation
    /// (appends, fsyncs, compaction rewrites and renames) is journaled
    /// on — and may be perturbed by — the armed [`treegion_chaos::FaultPlan`].
    /// `None` is byte-for-byte the plain open.
    ///
    /// # Errors
    ///
    /// As [`DiskCache::open`], plus injected faults.
    pub fn open_chaos(path: &Path, chaos: Chaos) -> Result<(Self, DiskRecovery), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            shim::create_dir_all(dir, &chaos, "diskcache.open")
                .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        }
        let text = match shim::read_to_string(path, &chaos, "diskcache.open") {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read cache `{}`: {e}", path.display())),
        };
        let rec = records::recover(&text);
        let mut recovery = DiskRecovery {
            dropped: rec.dropped,
            torn_tail: rec.torn_tail,
            ..DiskRecovery::default()
        };
        let mut map = HashMap::new();
        let mut malformed = 0usize;
        for (i, line) in rec.lines.iter().enumerate() {
            if i == 0 && line == HEADER {
                continue;
            }
            match parse_entry(line) {
                Some((k, v)) => {
                    map.insert(k, v); // last write wins
                    recovery.replayed += 1;
                }
                // A line whose checksum verifies but whose body does not
                // parse was written by something else entirely; count it
                // dropped rather than guessing.
                None => malformed += 1,
            }
        }
        recovery.dropped += malformed;

        // Compact when anything needed repair (or the header is missing /
        // stale): rewrite survivors atomically so the log is clean before
        // new appends land.
        let fresh = text.is_empty();
        let needs_compact = rec.needed_repair()
            || malformed > 0
            || (!fresh && rec.lines.first().map(String::as_str) != Some(HEADER));
        if fresh || needs_compact {
            Self::rewrite(path, &map, &chaos)?;
            recovery.compacted = needs_compact;
        }

        let file = shim::ChaosFile::append(path, &chaos, "diskcache.append")
            .map_err(|e| format!("cannot open cache `{}`: {e}", path.display()))?;
        Ok((
            DiskCache {
                path: path.to_path_buf(),
                inner: Mutex::new(DiskInner { map, file }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                contention: AtomicU64::new(0),
                chaos,
            },
            recovery,
        ))
    }

    /// Atomically rewrites the whole store (tmp file + rename). Entries
    /// are written in key order so the compacted file is deterministic.
    fn rewrite(path: &Path, map: &HashMap<u64, String>, chaos: &Chaos) -> Result<(), String> {
        let mut body = String::new();
        body.push_str(&records::seal(HEADER));
        body.push('\n');
        let mut keys: Vec<&u64> = map.keys().collect();
        keys.sort();
        for k in keys {
            body.push_str(&records::seal(&render_entry(*k, &map[k])));
            body.push('\n');
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = shim::ChaosFile::create(&tmp, chaos, "diskcache.compact")
                .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
            f.write_all(body.as_bytes())
                .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
            f.sync_all()
                .map_err(|e| format!("cannot sync `{}`: {e}", tmp.display()))?;
        }
        shim::rename(&tmp, path, chaos, "diskcache.compact")
            .map_err(|e| format!("cannot move cache into place: {e}"))
    }

    /// Looks up a payload.
    pub fn get(&self, key: u64) -> Option<String> {
        let inner = self.lock();
        match inner.map.get(&key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a payload durably: the record is appended, flushed, and
    /// fsynced before the in-memory map is updated, so a `get` can never
    /// observe an entry a crash could lose.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the in-memory map is left unchanged
    /// on failure.
    pub fn put(&self, key: u64, payload: &str) -> Result<(), String> {
        let line = format!("{}\n", records::seal(&render_entry(key, payload)));
        let mut inner = self.lock();
        inner
            .file
            .write_all(line.as_bytes())
            .and_then(|()| inner.file.flush())
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| format!("cannot append to cache `{}`: {e}", self.path.display()))?;
        inner.map.insert(key, payload.to_string());
        Ok(())
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/entry counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            contention: self.contention.load(Ordering::Relaxed),
        }
    }

    /// All live entries, sorted by key.
    pub fn entries(&self) -> Vec<(u64, String)> {
        let inner = self.lock();
        let mut out: Vec<(u64, String)> = inner.map.iter().map(|(k, v)| (*k, v.clone())).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Compacts the log in place (drops shadowed duplicates). Called on
    /// graceful drain so a clean shutdown leaves a minimal, sorted file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(&self) -> Result<(), String> {
        let mut inner = self.lock();
        Self::rewrite(&self.path, &inner.map, &self.chaos)?;
        inner.file = shim::ChaosFile::append(&self.path, &self.chaos, "diskcache.append")
            .map_err(|e| format!("cannot reopen cache `{}`: {e}", self.path.display()))?;
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        // Poison tolerance is sound here for the reasons documented on
        // `treegion_par::lock_tolerant`: every mutation under this lock
        // is single-step. The non-blocking probe first makes lock
        // contention observable per shard without taxing the fast path.
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                treegion_par::lock_tolerant(&self.inner)
            }
        }
    }
}

/// Builds the canonical disk-cache key for a serve-style result cell:
/// the module's content digest combined with the configuration
/// fingerprint (region config label, machine, heuristic, dompar). FNV-1a
/// over a rendered key string — stable across platforms and processes.
pub fn result_key(module_digest: u64, config_fingerprint: &str) -> u64 {
    fnv1a(format!("tgc-serve-result v1|{module_digest:016x}|{config_fingerprint}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmppath(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tgc-diskcache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.txt")
    }

    #[test]
    fn put_get_survive_reopen() {
        let path = tmppath("reopen");
        let (c, r) = DiskCache::open(&path).unwrap();
        assert_eq!(r, DiskRecovery::default());
        c.put(1, "one\ntwo").unwrap();
        c.put(2, "plain").unwrap();
        assert_eq!(c.get(1).as_deref(), Some("one\ntwo"));
        assert_eq!(c.get(99), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 2));
        drop(c);
        let (c2, r2) = DiskCache::open(&path).unwrap();
        assert_eq!(r2.replayed, 2);
        assert!(!r2.compacted);
        assert_eq!(c2.get(1).as_deref(), Some("one\ntwo"));
        assert_eq!(c2.get(2).as_deref(), Some("plain"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_replay() {
        let path = tmppath("torn");
        let (c, _) = DiskCache::open(&path).unwrap();
        c.put(1, "keep me").unwrap();
        c.put(2, "also keep").unwrap();
        drop(c);
        // Simulate kill -9 mid-append: half a record, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("entry 00000000000000ff half-written-paylo");
        std::fs::write(&path, &text).unwrap();

        let (c2, r) = DiskCache::open(&path).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(r.dropped, 1);
        assert!(r.torn_tail);
        assert!(r.compacted);
        assert_eq!(c2.get(1).as_deref(), Some("keep me"));
        assert_eq!(c2.get(0xff), None);
        // The compacted file is clean: reopening reports no repair.
        drop(c2);
        let (_, r3) = DiskCache::open(&path).unwrap();
        assert!(!r3.needs_repair_marker());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    impl DiskRecovery {
        fn needs_repair_marker(&self) -> bool {
            self.dropped > 0 || self.torn_tail || self.compacted
        }
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let path = tmppath("corrupt");
        let (c, _) = DiskCache::open(&path).unwrap();
        c.put(1, "first").unwrap();
        c.put(2, "second").unwrap();
        c.put(3, "third").unwrap();
        drop(c);
        // Flip a byte inside the *second* record's payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("second", "sec0nd", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();

        let (c2, r) = DiskCache::open(&path).unwrap();
        // Header + first record survive; the corrupt record and everything
        // after it are dropped.
        assert_eq!(r.replayed, 1);
        assert_eq!(r.dropped, 2);
        assert_eq!(c2.get(1).as_deref(), Some("first"));
        assert_eq!(c2.get(2), None);
        assert_eq!(c2.get(3), None);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn last_write_wins_and_compaction_dedups() {
        let path = tmppath("shadow");
        let (c, _) = DiskCache::open(&path).unwrap();
        c.put(7, "old").unwrap();
        c.put(7, "new").unwrap();
        assert_eq!(c.get(7).as_deref(), Some("new"));
        assert_eq!(c.len(), 1);
        c.compact().unwrap();
        assert_eq!(c.get(7).as_deref(), Some("new"));
        // Appends still work after compaction reopened the file handle.
        c.put(8, "post-compact").unwrap();
        drop(c);
        let (c2, r) = DiskCache::open(&path).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(c2.get(7).as_deref(), Some("new"));
        assert_eq!(c2.get(8).as_deref(), Some("post-compact"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn result_key_is_stable_and_spreads() {
        let a = result_key(1, "tree|4U|global-weight|dompar=false");
        let b = result_key(1, "tree|8U|global-weight|dompar=false");
        let c = result_key(2, "tree|4U|global-weight|dompar=false");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, result_key(1, "tree|4U|global-weight|dompar=false"));
    }

    #[test]
    fn foreign_file_is_quarantined_not_trusted() {
        let path = tmppath("foreign");
        std::fs::write(&path, "not a cache file at all\n").unwrap();
        let (c, r) = DiskCache::open(&path).unwrap();
        assert!(c.is_empty());
        assert!(r.compacted);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
