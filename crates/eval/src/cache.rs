//! Formation / lowering memoization for the evaluation engine.
//!
//! The paper's evaluation sweeps 5 region formers × 4 heuristics ×
//! several machine models over the whole suite. Region formation,
//! liveness, and lowering depend only on `(module, RegionConfig)` — not
//! on the heuristic or the machine. The seed harness recomputed all of
//! them for every table cell; this cache computes each layer once and
//! shares it:
//!
//! * [`FormationCache::formation`] — `(module, config)` →
//!   [`ModuleFormation`]: per-function [`treegion::FormOutcome`] and the
//!   [`LoweredFunction`] the driver's machine-independent front half
//!   ([`form_and_lower`]) builds over it: `Cfg`, `Liveness` (a dense
//!   bit-vector fixpoint), and every region's lowering. Every scheduling
//!   cell consumes this layer: unbounded machines schedule the lowered
//!   regions directly, and finite register files drive the robust chain
//!   from them through [`treegion::Pipeline::run_lowered`], whose primary
//!   attempts start from the cached lowering (only carved fallback
//!   pieces are lowered again).
//! * [`FormationCache::time`] — `(module, config, heuristic, dompar,
//!   machine)` → the scalar `program_time` of that cell (figures share
//!   cells: fig6's treegion column is fig8's dep-height column).
//!
//! The handle is `Arc`-based: cloning a [`FormationCache`] shares the
//! underlying store, so the `Suite` can hand one instance to every
//! table/figure generator (and to parallel workers) without copying.
//!
//! ## Why there is no DDG layer
//!
//! A third layer memoizing every region's dependence graph per machine
//! was built and measured, and then removed: retaining all DDGs grew the
//! harness's peak RSS from ~11 MB to ~440 MB, and first-touch page
//! faults on that retained memory cost more wall time (several seconds
//! of kernel time on the evaluation VM) than the DDG rebuilds it saved —
//! only Figure 8 ever re-reads a DDG across cells, and rebuilding is
//! cheap next to scheduling. See DESIGN.md §8 for the measurements.
//!
//! ## Invalidation
//!
//! Entries are keyed by a module fingerprint (name, block count, op
//! count) — modules are immutable for the lifetime of a run, so there is
//! no invalidation protocol; drop the cache (or call
//! [`FormationCache::clear`]) to release everything. Callers that mutate
//! a module (e.g. profile perturbation) must treat the mutated copy as a
//! *new* module — `perturb_profile` returns a fresh `Function`, so the
//! stats hold. A disabled cache ([`FormationCache::disabled`]) computes
//! every request from scratch, which the determinism tests use to prove
//! cache-on and cache-off runs are byte-identical.

use crate::diskcache::{result_key, DiskRecovery};
use crate::shardcache::ShardedDiskCache;
use crate::{EvalConfig, RegionConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use treegion::{form_and_lower, FormOutcome, Heuristic, LoweredFunction, NullObserver};
use treegion_ir::Module;
use treegion_machine::MachineModel;
use treegion_par::lock_tolerant;

/// A module fingerprint used as the cache key. Modules are immutable
/// during an evaluation run; the fingerprint (name + structural sizes)
/// distinguishes every module the workloads generator produces.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ModuleKey {
    name: String,
    blocks: usize,
    ops: usize,
}

impl ModuleKey {
    fn of(m: &Module) -> Self {
        ModuleKey {
            name: m.name().to_string(),
            blocks: m.num_blocks(),
            ops: m.num_ops(),
        }
    }
}

/// Hashable mirror of [`RegionConfig`] (`TailDupLimits` holds an `f64`,
/// so the config itself cannot derive `Eq`/`Hash`; the limit is keyed by
/// its bit pattern).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ConfigKey {
    Bb,
    Slr,
    Sb,
    Tree,
    TreeTd {
        expansion_bits: u64,
        path_limit: usize,
        merge_limit: usize,
    },
}

impl ConfigKey {
    fn of(c: &RegionConfig) -> Self {
        match c {
            RegionConfig::BasicBlock => ConfigKey::Bb,
            RegionConfig::Slr => ConfigKey::Slr,
            RegionConfig::Superblock => ConfigKey::Sb,
            RegionConfig::Treegion => ConfigKey::Tree,
            RegionConfig::TreegionTd(l) => ConfigKey::TreeTd {
                expansion_bits: l.code_expansion.to_bits(),
                path_limit: l.path_limit,
                merge_limit: l.merge_limit,
            },
        }
    }
}

/// Machine identity for the DDG/time caches: the `Debug` rendering covers
/// every field of [`MachineModel`], so two machines with the same key are
/// behaviourally identical.
fn machine_key(m: &MachineModel) -> String {
    format!("{m:?}")
}

/// One function's formation artifacts: the (possibly transformed)
/// function with its regions, and the driver's front half over it.
#[derive(Clone, Debug)]
pub struct FunctionFormation {
    /// Formation result (function, regions, origin map, original sizes).
    pub formed: FormOutcome,
    /// CFG, liveness, and the lowered regions (parallel to
    /// `formed.regions.regions()`) of the formed function.
    pub front: LoweredFunction,
}

/// A whole module formed under one [`RegionConfig`].
#[derive(Clone, Debug)]
pub struct ModuleFormation {
    /// Per-function artifacts, in module function order.
    pub functions: Vec<FunctionFormation>,
}

impl ModuleFormation {
    fn compute(module: &Module, config: &RegionConfig) -> Self {
        let functions = treegion_par::par_map(module.functions(), |f| {
            // Stages 1–2 of the driver (the machine-independent front
            // half): formation, CFG/liveness, lowering of every region.
            let (formed, front) = form_and_lower(f, config, &NullObserver);
            FunctionFormation { formed, front }
        });
        ModuleFormation { functions }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Counters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hit/miss accounting for one cache layer.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compute (for the formation layer, each miss
    /// is exactly one region formation + liveness + lowering pass).
    pub misses: u64,
}

/// Aggregated statistics over the cache layers.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Formation/liveness/lowering layer.
    pub formation: LayerStats,
    /// Per-cell `program_time` layer.
    pub time: LayerStats,
    /// Durable rendered-result layer (zeros when no disk tier is
    /// attached — see [`FormationCache::attach_disk`]).
    pub disk: LayerStats,
}

/// Key of the scalar `program_time` layer: module and region-formation
/// identity plus heuristic, dominator-parallelism flag, and a machine
/// fingerprint (its `Debug` rendering).
type TimeKey = (ModuleKey, ConfigKey, Heuristic, bool, String);

/// A formation-layer entry, filled by the first caller for its key.
type FormationSlot = Arc<OnceLock<Arc<ModuleFormation>>>;

struct Inner {
    enabled: bool,
    formations: Mutex<HashMap<(ModuleKey, ConfigKey), FormationSlot>>,
    times: Mutex<HashMap<TimeKey, f64>>,
    formation_counters: Counters,
    time_counters: Counters,
    /// Optional durable tier for *rendered results* (the serve daemon's
    /// warm path): crash-recoverable and key-sharded across lock-striped
    /// shard files, keyed by (module digest, config fingerprint). `None`
    /// until [`FormationCache::attach_disk`].
    disk: Mutex<Option<Arc<ShardedDiskCache>>>,
}

/// The memoization handle threaded through `program_time` /
/// `region_stats` and held by the `Suite`. Cloning shares the store.
#[derive(Clone)]
pub struct FormationCache {
    inner: Arc<Inner>,
}

// The poison-tolerant lock acquire used throughout this file is
// `treegion_par::lock_tolerant` — see its docs for why recovering a
// poisoned guard is sound (entries are inserted fully-formed in a single
// `HashMap` operation, and every computation happens *outside* the
// lock). Treating poison as fatal would turn one contained panic into a
// cascade of failures across every cell that shares the cache — exactly
// what the containment layer exists to prevent.

impl std::fmt::Debug for FormationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormationCache")
            .field("enabled", &self.inner.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for FormationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FormationCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A cache that never stores anything: every request recomputes.
    /// Results are byte-identical to the enabled cache; used as the
    /// cache-off reference in the determinism tests.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        FormationCache {
            inner: Arc::new(Inner {
                enabled,
                formations: Mutex::new(HashMap::new()),
                times: Mutex::new(HashMap::new()),
                formation_counters: Counters::default(),
                time_counters: Counters::default(),
                disk: Mutex::new(None),
            }),
        }
    }

    /// Attaches the durable result tier backed by the crash-recoverable
    /// store rooted at `path` (one shard), reporting what the startup
    /// recovery scan found. The tier works even on a
    /// [`FormationCache::disabled`] handle — disabling turns off
    /// *memoization*, while the disk tier is an explicit put/get store
    /// the serve daemon drives directly.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`ShardedDiskCache::open`].
    pub fn attach_disk(&self, path: &Path) -> Result<DiskRecovery, String> {
        self.attach_disk_sharded(path, 1, None)
    }

    /// [`FormationCache::attach_disk`] with a chaos handle threaded into
    /// the disk tier's durable operations (`None` = the plain attach).
    ///
    /// # Errors
    ///
    /// As [`FormationCache::attach_disk`], plus injected faults.
    pub fn attach_disk_chaos(
        &self,
        path: &Path,
        chaos: treegion_chaos::Chaos,
    ) -> Result<DiskRecovery, String> {
        self.attach_disk_sharded(path, 1, chaos)
    }

    /// Attaches the durable result tier sharded over `shards` lock-striped
    /// files rooted at `path` (`<path>.<k>`), with a chaos handle threaded
    /// into every shard's durable operations.
    ///
    /// # Errors
    ///
    /// As [`FormationCache::attach_disk`], plus injected faults.
    pub fn attach_disk_sharded(
        &self,
        path: &Path,
        shards: usize,
        chaos: treegion_chaos::Chaos,
    ) -> Result<DiskRecovery, String> {
        let (disk, recovery) = ShardedDiskCache::open(path, shards, chaos)?;
        *lock_tolerant(&self.inner.disk) = Some(Arc::new(disk));
        Ok(recovery)
    }

    /// The attached disk tier, when any.
    pub fn disk(&self) -> Option<Arc<ShardedDiskCache>> {
        lock_tolerant(&self.inner.disk).clone()
    }

    /// Looks up a rendered result in the disk tier. `None` when no tier
    /// is attached or the key is cold.
    pub fn disk_get(&self, module_digest: u64, config_fingerprint: &str) -> Option<String> {
        self.disk()?
            .get(result_key(module_digest, config_fingerprint))
    }

    /// Stores a rendered result durably. A no-op without an attached
    /// tier; write errors are returned so the caller can degrade loudly.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`DiskCache::put`].
    pub fn disk_put(
        &self,
        module_digest: u64,
        config_fingerprint: &str,
        payload: &str,
    ) -> Result<(), String> {
        match self.disk() {
            Some(d) => d.put(result_key(module_digest, config_fingerprint), payload),
            None => Ok(()),
        }
    }

    /// `true` if this handle stores results.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The formation artifacts of `module` under `config`, computed at
    /// most once per key while the cache is enabled.
    pub fn formation(&self, module: &Module, config: &RegionConfig) -> Arc<ModuleFormation> {
        if !self.inner.enabled {
            self.inner.formation_counters.miss();
            return Arc::new(ModuleFormation::compute(module, config));
        }
        let key = (ModuleKey::of(module), ConfigKey::of(config));
        // One slot per key, filled outside the map lock so misses on
        // distinct keys proceed in parallel; callers racing on the same
        // key wait on its slot, so each formation is computed once even
        // when concurrent cells ask for it together.
        let slot = Arc::clone(
            lock_tolerant(&self.inner.formations)
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let formation = slot.get_or_init(|| {
            self.inner.formation_counters.miss();
            computed = true;
            Arc::new(ModuleFormation::compute(module, config))
        });
        if !computed {
            self.inner.formation_counters.hit();
        }
        Arc::clone(formation)
    }

    /// Memoizes the scalar `program_time` of one `(module, config,
    /// machine)` cell: `compute` runs on a miss (or always, when the
    /// cache is disabled).
    pub fn time(
        &self,
        module: &Module,
        config: &EvalConfig,
        machine: &MachineModel,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        if !self.inner.enabled {
            self.inner.time_counters.miss();
            return compute();
        }
        let key = (
            ModuleKey::of(module),
            ConfigKey::of(&config.region),
            config.heuristic,
            config.dominator_parallelism,
            machine_key(machine),
        );
        if let Some(&hit) = lock_tolerant(&self.inner.times).get(&key) {
            self.inner.time_counters.hit();
            return hit;
        }
        self.inner.time_counters.miss();
        let v = compute();
        *lock_tolerant(&self.inner.times).entry(key).or_insert(v)
    }

    /// Hit/miss statistics across all layers.
    pub fn stats(&self) -> CacheStats {
        let layer = |c: &Counters| LayerStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
        };
        CacheStats {
            formation: layer(&self.inner.formation_counters),
            time: layer(&self.inner.time_counters),
            disk: self
                .disk()
                .map(|d| {
                    let s = d.stats();
                    LayerStats {
                        hits: s.hits,
                        misses: s.misses,
                    }
                })
                .unwrap_or_default(),
        }
    }

    /// Drops every stored entry (statistics are preserved).
    pub fn clear(&self) {
        lock_tolerant(&self.inner.formations).clear();
        lock_tolerant(&self.inner.times).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion_workloads::{generate, BenchmarkSpec};

    #[test]
    fn formation_is_computed_once_per_key() {
        let m = generate(&BenchmarkSpec::tiny(61));
        let cache = FormationCache::new();
        let a = cache.formation(&m, &RegionConfig::Treegion);
        let b = cache.formation(&m, &RegionConfig::Treegion);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.formation.misses, 1);
        assert_eq!(s.formation.hits, 1);
        // A different config is a different key.
        let _ = cache.formation(&m, &RegionConfig::Slr);
        assert_eq!(cache.stats().formation.misses, 2);
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let m = generate(&BenchmarkSpec::tiny(67));
        let cache = FormationCache::disabled();
        let a = cache.formation(&m, &RegionConfig::Treegion);
        let b = cache.formation(&m, &RegionConfig::Treegion);
        assert!(!Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.formation.misses, 2);
        assert_eq!(s.formation.hits, 0);
    }

    #[test]
    fn time_layer_distinguishes_machines() {
        let m = generate(&BenchmarkSpec::tiny(71));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let cache = FormationCache::new();
        let a = cache.time(&m, &cfg, &MachineModel::model_4u(), || 4.0);
        let b = cache.time(&m, &cfg, &MachineModel::model_8u(), || 8.0);
        assert_eq!((a, b), (4.0, 8.0));
        assert_eq!(cache.stats().time.misses, 2);
        assert_eq!(cache.stats().time.hits, 0);
    }

    #[test]
    fn time_layer_memoizes_cells() {
        let m = generate(&BenchmarkSpec::tiny(73));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let m4 = MachineModel::model_4u();
        let cache = FormationCache::new();
        let mut calls = 0usize;
        let a = cache.time(&m, &cfg, &m4, || {
            calls += 1;
            42.0
        });
        let b = cache.time(&m, &cfg, &m4, || {
            calls += 1;
            99.0 // must not be observed
        });
        assert_eq!((a, b, calls), (42.0, 42.0, 1));
    }

    #[test]
    fn clear_preserves_statistics() {
        let m = generate(&BenchmarkSpec::tiny(79));
        let cache = FormationCache::new();
        let _ = cache.formation(&m, &RegionConfig::BasicBlock);
        cache.clear();
        let _ = cache.formation(&m, &RegionConfig::BasicBlock);
        let s = cache.stats();
        assert_eq!(s.formation.misses, 2);
    }

    #[test]
    fn disk_tier_round_trips_and_counts() {
        let dir = std::env::temp_dir().join(format!("tgc-cache-disk-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("results.txt");
        let cache = FormationCache::new();
        // Without a tier: gets miss nothing, puts are no-ops.
        assert_eq!(cache.disk_get(1, "tree|4U"), None);
        cache.disk_put(1, "tree|4U", "x").unwrap();
        assert_eq!(cache.stats().disk, LayerStats::default());

        let rec = cache.attach_disk(&path).unwrap();
        assert_eq!(rec.replayed, 0);
        cache.disk_put(1, "tree|4U", "region r0: ...").unwrap();
        assert_eq!(
            cache.disk_get(1, "tree|4U").as_deref(),
            Some("region r0: ...")
        );
        assert_eq!(cache.disk_get(1, "tree|8U"), None);
        let s = cache.stats().disk;
        assert_eq!((s.hits, s.misses), (1, 1));

        // A fresh handle over the same file sees the durable entry.
        let warm = FormationCache::new();
        let rec = warm.attach_disk(&path).unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(
            warm.disk_get(1, "tree|4U").as_deref(),
            Some("region r0: ...")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handles_share_the_store() {
        let m = generate(&BenchmarkSpec::tiny(83));
        let cache = FormationCache::new();
        let clone = cache.clone();
        let a = cache.formation(&m, &RegionConfig::Treegion);
        let b = clone.formation(&m, &RegionConfig::Treegion);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(clone.stats().formation.hits, 1);
    }
}
