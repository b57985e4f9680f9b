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
//!   cell consumes this layer: on every machine it drives the
//!   verifier-gated chain through [`treegion::Pipeline::run_lowered`],
//!   whose primary attempts start from the cached lowering (only carved
//!   fallback pieces, possible on finite register files, are lowered
//!   again).
//! * [`FormationCache::cells`] — `(module, config, heuristic, dompar,
//!   machine)` → the [`CellValue`] of that cell: its `program_time` and
//!   its [`PressureStats`] (figures share cells: fig6's treegion column
//!   is fig8's dep-height column, and `pressure-stats@4u` reads the
//!   cells `pressure@4u` and fig8 filled). One request names a machine
//!   and a register-file sweep over it; its missing cells fill together
//!   from one sweep ([`treegion::Pipeline::run_lowered_files`]), which
//!   also stores the machine's own cell. The cells of one (module,
//!   config, machine) fill under one lock, so two parallel requests
//!   never compute a cell twice — the 1U basic-block baseline included,
//!   which every speedup cell reads here. Nothing is computed before a
//!   cell asks: `Suite::load` schedules nothing.
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
use crate::stats::PressureStats;
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

/// Machine identity for the cell layer: the `Debug` rendering covers
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
    /// Per-cell time and pressure-statistics layer (one hit or miss per
    /// requested cell).
    pub time: LayerStats,
    /// Durable rendered-result layer (zeros when no disk tier is
    /// attached — see [`FormationCache::attach_disk`]).
    pub disk: LayerStats,
}

/// What the cell layer stores for one `(module, config, machine)`: the
/// module's estimated time (Σ count × height over every accepted
/// schedule) and the pressure statistics of the same schedules.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CellValue {
    /// The module's estimated execution time.
    pub time: f64,
    /// Its live-range pressure and spill statistics.
    pub stats: PressureStats,
}

/// Key of the cell layer: module and region-formation identity plus
/// heuristic, dominator-parallelism flag, and a machine fingerprint (its
/// `Debug` rendering). The key of a sweep's own machine keys its fill
/// group.
type CellKey = (ModuleKey, ConfigKey, Heuristic, bool, String);

/// A formation-layer entry, filled by the first caller for its key.
type FormationSlot = Arc<OnceLock<Arc<ModuleFormation>>>;

struct Inner {
    enabled: bool,
    formations: Mutex<HashMap<(ModuleKey, ConfigKey), FormationSlot>>,
    cells: Mutex<HashMap<CellKey, CellValue>>,
    /// One lock per fill group in flight (the cells of one module,
    /// configuration and machine), held while its missing cells compute.
    fills: Mutex<HashMap<CellKey, Arc<Mutex<()>>>>,
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
                cells: Mutex::new(HashMap::new()),
                fills: Mutex::new(HashMap::new()),
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

    /// The cells of `module` under `config` on `machine` under each GPR
    /// file of `files` (`None`: the machine as it is; `Some(cap)`: it
    /// with a `cap`-entry file, [`MachineModel::with_gpr_file`]). Stored
    /// cells are returned as they are. `compute` gets the missing files —
    /// `None` among them, first, whenever the machine's own cell is not
    /// stored, requested or not, since its sweep computes it anyway — and
    /// returns their values in that order; the successful ones are stored
    /// (nothing is, when the cache is disabled). Single-flight: the
    /// group's lock is held while `compute` runs, and a caller that
    /// waited on it counts the cells it then finds as hits. Hits and
    /// misses count requested cells only.
    ///
    /// # Panics
    ///
    /// Panics if `compute` returns the wrong number of values.
    pub fn cells<E: Clone>(
        &self,
        module: &Module,
        config: &EvalConfig,
        machine: &MachineModel,
        files: &[Option<u32>],
        compute: impl FnOnce(&[Option<u32>]) -> Vec<Result<CellValue, E>>,
    ) -> Vec<Result<CellValue, E>> {
        let counters = &self.inner.time_counters;
        let enabled = self.inner.enabled;
        let key = |file: Option<u32>| {
            (
                ModuleKey::of(module),
                ConfigKey::of(&config.region),
                config.heuristic,
                config.dominator_parallelism,
                match file {
                    Some(cap) => machine_key(&machine.with_gpr_file(cap)),
                    None => machine_key(machine),
                },
            )
        };
        let stored = |keys: &[CellKey]| -> Vec<Option<CellValue>> {
            if !enabled {
                return vec![None; keys.len()];
            }
            let cells = lock_tolerant(&self.inner.cells);
            keys.iter().map(|k| cells.get(k).copied()).collect()
        };
        let keys: Vec<CellKey> = files.iter().map(|&f| key(f)).collect();
        let mut values = stored(&keys);
        let mut missing: Vec<Option<u32>> = Vec::new();
        let mut computed = Vec::new();
        if values.iter().any(Option::is_none) {
            let group = key(None);
            let fill = Arc::clone(
                lock_tolerant(&self.inner.fills)
                    .entry(group.clone())
                    .or_default(),
            );
            let held = lock_tolerant(&fill);
            values = stored(&keys);
            if values.iter().any(Option::is_none) {
                if stored(std::slice::from_ref(&group))[0].is_none() {
                    missing.push(None);
                }
                for (&f, v) in files.iter().zip(&values) {
                    if v.is_none() && !missing.contains(&f) {
                        missing.push(f);
                    }
                }
                computed = compute(&missing);
                assert_eq!(computed.len(), missing.len(), "one value per missing cell");
                if enabled {
                    let mut cells = lock_tolerant(&self.inner.cells);
                    for (&f, r) in missing.iter().zip(&computed) {
                        if let Ok(v) = r {
                            cells.insert(key(f), *v);
                        }
                    }
                }
            }
            drop(held);
            // Only the fills map hands out clones of a group's lock, so a
            // count of two (the map's and this one) means nobody waits.
            let mut fills = lock_tolerant(&self.inner.fills);
            if Arc::strong_count(&fill) == 2 {
                fills.remove(&group);
            }
        }
        files
            .iter()
            .zip(values)
            .map(|(f, v)| match v {
                Some(v) => {
                    counters.hit();
                    Ok(v)
                }
                None => {
                    counters.miss();
                    let at = missing.iter().position(|m| m == f);
                    computed[at.expect("every missing file computed")].clone()
                }
            })
            .collect()
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
        lock_tolerant(&self.inner.cells).clear();
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

    fn value(time: f64) -> CellValue {
        CellValue {
            time,
            stats: PressureStats::default(),
        }
    }

    #[test]
    fn cell_layer_distinguishes_machines() {
        let m = generate(&BenchmarkSpec::tiny(71));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let cache = FormationCache::new();
        let one = |machine: MachineModel, t: f64| {
            cache.cells(&m, &cfg, &machine, &[None], |_| vec![Ok::<_, ()>(value(t))])[0]
                .unwrap()
                .time
        };
        let a = one(MachineModel::model_4u(), 4.0);
        let b = one(MachineModel::model_8u(), 8.0);
        assert_eq!((a, b), (4.0, 8.0));
        assert_eq!(cache.stats().time.misses, 2);
        assert_eq!(cache.stats().time.hits, 0);
    }

    /// Fills `files` of `machine` through `cache`, each missing cell
    /// valued `t` plus its position among the missing, and records what
    /// `compute` was asked for.
    fn fill(
        cache: &FormationCache,
        machine: &MachineModel,
        files: &[Option<u32>],
        t: f64,
        asked: &mut Vec<Vec<Option<u32>>>,
    ) -> Vec<f64> {
        let m = generate(&BenchmarkSpec::tiny(73));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        cache
            .cells(&m, &cfg, machine, files, |missing| {
                asked.push(missing.to_vec());
                (0..missing.len())
                    .map(|i| Ok::<_, ()>(value(t + i as f64)))
                    .collect()
            })
            .into_iter()
            .map(|r| r.unwrap().time)
            .collect()
    }

    #[test]
    fn cell_layer_memoizes_cells_and_fills_only_the_missing_files() {
        let m4 = MachineModel::model_4u();
        let files = [None, Some(64), Some(32)];
        let cache = FormationCache::new();
        let mut asked = Vec::new();
        assert_eq!(fill(&cache, &m4, &files[..1], 40.0, &mut asked), [40.0]);
        // The machine's own cell is stored: only the capped files compute.
        assert_eq!(
            fill(&cache, &m4, &files, 90.0, &mut asked),
            [40.0, 90.0, 91.0]
        );
        assert_eq!(
            fill(&cache, &m4, &files, 0.0, &mut asked),
            [40.0, 90.0, 91.0]
        );
        assert_eq!(asked, vec![vec![None], vec![Some(64), Some(32)]]);
        let s = cache.stats().time;
        assert_eq!((s.misses, s.hits), (3, 4));
        // A capped file is the same cell whichever way it is named.
        let r64 = m4.with_gpr_file(64);
        assert_eq!(fill(&cache, &r64, &[None], 0.0, &mut asked), [90.0]);
    }

    #[test]
    fn a_sweep_stores_its_machines_own_cell() {
        let m8 = MachineModel::model_8u();
        let cache = FormationCache::new();
        let mut asked = Vec::new();
        assert_eq!(fill(&cache, &m8, &[Some(16)], 5.0, &mut asked), [6.0]);
        assert_eq!(fill(&cache, &m8, &[None], 0.0, &mut asked), [5.0]);
        assert_eq!(asked, vec![vec![None, Some(16)]]);
        let s = cache.stats().time;
        assert_eq!((s.misses, s.hits), (1, 1));
        // A disabled cache stores nothing and recomputes every time.
        let off = FormationCache::disabled();
        for _ in 0..2 {
            assert_eq!(fill(&off, &m8, &[Some(16)], 5.0, &mut asked), [6.0]);
        }
        assert_eq!(off.stats().time.misses, 2);
    }

    #[test]
    fn failed_cells_are_not_stored() {
        let m = generate(&BenchmarkSpec::tiny(77));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let m4 = MachineModel::model_4u();
        let cache = FormationCache::new();
        let r = cache.cells(&m, &cfg, &m4, &[None], |_| vec![Err("boom")]);
        assert_eq!(r, vec![Err("boom")]);
        let r = cache.cells(&m, &cfg, &m4, &[None], |_| vec![Ok::<_, &str>(value(1.0))]);
        assert_eq!(r, vec![Ok(value(1.0))]);
        assert_eq!(cache.stats().time.misses, 2);
    }

    #[test]
    fn parallel_requests_compute_each_cell_once() {
        let m = generate(&BenchmarkSpec::tiny(79));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let m4 = MachineModel::model_4u();
        let cache = FormationCache::new();
        let computed = AtomicU64::new(0);
        let requests: Vec<Vec<Option<u32>>> = (0..8)
            .map(|k| match k % 3 {
                0 => vec![None],
                1 => vec![None, Some(32)],
                _ => vec![Some(32)],
            })
            .collect();
        let times = treegion_par::par_map_jobs(4, &requests, |files| {
            cache.cells(&m, &cfg, &m4, files, |missing| {
                computed.fetch_add(missing.len() as u64, Ordering::Relaxed);
                missing
                    .iter()
                    .map(|f| Ok::<_, ()>(value(f.unwrap_or(0) as f64)))
                    .collect()
            })
        });
        assert_eq!(computed.load(Ordering::Relaxed), 2, "{times:?}");
        for (files, cells) in requests.iter().zip(&times) {
            let want: Vec<_> = files
                .iter()
                .map(|f| Ok(value(f.unwrap_or(0) as f64)))
                .collect();
            assert_eq!(cells, &want);
        }
        // A request for the capped file alone may compute the unbounded
        // cell unasked, so one requested cell or two missed.
        let s = cache.stats().time;
        assert_eq!(s.misses + s.hits, 11, "{s:?}");
        assert!((1..=2).contains(&s.misses), "{s:?}");
        assert!(lock_tolerant(&cache.inner.fills).is_empty());
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
