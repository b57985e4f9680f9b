//! Region statistics (Tables 1, 2, 4), code expansion (Table 3), and
//! live-range pressure statistics (the pressure ablation's columns).

use crate::{EvalConfig, FormationCache, RegionConfig};
use treegion::{Pipeline, Profiler, Stage};
use treegion_ir::Module;
use treegion_machine::MachineModel;

/// Aggregate region statistics for one program under one region type —
/// the rows of the paper's Tables 1, 2, and 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionStats {
    /// Total number of regions.
    pub num_regions: usize,
    /// Average basic blocks per region.
    pub avg_blocks: f64,
    /// Maximum basic blocks in any region.
    pub max_blocks: usize,
    /// Average lowered ops per region (source ops plus materialized
    /// compare/branch ops — the paper's "# instrs" / "# Ops").
    pub avg_ops: f64,
    /// Code expansion factor: lowered ops after formation ÷ lowered ops
    /// under basic-block formation of the original program (Table 3).
    pub code_expansion: f64,
}

/// Computes region statistics for `module` under `config`.
pub fn region_stats(module: &Module, config: &RegionConfig) -> RegionStats {
    region_stats_cached(module, config, &FormationCache::disabled())
}

/// [`region_stats`] reusing `cache`'s formation/lowering artifacts: the
/// table generators and the speedup figures share a single formation per
/// `(module, config)`.
pub fn region_stats_cached(
    module: &Module,
    config: &RegionConfig,
    cache: &FormationCache,
) -> RegionStats {
    let mut num_regions = 0usize;
    let mut total_blocks = 0usize;
    let mut max_blocks = 0usize;
    let mut total_ops = 0usize;
    let mut original_source_ops = 0usize;
    let mut source_ops_after = 0usize;

    let formation = cache.formation(module, config);
    for ff in &formation.functions {
        let formed = &ff.formed;
        original_source_ops += formed.original_ops;
        source_ops_after += formed.function.num_ops();
        for (r, lowered) in formed.regions.regions().iter().zip(&ff.front.lowered) {
            num_regions += 1;
            total_blocks += r.num_blocks();
            max_blocks = max_blocks.max(r.num_blocks());
            total_ops += lowered.num_ops();
        }
    }
    RegionStats {
        num_regions,
        avg_blocks: total_blocks as f64 / num_regions.max(1) as f64,
        max_blocks,
        avg_ops: total_ops as f64 / num_regions.max(1) as f64,
        code_expansion: source_ops_after as f64 / original_source_ops.max(1) as f64,
    }
}

/// Live-range pressure and spill statistics of one program under one
/// configuration and machine — the eval harness's max-pressure and
/// spill-count columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Peak simultaneously-live registers in any class, over all regions
    /// (a maximum, not a sum).
    pub peak: u32,
    /// Ready ops deferred by the register-pressure ceiling.
    pub parks: u64,
    /// Spill ops inserted to fit the register file (0 when unbounded).
    pub spills: u64,
}

/// Computes [`PressureStats`] by scheduling every region of `module`
/// under `config` on `machine` with a [`Profiler`] attached and reading
/// back the list scheduler's pressure counters. Every region runs the
/// verifier-gated chain from the cached front half, as
/// [`crate::program_time_cached`] does, so under a finite file the
/// counters cover every spill round and fallback attempt the analytic
/// time model charged for.
pub fn pressure_stats_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    cache: &FormationCache,
) -> PressureStats {
    let prof = Profiler::new();
    let p = Pipeline::with_options(machine, crate::pipeline::cell_options(config, machine));
    for ff in &cache.formation(module, &config.region).functions {
        p.run_lowered(&ff.formed, &ff.front, &prof)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    let ls = prof
        .report()
        .into_iter()
        .find(|s| s.stage == Stage::ListSched)
        .expect("profiler reports every stage");
    PressureStats {
        peak: ls.stats.pressure_peak,
        parks: ls.stats.pressure_parks,
        spills: ls.stats.spills,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion::TailDupLimits;
    use treegion_workloads::{generate, BenchmarkSpec};

    #[test]
    fn basic_block_stats_are_unit_sized() {
        let m = generate(&BenchmarkSpec::tiny(21));
        let s = region_stats(&m, &RegionConfig::BasicBlock);
        assert_eq!(s.avg_blocks, 1.0);
        assert_eq!(s.max_blocks, 1);
        assert_eq!(s.num_regions, m.num_blocks());
        assert!((s.code_expansion - 1.0).abs() < 1e-12);
    }

    #[test]
    fn treegions_are_larger_than_slrs_which_exceed_blocks() {
        let m = generate(&BenchmarkSpec::tiny(23));
        let bb = region_stats(&m, &RegionConfig::BasicBlock);
        let slr = region_stats(&m, &RegionConfig::Slr);
        let tree = region_stats(&m, &RegionConfig::Treegion);
        assert!(slr.avg_blocks >= bb.avg_blocks);
        assert!(tree.avg_blocks >= slr.avg_blocks);
        assert!(tree.avg_ops > slr.avg_ops);
    }

    #[test]
    fn pressure_stats_track_the_register_file() {
        use treegion::Heuristic;
        let m = generate(&BenchmarkSpec::tiny(31));
        let cache = FormationCache::new();
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let unbounded = pressure_stats_cached(&m, &cfg, &MachineModel::model_4u(), &cache);
        assert!(unbounded.peak > 0, "{unbounded:?}");
        assert_eq!(unbounded.parks, 0);
        assert_eq!(unbounded.spills, 0);
        // A file just below the unbounded peak forces parking without
        // pushing any region past the basic-block live-in floor (and the
        // verifier-checked schedule stays under the cap, so the reported
        // peak can only shrink).
        let cap = unbounded.peak.saturating_sub(2).max(4);
        let finite = pressure_stats_cached(
            &m,
            &cfg,
            &MachineModel::model_4u().with_gpr_file(cap),
            &cache,
        );
        assert!(finite.peak <= unbounded.peak, "{finite:?} vs {unbounded:?}");
        assert!(finite.parks > 0, "{finite:?}");
    }

    #[test]
    fn tail_duplication_expands_code() {
        let m = generate(&BenchmarkSpec::tiny(25));
        let tree = region_stats(&m, &RegionConfig::Treegion);
        let td2 = region_stats(
            &m,
            &RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        );
        let td3 = region_stats(
            &m,
            &RegionConfig::TreegionTd(TailDupLimits::expansion_3_0()),
        );
        assert!((tree.code_expansion - 1.0).abs() < 1e-12);
        assert!(td2.code_expansion >= 1.0);
        assert!(td3.code_expansion >= td2.code_expansion);
        assert!(td2.avg_blocks >= tree.avg_blocks);
    }
}
