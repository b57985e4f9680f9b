//! Region statistics (Tables 1, 2, 4), code expansion (Table 3), and
//! live-range pressure statistics (the pressure ablation's columns).

use crate::{EvalConfig, FormationCache, RegionConfig};
use treegion::{FallbackLevel, RobustResult};
use treegion_ir::{Module, RegClass};
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
/// spill-count columns — over the schedules the analytic time model
/// charged for: each region's accepted attempt, spill rounds included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Peak simultaneously-live GPRs, over all regions (a maximum, not a
    /// sum). The GPR file is the only one any preset caps.
    pub peak: u32,
    /// Ready ops deferred by the register-pressure ceiling.
    pub parks: u64,
    /// Spill ops inserted to fit the register file (0 when unbounded).
    pub spills: u64,
    /// Regions scheduled below their primary shape: re-carved into SLRs
    /// or basic blocks after the primary attempt failed.
    pub degraded: u64,
}

impl PressureStats {
    /// Adds the list scheduler's counters of one function's accepted
    /// schedules: the GPR peak by maximum, parks and spills by sum, and
    /// each degraded region once.
    pub fn add(&mut self, run: &RobustResult) {
        let mut last = None;
        for o in &run.outcomes {
            self.peak = self
                .peak
                .max(o.metrics.pressure_peak[RegClass::Gpr.index()]);
            self.parks += o.metrics.pressure_parks;
            self.spills += o.spills;
            // A degraded region's carved pieces are adjacent.
            if o.level != FallbackLevel::Primary && last != Some(o.region_index) {
                self.degraded += 1;
            }
            last = Some(o.region_index);
        }
    }
}

/// The [`PressureStats`] of `module` under `config` on `machine`, read
/// from the cell that [`crate::program_time_cached`] reads its time from:
/// the counters of the schedules the analytic time model charged for,
/// spill rounds included.
///
/// # Panics
///
/// Panics with the [`treegion::PipelineError`] when the cell's chain
/// fails (see [`crate::cell_cached`]).
pub fn pressure_stats_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    cache: &FormationCache,
) -> PressureStats {
    crate::pipeline::expect_cell(crate::cell_cached(module, config, machine, cache)).stats
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
