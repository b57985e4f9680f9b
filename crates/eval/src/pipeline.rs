//! The compile pipeline shared by every experiment — a thin veneer over
//! the core [`treegion::Pipeline`] driver.
//!
//! Formation goes through [`treegion::RegionFormer`] (the
//! [`RegionConfig`] enum implements it), and every region is scheduled
//! by the driver's verifier-gated chain: [`treegion::Pipeline::run_lowered`]
//! on the [`FormationCache`]'s front half for the analytic cells, and
//! [`treegion::Pipeline::run_module`] for [`program_time_robust`]. The
//! evaluation-specific parts that remain are the cell memoization and the
//! analytic time/speedup aggregation.

use crate::{EvalConfig, FormationCache, RegionConfig};
use treegion::{
    EventLog, FallbackPolicy, FormOutcome, Heuristic, Pipeline, PipelineError, RegionFormer,
    RobustOptions,
};
use treegion_ir::{Function, Module};
use treegion_machine::MachineModel;

/// A whole-module robust scheduling run: the analytic time plus every
/// degradation the chain survived (re-export of the driver's aggregate).
pub use treegion::ModuleRun as RobustModuleReport;

/// Applies `config`'s region formation to one function (stage 1 of the
/// driver, unobserved).
pub fn form_function(f: &Function, config: &RegionConfig) -> FormOutcome {
    config.form(f)
}

/// The driver options of one analytic cell: `config`'s scheduler options,
/// strict verification, and the fallback ladder only where a finite
/// register file can leave a region no primary schedule. On unbounded
/// files a region that fails at its primary shape is an error, not a
/// silent re-carve that would change the number the cell reports.
pub(crate) fn cell_options(config: &EvalConfig, machine: &MachineModel) -> RobustOptions {
    RobustOptions {
        sched: config.sched_options(),
        fallback: if machine.has_finite_regs() {
            FallbackPolicy::default()
        } else {
            FallbackPolicy::None
        },
        ..Default::default()
    }
}

/// [`program_time`] through the robust pipeline: drives every function
/// through [`Pipeline::run_module`] with the degradation chain and
/// aggregates both the analytic time and the
/// [`treegion::DegradationEvent`]s into one report. The event stream is
/// sourced from the [`treegion::PassObserver`] hooks (an [`EventLog`]),
/// which the driver fires at the merge point in region order — identical
/// at any job count.
///
/// # Errors
///
/// Returns the first terminal [`PipelineError`].
pub fn program_time_robust(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    robust: &RobustOptions,
) -> Result<RobustModuleReport, PipelineError> {
    let log = EventLog::new();
    let opts = RobustOptions {
        sched: config.sched_options(),
        ..robust.clone()
    };
    let mut run = Pipeline::with_options(machine, opts).run_module(module, &config.region, &log)?;
    // Report the observer's stream (byte-identical to the driver's own
    // aggregate by the merge-point ordering contract, asserted in tests).
    run.events = log.take_degradations();
    Ok(run)
}

/// Estimated execution time of a whole module under a configuration:
/// Σ over functions Σ over regions Σ over exits (count × schedule height).
pub fn program_time(module: &Module, config: &EvalConfig, machine: &MachineModel) -> f64 {
    program_time_cached(module, config, machine, &FormationCache::disabled())
}

/// [`program_time`] through a [`FormationCache`]: formation, liveness and
/// lowering are shared across heuristics/machines, and the final scalar
/// across repeated cells (several figures share columns). The summation
/// order — per region, then per function — is identical to the uncached
/// path, so the result is bit-for-bit the same whether the cache is
/// enabled, disabled, warm or cold.
pub fn program_time_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    cache: &FormationCache,
) -> f64 {
    cache.time(module, config, machine, || {
        // Every region runs the verifier-gated chain from the cached front
        // half; under a finite file, pressure livelocks are recovered by
        // spill insertion (whose cycles are part of the region's cost) and
        // irreducible overflows degrade down the SLR→BB ladder.
        let p = Pipeline::with_options(machine, cell_options(config, machine));
        cache
            .formation(module, &config.region)
            .functions
            .iter()
            .map(|ff| {
                p.run_lowered(&ff.formed, &ff.front, &treegion::NullObserver)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .estimated_time()
            })
            .sum()
    })
}

/// The paper's baseline: basic-block scheduling on the 1-issue machine.
pub fn baseline_time(module: &Module) -> f64 {
    baseline_time_cached(module, &FormationCache::disabled())
}

/// [`baseline_time`] through a [`FormationCache`].
pub fn baseline_time_cached(module: &Module, cache: &FormationCache) -> f64 {
    program_time_cached(
        module,
        &EvalConfig::new(RegionConfig::BasicBlock, Heuristic::DependenceHeight),
        &MachineModel::model_1u(),
        cache,
    )
}

/// Speedup of `config` on `machine` over the 1U basic-block baseline.
pub fn speedup(module: &Module, config: &EvalConfig, machine: &MachineModel) -> f64 {
    baseline_time(module) / program_time(module, config, machine)
}

/// Speedup with a precomputed baseline (reuse across configs).
pub fn speedup_with_baseline(
    module: &Module,
    baseline: f64,
    config: &EvalConfig,
    machine: &MachineModel,
) -> f64 {
    baseline / program_time(module, config, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion::TailDupLimits;
    use treegion_workloads::{generate, BenchmarkSpec};

    #[test]
    fn all_region_configs_form_valid_partitions() {
        let m = generate(&BenchmarkSpec::tiny(9));
        for cfg in [
            RegionConfig::BasicBlock,
            RegionConfig::Slr,
            RegionConfig::Superblock,
            RegionConfig::Treegion,
            RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        ] {
            for f in m.functions() {
                let formed = form_function(f, &cfg);
                assert!(formed.regions.is_partition_of(&formed.function), "{cfg:?}");
                treegion_ir::verify_profile(&formed.function).unwrap();
            }
        }
    }

    #[test]
    fn wider_issue_never_slows_a_program_down() {
        let m = generate(&BenchmarkSpec::tiny(11));
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::DependenceHeight);
        let t1 = program_time(&m, &cfg, &MachineModel::model_1u());
        let t4 = program_time(&m, &cfg, &MachineModel::model_4u());
        let t8 = program_time(&m, &cfg, &MachineModel::model_8u());
        assert!(t4 <= t1 && t8 <= t4, "t1={t1} t4={t4} t8={t8}");
    }

    #[test]
    fn speedup_of_baseline_config_is_one() {
        let m = generate(&BenchmarkSpec::tiny(13));
        let cfg = EvalConfig::new(RegionConfig::BasicBlock, Heuristic::DependenceHeight);
        let s = speedup(&m, &cfg, &MachineModel::model_1u());
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn robust_time_matches_plain_time_without_faults() {
        let m = generate(&BenchmarkSpec::tiny(19));
        let machine = MachineModel::model_4u();
        for region in [
            RegionConfig::BasicBlock,
            RegionConfig::Slr,
            RegionConfig::Superblock,
            RegionConfig::Treegion,
            RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        ] {
            let cfg = EvalConfig::new(region, Heuristic::GlobalWeight);
            let plain = program_time(&m, &cfg, &machine);
            let robust =
                program_time_robust(&m, &cfg, &machine, &RobustOptions::default()).unwrap();
            assert_eq!(robust.time, plain, "{:?}", cfg.region);
            assert!(robust.events.is_empty());
        }
    }

    #[test]
    fn robust_run_with_faults_records_events_and_still_completes() {
        use treegion::FaultPlan;
        let m = generate(&BenchmarkSpec::tiny(23));
        let machine = MachineModel::model_4u();
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let opts = RobustOptions {
            fault: Some(FaultPlan::from_seed(42)),
            ..Default::default()
        };
        let report = program_time_robust(&m, &cfg, &machine, &opts)
            .expect("fallback chain must absorb every injected fault");
        assert!(report.time > 0.0);
        assert!(report.tolerated() == 0);
        // A full fault campaign over a generated module must trip the
        // verifier at least once.
        assert!(report.recovered() > 0, "no fault manifested");
        let table = crate::report::degradation_table(&report.events).render();
        assert!(table.contains("degraded"), "{table}");
    }

    #[test]
    fn observer_event_stream_matches_driver_aggregate() {
        use treegion::FaultPlan;
        let m = generate(&BenchmarkSpec::tiny(29));
        let machine = MachineModel::model_4u();
        let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
        let robust = RobustOptions {
            fault: Some(FaultPlan::from_seed(5)),
            ..Default::default()
        };
        // Same run twice: once reporting the observer's stream (the
        // public entry point) and once reading the driver's own aggregate.
        let observed = program_time_robust(&m, &cfg, &machine, &robust).unwrap();
        let opts = RobustOptions {
            sched: cfg.sched_options(),
            ..robust
        };
        let direct = Pipeline::with_options(&machine, opts)
            .run_module(&m, &cfg.region, &treegion::NullObserver)
            .unwrap();
        assert_eq!(observed.time, direct.time);
        assert_eq!(observed.events.len(), direct.events.len());
        for (a, b) in observed.events.iter().zip(&direct.events) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn treegions_beat_basic_blocks_on_wide_machines() {
        let m = generate(&BenchmarkSpec::tiny(17));
        let base = baseline_time(&m);
        let bb = speedup_with_baseline(
            &m,
            base,
            &EvalConfig::new(RegionConfig::BasicBlock, Heuristic::DependenceHeight),
            &MachineModel::model_4u(),
        );
        let tree = speedup_with_baseline(
            &m,
            base,
            &EvalConfig::new(RegionConfig::Treegion, Heuristic::DependenceHeight),
            &MachineModel::model_4u(),
        );
        assert!(tree >= bb, "tree {tree} < bb {bb}");
    }
}
