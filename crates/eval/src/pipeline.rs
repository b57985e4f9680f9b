//! The compile pipeline shared by every experiment — a thin veneer over
//! the core [`treegion::Pipeline`] driver.
//!
//! Formation goes through [`treegion::RegionFormer`] (the
//! [`RegionConfig`] enum implements it), and every region is scheduled
//! by the driver's verifier-gated chain:
//! [`treegion::Pipeline::run_lowered_files`] on the [`FormationCache`]'s
//! front half for the analytic cells (one machine under several GPR
//! files at once), and [`treegion::Pipeline::run_module`]
//! for [`program_time_robust`]. The evaluation-specific parts that
//! remain are the cell memoization and the analytic time/speedup
//! aggregation. Cells live in the cache's single-flight cell layer
//! ([`FormationCache::cells`]), which holds each cell's time and
//! pressure statistics; a cell is scheduled when it is first asked for,
//! the 1U baselines included, so loading a suite schedules nothing.

use crate::cache::CellValue;
use crate::stats::PressureStats;
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
/// strict verification, and the fallback ladder of
/// [`cell_fallback`] for `machine`'s files.
pub(crate) fn cell_options(config: &EvalConfig, machine: &MachineModel) -> RobustOptions {
    RobustOptions {
        sched: config.sched_options(),
        fallback: cell_fallback(machine.has_finite_regs()),
        ..Default::default()
    }
}

/// The fallback ladder of an analytic cell: the default ladder only where
/// a finite register file can leave a region no primary schedule. On
/// unbounded files a region that fails at its primary shape is an error,
/// not a silent re-carve that would change the number the cell reports.
fn cell_fallback(finite_files: bool) -> FallbackPolicy {
    if finite_files {
        FallbackPolicy::default()
    } else {
        FallbackPolicy::None
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
/// lowering are shared across heuristics/machines, and the cell across
/// repeated requests (several figures share columns). The summation
/// order — per region, then per function — is identical to the uncached
/// path, so the result is bit-for-bit the same whether the cache is
/// enabled, disabled, warm or cold.
///
/// # Panics
///
/// Panics with the [`PipelineError`] when a region fails every rung the
/// cell's options allow (see [`cell_cached`]).
pub fn program_time_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    cache: &FormationCache,
) -> f64 {
    expect_cell(cell_cached(module, config, machine, cache)).time
}

/// One analytic cell — `module`'s estimated time and pressure statistics
/// under `config` on `machine` — through the [`FormationCache`]'s cell
/// layer: [`sweep_cached`] over `machine` alone.
///
/// # Errors
///
/// The first function's [`PipelineError`], in module order, when the
/// chain fails on it.
pub fn cell_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    cache: &FormationCache,
) -> Result<CellValue, PipelineError> {
    sweep_cached(module, config, machine, &[None], cache)
        .pop()
        .expect("one cell per file")
}

/// Panics with a failed cell's [`PipelineError`].
pub(crate) fn expect_cell(cell: Result<CellValue, PipelineError>) -> CellValue {
    cell.unwrap_or_else(|e| panic!("{e}"))
}

/// The cells of `module` under `config` on `machine` under each GPR file
/// of `files` — `None` is `machine` as it is, `Some(cap)` is it with a
/// `cap`-entry file ([`MachineModel::with_gpr_file`]) — in one sweep:
/// the chain runs once on `machine`, and each capped file re-runs it only
/// on the regions it binds ([`Pipeline::run_lowered_files`]). Cells
/// already in `cache` are not recomputed; the sweep stores `machine`'s
/// own cell too. Each value equals what the chain gives on that machine
/// alone: the time summed per region, then per function, and the
/// pressure statistics folded from the accepted schedules; a capped file
/// whose chain fails on a function is not swept over the later ones, its
/// cell being that first error. Every cell the harness prints comes from
/// here.
///
/// # Panics
///
/// Panics if `files` holds a capped file while `machine` has a finite
/// register file.
pub fn sweep_cached(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    files: &[Option<u32>],
    cache: &FormationCache,
) -> Vec<Result<CellValue, PipelineError>> {
    cache.cells(module, config, machine, files, |missing| {
        let caps: Vec<u32> = missing.iter().flatten().copied().collect();
        let p = Pipeline::with_options(machine, cell_options(config, machine));
        // One running cell per machine, `machine` first, then the caps;
        // a capped file leaves the sweep at its first error.
        let mut cells: Vec<Result<CellValue, PipelineError>> = vec![
            Ok(CellValue {
                time: 0.0,
                stats: PressureStats::default(),
            });
            caps.len() + 1
        ];
        for ff in &cache.formation(module, &config.region).functions {
            let live: Vec<usize> = (1..cells.len()).filter(|&k| cells[k].is_ok()).collect();
            let live_caps: Vec<u32> = live.iter().map(|&k| caps[k - 1]).collect();
            let runs = p.run_lowered_files(
                &ff.formed,
                &ff.front,
                &live_caps,
                cell_fallback(true),
                &treegion::NullObserver,
            );
            for (k, run) in std::iter::once(0).chain(live).zip(runs) {
                if let Ok(cell) = &mut cells[k] {
                    match run {
                        Ok(run) => {
                            cell.time += run.estimated_time();
                            cell.stats.add(&run);
                        }
                        Err(e) => cells[k] = Err(e),
                    }
                }
            }
        }
        let mut capped = 0;
        missing
            .iter()
            .map(|file| match file {
                Some(_) => {
                    capped += 1;
                    cells[capped].clone()
                }
                None => cells[0].clone(),
            })
            .collect()
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
