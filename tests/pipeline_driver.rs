//! Contracts of the unified pipeline driver (DESIGN.md §11):
//!
//! * every [`RegionConfig`] former produces a [`FormOutcome`] identical
//!   to the legacy free formation functions, across the golden corpus,
//!   the synthetic benchmarks, and fuzz seeds;
//! * the [`PassObserver`] hooks fire exactly once per stage per region,
//!   as properly nested enter/exit brackets in dataflow order, with
//!   monotonic timestamps within each region, on the robust and the
//!   strict entry alike;
//! * the eval harness's cells, which drive the robust chain from the
//!   cached front half ([`Pipeline::run_lowered`]) on every machine,
//!   return exactly what [`Pipeline::run_formed`] returns when it lowers
//!   every region itself.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;
use treegion_suite::eval::{
    sweep_cached, CellValue, EvalConfig, FormationCache, PressureStats, Suite,
};
use treegion_suite::prelude::*;
use treegion_suite::treegion::{FallbackLevel, FallbackPolicy, PipelineError};
use treegion_suite::workloads::generate_fuzz;

fn golden_corpus() -> Vec<Function> {
    let mut out = Vec::new();
    let testdata = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&testdata)
        .expect("testdata dir")
        .chain(
            std::fs::read_dir(testdata.join("repros"))
                .into_iter()
                .flatten(),
        )
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tir"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "golden corpus must not be empty");
    for p in paths {
        let text = std::fs::read_to_string(&p).unwrap();
        let m = parse_module(&text).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        out.extend(m.functions().iter().cloned());
    }
    out
}

fn fuzz_corpus() -> Vec<Function> {
    (0..8u64)
        .map(|i| 0xF0_12E0 + i * 7919)
        .flat_map(|seed| generate_fuzz(seed).functions().to_vec())
        .collect()
}

/// Structural partition equality: same regions in order, same
/// block→region assignment. (`RegionSet`'s Debug includes a hash map
/// whose print order is not deterministic, so compare piecewise.)
fn assert_same_partition(f: &Function, a: &RegionSet, b: &RegionSet, ctx: &str) {
    assert_eq!(
        format!("{:?}", a.regions()),
        format!("{:?}", b.regions()),
        "{ctx}: regions diverged"
    );
    for blk in f.block_ids() {
        assert_eq!(a.region_of(blk), b.region_of(blk), "{ctx}: block {blk}");
    }
}

/// `RegionConfig::form` must reproduce the legacy free functions exactly:
/// same (possibly transformed) function text, same region partition, same
/// origin map.
#[test]
fn region_former_matches_legacy_free_functions() {
    let mut corpus = golden_corpus();
    corpus.extend(fuzz_corpus());
    let limits = TailDupLimits::expansion_2_0();
    for f in &corpus {
        // Non-transforming formers: function untouched, identity origin.
        for (config, legacy) in [
            (RegionConfig::BasicBlock, form_basic_blocks(f)),
            (RegionConfig::Slr, form_slrs(f)),
            (RegionConfig::Treegion, form_treegions(f)),
        ] {
            let formed = config.form(f);
            assert_eq!(
                print_function(&formed.function),
                print_function(f),
                "{config:?} must not transform @{}",
                f.name()
            );
            assert_same_partition(
                f,
                &formed.regions,
                &legacy,
                &format!("{config:?} on @{}", f.name()),
            );
            for b in formed.function.block_ids() {
                assert_eq!(
                    formed.origin[b.index()],
                    b,
                    "{config:?} origin not identity"
                );
            }
        }
        // Transforming formers: match the legacy transform field for field.
        let sb = form_superblocks(f);
        let formed = RegionConfig::Superblock.form(f);
        assert_eq!(
            print_function(&formed.function),
            print_function(&sb.function)
        );
        assert_same_partition(&formed.function, &formed.regions, &sb.regions, "superblock");
        assert_eq!(formed.origin, sb.origin, "superblock origin diverged");

        let td = form_treegions_td(f, &limits);
        let formed = RegionConfig::TreegionTd(limits).form(f);
        assert_eq!(
            print_function(&formed.function),
            print_function(&td.function)
        );
        assert_same_partition(&formed.function, &formed.regions, &td.regions, "tail-dup");
        assert_eq!(formed.origin, td.origin, "tail-dup origin diverged");
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Hook {
    Enter,
    Exit,
}

/// One observer callback: which bracket, which stage, which region (None
/// for whole-function stages), and when it fired.
type Event = (Hook, Stage, Option<usize>, Instant);

/// Records every stage bracket with a wall-clock timestamp.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl PassObserver for Recorder {
    fn stage_enter(&self, stage: Stage, scope: StageScope<'_>) {
        self.events
            .lock()
            .unwrap()
            .push((Hook::Enter, stage, scope.region, Instant::now()));
    }

    fn stage_exit(
        &self,
        stage: Stage,
        scope: StageScope<'_>,
        _elapsed: std::time::Duration,
        _stats: StageStats,
    ) {
        self.events
            .lock()
            .unwrap()
            .push((Hook::Exit, stage, scope.region, Instant::now()));
    }
}

/// On a clean (fault-free, strict-verify) run every stage fires exactly
/// once per region — Formation once per function — as properly nested
/// enter/exit pairs in dataflow order with monotonic timestamps. That
/// holds for the robust entry and for the strict `schedule_function`
/// entry alike: both verify every region, in every build.
#[test]
fn observer_stages_fire_once_per_region_in_dataflow_order() {
    let machine = MachineModel::model_4u();
    let pipeline = Pipeline::with_options(&machine, RobustOptions::default());
    for f in golden_corpus() {
        let rec = Recorder::default();
        let run = pipeline
            .run_function(&f, &RegionConfig::Treegion, &rec)
            .expect("clean run");
        assert_stage_protocol(&f, run.formed.regions.len(), rec);
        let rec = Recorder::default();
        let (formed, _) = pipeline.schedule_function(&f, &RegionConfig::Treegion, &rec);
        assert_stage_protocol(&f, formed.regions.len(), rec);
    }
}

/// The bracket protocol of one function's run over `regions` regions.
fn assert_stage_protocol(f: &Function, regions: usize, rec: Recorder) {
    let events = rec.events.into_inner().unwrap();

    // Formation: exactly one enter/exit pair, region = None, and it
    // completes before any per-region stage begins.
    let formation: Vec<_> = events.iter().filter(|e| e.1 == Stage::Formation).collect();
    assert_eq!(formation.len(), 2, "formation must bracket exactly once");
    assert_eq!(
        (
            formation[0].0,
            formation[0].2,
            formation[1].0,
            formation[1].2
        ),
        (Hook::Enter, None, Hook::Exit, None)
    );
    let formation_done = formation[1].3;
    assert!(
        events
            .iter()
            .filter(|e| e.1 != Stage::Formation)
            .all(|e| e.3 >= formation_done),
        "per-region stages must not start before formation exits"
    );

    // Per region: the four per-region stages, each exactly once, in
    // dataflow order, enter before exit, timestamps monotone.
    let per_region = [
        Stage::Lowering,
        Stage::DdgBuild,
        Stage::ListSched,
        Stage::Verify,
    ];
    for r in 0..regions {
        let seq: Vec<_> = events.iter().filter(|e| e.2 == Some(r)).collect();
        let expected: Vec<(Hook, Stage)> = per_region
            .iter()
            .flat_map(|&s| [(Hook::Enter, s), (Hook::Exit, s)])
            .collect();
        assert_eq!(
            seq.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>(),
            expected,
            "region {r} of @{} fired out of order",
            f.name()
        );
        for w in seq.windows(2) {
            assert!(
                w[1].3 >= w[0].3,
                "region {r} of @{}: non-monotonic timestamps",
                f.name()
            );
        }
    }
    // Nothing else fired.
    let per_region_events: usize = (0..regions)
        .map(|r| events.iter().filter(|e| e.2 == Some(r)).count())
        .sum();
    assert_eq!(events.len(), 2 + per_region_events, "stray observer events");
}

/// What [`run_formed_reference`] computes for one cell.
#[derive(Debug)]
struct Reference {
    time: f64,
    stats: PressureStats,
}

/// The time and pressure statistics of one module the way the harness
/// computed them before it reused the cached front half: every function
/// formed and driven through [`Pipeline::run_formed`] on `machine` alone
/// under the cells' options (strict verification, the fallback ladder
/// only on finite files); or the first function's error. The statistics
/// are folded here from the accepted outcomes, and checked against a
/// [`Profiler`]'s list-scheduling report of the same runs: equal where
/// no region degraded, and no larger where one did (the profiler also
/// counts the pieces of a failed rung that scheduled).
fn run_formed_reference(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
) -> Result<Reference, PipelineError> {
    let p = Pipeline::with_options(
        machine,
        RobustOptions {
            sched: config.sched_options(),
            fallback: if machine.has_finite_regs() {
                FallbackPolicy::default()
            } else {
                FallbackPolicy::None
            },
            ..Default::default()
        },
    );
    let prof = Profiler::new();
    let mut stats = PressureStats::default();
    let (mut times, mut any_peak, mut degraded) = (Vec::new(), 0, false);
    for f in module.functions() {
        let formed = p.form(f, &config.region, &NullObserver);
        let run = p.run_formed(&formed, &prof)?;
        times.push(run.estimated_time());
        degraded |= !run.events.is_empty();
        let mut below: Vec<usize> = Vec::new();
        for o in &run.outcomes {
            any_peak = any_peak.max(o.metrics.pressure_peak.into_iter().max().unwrap());
            stats.peak = stats
                .peak
                .max(o.metrics.pressure_peak[RegClass::Gpr.index()]);
            stats.parks += o.metrics.pressure_parks;
            stats.spills += o.spills;
            if o.level != FallbackLevel::Primary && !below.contains(&o.region_index) {
                below.push(o.region_index);
            }
        }
        stats.degraded += below.len() as u64;
    }
    let ls = prof
        .report()
        .into_iter()
        .find(|s| s.stage == Stage::ListSched)
        .expect("profiler reports every stage")
        .stats;
    let profiled = (ls.pressure_peak, ls.pressure_parks, ls.spills);
    let folded = (any_peak, stats.parks, stats.spills);
    if degraded {
        assert!(
            profiled.0 >= folded.0 && profiled.1 >= folded.1 && profiled.2 >= folded.2,
            "{}: profiler {profiled:?} below the accepted outcomes' {folded:?}",
            module.name()
        );
    } else {
        assert_eq!(profiled, folded, "{}: profiler vs outcomes", module.name());
    }
    Ok(Reference {
        time: times.into_iter().sum(),
        stats,
    })
}

/// The harness's cells — `sweep_cached`, behind `program_time_cached`,
/// `pressure_stats_cached` and the pressure tables, which drives the
/// robust chain from the cached front half and fills every capped file
/// of a sweep by re-running only the regions the file binds — equal the
/// `run_formed` path bit for bit: times, pressure statistics, and the
/// error of a cell whose chain fails. Inputs: the reduced suite, the
/// pressure stressor and two tiny modules, on symmetric and asymmetric
/// machines, unbounded and at GPR files of 64, 32, 16 and 12, for basic
/// blocks and treegions under global weight (plus dependence height and
/// `pressure` on treegions on the asymmetric machine). Each is swept
/// twice on a fresh cache: all files in one sweep, as the harness does,
/// and one file at a time, smallest first, so every finite cell is
/// computed before its unbounded twin is requested (that cell then comes
/// from the first sweep's own run).
#[test]
fn cached_front_half_matches_run_formed_under_finite_registers() {
    let mut modules = Suite::load_small(2).modules;
    modules.push(generate(&BenchmarkSpec::pressure()));
    modules.extend([5u64, 7].map(|seed| generate(&BenchmarkSpec::tiny(seed))));
    let files = [None, Some(64), Some(32), Some(16), Some(12)];
    let (mut spilled, mut degraded, mut failed) = (false, false, false);
    let global = |region| EvalConfig::new(region, Heuristic::GlobalWeight);
    for base in [
        MachineModel::model_1u(),
        MachineModel::model_4u_asym(),
        MachineModel::model_8u(),
    ] {
        let mut configs = vec![
            global(RegionConfig::BasicBlock),
            global(RegionConfig::Treegion),
        ];
        if base.name() == "4U-asym" {
            configs.extend(
                [Heuristic::DependenceHeight, Heuristic::RegPressure]
                    .map(|h| EvalConfig::new(RegionConfig::Treegion, h)),
            );
        }
        for config in &configs {
            for m in &modules {
                let machines: Vec<MachineModel> = files
                    .iter()
                    .map(|f| f.map_or(base.clone(), |cap| base.with_gpr_file(cap)))
                    .collect();
                let references: Vec<_> = machines
                    .iter()
                    .map(|machine| run_formed_reference(m, config, machine))
                    .collect();
                let mut check = |k: usize, cell: Result<CellValue, PipelineError>| {
                    let tag = format!("{} {config:?} on {}", m.name(), machines[k]);
                    match (&references[k], cell) {
                        (Ok(r), Ok(cell)) => {
                            assert_eq!(cell.time.to_bits(), r.time.to_bits(), "{tag}: time");
                            assert_eq!(cell.stats, r.stats, "{tag}: pressure statistics");
                            spilled |= r.stats.spills > 0;
                            degraded |= r.stats.degraded > 0;
                        }
                        (Err(e), Err(cell)) => {
                            assert_eq!(cell, *e, "{tag}: error");
                            failed = true;
                        }
                        (r, c) => panic!("{tag}: reference {r:?} but cell {c:?}"),
                    }
                };
                let cache = FormationCache::new();
                for (k, cell) in sweep_cached(m, config, &base, &files, &cache)
                    .into_iter()
                    .enumerate()
                {
                    check(k, cell);
                }
                let cache = FormationCache::new();
                for k in (0..files.len()).rev() {
                    let cell = sweep_cached(m, config, &base, &files[k..=k], &cache).pop();
                    check(k, cell.expect("one cell per file"));
                }
            }
        }
    }
    assert!(spilled, "no cell spilled: the spill rounds went untested");
    assert!(
        degraded,
        "no cell degraded: the fallback ladder went untested"
    );
    assert!(failed, "no cell failed: the error path went untested");
}
