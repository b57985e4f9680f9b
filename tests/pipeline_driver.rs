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
    pressure_stats_cached, program_time_cached, EvalConfig, FormationCache, PressureStats, Suite,
};
use treegion_suite::prelude::*;
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

/// The time and pressure statistics of one module the way the harness
/// computed them before it reused the cached front half: every function
/// formed and driven through [`Pipeline::run_formed`] under one
/// [`Profiler`].
fn run_formed_reference(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
) -> (f64, PressureStats) {
    let p = Pipeline::with_options(
        machine,
        RobustOptions {
            sched: config.sched_options(),
            ..Default::default()
        },
    );
    let prof = Profiler::new();
    let time = module
        .functions()
        .iter()
        .map(|f| {
            let formed = p.form(f, &config.region, &NullObserver);
            p.run_formed(&formed, &prof)
                .expect("robust chain schedules every function")
                .estimated_time()
        })
        .sum();
    let ls = prof
        .report()
        .into_iter()
        .find(|s| s.stage == Stage::ListSched)
        .expect("profiler reports every stage");
    let stats = PressureStats {
        peak: ls.stats.pressure_peak,
        parks: ls.stats.pressure_parks,
        spills: ls.stats.spills,
    };
    (time, stats)
}

/// The harness's cells — `program_time_cached` and
/// `pressure_stats_cached`, which drive the robust chain from the cached
/// front half for every machine — equal the `run_formed` path bit for
/// bit, over the reduced suite plus the pressure stressor, on symmetric
/// and asymmetric machines, with unbounded files and at both ablation
/// file sizes, for basic blocks and treegions.
#[test]
fn cached_front_half_matches_run_formed_under_finite_registers() {
    let mut modules = Suite::load_small(2).modules;
    modules.push(generate(&BenchmarkSpec::pressure()));
    let cache = FormationCache::new();
    let mut spilled = false;
    for base in [
        MachineModel::model_1u(),
        MachineModel::model_4u_asym(),
        MachineModel::model_8u(),
    ] {
        for machine in [base.clone(), base.with_gpr_file(64), base.with_gpr_file(32)] {
            for region in [RegionConfig::BasicBlock, RegionConfig::Treegion] {
                let config = EvalConfig::new(region, Heuristic::GlobalWeight);
                for m in &modules {
                    let tag = format!("{} {region:?} on {machine}", m.name());
                    let (time, stats) = run_formed_reference(m, &config, &machine);
                    let cached = program_time_cached(m, &config, &machine, &cache);
                    assert_eq!(cached.to_bits(), time.to_bits(), "{tag}: time");
                    let cached = pressure_stats_cached(m, &config, &machine, &cache);
                    assert_eq!(cached, stats, "{tag}: pressure statistics");
                    spilled |= stats.spills > 0;
                }
            }
        }
    }
    assert!(spilled, "no cell spilled: the spill rounds went untested");
}
