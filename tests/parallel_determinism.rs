//! Determinism contract of the parallel + memoized evaluation engine.
//!
//! Parallelism and caching may only ever change *when* something is
//! computed — never *what*. These tests pin that down end to end:
//!
//! * schedules rendered at `jobs=1` and `jobs=8` are byte-identical;
//! * every report table rendered at `jobs=1` and `jobs=8` is
//!   byte-identical;
//! * tables produced through an enabled [`FormationCache`] equal the
//!   tables produced with caching disabled, byte for byte;
//! * the robust (degradation-chain) pipeline returns identical results
//!   at any job count;
//! * the list scheduler's hazard, deferral, pressure and spill counters
//!   reach a [`Profiler`] with the same totals at any job count.
//!
//! `treegion_par::set_jobs` is process-global, so every test that touches
//! it holds `JOBS_LOCK` (the default test harness runs tests on several
//! threads) and leaves the process in `jobs=1` afterwards.

use std::sync::{Mutex, MutexGuard};
use treegion_suite::eval::{
    fig13, fig6, fig8, form_function, schedule_function, table1, table3, RegionConfig, Suite,
};
use treegion_suite::prelude::*;
use treegion_suite::treegion::RobustOptions;

static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn jobs_lock() -> MutexGuard<'static, ()> {
    JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `body` under an explicit job count, restoring serial mode after.
fn with_jobs<R>(n: usize, body: impl FnOnce() -> R) -> R {
    treegion_suite::par::set_jobs(n);
    let r = body();
    treegion_suite::par::set_jobs(1);
    r
}

/// Renders every region schedule of every function of `module` under one
/// configuration into a single string.
fn render_module_schedules(module: &Module) -> String {
    let machine = MachineModel::model_4u();
    let mut out = String::new();
    for f in module.functions() {
        for config in [
            RegionConfig::BasicBlock,
            RegionConfig::Treegion,
            RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        ] {
            let formed = form_function(f, &config);
            for s in schedule_function(&formed, &machine, Heuristic::GlobalWeight, false) {
                out.push_str(&render_schedule(&s.lowered, &s.schedule, &machine));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn schedules_are_byte_identical_at_any_job_count() {
    let _g = jobs_lock();
    let module = generate(&BenchmarkSpec::tiny(29));
    let serial = with_jobs(1, || render_module_schedules(&module));
    for jobs in [2, 8] {
        let parallel = with_jobs(jobs, || render_module_schedules(&module));
        assert_eq!(serial, parallel, "schedules diverged at jobs={jobs}");
    }
}

/// Renders a representative slice of the paper's tables/figures.
fn render_tables(suite: &Suite) -> String {
    let m4 = MachineModel::model_4u();
    [
        table1(suite).render(),
        table3(suite).render(),
        fig6(suite, &m4).render(),
        fig8(suite, &m4).render(),
        fig13(suite, &m4).render(),
    ]
    .join("\n")
}

#[test]
fn tables_are_byte_identical_at_any_job_count() {
    let _g = jobs_lock();
    let serial = with_jobs(1, || render_tables(&Suite::load_small(1)));
    let parallel = with_jobs(8, || render_tables(&Suite::load_small(1)));
    assert_eq!(serial, parallel);
}

#[test]
fn tables_are_byte_identical_with_and_without_cache() {
    let _g = jobs_lock();
    let cached = render_tables(&Suite::load_small(1));
    let uncached = render_tables(&Suite::load_small_uncached(1));
    assert_eq!(cached, uncached);
}

#[test]
fn robust_pipeline_is_identical_at_any_job_count() {
    let _g = jobs_lock();
    let module = generate(&BenchmarkSpec::tiny(31));
    let machine = MachineModel::model_4u();
    let run = || {
        let pipeline = Pipeline::with_options(&machine, RobustOptions::default());
        let mut times = Vec::new();
        for f in module.functions() {
            let regions = form_treegions(f);
            let r = pipeline
                .run_set(f, &regions, None, &NullObserver)
                .expect("robust scheduling succeeds");
            // Bitwise comparison: estimated times are f64 sums whose
            // order must not depend on the job count.
            times.push((r.estimated_time().to_bits(), r.outcomes.len()));
        }
        times
    };
    let serial = with_jobs(1, run);
    let parallel = with_jobs(8, run);
    assert_eq!(serial, parallel);
}

/// Runs the contained evaluation harness (no faults) over two fast cells.
fn contained_merged(checkpoint: Option<std::path::PathBuf>) -> String {
    use treegion_suite::eval::{run_harness, HarnessOptions};
    let opts = HarnessOptions {
        small: Some(1),
        checkpoint_dir: checkpoint,
        only: vec!["table1".into(), "fig6@4u".into()],
        ..HarnessOptions::default()
    };
    let report = run_harness(&opts).expect("clean contained run");
    assert!(!report.has_contained_failures());
    assert!(report.events.is_empty());
    report.merged_output()
}

#[test]
fn contained_harness_is_identical_at_any_job_count() {
    let _g = jobs_lock();
    let serial = with_jobs(1, || contained_merged(None));
    let parallel = with_jobs(8, || contained_merged(None));
    assert_eq!(serial, parallel);
}

#[test]
fn containment_and_checkpointing_do_not_perturb_results() {
    let _g = jobs_lock();
    // Plain harness (no containment envelope at all) ...
    let suite = Suite::load_small(1);
    let plain = format!(
        "{}\n{}\n",
        table1(&suite).render(),
        fig6(&suite, &MachineModel::model_4u()).render()
    );
    // ... versus the contained runner with checkpointing off and on.
    let off = contained_merged(None);
    let dir = std::env::temp_dir().join(format!("tgc-det-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let on = contained_merged(Some(dir.clone()));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(plain, off, "containment must not change results");
    assert_eq!(off, on, "checkpointing must not change results");
}

/// The list scheduler's counters reach a [`Profiler`] through the robust
/// chain unchanged at any job count: compress (`spec_suite()[0]`), every
/// function formed into treegions and scheduled with global weight on
/// the asymmetric 4-wide machine with a 16-entry GPR file — tight enough
/// to park on structural hazards, park on register pressure and spill.
/// These are the totals `tgc schedule --machine 4u-asym --reg-file 16
/// --profile` reports for `tgc gen compress`.
#[test]
fn list_sched_counters_are_identical_at_any_job_count() {
    let _g = jobs_lock();
    let module = generate(&spec_suite()[0]);
    let machine = MachineModel::model_4u_asym().with_gpr_file(16);
    let run = || {
        let pipeline = Pipeline::new(&machine);
        let profiler = Profiler::new();
        for f in module.functions() {
            pipeline
                .run_function(f, &RegionConfig::Treegion, &profiler)
                .expect("compress schedules");
        }
        profiler
            .report()
            .into_iter()
            .find(|p| p.stage == Stage::ListSched)
            .expect("list-sched stage reported")
    };
    for jobs in [1, 2] {
        let p = with_jobs(jobs, run);
        assert_eq!(p.calls, 42, "jobs={jobs}");
        assert_eq!(
            p.stats,
            StageStats {
                regions: 42,
                ops: 944,
                edges: 1596,
                hazard_hits: 107,
                deferral_parks: 107,
                pressure_peak: 16,
                pressure_parks: 109,
                spills: 3,
            },
            "jobs={jobs}"
        );
    }
}
