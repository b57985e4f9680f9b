//! The staged pipeline driver: formation → lowering → DDG → list
//! scheduling → verification → degradation, behind one instrumented
//! entry point.
//!
//! The paper's Fig. 2/3 flow is one pipeline, but the repo historically
//! drove it from three divergent stacks (the eval crate's ad-hoc
//! helpers, the robust chain, and the CLI) plus a dozen figure binaries
//! that re-wired the stages by hand. [`Pipeline`] is the single driver
//! they all share now: it owns the stage order, threads a
//! [`PassObserver`] through every stage, and exposes both the
//! *infallible* staged kernels (for caching drivers that want to reuse
//! intermediate artifacts) and the *robust* verifier-gated chain (the
//! Primary→SLR→BB policy of [`crate::RobustOptions`]).
//!
//! Byte-identity contract: every method composes exactly the kernels the
//! legacy call sites used (`lower_region`, `Ddg::build`,
//! `schedule_with_ddg`, the robust chain), fans out across
//! `treegion_par` with order-preserving merges, and adds only observer
//! bracketing — so outputs are bit-for-bit what the pre-pipeline stacks
//! produced, at any job count.

use crate::ddg::Ddg;
use crate::error::{Budgets, SchedFailure};
use crate::error::{DegradationEvent, PipelineError};
use crate::former::{FormOutcome, RegionFormer};
use crate::lower::{lower_region, LoweredRegion};
use crate::observe::{PassObserver, Stage, StageScope, StageStats};
use crate::region::RegionSet;
use crate::robust::{run_robust, RobustOptions, RobustResult, MAX_SPILL_ROUNDS};
use crate::sched::{schedule_with_ddg, try_schedule_with_ddg, Schedule};
use std::time::Instant;
use treegion_analysis::{Cfg, Liveness};
use treegion_ir::{BlockId, Function, Module};
use treegion_machine::MachineModel;

/// A function's regions after lowering: the analysis artifacts plus one
/// [`LoweredRegion`] per region, in region order. Caching drivers keep
/// these around and re-schedule them under many heuristics/machines.
#[derive(Clone, Debug)]
pub struct LoweredFunction {
    /// The function's CFG.
    pub cfg: Cfg,
    /// Liveness over that CFG.
    pub live: Liveness,
    /// One lowered region per region of the partition, in region order.
    pub lowered: Vec<LoweredRegion>,
}

/// A scheduled region with its lowering — one element of the infallible
/// staged path's output.
#[derive(Clone, Debug)]
pub struct RegionSchedule {
    /// Lowered form.
    pub lowered: LoweredRegion,
    /// Its schedule.
    pub schedule: Schedule,
}

/// The result of driving one function end to end through the robust
/// pipeline: the formation outcome plus the accepted schedules/events.
#[derive(Clone, Debug)]
pub struct FunctionRun {
    /// What formation produced (possibly a transformed function).
    pub formed: FormOutcome,
    /// The robust chain's accepted schedules and survived events.
    pub result: RobustResult,
}

/// The result of driving a whole module through the robust pipeline.
#[derive(Clone, Debug, Default)]
pub struct ModuleRun {
    /// Total estimated execution time (Σ count × height over accepted
    /// schedules, including fallback pieces).
    pub time: f64,
    /// Number of accepted (sub-)region schedules.
    pub regions: usize,
    /// Every recovered or tolerated failure, across all functions, in
    /// pipeline order (the same stream [`PassObserver::degradation`]
    /// observes).
    pub events: Vec<DegradationEvent>,
}

impl ModuleRun {
    /// Events that fell back to a simpler region shape.
    pub fn recovered(&self) -> usize {
        self.events.iter().filter(|e| e.recovered).count()
    }

    /// Events tolerated under `--verify warn` (schedule kept unverified).
    pub fn tolerated(&self) -> usize {
        self.events.iter().filter(|e| !e.recovered).count()
    }
}

/// Stages 1–2 without a machine: formation and lowering are
/// machine-independent, so caching drivers (which share one formation
/// across heuristics and machines) drive the front half directly.
/// Observer-bracketed exactly as [`Pipeline::form`] / [`Pipeline::lower`]
/// — this *is* the driver's front half, not a bypass.
pub fn form_and_lower(
    f: &Function,
    former: &dyn RegionFormer,
    obs: &dyn PassObserver,
) -> (FormOutcome, LoweredFunction) {
    let formed = stage_form(f, former, obs);
    let lowered = stage_lower_set(&formed.function, &formed.regions, Some(&formed.origin), obs);
    (formed, lowered)
}

/// Stage 1 implementation shared by [`Pipeline::form`] and
/// [`form_and_lower`].
fn stage_form(f: &Function, former: &dyn RegionFormer, obs: &dyn PassObserver) -> FormOutcome {
    let scope = StageScope {
        function: f.name(),
        region: None,
    };
    obs.stage_enter(Stage::Formation, scope);
    let t = Instant::now();
    let out = former.form(f);
    obs.stage_exit(
        Stage::Formation,
        scope,
        t.elapsed(),
        StageStats {
            regions: out.regions.len(),
            ops: out.function.num_ops(),
            edges: 0,
            ..StageStats::default()
        },
    );
    out
}

/// Stage 2 implementation shared by [`Pipeline::lower_set`] and
/// [`form_and_lower`]: fans the per-region lowering out across the
/// worker budget; results in region order.
fn stage_lower_set(
    f: &Function,
    set: &RegionSet,
    origin: Option<&[BlockId]>,
    obs: &dyn PassObserver,
) -> LoweredFunction {
    let cfg = Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    let indexed: Vec<usize> = (0..set.len()).collect();
    let lowered = treegion_par::par_map(&indexed, |&idx| {
        stage_lower_one(f, set, &live, origin, idx, obs)
    });
    LoweredFunction { cfg, live, lowered }
}

fn stage_lower_one(
    f: &Function,
    set: &RegionSet,
    live: &Liveness,
    origin: Option<&[BlockId]>,
    idx: usize,
    obs: &dyn PassObserver,
) -> LoweredRegion {
    let scope = StageScope {
        function: f.name(),
        region: Some(idx),
    };
    obs.stage_enter(Stage::Lowering, scope);
    let t = Instant::now();
    let lr = lower_region(f, &set.regions()[idx], live, origin);
    obs.stage_exit(
        Stage::Lowering,
        scope,
        t.elapsed(),
        StageStats {
            regions: 1,
            ops: lr.num_ops(),
            edges: 0,
            ..StageStats::default()
        },
    );
    lr
}

/// The unified formation → schedule → verify driver.
///
/// Construct one per (machine, options) pair — it is two words plus the
/// options, so per-cell construction in the eval harness is free.
#[derive(Clone, Debug)]
pub struct Pipeline<'m> {
    machine: &'m MachineModel,
    options: RobustOptions,
}

impl<'m> Pipeline<'m> {
    /// A pipeline with default [`RobustOptions`] (strict verification,
    /// SLR→BB fallback).
    pub fn new(machine: &'m MachineModel) -> Self {
        Pipeline {
            machine,
            options: RobustOptions::default(),
        }
    }

    /// A pipeline with explicit options (heuristic, verification mode,
    /// fallback policy, budgets, fault plan).
    pub fn with_options(machine: &'m MachineModel, options: RobustOptions) -> Self {
        Pipeline { machine, options }
    }

    /// The target machine model.
    pub fn machine(&self) -> &'m MachineModel {
        self.machine
    }

    /// The configured options.
    pub fn options(&self) -> &RobustOptions {
        &self.options
    }

    // ---- Staged, infallible kernels ------------------------------------

    /// Stage 1 — region formation, observer-bracketed.
    pub fn form(
        &self,
        f: &Function,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> FormOutcome {
        stage_form(f, former, obs)
    }

    /// Stage 2 — lowering every region of a formed function (fans out
    /// across the worker budget; results in region order).
    pub fn lower(&self, formed: &FormOutcome, obs: &dyn PassObserver) -> LoweredFunction {
        self.lower_set(&formed.function, &formed.regions, Some(&formed.origin), obs)
    }

    /// Stage 2 over an explicit partition (`origin` as for
    /// [`crate::lower_region`]; `None` means identity).
    pub fn lower_set(
        &self,
        f: &Function,
        set: &RegionSet,
        origin: Option<&[BlockId]>,
        obs: &dyn PassObserver,
    ) -> LoweredFunction {
        stage_lower_set(f, set, origin, obs)
    }

    /// Stages 3–4 — DDG construction and list scheduling of one lowered
    /// region, observer-bracketed per stage. Byte-identical to the legacy
    /// `schedule_region` kernel (which composes the same two stages).
    pub fn schedule_lowered(
        &self,
        lr: &LoweredRegion,
        scope: StageScope<'_>,
        obs: &dyn PassObserver,
    ) -> Schedule {
        obs.stage_enter(Stage::DdgBuild, scope);
        let t = Instant::now();
        let ddg = Ddg::build(lr, self.machine);
        obs.stage_exit(
            Stage::DdgBuild,
            scope,
            t.elapsed(),
            StageStats {
                regions: 1,
                ops: lr.num_ops(),
                edges: ddg.edges().len(),
                ..StageStats::default()
            },
        );
        obs.stage_enter(Stage::ListSched, scope);
        let t = Instant::now();
        let schedule = schedule_with_ddg(lr, &ddg, self.machine, &self.options.sched);
        // The scheduler published its automaton counters for this run on
        // this thread just before returning; fold them into the stage
        // bracket so profilers see them.
        let metrics = crate::sched::last_sched_metrics();
        obs.stage_exit(
            Stage::ListSched,
            scope,
            t.elapsed(),
            StageStats {
                regions: 1,
                ops: lr.num_ops(),
                edges: ddg.edges().len(),
                hazard_hits: metrics.hazard_hits,
                deferral_parks: metrics.deferral_parks,
                pressure_peak: metrics.pressure_peak.iter().copied().max().unwrap_or(0),
                pressure_parks: metrics.pressure_parks,
                ..StageStats::default()
            },
        );
        schedule
    }

    /// Spill-aware stages 3–4: like [`Pipeline::schedule_lowered`], but
    /// when the machine has a finite GPR file and the region livelocks on
    /// register pressure, inserts spill code and reschedules — the same
    /// escalating loop as the robust driver. Returns the (possibly
    /// spill-rewritten) region with its schedule. Under unbounded
    /// register files the loop body runs exactly once and the output is
    /// byte-identical to [`Pipeline::schedule_lowered`].
    ///
    /// # Panics
    ///
    /// Like the rest of the infallible path, panics when the region
    /// cannot be scheduled — here additionally when spilling cannot
    /// relieve the pressure (non-GPR class, no spillable range left, or
    /// [`MAX_SPILL_ROUNDS`] exhausted). Callers needing a structured
    /// failure use the robust chain instead.
    pub fn schedule_lowered_spilled(
        &self,
        mut lr: LoweredRegion,
        scope: StageScope<'_>,
        obs: &dyn PassObserver,
    ) -> (LoweredRegion, Schedule) {
        let mut spills_inserted: u64 = 0;
        let mut rounds = 0usize;
        loop {
            obs.stage_enter(Stage::DdgBuild, scope);
            let t = Instant::now();
            let ddg = Ddg::build(&lr, self.machine);
            obs.stage_exit(
                Stage::DdgBuild,
                scope,
                t.elapsed(),
                StageStats {
                    regions: 1,
                    ops: lr.num_ops(),
                    edges: ddg.edges().len(),
                    ..StageStats::default()
                },
            );
            obs.stage_enter(Stage::ListSched, scope);
            let t = Instant::now();
            let result = try_schedule_with_ddg(
                &lr,
                &ddg,
                self.machine,
                &self.options.sched,
                &Budgets::UNLIMITED,
            );
            match result {
                Ok(schedule) => {
                    #[cfg(debug_assertions)]
                    crate::verify_sched::verify_schedule(&lr, &ddg, self.machine, &schedule)
                        .expect("scheduler produced an invalid schedule");
                    let metrics = crate::sched::last_sched_metrics();
                    obs.stage_exit(
                        Stage::ListSched,
                        scope,
                        t.elapsed(),
                        StageStats {
                            regions: 1,
                            ops: lr.num_ops(),
                            edges: ddg.edges().len(),
                            hazard_hits: metrics.hazard_hits,
                            deferral_parks: metrics.deferral_parks,
                            pressure_peak: metrics.pressure_peak.iter().copied().max().unwrap_or(0),
                            pressure_parks: metrics.pressure_parks,
                            spills: spills_inserted,
                        },
                    );
                    return (lr, schedule);
                }
                Err(SchedFailure::RegisterPressure {
                    class: rc,
                    live: live_regs,
                    cap,
                }) if rc == treegion_ir::RegClass::Gpr && rounds < MAX_SPILL_ROUNDS => {
                    // Same escalation as the robust chain: the parking
                    // scheduler livelocks at `live <= cap`, so widen the
                    // victim set with the round count.
                    let excess = ((live_regs.saturating_sub(cap) as usize) + 1).max(rounds + 1);
                    match crate::lower::insert_spills(&lr, excess) {
                        Some((spilled, n)) => {
                            lr = spilled;
                            spills_inserted += n as u64;
                            rounds += 1;
                        }
                        None => panic!(
                            "register pressure unrecoverable by spilling: \
                             {live_regs} live {rc} regs against a file of {cap}"
                        ),
                    }
                }
                Err(e) => panic!("scheduler failed to make progress: {e}"),
            }
        }
    }

    /// Stages 2–4 over an explicit partition: lowers and schedules every
    /// region (no verification, no degradation — the infallible path the
    /// analytic evaluator and the VLIW compiler use). Regions that
    /// livelock on GPR pressure under a finite register file are
    /// spill-rewritten and rescheduled via
    /// [`Pipeline::schedule_lowered_spilled`]; with the default unbounded
    /// files the output is byte-identical to the historical path. Fans
    /// out across the worker budget; results in region order.
    pub fn schedule_set(
        &self,
        f: &Function,
        set: &RegionSet,
        origin: Option<&[BlockId]>,
        obs: &dyn PassObserver,
    ) -> Vec<RegionSchedule> {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let indexed: Vec<usize> = (0..set.len()).collect();
        treegion_par::par_map(&indexed, |&idx| {
            let lowered = stage_lower_one(f, set, &live, origin, idx, obs);
            let scope = StageScope {
                function: f.name(),
                region: Some(idx),
            };
            let (lowered, schedule) = self.schedule_lowered_spilled(lowered, scope, obs);
            RegionSchedule { lowered, schedule }
        })
    }

    /// Stages 1–4 — forms, lowers, and schedules one function through the
    /// infallible path.
    pub fn schedule_function(
        &self,
        f: &Function,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> (FormOutcome, Vec<RegionSchedule>) {
        let formed = self.form(f, former, obs);
        let scheds =
            self.schedule_set(&formed.function, &formed.regions, Some(&formed.origin), obs);
        (formed, scheds)
    }

    // ---- Robust (verifier-gated) driver --------------------------------

    /// Runs the robust chain over an explicit partition: every region is
    /// lowered, scheduled, and verified, degrading Primary→SLR→BB per the
    /// configured [`crate::FallbackPolicy`]. The canonical successor of
    /// the old free `schedule_function_robust` entry points.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when one region fails at the primary
    /// level *and* at every fallback level the policy permits.
    pub fn run_set(
        &self,
        f: &Function,
        set: &RegionSet,
        origin: Option<&[BlockId]>,
        obs: &dyn PassObserver,
    ) -> Result<RobustResult, PipelineError> {
        let live = Liveness::new(f, &Cfg::new(f));
        run_robust(
            f,
            set,
            origin,
            &live,
            None,
            self.machine,
            &self.options,
            obs,
        )
    }

    /// [`Pipeline::run_set`] over a [`FormOutcome`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::run_set`].
    pub fn run_formed(
        &self,
        formed: &FormOutcome,
        obs: &dyn PassObserver,
    ) -> Result<RobustResult, PipelineError> {
        self.run_set(&formed.function, &formed.regions, Some(&formed.origin), obs)
    }

    /// [`Pipeline::run_formed`] from the front half [`form_and_lower`]
    /// (or [`Pipeline::lower`]) already produced for `formed`: its
    /// liveness and lowered regions are reused, so primary attempts go
    /// straight to the op-budget checks and scheduling. Outcomes and
    /// events are identical to [`Pipeline::run_formed`]; observers see
    /// no lowering stage for the primary attempts, since none runs.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::run_set`].
    ///
    /// # Panics
    ///
    /// Panics if `lowered` does not hold one region per region of
    /// `formed`.
    pub fn run_lowered(
        &self,
        formed: &FormOutcome,
        lowered: &LoweredFunction,
        obs: &dyn PassObserver,
    ) -> Result<RobustResult, PipelineError> {
        run_robust(
            &formed.function,
            &formed.regions,
            Some(&formed.origin),
            &lowered.live,
            Some(&lowered.lowered),
            self.machine,
            &self.options,
            obs,
        )
    }

    /// Stages 1–6 — forms one function and drives it through the robust
    /// chain.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::run_set`].
    pub fn run_function(
        &self,
        f: &Function,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> Result<FunctionRun, PipelineError> {
        let formed = self.form(f, former, obs);
        let result = self.run_formed(&formed, obs)?;
        Ok(FunctionRun { formed, result })
    }

    /// Drives a whole module through the robust pipeline, function by
    /// function (functions in module order, so times, regions, and the
    /// event stream are deterministic).
    ///
    /// # Errors
    ///
    /// Returns the first terminal [`PipelineError`].
    pub fn run_module(
        &self,
        module: &Module,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> Result<ModuleRun, PipelineError> {
        let mut run = ModuleRun::default();
        for f in module.functions() {
            let fr = self.run_function(f, former, obs)?;
            run.time += fr.result.estimated_time();
            run.regions += fr.result.outcomes.len();
            run.events.extend(fr.result.events);
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::former::RegionConfig;
    use crate::observe::{EventLog, NullObserver, Profiler};
    use crate::sched::{schedule_region, ScheduleOptions};
    use crate::{form_treegions, FaultPlan, TailDupLimits};

    fn model() -> MachineModel {
        MachineModel::model_4u()
    }

    #[test]
    fn staged_path_matches_legacy_kernels() {
        let (f, _) = crate::testutil::figure1_cfg();
        let m = model();
        let p = Pipeline::new(&m);
        let (formed, scheds) = p.schedule_function(&f, &RegionConfig::Treegion, &NullObserver);
        // Legacy: free formers + lower_region + schedule_region.
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        assert_eq!(formed.regions.len(), set.len());
        for (i, (r, rs)) in set.regions().iter().zip(&scheds).enumerate() {
            let lr = lower_region(&f, r, &live, None);
            let s = schedule_region(&lr, &m, &ScheduleOptions::default());
            assert_eq!(rs.schedule.length(), s.length(), "region {i}");
            assert_eq!(
                rs.schedule.estimated_time(&rs.lowered).to_bits(),
                s.estimated_time(&lr).to_bits(),
                "region {i}"
            );
        }
    }

    #[test]
    fn run_formed_matches_staged_times_on_clean_input() {
        let (f, _) = crate::testutil::figure1_cfg();
        let m = model();
        let p = Pipeline::new(&m);
        let (_, scheds) = p.schedule_function(&f, &RegionConfig::Treegion, &NullObserver);
        let staged: f64 = scheds
            .iter()
            .map(|rs| rs.schedule.estimated_time(&rs.lowered))
            .sum();
        let run = p
            .run_function(&f, &RegionConfig::Treegion, &NullObserver)
            .unwrap();
        assert!(run.result.is_clean());
        assert_eq!(run.result.estimated_time().to_bits(), staged.to_bits());
    }

    #[test]
    fn run_module_aggregates_and_logs_events_in_order() {
        // One-function "module" with a fault campaign: the EventLog
        // observer must see exactly the events the ModuleRun reports, in
        // the same order.
        let (f, _) = crate::testutil::figure1_cfg();
        let mut module = Module::new("m");
        module.add_function(f);
        let m = model();
        let opts = RobustOptions {
            fault: Some(FaultPlan::from_seed(7)),
            ..Default::default()
        };
        let p = Pipeline::with_options(&m, opts);
        let log = EventLog::new();
        let run = p
            .run_module(&module, &RegionConfig::Treegion, &log)
            .unwrap();
        let observed = log.take_degradations();
        assert_eq!(observed, run.events);
        assert_eq!(run.recovered() + run.tolerated(), run.events.len());
    }

    #[test]
    fn profiler_sees_formation_once_per_function() {
        let (f, _) = crate::testutil::figure1_cfg();
        let m = model();
        let p = Pipeline::new(&m);
        let prof = Profiler::new();
        let run = p
            .run_function(
                &f,
                &RegionConfig::TreegionTd(TailDupLimits::default()),
                &prof,
            )
            .unwrap();
        let report = prof.report();
        assert_eq!(report[0].stage, Stage::Formation);
        assert_eq!(report[0].calls, 1);
        assert_eq!(report[0].stats.regions, run.formed.regions.len());
        // Every per-region stage fired once per region on a clean run.
        for sp in &report[1..] {
            assert_eq!(
                sp.calls,
                run.formed.regions.len(),
                "stage {} call count",
                sp.stage
            );
        }
    }
}
