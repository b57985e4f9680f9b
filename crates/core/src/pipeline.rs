//! The staged pipeline driver: formation → lowering → DDG → list
//! scheduling → verification → degradation, behind one instrumented
//! entry point.
//!
//! Every region is scheduled by one chain, the verifier-gated robust
//! engine: lower, build the DDG, list-schedule (with spill rounds under
//! a finite GPR file), verify, and degrade Primary→SLR→BB per
//! [`RobustOptions`]. [`Pipeline`] owns the stage order and threads a
//! [`PassObserver`] through every stage. Its entry points differ only in
//! what they hand the chain and how a terminal failure surfaces:
//!
//! * [`Pipeline::run_set`] / [`Pipeline::run_formed`] /
//!   [`Pipeline::run_function`] / [`Pipeline::run_module`] return the
//!   [`PipelineError`];
//! * [`Pipeline::run_lowered`] reuses a front half that
//!   [`form_and_lower`] already built, for caching drivers that schedule
//!   one formation under many heuristics and machines;
//! * [`Pipeline::schedule_set`] / [`Pipeline::schedule_function`] force
//!   strict verification with no fallback and panic with the error.
//!
//! Regions fan out across `treegion_par` and merge in region order, so
//! outputs and the observer's event stream are identical at any job
//! count.

use crate::error::{DegradationEvent, FallbackPolicy, PipelineError, VerifyMode};
use crate::former::{FormOutcome, RegionFormer};
use crate::lower::{lower_region, LoweredRegion};
use crate::observe::{PassObserver, Stage, StageScope, StageStats};
use crate::region::RegionSet;
use crate::robust::{run_robust, RegionOutcome, RobustOptions, RobustResult};
use std::sync::Arc;
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
    /// One lowered region per region of the partition, in region order,
    /// shared with the [`RegionOutcome`]s scheduled from it.
    pub lowered: Vec<Arc<LoweredRegion>>,
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
/// across heuristics and machines) build the front half once and hand it
/// to [`Pipeline::run_lowered`]. Observer-bracketed like the chain's own
/// stages; the per-region lowering fans out across the worker budget,
/// results in region order.
pub fn form_and_lower(
    f: &Function,
    former: &dyn RegionFormer,
    obs: &dyn PassObserver,
) -> (FormOutcome, LoweredFunction) {
    let formed = stage_form(f, former, obs);
    let g = &formed.function;
    let cfg = Cfg::new(g);
    let live = Liveness::new(g, &cfg);
    let indexed: Vec<usize> = (0..formed.regions.len()).collect();
    let lowered = treegion_par::par_map(&indexed, |&idx| {
        let scope = StageScope {
            function: g.name(),
            region: Some(idx),
        };
        obs.stage_enter(Stage::Lowering, scope);
        let t = Instant::now();
        let region = &formed.regions.regions()[idx];
        let lr = lower_region(g, region, &live, Some(&formed.origin));
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
        Arc::new(lr)
    });
    (formed, LoweredFunction { cfg, live, lowered })
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

    /// Stage 1 — region formation, observer-bracketed.
    pub fn form(
        &self,
        f: &Function,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> FormOutcome {
        stage_form(f, former, obs)
    }

    /// [`Pipeline::run_set`] with no way out: fallback is forced to
    /// [`FallbackPolicy::None`] and verification to [`VerifyMode::Strict`],
    /// in every build, so each region comes back at its primary shape
    /// with a verifier-accepted schedule (spill-rewritten first when a
    /// finite GPR file livelocks). Results are in region order.
    ///
    /// # Panics
    ///
    /// Panics with the [`PipelineError`], which names the function and
    /// the region, when any region fails to schedule or to verify.
    pub fn schedule_set(
        &self,
        f: &Function,
        set: &RegionSet,
        origin: Option<&[BlockId]>,
        obs: &dyn PassObserver,
    ) -> Vec<RegionOutcome> {
        let strict = Pipeline::with_options(
            self.machine,
            RobustOptions {
                verify: VerifyMode::Strict,
                fallback: FallbackPolicy::None,
                ..self.options.clone()
            },
        );
        match strict.run_set(f, set, origin, obs) {
            Ok(run) => run.outcomes,
            Err(e) => panic!("{e}"),
        }
    }

    /// Stages 1–5 — forms one function and schedules it through
    /// [`Pipeline::schedule_set`].
    ///
    /// # Panics
    ///
    /// See [`Pipeline::schedule_set`].
    pub fn schedule_function(
        &self,
        f: &Function,
        former: &dyn RegionFormer,
        obs: &dyn PassObserver,
    ) -> (FormOutcome, Vec<RegionOutcome>) {
        let formed = self.form(f, former, obs);
        let outcomes =
            self.schedule_set(&formed.function, &formed.regions, Some(&formed.origin), obs);
        (formed, outcomes)
    }

    /// Runs the robust chain over an explicit partition: every region is
    /// lowered, scheduled, and verified, degrading Primary→SLR→BB per the
    /// configured [`FallbackPolicy`].
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
    /// already produced for `formed`: its
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
