//! Verifier-gated graceful degradation for the scheduling pipeline.
//!
//! The seed pipeline treated every internal failure as fatal: a verifier
//! rejection or a watchdog trip panicked the whole evaluation. This module
//! replaces that with a *degradation chain*: when a region's primary
//! schedule is unusable — rejected by [`verify_schedule`], over an op
//! budget, or stuck against the cycle watchdog — the region is re-carved
//! into progressively simpler shapes and rescheduled:
//!
//! 1. **Primary** — the originally requested region shape.
//! 2. **SLR** — the failed region's blocks re-partitioned into
//!    single-entry linear chains (each chain follows the heaviest
//!    in-region child, exactly as SLR formation follows the heaviest
//!    successor).
//! 3. **Basic blocks** — one singleton region per member block.
//!
//! The carve is always legal: every non-root member of a region has
//! exactly one CFG predecessor (merge points delimit regions during
//! formation), so *any* re-partition of a region's blocks into trees,
//! paths, or singletons keeps each piece single-entry. Fallback schedules
//! are themselves verified before being accepted; only when every rung
//! fails does the pipeline return a terminal [`PipelineError`] carrying
//! every attempt.
//!
//! Fault injection (the [`crate::FaultInjector`]) plugs in at the primary
//! level only, so injected faults are detected by the verifier and then
//! *recovered* by clean fallback scheduling — the property the robustness
//! tests assert end to end.

use crate::ddg::Ddg;
use crate::error::{
    Budgets, DegradationEvent, FallbackLevel, FallbackPolicy, PipelineError, SchedFailure,
    VerifyMode,
};
use crate::fault::{FaultClass, FaultInjector, FaultPlan};
use crate::lower::{try_lower_region, within_op_budget, LoweredRegion};
use crate::observe::{PassObserver, Stage, StageScope, StageStats};
use crate::region::{Region, RegionKind, RegionSet};
use crate::sched::{try_schedule_with_ddg, SchedMetrics, Schedule, ScheduleOptions};
use crate::verify_sched::{verify_reg_files, verify_schedule, ScheduleError};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use treegion_analysis::Liveness;
use treegion_ir::{BlockId, Function, RegClass};
use treegion_machine::MachineModel;

/// Configuration of the robust scheduling pipeline.
#[derive(Clone, Debug, Default)]
pub struct RobustOptions {
    /// Scheduler configuration for every attempt.
    pub sched: ScheduleOptions,
    /// What to do with verifier rejections (default: strict).
    pub verify: VerifyMode,
    /// How far the degradation chain may fall (default: SLR then BB).
    pub fallback: FallbackPolicy,
    /// Resource budgets (default: unlimited beyond the watchdog).
    pub budgets: Budgets,
    /// Optional fault-injection campaign, applied to primary attempts.
    pub fault: Option<FaultPlan>,
    /// Containment-test hook (`tgc --panic-region N`): deterministically
    /// panic while scheduling region `N` at the primary level, exercising
    /// the panic-containment path end to end. The panic is caught, mapped
    /// to [`SchedFailure::Panicked`], and recovered through the ordinary
    /// fallback chain.
    pub panic_on_region: Option<usize>,
}

/// One accepted (sub-)region schedule.
#[derive(Clone, Debug)]
pub struct RegionOutcome {
    /// Index of the *original* region in the input [`RegionSet`] this
    /// outcome descends from (several outcomes share an index after a
    /// fallback carve).
    pub region_index: usize,
    /// The region actually scheduled (the original, or a carved piece).
    pub region: Region,
    /// Its lowering: shared with the front half handed to
    /// [`crate::Pipeline::run_lowered`] when the primary attempt kept that
    /// lowering as is, so a cached region is never deep-copied.
    pub lowered: Arc<LoweredRegion>,
    /// The accepted schedule.
    pub schedule: Schedule,
    /// Which rung of the ladder produced it.
    pub level: FallbackLevel,
    /// The list scheduler's counters for the accepted schedule.
    pub metrics: SchedMetrics,
    /// Spill victims inserted before the accepted schedule succeeded.
    pub spills: u64,
}

impl RegionOutcome {
    /// Estimated execution time of this outcome (Σ exit count × height).
    pub fn estimated_time(&self) -> f64 {
        self.schedule.estimated_time(&self.lowered)
    }
}

/// The result of robustly scheduling one function.
#[derive(Clone, Debug)]
pub struct RobustResult {
    /// Accepted schedules, in original-region order (carved pieces stay
    /// adjacent, roots first).
    pub outcomes: Vec<RegionOutcome>,
    /// Every failure the chain survived.
    pub events: Vec<DegradationEvent>,
    kind: RegionKind,
}

impl RobustResult {
    /// Total estimated execution time over all outcomes.
    pub fn estimated_time(&self) -> f64 {
        self.outcomes
            .iter()
            .map(RegionOutcome::estimated_time)
            .sum()
    }

    /// `true` if every region scheduled at its primary shape with no
    /// tolerated failures.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
            && self
                .outcomes
                .iter()
                .all(|o| o.level == FallbackLevel::Primary)
    }

    /// Rebuilds the accepted partition as a [`RegionSet`] (primary regions
    /// plus carved fallback pieces). The set partitions the function again,
    /// so it can be handed to the VLIW compiler/simulator like any other
    /// formation result.
    pub fn region_set(&self) -> RegionSet {
        let mut set = RegionSet::new(self.kind);
        for o in &self.outcomes {
            set.add(o.region.clone());
        }
        set
    }
}

/// Schedules every region of `set` over `f` with verification, budgets,
/// optional fault injection, and the degradation chain — the engine
/// behind [`crate::Pipeline::run_set`] and
/// [`crate::Pipeline::run_lowered`].
///
/// `origin_map`, when present (after tail duplication), maps each block to
/// its original (see [`crate::lower_region`]); `live` is liveness over
/// `f`. `lowered`, when present, holds every region of `set` already
/// lowered with that liveness and origin map: primary attempts start
/// from a copy instead of lowering again (carved fallback pieces are
/// always lowered on the spot).
///
/// Stage hooks ([`PassObserver::stage_enter`]/`stage_exit`) fire inside
/// the per-region work (possibly concurrently); degradation hooks fire at
/// the merge point, in region order, so observers see a deterministic
/// event stream at any job count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_robust(
    f: &Function,
    set: &RegionSet,
    origin_map: Option<&[BlockId]>,
    live: &Liveness,
    lowered: Option<&[Arc<LoweredRegion>]>,
    m: &MachineModel,
    opts: &RobustOptions,
    obs: &dyn PassObserver,
) -> Result<RobustResult, PipelineError> {
    if let Some(lowered) = lowered {
        assert_eq!(lowered.len(), set.len(), "one lowered region per region");
    }
    if opts.fault.is_some() {
        // Fault campaigns draw from one RNG stream *across* regions; the
        // stream's region order is part of the campaign's determinism
        // contract, so the faulted path stays strictly serial.
        let mut result = RobustResult {
            outcomes: Vec::new(),
            events: Vec::new(),
            kind: set.kind(),
        };
        let mut injector = opts.fault.as_ref().map(FaultInjector::new);
        for (idx, region) in set.regions().iter().enumerate() {
            let run = schedule_one(
                f,
                idx,
                region,
                live,
                lowered.map(|l| &l[idx]),
                origin_map,
                m,
                opts,
                injector.as_mut(),
                obs,
            )?;
            result.outcomes.extend(run.outcomes);
            for ev in &run.events {
                obs.degradation(ev);
            }
            result.events.extend(run.events);
        }
        return Ok(result);
    }
    merge(
        region_runs(f, set, origin_map, live, lowered, m, opts, obs),
        set.kind(),
        obs,
    )
}

/// The clean path of [`run_robust`] before its merge: regions are
/// independent, so they fan out, and each region's run comes back in
/// region order.
#[allow(clippy::too_many_arguments)]
fn region_runs(
    f: &Function,
    set: &RegionSet,
    origin_map: Option<&[BlockId]>,
    live: &Liveness,
    lowered: Option<&[Arc<LoweredRegion>]>,
    m: &MachineModel,
    opts: &RobustOptions,
    obs: &dyn PassObserver,
) -> Vec<Result<RegionRun, PipelineError>> {
    let regions = set.regions();
    let indexed: Vec<usize> = (0..regions.len()).collect();
    treegion_par::par_map(&indexed, |&idx| {
        schedule_one(
            f,
            idx,
            &regions[idx],
            live,
            lowered.map(|l| &l[idx]),
            origin_map,
            m,
            opts,
            None,
            obs,
        )
    })
}

/// Merges per-region runs in region order, which keeps outcomes and
/// events byte-identical to the serial path at any job count. On error
/// the *first* failing region's error is returned, exactly as the serial
/// loop would; degradation hooks fire here, for the regions before it.
fn merge(
    runs: Vec<Result<RegionRun, PipelineError>>,
    kind: RegionKind,
    obs: &dyn PassObserver,
) -> Result<RobustResult, PipelineError> {
    let mut result = RobustResult {
        outcomes: Vec::new(),
        events: Vec::new(),
        kind,
    };
    for run in runs {
        let run = run?;
        result.outcomes.extend(run.outcomes);
        for ev in &run.events {
            obs.degradation(ev);
        }
        result.events.extend(run.events);
    }
    Ok(result)
}

/// The engine behind [`crate::Pipeline::run_lowered_files`]: the chain
/// on `m` under `opts`, then on `m` with each GPR file of `caps` under
/// `opts` with `capped_fallback` as fallback policy, reusing every
/// outcome of the first run a capped file provably cannot change.
///
/// A region's outcome is reused when the first run accepted it clean
/// (its primary shape, no events), its [`SchedMetrics::file_demand`]
/// stays below every cap of the capped machine — the ceiling then never
/// fires, so that machine's scheduler would make the same decisions —
/// and [`verify_reg_files`] accepts the schedule on its files (the
/// verifier's other checks do not read the files, and they already
/// accepted it). Every other region runs the ordinary chain on the
/// capped machine. Results come in `m`, then `caps` order.
///
/// # Panics
///
/// Panics if `caps` is not empty while `m` has a finite register file or
/// `opts` a fault plan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_robust_files(
    f: &Function,
    set: &RegionSet,
    origin_map: Option<&[BlockId]>,
    live: &Liveness,
    lowered: &[Arc<LoweredRegion>],
    (m, opts): (&MachineModel, &RobustOptions),
    caps: &[u32],
    capped_fallback: FallbackPolicy,
    obs: &dyn PassObserver,
) -> Vec<Result<RobustResult, PipelineError>> {
    assert_eq!(lowered.len(), set.len(), "one lowered region per region");
    if caps.is_empty() {
        return vec![run_robust(
            f,
            set,
            origin_map,
            live,
            Some(lowered),
            m,
            opts,
            obs,
        )];
    }
    assert!(
        !m.has_finite_regs() && opts.fault.is_none(),
        "a register-file sweep starts from an unbounded machine without a fault plan"
    );
    let capped_opts = RobustOptions {
        fallback: capped_fallback,
        ..opts.clone()
    };
    let capped: Vec<MachineModel> = caps.iter().map(|&cap| m.with_gpr_file(cap)).collect();
    let runs = region_runs(f, set, origin_map, live, Some(lowered), m, opts, obs);
    // Every (capped machine, region) pair, each either reused (`None`) or
    // re-run there; the checks and the re-runs fan out together.
    let pairs: Vec<(usize, usize)> = (0..capped.len())
        .flat_map(|t| (0..runs.len()).map(move |idx| (t, idx)))
        .collect();
    let regions = set.regions();
    let mut redone = treegion_par::par_map(&pairs, |&(t, idx)| {
        let reused = matches!(&runs[idx], Ok(run) if run.fits(&capped[t]));
        (!reused).then(|| {
            schedule_one(
                f,
                idx,
                &regions[idx],
                live,
                Some(&lowered[idx]),
                origin_map,
                &capped[t],
                &capped_opts,
                None,
                obs,
            )
        })
    })
    .into_iter();
    let capped_runs: Vec<Vec<Result<RegionRun, PipelineError>>> = (0..capped.len())
        .map(|_| {
            runs.iter()
                .map(|run| match redone.next().expect("one entry per pair") {
                    Some(own) => own,
                    None => run.clone(),
                })
                .collect()
        })
        .collect();
    std::iter::once(runs)
        .chain(capped_runs)
        .map(|runs| merge(runs, set.kind(), obs))
        .collect()
}

/// What one attempt produced: a schedule with its scheduler counters and
/// spill count, plus a rejection that was tolerated under
/// [`VerifyMode::Warn`].
struct Attempt {
    lowered: Arc<LoweredRegion>,
    schedule: Schedule,
    metrics: SchedMetrics,
    spills: u64,
    tolerated: Option<ScheduleError>,
}

/// Everything one region contributed: its accepted outcome(s) plus any
/// degradation events. Returned (rather than pushed into shared state) so
/// the clean path can schedule regions in parallel and merge in order.
#[derive(Clone)]
struct RegionRun {
    outcomes: Vec<RegionOutcome>,
    events: Vec<DegradationEvent>,
}

impl RegionRun {
    /// Whether this run, made on an unbounded file, is exactly what the
    /// chain would produce on `tm`, the same machine with capped files: a
    /// clean primary outcome whose file demand stays below every cap of
    /// `tm` and whose schedule fits `tm`'s files.
    fn fits(&self, tm: &MachineModel) -> bool {
        let [o] = self.outcomes.as_slice() else {
            return false;
        };
        self.events.is_empty()
            && o.level == FallbackLevel::Primary
            && RegClass::ALL.into_iter().all(|c| {
                tm.reg_cap(c)
                    .is_none_or(|cap| o.metrics.file_demand[c.index()] < cap)
            })
            && verify_reg_files(&o.lowered, tm, &o.schedule).is_ok()
    }
}

#[allow(clippy::too_many_arguments)]
fn schedule_one(
    f: &Function,
    idx: usize,
    region: &Region,
    live: &Liveness,
    lowered: Option<&Arc<LoweredRegion>>,
    origin_map: Option<&[BlockId]>,
    m: &MachineModel,
    opts: &RobustOptions,
    injector: Option<&mut FaultInjector>,
    obs: &dyn PassObserver,
) -> Result<RegionRun, PipelineError> {
    let mut run = RegionRun {
        outcomes: Vec::new(),
        events: Vec::new(),
    };
    let primary = attempt_contained(
        f, idx, region, live, lowered, origin_map, m, opts, injector, obs,
    );
    match primary {
        Ok(att) => {
            if let Some(err) = att.tolerated {
                run.events.push(DegradationEvent {
                    function: f.name().to_string(),
                    region_index: idx,
                    region_root: region.root(),
                    region_kind: region.kind(),
                    cause: SchedFailure::Verification(err),
                    level: FallbackLevel::Primary,
                    recovered: false,
                });
            }
            run.outcomes.push(RegionOutcome {
                region_index: idx,
                region: region.clone(),
                lowered: att.lowered,
                schedule: att.schedule,
                level: FallbackLevel::Primary,
                metrics: att.metrics,
                spills: att.spills,
            });
            Ok(run)
        }
        Err(cause) => {
            let mut attempts = vec![(FallbackLevel::Primary, cause.clone())];
            for &level in opts.fallback.levels() {
                let pieces = match level {
                    FallbackLevel::Primary => unreachable!("primary is not a fallback rung"),
                    FallbackLevel::Slr => carve_slr(f, region),
                    FallbackLevel::BasicBlock => carve_bb(region),
                };
                match schedule_pieces(f, idx, &pieces, live, origin_map, m, opts, obs) {
                    Ok(outs) => {
                        run.events.push(DegradationEvent {
                            function: f.name().to_string(),
                            region_index: idx,
                            region_root: region.root(),
                            region_kind: region.kind(),
                            cause,
                            level,
                            recovered: true,
                        });
                        for (piece, att) in pieces.into_iter().zip(outs) {
                            run.outcomes.push(RegionOutcome {
                                region_index: idx,
                                region: piece,
                                lowered: att.lowered,
                                schedule: att.schedule,
                                level,
                                metrics: att.metrics,
                                spills: att.spills,
                            });
                        }
                        return Ok(run);
                    }
                    Err(failure) => attempts.push((level, failure)),
                }
            }
            Err(PipelineError {
                function: f.name().to_string(),
                region_index: idx,
                region_root: region.root(),
                attempts,
            })
        }
    }
}

/// Runs one scheduling attempt with panic containment: an unwind anywhere
/// in lowering, scheduling, or verification becomes
/// [`SchedFailure::Panicked`] instead of aborting the run, so the
/// degradation chain treats a crash exactly like a verifier rejection or
/// a tripped budget. `AssertUnwindSafe` is sound here: on a contained
/// panic the attempt's partial state is discarded wholesale, and the
/// fault injector (the only captured `&mut`) is documented to be
/// serial-only, so a torn injector stream can never feed a parallel path.
fn contain<R>(body: impl FnOnce() -> Result<R, SchedFailure>) -> Result<R, SchedFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|p| {
        Err(SchedFailure::Panicked {
            payload: treegion_par::panic_message(p.as_ref()),
        })
    })
}

/// The primary-level [`attempt`] under [`contain`], with the
/// deterministic `panic_on_region` containment-test hook.
#[allow(clippy::too_many_arguments)]
fn attempt_contained(
    f: &Function,
    idx: usize,
    region: &Region,
    live: &Liveness,
    lowered: Option<&Arc<LoweredRegion>>,
    origin_map: Option<&[BlockId]>,
    m: &MachineModel,
    opts: &RobustOptions,
    injector: Option<&mut FaultInjector>,
    obs: &dyn PassObserver,
) -> Result<Attempt, SchedFailure> {
    contain(|| {
        if opts.panic_on_region == Some(idx) {
            panic!("injected panic while scheduling region #{idx} (panic_on_region)");
        }
        attempt(
            f, idx, region, live, lowered, origin_map, m, opts, injector, obs,
        )
    })
}

/// How many schedule→spill→reschedule rounds a finite-register attempt
/// may run before the failure is handed to the degradation ladder. Each
/// round spills at least one victim, so pressure falls monotonically;
/// the cap only bounds pathological regions where spilling cannot help
/// (e.g. the overflow comes from one op's own definitions).
const MAX_SPILL_ROUNDS: usize = 8;

/// Lowers, (optionally fault-injects,) schedules, and verifies one region.
///
/// Each stage is bracketed with [`PassObserver`] enter/exit hooks;
/// `stage_exit` fires only when the stage succeeds (a failed attempt
/// aborts mid-stage, and its partial time is not attributed). A region
/// passed in already `lowered` skips the lowering stage and its hooks —
/// only its op-budget checks run, exactly as [`try_lower_region`]
/// applies them — and is shared, not copied, unless a spill round or a
/// fault rewrites it.
///
/// On machines with a finite register file a [`SchedFailure::
/// RegisterPressure`] livelock in the GPR class is not (yet) fatal: the
/// region is rewritten by [`insert_spills`] and rescheduled, up to
/// [`MAX_SPILL_ROUNDS`] times. Each retry rebuilds the DDG (the spill
/// and reload ops add real edges), re-entering the DdgBuild/ListSched
/// stages, so profiles attribute the extra work honestly. Pred/Btr
/// pressure is unspillable and falls straight through to the ladder.
#[allow(clippy::too_many_arguments)]
fn attempt(
    f: &Function,
    idx: usize,
    region: &Region,
    live: &Liveness,
    lowered: Option<&Arc<LoweredRegion>>,
    origin_map: Option<&[BlockId]>,
    m: &MachineModel,
    opts: &RobustOptions,
    mut injector: Option<&mut FaultInjector>,
    obs: &dyn PassObserver,
) -> Result<Attempt, SchedFailure> {
    let scope = StageScope {
        function: f.name(),
        region: Some(idx),
    };
    let mut lr = match lowered {
        Some(lr) => within_op_budget(f, region, &opts.budgets, || Arc::clone(lr))?,
        None => {
            obs.stage_enter(Stage::Lowering, scope);
            let t = Instant::now();
            let lr = try_lower_region(f, region, live, origin_map, &opts.budgets)?;
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
        }
    };

    let class: Option<FaultClass> = injector.as_deref_mut().and_then(FaultInjector::choose);
    let mut sched_opts = opts.sched;
    let mut spills_inserted: u64 = 0;
    let mut rounds = 0usize;
    let (sched, metrics, true_ddg) = loop {
        obs.stage_enter(Stage::DdgBuild, scope);
        let t = Instant::now();
        let true_ddg = Ddg::build(&lr, m);
        obs.stage_exit(
            Stage::DdgBuild,
            scope,
            t.elapsed(),
            StageStats {
                regions: 1,
                ops: lr.num_ops(),
                edges: true_ddg.edges().len(),
                ..StageStats::default()
            },
        );

        obs.stage_enter(Stage::ListSched, scope);
        let t = Instant::now();
        // Fault corruption applies to the first round only: the injector
        // draws one fault per region, and a pressure retry must not
        // replay it against the rewritten op list.
        let result = match (injector.as_deref_mut(), class) {
            (Some(inj), Some(c)) if c.is_pre_schedule() && rounds == 0 => {
                let mut corrupted = true_ddg.clone();
                inj.corrupt_pre(c, &mut corrupted, &mut sched_opts);
                try_schedule_with_ddg(&lr, &corrupted, m, &sched_opts, &opts.budgets)
            }
            _ => try_schedule_with_ddg(&lr, &true_ddg, m, &sched_opts, &opts.budgets),
        };
        match result {
            Ok((s, metrics)) => {
                obs.stage_exit(
                    Stage::ListSched,
                    scope,
                    t.elapsed(),
                    metrics.stage_stats(&lr, &true_ddg, spills_inserted),
                );
                break (s, metrics, true_ddg);
            }
            Err(SchedFailure::RegisterPressure {
                class: rc,
                live: live_regs,
                cap,
            }) if rc == treegion_ir::RegClass::Gpr && rounds < MAX_SPILL_ROUNDS => {
                // Spill enough victims to clear the reported overflow in
                // one round if the longest ranges are the culprits. The
                // parking scheduler livelocks at `live <= cap` (only
                // live-ins can exceed the file), so the overflow estimate
                // alone is almost always 1; escalate with the round count
                // so repeated livelocks converge instead of shaving one
                // range per rebuild.
                let excess = ((live_regs.saturating_sub(cap) as usize) + 1).max(rounds + 1);
                match crate::lower::insert_spills(&lr, excess) {
                    Some((spilled, n)) => {
                        // Spill code counts against the op budget like
                        // any other lowered op.
                        if let Some(max) = opts.budgets.max_region_ops {
                            if spilled.num_ops() > max {
                                return Err(SchedFailure::OpBudgetExceeded {
                                    ops: spilled.num_ops(),
                                    budget: max,
                                });
                            }
                        }
                        lr = Arc::new(spilled);
                        spills_inserted += n as u64;
                        rounds += 1;
                    }
                    None => {
                        return Err(SchedFailure::RegisterPressure {
                            class: rc,
                            live: live_regs,
                            cap,
                        })
                    }
                }
            }
            Err(e) => return Err(e),
        }
    };
    let mut sched = sched;
    if let (Some(inj), Some(c)) = (injector, class) {
        if !c.is_pre_schedule() {
            inj.corrupt_post(c, Arc::make_mut(&mut lr), m, &mut sched);
        }
    }

    let accept = |lowered, schedule, tolerated| Attempt {
        lowered,
        schedule,
        metrics,
        spills: spills_inserted,
        tolerated,
    };
    if opts.verify == VerifyMode::Off {
        return Ok(accept(lr, sched, None));
    }
    obs.stage_enter(Stage::Verify, scope);
    let t = Instant::now();
    let verdict = verify_schedule(&lr, &true_ddg, m, &sched);
    obs.stage_exit(
        Stage::Verify,
        scope,
        t.elapsed(),
        StageStats {
            regions: 1,
            ops: lr.num_ops(),
            edges: true_ddg.edges().len(),
            ..StageStats::default()
        },
    );
    match opts.verify {
        VerifyMode::Off => unreachable!("handled above"),
        VerifyMode::Warn => Ok(accept(lr, sched, verdict.err())),
        VerifyMode::Strict => {
            verdict?;
            Ok(accept(lr, sched, None))
        }
    }
}

/// Schedules carved fallback pieces: no fault injection, and verification
/// is strict whenever verification is on at all (a recovered schedule must
/// be *proven* good, even under `warn`). Stage hooks carry the *original*
/// region's index, so profiles attribute fallback work to the region that
/// degraded.
#[allow(clippy::too_many_arguments)]
fn schedule_pieces(
    f: &Function,
    idx: usize,
    pieces: &[Region],
    live: &Liveness,
    origin_map: Option<&[BlockId]>,
    m: &MachineModel,
    opts: &RobustOptions,
    obs: &dyn PassObserver,
) -> Result<Vec<Attempt>, SchedFailure> {
    let strict = RobustOptions {
        sched: opts.sched,
        verify: match opts.verify {
            VerifyMode::Off => VerifyMode::Off,
            _ => VerifyMode::Strict,
        },
        fallback: opts.fallback,
        budgets: opts.budgets,
        fault: None,
        panic_on_region: None,
    };
    pieces
        .iter()
        .map(|p| contain(|| attempt(f, idx, p, live, None, origin_map, m, &strict, None, obs)))
        .collect()
}

/// Carves a failed region's blocks into single-entry linear chains: each
/// chain starts at the first unassigned block (in region preorder) and
/// follows the heaviest not-yet-assigned child of the original region
/// tree, mirroring SLR formation restricted to the region's own edges.
pub fn carve_slr(f: &Function, region: &Region) -> Vec<Region> {
    let mut assigned: HashSet<BlockId> = HashSet::new();
    let mut out = Vec::new();
    for &root in region.blocks() {
        if assigned.contains(&root) {
            continue;
        }
        let mut chain = Region::new(RegionKind::Slr, root);
        assigned.insert(root);
        let mut cur = root;
        loop {
            let next = region
                .children(cur)
                .into_iter()
                .filter(|c| !assigned.contains(c))
                .max_by(|a, b| {
                    f.block(*a)
                        .weight
                        .partial_cmp(&f.block(*b).weight)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.index().cmp(&a.index())) // earlier block wins ties
                });
            let Some(nb) = next else { break };
            let (parent, succ_index) = region
                .parent_edge(nb)
                .expect("non-root region member has a parent edge");
            debug_assert_eq!(parent, cur);
            chain.absorb(nb, cur, succ_index);
            assigned.insert(nb);
            cur = nb;
        }
        out.push(chain);
    }
    out
}

/// Carves a failed region into one basic-block region per member.
pub fn carve_bb(region: &Region) -> Vec<Region> {
    region
        .blocks()
        .iter()
        .map(|&b| Region::new(RegionKind::BasicBlock, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form_treegions;
    use crate::testutil::figure1_cfg;
    use treegion_analysis::Cfg;
    use treegion_ir::{FunctionBuilder, Op};

    fn model() -> MachineModel {
        MachineModel::model_4u()
    }

    /// Drives the chain through the canonical [`crate::Pipeline`] entry.
    fn run(
        f: &Function,
        set: &RegionSet,
        m: &MachineModel,
        opts: &RobustOptions,
    ) -> Result<RobustResult, PipelineError> {
        crate::Pipeline::with_options(m, opts.clone()).run_set(
            f,
            set,
            None,
            &crate::observe::NullObserver,
        )
    }

    #[test]
    fn clean_run_matches_plain_scheduling() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let r = run(&f, &set, &model(), &RobustOptions::default())
            .expect("clean function must schedule");
        assert!(r.is_clean());
        assert_eq!(r.outcomes.len(), set.len());
        assert!(r.region_set().is_partition_of(&f));
        // Times agree with the bare kernels.
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let plain: f64 = set
            .regions()
            .iter()
            .map(|reg| {
                let lr = crate::lower_region(&f, reg, &live, None);
                crate::schedule_region(&lr, &model(), &ScheduleOptions::default())
                    .estimated_time(&lr)
            })
            .sum();
        assert_eq!(r.estimated_time(), plain);
    }

    #[test]
    fn carve_slr_partitions_and_stays_linear() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        for region in set.regions() {
            let pieces = carve_slr(&f, region);
            let mut blocks: Vec<BlockId> =
                pieces.iter().flat_map(|p| p.blocks().to_vec()).collect();
            blocks.sort();
            let mut orig = region.blocks().to_vec();
            orig.sort();
            assert_eq!(blocks, orig, "carve must re-partition the region");
            for p in &pieces {
                assert!(p.is_linear());
                assert!(p.is_tree());
            }
        }
    }

    #[test]
    fn carve_bb_yields_singletons() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let region = set.region(set.region_of(f.entry()).unwrap());
        let pieces = carve_bb(region);
        assert_eq!(pieces.len(), region.num_blocks());
        assert!(pieces.iter().all(|p| p.num_blocks() == 1));
    }

    #[test]
    fn every_detectable_fault_is_recovered_by_fallback() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let m = model();
        for class in FaultClass::ALL {
            if class.expected_kind().is_none() {
                continue; // statically invisible; covered elsewhere
            }
            let opts = RobustOptions {
                fault: Some(FaultPlan::single(21, class)),
                ..Default::default()
            };
            let r = run(&f, &set, &m, &opts)
                .unwrap_or_else(|e| panic!("{class}: chain must recover: {e}"));
            // The injected fault may miss regions without a viable site,
            // but the big entry treegion always offers one for every
            // detectable class except those needing specific shapes; at
            // least one region must have degraded and recovered.
            if r.events.is_empty() {
                // The fault found no site anywhere (possible for classes
                // needing e.g. eliminations); the run must then be clean.
                assert!(r.is_clean(), "{class}: events empty but not clean");
                continue;
            }
            for ev in &r.events {
                assert!(ev.recovered, "{class}: event not recovered: {ev}");
                assert_eq!(ev.cause.label(), "verification", "{class}");
            }
            assert!(r.region_set().is_partition_of(&f), "{class}");
            // Every recovered outcome re-verifies against a fresh DDG.
            let cfg = Cfg::new(&f);
            let live = Liveness::new(&f, &cfg);
            for o in &r.outcomes {
                let lr = crate::lower_region(&f, &o.region, &live, None);
                let ddg = Ddg::build(&lr, &m);
                let s = crate::schedule_region(&lr, &m, &ScheduleOptions::default());
                verify_schedule(&lr, &ddg, &m, &s).unwrap();
            }
        }
    }

    #[test]
    fn warn_mode_keeps_rejected_schedules_and_records_events() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            verify: VerifyMode::Warn,
            fault: Some(FaultPlan::single(5, FaultClass::ShiftExitCycle)),
            ..Default::default()
        };
        let r = run(&f, &set, &model(), &opts).unwrap();
        // Same number of outcomes as regions (nothing was re-carved) …
        assert_eq!(r.outcomes.len(), set.len());
        assert!(r.outcomes.iter().all(|o| o.level == FallbackLevel::Primary));
        // … but the rejections were recorded as unrecovered events.
        assert!(!r.events.is_empty());
        assert!(r.events.iter().all(|e| !e.recovered));
    }

    #[test]
    fn verify_off_accepts_everything_silently() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            verify: VerifyMode::Off,
            fault: Some(FaultPlan::single(5, FaultClass::ShiftExitCycle)),
            ..Default::default()
        };
        let r = run(&f, &set, &model(), &opts).unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.outcomes.len(), set.len());
    }

    #[test]
    fn fallback_none_surfaces_pipeline_error_with_attempts() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            fallback: FallbackPolicy::None,
            fault: Some(FaultPlan::single(9, FaultClass::OmitOp)),
            ..Default::default()
        };
        let err = run(&f, &set, &model(), &opts).expect_err("no fallback must be fatal");
        assert_eq!(err.attempts.len(), 1);
        assert_eq!(err.attempts[0].0, FallbackLevel::Primary);
        assert!(err.to_string().contains("failed at every fallback level"));
    }

    #[test]
    fn op_budget_degrades_large_regions() {
        // The figure-1 entry treegion lowers to well over 8 ops; with
        // max_region_ops = 8 it must degrade until every accepted piece
        // fits the budget.
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            budgets: Budgets {
                max_region_ops: Some(8),
                ..Budgets::UNLIMITED
            },
            ..Default::default()
        };
        let r = run(&f, &set, &model(), &opts).unwrap();
        assert!(!r.events.is_empty());
        assert!(r
            .events
            .iter()
            .all(|e| e.recovered && e.cause.label() == "op-budget"));
        assert!(r.region_set().is_partition_of(&f));
        for o in &r.outcomes {
            assert!(
                o.lowered.num_ops() <= 8,
                "accepted piece over budget: {} ops at {:?}",
                o.lowered.num_ops(),
                o.level
            );
        }
    }

    /// Field-by-field equality of two robust results (`Schedule` holds a
    /// hash map, so its `Debug` rendering is not stable enough to compare).
    fn assert_same_result(a: &RobustResult, b: &RobustResult) {
        assert_eq!(a.events, b.events, "degradation events");
        assert_eq!(a.outcomes.len(), b.outcomes.len(), "outcome count");
        for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
            assert_eq!(x.region_index, y.region_index, "outcome {i}");
            assert_eq!(x.level, y.level, "outcome {i}");
            assert_eq!(format!("{:?}", x.region), format!("{:?}", y.region));
            assert_eq!(format!("{:?}", x.lowered), format!("{:?}", y.lowered));
            let (s, t) = (&x.schedule, &y.schedule);
            assert_eq!(s.cycles, t.cycles, "outcome {i}");
            assert_eq!(s.cycle_of, t.cycle_of, "outcome {i}");
            assert_eq!(s.exit_cycles, t.exit_cycles, "outcome {i}");
            assert_eq!(s.eliminated, t.eliminated, "outcome {i}");
            assert_eq!(s.reg_alias, t.reg_alias, "outcome {i}");
        }
    }

    /// Counts list-scheduling runs.
    #[derive(Default)]
    struct CountSched(std::sync::atomic::AtomicUsize);

    impl PassObserver for CountSched {
        fn stage_enter(&self, stage: Stage, _: StageScope<'_>) {
            if stage == Stage::ListSched {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn a_register_file_sweep_schedules_each_region_once() {
        let (f, _) = figure1_cfg();
        let (formed, front) = crate::form_and_lower(
            &f,
            &crate::former::RegionConfig::Treegion,
            &crate::observe::NullObserver,
        );
        let m = model();
        let p = crate::Pipeline::new(&m);
        let count = CountSched::default();
        // Files no region comes near: every capped machine reuses the
        // unbounded schedules, so each region is list-scheduled once.
        let caps = [1000, 64];
        let runs = p.run_lowered_files(&formed, &front, &caps, FallbackPolicy::default(), &count);
        assert_eq!(count.0.into_inner(), formed.regions.len());
        // A file as large as the largest GPR demand binds that region,
        // which re-runs. Either way each result is what the chain gives
        // on that machine alone.
        let demand = runs[0].as_ref().unwrap().outcomes.iter();
        let demand = demand
            .map(|o| o.metrics.file_demand[RegClass::Gpr.index()])
            .max()
            .unwrap();
        let count = CountSched::default();
        let tight = p.run_lowered_files(
            &formed,
            &front,
            &[demand],
            FallbackPolicy::default(),
            &count,
        );
        assert!(
            count.0.into_inner() > formed.regions.len(),
            "nothing re-ran"
        );
        let alone = |m: &MachineModel, fallback| {
            let opts = RobustOptions {
                fallback,
                ..Default::default()
            };
            crate::Pipeline::with_options(m, opts).run_lowered(
                &formed,
                &front,
                &crate::observe::NullObserver,
            )
        };
        let machines = std::iter::once((model(), FallbackPolicy::Bb))
            .chain(caps.map(|cap| (model().with_gpr_file(cap), FallbackPolicy::default())));
        for (run, (m, fallback)) in runs.iter().zip(machines) {
            assert_same_result(run.as_ref().unwrap(), &alone(&m, fallback).unwrap());
        }
        let capped = model().with_gpr_file(demand);
        match (&tight[1], alone(&capped, FallbackPolicy::default())) {
            (Ok(a), Ok(b)) => assert_same_result(a, &b),
            (Err(a), Err(b)) => assert_eq!(a, &b),
            (a, b) => panic!("sweep {a:?} but alone {b:?}"),
        }
    }

    #[test]
    fn cached_regions_meet_the_op_budget_like_fresh_lowering() {
        // A primary attempt on an already-lowered region must apply
        // `max_region_ops` exactly as `try_lower_region` does. At 8 the
        // lowered-count check degrades the entry treegion and both
        // entries recover the same pieces; at 0 the source-count check
        // rejects the entry region before its lowered count is looked at
        // (a different `ops` figure), at every rung.
        let (f, _) = figure1_cfg();
        let (formed, front) = crate::form_and_lower(
            &f,
            &crate::former::RegionConfig::Treegion,
            &crate::observe::NullObserver,
        );
        let m = model();
        for cap in [8, 0] {
            let opts = RobustOptions {
                budgets: Budgets {
                    max_region_ops: Some(cap),
                    ..Budgets::UNLIMITED
                },
                ..Default::default()
            };
            let p = crate::Pipeline::with_options(&m, opts);
            let fresh = p.run_formed(&formed, &crate::observe::NullObserver);
            let cached = p.run_lowered(&formed, &front, &crate::observe::NullObserver);
            match (fresh, cached) {
                (Ok(a), Ok(b)) => {
                    assert!(a.events.iter().any(|e| e.cause.label() == "op-budget"));
                    assert_same_result(&a, &b);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(cap, 0, "{a}");
                    assert_eq!(a, b);
                }
                (a, b) => panic!("budget {cap}: entries disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn injected_panic_is_contained_and_recovered_by_fallback() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            panic_on_region: Some(0),
            ..Default::default()
        };
        let r = run(&f, &set, &model(), &opts)
            .expect("a contained panic must recover through the chain");
        assert!(!r.is_clean());
        // Exactly one region degraded, with a panic cause, and recovered.
        let panics: Vec<_> = r
            .events
            .iter()
            .filter(|e| e.cause.label() == "panic")
            .collect();
        assert_eq!(panics.len(), 1, "{:?}", r.events);
        assert!(panics[0].recovered);
        assert!(panics[0].cause.is_containment());
        assert_eq!(panics[0].region_index, 0);
        assert!(panics[0].cause.to_string().contains("injected panic"));
        // The accepted partition still covers the whole function.
        assert!(r.region_set().is_partition_of(&f));
        // Every other region scheduled cleanly at the primary level.
        assert!(r
            .outcomes
            .iter()
            .filter(|o| o.region_index != 0)
            .all(|o| o.level == FallbackLevel::Primary));
    }

    #[test]
    fn contained_panic_is_identical_at_any_job_count() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            panic_on_region: Some(0),
            ..Default::default()
        };
        let run = || {
            let r = run(&f, &set, &model(), &opts).unwrap();
            (
                r.estimated_time().to_bits(),
                r.outcomes.len(),
                r.events.iter().map(|e| e.to_string()).collect::<Vec<_>>(),
            )
        };
        let serial = {
            treegion_par::set_jobs(1);
            run()
        };
        let parallel = {
            treegion_par::set_jobs(8);
            let r = run();
            treegion_par::set_jobs(1);
            r
        };
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_wall_deadline_trips_deterministically_and_chain_reports_it() {
        // A 0 ms deadline trips on the very first loop-boundary check of
        // every attempt, at every rung — the chain must exhaust and the
        // terminal error must carry deadline failures for every level.
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            budgets: Budgets {
                max_wall_ms: Some(0),
                ..Budgets::UNLIMITED
            },
            ..Default::default()
        };
        let err =
            run(&f, &set, &model(), &opts).expect_err("a zero deadline cannot schedule anything");
        assert_eq!(err.attempts.len(), 3); // primary, slr, bb
        assert!(err.attempts.iter().all(|(_, c)| c.label() == "deadline"));
        assert!(err.attempts.iter().all(|(_, c)| c.is_containment()));
    }

    #[test]
    fn generous_wall_deadline_changes_nothing() {
        let (f, _) = figure1_cfg();
        let set = form_treegions(&f);
        let clean = run(&f, &set, &model(), &RobustOptions::default())
            .unwrap()
            .estimated_time();
        let opts = RobustOptions {
            budgets: Budgets {
                max_wall_ms: Some(60_000),
                ..Budgets::UNLIMITED
            },
            ..Default::default()
        };
        let r = run(&f, &set, &model(), &opts).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.estimated_time(), clean);
    }

    #[test]
    fn gpr_pressure_recovers_by_spilling() {
        // A balanced 8-leaf reduction tree needs ~log2(n)+1 simultaneously
        // live values (plus one register of issue headroom), so a
        // 3-register file livelocks the parking scheduler; the spill
        // rounds must rewrite the region until it fits — transparently,
        // at the primary level, without touching the degradation ladder.
        let mut b = FunctionBuilder::new("tree");
        let bb0 = b.block();
        let mut layer: Vec<_> = (0..8).map(|_| b.gpr()).collect();
        for &x in &layer {
            b.push(bb0, Op::movi(x, 1));
        }
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let t = b.gpr();
                b.push(bb0, Op::add(t, pair[0], pair[1]));
                next.push(t);
            }
            layer = next;
        }
        b.ret(bb0, Some(layer[0]));
        let f = b.finish();
        let set = form_treegions(&f);
        let m = model().with_gpr_file(3);
        let r = run(&f, &set, &m, &RobustOptions::default())
            .expect("spill rounds must recover register pressure");
        assert!(r.events.is_empty(), "spilling is not a degradation event");
        assert!(r.outcomes.iter().all(|o| o.level == FallbackLevel::Primary));
        let spills = r
            .outcomes
            .iter()
            .flat_map(|o| o.lowered.lops.iter())
            .filter(|l| l.op.opcode == treegion_ir::Opcode::Spill)
            .count();
        assert!(spills > 0, "the finite file must have forced spills");
        // The accepted schedules re-verify against the finite machine,
        // register-file legality included.
        for o in &r.outcomes {
            let ddg = Ddg::build(&o.lowered, &m);
            verify_schedule(&o.lowered, &ddg, &m, &o.schedule).unwrap();
        }
        // The unbounded machine schedules the same function spill-free.
        let r0 = run(&f, &set, &model(), &RobustOptions::default()).unwrap();
        assert!(r0.is_clean());
        assert!(r0
            .outcomes
            .iter()
            .flat_map(|o| o.lowered.lops.iter())
            .all(|l| l.op.opcode != treegion_ir::Opcode::Spill));
    }

    #[test]
    fn unspillable_pressure_falls_through_to_the_pipeline_error() {
        // Two operands plus a fresh def need three registers at issue; a
        // 2-register file cannot fit `add` no matter how much is spilled,
        // so every rung (primary, slr, bb) fails with reg-pressure.
        let mut b = FunctionBuilder::new("tight");
        let bb0 = b.block();
        let (x, y, z) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::movi(x, 1), Op::movi(y, 2), Op::add(z, x, y)]);
        b.ret(bb0, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let m = model().with_gpr_file(2);
        let err = run(&f, &set, &m, &RobustOptions::default())
            .expect_err("a 2-register file cannot schedule a 2-operand add");
        assert!(err
            .attempts
            .iter()
            .all(|(_, c)| c.label() == "reg-pressure"));
    }

    #[test]
    fn step_budget_exhausts_the_whole_chain_on_serial_code() {
        // A long serial chain cannot finish in 1 cycle; budget of 1 forces
        // step-budget failures all the way down to single blocks — which
        // still exceed it, so the pipeline errors with all attempts listed.
        let mut b = FunctionBuilder::new("serial");
        let bb0 = b.block();
        let a = b.gpr();
        let mut prev = a;
        for _ in 0..6 {
            let x = b.gpr();
            b.push(bb0, Op::add(x, prev, prev));
            prev = x;
        }
        b.ret(bb0, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let opts = RobustOptions {
            budgets: Budgets {
                max_schedule_cycles: Some(1),
                ..Budgets::UNLIMITED
            },
            ..Default::default()
        };
        let err =
            run(&f, &set, &model(), &opts).expect_err("1-cycle budget cannot fit a serial chain");
        assert!(err.attempts.iter().all(|(_, c)| c.label() == "step-budget"));
        assert_eq!(err.attempts.len(), 3); // primary, slr, bb
    }
}
