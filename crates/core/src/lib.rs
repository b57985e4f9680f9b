//! # treegion
//!
//! Reproduction of the core contribution of *"Treegion Scheduling for
//! Wide Issue Processors"* (Havanki, Banerjia, Conte — HPCA 1998):
//! treegion formation, tail duplication, and treegion scheduling with the
//! paper's four priority heuristics, alongside the baselines it compares
//! against (basic blocks, simple linear regions, superblocks).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod contain;
mod ddg;
mod error;
mod fault;
mod form;
mod former;
mod heuristic;
mod lower;
mod observe;
mod pipeline;
mod region;
mod robust;
mod sched;
#[cfg(debug_assertions)]
mod sched_ref;
mod verify_sched;

pub use contain::{ContainmentAction, ContainmentCause, ContainmentEvent, RetryPolicy};
pub use ddg::{Ddg, Dep, DepKind};
pub use error::{
    Budgets, DegradationEvent, FallbackLevel, FallbackPolicy, PipelineError, SchedFailure,
    VerifyMode,
};
pub use fault::{FaultClass, FaultInjector, FaultPlan};
pub use form::{
    form_basic_blocks, form_slrs, form_superblocks, form_treegions, form_treegions_td,
    TailDupLimits,
};
pub use former::{FormOutcome, RegionConfig, RegionFormer};
pub use heuristic::{Heuristic, Priority};
pub use lower::{
    lower_region, try_lower_region, LOp, LOpKind, LoweredRegion, OpOrigin, RNode, RegionExit,
};
pub use observe::{
    EventLog, NullObserver, PassObserver, Profiler, Stage, StageProfile, StageScope, StageStats,
};
pub use pipeline::{form_and_lower, FunctionRun, LoweredFunction, ModuleRun, Pipeline};
pub use region::{ExitEdge, Region, RegionId, RegionKind, RegionSet};
pub use robust::{carve_bb, carve_slr, RegionOutcome, RobustOptions, RobustResult};
pub use sched::{
    render_schedule, schedule_region, schedule_with_ddg, try_schedule_region,
    try_schedule_with_ddg, SchedMetrics, Schedule, ScheduleOptions, TieBreak,
};
#[cfg(debug_assertions)]
pub use sched_ref::schedule_with_ddg_reference;
pub use verify_sched::{verify_reg_files, verify_schedule, ScheduleError, ScheduleErrorKind};

#[cfg(test)]
pub(crate) mod testutil {
    use treegion_ir::{BlockId, Function, FunctionBuilder, Op};

    /// The CFG of the paper's Figure 1:
    /// bb1 -> {bb2, bb8}; bb2 -> {bb3, bb4}; bb3 -> bb5; bb4 -> bb5;
    /// bb5 -> {bb6, bb7}; bb6 -> bb9; bb7 -> bb9; bb8 -> bb9; bb9 ret.
    /// (Our ids are 0-based: bb1 == index 0 ... bb9 == index 8.)
    pub(crate) fn figure1_cfg() -> (Function, Vec<BlockId>) {
        let mut b = FunctionBuilder::new("fig1");
        let ids: Vec<_> = (0..9).map(|_| b.block()).collect();
        let c = b.gpr();
        b.push(ids[0], Op::movi(c, 1));
        b.branch(ids[0], c, (ids[1], 60.0), (ids[7], 40.0)); // bb1 -> bb2, bb8
        b.branch(ids[1], c, (ids[2], 35.0), (ids[3], 25.0)); // bb2 -> bb3, bb4
        b.jump(ids[2], ids[4], 35.0); // bb3 -> bb5
        b.jump(ids[3], ids[4], 25.0); // bb4 -> bb5
        b.branch(ids[4], c, (ids[5], 30.0), (ids[6], 30.0)); // bb5 -> bb6, bb7
        b.jump(ids[5], ids[8], 30.0); // bb6 -> bb9
        b.jump(ids[6], ids[8], 30.0); // bb7 -> bb9
        b.jump(ids[7], ids[8], 40.0); // bb8 -> bb9
        b.ret(ids[8], None); // bb9
        (b.finish(), ids)
    }
}
