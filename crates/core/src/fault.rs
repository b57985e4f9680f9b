//! Deterministic, seeded fault injection for the scheduling pipeline.
//!
//! A [`FaultInjector`] perturbs the artifacts of one region's scheduling
//! run — the dependence graph the scheduler consumes, the scheduler's
//! heuristic configuration, or the finished [`Schedule`] itself — in ways
//! that model real scheduler bugs. Each [`FaultClass`] is designed so that
//! [`crate::verify_schedule`], run against the *true* (uncorrupted) DDG,
//! attributes the damage to one specific [`ScheduleErrorKind`] (see
//! [`FaultClass::expected_kind`]); two classes are deliberately invisible
//! to the static verifier and exist to document its blind spots:
//!
//! * [`FaultClass::PerturbPriority`] only changes heuristic choices, so
//!   every resulting schedule is valid (possibly slower) — the verifier
//!   checks legality, not optimality.
//! * [`FaultClass::SkipRenamingRepair`] drops the compensation copies an
//!   exit would apply; the schedule's issue structure is untouched, so
//!   only *dynamic* differential simulation can expose the wrong
//!   architectural state.
//!
//! Faults are driven by a [`treegion_rng::StdRng`], so a bare `u64` seed
//! reproduces the exact same fault sites — the property the degradation
//! chain's tests and the `--fault-seed` CLI flag rely on.

use crate::ddg::Ddg;
use crate::heuristic::Heuristic;
use crate::lower::LoweredRegion;
use crate::sched::{Schedule, ScheduleOptions, TieBreak};
use crate::verify_sched::ScheduleErrorKind;
use std::fmt;
use treegion_machine::MachineModel;
use treegion_rng::StdRng;

/// One class of injectable scheduler fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Drop a latency-carrying dependence edge before scheduling: the
    /// scheduler plans against an incomplete graph.
    DropDdgEdge,
    /// Swap the priority heuristic and tie-break for random ones: a
    /// "wrong-but-legal" decision fault.
    PerturbPriority,
    /// Remove an issued op from its cycle row (bookkeeping still claims it
    /// issued).
    OmitOp,
    /// Issue an op a second time in the final cycle.
    DoubleIssue,
    /// Cram every issued op into cycle 0, blowing the issue width.
    OverfillCycle,
    /// Hoist the consumer of a latency-carrying edge above the point its
    /// input is ready.
    HoistConsumer,
    /// Record a fake dominator-parallelism elimination whose "surviving
    /// twin" never issues.
    BogusElimination,
    /// Shift one exit's recorded branch cycle off by one.
    ShiftExitCycle,
    /// Drop the renaming compensation copies from every exit (statically
    /// invisible; dynamically wrong).
    SkipRenamingRepair,
}

impl FaultClass {
    /// Every fault class, in a fixed order (stable across releases so that
    /// seeded fault streams stay reproducible).
    pub const ALL: [FaultClass; 9] = [
        FaultClass::DropDdgEdge,
        FaultClass::PerturbPriority,
        FaultClass::OmitOp,
        FaultClass::DoubleIssue,
        FaultClass::OverfillCycle,
        FaultClass::HoistConsumer,
        FaultClass::BogusElimination,
        FaultClass::ShiftExitCycle,
        FaultClass::SkipRenamingRepair,
    ];

    /// Short machine-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::DropDdgEdge => "drop-ddg-edge",
            FaultClass::PerturbPriority => "perturb-priority",
            FaultClass::OmitOp => "omit-op",
            FaultClass::DoubleIssue => "double-issue",
            FaultClass::OverfillCycle => "overfill-cycle",
            FaultClass::HoistConsumer => "hoist-consumer",
            FaultClass::BogusElimination => "bogus-elimination",
            FaultClass::ShiftExitCycle => "shift-exit-cycle",
            FaultClass::SkipRenamingRepair => "skip-renaming-repair",
        }
    }

    /// The [`ScheduleErrorKind`] the static verifier attributes this fault
    /// to when it manifests, or `None` for the two classes the static
    /// verifier cannot see ([`FaultClass::PerturbPriority`] produces valid
    /// schedules; [`FaultClass::SkipRenamingRepair`] is only caught by
    /// dynamic differential simulation).
    pub fn expected_kind(&self) -> Option<ScheduleErrorKind> {
        match self {
            FaultClass::DropDdgEdge => Some(ScheduleErrorKind::LatencyViolation),
            FaultClass::PerturbPriority => None,
            FaultClass::OmitOp => Some(ScheduleErrorKind::MissingOp),
            FaultClass::DoubleIssue => Some(ScheduleErrorKind::DoubleIssue),
            FaultClass::OverfillCycle => Some(ScheduleErrorKind::WidthOverflow),
            FaultClass::HoistConsumer => Some(ScheduleErrorKind::LatencyViolation),
            FaultClass::BogusElimination => Some(ScheduleErrorKind::BogusElimination),
            FaultClass::ShiftExitCycle => Some(ScheduleErrorKind::ExitMismatch),
            FaultClass::SkipRenamingRepair => None,
        }
    }

    /// `true` if the fault is applied *before* scheduling (to the DDG or
    /// the scheduler options) rather than to the finished schedule.
    pub fn is_pre_schedule(&self) -> bool {
        matches!(self, FaultClass::DropDdgEdge | FaultClass::PerturbPriority)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A reproducible fault campaign: which classes may fire, how often, and
/// under which seed.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's deterministic RNG.
    pub seed: u64,
    /// Classes eligible for injection (picked uniformly per region).
    pub classes: Vec<FaultClass>,
    /// Probability that a given region receives a fault at all.
    pub probability: f64,
}

impl FaultPlan {
    /// The default campaign the CLI's `--fault-seed` flag runs: every
    /// class eligible, every region faulted.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            classes: FaultClass::ALL.to_vec(),
            probability: 1.0,
        }
    }

    /// A campaign injecting exactly one class into every region — what
    /// the targeted detection/recovery tests use.
    pub fn single(seed: u64, class: FaultClass) -> Self {
        FaultPlan {
            seed,
            classes: vec![class],
            probability: 1.0,
        }
    }
}

/// Stateful injector: owns the RNG stream and a log of what it did.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    rng: StdRng,
    classes: Vec<FaultClass>,
    probability: f64,
    /// Every fault actually *applied* (a chosen class whose corruption
    /// found no viable site in the region is not logged).
    pub injected: Vec<FaultClass>,
}

impl FaultInjector {
    /// Builds an injector executing `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(plan.seed),
            classes: plan.classes.clone(),
            probability: plan.probability,
            injected: Vec::new(),
        }
    }

    /// Decides whether (and which) fault the next region receives. Always
    /// consumes the same amount of randomness, so downstream regions see a
    /// stable stream regardless of earlier outcomes.
    pub fn choose(&mut self) -> Option<FaultClass> {
        let fire = self.rng.gen_bool(self.probability);
        if self.classes.is_empty() {
            return None;
        }
        let class = self.classes[self.rng.pick_index(&self.classes)];
        fire.then_some(class)
    }

    /// Applies a pre-schedule fault to the graph/options the scheduler
    /// will consume. Returns `true` if a viable fault site existed.
    pub fn corrupt_pre(
        &mut self,
        class: FaultClass,
        ddg: &mut Ddg,
        opts: &mut ScheduleOptions,
    ) -> bool {
        let applied = match class {
            FaultClass::DropDdgEdge => {
                let sites: Vec<usize> = ddg
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.latency > 0)
                    .map(|(k, _)| k)
                    .collect();
                if sites.is_empty() {
                    false
                } else {
                    let k = sites[self.rng.pick_index(&sites)];
                    ddg.remove_edge(k);
                    true
                }
            }
            FaultClass::PerturbPriority => {
                opts.heuristic = Heuristic::ALL[self.rng.pick_index(&Heuristic::ALL)];
                opts.tie_break = if self.rng.gen_bool(0.5) {
                    TieBreak::SourceOrder
                } else {
                    TieBreak::RoundRobin
                };
                true
            }
            _ => false,
        };
        if applied {
            self.injected.push(class);
        }
        applied
    }

    /// Applies a post-schedule fault to the finished schedule (or, for
    /// [`FaultClass::SkipRenamingRepair`], to the lowered region's exits).
    /// Returns `true` if a viable fault site existed.
    pub fn corrupt_post(
        &mut self,
        class: FaultClass,
        lr: &mut LoweredRegion,
        m: &MachineModel,
        sched: &mut Schedule,
    ) -> bool {
        let issued: Vec<usize> = sched.cycles.iter().flatten().copied().collect();
        let applied = match class {
            FaultClass::OmitOp => match self.pick(&issued) {
                Some(i) => {
                    for row in sched.cycles.iter_mut() {
                        row.retain(|&x| x != i);
                    }
                    // cycle_of still claims the op issued: the verifier's
                    // completeness pass must notice it never did.
                    true
                }
                None => false,
            },
            FaultClass::DoubleIssue => match self.pick(&issued) {
                Some(i) => {
                    sched
                        .cycles
                        .last_mut()
                        .expect("issued op implies a cycle")
                        .push(i);
                    true
                }
                None => false,
            },
            FaultClass::OverfillCycle => {
                if issued.len() <= m.issue_width() {
                    false
                } else {
                    for &i in &issued {
                        sched.cycle_of[i] = Some(0);
                    }
                    sched.cycles = vec![issued.clone()];
                    true
                }
            }
            FaultClass::HoistConsumer => {
                // Rebuild the true DDG to find a latency-carrying edge
                // whose consumer can be hoisted into a legal-looking slot
                // that violates only that edge.
                let ddg = Ddg::build(lr, m);
                self.hoist_consumer(lr, &ddg, m, sched)
            }
            FaultClass::BogusElimination => match self.pick(&issued) {
                Some(i) => {
                    for row in sched.cycles.iter_mut() {
                        row.retain(|&x| x != i);
                    }
                    // Claim `i` was eliminated in favour of itself — a twin
                    // that was, of course, never issued.
                    sched.eliminated.push((i, i));
                    true
                }
                None => false,
            },
            FaultClass::ShiftExitCycle => {
                if sched.exit_cycles.is_empty() {
                    false
                } else {
                    let k = self.rng.pick_index(&sched.exit_cycles);
                    sched.exit_cycles[k] += 1;
                    true
                }
            }
            FaultClass::SkipRenamingRepair => {
                let mut any = false;
                for exit in lr.exits.iter_mut() {
                    if !exit.copies.is_empty() {
                        exit.copies.clear();
                        any = true;
                    }
                }
                any
            }
            _ => false,
        };
        if applied {
            self.injected.push(class);
        }
        applied
    }

    fn pick(&mut self, xs: &[usize]) -> Option<usize> {
        if xs.is_empty() {
            None
        } else {
            Some(xs[self.rng.pick_index(xs)])
        }
    }

    /// Moves the consumer of a latency-carrying edge into an earlier cycle
    /// with a free slot (respecting width/branch/mem limits so the *only*
    /// new violation is the latency one).
    fn hoist_consumer(
        &mut self,
        lr: &LoweredRegion,
        ddg: &Ddg,
        m: &MachineModel,
        sched: &mut Schedule,
    ) -> bool {
        let mut sites: Vec<(usize, usize)> = Vec::new(); // (consumer, dest row)
        for e in ddg.edges() {
            if e.latency == 0 {
                continue;
            }
            let (Some(cf), Some(ct)) = (sched.cycle_of[e.from], sched.cycle_of[e.to]) else {
                continue;
            };
            // Skip eliminated consumers: they are not in any row.
            if !sched.cycles.iter().flatten().any(|&i| i == e.to) {
                continue;
            }
            let deadline = (cf + e.latency).min(ct) as usize;
            let opc = lr.lops[e.to].op.opcode;
            let is_branch = opc.is_branch();
            let is_mem = opc.is_memory() || opc == treegion_ir::Opcode::Call;
            for d in 0..deadline.min(sched.cycles.len()) {
                let row = &sched.cycles[d];
                if row.len() >= m.issue_width() {
                    continue;
                }
                if is_branch {
                    if let Some(limit) = m.branch_limit() {
                        let b = row
                            .iter()
                            .filter(|&&i| lr.lops[i].op.opcode.is_branch())
                            .count();
                        if b >= limit {
                            continue;
                        }
                    }
                }
                if is_mem {
                    if let Some(limit) = m.mem_port_limit() {
                        let mm = row
                            .iter()
                            .filter(|&&i| {
                                let o = lr.lops[i].op.opcode;
                                o.is_memory() || o == treegion_ir::Opcode::Call
                            })
                            .count();
                        if mm >= limit {
                            continue;
                        }
                    }
                }
                sites.push((e.to, d));
                break; // first viable destination for this edge
            }
        }
        match sites.is_empty() {
            true => false,
            false => {
                let (to, d) = sites[self.rng.pick_index(&sites)];
                for row in sched.cycles.iter_mut() {
                    row.retain(|&i| i != to);
                }
                sched.cycles[d].push(to);
                sched.cycle_of[to] = Some(d as u32);
                // If the hoisted op was an exit branch, keep the exit
                // bookkeeping consistent so the *latency* check is what
                // fires, not the exit-cycle one.
                if let crate::lower::LOpKind::ExitBranch(e) = lr.lops[to].kind {
                    sched.exit_cycles[e] = d as u32;
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form_treegions;
    use crate::lower::lower_region;
    use crate::sched::{schedule_region, ScheduleOptions};
    use crate::verify_sched::verify_schedule;
    use treegion_analysis::{Cfg, Liveness};
    use treegion_ir::{Cond, Function, FunctionBuilder, Op};

    /// A region with latency chains, branches, and exit copies — a viable
    /// fault site for every class.
    fn rich_function() -> Function {
        let mut b = FunctionBuilder::new("rich");
        let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
        let (a, x, y, c, s) = (b.gpr(), b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            ids[0],
            [
                Op::load(x, a, 0),
                Op::load(y, a, 8),
                Op::cmp(Cond::Lt, c, x, y),
            ],
        );
        b.branch(ids[0], c, (ids[1], 60.0), (ids[2], 40.0));
        b.push(ids[1], Op::add(s, x, y));
        b.jump(ids[1], ids[3], 60.0);
        b.push(ids[2], Op::store(a, y, 16));
        b.jump(ids[2], ids[3], 40.0);
        b.ret(ids[3], Some(x));
        b.finish()
    }

    fn lowered_entry(f: &Function) -> crate::LoweredRegion {
        let set = form_treegions(f);
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let r = set.region(set.region_of(f.entry()).unwrap()).clone();
        lower_region(f, &r, &live, None)
    }

    #[test]
    fn every_detectable_fault_is_attributed_correctly() {
        let f = rich_function();
        let m = treegion_machine::MachineModel::model_4u();
        for class in FaultClass::ALL {
            let Some(expect) = class.expected_kind() else {
                continue;
            };
            let mut lr = lowered_entry(&f);
            let true_ddg = Ddg::build(&lr, &m);
            let mut opts = ScheduleOptions::default();
            let mut inj = FaultInjector::new(&FaultPlan::single(7, class));
            let mut sched = if class.is_pre_schedule() {
                let mut corrupted = true_ddg.clone();
                assert!(
                    inj.corrupt_pre(class, &mut corrupted, &mut opts),
                    "{class}: no pre-schedule fault site"
                );
                crate::sched::try_schedule_with_ddg(
                    &lr,
                    &corrupted,
                    &m,
                    &opts,
                    &crate::Budgets::UNLIMITED,
                )
                .expect("corrupted graph still schedules")
                .0
            } else {
                schedule_region(&lr, &m, &opts)
            };
            if !class.is_pre_schedule() {
                assert!(
                    inj.corrupt_post(class, &mut lr, &m, &mut sched),
                    "{class}: no post-schedule fault site"
                );
            }
            let err = verify_schedule(&lr, &true_ddg, &m, &sched)
                .expect_err(&format!("{class}: verifier missed the fault"));
            assert_eq!(err.kind(), expect, "{class}: wrong attribution: {err}");
        }
    }

    #[test]
    fn undetectable_faults_pass_static_verification() {
        let f = rich_function();
        let m = treegion_machine::MachineModel::model_4u();
        for class in [FaultClass::PerturbPriority, FaultClass::SkipRenamingRepair] {
            let mut lr = lowered_entry(&f);
            let true_ddg = Ddg::build(&lr, &m);
            let mut opts = ScheduleOptions::default();
            let mut inj = FaultInjector::new(&FaultPlan::single(11, class));
            let mut sched = if class.is_pre_schedule() {
                let mut corrupted = true_ddg.clone();
                assert!(inj.corrupt_pre(class, &mut corrupted, &mut opts));
                crate::sched::try_schedule_with_ddg(
                    &lr,
                    &corrupted,
                    &m,
                    &opts,
                    &crate::Budgets::UNLIMITED,
                )
                .unwrap()
                .0
            } else {
                schedule_region(&lr, &m, &opts)
            };
            if !class.is_pre_schedule() {
                assert!(inj.corrupt_post(class, &mut lr, &m, &mut sched));
            }
            verify_schedule(&lr, &true_ddg, &m, &sched)
                .unwrap_or_else(|e| panic!("{class} should be statically invisible: {e}"));
        }
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let f = rich_function();
        let m = treegion_machine::MachineModel::model_4u();
        let run = |seed: u64| -> Vec<Vec<usize>> {
            let mut lr = lowered_entry(&f);
            let mut sched = schedule_region(&lr, &m, &ScheduleOptions::default());
            let mut inj = FaultInjector::new(&FaultPlan::single(seed, FaultClass::OmitOp));
            assert!(inj.corrupt_post(FaultClass::OmitOp, &mut lr, &m, &mut sched));
            sched.cycles
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn choose_respects_probability_and_classes() {
        let mut never = FaultInjector::new(&FaultPlan {
            seed: 1,
            classes: FaultClass::ALL.to_vec(),
            probability: 0.0,
        });
        for _ in 0..50 {
            assert_eq!(never.choose(), None);
        }
        let mut always = FaultInjector::new(&FaultPlan::single(1, FaultClass::OmitOp));
        for _ in 0..50 {
            assert_eq!(always.choose(), Some(FaultClass::OmitOp));
        }
    }
}
