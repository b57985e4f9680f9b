//! Independent schedule verification.
//!
//! [`verify_schedule`] re-checks a finished [`Schedule`] against its
//! [`LoweredRegion`], [`Ddg`], and [`MachineModel`] without trusting any
//! scheduler bookkeeping: completeness, resource bounds, dependence
//! latencies, exit-cycle consistency, and the legality of every dominator
//! parallelism elimination. The VLIW simulator validates schedules
//! *dynamically* on one executed path; this verifier validates them
//! *statically* on all paths.

use crate::ddg::Ddg;
use crate::lower::{LOpKind, LoweredRegion};
use crate::sched::Schedule;
use std::error::Error;
use std::fmt;
use treegion_ir::{Reg, RegClass};
use treegion_machine::{MachineModel, OpClass};

/// The class of property a schedule violated. Fault-injection tests key on
/// this to prove the verifier attributes each corruption correctly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleErrorKind {
    /// An op is neither issued nor recorded as eliminated.
    MissingOp,
    /// An op appears in more than one issue slot (or is both issued and
    /// eliminated).
    DoubleIssue,
    /// A cycle issues more ops than the machine's issue width.
    WidthOverflow,
    /// A cycle issues more branches than the machine's branch limit.
    BranchOverflow,
    /// A cycle issues more memory ops than the machine has ports.
    MemPortOverflow,
    /// A cycle issues more ops of some other resource class (e.g. fdiv)
    /// than the machine has units for it.
    ClassOverflow,
    /// A dependence edge's latency is not satisfied.
    LatencyViolation,
    /// An exit's recorded cycle disagrees with its branch op.
    ExitMismatch,
    /// A dominator-parallelism elimination pairs non-twin ops, removes a
    /// non-speculable op, or names a twin that was never issued.
    BogusElimination,
    /// Some cycle keeps more live ranges of a class than the machine's
    /// finite register file can hold (checked only when the file is
    /// finite; the unbounded default never trips it).
    RegFileOverflow,
    /// Internally inconsistent bookkeeping (out-of-range index, `cycle_of`
    /// disagreeing with the issue rows, unscheduled edge endpoint).
    Malformed,
}

/// A schedule verification failure: a [`ScheduleErrorKind`] plus a
/// human-readable description of the specific violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleError {
    kind: ScheduleErrorKind,
    message: String,
}

impl ScheduleError {
    /// The class of property that was violated.
    pub fn kind(&self) -> ScheduleErrorKind {
        self.kind
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule verification failed: {}", self.message)
    }
}

impl Error for ScheduleError {}

fn fail(kind: ScheduleErrorKind, message: String) -> Result<(), ScheduleError> {
    Err(ScheduleError { kind, message })
}

/// Verifies `sched` against its region, dependence graph, and machine.
///
/// # Errors
///
/// Returns the first violated property:
/// * every op is either issued exactly once or recorded as eliminated;
/// * no cycle exceeds the issue width (or the branch limit);
/// * every dependence edge satisfies its latency;
/// * every exit's recorded cycle matches its branch op's issue cycle;
/// * every elimination pairs twin ops (same origin/opcode/immediate) and
///   the survivor is scheduled no later than the eliminated op's recorded
///   cycle;
/// * on machines with finite register files, no cycle keeps more live
///   ranges of a class than the class's file holds.
pub fn verify_schedule(
    lr: &LoweredRegion,
    ddg: &Ddg,
    m: &MachineModel,
    sched: &Schedule,
) -> Result<(), ScheduleError> {
    let n = lr.lops.len();

    // Completeness: issued ⊎ eliminated = all ops, no duplicates.
    let mut seen = vec![false; n];
    for (c, row) in sched.cycles.iter().enumerate() {
        for &i in row {
            if i >= n {
                return fail(
                    ScheduleErrorKind::Malformed,
                    format!("cycle {c} references op {i} out of range"),
                );
            }
            if seen[i] {
                return fail(
                    ScheduleErrorKind::DoubleIssue,
                    format!("op {i} issued twice"),
                );
            }
            seen[i] = true;
            if sched.cycle_of[i] != Some(c as u32) {
                return fail(
                    ScheduleErrorKind::Malformed,
                    format!(
                        "op {i} in cycle {c} but cycle_of says {:?}",
                        sched.cycle_of[i]
                    ),
                );
            }
        }
    }
    for (e, t) in &sched.eliminated {
        if seen[*e] {
            return fail(
                ScheduleErrorKind::DoubleIssue,
                format!("op {e} both issued and eliminated"),
            );
        }
        seen[*e] = true;
        if !sched.cycles.iter().flatten().any(|i| i == t) {
            return fail(
                ScheduleErrorKind::BogusElimination,
                format!("twin {t} of eliminated op {e} was never issued"),
            );
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return fail(
            ScheduleErrorKind::MissingOp,
            format!("op {missing} neither issued nor eliminated"),
        );
    }

    // Resources.
    for (c, row) in sched.cycles.iter().enumerate() {
        if row.len() > m.issue_width() {
            return fail(
                ScheduleErrorKind::WidthOverflow,
                format!(
                    "cycle {c} issues {} ops on a {}-wide machine",
                    row.len(),
                    m.issue_width()
                ),
            );
        }
        // Per-class unit limits, counted independently of any scheduler
        // bookkeeping. The classification is the same one the scheduler's
        // hazard automaton is built from; a bug there would surface here
        // as a class overflow on some fuzzed schedule.
        for class in OpClass::ALL {
            let Some(limit) = m.unit_limit(class) else {
                continue;
            };
            let used = row
                .iter()
                .filter(|&&i| OpClass::of(lr.lops[i].op.opcode) == class)
                .count();
            if used > limit {
                let kind = match class {
                    OpClass::Branch => ScheduleErrorKind::BranchOverflow,
                    OpClass::Mem => ScheduleErrorKind::MemPortOverflow,
                    _ => ScheduleErrorKind::ClassOverflow,
                };
                return fail(
                    kind,
                    format!(
                        "cycle {c} issues {used} {} ops (units {limit})",
                        class.name()
                    ),
                );
            }
        }
    }

    // Dependences. An op eliminated by dominator parallelism inherits its
    // twin's issue cycle: edges *out of* it are checked against that cycle
    // (consumers read the twin's value, produced then), but edges *into*
    // it are vacuous — the op never executes, and its twin's own inputs
    // (verified identical at elimination time) carry their own edges.
    let eliminated: std::collections::HashSet<usize> =
        sched.eliminated.iter().map(|(e, _)| *e).collect();
    for e in ddg.edges() {
        if eliminated.contains(&e.to) {
            continue;
        }
        let (Some(cf), Some(ct)) = (sched.cycle_of[e.from], sched.cycle_of[e.to]) else {
            return fail(
                ScheduleErrorKind::Malformed,
                format!("edge {e:?} touches an unscheduled op"),
            );
        };
        if ct < cf + e.latency {
            return fail(
                ScheduleErrorKind::LatencyViolation,
                format!(
                    "dependence {} -> {} (latency {}) violated: cycles {cf} -> {ct}",
                    e.from, e.to, e.latency
                ),
            );
        }
    }

    // Exit cycles.
    for (k, exit) in lr.exits.iter().enumerate() {
        match sched.cycle_of[exit.branch_lop] {
            Some(c) if c == sched.exit_cycles[k] => {}
            other => {
                return fail(
                    ScheduleErrorKind::ExitMismatch,
                    format!(
                        "exit {k}: recorded cycle {} but branch op at {other:?}",
                        sched.exit_cycles[k]
                    ),
                )
            }
        }
        if !matches!(lr.lops[exit.branch_lop].kind, LOpKind::ExitBranch(e) if e == k) {
            return fail(
                ScheduleErrorKind::ExitMismatch,
                format!("exit {k}: branch_lop is not its exit branch"),
            );
        }
    }

    // Elimination legality.
    for (e, t) in &sched.eliminated {
        let (le, lt) = (&lr.lops[*e], &lr.lops[*t]);
        if le.origin != lt.origin || le.op.opcode != lt.op.opcode || le.op.imm != lt.op.imm {
            return fail(
                ScheduleErrorKind::BogusElimination,
                format!("elimination ({e},{t}) pairs non-twin ops"),
            );
        }
        if !le.op.opcode.is_speculable() {
            return fail(
                ScheduleErrorKind::BogusElimination,
                format!("elimination ({e},{t}) removes a non-speculable op"),
            );
        }
    }

    verify_reg_files(lr, m, sched)
}

/// The register-file part of [`verify_schedule`]: replays every live
/// range of `sched` from scratch and charges it against `m`'s finite
/// files, trusting none of the scheduler's incremental pressure
/// accounting. A value holds one register of its class from its def's
/// issue cycle through the END of its last use's cycle (uses = operands,
/// guards, and exit-copy sources read at the exit branch, all resolved
/// through the elimination alias map); a live-in holds its register from
/// cycle 0; a def nobody reads holds its register for its def cycle
/// alone. Always `Ok` on unbounded files.
///
/// The replay is dense and linear in ops + registers + cycles: per
/// register one def cycle and one last-use cycle, per capped class one
/// difference array over the cycles. The pipeline also runs it alone, to
/// check a schedule the rest of the verifier already accepted against a
/// smaller file.
///
/// # Errors
///
/// [`ScheduleErrorKind::RegFileOverflow`] for the first cycle (then the
/// first class) that keeps more live ranges than its file holds.
pub fn verify_reg_files(
    lr: &LoweredRegion,
    m: &MachineModel,
    sched: &Schedule,
) -> Result<(), ScheduleError> {
    if !m.has_finite_regs() {
        return Ok(());
    }
    REPLAY.with(|cell| cell.borrow_mut().run(lr, m, sched))
}

thread_local! {
    static REPLAY: std::cell::RefCell<Replay> = std::cell::RefCell::new(Replay::default());
}

/// Sentinel for "no cycle recorded" in [`Replay`]'s tables.
const NO_CYCLE: u32 = u32::MAX;

/// Per-thread tables of [`verify_reg_files`]. Registers are numbered
/// function-wide, so a region touches a sparse subset of a large index
/// range: `slot` maps a register's index to a dense per-call slot, and
/// an entry is valid only while its stamp equals the call's `stamp`, so
/// nothing is cleared between calls and each call costs only what it
/// touches.
#[derive(Default)]
struct Replay {
    stamp: u32,
    /// Per class, indexed by register index: `(stamp, slot)`.
    slot: [Vec<(u32, u32)>; 3],
    /// Per slot: the register's class, def cycle and last-use cycle.
    class: Vec<u8>,
    def: Vec<u32>,
    last_use: Vec<u32>,
    /// Per cycle + 1: live-range starts minus ends, per class.
    diff: Vec<[i64; 3]>,
    skip: Vec<bool>,
}

impl Replay {
    fn slot_of(&mut self, r: Reg) -> usize {
        let c = r.class().index();
        let i = r.index() as usize;
        let tab = &mut self.slot[c];
        if i >= tab.len() {
            tab.resize(i + 1, (0, 0));
        }
        if tab[i].0 != self.stamp {
            tab[i] = (self.stamp, self.class.len() as u32);
            self.class.push(c as u8);
            self.def.push(NO_CYCLE);
            self.last_use.push(NO_CYCLE);
        }
        tab[i].1 as usize
    }

    fn touch(&mut self, sched: &Schedule, r: Reg, c: u32) {
        let s = self.slot_of(sched.resolve(r));
        let u = &mut self.last_use[s];
        *u = if *u == NO_CYCLE { c } else { (*u).max(c) };
    }

    fn run(
        &mut self,
        lr: &LoweredRegion,
        m: &MachineModel,
        sched: &Schedule,
    ) -> Result<(), ScheduleError> {
        if self.stamp == u32::MAX {
            for t in &mut self.slot {
                t.clear();
            }
            self.stamp = 0;
        }
        self.stamp += 1;
        self.class.clear();
        self.def.clear();
        self.last_use.clear();
        self.skip.clear();
        self.skip.resize(lr.lops.len(), false);
        for &(e, _) in &sched.eliminated {
            if let Some(s) = self.skip.get_mut(e) {
                *s = true;
            }
        }
        for (i, l) in lr.lops.iter().enumerate() {
            if self.skip[i] {
                continue;
            }
            let Some(c) = sched.cycle_of.get(i).copied().flatten() else {
                continue;
            };
            for &d in &l.op.defs {
                let s = self.slot_of(d);
                self.def[s] = c;
            }
            for &u in &l.op.uses {
                self.touch(sched, u, c);
            }
            if let Some(g) = l.guard {
                self.touch(sched, g, c);
            }
        }
        for (k, exit) in lr.exits.iter().enumerate() {
            let c = sched.exit_cycles[k];
            for &(_, src) in &exit.copies {
                self.touch(sched, src, c);
            }
        }
        let cycles = sched.cycles.len();
        if cycles == 0 {
            return Ok(());
        }
        let caps = RegClass::ALL.map(|c| m.reg_cap(c));
        self.diff.clear();
        self.diff.resize(cycles + 1, [0; 3]);
        for s in 0..self.class.len() {
            let cls = self.class[s] as usize;
            if caps[cls].is_none() {
                continue;
            }
            let (d, u) = (self.def[s], self.last_use[s]);
            let (start, end) = match (d, u) {
                (NO_CYCLE, _) => (0, u), // a live-in: occupied from region entry
                (_, NO_CYCLE) => (d, d),
                _ => (d, u.max(d)),
            };
            let last = (end as usize).min(cycles - 1);
            if (start as usize) <= last {
                self.diff[start as usize][cls] += 1;
                self.diff[last + 1][cls] -= 1;
            }
        }
        let mut live = [0i64; 3];
        for (c, delta) in self.diff[..cycles].iter().enumerate() {
            for class in RegClass::ALL {
                let k = class.index();
                live[k] += delta[k];
                let Some(cap) = caps[k] else {
                    continue;
                };
                if live[k] > i64::from(cap) {
                    return fail(
                        ScheduleErrorKind::RegFileOverflow,
                        format!(
                            "cycle {c} keeps {} {class} ranges live (file holds {cap})",
                            live[k]
                        ),
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        form_treegions, form_treegions_td, lower_region, schedule_region, Heuristic,
        ScheduleOptions, TailDupLimits,
    };
    use treegion_analysis::{Cfg, Liveness};
    use treegion_ir::{Cond, Function, FunctionBuilder, Op};

    fn branchy() -> Function {
        let mut b = FunctionBuilder::new("v");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (a, x, y, c) = (b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                Op::load(x, a, 0),
                Op::load(y, a, 8),
                Op::cmp(Cond::Lt, c, x, y),
            ],
        );
        b.branch(bb0, c, (bb1, 70.0), (bb2, 30.0));
        b.push(bb1, Op::store(a, x, 16));
        b.ret(bb1, None);
        b.ret(bb2, Some(y));
        b.finish()
    }

    #[test]
    fn valid_schedules_verify_for_all_heuristics_and_machines() {
        let f = branchy();
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        for m in [
            MachineModel::model_1u(),
            MachineModel::model_4u(),
            MachineModel::model_8u(),
        ] {
            for h in Heuristic::ALL {
                for r in set.regions() {
                    let lr = lower_region(&f, r, &live, None);
                    let ddg = Ddg::build(&lr, &m);
                    let s = crate::schedule_with_ddg(
                        &lr,
                        &ddg,
                        &m,
                        &ScheduleOptions {
                            heuristic: h,
                            dominator_parallelism: false,
                            ..Default::default()
                        },
                    );
                    verify_schedule(&lr, &ddg, &m, &s).unwrap();
                }
            }
        }
    }

    #[test]
    fn tail_duplicated_schedules_with_dompar_verify() {
        let (f, _) = {
            // reuse the figure 1 CFG from the crate test utilities
            crate::testutil::figure1_cfg()
        };
        let td = form_treegions_td(&f, &TailDupLimits::expansion_3_0());
        let cfg = Cfg::new(&td.function);
        let live = Liveness::new(&td.function, &cfg);
        let m = MachineModel::model_4u();
        for r in td.regions.regions() {
            let lr = lower_region(&td.function, r, &live, Some(&td.origin));
            let ddg = Ddg::build(&lr, &m);
            let s = crate::schedule_with_ddg(
                &lr,
                &ddg,
                &m,
                &ScheduleOptions {
                    heuristic: Heuristic::GlobalWeight,
                    dominator_parallelism: true,
                    ..Default::default()
                },
            );
            verify_schedule(&lr, &ddg, &m, &s).unwrap();
        }
    }

    /// One hand-built tamper per fault class, each asserting the *exact*
    /// [`ScheduleErrorKind`] — the attribution contract the degradation
    /// chain's reports rely on (see also `fault.rs`, which reaches the same
    /// kinds through the seeded injector).
    #[test]
    fn each_tamper_class_yields_its_error_kind() {
        let f = branchy();
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let m = MachineModel::model_4u();
        let r = set.region(set.region_of(f.entry()).unwrap());
        let lr = lower_region(&f, r, &live, None);
        let ddg = Ddg::build(&lr, &m);
        let good = schedule_region(&lr, &m, &ScheduleOptions::default());
        verify_schedule(&lr, &ddg, &m, &good).unwrap();
        let kind_of = |s: &Schedule| verify_schedule(&lr, &ddg, &m, s).unwrap_err().kind();

        // Missing op: drop one op from its row but keep its cycle_of.
        let mut s = good.clone();
        let victim = s.cycles[0][0];
        s.cycles[0].retain(|&i| i != victim);
        assert_eq!(kind_of(&s), ScheduleErrorKind::MissingOp);

        // Double issue: the same op in two rows.
        let mut s = good.clone();
        let dup = s.cycles[0][0];
        s.cycles.last_mut().unwrap().push(dup);
        assert_eq!(kind_of(&s), ScheduleErrorKind::DoubleIssue);

        // Width overflow: cram every op into cycle 0 (consistently).
        let mut s = good.clone();
        assert!(lr.lops.len() > m.issue_width());
        s.cycles = vec![(0..lr.lops.len()).collect()];
        for c in s.cycle_of.iter_mut() {
            *c = Some(0);
        }
        assert_eq!(kind_of(&s), ScheduleErrorKind::WidthOverflow);

        // Latency violation: delay a producer past its consumer.
        let mut s = good.clone();
        let e = ddg
            .edges()
            .iter()
            .find(|e| e.latency > 0)
            .expect("region has a latency-carrying edge");
        let from = e.from;
        for row in s.cycles.iter_mut() {
            row.retain(|&i| i != from);
        }
        let last = s.cycles.len();
        s.cycles.push(vec![from]);
        s.cycle_of[from] = Some(last as u32);
        assert_eq!(kind_of(&s), ScheduleErrorKind::LatencyViolation);

        // Exit mismatch: shift a recorded exit cycle off its branch op.
        let mut s = good.clone();
        s.exit_cycles[0] += 1;
        assert_eq!(kind_of(&s), ScheduleErrorKind::ExitMismatch);

        // Bogus elimination: record an op as eliminated by a twin that was
        // itself never issued.
        let mut s = good.clone();
        let victim = s.cycles[0][0];
        for row in s.cycles.iter_mut() {
            row.retain(|&i| i != victim);
        }
        s.eliminated.push((victim, victim));
        assert_eq!(kind_of(&s), ScheduleErrorKind::BogusElimination);
    }

    #[test]
    fn class_overflow_on_asym_machine_yields_class_kind() {
        // Two independent fdivs on the asymmetric preset (1 fdiv unit):
        // the honest schedule spreads them; cramming both into cycle 0
        // stays within the issue width but overflows the fdiv class.
        let mut b = FunctionBuilder::new("fd");
        let bb0 = b.block();
        let (a, x, y) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                Op::new(treegion_ir::Opcode::FDiv, vec![x], vec![a, a], 0),
                Op::new(treegion_ir::Opcode::FDiv, vec![y], vec![a, a], 0),
            ],
        );
        b.ret(bb0, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let m = MachineModel::model_4u_asym();
        let r = set.region(set.region_of(f.entry()).unwrap());
        let lr = lower_region(&f, r, &live, None);
        let ddg = Ddg::build(&lr, &m);
        let good = schedule_region(&lr, &m, &ScheduleOptions::default());
        verify_schedule(&lr, &ddg, &m, &good).unwrap();
        let divs: Vec<usize> = lr
            .lops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.op.opcode == treegion_ir::Opcode::FDiv)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(divs.len(), 2);
        assert_ne!(good.cycle_of[divs[0]], good.cycle_of[divs[1]]);
        let mut s = good.clone();
        for row in s.cycles.iter_mut() {
            row.retain(|i| !divs.contains(i));
        }
        s.cycles[0].extend(&divs);
        // Keep cycle_of consistent so the class check is what trips.
        let rebuilt: Vec<Vec<usize>> = s.cycles.clone();
        for (c, row) in rebuilt.iter().enumerate() {
            for &i in row {
                s.cycle_of[i] = Some(c as u32);
            }
        }
        assert_eq!(
            verify_schedule(&lr, &ddg, &m, &s).unwrap_err().kind(),
            ScheduleErrorKind::ClassOverflow
        );
    }

    #[test]
    fn finite_file_legality_is_checked_independently() {
        // Eight dead movis: the unbounded schedule packs four defs into
        // cycle 0, which a 1-register file cannot hold; the schedule the
        // finite machine itself produces must verify cleanly.
        let mut b = FunctionBuilder::new("rf");
        let bb0 = b.block();
        for k in 0..8 {
            let r = b.gpr();
            b.push(bb0, Op::movi(r, k));
        }
        b.ret(bb0, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let r = set.region(set.region_of(f.entry()).unwrap());
        let lr = lower_region(&f, r, &live, None);
        let m_fin = MachineModel::model_4u().with_gpr_file(1);
        let ddg = Ddg::build(&lr, &m_fin);
        let wide = schedule_region(&lr, &MachineModel::model_4u(), &ScheduleOptions::default());
        assert_eq!(
            verify_schedule(&lr, &ddg, &m_fin, &wide)
                .unwrap_err()
                .kind(),
            ScheduleErrorKind::RegFileOverflow
        );
        let tight = schedule_region(&lr, &m_fin, &ScheduleOptions::default());
        verify_schedule(&lr, &ddg, &m_fin, &tight).unwrap();
    }

    #[test]
    fn tampered_schedules_are_rejected() {
        let f = branchy();
        let set = form_treegions(&f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let m = MachineModel::model_4u();
        let r = set.region(set.region_of(f.entry()).unwrap());
        let lr = lower_region(&f, r, &live, None);
        let ddg = Ddg::build(&lr, &m);
        let good = schedule_region(&lr, &m, &ScheduleOptions::default());
        verify_schedule(&lr, &ddg, &m, &good).unwrap();

        // Drop an op from its cycle: completeness violation.
        let mut s = good.clone();
        s.cycles[0].pop();
        assert!(verify_schedule(&lr, &ddg, &m, &s).is_err());

        // Move a consumer before its producer: latency violation.
        let mut s = good.clone();
        if let Some(e) = ddg.edges().iter().find(|e| e.latency > 0) {
            // Force the consumer's recorded cycle to 0.
            let to = e.to;
            let from_cycle = s.cycle_of[e.from].unwrap();
            if from_cycle > 0 || e.latency > 0 {
                // remove from old row, insert into row 0
                for row in s.cycles.iter_mut() {
                    row.retain(|&i| i != to);
                }
                s.cycles[0].insert(0, to);
                s.cycle_of[to] = Some(0);
                assert!(verify_schedule(&lr, &ddg, &m, &s).is_err());
            }
        }

        // Overfill a cycle: resource violation.
        let mut s = good.clone();
        let all: Vec<usize> = (0..lr.lops.len()).collect();
        s.cycles[0] = all.clone();
        s.cycles.truncate(1);
        for (i, c) in s.cycle_of.iter_mut().enumerate() {
            let _ = i;
            *c = Some(0);
        }
        let _ = all;
        assert!(verify_schedule(&lr, &ddg, &m, &s).is_err());
    }
}
