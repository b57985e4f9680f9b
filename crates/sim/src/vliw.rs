//! VLIW schedule executor.
//!
//! Executes a whole function as a chain of scheduled regions under the
//! linearized-predicated semantics described in DESIGN.md: every MultiOp
//! of the current region's schedule executes in order; speculated ops
//! always write their renamed destinations; guarded ops (stores, calls,
//! branches) take effect only when their path predicate is true; the
//! first exit branch whose predicate holds ends the region at its cycle,
//! applies the exit's renaming copies, and transfers to the target region.
//!
//! The executor also *validates* the schedule as it runs: reading a
//! register before its producer's latency has elapsed, or two exits
//! firing in the same region execution, are reported as
//! [`SimError::Invariant`] — turning scheduler bugs into test failures
//! rather than silent wrong numbers.

use crate::interp::SimError;
use crate::state::{exec_op, State};
use std::collections::HashMap;
use treegion::{
    LOpKind, LoweredRegion, NullObserver, Pipeline, RegionId, RegionSet, RobustOptions, Schedule,
    ScheduleOptions,
};
use treegion_ir::{BlockId, Function, Opcode, Reg};
use treegion_machine::MachineModel;

/// A region lowered and scheduled, ready for execution.
#[derive(Clone, Debug)]
pub struct CompiledRegion {
    /// The lowered region (renamed ops, exits, copies).
    pub lowered: LoweredRegion,
    /// Its schedule.
    pub schedule: Schedule,
}

/// A fully scheduled function: one [`CompiledRegion`] per region.
#[derive(Clone, Debug)]
pub struct VliwProgram<'f> {
    function: &'f Function,
    regions: &'f RegionSet,
    machine: MachineModel,
    compiled: Vec<CompiledRegion>,
}

/// Result of a VLIW execution.
#[derive(Clone, Debug)]
pub struct VliwResult {
    /// Returned value, if any.
    pub ret: Option<i64>,
    /// Final architectural state.
    pub state: State,
    /// Total cycles: Σ over executed regions of (fired exit height).
    pub cycles: u64,
    /// Region roots entered, in order.
    pub region_trace: Vec<BlockId>,
    /// Dynamic count of renaming copies applied at exits.
    pub copies_applied: u64,
}

impl<'f> VliwProgram<'f> {
    /// Lowers, schedules and verifies every region of `f` under `m` and
    /// `opts` through [`Pipeline::schedule_set`].
    ///
    /// `origin_map` is the per-block origin map from tail duplication
    /// (pass `None` when the function was not transformed).
    ///
    /// # Panics
    ///
    /// Panics when a region fails to schedule or to verify (see
    /// [`Pipeline::schedule_set`]).
    pub fn compile(
        f: &'f Function,
        regions: &'f RegionSet,
        m: &MachineModel,
        opts: &ScheduleOptions,
        origin_map: Option<&[BlockId]>,
    ) -> Self {
        // Stages 2–5 of the core driver: every region lowered, scheduled
        // and verified, in region order (a region that fails panics).
        let pipeline = Pipeline::with_options(
            m,
            RobustOptions {
                sched: *opts,
                ..Default::default()
            },
        );
        let compiled = pipeline
            .schedule_set(f, regions, origin_map, &NullObserver)
            .into_iter()
            .map(|s| CompiledRegion {
                lowered: std::sync::Arc::unwrap_or_clone(s.lowered),
                schedule: s.schedule,
            })
            .collect();
        VliwProgram {
            function: f,
            regions,
            machine: m.clone(),
            compiled,
        }
    }

    /// The compiled regions, indexed like the region set.
    pub fn compiled(&self) -> &[CompiledRegion] {
        &self.compiled
    }

    /// Total estimated execution time of the program under the paper's
    /// analytic model: Σ over regions of Σ exit count × schedule height.
    pub fn estimated_time(&self) -> f64 {
        self.compiled
            .iter()
            .map(|c| c.schedule.estimated_time(&c.lowered))
            .sum()
    }

    /// Executes the program from the entry region.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfFuel`] if more than `fuel` regions execute;
    /// [`SimError::Invariant`] on schedule-correctness violations (early
    /// reads, multiple exits firing, exits into non-root blocks).
    pub fn execute(&self, initial: State, fuel: u64) -> Result<VliwResult, SimError> {
        let mut state = initial;
        let mut block = self.function.entry();
        let mut trace = Vec::new();
        let mut cycles = 0u64;
        let mut copies_applied = 0u64;
        for _ in 0..fuel {
            trace.push(block);
            let rid = self
                .regions
                .region_of(block)
                .ok_or_else(|| SimError::Invariant(format!("{block} not in any region")))?;
            let region = self.regions.region(rid);
            if region.root() != block {
                return Err(SimError::Invariant(format!(
                    "entered {block}, which is not the root of its region"
                )));
            }
            let outcome = self.run_region(rid, &mut state, &mut copies_applied)?;
            cycles += outcome.0 as u64;
            match outcome.1 {
                Some(next) => block = next,
                None => {
                    return Ok(VliwResult {
                        ret: outcome.2,
                        state,
                        cycles,
                        region_trace: trace,
                        copies_applied,
                    })
                }
            }
        }
        Err(SimError::OutOfFuel)
    }

    /// Runs one region; returns (height, next block or None for return,
    /// return value).
    fn run_region(
        &self,
        rid: RegionId,
        state: &mut State,
        copies_applied: &mut u64,
    ) -> Result<(u32, Option<BlockId>, Option<i64>), SimError> {
        let c = &self.compiled[rid.0];
        let lr = &c.lowered;
        let sched = &c.schedule;
        // Per-region timing validation: cycle each renamed reg is ready.
        let mut ready: HashMap<Reg, u32> = HashMap::new();
        let m_lat = |op: Opcode| -> u32 { self.machine.latency(op) };

        for (cycle, row) in sched.cycles.iter().enumerate() {
            let cycle = cycle as u32;
            let mut row = row.clone();
            row.sort_unstable(); // lop order respects all 0-latency deps
            let mut fired: Option<(usize, u32)> = None;
            for &i in &row {
                let l = &lr.lops[i];
                // Resolve dominator-parallelism aliases on reads.
                let mut op = l.op.clone();
                for u in op.uses.iter_mut() {
                    *u = sched.resolve(*u);
                }
                // Timing check on reads.
                for u in &op.uses {
                    if let Some(&rdy) = ready.get(u) {
                        if rdy > cycle {
                            return Err(SimError::Invariant(format!(
                                "op `{op}` at cycle {cycle} reads {u} ready at {rdy}"
                            )));
                        }
                    }
                }
                let guard_ok = l.guard.is_none_or(|g| state.read_pred(sched.resolve(g)));
                match op.opcode {
                    Opcode::Pbr => {
                        state.write(op.defs[0], op.target.unwrap().index() as i64);
                        ready.insert(op.defs[0], cycle + 1);
                    }
                    Opcode::Brct | Opcode::Brcf | Opcode::Bru | Opcode::Ret => {
                        let take = match op.opcode {
                            Opcode::Bru => true,
                            Opcode::Brct => state.read_pred(sched.resolve(op.uses[1])),
                            Opcode::Brcf => !state.read_pred(sched.resolve(op.uses[1])),
                            Opcode::Ret => guard_ok,
                            _ => unreachable!(),
                        };
                        if take {
                            if let LOpKind::ExitBranch(e) = l.kind {
                                if let Some((prev, _)) = fired {
                                    return Err(SimError::Invariant(format!(
                                        "exits {prev} and {e} both fired at cycle {cycle}"
                                    )));
                                }
                                fired = Some((e, cycle));
                            }
                            // Internal branches transfer no control in the
                            // linearized schedule.
                        }
                    }
                    Opcode::Store | Opcode::Call => {
                        if guard_ok {
                            exec_op(state, &op)?;
                        }
                        if let Some(d) = op.def() {
                            ready.insert(d, cycle + m_lat(op.opcode));
                        }
                    }
                    _ => {
                        // Speculated ops execute unconditionally into their
                        // renamed destinations.
                        exec_op(state, &op)?;
                        for d in &op.defs {
                            ready.insert(*d, cycle + m_lat(op.opcode));
                        }
                    }
                }
            }
            if let Some((e, at)) = fired {
                let exit = &lr.exits[e];
                let height = at + 1;
                // Apply the exit's renaming copies; values must be ready by
                // the end of the exit cycle.
                for (arch, renamed) in &exit.copies {
                    let src = sched.resolve(*renamed);
                    if let Some(&rdy) = ready.get(&src) {
                        if rdy > at + 1 {
                            return Err(SimError::Invariant(format!(
                                "exit copy of {src} at cycle {at} before ready {rdy}"
                            )));
                        }
                    }
                    if arch.is_pred() {
                        let v = state.read_pred(src);
                        state.write_pred(*arch, v);
                    } else {
                        let v = state.read(src);
                        state.write(*arch, v);
                    }
                    *copies_applied += 1;
                }
                let ret = match lr.lops[exit.branch_lop].op.opcode {
                    Opcode::Ret => lr.lops[exit.branch_lop]
                        .op
                        .uses
                        .first()
                        .map(|r| state.read(sched.resolve(*r))),
                    _ => None,
                };
                return Ok((height, exit.target, ret));
            }
        }
        Err(SimError::Invariant(
            "region schedule ended without an exit firing".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use treegion::{form_basic_blocks, form_treegions, Heuristic};
    use treegion_ir::{Cond, FunctionBuilder, Op};

    fn check_equivalence(f: &Function, initial: State) {
        let expected = interpret(f, initial.clone(), 10_000).expect("interp");
        for m in [
            MachineModel::model_1u(),
            MachineModel::model_4u(),
            MachineModel::model_8u(),
        ] {
            for h in Heuristic::ALL {
                for set in [form_basic_blocks(f), form_treegions(f)] {
                    let opts = ScheduleOptions {
                        heuristic: h,
                        dominator_parallelism: false,
                        ..Default::default()
                    };
                    let prog = VliwProgram::compile(f, &set, &m, &opts, None);
                    let got = prog.execute(initial.clone(), 10_000).expect("vliw");
                    assert_eq!(got.ret, expected.ret, "{m} {h}");
                    assert_eq!(got.state.mem, expected.state.mem, "{m} {h}");
                }
            }
        }
    }

    #[test]
    fn straightline_equivalence() {
        let mut b = FunctionBuilder::new("s");
        let bb0 = b.block();
        let (a, x, y, z) = (b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                Op::movi(a, 100),
                Op::movi(x, 3),
                Op::store(a, x, 0),
                Op::load(y, a, 0),
                Op::add(z, y, x),
            ],
        );
        b.ret(bb0, Some(z));
        check_equivalence(&b.finish(), State::new());
    }

    #[test]
    fn branching_equivalence_both_paths() {
        for seed in [1i64, -4] {
            let mut b = FunctionBuilder::new("br");
            let (bb0, bb1, bb2, bb3) = (b.block(), b.block(), b.block(), b.block());
            let (x, zero, c, y, a) = (b.gpr(), b.gpr(), b.gpr(), b.gpr(), b.gpr());
            b.push_all(
                bb0,
                [
                    Op::movi(x, seed),
                    Op::movi(zero, 0),
                    Op::movi(a, 200),
                    Op::cmp(Cond::Gt, c, x, zero),
                ],
            );
            b.branch(bb0, c, (bb1, 50.0), (bb2, 50.0));
            b.push_all(bb1, [Op::movi(y, 10), Op::store(a, y, 0)]);
            b.jump(bb1, bb3, 50.0);
            b.push_all(bb2, [Op::movi(y, 20), Op::store(a, y, 8)]);
            b.jump(bb2, bb3, 50.0);
            b.ret(bb3, Some(y));
            check_equivalence(&b.finish(), State::new());
        }
    }

    #[test]
    fn speculated_wrong_path_ops_are_inert() {
        // The not-taken path stores to memory; speculation must not let
        // that store land.
        let mut b = FunctionBuilder::new("spec");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (one, c, a, v) = (b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                Op::movi(one, 1),
                Op::movi(a, 300),
                Op::movi(v, 9),
                Op::movi(c, 1),
            ],
        );
        b.branch(bb0, c, (bb1, 1.0), (bb2, 0.0));
        b.ret(bb1, Some(one));
        b.push(bb2, Op::store(a, v, 0));
        b.ret(bb2, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let prog = VliwProgram::compile(
            &f,
            &set,
            &MachineModel::model_8u(),
            &ScheduleOptions::default(),
            None,
        );
        let got = prog.execute(State::new(), 100).unwrap();
        assert_eq!(got.ret, Some(1));
        assert!(
            got.state.mem.is_empty(),
            "wrong-path store leaked: {:?}",
            got.state.mem
        );
    }

    #[test]
    fn loop_equivalence() {
        let mut b = FunctionBuilder::new("loop");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (i, one, n, c, acc) = (b.gpr(), b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                Op::movi(i, 0),
                Op::movi(one, 1),
                Op::movi(n, 7),
                Op::movi(acc, 0),
            ],
        );
        b.jump(bb0, bb1, 1.0);
        b.push_all(
            bb1,
            [
                Op::add(acc, acc, i),
                Op::add(i, i, one),
                Op::cmp(Cond::Lt, c, i, n),
            ],
        );
        b.branch(bb1, c, (bb1, 6.0), (bb2, 1.0));
        b.ret(bb2, Some(acc));
        check_equivalence(&b.finish(), State::new());
    }

    #[test]
    fn switch_equivalence_all_targets() {
        for v in [1i64, 2, 77] {
            let mut b = FunctionBuilder::new("sw");
            let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
            let (on, r) = (b.gpr(), b.gpr());
            b.push(ids[0], Op::movi(on, v));
            b.switch(
                ids[0],
                on,
                vec![(1, ids[1], 1.0), (2, ids[2], 1.0)],
                (ids[3], 1.0),
            );
            b.push(ids[1], Op::movi(r, 100));
            b.ret(ids[1], Some(r));
            b.push(ids[2], Op::movi(r, 200));
            b.ret(ids[2], Some(r));
            b.push(ids[3], Op::movi(r, 300));
            b.ret(ids[3], Some(r));
            check_equivalence(&b.finish(), State::new());
        }
    }

    #[test]
    fn spilled_schedules_execute_correctly_under_a_tiny_register_file() {
        // A balanced reduction over 8 constants keeps many values live at
        // once; under a 3-register GPR file the scheduler must spill. The
        // executed result has to match the sequential interpreter, the
        // compiled region must actually contain spill code, and spill
        // traffic must stay in the private slot space (program memory
        // untouched).
        let mut b = FunctionBuilder::new("pressure");
        let bb0 = b.block();
        let leaves: Vec<_> = (0..8).map(|_| b.gpr()).collect();
        for (k, &r) in leaves.iter().enumerate() {
            b.push(bb0, Op::movi(r, (k as i64 + 1) * 11));
        }
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let d = b.gpr();
                b.push(bb0, Op::add(d, pair[0], pair[1]));
                next.push(d);
            }
            level = next;
        }
        b.ret(bb0, Some(level[0]));
        let f = b.finish();
        let expected = interpret(&f, State::new(), 10_000).expect("interp");

        let set = form_treegions(&f);
        let m = MachineModel::model_4u().with_gpr_file(3);
        let prog = VliwProgram::compile(&f, &set, &m, &ScheduleOptions::default(), None);
        let spills: usize = prog
            .compiled()
            .iter()
            .flat_map(|c| c.lowered.lops.iter())
            .filter(|l| l.op.opcode == Opcode::Spill)
            .count();
        assert!(spills > 0, "tiny file must force spill code");

        // Real mem-unit occupancy: spill/reload traffic competes for the
        // same memory units as loads/stores, so no cycle may hold more
        // Mem-class ops than the machine has units.
        let mem_units = m
            .unit_limit(treegion_machine::OpClass::Mem)
            .unwrap_or(m.issue_width());
        for c in prog.compiled() {
            for row in &c.schedule.cycles {
                let mem_ops = row
                    .iter()
                    .filter(|&&i| {
                        treegion_machine::OpClass::of(c.lowered.lops[i].op.opcode)
                            == treegion_machine::OpClass::Mem
                    })
                    .count();
                assert!(
                    mem_ops <= mem_units,
                    "{mem_ops} mem ops in one cycle on a {mem_units}-unit machine"
                );
            }
        }

        let got = prog.execute(State::new(), 100).expect("vliw");
        assert_eq!(got.ret, expected.ret);
        assert!(
            got.state.mem.is_empty(),
            "spills leaked into program memory"
        );
        assert!(!got.state.slots.is_empty(), "spills never wrote a slot");
    }

    #[test]
    fn measured_cycles_match_analytic_heights() {
        // For a single-region function the dynamic cycle count must equal
        // the schedule height of the taken exit.
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (x, y, c) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [Op::movi(x, 1), Op::movi(y, 2), Op::cmp(Cond::Lt, c, x, y)],
        );
        b.branch(bb0, c, (bb1, 1.0), (bb2, 1.0));
        b.ret(bb1, None);
        b.ret(bb2, None);
        let f = b.finish();
        let set = form_treegions(&f);
        let m = MachineModel::model_4u();
        let prog = VliwProgram::compile(&f, &set, &m, &ScheduleOptions::default(), None);
        let got = prog.execute(State::new(), 100).unwrap();
        let c0 = &prog.compiled()[0];
        // The taken exit is the one targeting bb1's… bb1 is inside the
        // region (treegion covers all three blocks), so the region returns
        // directly: the fired exit's height must equal measured cycles.
        let heights: Vec<u32> = (0..c0.lowered.exits.len())
            .map(|e| c0.schedule.exit_height(e))
            .collect();
        assert!(heights.contains(&(got.cycles as u32)));
    }
}
