//! The precomputed resource-hazard automaton.
//!
//! The list scheduler's inner loop used to re-check `issue_width`,
//! `branch_limit`, and `mem_port_limit` with branchy per-op conditionals
//! on every popped ready op. Following the MLRISC
//! `VLIW_SCHEDULING_AUTOMATON` design, the per-cycle resource question —
//! *can one more op of this class issue in the current cycle?* — is
//! instead answered by a finite-state automaton precomputed once per
//! [`crate::MachineModel`]: every reachable per-cycle resource state is
//! enumerated by subset construction over the machine's unit vector and
//! interned into a dense `u16` transition table, so the hot-loop probe is
//! one indexed load (`go(state, class)`), with `u16::MAX` as the hazard
//! sentinel.
//!
//! States stay small because a state is nothing but the vector of
//! per-class issue counts already consumed this cycle, bounded by the
//! issue width and by each class's unit count: a machine with no class
//! limits has exactly `issue_width + 1` states (the total-slots counter),
//! and each finite class limit `l` multiplies the bound by at most
//! `l + 1`. The paper's 8-wide universal machine has 9 states; the
//! asymmetric 4-wide preset ([`crate::MachineModel::model_4u_asym`]) has
//! 36.

use treegion_ir::Opcode;

/// Resource class of an operation — the alphabet of the automaton.
///
/// The classification mirrors exactly the resource distinctions the
/// scheduler has always drawn: branches (the `branch_limit` pool), memory
/// operations including calls (the `mem_port_limit` pool), floating-point
/// divides (their own unit on asymmetric machines), and everything else
/// on the universal ALU pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// Universal ALU / default class.
    Alu = 0,
    /// Memory operations: loads, stores, and calls.
    Mem = 1,
    /// Branches (conditional, unconditional, returns).
    Branch = 2,
    /// Floating-point divide.
    FDiv = 3,
}

impl OpClass {
    /// Number of resource classes.
    pub const COUNT: usize = 4;

    /// All classes, in table order.
    pub const ALL: [OpClass; OpClass::COUNT] =
        [OpClass::Alu, OpClass::Mem, OpClass::Branch, OpClass::FDiv];

    /// Classifies an opcode. Branches are `Opcode::is_branch`; memory is
    /// `Opcode::is_memory` plus `Call` (calls occupy a memory port, as
    /// the scheduler and verifier have always counted them) plus the
    /// spill/reload pair (private-slot traffic still moves through a
    /// memory unit even though it never aliases program memory); `FDiv`
    /// is its own class; everything else is ALU.
    #[inline]
    pub fn of(op: Opcode) -> OpClass {
        if op.is_branch() {
            OpClass::Branch
        } else if op.is_memory() || matches!(op, Opcode::Call | Opcode::Spill | Opcode::Reload) {
            OpClass::Mem
        } else if op == Opcode::FDiv {
            OpClass::FDiv
        } else {
            OpClass::Alu
        }
    }

    /// Dense index of the class (its discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstructs a class from [`OpClass::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= OpClass::COUNT`.
    #[inline]
    pub fn from_index(i: usize) -> OpClass {
        OpClass::ALL[i]
    }

    /// Stable short name (`alu`/`mem`/`branch`/`fdiv`).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Mem => "mem",
            OpClass::Branch => "branch",
            OpClass::FDiv => "fdiv",
        }
    }
}

/// Transition-table sentinel for "structural hazard" (no successor
/// state: the class, or the cycle, is saturated).
const HAZARD: u16 = u16::MAX;

/// A per-cycle resource-hazard automaton: states are reachable per-cycle
/// resource-usage vectors, transitions consume one op of a class.
///
/// Built once at [`crate::MachineModel`] construction; the scheduler
/// threads one state per cycle and replaces every per-op limit
/// conditional with [`HazardAutomaton::go`].
#[derive(Clone, Debug)]
pub struct HazardAutomaton {
    /// Dense transition table, `state * OpClass::COUNT + class`.
    table: Vec<u16>,
    state_count: usize,
}

impl HazardAutomaton {
    /// Enumerates the reachable states of a machine with the given issue
    /// width and per-class unit counts (`None` = the class draws only on
    /// the shared issue width) and interns them into the dense table.
    ///
    /// Subset construction in the classic sense: start from the empty
    /// cycle, apply every class to every frontier state, intern each new
    /// usage vector, until closed. States are interned in BFS order, so
    /// state 0 is always the start state.
    ///
    /// # Panics
    ///
    /// Panics if the reachable state space exceeds the `u16` encoding
    /// (possible only for issue widths and unit counts far beyond any
    /// machine the paper or the examples model).
    pub(crate) fn build(issue_width: usize, class_units: &[Option<usize>; OpClass::COUNT]) -> Self {
        // Canonical state: total slots in use, plus the used count of
        // every *limited* class. Unlimited classes contribute only to the
        // total — collapsing them is what keeps an all-universal machine
        // at exactly `issue_width + 1` states instead of one state per
        // class-mix composition.
        type Key = [u16; OpClass::COUNT + 1]; // [total, used per class]
        let mut ids: std::collections::HashMap<Key, u16> = std::collections::HashMap::new();
        let mut states: Vec<Key> = Vec::new();
        let mut table: Vec<u16> = Vec::new();
        let start: Key = [0; OpClass::COUNT + 1];
        ids.insert(start, 0);
        states.push(start);
        let mut next = 0usize;
        while next < states.len() {
            let cur = states[next];
            next += 1;
            let total = cur[0] as usize;
            for class in OpClass::ALL {
                let c = class.index();
                let within_units = class_units[c].is_none_or(|limit| (cur[1 + c] as usize) < limit);
                let succ = if total < issue_width && within_units {
                    let mut nxt = cur;
                    nxt[0] += 1;
                    if class_units[c].is_some() {
                        nxt[1 + c] += 1;
                    }
                    *ids.entry(nxt).or_insert_with(|| {
                        let id = states.len();
                        assert!(
                            id < HAZARD as usize,
                            "hazard automaton state space overflow ({id} states)"
                        );
                        states.push(nxt);
                        id as u16
                    })
                } else {
                    HAZARD
                };
                table.push(succ);
            }
        }
        HazardAutomaton {
            table,
            state_count: states.len(),
        }
    }

    /// The empty-cycle start state.
    #[inline]
    pub fn start(&self) -> u16 {
        0
    }

    /// Consumes one op of `class` in `state`: the successor state, or
    /// `None` on a structural hazard (class units or issue width
    /// saturated). One indexed load — this is the scheduler's per-op
    /// resource probe.
    #[inline]
    pub fn go(&self, state: u16, class: OpClass) -> Option<u16> {
        let next = self.table[state as usize * OpClass::COUNT + class.index()];
        if next == HAZARD {
            None
        } else {
            Some(next)
        }
    }

    /// Number of interned states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of classes in the alphabet (the table's row width).
    #[inline]
    pub fn num_classes(&self) -> usize {
        OpClass::COUNT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineModel;

    /// Brute-force counter simulation of one class sequence under the
    /// machine's limits — the oracle `go` must agree with exactly.
    fn counters_accept(
        issue_width: usize,
        units: &[Option<usize>; OpClass::COUNT],
        used: &mut [usize; OpClass::COUNT],
        class: OpClass,
    ) -> bool {
        let total: usize = used.iter().sum();
        if total >= issue_width {
            return false;
        }
        if let Some(limit) = units[class.index()] {
            if used[class.index()] >= limit {
                return false;
            }
        }
        used[class.index()] += 1;
        true
    }

    #[test]
    fn classify_matches_legacy_predicates() {
        use treegion_ir::Cond;
        for op in [
            Opcode::Add,
            Opcode::MovI,
            Opcode::Cmpp(Cond::Lt),
            Opcode::FMul,
            Opcode::Copy,
        ] {
            assert_eq!(OpClass::of(op), OpClass::Alu, "{op:?}");
        }
        for op in [Opcode::Load, Opcode::Store, Opcode::Call] {
            assert_eq!(OpClass::of(op), OpClass::Mem, "{op:?}");
        }
        for op in [Opcode::Brct, Opcode::Brcf, Opcode::Bru, Opcode::Ret] {
            assert_eq!(OpClass::of(op), OpClass::Branch, "{op:?}");
        }
        assert_eq!(OpClass::of(Opcode::FDiv), OpClass::FDiv);
        // Pbr prepares a branch but issues on a universal slot.
        assert_eq!(OpClass::of(Opcode::Pbr), OpClass::Alu);
    }

    #[test]
    fn unlimited_machine_counts_only_total_slots() {
        // No class limits: the state is just "slots used", so exactly
        // width + 1 states, saturating on every class at once.
        for width in [1usize, 4, 8] {
            let a = HazardAutomaton::build(width, &[None; OpClass::COUNT]);
            assert_eq!(a.state_count(), width + 1, "width {width}");
            let mut state = a.start();
            for step in 0..width {
                state = a.go(state, OpClass::ALL[step % OpClass::COUNT]).unwrap();
            }
            for class in OpClass::ALL {
                assert_eq!(a.go(state, class), None, "width {width} {class:?}");
            }
        }
    }

    #[test]
    fn go_agrees_with_brute_force_counters_on_all_sequences() {
        // Exhaustive depth-first over all class sequences up to the issue
        // width (+1 to probe past saturation) on the asymmetric preset:
        // the automaton must accept exactly what the counters accept and
        // land in the interned state for the counter vector.
        let m = MachineModel::model_4u_asym();
        let a = m.hazard_automaton();
        let units = [None, Some(2), Some(1), Some(1)];
        let width = m.issue_width();
        // Stack of (state, counters, depth).
        let mut stack = vec![(a.start(), [0usize; OpClass::COUNT], 0usize)];
        let mut visited = 0usize;
        while let Some((state, used, depth)) = stack.pop() {
            visited += 1;
            for class in OpClass::ALL {
                let mut u = used;
                let expect = counters_accept(width, &units, &mut u, class);
                match a.go(state, class) {
                    Some(next) => {
                        assert!(expect, "automaton accepted {class:?} at {used:?}");
                        if depth < width {
                            stack.push((next, u, depth + 1));
                        }
                    }
                    None => assert!(!expect, "automaton rejected {class:?} at {used:?}"),
                }
            }
        }
        assert!(visited > 1);
    }

    #[test]
    fn state_counts_stay_small() {
        assert_eq!(MachineModel::model_1u().hazard_automaton().state_count(), 2);
        assert_eq!(MachineModel::model_4u().hazard_automaton().state_count(), 5);
        assert_eq!(MachineModel::model_8u().hazard_automaton().state_count(), 9);
        // 4-wide, mem<=2, branch<=1, fdiv<=1: the reachable
        // (total, mem, branch, fdiv) tuples with mem+branch+fdiv <= total
        // <= 4 number exactly 36.
        assert_eq!(
            MachineModel::model_4u_asym()
                .hazard_automaton()
                .state_count(),
            36
        );
    }

    #[test]
    #[should_panic(expected = "state space overflow")]
    fn state_space_overflow_panics() {
        // Four unbounded-ish classes at an absurd width: the number of
        // usage vectors exceeds the u16 id space and must panic loudly
        // rather than mis-intern.
        let _ = HazardAutomaton::build(4096, &[Some(4096), Some(4096), Some(4096), Some(4096)]);
    }
}
