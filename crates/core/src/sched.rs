//! The treegion list scheduler — steps two and three of the paper's
//! Figure 3 algorithm (priority sort + list scheduling), plus the
//! dominator-parallelism elimination of Section 4.
//!
//! The scheduler emits one cycle-indexed schedule for the whole region.
//! Each cycle is a MultiOp of at most `issue_width` ops. Speculation is
//! implicit: renaming has made every op safe to issue as soon as its data
//! dependences allow, regardless of branches. Side-effecting ops and
//! branches carry path-predicate guards instead (PlayDoh predication), so
//! a wrong-path op in the linearized schedule is architecturally inert.
//!
//! An exit's *schedule height* is the issue cycle of its (predicated)
//! branch plus one; a region's estimated execution time is
//! `Σ exit count × height`, exactly the formula under the paper's
//! Figures 4 and 5.

use crate::ddg::Ddg;
use crate::error::{Budgets, SchedFailure};
use crate::heuristic::Heuristic;
use crate::lower::{LOpKind, LoweredRegion};
use crate::observe::StageStats;
use std::collections::HashMap;
use treegion_ir::{Reg, RegClass};
use treegion_machine::{MachineModel, OpClass};

/// Resource-automaton and register-pressure counters of one scheduler
/// run, returned with its schedule by [`try_schedule_with_ddg`]. The
/// pipeline driver folds them into the list-scheduling stage's
/// [`StageStats`], which is how `--profile` and `tgc serve stats` report
/// them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedMetrics {
    /// Structural-hazard probe rejections (`go` returned `None`) while
    /// popping ready ops.
    pub hazard_hits: u64,
    /// Ready entries parked on a class's deferral list until the cycle
    /// ended (re-admission events are counted once per park).
    pub deferral_parks: u64,
    /// Peak simultaneous live ranges per register class, indexed by
    /// [`RegClass::index`]. Tracked on every machine (unbounded files
    /// included) — this is the number a finite file would have to hold.
    pub pressure_peak: [u32; 3],
    /// Ready entries deferred because issuing their defs would overflow
    /// a finite register file (counted once per park, like
    /// `deferral_parks`). Always zero on unbounded machines.
    pub pressure_parks: u64,
}

impl SchedMetrics {
    /// The list-scheduling stage's counters for one scheduled region:
    /// its lowered ops, its DDG edges, these metrics (the pressure peak
    /// of the fullest class), and the spill victims inserted before the
    /// schedule succeeded.
    pub(crate) fn stage_stats(&self, lr: &LoweredRegion, ddg: &Ddg, spills: u64) -> StageStats {
        StageStats {
            regions: 1,
            ops: lr.num_ops(),
            edges: ddg.edges().len(),
            hazard_hits: self.hazard_hits,
            deferral_parks: self.deferral_parks,
            pressure_peak: self.pressure_peak.iter().copied().max().unwrap_or(0),
            pressure_parks: self.pressure_parks,
            spills,
        }
    }
}

/// How the list scheduler breaks ties between ops of equal heuristic
/// priority.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Source (preorder) position: earlier paths win. The default, and
    /// the convention of classic list schedulers.
    #[default]
    SourceOrder,
    /// Round-robin across region-tree nodes: prefer the node that has
    /// issued the fewest ops so far, so all paths progress together —
    /// an implementation of the "democratic" behaviour the paper
    /// attributes to dependence-height scheduling on wide, shallow
    /// treegions (Figure 9 discussion).
    RoundRobin,
}

/// Scheduler configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// The priority heuristic (Section 3).
    pub heuristic: Heuristic,
    /// Enable dominator-parallelism elimination of redundant
    /// tail-duplicated ops (Section 4).
    pub dominator_parallelism: bool,
    /// Tie-breaking policy among equal-priority ready ops.
    pub tie_break: TieBreak,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            heuristic: Heuristic::GlobalWeight,
            dominator_parallelism: false,
            tie_break: TieBreak::SourceOrder,
        }
    }
}

/// A finished schedule for one region.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Issue cycles; each inner vec holds lop indices in slot order.
    pub cycles: Vec<Vec<usize>>,
    /// Issue cycle per lop (`None` if the op was eliminated by dominator
    /// parallelism).
    pub cycle_of: Vec<Option<u32>>,
    /// Issue cycle of each exit's branch, indexed like
    /// [`LoweredRegion::exits`].
    pub exit_cycles: Vec<u32>,
    /// Ops removed by dominator parallelism: `(eliminated, surviving twin)`.
    pub eliminated: Vec<(usize, usize)>,
    /// Register substitutions introduced by eliminations
    /// (`eliminated def -> surviving def`).
    pub reg_alias: HashMap<Reg, Reg>,
}

impl Schedule {
    /// Schedule length in cycles.
    pub fn length(&self) -> usize {
        self.cycles.len()
    }

    /// The paper's schedule height of exit `e`: branch issue cycle + 1.
    pub fn exit_height(&self, e: usize) -> u32 {
        self.exit_cycles[e] + 1
    }

    /// Estimated execution time of the region: Σ exit count × height
    /// (the formula under Figures 4/5).
    pub fn estimated_time(&self, lr: &LoweredRegion) -> f64 {
        lr.exits
            .iter()
            .enumerate()
            .map(|(e, exit)| exit.count * self.exit_height(e) as f64)
            .sum()
    }

    /// Estimated execution time of this schedule if the program followed
    /// a *different* profile than the one it was scheduled with: the
    /// heights stay fixed, the exit counts are read from `f_test` — a
    /// structurally identical function with perturbed profile weights.
    /// This is the paper's future-work question ("the effects of profile
    /// variations using the various heuristics").
    ///
    /// # Panics
    ///
    /// Panics if `f_test` does not have the same block/terminator
    /// structure as the function the region was lowered from.
    pub fn estimated_time_under(&self, lr: &LoweredRegion, f_test: &treegion_ir::Function) -> f64 {
        lr.exits
            .iter()
            .enumerate()
            .map(|(e, exit)| {
                let block = lr.nodes[exit.from_node].block;
                let count = if exit.succ_index == usize::MAX {
                    f_test.block(block).weight
                } else {
                    f_test.block(block).term.edges()[exit.succ_index].count
                };
                count * self.exit_height(e) as f64
            })
            .sum()
    }

    /// Number of ops actually issued (eliminated twins excluded).
    pub fn issued_ops(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    /// Resolves a register through the dominator-parallelism alias map.
    ///
    /// The scheduler itself only ever records alias chains of depth ≤ 1
    /// (an eliminated op aliases to a *surviving* twin, and survivors are
    /// never themselves eliminated), and internally resolves through a
    /// path-compressing union-find that cannot represent a cycle. This
    /// public walk over the (public, hand-editable) map is additionally
    /// bounded: a chain longer than the map itself proves a cycle, and
    /// the walk panics instead of spinning forever — the seed version
    /// hung on `{a -> b, b -> a}`.
    ///
    /// # Panics
    ///
    /// Panics if `reg_alias` contains a cyclic chain.
    pub fn resolve(&self, r: Reg) -> Reg {
        let mut cur = r;
        let mut steps = 0usize;
        while let Some(&next) = self.reg_alias.get(&cur) {
            steps += 1;
            assert!(
                steps <= self.reg_alias.len(),
                "cyclic reg_alias chain detected at {cur} (resolving {r})"
            );
            cur = next;
        }
        cur
    }
}

/// Schedules a lowered region on machine `m` (Figure 3: build DDG, sort by
/// heuristic, list schedule).
///
/// # Panics
///
/// Panics if the scheduler cannot make progress (a dependence-graph cycle,
/// which a correct DDG never contains), or if a finite register file on
/// `m` is provably too small for the region (a
/// [`SchedFailure::RegisterPressure`] livelock). The fallible pipeline
/// uses [`try_schedule_region`] instead, and the robust pipeline
/// additionally inserts spill code and retries before degrading.
pub fn schedule_region(lr: &LoweredRegion, m: &MachineModel, opts: &ScheduleOptions) -> Schedule {
    let ddg = Ddg::build(lr, m);
    schedule_with_ddg(lr, &ddg, m, opts)
}

/// [`schedule_region`] with a pre-built DDG: the bare kernel, for unit
/// tests and the `sched_ref` differential oracle. The pipeline schedules
/// through [`try_schedule_with_ddg`] and verifies every schedule itself.
///
/// # Panics
///
/// Panics if the scheduler cannot make progress (see [`schedule_region`]).
pub fn schedule_with_ddg(
    lr: &LoweredRegion,
    ddg: &Ddg,
    m: &MachineModel,
    opts: &ScheduleOptions,
) -> Schedule {
    let (sched, _) = try_schedule_with_ddg(lr, ddg, m, opts, &Budgets::UNLIMITED)
        .expect("scheduler failed to make progress (dependence cycle?)");
    // In debug builds, every schedule is independently re-verified —
    // scheduler bugs become loud test failures instead of wrong numbers.
    #[cfg(debug_assertions)]
    crate::verify_sched::verify_schedule(lr, ddg, m, &sched)
        .expect("scheduler produced an invalid schedule");
    sched
}

/// Fallible [`schedule_region`]: builds the DDG and schedules under the
/// given resource [`Budgets`], returning the schedule with the run's
/// [`SchedMetrics`].
///
/// # Errors
///
/// Returns [`SchedFailure::OpBudgetExceeded`] if the region is over the op
/// budget, or [`SchedFailure::StepBudgetExceeded`] if the list scheduler
/// runs more cycles than the cycle budget (or its built-in progress
/// watchdog) allows.
pub fn try_schedule_region(
    lr: &LoweredRegion,
    m: &MachineModel,
    opts: &ScheduleOptions,
    budgets: &Budgets,
) -> Result<(Schedule, SchedMetrics), SchedFailure> {
    if let Some(cap) = budgets.max_region_ops {
        if lr.num_ops() > cap {
            return Err(SchedFailure::OpBudgetExceeded {
                ops: lr.num_ops(),
                budget: cap,
            });
        }
    }
    let ddg = Ddg::build(lr, m);
    try_schedule_with_ddg(lr, &ddg, m, opts, budgets)
}

/// [`try_schedule_region`] with a pre-built DDG. This is the primitive the
/// degradation chain and the fault-injection harness drive directly: it
/// never panics on a malformed graph, and it does *not* self-verify (the
/// robust pipeline verifies explicitly, under its own [`crate::VerifyMode`]).
///
/// # Errors
///
/// Returns [`SchedFailure::StepBudgetExceeded`] when the scheduler runs
/// more cycles than `budgets.max_schedule_cycles` (or the built-in
/// watchdog of `4 × ops + 64` cycles, whichever is smaller) without
/// issuing every op — the symptom of a dependence cycle or a corrupted
/// graph.
pub fn try_schedule_with_ddg(
    lr: &LoweredRegion,
    ddg: &Ddg,
    m: &MachineModel,
    opts: &ScheduleOptions,
    budgets: &Budgets,
) -> Result<(Schedule, SchedMetrics), SchedFailure> {
    // Per-thread scratch: the transient tables below (heights, packed
    // keys, op state, the two heap backings, pass scratch) are sized by
    // the region and fully reinitialized per call, so reusing one
    // thread-local arena turns ~10 allocations per region into zero on
    // the steady state. `par_map` workers each get their own arena.
    SCRATCH.with(|cell| schedule_inner(&mut cell.borrow_mut(), lr, ddg, m, opts, budgets))
}

/// Reusable per-thread buffers for [`schedule_inner`]; every field is
/// cleared or overwritten at the start of each call, so only capacity
/// survives between regions.
#[derive(Default)]
struct Scratch {
    heights: Vec<u32>,
    base_key: Vec<ReadyKey>,
    class_of: Vec<u8>,
    exit_of: Vec<u32>,
    home_of: Vec<u32>,
    op_state: Vec<OpState>,
    heap: Vec<ReadyEntry>,
    future: Vec<std::cmp::Reverse<(u32, u32)>>,
    staged: Vec<usize>,
    parked: [Vec<ReadyEntry>; OpClass::COUNT],
    issued_this_cycle: Vec<usize>,
    issued_per_node: Vec<u32>,
    rr_snapshot: Vec<u32>,
    // Live-range pressure tables, one dense vec per register class
    // (indexed by `Reg::index`): remaining use occurrences, whether the
    // register was defined in the region, whether its range is open
    // right now, plus the current cycle's pending-kill list and the
    // finite-file deferral list.
    reg_uses: [Vec<u32>; 3],
    reg_defined: [Vec<bool>; 3],
    reg_alive: [Vec<bool>; 3],
    kills: Vec<Reg>,
    pressure_parked: Vec<ReadyEntry>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

fn schedule_inner(
    scratch: &mut Scratch,
    lr: &LoweredRegion,
    ddg: &Ddg,
    m: &MachineModel,
    opts: &ScheduleOptions,
    budgets: &Budgets,
) -> Result<(Schedule, SchedMetrics), SchedFailure> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = lr.lops.len();
    // Soft wall-clock deadline: one `Instant::now()` per schedule cycle
    // (cycles are coarse — a whole issue pass over the ready list), so
    // the overhead is negligible while a runaway attempt trips within a
    // cycle boundary. The clock is per *attempt*: each call starts fresh.
    let wall_start = budgets.max_wall_ms.map(|_| std::time::Instant::now());
    // Safety valve: a correct DDG can never deadlock, but guard against a
    // cycle bug (or an injected fault) rather than spinning forever. The
    // configured cycle budget tightens, never loosens, the watchdog.
    let watchdog = 4 * n + 64;
    let cycle_cap = budgets
        .max_schedule_cycles
        .map_or(watchdog, |b| b.min(watchdog));
    ddg.heights_into(lr, m, &mut scratch.heights);
    let heights = &scratch.heights;

    // The static part of every op's scheduling identity, precomputed in
    // one fused pass over the lop table: the ready-queue key (the seed
    // re-sorted the avail vec on every issue pass, re-deriving branchness
    // and re-comparing `[f64; 3]` priorities each time; a heap pop yields
    // the identical order from plain integer compares), the op's resource
    // class for the hazard-automaton probe, its exit index (or `MAX`),
    // and — under RoundRobin — its home node. The issue loop then touches
    // only these dense side tables, never the fat `LOp` structs.
    let rr_mode = opts.tie_break == TieBreak::RoundRobin;
    // Pressure-heuristic side table (empty for the paper's four — the
    // keys then read nothing from it and the pass below stays pure).
    let aux = opts.heuristic.pressure_aux(lr);
    scratch.base_key.clear();
    scratch.class_of.clear();
    scratch.exit_of.clear();
    scratch.home_of.clear();
    for (i, l) in lr.lops.iter().enumerate() {
        let class = OpClass::of(l.op.opcode);
        scratch.class_of.push(class as u8);
        scratch.base_key.push(ReadyKey {
            branch: class == OpClass::Branch,
            prio: crate::heuristic::pack3(opts.heuristic.key_components(lr, &aux, i, heights[i])),
            rr: !0u32,
            idx: !(i as u32),
        });
        scratch.exit_of.push(match l.kind {
            LOpKind::ExitBranch(e) => e as u32,
            _ => u32::MAX,
        });
        if rr_mode {
            scratch.home_of.push(l.home as u32);
        }
    }
    let base_key = &scratch.base_key;
    let class_of = &scratch.class_of;
    let exit_of = &scratch.exit_of;
    let home_of = &scratch.home_of;
    // The machine's precomputed per-cycle resource automaton: one state
    // threaded per cycle, one indexed `go` probe per popped ready op —
    // replacing the seed's three per-op limit conditionals.
    let auto = m.hazard_automaton();
    let mut hazard_hits: u64 = 0;
    let mut deferral_parks: u64 = 0;

    // ---- Live-range pressure state -----------------------------------
    // Registers are a machine resource: a value occupies one register of
    // its class from the cycle its def issues through the END of the
    // cycle its last use issues (uses = operands, guards, and exit-copy
    // sources attributed to the exit's branch; live-ins are live from
    // cycle 0; a def nobody reads dies at the end of its own cycle).
    // The tables below make that incremental: one counted-down use table
    // per class, an open-range flag per register, and a per-cycle kill
    // list drained at the cycle boundary — O(defs + uses) per issue.
    // Tracking runs on every machine (the peak is a reported metric);
    // the *ceiling* check below only engages on finite files, so the
    // unbounded default schedules byte-identically to before.
    let caps: [Option<u32>; 3] = RegClass::ALL.map(|c| m.reg_cap(c));
    let finite = caps.iter().any(Option::is_some);
    let mut live = [0u32; 3];
    let mut pressure_peak = [0u32; 3];
    let mut pressure_parks: u64 = 0;
    let mut last_block: Option<(RegClass, u32, u32)> = None;
    for t in scratch.reg_uses.iter_mut() {
        t.clear();
    }
    for t in scratch.reg_defined.iter_mut() {
        t.clear();
    }
    for t in scratch.reg_alive.iter_mut() {
        t.clear();
    }
    scratch.kills.clear();
    scratch.pressure_parked.clear();
    for l in &lr.lops {
        for &u in &l.op.uses {
            bump_use(&mut scratch.reg_uses, u);
        }
        if let Some(g) = l.guard {
            bump_use(&mut scratch.reg_uses, g);
        }
        for &d in &l.op.defs {
            let t = &mut scratch.reg_defined[d.class().index()];
            let i = d.index() as usize;
            if i >= t.len() {
                t.resize(i + 1, false);
            }
            t[i] = true;
        }
    }
    for exit in &lr.exits {
        for &(_, src) in &exit.copies {
            bump_use(&mut scratch.reg_uses, src);
        }
    }
    // Live-ins (used in the region, defined outside it) hold registers
    // from cycle 0 until their last use retires them.
    for c in 0..3 {
        let uses = &scratch.reg_uses[c];
        let defined = &scratch.reg_defined[c];
        let alive = &mut scratch.reg_alive[c];
        alive.resize(uses.len(), false);
        for i in 0..uses.len() {
            if uses[i] > 0 && !defined.get(i).copied().unwrap_or(false) {
                alive[i] = true;
                live[c] += 1;
            }
        }
        pressure_peak[c] = live[c];
    }
    let reg_uses = &mut scratch.reg_uses;
    let reg_alive = &mut scratch.reg_alive;
    let kills = &mut scratch.kills;
    let pressure_parked = &mut scratch.pressure_parked;

    // Remaining unscheduled predecessor count and earliest start cycle,
    // interleaved in one table so `release_succs` touches a single cache
    // line per successor.
    scratch.op_state.clear();
    scratch.op_state.extend((0..n).map(|i| OpState {
        pending: ddg.pred_count(i) as u32,
        earliest: 0,
    }));
    let op_state = &mut scratch.op_state;

    // Two-level ready structure. `future` (a min-heap on earliest cycle)
    // holds ops whose dependences have all issued but whose operands are
    // not yet due; at each cycle boundary the due ones migrate into
    // `heap`, the indexed ready queue the issue passes pop from. Between
    // them they partition what the seed kept in one flat `ready` vec and
    // re-filtered + re-sorted per pass. Initially ready ops (no preds)
    // are due at cycle 0 and go straight into the queue; `future` only
    // allocates once a released op actually has to wait on a latency.
    scratch.future.clear();
    let mut future: BinaryHeap<Reverse<(u32, u32)>> =
        BinaryHeap::from(std::mem::take(&mut scratch.future));
    scratch.heap.clear();
    scratch.heap.reserve(n);
    let mut heap: BinaryHeap<ReadyEntry> = BinaryHeap::from(std::mem::take(&mut scratch.heap));
    for i in 0..n {
        if op_state[i].pending == 0 {
            heap.push(ReadyEntry {
                key: base_key[i],
                epoch: 0,
                idx: i as u32,
            });
        }
    }

    let mut sched = Schedule {
        cycles: Vec::new(),
        cycle_of: vec![None; n],
        exit_cycles: vec![0; lr.exits.len()],
        eliminated: Vec::new(),
        reg_alias: HashMap::new(),
    };

    // Twin index for dominator parallelism: dense per-origin buckets.
    // Origins are interned once up front (one hash probe per op for the
    // whole schedule), so the per-issue bucket append and the per-ready-op
    // candidate lookup are plain indexed accesses. Bucket order is append
    // order — identical to the seed's `HashMap<OpOrigin, Vec<usize>>`
    // entry vecs, so the first-match twin choice is unchanged.
    let mut origin_bucket: Vec<u32> = Vec::new();
    let mut twin_buckets: Vec<Vec<u32>> = Vec::new();
    if opts.dominator_parallelism {
        let mut ids: HashMap<crate::lower::OpOrigin, u32> = HashMap::with_capacity(n);
        origin_bucket.reserve(n);
        for l in &lr.lops {
            let next = ids.len() as u32;
            let id = *ids.entry(l.origin).or_insert(next);
            origin_bucket.push(id);
        }
        twin_buckets = vec![Vec::new(); ids.len()];
    }
    // Union-find over eliminated defs; mirrors the public `reg_alias` map
    // but is dense and path-compressed for the twin-comparison hot loop.
    let mut alias = AliasTable::default();

    let mut remaining = n;
    let mut cycle: u32 = 0;
    // Per-node issue counts for the round-robin tie break, plus the
    // frozen copy each pass keys against (the seed's comparator read the
    // live counts, but only ever *between* issues of a pass's pre-sorted
    // snapshot — freezing at pass start reproduces that exactly). Both
    // are maintained only under RoundRobin; SourceOrder never reads them.
    let issued_per_node = &mut scratch.issued_per_node;
    issued_per_node.clear();
    let rr_snapshot = &mut scratch.rr_snapshot;
    rr_snapshot.clear();
    if rr_mode {
        issued_per_node.resize(lr.nodes.len(), 0);
        rr_snapshot.resize(lr.nodes.len(), 0);
    }
    let mut epoch: u32 = 0;
    // Scratch reused across all cycles and passes.
    let staged = &mut scratch.staged;
    staged.clear();
    let parked = &mut scratch.parked;
    for p in parked.iter_mut() {
        p.clear();
    }
    let issued_this_cycle = &mut scratch.issued_this_cycle;
    issued_this_cycle.clear();

    while remaining > 0 {
        // Deadline check at the loop boundary, before committing to
        // another cycle. `>=` so a zero-millisecond budget trips on the
        // very first check — the deterministic trigger the tests use.
        if let (Some(budget_ms), Some(t0)) = (budgets.max_wall_ms, wall_start) {
            let elapsed_ms = t0.elapsed().as_millis() as u64;
            if elapsed_ms >= budget_ms {
                return Err(SchedFailure::DeadlineExceeded {
                    elapsed_ms,
                    budget_ms,
                });
            }
        }
        // Admit ops whose earliest cycle has arrived.
        while let Some(&Reverse((e, i))) = future.peek() {
            if e > cycle {
                break;
            }
            future.pop();
            let idx = i as usize;
            let mut key = base_key[idx];
            if rr_mode {
                key.rr = !rr_snapshot[home_of[idx] as usize];
            }
            heap.push(ReadyEntry { key, epoch, idx: i });
        }

        let mut slots_used = 0usize;
        // Fresh cycle: the automaton restarts from the empty-cycle state.
        let mut state = auto.start();
        issued_this_cycle.clear();
        let mut progress_this_cycle = false;

        // Re-scan after every pass: issuing an op can make a 0-latency
        // dependent ready *in the same cycle* (PlayDoh: a store and a
        // dependent memory op or retiring branch may share a MultiOp).
        loop {
            if rr_mode {
                // New pass: freeze the round-robin counts. Entries keyed
                // under an older pass re-key lazily on pop — sound for a
                // max-heap because issue counts only grow, so keys only
                // ever decrease.
                epoch += 1;
                rr_snapshot.copy_from_slice(issued_per_node);
            }
            let mut progressed = false;
            // Ready branches issue ahead of everything else: a branch
            // becomes ready only once its exit's path work has issued
            // (retirement edges), and at that point every cycle it waits
            // costs its exit's full profile weight, while the displaced op
            // loses at most one cycle. The heuristic still orders branches
            // among themselves and all other ops. (All of this is encoded
            // in `ReadyKey`, so the pop order below *is* the seed's sorted
            // order: branch flag, then priority, then round-robin count,
            // then source index.)
            while slots_used < m.issue_width() {
                let Some(top) = heap.pop() else { break };
                let i = top.idx as usize;
                if rr_mode && top.epoch != epoch {
                    // Stale pass snapshot: re-key against this pass's
                    // frozen counts and push back.
                    let mut key = base_key[i];
                    key.rr = !rr_snapshot[home_of[i] as usize];
                    heap.push(ReadyEntry {
                        key,
                        epoch,
                        idx: top.idx,
                    });
                    continue;
                }
                // Resource probe: one transition-table load. `None` means
                // the op's class is saturated for this cycle (the width
                // itself cannot trip inside the `slots_used` guard), and
                // a class limit can only clear at a cycle boundary — so
                // the entry parks on its class's deferral list until the
                // cycle ends instead of churning through the heap once
                // per pass, as the seed's deferral queue did.
                let class = OpClass::ALL[class_of[i] as usize];
                let Some(next_state) = auto.go(state, class) else {
                    hazard_hits += 1;
                    deferral_parks += 1;
                    parked[class.index()].push(top);
                    continue;
                };
                // Dominator parallelism: drop this op if a scheduled twin
                // computes the identical value. Checked after the hazard
                // probe (the seed's limit checks also came first), but an
                // elimination consumes no resources: `state` advances
                // only on a real issue.
                if opts.dominator_parallelism {
                    if let Some(t) = find_twin(lr, &mut alias, &twin_buckets, origin_bucket[i], i) {
                        eliminate(lr, &mut sched, &mut alias, i, t);
                        pressure_eliminate(
                            lr,
                            i,
                            t,
                            &mut alias,
                            reg_uses,
                            reg_alive,
                            kills,
                            &mut live,
                            &mut pressure_peak,
                        );
                        remaining -= 1;
                        progressed = true;
                        progress_this_cycle = true;
                        let tc = sched.cycle_of[i].unwrap();
                        release_succs(ddg, i, tc, op_state, staged);
                        continue;
                    }
                }
                // Register-file ceiling: issuing this op's defs must not
                // overflow any finite class file, and filling a file to
                // its cap is reserved for ops that also free a register
                // (see `file_overflow`). Ranges that die this cycle still
                // occupy their registers until the boundary (the
                // verifier's model), so `live` already counts them.
                // Like a class park, a pressure park consumes no
                // resources and re-enters the ready queue at the cycle
                // boundary — after this cycle's kills have freed slots.
                if finite && !lr.lops[i].op.defs.is_empty() {
                    let frees = would_free(lr, i, exit_of[i], &mut alias, reg_uses, reg_alive);
                    if let Some((class, cap)) = file_overflow(&lr.lops[i].op, &live, &caps, &frees)
                    {
                        pressure_parks += 1;
                        last_block = Some((class, live[class.index()], cap));
                        pressure_parked.push(top);
                        continue;
                    }
                }
                // Issue.
                state = next_state;
                sched.cycle_of[i] = Some(cycle);
                issued_this_cycle.push(i);
                slots_used += 1;
                progressed = true;
                progress_this_cycle = true;
                pressure_issue(
                    lr,
                    i,
                    exit_of[i],
                    &mut alias,
                    reg_uses,
                    reg_alive,
                    kills,
                    &mut live,
                    &mut pressure_peak,
                );
                if rr_mode {
                    issued_per_node[home_of[i] as usize] += 1;
                }
                let e = exit_of[i];
                if e != u32::MAX {
                    sched.exit_cycles[e as usize] = cycle;
                }
                if opts.dominator_parallelism {
                    twin_buckets[origin_bucket[i] as usize].push(i as u32);
                }
                remaining -= 1;
                release_succs(ddg, i, cycle, op_state, staged);
            }
            // Pass end. Ops whose last dependence issued mid-pass join
            // the *next* pass — the seed's avail set was a snapshot taken
            // at pass start, and mid-pass releases never participated in
            // the running pass. (Class-parked entries stay parked: their
            // limits cannot clear before the cycle boundary.)
            for i in staged.drain(..) {
                if op_state[i].earliest <= cycle {
                    let mut key = base_key[i];
                    if rr_mode {
                        key.rr = !rr_snapshot[home_of[i] as usize];
                    }
                    heap.push(ReadyEntry {
                        key,
                        epoch,
                        idx: i as u32,
                    });
                } else {
                    future.push(Reverse((op_state[i].earliest, i as u32)));
                }
            }
            if !progressed || slots_used >= m.issue_width() {
                break;
            }
        }
        // Cycle boundary: registers whose last use (or unread def)
        // issued this cycle die now, freeing their slots for the next
        // cycle — unless an elimination revived the range by
        // transferring fresh uses onto it, in which case the kill is a
        // no-op (the use count is nonzero again).
        let mut freed = false;
        for r in kills.drain(..) {
            let c = r.class().index();
            let i = r.index() as usize;
            if reg_uses[c].get(i).copied().unwrap_or(0) == 0 && reg_alive[c][i] {
                reg_alive[c][i] = false;
                live[c] -= 1;
                freed = true;
            }
        }
        // Deterministic livelock check: if nothing issued or was
        // eliminated this cycle, no register died at this boundary, and
        // no op is waiting on a latency, then the next cycle replays
        // this one exactly — the pressure-parked ops can never fit the
        // file. Fail structurally (the robust pipeline spills and
        // retries) instead of spinning until the watchdog trips.
        if !progress_this_cycle && !freed && future.is_empty() && !pressure_parked.is_empty() {
            let (class, live_now, cap) = last_block.unwrap_or((RegClass::Gpr, 0, 0));
            return Err(SchedFailure::RegisterPressure {
                class,
                live: live_now,
                cap,
            });
        }
        // Every class's units replenish and freed registers are
        // available again, so all parked entries re-enter the ready
        // queue. Keys are unique (the `idx` complement), so heap pop
        // order is a pure function of the entry set — re-admission order
        // does not matter — and stale round-robin epochs re-key lazily
        // on pop exactly like any other entry.
        for p in parked.iter_mut() {
            heap.extend(p.drain(..));
        }
        heap.extend(pressure_parked.drain(..));

        // `clone` allocates exactly `len` (the scratch keeps its
        // capacity for the next cycle); an empty cycle clones without
        // allocating at all — cheaper than the seed's fresh
        // growth-reallocated vec per cycle.
        sched.cycles.push(issued_this_cycle.clone());
        cycle += 1;
        if (cycle as usize) > cycle_cap {
            return Err(SchedFailure::StepBudgetExceeded {
                steps: cycle as usize,
                budget: cycle_cap,
            });
        }
    }
    // Trim trailing empty cycles (can appear if the last issue cycle was
    // followed by bookkeeping-only iterations).
    while matches!(sched.cycles.last(), Some(c) if c.is_empty()) {
        sched.cycles.pop();
    }
    // Hand the heap backings back to the arena (error paths skip this —
    // only capacity is lost, and the next call re-takes empty vecs).
    scratch.heap = heap.into_vec();
    scratch.future = future.into_vec();
    Ok((
        sched,
        SchedMetrics {
            hazard_hits,
            deferral_parks,
            pressure_peak,
            pressure_parks,
        },
    ))
}

/// Adds `n` use occurrences of `r` to the per-class tables (growing the
/// class's table on first sight).
#[inline]
fn add_uses(tabs: &mut [Vec<u32>; 3], r: Reg, n: u32) {
    let t = &mut tabs[r.class().index()];
    let i = r.index() as usize;
    if i >= t.len() {
        t.resize(i + 1, 0);
    }
    t[i] += n;
}

/// Counts one use occurrence of `r` (see [`add_uses`]).
#[inline]
fn bump_use(tabs: &mut [Vec<u32>; 3], r: Reg) {
    add_uses(tabs, r, 1);
}

/// Consumes one use occurrence of `r` (alias-resolved by the caller);
/// `true` means that was the last one and the range dies at this cycle's
/// boundary.
#[inline]
fn drop_use(tabs: &mut [Vec<u32>; 3], r: Reg) -> bool {
    let t = &mut tabs[r.class().index()];
    let i = r.index() as usize;
    debug_assert!(t.get(i).copied().unwrap_or(0) > 0, "use underflow on {r}");
    t[i] -= 1;
    t[i] == 0
}

/// Opens `r`'s live range if it is not already open; returns `true` if it
/// did (the caller bumps the live count).
#[inline]
fn open_range(tabs: &mut [Vec<bool>; 3], r: Reg) -> bool {
    let t = &mut tabs[r.class().index()];
    let i = r.index() as usize;
    if i >= t.len() {
        t.resize(i + 1, false);
    }
    let fresh = !t[i];
    t[i] = true;
    fresh
}

/// Would issuing `op` (opening one live range per def) overflow a finite
/// register file? Returns the first violating class and its cap.
/// Registers dying this cycle still count — they hold their slots until
/// the boundary, exactly as the verifier charges them.
///
/// The last register of each class is *reserved for consumers*: an op may
/// fill its file to exactly `cap` only when `frees` says it releases a
/// register of that class at this cycle's boundary. Without the reserve,
/// greedy issue jams the file with same-priority producers (e.g. reloads
/// feeding different adds) and every consumer — which transiently needs
/// its operands *plus* its result live — deadlocks one register short.
#[inline]
fn file_overflow(
    op: &treegion_ir::Op,
    live: &[u32; 3],
    caps: &[Option<u32>; 3],
    frees: &[bool; 3],
) -> Option<(RegClass, u32)> {
    let mut need = [0u32; 3];
    for &d in &op.defs {
        let c = d.class().index();
        need[c] += 1;
        if let Some(cap) = caps[c] {
            if live[c] + need[c] > cap || (live[c] + need[c] == cap && !frees[c]) {
                return Some((RegClass::ALL[c], cap));
            }
        }
    }
    None
}

/// Dry-run of [`pressure_issue`]'s boundary kills: for each class, would
/// issuing lop `i` release at least one register at this cycle's
/// boundary? True when the op consumes some live register's entire
/// remaining use count (operands, guard, or exit-copy sources), or when
/// one of its own defs has no readers (such a range closes immediately).
fn would_free(
    lr: &LoweredRegion,
    i: usize,
    exit: u32,
    alias: &mut AliasTable,
    reg_uses: &[Vec<u32>; 3],
    reg_alive: &[Vec<bool>; 3],
) -> [bool; 3] {
    let mut freed = [false; 3];
    // Occurrence counts per resolved register — ops carry at most a
    // handful of operands, so a tiny linear table beats a hash map.
    let mut occ: Vec<(Reg, u32)> = Vec::with_capacity(4);
    let add_occ = |r: Reg, occ: &mut Vec<(Reg, u32)>| {
        if let Some(e) = occ.iter_mut().find(|e| e.0 == r) {
            e.1 += 1;
        } else {
            occ.push((r, 1));
        }
    };
    let l = &lr.lops[i];
    for &u in &l.op.uses {
        add_occ(alias.resolve(u), &mut occ);
    }
    if let Some(g) = l.guard {
        add_occ(alias.resolve(g), &mut occ);
    }
    if exit != u32::MAX {
        for &(_, src) in &lr.exits[exit as usize].copies {
            add_occ(alias.resolve(src), &mut occ);
        }
    }
    for &(r, n) in &occ {
        let c = r.class().index();
        let idx = r.index() as usize;
        if reg_alive[c].get(idx).copied().unwrap_or(false)
            && reg_uses[c].get(idx).copied().unwrap_or(0) == n
        {
            freed[c] = true;
        }
    }
    for &d in &l.op.defs {
        let c = d.class().index();
        if reg_uses[c].get(d.index() as usize).copied().unwrap_or(0) == 0 {
            freed[c] = true;
        }
    }
    freed
}

/// Pressure bookkeeping for an op that just issued: its alias-resolved
/// operand, guard, and — for an exit branch — exit-copy-source
/// occurrences are consumed (a register whose last occurrence this was
/// joins the cycle's kill list), and each def opens a live range on the
/// spot, charged against this cycle. A def nobody reads dies at this
/// cycle's boundary too.
#[allow(clippy::too_many_arguments)]
fn pressure_issue(
    lr: &LoweredRegion,
    i: usize,
    exit: u32,
    alias: &mut AliasTable,
    reg_uses: &mut [Vec<u32>; 3],
    reg_alive: &mut [Vec<bool>; 3],
    kills: &mut Vec<Reg>,
    live: &mut [u32; 3],
    peak: &mut [u32; 3],
) {
    let l = &lr.lops[i];
    for &u in &l.op.uses {
        let r = alias.resolve(u);
        if drop_use(reg_uses, r) {
            kills.push(r);
        }
    }
    if let Some(g) = l.guard {
        let r = alias.resolve(g);
        if drop_use(reg_uses, r) {
            kills.push(r);
        }
    }
    if exit != u32::MAX {
        for &(_, src) in &lr.exits[exit as usize].copies {
            let r = alias.resolve(src);
            if drop_use(reg_uses, r) {
                kills.push(r);
            }
        }
    }
    for &d in &l.op.defs {
        if open_range(reg_alive, d) {
            let c = d.class().index();
            live[c] += 1;
            peak[c] = peak[c].max(live[c]);
        }
        if reg_uses[d.class().index()]
            .get(d.index() as usize)
            .copied()
            .unwrap_or(0)
            == 0
        {
            kills.push(d);
        }
    }
}

/// Pressure bookkeeping for a dominator-parallelism elimination of `i`
/// in favour of its scheduled twin `t`: consumers of `i`'s defs now read
/// the twin's registers, so the eliminated defs' remaining use counts
/// transfer across — which can *revive* a twin range whose own uses were
/// already exhausted (it must stay occupied until the last transferred
/// use: re-opened and re-charged if it closed in an earlier cycle; if it
/// is merely pending-kill this cycle, the now-nonzero use count makes
/// the boundary kill a no-op). The eliminated op itself never issues, so
/// its own operand occurrences are consumed here. Everything is
/// conservative in the verifier's terms: a range never frees earlier
/// than the verifier's resolved-last-use model says it may.
#[allow(clippy::too_many_arguments)]
fn pressure_eliminate(
    lr: &LoweredRegion,
    i: usize,
    t: usize,
    alias: &mut AliasTable,
    reg_uses: &mut [Vec<u32>; 3],
    reg_alive: &mut [Vec<bool>; 3],
    kills: &mut Vec<Reg>,
    live: &mut [u32; 3],
    peak: &mut [u32; 3],
) {
    for (a, b) in lr.lops[i].op.defs.iter().zip(lr.lops[t].op.defs.iter()) {
        let ta = &mut reg_uses[a.class().index()];
        let ai = a.index() as usize;
        let n = ta.get(ai).copied().unwrap_or(0);
        if n == 0 {
            continue;
        }
        ta[ai] = 0;
        let r = alias.resolve(*b);
        if open_range(reg_alive, r) {
            let c = r.class().index();
            live[c] += 1;
            peak[c] = peak[c].max(live[c]);
        }
        add_uses(reg_uses, r, n);
    }
    let l = &lr.lops[i];
    for &u in &l.op.uses {
        let r = alias.resolve(u);
        if drop_use(reg_uses, r) {
            kills.push(r);
        }
    }
    if let Some(g) = l.guard {
        let r = alias.resolve(g);
        if drop_use(reg_uses, r) {
            kills.push(r);
        }
    }
}

/// Sort key of a ready op in the indexed ready queue.
///
/// The derived lexicographic `Ord` over the field order encodes exactly
/// the comparator the seed applied with `sort_by` on every issue pass —
/// branches first, then descending heuristic priority, then (RoundRobin
/// only) ascending per-node issue count, then ascending lop index — so a
/// max-heap pop sequence reproduces the sorted iteration byte for byte.
/// Ascending components (`rr`, `idx`) are stored bitwise-complemented so
/// that "smaller is better" becomes "larger is better" uniformly.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyKey {
    /// Branches ahead of everything else.
    branch: bool,
    /// Packed heuristic priority (see `heuristic::pack3`); higher first.
    prio: [u64; 4],
    /// `!issued_per_node[home]` under the pass's frozen snapshot
    /// (RoundRobin), `!0` under SourceOrder: fewer issues first.
    rr: u32,
    /// `!(lop index)`: earlier source position first.
    idx: u32,
}

/// A ready-queue element: the op, the key it was inserted with, and the
/// pass (`epoch`) whose round-robin snapshot produced the key. Stale
/// epochs are re-keyed lazily on pop.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyEntry {
    key: ReadyKey,
    epoch: u32,
    idx: u32,
}

/// Path-compressing union-find over renamed registers, one dense table
/// per register class (`u32::MAX` = "not aliased"). This is the
/// scheduler-internal mirror of [`Schedule::reg_alias`]: twin detection
/// resolves every use through it with indexed loads instead of the
/// seed's per-use `HashMap` chain walk. It is structurally cycle-free —
/// an alias is installed pointing at the *root* of its target's set, and
/// an eliminated def (always a fresh, unique renamed register) can never
/// already be somebody's root.
#[derive(Default)]
struct AliasTable {
    tables: [Vec<u32>; 3],
}

const NOT_ALIASED: u32 = u32::MAX;

impl AliasTable {
    /// Resolves `r` to its set root, compressing the walked path.
    fn resolve(&mut self, r: Reg) -> Reg {
        let t = &mut self.tables[r.class().index()];
        let start = r.index() as usize;
        if start >= t.len() || t[start] == NOT_ALIASED {
            return r;
        }
        let mut root = t[start];
        while let Some(&next) = t.get(root as usize) {
            if next == NOT_ALIASED {
                break;
            }
            root = next;
        }
        // Path compression: point every chain element at the root.
        let mut cur = start;
        while t[cur] != NOT_ALIASED && t[cur] != root {
            let next = t[cur] as usize;
            t[cur] = root;
            cur = next;
        }
        Reg::new(r.class(), root)
    }

    /// Records `a -> root(b)`.
    fn union(&mut self, a: Reg, b: Reg) {
        debug_assert_eq!(a.class(), b.class(), "twin defs must agree on class");
        let root = self.resolve(b);
        debug_assert_ne!(root, a, "aliasing {a} into its own set would form a cycle");
        let t = &mut self.tables[a.class().index()];
        let i = a.index() as usize;
        if i >= t.len() {
            t.resize(i + 1, NOT_ALIASED);
        }
        t[i] = root.index();
    }
}

/// Per-op dynamic scheduling state: unscheduled predecessor count and
/// earliest permissible start cycle, interleaved for locality.
#[derive(Copy, Clone)]
struct OpState {
    pending: u32,
    earliest: u32,
}

fn release_succs(
    ddg: &Ddg,
    i: usize,
    cycle: u32,
    op_state: &mut [OpState],
    staged: &mut Vec<usize>,
) {
    for e in ddg.succs(i) {
        let t = e.to;
        let st = &mut op_state[t];
        st.earliest = st.earliest.max(cycle + e.latency);
        st.pending -= 1;
        if st.pending == 0 {
            staged.push(t);
        }
    }
}

/// Finds a scheduled twin of `i` computing the identical value: same
/// origin position, same opcode/immediate/target/guard, identical
/// alias-resolved uses. Branches, PBRs, and side-effecting ops are never
/// merged (only speculable value computations exhibit dominator
/// parallelism).
fn find_twin(
    lr: &LoweredRegion,
    alias: &mut AliasTable,
    twin_buckets: &[Vec<u32>],
    bucket: u32,
    i: usize,
) -> Option<usize> {
    let l = &lr.lops[i];
    if !l.op.opcode.is_speculable()
        || matches!(
            l.kind,
            LOpKind::ExitBranch(_) | LOpKind::InternalBranch | LOpKind::PrepareBranch
        )
        || l.guard.is_some()
    {
        return None;
    }
    let candidates = &twin_buckets[bucket as usize];
    'outer: for &t in candidates {
        let t = t as usize;
        let tl = &lr.lops[t];
        if tl.op.opcode != l.op.opcode
            || tl.op.imm != l.op.imm
            || tl.op.target != l.op.target
            || tl.guard != l.guard
            || tl.op.uses.len() != l.op.uses.len()
        {
            continue;
        }
        for (a, b) in l.op.uses.iter().zip(tl.op.uses.iter()) {
            if alias.resolve(*a) != alias.resolve(*b) {
                continue 'outer;
            }
        }
        return Some(t);
    }
    None
}

/// Records the elimination of `i` in favour of its twin `t`: `i`'s defs
/// alias to `t`'s defs and `i` inherits `t`'s issue cycle (its value is
/// available wherever `t`'s is). The public `reg_alias` map receives the
/// raw `def(i) -> def(t)` entries (exactly as the seed recorded them);
/// the internal union-find additionally records the compressed root.
fn eliminate(lr: &LoweredRegion, sched: &mut Schedule, alias: &mut AliasTable, i: usize, t: usize) {
    for (a, b) in lr.lops[i].op.defs.iter().zip(lr.lops[t].op.defs.iter()) {
        sched.reg_alias.insert(*a, *b);
        alias.union(*a, *b);
    }
    sched.cycle_of[i] = sched.cycle_of[t];
    sched.eliminated.push((i, t));
}

/// Renders a schedule as a Figure 4/5-style table (one row per cycle, one
/// column per issue slot).
///
/// Every one of the machine's `issue_width` columns uses one uniform
/// width (the widest cell anywhere in the table, floor 8). The seed
/// widened only columns that held an op in *some* row, so a trailing
/// always-empty slot rendered at the 8-character floor and its border
/// fell out of line with the occupied columns.
pub fn render_schedule(lr: &LoweredRegion, sched: &Schedule, m: &MachineModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = m.issue_width();
    let cell = |i: usize| -> String { format!("{}", lr.lops[i].op) };
    let mut w = 8usize;
    for row in &sched.cycles {
        for &i in row {
            w = w.max(cell(i).len());
        }
    }
    for (c, row) in sched.cycles.iter().enumerate() {
        let _ = write!(out, "{c:>3} |");
        for s in 0..width {
            let text = row.get(s).map(|&i| cell(i)).unwrap_or_default();
            let _ = write!(out, " {text:<w$} |");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "exits: {}",
        lr.exits
            .iter()
            .enumerate()
            .map(|(e, x)| format!(
                "{}@{} (w={})",
                x.target
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "ret".into()),
                sched.exit_height(e),
                x.count
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_region;
    use crate::{form_basic_blocks, form_treegions};
    use treegion_analysis::{Cfg, Liveness};
    use treegion_ir::{Cond, Function, FunctionBuilder, Op, Opcode};

    fn lower_entry(f: &Function, treegion: bool) -> LoweredRegion {
        let set = if treegion {
            form_treegions(f)
        } else {
            form_basic_blocks(f)
        };
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let r = set.region(set.region_of(f.entry()).unwrap()).clone();
        lower_region(f, &r, &live, None)
    }

    fn sched(lr: &LoweredRegion, m: &MachineModel) -> Schedule {
        schedule_region(lr, m, &ScheduleOptions::default())
    }

    fn sched_metrics(lr: &LoweredRegion, m: &MachineModel) -> (Schedule, SchedMetrics) {
        let ddg = Ddg::build(lr, m);
        let opts = ScheduleOptions::default();
        let (s, metrics) = try_schedule_with_ddg(lr, &ddg, m, &opts, &Budgets::UNLIMITED).unwrap();
        crate::verify_sched::verify_schedule(lr, &ddg, m, &s).unwrap();
        (s, metrics)
    }

    #[test]
    fn respects_issue_width() {
        // Eight independent movis on a 4-wide machine: 2 cycles + ret.
        let mut b = FunctionBuilder::new("w");
        let bb0 = b.block();
        for k in 0..8 {
            let r = b.gpr();
            b.push(bb0, Op::movi(r, k));
        }
        b.ret(bb0, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let s = sched(&lr, &MachineModel::model_4u());
        for c in &s.cycles {
            assert!(c.len() <= 4);
        }
        assert_eq!(s.cycles[0].len(), 4);
        assert_eq!(s.cycles[1].len(), 4);
    }

    #[test]
    fn respects_latency() {
        // load -> add: add must issue >= 2 cycles after the load.
        let mut b = FunctionBuilder::new("lat");
        let bb0 = b.block();
        let (a, x, y) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::load(x, a, 0), Op::add(y, x, x)]);
        b.ret(bb0, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let s = sched(&lr, &MachineModel::model_4u());
        let load = lr
            .lops
            .iter()
            .position(|l| l.op.opcode == Opcode::Load)
            .unwrap();
        let add = lr
            .lops
            .iter()
            .position(|l| l.op.opcode == Opcode::Add)
            .unwrap();
        assert!(s.cycle_of[add].unwrap() >= s.cycle_of[load].unwrap() + 2);
    }

    #[test]
    fn single_issue_machine_serializes_everything() {
        let mut b = FunctionBuilder::new("s1");
        let bb0 = b.block();
        for k in 0..5 {
            let r = b.gpr();
            b.push(bb0, Op::movi(r, k));
        }
        b.ret(bb0, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let s = sched(&lr, &MachineModel::model_1u());
        assert_eq!(s.length(), 6); // 5 movis + ret
        assert_eq!(s.issued_ops(), 6);
    }

    #[test]
    fn estimated_time_weights_exits() {
        // Branchy region; time must equal Σ count × height.
        let mut b = FunctionBuilder::new("est");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (x, y, c) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [Op::movi(x, 1), Op::movi(y, 2), Op::cmp(Cond::Lt, c, x, y)],
        );
        b.branch(bb0, c, (bb1, 70.0), (bb2, 30.0));
        b.ret(bb1, None);
        b.ret(bb2, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let s = sched(&lr, &MachineModel::model_4u());
        let manual: f64 = lr
            .exits
            .iter()
            .enumerate()
            .map(|(e, x)| x.count * s.exit_height(e) as f64)
            .sum();
        assert_eq!(s.estimated_time(&lr), manual);
        assert!(manual > 0.0);
    }

    #[test]
    fn wider_machine_is_never_slower() {
        let mut b = FunctionBuilder::new("wide");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let regs: Vec<_> = (0..6).map(|_| b.gpr()).collect();
        for (k, &r) in regs.iter().enumerate() {
            b.push(bb0, Op::movi(r, k as i64));
        }
        let c = b.gpr();
        b.push(bb0, Op::cmp(Cond::Lt, c, regs[0], regs[1]));
        b.branch(bb0, c, (bb1, 50.0), (bb2, 50.0));
        b.push(bb1, Op::add(regs[2], regs[0], regs[1]));
        b.ret(bb1, None);
        b.ret(bb2, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let t4 = sched(&lr, &MachineModel::model_4u()).estimated_time(&lr);
        let t8 = sched(&lr, &MachineModel::model_8u()).estimated_time(&lr);
        let t1 = sched(&lr, &MachineModel::model_1u()).estimated_time(&lr);
        assert!(t8 <= t4, "8U {t8} > 4U {t4}");
        assert!(t4 <= t1, "4U {t4} > 1U {t1}");
    }

    #[test]
    fn branch_limit_is_enforced() {
        // Three exits; with branch limit 1, at most one branch per cycle.
        let mut b = FunctionBuilder::new("bl");
        let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
        let on = b.gpr();
        b.push(ids[0], Op::movi(on, 0));
        b.switch(
            ids[0],
            on,
            vec![(0, ids[1], 5.0), (1, ids[2], 5.0)],
            (ids[3], 5.0),
        );
        for &i in &ids[1..] {
            b.ret(i, None);
        }
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::builder("4b1", 4)
            .branch_limit(Some(1))
            .build();
        let s = sched(&lr, &m);
        for c in &s.cycles {
            let branches = c
                .iter()
                .filter(|&&i| lr.lops[i].op.opcode.is_branch())
                .count();
            assert!(branches <= 1);
        }
    }

    #[test]
    fn all_ops_scheduled_exactly_once() {
        let mut b = FunctionBuilder::new("once");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (a, x, c) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::load(x, a, 0), Op::movi(c, 1)]);
        b.branch(bb0, c, (bb1, 1.0), (bb2, 1.0));
        b.push(bb1, Op::store(a, x, 8));
        b.ret(bb1, None);
        b.ret(bb2, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let s = sched(&lr, &MachineModel::model_4u());
        assert_eq!(s.issued_ops(), lr.lops.len());
        let mut seen = std::collections::HashSet::new();
        for c in &s.cycles {
            for &i in c {
                assert!(seen.insert(i));
            }
        }
        assert_eq!(seen.len(), lr.lops.len());
    }

    #[test]
    fn mem_port_limit_is_enforced() {
        // Four independent loads on a 4-wide machine with 1 memory port:
        // loads must spread over four cycles.
        let mut b = FunctionBuilder::new("mp");
        let bb0 = b.block();
        let base = b.gpr();
        for k in 0..4 {
            let d = b.gpr();
            b.push(bb0, Op::load(d, base, k * 8));
        }
        b.ret(bb0, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::builder("4m1", 4).mem_ports(Some(1)).build();
        let s = sched(&lr, &m);
        for c in &s.cycles {
            let mems = c
                .iter()
                .filter(|&&i| lr.lops[i].op.opcode.is_memory())
                .count();
            assert!(mems <= 1);
        }
        let unlimited = sched(&lr, &MachineModel::model_4u());
        assert!(s.length() > unlimited.length());
    }

    #[test]
    fn round_robin_tie_break_interleaves_paths() {
        // A 3-way switch with symmetric case bodies: under round-robin the
        // first cycle after the root should draw ops from distinct nodes.
        let mut b = FunctionBuilder::new("rr");
        let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
        let on = b.gpr();
        b.push(ids[0], Op::movi(on, 0));
        let mut regs = Vec::new();
        for (k, &id) in ids.iter().enumerate().take(4).skip(1) {
            let (x, y) = (b.gpr(), b.gpr());
            b.push(id, Op::movi(x, k as i64));
            b.push(id, Op::add(y, x, x));
            b.ret(id, Some(y));
            regs.push((x, y));
        }
        b.switch(
            ids[0],
            on,
            vec![(0, ids[1], 5.0), (1, ids[2], 5.0)],
            (ids[3], 5.0),
        );
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_4u();
        for tb in [TieBreak::SourceOrder, TieBreak::RoundRobin] {
            let s = schedule_region(
                &lr,
                &m,
                &ScheduleOptions {
                    heuristic: Heuristic::DependenceHeight,
                    dominator_parallelism: false,
                    tie_break: tb,
                },
            );
            assert_eq!(s.issued_ops(), lr.lops.len(), "{tb:?}");
        }
        // Round-robin must spread same-priority movis across nodes within
        // the first movi-bearing cycle (sanity: schedule verifies; the
        // interleaving property itself is covered by the ablation bench).
    }

    #[test]
    #[should_panic(expected = "cyclic reg_alias")]
    fn resolve_panics_on_cyclic_alias_instead_of_hanging() {
        // The seed's resolve spun forever on a hand-built cycle in the
        // public map; the bounded walk must detect it and panic.
        let a = Reg::gpr(1);
        let b = Reg::gpr(2);
        let mut reg_alias = HashMap::new();
        reg_alias.insert(a, b);
        reg_alias.insert(b, a);
        let s = Schedule {
            cycles: Vec::new(),
            cycle_of: Vec::new(),
            exit_cycles: Vec::new(),
            eliminated: Vec::new(),
            reg_alias,
        };
        let _ = s.resolve(a);
    }

    #[test]
    fn resolve_follows_acyclic_chains() {
        // Chains of any depth (the scheduler only builds depth <= 1, but
        // the public map is hand-editable) resolve to the final target.
        let (a, b, c) = (Reg::gpr(1), Reg::gpr(2), Reg::gpr(3));
        let mut reg_alias = HashMap::new();
        reg_alias.insert(a, b);
        reg_alias.insert(b, c);
        let s = Schedule {
            cycles: Vec::new(),
            cycle_of: Vec::new(),
            exit_cycles: Vec::new(),
            eliminated: Vec::new(),
            reg_alias,
        };
        assert_eq!(s.resolve(a), c);
        assert_eq!(s.resolve(b), c);
        assert_eq!(s.resolve(c), c);
        assert_eq!(s.resolve(Reg::gpr(9)), Reg::gpr(9));
    }

    #[test]
    fn pressure_peak_is_tracked_on_unbounded_machines() {
        // movi x; movi y; z = x + y; ret z — x and y overlap, so at
        // least two GPR ranges are simultaneously live.
        let mut b = FunctionBuilder::new("pp");
        let bb0 = b.block();
        let (x, y, z) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::movi(x, 1), Op::movi(y, 2), Op::add(z, x, y)]);
        b.ret(bb0, Some(z));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let (_, mm) = sched_metrics(&lr, &MachineModel::model_4u());
        assert!(
            mm.pressure_peak[RegClass::Gpr.index()] >= 2,
            "{:?}",
            mm.pressure_peak
        );
        assert_eq!(mm.pressure_parks, 0);
    }

    #[test]
    fn finite_file_defers_defs_to_later_cycles() {
        // Eight dead movis on a 4-wide machine: unbounded packs four defs
        // per cycle; a 1-register file admits one def per cycle (a dead
        // def still occupies its register until the cycle boundary).
        let mut b = FunctionBuilder::new("f1");
        let bb0 = b.block();
        for k in 0..8 {
            let r = b.gpr();
            b.push(bb0, Op::movi(r, k));
        }
        b.ret(bb0, None);
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_4u().with_gpr_file(1);
        let (s, mm) = sched_metrics(&lr, &m);
        for c in &s.cycles {
            let defs: usize = c.iter().map(|&i| lr.lops[i].op.defs.len()).sum();
            assert!(defs <= 1, "cycle with {defs} defs under a 1-reg file");
        }
        assert_eq!(s.issued_ops(), lr.lops.len());
        assert!(mm.pressure_parks > 0);
        assert_eq!(mm.pressure_peak[RegClass::Gpr.index()], 1);
        // And a file with slack changes nothing: byte-identical cycles.
        let unbounded = sched(&lr, &MachineModel::model_4u());
        let slack = sched(&lr, &MachineModel::model_4u().with_gpr_file(64));
        assert_eq!(unbounded.cycles, slack.cycles);
    }

    #[test]
    fn impossible_pressure_is_a_structured_failure() {
        // z = x + y needs x and y live together; a 1-GPR file can never
        // hold both, and nothing ever dies to break the tie — the
        // scheduler must detect the livelock deterministically rather
        // than spin to the watchdog. (With the consumer reserve the
        // movis never issue at all: each would fill the file without
        // freeing anything, so the livelock is caught at zero live.)
        let mut b = FunctionBuilder::new("rp");
        let bb0 = b.block();
        let (x, y, z) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::movi(x, 1), Op::movi(y, 2), Op::add(z, x, y)]);
        b.ret(bb0, Some(z));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_4u().with_gpr_file(1);
        let err = try_schedule_region(&lr, &m, &ScheduleOptions::default(), &Budgets::UNLIMITED)
            .unwrap_err();
        match err {
            SchedFailure::RegisterPressure { class, live, cap } => {
                assert_eq!(class, RegClass::Gpr);
                assert_eq!(cap, 1);
                assert!(live <= cap, "parking never admits an overflow");
            }
            other => panic!("expected RegisterPressure, got {other:?}"),
        }
    }

    #[test]
    fn live_in_registers_count_against_the_file() {
        // A region that only reads a live-in (load from it) still holds
        // one GPR from cycle 0.
        let mut b = FunctionBuilder::new("li");
        let bb0 = b.block();
        let (a, x) = (b.gpr(), b.gpr());
        b.push(bb0, Op::load(x, a, 0));
        b.ret(bb0, Some(x));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let (_, mm) = sched_metrics(&lr, &MachineModel::model_4u());
        assert!(
            mm.pressure_peak[RegClass::Gpr.index()] >= 2,
            "live-in `a` plus loaded `x` must both be charged: {:?}",
            mm.pressure_peak
        );
    }

    #[test]
    fn render_produces_rows_per_cycle() {
        let mut b = FunctionBuilder::new("r");
        let bb0 = b.block();
        let x = b.gpr();
        b.push(bb0, Op::movi(x, 1));
        b.ret(bb0, Some(x));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_4u();
        let s = sched(&lr, &m);
        let text = render_schedule(&lr, &s, &m);
        assert_eq!(text.lines().count(), s.length() + 1);
        assert!(text.contains("movi"));
        assert!(text.contains("exits:"));
    }

    #[test]
    fn render_aligns_trailing_empty_slots() {
        // One op per cycle on an 8-wide machine: slots 1..7 are empty in
        // every row. The seed widened only slots that held an op in some
        // row, so those trailing columns fell out of line; now all
        // `issue_width` columns share one uniform width.
        let mut b = FunctionBuilder::new("align");
        let bb0 = b.block();
        let (a, x, y) = (b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::load(x, a, 0), Op::add(y, x, x)]);
        b.ret(bb0, Some(y));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_8u();
        let s = sched(&lr, &m);
        let text = render_schedule(&lr, &s, &m);
        let rows: Vec<&str> = text.lines().filter(|l| !l.starts_with("exits:")).collect();
        assert!(rows.len() >= 2);
        // Every row renders every slot: uniform line length and exactly
        // issue_width + 1 column separators per row.
        let len0 = rows[0].len();
        for r in &rows {
            assert_eq!(r.len(), len0, "misaligned row: {r:?}");
            assert_eq!(
                r.matches('|').count(),
                m.issue_width() + 1,
                "row missing slots: {r:?}"
            );
        }
    }

    #[test]
    fn render_snapshot_single_cycle() {
        // Exact-output snapshot: one movi + ret on a 1-wide machine.
        let mut b = FunctionBuilder::new("snap");
        let bb0 = b.block();
        let x = b.gpr();
        b.push(bb0, Op::movi(x, 7));
        b.ret(bb0, Some(x));
        let f = b.finish();
        let lr = lower_entry(&f, true);
        let m = MachineModel::model_1u();
        let s = sched(&lr, &m);
        let text = render_schedule(&lr, &s, &m);
        let cell0 = format!("{}", lr.lops[s.cycles[0][0]].op);
        let cell1 = format!("{}", lr.lops[s.cycles[1][0]].op);
        let w = cell0.len().max(cell1.len()).max(8);
        let expected = format!("  0 | {cell0:<w$} |\n  1 | {cell1:<w$} |\nexits: ret@2 (w=1)\n");
        assert_eq!(text, expected);
    }
}
