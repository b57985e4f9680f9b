//! Region lowering: from IR blocks + structured terminators to the flat
//! list of PlayDoh-style ops the treegion scheduler consumes.
//!
//! Lowering does three things at once (one pass over the region tree):
//!
//! 1. **Materializes control flow** as ops, as in the paper's Figures 4/5:
//!    `CMPP` computes *path predicates* (each block's predicate is its
//!    branch condition ANDed with its parent's predicate), `PBR` loads
//!    branch-target registers, and `BRCT`/`BRCF`/`BRU`/`RET` transfer
//!    control. Internal conditional branches are kept as predicated,
//!    slot-occupying ops; internal fallthrough edges need no op.
//! 2. **Compile-time register renaming** (Section 3): every GPR definition
//!    gets a fresh name, which removes all WAR/WAW hazards and makes
//!    speculation safe — a speculated op can never clobber a value that is
//!    live-out on another path.
//! 3. **Exit copies**: for each exit, the registers that are live into the
//!    exit target and were renamed on that path get `COPY` fix-ups. Per
//!    the paper these are *not* scheduled and excluded from speedup; they
//!    are recorded on the exit for the simulator and the metrics.

use crate::error::{Budgets, SchedFailure};
use crate::Region;
use std::borrow::Borrow;
use std::collections::HashMap;
use treegion_analysis::Liveness;
use treegion_ir::{BlockId, Cond, Function, Op, Opcode, Reg, RegClass, Terminator};

/// What role a lowered op plays.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LOpKind {
    /// A source-level op from a block body.
    Normal,
    /// A lowering helper (immediate materialization).
    Helper,
    /// A `CMPP` computing path predicates.
    PathPred,
    /// A `PBR` branch-target load.
    PrepareBranch,
    /// A predicated branch to a block inside the region (occupies an issue
    /// slot but transfers no control in the linearized schedule).
    InternalBranch,
    /// A branch (or `RET`) that leaves the region; the payload indexes
    /// into [`LoweredRegion::exits`].
    ExitBranch(usize),
}

/// Identifies the source position an op was lowered from, for dominator
/// parallelism twin detection: ops lowered from the same position of the
/// same *original* block (pre tail-duplication) are twins.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct OpOrigin {
    /// The original block (identity when no tail duplication happened).
    pub block: BlockId,
    /// Position within the block's lowering (source ops first, then a
    /// fixed enumeration of terminator-derived ops).
    pub slot: usize,
}

/// One op in a lowered region. Registers are already renamed.
#[derive(Clone, Debug)]
pub struct LOp {
    /// The op itself (lowered opcodes allowed, registers renamed).
    pub op: Op,
    /// Index of the region-tree node this op belongs to.
    pub home: usize,
    /// Role of the op.
    pub kind: LOpKind,
    /// Path predicate guarding this op, for ops that must not execute on
    /// the wrong path (side effects, predicated branches). `None` means
    /// the op executes unconditionally (root ops and speculable ops).
    pub guard: Option<Reg>,
    /// Source position for twin detection.
    pub origin: OpOrigin,
}

/// A node of the region tree.
#[derive(Clone, Debug)]
pub struct RNode {
    /// The block this node wraps.
    pub block: BlockId,
    /// Parent node index (`None` for the root).
    pub parent: Option<usize>,
    /// Path predicate register on entry to this node (`None` at the root:
    /// always true).
    pub pred: Option<Reg>,
    /// Depth in the tree (root = 0).
    pub depth: usize,
    /// Profile weight of the block.
    pub weight: f64,
    /// Number of region exits at or below this node (the paper's *exit
    /// count* of ops homed here).
    pub exits_below: usize,
}

/// An exit of the lowered region.
#[derive(Clone, Debug)]
pub struct RegionExit {
    /// Target block (`None` for function return).
    pub target: Option<BlockId>,
    /// Profile count of the exit.
    pub count: f64,
    /// Node the exit leaves from.
    pub from_node: usize,
    /// Successor index of the exit edge in its block's terminator
    /// (`usize::MAX` for `ret` exits). Together with the home block this
    /// identifies the CFG edge, letting a schedule be re-costed under a
    /// *different* profile (the profile-variation experiment).
    pub succ_index: usize,
    /// Index of the [`LOpKind::ExitBranch`] op that transfers control.
    pub branch_lop: usize,
    /// Renaming fix-ups `(architectural, renamed)` applied when the exit
    /// is taken. Not scheduled; excluded from speedup per Section 3.
    pub copies: Vec<(Reg, Reg)>,
}

/// A region lowered to a flat op list plus its tree and exits.
#[derive(Clone, Debug)]
pub struct LoweredRegion {
    /// Tree nodes in preorder (index 0 is the root).
    pub nodes: Vec<RNode>,
    /// Lowered ops in preorder, per-node source order.
    pub lops: Vec<LOp>,
    /// Region exits.
    pub exits: Vec<RegionExit>,
}

impl LoweredRegion {
    /// Total number of lowered ops — the paper's "Ops per region" metric
    /// counts these (source ops plus materialized compare/branch ops).
    pub fn num_ops(&self) -> usize {
        self.lops.len()
    }

    /// Total dynamic copy-op count: Σ exit count × copies at that exit.
    pub fn dynamic_copies(&self) -> f64 {
        self.exits
            .iter()
            .map(|e| e.count * e.copies.len() as f64)
            .sum()
    }

    /// `true` if node `a` is `b` or an ancestor of `b`.
    pub fn is_ancestor_or_self(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.nodes[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The node index wrapping `block`, if present.
    pub fn node_of(&self, block: BlockId) -> Option<usize> {
        self.nodes.iter().position(|n| n.block == block)
    }
}

/// Context shared across the lowering of one region.
struct Lowerer<'a> {
    f: &'a Function,
    region: &'a Region,
    live: &'a Liveness,
    origin_map: Option<&'a [BlockId]>,
    next_reg: [u32; 3],
    zero: Option<Reg>,
    lops: Vec<LOp>,
    nodes: Vec<RNode>,
    exits: Vec<RegionExit>,
    /// Path predicate decided by the parent for each internal edge.
    pending_pred: HashMap<(BlockId, usize), Option<Reg>>,
    /// Rename map at the end of each node, for children and exit copies.
    end_maps: Vec<HashMap<Reg, Reg>>,
}

/// Lowers `region` (over `f`, with `live` computed on `f`).
///
/// `origin_map`, when present (after tail duplication), maps each block to
/// the original block it was copied from; it seeds twin detection for
/// dominator parallelism.
pub fn lower_region(
    f: &Function,
    region: &Region,
    live: &Liveness,
    origin_map: Option<&[BlockId]>,
) -> LoweredRegion {
    let mut lw = Lowerer {
        f,
        region,
        live,
        origin_map,
        next_reg: [
            f.num_regs(RegClass::Gpr),
            f.num_regs(RegClass::Pred),
            f.num_regs(RegClass::Btr),
        ],
        zero: None,
        lops: Vec::new(),
        nodes: Vec::new(),
        exits: Vec::new(),
        pending_pred: HashMap::new(),
        end_maps: Vec::new(),
    };

    // Region blocks are in absorption (preorder) order: parents first.
    for &block in region.blocks() {
        lw.lower_node(block);
    }

    // exits_below: count exits per subtree.
    let mut exits_below = vec![0usize; lw.nodes.len()];
    for e in &lw.exits {
        let mut cur = Some(e.from_node);
        while let Some(n) = cur {
            exits_below[n] += 1;
            cur = lw.nodes[n].parent;
        }
    }
    for (n, c) in exits_below.into_iter().enumerate() {
        lw.nodes[n].exits_below = c;
    }

    LoweredRegion {
        nodes: lw.nodes,
        lops: lw.lops,
        exits: lw.exits,
    }
}

/// Fallible [`lower_region`]: enforces the op budget both before lowering
/// (on the source op count, so a pathological region is rejected without
/// paying for its lowering) and after (on the materialized op count, which
/// includes compare/branch helpers).
///
/// # Errors
///
/// Returns [`SchedFailure::OpBudgetExceeded`] if either count is over
/// `budgets.max_region_ops`.
pub fn try_lower_region(
    f: &Function,
    region: &Region,
    live: &Liveness,
    origin_map: Option<&[BlockId]>,
    budgets: &Budgets,
) -> Result<LoweredRegion, SchedFailure> {
    within_op_budget(f, region, budgets, || {
        lower_region(f, region, live, origin_map)
    })
}

/// The op-budget checks of [`try_lower_region`] around any source of
/// the region's lowering — `lower` runs only if the source count fits —
/// so a region lowered ahead of time is held to the same budget, in the
/// same order, as one lowered on the spot.
pub(crate) fn within_op_budget<L: Borrow<LoweredRegion>>(
    f: &Function,
    region: &Region,
    budgets: &Budgets,
    lower: impl FnOnce() -> L,
) -> Result<L, SchedFailure> {
    if let Some(cap) = budgets.max_region_ops {
        let src = region.num_source_ops(f);
        if src > cap {
            return Err(SchedFailure::OpBudgetExceeded {
                ops: src,
                budget: cap,
            });
        }
    }
    let lr = lower();
    if let Some(cap) = budgets.max_region_ops {
        let ops = lr.borrow().num_ops();
        if ops > cap {
            return Err(SchedFailure::OpBudgetExceeded { ops, budget: cap });
        }
    }
    Ok(lr)
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self, class: RegClass) -> Reg {
        let slot = &mut self.next_reg[class.index()];
        let r = Reg::new(class, *slot);
        *slot += 1;
        r
    }

    fn origin_block(&self, block: BlockId) -> BlockId {
        match self.origin_map {
            Some(m) => m[block.index()],
            None => block,
        }
    }

    /// The region-wide zero register, materializing it on first use.
    fn zero_reg(&mut self, node: usize) -> Reg {
        if let Some(z) = self.zero {
            return z;
        }
        let z = self.fresh(RegClass::Gpr);
        // Helper homed at the root; it is pure and freely speculable.
        self.lops.push(LOp {
            op: Op::movi(z, 0),
            home: 0,
            kind: LOpKind::Helper,
            guard: None,
            origin: OpOrigin {
                block: self.origin_block(self.nodes[0].block),
                slot: usize::MAX,
            },
        });
        let _ = node;
        self.zero = Some(z);
        z
    }

    fn lower_node(&mut self, block: BlockId) {
        let parent_edge = self.region.parent_edge(block);
        let (parent_node, pred, mut map) = match parent_edge {
            None => (None, None, HashMap::new()),
            Some((pb, si)) => {
                let pn = self
                    .nodes
                    .iter()
                    .position(|n| n.block == pb)
                    .expect("parent lowered before child");
                let pred = self
                    .pending_pred
                    .remove(&(pb, si))
                    .expect("parent assigned child pred");
                (Some(pn), pred, self.end_maps[pn].clone())
            }
        };
        let depth = parent_node.map_or(0, |p| self.nodes[p].depth + 1);
        let node = self.nodes.len();
        self.nodes.push(RNode {
            block,
            parent: parent_node,
            pred,
            depth,
            weight: self.f.block(block).weight,
            exits_below: 0,
        });

        let origin = self.origin_block(block);
        // Source ops: rename uses through `map`, mint fresh defs.
        for (i, op) in self.f.block(block).ops.iter().enumerate() {
            let mut op = op.clone();
            for u in op.uses.iter_mut() {
                if let Some(r) = map.get(u) {
                    *u = *r;
                }
            }
            for d in op.defs.iter_mut() {
                let fresh = self.fresh(d.class());
                map.insert(*d, fresh);
                *d = fresh;
            }
            let guarded = op.opcode.has_side_effects();
            self.lops.push(LOp {
                op,
                home: node,
                kind: LOpKind::Normal,
                guard: if guarded { pred } else { None },
                origin: OpOrigin {
                    block: origin,
                    slot: i,
                },
            });
        }

        self.end_maps.push(map.clone());
        let base_slot = self.f.block(block).ops.len();
        self.lower_terminator(block, node, pred, &map, origin, base_slot);
        // end_maps entry was pushed before terminator lowering: terminator
        // ops define only fresh predicate/BTR registers, never renamed
        // GPRs, so the map is already final.
    }

    fn lower_terminator(
        &mut self,
        block: BlockId,
        node: usize,
        pred: Option<Reg>,
        map: &HashMap<Reg, Reg>,
        origin: BlockId,
        base_slot: usize,
    ) {
        let term = self.f.block(block).term.clone();
        let rename = |r: Reg| map.get(&r).copied().unwrap_or(r);
        match term {
            Terminator::Jump(e) => {
                // slots: 0 = pbr, 1 = branch
                self.lower_edge(block, node, 0, e, pred, map, origin, base_slot);
            }
            Terminator::Branch { cond, then_, else_ } => {
                let cond = rename(cond);
                let z = self.zero_reg(node);
                let p_then = self.fresh(RegClass::Pred);
                let p_else = self.fresh(RegClass::Pred);
                // slot 0: the path-predicate CMPP (two-output, guarded).
                self.lops.push(LOp {
                    op: Op::cmpp(Cond::Ne, p_then, Some(p_else), cond, z, pred),
                    home: node,
                    kind: LOpKind::PathPred,
                    guard: None,
                    origin: OpOrigin {
                        block: origin,
                        slot: base_slot,
                    },
                });
                // slots 1..=2: then edge; slots 3..=4: else edge.
                self.lower_cond_edge(
                    block,
                    node,
                    0,
                    then_,
                    p_then,
                    map,
                    origin,
                    base_slot + 1,
                    true,
                );
                self.lower_cond_edge(
                    block,
                    node,
                    1,
                    else_,
                    p_else,
                    map,
                    origin,
                    base_slot + 3,
                    false,
                );
            }
            Terminator::Switch { on, cases, default } => {
                let on = rename(on);
                let mut slot = base_slot;
                // Chain predicate for the default path.
                let mut chain = pred;
                for (ci, case) in cases.iter().enumerate() {
                    // Case predicate: (on == value) AND path pred, using an
                    // immediate-operand CMPP. Case values are distinct, so
                    // the case predicates are mutually exclusive without
                    // chaining.
                    let p_case = self.fresh(RegClass::Pred);
                    self.lops.push(LOp {
                        op: Op::cmpp_imm(Cond::Eq, p_case, None, on, case.value, pred),
                        home: node,
                        kind: LOpKind::PathPred,
                        guard: None,
                        origin: OpOrigin {
                            block: origin,
                            slot,
                        },
                    });
                    slot += 1;
                    // Default chain: q_i = q_{i-1} AND (on != value).
                    let q = self.fresh(RegClass::Pred);
                    self.lops.push(LOp {
                        op: Op::cmpp_imm(Cond::Ne, q, None, on, case.value, chain),
                        home: node,
                        kind: LOpKind::PathPred,
                        guard: None,
                        origin: OpOrigin {
                            block: origin,
                            slot,
                        },
                    });
                    slot += 1;
                    chain = Some(q);
                    self.lower_cond_edge(
                        block, node, ci, case.edge, p_case, map, origin, slot, true,
                    );
                    slot += 2;
                }
                // Default edge, guarded by the final chain predicate (or
                // unguarded if there were no cases at all and no path pred).
                match chain {
                    Some(q) => {
                        self.lower_cond_edge(
                            block,
                            node,
                            cases.len(),
                            default,
                            q,
                            map,
                            origin,
                            slot,
                            false,
                        );
                    }
                    None => {
                        self.lower_edge(block, node, cases.len(), default, None, map, origin, slot);
                    }
                }
            }
            Terminator::Ret { value } => {
                let exit_index = self.exits.len();
                let lop_index = self.lops.len();
                self.lops.push(LOp {
                    op: Op::ret(value.map(rename)),
                    home: node,
                    kind: LOpKind::ExitBranch(exit_index),
                    guard: pred,
                    origin: OpOrigin {
                        block: origin,
                        slot: base_slot,
                    },
                });
                self.exits.push(RegionExit {
                    target: None,
                    count: self.f.block(block).weight,
                    from_node: node,
                    succ_index: usize::MAX,
                    branch_lop: lop_index,
                    copies: Vec::new(), // returns restore nothing
                });
            }
        }
    }

    /// Lowers an edge guarded by `guard_pred` (a freshly computed path
    /// predicate). Internal edges assign the child's path predicate;
    /// internal *taken* edges additionally get a predicated branch op
    /// (`emit_internal_branch`), matching the paper's example schedules.
    /// Exit edges get `PBR` + `BRCT`.
    #[allow(clippy::too_many_arguments)]
    fn lower_cond_edge(
        &mut self,
        block: BlockId,
        node: usize,
        succ_index: usize,
        edge: treegion_ir::Edge,
        guard_pred: Reg,
        map: &HashMap<Reg, Reg>,
        origin: BlockId,
        slot: usize,
        emit_internal_branch: bool,
    ) {
        if self.region.is_internal_edge(block, succ_index) {
            self.pending_pred
                .insert((block, succ_index), Some(guard_pred));
            if emit_internal_branch {
                let b = self.fresh(RegClass::Btr);
                self.lops.push(LOp {
                    op: Op::pbr(b, edge.target),
                    home: node,
                    kind: LOpKind::PrepareBranch,
                    guard: None,
                    origin: OpOrigin {
                        block: origin,
                        slot,
                    },
                });
                self.lops.push(LOp {
                    op: Op::brct(b, guard_pred),
                    home: node,
                    kind: LOpKind::InternalBranch,
                    guard: Some(guard_pred),
                    origin: OpOrigin {
                        block: origin,
                        slot: slot + 1,
                    },
                });
            }
        } else {
            self.emit_exit(
                block,
                node,
                succ_index,
                edge,
                Some(guard_pred),
                map,
                origin,
                slot,
            );
        }
    }

    /// Lowers an edge whose predicate is just the node's path predicate
    /// (unconditional jumps and case-less switch defaults).
    #[allow(clippy::too_many_arguments)]
    fn lower_edge(
        &mut self,
        block: BlockId,
        node: usize,
        succ_index: usize,
        edge: treegion_ir::Edge,
        pred: Option<Reg>,
        map: &HashMap<Reg, Reg>,
        origin: BlockId,
        slot: usize,
    ) {
        let pred = pred.or(self.nodes[node].pred);
        if self.region.is_internal_edge(block, succ_index) {
            // Fallthrough: the child inherits the path predicate; no op.
            self.pending_pred.insert((block, succ_index), pred);
        } else {
            self.emit_exit(block, node, succ_index, edge, pred, map, origin, slot);
        }
    }

    /// Emits `PBR` + branch for an exit edge and records the exit with its
    /// renaming copies.
    #[allow(clippy::too_many_arguments)]
    fn emit_exit(
        &mut self,
        _block: BlockId,
        node: usize,
        succ_index: usize,
        edge: treegion_ir::Edge,
        pred: Option<Reg>,
        map: &HashMap<Reg, Reg>,
        origin: BlockId,
        slot: usize,
    ) {
        let b = self.fresh(RegClass::Btr);
        self.lops.push(LOp {
            op: Op::pbr(b, edge.target),
            home: node,
            kind: LOpKind::PrepareBranch,
            guard: None,
            origin: OpOrigin {
                block: origin,
                slot,
            },
        });
        let exit_index = self.exits.len();
        let lop_index = self.lops.len();
        let br = match pred {
            Some(p) => Op::brct(b, p),
            None => Op::bru(b),
        };
        self.lops.push(LOp {
            op: br,
            home: node,
            kind: LOpKind::ExitBranch(exit_index),
            guard: pred,
            origin: OpOrigin {
                block: origin,
                slot: slot + 1,
            },
        });
        // Copies: architectural registers live into the target that were
        // renamed on this path.
        let mut copies: Vec<(Reg, Reg)> = self
            .live
            .live_in(edge.target)
            .iter()
            .filter_map(|arch| map.get(&arch).map(|renamed| (arch, *renamed)))
            .collect();
        copies.sort();
        self.exits.push(RegionExit {
            target: Some(edge.target),
            count: edge.count,
            from_node: node,
            succ_index,
            branch_lop: lop_index,
            copies,
        });
    }
}

/// Spill-everywhere rewrite for register-pressure recovery.
///
/// Picks up to `max_victims` GPR live ranges by *longest static span*
/// (lop-index distance from definition to last use, ties broken toward
/// the smaller register index) and rewrites the region so each victim is
/// stored to a private spill slot right after its definition (at the
/// region front for live-ins) and re-materialized into a fresh register
/// immediately before every use. The victim's live range collapses to
/// def→spill and each reload's range is reload→use, trading register
/// pressure for memory-unit traffic; keeping the rewrite this local
/// leaves the list scheduler full freedom over reload placement.
///
/// Exit-copy sources are spillable too: the copy is rewritten to a fresh
/// register reloaded immediately before the exit's branch lop, and the
/// DDG's `Retire` edge (definition of each copy source → branch) orders
/// the reload ahead of the exit automatically. Reload results and
/// already-spilled values gain nothing from another round, so those are
/// excluded. Returns the rewritten region and the number of victims
/// spilled, or `None` when no eligible victim remains (the caller falls
/// back to the degradation ladder).
pub fn insert_spills(lr: &LoweredRegion, max_victims: usize) -> Option<(LoweredRegion, usize)> {
    use std::collections::HashSet;
    if max_victims == 0 {
        return None;
    }

    // Static live spans over lop (preorder) position.
    let mut def_pos: HashMap<Reg, usize> = HashMap::new();
    let mut last_use: HashMap<Reg, usize> = HashMap::new();
    let mut excluded: HashSet<Reg> = HashSet::new();
    for (i, l) in lr.lops.iter().enumerate() {
        for &d in &l.op.defs {
            def_pos.insert(d, i);
            if l.op.opcode == Opcode::Reload {
                excluded.insert(d);
            }
        }
        for &u in &l.op.uses {
            if u.is_gpr() {
                let e = last_use.entry(u).or_insert(i);
                *e = (*e).max(i);
            }
            if l.op.opcode == Opcode::Spill {
                excluded.insert(u);
            }
        }
    }
    // Exit copies read their source at the exit's branch cycle, so they
    // extend the source's span to the branch lop.
    for exit in &lr.exits {
        for &(_, src) in &exit.copies {
            if src.is_gpr() {
                let e = last_use.entry(src).or_insert(exit.branch_lop);
                *e = (*e).max(exit.branch_lop);
            }
        }
    }

    // Candidates: (span, reg index, reg), longest span first. Live-ins
    // (used but never defined) span from the region front.
    let mut cand: Vec<(usize, u32, Reg)> = Vec::new();
    for (&r, &lu) in &last_use {
        if !r.is_gpr() || excluded.contains(&r) {
            continue;
        }
        let dp = def_pos.get(&r).copied().unwrap_or(0);
        if lu <= dp {
            continue; // nothing between def and last use to shorten
        }
        cand.push((lu - dp, r.index(), r));
    }
    cand.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let victims: Vec<Reg> = cand.iter().take(max_victims).map(|c| c.2).collect();
    if victims.is_empty() {
        return None;
    }
    let victim_set: HashSet<Reg> = victims.iter().copied().collect();

    // Fresh GPR names for reload results and fresh slots per victim.
    let mut next_gpr = 0u32;
    let bump = |r: Reg, next: &mut u32| {
        if r.is_gpr() {
            *next = (*next).max(r.index() + 1);
        }
    };
    for l in &lr.lops {
        for &d in &l.op.defs {
            bump(d, &mut next_gpr);
        }
        for &u in &l.op.uses {
            bump(u, &mut next_gpr);
        }
    }
    for e in &lr.exits {
        for &(arch, renamed) in &e.copies {
            bump(arch, &mut next_gpr);
            bump(renamed, &mut next_gpr);
        }
    }
    let next_slot: i64 = lr
        .lops
        .iter()
        .filter(|l| matches!(l.op.opcode, Opcode::Spill | Opcode::Reload))
        .map(|l| l.op.imm + 1)
        .max()
        .unwrap_or(0);
    let mut slot_of: HashMap<Reg, i64> = HashMap::new();
    for (slot, &v) in (next_slot..).zip(victims.iter()) {
        slot_of.insert(v, slot);
    }

    // Rebuild the lop list. Synthetic origins count down from
    // `usize::MAX - 1` so inserted ops never share a twin bucket.
    let mut lops: Vec<LOp> = Vec::with_capacity(lr.lops.len() + 3 * victims.len());
    let mut remap: Vec<usize> = Vec::with_capacity(lr.lops.len());
    let mut synth = 0usize;
    let synth_origin = |home: usize, synth: &mut usize| {
        let o = OpOrigin {
            block: lr.nodes[home].block,
            slot: usize::MAX - 1 - *synth,
        };
        *synth += 1;
        o
    };
    // Live-in victims spill at the region front.
    for &v in &victims {
        if !def_pos.contains_key(&v) {
            let origin = synth_origin(0, &mut synth);
            lops.push(LOp {
                op: Op::spill(v, slot_of[&v]),
                home: 0,
                kind: LOpKind::Helper,
                guard: None,
                origin,
            });
        }
    }
    let mut copy_rewrite: HashMap<(usize, Reg), Reg> = HashMap::new();
    for l in &lr.lops {
        let mut op = l.op.clone();
        // One reload (and one fresh register) per distinct victim this op
        // uses — or, for an exit branch, that its exit's copies restore —
        // in first-occurrence order.
        let mut seen: Vec<Reg> = Vec::new();
        for &u in &l.op.uses {
            if victim_set.contains(&u) && !seen.contains(&u) {
                seen.push(u);
            }
        }
        let exit_idx = match l.kind {
            LOpKind::ExitBranch(e) => {
                for &(_, src) in &lr.exits[e].copies {
                    if victim_set.contains(&src) && !seen.contains(&src) {
                        seen.push(src);
                    }
                }
                Some(e)
            }
            _ => None,
        };
        for v in seen {
            let r = Reg::gpr(next_gpr);
            next_gpr += 1;
            let origin = synth_origin(l.home, &mut synth);
            lops.push(LOp {
                op: Op::reload(r, slot_of[&v]),
                home: l.home,
                kind: LOpKind::Helper,
                guard: None,
                origin,
            });
            for u in op.uses.iter_mut() {
                if *u == v {
                    *u = r;
                }
            }
            if let Some(e) = exit_idx {
                if lr.exits[e].copies.iter().any(|&(_, src)| src == v) {
                    copy_rewrite.insert((e, v), r);
                }
            }
        }
        remap.push(lops.len());
        lops.push(LOp {
            op,
            home: l.home,
            kind: l.kind,
            guard: l.guard,
            origin: l.origin,
        });
        for &d in &l.op.defs {
            if victim_set.contains(&d) {
                let origin = synth_origin(l.home, &mut synth);
                lops.push(LOp {
                    op: Op::spill(d, slot_of[&d]),
                    home: l.home,
                    kind: LOpKind::Helper,
                    guard: None,
                    origin,
                });
            }
        }
    }
    let exits: Vec<RegionExit> = lr
        .exits
        .iter()
        .enumerate()
        .map(|(ei, e)| RegionExit {
            branch_lop: remap[e.branch_lop],
            copies: e
                .copies
                .iter()
                .map(|&(arch, src)| {
                    let src = copy_rewrite.get(&(ei, src)).copied().unwrap_or(src);
                    (arch, src)
                })
                .collect(),
            ..e.clone()
        })
        .collect();
    Some((
        LoweredRegion {
            nodes: lr.nodes.clone(),
            lops,
            exits,
        },
        victims.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{form_treegions, RegionKind};
    use treegion_analysis::Cfg;
    use treegion_ir::{FunctionBuilder, Op as IrOp, Opcode};

    fn lower_first_region(f: &Function) -> LoweredRegion {
        let set = form_treegions(f);
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let r = set.region(set.region_of(f.entry()).unwrap()).clone();
        assert_eq!(r.kind(), RegionKind::Treegion);
        lower_region(f, &r, &live, None)
    }

    /// bb0: x=ld, y=ld, c=cmp x<y; branch c -> bb1 (x2=x+y, ret) | bb2 (st, ret)
    fn small_tree() -> Function {
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (a, x, y, c, s) = (b.gpr(), b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                IrOp::load(x, a, 0),
                IrOp::load(y, a, 8),
                IrOp::cmp(treegion_ir::Cond::Lt, c, x, y),
            ],
        );
        b.branch(bb0, c, (bb1, 70.0), (bb2, 30.0));
        b.push(bb1, IrOp::add(s, x, y));
        b.ret(bb1, Some(s));
        b.push(bb2, IrOp::store(a, x, 16));
        b.ret(bb2, None);
        b.finish()
    }

    #[test]
    fn tree_structure_and_preds() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        assert_eq!(lr.nodes.len(), 3);
        assert_eq!(lr.nodes[0].parent, None);
        assert_eq!(lr.nodes[0].pred, None);
        assert_eq!(lr.nodes[1].depth, 1);
        // Both children carry distinct path predicates.
        let p1 = lr.nodes[1].pred.unwrap();
        let p2 = lr.nodes[2].pred.unwrap();
        assert_ne!(p1, p2);
        assert!(p1.is_pred() && p2.is_pred());
    }

    #[test]
    fn defs_are_renamed_to_fresh_registers() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        let mut seen = std::collections::HashSet::new();
        for l in &lr.lops {
            for d in &l.op.defs {
                assert!(seen.insert(*d), "def {d} appears twice after renaming");
            }
        }
    }

    #[test]
    fn exits_cover_both_returns_with_counts() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        assert_eq!(lr.exits.len(), 2);
        let counts: Vec<f64> = lr.exits.iter().map(|e| e.count).collect();
        assert!(counts.contains(&70.0) && counts.contains(&30.0));
        for e in &lr.exits {
            assert!(matches!(lr.lops[e.branch_lop].kind, LOpKind::ExitBranch(_)));
            assert_eq!(e.target, None);
        }
    }

    #[test]
    fn stores_are_guarded_by_their_path_predicate() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        let store = lr
            .lops
            .iter()
            .find(|l| l.op.opcode == Opcode::Store)
            .expect("store lowered");
        assert_eq!(store.guard, lr.nodes[store.home].pred);
        assert!(store.guard.is_some());
    }

    #[test]
    fn exit_count_of_root_is_total_exits() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        assert_eq!(lr.nodes[0].exits_below, lr.exits.len());
        assert_eq!(lr.nodes[1].exits_below, 1);
    }

    #[test]
    fn uses_of_renamed_defs_are_rewritten() {
        let f = small_tree();
        let lr = lower_first_region(&f);
        // The add in bb1 must read the renamed loads, not the originals.
        let add = lr.lops.iter().find(|l| l.op.opcode == Opcode::Add).unwrap();
        let defs: std::collections::HashSet<Reg> =
            lr.lops.iter().flat_map(|l| l.op.defs.clone()).collect();
        for u in &add.op.uses {
            assert!(defs.contains(u), "add reads {u} which is not a region def");
        }
    }

    #[test]
    fn exit_copies_restore_live_values() {
        // bb0 defines x; bb1 (inside region) exits to bb2 (outside, merge)
        // which reads x — the exit must carry a copy for x.
        let mut b = FunctionBuilder::new("copies");
        let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
        let (x, c) = (b.gpr(), b.gpr());
        b.push_all(ids[0], [IrOp::movi(x, 5), IrOp::movi(c, 1)]);
        b.branch(ids[0], c, (ids[1], 60.0), (ids[2], 40.0));
        b.jump(ids[1], ids[3], 60.0);
        b.jump(ids[2], ids[3], 40.0);
        b.ret(ids[3], Some(x));
        let f = b.finish();
        let lr = lower_first_region(&f);
        assert_eq!(lr.exits.len(), 2);
        for e in &lr.exits {
            assert_eq!(e.target, Some(ids[3]));
            assert!(
                e.copies.iter().any(|(arch, _)| *arch == x),
                "exit must restore {x}"
            );
        }
    }

    #[test]
    fn switch_lowering_emits_parallel_case_preds_and_default_chain() {
        let mut b = FunctionBuilder::new("sw");
        let ids: Vec<_> = (0..4).map(|_| b.block()).collect();
        let on = b.gpr();
        b.push(ids[0], IrOp::movi(on, 1));
        b.switch(
            ids[0],
            on,
            vec![(1, ids[1], 50.0), (2, ids[2], 30.0)],
            (ids[3], 20.0),
        );
        for &i in &ids[1..] {
            b.ret(i, None);
        }
        let f = b.finish();
        let lr = lower_first_region(&f);
        // 2 cases × (movi + 2 cmpp) + source movi + per-edge branches.
        let cmpps = lr
            .lops
            .iter()
            .filter(|l| matches!(l.op.opcode, Opcode::Cmpp(_)))
            .count();
        assert_eq!(cmpps, 4);
        assert_eq!(lr.exits.len(), 3);
        // All ops are in the single root node tree + children.
        assert_eq!(lr.nodes.len(), 4);
    }

    #[test]
    fn jump_internal_edges_cost_no_ops() {
        let mut b = FunctionBuilder::new("line");
        let ids: Vec<_> = (0..3).map(|_| b.block()).collect();
        b.jump(ids[0], ids[1], 1.0);
        b.jump(ids[1], ids[2], 1.0);
        b.ret(ids[2], None);
        let f = b.finish();
        let lr = lower_first_region(&f);
        // Only the final ret: fallthrough jumps vanish.
        assert_eq!(lr.lops.len(), 1);
        assert_eq!(lr.lops[0].op.opcode, Opcode::Ret);
    }

    #[test]
    fn ret_value_is_renamed() {
        let mut b = FunctionBuilder::new("rv");
        let bb0 = b.block();
        let x = b.gpr();
        b.push(bb0, IrOp::movi(x, 3));
        b.ret(bb0, Some(x));
        let f = b.finish();
        let lr = lower_first_region(&f);
        let ret = lr.lops.iter().find(|l| l.op.opcode == Opcode::Ret).unwrap();
        let movi = lr
            .lops
            .iter()
            .find(|l| l.op.opcode == Opcode::MovI)
            .unwrap();
        assert_eq!(ret.op.uses[0], movi.op.defs[0]);
    }

    /// movi x; movi y; z = y+y; w = z+x — x has the longest static span.
    fn spannable() -> Function {
        let mut b = FunctionBuilder::new("sp");
        let bb0 = b.block();
        let (x, y, z, w) = (b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(
            bb0,
            [
                IrOp::movi(x, 7),
                IrOp::movi(y, 1),
                IrOp::add(z, y, y),
                IrOp::add(w, z, x),
            ],
        );
        b.ret(bb0, None);
        b.finish()
    }

    #[test]
    fn insert_spills_collapses_the_longest_range() {
        let f = spannable();
        let lr = lower_first_region(&f);
        let (spilled, n) = insert_spills(&lr, 1).expect("a victim must exist");
        assert_eq!(n, 1);
        assert_eq!(spilled.lops.len(), lr.lops.len() + 2); // spill + reload
        let sp = spilled
            .lops
            .iter()
            .position(|l| l.op.opcode == Opcode::Spill)
            .unwrap();
        let rl = spilled
            .lops
            .iter()
            .position(|l| l.op.opcode == Opcode::Reload)
            .unwrap();
        // The victim is the first movi's (renamed) def — the longest span.
        let victim = spilled.lops[0].op.defs[0];
        assert_eq!(spilled.lops[0].op.opcode, Opcode::MovI);
        assert_eq!(sp, 1, "spill sits right after the victim's def");
        assert_eq!(spilled.lops[sp].op.uses, vec![victim]);
        assert_eq!(spilled.lops[sp].op.imm, spilled.lops[rl].op.imm);
        // The victim's old use now reads the reload's fresh register, and
        // the reload sits immediately before it.
        let fresh = spilled.lops[rl].op.defs[0];
        let user = &spilled.lops[rl + 1];
        assert_eq!(user.op.opcode, Opcode::Add);
        assert!(user.op.uses.contains(&fresh));
        assert!(!spilled
            .lops
            .iter()
            .any(|l| l.op.opcode != Opcode::Spill && l.op.uses.contains(&victim)));
        // Exit branch indices were remapped through the insertions.
        for (e, exit) in spilled.exits.iter().enumerate() {
            assert_eq!(spilled.lops[exit.branch_lop].kind, LOpKind::ExitBranch(e));
        }
    }

    #[test]
    fn insert_spills_excludes_spill_artifacts_and_keeps_slots_distinct() {
        let f = spannable();
        let lr = lower_first_region(&f);
        let (once, _) = insert_spills(&lr, 1).unwrap();
        // Re-spilling everything eligible never touches reload results or
        // already-spilled values.
        let reload_defs: Vec<Reg> = once
            .lops
            .iter()
            .filter(|l| l.op.opcode == Opcode::Reload)
            .map(|l| l.op.defs[0])
            .collect();
        let spilled: Vec<Reg> = once
            .lops
            .iter()
            .filter(|l| l.op.opcode == Opcode::Spill)
            .map(|l| l.op.uses[0])
            .collect();
        // `None` (nothing further eligible) is also a valid outcome.
        if let Some((again, _)) = insert_spills(&once, usize::MAX) {
            for l in &again.lops {
                if l.op.opcode == Opcode::Spill && !spilled.contains(&l.op.uses[0]) {
                    assert!(!reload_defs.contains(&l.op.uses[0]), "re-spilled a reload");
                }
            }
            // Slots must stay distinct across rounds (original spills
            // keep their slot; fresh victims get fresh slots).
            let mut slots: Vec<i64> = again
                .lops
                .iter()
                .filter(|l| l.op.opcode == Opcode::Spill)
                .map(|l| l.op.imm)
                .collect();
            slots.sort_unstable();
            let n = slots.len();
            slots.dedup();
            assert_eq!(slots.len(), n);
        }
        assert!(insert_spills(&lr, 0).is_none());
    }

    #[test]
    fn insert_spills_rewrites_exit_copies_through_a_reload() {
        // A value whose only consumer is an exit copy is still spillable:
        // the copy is redirected to a fresh register reloaded right
        // before the exit's branch lop.
        let f = spannable();
        let lr = lower_first_region(&f);
        let copy_victim = lr
            .exits
            .iter()
            .flat_map(|e| e.copies.iter().map(|&(_, s)| s))
            .next();
        let Some(_) = copy_victim else { return };
        let (spilled, _) = insert_spills(&lr, usize::MAX).expect("victims exist");
        for e in &spilled.exits {
            for &(_, src) in &e.copies {
                // No copy source may still read a spilled victim (those
                // were rewritten to reload results)…
                assert!(
                    !spilled
                        .lops
                        .iter()
                        .any(|l| { l.op.opcode == Opcode::Spill && l.op.uses[0] == src }),
                    "exit copy still reads spilled victim {src}"
                );
                // …and any in-region (re)definition precedes the branch.
                if let Some(def) = spilled.lops.iter().position(|l| l.op.defs.contains(&src)) {
                    assert!(
                        def < e.branch_lop,
                        "def {def} after branch {}",
                        e.branch_lop
                    );
                }
            }
        }
    }
}
