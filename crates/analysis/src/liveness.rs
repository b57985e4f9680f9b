//! Per-block register liveness (backward dataflow).
//!
//! The scheduler needs live-out sets to decide which values must be
//! restored (via renaming copies) at region exits, and which speculated
//! definitions would violate live-outs on other paths — the situations
//! Section 3 of the paper resolves with compile-time register renaming.
//!
//! Sets are dense bit vectors. Every register the function's ops and
//! terminators name gets one bit — the classes one after another, each
//! numbered in index order — so the fixpoint is word-wise `u64`
//! arithmetic, and its memory follows the registers actually named, not
//! the largest index.

use crate::Cfg;
use treegion_ir::{BlockId, Function, Reg, RegClass, Terminator};

/// The registers a function names, numbered densely: class `c`'s
/// registers, in index order, take bits `base[c]..base[c + 1]`.
#[derive(Clone, Debug)]
struct RegNumbering {
    /// Register indices named per class, sorted and deduplicated.
    names: [Vec<u32>; 3],
    /// First bit of each class; `base[3]` is the total bit count.
    base: [usize; 4],
}

impl RegNumbering {
    fn of(f: &Function) -> Self {
        let mut names: [Vec<u32>; 3] = Default::default();
        for (_, block) in f.blocks() {
            for op in &block.ops {
                for r in op.uses.iter().chain(&op.defs) {
                    names[r.class().index()].push(r.index());
                }
            }
            for r in terminator_uses(&block.term) {
                names[r.class().index()].push(r.index());
            }
        }
        let mut base = [0; 4];
        for (c, v) in names.iter_mut().enumerate() {
            v.sort_unstable();
            v.dedup();
            base[c + 1] = base[c] + v.len();
        }
        RegNumbering { names, base }
    }

    /// The bit of `r`, or `None` when the function never names it.
    fn bit(&self, r: Reg) -> Option<usize> {
        let c = r.class().index();
        let i = self.names[c].binary_search(&r.index()).ok()?;
        Some(self.base[c] + i)
    }

    fn reg(&self, bit: usize) -> Reg {
        let c = (0..3)
            .find(|&c| bit < self.base[c + 1])
            .expect("bit within the numbering");
        Reg::new(RegClass::ALL[c], self.names[c][bit - self.base[c]])
    }
}

fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] |= 1 << (bit % 64);
}

fn has_bit(words: &[u64], bit: usize) -> bool {
    words[bit / 64] & (1 << (bit % 64)) != 0
}

/// Live-in / live-out register sets for every block of a function.
#[derive(Clone, Debug)]
pub struct Liveness {
    regs: RegNumbering,
    /// `u64` words per set.
    words: usize,
    /// Block `b`'s live-in set is `live_in[b * words..(b + 1) * words]`.
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Computes liveness to fixpoint.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let regs = RegNumbering::of(f);
        let words = regs.base[3].div_ceil(64);
        let n = f.num_blocks();
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen_ = vec![0u64; n * words];
        let mut kill = vec![0u64; n * words];
        let bit = |r: Reg| {
            regs.bit(r)
                .expect("the numbering covers every named register")
        };
        for (id, block) in f.blocks() {
            let span = id.index() * words..(id.index() + 1) * words;
            let (g, k) = (&mut gen_[span.clone()], &mut kill[span]);
            for op in &block.ops {
                for &u in &op.uses {
                    let b = bit(u);
                    if !has_bit(k, b) {
                        set_bit(g, b);
                    }
                }
                for &d in &op.defs {
                    set_bit(k, bit(d));
                }
            }
            for u in terminator_uses(&block.term) {
                let b = bit(u);
                if !has_bit(k, b) {
                    set_bit(g, b);
                }
            }
        }
        let mut live_in = vec![0u64; n * words];
        let mut live_out = vec![0u64; n * words];
        // Iterate in postorder (approximately reverse of flow) to converge
        // quickly; repeat until no set changes. Unreachable blocks are
        // never visited and keep empty sets.
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.postorder() {
                out.fill(0);
                for &s in cfg.succs(b) {
                    let succ_in = &live_in[s.index() * words..(s.index() + 1) * words];
                    for (o, &i) in out.iter_mut().zip(succ_in) {
                        *o |= i;
                    }
                }
                let base = b.index() * words;
                for (w, &o) in out.iter().enumerate() {
                    let i = gen_[base + w] | (o & !kill[base + w]);
                    if o != live_out[base + w] || i != live_in[base + w] {
                        live_out[base + w] = o;
                        live_in[base + w] = i;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            regs,
            words,
            live_in,
            live_out,
        }
    }

    fn set<'a>(&'a self, sets: &'a [u64], b: BlockId) -> LiveSet<'a> {
        LiveSet {
            words: &sets[b.index() * self.words..(b.index() + 1) * self.words],
            regs: &self.regs,
        }
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> LiveSet<'_> {
        self.set(&self.live_in, b)
    }

    /// Registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> LiveSet<'_> {
        self.set(&self.live_out, b)
    }
}

/// One block's live registers: a read-only view into a [`Liveness`].
#[derive(Clone, Copy)]
pub struct LiveSet<'a> {
    words: &'a [u64],
    regs: &'a RegNumbering,
}

impl std::fmt::Debug for LiveSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> LiveSet<'a> {
    /// `true` if `r` is in the set.
    pub fn contains(&self, r: &Reg) -> bool {
        self.regs.bit(*r).is_some_and(|b| has_bit(self.words, b))
    }

    /// The registers in the set, by class (GPR, predicate, branch
    /// target) and then by index.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + 'a {
        let regs = self.regs;
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    regs.reg(w * 64 + b)
                })
            })
        })
    }
}

/// Registers read by a terminator.
pub fn terminator_uses(t: &Terminator) -> Vec<Reg> {
    match t {
        Terminator::Jump(_) => vec![],
        Terminator::Branch { cond, .. } => vec![*cond],
        Terminator::Switch { on, .. } => vec![*on],
        Terminator::Ret { value } => value.iter().copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion_ir::{Cond, FunctionBuilder, Op, Reg};

    #[test]
    fn value_used_across_blocks_is_live() {
        // bb0: x = 1; jump bb1. bb1: ret x.
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1) = (b.block(), b.block());
        let x = b.gpr();
        b.push(bb0, Op::movi(x, 1));
        b.jump(bb0, bb1, 1.0);
        b.ret(bb1, Some(x));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(lv.live_out(bb0).contains(&x));
        assert!(lv.live_in(bb1).contains(&x));
        assert!(!lv.live_in(bb0).contains(&x));
    }

    #[test]
    fn redefined_value_kills_liveness() {
        // bb0: x = 1; jump bb1. bb1: x = 2; ret x.
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1) = (b.block(), b.block());
        let x = b.gpr();
        b.push(bb0, Op::movi(x, 1));
        b.jump(bb0, bb1, 1.0);
        b.push(bb1, Op::movi(x, 2));
        b.ret(bb1, Some(x));
        let f = b.finish();
        let lv = Liveness::new(&f, &Cfg::new(&f));
        assert!(!lv.live_out(bb0).contains(&x));
        assert!(!lv.live_in(bb1).contains(&x));
    }

    #[test]
    fn branch_condition_is_upward_exposed() {
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let c = b.gpr();
        // c defined nowhere in bb0 — live-in of bb0.
        b.branch(bb0, c, (bb1, 1.0), (bb2, 1.0));
        b.ret(bb1, None);
        b.ret(bb2, None);
        let f = b.finish();
        let lv = Liveness::new(&f, &Cfg::new(&f));
        assert!(lv.live_in(bb0).contains(&c));
    }

    #[test]
    fn loop_carried_value_stays_live_around_backedge() {
        // bb0: i=0 -> bb1; bb1: i=i+1; c=i<10; branch c bb1 / bb2; bb2: ret i
        let mut b = FunctionBuilder::new("t");
        let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
        let (i, one, ten, c) = (b.gpr(), b.gpr(), b.gpr(), b.gpr());
        b.push_all(bb0, [Op::movi(i, 0), Op::movi(one, 1), Op::movi(ten, 10)]);
        b.jump(bb0, bb1, 1.0);
        b.push_all(bb1, [Op::add(i, i, one), Op::cmp(Cond::Lt, c, i, ten)]);
        b.branch(bb1, c, (bb1, 9.0), (bb2, 1.0));
        b.ret(bb2, Some(i));
        let f = b.finish();
        let lv = Liveness::new(&f, &Cfg::new(&f));
        assert!(lv.live_out(bb1).contains(&i));
        assert!(lv.live_in(bb1).contains(&i)); // used before (re)defined? add reads i
        assert!(lv.live_in(bb1).contains(&one));
    }

    #[test]
    fn partial_use_before_def_in_same_block() {
        // bb0: y = x + x; x = 1; ret y  — x is upward exposed.
        let mut b = FunctionBuilder::new("t");
        let bb0 = b.block();
        let (x, y) = (Reg::gpr(0), Reg::gpr(1));
        b.push_all(bb0, [Op::add(y, x, x), Op::movi(x, 1)]);
        b.ret(bb0, Some(y));
        let f = b.finish();
        let lv = Liveness::new(&f, &Cfg::new(&f));
        assert!(lv.live_in(bb0).contains(&x));
        assert!(!lv.live_in(bb0).contains(&y));
    }
}
