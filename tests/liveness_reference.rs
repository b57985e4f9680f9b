//! The dense bit-vector liveness fixpoint ([`Liveness`]) against the
//! set-based fixpoint it replaced, kept here as the reference: per
//! block, `live_in` and `live_out` must hold exactly the reference's
//! registers, over every suite function (as written and after tail
//! duplication, which is what the pipeline feeds liveness), the pressure
//! stressor, the figure shapes, 200 fuzz modules, and a function whose
//! registers are named straight in its ops — sparse indices in every
//! class — so the bit numbering comes from the ops alone.

use std::collections::HashSet;
use treegion_suite::analysis::terminator_uses;
use treegion_suite::prelude::*;
use treegion_suite::workloads::{generate_fuzz, generate_suite};

/// The set-based fixpoint `Liveness::new` computed before it moved to
/// bit vectors: per-block gen/kill sets, then live-out = ∪ live-in of the
/// successors and live-in = gen ∪ (live-out − kill), iterated over the
/// reachable blocks in postorder until nothing changes.
fn reference(f: &Function, cfg: &Cfg) -> (Vec<HashSet<Reg>>, Vec<HashSet<Reg>>) {
    let n = f.num_blocks();
    let mut gen_ = vec![HashSet::new(); n];
    let mut kill = vec![HashSet::new(); n];
    for (id, block) in f.blocks() {
        let g = &mut gen_[id.index()];
        let k = &mut kill[id.index()];
        for op in &block.ops {
            for u in &op.uses {
                if !k.contains(u) {
                    g.insert(*u);
                }
            }
            for d in &op.defs {
                k.insert(*d);
            }
        }
        for u in terminator_uses(&block.term) {
            if !k.contains(&u) {
                g.insert(u);
            }
        }
    }
    let mut live_in = vec![HashSet::new(); n];
    let mut live_out = vec![HashSet::new(); n];
    let order = cfg.postorder().to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            let mut out = HashSet::new();
            for &s in cfg.succs(b) {
                for r in &live_in[s.index()] {
                    out.insert(*r);
                }
            }
            let mut inn: HashSet<Reg> = gen_[bi].clone();
            for r in &out {
                if !kill[bi].contains(r) {
                    inn.insert(*r);
                }
            }
            if out != live_out[bi] {
                live_out[bi] = out;
                changed = true;
            }
            if inn != live_in[bi] {
                live_in[bi] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

fn check(tag: &str, f: &Function) {
    let cfg = Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    let (ref_in, ref_out) = reference(f, &cfg);
    // A register no function names: never reported live.
    let stranger = Reg::gpr(u32::MAX);
    for b in f.block_ids() {
        for (side, got, want) in [
            ("live-in", live.live_in(b), &ref_in[b.index()]),
            ("live-out", live.live_out(b), &ref_out[b.index()]),
        ] {
            let listed: Vec<Reg> = got.iter().collect();
            let set: HashSet<Reg> = listed.iter().copied().collect();
            assert_eq!(&set, want, "{tag}: {side} of {b}");
            assert_eq!(listed.len(), set.len(), "{tag}: {side} of {b} repeats");
            assert!(want.iter().all(|r| got.contains(r)), "{tag}: {side} of {b}");
            assert!(!got.contains(&stranger), "{tag}: {side} of {b}");
        }
    }
}

#[test]
fn suite_functions_match_the_reference() {
    let suite = generate_suite();
    let count: usize = suite.iter().map(|m| m.functions().len()).sum();
    assert_eq!(count, 166, "the suite's function count moved");
    let td = RegionConfig::TreegionTd(TailDupLimits::expansion_2_0());
    for m in &suite {
        for f in m.functions() {
            check(&format!("{}/@{}", m.name(), f.name()), f);
            let formed = td.form(f);
            check(
                &format!("{}/@{} tail-duplicated", m.name(), f.name()),
                &formed.function,
            );
        }
    }
}

#[test]
fn stressor_and_figure_shapes_match_the_reference() {
    let stressor = generate(&BenchmarkSpec::pressure());
    for f in stressor.functions() {
        check(&format!("pressure/@{}", f.name()), f);
    }
    let shapes = [
        ("figure1", shapes::figure1().0),
        ("biased_treegion", shapes::biased_treegion().0),
        ("wide_shallow", shapes::wide_shallow(6).0),
        ("linearized", shapes::linearized(6).0),
    ];
    for (name, f) in &shapes {
        check(name, f);
    }
}

#[test]
fn fuzz_modules_match_the_reference() {
    for seed in 0..200u64 {
        for f in generate_fuzz(seed).functions() {
            check(&format!("fuzz seed {seed}/@{}", f.name()), f);
        }
    }
}

/// Registers named directly in the ops, never allocated by the builder
/// in order: sparse GPR, predicate and branch-target indices, a loop that
/// carries a value around its back edge, a use before a redefinition in
/// one block, and an unreachable block whose uses stay out of every set.
#[test]
fn sparse_registers_named_in_the_ops_match_the_reference() {
    let mut b = FunctionBuilder::new("sparse");
    let (bb0, bb1, bb2) = (b.block(), b.block(), b.block());
    let (bb3, bb4, dead) = (b.block(), b.block(), b.block());
    let (i, step, limit, acc) = (
        Reg::gpr(900),
        Reg::gpr(7),
        Reg::gpr(64),
        Reg::gpr(4_000_000),
    );
    let (c, q) = (Reg::pred(5), Reg::pred(130));
    let t = Reg::btr(63);
    b.push_all(
        bb0,
        [
            Op::movi(i, 0),
            Op::movi(step, 1),
            Op::movi(limit, 10),
            Op::pbr(t, bb3),
        ],
    );
    b.jump(bb0, bb1, 1.0);
    b.push_all(
        bb1,
        [
            Op::add(acc, acc, i),
            Op::add(i, i, step),
            Op::cmp(Cond::Lt, c, i, limit),
        ],
    );
    b.branch(bb1, c, (bb1, 9.0), (bb2, 1.0));
    b.push_all(bb2, [Op::cmp(Cond::Eq, q, acc, limit), Op::brct(t, q)]);
    b.branch(bb2, q, (bb3, 0.5), (bb4, 0.5));
    b.ret(bb3, Some(acc));
    b.ret(bb4, None);
    b.push(dead, Op::add(Reg::gpr(3), Reg::gpr(2), Reg::gpr(1)));
    b.ret(dead, Some(Reg::gpr(3)));
    let f = b.finish();
    check("sparse", &f);

    let live = Liveness::new(&f, &Cfg::new(&f));
    // `acc` is read before any definition, so it is live into the entry
    // and carried around the loop; the dead block's sets stay empty.
    assert!(live.live_in(bb0).contains(&acc));
    assert!(live.live_out(bb1).contains(&acc));
    assert_eq!(live.live_in(dead).iter().count(), 0);
    assert_eq!(live.live_out(dead).iter().count(), 0);
    // Iteration runs by class, then index.
    let order: Vec<Reg> = live.live_in(bb1).iter().collect();
    assert_eq!(order, vec![step, limit, i, acc, t]);
}
