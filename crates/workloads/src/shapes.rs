//! Hand-built CFGs from the paper's figures, used by tests and examples
//! (`worked_example`, `heuristic_showdown`, `tail_duplication`).

use treegion_ir::{BlockId, Cond, Function, FunctionBuilder, Op};

/// The CFG of the paper's Figure 1 (nine blocks; our ids are 0-based, so
/// the paper's `bb1` is index 0). The profile weights match the worked
/// example of Figures 4/5: the three paths out of the top treegion carry
/// weights 35, 25, and 40.
///
/// Returns the function plus its block ids in paper order.
pub fn figure1() -> (Function, Vec<BlockId>) {
    let mut b = FunctionBuilder::new("fig1");
    let ids: Vec<_> = (0..9).map(|_| b.block()).collect();
    // Source ops mirroring Figure 4/5: A and B loaded, compared, summed.
    let (addr, r1, r2, r3, c1, c3, r4, r5, r6) = (
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
        b.gpr(),
    );
    b.push_all(
        ids[0],
        [
            Op::load(r1, addr, 0), // r1 = LD (A)
            Op::load(r2, addr, 8), // r2 = LD (B)
            Op::cmp(Cond::Gt, c1, r1, r2),
        ],
    );
    b.branch(ids[0], c1, (ids[7], 40.0), (ids[1], 60.0)); // bb1: taken -> bb8
    b.push_all(
        ids[1],
        [
            Op::add(r3, r1, r2),
            Op::movi(r4, 1),
            Op::cmp(Cond::Lt, c3, r3, r2), // r3 < 100 stand-in
        ],
    );
    b.branch(ids[1], c3, (ids[3], 25.0), (ids[2], 35.0)); // bb2: taken -> bb4
    b.push(ids[2], Op::movi(r5, 2)); // bb3
    b.jump(ids[2], ids[4], 35.0);
    b.push_all(ids[3], [Op::movi(r4, 3), Op::movi(r5, 4)]); // bb4
    b.jump(ids[3], ids[4], 25.0);
    b.push(ids[4], Op::movi(r6, 0)); // bb5 (merge)
    b.branch(ids[4], c1, (ids[5], 30.0), (ids[6], 30.0));
    b.push(ids[5], Op::add(r6, r4, r5)); // bb6
    b.jump(ids[5], ids[8], 30.0);
    b.push(ids[6], Op::sub(r6, r4, r5)); // bb7
    b.jump(ids[6], ids[8], 30.0);
    b.push(ids[7], Op::movi(r6, 5)); // bb8
    b.jump(ids[7], ids[8], 40.0);
    b.ret(ids[8], Some(r6)); // bb9
    (b.finish(), ids)
}

/// A *biased* treegion in the shape of the paper's Figure 7: a three-level
/// branch tree where the profile runs 100% down the leftmost path. SLR
/// scheduling can focus on that single path; treegion scheduling stretches
/// the schedule to let every path complete — the reason ijpeg's 4U
/// treegion result trails SLR in Figure 6.
pub fn biased_treegion() -> (Function, Vec<BlockId>) {
    let mut b = FunctionBuilder::new("fig7_biased");
    // Root + 3 levels of left-spine branches, each right child cold.
    let ids: Vec<_> = (0..8).map(|_| b.block()).collect();
    let vars: Vec<_> = (0..4).map(|_| b.gpr()).collect();
    for (level, w) in [(0usize, 100.0f64), (1, 100.0), (2, 100.0)].into_iter() {
        let cur = ids[level];
        let c = b.gpr();
        b.push(cur, Op::movi(vars[level], level as i64));
        b.push(
            cur,
            Op::cmp(Cond::Ge, c, vars[level], vars[(level + 1) % 4]),
        );
        // Left (hot) continues the spine; right (cold) is a leaf.
        b.branch(cur, c, (ids[level + 1], w), (ids[4 + level], 0.0));
    }
    b.push(ids[3], Op::add(vars[3], vars[0], vars[1]));
    b.ret(ids[3], Some(vars[3])); // hot leaf
    for (k, &id) in ids.iter().enumerate().take(7).skip(4) {
        b.push(id, Op::movi(vars[2], k as i64));
        b.ret(id, Some(vars[2])); // cold leaves
    }
    b.ret(ids[7], None); // unreachable spare (kept: weight 0)
    (b.finish(), ids)
}

/// A wide, shallow treegion in the shape of the paper's Figure 9: a
/// multiway branch whose destinations have roughly equal (small) exit
/// counts, with the profile weight concentrated on destinations that do
/// *not* have the highest exit count — the exit-count heuristic then
/// prioritizes cold destinations and delays the hot ones.
pub fn wide_shallow(cases: usize) -> (Function, Vec<BlockId>) {
    assert!(cases >= 3, "need at least 3 cases");
    let mut b = FunctionBuilder::new("fig9_wide");
    let root = b.block();
    let on = b.gpr();
    let acc = b.gpr();
    b.push(root, Op::movi(on, 1));
    b.push(root, Op::movi(acc, 0));
    let mut ids = vec![root];
    let mut case_edges = Vec::new();
    let join = b.block();
    // One hot case (weight 90), one warm (10), the rest cold with an
    // extra if-then each (higher exit count than the hot case).
    for ci in 0..cases {
        let cb = b.block();
        ids.push(cb);
        let w = match ci {
            0 => 90.0,
            1 => 10.0,
            _ => 0.0,
        };
        b.push(cb, Op::add(acc, acc, on));
        if ci >= 2 {
            // Cold case: extra branch, so two exits follow it.
            let t = b.block();
            ids.push(t);
            let c = b.gpr();
            b.push(cb, Op::cmp(Cond::Gt, c, acc, on));
            b.branch(cb, c, (t, 0.0), (join, 0.0));
            b.push(t, Op::add(acc, acc, acc));
            b.jump(t, join, 0.0);
        } else {
            b.jump(cb, join, w);
        }
        case_edges.push((ci as i64, cb, w));
    }
    let def = b.block();
    ids.push(def);
    b.jump(def, join, 0.0);
    b.switch(root, on, case_edges, (def, 0.0));
    b.ret(join, Some(acc));
    ids.push(join);
    (b.finish(), ids)
}

/// A linearized treegion in the shape of the paper's Figure 10: a chain of
/// equal-weight blocks, each with a never-taken side exit, whose only hot
/// exit is at the bottom. The weighted-count heuristic ties on weight and
/// falls back to exit count, prioritizing the top of the chain and
/// delaying the bottom exit that actually executes.
pub fn linearized(len: usize) -> (Function, Vec<BlockId>) {
    assert!(len >= 2, "need at least 2 chain blocks");
    let mut b = FunctionBuilder::new("fig10_linearized");
    let mut ids: Vec<BlockId> = (0..len).map(|_| b.block()).collect();
    let cold = b.block();
    let bottom = b.block();
    let v = b.gpr();
    let w = b.gpr();
    b.push(ids[0], Op::movi(v, 1));
    b.push(ids[0], Op::movi(w, 2));
    for k in 0..len {
        let cur = ids[k];
        let c = b.gpr();
        b.push(cur, Op::add(v, v, w));
        b.push(cur, Op::cmp(Cond::Eq, c, v, w));
        let next = if k + 1 < len { ids[k + 1] } else { bottom };
        b.branch(cur, c, (cold, 0.0), (next, 100.0));
    }
    b.push(cold, Op::movi(v, -1));
    b.ret(cold, Some(v));
    b.ret(bottom, Some(v));
    ids.push(cold);
    ids.push(bottom);
    (b.finish(), ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treegion::{form_treegions, RegionKind};
    use treegion_ir::verify_function;

    #[test]
    fn figure1_verifies_and_forms_three_treegions() {
        let (f, ids) = figure1();
        verify_function(&f).unwrap();
        let set = form_treegions(&f);
        assert_eq!(set.len(), 3);
        assert_eq!(set.kind(), RegionKind::Treegion);
        let top = set.region(set.region_of(ids[0]).unwrap());
        assert_eq!(top.num_blocks(), 5);
    }

    #[test]
    fn biased_shape_has_single_hot_path() {
        let (f, _) = biased_treegion();
        verify_function(&f).unwrap();
        let hot_blocks = f.blocks().filter(|(_, b)| b.weight > 0.0).count();
        assert_eq!(hot_blocks, 4); // the spine only
    }

    #[test]
    fn wide_shallow_is_one_wide_treegion() {
        let (f, _) = wide_shallow(8);
        verify_function(&f).unwrap();
        let set = form_treegions(&f);
        // Root treegion spans everything except the join (merge).
        let root_region = set.region(set.region_of(f.entry()).unwrap());
        assert!(root_region.path_count() >= 8);
        // Cold cases have more exits below them than hot cases.
    }

    #[test]
    fn linearized_is_a_single_path_region() {
        let (f, _) = linearized(5);
        verify_function(&f).unwrap();
        let set = form_treegions(&f);
        let root_region = set.region(set.region_of(f.entry()).unwrap());
        // Chain blocks + bottom all absorbed (cold is a merge).
        assert!(root_region.num_blocks() >= 6);
    }
}
