//! Dynamic validation: execute every benchmark under every scheme on the
//! VLIW simulator, checking semantic equivalence and reporting *measured*
//! speedups for the executed input (the dynamic analogue of Figures 6/13).
//!
//! Run with: `cargo run --example dynamic_validation --release`

use treegion_suite::eval::{f3, validate_dynamic, EvalConfig, Table};
use treegion_suite::prelude::*;
use treegion_suite::workloads::generate_suite;

fn main() {
    let modules = generate_suite();
    let m4 = MachineModel::model_4u();
    let mut t = Table::new(
        "Dynamic (simulated) speedups over 1U basic blocks, 4U, global weight",
        vec!["program", "bb", "slr", "sb", "tree", "tree-td(2.0)"],
    );
    for m in &modules {
        let mut cells = vec![m.name().to_string()];
        for region in [
            RegionConfig::BasicBlock,
            RegionConfig::Slr,
            RegionConfig::Superblock,
            RegionConfig::Treegion,
            RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        ] {
            let cfg = EvalConfig::new(region, Heuristic::GlobalWeight);
            let r = validate_dynamic(m, &cfg, &m4, 10_000_000);
            cells.push(f3(r.speedup()));
        }
        t.row(cells);
        eprintln!(
            "{} validated (all schemes semantically equivalent)",
            m.name()
        );
    }
    print!("{}", t.render());
}
