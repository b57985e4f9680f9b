//! Custom machine models: sweep issue width, branch limits, and load
//! latency to see how the treegion advantage over SLRs moves — the
//! machine-model counterpart of the paper's 4U/8U comparison — then
//! ablate the design choices DESIGN.md §5 calls out on compress.
//!
//! Run with: `cargo run --example custom_machine --release`

use treegion_suite::prelude::*;

/// Total estimated time of `module`: every function formed under
/// `config` and scheduled on `machine` with `sched`.
fn program_time(
    module: &Module,
    machine: &MachineModel,
    config: &RegionConfig,
    sched: ScheduleOptions,
) -> f64 {
    let pipeline = Pipeline::with_options(
        machine,
        RobustOptions {
            sched,
            ..Default::default()
        },
    );
    module
        .functions()
        .iter()
        .map(|f| {
            let (_, scheds) = pipeline.schedule_function(f, config, &NullObserver);
            scheds
                .iter()
                .map(|s| s.schedule.estimated_time(&s.lowered))
                .sum::<f64>()
        })
        .sum()
}

/// A per-class unit limit as printed: the number, or the `none` label
/// when the class is unconstrained.
fn limit_label(limit: Option<usize>, none: &str) -> String {
    limit.map_or_else(|| none.to_string(), |l| l.to_string())
}

/// Prints one ablation sweep: each row's estimated time and its ratio to
/// the sweep's first row.
fn sweep(title: &str, rows: &[(String, f64)]) {
    println!("  {title}:");
    let base = rows[0].1;
    for (label, t) in rows {
        println!("    {label:<20} {t:>10.0} {:>7.3}", t / base);
    }
}

fn main() {
    let module = generate(&BenchmarkSpec::tiny(2024));
    let (slrs, trees) = (RegionConfig::Slr, RegionConfig::Treegion);
    let gw = ScheduleOptions::default();

    println!("issue-width sweep (global weight; time in cycles, lower is better)");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "width", "slr", "treegion", "tree/slr"
    );
    for width in [1usize, 2, 4, 6, 8, 12, 16] {
        let m = MachineModel::builder(format!("{width}U"), width).build();
        let slr = program_time(&module, &m, &slrs, gw);
        let tree = program_time(&module, &m, &trees, gw);
        println!("{width:>6} {slr:>12.0} {tree:>12.0} {:>9.3}", tree / slr);
    }

    println!("\nbranch-limit sweep on a 8-wide machine (treegions issue several");
    println!("predicated branches per cycle when the architecture allows it):");
    for limit in [None, Some(3), Some(2), Some(1)] {
        let m = MachineModel::builder("8U*", 8).branch_limit(limit).build();
        let tree = program_time(&module, &m, &trees, gw);
        println!(
            "  branches/cycle {:>9}: treegion time {tree:.0}",
            limit_label(limit, "unlimited")
        );
    }

    println!("\nload-latency sweep on 4-wide (longer loads = more slack for");
    println!("cross-path speculation to fill):");
    for lat in [1u32, 2, 4, 8] {
        let m = MachineModel::builder("4U*", 4).load_latency(lat).build();
        let slr = program_time(&module, &m, &slrs, gw);
        let tree = program_time(&module, &m, &trees, gw);
        println!("  load latency {lat}: tree/slr = {:.3}", tree / slr);
    }

    // The design-choice ablations, on the paper suite's compress: 4-wide,
    // treegions, global weight unless a sweep says otherwise.
    let compress = generate(&spec_suite()[0]);
    let m4 = MachineModel::model_4u();
    let four_wide = || MachineModel::builder("4U*", 4);
    println!("\ndesign-choice ablations on compress (4-wide, treegions, global");
    println!("weight unless noted; time in cycles, ratio to each sweep's first row):");
    let td = RegionConfig::TreegionTd(TailDupLimits::expansion_2_0());
    sweep(
        "dominator parallelism (tree-td 2.0)",
        &[false, true].map(|on| {
            let sched = ScheduleOptions {
                dominator_parallelism: on,
                ..gw
            };
            let t = program_time(&compress, &m4, &td, sched);
            (if on { "on" } else { "off" }.to_string(), t)
        }),
    );
    sweep(
        "PlayDoh same-cycle memory dependences",
        &[true, false].map(|same| {
            let m = four_wide().mem_dep_same_cycle(same).build();
            let t = program_time(&compress, &m, &trees, gw);
            (format!("same cycle {same}"), t)
        }),
    );
    sweep(
        "branches per cycle",
        &[None, Some(2), Some(1)].map(|limit| {
            let m = four_wide().branch_limit(limit).build();
            let t = program_time(&compress, &m, &trees, gw);
            (limit_label(limit, "unlimited"), t)
        }),
    );
    sweep(
        "memory ports",
        &[None, Some(2), Some(1)].map(|ports| {
            let m = four_wide().mem_ports(ports).build();
            let t = program_time(&compress, &m, &trees, gw);
            (limit_label(ports, "universal"), t)
        }),
    );
    sweep(
        "tie break (dependence height)",
        &[TieBreak::SourceOrder, TieBreak::RoundRobin].map(|tie_break| {
            let sched = ScheduleOptions {
                heuristic: Heuristic::DependenceHeight,
                tie_break,
                ..gw
            };
            let t = program_time(&compress, &m4, &trees, sched);
            (format!("{tie_break:?}"), t)
        }),
    );
}
