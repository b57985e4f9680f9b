//! Tail duplication and dominator parallelism (Section 4, Figures 11/12):
//! grow the Figure 1 CFG's treegions with tail duplication, list each
//! region's blocks with the original every copy duplicates, then show the
//! scheduler eliminating redundant duplicated ops.
//!
//! Run with: `cargo run --example tail_duplication`

use treegion_suite::prelude::*;

/// One region's blocks, each copy labelled with the block it duplicates
/// (`bb9(copy of bb8)`).
fn listing(r: &Region, origin: &[BlockId]) -> String {
    let labels: Vec<String> = r
        .blocks()
        .iter()
        .map(|b| {
            let o = origin[b.index()];
            if o == *b {
                format!("{b}")
            } else {
                format!("{b}(copy of {o})")
            }
        })
        .collect();
    format!(
        "region @ {}: [{}], {} paths",
        r.root(),
        labels.join(", "),
        r.path_count()
    )
}

fn main() {
    let (f, ids) = shapes::figure1();
    let plain = RegionConfig::Treegion.form(&f);
    println!(
        "before: {} blocks, {} treegions",
        f.num_blocks(),
        plain.regions.len()
    );
    for r in plain.regions.regions() {
        println!("  {}", listing(r, &plain.origin));
    }

    for limits in [
        TailDupLimits::expansion_2_0(),
        TailDupLimits::expansion_3_0(),
    ] {
        let result = form_treegions_td(&f, &limits);
        println!(
            "\n== tail duplication, expansion limit {:.1} ==",
            limits.code_expansion
        );
        println!(
            "after: {} blocks ({} duplicates), {} treegions",
            result.function.num_blocks(),
            result.function.num_blocks() - f.num_blocks(),
            result.regions.len()
        );
        for r in result.regions.regions() {
            println!("  {}", listing(r, &result.origin));
        }

        // Schedule the top region with and without dominator parallelism.
        let machine = MachineModel::model_4u();
        let top = result.regions.region_of(result.function.entry()).unwrap().0;
        for dompar in [false, true] {
            let pipeline = Pipeline::with_options(
                &machine,
                RobustOptions {
                    sched: ScheduleOptions {
                        heuristic: Heuristic::GlobalWeight,
                        dominator_parallelism: dompar,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let s = &pipeline.schedule_set(
                &result.function,
                &result.regions,
                Some(&result.origin),
                &NullObserver,
            )[top];
            println!(
                "  dominator parallelism {}: time {}, {} ops issued, {} eliminated",
                if dompar { "ON " } else { "off" },
                s.schedule.estimated_time(&s.lowered),
                s.schedule.issued_ops(),
                s.schedule.eliminated.len()
            );
        }
    }
    println!(
        "\n(paper: bb5 — our {} — is tail duplicated so both bb3 and bb4 keep\n\
         private copies. The duplicated `r6 = 0`-style ops from sibling paths\n\
         merge when speculated into their common dominator — the Figure 12\n\
         discussion.)",
        ids[4]
    );
}
