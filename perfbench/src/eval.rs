//! The `eval` workload: the paper-reproduction user's job.
//!
//! Full `tgc eval` runs (`run_harness` with default options: all 15
//! cells at jobs = nproc) on the generated suite give `suite_s`; the
//! serving-style metrics come from single-cell requests (`tgc eval --only
//! CELL`, each loading its own suite), all 15 cells in canonical order.
//! The inputs are the suite the program generates itself, so the seed
//! does not change them.

use crate::layers::{fig13_kind, fig13_options, replay_core};
use crate::loadgen::{open_loop, summarize, Sample};
use crate::metrics::{cell_metric, Report};
use crate::stats::{gmean, median, ratio};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use treegion::{Heuristic, NullObserver, Pipeline};
use treegion_eval::{
    program_time, render_cell, run_harness, CellStatus, EvalConfig, HarnessOptions, HarnessReport,
    Suite, CELL_NAMES,
};
use treegion_machine::MachineModel;

/// Latency limit of a single-cell request, ms: failed requests count as
/// at least twice this.
const LIMIT_MS: f64 = 10_000.0;

/// Full evaluation runs per benchmark run.
const FULL_RUNS: usize = 5;

/// Set-up repetitions (suite generation plus baselines).
const SETUP_REPS: usize = 3;

/// Runs the workload.
pub fn run(report: &mut Report, trace: Option<&Trace>) -> Result<(), String> {
    let nproc = crate::nproc();
    treegion_par::set_jobs(nproc);

    // Set-up: generating the eight programs and their 1U baselines.
    let loads: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(Suite::load());
            t.elapsed().as_secs_f64()
        })
        .collect();
    report.set("setup_s", median(&loads));

    // Full evaluation runs; every one must finish all cells with the
    // same report.
    let mut times = Vec::with_capacity(FULL_RUNS);
    let mut reference: Option<HarnessReport> = None;
    for _ in 0..FULL_RUNS {
        let (rep, secs) = full_eval();
        let rep = rep?;
        count_cells(&rep, report);
        match &reference {
            None => reference = Some(rep),
            Some(r) => {
                report.check(
                    r.merged_output() == rep.merged_output(),
                    "eval report identical across runs",
                );
            }
        }
        times.push(secs);
    }
    let reference = reference.expect("at least one full run");
    report.set("suite_s", median(&times));
    // The peak so far is the full evaluation's (the cell requests below
    // run two suites at once).
    report.set(
        "peak_rss_mb",
        crate::server::peak_rss_mb("/proc/self/status")?,
    );
    let outputs: BTreeMap<&str, &str> = reference
        .cells
        .iter()
        .filter_map(|c| Some((c.name.as_str(), c.output.as_deref()?)))
        .collect();
    let gm = outputs.get("fig13@8u").and_then(|t| fig13_tree2_gmean(t));
    report.check(gm.is_some(), "fig13@8u lists eight tree(2.0) speedups");
    report.set("speedup_gmean", gm.unwrap_or(0.0));
    let (cycles, ops) = code_size();
    report.set("code_cycles", cycles);
    report.set("code_ops", ops);
    // The traced measurements run next to the untraced full runs, before
    // the cell requests grow the heap.
    if let Some(trace) = trace {
        report.set("eval.suite_load_s", median(&loads));
        traced(trace, report, nproc)?;
    }

    // Single-cell requests. Each takes 0.1-1 s of both cores, so instead
    // of offered rates: light sends them one at a time (each is due when
    // the previous returns, so latency is service time), heavy sends all
    // fifteen at once with nproc in flight, and max_rps is the rate that
    // burst completes at — the highest rate with no growing backlog.
    let mut cell_requests = |workers: usize| {
        let samples = open_loop(&[0.0; CELL_NAMES.len()], workers, None, |i| {
            let cell = CELL_NAMES[i];
            let opts = HarnessOptions {
                only: vec![cell.to_string()],
                ..HarnessOptions::default()
            };
            let rep = run_harness(&opts);
            let done = Instant::now();
            let ok = rep.is_ok_and(|r| {
                r.cells.len() == 1
                    && r.cells[0].status == CellStatus::Done
                    && r.cells[0].output.as_deref() == outputs.get(cell).copied()
            });
            (done, ok)
        });
        let failed = samples.iter().filter(|s| !s.ok).count();
        let n = CELL_NAMES.len();
        report.ops(n as u64, (n - samples.len() + failed) as u64);
        samples
    };
    let light: Vec<Sample> = cell_requests(1)
        .into_iter()
        .map(|s| Sample { due: s.start, ..s })
        .collect();
    let heavy = cell_requests(nproc);
    crate::note("cell requests done");
    let (l, h) = (
        summarize(&light, light.len(), LIMIT_MS, 1),
        summarize(&heavy, heavy.len(), LIMIT_MS, 1),
    );
    report.set("light_p50_ms", l.p50_ms);
    report.set("light_p99_ms", l.p99_ms);
    report.set("heavy_p50_ms", h.p50_ms);
    report.set("heavy_p99_ms", h.p99_ms);
    report.set("max_rps", h.throughput());
    report.set("loadgen.lag_p99_ms", l.lag_p99_ms.max(h.lag_p99_ms));
    report.set("loadgen.samples", (light.len() + heavy.len()) as f64);
    Ok(())
}

/// One full `tgc eval` run and its wall time in seconds.
fn full_eval() -> (Result<HarnessReport, String>, f64) {
    let t = Instant::now();
    let rep = run_harness(&HarnessOptions::default());
    (rep, t.elapsed().as_secs_f64())
}

/// Counts a run's cells as operations; a cell that did not finish fails.
fn count_cells(rep: &HarnessReport, report: &mut Report) {
    let failed = rep
        .cells
        .iter()
        .filter(|c| c.status != CellStatus::Done)
        .count();
    report.ops(rep.cells.len() as u64, failed as u64);
    report.check(rep.cells.len() == CELL_NAMES.len(), "eval ran every cell");
}

/// The geometric mean of the `tree(2.0)` column of the `fig13@8u`
/// table, when it lists all eight programs.
pub fn fig13_tree2_gmean(table: &str) -> Option<f64> {
    let mut lines = table.lines().skip_while(|l| !l.starts_with("Figure 13"));
    lines.next()?;
    let header: Vec<&str> = lines.next()?.split('|').map(str::trim).collect();
    let col = header.iter().position(|h| *h == "tree(2.0)")?;
    let values: Vec<f64> = lines
        .skip(1)
        .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
        .take_while(|cols| cols.len() == header.len() && cols[0] != "average")
        .filter_map(|cols| cols[col].parse().ok())
        .collect();
    (values.len() == 8).then(|| gmean(&values))
}

/// Σ estimated time (profile count × schedule height) and Σ lowered ops
/// of the suite compiled for the Fig. 13 tree(2.0) configuration — the
/// code behind the speedups the report prints.
fn code_size() -> (f64, f64) {
    let machine = MachineModel::model_8u();
    let config = EvalConfig::new(fig13_kind(), Heuristic::GlobalWeight);
    let pipeline = Pipeline::with_options(&machine, fig13_options());
    let (mut cycles, mut ops) = (0.0, 0usize);
    for m in treegion_workloads::generate_suite() {
        cycles += program_time(&m, &config, &machine);
        for f in m.functions() {
            let (_, scheds) = pipeline.schedule_function(f, &fig13_kind(), &NullObserver);
            ops += scheds.iter().map(|s| s.lowered.num_ops()).sum::<usize>();
        }
    }
    (cycles, ops as f64)
}

/// The traced run's extra measurements: a traced full run (for the
/// tracing overhead), per-cell times and cache hit ratios on a fresh
/// suite, the jobs=1 run for parallel scaling, and the core replay.
fn traced(trace: &Trace, report: &mut Report, nproc: usize) -> Result<(), String> {
    let untraced_s = report.get("suite_s");
    let (rep, secs, _) = trace.time("eval.run_harness", None, None, || {
        run_harness(&HarnessOptions::default())
    });
    count_cells(&rep?, report);
    report.set("trace.overhead_ms", (secs - untraced_s) * 1e3);

    let root = trace.begin("eval.cells", None, None);
    let (suite, _, _) = trace.time("eval.suite_load", Some(root), None, Suite::load);
    let before = suite.cache_stats();
    trace.counters("cells.before", cache_counters(&before));
    for (i, cell) in CELL_NAMES.iter().enumerate() {
        let (text, secs, _) = trace.time(
            &format!("eval.cell.{cell}"),
            Some(root),
            Some(i as u64),
            || render_cell(&suite, cell),
        );
        black_box(text);
        report.set(&cell_metric(cell), secs);
    }
    trace.end(root);
    let after = suite.cache_stats();
    trace.counters("cells.after", cache_counters(&after));
    let hit_ratio = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    report.set(
        "eval.formation.hit_ratio",
        hit_ratio(after.formation.hits, after.formation.misses),
    );
    report.set(
        "eval.time.hit_ratio",
        hit_ratio(after.time.hits, after.time.misses),
    );

    treegion_par::set_jobs(1);
    let (rep, serial_s) = full_eval();
    treegion_par::set_jobs(nproc);
    count_cells(&rep?, report);
    report.set("par.eval_scaling", ratio(serial_s, untraced_s));

    let modules = treegion_workloads::generate_suite();
    let functions: Vec<_> = modules.iter().flat_map(|m| m.functions()).collect();
    replay_core(&functions, trace, report);
    Ok(())
}

/// A cache-statistics snapshot as trace counters.
fn cache_counters(s: &treegion_eval::CacheStats) -> BTreeMap<String, String> {
    [
        ("formation.hits", s.formation.hits),
        ("formation.misses", s.formation.misses),
        ("time.hits", s.time.hits),
        ("time.misses", s.time.misses),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_tree2_column_of_fig13() {
        let table = "Figure 13: global-weight tail-duplicated treegions (8U)\n\
             program  | sb    | tree(2.0) | tree(3.0) \n\
            ----------+-------+-----------+-----------\n\
             compress | 2.531 | 2.000     | 3.061     \n\
             gcc      | 2.459 | 2.000     | 2.699     \n\
             go       | 2.502 | 2.000     | 2.848     \n\
             ijpeg    | 2.246 | 2.000     | 2.470     \n\
             li       | 2.428 | 8.000     | 2.686     \n\
             m88ksim  | 2.411 | 8.000     | 2.615     \n\
             perl     | 2.475 | 8.000     | 2.709     \n\
             vortex   | 2.175 | 8.000     | 2.290     \n\
             average  | 2.403 | 5.000     | 2.672     \n";
        let g = fig13_tree2_gmean(table).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        // A table missing a program is not a result.
        let short: String = table
            .lines()
            .filter(|l| !l.contains("vortex"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(fig13_tree2_gmean(&short), None);
    }
}
