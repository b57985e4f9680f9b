//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index).

use crate::cache::{CacheStats, FormationCache};
use crate::pipeline::{baseline_time_cached, expect_cell, program_time_cached, sweep_cached};
use crate::report::{f2, f3, Table};
use crate::stats::{region_stats_cached, RegionStats};
use crate::{EvalConfig, RegionConfig};
use treegion::{Heuristic, TailDupLimits};
use treegion_ir::Module;
use treegion_machine::MachineModel;
use treegion_workloads::{generate, generate_suite, BenchmarkSpec};

/// The generated benchmark suite.
///
/// The suite owns a [`FormationCache`] shared by every table/figure
/// generator, so formation, lowering, and repeated cells — the 1U
/// basic-block baselines among them — are each computed once across the
/// whole evaluation run, by the first cell that needs them. Loading
/// schedules nothing, so a scheduler fault fails the cells that read the
/// faulty schedules, inside their containment, not the load.
#[derive(Clone, Debug)]
pub struct Suite {
    /// One module per SPECint95-style benchmark.
    pub modules: Vec<Module>,
    cache: FormationCache,
}

impl Suite {
    /// Generates the eight benchmarks.
    pub fn load() -> Self {
        Self::from_modules(generate_suite(), FormationCache::new())
    }

    /// A reduced suite (first `n` benchmarks) for quick tests.
    pub fn load_small(n: usize) -> Self {
        Self::from_modules(
            generate_suite().into_iter().take(n).collect(),
            FormationCache::new(),
        )
    }

    /// [`Suite::load_small`] with memoization off: every table cell is
    /// recomputed from scratch. The determinism tests render the same
    /// tables through a cached and an uncached suite and require the
    /// output to be byte-identical.
    pub fn load_small_uncached(n: usize) -> Self {
        Self::from_modules(
            generate_suite().into_iter().take(n).collect(),
            FormationCache::disabled(),
        )
    }

    /// [`Suite::load`] with memoization off — the pre-cache behaviour,
    /// kept so the benchmark harness can measure the cache's effect on
    /// the full evaluation run.
    pub fn load_uncached() -> Self {
        Self::from_modules(generate_suite(), FormationCache::disabled())
    }

    fn from_modules(modules: Vec<Module>, cache: FormationCache) -> Self {
        Suite { modules, cache }
    }

    /// The memoization handle shared by all generators.
    pub fn cache(&self) -> &FormationCache {
        &self.cache
    }

    /// Hit/miss statistics of the suite's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Module `idx`'s baseline time (1U, basic blocks), computed by the
    /// first cell that reads it.
    pub fn baseline(&self, idx: usize) -> f64 {
        baseline_time_cached(&self.modules[idx], &self.cache)
    }

    fn speedup(&self, idx: usize, config: &EvalConfig, machine: &MachineModel) -> f64 {
        self.baseline(idx) / program_time_cached(&self.modules[idx], config, machine, &self.cache)
    }

    fn stats(&self, idx: usize, config: &RegionConfig) -> RegionStats {
        region_stats_cached(&self.modules[idx], config, &self.cache)
    }
}

/// Table 1: treegion statistics (avg/max blocks, avg ops per treegion).
pub fn table1(suite: &Suite) -> Table {
    stats_table(
        suite,
        "Table 1: Treegion statistics",
        &RegionConfig::Treegion,
    )
}

/// Table 2: SLR statistics.
pub fn table2(suite: &Suite) -> Table {
    stats_table(suite, "Table 2: SLR statistics", &RegionConfig::Slr)
}

fn stats_table(suite: &Suite, title: &str, config: &RegionConfig) -> Table {
    let mut t = Table::new(title, vec!["program", "avg #bb", "max #bb", "avg #ops"]);
    let indices: Vec<usize> = (0..suite.modules.len()).collect();
    let stats = treegion_par::par_map(&indices, |&i| suite.stats(i, config));
    for (m, s) in suite.modules.iter().zip(stats) {
        t.row(vec![
            m.name().into(),
            f2(s.avg_blocks),
            s.max_blocks.to_string(),
            f2(s.avg_ops),
        ]);
    }
    t
}

/// Table 3: code expansion for superblocks and treegions with tail
/// duplication limits 2.0 and 3.0.
pub fn table3(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Table 3: Code expansion",
        vec!["program", "sb", "tree(2.0)", "tree(3.0)"],
    );
    let configs = [
        RegionConfig::Superblock,
        RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        RegionConfig::TreegionTd(TailDupLimits::expansion_3_0()),
    ];
    let cells: Vec<(usize, usize)> = (0..suite.modules.len())
        .flat_map(|i| (0..configs.len()).map(move |k| (i, k)))
        .collect();
    let stats = treegion_par::par_map(&cells, |&(i, k)| suite.stats(i, &configs[k]));
    let mut sums = [0.0f64; 3];
    for (i, m) in suite.modules.iter().enumerate() {
        let mut cells = vec![m.name().to_string()];
        for k in 0..configs.len() {
            let s = &stats[i * configs.len() + k];
            sums[k] += s.code_expansion;
            cells.push(f2(s.code_expansion));
        }
        t.row(cells);
    }
    let n = suite.modules.len() as f64;
    t.row(vec![
        "average".into(),
        f2(sums[0] / n),
        f2(sums[1] / n),
        f2(sums[2] / n),
    ]);
    t
}

/// Table 4: region count, avg blocks, avg ops for superblocks vs
/// treegions with tail duplication (limit 2.0).
pub fn table4(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Table 4: Superblock and tail-duplicated treegion statistics",
        vec![
            "program",
            "#regions sb",
            "#regions tree(2.0)",
            "avg #bb sb",
            "avg #bb tree(2.0)",
            "avg #ops sb",
            "avg #ops tree(2.0)",
        ],
    );
    let indices: Vec<usize> = (0..suite.modules.len()).collect();
    let stats = treegion_par::par_map(&indices, |&i| {
        (
            suite.stats(i, &RegionConfig::Superblock),
            suite.stats(i, &RegionConfig::TreegionTd(TailDupLimits::expansion_2_0())),
        )
    });
    for (m, (sb, td)) in suite.modules.iter().zip(stats) {
        t.row(vec![
            m.name().into(),
            sb.num_regions.to_string(),
            td.num_regions.to_string(),
            f2(sb.avg_blocks),
            f2(td.avg_blocks),
            f2(sb.avg_ops),
            f2(td.avg_ops),
        ]);
    }
    t
}

/// Figure 6: speedup of dependence-height scheduling for basic blocks,
/// SLRs, and treegions, on the given machine.
pub fn fig6(suite: &Suite, machine: &MachineModel) -> Table {
    let mut t = Table::new(
        format!("Figure 6: dependence-height treegion scheduling ({machine})"),
        vec!["program", "bb", "slr", "tree"],
    );
    let configs = [
        RegionConfig::BasicBlock,
        RegionConfig::Slr,
        RegionConfig::Treegion,
    ];
    speedup_rows(
        suite,
        machine,
        &mut t,
        &configs,
        Heuristic::DependenceHeight,
    );
    t
}

/// Figure 8: all four treegion heuristics on the given machine.
pub fn fig8(suite: &Suite, machine: &MachineModel) -> Table {
    let mut t = Table::new(
        format!("Figure 8: treegion scheduling heuristics ({machine})"),
        vec![
            "program",
            "dep-height",
            "exit-count",
            "global-weight",
            "weighted-count",
        ],
    );
    let configs: Vec<EvalConfig> = Heuristic::ALL
        .into_iter()
        .map(|h| EvalConfig::new(RegionConfig::Treegion, h))
        .collect();
    fill_speedup_rows(suite, machine, &mut t, &configs);
    t
}

/// Figure 13: global-weight scheduling of tail-duplicated treegions
/// (dominator parallelism on) versus superblocks, on the given machine.
pub fn fig13(suite: &Suite, machine: &MachineModel) -> Table {
    let mut t = Table::new(
        format!("Figure 13: global-weight tail-duplicated treegions ({machine})"),
        vec!["program", "sb", "tree(2.0)", "tree(3.0)"],
    );
    let configs = [
        RegionConfig::Superblock,
        RegionConfig::TreegionTd(TailDupLimits::expansion_2_0()),
        RegionConfig::TreegionTd(TailDupLimits::expansion_3_0()),
    ];
    speedup_rows(suite, machine, &mut t, &configs, Heuristic::GlobalWeight);
    t
}

/// The register files of the pressure ablation: unbounded, then the two
/// finite GPR files the EXPERIMENTS table sweeps.
const ABLATION_FILES: [Option<u32>; 3] = [None, Some(64), Some(32)];

/// The modules of the pressure experiments: the paper suite plus the
/// dedicated `pressure` stressor (wide dataflow under deep speculation),
/// which is the workload whose best region scheme flips when the file
/// shrinks to 32 registers.
fn pressure_modules(suite: &Suite) -> Vec<Module> {
    let mut ms: Vec<Module> = suite.modules.clone();
    ms.push(generate(&BenchmarkSpec::pressure()));
    ms
}

/// The cells of `module` under `config` on `machine` under each GPR file
/// of `files` from one sweep, panicking with the first failed cell's
/// error.
fn sweep(
    module: &Module,
    config: &EvalConfig,
    machine: &MachineModel,
    files: &[Option<u32>],
    cache: &FormationCache,
) -> Vec<crate::CellValue> {
    sweep_cached(module, config, machine, files, cache)
        .into_iter()
        .map(expect_cell)
        .collect()
}

/// Pressure ablation: speedup over the 1U/basic-block/unbounded baseline
/// for basic-block vs treegion scheduling (global-weight) as the GPR
/// file shrinks from unbounded through 64 to 32 registers, plus the
/// winning region scheme at each end of the sweep.
pub fn pressure_ablation(suite: &Suite, machine: &MachineModel) -> Table {
    let mut t = Table::new(
        format!("Pressure ablation ({machine}): speedup by GPR file"),
        vec![
            "program", "bb ∞", "tree ∞", "bb 64", "tree 64", "bb 32", "tree 32", "best ∞",
            "best 32",
        ],
    );
    let schemes = [RegionConfig::BasicBlock, RegionConfig::Treegion];
    let modules = pressure_modules(suite);
    let cache = suite.cache();
    // One sweep per (module, scheme) fills all three files.
    let sweeps: Vec<(usize, usize)> = (0..modules.len())
        .flat_map(|i| (0..schemes.len()).map(move |k| (i, k)))
        .collect();
    let speedups = treegion_par::par_map(&sweeps, |&(i, k)| {
        let cfg = EvalConfig::new(schemes[k], Heuristic::GlobalWeight);
        let base = baseline_time_cached(&modules[i], cache);
        sweep(&modules[i], &cfg, machine, &ABLATION_FILES, cache)
            .into_iter()
            .map(|c| base / c.time)
            .collect::<Vec<f64>>()
    });
    let best = |bb: f64, tree: f64| if tree >= bb { "tree" } else { "bb" };
    for (i, m) in modules.iter().enumerate() {
        // Columns: each file, bb then tree.
        let v: Vec<f64> = (0..ABLATION_FILES.len())
            .flat_map(|f| (0..schemes.len()).map(move |k| (f, k)))
            .map(|(f, k)| speedups[i * schemes.len() + k][f])
            .collect();
        let mut row = vec![m.name().to_string()];
        row.extend(v.iter().map(|&s| f3(s)));
        row.push(best(v[0], v[1]).into());
        row.push(best(v[4], v[5]).into());
        t.row(row);
    }
    t
}

/// Pressure statistics: peak live GPRs, ceiling parks, inserted spills
/// and regions degraded below their primary shape for
/// treegion/global-weight scheduling, unbounded vs a 32-register GPR
/// file — the max-pressure and spill-count columns.
pub fn pressure_table(suite: &Suite, machine: &MachineModel) -> Table {
    let mut t = Table::new(
        format!("Pressure statistics ({machine}, treegions)"),
        vec![
            "program",
            "GPR peak ∞",
            "GPR peak 32",
            "parks 32",
            "spills 32",
            "degraded 32",
        ],
    );
    let modules = pressure_modules(suite);
    let cache = suite.cache();
    let cfg = EvalConfig::new(RegionConfig::Treegion, Heuristic::GlobalWeight);
    let stats: Vec<_> = treegion_par::par_map(&modules, |m| {
        let cells = sweep(m, &cfg, machine, &[None, Some(32)], cache);
        (cells[0].stats, cells[1].stats)
    });
    for (m, (unb, fin)) in modules.iter().zip(stats) {
        t.row(vec![
            m.name().into(),
            unb.peak.to_string(),
            fin.peak.to_string(),
            fin.parks.to_string(),
            fin.spills.to_string(),
            fin.degraded.to_string(),
        ]);
    }
    t
}

/// Renders one evaluation cell by canonical name (see
/// [`crate::CELL_NAMES`]) — the single dispatch behind `tgc eval`, whose
/// contained runner renders every cell through it.
///
/// # Panics
///
/// Panics on an unknown cell name (the runner validates names up front).
pub fn render_cell(suite: &Suite, name: &str) -> String {
    let m4 = MachineModel::model_4u;
    let m8 = MachineModel::model_8u;
    match name {
        "table1" => table1(suite).render(),
        "table2" => table2(suite).render(),
        "table3" => table3(suite).render(),
        "table4" => table4(suite).render(),
        "fig6@4u" => fig6(suite, &m4()).render(),
        "fig6@8u" => fig6(suite, &m8()).render(),
        "fig8@4u" => fig8(suite, &m4()).render(),
        "fig8@8u" => fig8(suite, &m8()).render(),
        "fig13@4u" => fig13(suite, &m4()).render(),
        "fig13@8u" => fig13(suite, &m8()).render(),
        "pressure@1u" => pressure_ablation(suite, &MachineModel::model_1u()).render(),
        "pressure@4u" => pressure_ablation(suite, &m4()).render(),
        "pressure@4u-asym" => pressure_ablation(suite, &MachineModel::model_4u_asym()).render(),
        "pressure@8u" => pressure_ablation(suite, &m8()).render(),
        "pressure-stats@4u" => pressure_table(suite, &m4()).render(),
        other => panic!("unknown evaluation cell `{other}`"),
    }
}

fn speedup_rows(
    suite: &Suite,
    machine: &MachineModel,
    t: &mut Table,
    configs: &[RegionConfig],
    heuristic: Heuristic,
) {
    let configs: Vec<EvalConfig> = configs
        .iter()
        .map(|c| EvalConfig::new(*c, heuristic))
        .collect();
    fill_speedup_rows(suite, machine, t, &configs);
}

/// Fans every `(module, config)` speedup cell out across the worker
/// budget, then assembles rows and column averages in the original serial
/// order — the rendered table is byte-identical at any `--jobs` setting.
fn fill_speedup_rows(suite: &Suite, machine: &MachineModel, t: &mut Table, configs: &[EvalConfig]) {
    let cells: Vec<(usize, usize)> = (0..suite.modules.len())
        .flat_map(|i| (0..configs.len()).map(move |k| (i, k)))
        .collect();
    let values = treegion_par::par_map(&cells, |&(i, k)| suite.speedup(i, &configs[k], machine));
    let mut sums = vec![0.0f64; configs.len()];
    for (i, m) in suite.modules.iter().enumerate() {
        let mut row = vec![m.name().to_string()];
        for (k, _) in configs.iter().enumerate() {
            let s = values[i * configs.len() + k];
            sums[k] += s;
            row.push(f3(s));
        }
        t.row(row);
    }
    average_row(t, &sums, suite.modules.len());
}

fn average_row(t: &mut Table, sums: &[f64], n: usize) {
    let mut cells = vec!["average".to_string()];
    for s in sums {
        cells.push(f3(s / n as f64));
    }
    t.row(cells);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_produces_all_tables() {
        let suite = Suite::load_small(1); // compress only: fast
        let m4 = MachineModel::model_4u();
        for table in [
            table1(&suite),
            table2(&suite),
            table3(&suite),
            table4(&suite),
            fig6(&suite, &m4),
            fig8(&suite, &m4),
            fig13(&suite, &m4),
        ] {
            let text = table.render();
            assert!(text.contains("compress"), "{text}");
            assert!(!table.rows.is_empty());
        }
    }

    #[test]
    fn fig8_forms_treegions_exactly_once_per_module() {
        let suite = Suite::load_small(1);
        let m4 = MachineModel::model_4u();
        // Loading schedules nothing: no formation yet.
        let s0 = suite.cache_stats();
        assert_eq!(s0.formation.misses, 0, "{s0:?}");

        // Figure 8 sweeps all four heuristics over treegions: the
        // treegion formation must be computed exactly once and then hit
        // three times (heuristics share formation artifacts); its cells
        // compute the 1U baseline once, the one bb formation.
        let _ = fig8(&suite, &m4);
        let s1 = suite.cache_stats();
        assert_eq!(s1.formation.misses, 2, "{s1:?}");
        assert_eq!(s1.formation.hits - s0.formation.hits, 3, "{s1:?}");

        // Four heuristic cells and one baseline computed; the other
        // three speedup cells read that baseline.
        assert_eq!((s1.time.misses, s1.time.hits), (5, 3), "{s1:?}");

        // Regenerating the figure hits the per-cell time layer: no new
        // formation work at all, and each of the four speedup cells
        // reads its heuristic's cell and the baseline.
        let _ = fig8(&suite, &m4);
        let s2 = suite.cache_stats();
        assert_eq!(s2.formation.misses, 2, "{s2:?}");
        assert_eq!(s2.time.hits - s1.time.hits, 8, "{s2:?}");
    }

    #[test]
    fn loading_schedules_nothing() {
        let s = Suite::load().cache_stats();
        assert_eq!((s.formation.misses, s.time.misses), (0, 0), "{s:?}");
    }

    #[test]
    fn uncached_suite_recomputes_but_matches() {
        let cached = Suite::load_small(1);
        let uncached = Suite::load_small_uncached(1);
        assert!(cached.cache().is_enabled());
        assert!(!uncached.cache().is_enabled());
        assert_eq!(cached.baseline(0), uncached.baseline(0));
        let t_on = table1(&cached).render();
        let t_off = table1(&uncached).render();
        assert_eq!(t_on, t_off);
        // The disabled cache records only misses.
        assert_eq!(uncached.cache_stats().formation.hits, 0);
    }

    #[test]
    fn pressure_ablation_flips_the_best_scheme_on_the_stressor() {
        // The headline acceptance row: on the wide machine the treegion's
        // deep speculation wins with unbounded renaming registers, but at
        // a 32-register file its inflated liveness costs spills until
        // basic blocks win. An empty base suite keeps the cell fast — the
        // stressor module is appended by the generator itself.
        let suite = Suite::load_small(0);
        let t = pressure_ablation(&suite, &MachineModel::model_8u());
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == "pressure")
            .expect("stressor row present");
        assert_eq!(row[7], "tree", "unbounded best scheme: {row:?}");
        assert_eq!(row[8], "bb", "32-reg best scheme: {row:?}");
    }

    #[test]
    fn pressure_table_reports_spills_under_a_finite_file() {
        let suite = Suite::load_small(0);
        let t = pressure_table(&suite, &MachineModel::model_8u());
        let row = &t.rows[0];
        assert_eq!(row[0], "pressure");
        let peak_unbounded: u32 = row[1].parse().unwrap();
        let peak_finite: u32 = row[2].parse().unwrap();
        assert!(
            peak_unbounded > 32,
            "stressor must actually stress: {row:?}"
        );
        assert!(peak_finite <= peak_unbounded, "{row:?}");
        let spills: u64 = row[4].parse().unwrap();
        assert!(spills > 0, "{row:?}");
    }

    #[test]
    fn fig6_speedups_exceed_one_on_4u() {
        let suite = Suite::load_small(1);
        let t = fig6(&suite, &MachineModel::model_4u());
        // All speedups over the 1U baseline should exceed 1 on a 4-issue
        // machine, for every region type.
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!(v > 1.0, "{} {:?}", t.title, row);
            }
        }
    }
}
