//! # treegion-eval
//!
//! Experiment harness for the treegion reproduction: region statistics,
//! code expansion, the paper's analytic execution-time estimator
//! (profile count × schedule height), speedups over the 1U basic-block
//! baseline, and table/figure generators matching the paper's evaluation
//! (see DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers).
//!
//! `tgc eval` renders every table and figure (`--only table1,fig6@8u`
//! for a subset); see [`run_harness`] and [`CELL_NAMES`].
//!
//! ## Example
//!
//! ```no_run
//! use treegion_eval::{fig8, Suite};
//! use treegion_machine::MachineModel;
//!
//! let suite = Suite::load();
//! println!("{}", fig8(&suite, &MachineModel::model_4u()).render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod checkpoint;
mod config;
mod diskcache;
mod dynamic;
mod harness;
mod pipeline;
mod records;
mod report;
mod runner;
mod shardcache;
mod stats;
mod variation;

pub use cache::{
    CacheStats, CellValue, FormationCache, FunctionFormation, LayerStats, ModuleFormation,
};
pub use checkpoint::{
    cell_path, fnv1a, git_rev, sanitize, CellRecord, CellStatus, ManifestRecovery, RunManifest,
    MANIFEST_FILE,
};
pub use config::{EvalConfig, RegionConfig};
pub use diskcache::{result_key, DiskCache, DiskRecovery, DiskStats};
pub use dynamic::{validate_dynamic, DynamicReport};
pub use harness::{
    fig13, fig6, fig8, pressure_ablation, pressure_table, render_cell, table1, table2, table3,
    table4, Suite,
};
pub use pipeline::{
    baseline_time, baseline_time_cached, cell_cached, form_function, program_time,
    program_time_cached, program_time_robust, speedup, speedup_with_baseline, sweep_cached,
    RobustModuleReport,
};
pub use records::{
    check as check_record, escape as escape_record, recover as recover_records,
    seal as seal_record, unescape as unescape_record, LineCheck, Recovery,
};
pub use report::{containment_table, degradation_table, f2, f3, Table};
pub use runner::{
    parse_fault_spec, run_harness, CellFault, CellFaultKind, CellResult, HarnessOptions,
    HarnessReport, CELL_NAMES,
};
pub use shardcache::{shard_path, ShardedDiskCache};
pub use stats::{
    pressure_stats_cached, region_stats, region_stats_cached, PressureStats, RegionStats,
};
pub use variation::{perturb_profile, variation_speedups, variation_table};
