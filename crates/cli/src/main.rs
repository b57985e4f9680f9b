//! `tgc` — the treegion compiler driver.
//!
//! ```text
//! tgc print    FILE.tir                       parse, verify, pretty-print
//! tgc regions  FILE.tir [--kind K]            show the region partition
//! tgc schedule FILE.tir [--kind K] [--machine M] [--heuristic H] [--dompar]
//!              [--verify V] [--fallback F] [--fault-seed N] [--jobs N]
//!              [--profile]
//! tgc run      FILE.tir [--kind K] [--machine M] [--heuristic H] [--fuel N]
//!              [--verify V] [--fallback F] [--fault-seed N] [--jobs N]
//! tgc eval     [--small N] [--checkpoint DIR] [--resume MANIFEST]
//!              [--only CELLS] [--retries N] [--backoff-ms N]
//!              [--cell-deadline-ms N] [--fault-seed N]
//!              [--fault-cell CELL=KIND] [--quarantine DIR]
//!              [--no-quarantine] [--jobs N]
//! tgc gen      BENCH                          emit a synthetic benchmark
//! tgc shape    NAME                           emit a paper figure shape
//! tgc serve    [--addr A] [--cache FILE] [--cache-shards N]
//!              [--quarantine DIR] [--queue-max N] [--pipeline-depth N]
//!              [--deadline-ms N] [--retry-after-ms N] [--jobs N]
//!                                             scheduler-as-a-service daemon
//! tgc client   FILE --addr A [--op compile|stats|ping|shutdown]
//!              [--kind K] [--machine M] [--heuristic H] [--deadline-ms N]
//!              [--shed-retries N] [--seed N]
//! tgc loadgen  --addr A [--connections N] [--pipeline N]
//!              [--duration-ms N] [--seed N] [--reconnect]
//!                                             sustained-throughput harness
//! ```
//!
//! Kinds: `bb`, `slr`, `sb`, `tree` (default), `tree-td[:LIMIT]`.
//! Machines: `1u`, `4u` (default), `8u`, or a bare issue width.
//! Heuristics: `dep-height`, `exit-count`, `global-weight` (default),
//! `weighted-count`. Benchmarks: the SPECint95 suite names. Shapes:
//! `fig1`, `biased`, `wide`, `linearized`.
//!
//! Robustness: `--verify off|warn|strict` controls post-scheduling
//! verification, `--fallback none|slr|bb` bounds the degradation chain,
//! `--fault-seed N` injects deterministic scheduler faults, and
//! `--panic-region N` injects a panic while scheduling region `N` so the
//! containment path can be exercised end to end.
//!
//! `tgc eval` runs the paper's evaluation harness crash-isolated: each
//! cell is contained (panics caught, optional per-cell deadline), failed
//! cells retry with backoff and are quarantined when exhausted, and
//! `--checkpoint`/`--resume` make runs resumable (see DESIGN.md §9).
//!
//! `tgc serve` is the fault-tolerant scheduler-as-a-service daemon
//! (DESIGN.md §12): batches of modules over length-prefixed TCP, per
//! request containment and deadlines, quarantine of repeat offenders,
//! bounded admission with load shedding, and a crash-recoverable disk
//! cache. `tgc client` is the matching one-shot client.
//!
//! Exit codes: `0` clean; `2` the pipeline degraded but produced a
//! correct, verified result (client: some modules shed, retryable);
//! `3` contained failures occurred (a panic or deadline trip was
//! isolated — quarantined cells, a region rescued from a crash by the
//! fallback chain, or serve modules answered with structured errors);
//! `1` hard failure; `4` serve-daemon fatal (bind/listener death).
//!
//! Parallelism: `--jobs N` sets the worker-thread count for
//! region-parallel scheduling (default: the `TGC_JOBS` environment
//! variable, then the machine's available parallelism). `--jobs 1` is
//! the strictly serial reproducibility mode; any `N` produces
//! byte-identical output.

mod args;

use args::{parse_args, Options};
use std::process::ExitCode;
use treegion::{
    render_schedule, Budgets, ContainmentEvent, DegradationEvent, FaultPlan, NullObserver,
    PassObserver, Pipeline, Profiler, RegionFormer, RetryPolicy, RobustOptions, ScheduleOptions,
};
use treegion_ir::{parse_module, print_function, print_module, verify_function, Module};
use treegion_sim::{interpret, State, VliwProgram};

/// What a successful invocation survived — drives the exit-code contract
/// (see `EXIT CODES` in [`USAGE`] and DESIGN.md §9).
#[derive(Debug, Default)]
struct RunStatus {
    /// Verifier-gated degradations (fallback rungs taken, budget trips).
    degraded: Vec<DegradationEvent>,
    /// Contained incidents (cell retries/recoveries/quarantines).
    contained: Vec<ContainmentEvent>,
    /// Whether a contained *failure* remains in the output: a quarantined
    /// harness cell, a region rescued from a panic/deadline crash, or a
    /// serve-batch module answered with a structured error.
    contained_failure: bool,
    /// Modules shed by serve-side admission control (client mode):
    /// retryable, so they degrade the run rather than failing it.
    shed: usize,
}

/// A failed invocation: the message plus the exit code it maps to.
/// `From<String>` keeps the plain-error call sites unchanged (code 1);
/// the serve daemon wraps its fatal errors with code 4 so supervisors
/// can tell "service died" from "bad invocation".
#[derive(Debug)]
struct Failure {
    msg: String,
    code: u8,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { msg, code: 1 }
    }
}

/// Exit code for daemon-fatal serve errors (bind failure, listener
/// death, unrecoverable cache corruption at checkpoint).
const EXIT_SERVE_FATAL: u8 = 4;

fn serve_fatal(msg: String) -> Failure {
    Failure {
        msg,
        code: EXIT_SERVE_FATAL,
    }
}

impl RunStatus {
    fn clean() -> Self {
        RunStatus::default()
    }

    /// Classifies a robust scheduling run: crash-class causes (panic,
    /// deadline) count as contained failures, everything else as plain
    /// degradation.
    fn from_degraded(degraded: Vec<DegradationEvent>) -> Self {
        let contained_failure = degraded.iter().any(|e| e.cause.is_containment());
        RunStatus {
            degraded,
            contained: Vec::new(),
            contained_failure,
            shed: 0,
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        eprint!("{}", USAGE);
        return ExitCode::SUCCESS;
    }
    match run(&argv) {
        Ok(status) => {
            for e in &status.degraded {
                eprintln!("tgc: degraded: {e}");
            }
            for e in &status.contained {
                eprintln!("tgc: contained: {e}");
            }
            if status.shed > 0 {
                eprintln!(
                    "tgc: {} module(s) shed by the server; retry later",
                    status.shed
                );
            }
            if status.contained_failure {
                eprintln!(
                    "tgc: contained failure(s) present ({} degradation, {} containment event(s))",
                    status.degraded.len(),
                    status.contained.len()
                );
                ExitCode::from(3)
            } else if !status.degraded.is_empty() || !status.contained.is_empty() || status.shed > 0
            {
                eprintln!(
                    "tgc: pipeline degraded ({} event(s))",
                    status.degraded.len() + status.contained.len() + status.shed
                );
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(f) => {
            eprintln!("tgc: {}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

const USAGE: &str = "\
tgc — treegion compiler driver

USAGE:
  tgc print    FILE.tir
  tgc regions  FILE.tir [--kind bb|slr|sb|tree|tree-td[:LIMIT]]
  tgc schedule FILE.tir [--kind K] [--machine 1u|4u|8u|4u-asym|WIDTH]
               [--heuristic dep-height|exit-count|global-weight|weighted-count]
               [--dompar] [--verify off|warn|strict] [--fallback none|slr|bb]
               [--fault-seed N] [--jobs N]
  tgc run      FILE.tir [--kind K] [--machine M] [--heuristic H] [--fuel N]
               [--verify V] [--fallback F] [--fault-seed N] [--jobs N]
  tgc eval     [--small N] [--checkpoint DIR] [--resume MANIFEST]
               [--only CELLS] [--retries N] [--backoff-ms N]
               [--cell-deadline-ms N] [--fault-seed N]
               [--fault-cell CELL=panic|hang:MS|fail[:TRIPS]]
               [--quarantine DIR] [--no-quarantine] [--jobs N]
               [--chaos-seed N] [--chaos-plan SPEC]
  tgc gen      compress|gcc|go|ijpeg|li|m88ksim|perl|vortex
  tgc shape    fig1|biased|wide|linearized
  tgc serve    [--addr HOST:PORT] [--cache FILE] [--cache-shards N]
               [--quarantine DIR] [--no-quarantine] [--queue-max N]
               [--pipeline-depth N] [--deadline-ms N] [--retry-after-ms N]
               [--jobs N] [--read-timeout-ms N] [--write-timeout-ms N]
               [--idle-timeout-ms N] [--chaos-seed N] [--chaos-plan SPEC]
  tgc client   FILE --addr HOST:PORT [--op compile|stats|ping|shutdown]
               [--kind K] [--machine M] [--heuristic H] [--dompar]
               [--deadline-ms N] [--shed-retries N] [--seed N]
  tgc loadgen  --addr HOST:PORT [--connections N] [--pipeline N]
               [--duration-ms N] [--seed N] [--batch-modules N] [--pool N]
               [--reconnect]

PARALLELISM:
  --jobs N   worker threads for region-parallel scheduling (default:
             TGC_JOBS env var, then available hardware parallelism;
             --jobs 1 = strictly serial; output is identical at any N)

CONTAINMENT (schedule|run):
  --panic-region N   inject a panic while scheduling region N; the crash
                     is contained and the fallback chain takes over

EVAL:
  crash-isolated harness over 15 cells: the paper's ten (table1 table2
  fig6@4u fig6@8u fig8@4u fig8@8u table3 table4 fig13@4u fig13@8u) and
  the register-pressure ablation (pressure@1u pressure@4u
  pressure@4u-asym pressure@8u pressure-stats@4u);
  failed cells retry with exponential backoff, exhausted cells are
  quarantined (default testdata/quarantine), --checkpoint/--resume
  skip already-finished cells

SERVE:
  long-lived scheduler-as-a-service daemon (DESIGN.md §12, §15): batches
  of tir modules over length-prefixed TCP with keep-alive pipelining
  (seq-tagged batches answered FIFO while the next batch is read;
  `close` ends one connection gracefully), per-request catch_unwind
  containment with soft deadlines and watchdog escalation, FNV-deduped
  quarantine of repeat offenders, bounded admission with deterministic
  load shedding, and a checksummed crash-recoverable disk cache striped
  across --cache-shards lock-striped files (--cache names the base
  path); `tgc client FILE` submits a batch (modules separated by `---`
  lines; `!fault-seed N`, `!panic-region N`, `!panic-hard` poison the
  module that follows), resubmits shed modules up to --shed-retries
  times honoring the retry-after hint (seeded jitter via --seed),
  --op stats|ping|shutdown for control

LOADGEN:
  seeded open-loop load harness against a running daemon: --connections
  keep-alive connections each pipelining --pipeline batches for
  --duration-ms, workload drawn deterministically from the generator
  suite (--seed, --batch-modules, --pool); prints sustained req/s and
  p50/p90/p99/p999 latency from a fixed-bucket log-scale histogram;
  --reconnect opens a fresh connection per batch (the pre-pipelining
  baseline, for apples-to-apples comparisons)

CHAOS (eval|serve):
  --chaos-seed N     arm the deterministic I/O fault layer with seed N
                     (plan defaults to `record`: journal durable ops,
                     inject nothing)
  --chaos-plan SPEC  record | err-every:N | short-every:N | crash-at:N;
                     injected faults, short writes, and crash points are
                     a pure function of (plan, seed) — same seed, same
                     faults. Counters surface in serve `stats`
                     (chaos-ops, chaos-injected-errors, ...) and on
                     stderr after `tgc eval`.

EXIT CODES:
  0  success (client: every module scheduled, possibly after shed
     retries; loadgen: the run completed with FIFO replies intact)
  1  hard failure (bad input, unrecoverable scheduling error, divergence;
     loadgen: no batch completed, or replies broke sequence order)
  2  success with degradation (a region fell back or was kept unverified;
     client: modules still shed after the --shed-retries budget)
  3  contained failure(s): a panic/deadline was isolated (quarantined
     cell, a region rescued from a crash by the fallback chain, or a
     serve module answered with a structured error)
  4  serve-daemon fatal: the service itself could not start or died
     (bind failure, listener death) — distinct from per-request errors,
     which never take the daemon down
";

fn run(argv: &[String]) -> Result<RunStatus, Failure> {
    let opts = parse_args(argv).map_err(|e| Failure::from(e.to_string()))?;
    if let Some(jobs) = opts.jobs {
        treegion_par::set_jobs(jobs);
    }
    match opts.command.as_str() {
        "print" => cmd_print(&opts)
            .map(|()| RunStatus::clean())
            .map_err(Into::into),
        "regions" => cmd_regions(&opts)
            .map(|()| RunStatus::clean())
            .map_err(Into::into),
        "schedule" => cmd_schedule(&opts)
            .map(RunStatus::from_degraded)
            .map_err(Into::into),
        "run" => cmd_run(&opts)
            .map(RunStatus::from_degraded)
            .map_err(Into::into),
        "eval" => cmd_eval(&opts).map_err(Into::into),
        "gen" => cmd_gen(&opts)
            .map(|()| RunStatus::clean())
            .map_err(Into::into),
        "shape" => cmd_shape(&opts)
            .map(|()| RunStatus::clean())
            .map_err(Into::into),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts).map_err(Into::into),
        "client" => cmd_client(&opts).map_err(Into::into),
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

fn load_module(opts: &Options) -> Result<Module, String> {
    let path = opts
        .input
        .as_deref()
        .ok_or_else(|| "missing input file".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let module = parse_module(&text).map_err(|e| format!("{path}: {e}"))?;
    for f in module.functions() {
        verify_function(f).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(module)
}

/// Builds the robust-pipeline configuration from the parsed flags.
fn robust_options(opts: &Options) -> RobustOptions {
    RobustOptions {
        sched: ScheduleOptions {
            heuristic: opts.heuristic,
            dominator_parallelism: opts.dompar,
            ..Default::default()
        },
        verify: opts.verify,
        fallback: opts.fallback,
        budgets: Budgets::UNLIMITED,
        fault: opts.fault_seed.map(FaultPlan::from_seed),
        panic_on_region: opts.panic_region,
    }
}

fn cmd_print(opts: &Options) -> Result<(), String> {
    let module = load_module(opts)?;
    print!("{}", print_module(&module));
    Ok(())
}

fn cmd_regions(opts: &Options) -> Result<(), String> {
    let module = load_module(opts)?;
    for f in module.functions() {
        let formed = opts.kind.form(f);
        println!(
            "func @{} — {} regions:",
            formed.function.name(),
            formed.regions.len()
        );
        for (k, r) in formed.regions.regions().iter().enumerate() {
            let labels: Vec<String> = r
                .blocks()
                .iter()
                .map(|b| {
                    if formed.origin[b.index()] == *b {
                        b.to_string()
                    } else {
                        format!("{b}*")
                    }
                })
                .collect();
            println!(
                "  #{k} @ {}: [{}] — {} paths, weight {}",
                r.root(),
                labels.join(" "),
                r.path_count(),
                r.weight(&formed.function)
            );
        }
    }
    Ok(())
}

fn cmd_schedule(opts: &Options) -> Result<Vec<DegradationEvent>, String> {
    let module = load_module(opts)?;
    let pipeline = Pipeline::with_options(&opts.machine, robust_options(opts));
    let profiler = Profiler::new();
    let obs: &dyn PassObserver = if opts.profile {
        &profiler
    } else {
        &NullObserver
    };
    let mut total = 0.0;
    let mut functions = 0usize;
    let mut events = Vec::new();
    for f in module.functions() {
        let run = pipeline
            .run_function(f, &opts.kind, obs)
            .map_err(|e| e.to_string())?;
        functions += 1;
        println!("func @{}:", run.formed.function.name());
        for o in &run.result.outcomes {
            let t = o.estimated_time();
            total += t;
            println!(
                "-- region @ {} ({} blocks, {} ops, level {}, est. time {t}):",
                o.region.root(),
                o.region.num_blocks(),
                o.lowered.num_ops(),
                o.level,
            );
            println!(
                "{}",
                render_schedule(&o.lowered, &o.schedule, &opts.machine)
            );
        }
        events.extend(run.result.events);
    }
    println!("total estimated time: {total}");
    if opts.profile {
        print_profile(&profiler, functions, &opts.machine);
    }
    Ok(events)
}

/// `--profile`: per-stage wall-time breakdown of the scheduling pipeline,
/// sourced from the [`Profiler`] observer's [`PassObserver`] hooks — the
/// same stage brackets the driver fires on every run, not a separate
/// replay. Stages that never fired (e.g. `verify` under `--verify off`)
/// still print, with zero calls.
fn print_profile(profiler: &Profiler, functions: usize, machine: &treegion_machine::MachineModel) {
    let report = profiler.report();
    let total: u128 = profiler.total_nanos();
    let regions: usize = report
        .iter()
        .find(|p| p.stage == treegion::Stage::Formation)
        .map_or(0, |p| p.stats.regions);
    let ops: usize = report
        .iter()
        .find(|p| p.stage == treegion::Stage::Lowering)
        .map_or(0, |p| p.stats.ops);
    let row = |name: &str, nanos: u128, calls: Option<usize>| {
        let us = nanos as f64 / 1e3;
        let pct = 100.0 * nanos as f64 / (total as f64).max(1e-3);
        match calls {
            Some(c) => println!("  {name:<10} {us:>10.1} us  {pct:>5.1}%  ({c} call(s))"),
            None => println!("  {name:<10} {us:>10.1} us  {pct:>5.1}%"),
        }
    };
    println!("profile ({functions} function(s), {regions} region(s), {ops} lowered ops):");
    for p in &report {
        row(p.stage.name(), p.nanos, Some(p.calls));
    }
    row("total", total, None);
    // Hazard-automaton counters, sourced from the list-sched stage stats
    // (the scheduler publishes them through the same observer hooks).
    let sched_stats = report
        .iter()
        .find(|p| p.stage == treegion::Stage::ListSched)
        .map(|p| p.stats)
        .unwrap_or_default();
    println!(
        "  automaton  {} state(s), {} hazard hit(s), {} deferral park(s)",
        machine.hazard_automaton().state_count(),
        sched_stats.hazard_hits,
        sched_stats.deferral_parks,
    );
    // Register-file counters: peak combined pressure the accepted
    // schedules reached, ceiling parks, and spill ops inserted. The file
    // column shows the GPR cap when `--reg-file` bounds it.
    let file = match machine.reg_cap(treegion_ir::RegClass::Gpr) {
        Some(cap) => format!("{cap}"),
        None => "unbounded".into(),
    };
    println!(
        "  pressure   file {file}, peak {} reg(s), {} park(s), {} spill(s)",
        sched_stats.pressure_peak, sched_stats.pressure_parks, sched_stats.spills,
    );
    // The I/O chaos layer never arms for pure scheduling (no durable
    // I/O here); the row keeps the profile's key set identical across
    // subcommands so dashboards can scrape one shape.
    println!("  chaos      off (I/O fault layer; arm via eval|serve --chaos-seed)");
}

fn cmd_run(opts: &Options) -> Result<Vec<DegradationEvent>, String> {
    let module = load_module(opts)?;
    let ropts = robust_options(opts);
    let pipeline = Pipeline::with_options(&opts.machine, ropts.clone());
    let mut events = Vec::new();
    for f in module.functions() {
        let reference =
            interpret(f, State::new(), opts.fuel).map_err(|e| format!("{}: {e}", f.name()))?;
        let run = pipeline
            .run_function(f, &opts.kind, &NullObserver)
            .map_err(|e| e.to_string())?;
        let func = &run.formed.function;
        // Re-compile over the accepted partition: faults only perturb the
        // robust attempts above, so the executed program is the clean
        // schedule of whatever (possibly degraded) region shapes survived.
        let accepted = run.result.region_set();
        let prog = VliwProgram::compile(
            func,
            &accepted,
            &opts.machine,
            &ropts.sched,
            Some(&run.formed.origin),
        );
        let got = prog
            .execute(State::new(), opts.fuel)
            .map_err(|e| format!("{}: {e}", func.name()))?;
        if got.ret != reference.ret || got.state.mem != reference.state.mem {
            return Err(format!(
                "{}: schedule diverged from sequential semantics",
                func.name()
            ));
        }
        println!(
            "func @{}: ret {:?}, {} cycles on {}, {} region crossings, est. {} [OK]",
            func.name(),
            got.ret,
            got.cycles,
            opts.machine,
            got.region_trace.len(),
            prog.estimated_time(),
        );
        events.extend(run.result.events);
    }
    Ok(events)
}

/// Builds the armed chaos plan from `--chaos-seed` / `--chaos-plan`
/// (either flag arms it; plan defaults to `record`, seed to 0), or
/// `None` — the transparent pass-through — when neither is given.
fn chaos_from_opts(opts: &Options) -> Result<treegion_chaos::Chaos, String> {
    if opts.chaos_plan.is_none() && opts.chaos_seed.is_none() {
        return Ok(None);
    }
    let spec = opts.chaos_plan.as_deref().unwrap_or("record");
    let seed = opts.chaos_seed.unwrap_or(0);
    let plan = treegion_chaos::FaultPlan::parse(spec, seed)?;
    Ok(Some(std::sync::Arc::new(plan)))
}

/// One stderr line summarizing what the armed chaos layer did.
fn report_chaos(plan: &treegion_chaos::FaultPlan) {
    let s = plan.snapshot();
    eprintln!(
        "tgc: chaos {} seed={} ops={} injected-errors={} short-writes={} crashed={}",
        s.mode, s.seed, s.ops, s.injected_errors, s.short_writes, s.crashed
    );
}

/// `tgc eval`: the crash-isolated, resumable evaluation harness.
fn cmd_eval(opts: &Options) -> Result<RunStatus, String> {
    if opts.input.is_some() {
        return Err("eval takes no positional argument".into());
    }
    let chaos = chaos_from_opts(opts)?;
    let mut fault_cells = Vec::new();
    for spec in &opts.fault_cells {
        fault_cells.push(treegion_eval::parse_fault_spec(spec)?);
    }
    let default_retry = RetryPolicy::default();
    let hopts = treegion_eval::HarnessOptions {
        small: opts.small,
        checkpoint_dir: opts.checkpoint.clone().map(Into::into),
        resume: opts.resume.clone().map(Into::into),
        retry: RetryPolicy {
            max_attempts: opts.retries.unwrap_or(default_retry.max_attempts),
            base_backoff_ms: opts.backoff_ms.unwrap_or(default_retry.base_backoff_ms),
        },
        cell_deadline_ms: opts.cell_deadline_ms,
        fault_seed: opts.fault_seed,
        fault_cells,
        quarantine_dir: if opts.no_quarantine {
            None
        } else {
            Some(
                opts.quarantine
                    .clone()
                    .unwrap_or_else(|| "testdata/quarantine".into())
                    .into(),
            )
        },
        only: opts.only.clone(),
        chaos: chaos.clone(),
    };
    let report = match treegion_eval::run_harness(&hopts) {
        Ok(r) => r,
        Err(e) => {
            // The counters explain the failure when the chaos layer
            // injected it — report them before propagating.
            if let Some(plan) = &chaos {
                report_chaos(plan);
            }
            return Err(e);
        }
    };
    if let Some(plan) = &chaos {
        report_chaos(plan);
    }
    print!("{}", report.merged_output());
    if !report.events.is_empty() {
        print!(
            "{}",
            treegion_eval::containment_table(&report.events).render()
        );
    }
    eprintln!("tgc: {}", report.summary());
    for q in &report.quarantined {
        eprintln!("tgc: quarantined input written to {}", q.display());
    }
    if let Some(m) = &report.manifest_path {
        eprintln!("tgc: resume with `tgc eval --resume {}`", m.display());
    }
    Ok(RunStatus {
        degraded: Vec::new(),
        contained: report.events.clone(),
        contained_failure: report.has_contained_failures(),
        shed: 0,
    })
}

fn cmd_gen(opts: &Options) -> Result<(), String> {
    let name = opts
        .input
        .as_deref()
        .ok_or_else(|| "gen needs a benchmark name".to_string())?;
    let spec = treegion_workloads::spec_suite()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = treegion_workloads::generate(&spec);
    print!("{}", print_module(&module));
    Ok(())
}

fn cmd_shape(opts: &Options) -> Result<(), String> {
    use treegion_workloads::shapes;
    let name = opts
        .input
        .as_deref()
        .ok_or_else(|| "shape needs a name".to_string())?;
    let f = match name {
        "fig1" => shapes::figure1().0,
        "biased" => shapes::biased_treegion().0,
        "wide" => shapes::wide_shallow(8).0,
        "linearized" => shapes::linearized(6).0,
        other => return Err(format!("unknown shape `{other}`")),
    };
    print!("{}", print_function(&f));
    Ok(())
}

/// `tgc serve`: the fault-tolerant scheduler-as-a-service daemon
/// (DESIGN.md §12). Blocks until drained by a `shutdown` request.
/// Daemon-fatal errors exit with code 4 so a supervisor can tell a dead
/// service from a bad invocation.
fn cmd_serve(opts: &Options) -> Result<RunStatus, Failure> {
    if opts.input.is_some() {
        return Err("serve takes no positional argument".to_string().into());
    }
    let chaos = chaos_from_opts(opts).map_err(Failure::from)?;
    let defaults = treegion_serve::ServerConfig::default();
    let config = treegion_serve::ServerConfig {
        addr: opts.addr.clone().unwrap_or_else(|| "127.0.0.1:0".into()),
        engine: treegion_serve::EngineConfig {
            cache_path: opts.cache.clone().map(Into::into),
            quarantine_dir: if opts.no_quarantine {
                None
            } else {
                Some(
                    opts.quarantine
                        .clone()
                        .unwrap_or_else(|| "testdata/quarantine".into())
                        .into(),
                )
            },
            default_deadline_ms: opts.deadline_ms,
            chaos,
            // 0 defers to the engine default (8 lock-striped shards).
            cache_shards: opts.cache_shards.unwrap_or(0),
        },
        queue_max: opts.queue_max.unwrap_or(64),
        retry_after_ms: opts.retry_after_ms.unwrap_or(100),
        pipeline_depth: opts.pipeline_depth.unwrap_or(defaults.pipeline_depth),
        read_timeout_ms: opts.read_timeout_ms.unwrap_or(defaults.read_timeout_ms),
        write_timeout_ms: opts.write_timeout_ms.unwrap_or(defaults.write_timeout_ms),
        idle_timeout_ms: opts.idle_timeout_ms.unwrap_or(defaults.idle_timeout_ms),
    };
    let server = treegion_serve::Server::bind(&config).map_err(serve_fatal)?;
    let engine = server.engine();
    if let Some(r) = engine.recovery() {
        if r.compacted {
            eprintln!(
                "tgc serve: cache recovery replayed={} dropped={} torn-tail={} (compacted)",
                r.replayed, r.dropped, r.torn_tail
            );
        }
    }
    if engine.quarantined_count() > 0 {
        eprintln!(
            "tgc serve: quarantine ledger holds {} module(s)",
            engine.quarantined_count()
        );
    }
    // The scrape line for tests and supervisors: Rust's stdout is
    // line-buffered even when piped, so this is visible immediately.
    println!("listening on {}", server.local_addr().map_err(serve_fatal)?);
    server.run().map_err(serve_fatal)?;
    eprintln!("tgc serve: drained");
    Ok(RunStatus::clean())
}

/// `tgc loadgen`: the seeded open-loop load harness (DESIGN.md §15).
/// Drives a running daemon with keep-alive pipelined connections (or
/// `--reconnect` for the one-batch-per-connection baseline) and prints
/// sustained req/s plus the latency quantiles.
fn cmd_loadgen(opts: &Options) -> Result<RunStatus, String> {
    if opts.input.is_some() {
        return Err("loadgen takes no positional argument".into());
    }
    let addr = opts
        .addr
        .as_deref()
        .ok_or_else(|| "loadgen needs --addr HOST:PORT".to_string())?;
    let d = treegion_serve::LoadgenConfig::default();
    let config = treegion_serve::LoadgenConfig {
        addr: addr.into(),
        connections: opts.connections.unwrap_or(d.connections),
        pipeline_depth: opts.pipeline.unwrap_or(d.pipeline_depth),
        duration_ms: opts.duration_ms.unwrap_or(d.duration_ms),
        seed: opts.seed.unwrap_or(d.seed),
        batch_modules: opts.batch_modules.unwrap_or(d.batch_modules),
        pool: opts.pool.unwrap_or(d.pool),
        reconnect: opts.reconnect,
    };
    let report = treegion_serve::run_loadgen(&config)?;
    print!("{}", report.render());
    if report.seq_mismatches > 0 {
        return Err(format!(
            "{} replies broke FIFO sequence order",
            report.seq_mismatches
        ));
    }
    if report.conn_errors > 0 {
        eprintln!(
            "tgc loadgen: {} connection(s) died mid-run",
            report.conn_errors
        );
    }
    Ok(RunStatus::clean())
}

/// Splits a client batch file into its module sections (separated by
/// `---` lines, exactly as the server parses them) so a retry can
/// resubmit a subset. Poison `!`-lines stay attached to their section.
fn split_batch(text: &str) -> Vec<String> {
    let mut sections = vec![String::new()];
    for line in text.lines() {
        if line.trim() == "---" {
            sections.push(String::new());
        } else {
            let s = sections.last_mut().expect("sections never empty");
            s.push_str(line);
            s.push('\n');
        }
    }
    sections
}

/// `tgc client`: one-shot client for the serve protocol. `compile`
/// submits the positional file as a batch (modules separated by `---`
/// lines, `!`-lines poison the following module); `stats`, `ping`, and
/// `shutdown` are bodyless. Shed modules are resubmitted on the same
/// keep-alive connection up to `--shed-retries` times (default 2),
/// sleeping out the server's retry-after hint plus seeded jitter.
/// Exit codes: 0 all scheduled, 2 some modules still shed after the
/// retry budget, 3 structured per-module errors, 1 hard failure.
fn cmd_client(opts: &Options) -> Result<RunStatus, String> {
    use treegion_serve::{
        parse_response, read_frame, render_compile, render_simple, write_frame, BatchOptions,
        ResultStatus, Verb,
    };
    let addr = opts
        .addr
        .as_deref()
        .ok_or_else(|| "client needs --addr HOST:PORT".to_string())?;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // A wedged or crashed server must not hang the client forever. The
    // defaults are generous (a compile batch answers module by module,
    // so each frame arrives well within one budget); `read_frame` turns
    // a timeout into a hard error — for a client, silence IS failure.
    let read_ms = opts.read_timeout_ms.unwrap_or(30_000).max(1);
    let write_ms = opts.write_timeout_ms.unwrap_or(10_000).max(1);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(read_ms)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(write_ms)));
    let op = opts.op.as_deref().unwrap_or("compile");
    if op != "compile" {
        let verb = match op {
            "stats" => Verb::Stats,
            "ping" => Verb::Ping,
            "shutdown" => Verb::Shutdown,
            other => return Err(format!("unknown op `{other}`")),
        };
        write_frame(&mut stream, &render_simple(verb))?;
        let reply = read_frame(&mut stream)?.ok_or("server hung up")?;
        let frame = parse_response(&reply)?;
        if frame.kind == "error" {
            return Err(format!(
                "server rejected the request: {}",
                frame.key("reason").unwrap_or("")
            ));
        }
        if frame.body.is_empty() {
            println!("{}", frame.kind);
        } else {
            print!("{}", frame.body);
        }
        return Ok(RunStatus::clean());
    }
    let path = opts
        .input
        .as_deref()
        .ok_or_else(|| "client compile needs a batch file".to_string())?;
    let batch_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let options = BatchOptions {
        kind: opts.kind,
        machine: opts.machine.clone(),
        heuristic: opts.heuristic,
        dompar: opts.dompar,
        deadline_ms: opts.deadline_ms,
    };
    let sections = split_batch(&batch_text);
    // `pending` maps the next submission's index space back to the
    // original batch indices; the first round is the whole file.
    let mut pending: Vec<usize> = (0..sections.len()).collect();
    let retries = opts.shed_retries.unwrap_or(2);
    let mut rng = treegion_rng::StdRng::seed_from_u64(opts.seed.unwrap_or(0));
    let (mut ok, mut errors) = (0usize, 0usize);
    let mut attempt = 0u32;
    let shed = loop {
        // Rendering with no modules gives the option header; the
        // pending sections ride behind it as the batch body.
        let mut payload = render_compile(&options, &[]);
        payload.push_str(
            &pending
                .iter()
                .map(|&i| sections[i].as_str())
                .collect::<Vec<_>>()
                .join("---\n"),
        );
        write_frame(&mut stream, &payload)?;
        // (original index, retry hint) of this round's shed modules.
        let mut shed_now: Vec<(usize, u64)> = Vec::new();
        loop {
            let reply = read_frame(&mut stream)?.ok_or("server hung up mid-batch")?;
            let frame = parse_response(&reply)?;
            match frame.kind.as_str() {
                "batch-end" => break,
                "error" => {
                    return Err(format!(
                        "server rejected the batch: {}",
                        frame.key("reason").unwrap_or("")
                    ));
                }
                "result" => {
                    let local: usize = frame
                        .key("index")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("malformed result frame: {reply}"))?;
                    let index = *pending
                        .get(local)
                        .ok_or_else(|| format!("result index {local} out of range"))?;
                    match frame.status {
                        Some(ResultStatus::Ok) => {
                            ok += 1;
                            println!(
                                "-- module #{index} ok (cache {})",
                                frame.key("cache").unwrap_or("?")
                            );
                            print!("{}", frame.body);
                        }
                        Some(ResultStatus::Error) => {
                            errors += 1;
                            eprintln!(
                                "tgc client: module #{index} failed: cause={} quarantined={} {}",
                                frame.key("cause").unwrap_or("?"),
                                frame.key("quarantined").unwrap_or("?"),
                                frame.key("detail").unwrap_or(""),
                            );
                        }
                        Some(ResultStatus::Shed) => {
                            let hint = frame
                                .key("retry-after-ms")
                                .and_then(|v| v.parse().ok())
                                .unwrap_or(100u64);
                            eprintln!("tgc client: module #{index} shed; retry after {hint} ms");
                            shed_now.push((index, hint));
                        }
                        None => return Err(format!("malformed result frame: {reply}")),
                    }
                }
                other => return Err(format!("unexpected frame `{other}`")),
            }
        }
        if shed_now.is_empty() || attempt >= retries {
            break shed_now.len();
        }
        // Honor the server's backpressure hint: sleep out the largest
        // retry-after plus a little seeded jitter (decorrelates clients
        // that were shed together), then resubmit ONLY the shed modules
        // on the same keep-alive connection.
        attempt += 1;
        let hint = shed_now.iter().map(|&(_, h)| h).max().unwrap_or(100);
        let jitter = rng.gen_range(0..hint / 2 + 1);
        eprintln!(
            "tgc client: retrying {} shed module(s) after {} ms (attempt {attempt}/{retries})",
            shed_now.len(),
            hint + jitter
        );
        std::thread::sleep(std::time::Duration::from_millis(hint + jitter));
        pending = shed_now.into_iter().map(|(i, _)| i).collect();
    };
    eprintln!("tgc client: {ok} ok, {errors} failed, {shed} shed");
    Ok(RunStatus {
        degraded: Vec::new(),
        contained: Vec::new(),
        contained_failure: errors > 0,
        shed,
    })
}
