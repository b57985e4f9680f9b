//! End-to-end benchmark of the treegion workspace: the paper evaluation
//! plus cold and warm serving, with a traced run per layer.
//!
//! ```text
//! perfbench --workload eval|serve_cold --seed N --seconds S
//!           --trace 0|1 --tgc PATH/TO/tgc --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and `tgc`, then runs it. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). See `perfbench/README.md`.

mod eval;
mod inputs;
mod layers;
mod loadgen;
mod metrics;
mod phases;
mod serve;
mod server;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phases should take in total, seconds.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// The `tgc` binary the serve workloads start.
    pub tgc: PathBuf,
    /// This run's scratch directory (caches), removed at the end.
    pub work: PathBuf,
    /// Where the trace JSON goes.
    pub work_root: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload eval|serve_cold --seed N \
                     --seconds S --trace 0|1 --tgc PATH --work-dir DIR";

/// Prints a progress line on stderr, stamped with seconds since start.
pub fn note(msg: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64();
    eprintln!("perfbench [{t:7.2}s] {msg}");
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        flags.insert(flag, value);
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing {k}\n{USAGE}"));
    let number = |k: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {k} `{v}`"));
    let workload = take("--workload")?;
    let seed = number("--seed", take("--seed")?)?;
    let seconds = number("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    let tgc = PathBuf::from(take("--tgc")?);
    let work_root = PathBuf::from(take("--work-dir")?);
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}\n{USAGE}"));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let work = work_root.join(format!("{workload}-s{seed}-p{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        tgc,
        work,
        work_root,
    })
}

fn run() -> Result<String, String> {
    note("start");
    let args = parse_args(std::env::args().skip(1))?;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let trace = args.trace.then(trace::Trace::new);
    let mut report = metrics::Report::default();
    let result = match args.workload.as_str() {
        "eval" => eval::run(&mut report, trace.as_ref()),
        "serve_cold" => serve::run(&args, &mut report, trace.as_ref()),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    result?;
    if let Some(t) = &trace {
        let path = args
            .work_root
            .join(format!("trace-{}-s{}.json", args.workload, args.seed));
        std::fs::write(&path, t.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: {} spans written to {}", t.len(), path.display());
    }
    report.render(args.trace)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
