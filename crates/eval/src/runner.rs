//! Crash-isolated, resumable harness runs.
//!
//! [`run_harness`] executes the paper's ten evaluation cells (tables 1-4,
//! figures 6/8/13 at 4U and 8U) under a containment envelope:
//!
//! * **Panic containment** — each cell runs under `catch_unwind` (via
//!   [`treegion_par::par_map_isolated`] on the parallel path, or inside a
//!   watchdog thread on the deadline path). A panicking cell never takes
//!   the run down; the other cells complete.
//! * **Deadline watchdogs** — with [`HarnessOptions::cell_deadline_ms`]
//!   set, each cell runs on its own thread and the runner waits at most
//!   the deadline before declaring [`ContainmentCause::Deadline`]. The
//!   abandoned thread is detached, not killed: its result is discarded.
//! * **Retry with backoff** — failed cells are re-attempted up to
//!   [`RetryPolicy::attempts`] times with exponential backoff. Attempt 1
//!   uses the shared memoized [`Suite`]; attempts ≥ 2 rebuild a fresh
//!   *uncached* suite so a cell poisoned by shared state gets a clean
//!   slate (the cached and uncached suites render byte-identically, so
//!   recovery does not perturb results).
//! * **Quarantine** — a cell that exhausts its attempts is quarantined:
//!   a replay file, deduplicated by content digest, is written under
//!   [`HarnessOptions::quarantine_dir`].
//! * **Checkpointing** — with [`HarnessOptions::checkpoint_dir`] set, each
//!   completed cell's output and the run manifest are persisted as the
//!   run progresses; `--resume <manifest>` restores verified `done` cells
//!   and re-runs only the rest (see [`crate::checkpoint`]).
//!
//! Determinism contract: with no faults injected, the merged report of a
//! contained run is byte-identical to the plain harness at any job count,
//! with checkpointing on or off, and across a checkpoint/resume split.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::checkpoint::{cell_path, fnv1a, git_rev, CellRecord, CellStatus, RunManifest};
use crate::harness::{render_cell, Suite};
use treegion::{ContainmentAction, ContainmentCause, ContainmentEvent, RetryPolicy};
use treegion_par::TaskOutcome;

/// The canonical harness cells, in paper order (the order `tgc eval`
/// prints them). Checkpoint manifests and merged reports use this order.
pub const CELL_NAMES: [&str; 15] = [
    "table1",
    "table2",
    "fig6@4u",
    "fig6@8u",
    "fig8@4u",
    "fig8@8u",
    "table3",
    "table4",
    "fig13@4u",
    "fig13@8u",
    "pressure@1u",
    "pressure@4u",
    "pressure@4u-asym",
    "pressure@8u",
    "pressure-stats@4u",
];

/// What an injected cell fault does to an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellFaultKind {
    /// The cell panics.
    Panic,
    /// The cell sleeps for `sleep_ms` before computing — under a deadline
    /// watchdog shorter than the sleep this trips
    /// [`ContainmentCause::Deadline`]; without one it is merely slow.
    Hang {
        /// How long the cell sleeps, in milliseconds.
        sleep_ms: u64,
    },
    /// The cell returns a structured failure.
    Fail,
}

/// An injected fault on one harness cell — the poison-input simulator for
/// containment tests and the CI `containment-smoke` job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellFault {
    /// What the fault does.
    pub kind: CellFaultKind,
    /// How many attempts it affects: attempts `1..=trips` fail, later
    /// attempts run clean. `u32::MAX` (the parse default) poisons every
    /// attempt, driving the cell to quarantine.
    pub trips: u32,
}

/// Parses a `--fault-cell` spec: `CELL=panic[:TRIPS]`,
/// `CELL=hang:SLEEP_MS[:TRIPS]`, or `CELL=fail[:TRIPS]`.
///
/// # Errors
///
/// Returns a message naming the malformed part; unknown cell names are
/// rejected so a typo cannot silently inject nothing.
pub fn parse_fault_spec(spec: &str) -> Result<(String, CellFault), String> {
    let (cell, fault) = spec
        .split_once('=')
        .ok_or_else(|| format!("fault spec `{spec}` is missing `=` (want CELL=KIND)"))?;
    if !CELL_NAMES.contains(&cell) {
        return Err(format!(
            "unknown cell `{cell}` in fault spec (cells: {})",
            CELL_NAMES.join(", ")
        ));
    }
    let mut parts = fault.split(':');
    let kind = parts.next().unwrap_or("");
    let parse_u64 = |v: &str, what: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("bad {what} `{v}` in fault spec `{spec}`"))
    };
    let (kind, trips_part) = match kind {
        "panic" => (CellFaultKind::Panic, parts.next()),
        "fail" => (CellFaultKind::Fail, parts.next()),
        "hang" => {
            let ms = parts
                .next()
                .ok_or_else(|| format!("`hang` needs a sleep: `{cell}=hang:MS`"))?;
            (
                CellFaultKind::Hang {
                    sleep_ms: parse_u64(ms, "sleep")?,
                },
                parts.next(),
            )
        }
        other => return Err(format!("unknown fault kind `{other}` (panic|hang:MS|fail)")),
    };
    let trips = match trips_part {
        Some(v) => parse_u64(v, "trip count")? as u32,
        None => u32::MAX,
    };
    if parts.next().is_some() {
        return Err(format!("trailing garbage in fault spec `{spec}`"));
    }
    Ok((cell.to_string(), CellFault { kind, trips }))
}

/// Configuration of a contained harness run.
#[derive(Clone, Debug, Default)]
pub struct HarnessOptions {
    /// Run only the first `n` benchmarks (`None` = the full suite).
    pub small: Option<usize>,
    /// Persist per-cell outputs and a run manifest here.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from this manifest: verified `done` cells are restored,
    /// everything else re-runs.
    pub resume: Option<PathBuf>,
    /// Attempts and backoff per cell.
    pub retry: RetryPolicy,
    /// Per-cell wall-clock deadline. `None` (the default) disables the
    /// watchdog entirely — no timing enters the run.
    pub cell_deadline_ms: Option<u64>,
    /// Seed that picks one cell to panic (a reproducible poisoned run for
    /// CI smoke tests) — independent of [`HarnessOptions::fault_cells`].
    pub fault_seed: Option<u64>,
    /// Explicit per-cell fault injections.
    pub fault_cells: Vec<(String, CellFault)>,
    /// Where exhausted cells' replay files go (`None` = no quarantine
    /// files, failures are only reported).
    pub quarantine_dir: Option<PathBuf>,
    /// Restrict the run to these cells (empty = all 15).
    pub only: Vec<String>,
    /// Armed I/O chaos plan (`--chaos-seed`/`--chaos-plan`): journals
    /// and may perturb the run's durable writes (checkpoint cells, the
    /// manifest, quarantine files). `None` (the default) changes
    /// nothing.
    pub chaos: treegion_chaos::Chaos,
}

impl HarnessOptions {
    /// Fingerprint of the *result-determining* configuration: suite size
    /// and cell list. Fault knobs, retry policy, and deadlines are
    /// containment machinery, not result configuration — a poisoned run
    /// may be resumed with the faults removed and still merge cleanly.
    pub fn config_hash(&self, cells: &[String]) -> u64 {
        let key = format!(
            "tgc-eval v1|small={:?}|cells={}",
            self.small,
            cells.join(",")
        );
        fnv1a(key.as_bytes())
    }
}

/// Final state of one cell after a contained run.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Canonical cell name.
    pub name: String,
    /// `Done` or `Failed` ( `Pending` never escapes [`run_harness`]).
    pub status: CellStatus,
    /// Attempts consumed (0 when restored from a checkpoint).
    pub attempts: u32,
    /// Rendered output when `Done`.
    pub output: Option<String>,
    /// FNV-1a 64 digest of the output (0 when `Failed`).
    pub digest: u64,
    /// Whether the result was restored from a checkpoint instead of run.
    pub from_checkpoint: bool,
}

/// The outcome of [`run_harness`]: per-cell results in canonical order,
/// the containment events the run survived, and bookkeeping for tests and
/// the CLI exit-code contract.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Per-cell results, in canonical cell order.
    pub cells: Vec<CellResult>,
    /// Every contained incident, in cell order then attempt order.
    pub events: Vec<ContainmentEvent>,
    /// Cells actually executed by this invocation (≥ 1 attempt ran).
    pub executed: usize,
    /// Cells restored from the resume checkpoint without running.
    pub skipped: usize,
    /// Quarantine files written (deduplicated; pre-existing files are not
    /// re-listed).
    pub quarantined: Vec<PathBuf>,
    /// Path of the saved manifest, when checkpointing was on.
    pub manifest_path: Option<PathBuf>,
}

impl HarnessReport {
    /// The merged evaluation report: every `done` cell's output joined in
    /// canonical order. With no faults this is byte-identical to running
    /// the plain harness.
    pub fn merged_output(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            if let Some(text) = &c.output {
                out.push_str(text);
                out.push('\n');
            }
        }
        out
    }

    /// Whether any cell ultimately failed (drives CLI exit code 3).
    pub fn has_contained_failures(&self) -> bool {
        self.cells.iter().any(|c| c.status == CellStatus::Failed)
    }

    /// One-paragraph run summary for stderr.
    pub fn summary(&self) -> String {
        let done = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Done)
            .count();
        let failed = self.cells.len() - done;
        let attempts: u32 = self.cells.iter().map(|c| c.attempts).sum();
        format!(
            "eval: {} cells, {} done ({} restored), {} failed, {} attempts, {} containment events, {} quarantined",
            self.cells.len(),
            done,
            self.skipped,
            failed,
            attempts,
            self.events.len(),
            self.quarantined.len()
        )
    }
}

/// What one attempt of one cell produced.
type AttemptResult = Result<String, ContainmentCause>;

/// The cell body: applies any injected fault, then renders through the
/// shared [`render_cell`] dispatch. May panic (that is the point — the
/// layers above contain it).
fn cell_body(name: &str, suite: &Suite, fault: Option<CellFault>, attempt: u32) -> AttemptResult {
    if let Some(f) = fault {
        if attempt <= f.trips {
            match f.kind {
                CellFaultKind::Panic => {
                    panic!("injected panic in harness cell `{name}`");
                }
                CellFaultKind::Hang { sleep_ms } => {
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                }
                CellFaultKind::Fail => {
                    return Err(ContainmentCause::Failure {
                        message: format!("injected failure in harness cell `{name}`"),
                    });
                }
            }
        }
    }
    Ok(render_cell(suite, name))
}

/// Runs one attempt under the containment envelope. With a deadline the
/// body runs on a watchdog thread (`catch_unwind` inside, result over a
/// channel, `recv_timeout` outside). A thread that beats its deadline is
/// **joined** — it already sent its result, so the join is immediate and
/// the thread does not accumulate; only a timed-out thread is abandoned
/// (detached), since joining it would wait out the very hang the
/// watchdog just contained. Without a deadline the body runs in place
/// under `catch_unwind`.
fn run_attempt(
    name: &str,
    suite: &Suite,
    fault: Option<CellFault>,
    attempt: u32,
    deadline_ms: Option<u64>,
) -> AttemptResult {
    let contained = |suite: &Suite| -> AttemptResult {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell_body(name, suite, fault, attempt)
        }))
        .unwrap_or_else(|p| {
            Err(ContainmentCause::Panic {
                payload: treegion_par::panic_message(p.as_ref()),
            })
        })
    };
    match deadline_ms {
        None => contained(suite),
        Some(budget_ms) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let suite = suite.clone();
            let name = name.to_string();
            let handle = std::thread::spawn(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cell_body(&name, &suite, fault, attempt)
                }))
                .unwrap_or_else(|p| {
                    Err(ContainmentCause::Panic {
                        payload: treegion_par::panic_message(p.as_ref()),
                    })
                });
                let _ = tx.send(out);
            });
            match rx.recv_timeout(Duration::from_millis(budget_ms)) {
                Ok(res) => {
                    // The send already happened, so this join returns
                    // immediately; without it every on-time cell would
                    // leak one finished-but-unreaped thread.
                    let _ = handle.join();
                    res
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    // Abandon (detach) the hung thread: joining it would
                    // wait out the very stall the watchdog contained.
                    drop(handle);
                    Err(ContainmentCause::Deadline { budget_ms })
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    Err(ContainmentCause::Panic {
                        payload: "cell worker vanished without reporting".to_string(),
                    })
                }
            }
        }
    }
}

/// Writes a quarantine replay file for an exhausted cell, deduplicated by
/// content digest. Returns the path when a *new* file was written.
fn quarantine(
    dir: &Path,
    name: &str,
    cause: &ContainmentCause,
    attempts: u32,
    opts: &HarnessOptions,
) -> Result<Option<PathBuf>, String> {
    let mut body = String::new();
    body.push_str("tgc-quarantine v1\n");
    body.push_str(&format!("cell {name}\n"));
    body.push_str(&format!("cause {}\n", cause.label()));
    body.push_str(&format!("detail {}\n", cause.detail().replace('\n', " ")));
    body.push_str(&format!("attempts {attempts}\n"));
    if let Some(n) = opts.small {
        body.push_str(&format!("small {n}\n"));
    }
    body.push_str(&format!("replay tgc eval --only {name}\n"));
    let digest = fnv1a(body.as_bytes());
    let path = dir.join(format!("cell-{digest:016x}.txt"));
    if path.exists() {
        return Ok(None); // Deduplicated: this exact incident is on file.
    }
    treegion_chaos::shim::create_dir_all(dir, &opts.chaos, "eval.quarantine")
        .map_err(|e| format!("cannot create quarantine dir `{}`: {e}", dir.display()))?;
    treegion_chaos::shim::write_durable(&path, body.as_bytes(), &opts.chaos, "eval.quarantine")
        .map_err(|e| format!("cannot write quarantine file `{}`: {e}", path.display()))?;
    Ok(Some(path))
}

/// Resolves the cell list: canonical order, filtered by `only`.
fn resolve_cells(only: &[String]) -> Result<Vec<String>, String> {
    for name in only {
        if !CELL_NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown cell `{name}` (cells: {})",
                CELL_NAMES.join(", ")
            ));
        }
    }
    Ok(CELL_NAMES
        .iter()
        .filter(|n| only.is_empty() || only.iter().any(|o| o == *n))
        .map(|n| n.to_string())
        .collect())
}

/// The fault (if any) injected into a cell: explicit `fault_cells` first,
/// then the seeded pick (which poisons exactly one cell with an
/// every-attempt panic).
fn fault_for(name: &str, cells: &[String], opts: &HarnessOptions) -> Option<CellFault> {
    if let Some((_, f)) = opts.fault_cells.iter().find(|(c, _)| c == name) {
        return Some(*f);
    }
    if let Some(seed) = opts.fault_seed {
        let mut rng = treegion_rng::StdRng::seed_from_u64(seed);
        let victim = rng.pick_index(cells);
        if cells[victim] == name {
            return Some(CellFault {
                kind: CellFaultKind::Panic,
                trips: u32::MAX,
            });
        }
    }
    None
}

/// Runs the harness under the containment envelope. See the module docs
/// for the containment layers and the determinism contract.
///
/// # Errors
///
/// Hard errors only — unknown cell names, an unreadable/mismatched resume
/// manifest, or checkpoint I/O failures. Cell failures are *not* errors;
/// they are contained and reported in the [`HarnessReport`].
pub fn run_harness(opts: &HarnessOptions) -> Result<HarnessReport, String> {
    let cells = resolve_cells(&opts.only)?;
    let config_hash = opts.config_hash(&cells);

    // Restore from a resume manifest: verified `done` cells keep their
    // checkpointed output, everything else re-runs.
    let mut restored: Vec<Option<(String, u32)>> = vec![None; cells.len()];
    if let Some(manifest_path) = &opts.resume {
        // Recovering load: a torn or corrupted manifest tail (crash
        // mid-write) costs the damaged cells, not the whole resume.
        let (manifest, recovery) = RunManifest::load_recovering(manifest_path)?;
        if recovery.needed_repair() {
            eprintln!(
                "eval: resume manifest needed repair ({} line(s) dropped{}); lost cells will re-run",
                recovery.dropped,
                if recovery.torn_tail { ", torn tail" } else { "" }
            );
        }
        if manifest.config_hash != config_hash {
            return Err(format!(
                "resume refused: manifest config {:016x} != current config {:016x} \
                 (different suite size or cell list)",
                manifest.config_hash, config_hash
            ));
        }
        let dir = manifest_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        for (i, name) in cells.iter().enumerate() {
            let Some(rec) = manifest.cell(name) else {
                continue;
            };
            if rec.status != CellStatus::Done {
                continue;
            }
            // Trust nothing: the stored output must match its digest.
            if let Ok(text) = std::fs::read_to_string(cell_path(&dir, name)) {
                if fnv1a(text.as_bytes()) == rec.digest {
                    restored[i] = Some((text, rec.attempts));
                }
            }
        }
    }

    // Shared suite for first attempts (restored cells never touch it).
    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| restored[i].is_none())
        .collect();
    let suite = if pending.is_empty() {
        None
    } else {
        Some(match opts.small {
            Some(n) => Suite::load_small(n),
            None => Suite::load(),
        })
    };

    // First attempt of every pending cell. Without a deadline the cells
    // fan out through the panic-isolating parallel map; with one they run
    // sequentially, each under its own watchdog thread.
    let mut first: Vec<AttemptResult> = Vec::with_capacity(pending.len());
    if let Some(suite) = &suite {
        if opts.cell_deadline_ms.is_none() {
            let outcomes = treegion_par::par_map_isolated(
                &pending,
                |_, &i| cells[i].clone(),
                |&i| cell_body(&cells[i], suite, fault_for(&cells[i], &cells, opts), 1),
            );
            for out in outcomes {
                first.push(match out {
                    TaskOutcome::Done(res) => res,
                    TaskOutcome::Panicked { payload, .. } => {
                        Err(ContainmentCause::Panic { payload })
                    }
                });
            }
        } else {
            for &i in &pending {
                first.push(run_attempt(
                    &cells[i],
                    suite,
                    fault_for(&cells[i], &cells, opts),
                    1,
                    opts.cell_deadline_ms,
                ));
            }
        }
    }

    // Retry ladder + assembly, in canonical cell order.
    let mut report = HarnessReport {
        cells: Vec::with_capacity(cells.len()),
        events: Vec::new(),
        executed: 0,
        skipped: 0,
        quarantined: Vec::new(),
        manifest_path: None,
    };
    let max_attempts = opts.retry.attempts();
    let mut first_iter = first.into_iter();
    for (i, name) in cells.iter().enumerate() {
        if let Some((text, attempts)) = restored[i].take() {
            report.skipped += 1;
            report.cells.push(CellResult {
                name: name.clone(),
                status: CellStatus::Done,
                attempts,
                digest: fnv1a(text.as_bytes()),
                output: Some(text),
                from_checkpoint: true,
            });
            continue;
        }
        report.executed += 1;
        let fault = fault_for(name, &cells, opts);
        let mut attempt = 1u32;
        let mut result = first_iter
            .next()
            .expect("one first attempt per pending cell");
        let mut last_cause: Option<ContainmentCause> = None;
        loop {
            match result {
                Ok(text) => {
                    if let Some(cause) = last_cause.take() {
                        report.events.push(ContainmentEvent {
                            scope: name.clone(),
                            attempt,
                            cause,
                            action: ContainmentAction::Recovered,
                        });
                    }
                    report.cells.push(CellResult {
                        name: name.clone(),
                        status: CellStatus::Done,
                        attempts: attempt,
                        digest: fnv1a(text.as_bytes()),
                        output: Some(text),
                        from_checkpoint: false,
                    });
                    break;
                }
                Err(cause) => {
                    if attempt < max_attempts {
                        let backoff_ms = opts.retry.backoff_ms(attempt);
                        report.events.push(ContainmentEvent {
                            scope: name.clone(),
                            attempt,
                            cause: cause.clone(),
                            action: ContainmentAction::Retried { backoff_ms },
                        });
                        last_cause = Some(cause);
                        if backoff_ms > 0 {
                            std::thread::sleep(Duration::from_millis(backoff_ms));
                        }
                        attempt += 1;
                        // A fresh, uncached suite: shared state a crashed
                        // attempt may have poisoned is left behind.
                        let fresh = match opts.small {
                            Some(n) => Suite::load_small_uncached(n),
                            None => Suite::load_uncached(),
                        };
                        result = run_attempt(name, &fresh, fault, attempt, opts.cell_deadline_ms);
                    } else {
                        report.events.push(ContainmentEvent {
                            scope: name.clone(),
                            attempt,
                            cause: cause.clone(),
                            action: ContainmentAction::Quarantined,
                        });
                        if let Some(qdir) = &opts.quarantine_dir {
                            if let Some(path) = quarantine(qdir, name, &cause, attempt, opts)? {
                                report.quarantined.push(path);
                            }
                        }
                        report.cells.push(CellResult {
                            name: name.clone(),
                            status: CellStatus::Failed,
                            attempts: attempt,
                            digest: 0,
                            output: None,
                            from_checkpoint: false,
                        });
                        break;
                    }
                }
            }
        }
    }

    // Persist the checkpoint: per-cell outputs, then the manifest.
    if let Some(dir) = &opts.checkpoint_dir {
        let cells_dir = dir.join("cells");
        treegion_chaos::shim::create_dir_all(&cells_dir, &opts.chaos, "eval.cell")
            .map_err(|e| format!("cannot create `{}`: {e}", cells_dir.display()))?;
        for c in &report.cells {
            if let Some(text) = &c.output {
                let path = cell_path(dir, &c.name);
                // Cells are fsynced before the manifest records them as
                // `done`: a crash between the two leaves an extra cell
                // file (harmless), never a manifest pointing at torn
                // bytes (the digest check would demote it anyway).
                treegion_chaos::shim::write_durable(
                    &path,
                    text.as_bytes(),
                    &opts.chaos,
                    "eval.cell",
                )
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
        }
        let manifest = RunManifest {
            config_hash,
            git_rev: git_rev(),
            fault_seed: opts.fault_seed,
            cells: report
                .cells
                .iter()
                .map(|c| CellRecord {
                    name: c.name.clone(),
                    status: c.status,
                    digest: c.digest,
                    attempts: c.attempts,
                })
                .collect(),
        };
        report.manifest_path = Some(manifest.save_chaos(dir, &opts.chaos)?);
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tgc-runner-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn fast_opts() -> HarnessOptions {
        HarnessOptions {
            small: Some(1),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 0,
            },
            only: vec!["table1".into(), "table2".into()],
            ..HarnessOptions::default()
        }
    }

    #[test]
    fn fault_spec_parsing() {
        let (c, f) = parse_fault_spec("fig8@4u=panic").unwrap();
        assert_eq!(c, "fig8@4u");
        assert_eq!(f.kind, CellFaultKind::Panic);
        assert_eq!(f.trips, u32::MAX);
        let (_, f) = parse_fault_spec("table1=panic:1").unwrap();
        assert_eq!(f.trips, 1);
        let (_, f) = parse_fault_spec("table1=hang:250").unwrap();
        assert_eq!(f.kind, CellFaultKind::Hang { sleep_ms: 250 });
        let (_, f) = parse_fault_spec("table1=hang:250:2").unwrap();
        assert_eq!(f.trips, 2);
        for bad in [
            "nope",
            "unknowncell=panic",
            "table1=explode",
            "table1=hang",
            "table1=hang:x",
            "table1=panic:1:2",
        ] {
            assert!(parse_fault_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn clean_run_matches_plain_harness() {
        let opts = fast_opts();
        let report = run_harness(&opts).unwrap();
        assert!(!report.has_contained_failures());
        assert!(report.events.is_empty());
        assert_eq!(report.executed, 2);
        let suite = Suite::load_small(1);
        let expect = format!(
            "{}\n{}\n",
            render_cell(&suite, "table1"),
            render_cell(&suite, "table2")
        );
        assert_eq!(report.merged_output(), expect);
    }

    #[test]
    fn injected_panic_is_contained_and_quarantined() {
        let qdir = tmpdir("quarantine");
        let opts = HarnessOptions {
            fault_cells: vec![(
                "table1".into(),
                CellFault {
                    kind: CellFaultKind::Panic,
                    trips: u32::MAX,
                },
            )],
            quarantine_dir: Some(qdir.clone()),
            ..fast_opts()
        };
        let report = run_harness(&opts).unwrap();
        assert!(report.has_contained_failures());
        // table2 still completed.
        let t2 = report.cells.iter().find(|c| c.name == "table2").unwrap();
        assert_eq!(t2.status, CellStatus::Done);
        // table1: retried once, then quarantined; every cause is a panic.
        let t1_events: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.scope == "table1")
            .collect();
        assert_eq!(t1_events.len(), 2, "{:?}", report.events);
        assert!(t1_events.iter().all(|e| e.cause.label() == "panic"));
        assert!(matches!(
            t1_events[1].action,
            ContainmentAction::Quarantined
        ));
        assert_eq!(report.quarantined.len(), 1);
        let body = std::fs::read_to_string(&report.quarantined[0]).unwrap();
        assert!(body.contains("cell table1"), "{body}");
        assert!(body.contains("cause panic"), "{body}");
        // Same incident again: deduplicated, no new file.
        let report2 = run_harness(&opts).unwrap();
        assert!(report2.quarantined.is_empty());
        std::fs::remove_dir_all(&qdir).ok();
    }

    #[test]
    fn transient_fault_recovers_on_retry() {
        let opts = HarnessOptions {
            fault_cells: vec![(
                "table1".into(),
                CellFault {
                    kind: CellFaultKind::Fail,
                    trips: 1,
                },
            )],
            ..fast_opts()
        };
        let report = run_harness(&opts).unwrap();
        assert!(!report.has_contained_failures());
        let t1 = report.cells.iter().find(|c| c.name == "table1").unwrap();
        assert_eq!(t1.attempts, 2);
        let actions: Vec<_> = report.events.iter().map(|e| &e.action).collect();
        assert!(matches!(actions[0], ContainmentAction::Retried { .. }));
        assert_eq!(*actions[1], ContainmentAction::Recovered);
        // And the recovered output matches a clean run byte-for-byte.
        let clean = run_harness(&fast_opts()).unwrap();
        assert_eq!(report.merged_output(), clean.merged_output());
    }

    #[test]
    fn hang_trips_the_deadline_watchdog() {
        let opts = HarnessOptions {
            fault_cells: vec![(
                "table1".into(),
                CellFault {
                    kind: CellFaultKind::Hang { sleep_ms: 5_000 },
                    trips: u32::MAX,
                },
            )],
            cell_deadline_ms: Some(100),
            retry: RetryPolicy::NO_RETRY,
            ..fast_opts()
        };
        let report = run_harness(&opts).unwrap();
        assert!(report.has_contained_failures());
        let e = &report.events[0];
        assert_eq!(e.cause, ContainmentCause::Deadline { budget_ms: 100 });
        assert_eq!(e.action, ContainmentAction::Quarantined);
        // The non-hanging cell still finished under its watchdog.
        let t2 = report.cells.iter().find(|c| c.name == "table2").unwrap();
        assert_eq!(t2.status, CellStatus::Done);
    }

    #[test]
    fn checkpoint_resume_runs_only_failed_cells() {
        let ckpt = tmpdir("ckpt");
        let poisoned = HarnessOptions {
            fault_cells: vec![(
                "table1".into(),
                CellFault {
                    kind: CellFaultKind::Panic,
                    trips: u32::MAX,
                },
            )],
            checkpoint_dir: Some(ckpt.clone()),
            ..fast_opts()
        };
        let r1 = run_harness(&poisoned).unwrap();
        assert!(r1.has_contained_failures());
        let manifest = r1.manifest_path.clone().unwrap();

        // Resume WITHOUT the fault: only table1 re-runs.
        let resumed = HarnessOptions {
            resume: Some(manifest.clone()),
            checkpoint_dir: Some(ckpt.clone()),
            ..fast_opts()
        };
        let r2 = run_harness(&resumed).unwrap();
        assert_eq!(r2.executed, 1, "{}", r2.summary());
        assert_eq!(r2.skipped, 1);
        assert!(!r2.has_contained_failures());
        assert!(
            r2.cells
                .iter()
                .find(|c| c.name == "table2")
                .unwrap()
                .from_checkpoint
        );
        // Merged report now matches a clean run byte-for-byte.
        let clean = run_harness(&fast_opts()).unwrap();
        assert_eq!(r2.merged_output(), clean.merged_output());

        // A corrupted cell checkpoint is detected and re-run, not trusted.
        std::fs::write(cell_path(&ckpt, "table2"), "tampered").unwrap();
        let r3 = run_harness(&resumed).unwrap();
        assert_eq!(r3.skipped, 1, "only the intact table1 cell restores");
        assert_eq!(r3.merged_output(), clean.merged_output());

        // Resuming under a different config is refused.
        let other = HarnessOptions {
            resume: Some(manifest),
            only: vec!["table1".into()],
            ..fast_opts()
        };
        let err = run_harness(&other).unwrap_err();
        assert!(err.contains("resume refused"), "{err}");
        std::fs::remove_dir_all(&ckpt).ok();
    }

    #[test]
    fn resume_survives_a_torn_manifest_line() {
        let ckpt = tmpdir("torn-resume");
        let opts = HarnessOptions {
            checkpoint_dir: Some(ckpt.clone()),
            ..fast_opts()
        };
        let r1 = run_harness(&opts).unwrap();
        let manifest = r1.manifest_path.clone().unwrap();

        // Crash mid-append: the final cell line loses its tail. The old
        // strict loader made resume bail entirely here.
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() - 10]).unwrap();

        let resumed = HarnessOptions {
            resume: Some(manifest),
            ..fast_opts()
        };
        let r2 = run_harness(&resumed).unwrap();
        // Only the cell on the torn line re-runs; the intact one restores.
        assert_eq!(r2.skipped, 1, "{}", r2.summary());
        assert_eq!(r2.executed, 1);
        assert!(!r2.has_contained_failures());
        assert_eq!(r2.merged_output(), r1.merged_output());
        std::fs::remove_dir_all(&ckpt).ok();
    }

    /// Threads alive in this process, from `/proc/self/stat` field 20.
    #[cfg(target_os = "linux")]
    fn live_threads() -> usize {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        // Fields after the parenthesised comm (which may contain spaces).
        let after = stat.rsplit(')').next().unwrap();
        after.split_whitespace().nth(17).unwrap().parse().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn watchdog_threads_are_joined_not_accumulated() {
        // Many on-time cells under a deadline watchdog: every watchdog
        // thread must be reaped, so the process thread count stays flat.
        let opts = HarnessOptions {
            cell_deadline_ms: Some(60_000),
            ..fast_opts()
        };
        run_harness(&opts).unwrap(); // warm caches and the par pool
        let before = live_threads();
        for _ in 0..8 {
            let r = run_harness(&opts).unwrap();
            assert!(!r.has_contained_failures());
        }
        // Other tests in this binary run concurrently and spawn scoped
        // (transient) threads; sample for a settled minimum rather than
        // trusting one instant.
        let mut after = usize::MAX;
        for _ in 0..20 {
            after = after.min(live_threads());
            if after <= before + 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(
            after <= before + 1,
            "watchdog threads accumulated: {before} -> {after}"
        );
    }

    #[test]
    fn fault_seed_poisons_exactly_one_cell_reproducibly() {
        let opts = HarnessOptions {
            fault_seed: Some(7),
            retry: RetryPolicy::NO_RETRY,
            ..fast_opts()
        };
        let r1 = run_harness(&opts).unwrap();
        let r2 = run_harness(&opts).unwrap();
        let failed1: Vec<_> = r1
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
            .map(|c| c.name.clone())
            .collect();
        let failed2: Vec<_> = r2
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(failed1.len(), 1, "{:?}", r1.summary());
        assert_eq!(failed1, failed2, "seeded fault must be reproducible");
    }

    #[test]
    fn unknown_only_cell_is_a_hard_error() {
        let opts = HarnessOptions {
            only: vec!["tableX".into()],
            ..HarnessOptions::default()
        };
        let err = run_harness(&opts).unwrap_err();
        assert!(err.contains("unknown cell"), "{err}");
    }
}
