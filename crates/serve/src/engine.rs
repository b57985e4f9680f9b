//! The request engine: one module in, one structured reply out, with
//! every failure mode handled explicitly.
//!
//! The ladder, in the order a module meets it:
//!
//! 1. **Quarantine fast-reject** — a module whose content digest is
//!    already on file as a repeat offender is answered immediately with
//!    a structured error; it never reaches the scheduler again.
//! 2. **Durable cache** — a warm `(module digest, config fingerprint)`
//!    hit returns the stored payload byte-identically.
//! 3. **Parse/verify** — malformed tir is a `bad-request` error (the
//!    input is wrong, not crashing; it is not quarantined).
//! 4. **Contained run** — the pipeline runs under `catch_unwind`, with
//!    the request's soft deadline threaded into
//!    [`treegion::Budgets::max_wall_ms`] (checked at scheduler cycle
//!    boundaries, recovered by the fallback chain) and a hard watchdog
//!    thread as the escalation path for stalls the soft deadline cannot
//!    see. A crash or stall becomes a [`treegion::ContainmentCause`],
//!    the offender is quarantined (FNV-deduplicated, replayable), and
//!    the client gets the structured error — concurrent clean modules
//!    of the same batch are unaffected.
//!
//! Successful cold runs are stored durably before the reply leaves the
//! engine (unless the module carried poison knobs, which perturb the
//! schedule and must never pollute the cache).

use crate::admission::Admission;
use crate::protocol::{BatchOptions, ModuleRequest, Poison};
use crate::stats::{bump, RenderInputs, ServeStats};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use treegion::{
    Budgets, ContainmentCause, FaultPlan, Pipeline, Profiler, RobustOptions, SchedFailure,
    ScheduleOptions,
};
use treegion_eval::{fnv1a, DiskRecovery, FormationCache};
use treegion_ir::{parse_module, verify_function, Module};
use treegion_par::StripedSet;

/// Shard count used when [`EngineConfig::cache_shards`] is 0.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Stripe count of the in-memory quarantine ledger.
const QUARANTINE_STRIPES: usize = 16;

/// Engine construction options.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Durable result-cache base path (`None` = in-memory only, no warm
    /// tier). The store is sharded into `cache_shards` files named
    /// `<path>.<k>`.
    pub cache_path: Option<PathBuf>,
    /// Disk-cache shard count (0 = [`DEFAULT_CACHE_SHARDS`]).
    pub cache_shards: usize,
    /// Quarantine directory (`None` = containment without files).
    pub quarantine_dir: Option<PathBuf>,
    /// Deadline applied when a request does not set one.
    pub default_deadline_ms: Option<u64>,
    /// Armed I/O chaos plan (`--chaos-seed`/`--chaos-plan`): journals
    /// and may perturb every durable write the engine performs (cache
    /// appends and compactions, quarantine files). `None` changes
    /// nothing.
    pub chaos: treegion_chaos::Chaos,
}

/// One module's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuleReply {
    /// Scheduled; `payload` is the cacheable result body.
    Ok {
        /// Served from the durable cache?
        warm: bool,
        /// The result body (byte-identical warm or cold).
        payload: String,
    },
    /// Failed with a structured error.
    Err {
        /// Containment label: `panic`, `deadline`, `failure`,
        /// `bad-request`, or `quarantined`.
        cause: String,
        /// Human-readable detail (single line).
        detail: String,
        /// Whether a (new or pre-existing) quarantine file holds it.
        quarantined: bool,
    },
    /// Shed by admission control before scheduling.
    Shed {
        /// Client retry hint.
        retry_after_ms: u64,
    },
}

/// The shared engine: cache, quarantine ledger, counters, profiler.
pub struct Engine {
    cache: FormationCache,
    recovery: Option<DiskRecovery>,
    /// Lock-striped ledger: the digest fast-reject sits on the hot path
    /// of every compile request, so concurrent connections must not
    /// serialize on one global `Mutex<HashSet>`.
    quarantined: StripedSet,
    qdir: Option<PathBuf>,
    /// Service counters (`/stats`). `Arc`-shared so watchdog threads
    /// can keep counting after their request is abandoned.
    pub stats: Arc<ServeStats>,
    profiler: Arc<Profiler>,
    default_deadline_ms: Option<u64>,
    chaos: treegion_chaos::Chaos,
}

/// The configuration fingerprint half of the cache key. Debug renderings
/// cover every field of the kind and machine, so equal fingerprints mean
/// behaviourally identical requests.
fn fingerprint(opts: &BatchOptions) -> String {
    format!(
        "{:?}|{:?}|{}|dompar={}",
        opts.kind,
        opts.machine,
        opts.heuristic.name(),
        opts.dompar
    )
}

impl Engine {
    /// Opens the engine: attaches the durable cache tier (running its
    /// recovery scan) and replays the quarantine ledger from disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening the cache.
    pub fn open(config: &EngineConfig) -> Result<Self, String> {
        let cache = FormationCache::new();
        let shards = if config.cache_shards == 0 {
            DEFAULT_CACHE_SHARDS
        } else {
            config.cache_shards
        };
        let recovery = match &config.cache_path {
            Some(p) => Some(cache.attach_disk_sharded(p, shards, config.chaos.clone())?),
            None => None,
        };
        let stats = Arc::new(ServeStats::default());
        let quarantined = StripedSet::new(QUARANTINE_STRIPES);
        if let Some(dir) = &config.quarantine_dir {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for e in entries.flatten() {
                    // Ledger files are `serve-<digest:016x>.tir`; the
                    // digest in the name is the dedup key, so a restart
                    // rejects the same offenders without re-reading
                    // their bodies. The directory is operator-writable,
                    // so anything else — foreign filenames, bad hex,
                    // subdirectories — is skipped (and counted), never
                    // trusted and never fatal.
                    let is_file = e.file_type().map(|t| t.is_file()).unwrap_or(false);
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    let digest = name
                        .strip_prefix("serve-")
                        .and_then(|r| r.strip_suffix(".tir"))
                        .filter(|hex| !hex.is_empty())
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok());
                    match digest {
                        Some(d) if is_file => {
                            quarantined.insert(d);
                        }
                        _ => bump(&stats.ledger_skipped),
                    }
                }
            }
        }
        Ok(Engine {
            cache,
            recovery,
            quarantined,
            qdir: config.quarantine_dir.clone(),
            stats,
            profiler: Arc::new(Profiler::new()),
            default_deadline_ms: config.default_deadline_ms,
            chaos: config.chaos.clone(),
        })
    }

    /// What the startup cache recovery scan found (None without a disk
    /// tier).
    pub fn recovery(&self) -> Option<DiskRecovery> {
        self.recovery
    }

    /// The `/stats` body.
    pub fn render_stats(&self, inflight: usize, high_water: usize) -> String {
        self.stats.render(&RenderInputs {
            cache: self.cache.stats(),
            recovery: self.recovery,
            profiler: &self.profiler,
            inflight,
            high_water,
            chaos: self.chaos.as_ref().map(|p| p.snapshot()),
            shards: self
                .cache
                .disk()
                .map(|d| d.shard_stats())
                .unwrap_or_default(),
            quarantine_stripes: self.quarantined.stripes(),
            quarantine_contention: self.quarantined.contention(),
        })
    }

    /// Digests currently on the quarantine ledger.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Graceful-drain checkpoint: compacts the durable cache so a clean
    /// shutdown leaves a minimal, freshly-sealed file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn checkpoint(&self) -> Result<(), String> {
        match self.cache.disk() {
            Some(d) => d.compact(),
            None => Ok(()),
        }
    }

    /// Processes one batch: admission in input order (slots held until
    /// the whole batch finishes — deterministic shedding), then a
    /// panic-isolated parallel fan-out over the admitted modules.
    /// Replies are in input order.
    pub fn process_batch(
        &self,
        admission: &Admission,
        opts: &BatchOptions,
        modules: &[ModuleRequest],
    ) -> Vec<ModuleReply> {
        bump(&self.stats.batches);
        // Admission pass, in batch order.
        let mut permits = Vec::new();
        let mut admitted: Vec<usize> = Vec::new();
        let mut replies: Vec<Option<ModuleReply>> = vec![None; modules.len()];
        for (i, _) in modules.iter().enumerate() {
            match admission.try_admit() {
                Ok(p) => {
                    permits.push(p);
                    admitted.push(i);
                }
                Err(retry_after_ms) => {
                    bump(&self.stats.shed);
                    replies[i] = Some(ModuleReply::Shed { retry_after_ms });
                }
            }
        }
        // Fan the admitted modules through the worker pool; a panic that
        // somehow escapes the engine's own catch_unwind is still
        // contained here.
        let outcomes = treegion_par::par_map_isolated(
            &admitted,
            |_, &i| format!("serve module #{i}"),
            |&i| self.compile_module(opts, &modules[i]),
        );
        for (&i, out) in admitted.iter().zip(outcomes) {
            replies[i] = Some(match out {
                treegion_par::TaskOutcome::Done(r) => r,
                treegion_par::TaskOutcome::Panicked { payload, .. } => self.contained_error(
                    fnv1a(modules[i].text.as_bytes()),
                    &modules[i].text,
                    modules[i].poison,
                    ContainmentCause::Panic { payload },
                ),
            });
        }
        drop(permits);
        replies
            .into_iter()
            .map(|r| r.expect("every module got a reply"))
            .collect()
    }

    /// The per-module ladder (see the module docs).
    pub fn compile_module(&self, opts: &BatchOptions, m: &ModuleRequest) -> ModuleReply {
        let digest = fnv1a(m.text.as_bytes());
        // 1. Repeat offenders never reach the scheduler again.
        if self.quarantined.contains(digest) {
            bump(&self.stats.quarantine_rejects);
            bump(&self.stats.errors);
            return ModuleReply::Err {
                cause: "quarantined".into(),
                detail: format!("module {digest:016x} is on the quarantine ledger"),
                quarantined: true,
            };
        }
        let fp = fingerprint(opts);
        // 2. Warm path (poisoned modules never touch the cache).
        if !m.poison.is_set() {
            if let Some(hit) = self.cache.disk_get(digest, &fp) {
                bump(&self.stats.warm);
                bump(&self.stats.ok);
                return ModuleReply::Ok {
                    warm: true,
                    payload: hit,
                };
            }
        }
        // 3. Parse and verify: malformed input is the client's bug.
        let module = match parse_module(&m.text) {
            Ok(mo) => mo,
            Err(e) => {
                bump(&self.stats.errors);
                return ModuleReply::Err {
                    cause: "bad-request".into(),
                    detail: e.to_string().replace('\n', " "),
                    quarantined: false,
                };
            }
        };
        for f in module.functions() {
            if let Err(e) = verify_function(f) {
                bump(&self.stats.errors);
                return ModuleReply::Err {
                    cause: "bad-request".into(),
                    detail: e.to_string().replace('\n', " "),
                    quarantined: false,
                };
            }
        }
        // 4. Contained run.
        let deadline_ms = opts.deadline_ms.or(self.default_deadline_ms);
        match self.run_contained(opts, m.poison, &module, deadline_ms, digest) {
            Ok(payload) => {
                bump(&self.stats.cold);
                bump(&self.stats.ok);
                if !m.poison.is_set() {
                    if let Err(e) = self.cache.disk_put(digest, &fp, &payload) {
                        // Degrade loudly but keep serving: the result is
                        // correct even if durability failed.
                        eprintln!("tgc-serve: cache write failed: {e}");
                    }
                }
                ModuleReply::Ok {
                    warm: false,
                    payload,
                }
            }
            Err(cause) => self.contained_error(digest, &m.text, m.poison, cause),
        }
    }

    /// Books a contained crash: counters, quarantine file (deduplicated
    /// by digest), and the structured error reply.
    fn contained_error(
        &self,
        digest: u64,
        text: &str,
        poison: Poison,
        cause: ContainmentCause,
    ) -> ModuleReply {
        bump(&self.stats.errors);
        bump(&self.stats.contained);
        // Watchdog escalations and soft-deadline exhaustion (a pipeline
        // error whose failure chain names the deadline) both count.
        let soft_deadline = !matches!(cause, ContainmentCause::Deadline { .. })
            && cause.detail().contains("deadline");
        if matches!(cause, ContainmentCause::Deadline { .. }) || soft_deadline {
            bump(&self.stats.deadline);
        }
        // Soft-deadline misses are parameter-dependent, not module
        // toxicity: the same module under a roomier (or absent) budget
        // may schedule fine, so it must stay retryable. Only panics,
        // watchdog-detached stalls (`ContainmentCause::Deadline`), and
        // deterministic every-rung failures enter the ledger.
        let quarantined = if soft_deadline {
            false
        } else {
            self.quarantine_module(digest, text, poison, &cause)
        };
        ModuleReply::Err {
            cause: cause.label().to_string(),
            detail: cause.detail().replace('\n', " "),
            quarantined,
        }
    }

    /// Writes the replayable quarantine file (a valid tir module with a
    /// comment header) and enters the digest into the ledger. Returns
    /// whether the module is now quarantined (new or already on file).
    fn quarantine_module(
        &self,
        digest: u64,
        text: &str,
        poison: Poison,
        cause: &ContainmentCause,
    ) -> bool {
        self.quarantined.insert(digest);
        let Some(dir) = &self.qdir else {
            return false;
        };
        let path = dir.join(format!("serve-{digest:016x}.tir"));
        if path.exists() {
            return true; // Deduplicated across restarts.
        }
        let mut body = String::new();
        body.push_str("// tgc-serve quarantine v1\n");
        body.push_str(&format!("// digest {digest:016x}\n"));
        body.push_str(&format!("// cause {}\n", cause.label()));
        body.push_str(&format!(
            "// detail {}\n",
            cause.detail().replace('\n', " ")
        ));
        // Request-side poison knobs are part of the repro: the module
        // text alone may be innocent.
        if let Some(s) = poison.fault_seed {
            body.push_str(&format!("// poison fault-seed {s}\n"));
        }
        if let Some(r) = poison.panic_region {
            body.push_str(&format!("// poison panic-region {r}\n"));
        }
        if poison.panic_hard {
            body.push_str("// poison panic-hard\n");
        }
        body.push_str("// replay: parse_quarantine() recovers the module and its poison knobs\n");
        body.push_str(text);
        // Durable (fsynced) write: the in-memory ledger entry above
        // already fast-rejects this process's repeats, but only bytes on
        // the platter protect the *next* process — a crash that loses
        // the file merely lets the offender crash-and-requarantine once.
        if let Err(e) = treegion_chaos::shim::create_dir_all(dir, &self.chaos, "serve.quarantine")
            .map_err(|e| e.to_string())
            .and_then(|()| {
                treegion_chaos::shim::write_durable(
                    &path,
                    body.as_bytes(),
                    &self.chaos,
                    "serve.quarantine",
                )
                .map_err(|e| e.to_string())
            })
        {
            eprintln!(
                "tgc-serve: cannot write quarantine file {}: {e}",
                path.display()
            );
            return false;
        }
        bump(&self.stats.quarantined);
        true
    }

    /// Runs the pipeline under containment. Without a deadline the run
    /// happens in place under `catch_unwind`; with one, on a watchdog
    /// thread whose hard timeout (2× the soft deadline + margin) is the
    /// escalation path for stalls outside the scheduler's cycle checks.
    fn run_contained(
        &self,
        opts: &BatchOptions,
        poison: Poison,
        module: &Module,
        deadline_ms: Option<u64>,
        digest: u64,
    ) -> Result<String, ContainmentCause> {
        let ropts = RobustOptions {
            sched: ScheduleOptions {
                heuristic: opts.heuristic,
                dominator_parallelism: opts.dompar,
                ..Default::default()
            },
            budgets: Budgets {
                max_wall_ms: deadline_ms,
                ..Budgets::UNLIMITED
            },
            fault: poison.fault_seed.map(FaultPlan::from_seed),
            panic_on_region: poison.panic_region,
            ..Default::default()
        };
        let hard = poison.panic_hard;
        match deadline_ms {
            None => contained_run(
                opts,
                &ropts,
                module,
                digest,
                hard,
                &self.profiler,
                &self.stats,
            ),
            Some(budget_ms) => {
                let (tx, rx) = std::sync::mpsc::channel();
                let module = module.clone();
                let opts = opts.clone();
                let profiler = Arc::clone(&self.profiler);
                let stats = Arc::clone(&self.stats);
                let handle = std::thread::spawn(move || {
                    let out =
                        contained_run(&opts, &ropts, &module, digest, hard, &profiler, &stats);
                    let _ = tx.send(out);
                });
                // Escalation margin: the soft deadline inside the
                // scheduler should fire first; the watchdog only trips
                // when a stage outside the cycle checks stalls.
                let hard = budget_ms.saturating_mul(2).saturating_add(500);
                match rx.recv_timeout(Duration::from_millis(hard)) {
                    Ok(res) => {
                        let _ = handle.join(); // already finished; reap it
                        res
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        drop(handle); // abandon the stalled thread
                        Err(ContainmentCause::Deadline { budget_ms })
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        let _ = handle.join();
                        Err(ContainmentCause::Panic {
                            payload: "serve worker vanished without reporting".to_string(),
                        })
                    }
                }
            }
        }
    }
}

/// One pipeline run under `catch_unwind`: a panic anywhere inside
/// becomes a [`ContainmentCause::Panic`]. A free function (not a method)
/// so the watchdog path can move `Arc` clones of the profiler and stats
/// into a `'static` thread.
fn contained_run(
    opts: &BatchOptions,
    ropts: &RobustOptions,
    module: &Module,
    digest: u64,
    panic_hard: bool,
    profiler: &Profiler,
    stats: &ServeStats,
) -> Result<String, ContainmentCause> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // `!panic-hard` fires *outside* the pipeline's own containment:
        // the deterministic stand-in for a scheduler bug that escapes
        // the fallback chain, provable end to end.
        assert!(!panic_hard, "injected serve-layer panic (panic-hard)");
        schedule_payload(opts, ropts, module, digest, profiler, stats)
    }))
    .unwrap_or_else(|p| {
        Err(ContainmentCause::Panic {
            payload: treegion_par::panic_message(p.as_ref()),
        })
    })
}

/// Drives the module through [`Pipeline::run_function`] function by
/// function and renders the per-region result payload. Deterministic:
/// functions in module order, regions in outcome order.
fn schedule_payload(
    opts: &BatchOptions,
    ropts: &RobustOptions,
    module: &Module,
    digest: u64,
    profiler: &Profiler,
    stats: &ServeStats,
) -> Result<String, ContainmentCause> {
    let pipeline = Pipeline::with_options(&opts.machine, ropts.clone());
    let mut out = String::new();
    out.push_str(&format!("module @{}\n", module.name()));
    out.push_str(&format!("digest {digest:016x}\n"));
    let mut total = 0.0;
    let mut regions = 0usize;
    let mut events = 0usize;
    let mut body = String::new();
    for f in module.functions() {
        let run = pipeline
            .run_function(f, &opts.kind, profiler)
            .map_err(|e| ContainmentCause::Failure {
                message: e.to_string().replace('\n', " "),
            })?;
        for o in &run.result.outcomes {
            let t = o.estimated_time();
            total += t;
            body.push_str(&format!(
                "region func @{} #{} root {} level {} blocks {} ops {} len {} time {t}\n",
                run.formed.function.name(),
                o.region_index,
                o.region.root(),
                o.level,
                o.region.num_blocks(),
                o.lowered.num_ops(),
                o.schedule.length(),
            ));
        }
        regions += run.result.outcomes.len();
        for e in &run.result.events {
            if matches!(e.cause, SchedFailure::DeadlineExceeded { .. }) {
                bump(&stats.deadline);
            }
        }
        events += run.result.events.len();
    }
    out.push_str(&format!("regions {regions}\n"));
    out.push_str(&format!("events {events}\n"));
    out.push_str(&format!("time {total}\n"));
    out.push_str(&body);
    Ok(out)
}

/// Splits a quarantine file back into the original module text, the
/// request-side poison knobs, and the recorded cause label — everything
/// a replay needs to reproduce the crash. The header is the leading run
/// of `//` comment lines; the module text after it is byte-identical to
/// what the client sent (same FNV digest, so the ledger recognises it).
pub fn parse_quarantine(file_text: &str) -> (String, Poison, String) {
    let mut poison = Poison::default();
    let mut cause = String::new();
    let mut body_start = 0;
    for line in file_text.split_inclusive('\n') {
        let Some(rest) = line.trim_start().strip_prefix("//") else {
            break;
        };
        body_start += line.len();
        let rest = rest.trim();
        if let Some(c) = rest.strip_prefix("cause ") {
            cause = c.trim().to_string();
        } else if let Some(p) = rest.strip_prefix("poison ") {
            let (k, v) = p.split_once(' ').unwrap_or((p, ""));
            match k {
                "fault-seed" => poison.fault_seed = v.trim().parse().ok(),
                "panic-region" => poison.panic_region = v.trim().parse().ok(),
                "panic-hard" => poison.panic_hard = true,
                _ => {}
            }
        }
    }
    (file_text[body_start..].to_string(), poison, cause)
}
