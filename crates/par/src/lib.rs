//! # treegion-par
//!
//! A tiny, hermetic (std-only) parallel-execution layer for the treegion
//! workspace. The workspace must build without crates.io, so this crate
//! provides the two primitives the evaluation engine needs instead of
//! pulling in rayon:
//!
//! * [`par_map`] / [`par_map_jobs`] — order-preserving parallel map over a
//!   slice, built on [`std::thread::scope`]. Results come back in input
//!   order, so a parallel caller is **byte-identical** to the serial one as
//!   long as the mapped closure is a pure function of its item.
//! * [`scope`] — a thin re-export of [`std::thread::scope`] for ad-hoc
//!   fork/join that does not fit the map shape.
//!
//! ## Determinism contract
//!
//! Parallelism here only ever changes *when* a result is computed, never
//! *what* is computed or in which order results are observed by the
//! caller. `par_map(items, f)[i] == f(&items[i])` for every `i`, at every
//! job count. The whole workspace relies on this: schedules, report
//! tables, and fuzz verdicts produced at `jobs=1` and `jobs=N` must be
//! byte-identical (see `tests/parallel_determinism.rs` at the workspace
//! root).
//!
//! ## Job-count resolution
//!
//! The effective worker count is resolved in this order:
//!
//! 1. [`set_jobs`] (e.g. from `tgc --jobs N`),
//! 2. the `TGC_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `jobs == 1` runs strictly serially on the calling thread — the
//! documented reproducibility mode (no worker threads are ever spawned).
//!
//! ## Nested parallelism
//!
//! Callers nest freely (the eval harness fans out over table cells while
//! `schedule_function` fans out over regions). A global *worker budget* of
//! `current_jobs() - 1` extra threads keeps the process from
//! oversubscribing: inner `par_map`s that cannot obtain workers simply run
//! serially on their calling thread. Work never deadlocks — the calling
//! thread always participates.
//!
//! ## Panic containment
//!
//! [`par_map`] deliberately *re-raises* worker panics: a panicking task
//! aborts the whole map once every worker has drained. That is the right
//! contract for must-succeed work, but the evaluation harness wants the
//! opposite — one poisoned table cell must cost one cell, not the run.
//! [`par_map_isolated`] provides that: every task runs under
//! `catch_unwind`, a panic becomes a structured
//! [`TaskOutcome::Panicked`] carrying the payload and a task label, and
//! the pool keeps draining the remaining items. Because the unwind is
//! caught *inside* the worker loop, a panicking task never kills its
//! worker — pool capacity is preserved by construction rather than by
//! respawning (and should a worker die anyway, e.g. a panic payload whose
//! `Drop` panics, the calling thread takes over its remaining items and
//! the lost slots are reported as [`TaskOutcome::Panicked`]).
//!
//! ## Worker-budget ledger discipline
//!
//! Both maps follow a strict release-once protocol for the global worker
//! budget: `acquire_workers` is called exactly once per parallel map, the
//! grant is released exactly once after the scope joins — *including* on
//! every panic path (the calling thread's share of the work runs under
//! `catch_unwind`, worker handles are joined unconditionally, and the
//! release happens before any `resume_unwind`). Nested maps therefore
//! cannot leak or double-free budget even when an inner map panics inside
//! an outer one; `nested_panicking_map_releases_budget` pins this down.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sync;

pub use sync::{lock_tolerant, StripedSet};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit job-count override (0 = unset; fall back to env / hardware).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Extra worker threads currently live across all `par_map`s (the global
/// budget that bounds nested parallelism).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Memoized [`max_jobs`] resolution (0 = not resolved yet). Resolving
/// consults the environment and `available_parallelism`, which on Linux
/// reads cgroup files — far too expensive for `par_map`'s hot path, so it
/// happens once per process.
static ENV_JOBS: AtomicUsize = AtomicUsize::new(0);

/// The job count the environment asks for: `TGC_JOBS` if set and valid,
/// otherwise the machine's available parallelism (1 if unknown).
/// Resolved once per process and cached.
pub fn max_jobs() -> usize {
    match ENV_JOBS.load(Ordering::Relaxed) {
        0 => {
            let n = resolve_env_jobs();
            ENV_JOBS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Upper clamp on the job count accepted from the environment. Absurd
/// `TGC_JOBS` values (misconfigured CI, a stray `$RANDOM`) would otherwise
/// make every `par_map` try to spawn thousands of threads.
pub const MAX_JOBS_CLAMP: usize = 512;

/// Interprets a raw `TGC_JOBS` value.
///
/// Returns `(jobs, warning)`: `jobs` is `Some(n)` when the value names a
/// usable job count (clamped to [`MAX_JOBS_CLAMP`]) and `None` when the
/// resolver should fall back to the hardware default. Invalid values
/// (`0`, non-numeric text, unparseable magnitudes) never panic — they
/// produce a human-readable warning and fall back. Empty / whitespace-only
/// values are treated as unset, silently (`export TGC_JOBS=` is common).
pub fn parse_jobs_env(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    let t = raw.trim();
    if t.is_empty() {
        return (None, None);
    }
    match t.parse::<usize>() {
        Ok(0) => (
            None,
            Some("TGC_JOBS=0 is invalid (must be >= 1); falling back to the default".into()),
        ),
        Ok(n) if n > MAX_JOBS_CLAMP => (
            Some(MAX_JOBS_CLAMP),
            Some(format!(
                "TGC_JOBS={t} is unreasonably large; clamping to {MAX_JOBS_CLAMP}"
            )),
        ),
        Ok(n) => (Some(n), None),
        Err(_) => (
            None,
            Some(format!(
                "TGC_JOBS=`{raw}` is not a valid job count; falling back to the default"
            )),
        ),
    }
}

fn resolve_env_jobs() -> usize {
    let raw = std::env::var("TGC_JOBS").ok();
    let (jobs, warning) = parse_jobs_env(raw.as_deref());
    if let Some(w) = warning {
        eprintln!("treegion-par: warning: {w}");
    }
    jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Overrides the job count for the whole process (clamped to ≥ 1).
/// `tgc --jobs N` and the determinism tests call this.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The effective job count: the [`set_jobs`] override if one was made,
/// otherwise [`max_jobs`].
pub fn current_jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => max_jobs(),
        n => n,
    }
}

/// Thin wrapper over [`std::thread::scope`]; exists so callers in the
/// workspace depend only on `treegion-par` for their fork/join needs.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

/// Order-preserving parallel map with the process-wide job count
/// ([`current_jobs`]). See [`par_map_jobs`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(current_jobs(), items, f)
}

/// Order-preserving parallel map: returns `vec![f(&items[0]), ...]`, with
/// up to `jobs` threads (the caller included) executing `f` concurrently.
///
/// * `jobs <= 1` (or fewer than 2 items, or an exhausted global worker
///   budget) degrades to a serial `map` on the calling thread.
/// * Worker threads pull items off a shared atomic index — no work
///   splitting heuristics, which keeps the pool fair for the coarse,
///   uneven items (regions, table cells, fuzz cases) this workspace maps
///   over.
/// * If `f` panics on any item, the panic is propagated to the caller
///   after all workers have stopped.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    // Budget: how many *extra* threads this call may spawn. The global
    // ledger keeps nested par_maps from oversubscribing the machine.
    let want = jobs.min(n) - 1;
    let granted = acquire_workers(want, jobs.saturating_sub(1));
    if granted == 0 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let run = |_worker: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&items[i])));
        }
        local
    };

    // The calling thread participates too (worker 0), and it may itself
    // panic inside `run`; catch everything so the worker budget is always
    // released before the panic resumes.
    let outcome: Result<Vec<R>, Box<dyn std::any::Any + Send>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..granted).map(|w| s.spawn(move || run(w + 1))).collect();
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(0)));
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        match mine {
            Ok(local) => {
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            }
            Err(p) => panic = Some(p),
        }
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(p) => panic = Some(p),
            }
        }
        match panic {
            Some(p) => Err(p),
            None => Ok(slots
                .into_iter()
                .map(|o| o.expect("worker produced every index"))
                .collect()),
        }
    });
    release_workers(granted);
    match outcome {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// The outcome of one task executed by [`par_map_isolated`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The task returned normally.
    Done(R),
    /// The task panicked; the panic was contained inside the pool.
    Panicked {
        /// Stringified panic payload (`&str` / `String` payloads verbatim,
        /// anything else a placeholder).
        payload: String,
        /// Label of the failed task, from the caller's labelling closure.
        task_label: String,
    },
}

impl<R> TaskOutcome<R> {
    /// `true` for [`TaskOutcome::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, TaskOutcome::Done(_))
    }

    /// Unwraps the result, or `None` for a contained panic.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Done(r) => Some(r),
            TaskOutcome::Panicked { .. } => None,
        }
    }

    /// Converts into a `Result`, mapping a contained panic to
    /// `(payload, task_label)`.
    pub fn into_result(self) -> Result<R, (String, String)> {
        match self {
            TaskOutcome::Done(r) => Ok(r),
            TaskOutcome::Panicked {
                payload,
                task_label,
            } => Err((payload, task_label)),
        }
    }
}

/// Renders a caught panic payload as a string: `&'static str` and
/// `String` payloads (the overwhelmingly common cases) come through
/// verbatim, anything else becomes a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// [`par_map_isolated_jobs`] with the process-wide job count.
pub fn par_map_isolated<T, R, F, L>(items: &[T], label: L, f: F) -> Vec<TaskOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    par_map_isolated_jobs(current_jobs(), items, label, f)
}

/// Order-preserving parallel map with per-task panic containment.
///
/// Like [`par_map_jobs`], but every task runs under `catch_unwind`: a
/// panicking task becomes [`TaskOutcome::Panicked`] (labelled by
/// `label(index, item)`) and the pool keeps draining the remaining items
/// instead of resuming the unwind. Because the unwind is caught inside the
/// worker loop, a panicking task never kills its worker, so pool capacity
/// is not silently lost; if a worker dies anyway (a pathological panic
/// payload), the calling thread drains whatever items remain and any slot
/// the dead worker had claimed but not delivered is reported as a
/// contained panic.
///
/// The determinism contract of [`par_map_jobs`] carries over: outcome `i`
/// corresponds to item `i` at every job count, and a pure `f` produces the
/// same outcomes serially and in parallel.
///
/// Tasks should treat shared state as suspect after a panic: `f` observes
/// side effects of a panicked sibling only through whatever synchronized
/// state the caller shares deliberately (the eval harness retries failed
/// cells against fresh, uncached state for exactly this reason).
pub fn par_map_isolated_jobs<T, R, F, L>(
    jobs: usize,
    items: &[T],
    label: L,
    f: F,
) -> Vec<TaskOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(usize, &T) -> String + Sync,
{
    let n = items.len();
    let isolated = |i: usize| match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
        Ok(r) => TaskOutcome::Done(r),
        Err(p) => TaskOutcome::Panicked {
            payload: panic_message(p.as_ref()),
            task_label: label(i, &items[i]),
        },
    };
    if jobs <= 1 || n <= 1 {
        return (0..n).map(isolated).collect();
    }
    let want = jobs.min(n) - 1;
    let granted = acquire_workers(want, jobs.saturating_sub(1));
    if granted == 0 {
        return (0..n).map(isolated).collect();
    }

    let next = AtomicUsize::new(0);
    let run = || {
        let mut local: Vec<(usize, TaskOutcome<R>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // catch_unwind *inside* the loop: the worker survives the
            // panic and keeps pulling items.
            local.push((i, isolated(i)));
        }
        local
    };

    let mut slots: Vec<Option<TaskOutcome<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..granted).map(|_| s.spawn(run)).collect();
        let mut slots: Vec<Option<TaskOutcome<R>>> = (0..n).map(|_| None).collect();
        for (i, r) in run() {
            slots[i] = Some(r);
        }
        let mut worker_died = false;
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                // A worker thread itself died (per-item catch_unwind makes
                // this effectively unreachable, but a panic payload whose
                // Drop panics could do it). Its claimed-but-undelivered
                // items are filled in below; the calling thread replaces
                // the dead worker for anything still unclaimed.
                Err(_) => worker_died = true,
            }
        }
        if worker_died {
            for (i, r) in run() {
                slots[i] = Some(r);
            }
        }
        slots
    });
    release_workers(granted);
    slots
        .iter_mut()
        .enumerate()
        .map(|(i, o)| {
            o.take().unwrap_or(TaskOutcome::Panicked {
                payload: "worker thread died before delivering this task".into(),
                task_label: label(i, &items[i]),
            })
        })
        .collect()
}

/// Tries to reserve up to `want` extra workers against a cap of `cap`
/// process-wide extra workers; returns how many were granted (possibly 0).
fn acquire_workers(want: usize, cap: usize) -> usize {
    loop {
        let cur = LIVE_WORKERS.load(Ordering::SeqCst);
        if cur >= cap {
            return 0;
        }
        let grant = want.min(cap - cur);
        if LIVE_WORKERS
            .compare_exchange(cur, cur + grant, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return grant;
        }
    }
}

fn release_workers(n: usize) {
    LIVE_WORKERS.fetch_sub(n, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes every test that takes workers from the global ledger or
    /// asserts on it (the default test harness runs tests on several
    /// threads, and a concurrent map's workers would show up in another
    /// test's `LIVE_WORKERS == 0` check).
    static LEDGER: Mutex<()> = Mutex::new(());

    fn ledger() -> std::sync::MutexGuard<'static, ()> {
        LEDGER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_input_order() {
        let _g = ledger();
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 8, 33] {
            let par = par_map_jobs(jobs, &items, |x| x * 3 + 1);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = ledger();
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_jobs(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map_jobs(8, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn serial_mode_spawns_no_threads() {
        let _g = ledger();
        // jobs=1 must never touch the worker budget.
        let before = LIVE_WORKERS.load(Ordering::SeqCst);
        let out = par_map_jobs(1, &[1, 2, 3], |x| {
            assert_eq!(LIVE_WORKERS.load(Ordering::SeqCst), before);
            x * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn nested_maps_complete_and_stay_ordered() {
        let _g = ledger();
        let outer: Vec<usize> = (0..8).collect();
        let got = par_map_jobs(4, &outer, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            par_map_jobs(4, &inner, move |&j| i * 100 + j)
        });
        for (i, row) in got.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, i * 100 + j);
            }
        }
    }

    #[test]
    fn worker_budget_is_released() {
        let _g = ledger();
        for _ in 0..10 {
            let items: Vec<usize> = (0..64).collect();
            let _ = par_map_jobs(4, &items, |x| x + 1);
        }
        assert_eq!(LIVE_WORKERS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn panics_propagate() {
        let _g = ledger();
        let items: Vec<usize> = (0..32).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_jobs(4, &items, |&x| {
                if x == 17 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
        // Budget must still be released after a panic inside the scope.
        assert_eq!(LIVE_WORKERS.load(Ordering::SeqCst), 0);
    }

    /// Regression test for the worker-budget ledger on the panic path: a
    /// par_map that panics *inside* another par_map must release both
    /// budgets exactly once — no deadlock, no leak, and the pool must be
    /// fully usable afterwards.
    #[test]
    fn nested_panicking_map_releases_budget() {
        let _g = ledger();
        let outer: Vec<usize> = (0..8).collect();
        for _ in 0..5 {
            let r = std::panic::catch_unwind(|| {
                par_map_jobs(4, &outer, |&i| {
                    let inner: Vec<usize> = (0..8).collect();
                    par_map_jobs(4, &inner, move |&j| {
                        if i == 3 && j == 5 {
                            panic!("inner boom");
                        }
                        i * 10 + j
                    })
                })
            });
            assert!(r.is_err(), "inner panic must propagate through both maps");
            assert_eq!(
                LIVE_WORKERS.load(Ordering::SeqCst),
                0,
                "budget leaked after nested panic"
            );
        }
        // The pool still hands out its full budget after the panics.
        let ok = par_map_jobs(4, &outer, |x| x + 1);
        assert_eq!(ok, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn isolated_map_contains_panics_and_keeps_draining() {
        let _g = ledger();
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 4] {
            let out = par_map_isolated_jobs(
                jobs,
                &items,
                |i, _| format!("task-{i}"),
                |&x| {
                    if x % 10 == 3 {
                        panic!("boom at {x}");
                    }
                    x * 2
                },
            );
            assert_eq!(out.len(), items.len(), "jobs={jobs}");
            for (i, o) in out.iter().enumerate() {
                if i % 10 == 3 {
                    match o {
                        TaskOutcome::Panicked {
                            payload,
                            task_label,
                        } => {
                            assert_eq!(payload, &format!("boom at {i}"));
                            assert_eq!(task_label, &format!("task-{i}"));
                        }
                        TaskOutcome::Done(_) => panic!("task {i} should have panicked"),
                    }
                } else {
                    assert_eq!(*o, TaskOutcome::Done(i * 2), "jobs={jobs}");
                }
            }
            assert_eq!(LIVE_WORKERS.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn isolated_map_matches_serial_outcomes() {
        let _g = ledger();
        let items: Vec<usize> = (0..97).collect();
        let serial = par_map_isolated_jobs(1, &items, |i, _| i.to_string(), |&x| x * 3);
        let parallel = par_map_isolated_jobs(8, &items, |i, _| i.to_string(), |&x| x * 3);
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(TaskOutcome::is_done));
    }

    #[test]
    fn panic_payload_rendering() {
        let p = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "<non-string panic payload>");
    }

    #[test]
    fn jobs_env_parsing_edge_cases() {
        // Unset and empty: silent hardware fallback.
        assert_eq!(parse_jobs_env(None), (None, None));
        assert_eq!(parse_jobs_env(Some("")), (None, None));
        assert_eq!(parse_jobs_env(Some("   ")), (None, None));
        // Valid values pass through (with surrounding whitespace).
        assert_eq!(parse_jobs_env(Some("4")), (Some(4), None));
        assert_eq!(parse_jobs_env(Some(" 8 ")), (Some(8), None));
        // Zero: warn + fall back.
        let (j, w) = parse_jobs_env(Some("0"));
        assert_eq!(j, None);
        assert!(w.unwrap().contains("TGC_JOBS=0"));
        // Non-numeric: warn + fall back.
        let (j, w) = parse_jobs_env(Some("many"));
        assert_eq!(j, None);
        assert!(w.unwrap().contains("not a valid job count"));
        // Huge but parseable: warn + clamp.
        let (j, w) = parse_jobs_env(Some("1000000"));
        assert_eq!(j, Some(MAX_JOBS_CLAMP));
        assert!(w.unwrap().contains("clamping"));
        // Overflowing magnitude: warn + fall back, never panic.
        let (j, w) = parse_jobs_env(Some("99999999999999999999999999"));
        assert_eq!(j, None);
        assert!(w.is_some());
        // Negative numbers don't parse as usize: warn + fall back.
        let (j, w) = parse_jobs_env(Some("-2"));
        assert_eq!(j, None);
        assert!(w.is_some());
    }

    #[test]
    fn set_jobs_overrides_env_and_hardware() {
        set_jobs(3);
        assert_eq!(current_jobs(), 3);
        set_jobs(0); // clamps to 1
        assert_eq!(current_jobs(), 1);
        set_jobs(1);
    }

    #[test]
    fn scope_runs_scoped_threads() {
        let mut a = 0u32;
        let mut b = 0u32;
        scope(|s| {
            s.spawn(|| a = 1);
            s.spawn(|| b = 2);
        });
        assert_eq!((a, b), (1, 2));
    }
}
