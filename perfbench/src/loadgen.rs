//! The open-loop load generator and the max-rate search.
//!
//! Sends are scheduled from the seed before a phase starts: the phase is
//! cut into equal slots at the offered rate and each send falls at a
//! seeded uniform point of its own slot. Arrivals then keep an exact mean
//! rate and no two slots' sends bunch up (a Poisson schedule's bursts
//! would dominate the tail), while a timer in the server with a period
//! up to about one slot cannot alias with the schedule. At most
//! `workers` operations are in flight; a send that
//! finds every worker busy starts late. Every operation is timed from its
//! *due* time, so a stall is charged to every request it delayed, and the
//! generator's own lateness (start − due) is reported separately.

use crate::stats::{mean, median, percentile, SplitMix};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lead time between setting up a phase and its first due time.
const LEAD: Duration = Duration::from_millis(20);

/// One operation's timeline, in seconds from the phase origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the operation was due to be sent.
    pub due: f64,
    /// When the generator actually started it.
    pub start: f64,
    /// When its last reply byte arrived.
    pub end: f64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency from due time to completion, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }

    /// How late the generator started the operation, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        ((self.start - self.due) * 1e3).max(0.0)
    }
}

/// Due times (seconds from the phase origin) for `n` sends at `rate`
/// per second: send `i` falls uniformly at random (seeded) in the slot
/// `[i, i + 1) / rate`.
pub fn schedule(rate: f64, n: usize, rng: &mut SplitMix) -> Vec<f64> {
    (0..n).map(|i| (i as f64 + rng.unit()) / rate).collect()
}

/// Seconds from `origin` to now (0 before the origin).
fn since(origin: Instant) -> f64 {
    Instant::now()
        .saturating_duration_since(origin)
        .as_secs_f64()
}

/// Sleeps until `deadline` (returns at once when it has passed).
fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep(deadline - now);
    }
}

/// A phase origin [`LEAD`] from now.
fn origin() -> Instant {
    Instant::now() + LEAD
}

/// Runs `op(i)` once per due time with at most `workers` operations in
/// flight. `op` returns the instant its last reply byte arrived and
/// whether it succeeded; anything it does after that instant (checking
/// the reply) is not charged to the latency. When `abort_lag_ms` is set
/// and the generator falls that far behind, the remaining sends are
/// dropped and only the samples taken so far are returned — an overload
/// probe then costs no more than the limit it already missed.
pub fn open_loop<F>(dues: &[f64], workers: usize, abort_lag_ms: Option<f64>, op: F) -> Vec<Sample>
where
    F: Fn(usize) -> (Instant, bool) + Sync,
{
    let origin = origin();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let out: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; dues.len()]);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= dues.len() || abort.load(Ordering::Relaxed) {
                    break;
                }
                sleep_until(origin + Duration::from_secs_f64(dues[i]));
                let start = since(origin);
                if abort_lag_ms.is_some_and(|lim| (start - dues[i]) * 1e3 > lim) {
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                let (done, ok) = op(i);
                let end = done.saturating_duration_since(origin).as_secs_f64();
                out.lock().expect("sample table poisoned")[i] = Some(Sample {
                    due: dues[i],
                    start,
                    end,
                    ok,
                });
            });
        }
    });
    let out = out.into_inner().expect("sample table poisoned");
    out.into_iter().flatten().collect()
}

/// What one phase of load measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Operations sent.
    pub n: usize,
    /// Operations that failed.
    pub failed: u64,
    /// Median latency, ms (failures count as missing the limit).
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99th-percentile generator lateness, ms.
    pub lag_p99_ms: f64,
    /// Whether latency grew across the phase (a backlog building up).
    pub grew: bool,
    /// Most operations outstanding (due and not yet answered) at once.
    pub high_water: usize,
    /// Wall time from the origin to the last completion, seconds.
    pub wall_s: f64,
}

impl PhaseStats {
    /// Successful completions per second of wall time.
    pub fn throughput(&self) -> f64 {
        crate::stats::ratio(
            (self.n as u64 - self.failed.min(self.n as u64)) as f64,
            self.wall_s,
        )
    }

    /// Whether the phase meets a p99 latency limit with no failures and
    /// no growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.n > 0 && self.failed == 0 && !self.grew && self.p99_ms <= limit_ms
    }
}

/// Latencies of `samples`, with every failed operation counted as at
/// least twice the limit (a failure misses any latency limit).
pub fn latencies(samples: &[Sample], limit_ms: f64) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency_ms()
            } else {
                s.latency_ms().max(2.0 * limit_ms)
            }
        })
        .collect()
}

/// Whether latency grew across the phase: the mean latency of the later
/// half of the sends (by due time) is more than twice that of the earlier
/// half and the rise exceeds a tenth of the limit.
pub fn backlog_grew(samples: &[Sample], limit_ms: f64) -> bool {
    if samples.len() < 4 {
        return false;
    }
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let half = by_due.len() / 2;
    let lat = |xs: &[&Sample]| mean(&xs.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
    let (first, second) = (lat(&by_due[..half]), lat(&by_due[half..]));
    second > 2.0 * first && second - first > 0.1 * limit_ms
}

/// Most operations outstanding at once: due but not yet answered.
pub fn high_water(samples: &[Sample]) -> usize {
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        events.push((s.due, 1));
        events.push((s.end, -1));
    }
    // Completions sort before arrivals at the same instant.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// Summarizes a phase against a latency limit, with its percentiles
/// taken over `windows` windows (see [`windowed`]). `planned` is the
/// number of sends scheduled: sends an aborted phase dropped count as
/// failures.
pub fn summarize(samples: &[Sample], planned: usize, limit_ms: f64, windows: usize) -> PhaseStats {
    let lags: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
    let dropped = planned.saturating_sub(samples.len()) as u64;
    let (p50_ms, p99_ms) = windowed(samples, limit_ms, windows);
    PhaseStats {
        n: planned,
        failed: samples.iter().filter(|s| !s.ok).count() as u64 + dropped,
        p50_ms,
        p99_ms,
        lag_p99_ms: percentile(&lags, 0.99),
        grew: backlog_grew(samples, limit_ms),
        high_water: high_water(samples),
        wall_s: samples.iter().map(|s| s.end).fold(0.0, f64::max),
    }
}

/// Fewest samples in a percentile window: its p99 then has at least one
/// sample beyond it.
pub const MIN_WINDOW: usize = 100;

/// Median and 99th-percentile latency of a phase, each taken as the
/// median over up to `windows` consecutive windows (by due time) of at
/// least [`MIN_WINDOW`] samples of that window's percentile, so one
/// stall of the machine moves one window, not the result. Failures count
/// as missing the limit.
pub fn windowed(samples: &[Sample], limit_ms: f64, windows: usize) -> (f64, f64) {
    let mut by_due = samples.to_vec();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let windows = windows.min(by_due.len() / MIN_WINDOW).max(1);
    let size = by_due.len().div_ceil(windows).max(1);
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = by_due
        .chunks(size)
        .map(|w| {
            let lat = latencies(w, limit_ms);
            (percentile(&lat, 0.5), percentile(&lat, 0.99))
        })
        .unzip();
    (median(&p50s), median(&p99s))
}

/// A geometric ladder of offered rates from `lo` up to at most `hi`,
/// each rung `step` times the previous.
pub fn ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut rungs = Vec::new();
    let mut r = lo;
    while r <= hi * (1.0 + 1e-9) {
        rungs.push(r);
        r *= step;
    }
    rungs
}

/// The index of the highest rung of a ladder of `len` rungs that meets
/// the limit, found by bisection. `good` is a rung already known to meet
/// and `bad` one known to miss; `meets(i)` probes rung `i`. Assumes that
/// a rung meets whenever a higher one does. `None` when no rung meets.
pub fn highest_meeting(
    len: usize,
    good: Option<usize>,
    bad: Option<usize>,
    mut meets: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let mut lo: isize = good.map_or(-1, |g| g as isize);
    let mut hi: isize = bad.map_or(len as isize, |b| b as isize);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if meets(mid as usize) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    usize::try_from(lo).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due: f64, start: f64, end: f64) -> Sample {
        Sample {
            due,
            start,
            end,
            ok: true,
        }
    }

    #[test]
    fn latency_and_lateness_count_from_the_due_time() {
        let s = sample(1.0, 1.004, 1.010);
        assert!((s.latency_ms() - 10.0).abs() < 1e-9);
        assert!((s.lag_ms() - 4.0).abs() < 1e-9);
        // Starting early (timer slop) is not negative lateness.
        assert_eq!(sample(1.0, 0.999, 1.01).lag_ms(), 0.0);
    }

    #[test]
    fn schedule_is_seeded_one_send_per_slot_and_does_not_alias() {
        let a = schedule(100.0, 20_000, &mut SplitMix::new(1));
        assert_eq!(a, schedule(100.0, 20_000, &mut SplitMix::new(1)));
        assert_ne!(a, schedule(100.0, 20_000, &mut SplitMix::new(2)));
        for (i, d) in a.iter().enumerate() {
            assert!((i as f64 / 100.0..(i + 1) as f64 / 100.0).contains(d));
        }
        // Against a 15 ms server timer the arrival phase is uniform at
        // the serve workloads' slot lengths (10 to 20 ms): thirds of the
        // period each get a third of the sends.
        for rate in [50.0, 100.0] {
            let dues = schedule(rate, 30_000, &mut SplitMix::new(3));
            for third in 0..3 {
                let share = dues
                    .iter()
                    .filter(|t| ((*t % 0.015) / 0.005) as usize == third)
                    .count() as f64
                    / dues.len() as f64;
                assert!(
                    (share - 1.0 / 3.0).abs() < 0.02,
                    "{rate}/s third {third}: {share}"
                );
            }
        }
    }

    #[test]
    fn summary_percentiles_come_from_exact_samples() {
        // 100 sends 10 ms apart; send i takes i/20 ms plus 2 ms of lateness
        // on every tenth send, so sends never overlap.
        let samples: Vec<Sample> = (0..100)
            .map(|i| {
                let due = i as f64 * 0.01;
                let lag = if i % 10 == 0 { 0.002 } else { 0.0 };
                sample(due, due + lag, due + lag + i as f64 * 5e-5)
            })
            .collect();
        let st = summarize(&samples, 100, 50.0, 1);
        assert_eq!(st.n, 100);
        assert_eq!(st.failed, 0);
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        assert!((st.p50_ms - percentile(&lat, 0.5)).abs() < 1e-12);
        assert!((st.p99_ms - percentile(&lat, 0.99)).abs() < 1e-12);
        assert!((st.lag_p99_ms - 2.0).abs() < 1e-9);
        assert!(!st.grew);
        assert_eq!(st.high_water, 1);
        assert!(st.meets(50.0));
        assert!(!st.meets(5.0));
        // 100 completions, the last 4.95 ms after its due time at 0.99 s.
        assert!(
            (st.throughput() - 100.0 / (0.99 + 0.00495)).abs() < 1e-6,
            "{}",
            st.throughput()
        );
    }

    #[test]
    fn failures_and_dropped_sends_miss_the_limit() {
        let mut samples: Vec<Sample> = (0..10)
            .map(|i| sample(i as f64, i as f64, i as f64 + 0.001))
            .collect();
        samples[3].ok = false;
        let st = summarize(&samples, 12, 10.0, 1);
        assert_eq!(st.failed, 3);
        assert!(!st.meets(10.0));
        assert!(latencies(&samples, 10.0)[3] >= 20.0);
    }

    #[test]
    fn windowed_percentiles_ignore_a_stall_in_one_window() {
        // 1000 sends of 1 ms each; a 40 ms stall delays twenty of them.
        let samples: Vec<Sample> = (0..1000)
            .map(|i| {
                let due = i as f64 * 0.002;
                let stall = if (100..120).contains(&i) { 0.04 } else { 0.0 };
                sample(due, due, due + 0.001 + stall)
            })
            .collect();
        let whole = summarize(&samples, 1000, 100.0, 1);
        assert!(whole.p99_ms > 30.0, "{whole:?}");
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        assert_eq!(whole.p99_ms, percentile(&lat, 0.99));
        let st = summarize(&samples, 1000, 100.0, 5);
        assert!(
            (st.p50_ms - 1.0).abs() < 1e-6 && (st.p99_ms - 1.0).abs() < 1e-6,
            "{st:?}"
        );
        // Windows never hold fewer than MIN_WINDOW samples.
        assert_eq!(
            summarize(&samples[..MIN_WINDOW * 2 - 1], MIN_WINDOW * 2 - 1, 100.0, 5).p99_ms,
            {
                let lat: Vec<f64> = samples[..MIN_WINDOW * 2 - 1]
                    .iter()
                    .map(Sample::latency_ms)
                    .collect();
                percentile(&lat, 0.99)
            }
        );
    }

    #[test]
    fn a_growing_backlog_is_detected() {
        // Service slower than arrivals: each send waits for all earlier ones.
        let grow: Vec<Sample> = (0..100)
            .map(|i| {
                let due = i as f64 * 0.001;
                let end = (i + 1) as f64 * 0.002;
                sample(due, end - 0.002, end)
            })
            .collect();
        assert!(backlog_grew(&grow, 10.0));
        assert!(high_water(&grow) > 40);
        let steady: Vec<Sample> = (0..100)
            .map(|i| sample(i as f64 * 0.01, i as f64 * 0.01, i as f64 * 0.01 + 0.002))
            .collect();
        assert!(!backlog_grew(&steady, 10.0));
    }

    #[test]
    fn open_loop_runs_every_send_and_caps_concurrency() {
        let inflight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let dues = vec![0.0; 12];
        let samples = open_loop(&dues, 3, None, |_| {
            let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
            inflight.fetch_sub(1, Ordering::SeqCst);
            (Instant::now(), true)
        });
        assert_eq!(samples.len(), 12);
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert!(samples.iter().all(|s| s.end >= s.start && s.start >= s.due));
    }

    #[test]
    fn an_overloaded_phase_aborts_early() {
        let dues: Vec<f64> = (0..200).map(|i| i as f64 * 1e-4).collect();
        let samples = open_loop(&dues, 1, Some(5.0), |_| {
            std::thread::sleep(Duration::from_millis(1));
            (Instant::now(), true)
        });
        assert!(samples.len() < 200);
        assert!(!summarize(&samples, 200, 100.0, 1).meets(100.0));
    }

    /// A fake latency curve: an M/D/1-like knee at `cap` requests/s.
    fn fake_p99(rate: f64, cap: f64) -> f64 {
        if rate >= cap {
            f64::INFINITY
        } else {
            2.0 / (1.0 - rate / cap)
        }
    }

    #[test]
    fn max_rate_search_finds_the_knee_of_a_fake_curve() {
        let rungs = ladder(10.0, 1000.0, 1.05);
        assert!((rungs[0] - 10.0).abs() < 1e-12);
        assert!(*rungs.last().unwrap() <= 1000.0 + 1e-6);
        for (cap, limit) in [(133.0, 20.0), (500.0, 8.0), (2000.0, 5.0)] {
            let mut probes = 0;
            let found = highest_meeting(rungs.len(), None, None, |i| {
                probes += 1;
                fake_p99(rungs[i], cap) <= limit
            });
            let want = rungs.iter().rposition(|&r| fake_p99(r, cap) <= limit);
            assert_eq!(found, want, "cap {cap}");
            // Bisection: about log2(rungs) probes.
            assert!(probes <= 8, "{probes} probes");
        }
        // Hints narrow the search and are trusted.
        let mut probes = 0;
        let found = highest_meeting(rungs.len(), Some(40), Some(44), |i| {
            probes += 1;
            i <= 42
        });
        assert_eq!(found, Some(42));
        assert!(probes <= 2);
        // Nothing meets: no rate.
        assert_eq!(highest_meeting(rungs.len(), None, None, |_| false), None);
        // Everything meets: the top rung.
        assert_eq!(
            highest_meeting(rungs.len(), None, None, |_| true),
            Some(rungs.len() - 1)
        );
    }
}
