//! The measured phases every workload shares: a light and a heavy fixed
//! offered rate, then the max-rate search.

use crate::loadgen::{highest_meeting, ladder, summarize, PhaseStats, Sample};
use crate::metrics::Report;

/// Windows each phase or probe is split into for its percentiles.
pub const WINDOWS: usize = 9;

/// A workload's frozen load plan. Rates are requests per second, fixed
/// numbers chosen from measured capacity, never fractions of a run's own
/// capacity.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The light offered rate.
    pub light_rps: f64,
    /// The heavy offered rate.
    pub heavy_rps: f64,
    /// The p99 latency limit the max-rate search holds to, ms.
    pub limit_ms: f64,
    /// Lowest rung of the search ladder.
    pub ladder_lo: f64,
    /// Highest rung of the search ladder.
    pub ladder_hi: f64,
    /// Ratio between neighbouring rungs.
    pub ladder_step: f64,
    /// Share of the run's `--seconds` each light or heavy phase lasts.
    pub phase_share: f64,
    /// Share of the run's `--seconds` each search probe lasts.
    pub probe_share: f64,
    /// Fewest requests in any phase or probe.
    pub min_requests: usize,
}

impl Plan {
    /// Requests in a phase lasting `share` of `seconds` at `rate`.
    pub fn requests(&self, rate: f64, share: f64, seconds: f64) -> usize {
        ((rate * share * seconds).round() as usize).max(self.min_requests)
    }
}

/// What the phases measured, for the per-layer metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// The light phase.
    pub light: PhaseStats,
    /// The heavy phase.
    pub heavy: PhaseStats,
    /// Latency samples taken across all phases and probes.
    pub samples: usize,
}

/// Runs the light and heavy phases and the max-rate search through
/// `phase(rate, n, abort_lag_ms)`, which sends `n` requests at `rate`
/// and returns their samples. Sets the `light_*`, `heavy_*` and
/// `max_rps` metrics and counts every request in `report`.
pub fn run_plan(
    plan: &Plan,
    seconds: f64,
    report: &mut Report,
    mut phase: impl FnMut(f64, usize, Option<f64>) -> Vec<Sample>,
) -> Measured {
    let mut m = Measured::default();
    let mut run = |rate: f64, n: usize, abort: Option<f64>, report: &mut Report| {
        let samples = phase(rate, n, abort);
        let failed = samples.iter().filter(|s| !s.ok).count() as u64;
        report.ops(samples.len() as u64, failed);
        m.samples += samples.len();
        summarize(&samples, n, plan.limit_ms, WINDOWS)
    };
    let phase_n = |rate: f64| plan.requests(rate, plan.phase_share, seconds);
    let light = run(plan.light_rps, phase_n(plan.light_rps), None, report);
    let heavy = run(plan.heavy_rps, phase_n(plan.heavy_rps), None, report);
    crate::note(&format!("light {:.1}/s: {light:?}", plan.light_rps));
    crate::note(&format!("heavy {:.1}/s: {heavy:?}", plan.heavy_rps));
    report.set("light_p50_ms", light.p50_ms);
    report.set("light_p99_ms", light.p99_ms);
    report.set("heavy_p50_ms", heavy.p50_ms);
    report.set("heavy_p99_ms", heavy.p99_ms);

    let rungs = ladder(plan.ladder_lo, plan.ladder_hi, plan.ladder_step);
    let below = |rate: f64| rungs.iter().rposition(|&r| r <= rate * (1.0 + 1e-9));
    let good = if heavy.meets(plan.limit_ms) {
        below(plan.heavy_rps)
    } else if light.meets(plan.limit_ms) {
        below(plan.light_rps)
    } else {
        None
    };
    // A rung that misses is probed once more before it counts as a miss,
    // so a stall of the machine during one probe does not halve the result.
    // The result is the throughput achieved at the highest rung that met
    // (or at the phase that vouched for the starting rung).
    let vouched = if heavy.meets(plan.limit_ms) {
        &heavy
    } else {
        &light
    };
    let mut achieved = vec![None; rungs.len()];
    let found = highest_meeting(rungs.len(), good, None, |i| {
        let rate = rungs[i];
        let n = plan.requests(rate, plan.probe_share, seconds);
        (0..2).any(|_| {
            let st = run(rate, n, Some(plan.limit_ms), report);
            let meets = st.meets(plan.limit_ms);
            if meets {
                achieved[i] = Some(st.throughput());
            }
            crate::note(&format!(
                "probe {rate:.1}/s: p99 {:.2} ms, failed {}, grew {} -> {}",
                st.p99_ms,
                st.failed,
                st.grew,
                if meets { "meets" } else { "misses" }
            ));
            meets
        })
    });
    let max_rps = found.map_or(0.0, |i| achieved[i].unwrap_or_else(|| vouched.throughput()));
    report.set("max_rps", max_rps);
    m.light = light;
    m.heavy = heavy;
    m
}

impl Measured {
    /// Sets the load generator's own per-layer metrics: the worse of the
    /// two phases' p99 lateness, and the samples taken.
    pub fn report_loadgen(&self, report: &mut Report) {
        let lag = self.light.lag_p99_ms.max(self.heavy.lag_p99_ms);
        report.set("loadgen.lag_p99_ms", lag);
        report.set("loadgen.samples", self.samples as f64);
    }

    /// Most requests outstanding at once in the light or heavy phase.
    pub fn high_water(&self) -> usize {
        self.light.high_water.max(self.heavy.high_water)
    }
}
