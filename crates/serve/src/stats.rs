//! Server-wide counters and the `/stats` report.
//!
//! Every counter is a relaxed atomic — stats are observability, not
//! control flow — and the rendered report is the same line-oriented
//! `key value` text as the rest of the workspace, so the CI smoke job
//! can `grep` it. Per-stage timings come from the engine's shared
//! [`treegion::Profiler`], the same `PassObserver` hooks that feed
//! `tgc schedule --profile`. Batch service latency is recorded into a
//! fixed-bucket log-scale [`Histogram`] and rendered as the stable
//! `latency-*` key set — the same keys `tgc loadgen` reports client-side.

use crate::histo::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use treegion::Profiler;
use treegion_eval::{CacheStats, DiskRecovery, DiskStats};

/// Monotonic service counters (see [`ServeStats::render`] for the keys).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Request frames accepted (any verb).
    pub requests: AtomicU64,
    /// Compile batches processed.
    pub batches: AtomicU64,
    /// Modules scheduled successfully (warm or cold).
    pub ok: AtomicU64,
    /// Modules answered with a structured error.
    pub errors: AtomicU64,
    /// Modules shed by admission control.
    pub shed: AtomicU64,
    /// Contained crashes (panic or watchdog/deadline escalation).
    pub contained: AtomicU64,
    /// Deadline trips among the contained crashes.
    pub deadline: AtomicU64,
    /// New quarantine files written.
    pub quarantined: AtomicU64,
    /// Known-quarantined modules fast-rejected without re-running.
    pub quarantine_rejects: AtomicU64,
    /// Modules served from the durable cache.
    pub warm: AtomicU64,
    /// Modules scheduled cold (and, when cacheable, stored).
    pub cold: AtomicU64,
    /// Hostile quarantine-directory entries skipped during the ledger
    /// rebuild (non-ledger filenames, subdirectories).
    pub ledger_skipped: AtomicU64,
    /// Connections reaped after exhausting their idle budget.
    pub idle_reaped: AtomicU64,
    /// Connections dropped for stalling mid-frame (read timeout after a
    /// frame had started).
    pub read_stalls: AtomicU64,
    /// Connections closed cleanly by the `close` verb.
    pub closes: AtomicU64,
    /// `accept` calls that found the process out of descriptors or
    /// threads; each waited for an open connection to close.
    pub accept_overload: AtomicU64,
    /// Per-batch service latency (frame accepted → `batch-end` frame
    /// about to be written).
    pub latency: Histogram,
}

/// Bumps a counter by one.
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Everything [`ServeStats::render`] needs beyond the counters
/// themselves: cache-layer stats, the startup recovery verdict, the
/// shared profiler, admission gauges, the chaos snapshot, and the
/// sharding/striping observability feeds.
pub struct RenderInputs<'a> {
    /// Formation/time/disk layer hit rates.
    pub cache: CacheStats,
    /// Startup cache-recovery verdict (None without a disk tier).
    pub recovery: Option<DiskRecovery>,
    /// Per-stage timing source.
    pub profiler: &'a Profiler,
    /// Modules currently admitted.
    pub inflight: usize,
    /// Admission high-water mark.
    pub high_water: usize,
    /// Armed chaos-plan counters (None renders zeros).
    pub chaos: Option<treegion_chaos::ChaosSnapshot>,
    /// Per-shard disk-tier counters (empty without a disk tier).
    pub shards: Vec<DiskStats>,
    /// Quarantine ledger stripe count.
    pub quarantine_stripes: usize,
    /// Quarantine ledger lock contention events.
    pub quarantine_contention: u64,
}

impl Default for RenderInputs<'_> {
    fn default() -> Self {
        // A static empty profiler so tests can build inputs tersely.
        static EMPTY: std::sync::OnceLock<Profiler> = std::sync::OnceLock::new();
        RenderInputs {
            cache: CacheStats::default(),
            recovery: None,
            profiler: EMPTY.get_or_init(Profiler::new),
            inflight: 0,
            high_water: 0,
            chaos: None,
            shards: Vec::new(),
            quarantine_stripes: 0,
            quarantine_contention: 0,
        }
    }
}

impl ServeStats {
    /// Renders the `/stats` body: service counters, cache layers (warm /
    /// cold hit rates, per-shard hit/contention counters, the startup
    /// recovery verdict), the latency histogram, and per-stage timings.
    pub fn render(&self, inputs: &RenderInputs) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut kv = |k: &str, v: String| out.push_str(&format!("{k} {v}\n"));
        kv("requests", g(&self.requests).to_string());
        kv("batches", g(&self.batches).to_string());
        kv("ok", g(&self.ok).to_string());
        kv("errors", g(&self.errors).to_string());
        kv("shed", g(&self.shed).to_string());
        kv("contained", g(&self.contained).to_string());
        kv("deadline", g(&self.deadline).to_string());
        kv("quarantined", g(&self.quarantined).to_string());
        kv(
            "quarantine-rejects",
            g(&self.quarantine_rejects).to_string(),
        );
        kv("quarantine-stripes", inputs.quarantine_stripes.to_string());
        kv(
            "quarantine-contention",
            inputs.quarantine_contention.to_string(),
        );
        kv("cache-warm", g(&self.warm).to_string());
        kv("cache-cold", g(&self.cold).to_string());
        let (w, c) = (g(&self.warm), g(&self.cold));
        let rate = if w + c == 0 {
            0.0
        } else {
            w as f64 / (w + c) as f64
        };
        kv("cache-warm-rate", format!("{rate:.3}"));
        kv("inflight", inputs.inflight.to_string());
        kv("high-water", inputs.high_water.to_string());
        kv("ledger-skipped", g(&self.ledger_skipped).to_string());
        kv("idle-reaped", g(&self.idle_reaped).to_string());
        kv("read-stalls", g(&self.read_stalls).to_string());
        kv("closes", g(&self.closes).to_string());
        kv("accept-overload", g(&self.accept_overload).to_string());
        // The latency histogram renders unconditionally (zeros before the
        // first batch) so the key set is stable for dashboards and the CI
        // loadgen-smoke grep.
        out.push_str(&self.latency.snapshot().render("latency"));
        let mut kv = |k: &str, v: String| out.push_str(&format!("{k} {v}\n"));
        // Chaos-layer counters render unconditionally (zeros when no
        // plan is armed) so dashboards and the CI smoke grep see a
        // stable key set.
        let snap = inputs.chaos.clone().unwrap_or_default();
        kv(
            "chaos-armed",
            if snap.mode.is_empty() {
                "off".to_string()
            } else {
                format!("{} seed={}", snap.mode, snap.seed)
            },
        );
        kv("chaos-ops", snap.ops.to_string());
        kv("chaos-injected-errors", snap.injected_errors.to_string());
        kv("chaos-short-writes", snap.short_writes.to_string());
        kv("chaos-crashed", snap.crashed.to_string());
        kv(
            "disk-tier",
            format!(
                "hits={} misses={}",
                inputs.cache.disk.hits, inputs.cache.disk.misses
            ),
        );
        // Per-shard counters: the striped layout's observability. The
        // shard count renders unconditionally; the per-shard lines only
        // when a disk tier is attached.
        kv("disk-shards", inputs.shards.len().to_string());
        let total_contention: u64 = inputs.shards.iter().map(|s| s.contention).sum();
        kv("disk-contention", total_contention.to_string());
        for (k, s) in inputs.shards.iter().enumerate() {
            kv(
                &format!("disk-shard-{k}"),
                format!(
                    "hits={} misses={} entries={} contention={}",
                    s.hits, s.misses, s.entries, s.contention
                ),
            );
        }
        kv(
            "formation-tier",
            format!(
                "hits={} misses={}",
                inputs.cache.formation.hits, inputs.cache.formation.misses
            ),
        );
        if let Some(r) = inputs.recovery {
            kv(
                "cache-recovery",
                format!(
                    "replayed={} dropped={} torn-tail={} compacted={}",
                    r.replayed, r.dropped, r.torn_tail, r.compacted
                ),
            );
        }
        let mut hazard_hits = 0u64;
        let mut deferral_parks = 0u64;
        let mut pressure_peak = 0u32;
        let mut pressure_parks = 0u64;
        let mut spills = 0u64;
        for p in inputs.profiler.report() {
            kv(
                &format!("stage-{}", p.stage.name()),
                format!("ns={} calls={}", p.nanos, p.calls),
            );
            hazard_hits += p.stats.hazard_hits;
            deferral_parks += p.stats.deferral_parks;
            pressure_peak = pressure_peak.max(p.stats.pressure_peak);
            pressure_parks += p.stats.pressure_parks;
            spills += p.stats.spills;
        }
        // Hazard-automaton counters, summed from the same stage stats the
        // profiler accumulates (only list-sched ever reports nonzero),
        // plus the per-preset state counts (static per build — a blown-up
        // state space shows here before it shows in memory).
        kv("automaton-hazard-hits", hazard_hits.to_string());
        kv("automaton-parks", deferral_parks.to_string());
        // Register-file counters from the same stage stats: peak combined
        // pressure across every accepted schedule, ceiling parks, and
        // spill ops inserted. All zero while the daemon compiles for the
        // default unbounded machine, but the keys render unconditionally
        // so the CI serve-smoke grep sees a stable key set.
        kv("pressure-peak", pressure_peak.to_string());
        kv("pressure-parks", pressure_parks.to_string());
        kv("spills", spills.to_string());
        use treegion_machine::MachineModel;
        kv(
            "automaton-states",
            [
                MachineModel::model_1u(),
                MachineModel::model_4u(),
                MachineModel::model_8u(),
                MachineModel::model_4u_asym(),
            ]
            .iter()
            .map(|m| format!("{}={}", m.name(), m.hazard_automaton().state_count()))
            .collect::<Vec<_>>()
            .join(" "),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_carries_every_counter() {
        let s = ServeStats::default();
        bump(&s.ok);
        bump(&s.ok);
        bump(&s.warm);
        bump(&s.shed);
        s.latency.record_us(1_500);
        let text = s.render(&RenderInputs {
            inflight: 3,
            high_water: 64,
            ..RenderInputs::default()
        });
        assert!(text.contains("ok 2\n"), "{text}");
        assert!(text.contains("shed 1\n"), "{text}");
        assert!(text.contains("cache-warm 1\n"), "{text}");
        assert!(text.contains("cache-warm-rate 1.000\n"), "{text}");
        assert!(text.contains("inflight 3\n"), "{text}");
        assert!(text.contains("high-water 64\n"), "{text}");
        assert!(text.contains("ledger-skipped 0\n"), "{text}");
        assert!(text.contains("idle-reaped 0\n"), "{text}");
        assert!(text.contains("read-stalls 0\n"), "{text}");
        assert!(text.contains("closes 0\n"), "{text}");
        assert!(text.contains("accept-overload 0\n"), "{text}");
        assert!(text.contains("latency-count 1\n"), "{text}");
        assert!(text.contains("latency-p50-us "), "{text}");
        assert!(text.contains("latency-p90-us "), "{text}");
        assert!(text.contains("latency-p99-us "), "{text}");
        assert!(text.contains("latency-p999-us "), "{text}");
        assert!(text.contains("latency-max-us 1500\n"), "{text}");
        assert!(text.contains("quarantine-stripes 0\n"), "{text}");
        assert!(text.contains("quarantine-contention 0\n"), "{text}");
        assert!(text.contains("disk-shards 0\n"), "{text}");
        assert!(text.contains("disk-contention 0\n"), "{text}");
        assert!(text.contains("chaos-armed off\n"), "{text}");
        assert!(text.contains("chaos-ops 0\n"), "{text}");
        assert!(text.contains("chaos-injected-errors 0\n"), "{text}");
        assert!(text.contains("chaos-short-writes 0\n"), "{text}");
        assert!(text.contains("chaos-crashed false\n"), "{text}");
        assert!(text.contains("stage-formation"), "{text}");
        assert!(text.contains("automaton-hazard-hits 0\n"), "{text}");
        assert!(text.contains("automaton-parks 0\n"), "{text}");
        assert!(text.contains("pressure-peak 0\n"), "{text}");
        assert!(text.contains("pressure-parks 0\n"), "{text}");
        assert!(text.contains("spills 0\n"), "{text}");
        assert!(text.contains("automaton-states "), "{text}");
        assert!(text.contains("4U-asym=36"), "{text}");
        // An armed plan renders its live counters.
        let plan = treegion_chaos::FaultPlan::parse("err-every:2", 7).unwrap();
        let text = s.render(&RenderInputs {
            chaos: Some(plan.snapshot()),
            ..RenderInputs::default()
        });
        assert!(text.contains("chaos-armed err-every:2 seed=7\n"), "{text}");
        // Recovery line appears when a scan ran.
        let text = s.render(&RenderInputs {
            recovery: Some(DiskRecovery {
                replayed: 2,
                dropped: 1,
                torn_tail: true,
                compacted: true,
            }),
            ..RenderInputs::default()
        });
        assert!(
            text.contains("cache-recovery replayed=2 dropped=1 torn-tail=true compacted=true"),
            "{text}"
        );
    }

    #[test]
    fn per_shard_lines_render_with_a_disk_tier() {
        let s = ServeStats::default();
        let text = s.render(&RenderInputs {
            shards: vec![
                DiskStats {
                    hits: 5,
                    misses: 1,
                    entries: 3,
                    contention: 2,
                },
                DiskStats::default(),
            ],
            quarantine_stripes: 16,
            quarantine_contention: 4,
            ..RenderInputs::default()
        });
        assert!(text.contains("disk-shards 2\n"), "{text}");
        assert!(text.contains("disk-contention 2\n"), "{text}");
        assert!(
            text.contains("disk-shard-0 hits=5 misses=1 entries=3 contention=2\n"),
            "{text}"
        );
        assert!(
            text.contains("disk-shard-1 hits=0 misses=0 entries=0 contention=0\n"),
            "{text}"
        );
        assert!(text.contains("quarantine-stripes 16\n"), "{text}");
        assert!(text.contains("quarantine-contention 4\n"), "{text}");
    }
}
