//! Per-layer measurements taken from outside the program, by timing
//! calls into its public functions on the workload's own inputs.

use crate::metrics::Report;
use crate::stats::{median, ratio};
use crate::trace::{SpanObserver, Trace};
use std::hint::black_box;
use std::path::Path;
use treegion::{
    FallbackLevel, Heuristic, Pipeline, Profiler, RegionConfig, RegionFormer, RobustOptions,
    ScheduleOptions, Stage, TailDupLimits,
};
use treegion_eval::{shard_path, DiskCache, FormationCache};
use treegion_ir::{parse_module, Function};
use treegion_machine::MachineModel;
use treegion_serve::{
    parse_response, read_frame, render_compile_seq, write_frame, Admission, BatchOptions, Engine,
    EngineConfig, ModuleRequest, DEFAULT_CACHE_SHARDS,
};

/// The configuration every workload compiles for: the paper's Fig. 13
/// tail-duplicated treegions (expansion limit 2.0), global-weight
/// heuristic with dominator parallelism, on the 8-issue machine.
pub fn fig13_kind() -> RegionConfig {
    RegionConfig::TreegionTd(TailDupLimits::expansion_2_0())
}

/// The robust-pipeline options of that configuration.
pub fn fig13_options() -> RobustOptions {
    RobustOptions {
        sched: ScheduleOptions {
            heuristic: Heuristic::GlobalWeight,
            dominator_parallelism: true,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Replays the core pipeline over `functions` with the job count at 1,
/// so every stage span is one thread's self time: plain treegion
/// formation timed per call, then the robust pipeline for the Fig. 13
/// configuration under a [`SpanObserver`]. Sets the `core.*` metrics.
pub fn replay_core(functions: &[&Function], trace: &Trace, report: &mut Report) {
    let machine = MachineModel::model_8u();
    let pipeline = Pipeline::with_options(&machine, fig13_options());
    let kind = fig13_kind();
    let profiler = Profiler::new();
    let jobs = treegion_par::current_jobs();
    treegion_par::set_jobs(1);
    let (mut form_s, mut in_ops, mut fallbacks) = (0.0, 0usize, 0usize);
    for (i, f) in functions.iter().enumerate() {
        let req = Some(i as u64);
        let (formed, secs, _) =
            trace.time("core.form", None, req, || RegionConfig::Treegion.form(f));
        black_box(formed);
        form_s += secs;
        in_ops += f.num_ops();
        let root = trace.begin("core.run_function", None, req);
        let obs = SpanObserver {
            trace,
            parent: Some(root),
            req,
            profiler: &profiler,
        };
        let run = pipeline.run_function(f, &kind, &obs);
        trace.end(root);
        if let Ok(run) = run {
            fallbacks += run
                .result
                .outcomes
                .iter()
                .filter(|o| o.level != FallbackLevel::Primary)
                .count();
        }
    }
    treegion_par::set_jobs(jobs);
    let stages = profiler.report();
    let stage = |s: Stage| {
        stages
            .iter()
            .find(|p| p.stage == s)
            .expect("every stage reports")
    };
    let lowered = stage(Stage::Lowering).stats.ops as f64;
    let per_op = |s: Stage, ops: f64| ratio(stage(s).nanos as f64, ops);
    report.set("core.form.ns_per_op", ratio(form_s * 1e9, in_ops as f64));
    report.set(
        "core.form_td.ns_per_op",
        per_op(Stage::Formation, in_ops as f64),
    );
    report.set("core.lower.ns_per_op", per_op(Stage::Lowering, lowered));
    report.set("core.ddg.ns_per_op", per_op(Stage::DdgBuild, lowered));
    report.set("core.sched.ns_per_op", per_op(Stage::ListSched, lowered));
    report.set("core.verify.ns_per_op", per_op(Stage::Verify, lowered));
    let sched = stage(Stage::ListSched).stats;
    report.set("core.lowered_ops", lowered);
    report.set("core.ddg_edges", stage(Stage::DdgBuild).stats.edges as f64);
    report.set("core.hazard_hits", sched.hazard_hits as f64);
    report.set("core.deferral_parks", sched.deferral_parks as f64);
    report.set("core.pressure_parks", sched.pressure_parks as f64);
    report.set("core.spills", sched.spills as f64);
    report.set("core.fallbacks", fallbacks as f64);
}

/// Median microseconds per call of `parse_module` over `texts`.
pub fn parse_us(texts: &[&str], trace: &Trace) -> f64 {
    let times: Vec<f64> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (m, secs, _) = trace.time("ir.parse", None, Some(i as u64), || parse_module(t));
            black_box(m.is_ok());
            secs * 1e6
        })
        .collect();
    median(&times)
}

/// Median microseconds per `FormationCache::disk_put` (an fsynced
/// append) of `entries` — `(module digest, payload)` — into a fresh
/// sharded cache at `base`.
pub fn put_us(base: &Path, entries: &[(u64, &str)], trace: &Trace) -> Result<f64, String> {
    let cache = FormationCache::new();
    cache.attach_disk_sharded(base, DEFAULT_CACHE_SHARDS, None)?;
    let mut times = Vec::with_capacity(entries.len());
    for (i, (digest, payload)) in entries.iter().enumerate() {
        let (r, secs, _) = trace.time("cache.put", None, Some(i as u64), || {
            cache.disk_put(*digest, "perfbench", payload)
        });
        r?;
        times.push(secs * 1e6);
    }
    Ok(median(&times))
}

/// Median microseconds per durable-cache read over every record a
/// server left in the sharded cache at `base`, and the share of reads
/// that returned the stored payload.
pub fn get_us(base: &Path, trace: &Trace) -> Result<(f64, f64), String> {
    let mut records = Vec::new();
    for k in 0..DEFAULT_CACHE_SHARDS {
        let (shard, _) = DiskCache::open(&shard_path(base, k))?;
        records.extend(shard.entries());
    }
    let cache = FormationCache::new();
    cache.attach_disk_sharded(base, DEFAULT_CACHE_SHARDS, None)?;
    let disk = cache.disk().ok_or("no disk tier attached")?;
    let (mut times, mut hits) = (Vec::with_capacity(records.len()), 0usize);
    for (i, (key, payload)) in records.iter().enumerate() {
        let (got, secs, _) = trace.time("cache.get", None, Some(i as u64), || disk.get(*key));
        hits += usize::from(got.as_deref() == Some(payload.as_str()));
        times.push(secs * 1e6);
    }
    Ok((median(&times), ratio(hits as f64, records.len() as f64)))
}

/// Median seconds of `Engine::open` (the cache recovery scan) over the
/// durable cache at `base`, taken `reps` times.
pub fn recovery_s(base: &Path, reps: usize, trace: &Trace) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (engine, secs, _) = trace.time("cache.recovery", None, None, || {
            Engine::open(&EngineConfig {
                cache_path: Some(base.to_path_buf()),
                ..EngineConfig::default()
            })
        });
        engine?;
        times.push(secs);
    }
    Ok(median(&times))
}

/// Milliseconds `Engine::process_batch` takes for each batch, in order,
/// on an in-process engine over the durable cache at `base`.
pub fn engine_ms(
    base: &Path,
    opts: &BatchOptions,
    batches: &[Vec<ModuleRequest>],
    trace: &Trace,
) -> Result<Vec<f64>, String> {
    let engine = Engine::open(&EngineConfig {
        cache_path: Some(base.to_path_buf()),
        ..EngineConfig::default()
    })?;
    let admission = Admission::new(64, 100);
    Ok(batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let (replies, secs, _) = trace.time("serve.engine", None, Some(i as u64), || {
                engine.process_batch(&admission, opts, b)
            });
            black_box(replies);
            secs * 1e3
        })
        .collect())
}

/// Microseconds to encode each batch into a length-prefixed request
/// frame (`render_compile_seq` + `write_frame`), as `tgc client` sends it.
pub fn encode_us(opts: &BatchOptions, batches: &[Vec<ModuleRequest>], trace: &Trace) -> Vec<f64> {
    batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let (bytes, secs, _) = trace.time("protocol.encode", None, Some(i as u64), || {
                let mut buf = Vec::new();
                write_frame(&mut buf, &render_compile_seq(opts, None, b)).map(|()| buf)
            });
            black_box(bytes.ok());
            secs * 1e6
        })
        .collect()
}

/// Microseconds to decode each request's reply frames from the wire
/// bytes (`read_frame` + `parse_response`).
pub fn decode_us(replies: &[Vec<String>], trace: &Trace) -> Vec<f64> {
    replies
        .iter()
        .enumerate()
        .map(|(i, frames)| {
            let mut wire = Vec::new();
            for f in frames {
                write_frame(&mut wire, f).expect("in-memory frame write");
            }
            let (n, secs, _) = trace.time("protocol.decode", None, Some(i as u64), || {
                let mut r = wire.as_slice();
                let mut n = 0usize;
                while let Ok(Some(f)) = read_frame(&mut r) {
                    n += usize::from(parse_response(&f).is_ok());
                }
                n
            });
            black_box(n);
            secs * 1e6
        })
        .collect()
}
