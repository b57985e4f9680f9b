//! The `serve_cold` workload, against a `tgc serve` child process.
//!
//! Traffic is shaped like `tgc client`: a new connection per request, at
//! most nproc in flight, each request one function of the suite in a
//! module nobody has sent before. Every request runs parse/verify, the
//! robust pipeline and an fsynced cache append. After the measured
//! phases the server restarts on the cache it wrote and every module of
//! the fixed request set is fetched again as pipelined batches: the read
//! side, checked for byte-identical warm hits (and, traced, its layers).
//!
//! Requests compile for the Fig. 13 tree(2.0) configuration on the
//! 8-issue machine, so the code-quality sums match the `eval` workload's.

use crate::inputs::{Corpus, Draw, Drawn};
use crate::layers::{self, fig13_kind, fig13_options};
use crate::loadgen::{open_loop, schedule, summarize, Sample};
use crate::metrics::Report;
use crate::phases::{run_plan, Plan, WINDOWS};
use crate::server::{compile_once, connect, is_batch_end, Server, Timings};
use crate::stats::{gmean, median, ratio, SplitMix};
use crate::trace::Trace;
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use treegion::{Heuristic, NullObserver, Pipeline};
use treegion_eval::{baseline_time, fnv1a};
use treegion_ir::{parse_module, Module};
use treegion_machine::MachineModel;
use treegion_serve::{
    parse_request, parse_response, read_frame, render_compile_seq, write_frame, BatchOptions,
    Engine, EngineConfig, ModuleReply, ModuleRequest, Poison, ResultStatus, MAGIC,
};
use treegion_sim::{interpret, State, VliwProgram};

/// Frozen load plan of `serve_cold`: requests per second.
pub const COLD: Plan = Plan {
    light_rps: 25.0,
    heavy_rps: 80.0,
    limit_ms: 40.0,
    ladder_lo: 10.0,
    ladder_hi: 2000.0,
    ladder_step: 1.06,
    phase_share: 0.4,
    probe_share: 0.03,
    min_requests: 60,
};

/// Modules per batch when the fixed request set is fetched warm.
const WARM_BATCH: usize = 8;

/// Server starts per set-up measurement.
const SETUP_REPS: usize = 9;

/// Simulator fuel: blocks a function may enter before it counts as hung.
const FUEL: u64 = 1_000_000;

/// The options every request carries, exactly as the server parses them
/// from the rendered frame.
fn request_options() -> Result<BatchOptions, String> {
    let opts = BatchOptions {
        kind: fig13_kind(),
        machine: MachineModel::model_8u(),
        heuristic: Heuristic::GlobalWeight,
        dompar: true,
        deadline_ms: None,
    };
    let probe = module_request("module @probe\n".into());
    Ok(parse_request(&render_compile_seq(&opts, None, &[probe]))?.options)
}

fn module_request(text: String) -> ModuleRequest {
    ModuleRequest {
        text,
        poison: Poison::default(),
    }
}

/// A payload without its first two lines (`module @name`, `digest`),
/// which differ between renamed copies of one function.
fn strip_names(payload: &str) -> &str {
    payload.splitn(3, '\n').nth(2).unwrap_or("")
}

/// Σ `ops` over a payload's region lines, and its total `time`.
fn payload_sums(payload: &str) -> Option<(f64, usize)> {
    let mut time = None;
    let mut ops = 0usize;
    for line in payload.lines() {
        if let Some(t) = line.strip_prefix("time ") {
            time = t.parse().ok();
        } else if line.starts_with("region ") {
            let mut words = line.split(' ');
            words.find(|w| *w == "ops")?;
            ops += words.next()?.parse::<usize>().ok()?;
        }
    }
    Some((time?, ops))
}

/// A durable-cache directory under the run's work directory.
fn cache_path(args: &Args, name: &str) -> Result<std::path::PathBuf, String> {
    let dir = args.work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join("cache.tgc"))
}

/// Starts the server `SETUP_REPS` times on `cache`, keeping the last;
/// reports the median start-up as `setup_s`.
fn set_up(args: &Args, cache: &Path, report: &mut Report) -> Result<Server, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (server, secs) = Server::start(&args.tgc, cache)?;
        times.push(secs);
        server.stop()?;
    }
    let (server, secs) = Server::start(&args.tgc, cache)?;
    times.push(secs);
    report.set("setup_s", median(&times));
    Ok(server)
}

/// The `stats` verb's counters, stored in the trace under `label`.
fn snapshot(server: &Server, trace: Option<&Trace>, label: &str) -> BTreeMap<String, u64> {
    let raw = server.stats().unwrap_or_default();
    let counters = raw
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.parse().ok()?)))
        .collect();
    if let Some(t) = trace {
        t.counters(label, raw);
    }
    counters
}

/// Growth of counter `key` between two snapshots.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> u64 {
    after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(key).copied().unwrap_or(0))
}

/// Code-quality sums over one payload per suite function (`bodies[u]`
/// for unit `u`): Σ time, Σ ops, and the geometric mean over the eight
/// programs of (1U basic-block time ÷ served time).
fn report_code(corpus: &Corpus, bodies: &[Option<String>], report: &mut Report) {
    let sums: Vec<Option<(f64, usize)>> = bodies
        .iter()
        .map(|b| b.as_deref().and_then(payload_sums))
        .collect();
    if !report.check(
        sums.iter().all(Option::is_some),
        "a payload for every suite function",
    ) {
        for m in ["code_cycles", "code_ops", "speedup_gmean"] {
            report.set(m, 0.0);
        }
        return;
    }
    let sums: Vec<(f64, usize)> = sums.into_iter().flatten().collect();
    report.set("code_cycles", sums.iter().map(|s| s.0).sum());
    report.set("code_ops", sums.iter().map(|s| s.1 as f64).sum());
    let mut per_program = vec![(0.0, 0.0); corpus.programs.len()];
    for (u, &(p, k)) in corpus.units.iter().enumerate() {
        let mut m = Module::new("baseline");
        m.add_function(corpus.programs[p].functions()[k].clone());
        per_program[p].0 += baseline_time(&m);
        per_program[p].1 += sums[u].0;
    }
    let speedups: Vec<f64> = per_program.iter().map(|(b, t)| ratio(*b, *t)).collect();
    report.set("speedup_gmean", gmean(&speedups));
}

/// In-process reference payload (names stripped) for every suite
/// function, from an engine with no cache.
fn reference_payloads(
    fixed: &[Drawn],
    units: usize,
    opts: &BatchOptions,
) -> Result<Vec<String>, String> {
    let engine = Engine::open(&EngineConfig::default())?;
    let mut by_unit = vec![String::new(); units];
    let replies = treegion_par::par_map(fixed, |d| {
        engine.compile_module(opts, &module_request(d.text.clone()))
    });
    for (d, reply) in fixed.iter().zip(replies) {
        match reply {
            ModuleReply::Ok { payload, .. } => by_unit[d.unit] = strip_names(&payload).to_string(),
            other => return Err(format!("in-process compile failed: {other:?}")),
        }
    }
    Ok(by_unit)
}

/// Compiles a sent module in process for the Fig. 13 configuration, runs
/// it on the VLIW simulator over the accepted partition, and compares
/// return value and memory with the sequential interpreter.
fn simulates_correctly(text: &str) -> bool {
    let Ok(module) = parse_module(text) else {
        return false;
    };
    let machine = MachineModel::model_8u();
    let ropts = fig13_options();
    let pipeline = Pipeline::with_options(&machine, ropts.clone());
    module.functions().iter().all(|f| {
        let Ok(reference) = interpret(f, State::new(), FUEL) else {
            return false;
        };
        let Ok(run) = pipeline.run_function(f, &fig13_kind(), &NullObserver) else {
            return false;
        };
        let accepted = run.result.region_set();
        let prog = VliwProgram::compile(
            &run.formed.function,
            &accepted,
            &machine,
            &ropts.sched,
            Some(&run.formed.origin),
        );
        prog.execute(State::new(), FUEL)
            .is_ok_and(|got| got.ret == reference.ret && got.state.mem == reference.state.mem)
    })
}

/// One cold request's reply, as the client saw it.
struct ColdReply {
    timings: Timings,
    frames: Vec<String>,
    /// The payload, when the reply was a correct cold result.
    body: Option<String>,
}

/// Whether a cold reply is one `ok` result, computed cold (never from
/// the cache), whose payload matches `expected` with names stripped.
/// Returns the payload.
fn check_cold(frames: &[String], expected: &str) -> Option<String> {
    let [result, end] = frames else {
        return None;
    };
    let r = parse_response(result).ok()?;
    let e = parse_response(end).ok()?;
    let fresh = r.status == Some(ResultStatus::Ok) && r.key("cache") == Some("cold");
    let right = strip_names(&r.body) == expected;
    (fresh && right && e.key("ok") == Some("1")).then_some(r.body)
}

/// Sends `reqs` open loop at `dues` over a fresh connection each, at most
/// `workers` in flight, checking every reply against `expected` (indexed
/// by unit). Returns the samples and each request's reply.
fn cold_phase(
    addr: &str,
    opts: &BatchOptions,
    reqs: &[Drawn],
    expected: &[String],
    dues: &[f64],
    workers: usize,
    abort: Option<f64>,
) -> (Vec<Sample>, Vec<Option<ColdReply>>) {
    let frames: Vec<String> = reqs
        .iter()
        .map(|d| render_compile_seq(opts, None, &[module_request(d.text.clone())]))
        .collect();
    let replies: Mutex<Vec<Option<ColdReply>>> =
        Mutex::new((0..reqs.len()).map(|_| None).collect());
    let samples = open_loop(dues, workers, abort, |i| {
        let mut t = Timings::default();
        let got = compile_once(addr, &frames[i], &mut t);
        let done = t.done.unwrap_or_else(Instant::now);
        let frames = got.unwrap_or_default();
        let body = check_cold(&frames, &expected[reqs[i].unit]);
        let ok = body.is_some();
        replies.lock().expect("reply table poisoned")[i] = Some(ColdReply {
            timings: t,
            frames,
            body,
        });
        (done, ok)
    });
    (samples, replies.into_inner().expect("reply table poisoned"))
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, trace: Option<&Trace>) -> Result<(), String> {
    let nproc = crate::nproc();
    let corpus = Corpus::load();
    let opts = request_options()?;
    let n = corpus.units.len();
    let mut draw = Draw::new(args.seed, "cold");
    let mut rng = SplitMix::new(args.seed ^ 0xc01d);

    // Correctness references, outside any timed section: the in-process
    // payload of every function, and a simulator run of every module of
    // the fixed request set.
    let fixed = draw.take(&corpus, n);
    let expected = reference_payloads(&fixed, n, &opts)?;
    let simulated = treegion_par::par_map(&fixed, |d| simulates_correctly(&d.text));
    for (d, ok) in fixed.iter().zip(simulated) {
        report.check(
            ok,
            &format!(
                "{}: VLIW simulation matches the interpreter",
                d.text.lines().next().unwrap_or("")
            ),
        );
    }

    crate::note("references and simulator checks done");
    let cache = cache_path(args, "cold")?;
    let server = set_up(args, &cache, report)?;
    let addr = server.addr.clone();

    // Suite passes: every function once, all due at once over nproc
    // connections. The first pass is the fixed request set.
    let mut passes = Vec::new();
    let mut bodies: Vec<Option<String>> = vec![None; n];
    for pass in 0..2 {
        let reqs = if pass == 0 {
            fixed.clone()
        } else {
            draw.take(&corpus, n)
        };
        let (samples, replies) =
            cold_phase(&addr, &opts, &reqs, &expected, &vec![0.0; n], nproc, None);
        let failed = samples.iter().filter(|s| !s.ok).count();
        report.ops(n as u64, (n - samples.len() + failed) as u64);
        passes.push(summarize(&samples, n, COLD.limit_ms, 1).wall_s);
        if pass == 0 {
            for (d, r) in reqs.iter().zip(replies) {
                bodies[d.unit] = r.and_then(|r| r.body);
            }
        }
    }
    report.set("suite_s", median(&passes));
    report_code(&corpus, &bodies, report);
    crate::note("suite passes done");

    let before = snapshot(&server, trace, "phases.before");
    let measured = run_plan(&COLD, args.seconds, report, |rate, k, abort| {
        let reqs = draw.take(&corpus, k);
        let dues = schedule(rate, k, &mut rng);
        cold_phase(&addr, &opts, &reqs, &expected, &dues, nproc, abort).0
    });
    let after = snapshot(&server, trace, "phases.after");

    let traced_phase = match trace {
        Some(t) => {
            let k = COLD.requests(COLD.light_rps, COLD.phase_share, args.seconds);
            let reqs = draw.take(&corpus, k);
            let dues = schedule(COLD.light_rps, k, &mut rng);
            let (samples, replies) = cold_phase(&addr, &opts, &reqs, &expected, &dues, nproc, None);
            report.ops(
                samples.len() as u64,
                samples.iter().filter(|s| !s.ok).count() as u64,
            );
            snapshot(&server, Some(t), "traced.after");
            Some((reqs, samples, replies))
        }
        None => None,
    };
    report.set("peak_rss_mb", server.peak_rss_mb()?);
    server.stop()?;
    check_warm_path(args, &cache, &opts, &fixed, &bodies, report, trace)?;

    let (Some(trace), Some((reqs, samples, replies))) = (trace, traced_phase) else {
        return Ok(());
    };
    measured.report_loadgen(report);
    report.set("serve.queue_high_water", measured.high_water() as f64);
    report.set("serve.shed", delta(&before, &after, "shed") as f64);

    // Client-side spans of the traced phase, one tree per request. The
    // phase ran without an abort, so every request has a sample and a
    // reply, in request order.
    let mut lag = Vec::with_capacity(samples.len());
    let mut connect = Vec::with_capacity(samples.len());
    for (i, (s, r)) in samples.iter().zip(&replies).enumerate() {
        let t = r.as_ref().map(|r| r.timings).unwrap_or_default();
        let begun = t.begun.unwrap_or_else(Instant::now);
        let origin = begun - Duration::from_secs_f64(s.start);
        let at = |secs: f64| origin + Duration::from_secs_f64(secs);
        let req = Some(i as u64);
        let root = trace.record("serve.request", None, req, at(s.due), at(s.end));
        trace.record("loadgen.queue", Some(root), req, at(s.due), begun);
        let steps = [
            ("serve.connect", Some(begun), t.connected),
            ("serve.send", t.connected, t.sent),
            ("serve.wait", t.sent, t.first_reply),
            ("serve.read", t.first_reply, t.done),
        ];
        for (name, from, to) in steps {
            if let (Some(a), Some(b)) = (from, to) {
                trace.record(name, Some(root), req, a, b);
            }
        }
        lag.push(s.lag_ms());
        connect.push(t.connected.map_or(0.0, |c| (c - begun).as_secs_f64() * 1e3));
    }
    let traced_p50 = summarize(&samples, samples.len(), COLD.limit_ms, WINDOWS).p50_ms;

    // The same requests through the in-process layers.
    let batches: Vec<Vec<ModuleRequest>> = reqs
        .iter()
        .map(|d| vec![module_request(d.text.clone())])
        .collect();
    let engine = layers::engine_ms(&cache_path(args, "engine")?, &opts, &batches, trace)?;
    let encode = layers::encode_us(&opts, &batches, trace);
    let kept: Vec<Vec<String>> = replies
        .iter()
        .map(|r| r.as_ref().map(|r| r.frames.clone()).unwrap_or_default())
        .collect();
    let decode = layers::decode_us(&kept, trace);
    let texts: Vec<&str> = fixed.iter().map(|d| d.text.as_str()).collect();
    report.set("ir.parse_us", layers::parse_us(&texts, trace));
    let entries: Vec<(u64, &str)> = fixed
        .iter()
        .zip(&bodies)
        .filter_map(|(d, b)| Some((fnv1a(d.text.as_bytes()), b.as_deref()?)))
        .collect();
    report.set(
        "cache.put_us",
        layers::put_us(&cache_path(args, "put")?, &entries, trace)?,
    );
    let parsed: Vec<Module> = texts.iter().filter_map(|t| parse_module(t).ok()).collect();
    let functions: Vec<_> = parsed.iter().flat_map(|m| m.functions()).collect();
    layers::replay_core(&functions, trace, report);

    let explained: Vec<f64> = (0..engine.len())
        .map(|i| lag[i] + connect[i] + encode[i] / 1e3 + engine[i] + decode[i] / 1e3)
        .collect();
    // Attribution of the untraced p50: engine time, the unattributed
    // transport remainder, and how much of it the layer spans explain.
    let untraced = report.get("light_p50_ms");
    report.set("serve.engine_ms", median(&engine));
    report.set("serve.transport_ms", untraced - median(&engine));
    report.set("serve.connect_ms", median(&connect));
    report.set("protocol.encode_us", median(&encode));
    report.set("protocol.decode_us", median(&decode));
    report.set("serve.explained_ms", median(&explained));
    report.set("serve.remainder_ms", untraced - median(&explained));
    report.set("trace.overhead_ms", traced_p50 - untraced);
    Ok(())
}

/// Whether a result frame is a warm hit of batch `seq` whose payload is
/// `expected`, byte for byte.
fn check_warm(frame: &str, seq: usize, expected: &str) -> bool {
    let Some((head, body)) = frame.split_once("\n\n") else {
        return false;
    };
    head.starts_with(&format!("{MAGIC} result ok\n"))
        && head.lines().any(|l| l == "cache warm")
        && head.lines().any(|l| l == format!("seq {seq}"))
        && body == expected
}

/// Writes `batches` (module indices into `texts`) as `seq`-tagged compile
/// frames over one keep-alive connection, then reads the FIFO replies.
/// Returns how many batches came back as warm hits byte-identical to
/// `expected` (indexed like `texts`).
fn fetch_warm(
    addr: &str,
    opts: &BatchOptions,
    texts: &[String],
    batches: &[Vec<usize>],
    expected: &[String],
) -> Result<usize, String> {
    let mut conn = connect(addr)?;
    for (i, b) in batches.iter().enumerate() {
        let modules: Vec<ModuleRequest> = b
            .iter()
            .map(|&k| module_request(texts[k].clone()))
            .collect();
        write_frame(
            &mut conn,
            &render_compile_seq(opts, Some(i as u64), &modules),
        )?;
    }
    let mut good = 0;
    for (i, b) in batches.iter().enumerate() {
        let mut ok = true;
        for &m in b {
            let f = read_frame(&mut conn)?.ok_or("server hung up mid-batch")?;
            ok &= check_warm(&f, i, &expected[m]);
        }
        let end = read_frame(&mut conn)?.ok_or("server hung up mid-batch")?;
        good += usize::from(ok && is_batch_end(&end));
    }
    Ok(good)
}

/// The read side of the cache the cold run wrote: restarts the server on
/// it and fetches the fixed request set as pipelined batches over one
/// keep-alive connection. Every reply must be a warm hit byte-identical to
/// the cold payload that wrote it. A traced run also reads the cache
/// counters around the fetch and times recovery and reads in process.
fn check_warm_path(
    args: &Args,
    cache: &Path,
    opts: &BatchOptions,
    fixed: &[Drawn],
    bodies: &[Option<String>],
    report: &mut Report,
    trace: Option<&Trace>,
) -> Result<(), String> {
    let texts: Vec<String> = fixed.iter().map(|d| d.text.clone()).collect();
    let expected: Vec<String> = fixed
        .iter()
        .map(|d| bodies[d.unit].clone().unwrap_or_default())
        .collect();
    let batches: Vec<Vec<usize>> = (0..texts.len())
        .collect::<Vec<_>>()
        .chunks(WARM_BATCH)
        .map(<[usize]>::to_vec)
        .collect();
    let (server, _) = Server::start(&args.tgc, cache)?;
    let before = snapshot(&server, trace, "warm.before");
    let good = fetch_warm(&server.addr, opts, &texts, &batches, &expected);
    let after = snapshot(&server, trace, "warm.after");
    server.stop()?;
    let good = good.unwrap_or(0);
    report.ops(batches.len() as u64, (batches.len() - good) as u64);
    let Some(trace) = trace else {
        return Ok(());
    };
    let (warm, cold) = (
        delta(&before, &after, "cache-warm"),
        delta(&before, &after, "cache-cold"),
    );
    report.set("cache.hit_ratio", ratio(warm as f64, (warm + cold) as f64));
    report.set(
        "cache.shard_contention",
        delta(&before, &after, "disk-contention") as f64,
    );
    report.set("cache.recovery_s", layers::recovery_s(cache, 3, trace)?);
    let (get_us, hits) = layers::get_us(cache, trace)?;
    report.check(hits == 1.0, "every durable record reads back its payload");
    report.set("cache.get_us", get_us);
    Ok(())
}
