//! End-to-end daemon tests over real TCP: mixed batches, streaming
//! replies, stats, backpressure, keep-alive pipelining, and graceful
//! drain.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use treegion_serve::{
    parse_response, read_frame, render_compile, render_compile_seq, render_simple, write_frame,
    BatchOptions, EngineConfig, LoadgenConfig, ModuleRequest, Poison, ResponseFrame, ResultStatus,
    Server, ServerConfig, Verb,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tgc-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn module(name: &str, poison: Poison) -> ModuleRequest {
    ModuleRequest {
        text: format!(
            "module @{name}\n\nfunc @f {{\n  bb0 (weight 100):\n    r0 = movi #1\n    r1 = movi #2\n    r2 = add r0, r1\n    ret r2\n}}\n"
        ),
        poison,
    }
}

/// Starts a server on an ephemeral port; returns the address and the
/// run-loop thread (joined by sending `shutdown`).
fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(&config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn roundtrip(stream: &mut TcpStream, payload: &str) -> ResponseFrame {
    write_frame(stream, payload).unwrap();
    let reply = read_frame(stream).unwrap().expect("server hung up");
    parse_response(&reply).unwrap()
}

/// Reads the streamed replies of an n-module batch: n `result` frames
/// plus the `batch-end`.
fn read_batch(stream: &mut TcpStream, n: usize) -> (Vec<ResponseFrame>, ResponseFrame) {
    let mut results = Vec::new();
    for _ in 0..n {
        let f = parse_response(&read_frame(stream).unwrap().unwrap()).unwrap();
        assert_eq!(f.kind, "result", "{f:?}");
        results.push(f);
    }
    let end = parse_response(&read_frame(stream).unwrap().unwrap()).unwrap();
    assert_eq!(end.kind, "batch-end", "{end:?}");
    (results, end)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<Result<(), String>>) {
    let mut s = TcpStream::connect(addr).unwrap();
    let f = roundtrip(&mut s, &render_simple(Verb::Shutdown));
    assert_eq!(f.kind, "draining");
    handle.join().unwrap().unwrap();
}

#[test]
fn mixed_batch_poison_is_contained_while_siblings_complete() {
    let dir = tmpdir("mixed");
    let (addr, handle) = start(ServerConfig {
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: Some(dir.join("quarantine")),
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    });
    let mut s = TcpStream::connect(&addr).unwrap();

    // Liveness first.
    assert_eq!(roundtrip(&mut s, &render_simple(Verb::Ping)).kind, "pong");

    let batch = vec![
        module("clean_a", Poison::default()),
        module(
            "poisoned",
            Poison {
                panic_hard: true,
                ..Poison::default()
            },
        ),
        module("clean_b", Poison::default()),
    ];
    write_frame(&mut s, &render_compile(&BatchOptions::default(), &batch)).unwrap();
    let (results, end) = read_batch(&mut s, 3);

    assert_eq!(results[0].status, Some(ResultStatus::Ok));
    assert_eq!(results[0].key("cache"), Some("cold"));
    assert!(results[0].body.contains("module @clean_a"));

    assert_eq!(results[1].status, Some(ResultStatus::Error));
    assert_eq!(results[1].key("cause"), Some("panic"));
    assert_eq!(results[1].key("quarantined"), Some("true"));

    assert_eq!(results[2].status, Some(ResultStatus::Ok));
    assert!(results[2].body.contains("module @clean_b"));

    assert_eq!(end.key("ok"), Some("2"));
    assert_eq!(end.key("errors"), Some("1"));
    assert_eq!(end.key("shed"), Some("0"));

    // Resubmitting the whole batch: cleans are warm and byte-identical,
    // the offender is fast-rejected from the ledger.
    write_frame(&mut s, &render_compile(&BatchOptions::default(), &batch)).unwrap();
    let (again, _) = read_batch(&mut s, 3);
    assert_eq!(again[0].key("cache"), Some("warm"));
    assert_eq!(
        again[0].body, results[0].body,
        "warm must be byte-identical"
    );
    assert_eq!(again[1].key("cause"), Some("quarantined"));
    assert_eq!(again[2].key("cache"), Some("warm"));
    assert_eq!(again[2].body, results[2].body);

    // Stats reflect all of it.
    let stats = roundtrip(&mut s, &render_simple(Verb::Stats));
    assert_eq!(stats.kind, "stats");
    let body = &stats.body;
    assert!(body.contains("contained 1\n"), "{body}");
    assert!(body.contains("quarantined 1\n"), "{body}");
    assert!(body.contains("quarantine-rejects 1\n"), "{body}");
    assert!(body.contains("cache-warm 2\n"), "{body}");
    assert!(body.contains("cache-cold 2\n"), "{body}");
    assert!(body.contains("cache-recovery "), "{body}");
    assert!(body.contains("stage-list-sched "), "{body}");

    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_the_batch_suffix_with_retry_hints() {
    let (addr, handle) = start(ServerConfig {
        queue_max: 2,
        retry_after_ms: 125,
        ..ServerConfig::default()
    });
    let mut s = TcpStream::connect(&addr).unwrap();
    let batch: Vec<_> = (0..5)
        .map(|i| module(&format!("m{i}"), Poison::default()))
        .collect();
    write_frame(&mut s, &render_compile(&BatchOptions::default(), &batch)).unwrap();
    let (results, end) = read_batch(&mut s, 5);
    // Deterministic: the first `queue_max` run, the suffix sheds.
    for r in &results[..2] {
        assert_eq!(r.status, Some(ResultStatus::Ok), "{r:?}");
    }
    for r in &results[2..] {
        assert_eq!(r.status, Some(ResultStatus::Shed), "{r:?}");
        assert_eq!(r.key("retry-after-ms"), Some("125"));
    }
    assert_eq!(end.key("shed"), Some("3"));
    // The next batch is admitted again — slots were released.
    write_frame(
        &mut s,
        &render_compile(&BatchOptions::default(), &batch[..1]),
    )
    .unwrap();
    let (results, _) = read_batch(&mut s, 1);
    assert_eq!(results[0].status, Some(ResultStatus::Ok));
    shutdown(&addr, handle);
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let (addr, handle) = start(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    let f = roundtrip(&mut s, "tgc-serve v1 explode\n");
    assert_eq!(f.kind, "error");
    assert!(f.key("reason").unwrap().contains("unknown verb"));
    // Same connection still serves.
    assert_eq!(roundtrip(&mut s, &render_simple(Verb::Ping)).kind, "pong");
    shutdown(&addr, handle);
}

/// A module big enough that a batch of a few takes the worker a while:
/// one seeded program of the workloads' test size.
fn tiny_program(seed: u64) -> ModuleRequest {
    let spec = treegion_workloads::BenchmarkSpec::tiny(seed);
    ModuleRequest {
        text: treegion_ir::print_module(&treegion_workloads::generate(&spec)),
        poison: Poison::default(),
    }
}

/// The value of one `key value` line of a `stats` body.
fn stat(body: &str, key: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` in {body}"))
}

/// Drain answers every batch a reader has already taken, ends idle
/// connections at once, and leaves a cache that reopens warm: A
/// pipelines three batches, B stays idle, C asks for the shutdown.
#[test]
fn drain_finishes_inflight_work_and_compacts_the_cache() {
    let dir = tmpdir("drain");
    let config = ServerConfig {
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: None,
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    };
    let (addr, handle) = start(config.clone());
    let mut a = TcpStream::connect(&addr).unwrap();
    let mut b = TcpStream::connect(&addr).unwrap();
    let mut c = TcpStream::connect(&addr).unwrap();
    // Every read below is bounded, so a drain that fails to wake a
    // reader fails the test instead of hanging it.
    for s in [&a, &b, &c] {
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    }
    let opts = BatchOptions::default();
    let batches: Vec<Vec<ModuleRequest>> = (0..3u64)
        .map(|seq| (0..4).map(|i| tiny_program(seq * 4 + i)).collect())
        .collect();
    for (seq, batch) in (0u64..).zip(&batches) {
        write_frame(&mut a, &render_compile_seq(&opts, Some(seq), batch)).unwrap();
    }
    // Shut down only once A's reader has taken all three frames: the
    // `requests` counter counts each frame as a reader takes it, C's own
    // `stats` requests included.
    let mut asked = 0;
    loop {
        asked += 1;
        let stats = roundtrip(&mut c, &render_simple(Verb::Stats));
        if stat(&stats.body, "requests") >= 3 + asked {
            break;
        }
        assert!(asked < 100_000, "A's batches never arrived");
    }
    assert_eq!(
        roundtrip(&mut c, &render_simple(Verb::Shutdown)).kind,
        "draining"
    );
    let mut cold = Vec::new();
    for (seq, batch) in (0u64..).zip(&batches) {
        let (results, end) = read_batch(&mut a, batch.len());
        assert_eq!(end.key("seq"), Some(seq.to_string().as_str()));
        assert!(
            results.iter().all(|r| r.status == Some(ResultStatus::Ok)),
            "{results:?}"
        );
        cold = results;
    }
    assert_eq!(read_frame(&mut b).unwrap(), None, "idle B must read EOF");
    handle.join().unwrap().unwrap();
    // The drained cache is sealed and replayable: a new server over it
    // serves the last batch warm, byte for byte.
    let (addr, handle) = start(config);
    let mut s = TcpStream::connect(&addr).unwrap();
    write_frame(&mut s, &render_compile(&opts, &batches[2])).unwrap();
    let (warm, _) = read_batch(&mut s, batches[2].len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(w.key("cache"), Some("warm"), "{w:?}");
        assert_eq!(c.body, w.body, "restart must serve identical bytes");
    }
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every frame leaves in one write. A client that keeps Nagle's
/// algorithm on (the default) would otherwise hold each request's
/// payload until the server's delayed ACK of its header.
#[test]
fn keep_alive_pings_from_a_nagle_client_are_not_delayed() {
    let (addr, handle) = start(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    let t0 = Instant::now();
    for _ in 0..20 {
        assert_eq!(roundtrip(&mut s, &render_simple(Verb::Ping)).kind, "pong");
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(400), "20 pings took {took:?}");
    shutdown(&addr, handle);
}

#[test]
fn pipelined_batches_echo_seq_ids_in_fifo_order() {
    let dir = tmpdir("pipeline");
    let (addr, handle) = start(ServerConfig {
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: None,
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    });
    let mut s = TcpStream::connect(&addr).unwrap();
    // Fire off several sequence-tagged batches back to back without
    // reading anything: the server interleaves reading batch N + 1 with
    // scheduling batch N, but replies stay FIFO and carry the seq id.
    let opts = BatchOptions::default();
    for seq in 0..5u64 {
        let batch = vec![module(&format!("p{seq}"), Poison::default())];
        write_frame(&mut s, &render_compile_seq(&opts, Some(seq), &batch)).unwrap();
    }
    for seq in 0..5u64 {
        let (results, end) = read_batch(&mut s, 1);
        assert_eq!(results[0].key("seq"), Some(seq.to_string().as_str()));
        assert_eq!(end.key("seq"), Some(seq.to_string().as_str()));
        assert_eq!(end.key("ok"), Some("1"));
    }
    // A control verb interleaves cleanly on the same connection and the
    // pipelined batches landed in the latency histogram.
    let stats = roundtrip(&mut s, &render_simple(Verb::Stats));
    assert!(stats.body.contains("latency-count 5\n"), "{}", stats.body);
    assert!(stats.body.contains("latency-p99-us "), "{}", stats.body);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_verb_drains_the_pipeline_and_ends_only_that_connection() {
    let (addr, handle) = start(ServerConfig::default());
    let mut s = TcpStream::connect(&addr).unwrap();
    let opts = BatchOptions::default();
    for seq in 0..3u64 {
        let batch = vec![module(&format!("c{seq}"), Poison::default())];
        write_frame(&mut s, &render_compile_seq(&opts, Some(seq), &batch)).unwrap();
    }
    // `close` right behind the batches: every reply must still arrive,
    // then the `closing` confirmation, then FIN.
    write_frame(&mut s, &render_simple(Verb::Close)).unwrap();
    for seq in 0..3u64 {
        let (_, end) = read_batch(&mut s, 1);
        assert_eq!(end.key("seq"), Some(seq.to_string().as_str()));
    }
    let closing = parse_response(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    assert_eq!(closing.kind, "closing");
    assert_eq!(read_frame(&mut s).unwrap(), None, "server must FIN");
    // The server itself keeps running: a fresh connection works and the
    // close was counted.
    let mut s2 = TcpStream::connect(&addr).unwrap();
    let stats = roundtrip(&mut s2, &render_simple(Verb::Stats));
    assert!(stats.body.contains("closes 1\n"), "{}", stats.body);
    shutdown(&addr, handle);
}

#[test]
fn loadgen_drives_a_live_server_and_reports_latency() {
    let dir = tmpdir("loadgen");
    let (addr, handle) = start(ServerConfig {
        engine: EngineConfig {
            cache_path: Some(dir.join("cache.tgc")),
            quarantine_dir: None,
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    });
    let report = treegion_serve::run_loadgen(&LoadgenConfig {
        addr: addr.clone(),
        connections: 2,
        pipeline_depth: 4,
        duration_ms: 300,
        seed: 7,
        batch_modules: 2,
        pool: 4,
        reconnect: false,
    })
    .unwrap();
    assert!(report.batches > 0);
    assert_eq!(report.modules, report.ok + report.errors + report.shed);
    assert_eq!(report.seq_mismatches, 0, "{report:?}");
    assert_eq!(report.conn_errors, 0, "{report:?}");
    assert!(report.req_per_sec() > 0.0);
    assert_eq!(report.latency.count, report.batches);
    let rendered = report.render();
    assert!(rendered.contains("latency-p999-us"), "{rendered}");
    // The server saw the same batch count and counted the two closes.
    let mut s = TcpStream::connect(&addr).unwrap();
    let stats = roundtrip(&mut s, &render_simple(Verb::Stats));
    assert!(stats.body.contains("closes 2\n"), "{}", stats.body);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_request_deadline_answers_with_structured_error() {
    let dir = tmpdir("deadline");
    let (addr, handle) = start(ServerConfig {
        engine: EngineConfig {
            cache_path: None,
            quarantine_dir: Some(dir.join("quarantine")),
            default_deadline_ms: None,
            chaos: None,
            cache_shards: 0,
        },
        ..ServerConfig::default()
    });
    let mut s = TcpStream::connect(&addr).unwrap();
    let opts = BatchOptions {
        deadline_ms: Some(0), // trips at the first scheduler cycle check
        ..BatchOptions::default()
    };
    let batch = vec![module("late", Poison::default())];
    write_frame(&mut s, &render_compile(&opts, &batch)).unwrap();
    let (results, end) = read_batch(&mut s, 1);
    assert_eq!(results[0].status, Some(ResultStatus::Error), "{results:?}");
    let detail = results[0].key("detail").unwrap_or("");
    let cause = results[0].key("cause").unwrap_or("");
    assert!(
        cause == "deadline" || detail.contains("deadline"),
        "cause={cause} detail={detail}"
    );
    assert_eq!(end.key("errors"), Some("1"));
    let stats = roundtrip(&mut s, &render_simple(Verb::Stats));
    assert!(!stats.body.contains("\ndeadline 0\n"), "{}", stats.body);
    shutdown(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
