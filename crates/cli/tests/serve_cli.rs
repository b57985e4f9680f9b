//! End-to-end drills against a real `tgc serve` child process: the
//! kill-9 crash-recovery drill, client exit-code round-trips,
//! deterministic load shedding through the CLI, and serving under a
//! small descriptor limit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use treegion_serve::{
    parse_response, read_frame, render_compile, render_simple, write_frame, BatchOptions,
    ModuleRequest, Poison, ResponseFrame, ResultStatus, Verb,
};

fn tgc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgc"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tgc-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Spawns `tgc serve` on an ephemeral port and scrapes the bound
/// address from the `listening on ADDR` stdout line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut cmd = tgc();
    cmd.args(["serve", "--addr", "127.0.0.1:0"]).args(extra);
    spawn_listening(cmd)
}

/// Spawns a command that execs a daemon and scrapes its address.
fn spawn_listening(mut cmd: Command) -> (Child, String) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("tgc serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    (child, addr)
}

fn module(name: &str, poison: Poison) -> ModuleRequest {
    ModuleRequest {
        text: format!(
            "module @{name}\n\nfunc @f {{\n  bb0 (weight 100):\n    r0 = movi #1\n    r1 = movi #2\n    r2 = add r0, r1\n    ret r2\n}}\n"
        ),
        poison,
    }
}

fn submit(addr: &str, batch: &[ModuleRequest]) -> Vec<ResponseFrame> {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &render_compile(&BatchOptions::default(), batch)).unwrap();
    let mut results = Vec::new();
    loop {
        let frame = parse_response(&read_frame(&mut s).unwrap().unwrap()).unwrap();
        if frame.kind == "batch-end" {
            break;
        }
        assert_eq!(frame.kind, "result", "{frame:?}");
        results.push(frame);
    }
    results
}

fn ping(s: &mut TcpStream) -> String {
    write_frame(s, &render_simple(Verb::Ping)).unwrap();
    let reply = read_frame(s).unwrap().expect("server hung up");
    parse_response(&reply).unwrap().kind
}

fn stats_body(addr: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &render_simple(Verb::Stats)).unwrap();
    let frame = parse_response(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    assert_eq!(frame.kind, "stats");
    frame.body
}

/// Graceful stop over the wire; the child must exit 0.
fn shutdown(addr: &str, mut child: Child) {
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &render_simple(Verb::Shutdown)).unwrap();
    let frame = parse_response(&read_frame(&mut s).unwrap().unwrap()).unwrap();
    assert_eq!(frame.kind, "draining");
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited {status:?} after drain");
}

/// The headline robustness drill: run a daemon warm, SIGKILL it with
/// no drain (and a torn half-record appended to the cache file, as a
/// crash mid-write would leave), restart over the same cache, and
/// demand byte-identical warm answers plus honest recovery counters.
#[test]
fn kill_nine_drill_restart_serves_identical_bytes() {
    let dir = tmpdir("kill9");
    let cache = dir.join("cache.tgc");
    let cache_arg = cache.to_str().unwrap().to_string();
    let batch = vec![
        module("k1", Poison::default()),
        module("k2", Poison::default()),
    ];

    let (mut child, addr) = spawn_serve(&["--cache", &cache_arg, "--no-quarantine"]);
    let cold = submit(&addr, &batch);
    assert!(cold.iter().all(|r| r.status == Some(ResultStatus::Ok)));
    assert!(cold.iter().all(|r| r.key("cache") == Some("cold")));

    // SIGKILL: no drain, no seal, no compaction — the cache file is
    // whatever the per-put fsyncs left behind.
    child.kill().unwrap();
    child.wait().unwrap();

    // Simulate the crash landing mid-write: a torn, unchecksummable
    // tail after the last complete record. The cache is striped across
    // shard files (`<base>.0` .. `<base>.N-1`); tear the first shard —
    // recovery is per-shard, so the others must stay untouched.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(treegion_eval::shard_path(&cache, 0))
        .unwrap();
    f.write_all(b"REC torn-half-record-with-no-checksum")
        .unwrap();
    f.sync_all().unwrap();

    let (child, addr) = spawn_serve(&["--cache", &cache_arg, "--no-quarantine"]);
    let warm = submit(&addr, &batch);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(b.key("cache"), Some("warm"), "{b:?}");
        assert_eq!(a.body, b.body, "warm restart must serve identical bytes");
    }
    let stats = stats_body(&addr);
    assert!(stats.contains("cache-warm 2\n"), "{stats}");
    assert!(stats.contains("torn-tail=true"), "{stats}");
    shutdown(&addr, child);
    let _ = std::fs::remove_dir_all(&dir);
}

fn batch_file(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn client_round_trip_maps_outcomes_to_exit_codes() {
    let dir = tmpdir("client");
    let qdir = dir.join("quarantine");
    let (child, addr) = spawn_serve(&[
        "--cache",
        dir.join("cache.tgc").to_str().unwrap(),
        "--quarantine",
        qdir.to_str().unwrap(),
    ]);

    let mixed = batch_file(
        &dir,
        "mixed.batch",
        "module @good\n\nfunc @f {\n  bb0 (weight 100):\n    r0 = movi #7\n    ret r0\n}\n\
         ---\n\
         !panic-hard\n\
         module @bad\n\nfunc @f {\n  bb0 (weight 100):\n    r0 = movi #9\n    ret r0\n}\n",
    );
    let clean = batch_file(
        &dir,
        "clean.batch",
        "module @solo\n\nfunc @f {\n  bb0 (weight 100):\n    r0 = movi #3\n    ret r0\n}\n",
    );

    // Mixed batch: the poisoned module is a contained failure -> exit 3,
    // but the clean sibling still streams back scheduled.
    let out = tgc()
        .args(["client", &mixed, "--addr", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("-- module #0 ok (cache cold)"), "{stdout}");
    assert!(stdout.contains("module @good"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cause=panic"), "{stderr}");
    assert!(stderr.contains("quarantined=true"), "{stderr}");

    // Resubmitted: the clean module is warm, the offender is
    // fast-rejected from the quarantine ledger — still exit 3.
    let out = tgc()
        .args(["client", &mixed, "--addr", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("-- module #0 ok (cache warm)"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cause=quarantined"), "{stderr}");
    assert_eq!(
        std::fs::read_dir(&qdir).unwrap().count(),
        1,
        "repeat offender must not grow the quarantine directory"
    );

    // All-clean batch -> exit 0.
    let out = tgc()
        .args(["client", &clean, "--addr", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Control verbs.
    let out = tgc()
        .args(["client", "--addr", &addr, "--op", "ping"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout).unwrap().contains("pong"));
    let out = tgc()
        .args(["client", "--addr", &addr, "--op", "stats"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("contained 1\n"), "{stdout}");
    assert!(stdout.contains("quarantine-rejects 1\n"), "{stdout}");

    // Shutdown through the client: daemon drains and exits 0.
    let out = tgc()
        .args(["client", "--addr", &addr, "--op", "shutdown"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let status = {
        let mut child = child;
        child.wait().unwrap()
    };
    assert!(
        status.success(),
        "serve exited {status:?} after client shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn many_batch(dir: &Path, n: usize) -> String {
    batch_file(
        dir,
        "many.batch",
        &(0..n)
            .map(|i| {
                format!(
                    "module @m{i}\n\nfunc @f {{\n  bb0 (weight 100):\n    r0 = movi #{i}\n    ret r0\n}}\n"
                )
            })
            .collect::<Vec<_>>()
            .join("---\n"),
    )
}

#[test]
fn client_shed_suffix_exits_retryable() {
    let dir = tmpdir("shed");
    let (child, addr) = spawn_serve(&["--no-quarantine", "--queue-max", "1"]);
    let many = many_batch(&dir, 4);
    // `--shed-retries 0` disables the retry loop: shed-but-no-failure is
    // the retryable degradation code, reported straight to the caller.
    let out = tgc()
        .args(["client", &many, "--addr", &addr, "--shed-retries", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("shed; retry after"), "{stderr}");
    assert!(stderr.contains("retry later"), "{stderr}");
    shutdown(&addr, child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_shed_retries_recover_to_a_clean_exit() {
    let dir = tmpdir("shed-retry");
    let (child, addr) = spawn_serve(&["--no-quarantine", "--queue-max", "2"]);
    let many = many_batch(&dir, 4);
    // queue-max 2 sheds the suffix of the 4-module batch; the default
    // retry budget resubmits the shed pair on the same connection after
    // the server's retry-after hint — everything lands, exit 0.
    let out = tgc()
        .args(["client", &many, "--addr", &addr, "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("retrying 2 shed module(s)"), "{stderr}");
    assert!(stderr.contains("4 ok, 0 failed, 0 shed"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Original batch indices are preserved across the retry round.
    for i in 0..4 {
        assert!(stdout.contains(&format!("-- module #{i} ok")), "{stdout}");
    }
    shutdown(&addr, child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_without_a_daemon_is_a_hard_failure() {
    let out = tgc()
        .args(["client", "--addr", "127.0.0.1:1", "--op", "ping"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// `serve` on an unbindable address is the serve-fatal exit, distinct
/// from every per-request failure code.
#[test]
fn unbindable_address_is_serve_fatal() {
    let out = tgc()
        .args(["serve", "--addr", "256.0.0.1:0", "--no-quarantine"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}

/// The daemon holds a descriptor only while a connection is open, and
/// running out of them is overload, not a fatal error. Under
/// `ulimit -n 64` it answers 500 sequential connections; then 100 held
/// open at once exhaust the limit, and each waits for an earlier one to
/// close. The overload is counted, and drain still exits 0.
#[test]
fn small_descriptor_limit_is_overload_not_death() {
    let mut cmd = Command::new("sh");
    cmd.args([
        "-c",
        "ulimit -n 64; exec \"$0\" serve --addr 127.0.0.1:0 --no-quarantine",
        env!("CARGO_BIN_EXE_tgc"),
    ]);
    let (child, addr) = spawn_listening(cmd);
    for i in 0..500 {
        let mut s = TcpStream::connect(&addr).unwrap();
        assert_eq!(ping(&mut s), "pong", "connection {i}");
    }
    let stats = stats_body(&addr);
    assert!(stats.contains("accept-overload "), "{stats}");

    let held: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    for (i, mut s) in held.into_iter().enumerate() {
        assert_eq!(ping(&mut s), "pong", "held connection {i}");
    }
    let stats = stats_body(&addr);
    let overloads: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("accept-overload "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no accept-overload in {stats}"));
    assert!(overloads > 0, "{stats}");
    shutdown(&addr, child);
}
