//! A `tgc serve` child process and the client side of the wire protocol.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use treegion_serve::{parse_response, read_frame, render_simple, write_frame, Verb};

/// How long a client waits for any one reply frame.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `tgc serve` child. Dropping it kills and reaps the process;
/// [`Server::stop`] drains it through the protocol first.
pub struct Server {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Starts `tgc serve` on an ephemeral port with its durable cache at
    /// `cache`, and waits for its `listening on` line. Returns the server
    /// and how long start-up took (process start, cache recovery, bind).
    pub fn start(tgc: &Path, cache: &Path) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(tgc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--no-quarantine",
                "--cache",
            ])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tgc.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let secs = t.elapsed().as_secs_f64();
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(a)) => a.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("tgc serve did not start (stdout: {line:?})"));
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        Ok((server, secs))
    }

    /// Sends one bodyless request and returns the reply's body as
    /// `key value` pairs.
    pub fn request(&self, verb: Verb) -> Result<BTreeMap<String, String>, String> {
        let mut s = connect(&self.addr)?;
        write_frame(&mut s, &render_simple(verb))?;
        let frame = read_frame(&mut s)?.ok_or("server hung up")?;
        let reply = parse_response(&frame)?;
        Ok(reply
            .body
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect())
    }

    /// The `stats` verb's counters.
    pub fn stats(&self) -> Result<BTreeMap<String, String>, String> {
        self.request(Verb::Stats)
    }

    /// The child's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the server with the `shutdown` verb and waits for it to
    /// exit; kills it if it has not exited within 30 s.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.request(Verb::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("tgc serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("tgc serve did not drain within 30 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Opens a client connection with the benchmark's socket options.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(READ_TIMEOUT));
    Ok(s)
}

/// Whether a raw reply frame is a batch's closing `batch-end` frame.
pub fn is_batch_end(frame: &str) -> bool {
    frame
        .strip_prefix(treegion_serve::MAGIC)
        .is_some_and(|rest| rest.starts_with(" batch-end"))
}

/// Client-side timings of one request on a fresh connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// The request started (before `connect`).
    pub begun: Option<Instant>,
    /// `connect` returned.
    pub connected: Option<Instant>,
    /// The request frame was written.
    pub sent: Option<Instant>,
    /// The first reply frame arrived.
    pub first_reply: Option<Instant>,
    /// The `batch-end` frame (the last reply byte) arrived.
    pub done: Option<Instant>,
}

/// One compile request on a fresh connection, as `tgc client` sends it:
/// connect, write the frame, read frames up to `batch-end`, hang up.
/// Returns the raw reply frames.
pub fn compile_once(addr: &str, payload: &str, t: &mut Timings) -> Result<Vec<String>, String> {
    t.begun = Some(Instant::now());
    let mut s = connect(addr)?;
    t.connected = Some(Instant::now());
    write_frame(&mut s, payload)?;
    t.sent = Some(Instant::now());
    let mut frames = Vec::new();
    loop {
        let f = read_frame(&mut s)?.ok_or("server hung up mid-batch")?;
        let now = Instant::now();
        t.first_reply.get_or_insert(now);
        let end = is_batch_end(&f);
        frames.push(f);
        if end {
            t.done = Some(now);
            return Ok(frames);
        }
    }
}
