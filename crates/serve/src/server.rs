//! The TCP front end: accept loop, per-connection pipelined handlers,
//! graceful drain.
//!
//! Nothing here sleeps or polls. The listener blocks in `accept`, and
//! each accepted connection gets a detached blocking handler thread
//! (connections are few — this is a build-farm service, not a web
//! server). The handler's socket lives in one table of open connections
//! that it leaves when it exits, panics included, so the daemon holds a
//! descriptor and a thread only for connections that are still open.
//! With 256 connections open, the loop waits for one to close before
//! it accepts again. An `accept` that fails for want of descriptors
//! (EMFILE/ENFILE) is counted as `accept-overload` and waits the same
//! way, instead of ending the daemon.
//!
//! `shutdown` marks the table draining and connects once to the
//! listener to wake the blocking `accept`, which drops that connection
//! and stops. Drain then shuts the read side of every open socket. On
//! Linux a reader still gets the frames already queued, then EOF, and
//! the write side stays open, so every worker answers each batch its
//! reader took. Once the table is empty (or after 60 s, so a wedged
//! handler cannot hold the drain hostage) the durable cache is
//! checkpointed. Crash safety does **not** depend on the graceful path
//! — every cache write is already fsynced — the checkpoint merely
//! compacts.
//!
//! ## The connection state machine
//!
//! Each connection runs **two** threads so the socket read of batch
//! N + 1 overlaps the scheduling of batch N:
//!
//! ```text
//!  reader thread                 worker thread
//!  ─────────────                 ─────────────
//!  read_frame_event ──┐
//!  parse, dispatch    │ bounded channel (pipeline_depth)
//!  compile → enqueue ─┴───────▶  process_batch on the par pool
//!  control verbs answer          result/batch-end frames (seq echoed)
//!  via the shared writer  ◀────  via the shared writer
//! ```
//!
//! The reader keeps the PR 8 per-frame semantics (idle-budget ticks at
//! frame boundaries, immediate drop on a mid-frame stall) and handles
//! `ping`/`stats`/`shutdown`/`close` inline; `compile` batches enqueue
//! into a bounded channel the single worker drains FIFO — so one
//! connection's replies always arrive in submission order, while the
//! enqueue itself is the natural backpressure (a sender more than
//! `pipeline_depth` batches ahead blocks in TCP). Every frame write
//! goes through one mutex around the socket, keeping frames atomic
//! when a control reply interleaves with streamed results. The idle
//! reaper only ticks while **no batch is in flight** — a silent client
//! waiting on a slow batch is patient, not idle.

use crate::admission::Admission;
use crate::engine::{Engine, EngineConfig, ModuleReply};
use crate::protocol::{
    parse_request, read_frame_event, render_response, write_frame, FrameEvent, Request, Verb,
};
use crate::stats::bump;
use std::collections::HashMap;
use std::io::ErrorKind::{ConnectionAborted, Interrupted};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use treegion_par::lock_tolerant as lock;

/// Most connections served at once. Each open connection holds one
/// descriptor, so the cap keeps the daemon well under the common 1024
/// soft limit.
const MAX_CONNECTIONS: usize = 256;

/// How long drain waits for the open connections to finish before it
/// checkpoints anyway.
const DRAIN_BOUND: Duration = Duration::from_secs(60);

/// `accept` errors meaning the process or the system is out of file
/// descriptors (the same numbers on Linux and the BSDs).
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Engine options (cache file, quarantine dir, default deadline).
    pub engine: EngineConfig,
    /// Admission high-water mark: modules in flight at once.
    pub queue_max: usize,
    /// Retry hint carried by shed replies, in milliseconds.
    pub retry_after_ms: u64,
    /// Per-connection pipeline window: compile batches buffered between
    /// the reader and the worker before the enqueue blocks.
    pub pipeline_depth: usize,
    /// Socket read timeout. Doubles as the idle poll tick: a frame that
    /// *starts* must deliver its next bytes within this budget or the
    /// connection is dropped as a stalled peer.
    pub read_timeout_ms: u64,
    /// Socket write timeout: a peer that stops draining its receive
    /// buffer cannot pin a handler on a blocked write forever.
    pub write_timeout_ms: u64,
    /// Idle budget: a connection with no traffic at all (and no batch in
    /// flight) for this long is reaped (counted in `idle-reaped`). Zero
    /// disables the reaper.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            engine: EngineConfig::default(),
            queue_max: 64,
            retry_after_ms: 100,
            pipeline_depth: 32,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            idle_timeout_ms: 300_000,
        }
    }
}

/// The per-connection timeout knobs, shared by every handler thread.
#[derive(Clone, Copy, Debug)]
struct Timeouts {
    read_ms: u64,
    write_ms: u64,
    idle_ms: u64,
    pipeline_depth: usize,
}

/// What the accept loop shares with every handler thread.
struct Shared {
    engine: Arc<Engine>,
    admission: Admission,
    timeouts: Timeouts,
    conns: Connections,
    /// The listener's address, with an unspecified IP replaced by
    /// loopback: where `shutdown` connects to wake the blocking `accept`.
    wake: SocketAddr,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Opens the engine (running cache recovery and the quarantine
    /// ledger replay) and binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-recovery failures.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let engine = Arc::new(Engine::open(&config.engine)?);
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let mut wake = listener.local_addr().map_err(|e| e.to_string())?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Shared {
            engine,
            admission: Admission::new(config.queue_max.max(1), config.retry_after_ms),
            timeouts: Timeouts {
                read_ms: config.read_timeout_ms.max(1),
                write_ms: config.write_timeout_ms.max(1),
                idle_ms: config.idle_timeout_ms,
                pipeline_depth: config.pipeline_depth.max(1),
            },
            conns: Connections::default(),
            wake,
        };
        Ok(Server {
            listener,
            shared: Arc::new(shared),
        })
    }

    /// The bound address (read this for `:0` ephemeral binds).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Shared handle to the engine (counters, stats, quarantine ledger)
    /// — stays valid after [`Server::run`] returns.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.shared.engine)
    }

    /// Runs until drained: accepts connections, serves requests, and on
    /// `shutdown` answers every batch already read, waits for every
    /// handler to exit, and checkpoints the cache.
    ///
    /// # Errors
    ///
    /// Propagates listener failures (other than running out of
    /// descriptors while connections are open, which waits for one to
    /// close) and the final checkpoint error.
    pub fn run(self) -> Result<(), String> {
        let Server { listener, shared } = self;
        let conns = &shared.conns;
        while conns.wait_below(MAX_CONNECTIONS) {
            let overload = match listener.accept() {
                Ok((stream, _peer)) => {
                    // `None` once draining: this is the wake-up
                    // connection (or a late client), dropped unanswered.
                    let Some(conn) = Conn::register(&shared, stream) else {
                        break;
                    };
                    std::thread::Builder::new()
                        .spawn(move || serve_connection(&conn))
                        .err()
                }
                // A signal, or a peer that reset before it was accepted.
                Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => None,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => Some(e),
                Err(e) => return Err(format!("accept: {e}")),
            };
            // Out of descriptors or threads: only a handler that exits
            // frees some, so wait for one — unless none is open.
            if let Some(e) = overload {
                bump(&shared.engine.stats.accept_overload);
                let open = conns.open();
                if open == 0 {
                    return Err(format!("accept: {e}"));
                }
                if !conns.wait_below(open) {
                    break;
                }
            }
        }
        // Refuse new connections at once, including a wake-up still on
        // its way, then let every open one finish.
        drop(listener);
        conns.drain(DRAIN_BOUND);
        shared.engine.checkpoint()
    }
}

/// The table of open connections and the drain flag, under one lock.
/// Handlers leave it when they exit; the accept loop and drain wait on
/// `changed` for that.
#[derive(Default)]
struct Connections {
    table: Mutex<Table>,
    changed: Condvar,
}

#[derive(Default)]
struct Table {
    /// Each open connection's socket, shared with its handler so drain
    /// can shut its read side.
    open: HashMap<u64, Arc<TcpStream>>,
    next_id: u64,
    draining: bool,
}

impl Connections {
    /// Connections open now.
    fn open(&self) -> usize {
        lock(&self.table).open.len()
    }

    /// Blocks until fewer than `cap` connections are open; `false` if
    /// draining begins first.
    fn wait_below(&self, cap: usize) -> bool {
        let table = self
            .changed
            .wait_while(lock(&self.table), |t| !t.draining && t.open.len() >= cap)
            .unwrap_or_else(PoisonError::into_inner);
        !table.draining
    }

    /// Stops registration and ends any wait of the accept loop.
    fn begin_drain(&self) {
        lock(&self.table).draining = true;
        self.changed.notify_all();
    }

    /// Shuts the read side of every open socket, then waits up to
    /// `bound` for their handlers to leave. On Linux a reader still gets
    /// the frames already queued, then EOF; the write side stays open
    /// for the replies.
    fn drain(&self, bound: Duration) {
        let table = lock(&self.table);
        for stream in table.open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let _ = self
            .changed
            .wait_timeout_while(table, bound, |t| !t.open.is_empty());
    }
}

/// A handler's entry in [`Connections`]. Dropping it — the handler
/// returned or unwound — closes the socket, leaves the table and wakes
/// its waiters.
struct Conn {
    shared: Arc<Shared>,
    id: u64,
    stream: Option<Arc<TcpStream>>,
}

impl Conn {
    /// Registers an accepted socket; `None` once draining.
    fn register(shared: &Arc<Shared>, stream: TcpStream) -> Option<Conn> {
        let mut table = lock(&shared.conns.table);
        if table.draining {
            return None;
        }
        let id = table.next_id;
        table.next_id += 1;
        let stream = Arc::new(stream);
        table.open.insert(id, Arc::clone(&stream));
        Some(Conn {
            shared: Arc::clone(shared),
            id,
            stream: Some(stream),
        })
    }

    fn stream(&self) -> &TcpStream {
        self.stream.as_deref().expect("set until drop")
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let conns = &self.shared.conns;
        let mut table = lock(&conns.table);
        table.open.remove(&self.id);
        // Both references are gone, so this closes the socket — before
        // any waiter sees the smaller table and retries an `accept` that
        // needs the descriptor.
        self.stream = None;
        drop(table);
        conns.changed.notify_all();
    }
}

/// One enqueued compile batch: its sequence id, the parsed request, and
/// the instant its frame was accepted (feeds the latency histogram).
struct BatchJob {
    seq: Option<u64>,
    req: Request,
    accepted: Instant,
}

/// Serves one connection until EOF, a `close`, a dead socket, a timeout,
/// or drain: the connection state machine (see the module docs), a
/// reader loop on the calling thread plus a scoped worker thread
/// draining the batch channel.
///
/// The socket read timeout is the poll tick: each expiry at a frame
/// boundary burns `read_ms` of the connection's idle budget (the
/// reaper) **unless a batch is in flight**, while an expiry *mid-frame*
/// means the peer started a frame and stalled — that connection is
/// dropped immediately so a wedged sender cannot pin a handler thread
/// forever.
fn serve_connection(conn: &Conn) {
    let (stream, shared) = (conn.stream(), &*conn.shared);
    let (engine, admission, timeouts) = (&*shared.engine, &shared.admission, shared.timeouts);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeouts.read_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(timeouts.write_ms)));
    let mut reader = stream;
    let writer = Mutex::new(stream);
    // Set by the worker when a reply write fails: the connection is
    // beyond saving, the reader gives up at its next tick.
    let dead = AtomicBool::new(false);
    // Batches enqueued but not yet fully answered. The idle reaper only
    // acts when this is zero.
    let outstanding = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel::<BatchJob>(timeouts.pipeline_depth);
        let mut tx = Some(tx);
        let (writer, dead, outstanding) = (&writer, &dead, &outstanding);
        let mut worker = Some(s.spawn(move || {
            while let Ok(job) = rx.recv() {
                if !dead.load(Ordering::Acquire)
                    && serve_batch(writer, engine, admission, &job).is_err()
                {
                    dead.store(true, Ordering::Release);
                }
                outstanding.fetch_sub(1, Ordering::AcqRel);
            }
        }));
        // Joins the worker after closing the channel: every accepted
        // batch is answered before the connection advances past this.
        let finish =
            |tx: &mut Option<mpsc::SyncSender<BatchJob>>,
             worker: &mut Option<std::thread::ScopedJoinHandle<'_, ()>>| {
                drop(tx.take());
                if let Some(w) = worker.take() {
                    let _ = w.join();
                }
            };
        let mut idle_ms = 0u64;
        loop {
            if dead.load(Ordering::Acquire) {
                break;
            }
            let frame = match read_frame_event(&mut reader) {
                Ok(FrameEvent::Frame(f)) => {
                    idle_ms = 0;
                    f
                }
                // The peer hung up cleanly, or drain shut our read side.
                Ok(FrameEvent::Eof) => break,
                Ok(FrameEvent::IdleTimeout) => {
                    if outstanding.load(Ordering::Acquire) > 0 {
                        continue; // waiting on results, not idle
                    }
                    idle_ms = idle_ms.saturating_add(timeouts.read_ms);
                    if timeouts.idle_ms > 0 && idle_ms >= timeouts.idle_ms {
                        bump(&engine.stats.idle_reaped);
                        break;
                    }
                    continue;
                }
                Err(e) => {
                    if e.starts_with("stalled") {
                        bump(&engine.stats.read_stalls);
                    }
                    break; // dead, stalled, or force-closed socket
                }
            };
            bump(&engine.stats.requests);
            let req = match parse_request(&frame) {
                Ok(r) => r,
                Err(msg) => {
                    // Framing is intact, so the connection survives a bad
                    // request; only the request is rejected.
                    let reply = render_response("error", &[("reason", msg)], "");
                    if write_locked(writer, &reply).is_err() {
                        break;
                    }
                    continue;
                }
            };
            match req.verb {
                Verb::Ping => {
                    if write_locked(writer, &render_response("pong", &[], "")).is_err() {
                        break;
                    }
                }
                Verb::Stats => {
                    let body = engine.render_stats(admission.inflight(), admission.high_water());
                    if write_locked(writer, &render_response("stats", &[], &body)).is_err() {
                        break;
                    }
                }
                Verb::Shutdown => {
                    // Answer this connection's accepted batches first —
                    // a client that pipelines compiles and a shutdown
                    // still gets every reply.
                    finish(&mut tx, &mut worker);
                    let _ = write_locked(writer, &render_response("draining", &[], ""));
                    shared.conns.begin_drain();
                    // Wake the blocking `accept`; it drops this
                    // connection and stops.
                    let _ = TcpStream::connect(shared.wake);
                    break;
                }
                Verb::Close => {
                    // Protocol FIN: drain this connection's pipeline,
                    // confirm, close. The server keeps running.
                    finish(&mut tx, &mut worker);
                    bump(&engine.stats.closes);
                    let _ = write_locked(writer, &render_response("closing", &[], ""));
                    break;
                }
                Verb::Compile => {
                    let job = BatchJob {
                        seq: req.seq,
                        req,
                        accepted: Instant::now(),
                    };
                    outstanding.fetch_add(1, Ordering::AcqRel);
                    // A full channel blocks here — backpressure via TCP.
                    match &tx {
                        Some(tx) if tx.send(job).is_ok() => {}
                        _ => {
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                            break;
                        }
                    }
                }
            }
        }
        finish(&mut tx, &mut worker);
    });
}

/// Writes one frame under the connection's writer lock, keeping frames
/// atomic when the reader (control replies) and the worker (results)
/// interleave.
fn write_locked(writer: &Mutex<&TcpStream>, payload: &str) -> Result<(), String> {
    write_frame(&mut *lock(writer), payload)
}

/// Runs one compile batch and streams the per-module `result` frames in
/// input order, closed by a `batch-end` frame. The request's sequence
/// id, when present, is echoed on every frame so pipelined clients can
/// demultiplex.
fn serve_batch(
    writer: &Mutex<&TcpStream>,
    engine: &Engine,
    admission: &Admission,
    job: &BatchJob,
) -> Result<(), String> {
    let req = &job.req;
    let replies = engine.process_batch(admission, &req.options, &req.modules);
    let (mut ok, mut errors, mut shed) = (0u64, 0u64, 0u64);
    let with_seq = |mut keys: Vec<(&'static str, String)>| {
        if let Some(n) = job.seq {
            keys.push(("seq", n.to_string()));
        }
        keys
    };
    for (i, reply) in replies.iter().enumerate() {
        let index = ("index", i.to_string());
        let frame = match reply {
            ModuleReply::Ok { warm, payload } => {
                ok += 1;
                let tier = ("cache", if *warm { "warm" } else { "cold" }.to_string());
                render_response("result ok", &with_seq(vec![index, tier]), payload)
            }
            ModuleReply::Err {
                cause,
                detail,
                quarantined,
            } => {
                errors += 1;
                render_response(
                    "result error",
                    &with_seq(vec![
                        index,
                        ("cause", cause.clone()),
                        ("detail", detail.clone()),
                        ("quarantined", quarantined.to_string()),
                    ]),
                    "",
                )
            }
            ModuleReply::Shed { retry_after_ms } => {
                shed += 1;
                render_response(
                    "result shed",
                    &with_seq(vec![index, ("retry-after-ms", retry_after_ms.to_string())]),
                    "",
                )
            }
        };
        write_locked(writer, &frame)?;
    }
    let end = render_response(
        "batch-end",
        &with_seq(vec![
            ("modules", replies.len().to_string()),
            ("ok", ok.to_string()),
            ("errors", errors.to_string()),
            ("shed", shed.to_string()),
        ]),
        "",
    );
    // Recorded before the frame leaves: a client that has read its
    // `batch-end` and then asks for `stats` must see the batch counted.
    engine.stats.latency.record(job.accepted.elapsed());
    write_locked(writer, &end)
}
