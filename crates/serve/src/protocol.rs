//! The wire protocol: length-prefixed frames carrying line-oriented text.
//!
//! Framing is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8. The payload is plain text in the workspace's usual
//! line-oriented style (the operator can read a capture with `xxd` and
//! `grep`), with a versioned first line:
//!
//! ```text
//! tgc-serve v1 compile          request: verb line
//! kind tree                     option lines (defaults mirror the CLI)
//! machine 4u
//! heuristic global-weight
//! dompar
//! deadline-ms 200
//!                               blank line, then the batch body
//! module @a { ... }             one or more tir modules,
//! ---                           separated by `---` lines;
//! !panic-region 0               `!`-lines poison the next module only
//! module @b { ... }
//! ```
//!
//! Verbs: `compile`, `stats`, `ping`, `shutdown`, `close`. The server
//! answers a compile batch with one `result` frame per module **in input
//! order** (streamed as each finishes admission/scheduling) and a final
//! `batch-end` frame; other verbs get a single frame.
//!
//! ## Keep-alive pipelining
//!
//! A connection carries any number of batches back-to-back. A compile
//! request may carry a `seq N` option line — an opaque per-batch
//! sequence id the server echoes as a `seq` key on every `result` and
//! `batch-end` frame of that batch, so a client with several batches in
//! flight can demultiplex replies (which always arrive in submission
//! order — the server processes one connection's batches FIFO while
//! *reading ahead* on the socket). The `close` verb is the protocol's
//! FIN equivalent: the server finishes every batch already accepted on
//! the connection, answers `closing`, and closes its end.
//!
//! A result frame's body after the blank line is exactly the payload the
//! disk cache stores, so a warm hit is byte-identical to the cold run
//! that populated it — the property the kill-9 drill asserts.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use treegion::{Heuristic, RegionConfig, TailDupLimits};
use treegion_machine::MachineModel;

/// Protocol identifier prefixing every frame.
pub const MAGIC: &str = "tgc-serve v1";

/// Upper bound on a frame payload (16 MiB): a garbage length prefix must
/// not make the server allocate unbounded memory.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes one length-prefixed frame in a single write. Split into a
/// header write and a payload write, a sender with Nagle's algorithm on
/// would hold the payload until the peer ACKs the header, which a
/// delayed ACK postpones by tens of milliseconds.
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), String> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME as usize {
        return Err(format!("frame too large ({} bytes)", bytes.len()));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write: {e}"))
}

/// What one timeout-aware read attempt produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(String),
    /// Clean EOF at a frame boundary (the peer hung up between
    /// requests).
    Eof,
    /// The socket's read timeout expired **before any header byte
    /// arrived** — the connection is merely idle, not broken. The
    /// caller decides whether its idle budget is exhausted.
    IdleTimeout,
}

/// Reads one length-prefixed frame from a socket that may carry a read
/// timeout. A timeout at a frame boundary is reported as
/// [`FrameEvent::IdleTimeout`] (retryable); a timeout *mid-frame* means
/// the peer stalled after starting a frame and is an error — waiting
/// longer would pin the handler on a wedged sender.
///
/// # Errors
///
/// Truncated frames, oversized lengths, non-UTF-8 payloads, mid-frame
/// stalls (message starts with `stalled`), and I/O errors.
pub fn read_frame_event(r: &mut impl Read) -> Result<FrameEvent, String> {
    let timed_out = |e: &std::io::Error| {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    };
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(FrameEvent::Eof),
            Ok(0) => return Err("truncated frame header".into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) && got == 0 => return Ok(FrameEvent::IdleTimeout),
            Err(e) if timed_out(&e) => return Err("stalled peer (mid-header timeout)".into()),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(format!("frame length {len} exceeds cap {MAX_FRAME}"));
    }
    let mut buf = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err("truncated frame body".into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if timed_out(&e) => return Err("stalled peer (mid-body timeout)".into()),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    String::from_utf8(buf)
        .map(FrameEvent::Frame)
        .map_err(|_| "frame is not UTF-8".into())
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary (the peer hung up between requests). On a socket with a
/// read timeout, an idle timeout is an error here — clients waiting on
/// a response use this entry point, and for them silence *is* failure.
///
/// # Errors
///
/// Truncated frames, oversized lengths, non-UTF-8 payloads, timeouts,
/// and I/O errors all fail with a message.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, String> {
    match read_frame_event(r)? {
        FrameEvent::Frame(f) => Ok(Some(f)),
        FrameEvent::Eof => Ok(None),
        FrameEvent::IdleTimeout => Err("read timed out waiting for a frame".into()),
    }
}

/// The request verbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Schedule a batch of modules.
    Compile,
    /// Report counters, cache layers, and per-stage timings.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful drain: finish in-flight work, checkpoint, exit.
    Shutdown,
    /// Connection FIN: finish every batch accepted on this connection,
    /// answer `closing`, close the connection (the server keeps
    /// running).
    Close,
}

/// Batch-wide scheduling options (defaults mirror `tgc schedule`).
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Region former (`kind` line).
    pub kind: RegionConfig,
    /// Target machine (`machine` line).
    pub machine: MachineModel,
    /// List-scheduling heuristic (`heuristic` line).
    pub heuristic: Heuristic,
    /// Dominator parallelism (`dompar` flag line).
    pub dompar: bool,
    /// Per-module soft deadline in ms (`deadline-ms` line); the server
    /// may also impose its own default.
    pub deadline_ms: Option<u64>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            kind: RegionConfig::Treegion,
            machine: MachineModel::model_4u(),
            heuristic: Heuristic::GlobalWeight,
            dompar: false,
            deadline_ms: None,
        }
    }
}

/// Per-module poison knobs (`!`-lines): deterministic fault injection so
/// one module of a batch can crash while its siblings stay clean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Poison {
    /// `!fault-seed N` — scheduler fault campaign.
    pub fault_seed: Option<u64>,
    /// `!panic-region N` — panic while scheduling region N (contained
    /// and recovered *inside* the pipeline's fallback chain).
    pub panic_region: Option<usize>,
    /// `!panic-hard` — panic at the serve layer, outside the pipeline's
    /// own containment: exercises the per-request `catch_unwind` and
    /// the quarantine path end to end.
    pub panic_hard: bool,
}

impl Poison {
    /// `true` when any knob is set (poisoned results are never cached).
    pub fn is_set(&self) -> bool {
        self.fault_seed.is_some() || self.panic_region.is_some() || self.panic_hard
    }
}

/// One module of a compile batch.
#[derive(Clone, Debug)]
pub struct ModuleRequest {
    /// The module's tir text.
    pub text: String,
    /// Injection knobs for this module only.
    pub poison: Poison,
}

/// A parsed request frame.
#[derive(Clone, Debug)]
pub struct Request {
    /// What the client wants.
    pub verb: Verb,
    /// Batch options (defaults when absent).
    pub options: BatchOptions,
    /// Pipelining sequence id (`seq` option line): echoed on every
    /// frame of this batch's reply. `None` for unpipelined clients.
    pub seq: Option<u64>,
    /// The batch body (empty for non-compile verbs).
    pub modules: Vec<ModuleRequest>,
}

fn parse_kind(s: &str) -> Result<RegionConfig, String> {
    match s {
        "bb" => Ok(RegionConfig::BasicBlock),
        "slr" => Ok(RegionConfig::Slr),
        "sb" => Ok(RegionConfig::Superblock),
        "tree" => Ok(RegionConfig::Treegion),
        other => match other.strip_prefix("tree-td") {
            Some(rest) => {
                let mut limits = TailDupLimits::expansion_2_0();
                if let Some(v) = rest.strip_prefix(':') {
                    limits.code_expansion = v
                        .parse()
                        .map_err(|_| format!("bad expansion limit `{v}`"))?;
                }
                Ok(RegionConfig::TreegionTd(limits))
            }
            None => Err(format!("unknown region kind `{other}`")),
        },
    }
}

fn parse_machine(s: &str) -> Result<MachineModel, String> {
    match s.to_ascii_lowercase().as_str() {
        "1u" => Ok(MachineModel::model_1u()),
        "4u" => Ok(MachineModel::model_4u()),
        "8u" => Ok(MachineModel::model_8u()),
        other => {
            let width: usize = other
                .parse()
                .map_err(|_| format!("unknown machine `{s}`"))?;
            if width == 0 {
                return Err("issue width must be positive".into());
            }
            Ok(MachineModel::builder(format!("{width}U"), width).build())
        }
    }
}

fn parse_heuristic(s: &str) -> Result<Heuristic, String> {
    Heuristic::ALL
        .into_iter()
        .find(|h| h.name() == s)
        .ok_or_else(|| format!("unknown heuristic `{s}`"))
}

/// Renders a compile request frame — the client-side inverse of
/// [`parse_request`]. No `seq` line is emitted (the unpipelined form).
pub fn render_compile(options: &BatchOptions, modules: &[ModuleRequest]) -> String {
    render_compile_seq(options, None, modules)
}

/// [`render_compile`] with an explicit pipelining sequence id.
pub fn render_compile_seq(
    options: &BatchOptions,
    seq: Option<u64>,
    modules: &[ModuleRequest],
) -> String {
    let mut out = format!("{MAGIC} compile\n");
    if let Some(n) = seq {
        out.push_str(&format!("seq {n}\n"));
    }
    let kind = match &options.kind {
        RegionConfig::BasicBlock => "bb".to_string(),
        RegionConfig::Slr => "slr".to_string(),
        RegionConfig::Superblock => "sb".to_string(),
        RegionConfig::Treegion => "tree".to_string(),
        RegionConfig::TreegionTd(l) => format!("tree-td:{}", l.code_expansion),
    };
    out.push_str(&format!("kind {kind}\n"));
    out.push_str(&format!("machine {}\n", options.machine.issue_width()));
    out.push_str(&format!("heuristic {}\n", options.heuristic.name()));
    if options.dompar {
        out.push_str("dompar\n");
    }
    if let Some(ms) = options.deadline_ms {
        out.push_str(&format!("deadline-ms {ms}\n"));
    }
    out.push('\n');
    for (i, m) in modules.iter().enumerate() {
        if i > 0 {
            out.push_str("---\n");
        }
        if let Some(s) = m.poison.fault_seed {
            out.push_str(&format!("!fault-seed {s}\n"));
        }
        if let Some(r) = m.poison.panic_region {
            out.push_str(&format!("!panic-region {r}\n"));
        }
        if m.poison.panic_hard {
            out.push_str("!panic-hard\n");
        }
        out.push_str(&m.text);
        if !m.text.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// Renders a bodyless request (`stats`, `ping`, `shutdown`).
pub fn render_simple(verb: Verb) -> String {
    let v = match verb {
        Verb::Compile => "compile",
        Verb::Stats => "stats",
        Verb::Ping => "ping",
        Verb::Shutdown => "shutdown",
        Verb::Close => "close",
    };
    format!("{MAGIC} {v}\n")
}

/// Parses a request frame.
///
/// # Errors
///
/// Returns a client-facing message on bad magic, unknown verbs/options,
/// or malformed option values. Module *bodies* are not parsed here —
/// tir errors are per-module structured errors, not protocol errors.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let mut lines = payload.lines();
    let head = lines.next().unwrap_or("");
    let verb = match head.strip_prefix(MAGIC).map(str::trim) {
        Some("compile") => Verb::Compile,
        Some("stats") => Verb::Stats,
        Some("ping") => Verb::Ping,
        Some("shutdown") => Verb::Shutdown,
        Some("close") => Verb::Close,
        Some(other) => return Err(format!("unknown verb `{other}`")),
        None => return Err(format!("bad protocol magic (want `{MAGIC} <verb>`)")),
    };
    let mut options = BatchOptions::default();
    let mut seq = None;
    // Option lines until the first blank line; the rest is the body.
    let mut body = Vec::new();
    let mut in_body = false;
    for line in lines {
        if in_body {
            body.push(line);
            continue;
        }
        if line.trim().is_empty() {
            in_body = true;
            continue;
        }
        let (key, value) = match line.split_once(' ') {
            Some((k, v)) => (k, v.trim()),
            None => (line, ""),
        };
        match key {
            "kind" => options.kind = parse_kind(value)?,
            "machine" => options.machine = parse_machine(value)?,
            "heuristic" => options.heuristic = parse_heuristic(value)?,
            "dompar" => options.dompar = true,
            "seq" => {
                seq = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad sequence id `{value}`"))?,
                );
            }
            "deadline-ms" => {
                options.deadline_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad deadline `{value}`"))?,
                );
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let modules = if verb == Verb::Compile {
        parse_batch_body(&body)?
    } else {
        Vec::new()
    };
    if verb == Verb::Compile && modules.is_empty() {
        return Err("compile request carries no modules".into());
    }
    Ok(Request {
        verb,
        options,
        seq,
        modules,
    })
}

/// Splits the batch body on `---` separator lines and peels each
/// module's leading `!`-poison lines.
fn parse_batch_body(body: &[&str]) -> Result<Vec<ModuleRequest>, String> {
    let mut modules = Vec::new();
    for chunk in body.split(|l| l.trim() == "---") {
        let mut poison = Poison::default();
        let mut text_lines = Vec::new();
        let mut in_text = false;
        for line in chunk {
            if !in_text && line.trim().is_empty() && text_lines.is_empty() {
                continue; // leading blank lines
            }
            if !in_text {
                if let Some(rest) = line.strip_prefix('!') {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    match k {
                        "fault-seed" => {
                            poison.fault_seed =
                                Some(v.parse().map_err(|_| format!("bad fault seed `{v}`"))?);
                        }
                        "panic-region" => {
                            poison.panic_region =
                                Some(v.parse().map_err(|_| format!("bad region index `{v}`"))?);
                        }
                        "panic-hard" => poison.panic_hard = true,
                        other => return Err(format!("unknown poison knob `!{other}`")),
                    }
                    continue;
                }
                in_text = true;
            }
            text_lines.push(*line);
        }
        let text = text_lines.join("\n");
        if text.trim().is_empty() {
            continue; // empty chunk (trailing separator)
        }
        modules.push(ModuleRequest {
            text: format!("{text}\n"),
            poison,
        });
    }
    Ok(modules)
}

/// Status of one `result` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResultStatus {
    /// The module was scheduled; the body is the (cacheable) payload.
    Ok,
    /// The module failed; `cause` is a containment label.
    Error,
    /// The module was shed by admission control; retry later.
    Shed,
}

/// A parsed `result` / `batch-end` / `stats` / `pong` frame — the
/// client-side view. `keys` holds the header's `key value` lines,
/// `body` the text after the blank separator.
#[derive(Clone, Debug)]
pub struct ResponseFrame {
    /// Frame kind: `result`, `batch-end`, `stats`, `pong`, `draining`.
    pub kind: String,
    /// `result` status when `kind == "result"`.
    pub status: Option<ResultStatus>,
    /// Header key/value lines.
    pub keys: BTreeMap<String, String>,
    /// Body after the blank line ("" when none).
    pub body: String,
}

impl ResponseFrame {
    /// Header value lookup.
    pub fn key(&self, k: &str) -> Option<&str> {
        self.keys.get(k).map(String::as_str)
    }
}

/// Renders a response frame. `status` is appended to the kind line
/// (`result ok`), keys become `key value` lines, and a non-empty body
/// follows a blank separator.
pub fn render_response(kind: &str, keys: &[(&str, String)], body: &str) -> String {
    let mut out = format!("{MAGIC} {kind}\n");
    for (k, v) in keys {
        out.push_str(&format!("{k} {v}\n"));
    }
    if !body.is_empty() {
        out.push('\n');
        out.push_str(body);
        if !body.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// Parses a response frame (used by the CLI client and the tests).
///
/// # Errors
///
/// Fails on bad magic or an unknown `result` status.
pub fn parse_response(payload: &str) -> Result<ResponseFrame, String> {
    let (head, rest) = payload.split_once('\n').unwrap_or((payload, ""));
    let head = head
        .strip_prefix(MAGIC)
        .map(str::trim)
        .ok_or_else(|| format!("bad response magic in {head:?}"))?;
    let (kind, status) = match head.strip_prefix("result ") {
        Some(s) => (
            "result".to_string(),
            Some(match s {
                "ok" => ResultStatus::Ok,
                "error" => ResultStatus::Error,
                "shed" => ResultStatus::Shed,
                other => return Err(format!("unknown result status `{other}`")),
            }),
        ),
        None => (head.to_string(), None),
    };
    // Header lines up to the blank separator; the body is everything
    // after it (no separator = all header). A keyless frame's separator
    // is the very first character of `rest`.
    let (header, body) = match rest.strip_prefix('\n') {
        Some(b) => ("", b.to_string()),
        None => match rest.split_once("\n\n") {
            Some((h, b)) => (h, b.to_string()),
            None => (rest.trim_end_matches('\n'), String::new()),
        },
    };
    let mut keys = BTreeMap::new();
    for line in header.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let (k, v) = line.split_once(' ').unwrap_or((line, ""));
        keys.insert(k.to_string(), v.trim().to_string());
    }
    Ok(ResponseFrame {
        kind,
        status,
        keys,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld\n").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("hello\nworld\n")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut buf.as_slice()).is_err());
        // Garbage length prefix over the cap.
        let huge = (MAX_FRAME + 1).to_be_bytes().to_vec();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // Truncated header.
        assert!(read_frame(&mut [0u8, 0].as_slice()).is_err());
    }

    #[test]
    fn compile_request_round_trips() {
        let opts = BatchOptions {
            kind: RegionConfig::Superblock,
            machine: MachineModel::model_8u(),
            heuristic: Heuristic::DependenceHeight,
            dompar: true,
            deadline_ms: Some(250),
        };
        let modules = vec![
            ModuleRequest {
                text: "module @a\nfunc @f {\n}\n".into(),
                poison: Poison::default(),
            },
            ModuleRequest {
                text: "module @b\n".into(),
                poison: Poison {
                    panic_region: Some(0),
                    fault_seed: Some(9),
                    panic_hard: true,
                },
            },
        ];
        let req = parse_request(&render_compile(&opts, &modules)).unwrap();
        assert_eq!(req.verb, Verb::Compile);
        assert_eq!(req.options.machine.issue_width(), 8);
        assert!(req.options.dompar);
        assert_eq!(req.options.deadline_ms, Some(250));
        assert_eq!(req.modules.len(), 2);
        assert_eq!(req.modules[0].text, modules[0].text);
        assert_eq!(req.modules[0].poison, Poison::default());
        assert_eq!(req.modules[1].poison.panic_region, Some(0));
        assert_eq!(req.modules[1].poison.fault_seed, Some(9));
        assert!(req.modules[1].poison.panic_hard);
    }

    #[test]
    fn simple_verbs_parse() {
        for (v, s) in [
            (Verb::Stats, "stats"),
            (Verb::Ping, "ping"),
            (Verb::Shutdown, "shutdown"),
            (Verb::Close, "close"),
        ] {
            let req = parse_request(&render_simple(v)).unwrap();
            assert_eq!(req.verb, v, "{s}");
            assert!(req.modules.is_empty());
        }
    }

    #[test]
    fn sequence_ids_round_trip_and_default_off() {
        let m = vec![ModuleRequest {
            text: "module @a\n".into(),
            poison: Poison::default(),
        }];
        let opts = BatchOptions::default();
        // Unpipelined clients emit no seq line and parse to None.
        let plain = render_compile(&opts, &m);
        assert!(!plain.contains("seq "));
        assert_eq!(parse_request(&plain).unwrap().seq, None);
        // Pipelined form round-trips arbitrary ids.
        for id in [0u64, 1, 42, u64::MAX] {
            let req = parse_request(&render_compile_seq(&opts, Some(id), &m)).unwrap();
            assert_eq!(req.seq, Some(id));
            assert_eq!(req.modules.len(), 1);
        }
        // Malformed ids are protocol errors, not panics.
        assert!(parse_request("tgc-serve v1 compile\nseq x\n\nmodule @a\n").is_err());
        assert!(parse_request("tgc-serve v1 compile\nseq -3\n\nmodule @a\n").is_err());
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(parse_request("http GET /\n").is_err());
        assert!(parse_request("tgc-serve v1 explode\n").is_err());
        assert!(parse_request("tgc-serve v1 compile\nkind hyperblock\n\nmodule @a\n").is_err());
        assert!(parse_request("tgc-serve v1 compile\nwat 1\n\nmodule @a\n").is_err());
        // Empty batch.
        assert!(parse_request("tgc-serve v1 compile\n\n").is_err());
        // Bad poison value.
        assert!(parse_request("tgc-serve v1 compile\n\n!panic-region x\nmodule @a\n").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let text = render_response(
            "result ok",
            &[("cache", "warm".into())],
            "module @a\ndigest 00ff\n",
        );
        let f = parse_response(&text).unwrap();
        assert_eq!(f.kind, "result");
        assert_eq!(f.status, Some(ResultStatus::Ok));
        assert_eq!(f.key("cache"), Some("warm"));
        assert_eq!(f.body, "module @a\ndigest 00ff\n");

        let text = render_response("batch-end", &[("ok", "2".into()), ("shed", "1".into())], "");
        let f = parse_response(&text).unwrap();
        assert_eq!(f.kind, "batch-end");
        assert_eq!(f.status, None);
        assert_eq!(f.key("shed"), Some("1"));
        assert!(f.body.is_empty());

        let f = parse_response("tgc-serve v1 pong\n").unwrap();
        assert_eq!(f.kind, "pong");
        assert!(parse_response("nonsense\n").is_err());

        // Keyless frame with a body: the separator is the first char.
        let f = parse_response(&render_response("stats", &[], "requests 3\nok 2\n")).unwrap();
        assert_eq!(f.kind, "stats");
        assert!(f.keys.is_empty());
        assert_eq!(f.body, "requests 3\nok 2\n");
    }
}
