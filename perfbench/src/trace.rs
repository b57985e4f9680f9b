//! The traced run's span recorder.
//!
//! Spans are kept in memory — name, start, duration, the span that
//! caused it, and the request it belongs to — together with counter
//! snapshots read before and after each phase, and written out as one
//! JSON file when the run ends. Pipeline stage spans come from
//! [`SpanObserver`], a [`PassObserver`] installed by the benchmark; every
//! other span brackets a call the benchmark makes into a public function.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use treegion::{PassObserver, Profiler, Stage, StageScope, StageStats};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.ddg` or `serve.connect`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request (or cell, or function) it belongs to.
    pub req: Option<u64>,
    /// Start, microseconds from the trace origin.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// The in-memory trace of one run.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<(String, BTreeMap<String, String>)>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// Records a span from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span table poisoned");
        spans.push(Span {
            name: name.to_string(),
            parent,
            req,
            start_us: at(start),
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        });
        spans.len() - 1
    }

    /// Opens a span now, for spans recorded while it is open to name as
    /// their parent; [`Trace::end`] closes it.
    pub fn begin(&self, name: &str, parent: Option<usize>, req: Option<u64>) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&self, id: usize) {
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span table poisoned");
        let s = &mut spans[id];
        s.dur_us = now_us - s.start_us;
    }

    /// Runs `f` inside a span; returns its result, duration in seconds,
    /// and the span id.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        req: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, usize) {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        let id = self.record(name, parent, req, t, end);
        (r, (end - t).as_secs_f64(), id)
    }

    /// Stores a counter snapshot taken at `label` (e.g. `light.before`).
    pub fn counters(&self, label: &str, values: BTreeMap<String, String>) {
        self.counters
            .lock()
            .expect("counter table poisoned")
            .push((label.to_string(), values));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span table poisoned").len()
    }

    /// Renders the whole trace as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        let spans = self.spans.lock().expect("span table poisoned");
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {id}, \"name\": {}, \"parent\": {}, \"req\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                if id == 0 { "" } else { ",\n" },
                json_str(&s.name),
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
                s.start_us,
                s.dur_us
            );
        }
        out.push_str("\n], \"counters\": [\n");
        let counters = self.counters.lock().expect("counter table poisoned");
        for (i, (label, values)) in counters.iter().enumerate() {
            let body: Vec<String> = values
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            let _ = write!(
                out,
                "{}{{\"at\": {}, \"values\": {{{}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(label),
                body.join(", ")
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A [`PassObserver`] that records one span per pipeline stage call
/// under `parent` and accumulates per-stage totals in a [`Profiler`].
/// Stage brackets do not nest, so each span's duration is its self time.
pub struct SpanObserver<'a> {
    /// Where spans go.
    pub trace: &'a Trace,
    /// The span of the call that drove the pipeline.
    pub parent: Option<usize>,
    /// The function (request) being driven.
    pub req: Option<u64>,
    /// Per-stage totals.
    pub profiler: &'a Profiler,
}

impl PassObserver for SpanObserver<'_> {
    fn stage_exit(
        &self,
        stage: Stage,
        scope: StageScope<'_>,
        elapsed: Duration,
        stats: StageStats,
    ) {
        let end = Instant::now();
        let name = format!("core.{}", stage.name());
        self.trace
            .record(&name, self.parent, self.req, end - elapsed, end);
        self.profiler.stage_exit(stage, scope, elapsed, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_renders_spans_and_counters_as_json() {
        let t = Trace::new();
        let ((), _, root) = t.time("serve.request", None, Some(3), || ());
        let now = Instant::now();
        t.record("serve.connect", Some(root), Some(3), now, now);
        t.counters("light.before", BTreeMap::from([("ok".into(), "1".into())]));
        let json = t.to_json();
        assert!(
            json.contains("\"name\": \"serve.connect\", \"parent\": 0, \"req\": 3"),
            "{json}"
        );
        assert!(
            json.contains("{\"at\": \"light.before\", \"values\": {\"ok\": \"1\"}}"),
            "{json}"
        );
        assert_eq!(t.len(), 2);
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
