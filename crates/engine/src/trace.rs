//! A lightweight span tracer with chrome-trace export.
//!
//! `SET trace = on` makes the session layer record one span per query,
//! plan and operator into the database's [`Tracer`] — a fixed-capacity
//! ring buffer of completed spans. The buffer is bounded so a long-lived
//! server can leave tracing on without growing memory: when full, the
//! oldest spans fall off and a drop counter records how many were lost.
//!
//! [`Tracer::chrome_trace_json`] renders the buffer as a Chrome trace
//! event array (the `chrome://tracing` / Perfetto "X" complete-event
//! format), which the tsql `.trace <file>` dot-command writes to disk.
//! The JSON is emitted by hand — the tracer, like the rest of the
//! observability layer, takes no dependencies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity: enough for ~100 queries with a dozen operator
/// spans each, small enough (~100 KB) to forget about.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One completed span. Times are microseconds relative to the tracer's
/// creation instant, so spans from different threads share one clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Human-readable name (`query`, `plan`, an operator head line).
    pub name: String,
    /// Category for trace-viewer filtering (`query` / `plan` / `operator`).
    pub cat: &'static str,
    /// Start offset from tracer creation, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Lane: trace viewers stack spans per (pid, tid); the session layer
    /// uses depth-in-plan so operator spans nest visually under the query.
    pub tid: u64,
}

/// The span ring buffer (see module docs). Thread-safe; one per database.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    spans: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds elapsed since tracer creation — the span clock.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a completed span. Oldest spans are evicted at capacity.
    pub fn record(&self, span: Span) {
        let mut ring = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Convenience: record a span that started at `start_us` on the span
    /// clock and just ended.
    pub fn record_since(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        start_us: u64,
        tid: u64,
    ) {
        let end = self.now_us();
        self.record(Span {
            name: name.into(),
            cat,
            start_us,
            dur_us: end.saturating_sub(start_us),
            tid,
        });
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop all buffered spans (the drop counter keeps accumulating).
    pub fn clear(&self) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Copy out the buffered spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Render the buffer as a Chrome trace event array — complete ("X")
    /// events with microsecond timestamps, loadable in `chrome://tracing`
    /// or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                json_escape(&s.name),
                json_escape(s.cat),
                s.start_us,
                s.dur_us,
                s.tid,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64) -> Span {
        Span {
            name: name.to_string(),
            cat: "query",
            start_us: start,
            dur_us: 5,
            tid: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = Tracer::new(3);
        for i in 0..5 {
            t.record(span(&format!("q{i}"), i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let names: Vec<String> = t.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["q2", "q3", "q4"]);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let t = Tracer::new(8);
        t.record(Span {
            name: "SELECT \"x\"\nline2".to_string(),
            cat: "query",
            start_us: 10,
            dur_us: 42,
            tid: 1,
        });
        let json = t.chrome_trace_json();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":42"));
        // Quotes and newlines inside names are escaped.
        assert!(json.contains("SELECT \\\"x\\\"\\nline2"));
    }

    #[test]
    fn record_since_measures_on_the_span_clock() {
        let t = Tracer::new(8);
        let start = t.now_us();
        t.record_since("q", "query", start, 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, start);
    }

    #[test]
    fn clear_empties_the_ring() {
        let t = Tracer::new(4);
        t.record(span("a", 0));
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }
}
