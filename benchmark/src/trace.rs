//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing under `crates/` is instrumented: every span here is opened and
//! closed in `layers.rs`, around one public call. Spans stay in memory
//! and are written out (chrome-trace JSON) when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a `stmt` root).
    pub parent: Option<usize>,
    /// Spans of one statement share this identifier.
    pub stmt: u64,
    /// Statement kind, for the per-kind layer table.
    pub kind: &'static str,
    /// Built from a counter the executor reports (a total, not an
    /// observed interval): laid out back to back inside its parent.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
    kind: &'static str,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
            kind: "",
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next statement.
    pub fn begin_stmt(&mut self, kind: &'static str) {
        assert!(self.open.is_empty(), "previous statement still open");
        self.stmt += 1;
        self.kind = kind;
        self.enter("stmt");
    }

    /// Close the statement's root span — and, after an error cut a
    /// stage short, whatever that left open.
    pub fn end_stmt(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            stmt: self.stmt,
            kind: self.kind,
            synthetic: false,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Attach totals reported by the layer itself (per-operator self
    /// times) as children of the span just closed, back to back from its
    /// start, so self-time arithmetic treats them like observed spans.
    pub fn attach_totals(&mut self, totals: &[(&'static str, u64)]) {
        let parent = self.spans.len() - 1;
        let (mut at, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, ns) in totals {
            // Counter totals can overshoot the observed interval by the
            // timer's own cost; never let children outgrow the parent.
            let ns = ns.min(end - at);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                stmt: self.stmt,
                kind: self.kind,
                synthetic: true,
            });
            at += ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Time per `(statement kind, span name)`: self time, inclusive time,
/// and in how many statements the span occurred.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cell {
    pub self_ns: u64,
    pub inclusive_ns: u64,
    pub count: u64,
}

#[derive(Debug, Default)]
pub struct LayerTable {
    pub cells: BTreeMap<(&'static str, &'static str), Cell>,
}

impl LayerTable {
    pub fn of(spans: &[Span]) -> LayerTable {
        let mut t = LayerTable::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let cell = t.cells.entry((s.kind, s.name)).or_default();
            cell.self_ns += own;
            cell.inclusive_ns += s.dur_ns();
            cell.count += 1;
        }
        t
    }

    /// The cell of `name` summed over all statement kinds.
    pub fn total(&self, name: &str) -> Cell {
        let mut sum = Cell::default();
        for ((_, n), c) in &self.cells {
            if *n == name {
                sum.self_ns += c.self_ns;
                sum.inclusive_ns += c.inclusive_ns;
                sum.count += c.count;
            }
        }
        sum
    }

    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.cells.keys().map(|(k, _)| *k).collect();
        kinds.dedup();
        kinds
    }

    /// Span names in pipeline order, for printing.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.cells.keys().map(|(_, n)| *n).collect();
        names.sort_by_key(|n| (crate::layers::SPAN_ORDER.iter().position(|o| o == n), *n));
        names.dedup();
        names
    }
}

/// Chrome-trace ("Trace Event Format") rendering: one complete event per
/// span, statements on one track, loadable in a trace viewer.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"stmt\":{},\"synthetic\":{}}}}}",
            s.name,
            s.kind,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.stmt,
            s.synthetic,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 1,
            kind: "k",
            synthetic: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("sql.parse", 5, 25, Some(0)),
            span("engine.exec", 30, 90, Some(0)),
            span("engine.op.sort", 30, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
        let table = LayerTable::of(&spans);
        let exec = table.total("engine.exec");
        assert_eq!((exec.self_ns, exec.inclusive_ns, exec.count), (20, 60, 1));
        assert_eq!(table.total("stmt").self_ns, 20);
        assert_eq!(
            table.names(),
            ["stmt", "sql.parse", "engine.exec", "engine.op.sort"]
        );
        assert_eq!(table.kinds(), ["k"]);
    }

    #[test]
    fn tracer_nests_and_attaches_totals_inside_the_parent() {
        let mut t = Tracer::default();
        t.begin_stmt("q");
        t.span("engine.exec", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.attach_totals(&[
            ("engine.op.scan", 500_000),
            ("engine.op.sort", u64::MAX / 2),
        ]);
        t.end_stmt();
        let spans = t.spans();
        assert_eq!(spans[0].name, "stmt");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].synthetic);
        // The oversized total is clamped to what is left of the parent.
        assert_eq!(spans[3].end_ns, spans[1].end_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(self_times(spans)[1], 0);
        assert!(chrome_json(spans).contains("\"name\":\"engine.op.sort\""));
    }
}
