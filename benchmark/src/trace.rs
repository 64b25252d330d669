//! Spans recorded from the harness side: one around every call into a
//! crate's public function, named `layer.function`.  Spans are held in
//! memory and written out when the run ends.  A layer's self time is its
//! span minus the part its child spans cover.  Spans *inside* the crates
//! are ROADMAP item 2, a later change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::{object, Value};

/// One timed call.  Spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// A single-threaded span recorder.  With tracing off, `span` runs the
/// closure and records nothing, which is how the untraced side of
/// `trace.overhead_share` is timed by the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            }),
        }
    }

    /// Start the next operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.state.borrow_mut().op += 1;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut state = self.state.borrow_mut();
            let id = state.spans.len() as u32;
            let span = Span {
                id,
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: state.open.last().copied(),
                op: state.op,
            };
            state.spans.push(span);
            state.open.push(id);
            id
        };
        let result = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut state = self.state.borrow_mut();
        state.open.pop();
        state.spans[id as usize].end_ns = end_ns;
        result
    }

    /// [`Tracer::span`], also returning how long `f` took.  The clock reads
    /// sit outside the span's own, so the time includes the span's cost —
    /// which is what `trace.overhead_share` compares with tracing off.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let result = self.span(name, f);
        (result, started.elapsed())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().spans
    }
}

/// Per-span self time: duration minus the duration of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += own_ns;
    }
    out
}

/// The trace file: one object per span, the fields of [`Span`].
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                object([
                    ("id", Value::Number(f64::from(s.id))),
                    ("name", Value::Text(s.name.to_string())),
                    ("start_ns", Value::Number(s.start_ns as f64)),
                    ("end_ns", Value::Number(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(Value::Null, |p| Value::Number(f64::from(p))),
                    ),
                    ("op", Value::Number(f64::from(s.op))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        // op [0,100) ⊃ core.prepare [10,70) ⊃ { parser.parse [10,30), algebra.compile [30,60) }
        let spans = vec![
            span(0, "op", 0, 100, None),
            span(1, "core.prepare", 10, 70, Some(0)),
            span(2, "parser.parse", 10, 30, Some(1)),
            span(3, "algebra.compile", 30, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 20, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["core.prepare"].total_ns, 60);
        assert_eq!(totals["core.prepare"].self_ns, 10);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let tracer = Tracer::new(true);
        tracer.next_op();
        let answer = tracer.span("core.execute", || tracer.span("eval.fixpoint", || 42));
        assert_eq!(answer, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op == 1));

        let off = Tracer::new(false);
        assert_eq!(off.span("core.execute", || 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
