//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each layer's public functions — nothing inside `crates/` is touched.
//! They stay in memory during the run and are written out afterwards. A
//! span's *self time* is its duration minus the part of it that its
//! direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one request.
    pub request: u64,
}

/// In-memory span store. A disabled recorder runs the closures and records
/// nothing, so the same replay code measures the tracing overhead.
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a recorder's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the span open on this
    /// recorder (if any). `f` gets the recorder back to open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as one JSON document: an array of
    /// `{"id","name","start_ns","end_ns","parent","request"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("execute", 25, 70, Some(0)), // overlaps decode by 5
            span("mine", 30, 60, Some(2)),
            span("late", 90, 130, Some(0)), // sticks out of the parent
        ];
        // children of request cover [10,70] and [90,100] = 70
        assert_eq!(self_times(&spans), vec![30, 20, 15, 30, 40]);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true);
        let v = r.span("outer", 7, |r| r.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        let totals = r.totals();
        assert_eq!(totals["outer"].count, 1);
        assert!(totals["outer"].self_ns <= totals["outer"].total_ns);
        assert!(r.to_json().contains("\"name\":\"inner\""));

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", 1, |r| r.span("inner", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
