//! Spans around the benchmark's calls into the repository's public API.
//!
//! Every call is timed whether or not the tracer records; recording only
//! keeps the span (name, start, end, parent, operation id) in memory so
//! the traced run can attribute host time per layer and write the spans
//! out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
#[must_use = "end the span to time it"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn begin(&mut self, name: &str, op: u64) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(index);
            index
        });
        Open { start, index }
    }

    /// Ends `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.open.pop(), Some(index), "spans end in LIFO order");
            self.spans[index].end_ns = self.ns_since_origin(end);
        }
        (end - open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, op);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from((t - self.origin).as_nanos()).expect("a run lasts under 584 years")
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array, one object per span, with self times.
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{sep}",
            s.name, s.op, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)), // overlaps a: 10 ns counted once
            span("c", 50, 60, Some(0)),
            span("c.leaf", 52, 55, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 20, 7, 3]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_records_nesting_only_while_recording() {
        let mut t = Tracer::new();
        let (v, secs) = t.time("off", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        let root = t.begin("root", 3);
        let _ = t.time("child", 3, || ());
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].op), (None, Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(spans_json(s).contains("\"name\": \"child\""));
    }
}
