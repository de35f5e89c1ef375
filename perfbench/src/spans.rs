//! In-memory spans recorded around calls into the workspace crates.
//!
//! A span has a name (the per-layer metric it feeds), a start and end in
//! nanoseconds since the tracer was created, the index of the span that
//! was open when it began, and the id of the run it belongs to. With
//! tracing off, `span` just calls its closure, so traced and untraced
//! runs execute the same calls.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric name the span's self time is added to.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run the span belongs to (a set-up, a repetition, or the probe).
    pub run: u32,
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (between runs only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    /// Start attributing new spans to run `run`.
    pub fn set_run(&mut self, run: u32) {
        assert!(self.stack.is_empty(), "changed run inside a span");
        self.run = run;
    }

    /// Time `f` as a span named `name`, nested in the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per-name self time in seconds of the spans of `run`.
    pub fn self_seconds(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let own = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if span.run == run {
                *out.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start, s.end, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in ns: its duration minus the part of it
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn leaf_and_childless_spans_keep_their_duration() {
        let spans = [span("solo", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn tracer_nests_and_groups_by_run() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        t.span("outer", |t| t.span("inner", |_| ()));
        t.set_run(8);
        t.span("outer", |_| ());
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].run, 8);
        let run7 = t.self_seconds(7);
        assert_eq!(run7.len(), 2);
        assert!(t.self_seconds(8).contains_key("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans.is_empty());
    }
}
