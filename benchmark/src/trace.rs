//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Nothing outside `benchmark/` is instrumented.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`; spans of one
//! request share `request`. They are kept in memory and written out once,
//! when the run ends. A span's self time is its duration minus the part of
//! its interval that its children cover.

use std::collections::HashMap;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one [`Trace`], starting at 1.
    pub id: u32,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Shared by every span of one request or operation.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log. A disabled trace records nothing and costs one
/// branch per call, so the same phase code runs traced and untraced.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Trace { enabled, epoch, spans: Vec::new() }
    }

    pub fn off() -> Self {
        Trace::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant `start_ns` and `end_ns` count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (0 when disabled).
    pub fn record(
        &mut self,
        parent: u32,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        id
    }

    /// Run `work` inside a span. The id is reserved before `work` runs so
    /// that spans `work` records can name it as their parent.
    pub fn span<T>(
        &mut self,
        parent: u32,
        request: u64,
        name: &'static str,
        work: impl FnOnce(&mut Trace, u32) -> T,
    ) -> T {
        if !self.enabled {
            return work(self, ROOT);
        }
        let start_ns = self.now_ns();
        let id = self.record(parent, request, name, start_ns, start_ns);
        let out = work(self, id);
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        out
    }

    /// Time one call into a layer as a leaf span.
    pub fn call<T>(
        &mut self,
        parent: u32,
        request: u64,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return work();
        }
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        self.record(parent, request, name, start_ns, end_ns);
        out
    }

    /// Move another trace's spans (recorded against the same epoch, e.g. by
    /// a client thread) into this one, renumbering ids.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += shift;
            if span.parent != ROOT {
                span.parent += shift;
            }
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Every span, with its self time worked out.
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 112 + 16);
        out.push_str("{\"spans\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.id,
                span.parent,
                span.request,
                span.name,
                span.start_ns,
                span.end_ns,
                self_ns[&span.id]
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to its own interval. Children that
/// overlap each other are counted once; a child that sticks out of its
/// parent only counts for the part inside.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> =
        spans.iter().map(|span| (span.id, (span.start_ns, span.end_ns))).collect();
    for span in spans {
        if let Some(&(start, end)) = bounds.get(&span.parent) {
            let clipped = (span.start_ns.max(start), span.end_ns.min(end));
            if clipped.0 < clipped.1 {
                children.entry(span.parent).or_default().push(clipped);
            }
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[&1], 50, "the grandchild is the child's to subtract, not the root's");
        assert_eq!(self_ns[&2], 40);
        assert_eq!(self_ns[&3], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // children 10..50 and 30..70 cover 10..70 = 60 of the parent's 100.
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)];
        assert_eq!(self_times_ns(&spans)[&1], 40);
        // one child inside another adds nothing.
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times_ns(&spans)[&1], 20);
    }

    #[test]
    fn a_child_outside_its_parent_counts_only_where_it_overlaps() {
        let spans = [span(1, ROOT, 100, 200), span(2, 1, 150, 300), span(3, 1, 0, 50)];
        assert_eq!(self_times_ns(&spans)[&1], 50);
    }

    #[test]
    fn span_reserves_its_id_for_children_and_absorb_renumbers() {
        let mut trace = Trace::new(true, Instant::now());
        trace.span(ROOT, 7, "outer", |trace, outer| {
            trace.call(outer, 7, "inner", || std::hint::black_box(1 + 1));
        });
        assert_eq!(trace.spans()[0].name, "outer");
        assert_eq!(trace.spans()[1].parent, trace.spans()[0].id);
        assert!(trace.spans()[0].end_ns >= trace.spans()[1].end_ns);

        let mut other = Trace::new(true, Instant::now());
        other.span(ROOT, 8, "outer", |trace, outer| {
            trace.call(outer, 8, "inner", || ());
        });
        trace.absorb(other);
        let ids: Vec<u32> = trace.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(trace.spans()[3].parent, 3);
        assert_eq!(trace.spans()[2].parent, ROOT);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut trace = Trace::off();
        let out = trace.span(ROOT, 1, "outer", |trace, id| trace.call(id, 1, "inner", || 5));
        assert_eq!(out, 5);
        assert!(trace.spans().is_empty());
    }
}
