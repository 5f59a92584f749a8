//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span carries its name, start, end, parent span and a request id
//! (the record's sequence number where one exists). Recording is off in
//! untraced runs: `begin` then neither reads the clock nor stores
//! anything, so end-to-end numbers are measured without it. Spans are
//! written out once the run ends, and a layer's self time is its span
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span; `SpanId::NONE` when tracing is off or the
/// span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// Request id of spans that serve no single record.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.encode`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the parent span, or `SpanId::NONE`.
    pub parent: SpanId,
    /// Record sequence number, or [`NO_REQUEST`].
    pub request: u64,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let t = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = t;
        }
    }

    /// Runs `f` inside a span and returns its result.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.spans)
    }

    /// Writes every span as one tab-separated line
    /// (`index name start_ns end_ns parent request`).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                i64::from(s.parent.0)
            };
            let request = if s.request == NO_REQUEST {
                -1
            } else {
                s.request as i64
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{request}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, ns (0 when no span was recorded).
    pub fn self_ns_per_span(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Per-name totals of span count, duration and self time. A span's self
/// time is its duration minus the union of its children's intervals,
/// clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            if let Some(list) = children.get_mut(s.parent.0 as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: NO_REQUEST,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = SpanId(0);
        let spans = vec![
            span("bench.sweep", 0, 100, SpanId::NONE),
            // Overlapping children cover [10, 40) once, not twice.
            span("wire.encode", 10, 30, root),
            span("wire.encode", 20, 40, root),
            // A child running past its parent is clipped at 100.
            span("wire.poll_write", 90, 120, root),
            // A grandchild counts against its own parent only.
            span("wire.checksum", 92, 95, SpanId(3)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench.sweep"].self_ns, 100 - 30 - 10);
        assert_eq!(t["bench.sweep"].total_ns, 100);
        assert_eq!(t["wire.encode"].count, 2);
        assert_eq!(t["wire.encode"].self_ns, 40);
        assert_eq!(t["wire.poll_write"].self_ns, 30 - 3);
        assert_eq!(t["wire.checksum"].self_ns, 3);
        assert_eq!(t["wire.encode"].self_ns_per_span(), 20.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("wire.encode", SpanId::NONE, 7);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert_eq!(t.span("core.score", SpanId::NONE, 7, || 41 + 1), 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_parents_and_requests() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench.sweep", SpanId::NONE, NO_REQUEST);
        t.span("wire.encode", root, 5, || ());
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 5);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).expect("in-memory write");
        let text = String::from_utf8(tsv).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .expect("row")
            .contains("\twire.encode\t"));
    }
}
