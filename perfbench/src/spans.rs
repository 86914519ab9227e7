//! In-memory span recording for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public functions: name, start, end, the span that caused it,
//! and the request it served. Spans stay in memory until the run ends
//! and are then written out as JSON lines. A layer's *self time* is its
//! spans' durations minus the parts of those intervals that their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`SpanLog`].
pub type SpanId = u32;

/// Parent marker for a root span.
pub const ROOT: SpanId = u32::MAX;

/// Spans one log records itself (spans absorbed from other logs do not
/// count); later spans are counted, not stored, so a run of hundreds of
/// thousands of requests stays small in memory and on disk.
pub const MAX_SPANS: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Request (or row) the span served.
    pub req: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder that is either on or a no-op. Off, every call is a
/// branch and records nothing, so the untraced run pays no tracing cost.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
    recorded: usize,
    dropped: u64,
}

impl SpanLog {
    /// A recorder that records nothing.
    pub fn off() -> SpanLog {
        SpanLog {
            on: false,
            ..SpanLog::on(Instant::now())
        }
    }

    /// A recording log timed from `origin` (share one origin between
    /// the logs of several threads so their spans line up).
    pub fn on(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            on: true,
            recorded: 0,
            dropped: 0,
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether this log records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its id ([`ROOT`] when off, or when the log
    /// has already recorded [`MAX_SPANS`] spans — then the span is
    /// counted as dropped).
    pub fn enter(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        if self.recorded >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.recorded += 1;
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per log");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        id
    }

    /// Closes span `id` (no-op when off).
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end.max(span.start_ns);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, req);
        let r = f();
        self.exit(id);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends another log's spans (recorded from the same origin),
    /// rebasing their parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per log");
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (which may overlap one another or spill past the parent).
fn uncovered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.clamp(cursor, end);
        let e = e.clamp(s, end);
        covered += e - s;
        cursor = cursor.max(e);
    }
    (end - start) - covered
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// union of its children's intervals, summed by [`Span::layer`].
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = if kids.is_empty() {
            s.duration()
        } else {
            uncovered(s.start_ns, s.end_ns.max(s.start_ns), kids)
        };
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
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
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // bench.row [0,100) with children core.run [10,70) and
        // workloads.verify [70,90); core.run has a child [20,30).
        let spans = [
            span("bench.row", 0, 100, ROOT),
            span("core.run", 10, 70, 0),
            span("workloads.verify", 70, 90, 0),
            span("mem.probe", 20, 30, 1),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 20);
        assert_eq!(t["core"], 50);
        assert_eq!(t["workloads"], 20);
        assert_eq!(t["mem"], 10);
        // Self times partition the root's interval exactly.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_spilling_children_count_once() {
        let spans = [
            span("serve.request", 100, 200, ROOT),
            span("serve.a", 90, 150, 0),
            span("serve.b", 120, 160, 0),
            span("serve.c", 190, 250, 0),
        ];
        let t = self_time_by_layer(&spans);
        // Parent covered on [100,160) and [190,200): 70 of 100 ns.
        // Children keep their full durations: 60 + 40 + 60.
        assert_eq!(t["serve"], 30 + 160);
    }

    #[test]
    fn off_log_records_nothing() {
        let mut log = SpanLog::off();
        let id = log.enter("core.run", ROOT, 1);
        log.exit(id);
        assert_eq!(log.time("core.run", ROOT, 2, || 7), 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_keeps_order() {
        let origin = Instant::now();
        let mut a = SpanLog::on(origin);
        let ra = a.enter("bench.row", ROOT, 0);
        a.exit(ra);
        let mut b = SpanLog::on(origin);
        let rb = b.enter("serve.request", ROOT, 5);
        let cb = b.enter("serve.decode", rb, 5);
        b.exit(cb);
        b.exit(rb);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, ROOT);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let lines = a.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"parent\":1,\"req\":5"));
    }
}
