//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the query it belongs to. Spans stay in memory and are written
//! out once, after the run. A layer's self time is its span minus the part
//! of that interval its child spans cover; children that overlap each
//! other count once.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: the span is a root.
    pub const NONE: SpanId = SpanId(None);
}

/// A shared span log. Cloning shares it; a disabled tracer records nothing
/// and costs one branch per call.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    epoch: Instant::now(),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    pub fn open(&self, name: &'static str, query: u64, parent: SpanId) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(None);
        };
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let mut spans = inner.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            query,
            parent: parent.0,
            start_ns: now,
            end_ns: now,
        });
        SpanId(Some(spans.len() - 1))
    }

    pub fn close(&self, id: SpanId) {
        if let (Some(inner), Some(i)) = (&self.inner, id.0) {
            let now = inner.epoch.elapsed().as_nanos() as u64;
            inner.spans.lock().expect("span log poisoned")[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        query: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, query, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span log poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span, nanoseconds, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.query, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            query: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),
            // Runs past its parent's end: only [90, 100] is inside.
            span(Some(0), 90, 120),
            // A grandchild does not reduce the root's self time twice.
            span(Some(1), 15, 20),
        ];
        let self_ns = self_times(&spans);
        // Union inside the root: [10, 60] and [90, 100] = 60 ns.
        assert_eq!(self_ns[0], 40);
        assert_eq!(self_ns[1], 25);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[3], 30);
        assert_eq!(self_ns[4], 5);
    }

    #[test]
    fn nested_children_do_not_count_twice() {
        let spans = vec![
            span(None, 0, 50),
            span(Some(0), 5, 45),
            span(Some(0), 10, 20),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("x", 1, SpanId::NONE);
        t.close(id);
        assert_eq!(t.span("y", 1, id, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        let root = t.open("query", 3, SpanId::NONE);
        t.span("child", 3, root, || std::hint::black_box(1 + 1));
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
