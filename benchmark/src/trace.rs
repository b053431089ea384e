//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and the id
//! of the operation (GOP, viewer, search) that caused it. They stay in
//! memory until the run ends, then yield per-layer self times and a
//! Chrome trace-event file (opens in Perfetto or `chrome://tracing`).
//! Untraced runs pass `None` and record nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            thread: thread_tag(),
        });
        SpanId(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id.0].end_ns = end_ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Opens a span when tracing; a no-op otherwise.
pub fn open(
    tr: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tr.map(|t| t.open(name, op, parent))
}

pub fn close(tr: Option<&Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tr, id) {
        t.close(id);
    }
}

/// Runs `f` inside a span named `name` (when tracing).
pub fn scoped<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    let id = open(tr, name, op, parent);
    let out = f();
    close(tr, id);
    out
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that
/// its child spans cover (children running in parallel on workers
/// are merged, not double-subtracted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(union_ns(c)))
        .collect()
}

/// Wall time covered by no root span: the part of the measured loop
/// the ledger does not account for.
pub fn uncovered_ns(spans: &[Span], wall_ns: u64) -> u64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    wall_ns.saturating_sub(union_ns(roots))
}

/// Self time summed per layer, where `layer_of` maps span names.
pub fn self_ms_by_layer(
    spans: &[Span],
    layer_of: impl Fn(&str) -> &'static str,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(layer_of(s.name)).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Writes the spans as Chrome trace-event JSON.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |SpanId(p)| p as i64);
        write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent,
            s.op
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            op: 0,
            parent: parent.map(SpanId),
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping children (10..50, 30..70)
        // and one grandchild inside the first.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(20, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 35, 40, 5]);
        assert_eq!(uncovered_ns(&spans, 150), 50);
    }
}
