//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded from the outside of one public call (or of one
//! client-side operation that encloses several): name, start, end, the
//! enclosing span, and the request, query or round id it belongs to. Spans
//! stay in memory while the run measures and are written out once it ends.
//! A span's self time is its duration minus the part of it that its child
//! spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as a parent handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// The request, query or round the span belongs to.
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. When off, every call is a no-op, so untraced runs pay
/// nothing but the branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span. Returns `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, op, parent, start_ns, end_ns });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Opens a span whose end is not known yet (its children are recorded
    /// before it closes).
    pub fn open(&mut self, name: &'static str, op: u64, start: Instant) -> Option<SpanId> {
        self.record(name, op, None, start, start)
    }

    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Self time of every span, in recording order, in nanoseconds.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.end_ns.saturating_sub(s.start_ns) - covered(s, kids))
            .collect()
    }

    /// Self times of every span called `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e3)
            .collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `span` covered by the union of `kids` (clipped to it).
fn covered(span: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for &(a, b) in kids.iter() {
        let (a, b) = (a.max(reach), b.min(span.end_ns));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let at = |us: u64| t.origin + Duration::from_micros(us);
        let (t0, t10, t2, t5, t4, t7, t9, t12) =
            (at(0), at(10), at(2), at(5), at(4), at(7), at(9), at(12));
        let parent = t.open("round", 1, t0);
        t.record("a", 1, parent, t2, t5);
        t.record("b", 1, parent, t4, t7); // overlaps `a`: 2..7 covered once
        t.record("c", 1, parent, t9, t12); // clipped to the parent's end
        t.close(parent, t10);
        assert_eq!(t.self_us("round"), vec![4.0]); // 10 - (5 + 1)
        assert_eq!(t.self_us("a"), vec![3.0]);
        assert_eq!(t.self_us("c"), vec![3.0]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("a", 0, None, now, now), None);
        assert!(t.self_us("a").is_empty());
    }
}
