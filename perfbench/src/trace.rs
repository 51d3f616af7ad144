//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer of the program.
//!
//! A span carries a name, start and end (ns since the run's epoch),
//! the span that caused it, and the request it belongs to. Nothing is
//! written until the run ends. With tracing off every call is a no-op
//! that returns [`SpanId::NONE`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off or
/// the span has no parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// A span recorder for one thread.
#[derive(Clone, Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new() }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let now = self.ns(Instant::now());
        self.push(Span { name, start_ns: now, end_ns: now, parent, request })
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.ns(Instant::now());
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Records a span whose bounds were taken by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span { name, start_ns, end_ns, parent, request })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        SpanId(self.spans.len() as u32 - 1)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Memory the recorded spans occupy, bytes.
    pub fn bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<Span>()
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends another thread's spans (same epoch), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + offset);
            }
            s
        }));
    }

    /// Self time of every span in microseconds, grouped by name: the
    /// span's duration minus the part of it its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                children[s.parent.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes the spans as JSON lines:
    /// `{"id","name","start_ns","end_ns","parent","request"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == SpanId::NONE { "null".to_string() } else { s.parent.0.to_string() };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(true, epoch);
        let root = t.record("root", at(0), at(100), SpanId::NONE, 7);
        t.record("a", at(10), at(40), root, 7);
        // Overlaps `a`: the union [10, 50) is covered, not 30 + 20.
        t.record("b", at(30), at(50), root, 7);
        let selfs = t.self_times_us();
        assert_eq!(selfs["root"], vec![60.0]);
        assert_eq!(selfs["a"], vec![30.0]);
        assert_eq!(selfs["b"], vec![20.0]);
    }

    #[test]
    fn off_records_nothing_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.open("x", SpanId::NONE, 0), SpanId::NONE);
        assert_eq!(off.len(), 0);

        let mut a = Tracer::new(true, epoch);
        a.record("x", epoch, epoch, SpanId::NONE, 0);
        let mut b = Tracer::new(true, epoch);
        let p = b.record("p", epoch, epoch + Duration::from_micros(5), SpanId::NONE, 1);
        b.record("c", epoch, epoch + Duration::from_micros(2), p, 1);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.self_times_us()["p"], vec![3.0]);
    }
}
