//! The traced run's span log: spans recorded by the benchmark around its
//! own calls into each layer, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One closed span. Times are ns since the run epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the log.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request (or set-up round) the span belongs to.
    pub request: u64,
    /// Layer boundary, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

/// An append-only span log owned by one thread; logs of several threads
/// are merged with [`SpanLog::absorb`].
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// Ids are `base + n`, so logs of different threads never collide.
    base: u64,
}

impl SpanLog {
    /// An empty log whose ids start above `base`.
    pub fn with_id_base(base: u64) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            base,
        }
    }

    /// Record a span and return its id (to parent later spans under).
    pub fn record(
        &mut self,
        request: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.base + self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// Move every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (instances, total self time in ns). A span's self
    /// time is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start, s.end, c));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start) - covered;
        }
        out
    }

    /// Write the log as JSON lines, one span per line, after a header
    /// line describing the run.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(start, end), b.clamp(start, end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.record(1, 0, "bench.request", 0, 100);
        log.record(1, root, "serve.submit", 10, 30);
        // Overlapping and out-of-range children count once, clipped.
        log.record(1, root, "serve.wait", 20, 60);
        log.record(1, root, "serve.wait", 90, 150);
        let t = log.self_times();
        assert_eq!(t["bench.request"], (1, 100 - 50 - 10));
        assert_eq!(t["serve.submit"], (1, 20));
        assert_eq!(t["serve.wait"], (2, 40 + 60));
    }

    #[test]
    fn absorbed_logs_keep_distinct_ids() {
        let mut a = SpanLog::with_id_base(0);
        let mut b = SpanLog::with_id_base(1 << 40);
        a.record(1, 0, "x", 0, 1);
        b.record(1, 0, "y", 0, 1);
        a.absorb(b);
        assert_ne!(a.spans()[0].id, a.spans()[1].id);
    }
}
