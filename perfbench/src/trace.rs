//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark crosses.
pub const NAMES: [&str; 6] = [
    "engine_query",
    "shard",
    "merge",
    "wire_query",
    "send",
    "wait",
];

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the causing span, `usize::MAX` for a root.
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

/// A single-threaded span recorder. Spans of one request are a root
/// and its children; children of one parent never overlap.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

pub const ROOT: usize = usize::MAX;

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`Tracer::end`] and for
    /// children's `parent`.
    pub fn begin(&mut self, name: &'static str, parent: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean self time in microseconds per span of each name: the
    /// span's duration minus the part its children cover.
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[k]);
            let t = totals.entry(s.name).or_insert((0.0, 0));
            t.0 += own as f64 / 1e3;
            t.1 += 1;
        }
        totals
            .into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64))
            .collect()
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (k, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{k}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("engine_query", ROOT);
        let child = t.begin("shard", root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let own = t.self_us();
        assert!(own["shard"] >= 2_000.0);
        assert!(own["engine_query"] < own["shard"]);
    }
}
