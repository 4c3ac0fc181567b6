//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public layer
//! functions from this benchmark's own code. Every span has a name, a
//! start, an end and a parent; the spans of one frame (or one sampled op)
//! share a frame id. Per-name totals are kept for every span, while the
//! spans themselves are stored up to a cap and written out as JSON lines
//! when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans stored per tracer; totals keep counting past it.
const STORED_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub frame: u64,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy)]
pub struct Total {
    pub name: &'static str,
    pub count: u64,
    pub sum_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
    totals: Vec<Total>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, next_id: 1, spans: Vec::new(), totals: Vec::new() }
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so a parent can be named before it closes.
    pub fn id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved `id` that ends now; returns the end
    /// time, which the next sibling can use as its start.
    pub fn record(
        &mut self,
        id: u32,
        name: &'static str,
        frame: u64,
        parent: u32,
        start_ns: u64,
    ) -> u64 {
        let end_ns = self.now();
        self.add(Span { name, frame, id, parent, start_ns, end_ns });
        end_ns
    }

    /// Records a leaf span that ends now; returns the end time.
    pub fn leaf(&mut self, name: &'static str, frame: u64, parent: u32, start_ns: u64) -> u64 {
        let id = self.id();
        self.record(id, name, frame, parent, start_ns)
    }

    fn add(&mut self, span: Span) {
        let dur = span.end_ns.saturating_sub(span.start_ns);
        match self.totals.iter_mut().find(|t| t.name == span.name) {
            Some(t) => {
                t.count += 1;
                t.sum_ns += dur;
            }
            None => self.totals.push(Total { name: span.name, count: 1, sum_ns: dur }),
        }
        if self.spans.len() < STORED_SPANS {
            self.spans.push(span);
        }
    }

    /// Folds `from` into `into`, either of which may be absent.
    pub fn merge(into: &mut Option<Tracer>, from: Option<Tracer>) {
        match (into.as_mut(), from) {
            (Some(all), Some(t)) => all.absorb(t),
            (None, from) => *into = from,
            (Some(_), None) => {}
        }
    }

    fn absorb(&mut self, other: Tracer) {
        for t in other.totals {
            match self.totals.iter_mut().find(|x| x.name == t.name) {
                Some(x) => {
                    x.count += t.count;
                    x.sum_ns += t.sum_ns;
                }
                None => self.totals.push(t),
            }
        }
        let room = STORED_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// `(count, mean duration in ns)` of the spans named `name`.
    pub fn mean(&self, name: &str) -> (u64, f64) {
        self.totals
            .iter()
            .find(|t| t.name == name)
            .map_or((0, 0.0), |t| (t.count, t.sum_ns as f64 / t.count as f64))
    }

    /// Writes the stored spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","frame":{},"id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.frame, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_totals_survive_the_cap() {
        let mut t = Tracer::new(Instant::now());
        let root = t.id();
        let start = t.now();
        let mid = t.leaf("child.a", 7, root, start);
        t.leaf("child.b", 7, root, mid);
        t.record(root, "root", 7, 0, start);
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.frame == 7));
        assert!(t.spans[..2].iter().all(|s| s.parent == root));
        let r = t.spans[2];
        assert!(t.spans[..2].iter().all(|s| s.start_ns >= r.start_ns && s.end_ns <= r.end_ns));

        let mut other = Tracer::new(Instant::now());
        for _ in 0..STORED_SPANS + 5 {
            let s = other.now();
            other.leaf("child.a", 1, 0, s);
        }
        let mut all = Some(t);
        Tracer::merge(&mut all, Some(other));
        Tracer::merge(&mut all, None);
        let t = all.expect("merged tracer");
        assert_eq!(t.mean("child.a").0, STORED_SPANS as u64 + 6);
        assert_eq!(t.spans.len(), STORED_SPANS);
    }
}
