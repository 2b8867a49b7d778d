//! In-memory host-time spans for traced runs.
//!
//! A span is `(request id, name, start, end, parent)`. Spans are only
//! appended while the workload runs; they are written out and reduced to
//! per-layer self times after the timed work ends, so recording costs two
//! clock reads and one push per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request (or job) the span belongs to; spans of one request share it.
    pub id: u64,
    /// Layer-qualified name, e.g. `viz.render`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder with an explicit open-span stack for parenting.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, id: u64, name: &'static str) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].secs()
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, id: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(id, name);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (duration minus the time covered by direct
    /// children), seconds, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// The spans as JSON lines (`{"id","name","start_ns","end_ns","parent"}`).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 80);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.id, span.name, span.start_ns, span.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Spans::default();
        t.begin(7, "job");
        t.time(7, "leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7));
        let st = t.self_times();
        let total = spans[0].secs();
        assert!((st["job"] + st["leaf"] - total).abs() < 1e-9);
        assert!(st["leaf"] >= 0.002);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
