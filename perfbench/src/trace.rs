//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer's public function; nothing inside the program is
//! instrumented. A span's *self time* is its duration minus the time its
//! direct children cover, so the self times of one request's spans add
//! up to the root span's duration exactly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `filter.build`.
    pub name: &'static str,
    /// Request the span belongs to (shared by all spans of a request).
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time over every span of the layer.
    pub self_time: Duration,
    /// Number of spans (calls) of the layer.
    pub calls: u64,
}

impl LayerTotal {
    /// Mean self time per call, in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_time.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// A span recorder. One per client thread; merge them at the end.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Record `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Add `n` to a named counter recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Wall cost of recording one span, measured on a scratch tracer.
    pub fn span_cost() -> Duration {
        const N: u32 = 4096;
        let mut probe = Tracer::new();
        let start = Instant::now();
        for i in 0..N {
            let id = probe.begin("probe", u64::from(i));
            probe.end(id);
        }
        start.elapsed() / N
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move every span and counter of `other` into `self`.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, n) in other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Self time and call count per layer name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        assert!(self.open.is_empty(), "summarizing a tracer with open spans");
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let total = out.entry(s.name).or_default();
            total.self_time += s.duration().saturating_sub(covered);
            total.calls += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new();
        let root = t.begin("request", 1);
        t.leaf("a", 1, || std::thread::sleep(Duration::from_millis(2)));
        t.leaf("b", 1, || std::thread::sleep(Duration::from_millis(1)));
        t.end(root);
        let totals = t.layer_totals();
        let sum: Duration = totals.values().map(|l| l.self_time).sum();
        assert_eq!(sum, t.spans()[root].duration());
        assert!(totals["a"].self_time >= Duration::from_millis(2));
        assert_eq!(totals["request"].calls, 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new();
        a.leaf("x", 0, || ());
        let mut b = Tracer::new();
        let r = b.begin("request", 1);
        b.leaf("y", 1, || ());
        b.end(r);
        b.count("cells", 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("cells"), 3);
    }
}
