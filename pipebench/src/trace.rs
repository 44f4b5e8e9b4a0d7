//! In-memory spans recorded at layer boundaries, in the benchmark's own
//! code: each call into a layer is wrapped in a [`Span`] with a name, a
//! start, an end, the span that caused it, and the request it serves.
//! Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A span id no other span of the process has.
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process ([`next_id`]).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer call, e.g. `vm.run` or `store.ingest`.
    pub name: &'static str,
    /// Request identifier shared by every span of one request (`0` when
    /// the span belongs to no single request).
    pub req: u64,
    /// Nanoseconds since the run's origin.
    pub start: u64,
    /// Nanoseconds since the run's origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The request id of push `seq` from client `client`.
pub fn push_req(client: u64, seq: u64) -> u64 {
    (client << 40) | seq
}

/// A per-thread span recorder. When off, [`Tracer::span`] only runs
/// its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose times count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = next_id();
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start,
            end,
        });
        out
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its child spans cover (overlapping children count
/// once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Durations of every span named `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect()
}

/// Summed durations of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover [10, 40) once: 30.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            // A disjoint child covers [60, 70): 10.
            span(4, Some(1), 60, 70),
            // A grandchild belongs to span 4, not to span 1.
            span(5, Some(4), 61, 69),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - 30 - 10);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 20);
        assert_eq!(t[&4], 10 - 8);
        assert_eq!(t[&5], 8);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span("outer", 0, |t| t.span("inner", 9, |_| 42));
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (spans[0], spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.req, 9);
        assert_ne!(outer.id, inner.id);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |_| 1), 1);
        assert!(t.into_spans().is_empty());
    }
}
