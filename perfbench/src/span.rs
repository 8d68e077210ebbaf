//! Host-time spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A span has a name, a start and an end; spans nest on one thread in a
//! stack, so each span's parent is the span open when it started. Per
//! name the tracer keeps the call count, the total (inclusive) time and
//! the self time: the span's duration minus the part its direct children
//! cover. Self times of all spans under a root add up to the root's
//! duration exactly, which is what lets the per-layer shares sum to one.
//!
//! Off by default: [`span`] then costs one thread-local read.

use std::cell::RefCell;
use std::time::Instant;

/// What the tracer accumulated for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed duration, children included.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// A span stack plus per-name totals. Timestamps are passed in, so the
/// arithmetic is testable on synthetic trees; [`span`] feeds it the
/// monotonic clock.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    stats: Vec<(&'static str, SpanStats)>,
}

impl Tracer {
    /// Opens `name` at `now_ns` under the innermost open span.
    pub fn enter(&mut self, name: &'static str, now_ns: u64) {
        self.stack.push(Frame {
            name,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `now_ns`, returning its duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced exit is a bug in the
    /// caller).
    pub fn exit(&mut self, now_ns: u64) -> u64 {
        let frame = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = now_ns.saturating_sub(frame.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let s = self.entry(frame.name);
        s.calls += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(frame.child_ns);
        dur
    }

    fn entry(&mut self, name: &'static str) -> &mut SpanStats {
        let i = match self.stats.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.stats.push((name, SpanStats::default()));
                self.stats.len() - 1
            }
        };
        &mut self.stats[i].1
    }

    /// Totals for `name` (zeros if it never closed).
    pub fn get(&self, name: &str) -> SpanStats {
        self.stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Totals summed over every name starting with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> SpanStats {
        self.stats
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(SpanStats::default(), |a, (_, s)| SpanStats {
                calls: a.calls + s.calls,
                total_ns: a.total_ns + s.total_ns,
                self_ns: a.self_ns + s.self_ns,
            })
    }

    /// Whether every span opened has closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<(Instant, Tracer)>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier trace.
pub fn start() {
    ACTIVE.with(|a| *a.borrow_mut() = Some((Instant::now(), Tracer::default())));
}

/// Stops recording and hands back what was recorded.
///
/// # Panics
///
/// Panics if [`start`] was not called on this thread.
pub fn finish() -> Tracer {
    ACTIVE
        .with(|a| a.borrow_mut().take())
        .map(|(_, t)| t)
        .expect("span::finish without span::start")
}

/// An open span; it closes when dropped or on [`Span::end`].
pub struct Span {
    open: bool,
}

/// Opens a span named `name` if recording is on.
pub fn span(name: &'static str) -> Span {
    let open = ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        Some((epoch, t)) => {
            t.enter(name, epoch.elapsed().as_nanos() as u64);
            true
        }
        None => false,
    });
    Span { open }
}

impl Span {
    /// Closes the span, returning its duration in nanoseconds (0 when
    /// recording is off).
    pub fn end(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        if !std::mem::take(&mut self.open) {
            return 0;
        }
        ACTIVE.with(|a| match a.borrow_mut().as_mut() {
            Some((epoch, t)) => t.exit(epoch.elapsed().as_nanos() as u64),
            None => 0,
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root [0,100) ⊃ a [10,30) and a [40,60) ⊃ b [45,50).
    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        t.enter("root", 0);
        t.enter("a", 10);
        assert_eq!(t.exit(30), 20);
        t.enter("a", 40);
        t.enter("b", 45);
        assert_eq!(t.exit(50), 5);
        assert_eq!(t.exit(60), 20);
        assert_eq!(t.exit(100), 100);
        assert!(t.balanced());

        let root = t.get("root");
        assert_eq!((root.calls, root.total_ns, root.self_ns), (1, 100, 60));
        let a = t.get("a");
        assert_eq!((a.calls, a.total_ns, a.self_ns), (2, 40, 35));
        let b = t.get("b");
        assert_eq!((b.calls, b.total_ns, b.self_ns), (1, 5, 5));
        // Self times partition the root exactly.
        assert_eq!(root.self_ns + a.self_ns + b.self_ns, root.total_ns);
        assert_eq!(t.get("missing"), SpanStats::default());
    }

    /// A span nested in a same-named span counts twice in total time but
    /// once in self time — shares built on self time never exceed one.
    #[test]
    fn recursive_spans_partition_by_self_time() {
        let mut t = Tracer::default();
        t.enter("cb", 0);
        t.enter("cb", 10);
        t.exit(20);
        t.exit(40);
        let cb = t.get("cb");
        assert_eq!((cb.calls, cb.total_ns, cb.self_ns), (2, 50, 40));
    }

    #[test]
    fn prefix_sums_and_clock_driven_spans() {
        let mut t = Tracer::default();
        t.enter("run.x", 0);
        t.exit(7);
        t.enter("run.y", 7);
        t.exit(10);
        t.enter("render", 10);
        t.exit(11);
        let runs = t.sum_prefix("run.");
        assert_eq!((runs.calls, runs.total_ns), (2, 10));

        assert_eq!(span("off").end(), 0, "no recording before start");
        start();
        {
            let _outer = span("outer");
            let inner = span("inner");
            std::hint::black_box((0..1000u64).sum::<u64>());
            inner.end();
        }
        let t = finish();
        assert!(t.balanced());
        let (outer, inner) = (t.get("outer"), t.get("inner"));
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }
}
