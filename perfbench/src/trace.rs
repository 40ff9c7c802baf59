//! In-memory spans recorded around the program's public seams.
//!
//! A span has a name, a start, an end and the span that caused it; all
//! spans of one pass share a pass id. Seams that fire once per output
//! row or per page read would cost more to record one by one than the
//! work they time, so the wrappers accumulate them in a [`Timing`] and
//! the pass records one *aggregate* span per seam: its `count` calls
//! and their summed `busy` time. A span's self time is its busy time
//! minus its children's.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One recorded span (or aggregate of same-named calls).
#[derive(Clone, Debug)]
pub struct Span {
    /// Seam name, e.g. `storage.sink.write`.
    pub name: &'static str,
    /// Pass (or set-up repetition) this span belongs to.
    pub pass: u32,
    /// Index of the parent span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// First start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Last end, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Calls this span stands for (1 for a plain span).
    pub count: u64,
    /// Time inside those calls, in nanoseconds.
    pub busy_ns: u64,
}

/// Accumulated time of one fine-grained seam during one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Timed calls.
    pub count: u64,
    /// Summed time inside the calls.
    pub busy: Duration,
    /// Start of the first call.
    pub first: Option<Instant>,
    /// Start of the latest call.
    pub last: Option<Instant>,
    /// End of the latest timed work.
    pub end: Option<Instant>,
    /// Largest interval between the starts of two consecutive calls.
    pub max_gap: Duration,
}

impl Timing {
    /// Adds one call that ran from `start` to `end`.
    pub fn add(&mut self, start: Instant, end: Instant) {
        if let Some(last) = self.last {
            self.max_gap = self.max_gap.max(start.duration_since(last));
        }
        self.first.get_or_insert(start);
        self.last = Some(start);
        self.count += 1;
        self.add_busy(start, end);
    }

    /// Adds time that belongs to the seam but is not a call of its own
    /// (a sink's final flush). The clock's own cost is taken off.
    pub fn add_busy(&mut self, start: Instant, end: Instant) {
        self.busy += end.duration_since(start).saturating_sub(clock_cost());
        self.end = Some(self.end.map_or(end, |e| e.max(end)));
    }
}

/// What a timed interval reads when nothing runs inside it: the cost
/// of one clock read, measured once per process (median of 1001).
pub fn clock_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut d: Vec<Duration> = (0..1001)
            .map(|_| {
                let a = Instant::now();
                Instant::now().duration_since(a)
            })
            .collect();
        d.sort_unstable();
        d[d.len() / 2]
    })
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a plain span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        pass: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            pass,
            parent,
            start_ns,
            end_ns,
            count: 1,
            busy_ns: end_ns - start_ns,
        })
    }

    /// Records the calls accumulated in `timing` as one aggregate span;
    /// records nothing for a seam that was never called.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        pass: u32,
        parent: Option<usize>,
        timing: &Timing,
    ) -> Option<usize> {
        let (first, end) = (timing.first?, timing.end?);
        let span = Span {
            name,
            pass,
            parent,
            start_ns: self.ns(first),
            end_ns: self.ns(end),
            count: timing.count,
            busy_ns: timing.busy.as_nanos() as u64,
        };
        Some(self.push(span))
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time of span `id` minus the busy time of its children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.busy_ns).sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    /// Indexes of the spans below `root` (children, grandchildren, ...).
    pub fn descendants(&self, root: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut frontier = vec![root];
        while let Some(cur) = frontier.pop() {
            for (i, s) in self.spans.iter().enumerate().skip(cur + 1) {
                if s.parent == Some(cur) {
                    out.push(i);
                    frontier.push(i);
                }
            }
        }
        out
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n{{\"id\": {i}, \"name\": \"{}\", \"pass\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                span.name,
                span.pass,
                span.start_ns,
                span.end_ns,
                span.count,
                span.busy_ns,
                self.self_ns(i)
            );
        }
        s.push_str("\n]");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(10);
        let pass = t.span("pass", 1, None, t0, t1);
        let mut agg = Timing::default();
        agg.add(t0 + Duration::from_millis(1), t0 + Duration::from_millis(2));
        agg.add(t0 + Duration::from_millis(5), t0 + Duration::from_millis(8));
        let child = t.aggregate("storage.sink.write", 1, Some(pass), &agg).expect("called");
        assert_eq!(t.spans()[child].count, 2);
        let busy = 4_000_000 - 2 * clock_cost().as_nanos() as u64;
        assert_eq!(t.self_ns(child), busy);
        assert_eq!(t.self_ns(pass), 10_000_000 - busy);
        assert_eq!(agg.max_gap, Duration::from_millis(4));
        assert_eq!(t.descendants(pass), vec![child]);
        assert!(t.aggregate("never", 1, Some(pass), &Timing::default()).is_none());
    }
}
