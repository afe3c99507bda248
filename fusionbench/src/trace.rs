//! In-memory span recording for the traced run.
//!
//! Spans (name, start, end, parent) go into a buffer sized up front, so
//! recording allocates nothing on the hot path; the buffer is written
//! out when the run ends. A span's self-time is its duration minus the
//! durations of its direct children, less the recorder's own cost per
//! span (the measured duration of an empty span, calibrated when the
//! tracer is built).

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// Empty spans recorded to calibrate the recorder's own cost.
const CALIBRATION_SPANS: usize = 20_000;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder over a fixed table of span names.
pub struct Tracer {
    names: &'static [&'static str],
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Median measured duration of an empty span, nanoseconds.
    span_cost_ns: f64,
}

impl Tracer {
    pub fn new(names: &'static [&'static str], capacity: usize) -> Self {
        let mut tracer = Self {
            names,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity.max(CALIBRATION_SPANS)),
            open: Vec::with_capacity(8),
            span_cost_ns: 0.0,
        };
        for _ in 0..CALIBRATION_SPANS {
            tracer.enter(0);
            tracer.exit();
        }
        let mut empty: Vec<u64> = tracer.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        empty.sort_unstable();
        tracer.span_cost_ns = empty[empty.len() / 2] as f64;
        tracer.spans.clear();
        tracer
    }

    /// The per-span recording cost subtracted from self-times, ns.
    pub fn span_cost_ns(&self) -> f64 {
        self.span_cost_ns
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `names[name]` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: u16) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Per-name `(total, self)` nanoseconds, indexed like the name
    /// table; self-times have the recording cost of each span removed.
    pub fn totals(&self) -> Vec<(f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = vec![(0.0, 0.0); self.names.len()];
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let dur = (span.end_ns - span.start_ns) as f64;
            let slot = &mut out[span.name as usize];
            slot.0 += dur;
            slot.1 += dur - *children as f64 - self.span_cost_ns;
        }
        out
    }

    /// Every span as CSV (`name,start_ns,end_ns,parent`; parent `-1`
    /// for roots).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 32 + 32);
        out.push_str("name,start_ns,end_ns,parent\n");
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let _ = writeln!(
                out,
                "{},{},{},{}",
                self.names[span.name as usize], span.start_ns, span.end_ns, parent
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["root", "child", "leaf"];

    fn push(tracer: &mut Tracer, name: u16, parent: u32, start_ns: u64, end_ns: u64) {
        tracer.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(NAMES, 8);
        t.span_cost_ns = 0.0;
        push(&mut t, 0, NO_PARENT, 0, 100); // root: 100 total
        push(&mut t, 1, 0, 10, 40); // child: 30 total
        push(&mut t, 2, 1, 15, 25); // leaf under child: 10
        push(&mut t, 1, 0, 50, 70); // child: 20 total
        let totals = t.totals();
        assert_eq!(totals[0], (100.0, 50.0)); // 100 - (30 + 20)
        assert_eq!(totals[1], (50.0, 40.0)); // (30 - 10) + 20
        assert_eq!(totals[2], (10.0, 10.0));
        // Self-times partition the root's wall time exactly.
        let self_sum: f64 = totals.iter().map(|t| t.1).sum();
        assert_eq!(self_sum, 100.0);
    }

    #[test]
    fn recorded_spans_nest_and_write_out() {
        let mut t = Tracer::new(NAMES, 8);
        t.enter(0);
        t.exit();
        t.enter(0);
        t.enter(1);
        t.exit();
        t.exit();
        assert_eq!(t.spans.len(), 3);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,start_ns,end_ns,parent\n"));
        assert!(csv.lines().nth(3).unwrap().starts_with("child,"));
        assert!(csv.lines().nth(3).unwrap().ends_with(",1"));
        assert!(t.span_cost_ns() >= 0.0);
        t.span_cost_ns = 0.0;
        let totals = t.totals();
        assert!(totals[0].1 >= 0.0 && totals[0].1 <= totals[0].0);
    }

    #[test]
    fn recording_cost_comes_off_each_span() {
        let mut t = Tracer::new(NAMES, 8);
        t.span_cost_ns = 5.0;
        push(&mut t, 0, NO_PARENT, 0, 100);
        push(&mut t, 1, 0, 10, 40);
        let totals = t.totals();
        assert_eq!(totals[0], (100.0, 65.0)); // 100 - 30 - 5
        assert_eq!(totals[1], (30.0, 25.0));
    }
}
