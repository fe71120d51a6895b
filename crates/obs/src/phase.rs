//! Phase timers: decompose a run into named wall-clock spans, plus the
//! per-epoch scheduler marks the executors emit when observed. Both
//! ride on [`PhaseBreakdown`], the diagnostic block the facade
//! attaches to its reports (excluded from equality and the wire, like
//! the plan-store counters).

use std::time::Instant;

/// One named wall-clock span of a run (e.g. `plan-solve`, `simulate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: &'static str,
    /// Wall-clock duration, seconds.
    pub seconds: f64,
}

/// A per-epoch scheduler mark: what the event loop looked like at one
/// simulated-time boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochMark {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Simulated time of the boundary.
    pub at: f64,
    /// Events popped since the previous mark.
    pub events: u64,
    /// Events pending in the queue at the boundary.
    pub pending: usize,
}

/// One shard-outage window in *simulated* time — a fault-injection
/// phase mark the facade attaches when a `faults:` generated workload
/// ran observed, so trace exports can draw the blackout alongside the
/// wall-clock spans.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultWindow {
    /// Shard the outage applied to.
    pub shard: usize,
    /// Simulated start of the window.
    pub start: f64,
    /// Simulated end of the window.
    pub end: f64,
}

/// The diagnostic timing block of a run: named spans plus scheduler
/// marks. Empty (`Default`) when observability is off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Wall-clock spans in execution order.
    pub spans: Vec<PhaseSpan>,
    /// Per-epoch scheduler marks in simulated-time order (only
    /// populated by the sharded executors).
    pub marks: Vec<EpochMark>,
    /// Shard-outage windows in simulated time (only populated by
    /// observed runs of fault-injecting generated workloads).
    pub faults: Vec<FaultWindow>,
}

impl PhaseBreakdown {
    /// Sum of all span durations, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.spans.iter().map(|s| s.seconds).sum()
    }

    /// Whether nothing was recorded (observability was off).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.marks.is_empty() && self.faults.is_empty()
    }
}

/// Accumulates [`PhaseSpan`]s: `start` closes the previous span and
/// opens the next, `finish` closes the last and yields the breakdown.
/// Disabled timers never read the clock.
#[derive(Debug)]
pub struct PhaseTimer {
    enabled: bool,
    current: Option<(&'static str, Instant)>,
    spans: Vec<PhaseSpan>,
}

impl PhaseTimer {
    /// A timer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            current: None,
            spans: Vec::new(),
        }
    }

    /// Whether the timer records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes the current span (if any) and opens `name`.
    pub fn start(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.stop();
        self.current = Some((name, Instant::now()));
    }

    /// Closes the current span without opening a new one.
    pub fn stop(&mut self) {
        if let Some((name, t0)) = self.current.take() {
            self.spans.push(PhaseSpan {
                name,
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
    }

    /// Closes the current span and yields the breakdown with `marks`
    /// attached. An empty breakdown when the timer was disabled.
    pub fn finish(mut self, marks: Vec<EpochMark>) -> PhaseBreakdown {
        self.stop();
        PhaseBreakdown {
            spans: self.spans,
            marks,
            faults: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::new(false);
        assert!(!t.enabled());
        t.start("build");
        t.start("simulate");
        let b = t.finish(Vec::new());
        assert!(b.is_empty());
        assert_eq!(b, PhaseBreakdown::default());
        assert_eq!(b.total_seconds(), 0.0);
    }

    #[test]
    fn enabled_timer_records_spans_in_order() {
        let mut t = PhaseTimer::new(true);
        t.start("build");
        t.start("simulate");
        t.start("fold");
        let b = t.finish(vec![EpochMark {
            epoch: 0,
            at: 1.0,
            events: 10,
            pending: 2,
        }]);
        let names: Vec<_> = b.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["build", "simulate", "fold"]);
        assert!(b.spans.iter().all(|s| s.seconds >= 0.0));
        assert!(b.total_seconds() >= 0.0);
        assert_eq!(b.marks.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn stop_without_start_is_harmless() {
        let mut t = PhaseTimer::new(true);
        t.stop();
        t.start("only");
        let b = t.finish(Vec::new());
        assert_eq!(b.spans.len(), 1);
    }
}
