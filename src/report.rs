//! The unified result surface of [`Engine::run`](crate::Engine::run).
//!
//! Every workload — closed-form plan evaluation, trace replay,
//! Monte-Carlo, population — used to return its own report
//! type with incompatible fields. [`RunReport`] is the one result shape:
//! it always carries the common [`AccessStats`] block
//! (count/mean/p50/p99/min/max of access time), so any two runs are
//! directly comparable, plus a [`ReportSection`] with the
//! workload/backend-specific detail and the mechanistic event log when
//! the workload asked for tracing.

use distsys::scheduler::{ShardReport, SimEvent};
use distsys::stats::AccessStats;
use montecarlo::stats::RunningStats;
use obs::PhaseBreakdown;
use planstore::PlanStoreStats;
use skp_core::PrefetchPlan;

/// Closed-form evaluation of one prefetch decision (empty-cache view,
/// Eq. 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The plan evaluated.
    pub plan: PrefetchPlan,
    /// Access improvement `g*` (Eq. 3).
    pub gain: f64,
    /// Stretch time `st(F)`.
    pub stretch: f64,
    /// Expected access time under the plan.
    pub expected_access_time: f64,
    /// Expected access time with no prefetching.
    pub expected_no_prefetch: f64,
    /// Theorem-2 (Eq. 7) upper bound on any plan's gain.
    pub upper_bound: f64,
    /// Per-request access time `T(F, α)` for every item `α`.
    pub per_request: Vec<f64>,
}

/// Aggregate outcome of replaying an access trace through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Requests replayed (trace length − 1; the first record only seeds
    /// the predictor).
    pub requests: u64,
    /// Mean access time per request.
    pub mean_access_time: f64,
    /// Fraction of requests served in zero time.
    pub hit_rate: f64,
    /// Mean retrieval time wasted on unused prefetches per request.
    pub wasted_per_request: f64,
}

/// Result of a Monte-Carlo evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Access-time statistics over all sampled requests.
    pub access: RunningStats,
    /// Realised-gain statistics (no-prefetch retrieval minus access
    /// time, per sample).
    pub gain: RunningStats,
    /// Iterations actually run.
    pub iterations: u64,
}

/// The workload/backend-specific detail block of a [`RunReport`].
///
/// Which variant comes back is determined by the workload shape: every
/// population replay reports [`Sharded`](ReportSection::Sharded), the
/// paper's one shared server channel included (one shard).
#[derive(Debug, Clone, PartialEq)]
pub enum ReportSection {
    /// Closed-form plan evaluation ([`Workload::Plan`](crate::Workload::Plan)).
    Plan(PlanReport),
    /// Trace replay ([`Workload::Trace`](crate::Workload::Trace)).
    Trace(TraceReport),
    /// Monte-Carlo evaluation ([`Workload::MonteCarlo`](crate::Workload::MonteCarlo)).
    MonteCarlo(SimReport),
    /// Sharded population replay with per-shard statistics.
    Sharded(ShardReport),
}

impl ReportSection {
    /// Short name of the section shape (for output and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            ReportSection::Plan(_) => "plan",
            ReportSection::Trace(_) => "trace",
            ReportSection::MonteCarlo(_) => "monte-carlo",
            ReportSection::Sharded(_) => "sharded",
        }
    }
}

/// The result of [`Engine::run`](crate::Engine::run): one shape for
/// every workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The common access-time summary every workload reports
    /// (count/mean/p50/p99/min/max), so any two runs are comparable.
    pub access: AccessStats,
    /// Workload/backend-specific detail.
    pub section: ReportSection,
    /// Mechanistic event log — non-empty only when the workload set
    /// `traced` and the backend records events (population replays).
    pub events: Vec<SimEvent>,
    /// Snapshot of the engine's plan-store counters after the run
    /// (cumulative over the engine's — or a shared store's — life).
    /// Excluded from `PartialEq` and the wire form: the determinism
    /// contract makes a warm run *equal* to a cold run even though
    /// their hit counters differ.
    pub plan_store: PlanStoreStats,
    /// Wall-clock phase decomposition of the run (build / plan-solve /
    /// simulate / stat-fold / plan-store-put spans, plus per-epoch
    /// scheduler marks from
    /// the sharded executors). Empty unless the engine's observability
    /// sink is on ([`SessionBuilder::obs`](crate::SessionBuilder::obs)).
    /// Excluded from `PartialEq` and the wire form exactly like
    /// [`plan_store`](RunReport::plan_store): timings are
    /// observability, not results.
    pub phases: PhaseBreakdown,
}

/// Equality is the determinism contract: access stats, section and
/// event log — the [`plan_store`](RunReport::plan_store) counters and
/// the [`phases`](RunReport::phases) timing block are observability,
/// not results, and are deliberately left out.
impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.access == other.access && self.section == other.section && self.events == other.events
    }
}

impl RunReport {
    /// The plan section, if this run evaluated a plan in closed form.
    pub fn plan(&self) -> Option<&PlanReport> {
        match &self.section {
            ReportSection::Plan(r) => Some(r),
            _ => None,
        }
    }

    /// The trace section, if this run replayed a trace.
    pub fn trace(&self) -> Option<&TraceReport> {
        match &self.section {
            ReportSection::Trace(r) => Some(r),
            _ => None,
        }
    }

    /// The Monte-Carlo section, if this run sampled random scenarios.
    pub fn monte_carlo(&self) -> Option<&SimReport> {
        match &self.section {
            ReportSection::MonteCarlo(r) => Some(r),
            _ => None,
        }
    }

    /// The sharded section, if this run replayed a client population.
    pub fn sharded(&self) -> Option<&ShardReport> {
        match &self.section {
            ReportSection::Sharded(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_accessors_are_exclusive() {
        let report = RunReport {
            access: AccessStats::from_samples(&mut [2.0]),
            section: ReportSection::Trace(TraceReport {
                requests: 1,
                mean_access_time: 2.0,
                hit_rate: 0.0,
                wasted_per_request: 0.0,
            }),
            events: Vec::new(),
            plan_store: PlanStoreStats::default(),
            phases: PhaseBreakdown::default(),
        };
        assert_eq!(report.section.name(), "trace");
        assert!(report.trace().is_some());
        assert!(report.plan().is_none());
        assert!(report.monte_carlo().is_none());
        assert!(report.sharded().is_none());
        assert_eq!(report.access.mean, 2.0);
    }

    #[test]
    fn equality_ignores_the_plan_store_counters() {
        let report = RunReport {
            access: AccessStats::from_samples(&mut [2.0]),
            section: ReportSection::MonteCarlo(SimReport {
                access: RunningStats::new(),
                gain: RunningStats::new(),
                iterations: 1,
            }),
            events: Vec::new(),
            plan_store: PlanStoreStats::default(),
            phases: PhaseBreakdown::default(),
        };
        let mut warm = report.clone();
        warm.plan_store.lookups = 5;
        warm.plan_store.hits = 5;
        assert_eq!(report, warm, "counters are observability, not results");
    }

    #[test]
    fn equality_ignores_the_phase_breakdown() {
        let report = RunReport {
            access: AccessStats::from_samples(&mut [2.0]),
            section: ReportSection::MonteCarlo(SimReport {
                access: RunningStats::new(),
                gain: RunningStats::new(),
                iterations: 1,
            }),
            events: Vec::new(),
            plan_store: PlanStoreStats::default(),
            phases: PhaseBreakdown::default(),
        };
        let mut timed = report.clone();
        timed.phases.spans.push(obs::PhaseSpan {
            name: "simulate",
            seconds: 0.25,
        });
        timed.phases.marks.push(obs::EpochMark {
            epoch: 0,
            at: 1.0,
            events: 100,
            pending: 3,
        });
        assert_eq!(report, timed, "timings are observability, not results");
    }
}
