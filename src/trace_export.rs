//! Chrome/Perfetto export of a traced, observed run.
//!
//! [`trace_json`] folds a [`RunReport`]'s observability artefacts into
//! one Chrome trace-event JSON document (load it in `chrome://tracing`
//! or <https://ui.perfetto.dev>):
//!
//! - the [`phases`](RunReport::phases) spans become an `engine` track
//!   (wall-clock microseconds),
//! - each shard's `TransferStart → TransferDone` pairs from the
//!   mechanistic [`events`](RunReport::events) log become per-shard
//!   busy-interval tracks,
//! - the per-epoch scheduler marks become counter tracks (events per
//!   epoch and queue occupancy).
//!
//! The shard and counter tracks live in *simulated* time, which has no
//! wall-clock unit; one simulated time unit renders as one microsecond
//! so both domains stay readable on the shared timeline. `skp-plan run
//! --trace-out <file>` writes this document, plus a `trace-render` span
//! timing the conversion of the report into trace records (the one JSON
//! render that follows is not in it).

use distsys::scheduler::{EventKind, JobKind, SimEvent};
use obs::trace::{render_chrome_trace, TraceCounter, TraceSpan};
use obs::PhaseSpan;

use crate::report::RunReport;

/// Track name of the engine-phase spans.
const ENGINE_TRACK: &str = "engine";

/// Folds the report's phase spans, event log and epoch marks into a
/// Chrome trace-event JSON document (see the module docs). Pure and
/// deterministic: the same report always yields the same bytes.
///
/// Runs without observability (or without tracing) simply contribute
/// fewer tracks — an un-traced, un-observed report renders a valid
/// document with only the process metadata.
pub fn trace_json(report: &RunReport) -> String {
    TraceRecords::of(report).render()
}

/// A report's trace records before rendering: [`trace_json`] in two
/// steps, so that a caller can time building the records and add that
/// time as one more engine phase before the one render.
pub(crate) struct TraceRecords {
    /// The engine phases first, then the shard busy and outage spans.
    spans: Vec<TraceSpan>,
    counters: Vec<TraceCounter>,
    /// Number of engine phase spans at the front of `spans`.
    phases: usize,
    /// End of the last engine phase, seconds.
    phase_end: f64,
}

impl TraceRecords {
    /// The records of `report`.
    pub(crate) fn of(report: &RunReport) -> Self {
        let mut records = TraceRecords {
            spans: Vec::new(),
            counters: Vec::new(),
            phases: 0,
            phase_end: 0.0,
        };
        for &phase in &report.phases.spans {
            records.push_phase(phase);
        }
        records.spans.extend(busy_spans(&report.events));
        records.spans.extend(fault_spans(&report.phases.faults));

        if !report.phases.marks.is_empty() {
            let marks = &report.phases.marks;
            records.counters.push(TraceCounter {
                name: "events per epoch".to_string(),
                points: marks.iter().map(|m| (m.at, m.events as f64)).collect(),
            });
            records.counters.push(TraceCounter {
                name: "queue depth".to_string(),
                points: marks.iter().map(|m| (m.at, m.pending as f64)).collect(),
            });
        }
        records
    }

    /// Lays `phase` on the engine track after the phases already there:
    /// `PhaseSpan` records durations only, and the phases are sequential
    /// by construction, so start times are the running total.
    pub(crate) fn push_phase(&mut self, phase: PhaseSpan) {
        let span = TraceSpan {
            track: ENGINE_TRACK.to_string(),
            name: phase.name.to_string(),
            start_us: self.phase_end * 1e6,
            dur_us: phase.seconds * 1e6,
        };
        self.spans.insert(self.phases, span);
        self.phases += 1;
        self.phase_end += phase.seconds;
    }

    /// The Chrome trace-event JSON document.
    pub(crate) fn render(&self) -> String {
        render_chrome_trace("skp run", &self.spans, &self.counters)
    }
}

/// Per-shard channel busy intervals. Each shard's channel transfers
/// one job at a time in FIFO order, so the first unmatched
/// `TransferStart` on a shard pairs with that shard's next
/// `TransferDone`.
fn busy_spans(events: &[SimEvent]) -> Vec<TraceSpan> {
    use std::collections::{BTreeMap, VecDeque};
    let mut open: BTreeMap<usize, VecDeque<&SimEvent>> = BTreeMap::new();
    let mut spans = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::TransferStart(_) => {
                open.entry(ev.shard).or_default().push_back(ev);
            }
            EventKind::TransferDone(kind) => {
                if let Some(start) = open.get_mut(&ev.shard).and_then(VecDeque::pop_front) {
                    let what = match kind {
                        JobKind::Demand => "demand",
                        JobKind::Prefetch => "prefetch",
                    };
                    spans.push(TraceSpan {
                        track: format!("shard {}", ev.shard),
                        name: format!("{what} item {} (client {})", start.item, start.client),
                        start_us: start.at,
                        dur_us: ev.at - start.at,
                    });
                }
            }
            EventKind::Request | EventKind::Served => {}
        }
    }
    spans
}

/// Shard-outage windows from fault-injecting generated workloads,
/// drawn on the same per-shard tracks as the busy intervals so the
/// blackout and the admission backlog line up visually.
fn fault_spans(faults: &[obs::FaultWindow]) -> Vec<TraceSpan> {
    faults
        .iter()
        .map(|w| TraceSpan {
            track: format!("shard {}", w.shard),
            name: "outage".to_string(),
            start_us: w.start,
            dur_us: w.end - w.start,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::Workload;
    use access_model::MarkovChain;

    #[test]
    fn observed_traced_run_renders_all_track_families() {
        let chain = MarkovChain::random(10, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .backend_spec("sharded:2x3:hash")
            .catalog((0..10).map(|i| 2.0 + i as f64).collect())
            .obs("memory")
            .build()
            .unwrap();
        let report = engine
            .run(&Workload::sharded(chain, 40, 7).traced(true))
            .unwrap();
        assert!(!report.phases.spans.is_empty());
        assert!(!report.phases.marks.is_empty());
        let json = trace_json(&report);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"engine\""));
        assert!(json.contains("\"name\":\"simulate\""));
        assert!(json.contains("\"name\":\"shard 0\""));
        assert!(json.contains("\"name\":\"queue depth\""));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn unobserved_report_still_renders_a_valid_document() {
        let chain = MarkovChain::random(8, 2, 4, 5, 20, 5).unwrap();
        let mut engine = Engine::builder()
            .backend_spec("multi-client:2")
            .catalog((0..8).map(|i| 2.0 + i as f64).collect())
            .build()
            .unwrap();
        let report = engine.run(&Workload::sharded(chain, 10, 1)).unwrap();
        let json = trace_json(&report);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(!json.contains("\"ph\":\"X\""), "no spans without obs");
    }

    #[test]
    fn observed_faulted_run_renders_outage_spans() {
        let mut engine = Engine::builder()
            .backend_spec("sharded:2x3:hash")
            .catalog((0..10).map(|i| 2.0 + i as f64).collect())
            .obs("memory")
            .build()
            .unwrap();
        let report = engine
            .run(&Workload::generated("faults:out=0@10+30", 40, 7).traced(true))
            .unwrap();
        assert!(
            !report.phases.faults.is_empty(),
            "observed faulted run records its outage windows"
        );
        let json = trace_json(&report);
        assert!(json.contains("\"name\":\"outage\""), "{json}");
    }

    #[test]
    fn trace_json_bytes_are_pinned() {
        use distsys::scheduler::{EventKind, JobKind, SimEvent};
        use obs::{EpochMark, FaultWindow, PhaseSpan};
        let mut engine = Engine::builder().build().unwrap();
        let s = skp_core::Scenario::new(vec![0.5, 0.5], vec![2.0, 3.0], 4.0).unwrap();
        let mut report = engine.run(&Workload::plan(s)).unwrap();
        let ev = |at, shard, item, kind| SimEvent {
            at,
            client: 1,
            shard,
            item,
            kind,
        };
        report.events = vec![
            ev(1.0, 0, 3, EventKind::Request),
            ev(1.0, 0, 3, EventKind::TransferStart(JobKind::Demand)),
            ev(1.5, 1, 4, EventKind::TransferStart(JobKind::Prefetch)),
            ev(2.25, 1, 4, EventKind::TransferDone(JobKind::Prefetch)),
            ev(4.0, 0, 3, EventKind::TransferDone(JobKind::Demand)),
            ev(4.0, 0, 3, EventKind::Served),
        ];
        report.phases.spans = vec![
            PhaseSpan {
                name: "build",
                seconds: 0.000125,
            },
            PhaseSpan {
                name: "simulate",
                seconds: 0.0025,
            },
        ];
        report.phases.marks = vec![
            EpochMark {
                epoch: 0,
                at: 0.0,
                events: 2,
                pending: 3,
            },
            EpochMark {
                epoch: 1,
                at: 2.5,
                events: 4,
                pending: 0,
            },
        ];
        report.phases.faults = vec![FaultWindow {
            shard: 1,
            start: 0.5,
            end: 1.25,
        }];
        let expected = concat!(
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"skp run\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"engine\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"shard 1\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"shard 0\"}},",
            "{\"name\":\"build\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":0,\"dur\":125,\"pid\":1,\"tid\":1},",
            "{\"name\":\"simulate\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":125,\"dur\":2500,\"pid\":1,\"tid\":1},",
            "{\"name\":\"prefetch item 4 (client 1)\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1.5,\"dur\":0.75,\"pid\":1,\"tid\":2},",
            "{\"name\":\"demand item 3 (client 1)\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1,\"dur\":3,\"pid\":1,\"tid\":3},",
            "{\"name\":\"outage\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":0.5,\"dur\":0.75,\"pid\":1,\"tid\":2},",
            "{\"name\":\"events per epoch\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":2},\"tid\":0},",
            "{\"name\":\"events per epoch\",\"ph\":\"C\",\"ts\":2.5,\"pid\":1,\"args\":{\"value\":4},\"tid\":0},",
            "{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":3},\"tid\":0},",
            "{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":2.5,\"pid\":1,\"args\":{\"value\":0},\"tid\":0}],\"displayTimeUnit\":\"ms\"}",
            "\n"
        );
        assert_eq!(trace_json(&report), expected);
    }

    #[test]
    fn busy_intervals_pair_start_and_done_per_shard() {
        use distsys::scheduler::{EventKind, JobKind, SimEvent};
        let ev = |at, shard, kind| SimEvent {
            at,
            client: 0,
            shard,
            item: shard,
            kind,
        };
        // Two shards interleaved: pairing is per shard, not global.
        let events = vec![
            ev(1.0, 0, EventKind::TransferStart(JobKind::Demand)),
            ev(2.0, 1, EventKind::TransferStart(JobKind::Prefetch)),
            ev(4.0, 1, EventKind::TransferDone(JobKind::Prefetch)),
            ev(5.0, 0, EventKind::TransferDone(JobKind::Demand)),
        ];
        let spans = busy_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].track, "shard 1");
        assert_eq!(spans[0].dur_us, 2.0);
        assert_eq!(spans[1].track, "shard 0");
        assert_eq!(spans[1].dur_us, 4.0);
        assert!(spans[1].name.starts_with("demand item 0"));
    }
}
