//! Chrome/Perfetto trace rendering: the JSON Array trace-event format
//! (`chrome://tracing`, <https://ui.perfetto.dev>) from generic spans
//! and counter series. The facade converts a traced run's
//! `PhaseBreakdown` + event log into these and `skp-plan run
//! --trace-out <file>` writes the result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One complete (`ph:"X"`) span on a named track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Track (rendered as a thread name) the span lives on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Start timestamp, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// One counter (`ph:"C"`) time series.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCounter {
    /// Counter name (its own track in the viewer).
    pub name: String,
    /// `(timestamp_us, value)` samples in time order.
    pub points: Vec<(f64, f64)>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders spans and counters as a Chrome trace-event JSON object:
/// `{"traceEvents":[...],"displayTimeUnit":"ms"}`. Tracks become
/// named threads of one process (`process`); track/thread ids are
/// assigned in order of first appearance, so output is deterministic.
pub fn render_chrome_trace(
    process: &str,
    spans: &[TraceSpan],
    counters: &[TraceCounter],
) -> String {
    let mut tids: BTreeMap<&str, u32> = BTreeMap::new();
    let mut order: Vec<&str> = Vec::new();
    for s in spans {
        tids.entry(&s.track).or_insert_with(|| {
            order.push(&s.track);
            order.len() as u32
        });
    }

    let mut events = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        esc(process)
    ));
    for track in &order {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tids[track],
            esc(track)
        ));
    }
    for s in spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            esc(&s.name),
            num(s.start_us),
            num(s.dur_us),
            tids[s.track.as_str()]
        ));
    }
    // Counters are process-scoped; they carry the process's own
    // thread id 0 so every record has a `pid` and a `tid`.
    for c in counters {
        for (at, v) in &c.points {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"args\":{{\"value\":{}}},\"tid\":0}}",
                esc(&c.name),
                num(*at),
                num(*v)
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_metadata_spans_and_counters() {
        let spans = vec![
            TraceSpan {
                track: "engine".to_string(),
                name: "simulate".to_string(),
                start_us: 10.0,
                dur_us: 250.5,
            },
            TraceSpan {
                track: "shard 0".to_string(),
                name: "xfer demand".to_string(),
                start_us: 20.0,
                dur_us: 5.0,
            },
        ];
        let counters = vec![TraceCounter {
            name: "queue depth".to_string(),
            points: vec![(0.0, 3.0), (100.0, 1.0)],
        }];
        let out = render_chrome_trace("skp-plan run", &spans, &counters);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"name\":\"engine\""));
        assert!(out.contains("\"name\":\"shard 0\""));
        assert!(out.contains("\"ph\":\"X\",\"ts\":10,\"dur\":250.5,\"pid\":1,\"tid\":1"));
        assert!(out.contains("\"ph\":\"C\",\"ts\":100,\"pid\":1,\"args\":{\"value\":1}"));
        assert!(out.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn track_ids_follow_first_appearance() {
        let spans: Vec<TraceSpan> = ["b", "a", "b"]
            .iter()
            .map(|t| TraceSpan {
                track: t.to_string(),
                name: "s".to_string(),
                start_us: 0.0,
                dur_us: 1.0,
            })
            .collect();
        let out = render_chrome_trace("p", &spans, &[]);
        let b_meta = out.find("\"tid\":1,\"args\":{\"name\":\"b\"}").unwrap();
        let a_meta = out.find("\"tid\":2,\"args\":{\"name\":\"a\"}").unwrap();
        assert!(b_meta < a_meta);
    }

    #[test]
    fn strings_are_json_escaped() {
        let spans = vec![TraceSpan {
            track: "t\"rack".to_string(),
            name: "a\\b\nc".to_string(),
            start_us: 0.0,
            dur_us: 1.0,
        }];
        let out = render_chrome_trace("p", &spans, &[]);
        assert!(out.contains("t\\\"rack"));
        assert!(out.contains("a\\\\b\\nc"));
    }
}
