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

/// Writes `s` into `out` as the body of a JSON string.
fn esc(out: &mut String, s: &str) {
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
}

/// Writes `v` into `out` as a JSON number; a non-finite value as `0`.
fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Renders spans and counters as a Chrome trace-event JSON object:
/// `{"traceEvents":[...],"displayTimeUnit":"ms"}`. Tracks become
/// named threads of one process (`process`); track/thread ids are
/// assigned in order of first appearance, so output is deterministic.
/// Every record is written straight into the one returned string.
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

    let points: usize = counters.iter().map(|c| c.points.len()).sum();
    let mut out = String::with_capacity(128 + 96 * (order.len() + spans.len() + points));
    out.push_str("{\"traceEvents\":[");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"",
    );
    esc(&mut out, process);
    out.push_str("\"}}");
    for track in &order {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"",
            tids[track]
        );
        esc(&mut out, track);
        out.push_str("\"}}");
    }
    for s in spans {
        out.push_str(",{\"name\":\"");
        esc(&mut out, &s.name);
        out.push_str("\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
        num(&mut out, s.start_us);
        out.push_str(",\"dur\":");
        num(&mut out, s.dur_us);
        let _ = write!(out, ",\"pid\":1,\"tid\":{}}}", tids[s.track.as_str()]);
    }
    // Counters are process-scoped; they carry the process's own
    // thread id 0 so every record has a `pid` and a `tid`.
    for c in counters {
        for &(at, v) in &c.points {
            out.push_str(",{\"name\":\"");
            esc(&mut out, &c.name);
            out.push_str("\",\"ph\":\"C\",\"ts\":");
            num(&mut out, at);
            out.push_str(",\"pid\":1,\"args\":{\"value\":");
            num(&mut out, v);
            out.push_str("},\"tid\":0}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
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
        let expected = concat!(
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"skp-plan run\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"engine\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"shard 0\"}},",
            "{\"name\":\"simulate\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":10,\"dur\":250.5,\"pid\":1,\"tid\":1},",
            "{\"name\":\"xfer demand\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":20,\"dur\":5,\"pid\":1,\"tid\":2},",
            "{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":3},\"tid\":0},",
            "{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":100,\"pid\":1,\"args\":{\"value\":1},\"tid\":0}],\"displayTimeUnit\":\"ms\"}",
            "\n"
        );
        assert_eq!(out, expected);
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

    #[test]
    fn control_characters_and_non_finite_numbers_are_pinned() {
        let spans = vec![TraceSpan {
            track: "t\u{1}\r\t".to_string(),
            name: "é\u{1f}".to_string(),
            start_us: f64::NAN,
            dur_us: f64::INFINITY,
        }];
        let counters = vec![TraceCounter {
            name: "c\"".to_string(),
            points: vec![(-0.0, f64::NEG_INFINITY), (1e21, 1e-7)],
        }];
        let out = render_chrome_trace("p\\", &spans, &counters);
        let expected = concat!(
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"p\\\\\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"t\\u0001\\r\\t\"}},",
            "{\"name\":\"é\\u001f\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":0,\"dur\":0,\"pid\":1,\"tid\":1},",
            "{\"name\":\"c\\\"\",\"ph\":\"C\",\"ts\":-0,\"pid\":1,\"args\":{\"value\":0},\"tid\":0},",
            "{\"name\":\"c\\\"\",\"ph\":\"C\",\"ts\":1000000000000000000000,\"pid\":1,\"args\":{\"value\":0.0000001},\"tid\":0}],\"displayTimeUnit\":\"ms\"}",
            "\n"
        );
        assert_eq!(out, expected);
    }
}
