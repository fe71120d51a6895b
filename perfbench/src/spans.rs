//! Benchmark-side spans: recorded around the benchmark's own calls into
//! each layer's public functions, kept in memory, folded into per-layer
//! self times at the end of every op, and written out as a Chrome trace
//! when the run ends.
//!
//! A span's name is `<layer>.<what>`; its self time is its duration minus
//! the part of that interval its direct children cover. Times are whole
//! nanoseconds from one process-wide origin, so the accounting check (the
//! self times of a tree add up to its root's duration) is exact.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(name: &str) -> &str {
        name.split('.').next().unwrap_or(name)
    }
}

/// Calls and self time of one span name within one op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub self_ns: u64,
}

/// One recorded tree of an op: its root's duration and, per span name,
/// the calls and self time inside it.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    pub dur_ns: u64,
    pub spans: BTreeMap<&'static str, Tally>,
}

/// One traced op, folded: its trees keyed by root name. [`ROOT`] is the
/// op itself; the daemon-side replay ([`REPLAY`]) and the empty-request
/// baseline are recorded beside it under the same op id.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    pub trees: BTreeMap<&'static str, Tree>,
}

impl OpTrace {
    pub fn wall_ns(&self) -> u64 {
        self.trees.get(ROOT).map_or(0, |t| t.dur_ns)
    }

    fn tally(&self, name: &str) -> Tally {
        let mut sum = Tally::default();
        for t in self.trees.values().filter_map(|t| t.spans.get(name)) {
            sum.calls += t.calls;
            sum.self_ns += t.self_ns;
        }
        sum
    }

    /// Calls of a span name over every tree of the op.
    pub fn calls(&self, name: &str) -> u64 {
        self.tally(name).calls
    }

    /// Self time of a span name over every tree of the op.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.tally(name).self_ns
    }

    /// The op's wall time split by layer, in signed nanoseconds; the
    /// root's own self time is `other`. When a daemon-side replay was
    /// recorded, its layer self times stand in for the daemon's part of
    /// the round trip, and `serve` keeps only the round trip's remainder.
    pub fn layers(&self) -> BTreeMap<&'static str, i64> {
        let mut out: BTreeMap<&'static str, i64> = BTreeMap::new();
        let mut add = |name: &'static str, ns: i64| {
            let key = if name == ROOT {
                "other"
            } else {
                Span::layer(name)
            };
            *out.entry(key).or_default() += ns;
        };
        if let Some(op) = self.trees.get(ROOT) {
            for (&name, t) in &op.spans {
                add(name, t.self_ns as i64);
            }
        }
        if let Some(replay) = self.trees.get(REPLAY) {
            for (&name, t) in &replay.spans {
                if name == REPLAY {
                    // The daemon's work is the replay minus its glue.
                    add("serve", t.self_ns as i64 - replay.dur_ns as i64);
                } else {
                    add(name, t.self_ns as i64);
                }
            }
        }
        out
    }
}

/// Name of every op's root span.
pub const ROOT: &str = "op";
/// Name of the root of the daemon-side replay.
pub const REPLAY: &str = "serve.replay";

struct Recorder {
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Spans of the first few ops, kept for the Chrome trace.
    kept: Vec<Span>,
    keep_ops: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; spans of the first `keep_ops` ops
/// are kept for [`chrome_trace`].
pub fn enable(keep_ops: u64) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            kept: Vec::new(),
            keep_ops,
        })
    });
}

fn now_ns(r: &Recorder) -> u64 {
    r.origin.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` (a no-op wrapper while recording
/// is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut()?;
        let idx = r.spans.len();
        let span = Span {
            name,
            op: r.op,
            parent: r.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        };
        r.spans.push(span);
        r.stack.push(idx);
        r.spans[idx].start_ns = now_ns(r);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = open {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let r = r.as_mut().expect("recorder outlives its spans");
            r.spans[idx].end_ns = now_ns(r);
            r.stack.pop();
        });
    }
    out
}

/// Ends the current op: folds its spans into an [`OpTrace`], checking
/// that every tree's self times add up to its root's duration, and
/// starts the next op id. Errors name the first tree that fails.
pub fn finish_op() -> Result<OpTrace, String> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("recording is enabled");
        assert!(r.stack.is_empty(), "op finished inside an open span");
        let spans = std::mem::take(&mut r.spans);
        if r.op < r.keep_ops {
            r.kept.extend(spans.iter().cloned());
        }
        r.op += 1;
        fold(&spans)
    })
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to it.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

fn fold(spans: &[Span]) -> Result<OpTrace, String> {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut tree_self: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = OpTrace::default();
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        *tree_self.entry(root_of[i]).or_default() += selfs[i];
        let tree = out.trees.entry(spans[root_of[i]].name).or_default();
        let t = tree.spans.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += selfs[i];
    }
    for (&root, &sum) in &tree_self {
        let r = &spans[root];
        if sum != r.dur() {
            return Err(format!(
                "span tree '{}' does not add up: self times {sum} ns, root {} ns \
                 (children overlap or escape their parent)",
                r.name,
                r.dur()
            ));
        }
        out.trees.entry(r.name).or_default().dur_ns += r.dur();
    }
    Ok(out)
}

/// The kept spans as a Chrome trace-event document (the format
/// `skp-plan run --trace-out` writes): one `X` event per span on one
/// track per op, with the op id and parent span in `args`.
pub fn chrome_trace(process: &str) -> String {
    REC.with(|r| {
        let r = r.borrow();
        let Some(r) = r.as_ref() else {
            return String::new();
        };
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        )];
        let mut ops: Vec<u64> = r.kept.iter().map(|s| s.op).collect();
        ops.dedup();
        for op in ops {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"op {op}\"}}}}",
                op + 1
            ));
        }
        // Indices in `kept` are per op; map a parent back to its name.
        let mut base = 0;
        for (i, s) in r.kept.iter().enumerate() {
            if i > 0 && r.kept[i - 1].op != s.op {
                base = i;
            }
            let parent = s.parent.map_or("", |p| r.kept[base + p].name);
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":\"{}\"}}}}",
                s.name,
                Span::layer(s.name),
                s.op + 1,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.op,
                parent
            );
            events.push(e);
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    })
}
