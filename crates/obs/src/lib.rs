//! Zero-overhead-when-off observability: the workspace's sixth
//! string-keyed seam.
//!
//! Every layer of the workspace (the `distsys` executors, the facade
//! engine, `skp-serve`) carries instrumentation points built from this
//! crate. The contract that makes that acceptable is **pay-for-play**:
//!
//! - An instrument handle ([`Counter`], [`Gauge`], [`TimeHistogram`])
//!   is an `Option<Arc<cell>>`. With the default `none` sink the
//!   option is `None` and every operation is a branch-on-null no-op —
//!   no allocation, no atomics, no clock reads ([`TimeHistogram::time`]
//!   skips `Instant::now` entirely when off).
//! - With the `memory` sink, hot-path updates are single relaxed
//!   atomic operations on cells created up front; the benchmarked
//!   budget is ≤2% on the `distsys` event-rate grid
//!   (`crates/bench/benches/obs.rs`, snapshot `BENCH_obs.json`).
//!
//! Sinks are chosen by spec string through the workspace's one
//! registry (`skp-registry`, shared with backends, generators and plan
//! stores — see the facade crate docs): [`build_obs`],
//! [`register_obs_sink`], [`obs_sink_specs`], listed by
//! `skp-plan --list`.
//!
//! Observability never changes results: reports and event logs are
//! bit-identical whatever sink is installed, and the facade excludes
//! its [`PhaseBreakdown`] block from report equality and the wire
//! format just like the plan-store counters.
//!
//! The crate is std-only and sits below `distsys` in the dependency
//! order; it also hosts the shared diagnostic renderers: Prometheus
//! text exposition ([`prom`]) and Chrome/Perfetto trace JSON
//! ([`trace`]), plus the [`PhaseTimer`] used to decompose engine runs
//! into named spans.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod phase;
pub mod prom;
mod registry;
pub mod trace;

pub use phase::{EpochMark, FaultWindow, PhaseBreakdown, PhaseSpan, PhaseTimer};
pub use registry::{
    build_obs, obs_sink_names, obs_sink_specs, register_obs_sink, ObsBuilder, ObsSpec,
};

/// Upper bucket edges (seconds) of every [`TimeHistogram`]; a final
/// `+Inf` bucket is implicit. Fixed across the workspace so histograms
/// from different runs and processes can be merged bucket-by-bucket.
pub const TIME_BUCKETS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
];

/// Error from building or registering an observability sink: the
/// workspace's one spec error.
pub use skp_registry::SpecError as ObsError;

/// The storage cell behind an attached [`Counter`].
#[derive(Debug, Default)]
pub struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    /// Adds `n` (relaxed; counters are monotone, order is irrelevant).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The storage cell behind an attached [`Gauge`] (an `f64` stored as
/// its bit pattern in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct GaugeCell {
    bits: AtomicU64,
}

impl GaugeCell {
    /// Overwrites the gauge value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (`0.0` if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The storage cell behind an attached [`TimeHistogram`]: fixed
/// [`TIME_BUCKETS`] edges plus `+Inf`, a CAS-looped `f64` sum and an
/// observation count.
#[derive(Debug)]
pub struct HistCell {
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        Self {
            buckets: (0..=TIME_BUCKETS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn observe(&self, seconds: f64) {
        let idx = TIME_BUCKETS
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(TIME_BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + seconds).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self, key: &str) -> HistogramSnapshot {
        let mut cumulative = 0;
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            let le = TIME_BUCKETS.get(i).copied().unwrap_or(f64::INFINITY);
            buckets.push((le, cumulative));
        }
        HistogramSnapshot {
            key: key.to_string(),
            buckets,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A monotone counter handle; a no-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// A detached (no-op) counter.
    pub fn off() -> Self {
        Self(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.add(1);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Whether the handle is attached to a sink.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A last-value-wins gauge handle; a no-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// A detached (no-op) gauge.
    pub fn off() -> Self {
        Self(None)
    }

    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Whether the handle is attached to a sink.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A duration histogram handle over the fixed [`TIME_BUCKETS`] edges;
/// a no-op when detached.
#[derive(Debug, Clone, Default)]
pub struct TimeHistogram(Option<Arc<HistCell>>);

impl TimeHistogram {
    /// A detached (no-op) histogram.
    pub fn off() -> Self {
        Self(None)
    }

    /// Records one duration in seconds.
    #[inline]
    pub fn observe_seconds(&self, seconds: f64) {
        if let Some(h) = &self.0 {
            h.observe(seconds);
        }
    }

    /// Times `f` and records its duration. When detached this runs `f`
    /// directly — no clock reads.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(h) => {
                let t0 = std::time::Instant::now();
                let out = f();
                h.observe(t0.elapsed().as_secs_f64());
                out
            }
        }
    }

    /// Whether the handle is attached to a sink.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// One histogram in a [`Snapshot`]: cumulative per-bucket counts
/// (final edge `+Inf`), the sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The instrument key.
    pub key: String,
    /// `(upper_edge_seconds, cumulative_count)` per bucket; the last
    /// edge is `f64::INFINITY` and its count equals `count`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of recorded durations, seconds.
    pub sum: f64,
    /// Number of recorded observations.
    pub count: u64,
}

/// A point-in-time copy of every instrument a sink has vended, in
/// deterministic (sorted-by-key) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(key, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(key, value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// One entry per time histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// A metrics sink: vends the storage cells behind instrument handles
/// and snapshots them. Implementations must be cheap to share
/// (`Arc<dyn ObsSink>`) and safe to drive from many threads.
pub trait ObsSink: Send + Sync {
    /// Registry name (the spec string up to the first `:`).
    fn name(&self) -> &'static str;

    /// Canonical spec string that rebuilds this sink via
    /// [`build_obs`] (a fixed point of the registry).
    fn spec_string(&self) -> String;

    /// The cell behind `key`, created on first use. Repeated calls
    /// with one key return the same cell.
    fn counter_cell(&self, key: &str) -> Arc<CounterCell>;

    /// The cell behind `key`, created on first use.
    fn gauge_cell(&self, key: &str) -> Arc<GaugeCell>;

    /// The cell behind `key`, created on first use.
    fn histogram_cell(&self, key: &str) -> Arc<HistCell>;

    /// Copies every vended instrument, sorted by key.
    fn snapshot(&self) -> Snapshot;
}

/// The cloneable observability handle threaded through the workspace:
/// either detached (the `none` sink — every instrument is a no-op) or
/// attached to an [`ObsSink`].
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn ObsSink>>,
}

// `Arc<dyn ObsSink>` has no Debug; render the spec string instead.
impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Obs").field(&self.spec_string()).finish()
    }
}

impl Obs {
    /// The detached handle (the `none` sink): every instrument built
    /// from it is a branch-on-null no-op.
    pub fn off() -> Self {
        Self { sink: None }
    }

    /// Wraps an existing sink instance.
    pub fn from_sink(sink: Arc<dyn ObsSink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Registry name of the attached sink, `"none"` when detached.
    pub fn name(&self) -> &'static str {
        self.sink.as_deref().map_or("none", ObsSink::name)
    }

    /// Canonical spec string (a fixed point of [`build_obs`]).
    pub fn spec_string(&self) -> String {
        self.sink
            .as_deref()
            .map_or_else(|| "none".to_string(), ObsSink::spec_string)
    }

    /// A counter handle for `key` (no-op when detached).
    pub fn counter(&self, key: &str) -> Counter {
        Counter(self.sink.as_deref().map(|s| s.counter_cell(key)))
    }

    /// A gauge handle for `key` (no-op when detached).
    pub fn gauge(&self, key: &str) -> Gauge {
        Gauge(self.sink.as_deref().map(|s| s.gauge_cell(key)))
    }

    /// A time-histogram handle for `key` (no-op when detached).
    pub fn time_histogram(&self, key: &str) -> TimeHistogram {
        TimeHistogram(self.sink.as_deref().map(|s| s.histogram_cell(key)))
    }

    /// Snapshot of the attached sink; empty when detached.
    pub fn snapshot(&self) -> Snapshot {
        self.sink
            .as_deref()
            .map(ObsSink::snapshot)
            .unwrap_or_default()
    }
}

/// The in-process sink behind the `memory` spec: instruments live in
/// key-sorted maps, updates are relaxed atomics on the vended cells,
/// snapshots are deterministic.
#[derive(Default)]
pub struct MemorySink {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCell>>>,
}

impl MemorySink {
    /// An empty sink (`memory`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ObsSink for MemorySink {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn spec_string(&self) -> String {
        "memory".to_string()
    }

    fn counter_cell(&self, key: &str) -> Arc<CounterCell> {
        let mut map = self.counters.lock().expect("obs counters poisoned");
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    fn gauge_cell(&self, key: &str) -> Arc<GaugeCell> {
        let mut map = self.gauges.lock().expect("obs gauges poisoned");
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    fn histogram_cell(&self, key: &str) -> Arc<HistCell> {
        let mut map = self.histograms.lock().expect("obs histograms poisoned");
        Arc::clone(
            map.entry(key.to_string())
                .or_insert_with(|| Arc::new(HistCell::new())),
        )
    }

    fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs counters poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("obs gauges poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs histograms poisoned")
            .iter()
            .map(|(k, h)| h.snapshot(k))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handles_are_noops_and_report_off() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert_eq!(obs.name(), "none");
        assert_eq!(obs.spec_string(), "none");
        let c = obs.counter("x");
        let g = obs.gauge("x");
        let h = obs.time_histogram("x");
        assert!(!c.enabled() && !g.enabled() && !h.enabled());
        c.inc();
        c.add(5);
        g.set(3.0);
        h.observe_seconds(0.25);
        assert_eq!(h.time(|| 7), 7);
        assert_eq!(obs.snapshot(), Snapshot::default());
    }

    #[test]
    fn memory_sink_accumulates_and_snapshots_sorted() {
        let obs = Obs::from_sink(Arc::new(MemorySink::new()));
        assert!(obs.enabled());
        assert_eq!(obs.spec_string(), "memory");
        obs.counter("b_events").add(3);
        obs.counter("a_events").inc();
        // Handles for the same key share one cell.
        obs.counter("b_events").add(2);
        obs.gauge("depth").set(4.5);
        obs.gauge("depth").set(2.5);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_events".to_string(), 1), ("b_events".to_string(), 5)]
        );
        assert_eq!(snap.gauges, vec![("depth".to_string(), 2.5)]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let obs = Obs::from_sink(Arc::new(MemorySink::new()));
        let h = obs.time_histogram("lat");
        h.observe_seconds(5e-7); // bucket 0 (<= 1e-6)
        h.observe_seconds(2e-3); // <= 5e-3
        h.observe_seconds(99.0); // +Inf
        let snap = obs.snapshot();
        let hist = &snap.histograms[0];
        assert_eq!(hist.key, "lat");
        assert_eq!(hist.count, 3);
        assert!((hist.sum - (5e-7 + 2e-3 + 99.0)).abs() < 1e-12);
        assert_eq!(hist.buckets.len(), TIME_BUCKETS.len() + 1);
        let (last_le, last_n) = *hist.buckets.last().unwrap();
        assert!(last_le.is_infinite() && last_n == 3);
        // Cumulative: monotone non-decreasing.
        assert!(hist.buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(hist.buckets[0].1, 1);
    }

    #[test]
    fn timed_sections_record_into_the_histogram() {
        let obs = Obs::from_sink(Arc::new(MemorySink::new()));
        let h = obs.time_histogram("work");
        let out = h.time(|| 41 + 1);
        assert_eq!(out, 42);
        let snap = obs.snapshot();
        assert_eq!(snap.histograms[0].count, 1);
        assert!(snap.histograms[0].sum >= 0.0);
    }
}
