//! Zero-overhead-when-off observability: the workspace's sixth
//! string-keyed seam.
//!
//! Observability is one switch, [`Obs`]. Off (the default `none`
//! sink), nothing is recorded: the [`PhaseTimer`] never reads the
//! clock and the `distsys` event loop builds no probe. On (the
//! `memory` sink), a run records its wall-clock phase spans, the
//! scheduler's per-epoch [`EpochMark`]s and the [`FaultWindow`]s of an
//! injected fault plan into a [`PhaseBreakdown`]. The facade's
//! `tests/alloc_round.rs` pins the overhead of both states in
//! allocations: off allocates exactly what no obs does, and on adds a
//! few per run and none per event.
//!
//! Sinks are chosen by spec string through the workspace's one
//! registry (`skp-registry`, shared with backends, generators and plan
//! stores — see the facade crate docs): [`build_obs`] and
//! [`obs_sink_specs`], listed by `skp-plan --list`. The registry holds
//! exactly `none` and `memory`; there is nothing else to register.
//!
//! Observability never changes results: reports and event logs are
//! bit-identical in both states, and the facade excludes its
//! [`PhaseBreakdown`] block from report equality and the wire format
//! just like the plan-store counters.
//!
//! The crate is std-only and sits below `distsys` in the dependency
//! order; it also hosts the shared diagnostic renderers: Prometheus
//! text exposition ([`prom`]) and Chrome/Perfetto trace JSON
//! ([`trace`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod phase;
pub mod prom;
mod registry;
pub mod trace;

pub use phase::{EpochMark, FaultWindow, PhaseBreakdown, PhaseSpan, PhaseTimer};
pub use registry::{build_obs, obs_sink_names, obs_sink_specs, ObsBuilder, ObsSpec};

/// Upper bucket edges (seconds) of the workspace's time histograms
/// (the daemon's `/metrics` run latency); a final `+Inf` bucket is
/// implicit. Fixed so histograms from different runs and processes can
/// be merged bucket-by-bucket.
pub const TIME_BUCKETS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
];

/// Error from building or registering an observability sink: the
/// workspace's one spec error.
pub use skp_registry::SpecError as ObsError;

/// The observability switch threaded through the workspace: off (the
/// `none` sink) or on (the `memory` sink, which records phase spans,
/// epoch marks and fault windows into each run's [`PhaseBreakdown`]).
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    on: bool,
}

impl Obs {
    /// The switch off (the `none` sink): nothing is recorded.
    pub fn off() -> Self {
        Self { on: false }
    }

    /// The switch on (the `memory` sink).
    pub fn on() -> Self {
        Self { on: true }
    }

    /// Whether observability is on.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Registry name of the state: `"memory"` on, `"none"` off.
    pub fn name(&self) -> &'static str {
        if self.on {
            "memory"
        } else {
            "none"
        }
    }

    /// Canonical spec string (a fixed point of [`build_obs`]).
    pub fn spec_string(&self) -> String {
        self.name().to_string()
    }
}
