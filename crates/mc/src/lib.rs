//! # montecarlo — the paper's experiment harness
//!
//! Everything needed to regenerate the evaluation of the paper:
//!
//! - [`probgen`] — next-access probability generators: the paper's
//!   *skewy* and *flat* methods (as interpreted in DESIGN.md §4.1) plus
//!   Zipf and Dirichlet variants for sensitivity checks;
//! - [`scenario_gen`] — random `(n, P, r, v)` scenario generation with the
//!   paper's parameter ranges;
//! - [`prefetch_only`] — the 'prefetch only' simulation of Figures 4–5
//!   (cache used only for prefetching, flushed after every request);
//! - [`prefetch_cache`] — the Figure-7 simulation: a Markov request source
//!   driving the integrated prefetch–cache client across cache sizes;
//! - [`parallel`] — a deterministic parallel runner on scoped crossbeam
//!   threads (per-chunk seeding, order-stable results);
//! - [`stats`] — streaming mean/variance and binned-mean accumulators;
//! - [`output`] — tiny CSV writer and ASCII scatter/line plots so the
//!   experiment binaries can render the figures in a terminal.
//!
//! Trace replay with an online predictor lives in the facade's engine
//! (`Workload::Trace`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod output;
pub mod parallel;
pub mod prefetch_cache;
pub mod prefetch_only;
pub mod probgen;
pub mod scenario_gen;
pub mod stats;

pub use prefetch_cache::{CachePoint, PrefetchCacheSim};
pub use prefetch_only::{PrefetchOnlySim, Sample};
pub use probgen::ProbMethod;
pub use scenario_gen::ScenarioGen;
