//! # cache-sim — client cache substrate
//!
//! The prefetcher of Section 5 "must contest the items already in the
//! cache". This crate provides that cache and everything around it:
//!
//! - [`cache`] — an equal-slot cache over a fixed item universe;
//! - [`integrated`] — [`integrated::PrefetchCache`], the full Section-5
//!   client: planning over the non-cached items, Figure-6 arbitration
//!   of the tentative plan, demand-fetch eviction and access-frequency
//!   tracking. Its one round ([`PrefetchCache::round`]) is what both
//!   the facade engine and the Figure-7 simulation run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod integrated;

pub use cache::Cache;
pub use integrated::{PrefetchCache, PrefetchCacheConfig, Round, RoundScratch, StepOutcome};
