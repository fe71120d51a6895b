//! # cache-sim — client cache substrate
//!
//! The prefetcher of Section 5 "must contest the items already in the
//! cache". This crate provides that cache and everything around it:
//!
//! - [`cache`] — an equal-slot cache over a fixed item universe;
//! - [`integrated`] — [`integrated::PrefetchCache`], the full Section-5
//!   client: Figure-6 arbitration of a tentative plan (planned by the
//!   caller over the non-cached items), demand-fetch eviction and
//!   access-frequency tracking. This is the object the Figure-7
//!   simulation drives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod integrated;

pub use cache::Cache;
pub use integrated::{PrefetchCache, PrefetchCacheConfig, Round, StepOutcome};
