//! # cache-sim — client cache substrate
//!
//! The prefetcher of Section 5 "must contest the items already in the
//! cache". This crate provides that cache and everything around it:
//!
//! - [`cache`] — an equal-slot cache over a fixed item universe with
//!   LRU/FIFO recency bookkeeping;
//! - [`replacement`] — victim-selection policies: the paper's
//!   Pr-arbitration family (via `skp-core`) plus classic LRU, LFU, FIFO
//!   and Random baselines for ablations;
//! - [`integrated`] — [`integrated::PrefetchCache`], the full Section-5
//!   client: Figure-6 arbitration of a tentative plan (planned by the
//!   caller over the non-cached items), demand-fetch eviction and
//!   access-frequency tracking. This is the object the Figure-7
//!   simulation drives.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod integrated;
pub mod replacement;
pub mod sized;

pub use cache::Cache;
pub use integrated::{PrefetchCache, PrefetchCacheConfig, Round, StepOutcome};
pub use replacement::Replacement;
pub use sized::{SizedCache, SizedPrefetchCache};
