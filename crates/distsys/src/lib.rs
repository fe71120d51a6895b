//! # distsys — distributed-information-system substrate
//!
//! The paper's model abstracts a client fetching items from remote
//! servers over a network where **a prefetch in progress completes before
//! a demand fetch begins** (a single non-preemptive FIFO channel). This
//! crate builds that system mechanistically, and generalises it to a
//! sharded server farm.
//!
//! ## Architecture: one event loop under every backend
//!
//! Everything runs on a single discrete-event core:
//!
//! - [`engine`] — the deterministic [`EventQueue`] (time-ordered, FIFO
//!   tie-breaks) and its run loop, [`EventQueue::run`], which pops
//!   until the queue drains or the handler returns
//!   [`ControlFlow::Break`](std::ops::ControlFlow::Break);
//! - [`scheduler`] — the [`ShardMap`] partitioning the catalog across
//!   server shards (hash / range / hot–cold [`Placement`]), and the
//!   crate's one simulator, the sharded multi-client [`ShardedSim`]
//!   with per-shard queues, service channels and [`ShardReport`]
//!   statistics — the only caller of [`EventQueue::run`];
//! - [`faults`] — fault-injection specs ([`FaultSpec`]: outage windows,
//!   slow links, seed-derived heterogeneous service times) materialised
//!   per run from the seed and applied inside the simulation's event
//!   handlers, so faulted runs stay deterministic;
//! - [`network`] — links (latency + bandwidth) and item catalogs mapping
//!   items to retrieval times, including the paper's `r ∈ [1, 30]`
//!   uniform catalog;
//! - [`session`] — the client session of Figure 1/2, replayed as a
//!   one-client, one-request [`ShardedSim`] run; reproduces the
//!   paper's Section-3/4 closed forms event by event;
//! - [`stats`] — the common [`AccessStats`] (mean/p50/p99) every report
//!   carries, and the stall-time [`Histogram`].
//!
//! The `shards = 1` path is the system the paper analyses: the
//! single-client session reproduces the Section-3/4 access-time model
//! (Figures 1–2), and a client population on one shard — one shared
//! FIFO server channel — realises the Section-6 network-usage tension
//! (its tests live in `multiclient.rs`). Sharding (`shards > 1`) is the
//! scaling axis beyond the paper: the same event loop, the contention
//! split across independent per-shard channels.
//!
//! The closed-form access times of `skp-core` are *derived* from this
//! timing model; the workspace integration tests replay sessions here and
//! assert the two agree exactly, which is the strongest check that the
//! formulas (and hence the solvers) model the system the paper describes.
//!
//! ## Event engine
//!
//! The [`EventQueue`] behind every simulation is a
//! `std::collections::BinaryHeap` keyed by one packed `u128` per event
//! (time bits, then a FIFO sequence number), so a pop is one integer
//! compare per sift step. It pops earliest time first, FIFO on ties.
//! A pop leaves the popped record at the root, marked stale; the next
//! schedule (a handler almost always makes one) overwrites it with one
//! sift-down instead of a pop and a push, and a second pop in a row
//! first removes it. Sifting any record down from the root keeps the
//! heap valid, and the stale record is always the root, so each pop
//! still returns the unique `(time, seq)` minimum of the pending
//! records. The `heap_matches_sorted_reference` test and the
//! `queue_interleaving_matches_sorted_reference` property pin that
//! order against a stable sort, and the workspace goldens pin it end
//! to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod faults;
#[cfg(test)]
mod multiclient;
pub mod network;
pub mod scheduler;
pub mod session;
pub mod stats;
pub mod trace;

pub use engine::EventQueue;
pub use faults::{FaultPlan, FaultSpec, Outage};
pub use network::{Catalog, Link};
pub use scheduler::{
    ClientPolicy, ClientWorkload, EventKind, Placement, ShardMap, ShardReport, ShardStats,
    ShardedSim, SimEvent,
};
pub use session::{run_session, SessionConfig};
pub use stats::{AccessStats, Histogram};
pub use trace::{Trace, TraceRecord};
