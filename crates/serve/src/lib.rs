//! # skp-serve — the resident prefetch-planning daemon
//!
//! A hand-rolled HTTP/1.1 server over `std::net` (no network
//! dependencies) that keeps the speculative-prefetch registries warm
//! and executes workloads on demand:
//!
//! | Route            | Answer                                                         |
//! |------------------|----------------------------------------------------------------|
//! | `GET /version`   | daemon name, crate version, worker/queue sizing                |
//! | `GET /registry`  | the policy, predictor, backend, plan-store and obs-sink        |
//! |                  | registries                                                     |
//! | `POST /run`      | executes a `.skp` workload file or a wire-run JSON body and    |
//! |                  | answers with the `RunReport` in `skp-plan --format json` shape |
//! | `GET /stats`     | uptime, served/shed/in-flight/queue-depth counters, per-route  |
//! |                  | request counts, percentiles of the last 4096 `POST /run`       |
//! |                  | latencies in the `AccessStats` block, and the shared plan      |
//! |                  | store's hit/miss/tier counters                                 |
//! | `GET /metrics`   | the same snapshot in the Prometheus text exposition format     |
//! |                  | (`text/plain; version=0.0.4`): request/shed/in-flight          |
//! |                  | counters, the all-time `POST /run` latency histogram,          |
//! |                  | worker-pool queue depth and per-tier plan-store counters       |
//! | `POST /shutdown` | drains and stops the daemon                                    |
//!
//! Workers share one plan store (`--plan-store`, default
//! `memory:8x1024`): the second client to post an identical population
//! run gets its plans from the store — the body stays byte-identical,
//! only `GET /stats` shows the hit.
//!
//! A posted run on the `served:` backend and a posted file with a
//! `plan-store` line answer `400 invalid-param`: the daemon never dials
//! or writes where a body says. Requests are framed by
//! `speculative_prefetch::http`, the module the `served:` client reads
//! replies with: past 64 header lines a request answers
//! `400 bad-request`.
//!
//! Connections are dispatched to a fixed worker pool through a bounded
//! admission queue; when the queue is full the accept loop sheds the
//! connection with `503` + `Retry-After` before reading a single
//! request byte.
//!
//! The other half of the subsystem lives in the facade: the
//! `served:<host>:<port>:<inner-spec>` backend serialises a population
//! run through `speculative_prefetch::wire`, posts it to a daemon and
//! parses the report back — bit-identical to running the inner backend
//! in process on the same seed, extending the backends' determinism
//! contract across a socket.
//!
//! ```no_run
//! use skp_serve::{ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let handle = server.spawn()?;
//! println!("daemon at {}", handle.addr());
//! handle.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod server;

pub use http::{HttpError, Request, Response};
pub use server::{ServeConfig, Server, ServerHandle, ServerState};
