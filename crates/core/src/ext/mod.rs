//! Extensions the paper lists as current or future work (Section 6):
//!
//! - [`lookahead`] — the SKP algorithm "considers only one access ahead
//!   \[and\] the stretch time may intrude into the next viewing time";
//!   the stretch-penalised objective charges that intrusion a shadow
//!   price.
//! - [`twostep`] — true two-step lookahead over a forecast of the next
//!   round's scenario, searching the stretch-penalised parametric
//!   frontier ("looking ahead deeper will improve the performance").
//! - [`netaware`] — "a policy is needed to weigh the opposing goals of
//!   maximising access improvement and minimising network usage"; the
//!   network-aware objective taxes expected wasted retrieval time.

pub mod lookahead;
pub mod netaware;
pub mod twostep;

pub use lookahead::StretchPenalisedPolicy;
pub use netaware::NetworkAwarePolicy;
pub use twostep::TwoStepPolicy;
