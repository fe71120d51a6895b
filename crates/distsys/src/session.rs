//! The client session of the paper's Figure 1/2: one request, replayed
//! as a one-client run of the sharded simulator.
//!
//! Timeline: at `t = 0` the previous request was satisfied and the user
//! starts viewing. The client issues its prefetch plan, each item onto
//! its owning shard's channel, which serves transfers back-to-back and
//! non-preemptively. At `t = v` the user requests item `α`:
//!
//! - if `α` is cached or its prefetch has completed, it is served
//!   immediately;
//! - if its prefetch is in flight or queued, the request is served when
//!   that prefetch completes;
//! - otherwise a demand fetch is queued behind **all** outstanding
//!   prefetches on `α`'s shard (the paper's "prefetch completes before
//!   the demand fetch") and takes `r_α` on that channel.
//!
//! The access time is the time from the request to its service. There
//! is no separate session simulator: [`run_session`] runs
//! [`ShardedSim`] with one client serving one request, so a session and
//! every population report come from the same event loop. With one
//! shard this is the paper's single FIFO channel, and for admissible
//! plans it reproduces the closed forms of `skp-core` exactly; for
//! inadmissible plans (prefix longer than `v`) it tells the mechanistic
//! truth the formulas do not cover.
//!
//! ```
//! use distsys::{run_session, Placement, SessionConfig};
//!
//! let retrievals = [8.0, 6.0, 9.0];
//! let cfg = SessionConfig {
//!     viewing: 10.0,
//!     plan: &[0, 2],     // item 2 stretches: 8 + 9 − 10 = 7
//!     request: 1,        // ... and the miss queues behind it
//!     cached: &[],
//! };
//! assert_eq!(run_session(&retrievals, &cfg, 1, Placement::Hash), 7.0 + 6.0);
//! ```

use crate::scheduler::{ClientWorkload, Placement, ShardedSim};
use rand::rngs::SmallRng;

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig<'a> {
    /// Viewing time `v`: the request arrives this long after the session
    /// starts.
    pub viewing: f64,
    /// Prefetch plan, in issue order.
    pub plan: &'a [usize],
    /// The item actually requested, `α`.
    pub request: usize,
    /// Items already cached at the client (served in zero time).
    pub cached: &'a [usize],
}

/// The session's workload: view for `v`, then request `α`.
struct OneRequest {
    viewing: f64,
    request: usize,
    n_items: usize,
}

impl ClientWorkload for OneRequest {
    fn viewing(&self, _state: usize) -> f64 {
        self.viewing
    }
    fn next(&self, _state: usize, _rng: &mut SmallRng) -> usize {
        self.request
    }
    fn n_items(&self) -> usize {
        self.n_items
    }
}

/// Replays one session on `shards` server shards holding the items by
/// `placement`, and returns the request's access time (the paper's
/// `T`).
///
/// # Panics
/// Panics if the request or a plan item is outside `retrievals`, if
/// `viewing` is negative/NaN, or if `shards == 0`.
pub fn run_session(
    retrievals: &[f64],
    cfg: &SessionConfig<'_>,
    shards: usize,
    placement: Placement,
) -> f64 {
    assert!(
        cfg.viewing.is_finite() && cfg.viewing >= 0.0,
        "invalid viewing time"
    );
    assert!(cfg.request < retrievals.len(), "request out of range");
    for &i in cfg.plan {
        assert!(i < retrievals.len(), "plan item {i} out of range");
    }
    if cfg.cached.contains(&cfg.request) {
        return 0.0;
    }
    let workload = OneRequest {
        viewing: cfg.viewing,
        request: cfg.request,
        n_items: retrievals.len(),
    };
    let sim = ShardedSim {
        workload: &workload,
        retrievals,
        clients: 1,
        shards,
        placement,
        requests_per_client: 1,
        seed: 0,
        faults: None,
    };
    sim.run(&mut |_client: usize, _state: usize| cfg.plan.to_vec())
        .access
        .mean
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    fn run(viewing: f64, plan: &[usize], request: usize, cached: &[usize]) -> f64 {
        // r = [8, 6, 9]
        run_session(
            &[8.0, 6.0, 9.0],
            &SessionConfig {
                viewing,
                plan,
                request,
                cached,
            },
            1,
            Placement::Hash,
        )
    }

    #[test]
    fn no_prefetch_pays_full_retrieval() {
        assert!((run(10.0, &[], 2, &[]) - 9.0).abs() < TOL);
    }

    #[test]
    fn cache_hit_is_free() {
        assert_eq!(run(10.0, &[], 1, &[1]), 0.0);
    }

    #[test]
    fn fully_prefetched_item_is_free() {
        // Plan [0] completes at t=8 < v=10; request 0 served at once.
        assert_eq!(run(10.0, &[0], 0, &[]), 0.0);
    }

    #[test]
    fn stretch_item_waits_for_its_own_completion() {
        // Plan [0, 2]: completions at 8 and 17; request 2 at v=10 waits
        // until 17 -> T = 7 = st(F).
        assert!((run(10.0, &[0, 2], 2, &[]) - 7.0).abs() < TOL);
    }

    #[test]
    fn miss_waits_for_all_prefetches_then_fetches() {
        // Plan [0, 2] finishes at 17; request 1 fetched 17..23 -> T = 13
        // = st + r_1.
        assert!((run(10.0, &[0, 2], 1, &[]) - 13.0).abs() < TOL);
    }

    #[test]
    fn prefix_item_request_served_at_request_time() {
        // Request arrives at v=10 > completion of item 0 at t=8.
        assert_eq!(run(10.0, &[0, 2], 0, &[]), 0.0);
    }

    #[test]
    fn inadmissible_plan_truth_differs_from_formula() {
        // Plan [0, 1] with v = 5: item 1 completes at 14, not within v.
        // The closed form (which presumes admissibility) would call item 1
        // "in K" and report T = 0 for it; mechanistically T = 14 − 5 = 9.
        assert!((run(5.0, &[0, 1], 1, &[]) - 9.0).abs() < TOL);
    }

    #[test]
    fn zero_viewing_time_queues_request_behind_prefetches() {
        // Prefetch of 1 occupies 0..6; demand of 0 runs 6..14 -> T = 14.
        assert!((run(0.0, &[1], 0, &[]) - 14.0).abs() < TOL);
    }

    #[test]
    fn request_for_in_flight_item_waits_partial_time() {
        // Plan [2] in flight until t=9; request 2 at v=4 waits 5.
        assert!((run(4.0, &[2], 2, &[]) - 5.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_request() {
        let _ = run(1.0, &[], 7, &[]);
    }

    #[test]
    #[should_panic(expected = "invalid viewing")]
    fn rejects_negative_viewing() {
        let _ = run(-1.0, &[], 0, &[]);
    }
}
