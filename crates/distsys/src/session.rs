//! The client session of the paper's Figure 1/2, replayed event by event.
//!
//! Timeline: at `t = 0` the previous request was satisfied and the user
//! starts viewing. The client issues its prefetch plan on the single
//! network channel, which serves transfers back-to-back and
//! non-preemptively. At `t = v` the user requests item `α`:
//!
//! - if `α` is cached or its prefetch has completed, it is served
//!   immediately;
//! - if its prefetch is in flight or queued, the request is served when
//!   that prefetch completes;
//! - otherwise a demand fetch is queued behind **all** outstanding
//!   prefetches (the paper's "prefetch completes before the demand
//!   fetch") and takes `r_α` on the channel.
//!
//! The access time is the time from the request to its service. For
//! admissible plans this reproduces the closed forms of `skp-core`
//! exactly; for inadmissible plans (prefix longer than `v`) it tells the
//! mechanistic truth the formulas do not cover.
//!
//! ```
//! use distsys::{run_session, Catalog, SessionConfig};
//!
//! let catalog = Catalog::new(vec![8.0, 6.0, 9.0]);
//! let out = run_session(&catalog, &SessionConfig {
//!     viewing: 10.0,
//!     plan: &[0, 2],     // item 2 stretches: 8 + 9 − 10 = 7
//!     request: 1,        // ... and the miss queues behind it
//!     cached: &[],
//! });
//! assert_eq!(out.access_time, 7.0 + 6.0);
//! ```

use crate::engine::EventQueue;
use crate::network::RetrievalModel;
use std::ops::ControlFlow;

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

/// What happened during the session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Response time of the request (the paper's `T`).
    pub access_time: f64,
    /// Absolute time the request was served.
    pub served_at: f64,
    /// Items whose prefetch had fully completed by the moment the request
    /// was *served*.
    pub prefetched: Vec<usize>,
    /// Total time the channel spent transferring (prefetches + any demand
    /// fetch).
    pub channel_busy: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    PrefetchDone(usize), // index into the plan
    RequestArrives,
    DemandDone,
}

/// Replays one session and returns its outcome.
///
/// # Panics
/// Panics if the request or a plan item is outside the retrieval model,
/// or if `viewing` is negative/NaN.
pub fn run_session(retr: &impl RetrievalModel, cfg: &SessionConfig<'_>) -> SessionOutcome {
    assert!(
        cfg.viewing.is_finite() && cfg.viewing >= 0.0,
        "invalid viewing time"
    );
    assert!(cfg.request < retr.n_items(), "request out of range");
    for &i in cfg.plan {
        assert!(i < retr.n_items(), "plan item {i} out of range");
    }

    let mut queue = EventQueue::new();

    // Prefetches occupy the channel back to back from t = 0.
    let mut t = 0.0;
    for (k, &item) in cfg.plan.iter().enumerate() {
        t += retr.retrieval_time(item);
        queue.schedule(t, Ev::PrefetchDone(k));
    }
    let prefetch_finish = t;
    let mut channel_busy = t;
    queue.schedule(cfg.viewing, Ev::RequestArrives);

    let mut done = vec![false; cfg.plan.len()];
    let mut request_pending = false;
    let mut served_at: Option<f64> = None;

    queue.run(|now, ev, q| {
        match ev {
            Ev::PrefetchDone(k) => {
                done[k] = true;
                if request_pending && cfg.plan[k] == cfg.request && served_at.is_none() {
                    served_at = Some(now);
                }
            }
            Ev::RequestArrives => {
                let alpha = cfg.request;
                if cfg.cached.contains(&alpha) {
                    served_at = Some(now);
                } else if let Some(k) = cfg.plan.iter().position(|&i| i == alpha) {
                    if done[k] {
                        served_at = Some(now);
                    } else {
                        request_pending = true;
                    }
                } else {
                    // Demand fetch: queued behind every outstanding
                    // prefetch on the non-preemptive channel.
                    let start = now.max(prefetch_finish);
                    let r = retr.retrieval_time(alpha);
                    channel_busy += r;
                    q.schedule(start + r, Ev::DemandDone);
                }
            }
            Ev::DemandDone => {
                served_at = Some(now);
            }
        }
        ControlFlow::Continue(())
    });

    let served_at = served_at.expect("request is always eventually served");
    let prefetched: Vec<usize> = cfg
        .plan
        .iter()
        .enumerate()
        .filter(|&(k, _)| {
            // Completed by service time: completion time ≤ served_at.
            let completion: f64 = cfg.plan[..=k].iter().map(|&i| retr.retrieval_time(i)).sum();
            done[k] || completion <= served_at
        })
        .map(|(_, &item)| item)
        .collect();

    SessionOutcome {
        access_time: served_at - cfg.viewing,
        served_at,
        prefetched,
        channel_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Catalog;

    const TOL: f64 = 1e-9;

    fn catalog() -> Catalog {
        // r = [8, 6, 9]
        Catalog::new(vec![8.0, 6.0, 9.0])
    }

    fn run(viewing: f64, plan: &[usize], request: usize, cached: &[usize]) -> SessionOutcome {
        run_session(
            &catalog(),
            &SessionConfig {
                viewing,
                plan,
                request,
                cached,
            },
        )
    }

    #[test]
    fn no_prefetch_pays_full_retrieval() {
        let o = run(10.0, &[], 2, &[]);
        assert!((o.access_time - 9.0).abs() < TOL);
        assert!((o.served_at - 19.0).abs() < TOL);
        assert!((o.channel_busy - 9.0).abs() < TOL);
    }

    #[test]
    fn cache_hit_is_free() {
        let o = run(10.0, &[], 1, &[1]);
        assert_eq!(o.access_time, 0.0);
        assert_eq!(o.channel_busy, 0.0);
    }

    #[test]
    fn fully_prefetched_item_is_free() {
        // Plan [0] completes at t=8 < v=10; request 0 served at once.
        let o = run(10.0, &[0], 0, &[]);
        assert_eq!(o.access_time, 0.0);
        assert!(o.prefetched.contains(&0));
    }

    #[test]
    fn stretch_item_waits_for_its_own_completion() {
        // Plan [0, 2]: completions at 8 and 17; request 2 at v=10 waits
        // until 17 -> T = 7 = st(F).
        let o = run(10.0, &[0, 2], 2, &[]);
        assert!((o.access_time - 7.0).abs() < TOL);
    }

    #[test]
    fn miss_waits_for_all_prefetches_then_fetches() {
        // Plan [0, 2] finishes at 17; request 1 fetched 17..23 -> T = 13
        // = st + r_1.
        let o = run(10.0, &[0, 2], 1, &[]);
        assert!((o.access_time - 13.0).abs() < TOL);
        assert!((o.channel_busy - (17.0 + 6.0)).abs() < TOL);
    }

    #[test]
    fn prefix_item_request_served_at_request_time() {
        // Request arrives at v=10 > completion of item 0 at t=8.
        let o = run(10.0, &[0, 2], 0, &[]);
        assert_eq!(o.access_time, 0.0);
        assert!((o.served_at - 10.0).abs() < TOL);
    }

    #[test]
    fn inadmissible_plan_truth_differs_from_formula() {
        // Plan [0, 1] with v = 5: item 1 completes at 14, not within v.
        // The closed form (which presumes admissibility) would call item 1
        // "in K" and report T = 0 for it; mechanistically T = 14 − 5 = 9.
        let o = run(5.0, &[0, 1], 1, &[]);
        assert!((o.access_time - 9.0).abs() < TOL);
    }

    #[test]
    fn zero_viewing_time_queues_request_behind_prefetches() {
        let o = run(0.0, &[1], 0, &[]);
        // Prefetch of 1 occupies 0..6; demand of 0 runs 6..14 -> T = 14.
        assert!((o.access_time - 14.0).abs() < TOL);
    }

    #[test]
    fn request_for_in_flight_item_waits_partial_time() {
        // Plan [2] in flight until t=9; request 2 at v=4 waits 5.
        let o = run(4.0, &[2], 2, &[]);
        assert!((o.access_time - 5.0).abs() < TOL);
    }

    #[test]
    fn prefetched_list_reflects_service_time() {
        // Request misses; by the time the demand completes, every planned
        // item has been retrieved.
        let o = run(10.0, &[0, 2], 1, &[]);
        assert!(o.prefetched.contains(&0) && o.prefetched.contains(&2));
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
