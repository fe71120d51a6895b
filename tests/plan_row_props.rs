//! Property tests for planning from a sparse Markov row: every registry
//! policy's `Prefetcher::plan_row` on a merged row returns the plan its
//! `plan` returns on the dense scenario `row_probs` describes, and the
//! SKP solvers' row view equals their dense positive view bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use speculative_prefetch::core::skp::SortedView;
use speculative_prefetch::{build_policy, policy_specs, ItemId, MarkovChain, RowBasis, Scenario};

/// A view's columns: ids, then the bits of `P`, `r` and the suffix sums
/// (all `m + 1` of them), then the candidate count.
type Columns = (Vec<ItemId>, Vec<u64>, Vec<u64>, Vec<u64>, usize);

fn columns(v: &SortedView) -> Columns {
    let m = v.m();
    (
        (0..m).map(|j| v.id(j)).collect(),
        (0..m).map(|j| v.p(j).to_bits()).collect(),
        (0..m).map(|j| v.r(j).to_bits()).collect(),
        (0..=m).map(|j| v.suffix_p(j).to_bits()).collect(),
        v.candidate_count(),
    )
}

/// A random chain whose rows come unsorted, repeat successors, carry
/// `0.0` and `-0.0` entries, or hold a single successor, with small
/// integral weights, retrievals and viewings so ties are common.
fn chain_and_catalog(seed: u64) -> (MarkovChain, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.random_range(2..=8usize);
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut items: Vec<usize> = (0..n).collect();
        items.shuffle(&mut rng);
        let fanout = if rng.random_bool(0.25) {
            1
        } else {
            rng.random_range(1..=n.min(5))
        };
        let weights: Vec<f64> = (0..fanout)
            .map(|_| rng.random_range(1..=4u32) as f64)
            .collect();
        let sum: f64 = weights.iter().sum();
        let mut row: Vec<(usize, f64)> = Vec::new();
        for (&j, &w) in items.iter().zip(&weights) {
            let p = w / sum;
            if rng.random_bool(0.3) {
                // One successor listed twice: its entries add up.
                let part = p * rng.random_range(0.1..0.9);
                row.push((j, part));
                row.push((j, p - part));
            } else {
                row.push((j, p));
            }
        }
        if rng.random_bool(0.3) {
            row.push((rng.random_range(0..n), 0.0));
        }
        if rng.random_bool(0.3) {
            row.push((rng.random_range(0..n), -0.0));
        }
        row.shuffle(&mut rng);
        rows.push(row);
    }
    let viewing = (0..n).map(|_| rng.random_range(1..=12u32) as f64).collect();
    let catalog = (0..n).map(|_| rng.random_range(1..=6u32) as f64).collect();
    (
        MarkovChain::new(rows, viewing).expect("rows sum to one"),
        catalog,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `plan_row` on the merged row ≡ `plan` on the dense scenario, for
    /// every registry policy and every state; a fresh policy each side.
    #[test]
    fn row_plans_equal_dense_plans(seed in 0u64..u64::MAX) {
        let (chain, catalog) = chain_and_catalog(seed);
        let rows = chain.merged_rows();
        for state in 0..chain.n_states() {
            let v = chain.viewing(state);
            let row = rows.row(state);
            Scenario::check_row(row).expect("merged rows of a valid chain pass");
            let dense = Scenario::new(chain.row_probs(state), catalog.clone(), v)
                .expect("valid scenario");
            for spec in policy_specs() {
                let want = build_policy(spec.name).unwrap().plan(&dense).into_items();
                let basis = RowBasis::Catalog { retrievals: &catalog, viewing: v };
                let got = build_policy(spec.name).unwrap().plan_row(row, basis);
                prop_assert_eq!(got, want, "{} in state {} of seed {}", spec.name, state, seed);
            }
        }
    }

    /// The SKP solvers' row view ≡ their dense positive view: ids, `P`,
    /// `r`, suffix sums and candidate count, bit for bit, over every
    /// item and over a random candidate mask.
    #[test]
    fn row_views_equal_dense_positive_views(seed in 0u64..u64::MAX) {
        let (chain, catalog) = chain_and_catalog(seed);
        let rows = chain.merged_rows();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d61_736b);
        for state in 0..chain.n_states() {
            let dense = Scenario::new(chain.row_probs(state), catalog.clone(), 1.0)
                .expect("valid scenario");
            let mask: Vec<bool> = (0..catalog.len()).map(|_| rng.random_bool(0.6)).collect();
            for candidates in [None, Some(mask.as_slice())] {
                let want = SortedView::positive(&dense, candidates);
                let got = SortedView::from_row(rows.row(state), &catalog, candidates);
                prop_assert_eq!(columns(&got), columns(&want), "state {} of seed {}", state, seed);
            }
        }
    }
}
