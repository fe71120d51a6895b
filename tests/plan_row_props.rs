//! Property tests for planning from a sparse Markov row: every registry
//! policy's `Prefetcher::plan_row_into` on a merged row returns the plan its
//! `plan` returns on the dense scenario `row_probs` describes, and the
//! SKP solvers' row view equals their dense positive view bit for bit.
//! Every `PolicyKind`'s `plan_row_into` also equals a dense reference
//! solve on the scenario's sorted view.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use speculative_prefetch::core::kp;
use speculative_prefetch::core::skp::{brute, exact, paper, SolveScratch, SortedView};
use speculative_prefetch::{
    build_policy, policy_specs, ItemId, MarkovChain, PolicyKind, Prefetcher, RowBasis, Scenario,
};

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

/// Every built-in kind, oracle and no-prefetch included.
const KINDS: [PolicyKind; 7] = [
    PolicyKind::NoPrefetch,
    PolicyKind::Kp,
    PolicyKind::KpGreedy,
    PolicyKind::SkpPaper,
    PolicyKind::SkpExact,
    PolicyKind::SkpOptimal,
    PolicyKind::Perfect,
];

/// `kind`'s plan on the dense scenario, solved on the scenario's sorted
/// view: the full candidate view for the solvers that may pick a
/// zero-probability item, the positive one for the branch-and-bound SKP
/// solvers, and empty for the two that plan nothing without a request.
fn dense_reference(kind: PolicyKind, s: &Scenario, candidates: Option<&[bool]>) -> Vec<ItemId> {
    let all = vec![true; s.n()];
    let full = SortedView::with_candidates(s, candidates.unwrap_or(&all));
    let positive = SortedView::positive(s, candidates);
    match kind {
        PolicyKind::NoPrefetch | PolicyKind::Perfect => Vec::new(),
        PolicyKind::Kp => kp::bb::solve_on_view(s, &full).plan.into_items(),
        PolicyKind::KpGreedy => {
            // Density order: take each item that still fits.
            let mut cap = s.viewing();
            let mut items = Vec::new();
            for j in 0..full.m() {
                if full.r(j) <= cap {
                    cap -= full.r(j);
                    items.push(full.id(j));
                }
            }
            items
        }
        PolicyKind::SkpPaper => paper::solve_on_view(s, &positive).plan.into_items(),
        PolicyKind::SkpExact => exact::solve_on_view(s, &positive).plan.into_items(),
        PolicyKind::SkpOptimal => brute::solve_on_view(s, &full).plan.into_items(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `plan_row_into` on the merged row ≡ `plan` on the dense scenario, for
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
                let mut got = Vec::new();
                build_policy(spec.name).unwrap().plan_row_into(row, basis, &mut SolveScratch::default(), &mut got);
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

    /// `plan_row_into` ≡ the dense reference, for every built-in kind:
    /// on a catalog basis, whose row carries `0.0` and `-0.0` entries in
    /// any order (the dense probabilities are `0.0 + P`, as
    /// `MarkovChain::row_probs` adds them), and on a dense basis whose
    /// scenario carries `0.0` and `-0.0` entries, over every item and
    /// over a random mask. One scratch and one plan buffer serve every
    /// solve, so no solve may depend on what an earlier one left.
    #[test]
    fn every_kind_plans_its_row_as_its_dense_reference(seed in 0u64..u64::MAX) {
        let (chain, catalog) = chain_and_catalog(seed);
        let rows = chain.merged_rows();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b69_6e64);
        let mut scratch = SolveScratch::default();
        let mut plan = vec![usize::MAX];
        for state in 0..chain.n_states() {
            let v = chain.viewing(state);
            // The merged row, a signed zero for some other items, some
            // zero entries' signs flipped, shuffled.
            let mut row = rows.row(state).to_vec();
            for j in 0..catalog.len() {
                if row.iter().all(|&(i, _)| i != j) && rng.random_bool(0.4) {
                    row.push((j, if rng.random_bool(0.5) { -0.0 } else { 0.0 }));
                }
            }
            for entry in &mut row {
                if entry.1 == 0.0 && rng.random_bool(0.5) {
                    entry.1 = -entry.1;
                }
            }
            row.shuffle(&mut rng);
            let mut probs = vec![0.0; catalog.len()];
            for &(j, p) in &row {
                probs[j] += p;
            }
            let s = Scenario::new(probs, catalog.clone(), v).expect("valid scenario");
            for kind in KINDS {
                let basis = RowBasis::Catalog { retrievals: &catalog, viewing: v };
                kind.plan_row_into(&row, basis, &mut scratch, &mut plan);
                let want = dense_reference(kind, &s, None);
                prop_assert_eq!(&plan, &want, "{:?} on the catalog row of state {} of seed {}", kind, state, seed);
            }

            // The dense basis: some zeros signed, the row every entry
            // other than `+0.0` in item order, bits kept.
            let probs: Vec<f64> = s
                .probs()
                .iter()
                .map(|&p| if p == 0.0 && rng.random_bool(0.5) { -0.0 } else { p })
                .collect();
            let s = Scenario::new(probs, catalog.clone(), v).expect("valid scenario");
            let row: Vec<(ItemId, f64)> = s
                .probs()
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, p)| p.to_bits() != 0)
                .collect();
            let mask: Vec<bool> = (0..catalog.len()).map(|_| rng.random_bool(0.6)).collect();
            for candidates in [None, Some(mask.as_slice())] {
                for kind in KINDS {
                    let basis = RowBasis::Dense { scenario: &s, candidates };
                    kind.plan_row_into(&row, basis, &mut scratch, &mut plan);
                    let want = dense_reference(kind, &s, candidates);
                    prop_assert_eq!(
                        &plan, &want,
                        "{:?} on the dense row of state {} of seed {}, mask {:?}",
                        kind, state, seed, candidates
                    );
                }
            }
        }
    }
}
