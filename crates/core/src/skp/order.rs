//! Canonical ordering (Theorem 1) and the sorted working view shared by
//! all SKP solvers.
//!
//! Every view comes from one builder fed `(item, P)` entries: it sorts
//! `(P, r, id)` triples into the canonical order of
//! [`Scenario::sort_canonical`], in place in the view's one entry
//! vector, and adds the suffix sums. The entries come from a dense
//! scenario ([`SortedView::new`], [`SortedView::with_candidates`],
//! [`SortedView::positive`]) or from a sparse row
//! ([`SortedView::from_row`]).
//!
//! The branch-and-bound solvers of [`crate::skp::paper`] and
//! [`crate::skp::exact`] search the positive-probability view: a
//! zero-probability candidate has zero delay profit and, with the
//! uncovered mass clamped at zero, a non-positive Theorem-3 delta, so it
//! never enters a plan. Such candidates are dropped before the sort, and
//! the view keeps only the count of every candidate
//! ([`SortedView::candidate_count`]) for Figure 3's "if j < n goto 2"
//! test. A Markov row or n-gram forecast typically gives 10–20 of 100
//! items a non-zero probability, so the sort and the search touch those
//! only. [`SortedView::positive`] finds them by scanning a dense
//! scenario. [`SortedView::from_row`] takes them straight from a sparse
//! row and gives the same view bit for bit, with or without a candidate
//! mask. The row is a merged Markov row when a population planner
//! plans a state. It is a predictor's row forecast when the Section-5
//! client plans a round; the mask then rules out the cached items, and
//! the candidate count is the number of items not cached. Solvers
//! that can pick zero-probability items (KP, the greedy heuristic,
//! brute force, the global DP and the extension objectives) keep the
//! full view of [`SortedView::new`] and [`SortedView::with_candidates`].
//! KP, greedy and brute force also plan rows: a
//! [`SolveScratch`](crate::skp::SolveScratch) refills their full view
//! in place from the row's dense probabilities, the row's entries and a
//! zero for every other candidate.

use crate::scenario::{canonical_cmp, ItemId, Scenario};

/// A scenario's candidate items sorted into the canonical order of Eq. 5
/// (probability descending, ties broken by retrieval ascending), with the
/// prefix/suffix sums the solvers need.
///
/// Theorem 1 proves that among plans with positive stretch, an optimal one
/// lists items in this order (minimum-probability item last), so the
/// branch-and-bound solvers enumerate subsets of this permutation only.
#[derive(Debug, Clone, Default)]
pub struct SortedView {
    /// `(P, r, id)` of every candidate, in canonical order.
    entries: Vec<(f64, f64, ItemId)>,
    /// `suffix_p[j] = Σ_{i≥j} p[i]`; length `m + 1` with `suffix_p[m] = 0`.
    suffix_p: Vec<f64>,
    /// Number of candidates, including the zero-probability ones that
    /// [`SortedView::positive`] and [`SortedView::from_row`] drop.
    candidates: usize,
}

impl SortedView {
    /// Sorted view over every item of the scenario.
    pub fn new(s: &Scenario) -> Self {
        let mut view = Self::default();
        view.refill_full(s.probs(), s.retrievals(), None);
        view
    }

    /// Sorted view over the items for which `candidates[i]` is true.
    ///
    /// # Panics
    /// Panics when `candidates.len() != s.n()`.
    pub fn with_candidates(s: &Scenario, candidates: &[bool]) -> Self {
        let mut view = Self::default();
        view.refill_full(s.probs(), s.retrievals(), Some(candidates));
        view
    }

    /// Rebuilds this view, in place, as [`Self::with_candidates`] (or,
    /// without a mask, [`Self::new`]) builds one from dense `probs`.
    ///
    /// # Panics
    /// Panics when a mask is given and `candidates.len() != probs.len()`.
    pub(crate) fn refill_full(
        &mut self,
        probs: &[f64],
        retrievals: &[f64],
        candidates: Option<&[bool]>,
    ) {
        let all = probs.iter().copied().enumerate();
        match candidates {
            None => self.fill(all, retrievals, probs.len()),
            Some(mask) => {
                check_mask(probs.len(), mask);
                self.fill(all.filter(|&(i, _)| mask[i]), retrievals, count_true(mask))
            }
        }
    }

    /// The SKP solvers' view: the positive-probability candidates only.
    ///
    /// `candidates` restricts the view as in [`Self::with_candidates`];
    /// `None` keeps every item. [`Self::candidate_count`] still counts the
    /// dropped zero-probability candidates.
    ///
    /// # Panics
    /// Panics when a mask is given and `candidates.len() != s.n()`.
    pub fn positive(s: &Scenario, candidates: Option<&[bool]>) -> Self {
        let mut view = Self::default();
        let entries = s.probs().iter().copied().enumerate();
        view.refill_positive(entries, s.retrievals(), candidates);
        view
    }

    /// The positive-probability view of a sparse row: the view
    /// [`Self::positive`] builds, with the same `candidates`, from the
    /// dense scenario whose probabilities are `row`'s entries (zero
    /// elsewhere) and whose retrievals are `retrievals`.
    /// [`Self::candidate_count`] is that scenario's item count,
    /// `retrievals.len()`, or the mask's count of candidates.
    ///
    /// `row` must be merged: one entry per item, in any order. Its `0.0`
    /// and `-0.0` entries are dropped like the dense zeros, and so are
    /// the entries the mask rules out.
    ///
    /// # Panics
    /// Panics when a positive entry's item has no retrieval time, or
    /// when a mask is given and `candidates.len() != retrievals.len()`.
    pub fn from_row(
        row: &[(ItemId, f64)],
        retrievals: &[f64],
        candidates: Option<&[bool]>,
    ) -> Self {
        let mut view = Self::default();
        view.refill_positive(row.iter().copied(), retrievals, candidates);
        view
    }

    /// Rebuilds this view, in place, as the positive-probability view of
    /// the merged `(item, P)` entries: [`Self::from_row`]'s view of a
    /// row, and [`Self::positive`]'s of a dense scenario's entries. The
    /// view's buffers are reused, so a refill that fits in them
    /// allocates nothing.
    ///
    /// # Panics
    /// As [`Self::from_row`].
    pub(crate) fn refill_positive(
        &mut self,
        entries: impl Iterator<Item = (ItemId, f64)>,
        retrievals: &[f64],
        candidates: Option<&[bool]>,
    ) {
        let positive = entries.filter(|&(_, p)| p > 0.0);
        match candidates {
            None => self.fill(positive, retrievals, retrievals.len()),
            Some(mask) => {
                check_mask(retrievals.len(), mask);
                let kept = positive.filter(|&(i, _)| mask[i]);
                self.fill(kept, retrievals, count_true(mask))
            }
        }
    }

    /// The one builder: sorts the `(item, P)` entries with their
    /// retrieval times into the canonical order and lays out the view,
    /// in this view's buffers.
    fn fill(
        &mut self,
        items: impl Iterator<Item = (ItemId, f64)>,
        retrievals: &[f64],
        candidates: usize,
    ) {
        let entries = &mut self.entries;
        entries.clear();
        entries.reserve(items.size_hint().1.unwrap_or(0));
        entries.extend(items.map(|(i, p)| (p, retrievals[i], i)));
        entries.sort_unstable_by(|&a, &b| canonical_cmp(a, b));
        let m = entries.len();
        let suffix_p = &mut self.suffix_p;
        suffix_p.clear();
        suffix_p.resize(m + 1, 0.0);
        for j in (0..m).rev() {
            suffix_p[j] = suffix_p[j + 1] + entries[j].0;
        }
        self.candidates = candidates;
    }

    /// Number of candidate items in the view.
    #[inline]
    pub fn m(&self) -> usize {
        self.entries.len()
    }

    /// Number of candidates the view was built from, zero-probability
    /// ones dropped by [`Self::positive`] or [`Self::from_row`] included.
    /// Equal to [`Self::m`] for a full view. The branch-and-bound solvers test Figure 3's
    /// "if j < n goto 2" against this count, so a trimmed view visits
    /// nodes in the same order as the full one.
    #[inline]
    pub fn candidate_count(&self) -> usize {
        self.candidates
    }

    /// Original scenario id of the item at sorted position `j`.
    #[inline]
    pub fn id(&self, j: usize) -> ItemId {
        self.entries[j].2
    }

    /// Probability of the item at sorted position `j`.
    #[inline]
    pub fn p(&self, j: usize) -> f64 {
        self.entries[j].0
    }

    /// Retrieval time of the item at sorted position `j`.
    #[inline]
    pub fn r(&self, j: usize) -> f64 {
        self.entries[j].1
    }

    /// Delay profit `P·r` of the item at sorted position `j`.
    #[inline]
    pub fn profit(&self, j: usize) -> f64 {
        let (p, r, _) = self.entries[j];
        p * r
    }

    /// `Σ_{i≥j} P_i` over candidates, the paper's stretch-penalty mass for
    /// position `j` (Figure 3, step 3). `suffix_p(0)` is the total
    /// candidate mass; `suffix_p(m) = 0`.
    #[inline]
    pub fn suffix_p(&self, j: usize) -> f64 {
        self.suffix_p[j]
    }

    /// Converts a selector vector over sorted positions into a plan's item
    /// list in canonical prefetch order.
    pub fn selectors_to_items(&self, selected: &[bool]) -> Vec<ItemId> {
        let mut items = Vec::new();
        self.write_items(selected, &mut items);
        items
    }

    /// [`Self::selectors_to_items`] into `items` (cleared first).
    pub(crate) fn write_items(&self, selected: &[bool], items: &mut Vec<ItemId>) {
        items.clear();
        items.extend(
            selected
                .iter()
                .enumerate()
                .filter_map(|(j, &sel)| sel.then_some(self.entries[j].2)),
        );
    }
}

fn count_true(mask: &[bool]) -> usize {
    mask.iter().filter(|&&c| c).count()
}

fn check_mask(n: usize, candidates: &[bool]) {
    assert_eq!(
        candidates.len(),
        n,
        "candidate mask length must equal the number of items"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Scenario {
        Scenario::new(vec![0.1, 0.4, 0.2, 0.3], vec![3.0, 7.0, 5.0, 2.0], 10.0).unwrap()
    }

    #[test]
    fn sorts_descending_probability() {
        let v = SortedView::new(&s());
        assert_eq!(v.m(), 4);
        assert_eq!(v.id(0), 1);
        assert_eq!(v.id(1), 3);
        assert_eq!(v.id(2), 2);
        assert_eq!(v.id(3), 0);
        assert!(v.p(0) >= v.p(1) && v.p(1) >= v.p(2) && v.p(2) >= v.p(3));
    }

    #[test]
    fn ties_sorted_by_retrieval_ascending() {
        let s = Scenario::new(vec![0.25, 0.25, 0.25, 0.25], vec![9.0, 1.0, 5.0, 3.0], 4.0).unwrap();
        let v = SortedView::new(&s);
        let rs: Vec<f64> = (0..4).map(|j| v.r(j)).collect();
        assert_eq!(rs, vec![1.0, 3.0, 5.0, 9.0]);
    }

    #[test]
    fn suffix_sums() {
        let v = SortedView::new(&s());
        assert!((v.suffix_p(0) - 1.0).abs() < 1e-12);
        assert!((v.suffix_p(1) - 0.6).abs() < 1e-12);
        assert!((v.suffix_p(4) - 0.0).abs() < 1e-12);
        // suffix is decreasing
        for j in 0..4 {
            assert!(v.suffix_p(j) >= v.suffix_p(j + 1));
        }
    }

    #[test]
    fn candidate_masking() {
        let sc = s();
        let v = SortedView::with_candidates(&sc, &[true, false, true, false]);
        assert_eq!(v.m(), 2);
        assert_eq!(v.id(0), 2); // P=0.2 before P=0.1
        assert_eq!(v.id(1), 0);
        assert!((v.suffix_p(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "candidate mask length")]
    fn wrong_mask_length_panics() {
        let _ = SortedView::with_candidates(&s(), &[true]);
    }

    #[test]
    fn positive_view_drops_zero_probability_candidates() {
        let sc = Scenario::new(vec![0.5, 0.0, 0.3, 0.0, 0.2], vec![1.0; 5], 3.0).unwrap();
        let v = SortedView::positive(&sc, None);
        assert_eq!((v.m(), v.candidate_count()), (3, 5));
        assert_eq!((v.id(0), v.id(1), v.id(2)), (0, 2, 4));
        let v = SortedView::positive(&sc, Some(&[false, true, true, true, true]));
        assert_eq!((v.m(), v.candidate_count()), (2, 4));
        assert!((v.suffix_p(0) - 0.5).abs() < 1e-12);
        let full = SortedView::with_candidates(&sc, &[false, true, true, true, true]);
        assert_eq!((full.m(), full.candidate_count()), (4, 4));
    }

    #[test]
    #[should_panic(expected = "candidate mask length")]
    fn positive_view_checks_mask_length() {
        let _ = SortedView::positive(&s(), Some(&[true]));
    }

    #[test]
    fn selectors_roundtrip() {
        let v = SortedView::new(&s());
        let items = v.selectors_to_items(&[true, false, true, false]);
        assert_eq!(items, vec![1, 2]);
    }

    #[test]
    fn profit_accessor() {
        let v = SortedView::new(&s());
        assert!((v.profit(0) - 0.4 * 7.0).abs() < 1e-12);
    }
}
