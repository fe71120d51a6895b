//! The model parameters of Section 2 of the paper: `(n, P, r, v)`.

use crate::error::ModelError;
use crate::EPS;

/// Identifier of an item. Items of a [`Scenario`] are numbered `0..n`
/// (the paper numbers them `1..n`; we use zero-based ids throughout).
pub type ItemId = usize;

/// A one-access look-ahead prefetching scenario.
///
/// Holds, for each of the `n` items that might be requested next:
/// the probability `P_i` that it is the next access and its retrieval time
/// `r_i`, plus the viewing time `v` available for prefetching.
///
/// Invariants enforced at construction:
/// - `probs.len() == retrievals.len()`,
/// - every `P_i ∈ [0, 1]` and `Σ P_i ≤ 1 + EPS` (mass may be < 1 when some
///   probability rests on items that cannot be prefetched, e.g. cached ones),
/// - every `r_i > 0` and finite,
/// - `v ≥ 0` and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    probs: Vec<f64>,
    retrievals: Vec<f64>,
    viewing: f64,
    total_mass: f64,
}

impl Scenario {
    /// Builds a scenario from next-access probabilities, retrieval times and
    /// the viewing time, validating all model invariants.
    pub fn new(probs: Vec<f64>, retrievals: Vec<f64>, viewing: f64) -> Result<Self, ModelError> {
        if probs.len() != retrievals.len() {
            return Err(ModelError::LengthMismatch {
                probs: probs.len(),
                retrievals: retrievals.len(),
            });
        }
        let total = check_probs(probs.iter().copied().enumerate())?;
        for (i, &r) in retrievals.iter().enumerate() {
            if !r.is_finite() || r <= 0.0 {
                return Err(ModelError::BadRetrievalTime { index: i, value: r });
            }
        }
        if !viewing.is_finite() || viewing < 0.0 {
            return Err(ModelError::BadViewingTime { value: viewing });
        }
        Ok(Self {
            probs,
            retrievals,
            viewing,
            total_mass: total,
        })
    }

    /// Checks sparse `(item, P)` entries against [`Self::new`]'s
    /// probability and mass rules, as if they were the non-zero entries
    /// of a dense probability vector.
    ///
    /// With the entries in ascending item order the error and the summed
    /// mass are the ones the dense check would give, bit for bit: the
    /// dense vector's zeros leave a running sum unchanged.
    pub fn check_row(entries: &[(ItemId, f64)]) -> Result<(), ModelError> {
        check_probs(entries.iter().copied()).map(drop)
    }

    /// Refills the probabilities in place from sparse `(item, P)`
    /// entries, zero elsewhere, and sets the viewing time; the retrieval
    /// times stay. The result equals [`Self::new`] on the dense vector
    /// and this scenario's retrievals, bit for bit, and it is checked by
    /// the same rules: on an error the scenario is unchanged.
    ///
    /// The entries' items must be strictly ascending (as the mass is
    /// summed in item order) and below [`Self::n`]. Each call writes all
    /// `n` probabilities.
    pub fn set_row(&mut self, entries: &[(ItemId, f64)], viewing: f64) -> Result<(), ModelError> {
        let n = self.n();
        let mut next = 0;
        for &(id, _) in entries {
            if id >= n {
                return Err(ModelError::UnknownItem { id, n });
            }
            if id < next {
                return Err(ModelError::UnsortedRow { id });
            }
            next = id + 1;
        }
        let total = check_probs(entries.iter().copied())?;
        if !viewing.is_finite() || viewing < 0.0 {
            return Err(ModelError::BadViewingTime { value: viewing });
        }
        self.probs.fill(0.0);
        for &(id, p) in entries {
            self.probs[id] = p;
        }
        self.viewing = viewing;
        self.total_mass = total;
        Ok(())
    }

    /// Builds a scenario whose probabilities are normalised to sum to one.
    ///
    /// Convenience for workload generators that produce unnormalised
    /// weights. All weights must be non-negative and at least one positive.
    pub fn from_weights(
        weights: Vec<f64>,
        retrievals: Vec<f64>,
        viewing: f64,
    ) -> Result<Self, ModelError> {
        let sum: f64 = weights.iter().sum();
        if !sum.is_finite() || sum <= 0.0 {
            return Err(ModelError::BadProbability {
                index: 0,
                value: sum,
            });
        }
        let probs = weights.into_iter().map(|w| w / sum).collect();
        Self::new(probs, retrievals, viewing)
    }

    /// Number of items, `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.probs.len()
    }

    /// Probability `P_i` that item `i` is the next access.
    #[inline]
    pub fn prob(&self, i: ItemId) -> f64 {
        self.probs[i]
    }

    /// Retrieval time `r_i` of item `i`.
    #[inline]
    pub fn retrieval(&self, i: ItemId) -> f64 {
        self.retrievals[i]
    }

    /// Viewing time `v`: the window available for prefetching.
    #[inline]
    pub fn viewing(&self) -> f64 {
        self.viewing
    }

    /// Total probability mass `Σ_i P_i` (≤ 1).
    ///
    /// The mass may be below one when the scenario models only the items
    /// eligible for prefetching while some next-access probability rests on
    /// other items (e.g. items already cached).
    #[inline]
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// All probabilities, indexed by item id.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// All retrieval times, indexed by item id.
    #[inline]
    pub fn retrievals(&self) -> &[f64] {
        &self.retrievals
    }

    /// The *delay profit* `P_i · r_i` of item `i` — the expected time saved
    /// by having item `i` fully prefetched (ignoring stretch).
    #[inline]
    pub fn delay_profit(&self, i: ItemId) -> f64 {
        self.probs[i] * self.retrievals[i]
    }

    /// Expected access time with no prefetching and an empty cache:
    /// `E[T*(no prefetch)] = Σ_i P_i r_i`.
    pub fn expected_no_prefetch(&self) -> f64 {
        self.probs
            .iter()
            .zip(&self.retrievals)
            .map(|(p, r)| p * r)
            .sum()
    }

    /// Returns a copy with a different viewing time.
    pub fn with_viewing(&self, viewing: f64) -> Result<Self, ModelError> {
        Self::new(self.probs.clone(), self.retrievals.clone(), viewing)
    }

    /// Returns all item ids in the paper's canonical order (Eq. 5):
    /// descending probability, ties broken by ascending retrieval time.
    ///
    /// Theorem 1 shows the optimal stretching plan lists items in this
    /// order, so every solver in [`crate::skp`] works on this permutation.
    pub fn canonical_order(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = (0..self.n()).collect();
        self.sort_canonical(&mut ids);
        ids
    }

    /// Sorts a set of item ids in-place into the canonical order (Eq. 5).
    pub fn sort_canonical(&self, ids: &mut [ItemId]) {
        ids.sort_by(|&a, &b| {
            canonical_cmp(
                (self.probs[a], self.retrievals[a], a),
                (self.probs[b], self.retrievals[b], b),
            )
        });
    }

    /// Validates that an id belongs to this scenario.
    pub fn check_item(&self, id: ItemId) -> Result<(), ModelError> {
        if id < self.n() {
            Ok(())
        } else {
            Err(ModelError::UnknownItem { id, n: self.n() })
        }
    }
}

/// The canonical order (Eq. 5) on `(P, r, id)` triples: probability
/// descending, then retrieval ascending, then id ascending.
pub(crate) fn canonical_cmp(a: (f64, f64, ItemId), b: (f64, f64, ItemId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.cmp(&b.2))
}

/// [`Scenario::new`]'s probability rules: every `P_i` finite and in
/// `[0, 1 + EPS]`, checked in iteration order, then a total mass of at
/// most `1 + 1e-6`. Returns the total.
fn check_probs(probs: impl Iterator<Item = (ItemId, f64)>) -> Result<f64, ModelError> {
    let mut total = 0.0_f64;
    for (i, p) in probs {
        if !p.is_finite() || !(0.0..=1.0 + EPS).contains(&p) {
            return Err(ModelError::BadProbability { index: i, value: p });
        }
        total += p;
    }
    if total > 1.0 + 1e-6 {
        return Err(ModelError::MassExceedsOne { total });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s3() -> Scenario {
        Scenario::new(vec![0.5, 0.3, 0.2], vec![8.0, 6.0, 9.0], 10.0).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let s = s3();
        assert_eq!(s.n(), 3);
        assert_eq!(s.prob(0), 0.5);
        assert_eq!(s.retrieval(2), 9.0);
        assert_eq!(s.viewing(), 10.0);
        assert!((s.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(s.probs().len(), 3);
        assert_eq!(s.retrievals().len(), 3);
    }

    #[test]
    fn expected_no_prefetch_is_dot_product() {
        let s = s3();
        let expect = 0.5 * 8.0 + 0.3 * 6.0 + 0.2 * 9.0;
        assert!((s.expected_no_prefetch() - expect).abs() < 1e-12);
    }

    #[test]
    fn delay_profit() {
        let s = s3();
        assert!((s.delay_profit(0) - 4.0).abs() < 1e-12);
        assert!((s.delay_profit(1) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = Scenario::new(vec![0.5], vec![1.0, 2.0], 3.0).unwrap_err();
        assert!(matches!(e, ModelError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(matches!(
            Scenario::new(vec![-0.1, 0.5], vec![1.0, 1.0], 1.0),
            Err(ModelError::BadProbability { index: 0, .. })
        ));
        assert!(matches!(
            Scenario::new(vec![f64::NAN], vec![1.0], 1.0),
            Err(ModelError::BadProbability { .. })
        ));
        assert!(matches!(
            Scenario::new(vec![1.5], vec![1.0], 1.0),
            Err(ModelError::BadProbability { .. })
        ));
    }

    #[test]
    fn rejects_mass_over_one() {
        assert!(matches!(
            Scenario::new(vec![0.7, 0.7], vec![1.0, 1.0], 1.0),
            Err(ModelError::MassExceedsOne { .. })
        ));
    }

    #[test]
    fn accepts_mass_under_one() {
        let s = Scenario::new(vec![0.2, 0.3], vec![1.0, 1.0], 1.0).unwrap();
        assert!((s.total_mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn check_row_matches_the_dense_rules() {
        assert_eq!(Scenario::check_row(&[(1, 0.5), (4, 0.5)]), Ok(()));
        assert_eq!(
            Scenario::check_row(&[(0, 0.2), (3, 1.0000005)]),
            Err(ModelError::BadProbability {
                index: 3,
                value: 1.0000005
            })
        );
        let dense = Scenario::new(vec![0.0, 0.7, 0.0, 0.7], vec![1.0; 4], 1.0).unwrap_err();
        assert_eq!(Scenario::check_row(&[(1, 0.7), (3, 0.7)]), Err(dense));
    }

    #[test]
    fn set_row_equals_the_dense_scenario() {
        let mut s = Scenario::new(vec![0.0; 5], vec![3.0, 1.0, 4.0, 1.0, 5.0], 2.0).unwrap();
        s.set_row(&[(0, 0.1), (2, 0.2), (3, 0.3)], 7.0).unwrap();
        s.set_row(&[(1, 0.25), (3, -0.0), (4, 0.5)], 6.0).unwrap();
        let dense = Scenario::new(
            vec![0.0, 0.25, 0.0, -0.0, 0.5],
            vec![3.0, 1.0, 4.0, 1.0, 5.0],
            6.0,
        )
        .unwrap();
        let bits = |s: &Scenario| -> Vec<u64> { s.probs().iter().map(|p| p.to_bits()).collect() };
        assert_eq!(bits(&s), bits(&dense));
        assert_eq!(s.total_mass().to_bits(), dense.total_mass().to_bits());
        assert_eq!(s, dense);
    }

    #[test]
    fn set_row_refuses_what_new_refuses_and_keeps_the_scenario() {
        let mut s = Scenario::new(vec![0.0; 3], vec![1.0; 3], 2.0).unwrap();
        s.set_row(&[(1, 0.5)], 2.0).unwrap();
        let before = s.clone();
        type Case<'a> = (&'a [(ItemId, f64)], f64, ModelError);
        let cases: [Case; 5] = [
            (&[(3, 0.1)], 1.0, ModelError::UnknownItem { id: 3, n: 3 }),
            (
                &[(2, 0.1), (1, 0.1)],
                1.0,
                ModelError::UnsortedRow { id: 1 },
            ),
            (
                &[(1, 0.1), (1, 0.1)],
                1.0,
                ModelError::UnsortedRow { id: 1 },
            ),
            (
                &[(0, -0.5)],
                1.0,
                ModelError::BadProbability {
                    index: 0,
                    value: -0.5,
                },
            ),
            (
                &[(0, 0.5)],
                -1.0,
                ModelError::BadViewingTime { value: -1.0 },
            ),
        ];
        for (row, viewing, err) in cases {
            assert_eq!(s.set_row(row, viewing), Err(err));
            assert_eq!(s, before);
        }
        assert!(matches!(
            s.set_row(&[(0, 0.7), (2, 0.7)], 1.0),
            Err(ModelError::MassExceedsOne { .. })
        ));
    }

    #[test]
    fn rejects_bad_retrieval() {
        assert!(matches!(
            Scenario::new(vec![1.0], vec![0.0], 1.0),
            Err(ModelError::BadRetrievalTime { .. })
        ));
        assert!(matches!(
            Scenario::new(vec![1.0], vec![-2.0], 1.0),
            Err(ModelError::BadRetrievalTime { .. })
        ));
        assert!(matches!(
            Scenario::new(vec![1.0], vec![f64::INFINITY], 1.0),
            Err(ModelError::BadRetrievalTime { .. })
        ));
    }

    #[test]
    fn rejects_bad_viewing() {
        assert!(matches!(
            Scenario::new(vec![1.0], vec![1.0], -1.0),
            Err(ModelError::BadViewingTime { .. })
        ));
        assert!(matches!(
            Scenario::new(vec![1.0], vec![1.0], f64::NAN),
            Err(ModelError::BadViewingTime { .. })
        ));
    }

    #[test]
    fn zero_viewing_is_legal() {
        // v = 0 means no prefetch window at all; still a valid model point.
        let s = Scenario::new(vec![1.0], vec![1.0], 0.0).unwrap();
        assert_eq!(s.viewing(), 0.0);
    }

    #[test]
    fn from_weights_normalises() {
        let s = Scenario::from_weights(vec![2.0, 2.0, 4.0], vec![1.0, 1.0, 1.0], 1.0).unwrap();
        assert!((s.prob(0) - 0.25).abs() < 1e-12);
        assert!((s.prob(2) - 0.5).abs() < 1e-12);
        assert!((s.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_zero_sum() {
        assert!(Scenario::from_weights(vec![0.0, 0.0], vec![1.0, 1.0], 1.0).is_err());
    }

    #[test]
    fn canonical_order_sorts_by_prob_then_retrieval() {
        // P: [0.2, 0.5, 0.2, 0.1]; r: [4.0, 1.0, 2.0, 1.0]
        let s = Scenario::new(vec![0.2, 0.5, 0.2, 0.1], vec![4.0, 1.0, 2.0, 1.0], 10.0).unwrap();
        // Highest P first; the two P=0.2 items ordered by ascending r.
        assert_eq!(s.canonical_order(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn canonical_order_is_deterministic_on_full_ties() {
        let s = Scenario::new(vec![0.25; 4], vec![2.0; 4], 5.0).unwrap();
        assert_eq!(s.canonical_order(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn with_viewing_replaces_only_v() {
        let s = s3().with_viewing(99.0).unwrap();
        assert_eq!(s.viewing(), 99.0);
        assert_eq!(s.prob(0), 0.5);
    }

    #[test]
    fn check_item_bounds() {
        let s = s3();
        assert!(s.check_item(2).is_ok());
        assert!(matches!(
            s.check_item(3),
            Err(ModelError::UnknownItem { id: 3, n: 3 })
        ));
    }
}
