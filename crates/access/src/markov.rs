//! First-order Markov request source — the Figure-7 workload generator.
//!
//! "The requests are generated using a 100-state Markov source. When going
//! to state *i*, the Markov source generates a request for item *i* and,
//! after the request is served, it waits for the duration of `v_i`, where
//! `1 ≤ v_i ≤ 100`, before changing to another state. The state
//! transition matrix is constructed such that there are 10 to 20 possible
//! transitions from any state."
//!
//! The paper leaves the transition-weight distribution unspecified; we
//! draw successor sets uniformly without replacement (excluding
//! self-transitions, since the source "changes to another state") and
//! normalise `U(0,1)` weights (DESIGN.md §4.2).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Errors raised while constructing a Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The chain needs at least two states for self-free transitions.
    TooFewStates(usize),
    /// A state has no outgoing transitions.
    NoSuccessors(usize),
    /// A transition probability is invalid or a row does not normalise.
    BadRow(usize),
    /// A viewing time is non-positive or NaN.
    BadViewing(usize),
    /// Requested fan-out exceeds the number of possible successors.
    FanOutTooLarge {
        /// Number of states.
        states: usize,
        /// Requested maximum fan-out.
        max_fanout: usize,
    },
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::TooFewStates(n) => write!(f, "need at least 2 states, got {n}"),
            MarkovError::NoSuccessors(i) => write!(f, "state {i} has no successors"),
            MarkovError::BadRow(i) => write!(f, "row {i} has invalid probabilities"),
            MarkovError::BadViewing(i) => write!(f, "state {i} has invalid viewing time"),
            MarkovError::FanOutTooLarge { states, max_fanout } => {
                write!(f, "fan-out {max_fanout} too large for {states} states")
            }
        }
    }
}

impl std::error::Error for MarkovError {}

/// A first-order Markov request source over items `0..n`.
///
/// State `i` means "item `i` was just requested"; the user then views it
/// for `viewing(i)` time units, during which the prefetcher may act using
/// the transition row of `i` as its next-access probabilities.
///
/// ```
/// use access_model::MarkovChain;
///
/// // The paper's Figure-7 source: 100 states, fan-out 10..=20, v in 1..=100.
/// let chain = MarkovChain::random(100, 10, 20, 1, 100, 1999).unwrap();
/// let row = chain.row_probs(0); // the prefetcher's P for state 0
/// assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovChain {
    /// `transitions[i]` = row `i`'s `(successor, probability)` entries as
    /// given: in any order, possibly repeating a successor (its entries
    /// add up), summing to 1.
    transitions: Vec<Vec<(usize, f64)>>,
    viewing: Vec<f64>,
    /// Flat prefix-sum arena of the rows: `cdf[cdf_start[i]..
    /// cdf_start[i+1]]` holds row `i`'s running probability sums in
    /// successor order — the binary-searchable form of the row, built
    /// with the same left-to-right additions as a linear scan so
    /// sampling through it draws the identical successor.
    cdf: Vec<f64>,
    cdf_start: Vec<u32>,
}

/// A chain's rows merged into one flat table by
/// [`MarkovChain::merged_rows`]: the sparse form of
/// [`MarkovChain::row_probs`].
#[derive(Debug, Clone)]
pub struct MergedRows {
    entries: Vec<(usize, f64)>,
    /// Row `i` is `entries[start[i]..start[i + 1]]`.
    start: Vec<usize>,
}

impl MergedRows {
    /// Row `i`'s `(item, P)` entries, in ascending item order.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }
}

impl MarkovChain {
    /// Builds a chain from explicit transition rows and viewing times.
    ///
    /// Each row must be non-empty with positive probabilities summing to 1
    /// (within `1e-6`); viewing times must be positive and finite.
    pub fn new(
        transitions: Vec<Vec<(usize, f64)>>,
        viewing: Vec<f64>,
    ) -> Result<Self, MarkovError> {
        let n = transitions.len();
        if n < 2 {
            return Err(MarkovError::TooFewStates(n));
        }
        if viewing.len() != n {
            return Err(MarkovError::BadViewing(viewing.len().min(n)));
        }
        for (i, row) in transitions.iter().enumerate() {
            if row.is_empty() {
                return Err(MarkovError::NoSuccessors(i));
            }
            let mut sum = 0.0;
            for &(j, p) in row {
                if j >= n || !p.is_finite() || p < 0.0 {
                    return Err(MarkovError::BadRow(i));
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-6 {
                return Err(MarkovError::BadRow(i));
            }
        }
        for (i, &v) in viewing.iter().enumerate() {
            if !v.is_finite() || v <= 0.0 {
                return Err(MarkovError::BadViewing(i));
            }
        }
        let mut cdf = Vec::new();
        let mut cdf_start = Vec::with_capacity(n + 1);
        cdf_start.push(0u32);
        for row in &transitions {
            let mut acc = 0.0;
            for &(_, p) in row {
                acc += p;
                cdf.push(acc);
            }
            cdf_start.push(cdf.len() as u32);
        }
        Ok(Self {
            transitions,
            viewing,
            cdf,
            cdf_start,
        })
    }

    /// Generates the paper's random chain: `n` states, per-state fan-out
    /// uniform in `[min_fanout, max_fanout]` (successors drawn without
    /// replacement, self excluded), transition weights `U(0,1)`
    /// normalised, viewing times uniform integers in
    /// `[v_min, v_max]`.
    ///
    /// The paper's Figure-7 parameters are `n = 100`, fan-out `10..=20`,
    /// `v ∈ [1, 100]`.
    pub fn random(
        n: usize,
        min_fanout: usize,
        max_fanout: usize,
        v_min: u32,
        v_max: u32,
        seed: u64,
    ) -> Result<Self, MarkovError> {
        if n < 2 {
            return Err(MarkovError::TooFewStates(n));
        }
        if max_fanout > n - 1 || min_fanout == 0 || min_fanout > max_fanout {
            return Err(MarkovError::FanOutTooLarge {
                states: n,
                max_fanout,
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut transitions = Vec::with_capacity(n);
        for i in 0..n {
            let fanout = rng.random_range(min_fanout..=max_fanout);
            // Successors: a random subset of the other states.
            let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            others.shuffle(&mut rng);
            others.truncate(fanout);
            let mut weights: Vec<f64> = (0..fanout)
                .map(|_| rng.random_range(1e-3..1.0f64))
                .collect();
            let sum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= sum;
            }
            let mut row: Vec<(usize, f64)> = others.into_iter().zip(weights).collect();
            row.sort_unstable_by_key(|&(j, _)| j);
            transitions.push(row);
        }
        let viewing: Vec<f64> = (0..n)
            .map(|_| rng.random_range(v_min..=v_max) as f64)
            .collect();
        Self::new(transitions, viewing)
    }

    /// Number of states (= items).
    #[inline]
    pub fn n_states(&self) -> usize {
        self.transitions.len()
    }

    /// Viewing time `v_i` of state `i`.
    #[inline]
    pub fn viewing(&self, i: usize) -> f64 {
        self.viewing[i]
    }

    /// The successors of state `i` with their probabilities.
    #[inline]
    pub fn successors(&self, i: usize) -> &[(usize, f64)] {
        &self.transitions[i]
    }

    /// Transition probability `P(j | i)`: the sum of row `i`'s entries
    /// for `j`, in row order, so it equals `row_probs(i)[j]` bit for bit
    /// (zero when `j` is not a successor).
    pub fn transition_prob(&self, i: usize, j: usize) -> f64 {
        self.transitions[i]
            .iter()
            .filter(|&&(s, _)| s == j)
            .fold(0.0, |acc, &(_, p)| acc + p)
    }

    /// The full next-access probability row of state `i` as a dense
    /// vector over all items — exactly the `P` the prefetcher feeds into
    /// the SKP scenario.
    pub fn row_probs(&self, i: usize) -> Vec<f64> {
        let mut row = vec![0.0; self.n_states()];
        for &(j, p) in &self.transitions[i] {
            row[j] += p;
        }
        row
    }

    /// Every row merged into one flat table, one entry per successor in
    /// ascending item order. A repeated successor's entries are summed
    /// in row order, and every entry is added into a `0.0`, the
    /// arithmetic of [`Self::row_probs`]: each entry equals the dense
    /// row's value bit for bit. Zero entries are kept.
    pub fn merged_rows(&self) -> MergedRows {
        let total = self.transitions.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        let mut start = Vec::with_capacity(self.n_states() + 1);
        start.push(0);
        let mut merged: Vec<(usize, f64)> = Vec::new();
        for row in &self.transitions {
            merged.clear();
            merged.extend(row.iter().map(|&(j, p)| (j, 0.0 + p)));
            // Stable: a repeated successor's entries keep their row order.
            merged.sort_by_key(|&(j, _)| j);
            merged.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            entries.extend_from_slice(&merged);
            start.push(entries.len());
        }
        MergedRows { entries, start }
    }

    /// Samples the next state from state `i`.
    ///
    /// Binary search over the precomputed prefix sums — the first entry
    /// exceeding the uniform draw is the same successor a left-to-right
    /// accumulation would return, because the prefix sums *are* that
    /// accumulation's partial results.
    pub fn next_state(&self, i: usize, rng: &mut impl Rng) -> usize {
        let x: f64 = rng.random_range(0.0..1.0);
        let cdf = &self.cdf[self.cdf_start[i] as usize..self.cdf_start[i + 1] as usize];
        let k = cdf.partition_point(|&c| c <= x);
        match self.transitions[i].get(k) {
            Some(&(j, _)) => j,
            // Floating-point slack: fall back to the last successor.
            None => self.transitions[i].last().expect("non-empty row").0,
        }
    }

    /// Approximates the stationary distribution by power iteration.
    ///
    /// Useful for warming caches and for long-run frequency estimates in
    /// the examples; `iterations` of 100 is plenty for 100-state chains.
    pub fn stationary(&self, iterations: usize) -> Vec<f64> {
        let n = self.n_states();
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..iterations {
            next.iter_mut().for_each(|x| *x = 0.0);
            for (i, &mass) in pi.iter().enumerate().take(n) {
                for &(j, p) in &self.transitions[i] {
                    next[j] += mass * p;
                }
            }
            std::mem::swap(&mut pi, &mut next);
        }
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MarkovChain {
        MarkovChain::new(
            vec![
                vec![(1, 0.7), (2, 0.3)],
                vec![(0, 1.0)],
                vec![(0, 0.5), (1, 0.5)],
            ],
            vec![5.0, 10.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let c = tiny();
        assert_eq!(c.n_states(), 3);
        assert_eq!(c.viewing(1), 10.0);
        assert_eq!(c.successors(1), &[(0, 1.0)]);
        assert!((c.transition_prob(0, 1) - 0.7).abs() < 1e-12);
        assert_eq!(c.transition_prob(1, 2), 0.0);
    }

    #[test]
    fn transition_prob_reads_unsorted_and_repeated_rows() {
        let c = MarkovChain::new(
            vec![
                vec![(2, 0.2), (1, 0.5), (0, 0.3)],
                vec![(0, 0.5), (0, 0.5)],
                vec![(1, 1.0)],
            ],
            vec![1.0; 3],
        )
        .unwrap();
        assert_eq!(c.transition_prob(0, 2), 0.2);
        assert_eq!(c.transition_prob(0, 0), 0.3);
        assert_eq!(c.transition_prob(1, 0), 1.0);
        for i in 0..3 {
            let row = c.row_probs(i);
            for (j, &p) in row.iter().enumerate() {
                assert_eq!(c.transition_prob(i, j).to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn merged_rows_are_the_sparse_dense_rows() {
        let c = MarkovChain::new(
            vec![
                vec![(2, 0.2), (1, 0.5), (0, 0.3)],
                vec![(2, 0.25), (0, 0.5), (2, -0.0), (0, 0.25)],
                vec![(1, 1.0)],
            ],
            vec![1.0; 3],
        )
        .unwrap();
        let rows = c.merged_rows();
        assert_eq!(rows.row(0), &[(0, 0.3), (1, 0.5), (2, 0.2)]);
        assert_eq!(rows.row(1), &[(0, 0.75), (2, 0.25)]);
        assert_eq!(rows.row(2), &[(1, 1.0)]);
        for i in 0..3 {
            let mut dense = [0.0_f64; 3];
            for &(j, p) in rows.row(i) {
                dense[j] = p;
            }
            let expect: Vec<u64> = c.row_probs(i).iter().map(|p| p.to_bits()).collect();
            assert_eq!(
                dense.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                expect
            );
        }
    }

    #[test]
    fn row_probs_dense() {
        let c = tiny();
        let row = c.row_probs(0);
        assert_eq!(row.len(), 3);
        assert!((row[1] - 0.7).abs() < 1e-12);
        assert!((row[0] - 0.0).abs() < 1e-12);
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_rows() {
        assert!(matches!(
            MarkovChain::new(vec![vec![(1, 0.5)], vec![(0, 1.0)]], vec![1.0, 1.0]),
            Err(MarkovError::BadRow(0))
        ));
        assert!(matches!(
            MarkovChain::new(vec![vec![], vec![(0, 1.0)]], vec![1.0, 1.0]),
            Err(MarkovError::NoSuccessors(0))
        ));
        assert!(matches!(
            MarkovChain::new(vec![vec![(5, 1.0)], vec![(0, 1.0)]], vec![1.0, 1.0]),
            Err(MarkovError::BadRow(0))
        ));
    }

    #[test]
    fn rejects_bad_viewing() {
        assert!(matches!(
            MarkovChain::new(vec![vec![(1, 1.0)], vec![(0, 1.0)]], vec![0.0, 1.0]),
            Err(MarkovError::BadViewing(0))
        ));
    }

    #[test]
    fn rejects_single_state() {
        assert!(matches!(
            MarkovChain::new(vec![vec![(0, 1.0)]], vec![1.0]),
            Err(MarkovError::TooFewStates(1))
        ));
    }

    #[test]
    fn random_chain_matches_paper_spec() {
        let c = MarkovChain::random(100, 10, 20, 1, 100, 42).unwrap();
        assert_eq!(c.n_states(), 100);
        for i in 0..100 {
            let fanout = c.successors(i).len();
            assert!((10..=20).contains(&fanout), "state {i} fan-out {fanout}");
            // No self transitions.
            assert_eq!(c.transition_prob(i, i), 0.0);
            // Row normalised.
            let sum: f64 = c.successors(i).iter().map(|&(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // Viewing in [1, 100].
            assert!((1.0..=100.0).contains(&c.viewing(i)));
            assert_eq!(c.viewing(i).fract(), 0.0, "viewing times are integers");
        }
    }

    #[test]
    fn random_chain_is_seed_deterministic() {
        let a = MarkovChain::random(20, 3, 6, 1, 50, 7).unwrap();
        let b = MarkovChain::random(20, 3, 6, 1, 50, 7).unwrap();
        for i in 0..20 {
            assert_eq!(a.successors(i), b.successors(i));
            assert_eq!(a.viewing(i), b.viewing(i));
        }
        let c = MarkovChain::random(20, 3, 6, 1, 50, 8).unwrap();
        let differs = (0..20).any(|i| a.successors(i) != c.successors(i));
        assert!(differs, "different seeds should give different chains");
    }

    #[test]
    fn fanout_bounds_validated() {
        assert!(MarkovChain::random(5, 1, 10, 1, 10, 0).is_err());
        assert!(MarkovChain::random(5, 0, 2, 1, 10, 0).is_err());
        assert!(MarkovChain::random(1, 1, 1, 1, 10, 0).is_err());
    }

    #[test]
    fn next_state_follows_row_support() {
        let c = tiny();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = c.next_state(0, &mut rng);
            assert!(s == 1 || s == 2);
            assert_eq!(c.next_state(1, &mut rng), 0);
        }
    }

    #[test]
    fn next_state_frequencies_approximate_probabilities() {
        let c = tiny();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut count1 = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            if c.next_state(0, &mut rng) == 1 {
                count1 += 1;
            }
        }
        let f = count1 as f64 / trials as f64;
        assert!((f - 0.7).abs() < 0.02, "empirical {f} vs 0.7");
    }

    #[test]
    fn stationary_sums_to_one_and_is_fixed_point() {
        let c = tiny();
        let pi = c.stationary(200);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // One more step must not move it.
        let mut next = [0.0; 3];
        for (i, &mass) in pi.iter().enumerate() {
            for &(j, p) in c.successors(i) {
                next[j] += mass * p;
            }
        }
        for k in 0..3 {
            assert!((next[k] - pi[k]).abs() < 1e-6, "component {k}");
        }
    }
}
