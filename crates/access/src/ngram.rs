//! Online order-`k` Markov predictor with back-off — a lightweight,
//! PPM-flavoured access model in the spirit of Vitter & Krishnan's
//! compression-based predictors (reference \[16\] of the paper).
//!
//! The predictor observes the access stream one item at a time and, on
//! request, estimates next-access probabilities from the longest matching
//! context with enough evidence, backing off to shorter contexts (down to
//! the unigram distribution) when the long context is unseen.
//!
//! Contexts live in a trie, as in PPM (Cleary & Witten, 1984): the root
//! of an item is the one-access context of that item, and each edge steps
//! one access further back. An access walks one path from the most recent
//! access backwards, so observing and forecasting cost `O(k · log f)` for
//! a fan-out `f`, with no hashing: a posted trace cannot steer lookups
//! into hash collisions.

/// Marks an item whose one-access context has not been seen.
const NO_NODE: u32 = u32::MAX;

/// Online n-gram predictor over items `0..n`.
#[derive(Debug, Clone)]
pub struct NgramPredictor {
    n_items: usize,
    order: usize,
    /// `roots[item]` is the node of the context `[item]`, or [`NO_NODE`].
    roots: Vec<u32>,
    /// The trie's nodes. The node reached from `roots[a]` through the
    /// edges `b`, `c` is the context `[c, b, a]` (most recent last).
    nodes: Vec<Node>,
    unigram: Vec<u64>,
    /// The last `order` accesses, most recent last.
    history: Vec<u32>,
    observed: u64,
}

/// One context of the trie.
#[derive(Debug, Clone, Default)]
struct Node {
    successors: Successors,
    /// `(earlier access, child)` in ascending access order: the child is
    /// this context extended one access back.
    children: Vec<(u32, u32)>,
}

/// Successor counts of one context: `(item, count)` in ascending item
/// order, and their sum.
#[derive(Debug, Clone, Default)]
struct Successors {
    total: u32,
    counts: Vec<(u32, u32)>,
}

impl Successors {
    fn add(&mut self, item: u32) {
        match self.counts.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(pos) => self.counts[pos].1 += 1,
            Err(pos) => self.counts.insert(pos, (item, 1)),
        }
        self.total += 1;
    }
}

impl Node {
    /// The child of this context one access (`earlier`) further back.
    fn child(&self, earlier: u32) -> Option<u32> {
        self.children
            .binary_search_by_key(&earlier, |&(access, _)| access)
            .ok()
            .map(|pos| self.children[pos].1)
    }
}

/// Appends a fresh node to `nodes` and returns its index.
fn push_node(nodes: &mut Vec<Node>) -> u32 {
    let id = u32::try_from(nodes.len())
        .ok()
        .filter(|&id| id != NO_NODE)
        .expect("n-gram trie node count fits in u32");
    nodes.push(Node::default());
    id
}

impl NgramPredictor {
    /// Creates a predictor over `n_items` items using contexts up to
    /// `order` (≥ 1) most recent accesses.
    ///
    /// # Panics
    /// Panics if `order == 0` or `n_items == 0`.
    pub fn new(n_items: usize, order: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        assert!(n_items >= 1, "need at least one item");
        Self {
            n_items,
            order,
            roots: vec![NO_NODE; n_items],
            nodes: Vec::new(),
            unigram: vec![0; n_items],
            history: Vec::with_capacity(order + 1),
            observed: 0,
        }
    }

    /// Number of items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Maximum context length.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total accesses observed.
    #[inline]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Feeds the next access into the model: `item` is counted as the
    /// successor of every context along the history's path, each one
    /// created when first seen.
    ///
    /// # Panics
    /// Panics when `item >= n_items`.
    pub fn observe(&mut self, item: usize) {
        assert!(item < self.n_items, "item out of range");
        let item = item as u32;
        let Self {
            roots,
            nodes,
            history,
            ..
        } = self;
        let mut path = history.iter().rev();
        if let Some(&latest) = path.next() {
            let root = &mut roots[latest as usize];
            if *root == NO_NODE {
                *root = push_node(nodes);
            }
            let mut node = *root;
            nodes[node as usize].successors.add(item);
            for &earlier in path {
                let children = &nodes[node as usize].children;
                node = match children.binary_search_by_key(&earlier, |&(access, _)| access) {
                    Ok(pos) => children[pos].1,
                    Err(pos) => {
                        let child = push_node(nodes);
                        nodes[node as usize].children.insert(pos, (earlier, child));
                        child
                    }
                };
                nodes[node as usize].successors.add(item);
            }
        }
        self.unigram[item as usize] += 1;
        self.observed += 1;
        self.history.push(item);
        if self.history.len() > self.order {
            let excess = self.history.len() - self.order;
            self.history.drain(..excess);
        }
    }

    /// The successors of the longest context (most recent accesses)
    /// with at least `min_support` observations, if any. A context has
    /// no more observations than its one-shorter suffix, so the walk
    /// stops at the first node short of support.
    fn context(&self, min_support: u32) -> Option<&Successors> {
        let mut path = self.history.iter().rev();
        let &latest = path.next()?;
        let mut node = self.roots[latest as usize];
        let mut found = None;
        while node != NO_NODE {
            let here = &self.nodes[node as usize];
            if here.successors.total < min_support {
                break;
            }
            found = Some(&here.successors);
            node = path
                .next()
                .and_then(|&earlier| here.child(earlier))
                .unwrap_or(NO_NODE);
        }
        found
    }

    /// Predicts next-access probabilities given the internal history,
    /// backing off from the longest context with at least `min_support`
    /// observations. Returns a dense probability vector (may be all zero
    /// before anything is observed).
    pub fn predict(&self, min_support: u32) -> Vec<f64> {
        let mut probs = vec![0.0; self.n_items];
        let mut row = Vec::new();
        self.predict_row(min_support, &mut row);
        for (item, p) in row {
            probs[item] = p;
        }
        probs
    }

    /// The non-zero entries of [`Self::predict`]'s vector as `(item, P)`
    /// pairs in ascending item order, written into `row` (cleared
    /// first). Each `P` has the bits of the dense entry. Looking up a
    /// context allocates nothing, and neither does the call once `row`
    /// has room for the entries.
    pub fn predict_row(&self, min_support: u32, row: &mut Vec<(usize, f64)>) {
        row.clear();
        if let Some(successors) = self.context(min_support) {
            let total = successors.total as f64;
            row.extend(
                successors
                    .counts
                    .iter()
                    .map(|&(item, c)| (item as usize, c as f64 / total)),
            );
        } else if self.observed > 0 {
            // Unigram back-off: every observation counted once.
            let total = self.observed as f64;
            row.extend(
                self.unigram
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(item, &c)| (item, c as f64 / total)),
            );
        }
    }

    /// Convenience: the most probable next item, if any has been seen.
    pub fn best_guess(&self, min_support: u32) -> Option<usize> {
        let probs = self.predict(min_support);
        probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn learns_a_deterministic_cycle() {
        let mut m = NgramPredictor::new(3, 2);
        for _ in 0..10 {
            m.observe(0);
            m.observe(1);
            m.observe(2);
        }
        // History ends ...1, 2: after 2 comes 0.
        let probs = m.predict(1);
        assert!(probs[0] > 0.95, "probs {probs:?}");
        assert_eq!(m.best_guess(1), Some(0));
    }

    #[test]
    fn order2_disambiguates_shared_successor() {
        // Stream alternates A B C and D B E: after B, the next item
        // depends on what preceded B — order-1 cannot tell, order-2 can.
        let mut m = NgramPredictor::new(5, 2);
        let (a, b, c, d, e) = (0, 1, 2, 3, 4);
        for _ in 0..20 {
            m.observe(a);
            m.observe(b);
            m.observe(c);
            m.observe(d);
            m.observe(b);
            m.observe(e);
        }
        // Now feed "a, b": the bigram (a,b) predicts c.
        m.observe(a);
        m.observe(b);
        let probs = m.predict(1);
        assert!(probs[c] > 0.9, "probs {probs:?}");
    }

    #[test]
    fn backs_off_to_unigram_when_context_unseen() {
        let mut m = NgramPredictor::new(4, 2);
        m.observe(0);
        m.observe(1);
        m.observe(2);
        // Context (1, 2) then something fresh: history (2, 3) unseen,
        // context (3) unseen -> unigram.
        m.observe(3);
        let probs = m.predict(2); // min support 2 > any bigram count
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn cold_start_returns_zeros() {
        let m = NgramPredictor::new(3, 1);
        assert!(m.predict(1).iter().all(|&p| p == 0.0));
        assert_eq!(m.best_guess(1), None);
    }

    #[test]
    fn probabilities_normalised() {
        let mut m = NgramPredictor::new(6, 3);
        let stream = [0usize, 1, 2, 3, 4, 5, 0, 1, 2, 0, 1, 4, 2, 3];
        for &x in &stream {
            m.observe(x);
        }
        let probs = m.predict(1);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// The predictor as it was written before the row forecast: nested
    /// hash maps of counts and a dense forecast. The reference the row
    /// and the dense forecast are held to.
    struct Reference {
        n_items: usize,
        order: usize,
        tables: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>>,
        unigram: Vec<u64>,
        history: Vec<u32>,
    }

    impl Reference {
        fn new(n_items: usize, order: usize) -> Self {
            Self {
                n_items,
                order,
                tables: vec![HashMap::new(); order],
                unigram: vec![0; n_items],
                history: Vec::new(),
            }
        }

        fn observe(&mut self, item: usize) {
            let item = item as u32;
            for k in 0..self.order.min(self.history.len()) {
                let ctx = self.history[self.history.len() - (k + 1)..].to_vec();
                *self.tables[k]
                    .entry(ctx)
                    .or_default()
                    .entry(item)
                    .or_insert(0) += 1;
            }
            self.unigram[item as usize] += 1;
            self.history.push(item);
            if self.history.len() > self.order {
                self.history.remove(0);
            }
        }

        fn predict(&self, min_support: u32) -> Vec<f64> {
            for k in (0..self.order.min(self.history.len())).rev() {
                let ctx = &self.history[self.history.len() - (k + 1)..];
                if let Some(counts) = self.tables[k].get(ctx) {
                    let total: u32 = counts.values().sum();
                    if total >= min_support {
                        let mut probs = vec![0.0; self.n_items];
                        for (&item, &c) in counts {
                            probs[item as usize] = c as f64 / total as f64;
                        }
                        return probs;
                    }
                }
            }
            let total: u64 = self.unigram.iter().sum();
            if total == 0 {
                return vec![0.0; self.n_items];
            }
            self.unigram
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect()
        }

        /// The length of the context [`Self::predict`] draws from, 0 for
        /// the unigram back-off.
        fn depth(&self, min_support: u32) -> usize {
            (0..self.order.min(self.history.len()))
                .rev()
                .find(|&k| {
                    let ctx = &self.history[self.history.len() - (k + 1)..];
                    self.tables[k]
                        .get(ctx)
                        .is_some_and(|counts| counts.values().sum::<u32>() >= min_support)
                })
                .map_or(0, |k| k + 1)
        }
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn row_is_the_dense_forecast_at_every_order_and_back_off() {
        // A stream with repeated and fresh contexts: after every access,
        // for each order and support threshold, the dense forecast must
        // equal the reference's bit for bit, and the row must be exactly
        // its non-zero entries, ascending.
        let stream = [
            3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8,
            3, 2, 7, 9, 5, 0, 2, 8, 8, 4, 1, 9, 7, 1, 6, 9, 3, 9, 9, 3, 7, 5, 1,
        ];
        let mut row = vec![(99, 1.0)]; // stale content must be cleared
        for order in 1..=4 {
            let mut m = NgramPredictor::new(10, order);
            let mut reference = Reference::new(10, order);
            m.predict_row(2, &mut row);
            assert!(row.is_empty(), "cold start");
            let mut used_context = false;
            let mut backed_off = false;
            for &x in &stream {
                m.observe(x);
                reference.observe(x);
                for min_support in [0, 1, 2, 3] {
                    let want = reference.predict(min_support);
                    assert_eq!(bits(&m.predict(min_support)), bits(&want), "order {order}");
                    m.predict_row(min_support, &mut row);
                    let nonzero: Vec<(usize, u64)> = want
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| p != 0.0)
                        .map(|(i, p)| (i, p.to_bits()))
                        .collect();
                    let got: Vec<(usize, u64)> =
                        row.iter().map(|&(i, p)| (i, p.to_bits())).collect();
                    assert_eq!(got, nonzero, "order {order}");
                    if m.context(min_support).is_some() {
                        used_context = true;
                    } else {
                        backed_off = true;
                    }
                }
            }
            assert!(
                used_context && backed_off,
                "order {order}: both paths covered"
            );
        }
    }

    #[test]
    fn random_streams_match_the_reference_at_every_access() {
        // Seeded streams of 0-400 accesses over 1-40 items, orders 1-8
        // (the facade's cap) and supports 0-3. Each stream follows a
        // random successor table most of the time, so deep contexts
        // repeat, and jumps at random otherwise, so new contexts keep
        // appearing. After every access, the dense forecast and the row
        // must equal the reference's bit for bit.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const MAX_ORDER: usize = 8;
        let mut rng = SmallRng::seed_from_u64(0x5eed_9a11);
        // Per depth (context length): contexts created by an access and
        // forecasts drawn from a context of that length.
        let mut created = [0u32; MAX_ORDER + 1];
        let mut used = [0u32; MAX_ORDER + 1];
        let mut row = Vec::new();
        for _ in 0..300 {
            let n_items = rng.random_range(1usize..=40);
            let order = rng.random_range(1usize..=MAX_ORDER);
            let len = rng.random_range(0usize..=400);
            let follow = rng.random_range(0.0..1.0f64);
            let successor: Vec<usize> =
                (0..n_items).map(|_| rng.random_range(0..n_items)).collect();
            let mut m = NgramPredictor::new(n_items, order);
            let mut reference = Reference::new(n_items, order);
            let mut current = rng.random_range(0..n_items);
            for _ in 0..len {
                current = if rng.random_bool(follow) {
                    successor[current]
                } else {
                    rng.random_range(0..n_items)
                };
                let h = &reference.history;
                for k in 0..order.min(h.len()) {
                    if !reference.tables[k].contains_key(&h[h.len() - (k + 1)..]) {
                        created[k + 1] += 1;
                    }
                }
                m.observe(current);
                reference.observe(current);
                for min_support in 0..=3 {
                    let want = reference.predict(min_support);
                    assert_eq!(
                        bits(&m.predict(min_support)),
                        bits(&want),
                        "n {n_items} order {order} support {min_support}"
                    );
                    m.predict_row(min_support, &mut row);
                    let nonzero: Vec<(usize, u64)> = want
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| p != 0.0)
                        .map(|(i, p)| (i, p.to_bits()))
                        .collect();
                    let got: Vec<(usize, u64)> =
                        row.iter().map(|&(i, p)| (i, p.to_bits())).collect();
                    assert_eq!(got, nonzero, "n {n_items} order {order}");
                    used[reference.depth(min_support)] += 1;
                }
            }
        }
        for depth in 1..=MAX_ORDER {
            assert!(created[depth] > 0, "no new context of length {depth}");
            assert!(
                used[depth] > 0,
                "no forecast from a context of length {depth}"
            );
        }
        assert!(used[0] > 0, "no unigram back-off");
    }

    #[test]
    fn unigram_row_lists_only_seen_items() {
        let mut m = NgramPredictor::new(6, 2);
        for x in [4, 1, 4] {
            m.observe(x);
        }
        let mut row = Vec::new();
        m.predict_row(5, &mut row); // no context has support 5
        assert_eq!(row, vec![(1, 1.0 / 3.0), (4, 2.0 / 3.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_out_of_range_panics() {
        let mut m = NgramPredictor::new(2, 1);
        m.observe(5);
    }

    #[test]
    fn accessors() {
        let m = NgramPredictor::new(7, 2);
        assert_eq!(m.n_items(), 7);
        assert_eq!(m.order(), 2);
        assert_eq!(m.observed(), 0);
    }
}
