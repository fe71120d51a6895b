//! Tiered plan store: cross-run, cross-client caching of solved
//! per-state prefetch plans behind a pluggable KV seam.
//!
//! A population run solves one prefetch plan per Markov state; the
//! registry policies are pure functions of the scenario, so the
//! `(policy spec, chain, catalog)` triple fully determines every plan.
//! [`population_plan_key`] reads that triple as 64-bit words and folds
//! them into a 64-bit content key, and a [`PlanStore`] maps the key to
//! the solved [`PlanSet`] — across runs, across engines, and (with the
//! `file:` tier) across process restarts.
//!
//! Stores are built from string specs through the workspace's one
//! runtime-extensible registry ([`build_plan_store`], shared with the
//! backends, generators and obs sinks):
//!
//! | spec | store |
//! |------|-------|
//! | `none` | the null store: never hits, never retains |
//! | `memory:<shards>x<cap>` | sharded, lock-striped LRU (cap per shard) |
//! | `file:<dir>` | persistent one-file-per-key store, bit-exact across restarts |
//! | `tiered:<spec>,<spec>,…` | read-through/write-back chain with promotion on hit |
//!
//! ```
//! use planstore::{build_plan_store, PlanGuard, PlanSet};
//! use std::sync::Arc;
//!
//! let store = build_plan_store("tiered:memory:1x8,memory:2x64")?;
//! let set = Arc::new(PlanSet {
//!     plans: vec![Some(vec![0, 2]), None],
//!     guard: PlanGuard { policy_spec: "skp-exact".into(), catalog: vec![3.0, 5.0] },
//! });
//! store.put(7, set.clone());
//! assert_eq!(store.get(7).as_deref(), Some(&*set));
//! assert_eq!(store.stats().hits, 1);
//! # Ok::<(), planstore::StoreError>(())
//! ```
//!
//! Because the key is a non-cryptographic 64-bit hash, stored values
//! carry a [`PlanGuard`] echo of the policy spec and the catalog they
//! were solved from; consumers verify the guard on every hit
//! ([`PlanSet::matches`]) before trusting the entry. A collision that
//! differs in the spec or the catalog, or a corrupted file, degrades
//! to a miss. The guard does not echo the chain, so a collision
//! between two chains with the same spec and catalog is not caught
//! yet: the stored plans of the other chain would be served.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod file;
mod registry;
mod tiers;

pub use file::FileStore;
pub use registry::{
    build_plan_store, plan_store_names, plan_store_specs, register_plan_store, PlanStoreBuilder,
    PlanStoreSpec,
};
pub use tiers::{MemoryStore, NoneStore, TieredStore};

use std::sync::Arc;

use access_model::MarkovChain;

/// Echo of the policy spec and catalog a [`PlanSet`] was solved from,
/// stored alongside the plans. [`population_plan_key`] is a
/// non-cryptographic 64-bit hash, so a hit is only trusted after the
/// guard is re-checked against the live spec and catalog
/// ([`PlanSet::matches`]): a collision in either, and on-disk
/// corruption, degrade to misses. The chain is not part of the guard,
/// so a key collision between two chains is not caught.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGuard {
    /// Registry spec of the policy that solved the plans.
    pub policy_spec: String,
    /// The catalog slice the scenarios were built from (compared
    /// bit-for-bit, so the `file:` tier must round-trip `f64`s
    /// exactly).
    pub catalog: Vec<f64>,
}

/// One store value: the solved per-state plans of a population
/// (`None` for states never visited, so never solved) plus the
/// [`PlanGuard`] echo they are valid for.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSet {
    /// Per-state plans, indexed by Markov state.
    pub plans: Vec<Option<Vec<usize>>>,
    /// Input echo verified on every hit.
    pub guard: PlanGuard,
}

impl PlanSet {
    /// Number of states with a solved plan.
    pub fn solved(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }

    /// Whether this set was solved from exactly these inputs: the
    /// guard's policy spec matches and the catalog is bit-identical.
    pub fn matches(&self, policy_spec: &str, catalog: &[f64]) -> bool {
        self.guard.policy_spec == policy_spec
            && self.guard.catalog.len() == catalog.len()
            && self
                .guard
                .catalog
                .iter()
                .zip(catalog)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Counters of one tier of a store. Every simple store reports exactly
/// one row; a [`TieredStore`] reports the concatenation of its
/// sub-tiers' rows with the chain's promotion counts folded in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierStats {
    /// The tier's canonical spec string (e.g. `memory:8x1024`).
    pub tier: String,
    /// Lookups answered by this tier.
    pub hits: u64,
    /// Lookups this tier could not answer.
    pub misses: u64,
    /// Entries evicted to respect the tier's capacity.
    pub evictions: u64,
    /// Values copied into this tier because a lower tier hit.
    pub promotions: u64,
    /// Values currently resident in the tier.
    pub entries: u64,
}

/// Store-wide counters: aggregate lookups/hits plus the per-tier
/// breakdown. Snapshot into every `RunReport`; cheap to clone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStoreStats {
    /// Total [`PlanStore::get`] calls.
    pub lookups: u64,
    /// Lookups answered by any tier.
    pub hits: u64,
    /// Per-tier counter rows.
    pub tiers: Vec<TierStats>,
}

impl PlanStoreStats {
    /// Lookups no tier could answer.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Fraction of lookups answered (`0.0` when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Stats of a single-tier store: the aggregate view is the tier's
    /// own row.
    pub fn from_tier(tier: TierStats) -> Self {
        PlanStoreStats {
            lookups: tier.hits + tier.misses,
            hits: tier.hits,
            tiers: vec![tier],
        }
    }
}

/// A malformed plan-store spec or registration conflict: the
/// workspace's one spec error, converted by the facade into its
/// unified error type.
pub use skp_registry::SpecError as StoreError;

/// A key-value store of solved population plans, content-addressed by
/// [`population_plan_key`]. Implementations use interior mutability:
/// `get`/`put` take `&self` so one store can be shared across engines
/// and worker threads behind an `Arc`.
///
/// The contract mirrors a read-through cache, not a database: `put`
/// is best-effort (a full or failing tier may drop the value), `get`
/// must never fabricate — a corrupt or mismatched entry is a miss.
/// Values travel as `Arc<PlanSet>` so promotion between tiers never
/// copies the plans.
pub trait PlanStore: Send + Sync {
    /// The registry name of this store kind (e.g. `"memory"`).
    fn name(&self) -> &'static str;

    /// Canonical spec string (reparses to an equivalent store through
    /// [`build_plan_store`]).
    fn spec_string(&self) -> String;

    /// Looks up a plan set by content key.
    fn get(&self, key: u64) -> Option<Arc<PlanSet>>;

    /// Stores a plan set under a content key (best-effort).
    fn put(&self, key: u64, value: Arc<PlanSet>);

    /// Whether a [`put`](Self::put) can ever be read back. When it is
    /// `false` a caller may skip hashing the key and building the plan
    /// set altogether. Defaults to `true`.
    fn retains(&self) -> bool {
        true
    }

    /// Snapshot of the store's counters.
    fn stats(&self) -> PlanStoreStats;
}

/// Word-wide content key of the population inputs that determine
/// every per-state plan: the policy spec, the chain's viewing times
/// and transition rows, and the catalog slice the scenarios are built
/// from.
///
/// The inputs are read as 64-bit words, all integers (`to_bits`,
/// lengths), so the key is the same on every platform and in every
/// process: the spec's length and its bytes packed eight to a word;
/// `n`; per row its viewing time, its length and each
/// `(successor, probability)` pair; then the first `n` catalog
/// entries and their count. Entries past `n` are ignored. The row
/// lengths make every row boundary part of the input.
///
/// Two independent lanes each fold a pair of words per 64×64→128-bit
/// multiply, so their multiplies overlap; which lane takes which pair
/// follows from the lengths already folded in. A final avalanche step
/// spreads the joined lanes over all 64 bits. The key is not
/// collision-resistant: see [`PlanGuard`] for what a hit is checked
/// against.
///
/// Custom policies installed as instances (rather than registry
/// specs) have no spec to key on and an unknowable purity, so they
/// bypass the store entirely — the caller simply has no key to offer.
pub fn population_plan_key(spec: &str, chain: &MarkovChain, retrievals: &[f64]) -> u64 {
    let n = chain.n_states();
    let catalog = &retrievals[..n.min(retrievals.len())];
    let (mut a, mut b) = (PI[0], PI[1]);
    a = mix(a, spec.len() as u64, n as u64);
    let mut words = spec.as_bytes().chunks(8).map(|bytes| {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    });
    while let Some(word) = words.next() {
        b = mix(b, word, words.next().unwrap_or(0));
    }
    for i in 0..n {
        let row = chain.successors(i);
        a = mix(a, chain.viewing(i).to_bits(), row.len() as u64);
        let mut pairs = row.chunks_exact(2);
        for two in &mut pairs {
            a = mix(a, two[0].0 as u64, two[0].1.to_bits());
            b = mix(b, two[1].0 as u64, two[1].1.to_bits());
        }
        if let [(j, p)] = pairs.remainder() {
            b = mix(b, *j as u64, p.to_bits());
        }
    }
    let mut fours = catalog.chunks_exact(4);
    for four in &mut fours {
        a = mix(a, four[0].to_bits(), four[1].to_bits());
        b = mix(b, four[2].to_bits(), four[3].to_bits());
    }
    for (k, r) in fours.remainder().iter().enumerate() {
        a = mix(a, r.to_bits(), k as u64);
    }
    avalanche(folded_multiply(a ^ PI[3], b ^ catalog.len() as u64))
}

/// Fixed mixing constants (hex digits of π): the key must not depend
/// on a per-process seed, or the `file:` tier could never hit.
const PI: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// The 128-bit product of `a` and `b`, its halves xored together.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// One lane step: folds the word pair `(x, y)` into `lane`.
#[inline(always)]
fn mix(lane: u64, x: u64, y: u64) -> u64 {
    folded_multiply(x ^ PI[2], y ^ lane)
}

/// murmur3's 64-bit finaliser: every input bit reaches every output
/// bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_set(tag: u64) -> Arc<PlanSet> {
        Arc::new(PlanSet {
            plans: vec![Some(vec![tag as usize, 2]), None, Some(vec![])],
            guard: PlanGuard {
                policy_spec: format!("skp-exact#{tag}"),
                catalog: vec![3.5, 0.1 + 0.2, 1.0 / 3.0],
            },
        })
    }

    #[test]
    fn guard_matching_is_bitwise_on_the_catalog() {
        let set = sample_set(1);
        assert!(set.matches("skp-exact#1", &[3.5, 0.1 + 0.2, 1.0 / 3.0]));
        // 0.3 is not bit-identical to 0.1 + 0.2: the guard must notice.
        assert!(!set.matches("skp-exact#1", &[3.5, 0.3, 1.0 / 3.0]));
        assert!(!set.matches("skp-exact#2", &[3.5, 0.1 + 0.2, 1.0 / 3.0]));
        assert!(!set.matches("skp-exact#1", &[3.5, 0.1 + 0.2]));
        assert_eq!(set.solved(), 2);
    }

    #[test]
    fn stats_helpers_cover_the_empty_store() {
        let empty = PlanStoreStats::default();
        assert_eq!(empty.misses(), 0);
        assert_eq!(empty.hit_rate(), 0.0);
        let one = PlanStoreStats::from_tier(TierStats {
            tier: "memory:1x8".into(),
            hits: 3,
            misses: 1,
            ..TierStats::default()
        });
        assert_eq!(one.lookups, 4);
        assert_eq!(one.misses(), 1);
        assert!((one.hit_rate() - 0.75).abs() < 1e-12);
    }

    /// A small fixed chain; `edit` may change its rows and viewing
    /// times before it is built.
    fn small_chain(edit: impl FnOnce(&mut Vec<Vec<(usize, f64)>>, &mut Vec<f64>)) -> MarkovChain {
        let mut rows = vec![
            vec![(1, 0.25), (2, 0.75)],
            vec![(0, 0.5), (3, 0.5)],
            vec![(3, 1.0)],
            vec![(0, 0.125), (1, 0.875)],
        ];
        let mut viewing = vec![4.0, 7.5, 1.0, 12.0];
        edit(&mut rows, &mut viewing);
        MarkovChain::new(rows, viewing).expect("valid chain")
    }

    fn flip_low_bit(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn content_key_separates_every_input() {
        let random = MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        let other = MarkovChain::random(6, 2, 4, 5, 20, 4).unwrap();
        let six: Vec<f64> = (0..6).map(|i| 2.0 + i as f64).collect();
        let key = population_plan_key("skp-exact", &random, &six);
        assert_eq!(key, population_plan_key("skp-exact", &random, &six));
        assert_ne!(key, population_plan_key("greedy", &random, &six));
        assert_ne!(key, population_plan_key("skp-exact", &other, &six));
        let mut bumped = six.clone();
        bumped[5] += 1e-9;
        assert_ne!(key, population_plan_key("skp-exact", &random, &bumped));

        let chain = small_chain(|_, _| {});
        let cat = vec![2.0, 3.0, 5.0, 8.0];
        let base = population_plan_key("skp-exact", &chain, &cat);
        // Spec: one byte, and a trailing NUL the word packing pads with.
        assert_ne!(base, population_plan_key("skp-exacu", &chain, &cat));
        assert_ne!(base, population_plan_key("skp-exact\0", &chain, &cat));
        assert_ne!(
            population_plan_key("greedy", &chain, &cat),
            population_plan_key("greedy\0\0", &chain, &cat)
        );
        // `n`: one more state, reached from nowhere.
        let wider = small_chain(|rows, viewing| {
            rows.push(vec![(0, 1.0)]);
            viewing.push(1.0);
        });
        assert_ne!(
            base,
            population_plan_key("skp-exact", &wider, &[2.0, 3.0, 5.0, 8.0, 1.0])
        );
        // One viewing bit, one successor id, one probability bit.
        let viewed = small_chain(|_, viewing| viewing[1] = flip_low_bit(viewing[1]));
        assert_ne!(base, population_plan_key("skp-exact", &viewed, &cat));
        let rerouted = small_chain(|rows, _| rows[2][0].0 = 0);
        assert_ne!(base, population_plan_key("skp-exact", &rerouted, &cat));
        let nudged = small_chain(|rows, _| rows[3][1].1 = flip_low_bit(rows[3][1].1));
        assert_ne!(base, population_plan_key("skp-exact", &nudged, &cat));
        // One catalog bit; entries past `n` are not part of the input.
        let mut bumped = cat.clone();
        bumped[3] = flip_low_bit(bumped[3]);
        assert_ne!(base, population_plan_key("skp-exact", &chain, &bumped));
        assert_eq!(
            base,
            population_plan_key("skp-exact", &chain, &[2.0, 3.0, 5.0, 8.0, 13.0])
        );
    }

    #[test]
    fn content_key_separates_a_row_boundary_shift() {
        // Moving the successor `(2, 0.0)` from the end of row 0 to the
        // start of row 1 leaves the flat stream of viewing and
        // successor words unchanged: row 0's extra pair reads as row
        // 1's viewing time and first successor in the other chain. The
        // row lengths in the key's input tell the two apart.
        let tiny = 1e-7;
        let before = MarkovChain::new(
            vec![
                vec![(1, 1.0)],
                vec![(0, tiny), (2, 1.0 - tiny)],
                vec![(0, 1.0)],
            ],
            vec![1.0, f64::from_bits(2), 1.0],
        )
        .expect("valid chain");
        let after = MarkovChain::new(
            vec![
                vec![(1, 1.0), (2, 0.0)],
                vec![(2, 1.0 - tiny)],
                vec![(0, 1.0)],
            ],
            vec![1.0, tiny, 1.0],
        )
        .expect("valid chain");
        let cat = [1.0, 2.0, 3.0];
        assert_ne!(
            population_plan_key("skp-exact", &before, &cat),
            population_plan_key("skp-exact", &after, &cat)
        );
    }

    #[test]
    fn content_key_is_pinned() {
        // The key names `file:` tier entries on disk: changing this
        // value means bumping `file::MAGIC`, so that entries written
        // under the old key read as misses.
        let chain = small_chain(|_, _| {});
        assert_eq!(
            population_plan_key("skp-exact", &chain, &[2.0, 3.0, 5.0, 8.0]),
            0x58c4_0887_c6d7_e2c7
        );
    }
}
