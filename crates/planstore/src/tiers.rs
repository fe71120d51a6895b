//! The in-memory store tiers: the null store, the sharded lock-striped
//! store, and the tiered composition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{PlanSet, PlanStore, PlanStoreStats, TierStats};

/// An MRU-ordered lane of entries: front is most recently used, the
/// tail is the eviction victim.
type LruLane = Vec<(u64, Arc<PlanSet>)>;

/// Looks up `key` in an MRU-front lane, moving it to the front on hit.
fn lane_get(lane: &mut LruLane, key: u64) -> Option<Arc<PlanSet>> {
    let pos = lane.iter().position(|(k, _)| *k == key)?;
    let entry = lane.remove(pos);
    let value = entry.1.clone();
    lane.insert(0, entry);
    Some(value)
}

/// Inserts or refreshes `key` at the front of an MRU-front lane and
/// returns whether the put grew the lane (false when it replaced an
/// existing entry).
fn lane_put(lane: &mut LruLane, key: u64, value: Arc<PlanSet>) -> bool {
    let grew = match lane.iter().position(|(k, _)| *k == key) {
        Some(pos) => {
            lane.remove(pos);
            false
        }
        None => true,
    };
    lane.insert(0, (key, value));
    grew
}

// ---------------------------------------------------------------------
// none
// ---------------------------------------------------------------------

/// The null store: never hits, never retains, counts nothing. The
/// explicit way to opt a session out of plan reuse entirely.
#[derive(Debug, Default)]
pub struct NoneStore;

impl PlanStore for NoneStore {
    fn name(&self) -> &'static str {
        "none"
    }

    fn spec_string(&self) -> String {
        "none".to_string()
    }

    fn get(&self, _key: u64) -> Option<Arc<PlanSet>> {
        None
    }

    fn put(&self, _key: u64, _value: Arc<PlanSet>) {}

    fn retains(&self) -> bool {
        false
    }

    fn stats(&self) -> PlanStoreStats {
        PlanStoreStats::from_tier(TierStats {
            tier: "none".to_string(),
            ..TierStats::default()
        })
    }
}

// ---------------------------------------------------------------------
// memory:<shards>x<cap>
// ---------------------------------------------------------------------

/// One lock stripe of a [`MemoryStore`].
#[derive(Debug, Default)]
struct MemoryShard {
    lane: Mutex<LruLane>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Sharded, lock-striped LRU (`memory:<shards>x<cap>`): keys stripe
/// across `shards` independent mutexes, each guarding an LRU lane of
/// up to `cap` entries, so concurrent engines contend only when their
/// keys collide on a stripe.
#[derive(Debug)]
pub struct MemoryStore {
    shards: Vec<MemoryShard>,
    cap: usize,
}

impl MemoryStore {
    /// A store of `shards` stripes holding up to `cap` entries each.
    pub fn new(shards: usize, cap: usize) -> Self {
        MemoryStore {
            shards: (0..shards.max(1)).map(|_| MemoryShard::default()).collect(),
            cap: cap.max(1),
        }
    }

    fn shard(&self, key: u64) -> &MemoryShard {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }
}

impl PlanStore for MemoryStore {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn spec_string(&self) -> String {
        format!("memory:{}x{}", self.shards.len(), self.cap)
    }

    fn get(&self, key: u64) -> Option<Arc<PlanSet>> {
        let shard = self.shard(key);
        let found = lane_get(
            &mut shard.lane.lock().expect("plan store shard poisoned"),
            key,
        );
        match &found {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: u64, value: Arc<PlanSet>) {
        let shard = self.shard(key);
        let mut lane = shard.lane.lock().expect("plan store shard poisoned");
        if lane_put(&mut lane, key, value) && lane.len() > self.cap {
            lane.pop();
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> PlanStoreStats {
        let mut row = TierStats {
            tier: self.spec_string(),
            ..TierStats::default()
        };
        for shard in &self.shards {
            row.hits += shard.hits.load(Ordering::Relaxed);
            row.misses += shard.misses.load(Ordering::Relaxed);
            row.evictions += shard.evictions.load(Ordering::Relaxed);
            row.entries += shard.lane.lock().expect("plan store shard poisoned").len() as u64;
        }
        PlanStoreStats::from_tier(row)
    }
}

// ---------------------------------------------------------------------
// tiered:<spec>,<spec>,…
// ---------------------------------------------------------------------

/// Read-through/write-back chain (`tiered:<spec>,…`): `get` probes the
/// tiers in order and, on a hit in a lower tier, promotes the value
/// into every tier above it; `put` writes all tiers. Stats report one
/// row per sub-tier (in chain order) with the chain's promotion counts
/// folded into each row.
pub struct TieredStore {
    tiers: Vec<Arc<dyn PlanStore>>,
    promotions: Vec<AtomicU64>,
    lookups: AtomicU64,
    hits: AtomicU64,
}

impl TieredStore {
    /// Chains `tiers` from hottest (probed first) to coldest.
    pub fn new(tiers: Vec<Arc<dyn PlanStore>>) -> Self {
        let promotions = tiers.iter().map(|_| AtomicU64::new(0)).collect();
        TieredStore {
            tiers,
            promotions,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }
}

impl PlanStore for TieredStore {
    fn name(&self) -> &'static str {
        "tiered"
    }

    fn spec_string(&self) -> String {
        let specs: Vec<String> = self.tiers.iter().map(|t| t.spec_string()).collect();
        format!("tiered:{}", specs.join(","))
    }

    fn get(&self, key: u64) -> Option<Arc<PlanSet>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        for (depth, tier) in self.tiers.iter().enumerate() {
            if let Some(value) = tier.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                for above in 0..depth {
                    self.tiers[above].put(key, value.clone());
                    self.promotions[above].fetch_add(1, Ordering::Relaxed);
                }
                return Some(value);
            }
        }
        None
    }

    fn put(&self, key: u64, value: Arc<PlanSet>) {
        for tier in &self.tiers {
            tier.put(key, value.clone());
        }
    }

    fn retains(&self) -> bool {
        self.tiers.iter().any(|t| t.retains())
    }

    fn stats(&self) -> PlanStoreStats {
        let mut rows = Vec::with_capacity(self.tiers.len());
        for (i, tier) in self.tiers.iter().enumerate() {
            let mut sub = tier.stats();
            if let Some(first) = sub.tiers.first_mut() {
                first.promotions += self.promotions[i].load(Ordering::Relaxed);
            }
            rows.extend(sub.tiers);
        }
        PlanStoreStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            tiers: rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_set;

    #[test]
    fn none_store_never_retains() {
        let store = NoneStore;
        store.put(1, sample_set(1));
        assert!(store.get(1).is_none());
        assert!(!store.retains());
        let stats = store.stats();
        assert_eq!(stats.tiers.len(), 1);
        assert_eq!(stats.tiers[0].tier, "none");
        assert_eq!(stats.tiers[0].entries, 0);
    }

    #[test]
    fn a_chain_retains_when_any_tier_does() {
        let none = || Arc::new(NoneStore) as Arc<dyn PlanStore>;
        let memory = || Arc::new(MemoryStore::new(1, 4)) as Arc<dyn PlanStore>;
        assert!(!TieredStore::new(vec![none(), none()]).retains());
        assert!(TieredStore::new(vec![none(), memory()]).retains());
        assert!(memory().retains());
    }

    #[test]
    fn lru_evicts_in_recency_order_under_capacity_one() {
        let store = MemoryStore::new(1, 1);
        store.put(1, sample_set(1));
        store.put(2, sample_set(2));
        // Capacity 1: the second put evicts the first.
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        let stats = store.stats();
        assert_eq!(stats.tiers[0].evictions, 1);
        assert_eq!(stats.tiers[0].entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses(), 1);
    }

    #[test]
    fn lru_get_refreshes_recency() {
        let store = MemoryStore::new(1, 2);
        store.put(1, sample_set(1));
        store.put(2, sample_set(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get(1).is_some());
        store.put(3, sample_set(3));
        assert!(store.get(2).is_none(), "2 was least recently used");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn put_of_an_existing_key_replaces_without_eviction() {
        let store = MemoryStore::new(1, 1);
        store.put(1, sample_set(1));
        store.put(1, sample_set(9));
        let stats = store.stats();
        assert_eq!(stats.tiers[0].evictions, 0);
        assert_eq!(stats.tiers[0].entries, 1);
        assert_eq!(store.get(1).unwrap().guard.policy_spec, "skp-exact#9");
    }

    #[test]
    fn memory_store_stripes_keys_across_shards() {
        let store = MemoryStore::new(2, 1);
        // Keys 0 and 1 land on different stripes: both survive cap 1.
        store.put(0, sample_set(0));
        store.put(1, sample_set(1));
        assert!(store.get(0).is_some());
        assert!(store.get(1).is_some());
        assert_eq!(store.stats().tiers[0].entries, 2);
        assert_eq!(store.spec_string(), "memory:2x1");
    }

    #[test]
    fn tiered_promotes_on_lower_tier_hit() {
        let upper: Arc<dyn PlanStore> = Arc::new(MemoryStore::new(1, 4));
        let lower: Arc<dyn PlanStore> = Arc::new(MemoryStore::new(1, 4));
        lower.put(7, sample_set(7));
        let chain = TieredStore::new(vec![upper.clone(), lower]);
        assert!(chain.get(7).is_some(), "read-through finds the lower tier");
        // The hit promoted the value into the upper tier.
        assert!(upper.get(7).is_some());
        let stats = chain.stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.tiers.len(), 2);
        assert_eq!(stats.tiers[0].promotions, 1);
        assert_eq!(stats.tiers[1].promotions, 0);
        assert_eq!(stats.tiers[1].hits, 1);
    }

    #[test]
    fn tiered_put_writes_back_to_every_tier() {
        let upper: Arc<dyn PlanStore> = Arc::new(MemoryStore::new(1, 4));
        let lower: Arc<dyn PlanStore> = Arc::new(MemoryStore::new(1, 4));
        let chain = TieredStore::new(vec![upper.clone(), lower.clone()]);
        chain.put(3, sample_set(3));
        assert!(upper.get(3).is_some());
        assert!(lower.get(3).is_some());
        assert_eq!(chain.spec_string(), "tiered:memory:1x4,memory:1x4");
    }

    #[test]
    fn tiered_miss_counts_a_lookup_without_a_hit() {
        let chain = TieredStore::new(vec![Arc::new(MemoryStore::new(1, 2)) as Arc<dyn PlanStore>]);
        assert!(chain.get(5).is_none());
        let stats = chain.stats();
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses(), 1);
    }
}
