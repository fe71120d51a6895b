//! An equal-slot cache over a fixed item universe `0..n`.

/// Fixed-capacity, equal-slot cache. Membership is dense (`Vec` indexed
/// by item id), matching the paper's setting of a known item universe.
#[derive(Debug, Clone)]
pub struct Cache {
    capacity: usize,
    present: Vec<bool>,
    occupants: Vec<usize>,
}

impl Cache {
    /// Creates an empty cache with `capacity` slots over `n_items` items.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize, n_items: usize) -> Self {
        assert!(capacity >= 1, "cache needs at least one slot");
        Self {
            capacity,
            present: vec![false; n_items],
            occupants: Vec::with_capacity(capacity),
        }
    }

    /// Capacity in slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items in the item universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.present.len()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupants.len()
    }

    /// Whether the cache is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupants.is_empty()
    }

    /// Number of free slots.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.capacity - self.occupants.len()
    }

    /// Whether `item` is cached.
    #[inline]
    pub fn contains(&self, item: usize) -> bool {
        self.present[item]
    }

    /// The cached item ids (unspecified order).
    #[inline]
    pub fn items(&self) -> &[usize] {
        &self.occupants
    }

    /// Inserts `item` into a free slot.
    ///
    /// # Panics
    /// Panics when the cache is full or the item is already present —
    /// callers must evict first; silent double-insertion would corrupt
    /// slot accounting.
    pub fn insert(&mut self, item: usize) {
        assert!(self.free_slots() > 0, "cache full: evict before inserting");
        assert!(!self.present[item], "item {item} already cached");
        self.present[item] = true;
        self.occupants.push(item);
    }

    /// Removes `item`.
    ///
    /// # Panics
    /// Panics when the item is not cached.
    pub fn evict(&mut self, item: usize) {
        assert!(self.present[item], "item {item} not cached");
        self.present[item] = false;
        let pos = self
            .occupants
            .iter()
            .position(|&x| x == item)
            .expect("present implies occupant");
        self.occupants.swap_remove(pos);
    }

    /// Empties the cache (the 'prefetch only' simulation flushes between
    /// iterations).
    pub fn flush(&mut self) {
        for &i in &self.occupants {
            self.present[i] = false;
        }
        self.occupants.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_evict() {
        let mut c = Cache::new(2, 5);
        assert!(c.is_empty());
        c.insert(3);
        assert!(c.contains(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.free_slots(), 1);
        c.evict(3);
        assert!(!c.contains(3));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "cache full")]
    fn insert_over_capacity_panics() {
        let mut c = Cache::new(1, 3);
        c.insert(0);
        c.insert(1);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = Cache::new(2, 3);
        c.insert(0);
        c.insert(0);
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn evict_absent_panics() {
        let mut c = Cache::new(1, 3);
        c.evict(0);
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(3, 5);
        c.insert(0);
        c.insert(4);
        c.flush();
        assert!(c.is_empty());
        assert!(!c.contains(0) && !c.contains(4));
        // Reusable after flush.
        c.insert(0);
        assert!(c.contains(0));
    }

    #[test]
    fn items_lists_occupants() {
        let mut c = Cache::new(3, 5);
        c.insert(1);
        c.insert(4);
        let mut items = c.items().to_vec();
        items.sort_unstable();
        assert_eq!(items, vec![1, 4]);
    }
}
