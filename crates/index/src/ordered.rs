//! Ordered attribute index (B-tree-backed) for non-spatial lookups —
//! street-name and zip-code access paths in the geocoding scenarios.

use std::collections::BTreeMap;

/// A sorted multimap from keys to payloads with exact lookups.
#[derive(Clone, Debug)]
pub struct OrderedIndex<K: Ord + Clone, T: Clone> {
    map: BTreeMap<K, Vec<T>>,
    len: usize,
}

impl<K: Ord + Clone, T: Clone> Default for OrderedIndex<K, T> {
    fn default() -> Self {
        OrderedIndex { map: BTreeMap::new(), len: 0 }
    }
}

impl<K: Ord + Clone, T: Clone> OrderedIndex<K, T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from entries already grouped by key: each group's
    /// payloads keep their order, as one [`OrderedIndex::insert`] per
    /// entry would leave them. The keys are sorted once and the map is
    /// bulk-built from them. A key given twice has its groups joined in
    /// the order they came; empty groups add nothing.
    pub fn from_groups(groups: impl IntoIterator<Item = (K, Vec<T>)>) -> Self {
        let mut groups: Vec<(K, Vec<T>)> =
            groups.into_iter().filter(|(_, payloads)| !payloads.is_empty()).collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1.append(&mut later.1);
                true
            }
        });
        let len = groups.iter().map(|(_, payloads)| payloads.len()).sum();
        // Sorted and distinct: collecting builds the tree bottom-up.
        OrderedIndex { map: groups.into_iter().collect(), len }
    }

    /// Number of stored entries (not distinct keys).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys: a hook for the engine's index-build
    /// tests (`indexes::tests`), which compare grouped and one-by-one
    /// builds.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Inserts an entry under `key` (duplicates allowed).
    pub fn insert(&mut self, key: K, value: T) {
        self.map.entry(key).or_default().push(value);
        self.len += 1;
    }

    /// Removes one entry under `key` for which `pred` holds; returns it.
    pub fn remove(&mut self, key: &K, pred: impl Fn(&T) -> bool) -> Option<T> {
        let bucket = self.map.get_mut(key)?;
        let pos = bucket.iter().position(pred)?;
        let out = bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.map.remove(key);
        }
        self.len -= 1;
        Some(out)
    }

    /// All payloads stored under exactly `key`.
    pub fn get(&self, key: &K) -> &[T] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_duplicates() {
        let mut idx: OrderedIndex<String, usize> = OrderedIndex::new();
        idx.insert("OAK ST".into(), 1);
        idx.insert("OAK ST".into(), 2);
        idx.insert("ELM AVE".into(), 3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.key_count(), 2);
        let mut hits = idx.get(&"OAK ST".to_string()).to_vec();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        assert!(idx.get(&"PINE RD".to_string()).is_empty());
    }

    #[test]
    fn grouped_build_equals_one_insert_per_entry() {
        // Keys drawn from a few distinct values (many duplicates) and
        // from many (few); grouped as they arrive, as a loader groups
        // them, in a hash map whose iteration order is arbitrary.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for distinct in [1u64, 7, 300, 5_000] {
            let entries: Vec<(String, usize)> =
                (0..4_000).map(|i| (format!("K{:04}", next() % distinct), i)).collect();
            let mut one_by_one = OrderedIndex::new();
            let mut groups: std::collections::HashMap<String, Vec<usize>> = Default::default();
            for (k, v) in &entries {
                one_by_one.insert(k.clone(), *v);
                groups.entry(k.clone()).or_default().push(*v);
            }
            let grouped = OrderedIndex::from_groups(groups);
            assert_eq!(grouped.len(), one_by_one.len(), "{distinct} keys");
            assert_eq!(grouped.key_count(), one_by_one.key_count(), "{distinct} keys");
            assert_eq!(grouped.map, one_by_one.map, "keys and per-key payload order");
        }
        // A key given twice is joined in order; an empty group adds
        // nothing, not an empty bucket.
        let joined = OrderedIndex::from_groups([
            (5, vec!['a', 'b']),
            (2, vec![]),
            (1, vec!['c']),
            (5, vec!['d']),
        ]);
        assert_eq!((joined.len(), joined.key_count()), (4, 2));
        assert_eq!(joined.get(&5), &['a', 'b', 'd']);
        assert!(joined.get(&2).is_empty());
        assert_eq!(joined.get(&1), &['c']);
    }

    #[test]
    fn removal() {
        let mut idx: OrderedIndex<String, usize> = OrderedIndex::new();
        idx.insert("A".into(), 1);
        idx.insert("A".into(), 2);
        assert_eq!(idx.remove(&"A".to_string(), |&v| v == 1), Some(1));
        assert_eq!(idx.get(&"A".to_string()), &[2]);
        assert_eq!(idx.remove(&"A".to_string(), |&v| v == 9), None);
        assert_eq!(idx.remove(&"A".to_string(), |&v| v == 2), Some(2));
        assert!(idx.is_empty());
        assert_eq!(idx.key_count(), 0);
    }
}
