//! The `part` function: routing intermediate keys to reduce tasks.
//!
//! The paper's load-balancing strategies hinge on partitioners that
//! inspect *only a component* of a composite key (e.g. only the reduce
//! task index of `reduceIndex.blockIndex.split`, or only the range
//! index of `rangeIndex.blockIndex.entityIndex`), while sorting and
//! grouping consider more of the key.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Assigns intermediate keys to reduce tasks.
pub trait Partitioner<K>: Send + Sync {
    /// Returns the reduce task index in `0..num_reduce_tasks` for `key`.
    fn partition(&self, key: &K, num_reduce_tasks: usize) -> usize;
}

/// Hadoop's default: `hash(key) mod r`.
///
/// This is what the paper's *Basic* strategy uses on the blocking key —
/// and precisely why Basic collapses under skew: a hash treats a block
/// of 20 000 entities the same as a block of 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The stable hash of `key` that [`Self::bucket`] places it by.
    pub fn hash<K: Hash>(key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// The reduce task of a key whose [`Self::hash`] is `hash` — for
    /// callers that kept the hash and not the key.
    pub fn bucket_of_hash(hash: u64, num_reduce_tasks: usize) -> usize {
        (hash % num_reduce_tasks as u64) as usize
    }

    /// Stable placement of a key (used by tests to predict placements).
    pub fn bucket<K: Hash>(key: &K, num_reduce_tasks: usize) -> usize {
        Self::bucket_of_hash(Self::hash(key), num_reduce_tasks)
    }
}

impl<K: Hash + Send + Sync> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reduce_tasks: usize) -> usize {
        Self::bucket(key, num_reduce_tasks)
    }
}

/// Partitioner from a plain function or closure over the key.
///
/// The function receives the key and `r` and must return an index in
/// `0..r`; the engine validates the range at runtime.
#[derive(Clone)]
pub struct FnPartitioner<K> {
    f: Arc<dyn Fn(&K, usize) -> usize + Send + Sync>,
}

impl<K> FnPartitioner<K> {
    /// Wraps `f` as a partitioner.
    pub fn new(f: impl Fn(&K, usize) -> usize + Send + Sync + 'static) -> Self {
        Self { f: Arc::new(f) }
    }
}

impl<K> std::fmt::Debug for FnPartitioner<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnPartitioner")
    }
}

impl<K: Send + Sync> Partitioner<K> for FnPartitioner<K> {
    fn partition(&self, key: &K, num_reduce_tasks: usize) -> usize {
        (self.f)(key, num_reduce_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for key in ["aaa", "bbb", "zzz", ""] {
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b, "same key must land on same reduce task");
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        // Not a statistical test — just checks we don't map everything
        // to a single bucket.
        let p = HashPartitioner;
        let buckets: std::collections::HashSet<usize> =
            (0..100u32).map(|i| p.partition(&i, 10)).collect();
        assert!(buckets.len() > 3);
    }

    #[test]
    fn fn_partitioner_uses_only_the_requested_component() {
        // Composite key (reduce_index, payload): route on index only,
        // the pattern used by BlockSplit and PairRange.
        let p = FnPartitioner::new(|key: &(usize, &str), r: usize| key.0 % r);
        assert_eq!(p.partition(&(4, "ignored"), 3), 1);
        assert_eq!(p.partition(&(4, "also-ignored"), 3), 1);
        assert_eq!(p.partition(&(2, "x"), 3), 2);
    }
}
