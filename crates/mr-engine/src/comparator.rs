//! Grouping (`group`) comparators.
//!
//! Keys of a reduce task are sorted by the key type's `Ord`; reduce
//! groups are maximal runs of keys that compare `Equal` under the
//! *grouping comparator*. A grouping comparator coarser than the sort
//! order implements Hadoop's "secondary sort" pattern, which PairRange
//! uses (sort by `range.block.entityIndex`, group by `range.block`).

use std::cmp::Ordering;
use std::sync::Arc;

/// A shared, thread-safe key comparison function.
pub type KeyCmp<K> = Arc<dyn Fn(&K, &K) -> Ordering + Send + Sync>;

/// The natural `Ord`-based comparator: the default grouping, under
/// which every distinct key is its own reduce group.
pub fn natural_order<K: Ord>() -> KeyCmp<K> {
    Arc::new(|a: &K, b: &K| a.cmp(b))
}

/// Comparator derived from a key projection: keys compare equal iff
/// their projections compare equal. Handy for coarse grouping:
/// `by_projection(|k: &(u32, u32)| k.0)` groups on the first component.
pub fn by_projection<K, T, F>(f: F) -> KeyCmp<K>
where
    T: Ord,
    F: Fn(&K) -> T + Send + Sync + 'static,
{
    Arc::new(move |a: &K, b: &K| f(a).cmp(&f(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_order_matches_ord() {
        let cmp = natural_order::<u32>();
        assert_eq!(cmp(&1, &2), Ordering::Less);
        assert_eq!(cmp(&2, &2), Ordering::Equal);
        assert_eq!(cmp(&3, &2), Ordering::Greater);
    }

    #[test]
    fn projection_groups_on_component() {
        let cmp = by_projection(|k: &(u32, &str)| k.0);
        assert_eq!(cmp(&(1, "a"), &(1, "b")), Ordering::Equal);
        assert_eq!(cmp(&(1, "a"), &(2, "a")), Ordering::Less);
    }
}
