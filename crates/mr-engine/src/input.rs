//! Input partitioning (Hadoop's "input splits").
//!
//! Map task `i` reads input partition `Π_i`. The BlockSplit strategy's
//! behaviour depends on how entities are laid out across partitions
//! (the paper's Figure 11 shows an 80 % slowdown when a sorted dataset
//! confines large blocks to single partitions), so the library exposes
//! the partitioning step explicitly instead of hiding it.

/// A partitioned input: `partitions[i]` is read by map task `i`.
pub type Partitions<K, V> = Vec<Vec<(K, V)>>;

/// Splits `records` into `m` contiguous, near-equal partitions —
/// Hadoop's default behaviour of splitting a file by byte ranges.
///
/// Contiguity is what makes sorted inputs adversarial for BlockSplit:
/// a block whose entities are contiguous lands in few partitions and
/// cannot be split into many sub-blocks.
///
/// The first `len % m` partitions receive one extra record. Panics if
/// `m == 0`.
pub fn partition_evenly<K, V>(records: Vec<(K, V)>, m: usize) -> Partitions<K, V> {
    assert!(m > 0, "cannot split input into zero partitions");
    let len = records.len();
    let base = len / m;
    let extra = len % m;
    let mut partitions: Vec<Vec<(K, V)>> = Vec::with_capacity(m);
    let mut iter = records.into_iter();
    for i in 0..m {
        let take = base + usize::from(i < extra);
        partitions.push(iter.by_ref().take(take).collect());
    }
    partitions
}

/// Splits `records` round-robin: record `j` goes to partition `j % m`.
///
/// Round-robin is the best case for BlockSplit: every block is spread
/// over all partitions.
pub fn partition_round_robin<K, V>(records: Vec<(K, V)>, m: usize) -> Partitions<K, V> {
    assert!(m > 0, "cannot split input into zero partitions");
    let mut partitions: Vec<Vec<(K, V)>> = (0..m).map(|_| Vec::new()).collect();
    for (j, kv) in records.into_iter().enumerate() {
        partitions[j % m].push(kv);
    }
    partitions
}

/// Total number of records across partitions.
pub fn total_records<K, V>(partitions: &Partitions<K, V>) -> usize {
    partitions.iter().map(Vec::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<((), usize)> {
        (0..n).map(|i| ((), i)).collect()
    }

    #[test]
    fn even_partitioning_is_contiguous_and_balanced() {
        let parts = partition_evenly(records(10), 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        // Contiguity: concatenation restores the original order.
        let flat: Vec<usize> = parts.iter().flatten().map(|(_, v)| *v).collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn even_partitioning_handles_fewer_records_than_partitions() {
        let parts = partition_evenly(records(2), 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(total_records(&parts), 2);
        assert_eq!(parts[0].len(), 1);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[2].len(), 0);
    }

    #[test]
    fn round_robin_interleaves() {
        let parts = partition_round_robin(records(7), 3);
        let p0: Vec<usize> = parts[0].iter().map(|(_, v)| *v).collect();
        let p1: Vec<usize> = parts[1].iter().map(|(_, v)| *v).collect();
        let p2: Vec<usize> = parts[2].iter().map(|(_, v)| *v).collect();
        assert_eq!(p0, vec![0, 3, 6]);
        assert_eq!(p1, vec![1, 4]);
        assert_eq!(p2, vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "zero partitions")]
    fn zero_partitions_panics() {
        let _ = partition_evenly(records(3), 0);
    }

    #[test]
    fn total_records_sums_partitions() {
        let parts = partition_evenly(records(9), 4);
        assert_eq!(total_records(&parts), 9);
    }
}
