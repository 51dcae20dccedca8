//! # er-loadbalance — BlockSplit & PairRange
//!
//! The primary contribution of *"Load Balancing for MapReduce-based
//! Entity Resolution"* (Kolb, Thor, Rahm; ICDE 2012): skew-resistant
//! redistribution of blocking-based entity resolution across MapReduce
//! reduce tasks.
//!
//! The workflow (paper Figure 2) runs two MR jobs on the same input
//! partitioning:
//!
//! 1. **BDM job** ([`bdm_job`], Algorithm 3): counts entities per
//!    (block, input partition) into the [`bdm::BlockDistributionMatrix`]
//!    — the blocks that have a pair; its reducer drops the rest — and
//!    side-writes the annotated entities `Π'_i`: each entity once,
//!    with the [`Ranks`] of its keys among its partition's keys.
//! 2. **Matching job** with one of three strategies:
//!    * [`basic`] — hash blocking keys to reduce tasks (the skew-prone
//!      baseline),
//!    * [`block_split`] — Algorithm 1: split large blocks into
//!      sub-blocks by input partition, form match tasks, assign
//!      greedily by descending size,
//!    * [`pair_range`] — Algorithm 2: enumerate all comparison pairs
//!      globally and give each reduce task an equal range.
//!
//! Keys are derived once, by the BDM job's mappers
//! ([`er_core::blocking::BlockingFunction::write_keys`]); past it a
//! block is its number in the matrix, which follows key order:
//! BlockSplit and PairRange route on it, and their match stages keep
//! an entity's block numbers for the multi-pass gate ([`compare`]).
//! Basic, which has no matrix, shuffles and keeps the keys.
//!
//! Linkage between two sources (Appendix I) is the same three
//! strategies over a source-tagged BDM, which counts a block's pairs
//! as `|Φ_k,R|·|Φ_k,S|` ([`bdm::BlockDistributionMatrix::with_sources`]);
//! [`two_source`] lays out its input, one source per partition;
//! entities without a valid blocking key are compared in further
//! stages of the same workflow ([`run_er_in`]); [`multipass`]
//! explains how the paper's future-work multi-pass blocking (any
//! [`er_core::blocking::MultiPassBlocking`]) stays duplicate free;
//! [`analysis`] computes exact
//! per-task workloads straight from the BDM (no execution) for the
//! paper-scale experiments; [`driver`] wires everything together.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod appendix_example;
pub mod basic;
pub mod bdm;
pub mod bdm_job;
pub mod block_split;
pub mod compare;
pub mod driver;
pub mod keys;
pub mod multipass;
mod null_keys;
pub mod pair_range;
pub mod running_example;
pub mod stats;
pub mod two_source;

use std::sync::Arc;

use er_core::Entity;

pub use analysis::{analyze, StrategyWorkload};
pub use bdm::BlockDistributionMatrix;
pub use driver::{run_er_in, run_match_stage, ErConfig, ErStages, MatchInput};
pub use pair_range::ranges::RangePolicy;
pub use stats::WorkloadStats;

/// Counter name used by every strategy's reducer for the number of
/// pair comparisons it performed — the workload unit the paper's load
/// balancing equalizes.
pub const COMPARISONS: &str = "er.comparisons";

/// Shared-ownership entity handle used as the MR value payload.
/// Replication (BlockSplit emits split-block entities `m` times) then
/// clones a pointer, not the record.
pub type Ent = Arc<Entity>;

/// The ranks of one entity's blocking keys among the distinct keys of
/// its input partition, ascending; derefs to `[u32]`. Ranks follow the
/// keys' hashes, not their text, so ascending ranks are not key order:
/// [`BlockDistributionMatrix::live_blocks`] sorts the blocks they
/// resolve to. Single-key blocking — nearly every entity — holds its
/// one rank inline. The BDM job numbers the keys ([`bdm_job`]); the matrix
/// turns a rank into a block
/// ([`BlockDistributionMatrix::block_of_rank`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ranks {
    /// The rank of the entity's only key.
    One(u32),
    /// The ranks of a multi-pass-blocked entity's keys.
    Many(Box<[u32]>),
}

impl std::ops::Deref for Ranks {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            Ranks::One(rank) => std::slice::from_ref(rank),
            Ranks::Many(ranks) => ranks,
        }
    }
}

impl From<&[u32]> for Ranks {
    fn from(ranks: &[u32]) -> Self {
        match ranks {
            [rank] => Ranks::One(*rank),
            _ => Ranks::Many(ranks.into()),
        }
    }
}

/// The record format of the BDM job's *additional output* `Π'_i`, i.e.
/// the matching job's input: one per entity, its keys' [`Ranks`] (in
/// hash order; none for an entity without a key, which the matching
/// job skips) and the entity. The keys themselves stay behind:
/// the matching job reads the key of every block that has a pair from
/// the matrix ([`BlockDistributionMatrix::key`]), and a key without a
/// block is shared with no other entity.
pub type RankedEntity = (Ranks, Ent);

/// True iff the smallest key the sorted key lists `a` and `b` share is
/// `current` — the smallest-common-block rule of multi-pass blocking
/// (see [`multipass`]), on any ordered key: block indices of a
/// [`BlockDistributionMatrix`], which numbers its blocks in key order,
/// or the keys themselves.
///
/// A key two entities share is held by at least two entities, so
/// dropping from either list the keys no other entity holds — what a
/// match stage's entity tables do, holding only blocks of the matrix —
/// leaves every answer unchanged.
pub(crate) fn smallest_common_key_is<K: Ord>(a: &[K], b: &[K], current: &K) -> bool {
    if let ([a], [b]) = (a, b) {
        // Single-pass blocking, i.e. nearly every pair evaluated.
        return a == b && a == current;
    }
    let mut a = a.iter();
    let mut b = b.iter();
    // Both key lists are sorted: merge-walk to the first common key.
    let mut x = a.next();
    let mut y = b.next();
    while let (Some(ka), Some(kb)) = (x, y) {
        match ka.cmp(kb) {
            std::cmp::Ordering::Equal => return ka == current,
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
        }
    }
    // No common key: the pair met in a block neither claims — a
    // framework bug; never compare.
    false
}

/// Which matching strategy the second MR job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Hash the blocking key (paper Section III, "Basic").
    Basic,
    /// Block-based load balancing (paper Section IV).
    BlockSplit,
    /// Pair-based load balancing (paper Section V).
    PairRange,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Basic => write!(f, "Basic"),
            StrategyKind::BlockSplit => write!(f, "BlockSplit"),
            StrategyKind::PairRange => write!(f, "PairRange"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::blocking::BlockKey;

    #[test]
    fn single_key_always_compares_in_its_block() {
        assert!(smallest_common_key_is(&["abc"], &["abc"], &"abc"));
        assert!(smallest_common_key_is(&[7u32], &[7], &7));
    }

    #[test]
    fn multipass_compares_only_in_smallest_common_block() {
        let (a, b) = (["aaa", "mmm"], ["aaa", "mmm", "zzz"]);
        assert!(smallest_common_key_is(&a, &b, &"aaa"));
        assert!(!smallest_common_key_is(&a, &b, &"mmm"));
        assert!(!smallest_common_key_is(&a, &b, &"zzz"));
    }

    #[test]
    fn disjoint_key_sets_never_compare() {
        assert!(!smallest_common_key_is(&["aaa"], &["bbb"], &"aaa"));
        assert!(!smallest_common_key_is(&[0u32, 2], &[1, 3], &0));
    }

    /// Every pair of non-empty key sets over a four-key alphabet, in
    /// each block either entity is in and under a key neither holds:
    /// the gate on the block indices of the matrix the two make — with
    /// or without a third entity that holds every key, so with or
    /// without their unshared keys pruned — and the gate on the keys
    /// both decide as the rule's definition does.
    #[test]
    fn smallest_common_key_on_block_indices_equals_the_text_gate() {
        const ALPHABET: [&str; 4] = ["a", "ab", "b", "z"];
        let subsets: Vec<Vec<BlockKey>> = (1u32..16)
            .map(|bits| {
                (0..4)
                    .filter(|i| bits >> i & 1 == 1)
                    .map(|i| BlockKey::new(ALPHABET[i]))
                    .collect()
            })
            .collect();
        let everything: Vec<BlockKey> = ALPHABET.iter().map(BlockKey::new).collect();
        let neither = BlockKey::new("q");
        for third in [None, Some(&everything)] {
            for a in &subsets {
                for b in &subsets {
                    let mut partitions = vec![a.clone(), b.clone()];
                    partitions.extend(third.cloned());
                    let bdm = BlockDistributionMatrix::from_key_partitions(&partitions);
                    let blocks = |keys: &[BlockKey]| -> Vec<u32> {
                        keys.iter().filter_map(|key| bdm.block_index(key)).collect()
                    };
                    let (a_blocks, b_blocks) = (blocks(a), blocks(b));
                    let smallest_shared = a.iter().find(|key| b.contains(key));
                    for current in a.iter().chain(b).chain([&neither]) {
                        let expected = smallest_shared == Some(current);
                        // A key without a block keys no group: stand in
                        // an index no entity holds.
                        let block = bdm.block_index(current).unwrap_or(bdm.num_blocks() as u32);
                        assert_eq!(
                            smallest_common_key_is(&a_blocks, &b_blocks, &block),
                            expected,
                            "blocks {a_blocks:?} / {b_blocks:?} in {block} ({a:?} / {b:?} in {current})"
                        );
                        assert_eq!(
                            smallest_common_key_is(a, b, current),
                            expected,
                            "{a:?} / {b:?} in {current}"
                        );
                    }
                }
            }
        }
    }

    /// Lists over a six-key alphabet: each entity's sorted, distinct
    /// keys.
    fn key_lists(picks: &[Vec<usize>]) -> Vec<Vec<BlockKey>> {
        picks
            .iter()
            .map(|pick| {
                let keys: std::collections::BTreeSet<BlockKey> = pick
                    .iter()
                    .map(|&k| BlockKey::new(["a", "ab", "b", "m", "z", "zz"][k % 6]))
                    .collect();
                keys.into_iter().collect()
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn smallest_common_key_is_blind_to_keys_no_other_entity_holds(
            picks in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..5), 2..8),
        ) {
            let full = key_lists(&picks);
            let mut holders = std::collections::BTreeMap::new();
            for key in full.iter().flatten() {
                *holders.entry(key.clone()).or_insert(0usize) += 1;
            }
            let filtered: Vec<Vec<BlockKey>> = full
                .iter()
                .map(|keys| keys.iter().filter(|k| holders[*k] >= 2).cloned().collect())
                .collect();
            for (a, b) in (0..full.len()).flat_map(|a| (0..full.len()).map(move |b| (a, b))) {
                if a == b {
                    continue;
                }
                // Every block both are in, and a key neither holds.
                for current in full[a].iter().chain([&BlockKey::new("q")]) {
                    proptest::prop_assert_eq!(
                        smallest_common_key_is(&full[a], &full[b], current),
                        smallest_common_key_is(&filtered[a], &filtered[b], current),
                        "{:?} / {:?} in {}", full[a], full[b], current
                    );
                }
            }
        }
    }

    #[test]
    fn ranks_hold_one_rank_inline() {
        assert_eq!(Ranks::from(&[7][..]), Ranks::One(7));
        assert_eq!(&*Ranks::from(&[1, 4, 9][..]), &[1, 4, 9]);
        assert_eq!(&*Ranks::One(3), &[3]);
    }

    #[test]
    fn strategy_kind_display() {
        assert_eq!(StrategyKind::Basic.to_string(), "Basic");
        assert_eq!(StrategyKind::BlockSplit.to_string(), "BlockSplit");
        assert_eq!(StrategyKind::PairRange.to_string(), "PairRange");
    }
}
