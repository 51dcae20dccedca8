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
//!    side-writes the annotated entities `Π'_i`: each keyed entity
//!    once, with the [`Ranks`] of its keys among its partition's keys.
//! 2. **Matching job** with one of three strategies:
//!    * [`basic`] — hash blocking keys to reduce tasks (the skew-prone
//!      baseline),
//!    * [`block_split`] — Algorithm 1: split large blocks into
//!      sub-blocks by input partition, form match tasks, assign
//!      greedily by descending size,
//!    * [`pair_range`] — Algorithm 2: enumerate all comparison pairs
//!      globally and give each reduce task an equal range.
//!
//! Linkage between two sources (Appendix I) is the same three
//! strategies over a source-tagged BDM, which counts a block's pairs
//! as `|Φ_k,R|·|Φ_k,S|` ([`bdm::BlockDistributionMatrix::with_sources`]);
//! [`two_source`] lays out its input, one source per partition;
//! [`null_keys`] composes matching for
//! entities without a valid blocking key; [`multipass`] explains how
//! the paper's future-work multi-pass blocking (any
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
pub mod null_keys;
pub mod pair_range;
pub mod running_example;
pub mod stats;
pub mod two_source;

use std::sync::Arc;

use er_core::blocking::BlockKey;
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

/// Every blocking key of one entity, sorted; derefs to `[BlockKey]`.
/// Single-pass blocking — nearly every entity — holds its one key
/// inline instead of allocating a shared list for it.
#[derive(Debug, Clone)]
pub enum KeyList {
    /// The entity's only key.
    One(BlockKey),
    /// The keys of a multi-pass-blocked entity, shared by its replicas.
    Many(Arc<[BlockKey]>),
}

impl std::ops::Deref for KeyList {
    type Target = [BlockKey];

    fn deref(&self) -> &[BlockKey] {
        match self {
            KeyList::One(key) => std::slice::from_ref(key),
            KeyList::Many(keys) => keys,
        }
    }
}

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
/// the matching job's input: one per entity with a blocking key, its
/// keys' [`Ranks`] (in hash order) and the entity. The keys themselves stay behind:
/// the matching job reads the key of every block that has a pair from
/// the matrix ([`BlockDistributionMatrix::key`]), and a key without a
/// block is shared with no other entity.
pub type RankedEntity = (Ranks, Ent);

/// An entity annotated with one of its blocking keys — a *replica*:
/// what Basic's mapper routes, the naive reference groups and
/// [`compare::PairComparer::compare`] gates.
///
/// `all_keys` carries every blocking key of the entity (length 1 for
/// single-pass blocking). Multi-pass blocking replicates the entity
/// into several blocks; reducers then compare a pair only in its
/// lexicographically smallest common block so results stay duplicate
/// free (see [`multipass`]).
#[derive(Debug, Clone)]
pub struct Keyed {
    /// The blocking key of this replica (∈ `all_keys`).
    pub key: BlockKey,
    /// All blocking keys of the entity, sorted.
    pub all_keys: KeyList,
    /// The entity itself.
    pub entity: Ent,
}

impl Keyed {
    /// Annotates an entity with a single blocking key.
    pub fn single(key: BlockKey, entity: Ent) -> Self {
        Keyed {
            all_keys: KeyList::One(key.clone()),
            key,
            entity,
        }
    }

    /// Derives every blocking key of `entity` (sorted, deduplicated)
    /// and pushes one annotated replica per key onto `out` — the
    /// shared first step of the Basic mapper, the BDM mapper and the
    /// naive reference. Returns the number pushed: zero for a keyless
    /// entity, which callers must count (never drop silently).
    pub fn derive_into(
        blocking: &dyn er_core::blocking::BlockingFunction,
        entity: &Ent,
        out: &mut Vec<Keyed>,
    ) -> usize {
        let mut keys = blocking.keys(entity);
        if keys.len() <= 1 {
            // Single-pass blocking, i.e. nearly every entity: nothing
            // to sort, no shared key list to build.
            let only = keys.pop().map(|key| Keyed::single(key, Arc::clone(entity)));
            let pushed = usize::from(only.is_some());
            out.extend(only);
            return pushed;
        }
        keys.sort();
        keys.dedup();
        let all: Arc<[BlockKey]> = Arc::from(keys);
        out.extend(all.iter().map(|key| Keyed {
            key: key.clone(),
            all_keys: KeyList::Many(Arc::clone(&all)),
            entity: Arc::clone(entity),
        }));
        all.len()
    }

    /// Annotates one replica of a multi-pass-blocked entity.
    ///
    /// # Panics
    /// If `key` is not contained in `all_keys`.
    pub fn replica(key: BlockKey, all_keys: Arc<[BlockKey]>, entity: Ent) -> Self {
        assert!(
            all_keys.contains(&key),
            "replica key {key} missing from the entity's key set"
        );
        Keyed {
            key,
            all_keys: KeyList::Many(all_keys),
            entity,
        }
    }

    /// True iff this pair should be compared in `current` block: the
    /// smallest common key of the two entities must be `current`
    /// (trivially true for single-pass blocking).
    pub fn should_compare_in(&self, other: &Keyed, current: &BlockKey) -> bool {
        smallest_common_key_is(&self.all_keys, &other.all_keys, current)
    }
}

/// True iff the smallest key the sorted key lists `a` and `b` share is
/// `current` — the smallest-common-block rule behind
/// [`Keyed::should_compare_in`], on bare key lists.
///
/// A key two entities share is held by at least two entities, so
/// dropping from either list the keys no other entity holds — what a
/// match stage's entity tables do, reading keys only of blocks in the
/// matrix — leaves every answer unchanged.
pub(crate) fn smallest_common_key_is(a: &[BlockKey], b: &[BlockKey], current: &BlockKey) -> bool {
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

    fn keyed(keys: &[&str], replica: &str) -> Keyed {
        let all: Vec<BlockKey> = keys.iter().map(BlockKey::new).collect();
        Keyed::replica(
            BlockKey::new(replica),
            Arc::from(all.into_boxed_slice()),
            Arc::new(Entity::new(1, [("title", "t")])),
        )
    }

    #[test]
    fn single_key_always_compares_in_its_block() {
        let a = Keyed::single(BlockKey::new("abc"), Arc::new(Entity::new(1, [("t", "x")])));
        let b = Keyed::single(BlockKey::new("abc"), Arc::new(Entity::new(2, [("t", "y")])));
        assert!(a.should_compare_in(&b, &BlockKey::new("abc")));
    }

    #[test]
    fn multipass_compares_only_in_smallest_common_block() {
        let a = keyed(&["aaa", "mmm"], "mmm");
        let b = keyed(&["aaa", "mmm", "zzz"], "mmm");
        assert!(a.should_compare_in(&b, &BlockKey::new("aaa")));
        assert!(!a.should_compare_in(&b, &BlockKey::new("mmm")));
        assert!(!a.should_compare_in(&b, &BlockKey::new("zzz")));
    }

    #[test]
    fn disjoint_key_sets_never_compare() {
        let a = keyed(&["aaa"], "aaa");
        let b = keyed(&["bbb"], "bbb");
        assert!(!a.should_compare_in(&b, &BlockKey::new("aaa")));
    }

    #[test]
    #[should_panic(expected = "missing from the entity's key set")]
    fn replica_key_must_be_member() {
        let _ = keyed(&["aaa"], "zzz");
    }

    #[test]
    fn derive_into_appends_one_replica_per_distinct_key() {
        use er_core::blocking::{AttributeBlocking, MultiPassBlocking, PrefixBlocking};
        let two_pass = MultiPassBlocking::new(vec![
            Arc::new(AttributeBlocking::new("brand")),
            Arc::new(PrefixBlocking::new("title", 1)),
        ]);
        let entity = |attributes: &[(&str, &str)]| -> Ent {
            Arc::new(Entity::new(1, attributes.iter().copied()))
        };
        let mut out = Vec::new();
        assert_eq!(
            Keyed::derive_into(
                &two_pass,
                &entity(&[("title", "w x"), ("brand", "z")]),
                &mut out
            ),
            2
        );
        assert_eq!(
            Keyed::derive_into(&two_pass, &entity(&[("name", "keyless")]), &mut out),
            0
        );
        assert_eq!(
            Keyed::derive_into(&two_pass, &entity(&[("brand", "a")]), &mut out),
            1
        );
        let keys = |keyed: &Keyed| -> Vec<String> {
            keyed.all_keys.iter().map(|k| k.to_string()).collect()
        };
        let seen: Vec<(String, Vec<String>)> =
            out.iter().map(|k| (k.key.to_string(), keys(k))).collect();
        let both = vec!["w".to_string(), "z".to_string()];
        assert_eq!(
            seen,
            vec![
                ("w".to_string(), both.clone()),
                ("z".to_string(), both),
                ("a".to_string(), vec!["a".to_string()]),
            ]
        );
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
