//! Composite map-output keys and their partition/sort/group functions.
//!
//! Everything the paper achieves rests on composite keys routed by a
//! *component* (the partitioner sees only the reduce-task or range
//! index) while sorting and grouping see more of the key (Section
//! III-A). The key types here derive `Ord` so that the natural order
//! is exactly the paper's sort order.
//!
//! The values are what the keys leave out of an entity: nothing but
//! the [`PreparedHandle`] of its row in its map task's
//! [`crate::compare::EntityTable`], which holds the entity's reference,
//! sorted keys and prepared form once per map task. What the paper
//! annotates an entity with travels elsewhere: the input partition is
//! the handle's `arena` (a match stage's map task reads the partition
//! of its own index), the partition's source is
//! [`crate::BlockDistributionMatrix::source_of`] of it, and
//! PairRange's entity index sits in the key.

use mr_engine::partitioner::FnPartitioner;

use er_core::{PreparedHandle, SourceId};

/// Narrows an index or count into the `u32` that composite map-output
/// keys, the BDM's block index and Sorted Neighborhood's range and
/// boundary keys store.
///
/// # Panics
/// If `value` does not fit, naming `what` overflowed — a silent
/// truncation here would route records to the wrong block, range or
/// reduce task. The resolver refuses a reduce-task count past `u32`
/// before any job is built, so this fires only for a direct caller.
pub fn key_index<T>(value: T, what: &str) -> u32
where
    T: TryInto<u32> + Copy + std::fmt::Display,
{
    value.try_into().unwrap_or_else(|_| {
        panic!("{what} {value} does not fit the u32 component of a composite map-output key")
    })
}

/// Map output key of BlockSplit: `reduce_task.block.i.j`
/// (`i == j == 0` encodes an unsplit block's single match task, which
/// the paper writes `k.*`; `i == j` a sub-block task `k.i`; `i > j`
/// the Cartesian task `k.i×j`).
///
/// `Ord` sorts by `(reduce_task, block, i, j)`; partitioning uses only
/// `reduce_task`; grouping uses the entire key (one reduce call per
/// match task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockSplitKey {
    /// Target reduce task, assigned by the greedy scheduler.
    pub reduce_task: u32,
    /// Block index in the BDM.
    pub block: u32,
    /// Larger sub-block coordinate (input partition index).
    pub i: u32,
    /// Smaller sub-block coordinate.
    pub j: u32,
}

impl BlockSplitKey {
    /// Partitioner: route on the reduce-task component only.
    pub fn partitioner() -> FnPartitioner<BlockSplitKey> {
        FnPartitioner::new(|key: &BlockSplitKey, r: usize| (key.reduce_task as usize) % r)
    }
}

impl std::fmt::Display for BlockSplitKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.i == self.j {
            write!(f, "{}.{}.{}", self.reduce_task, self.block, self.i)
        } else {
            write!(
                f,
                "{}.{}.{}x{}",
                self.reduce_task, self.block, self.i, self.j
            )
        }
    }
}

/// Map output value of BlockSplit and of Basic: the entity's row in
/// its map task's table. The paper annotates a split block's entities
/// "with the partition index for use in the reduce phase"; that index
/// is the handle's `arena`.
pub type BlockSplitValue = PreparedHandle;

/// Map output key of PairRange: `range.block.source.entity_index`.
///
/// `Ord` gives the paper's sort order (sort by the entire key);
/// partitioning uses only `range`; grouping uses `(range, block)` so
/// one reduce call sees all entities of a block relevant to the range,
/// sorted by source then entity index. For one-source matching the
/// source component is constantly `R` and therefore inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairRangeKey {
    /// Target pair range == reduce task index.
    pub range: u32,
    /// Block index in the BDM.
    pub block: u32,
    /// Source side; `R` sorts before `S` so two-source reducers can
    /// buffer `R` and stream `S`.
    pub source: SourceId,
    /// Global entity index within the block (and source).
    pub index: u64,
}

impl PairRangeKey {
    /// Partitioner: route on the range component only.
    pub fn partitioner() -> FnPartitioner<PairRangeKey> {
        FnPartitioner::new(|key: &PairRangeKey, r: usize| (key.range as usize) % r)
    }

    /// Grouping comparator: `(range, block)` — coarser than the sort.
    pub fn group_cmp() -> mr_engine::comparator::KeyCmp<PairRangeKey> {
        mr_engine::comparator::by_projection(|k: &PairRangeKey| (k.range, k.block))
    }
}

impl std::fmt::Display for PairRangeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}",
            self.range, self.block, self.source, self.index
        )
    }
}

/// Map output value of PairRange: the entity's row in its map task's
/// table. The entity index the paper annotates it with ("so that the
/// pair index can be easily computed") is the key's `index`.
pub type PairRangeValue = PreparedHandle;

#[cfg(test)]
mod tests {
    use super::*;
    use mr_engine::partitioner::Partitioner;

    #[test]
    fn key_index_narrows_or_names_the_overflow() {
        assert_eq!(key_index(7usize, "number of blocks"), 7);
        assert_eq!(key_index(u64::from(u32::MAX), "range index"), u32::MAX);
        let overflow = std::panic::catch_unwind(|| key_index(1u64 << 32, "number of blocks"));
        let message = *overflow.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("number of blocks 4294967296 does not fit"),
            "{message}"
        );
    }

    /// A match stage's values are the entity's row and nothing else —
    /// next to `er_core::arena`'s pin of the handle itself.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn match_stage_values_are_the_twelve_byte_handle() {
        assert_eq!(std::mem::size_of::<BlockSplitValue>(), 12);
        assert_eq!(std::mem::size_of::<PairRangeValue>(), 12);
    }

    /// The BDM job's side record — the matching job's input — is an
    /// entity's ranks and the entity: one inline rank or a boxed slice
    /// beside the `Arc`, no key.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_side_record_is_ranks_and_entity_in_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<crate::Ranks>(), 16);
        assert_eq!(std::mem::size_of::<crate::RankedEntity>(), 24);
    }

    #[test]
    fn block_split_key_orders_like_the_paper() {
        let a = BlockSplitKey {
            reduce_task: 0,
            block: 3,
            i: 1,
            j: 0,
        };
        let b = BlockSplitKey {
            reduce_task: 0,
            block: 3,
            i: 1,
            j: 1,
        };
        let c = BlockSplitKey {
            reduce_task: 1,
            block: 0,
            i: 0,
            j: 0,
        };
        assert!(a < b, "same block: j orders");
        assert!(b < c, "reduce task dominates");
    }

    #[test]
    fn block_split_partitioner_uses_reduce_component() {
        let p = BlockSplitKey::partitioner();
        let key = BlockSplitKey {
            reduce_task: 2,
            block: 99,
            i: 7,
            j: 3,
        };
        assert_eq!(p.partition(&key, 3), 2);
        assert_eq!(p.partition(&key, 2), 0, "wraps when r shrank");
    }

    #[test]
    fn block_split_key_displays_match_task_notation() {
        let unsplit = BlockSplitKey {
            reduce_task: 0,
            block: 2,
            i: 0,
            j: 0,
        };
        let cross = BlockSplitKey {
            reduce_task: 1,
            block: 3,
            i: 1,
            j: 0,
        };
        assert_eq!(unsplit.to_string(), "0.2.0");
        assert_eq!(cross.to_string(), "1.3.1x0");
    }

    #[test]
    fn pair_range_key_sorts_range_block_source_index() {
        let mk = |range, block, source, index| PairRangeKey {
            range,
            block,
            source,
            index,
        };
        let mut keys = [
            mk(1, 3, SourceId::R, 2),
            mk(0, 0, SourceId::R, 5),
            mk(1, 2, SourceId::S, 0),
            mk(1, 2, SourceId::R, 9),
        ];
        keys.sort();
        assert_eq!(keys[0].range, 0);
        assert_eq!((keys[1].block, keys[1].source), (2, SourceId::R));
        assert_eq!((keys[2].block, keys[2].source), (2, SourceId::S));
        assert_eq!(keys[3].block, 3);
    }

    #[test]
    fn pair_range_grouping_is_by_range_and_block() {
        let cmp = PairRangeKey::group_cmp();
        let a = PairRangeKey {
            range: 1,
            block: 3,
            source: SourceId::R,
            index: 0,
        };
        let b = PairRangeKey {
            range: 1,
            block: 3,
            source: SourceId::S,
            index: 9,
        };
        let c = PairRangeKey {
            range: 1,
            block: 4,
            source: SourceId::R,
            index: 0,
        };
        assert_eq!(cmp(&a, &b), std::cmp::Ordering::Equal);
        assert_ne!(cmp(&a, &c), std::cmp::Ordering::Equal);
    }
}
