//! BlockSplit reduce function (Algorithm 1, lines 48–65).
//!
//! One reduce group == one match task. For a sub-block task (`i == j`)
//! the reducer streams all pairs within the group. For a Cartesian
//! task (`i ≠ j`) the paper's listing buffers the first partition's
//! entities and streams the second's against the buffer, relying on
//! Hadoop's merge delivering one partition's values contiguously. Our
//! engine gives that guarantee (stable merge in map-task order), but
//! the reducer is nonetheless written to be order-robust: it buckets
//! values by their partition — the `arena` of their handle, since a
//! match stage's map task reads the partition of its own index — and
//! computes the cross product, which is the same set of comparisons
//! under *any* interleaving.
//!
//! Between two sources (Appendix I-A) every match task — the unsplit
//! `k.*` as well as `k.i×j`, which then pairs an R with an S partition
//! — is the cross product of the group's R and S members, a member's
//! source being its partition's tag in the BDM.

use std::sync::Arc;

use er_core::result::MatchPair;
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use crate::basic::block_pairs;
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{EntityTable, GroupComparer, PairComparer};
use crate::keys::{BlockSplitKey, BlockSplitValue};

/// The BlockSplit reducer. It compares a match task's members under
/// the task's block index and reads its partitions' sources off the
/// BDM the job was planned from.
#[derive(Clone)]
pub struct BlockSplitReducer {
    bdm: Arc<BlockDistributionMatrix>,
    driver: GroupComparer,
}

impl BlockSplitReducer {
    /// Creates the reducer over the job's BDM; a source-tagged BDM
    /// restricts it to R × S pairs.
    pub fn new(bdm: Arc<BlockDistributionMatrix>, comparer: PairComparer) -> Self {
        Self {
            bdm,
            driver: GroupComparer::new(comparer),
        }
    }
}

impl Reducer for BlockSplitReducer {
    type KIn = BlockSplitKey;
    type VIn = BlockSplitValue;
    type KOut = MatchPair;
    type VOut = f64;
    type Product = EntityTable;

    fn reduce(
        &mut self,
        group: Group<'_, BlockSplitKey, BlockSplitValue, EntityTable>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let key = *group.key();
        let block = key.block;
        let sources = self.bdm.sources();
        let driver = &mut self.driver;
        let emit = |pair, score| ctx.emit(pair, score);
        if sources.is_some() || key.i == key.j {
            // Match task k.* or k.i, or any task between two sources.
            block_pairs(driver, block, &group, sources, emit);
        } else {
            // Match task k.i×j: Cartesian product of two sub-blocks.
            // Bucket by the partition — the arena — of the first value
            // seen (paper: `firstPartitionIndex`).
            let first = group.values().next().expect("groups are non-empty").arena;
            let side = |first_side: bool| {
                group
                    .values()
                    .filter(move |member| (member.arena == first) == first_side)
                    .copied()
            };
            driver.cross(group.products(), block, side(true), side(false), emit);
        }
        driver.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::EntityInterner;
    use crate::COMPARISONS;
    use er_core::{Entity, Matcher};
    use mr_engine::reducer::ReduceTaskInfo;

    fn comparer() -> PairComparer {
        PairComparer::new(Arc::new(Matcher::paper_default()))
    }

    /// Entity `id` of input `partition` in block 0 (`b`), interned by
    /// that partition's map task in `interners`.
    fn value(
        interners: &mut [EntityInterner; 2],
        id: u64,
        title: &str,
        partition: usize,
    ) -> (BlockSplitKey, BlockSplitValue) {
        let key = BlockSplitKey {
            reduce_task: 0,
            block: 0,
            i: if partition == 0 { 0 } else { 1 },
            j: 0,
        };
        let entity: crate::Ent = Arc::new(Entity::new(id, [("title", title)]));
        (key, interners[partition].intern(&entity, &[0]))
    }

    /// The two map tasks' interners.
    fn interners(comparer: &PairComparer) -> [EntityInterner; 2] {
        [0, 1].map(|task_index| {
            let mut interner = EntityInterner::new(comparer);
            interner.setup(&mr_engine::mapper::MapTaskInfo {
                task_index,
                num_map_tasks: 2,
                num_reduce_tasks: 1,
            });
            interner
        })
    }

    /// A reducer over a BDM whose block 0 is `b`.
    fn reducer() -> BlockSplitReducer {
        let bdm = BlockDistributionMatrix::from_counts(2, [("b".into(), 0, 2), ("b".into(), 1, 3)]);
        BlockSplitReducer::new(Arc::new(bdm), comparer())
    }

    fn ctx() -> ReduceContext<MatchPair, f64> {
        ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 2,
        })
    }

    #[test]
    fn sub_block_task_compares_all_pairs() {
        let mut interners = interners(&comparer());
        let entries: Vec<(BlockSplitKey, BlockSplitValue)> = (0..4)
            .map(|i| {
                let (mut k, v) = value(&mut interners, i, "same title here", 0);
                k.i = 0;
                k.j = 0;
                (k, v)
            })
            .collect();
        let tables = interners.map(EntityInterner::into_table);
        let mut c = ctx();
        reducer().reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 6, "C(4,2) pairs");
    }

    #[test]
    fn cartesian_task_compares_only_cross_pairs() {
        // 2 entities of partition 0, 3 of partition 1 -> 6 comparisons
        // (the paper's 3.0×1 match task).
        let mut interners = interners(&comparer());
        let mut entries = Vec::new();
        for (i, partition) in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)] {
            let (mut k, v) = value(&mut interners, i, "t", partition);
            k.i = 1;
            k.j = 0;
            entries.push((k, v));
        }
        let tables = interners.map(EntityInterner::into_table);
        let mut c = ctx();
        reducer().reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 6);
    }

    #[test]
    fn cartesian_task_is_order_robust() {
        // Interleave the two partitions adversarially; the comparison
        // count must not change (the paper's streaming listing would
        // miss pairs under this interleaving — see DESIGN.md).
        let mut interners = interners(&comparer());
        let mut entries = Vec::new();
        for (id, partition) in [(0, 0), (1, 1), (2, 0), (3, 1), (4, 1)] {
            let (mut k, v) = value(&mut interners, id, "t", partition);
            k.i = 1;
            k.j = 0;
            entries.push((k, v));
        }
        let tables = interners.map(EntityInterner::into_table);
        let mut c = ctx();
        reducer().reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 6, "2 x 3 cross pairs");
    }

    #[test]
    fn matches_are_emitted_for_similar_cross_pairs() {
        let mut interners = interners(&comparer());
        let mut entries = Vec::new();
        for (id, title, partition) in [(0, "abcdefghij", 0), (1, "abcdefghiX", 1)] {
            let (mut k, v) = value(&mut interners, id, title, partition);
            k.i = 1;
            entries.push((k, v));
        }
        let tables = interners.map(EntityInterner::into_table);
        let mut c = ctx();
        reducer().reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.output().len(), 1);
    }
}
