//! PairRange reduce function (Algorithm 2, lines 27–42).
//!
//! One reduce group == all entities of one block relevant to this
//! task's range, sorted by entity index. Streaming entity `e2` with
//! index `x2`, the reducer pairs it against every buffered `e1` with
//! `x1 < x2`, computes the pair's range and evaluates it only when it
//! belongs to this task.
//!
//! The listing's early exit reads `else if k > r then return` —
//! aborting the whole group. That is correct only *per stream
//! element*: pair indexes grow monotonically in `x1` for fixed `x2`
//! (column-wise enumeration), so once a pair overshoots the range, all
//! later *buffer* entries overshoot too — but the **next** stream
//! element may still own in-range pairs in column 0 (e.g. range 0 of a
//! large block: pair (1, x2) overshoots while (0, x2+1) is still in
//! range). We therefore `break` the buffer scan instead of returning;
//! `tests/pair_range_semantics.rs` constructs the counterexample and
//! the equivalence suite verifies no pair is lost or duplicated.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::MatcherCache;
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use super::enumeration::pair_index;
use super::ranges::{RangeIndexer, RangePolicy};
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{PairComparer, PairTally, PreparedRef};
use crate::keys::{PairRangeKey, PairRangeValue};

/// The PairRange reducer.
#[derive(Clone)]
pub struct PairRangeReducer {
    bdm: Arc<BlockDistributionMatrix>,
    comparer: PairComparer,
    policy: RangePolicy,
    ranges: Option<RangeIndexer>,
    cache: MatcherCache,
}

impl PairRangeReducer {
    /// Creates the reducer over the shared BDM.
    pub fn new(
        bdm: Arc<BlockDistributionMatrix>,
        comparer: PairComparer,
        policy: RangePolicy,
    ) -> Self {
        let cache = comparer.new_cache();
        Self {
            bdm,
            comparer,
            policy,
            ranges: None,
            cache,
        }
    }
}

impl Reducer for PairRangeReducer {
    type KIn = PairRangeKey;
    type VIn = PairRangeValue;
    type KOut = MatchPair;
    type VOut = f64;

    fn setup(&mut self, info: &mr_engine::reducer::ReduceTaskInfo) {
        self.ranges = Some(RangeIndexer::new(
            self.bdm.total_pairs(),
            info.num_reduce_tasks,
            self.policy,
        ));
    }

    fn reduce(
        &mut self,
        group: Group<'_, PairRangeKey, PairRangeValue>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let ranges = self.ranges.expect("setup ran");
        let key = *group.key();
        let block = key.block as usize;
        let my_range = key.range as u64;
        let block_key = group
            .values()
            .next()
            .expect("groups are non-empty")
            .keyed
            .key
            .clone();
        let mut tally = PairTally::default();
        let mut buffer: Vec<(u64, PreparedRef<'_>)> = Vec::with_capacity(group.len());
        for e2 in group.values() {
            let prepared2 = self.comparer.prepare_cached(&mut self.cache, &e2.keyed);
            for (index1, e1) in &buffer {
                debug_assert!(*index1 < e2.index, "sorted by entity index");
                let k = ranges.range_of(pair_index(&self.bdm, block, *index1, e2.index));
                if k == my_range {
                    self.comparer.compare_prepared(
                        &self.cache,
                        e1,
                        &prepared2,
                        &block_key,
                        &mut tally,
                        ctx,
                    );
                } else if k > my_range {
                    // Monotone in the buffer coordinate: nothing later
                    // in the buffer can still belong to this range.
                    break;
                }
            }
            buffer.push((e2.index, prepared2));
        }
        tally.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::PairRangeValue;
    use crate::{Keyed, COMPARISONS};
    use er_core::blocking::BlockKey;
    use er_core::{Entity, Matcher, SourceId};
    use mr_engine::reducer::ReduceTaskInfo;

    fn entry(range: u32, block: u32, index: u64) -> (PairRangeKey, PairRangeValue) {
        (
            PairRangeKey {
                range,
                block,
                source: SourceId::R,
                index,
            },
            PairRangeValue {
                keyed: Keyed::single(
                    BlockKey::new("z"),
                    Arc::new(Entity::new(index, [("title", "t")])),
                ),
                index,
            },
        )
    }

    fn reducer() -> PairRangeReducer {
        PairRangeReducer::new(
            Arc::new(crate::bdm::running_example_bdm()),
            PairComparer::count_only(Arc::new(Matcher::paper_default())),
            RangePolicy::CeilDiv,
        )
    }

    fn ctx(task: usize) -> ReduceContext<MatchPair, f64> {
        ReduceContext::for_testing(ReduceTaskInfo {
            task_index: task,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        })
    }

    #[test]
    fn range1_of_block_z_computes_pairs_10_to_13() {
        // Range 1 = [7,13]; block z (index 3) holds pairs 10..19. The
        // group receives all five z entities; only pairs 10..13 are in
        // range: (0,1) (0,2) (0,3) (0,4).
        let entries: Vec<_> = (0..5).map(|i| entry(1, 3, i)).collect();
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 1,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(1);
        red.reduce(Group::for_testing(&entries), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 4);
    }

    #[test]
    fn range2_of_block_z_computes_pairs_14_to_19() {
        // Range 2 = [14,19]: pairs (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
        // — F (index 0) is absent from this group (paper Figure 7).
        let entries: Vec<_> = (1..5).map(|i| entry(2, 3, i)).collect();
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 2,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(2);
        red.reduce(Group::for_testing(&entries), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 6);
    }

    #[test]
    fn break_keeps_later_stream_entities_alive() {
        // Within one stream element the scan may stop early, but later
        // stream elements must still be processed: total over all three
        // ranges must equal the block's 10 pairs.
        let mut total = 0;
        for range in 0..3u32 {
            let members: Vec<u64> = (0..5)
                .filter(|&i| {
                    // Replicate the mapper's membership decision.
                    let bdm = crate::bdm::running_example_bdm();
                    let ranges = RangeIndexer::new(20, 3, RangePolicy::CeilDiv);
                    super::super::mapper::relevant_ranges(&bdm, &ranges, 3, i)
                        .contains(&(range as u64))
                })
                .collect();
            if members.len() < 2 {
                continue;
            }
            let entries: Vec<_> = members.iter().map(|&i| entry(range, 3, i)).collect();
            let mut red = reducer();
            red.setup(&ReduceTaskInfo {
                task_index: range as usize,
                num_reduce_tasks: 3,
                num_map_tasks: 2,
            });
            let mut c = ctx(range as usize);
            red.reduce(Group::for_testing(&entries), &mut c);
            total += c.counters().get(COMPARISONS);
        }
        assert_eq!(total, 10, "block z's pairs, each computed exactly once");
    }
}
