//! PairRange reduce function (Algorithm 2, lines 27–42).
//!
//! One reduce group == all entities of one block relevant to this
//! task's range, sorted by entity index. Streaming entity `e2` with
//! index `x2`, the listing pairs it against every buffered `e1` with
//! `x1 < x2`, computes the pair's range and evaluates it only when it
//! belongs to this task.
//!
//! Pair indexes grow monotonically in `x1` for fixed `x2` (column-wise
//! enumeration), so the buffered partners whose pair falls into this
//! task's range are one contiguous slice of the buffer: the reducer
//! finds its two ends by binary search (`partners_in_span`) and hands
//! the slice to the compare driver — no pair index, no range division
//! per candidate pair.
//!
//! The listing's early exit reads `else if k > r then return` —
//! aborting the whole group. That is correct only *per stream
//! element*: once a pair overshoots the range, all later *buffer*
//! entries overshoot too — but the **next** stream element may still
//! own in-range pairs in column 0 (e.g. range 0 of a large block: pair
//! (1, x2) overshoots while (0, x2+1) is still in range). The slice is
//! therefore computed per stream element;
//! `tests/pair_range_semantics.rs` constructs the counterexample and
//! the equivalence suite verifies no pair is lost or duplicated.
//!
//! Two sources (Appendix I-B): the key sorts `R` before `S`, so the
//! group is its R entities, then its S entities, each by index. Only
//! the R entities are buffered; every S entity streams against them.
//! For a fixed S entity the pair index grows with the R index, so the
//! same slice search applies.

use std::ops::Range;
use std::sync::Arc;

use er_core::pairs::{rect_cell_index, triangle_cell_index};
use er_core::result::MatchPair;
use er_core::{PreparedArena, SourceId};
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use super::ranges::{RangeIndexer, RangePolicy};
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{GroupComparer, PairComparer};
use crate::keys::{PairRangeKey, PairRangeValue};

/// The positions of `buffered` — entity indexes in ascending order —
/// whose pair with one fixed stream element lies in `span`, a range's
/// pair indexes. `pair_index_with` maps a buffered entity index to that
/// pair's index and must grow with it.
pub(crate) fn partners_in_span(
    buffered: &[u64],
    span: &Range<u64>,
    pair_index_with: impl Fn(u64) -> u64,
) -> Range<usize> {
    let lo = buffered.partition_point(|&x| pair_index_with(x) < span.start);
    let hi = lo + buffered[lo..].partition_point(|&x| pair_index_with(x) < span.end);
    lo..hi
}

/// The PairRange reducer.
#[derive(Clone)]
pub struct PairRangeReducer {
    bdm: Arc<BlockDistributionMatrix>,
    policy: RangePolicy,
    ranges: Option<RangeIndexer>,
    driver: GroupComparer,
    /// The group's entity indexes, by driver position.
    indexes: Vec<u64>,
}

impl PairRangeReducer {
    /// Creates the reducer over the shared BDM.
    pub fn new(
        bdm: Arc<BlockDistributionMatrix>,
        comparer: PairComparer,
        policy: RangePolicy,
    ) -> Self {
        Self {
            bdm,
            policy,
            ranges: None,
            driver: GroupComparer::new(comparer),
            indexes: Vec::new(),
        }
    }
}

impl Reducer for PairRangeReducer {
    type KIn = PairRangeKey;
    type VIn = PairRangeValue;
    type KOut = MatchPair;
    type VOut = f64;
    type Product = PreparedArena;

    fn setup(&mut self, info: &mr_engine::reducer::ReduceTaskInfo) {
        self.ranges = Some(RangeIndexer::new(
            self.bdm.total_pairs(),
            info.num_reduce_tasks,
            self.policy,
        ));
    }

    fn reduce(
        &mut self,
        group: Group<'_, PairRangeKey, PairRangeValue, PreparedArena>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let ranges = self.ranges.expect("setup ran");
        let key = *group.key();
        let block = key.block as usize;
        let span = ranges.span(u64::from(key.range));
        let first = group.values().next().expect("groups are non-empty");
        let arenas = group.products();
        self.driver.load(
            arenas,
            &first.keyed.key,
            group.values().map(PairRangeValue::member),
        );
        self.indexes.clear();
        self.indexes.extend(group.values().map(|v| v.index));
        let offset = self.bdm.pair_offset(block);
        let ascending = |side: &[u64]| side.windows(2).all(|w| w[0] < w[1]);
        // The geometry is the group's: one decision, then a loop whose
        // cell index is fixed.
        match self.bdm.side_sizes(block) {
            None => {
                debug_assert!(ascending(&self.indexes), "sorted by entity index");
                let n = self.bdm.size(block);
                let cell = |x1, x2| triangle_cell_index(x1, x2, n) + offset;
                self.stream(arenas, 1, |later| later, &span, cell, ctx);
            }
            Some((_, ns)) => {
                let r_side = group
                    .iter()
                    .take_while(|(key, _)| key.source == SourceId::R)
                    .count();
                let (r_indexes, s_indexes) = self.indexes.split_at(r_side);
                debug_assert!(
                    ascending(r_indexes) && ascending(s_indexes),
                    "sorted by source, then entity index"
                );
                let cell = |x, y| rect_cell_index(x, y, ns) + offset;
                self.stream(arenas, r_side, |_| r_side, &span, cell, ctx);
            }
        }
        self.driver.flush(ctx);
    }
}

impl PairRangeReducer {
    /// Evaluates each member from position `from` on against the
    /// members before position `buffered(its position)` whose pair
    /// with it — `cell(their index, its index)` — lies in `span`.
    fn stream(
        &mut self,
        arenas: &[PreparedArena],
        from: usize,
        buffered: impl Fn(usize) -> usize,
        span: &Range<u64>,
        cell: impl Fn(u64, u64) -> u64,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        for (later, &y) in self.indexes.iter().enumerate().skip(from) {
            let buffer = &self.indexes[..buffered(later)];
            let partners = partners_in_span(buffer, span, |x| cell(x, y));
            self.driver
                .strip(arenas, later, partners, false, |pair, score| {
                    ctx.emit(pair, score)
                });
        }
    }
}

/// The listing's per-pair walk, kept as the oracle
/// [`partners_in_span`] is tested against: one pair index and one
/// range division per candidate, stopping at the first overshoot.
#[cfg(test)]
pub(crate) fn partners_by_walk(
    buffered: &[u64],
    range: u64,
    ranges: &RangeIndexer,
    pair_index_with: impl Fn(u64) -> u64,
) -> Vec<usize> {
    let mut partners = Vec::new();
    for (position, &x) in buffered.iter().enumerate() {
        let k = ranges.range_of(pair_index_with(x));
        if k == range {
            partners.push(position);
        } else if k > range {
            // Monotone in the buffer coordinate: nothing later in the
            // buffer can still belong to this range.
            break;
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::EntityInterner;
    use crate::keys::PairRangeValue;
    use crate::{Keyed, COMPARISONS};
    use er_core::blocking::BlockKey;
    use er_core::{Entity, Matcher, PreparedArena};
    use mr_engine::reducer::ReduceTaskInfo;

    fn comparer() -> PairComparer {
        PairComparer::new(Arc::new(Matcher::paper_default()))
    }

    /// The group of `range` holding the entities `indices` of `block`,
    /// all prepared by one map task, and that task's arena.
    fn group(
        range: u32,
        block: u32,
        indices: impl IntoIterator<Item = u64>,
    ) -> (Vec<(PairRangeKey, PairRangeValue)>, [PreparedArena; 1]) {
        let mut interner = EntityInterner::new(&comparer());
        let entries = indices
            .into_iter()
            .map(|index| {
                let entity: crate::Ent = Arc::new(Entity::new(index, [("title", "t")]));
                let key = PairRangeKey {
                    range,
                    block,
                    source: SourceId::R,
                    index,
                };
                let value = PairRangeValue {
                    prepared: interner.intern(&entity),
                    keyed: Keyed::single(BlockKey::new("z"), entity),
                    index,
                };
                (key, value)
            })
            .collect();
        (entries, [interner.into_arena()])
    }

    fn reducer() -> PairRangeReducer {
        PairRangeReducer::new(
            Arc::new(crate::bdm::running_example_bdm()),
            comparer(),
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
    fn slices_equal_the_per_pair_walk() {
        // Blocks of 5, 1, 9 and 3 entities: P = 10 + 0 + 36 + 3 = 49,
        // so r sweeps past P; the matrix leaves the pair-less one out.
        let sizes = [5u64, 1, 9, 3];
        let bdm = BlockDistributionMatrix::from_counts(
            1,
            sizes
                .iter()
                .enumerate()
                .map(|(k, &n)| (BlockKey::new(format!("b{k}")), 0, n)),
        );
        let mut evaluated = 0u64;
        for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
            for r in 1..=64usize {
                let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
                for range in 0..r as u64 {
                    for block in 0..bdm.num_blocks() {
                        let n = bdm.size(block);
                        // The group the mapper would send: the block's
                        // entities relevant to `range`, by index.
                        let members: Vec<u64> = (0..n)
                            .filter(|&x| {
                                super::super::mapper::relevant_ranges(
                                    &bdm,
                                    &ranges,
                                    block,
                                    SourceId::R,
                                    x,
                                )
                                .contains(&range)
                            })
                            .collect();
                        for (later, &x2) in members.iter().enumerate().skip(1) {
                            let pair_index_with = |x1| bdm.pair_index(block, x1, x2);
                            let slice = partners_in_span(
                                &members[..later],
                                &ranges.span(range),
                                pair_index_with,
                            );
                            let walk = partners_by_walk(
                                &members[..later],
                                range,
                                &ranges,
                                pair_index_with,
                            );
                            assert_eq!(
                                slice.clone().collect::<Vec<_>>(),
                                walk,
                                "{policy:?} r={r} range={range} block={block} x2={x2}"
                            );
                            evaluated += slice.len() as u64;
                        }
                    }
                }
            }
        }
        assert_eq!(
            evaluated,
            2 * 64 * bdm.total_pairs(),
            "every pair exactly once per (policy, r)"
        );
    }

    #[test]
    fn range1_of_block_z_computes_pairs_10_to_13() {
        // Range 1 = [7,13]; block z (index 3) holds pairs 10..19. The
        // group receives all five z entities; only pairs 10..13 are in
        // range: (0,1) (0,2) (0,3) (0,4).
        let (entries, arenas) = group(1, 3, 0..5);
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 1,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(1);
        red.reduce(Group::for_testing(&entries).with_products(&arenas), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 4);
    }

    #[test]
    fn range2_of_block_z_computes_pairs_14_to_19() {
        // Range 2 = [14,19]: pairs (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
        // — F (index 0) is absent from this group (paper Figure 7).
        let (entries, arenas) = group(2, 3, 1..5);
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 2,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(2);
        red.reduce(Group::for_testing(&entries).with_products(&arenas), &mut c);
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
                    super::super::mapper::relevant_ranges(&bdm, &ranges, 3, SourceId::R, i)
                        .contains(&(range as u64))
                })
                .collect();
            if members.len() < 2 {
                continue;
            }
            let (entries, arenas) = group(range, 3, members);
            let mut red = reducer();
            red.setup(&ReduceTaskInfo {
                task_index: range as usize,
                num_reduce_tasks: 3,
                num_map_tasks: 2,
            });
            let mut c = ctx(range as usize);
            red.reduce(Group::for_testing(&entries).with_products(&arenas), &mut c);
            total += c.counters().get(COMPARISONS);
        }
        assert_eq!(total, 10, "block z's pairs, each computed exactly once");
    }
}
