//! PairRange reduce function (Algorithm 2, lines 27–42).
//!
//! One reduce group == all entities of one block relevant to this
//! task's range, sorted by entity index. The listing streams entity
//! `e2` with index `x2` against every buffered `e1` with `x1 < x2` —
//! row by row — computes the pair's range and evaluates the pair only
//! when it belongs to this task.
//!
//! The reducer walks the same pairs *column by column*, as Algorithm 2
//! enumerates them: each member in turn is the *probe* — the pair's
//! smaller index `x1` — and its pairs with the later members have
//! consecutive pair indexes. The later members whose pair falls into
//! this task's range are therefore one contiguous run: the reducer
//! finds its two ends by binary search (`partners_in_span`) and hands
//! probe and run to the compare driver as one strip, the probe as the
//! pair's first entity — no pair index, no range division per
//! candidate pair. A range is a tail of one column, whole columns and
//! the head of one more, so a group costs a few long strips where the
//! row walk cut it into many short ones. The pairs, their gates,
//! counts, score bits and `(x1, x2)` argument order are the row walk's.
//!
//! The listing's early exit reads `else if k > r then return` —
//! aborting the whole group. Row by row that is correct only *per
//! stream element*: the **next** stream element may still own in-range
//! pairs in column 0 (e.g. range 0 of a large block: pair (1, x2)
//! overshoots while (0, x2+1) is still in range);
//! `tests/pair_range_semantics.rs` constructs the counterexample. It
//! applies per column instead: every pair of a later column lies past
//! every pair of an earlier one, so the first column that starts past
//! the range ends the group.
//!
//! Two sources (Appendix I-B): the key sorts `R` before `S`, so the
//! group is its R entities, then its S entities, each by index. Each
//! R entity probes the S entities: for a fixed R entity the pair index
//! grows with the S index, and a later R entity's pairs all lie past
//! an earlier one's, so the same run search and early exit apply.

use std::ops::Range;
use std::sync::Arc;

use er_core::pairs::{rect_cell_index, triangle_cell_index};
use er_core::result::MatchPair;
use er_core::SourceId;
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use super::ranges::{RangeIndexer, RangePolicy};
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{EntityTable, GroupComparer, PairComparer};
use crate::keys::{PairRangeKey, PairRangeValue};

/// The positions of `later` — entity indexes in ascending order — whose
/// pair with one fixed probe lies in `span`, a range's pair indexes.
/// `pair_index_with` maps an entity index of `later` to that pair's
/// index and must grow with it.
pub(crate) fn partners_in_span(
    later: &[u64],
    span: &Range<u64>,
    pair_index_with: impl Fn(u64) -> u64,
) -> Range<usize> {
    let lo = later.partition_point(|&x| pair_index_with(x) < span.start);
    let hi = lo + later[lo..].partition_point(|&x| pair_index_with(x) < span.end);
    lo..hi
}

/// The column walk over a group's entity `indexes`: for each probe
/// position in `probes`, in order, the run of positions from
/// `partners_from(probe)` on whose pair with the probe —
/// `cell(probe's index, partner's index)` — lies in `span`, handed to
/// `visit(probe, run)` when not empty. `cell` must grow with its second
/// argument, and every pair of a later probe must lie past every pair
/// of an earlier one: the walk ends at the first probe whose first
/// partner's pair lies past the span.
pub(crate) fn for_each_column(
    indexes: &[u64],
    probes: Range<usize>,
    partners_from: impl Fn(usize) -> usize,
    span: &Range<u64>,
    cell: impl Fn(u64, u64) -> u64,
    mut visit: impl FnMut(usize, Range<usize>),
) {
    for probe in probes {
        let x = indexes[probe];
        let from = partners_from(probe);
        let later = &indexes[from..];
        let Some(&first) = later.first() else {
            continue;
        };
        if cell(x, first) >= span.end {
            // This column, and every later one, lies past the span.
            return;
        }
        let run = partners_in_span(later, span, |y| cell(x, y));
        if !run.is_empty() {
            visit(probe, from + run.start..from + run.end);
        }
    }
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
    type Product = EntityTable;

    fn setup(&mut self, info: &mr_engine::reducer::ReduceTaskInfo) {
        self.ranges = Some(RangeIndexer::new(
            self.bdm.total_pairs(),
            info.num_reduce_tasks,
            self.policy,
        ));
    }

    fn reduce(
        &mut self,
        group: Group<'_, PairRangeKey, PairRangeValue, EntityTable>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let ranges = self.ranges.expect("setup ran");
        let key = *group.key();
        let block = key.block as usize;
        let span = ranges.span(u64::from(key.range));
        let tables = group.products();
        let driver = &mut self.driver;
        driver.load(tables, key.block, group.values().copied());
        self.indexes.clear();
        self.indexes.extend(group.iter().map(|(key, _)| key.index));
        let offset = self.bdm.pair_offset(block);
        let ascending = |side: &[u64]| side.windows(2).all(|w| w[0] < w[1]);
        let strip = |probe, run| {
            driver.strip(tables, probe, run, true, |pair, score| {
                ctx.emit(pair, score)
            })
        };
        // The geometry is the group's: one decision, then a walk whose
        // cell index is fixed.
        let members = self.indexes.len();
        match self.bdm.side_sizes(block) {
            None => {
                debug_assert!(ascending(&self.indexes), "sorted by entity index");
                let n = self.bdm.size(block);
                let cell = |x1, x2| triangle_cell_index(x1, x2, n) + offset;
                for_each_column(&self.indexes, 0..members, |p| p + 1, &span, cell, strip);
            }
            Some((_, ns)) => {
                let r_side = group
                    .iter()
                    .take_while(|(key, _)| key.source == SourceId::R)
                    .count();
                debug_assert!(
                    ascending(&self.indexes[..r_side]) && ascending(&self.indexes[r_side..]),
                    "sorted by source, then entity index"
                );
                let cell = |x, y| rect_cell_index(x, y, ns) + offset;
                for_each_column(&self.indexes, 0..r_side, |_| r_side, &span, cell, strip);
            }
        }
        self.driver.flush(ctx);
    }
}

/// The listing's per-pair walk, kept as the oracle
/// [`for_each_column`] is tested against: one pair index and one range
/// division per candidate partner in `later`, stopping at the first
/// overshoot.
#[cfg(test)]
pub(crate) fn partners_by_walk(
    later: &[u64],
    range: u64,
    ranges: &RangeIndexer,
    pair_index_with: impl Fn(u64) -> u64,
) -> Vec<usize> {
    let mut partners = Vec::new();
    for (position, &y) in later.iter().enumerate() {
        let k = ranges.range_of(pair_index_with(y));
        if k == range {
            partners.push(position);
        } else if k > range {
            // Monotone along the column: nothing later in it can still
            // belong to this range.
            break;
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::EntityInterner;
    use crate::pair_range::mapper::relevant_ranges;
    use crate::COMPARISONS;
    use er_core::{Entity, Matcher};
    use mr_engine::reducer::ReduceTaskInfo;

    fn comparer() -> PairComparer {
        PairComparer::new(Arc::new(Matcher::paper_default()))
    }

    /// The group of `range` holding the entities `indices` of the
    /// running example's `block`, all prepared by one map task, and
    /// that task's table.
    fn group(
        range: u32,
        block: u32,
        indices: impl IntoIterator<Item = u64>,
    ) -> (Vec<(PairRangeKey, PairRangeValue)>, [EntityTable; 1]) {
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
                (key, interner.intern(&entity, &[block]))
            })
            .collect();
        (entries, [interner.into_table()])
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

    /// The column walk over every group the mapper would send, in both
    /// geometries, against the listing's per-pair walk of each probe's
    /// column — the walk's early exit included, since the oracle visits
    /// every probe — and every pair evaluated exactly once.
    #[test]
    fn slices_equal_the_per_pair_walk() {
        let block = |k: usize| format!("b{k}").as_str().into();
        // Blocks of 5, 1, 9 and 3 entities: P = 10 + 0 + 36 + 3 = 49;
        // the matrix leaves the pair-less one out.
        let one_source = BlockDistributionMatrix::from_counts(
            1,
            [5u64, 1, 9, 3]
                .iter()
                .enumerate()
                .map(|(k, &n)| (block(k), 0, n)),
        );
        // |R| × |S| blocks of 3 × 4, 2 × 5, 1 × 0 and 6 × 1 over an R
        // and an S partition: P = 12 + 10 + 0 + 6 = 28.
        let two_sources = BlockDistributionMatrix::from_counts(
            2,
            [(3, 4), (2, 5), (1, 0), (6, 1)]
                .into_iter()
                .enumerate()
                .flat_map(|(k, (nr, ns))| [(block(k), 0, nr), (block(k), 1, ns)]),
        )
        .with_sources(vec![SourceId::R, SourceId::S]);
        for bdm in [one_source, two_sources] {
            let mut evaluated = 0u64;
            for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
                // r sweeps past P.
                for r in 1..=64usize {
                    let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
                    for range in 0..r as u64 {
                        for k in 0..bdm.num_blocks() {
                            evaluated += check_group(&bdm, &ranges, range, k);
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
    }

    /// Walks the group of `range` in block `k` — the entities the mapper
    /// sends there, R before S — against the per-pair oracle; returns
    /// the pairs walked.
    fn check_group(
        bdm: &BlockDistributionMatrix,
        ranges: &RangeIndexer,
        range: u64,
        k: usize,
    ) -> u64 {
        let members = |source, n| {
            (0..n).filter(move |&x| relevant_ranges(bdm, ranges, k, source, x).contains(&range))
        };
        let (indexes, r_side): (Vec<u64>, Option<usize>) = match bdm.side_sizes(k) {
            None => (members(SourceId::R, bdm.size(k)).collect(), None),
            Some((nr, ns)) => {
                let mut indexes: Vec<u64> = members(SourceId::R, nr).collect();
                let r_side = indexes.len();
                indexes.extend(members(SourceId::S, ns));
                (indexes, Some(r_side))
            }
        };
        let (probes, partners_from): (Range<usize>, Box<dyn Fn(usize) -> usize>) = match r_side {
            None => (0..indexes.len(), Box::new(|p| p + 1)),
            Some(r_side) => (0..r_side, Box::new(move |_| r_side)),
        };
        let cell = |x, y| bdm.pair_index(k, x, y);
        let mut walked = Vec::new();
        for_each_column(
            &indexes,
            probes.clone(),
            &partners_from,
            &ranges.span(range),
            cell,
            |probe, run| walked.push((probe, run.collect::<Vec<_>>())),
        );
        let expected: Vec<(usize, Vec<usize>)> = probes
            .map(|probe| {
                let from = partners_from(probe);
                let x = indexes[probe];
                let walk = partners_by_walk(&indexes[from..], range, ranges, |y| cell(x, y));
                (probe, walk.into_iter().map(|q| from + q).collect())
            })
            .filter(|(_, run): &(usize, Vec<usize>)| !run.is_empty())
            .collect();
        assert_eq!(walked, expected, "range {range} of block {k}, {ranges:?}");
        walked.iter().map(|(_, run)| run.len() as u64).sum()
    }

    #[test]
    fn range1_of_block_z_computes_pairs_10_to_13() {
        // Range 1 = [7,13]; block z (index 3) holds pairs 10..19. The
        // group receives all five z entities; only pairs 10..13 are in
        // range: (0,1) (0,2) (0,3) (0,4).
        let (entries, tables) = group(1, 3, 0..5);
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 1,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(1);
        red.reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 4);
    }

    #[test]
    fn range2_of_block_z_computes_pairs_14_to_19() {
        // Range 2 = [14,19]: pairs (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
        // — F (index 0) is absent from this group (paper Figure 7).
        let (entries, tables) = group(2, 3, 1..5);
        let mut red = reducer();
        red.setup(&ReduceTaskInfo {
            task_index: 2,
            num_reduce_tasks: 3,
            num_map_tasks: 2,
        });
        let mut c = ctx(2);
        red.reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 6);
    }

    #[test]
    fn break_keeps_later_stream_entities_alive() {
        // A column's run may stop short of the block's end, and the
        // walk stops at the first column past the range, yet over all
        // three ranges every one of the block's 10 pairs is computed
        // exactly once.
        let mut total = 0;
        for range in 0..3u32 {
            let members: Vec<u64> = (0..5)
                .filter(|&i| {
                    // Replicate the mapper's membership decision.
                    let bdm = crate::bdm::running_example_bdm();
                    let ranges = RangeIndexer::new(20, 3, RangePolicy::CeilDiv);
                    relevant_ranges(&bdm, &ranges, 3, SourceId::R, i).contains(&(range as u64))
                })
                .collect();
            if members.len() < 2 {
                continue;
            }
            let (entries, tables) = group(range, 3, members);
            let mut red = reducer();
            red.setup(&ReduceTaskInfo {
                task_index: range as usize,
                num_reduce_tasks: 3,
                num_map_tasks: 2,
            });
            let mut c = ctx(range as usize);
            red.reduce(Group::for_testing(&entries).with_products(&tables), &mut c);
            total += c.counters().get(COMPARISONS);
        }
        assert_eq!(total, 10, "block z's pairs, each computed exactly once");
    }
}
