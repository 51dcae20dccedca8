//! PairRange for two sources (paper Appendix I-B).
//!
//! Entities are enumerated per block *and source*; the pair index of
//! `(x ∈ R, y ∈ S)` is `x·|Φ_i,S| + y + o(i)`. An R entity's pairs
//! form one contiguous run (its whole matrix row), an S entity's pairs
//! stride by `|Φ_i,S|` (its matrix column).

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::SourceId;
use mr_engine::engine::Job;
use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use super::TwoSourceBdm;
use crate::compare::{GroupComparer, PairComparer};
use crate::keys::{key_index, PairRangeKey, PairRangeValue};
use crate::pair_range::ranges::{RangeIndexer, RangePolicy};
use crate::pair_range::reducer::partners_in_span;
use crate::Keyed;

/// Reports the ranges relevant for entity `index` of `source` in
/// `block` as disjoint inclusive intervals `emit(first, last)` in
/// ascending order.
///
/// An R entity's pairs are one contiguous run. An S entity's pairs
/// `(0, index), (1, index), …` are `|Φ_S|` apart: no wider than the
/// narrowest range (see [`RangeIndexer::min_width`]) they skip none,
/// otherwise no two of them share one — one `range_of` per reported
/// interval either way.
pub fn for_each_relevant_interval_two_source(
    ts: &TwoSourceBdm,
    ranges: &RangeIndexer,
    block: usize,
    source: SourceId,
    index: u64,
    mut emit: impl FnMut(u64, u64),
) {
    let (nr, ns) = (ts.size_r(block), ts.size_s(block));
    if nr == 0 || ns == 0 {
        return;
    }
    let range_of_pair = |x: u64, y: u64| ranges.range_of(ts.pair_index(block, x, y));
    if source == SourceId::R {
        // Row: pairs (index, 0) .. (index, ns-1) — contiguous.
        emit(range_of_pair(index, 0), range_of_pair(index, ns - 1));
    } else if ns <= ranges.min_width() {
        // Column: pairs (0, index) .. (nr-1, index) — stride ns.
        emit(range_of_pair(0, index), range_of_pair(nr - 1, index));
    } else {
        for x in 0..nr {
            let range = range_of_pair(x, index);
            emit(range, range);
        }
    }
}

/// The two-source PairRange mapper.
#[derive(Clone)]
pub struct TwoSourcePairRangeMapper {
    ts: Arc<TwoSourceBdm>,
    policy: RangePolicy,
    state: Option<State>,
}

#[derive(Clone)]
struct State {
    partition: usize,
    next_index: Vec<u64>,
    ranges: RangeIndexer,
    source: SourceId,
}

impl TwoSourcePairRangeMapper {
    /// Creates the mapper.
    pub fn new(ts: Arc<TwoSourceBdm>, policy: RangePolicy) -> Self {
        Self {
            ts,
            policy,
            state: None,
        }
    }
}

impl Mapper for TwoSourcePairRangeMapper {
    type KIn = u32;
    type VIn = Keyed;
    type KOut = PairRangeKey;
    type VOut = PairRangeValue;
    type Side = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        let next_index = (0..self.ts.num_blocks())
            .map(|k| self.ts.entity_index_offset(k, info.task_index))
            .collect();
        self.state = Some(State {
            partition: info.task_index,
            next_index,
            ranges: RangeIndexer::new(self.ts.total_pairs(), info.num_reduce_tasks, self.policy),
            source: self.ts.source_of(info.task_index),
        });
    }

    fn map(
        &mut self,
        rank: &u32,
        keyed: &Keyed,
        ctx: &mut MapContext<PairRangeKey, PairRangeValue, ()>,
    ) {
        let state = self.state.as_mut().expect("setup ran");
        let block = self
            .ts
            .bdm()
            .block_of_rank(state.partition, *rank, &keyed.key);
        let k = block as usize;
        let index = state.next_index[k];
        state.next_index[k] += 1;
        let source = state.source;
        let emit = |first: u64, last: u64| {
            for range in first..=last {
                ctx.emit(
                    PairRangeKey {
                        range: key_index(range, "range index"),
                        block,
                        source,
                        index,
                    },
                    PairRangeValue {
                        keyed: keyed.clone(),
                        index,
                    },
                );
            }
        };
        for_each_relevant_interval_two_source(&self.ts, &state.ranges, k, source, index, emit);
    }
}

/// The two-source PairRange reducer: R entities arrive first (the key
/// sorts source `R` before `S`) in ascending index order; every S
/// entity is then paired against the slice of them whose pair lies in
/// this range — contiguous, because the pair index grows with the R
/// index for a fixed S entity.
#[derive(Clone)]
pub struct TwoSourcePairRangeReducer {
    ts: Arc<TwoSourceBdm>,
    policy: RangePolicy,
    ranges: Option<RangeIndexer>,
    driver: GroupComparer,
    /// The group's R entity indexes, by driver position.
    r_indexes: Vec<u64>,
}

impl TwoSourcePairRangeReducer {
    /// Creates the reducer.
    pub fn new(ts: Arc<TwoSourceBdm>, comparer: PairComparer, policy: RangePolicy) -> Self {
        Self {
            ts,
            policy,
            ranges: None,
            driver: GroupComparer::new(comparer),
            r_indexes: Vec::new(),
        }
    }
}

impl Reducer for TwoSourcePairRangeReducer {
    type KIn = PairRangeKey;
    type VIn = PairRangeValue;
    type KOut = MatchPair;
    type VOut = f64;

    fn setup(&mut self, info: &mr_engine::reducer::ReduceTaskInfo) {
        self.ranges = Some(RangeIndexer::new(
            self.ts.total_pairs(),
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
        let gk = *group.key();
        let block = gk.block as usize;
        let span = ranges.span(u64::from(gk.range));
        let first = group.values().next().expect("groups are non-empty");
        let side = |source: SourceId| group.iter().filter(move |(key, _)| key.source == source);
        self.driver.begin(&first.keyed.key);
        self.r_indexes.clear();
        for (_, value) in side(SourceId::R) {
            self.driver.push(&value.keyed);
            self.r_indexes.push(value.index);
        }
        debug_assert!(
            self.r_indexes.windows(2).all(|w| w[0] < w[1]),
            "sorted by entity index"
        );
        for (_, value) in side(SourceId::S) {
            let probe = self.driver.push(&value.keyed);
            let partners = partners_in_span(&self.r_indexes, &span, |x| {
                self.ts.pair_index(block, x, value.index)
            });
            self.driver
                .strip(probe, partners, false, |pair, score| ctx.emit(pair, score));
        }
        self.driver.flush(ctx);
    }
}

/// Builds the two-source PairRange job.
pub fn pair_range_two_source_job(
    ts: Arc<TwoSourceBdm>,
    comparer: PairComparer,
    policy: RangePolicy,
    reduce_tasks: usize,
) -> Job<TwoSourcePairRangeMapper, TwoSourcePairRangeReducer> {
    Job::builder(
        "er-pair-range-2src",
        TwoSourcePairRangeMapper::new(Arc::clone(&ts), policy),
        TwoSourcePairRangeReducer::new(ts, comparer, policy),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(PairRangeKey::partitioner())
    .group_by(PairRangeKey::group_cmp())
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::BlockDistributionMatrix;
    use crate::two_source::appendix_example;
    use crate::COMPARISONS;
    use er_core::blocking::BlockKey;
    use er_core::Matcher;
    use mr_engine::pool::WorkerPool;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The ranges `for_each_relevant_interval_two_source` reports, one
    /// by one in ascending order.
    fn relevant_ranges_two_source(
        ts: &TwoSourceBdm,
        ranges: &RangeIndexer,
        block: usize,
        source: SourceId,
        index: u64,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for_each_relevant_interval_two_source(ts, ranges, block, source, index, |first, last| {
            out.extend(first..=last)
        });
        out
    }

    /// The previous membership routine, kept as the oracle: one
    /// `range_of` and one set insert per pair of an S entity's column.
    fn brute_force_ranges(
        ts: &TwoSourceBdm,
        ranges: &RangeIndexer,
        block: usize,
        source: SourceId,
        index: u64,
    ) -> Vec<u64> {
        let mut out = BTreeSet::new();
        let (nr, ns) = (ts.size_r(block), ts.size_s(block));
        if nr == 0 || ns == 0 {
            return Vec::new();
        }
        if source == SourceId::R {
            let first = ranges.range_of(ts.pair_index(block, index, 0));
            let last = ranges.range_of(ts.pair_index(block, index, ns - 1));
            out.extend(first..=last);
        } else {
            for x in 0..nr {
                out.insert(ranges.range_of(ts.pair_index(block, x, index)));
            }
        }
        out.into_iter().collect()
    }

    proptest! {
        #[test]
        fn reported_ranges_equal_the_brute_force_walk(
            sizes in proptest::collection::vec((0u64..25, 0u64..25), 1..5),
            r in 1usize..=200,
            policy in prop_oneof![Just(RangePolicy::CeilDiv), Just(RangePolicy::Proportional)],
            pick in 0u64..1_000,
        ) {
            // Partition 0 is R, partition 1 is S.
            let cells = sizes.iter().enumerate().flat_map(|(k, &(nr, ns))| {
                let key = BlockKey::new(format!("b{k}"));
                [(key.clone(), 0, nr), (key, 1, ns)]
            });
            let ts = TwoSourceBdm::new(
                Arc::new(BlockDistributionMatrix::from_counts(2, cells)),
                vec![SourceId::R, SourceId::S],
            );
            let ranges = RangeIndexer::new(ts.total_pairs(), r, policy);
            for block in 0..ts.num_blocks() {
                for (source, n) in [(SourceId::R, ts.size_r(block)), (SourceId::S, ts.size_s(block))] {
                    if n == 0 {
                        continue;
                    }
                    for index in [0, 1, n.saturating_sub(2), n - 1, pick % n] {
                        if index < n {
                            prop_assert_eq!(
                                relevant_ranges_two_source(&ts, &ranges, block, source, index),
                                brute_force_ranges(&ts, &ranges, block, source, index),
                                "block {}, {:?} entity {} of {}", block, source, index, n
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slices_equal_the_per_pair_walk() {
        use crate::pair_range::reducer::partners_by_walk;
        // (|R|, |S|) per block: P = 12 + 0 + 14 + 5 = 31, so r sweeps
        // past P. Partition 0 is R, partition 1 is S.
        let sizes = [(3u64, 4u64), (2, 0), (7, 2), (1, 5)];
        let cells = sizes.iter().enumerate().flat_map(|(k, &(nr, ns))| {
            let key = BlockKey::new(format!("b{k}"));
            [(key.clone(), 0, nr), (key, 1, ns)]
        });
        let ts = TwoSourceBdm::new(
            Arc::new(BlockDistributionMatrix::from_counts(2, cells)),
            vec![SourceId::R, SourceId::S],
        );
        let mut evaluated = 0u64;
        for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
            for r in 1..=64usize {
                let ranges = RangeIndexer::new(ts.total_pairs(), r, policy);
                for range in 0..r as u64 {
                    for (block, &(nr, ns)) in sizes.iter().enumerate() {
                        // The group the mapper would send, per side.
                        let relevant = |source, n: u64| -> Vec<u64> {
                            (0..n)
                                .filter(|&x| {
                                    relevant_ranges_two_source(&ts, &ranges, block, source, x)
                                        .contains(&range)
                                })
                                .collect()
                        };
                        let r_side = relevant(SourceId::R, nr);
                        for y in relevant(SourceId::S, ns) {
                            let pair_index_with = |x| ts.pair_index(block, x, y);
                            let slice =
                                partners_in_span(&r_side, &ranges.span(range), pair_index_with);
                            let walk = partners_by_walk(&r_side, range, &ranges, pair_index_with);
                            assert_eq!(
                                slice.clone().collect::<Vec<_>>(),
                                walk,
                                "{policy:?} r={r} range={range} block={block} y={y}"
                            );
                            evaluated += slice.len() as u64;
                        }
                    }
                }
            }
        }
        assert_eq!(
            evaluated,
            2 * 64 * ts.total_pairs(),
            "every pair exactly once per (policy, r)"
        );
    }

    #[test]
    fn entity_c_is_sent_to_ranges_1_and_2() {
        // Paper: "map emits two keys (1.3.R.0) and (2.3.R.0)" for C.
        let ts = appendix_example::bdm();
        let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
        let hits = relevant_ranges_two_source(&ts, &ranges, 3, SourceId::R, 0);
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn empty_side_blocks_emit_nothing() {
        // Block y (index 2) has no S entities: F must go nowhere.
        let ts = appendix_example::bdm();
        let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
        let hits = relevant_ranges_two_source(&ts, &ranges, 2, SourceId::R, 0);
        assert!(hits.is_empty());
    }

    #[test]
    fn job_computes_exactly_the_12_cross_pairs_evenly() {
        let ts = Arc::new(appendix_example::bdm());
        let job = pair_range_two_source_job(
            Arc::clone(&ts),
            PairComparer::count_only(Arc::new(Matcher::paper_default())),
            RangePolicy::CeilDiv,
            3,
        );
        let out = job
            .run_on(
                &WorkerPool::new(1),
                appendix_example::annotated_partitions(),
            )
            .unwrap();
        assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
        assert_eq!(
            out.metrics.per_reduce_counter(COMPARISONS),
            vec![4, 4, 4],
            "paper: three ranges of size 4"
        );
    }

    #[test]
    fn results_are_cross_source_only() {
        let ts = Arc::new(appendix_example::bdm());
        let job = pair_range_two_source_job(
            Arc::clone(&ts),
            PairComparer::new(Arc::new(Matcher::paper_default())),
            RangePolicy::CeilDiv,
            3,
        );
        let out = job
            .run_on(
                &WorkerPool::new(1),
                appendix_example::annotated_partitions(),
            )
            .unwrap();
        for (pair, _) in out.records() {
            assert_ne!(pair.lo().source, pair.hi().source);
        }
    }

    /// Maps one record `(rank, key)` as partition 0's mapper, whose
    /// ranks 0..=3 are the blocks w, x, y, z.
    fn map_one(rank: u32, key: &str) {
        let ts = Arc::new(appendix_example::bdm());
        let mut mapper = TwoSourcePairRangeMapper::new(ts, RangePolicy::CeilDiv);
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 3,
            num_reduce_tasks: 3,
        };
        mapper.setup(&info);
        let keyed = Keyed::single(
            BlockKey::new(key),
            Arc::new(er_core::Entity::new(0, [("name", "X")])),
        );
        let mut ctx = MapContext::for_testing(info);
        mapper.map(&rank, &keyed, &mut ctx);
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn unknown_key_panics() {
        // An in-range rank whose block has another key.
        map_one(1, "nope");
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn rank_past_the_partitions_blocks_panics() {
        map_one(4, "z");
    }
}
