//! Two-source input (the paper's Appendix I), and pins of Appendix I
//! (Figures 15–17) on the shared strategy implementation: the worked
//! two-source example through the source-tagged BDM, BlockSplit,
//! PairRange and Basic.

use er_core::SourceId;
use mr_engine::input::Partitions;

use crate::Ent;

/// Packages two already-tagged entity sets into input partitions plus
/// the matching source-tag vector (each source split over
/// `partitions_per_source` map tasks — the `MultipleInputs` layout
/// where every input partition holds one source).
///
/// # Panics
/// If `partitions_per_source` is zero or an entity's source disagrees
/// with the set it was passed in.
pub fn two_source_input(
    r: Vec<Ent>,
    s: Vec<Ent>,
    partitions_per_source: usize,
) -> (Partitions<(), Ent>, Vec<SourceId>) {
    assert!(
        partitions_per_source > 0,
        "at least one partition per source"
    );
    let mut partitions: Partitions<(), Ent> = Vec::new();
    let mut sources = Vec::new();
    for (entities, source) in [(r, SourceId::R), (s, SourceId::S)] {
        assert!(
            entities.iter().all(|e| e.source() == source),
            "every entity must carry the source of its set"
        );
        let chunk = entities.len().div_ceil(partitions_per_source).max(1);
        let mut iter = entities.into_iter().peekable();
        for _ in 0..partitions_per_source {
            let part: Vec<((), Ent)> = iter.by_ref().take(chunk).map(|e| ((), e)).collect();
            partitions.push(part);
            sources.push(source);
        }
    }
    (partitions, sources)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use er_core::blocking::BlockKey;
    use er_core::{Entity, SourceId};

    use super::two_source_input;
    use crate::appendix_example;
    use crate::bdm::BlockDistributionMatrix;
    use crate::pair_range::ranges::{RangeIndexer, RangePolicy};

    #[test]
    fn appendix_bdm_counts() {
        let bdm = appendix_example::bdm();
        // w=0, x=1, z=2 lexicographically; y, F alone, has no pair
        // and is not in the matrix.
        assert_eq!(bdm.num_blocks(), 3);
        assert_eq!(bdm.block_index(&BlockKey::new("y")), None);
        assert_eq!(bdm.side_sizes(0), Some((2, 2)));
        assert_eq!(bdm.side_sizes(1), Some((1, 2)));
        assert_eq!(bdm.side_sizes(2), Some((2, 3)));
        assert_eq!(bdm.total_pairs(), 12, "paper: 12 overall pairs");
        // Untagged, the same cells count triangles.
        let untagged = BlockDistributionMatrix::from_tsv(3, &bdm.to_tsv()).unwrap();
        assert_eq!(untagged.side_sizes(2), None);
        assert_eq!(untagged.total_pairs(), 19, "w 6 + x 3 + z 10");
    }

    #[test]
    fn pair_offsets_skip_empty_blocks() {
        // Two R entities and no S entity: a block of the matrix (it
        // has two entities) that contributes no cross pair.
        let cells = appendix_example::LAYOUT
            .iter()
            .map(|&(_, key, partition)| (BlockKey::new(key), partition, 1))
            .chain([(BlockKey::new("y"), 0, 1)]);
        let bdm = BlockDistributionMatrix::from_counts(3, cells)
            .with_sources(appendix_example::partition_sources());
        assert_eq!(bdm.side_sizes(2), Some((2, 0)));
        assert_eq!(bdm.pair_offset(0), 0);
        assert_eq!(bdm.pair_offset(1), 4);
        assert_eq!(bdm.pair_offset(2), 6);
        assert_eq!(bdm.pair_offset(3), 6, "y contributes nothing");
        assert_eq!(bdm.total_pairs(), 12);
    }

    #[test]
    fn entity_c_ranges_match_the_paper() {
        // C ∈ R is the first entity (x = 0) of block z; its pairs are
        // 6, 7, 8. With ranges of size 4 ([0,3], [4,7], [8,11]) it
        // belongs to ranges 1 and 2 — the paper's statement. (With the
        // paper's "−1" offset the pairs would be 5,6,7 -> ranges {1}
        // only, contradicting the example.)
        let bdm = appendix_example::bdm();
        let pairs: Vec<u64> = (0..3).map(|y| bdm.pair_index(2, 0, y)).collect();
        assert_eq!(pairs, vec![6, 7, 8]);
        let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
        let hit: std::collections::BTreeSet<u64> =
            pairs.iter().map(|&p| ranges.range_of(p)).collect();
        assert_eq!(hit.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn entity_index_offsets_respect_sources() {
        let bdm = appendix_example::bdm();
        // K is the first z-entity of S (partition 1): offset 0 even
        // though R's partition 0 holds two z entities.
        assert_eq!(bdm.entity_index_offset(2, 1), 0);
        // N (partition 2) is preceded by 2 z-entities of S in Π1.
        assert_eq!(bdm.entity_index_offset(2, 2), 2);
    }

    #[test]
    #[should_panic(expected = "one source tag per input partition")]
    fn source_count_must_match_partitions() {
        let _ = BlockDistributionMatrix::from_counts(2, vec![]).with_sources(vec![SourceId::R]);
    }

    #[test]
    #[should_panic(expected = "knows only R and S")]
    fn source_tags_must_be_r_or_s() {
        let cells = vec![(BlockKey::new("a"), 0, 1)];
        let _ = BlockDistributionMatrix::from_counts(1, cells).with_sources(vec![SourceId(2)]);
    }

    #[test]
    fn pair_enumeration_is_a_bijection() {
        let bdm = appendix_example::bdm();
        let mut seen = vec![false; bdm.total_pairs() as usize];
        for k in 0..bdm.num_blocks() {
            let (nr, ns) = bdm.side_sizes(k).unwrap();
            for x in 0..nr {
                for y in 0..ns {
                    let p = bdm.pair_index(k, x, y) as usize;
                    assert!(!seen[p]);
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn two_source_input_shapes_partitions_per_source() {
        let side = |source: SourceId| -> Vec<crate::Ent> {
            (0..3)
                .map(|id| Arc::new(Entity::with_source(source, id, [("title", "t")])))
                .collect()
        };
        let (input, sources) = two_source_input(side(SourceId::R), side(SourceId::S), 2);
        assert_eq!(input.len(), 4);
        assert_eq!(
            sources,
            vec![SourceId::R, SourceId::R, SourceId::S, SourceId::S]
        );
        assert_eq!(input.iter().map(Vec::len).sum::<usize>(), 6);
    }
}

#[cfg(test)]
mod basic {
    mod tests {
        use std::sync::Arc;

        use er_core::Matcher;
        use mr_engine::pool::WorkerPool;

        use crate::appendix_example;
        use crate::basic::basic_job;
        use crate::compare::PairComparer;
        use crate::COMPARISONS;

        fn loads(reduce_tasks: usize) -> Vec<u64> {
            let job = basic_job(
                crate::running_example::blocking(),
                Some(Arc::from(appendix_example::partition_sources())),
                PairComparer::new(Arc::new(Matcher::paper_default())),
                reduce_tasks,
            );
            let out = job
                .run_on(&WorkerPool::new(1), appendix_example::entity_partitions())
                .unwrap();
            assert_eq!(out.metrics.map_output_records(), 13, "no replication");
            out.metrics.per_reduce_counter(COMPARISONS)
        }

        #[test]
        fn computes_the_12_cross_pairs() {
            assert_eq!(loads(3).iter().sum::<u64>(), 12);
        }

        #[test]
        fn blocks_stay_whole() {
            // Per-task loads must be sums of whole-block pair counts
            // ({4, 2, 0, 6} here).
            for load in loads(5) {
                assert!(
                    [0, 2, 4, 6, 8, 10, 12].contains(&load),
                    "load {load} is not a sum of whole blocks"
                );
            }
        }
    }
}

#[cfg(test)]
mod block_split {
    mod tests {
        use std::sync::Arc;

        use er_core::Matcher;
        use mr_engine::pool::WorkerPool;

        use crate::appendix_example;
        use crate::block_split::mapper::BlockSplitMapper;
        use crate::block_split::{block_split_job, create_match_tasks, TaskAssignment};
        use crate::compare::PairComparer;
        use crate::COMPARISONS;

        #[test]
        fn appendix_match_tasks() {
            // P = 12, r = 3 -> average 4. Block z (6 pairs) splits into
            // 2.1x0 (2*2 = 4) and 2.2x0 (1*2 = 2); w (4) and x (2) stay
            // whole; y has 0 pairs -> not in the matrix, no task.
            // (Paper: "0.* (4 pairs, reduce0), 3.0×1 (4 pairs,
            // reduce1), 2.* (2 pairs, reduce2), 3.0×2 (2 pairs,
            // reduce2)" — our x has block index 1 and z 2, and a task
            // names its larger partition first.)
            let tasks = create_match_tasks(&appendix_example::bdm(), 3);
            let as_tuples: Vec<(usize, usize, usize, u64)> = tasks
                .iter()
                .map(|t| (t.block, t.i, t.j, t.comparisons))
                .collect();
            assert_eq!(
                as_tuples,
                vec![(0, 0, 0, 4), (1, 0, 0, 2), (2, 1, 0, 4), (2, 2, 0, 2)]
            );
            let assignment = TaskAssignment::greedy(tasks, 3);
            assert_eq!(assignment.reduce_task_for(0, 0, 0), Some(0));
            assert_eq!(assignment.reduce_task_for(2, 1, 0), Some(1));
            assert_eq!(assignment.reduce_task_for(1, 0, 0), Some(2));
            assert_eq!(assignment.reduce_task_for(2, 2, 0), Some(2));
            assert_eq!(assignment.loads(), &[4, 4, 4]);
        }

        fn run(
            comparer: PairComparer,
        ) -> mr_engine::engine::JobOutput<er_core::result::MatchPair, f64, ()> {
            let bdm = Arc::new(appendix_example::bdm());
            block_split_job(bdm, comparer, 3)
                .run_on(
                    &WorkerPool::new(1),
                    appendix_example::annotated_partitions(),
                )
                .unwrap()
        }

        #[test]
        fn job_computes_exactly_the_12_cross_pairs() {
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
            assert_eq!(out.metrics.per_reduce_counter(COMPARISONS), vec![4, 4, 4]);
            assert_eq!(out.metrics.map_output_records(), 14);
        }

        #[test]
        fn no_same_source_comparisons() {
            // Same-source comparisons would produce R-R or S-S
            // matches; assert none appear.
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            for (pair, _) in out.records() {
                assert_ne!(
                    pair.lo().source,
                    pair.hi().source,
                    "two-source matching must only produce cross-source pairs"
                );
            }
        }

        fn map_one(rank: u32) {
            let bdm = Arc::new(appendix_example::bdm());
            let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
            let mapper = BlockSplitMapper::new(bdm, &comparer);
            crate::running_example::map_one(mapper, 3, rank);
        }

        #[test]
        #[should_panic(expected = "not present in the BDM")]
        fn rank_past_the_partitions_blocks_panics() {
            map_one(4);
        }
    }
}

#[cfg(test)]
mod pair_range {
    mod tests {
        use std::collections::BTreeSet;
        use std::sync::Arc;

        use er_core::blocking::BlockKey;
        use er_core::{Matcher, SourceId};
        use mr_engine::pool::WorkerPool;
        use proptest::prelude::*;

        use crate::appendix_example;
        use crate::bdm::BlockDistributionMatrix;
        use crate::compare::PairComparer;
        use crate::pair_range::mapper::{relevant_ranges, PairRangeMapper};
        use crate::pair_range::pair_range_job;
        use crate::pair_range::ranges::{RangeIndexer, RangePolicy};
        use crate::pair_range::reducer::{partners_by_walk, partners_in_span};
        use crate::COMPARISONS;

        /// A BDM of blocks with `(|R|, |S|)` entities each; partition 0
        /// is R, partition 1 is S. Every block needs two entities, or
        /// the matrix leaves it out.
        fn two_partition_bdm(sizes: &[(u64, u64)]) -> BlockDistributionMatrix {
            let cells = sizes.iter().enumerate().flat_map(|(k, &(nr, ns))| {
                let key = BlockKey::new(format!("b{k}"));
                [(key.clone(), 0, nr), (key, 1, ns)]
            });
            BlockDistributionMatrix::from_counts(2, cells)
                .with_sources(vec![SourceId::R, SourceId::S])
        }

        /// The previous membership routine, kept as the oracle: one
        /// `range_of` and one set insert per pair of an S entity's column.
        fn brute_force_ranges(
            bdm: &BlockDistributionMatrix,
            ranges: &RangeIndexer,
            block: usize,
            source: SourceId,
            index: u64,
        ) -> Vec<u64> {
            let mut out = BTreeSet::new();
            let (nr, ns) = bdm.side_sizes(block).unwrap();
            if nr == 0 || ns == 0 {
                return Vec::new();
            }
            if source == SourceId::R {
                let first = ranges.range_of(bdm.pair_index(block, index, 0));
                let last = ranges.range_of(bdm.pair_index(block, index, ns - 1));
                out.extend(first..=last);
            } else {
                for x in 0..nr {
                    out.insert(ranges.range_of(bdm.pair_index(block, x, index)));
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
                let sizes: Vec<_> = sizes.into_iter().filter(|&(nr, ns)| nr + ns >= 2).collect();
                let bdm = two_partition_bdm(&sizes);
                prop_assert_eq!(bdm.num_blocks(), sizes.len());
                let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
                for (block, &(nr, ns)) in sizes.iter().enumerate() {
                    for (source, n) in [(SourceId::R, nr), (SourceId::S, ns)] {
                        if n == 0 {
                            continue;
                        }
                        for index in [0, 1, n.saturating_sub(2), n - 1, pick % n] {
                            if index < n {
                                prop_assert_eq!(
                                    relevant_ranges(&bdm, &ranges, block, source, index),
                                    brute_force_ranges(&bdm, &ranges, block, source, index),
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
            // (|R|, |S|) per block: P = 12 + 0 + 14 + 5 = 31, so r sweeps
            // past P.
            let sizes = [(3u64, 4u64), (2, 0), (7, 2), (1, 5)];
            let bdm = two_partition_bdm(&sizes);
            let mut evaluated = 0u64;
            for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
                for r in 1..=64usize {
                    let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
                    for range in 0..r as u64 {
                        for (block, &(nr, ns)) in sizes.iter().enumerate() {
                            // The group the mapper would send, per side.
                            let relevant = |source, n: u64| -> Vec<u64> {
                                (0..n)
                                    .filter(|&x| {
                                        relevant_ranges(&bdm, &ranges, block, source, x)
                                            .contains(&range)
                                    })
                                    .collect()
                            };
                            // Each R entity probes the S side: its row
                            // of pairs, as the reducer walks it.
                            let s_side = relevant(SourceId::S, ns);
                            for x in relevant(SourceId::R, nr) {
                                let pair_index_with = |y| bdm.pair_index(block, x, y);
                                let slice =
                                    partners_in_span(&s_side, &ranges.span(range), pair_index_with);
                                let walk =
                                    partners_by_walk(&s_side, range, &ranges, pair_index_with);
                                assert_eq!(
                                    slice.clone().collect::<Vec<_>>(),
                                    walk,
                                    "{policy:?} r={r} range={range} block={block} x={x}"
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
        fn entity_c_is_sent_to_ranges_1_and_2() {
            // Paper: "map emits two keys (1.3.R.0) and (2.3.R.0)" for C
            // (our z has block index 2).
            let bdm = appendix_example::bdm();
            let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
            let hits = relevant_ranges(&bdm, &ranges, 2, SourceId::R, 0);
            assert_eq!(hits, vec![1, 2]);
        }

        #[test]
        fn empty_side_blocks_emit_nothing() {
            // A block of two R entities and no S entity (index 1): its
            // members must go nowhere.
            let bdm = two_partition_bdm(&[(2, 2), (2, 0), (2, 3)]);
            let ranges = RangeIndexer::new(bdm.total_pairs(), 3, RangePolicy::CeilDiv);
            for x in 0..2 {
                assert!(relevant_ranges(&bdm, &ranges, 1, SourceId::R, x).is_empty());
            }
        }

        fn run(
            comparer: PairComparer,
        ) -> mr_engine::engine::JobOutput<er_core::result::MatchPair, f64, ()> {
            let bdm = Arc::new(appendix_example::bdm());
            pair_range_job(bdm, comparer, RangePolicy::CeilDiv, 3)
                .run_on(
                    &WorkerPool::new(1),
                    appendix_example::annotated_partitions(),
                )
                .unwrap()
        }

        #[test]
        fn job_computes_exactly_the_12_cross_pairs_evenly() {
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
            assert_eq!(
                out.metrics.per_reduce_counter(COMPARISONS),
                vec![4, 4, 4],
                "paper: three ranges of size 4"
            );
            assert_eq!(out.metrics.map_output_records(), 15);
        }

        #[test]
        fn results_are_cross_source_only() {
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            for (pair, _) in out.records() {
                assert_ne!(pair.lo().source, pair.hi().source);
            }
        }

        fn map_one(rank: u32) {
            let bdm = Arc::new(appendix_example::bdm());
            let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
            let mapper = PairRangeMapper::new(bdm, RangePolicy::CeilDiv, &comparer);
            crate::running_example::map_one(mapper, 3, rank);
        }

        #[test]
        #[should_panic(expected = "not present in the BDM")]
        fn rank_past_the_partitions_blocks_panics() {
            map_one(4);
        }
    }
}
