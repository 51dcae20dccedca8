//! RepSN: boundary handling via in-map replication.
//!
//! Strategy 2 of *Parallel Sorted Neighborhood Blocking with
//! MapReduce*: besides routing each entity to its own range, the map
//! phase sends every range `q > 0` the entities at the `w − 1` global
//! positions before its start, tagged as replicas. The distribution job
//! numbered every entity with its global position ([`crate::sample`])
//! and the ranges are cut over positions ([`SnRanges`]), so a map task
//! decides from an entity's position alone which ranges need it: range
//! `q`, starting at `start_q`, needs exactly
//! `start_q − (w − 1) ≤ position < start_q`.
//! The reduce task of range `q` sees those replicas sorted strictly
//! before its own entities; it primes the sliding window with them and
//! slides into its own entities. Replica × replica pairs are never
//! compared — they were already compared in an earlier range — so
//! matches stay duplicate-free by construction. One job, no stitching,
//! exact on every range layout (thin and empty ranges included); range
//! `q` receives `min(w − 1, start_q)` replicas, so a run ships at most
//! `(r − 1)(w − 1)`, whatever the number of map tasks. As the ranges
//! hold equal window-pair shares, a range is empty — and its replicas
//! idle — only when the input has fewer than `w − 1` window pairs per
//! range.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_loadbalance::compare::{EntityInterner, EntityTable, PairComparer};
use er_loadbalance::keys::key_index;
use er_loadbalance::Ent;
use mr_engine::prelude::*;

use crate::keys::{SnEntity, SnKey, SnRanges, SN_BLOCK};
use crate::window::WindowBuffer;
use crate::{PARTITION_ENTITIES, REPLICAS};

/// Map phase: route each entity to its range and replicate it to every
/// later range whose start lies at most `w − 1` positions after it. An
/// entity is prepared once, for its original record; its replicas carry
/// the same handle.
#[derive(Clone)]
pub struct RepSnMapper {
    /// The key ranges over positions.
    ranges: Arc<SnRanges>,
    /// `w − 1`: how far before a range's start its replicas reach.
    reach: u64,
    interner: EntityInterner,
}

impl RepSnMapper {
    /// Creates the mapper over the key ranges, preparing entities for
    /// `comparer`.
    pub fn new(ranges: Arc<SnRanges>, window: usize, comparer: &PairComparer) -> Self {
        Self {
            ranges,
            reach: u64::try_from(window - 1).unwrap_or(u64::MAX),
            interner: EntityInterner::new(comparer),
        }
    }
}

impl Mapper for RepSnMapper {
    type KIn = u32;
    type VIn = Ent;
    type KOut = SnKey;
    type VOut = SnEntity;
    type Side = ();
    type Product = EntityTable;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.interner.setup(info);
    }

    fn map(&mut self, position: &u32, entity: &Ent, ctx: &mut MapContext<SnKey, SnEntity, ()>) {
        let position = *position;
        let partition = self.ranges.partition_of(position);
        let prepared = self.interner.intern(entity, &[SN_BLOCK]);
        ctx.emit(
            SnKey {
                partition: key_index(partition, "range partition index"),
                position,
            },
            SnEntity::original(Arc::clone(entity), prepared),
        );
        // Every later range starts after this position, the nearer
        // ones first; walking on while the start is within reach also
        // covers thin and empty ranges.
        for (successor, &start) in (partition + 1..).zip(&self.ranges.starts()[partition..]) {
            if start - u64::from(position) > self.reach {
                break;
            }
            ctx.add_counter(REPLICAS, 1);
            ctx.emit(
                SnKey {
                    partition: key_index(successor, "range partition index"),
                    position,
                },
                SnEntity::replica(Arc::clone(entity), prepared),
            );
        }
    }

    fn finish(&mut self, ctx: &mut MapContext<SnKey, SnEntity, ()>) {
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

/// Reduce phase. A reduce task owns one range, streamed as one group
/// per entity (grouping == sorting, so the range is never
/// materialized): first the replicas — their positions precede every
/// position of this range, so they arrive first — priming the window
/// ([`WindowBuffer`] in reducer state) with the global tail before this
/// range, then the originals sliding over it.
///
/// A task emits its matches at its end, stably sorted by pair: the
/// sort runs in parallel on the pool, and
/// [`er_core::MatchResult::from_runs`] on the coordinator only merges
/// the tasks' sorted runs.
#[derive(Clone)]
pub struct RepSnReducer {
    buffer: WindowBuffer,
    /// This task's matches, in window order until `finish`.
    matches: Vec<(MatchPair, f64)>,
    /// Original entities streamed so far.
    originals: u64,
    /// Guards the replicas-before-originals ordering invariant.
    saw_original: bool,
}

impl RepSnReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer, window: usize) -> Self {
        let buffer = WindowBuffer::new(comparer, window);
        Self {
            buffer,
            matches: Vec::new(),
            originals: 0,
            saw_original: false,
        }
    }
}

impl Reducer for RepSnReducer {
    type KIn = SnKey;
    type VIn = SnEntity;
    type KOut = MatchPair;
    type VOut = f64;
    type Product = EntityTable;

    fn setup(&mut self, _info: &ReduceTaskInfo) {
        self.buffer.clear();
        self.matches.clear();
        self.originals = 0;
        self.saw_original = false;
    }

    fn reduce(
        &mut self,
        group: Group<'_, SnKey, SnEntity, EntityTable>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let tables = group.products();
        for value in group.values() {
            if value.replica {
                debug_assert!(
                    !self.saw_original,
                    "replicas must sort strictly before originals"
                );
                self.buffer.prime(tables, value);
            } else {
                self.saw_original = true;
                self.originals += 1;
                let matches = &mut self.matches;
                self.buffer.advance(tables, value, ctx, |_, pair, score| {
                    matches.push((pair, score));
                });
            }
        }
    }

    fn finish(&mut self, ctx: &mut ReduceContext<MatchPair, f64>) {
        self.buffer.flush(ctx);
        ctx.add_counter(PARTITION_ENTITIES, self.originals);
        self.matches.sort_by_key(|&(pair, _)| pair);
        for (pair, score) in self.matches.drain(..) {
            ctx.emit(pair, score);
        }
    }
}

/// Builds the RepSN job, one reduce task per key range.
pub fn repsn_job(
    ranges: Arc<SnRanges>,
    comparer: PairComparer,
    window: usize,
) -> Job<RepSnMapper, RepSnReducer> {
    let partitions = ranges.num_ranges();
    Job::builder(
        "sn-repsn",
        RepSnMapper::new(ranges, window, &comparer),
        RepSnReducer::new(comparer, window),
    )
    .reduce_tasks(partitions)
    .partitioner(SnKey::partitioner())
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Entity, Matcher};
    use er_loadbalance::COMPARISONS;
    use mr_engine::pool::WorkerPool;

    /// One map task per slice of `tasks` (distinct labels), each
    /// entity titled by its label and annotated with the label's index
    /// among all labels — its global position.
    fn annotated(tasks: &[&[&str]]) -> Partitions<u32, Ent> {
        let mut labels: Vec<&str> = tasks.iter().flat_map(|t| t.iter().copied()).collect();
        labels.sort_unstable();
        let mut id = 0;
        tasks
            .iter()
            .map(|task| {
                task.iter()
                    .map(|title| {
                        id += 1;
                        let position = labels.binary_search(title).unwrap() as u32;
                        (position, Arc::new(Entity::new(id, [("title", *title)])))
                    })
                    .collect()
            })
            .collect()
    }

    /// Two key ranges, the second starting at `start`.
    fn two_ranges(start: u64) -> Arc<SnRanges> {
        Arc::new(SnRanges::from_starts(vec![start]))
    }

    fn job(ranges: Arc<SnRanges>, window: usize) -> Job<RepSnMapper, RepSnReducer> {
        repsn_job(
            ranges,
            PairComparer::new(Arc::new(Matcher::paper_default())),
            window,
        )
    }

    #[test]
    fn mapper_replicates_the_positions_before_each_range_start() {
        // Four ranges over positions 0..8 starting at 3, 6 and 6:
        // {0, 1, 2} | {3, 4, 5} | {} | {6, 7}. With w = 3, range 1
        // needs positions 1 and 2, and the empty range 2 and range 3
        // each need 4 and 5.
        let ranges = Arc::new(SnRanges::from_starts(vec![3, 6, 6]));
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut mapper = RepSnMapper::new(ranges, 3, &comparer);
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 4,
        };
        let mut ctx = MapContext::for_testing(info);
        mapper.setup(&info);
        for position in [5u32, 0, 4, 1, 2, 7, 3, 6] {
            let entity: Ent = Arc::new(Entity::new(u64::from(position), [("title", "t")]));
            mapper.map(&position, &entity, &mut ctx);
        }
        mapper.finish(&mut ctx);
        let mut replicas: Vec<(u32, u32)> = ctx
            .output()
            .iter()
            .filter(|(_, v)| v.replica)
            .map(|(k, v)| {
                assert_eq!(v.entity.id().0, u64::from(k.position));
                (k.partition, k.position)
            })
            .collect();
        replicas.sort_unstable();
        assert_eq!(replicas, [(1, 1), (1, 2), (2, 4), (2, 5), (3, 4), (3, 5)]);
        assert_eq!(ctx.counters().get(REPLICAS), 6);
        assert_eq!(ctx.output().len(), 8 + 6, "every original once");
    }

    #[test]
    fn replica_replica_pairs_are_never_compared() {
        // One map task, w = 4 over 2 ranges: range 0's entities cross
        // as replicas, but the total comparison count must equal the
        // single-machine window count — no replica x replica extras,
        // no misses.
        let out = job(two_ranges(2), 4)
            .run_on(
                &WorkerPool::new(1),
                annotated(&[&["a", "b", "c", "d", "e"]]),
            )
            .unwrap();
        // Global window pairs for n = 5, w = 4: 3 + 3 + 2 + 1 = 9.
        assert_eq!(out.metrics.counters.get(COMPARISONS), 9);
    }

    #[test]
    fn multi_task_replicas_reconstruct_the_global_tail() {
        // Two map tasks interleave keys of range 0; the successor
        // range must see the true global tail regardless.
        let input = annotated(&[&["a", "c"], &["b", "d", "e"]]);
        let out = job(two_ranges(2), 3)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        // Ranges: {a, b} | {c, d, e}. Global window pairs for w = 3:
        // (a,b),(a,c),(b,c),(b,d),(c,d),(c,e),(d,e) = 7.
        assert_eq!(out.metrics.counters.get(COMPARISONS), 7);
        // Range 1 starts at c: a and b cross, each from the task that
        // holds it; the reducer primes the window with both.
        assert_eq!(out.metrics.counters.get(REPLICAS), 2);
    }

    #[test]
    fn every_reduce_task_emits_its_matches_sorted_by_pair() {
        // Window order (by position) is not pair order: entity ids
        // descend while the positions ascend.
        let n = 8u32;
        let input: Partitions<u32, Ent> = vec![(0..n)
            .map(|position| {
                let id = u64::from(n - position);
                (
                    position,
                    Arc::new(Entity::new(id, [("title", "same title")])),
                )
            })
            .collect()];
        let out = job(two_ranges(4), 3)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        assert!(out.reduce_outputs.iter().all(|run| run.len() > 1));
        for run in &out.reduce_outputs {
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "{run:?}");
        }
    }

    #[test]
    fn identical_output_across_parallelism() {
        let mk_input = || annotated(&[&["ab", "aa", "ba", "bb", "ac", "bc"]]);
        let reference = job(two_ranges(3), 3)
            .run_on(&WorkerPool::new(1), mk_input())
            .unwrap()
            .reduce_outputs;
        for parallelism in [2, 4, 8] {
            let out = job(two_ranges(3), 3)
                .run_on(&WorkerPool::new(parallelism), mk_input())
                .unwrap();
            assert_eq!(out.reduce_outputs, reference);
        }
    }
}
