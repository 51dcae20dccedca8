//! RepSN: boundary handling via in-map replication.
//!
//! Strategy 2 of *Parallel Sorted Neighborhood Blocking with
//! MapReduce*: each map task — which knows the range partitioning —
//! additionally sends, to every range `q > 0`, its last `w − 1`
//! entities *before* `q` (from whichever earlier ranges they come),
//! tagged as replicas. Every entity among the global last `w − 1`
//! before `q` is also among its own task's last `w − 1` before `q`, so
//! the reduce task of range `q` sees (sorted strictly before its own
//! entities) a superset of that global tail; it primes the sliding
//! window with the greatest `w − 1` replicas and slides into its own
//! entities. Replica × replica pairs are never compared — they were
//! already compared in an earlier range — so matches stay
//! duplicate-free by construction. One job, no stitching, exact on
//! every range layout (thin and empty ranges included); the cost is
//! at most `(w − 1) · m` replicated entities per boundary.
//!
//! The mapper orders and routes by the sort-key rank the distribution
//! job annotated each entity with: its per-range tails hold
//! `(rank, entity, handle)` entries, and an entity that a full tail
//! would evict at once — its rank below the tail's least — never
//! enters it.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::sortkey::RangePartitioner;
use er_core::PreparedHandle;
use er_loadbalance::compare::{EntityInterner, EntityTable, PairComparer};
use er_loadbalance::keys::key_index;
use er_loadbalance::{Ent, KeyList};
use mr_engine::prelude::*;

use crate::keys::{bottom_keys, SnEntity, SnKey};
use crate::window::WindowBuffer;
use crate::{PARTITION_ENTITIES, REPLICAS};

/// A tail entry: an entity's sort-key rank, the entity, and the handle
/// its original was emitted with (a replica reuses its original's
/// prepared form).
type TailEntry = (u32, Ent, PreparedHandle);

/// Map phase: route each entity to its range and replicate, to each
/// range, this task's last `w − 1` entities before it. An entity is
/// prepared once, for its original record; its replicas carry the same
/// handle.
#[derive(Clone)]
pub struct RepSnMapper {
    /// The key ranges in rank space.
    partitioner: Arc<RangePartitioner<u32>>,
    window: usize,
    /// Per range: this task's last `w − 1` entities of it, kept
    /// sorted ascending by `(rank, arrival)` — the same tie order the
    /// shuffle produces, so the replica stream is a faithful slice of
    /// the global order.
    tails: Vec<Vec<TailEntry>>,
    interner: EntityInterner,
    /// The key list every entity is interned with.
    keys: KeyList,
}

impl RepSnMapper {
    /// Creates the mapper over the distribution job's range boundaries
    /// in rank space, preparing entities for `comparer`.
    pub fn new(
        partitioner: Arc<RangePartitioner<u32>>,
        window: usize,
        comparer: &PairComparer,
    ) -> Self {
        Self {
            partitioner,
            window,
            tails: Vec::new(),
            interner: EntityInterner::new(comparer),
            keys: bottom_keys(),
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
        self.tails = vec![Vec::new(); self.partitioner.num_partitions()];
        self.interner.setup(info);
        self.keys = bottom_keys();
    }

    fn map(&mut self, rank: &u32, entity: &Ent, ctx: &mut MapContext<SnKey, SnEntity, ()>) {
        let rank = *rank;
        let partition = self.partitioner.partition_of(&rank);
        let prepared = self.interner.intern(entity, &self.keys);
        ctx.emit(
            SnKey {
                partition: key_index(partition, "range partition index"),
                rank,
            },
            SnEntity::original(Arc::clone(entity), prepared),
        );
        if partition + 1 >= self.tails.len() {
            return; // the last range has no successor
        }
        let tail = &mut self.tails[partition];
        let capacity = self.window - 1;
        // A full tail whose least entry outranks this entity would
        // evict it at once. An equal rank still enters: it arrived
        // later, so it sorts after that entry.
        if tail.len() == capacity && rank < tail[0].0 {
            return;
        }
        // Insert after the run of equal ranks (stable by arrival), cap
        // at the last w − 1.
        let pos = tail.partition_point(|&(r, _, _)| r <= rank);
        tail.insert(pos, (rank, Arc::clone(entity), prepared));
        if tail.len() > capacity {
            tail.remove(0);
        }
    }

    fn finish(&mut self, ctx: &mut MapContext<SnKey, SnEntity, ()>) {
        // Range `p + 1` receives the last `w − 1` entities of ranges
        // `0..=p`: a running carry over the per-range tails, which
        // reaches past thin and empty ranges.
        let mut carry: Vec<TailEntry> = Vec::new();
        let successors = self.tails.len().saturating_sub(1);
        for (partition, tail) in self.tails.iter_mut().take(successors).enumerate() {
            carry.append(tail);
            carry.drain(..carry.len().saturating_sub(self.window - 1));
            for &(rank, ref entity, prepared) in &carry {
                ctx.add_counter(REPLICAS, 1);
                ctx.emit(
                    SnKey {
                        partition: key_index(partition + 1, "range partition index"),
                        rank,
                    },
                    SnEntity::replica(Arc::clone(entity), prepared),
                );
            }
        }
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

/// Reduce phase. A reduce task owns one range, streamed as one small
/// group per distinct sort-key rank (grouping == sorting, so the range
/// is never materialized): first the replica groups — their ranks are
/// strictly smaller than every original rank of this range, so they
/// arrive first — priming the window ([`WindowBuffer`] in reducer
/// state; priming keeps only the last `w − 1`, which is exactly the
/// global tail before this range), then the originals sliding over
/// it.
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

/// Builds the RepSN job over `partitions` key ranges, `partitioner`
/// being those ranges in rank space.
pub fn repsn_job(
    partitioner: Arc<RangePartitioner<u32>>,
    comparer: PairComparer,
    window: usize,
    partitions: usize,
) -> Job<RepSnMapper, RepSnReducer> {
    Job::builder(
        "sn-repsn",
        RepSnMapper::new(partitioner, window, &comparer),
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

    /// One map task per slice of `tasks`, each entity titled by its
    /// label and annotated with the label's rank among all labels.
    fn annotated(tasks: &[&[&str]]) -> Partitions<u32, Ent> {
        let mut labels: Vec<&str> = tasks.iter().flat_map(|t| t.iter().copied()).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut id = 0;
        tasks
            .iter()
            .map(|task| {
                task.iter()
                    .map(|title| {
                        id += 1;
                        let rank = labels.binary_search(title).unwrap() as u32;
                        (rank, Arc::new(Entity::new(id, [("title", *title)])))
                    })
                    .collect()
            })
            .collect()
    }

    /// Two key ranges over ranks `0..ranks`, cut at the median.
    fn two_ranges(ranks: u32) -> Arc<RangePartitioner<u32>> {
        Arc::new(RangePartitioner::from_sample((0..ranks).collect(), 2))
    }

    fn job(
        partitioner: Arc<RangePartitioner<u32>>,
        window: usize,
    ) -> Job<RepSnMapper, RepSnReducer> {
        repsn_job(
            partitioner,
            PairComparer::new(Arc::new(Matcher::paper_default())),
            window,
            2,
        )
    }

    #[test]
    fn mapper_replicates_per_range_tails_to_the_successor() {
        let out = job(two_ranges(4), 3)
            .run_on(&WorkerPool::new(1), annotated(&[&["a", "b", "c", "d"]]))
            .unwrap();
        // Ranges: {a, b} and {c, d}; w - 1 = 2 replicas cross.
        assert_eq!(out.metrics.counters.get(REPLICAS), 2);
        assert_eq!(out.metrics.map_output_records(), 6, "4 originals + 2");
        let loads = out.metrics.per_reduce_counter(PARTITION_ENTITIES);
        assert_eq!(loads, vec![2, 2], "originals per range");
        // w = 3 over the global order a,b,c,d: pairs (a,b), (a,c),
        // (b,c), (b,d), (c,d).
        assert_eq!(out.metrics.counters.get(COMPARISONS), 5);
    }

    #[test]
    fn replica_replica_pairs_are_never_compared() {
        // One map task, w = 4 over 2 ranges: range 0's entities cross
        // as replicas, but the total comparison count must equal the
        // single-machine window count — no replica x replica extras,
        // no misses.
        let out = job(two_ranges(4), 4)
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
        let out = job(two_ranges(4), 3)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        // Ranges: {a, b} | {c, d, e}. Global window pairs for w = 3:
        // (a,b),(a,c),(b,c),(b,d),(c,d),(c,e),(d,e) = 7.
        assert_eq!(out.metrics.counters.get(COMPARISONS), 7);
        // Each task replicates its own per-range tail (task 0: a;
        // task 1: b); the reducer primes the window with their union.
        assert_eq!(out.metrics.counters.get(REPLICAS), 2);
    }

    #[test]
    fn a_full_tail_skips_lower_ranks_and_keeps_equal_ones() {
        // w = 3: a tail of two. Ranks 2, 3 fill range 0's tail; 1 would
        // be evicted at once and is skipped; a second 2 arrives later
        // than the first, so it sorts after it and evicts it.
        let partitioner = Arc::new(RangePartitioner::from_counts([(3u32, 1), (4, 1)], 2));
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut mapper = RepSnMapper::new(partitioner, 3, &comparer);
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 1,
            num_reduce_tasks: 2,
        };
        let mut ctx = MapContext::for_testing(info);
        mapper.setup(&info);
        for (id, rank) in [2u32, 3, 1, 2].into_iter().enumerate() {
            let entity: Ent = Arc::new(Entity::new(id as u64, [("title", "t")]));
            mapper.map(&rank, &entity, &mut ctx);
        }
        mapper.finish(&mut ctx);
        let replicas: Vec<(SnKey, u64)> = ctx
            .output()
            .iter()
            .filter(|(_, v)| v.replica)
            .map(|(k, v)| (*k, v.entity.id().0))
            .collect();
        let key = |rank| SnKey { partition: 1, rank };
        assert_eq!(replicas, vec![(key(2), 3), (key(3), 1)]);
    }

    #[test]
    fn every_reduce_task_emits_its_matches_sorted_by_pair() {
        // Window order (by rank) is not pair order: entity ids descend
        // while the ranks ascend.
        let n = 8u32;
        let input: Partitions<u32, Ent> = vec![(0..n)
            .map(|rank| {
                let id = u64::from(n - rank);
                (rank, Arc::new(Entity::new(id, [("title", "same title")])))
            })
            .collect()];
        let out = job(two_ranges(n), 3)
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
        let reference = job(two_ranges(6), 3)
            .run_on(&WorkerPool::new(1), mk_input())
            .unwrap()
            .reduce_outputs;
        for parallelism in [2, 4, 8] {
            let out = job(two_ranges(6), 3)
                .run_on(&WorkerPool::new(parallelism), mk_input())
                .unwrap();
            assert_eq!(out.reduce_outputs, reference);
        }
    }
}
