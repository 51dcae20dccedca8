//! RepSN: boundary handling by replication.
//!
//! The boundary strategy of *Parallel Sorted Neighborhood Blocking
//! with MapReduce* that this crate runs (see [`crate::SnStrategy`]):
//! besides its own entities, every range `q > 0` needs the
//! entities at the `w − 1` global ranks before its start, as replicas.
//! Here nothing is shipped for them: the reduce task of range `q`,
//! starting at `s_q`, reads the map tasks' sorted runs
//! ([`crate::runs`]) from rank `max(0, s_q − (w − 1))` on, primes the
//! sliding window with the replicas and slides into its own entities.
//! Replica × replica pairs are never compared — they were already
//! compared in an earlier range — so matches stay duplicate-free by
//! construction. One job, exact on every range layout
//! (thin and empty ranges included); range `q` reads
//! `min(w − 1, s_q)` replicas, counted under [`REPLICAS`], so a run
//! reads at most `(r − 1)(w − 1)`, whatever the number of map tasks.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::sortkey::SortKeyFunction;
use er_loadbalance::compare::PairComparer;
use mr_engine::prelude::*;

use crate::runs::{range_entries, sn_job, RunMapper, SortedRun};
use crate::window::WindowBuffer;
use crate::REPLICAS;

/// Reduce phase. A reduce task owns one key range: it merges its
/// replicas and its own entities out of the sorted runs, primes the
/// window ([`WindowBuffer`]) with the replicas — the global tail before
/// this range — and slides over the originals.
///
/// A task emits its matches at its end, stably sorted by pair: the
/// sort runs in parallel on the pool, and
/// [`er_core::MatchResult::from_runs`] on the coordinator only merges
/// the tasks' sorted runs.
#[derive(Clone)]
pub struct RepSnReducer {
    buffer: WindowBuffer,
    window: usize,
}

impl RepSnReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer, window: usize) -> Self {
        Self {
            buffer: WindowBuffer::new(comparer, window),
            window,
        }
    }
}

impl Reducer for RepSnReducer {
    type KIn = u32;
    type VIn = ();
    type KOut = MatchPair;
    type VOut = f64;
    type Product = SortedRun;

    fn reduce(
        &mut self,
        group: Group<'_, u32, (), SortedRun>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let runs = group.products();
        let ranges = ctx.info().num_reduce_tasks;
        let (replicas, entries) = range_entries(runs, self.window, *group.key(), ranges);
        let mut matches = Vec::new();
        self.buffer.clear();
        for (i, (run, position)) in entries.enumerate() {
            let member = runs[run as usize].handle(position);
            if i < replicas {
                self.buffer.prime(runs, member);
            } else {
                self.buffer
                    .advance(runs, member, |pair, score| matches.push((pair, score)));
            }
        }
        self.buffer.flush(ctx);
        if replicas > 0 {
            ctx.add_counter(REPLICAS, replicas as u64);
        }
        matches.sort_by_key(|&(pair, _)| pair);
        for (pair, score) in matches {
            ctx.emit(pair, score);
        }
    }
}

/// Builds the RepSN job over `ranges` key ranges.
pub fn repsn_job(
    sort_key: Arc<dyn SortKeyFunction>,
    comparer: PairComparer,
    window: usize,
    ranges: usize,
) -> Job<RunMapper, RepSnReducer> {
    let mapper = RunMapper::new(sort_key, &comparer);
    sn_job(
        "sn-repsn",
        mapper,
        RepSnReducer::new(comparer, window),
        ranges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::runs_of;
    use crate::SnRanges;
    use er_core::sortkey::AttributeSortKey;
    use er_core::{Entity, Matcher};
    use er_loadbalance::{Ent, COMPARISONS};

    /// One map task per slice of `tasks`, each entity titled by its
    /// label, ids numbering the labels in input order from 1.
    fn input(tasks: &[&[&str]]) -> Partitions<(), Ent> {
        let mut id = 0;
        tasks
            .iter()
            .map(|task| {
                task.iter()
                    .map(|title| {
                        id += 1;
                        ((), Arc::new(Entity::new(id, [("title", *title)])))
                    })
                    .collect()
            })
            .collect()
    }

    fn job(window: usize, ranges: usize) -> Job<RunMapper, RepSnReducer> {
        repsn_job(
            Arc::new(AttributeSortKey::title()),
            PairComparer::new(Arc::new(Matcher::paper_default())),
            window,
            ranges,
        )
    }

    #[test]
    fn reducer_primes_the_ranks_before_each_range_start() {
        // Five entities hold 7 window pairs under w = 3, cut into five
        // ranges starting at 3, 3, 4 and 5: {a, b, c} | {} | {d} | {e}
        // | {}. Range 1 and the empty range 2 each read b and c as
        // replicas, range 3 c and d, the empty range 4 d and e.
        let input = input(&[&["d", "a", "e"], &["c", "b"]]);
        let runs = runs_of(&input, Arc::new(AttributeSortKey::title()));
        // The ids number d, a, e, c, b from 1.
        let titles = |entries: crate::runs::Merge<'_>| -> String {
            entries
                .map(|(run, position)| {
                    ["d", "a", "e", "c", "b"][runs[run as usize].id(position) as usize - 1]
                })
                .collect()
        };
        let walked: Vec<(usize, String)> = (0..5)
            .map(|q| {
                let (replicas, entries) = range_entries(&runs, 3, q, 5);
                (replicas, titles(entries))
            })
            .collect();
        let expected = [(0, "abc"), (2, "bc"), (2, "bcd"), (2, "cde"), (2, "de")];
        assert_eq!(walked, expected.map(|(n, t)| (n, t.to_owned())));
        let ranges = SnRanges::new(5, 3, 5);
        let sizes: Vec<u64> = (0..5)
            .map(|q| ranges.range(q).end - ranges.range(q).start)
            .collect();
        assert_eq!(sizes, [3, 0, 1, 1, 0]);
        let out = job(3, 5).run_on(&WorkerPool::new(1), input).unwrap();
        assert_eq!(out.metrics.counters.get(REPLICAS), 8);
        assert_eq!(
            out.metrics.per_reduce_counter(COMPARISONS),
            [3, 0, 2, 2, 0],
            "each window pair once, in the range of its later entity"
        );
    }

    #[test]
    fn replica_replica_pairs_are_never_compared() {
        // One map task, w = 4 over 2 ranges: range 0's entities cross
        // as replicas, but the total comparison count must equal the
        // single-machine window count — no replica x replica extras,
        // no misses.
        let out = job(4, 2)
            .run_on(&WorkerPool::new(1), input(&[&["a", "b", "c", "d", "e"]]))
            .unwrap();
        // Global window pairs for n = 5, w = 4: 3 + 3 + 2 + 1 = 9.
        assert_eq!(out.metrics.counters.get(COMPARISONS), 9);
    }

    #[test]
    fn multi_task_replicas_reconstruct_the_global_tail() {
        // Two map tasks interleave the keys; the successor range must
        // see the true global tail regardless.
        let out = job(3, 2)
            .run_on(&WorkerPool::new(1), input(&[&["a", "c"], &["b", "d", "e"]]))
            .unwrap();
        // Ranges: {a, b, c, d} | {e}. Global window pairs for w = 3:
        // (a,b),(a,c),(b,c),(b,d),(c,d),(c,e),(d,e) = 7.
        assert_eq!(out.metrics.counters.get(COMPARISONS), 7);
        // Range 1 starts at e: c and d cross, each from the run that
        // holds it; the reducer primes the window with both.
        assert_eq!(out.metrics.counters.get(REPLICAS), 2);
    }

    #[test]
    fn every_reduce_task_emits_its_matches_sorted_by_pair() {
        // Window order is not pair order: the titles tie, so the runs
        // keep record order, while the ids descend.
        let n = 8u64;
        let input: Partitions<(), Ent> = vec![(0..n)
            .map(|record| {
                let entity = Entity::new(n - record, [("title", "same title")]);
                ((), Arc::new(entity))
            })
            .collect()];
        let out = job(3, 2).run_on(&WorkerPool::new(1), input).unwrap();
        assert!(out.reduce_outputs.iter().all(|run| run.len() > 1));
        for run in &out.reduce_outputs {
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "{run:?}");
        }
    }

    #[test]
    fn identical_output_across_parallelism() {
        let mk_input = || input(&[&["ab", "aa", "ba"], &["bb", "ac", "bc"]]);
        let reference = job(3, 2)
            .run_on(&WorkerPool::new(1), mk_input())
            .unwrap()
            .reduce_outputs;
        for parallelism in [2, 4, 8] {
            let out = job(3, 2)
                .run_on(&WorkerPool::new(parallelism), mk_input())
                .unwrap();
            assert_eq!(out.reduce_outputs, reference);
        }
    }
}
