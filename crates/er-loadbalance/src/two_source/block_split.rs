//! BlockSplit for two sources (paper Appendix I-A).
//!
//! Identical scheme to the one-source case except that split tasks
//! `k.i×j` pair an R partition `i` with an S partition `j`, and the
//! reduce phase compares only cross-source pairs.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::SourceId;
use mr_engine::engine::Job;
use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};
use mr_engine::reducer::{Group, ReduceContext, Reducer};

use super::basic::cross_sources;
use super::TwoSourceBdm;
use crate::block_split::assign::TaskAssignment;
use crate::block_split::match_tasks::{fits_average, MatchTask};
use crate::compare::{GroupComparer, PairComparer};
use crate::keys::{key_index, BlockSplitKey, BlockSplitValue};
use crate::Keyed;

/// Creates the two-source match tasks: unsplit `k.*` when the block's
/// `|Φ_k,R|·|Φ_k,S|` fits the average, otherwise one task per
/// (R partition × S partition) pair with entities on both sides.
pub fn create_match_tasks_two_source(ts: &TwoSourceBdm, r: usize) -> Vec<MatchTask> {
    let total = ts.total_pairs();
    let m = ts.num_partitions();
    let mut tasks = Vec::new();
    for k in 0..ts.num_blocks() {
        let comps = ts.pairs_in_block(k);
        if fits_average(comps, total, r) {
            if comps > 0 {
                tasks.push(MatchTask {
                    block: k,
                    i: 0,
                    j: 0,
                    comparisons: comps,
                });
            }
        } else {
            for i in (0..m).filter(|&p| ts.source_of(p) == SourceId::R) {
                let size_i = ts.size_in(k, i);
                if size_i == 0 {
                    continue;
                }
                for j in (0..m).filter(|&p| ts.source_of(p) == SourceId::S) {
                    let size_j = ts.size_in(k, j);
                    if size_j == 0 {
                        continue;
                    }
                    tasks.push(MatchTask {
                        block: k,
                        i,
                        j,
                        comparisons: size_i * size_j,
                    });
                }
            }
        }
    }
    tasks
}

/// The two-source BlockSplit mapper.
#[derive(Clone)]
pub struct TwoSourceBlockSplitMapper {
    ts: Arc<TwoSourceBdm>,
    state: Option<State>,
}

#[derive(Clone)]
struct State {
    assignment: Arc<TaskAssignment>,
    partition: usize,
    source: SourceId,
    r: usize,
}

impl TwoSourceBlockSplitMapper {
    /// Creates the mapper.
    pub fn new(ts: Arc<TwoSourceBdm>) -> Self {
        Self { ts, state: None }
    }
}

impl Mapper for TwoSourceBlockSplitMapper {
    type KIn = u32;
    type VIn = Keyed;
    type KOut = BlockSplitKey;
    type VOut = BlockSplitValue;
    type Side = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        let tasks = create_match_tasks_two_source(&self.ts, info.num_reduce_tasks);
        self.state = Some(State {
            assignment: Arc::new(TaskAssignment::greedy(tasks, info.num_reduce_tasks)),
            partition: info.task_index,
            source: self.ts.source_of(info.task_index),
            r: info.num_reduce_tasks,
        });
    }

    fn map(
        &mut self,
        rank: &u32,
        keyed: &Keyed,
        ctx: &mut MapContext<BlockSplitKey, BlockSplitValue, ()>,
    ) {
        let state = self.state.as_ref().expect("setup ran");
        let block = self
            .ts
            .bdm()
            .block_of_rank(state.partition, *rank, &keyed.key);
        let k = block as usize;
        let comps = self.ts.pairs_in_block(k);
        if fits_average(comps, self.ts.total_pairs(), state.r) {
            if comps > 0 {
                let rt = state
                    .assignment
                    .reduce_task_for(k, 0, 0)
                    .expect("unsplit task exists");
                ctx.emit(
                    BlockSplitKey {
                        reduce_task: key_index(rt, "reduce task index"),
                        block,
                        i: 0,
                        j: 0,
                    },
                    BlockSplitValue::with_source(keyed.clone(), state.partition, state.source),
                );
            }
        } else {
            let m = self.ts.num_partitions();
            // R entities pair their partition with every S partition;
            // S entities symmetrically.
            for q in 0..m {
                let (i, j) = if state.source == SourceId::R {
                    (state.partition, q)
                } else {
                    (q, state.partition)
                };
                if let Some(rt) = state.assignment.reduce_task_for(k, i, j) {
                    ctx.emit(
                        BlockSplitKey {
                            reduce_task: key_index(rt, "reduce task index"),
                            block,
                            i: key_index(i, "input partition index"),
                            j: key_index(j, "input partition index"),
                        },
                        BlockSplitValue::with_source(keyed.clone(), state.partition, state.source),
                    );
                }
            }
        }
    }
}

/// The two-source BlockSplit reducer: buckets by source, compares only
/// cross-source pairs ("the reduce tasks read all entities of R and
/// compare each entity of S to all entities of R").
#[derive(Clone)]
pub struct TwoSourceBlockSplitReducer {
    driver: GroupComparer,
}

impl TwoSourceBlockSplitReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer) -> Self {
        Self {
            driver: GroupComparer::new(comparer),
        }
    }
}

impl Reducer for TwoSourceBlockSplitReducer {
    type KIn = BlockSplitKey;
    type VIn = BlockSplitValue;
    type KOut = MatchPair;
    type VOut = f64;

    fn reduce(
        &mut self,
        group: Group<'_, BlockSplitKey, BlockSplitValue>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let first = group.values().next().expect("groups are non-empty");
        cross_sources(&mut self.driver, &first.keyed.key, &group, ctx);
    }
}

/// Builds the two-source BlockSplit job.
pub fn block_split_two_source_job(
    ts: Arc<TwoSourceBdm>,
    comparer: PairComparer,
    reduce_tasks: usize,
) -> Job<TwoSourceBlockSplitMapper, TwoSourceBlockSplitReducer> {
    Job::builder(
        "er-block-split-2src",
        TwoSourceBlockSplitMapper::new(ts),
        TwoSourceBlockSplitReducer::new(comparer),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(BlockSplitKey::partitioner())
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_source::appendix_example;
    use crate::COMPARISONS;
    use er_core::blocking::BlockKey;
    use er_core::Matcher;
    use mr_engine::pool::WorkerPool;

    #[test]
    fn appendix_match_tasks() {
        // P = 12, r = 3 -> average 4. Block z (6 pairs) splits into
        // 3.0x1 (2*2 = 4) and 3.0x2 (2*1 = 2); w (4) and x (2) stay
        // whole; y has 0 pairs -> no task. (Paper: "0.* (4 pairs,
        // reduce0), 3.0×1 (4 pairs, reduce1), 2.* (2 pairs, reduce2),
        // 3.0×2 (2 pairs, reduce2)" — our x has block index 1.)
        let ts = appendix_example::bdm();
        let tasks = create_match_tasks_two_source(&ts, 3);
        let as_tuples: Vec<(usize, usize, usize, u64)> = tasks
            .iter()
            .map(|t| (t.block, t.i, t.j, t.comparisons))
            .collect();
        assert_eq!(
            as_tuples,
            vec![(0, 0, 0, 4), (1, 0, 0, 2), (3, 0, 1, 4), (3, 0, 2, 2)]
        );
        let assignment = TaskAssignment::greedy(tasks, 3);
        assert_eq!(assignment.reduce_task_for(0, 0, 0), Some(0));
        assert_eq!(assignment.reduce_task_for(3, 0, 1), Some(1));
        assert_eq!(assignment.reduce_task_for(1, 0, 0), Some(2));
        assert_eq!(assignment.reduce_task_for(3, 0, 2), Some(2));
        assert_eq!(assignment.loads(), &[4, 4, 4]);
    }

    #[test]
    fn job_computes_exactly_the_12_cross_pairs() {
        let ts = Arc::new(appendix_example::bdm());
        let job = block_split_two_source_job(
            Arc::clone(&ts),
            PairComparer::count_only(Arc::new(Matcher::paper_default())),
            3,
        );
        let out = job
            .run_on(
                &WorkerPool::new(1),
                appendix_example::annotated_partitions(),
            )
            .unwrap();
        assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
        let loads = out.metrics.per_reduce_counter(COMPARISONS);
        assert_eq!(loads, vec![4, 4, 4]);
    }

    #[test]
    fn no_same_source_comparisons() {
        // Make every R title identical: same-source comparisons would
        // produce R-R matches; assert none appear.
        let ts = Arc::new(appendix_example::bdm());
        let job = block_split_two_source_job(
            Arc::clone(&ts),
            PairComparer::new(Arc::new(Matcher::paper_default())),
            3,
        );
        let out = job
            .run_on(
                &WorkerPool::new(1),
                appendix_example::annotated_partitions(),
            )
            .unwrap();
        for (pair, _) in out.records() {
            assert_ne!(
                pair.lo().source,
                pair.hi().source,
                "two-source matching must only produce cross-source pairs"
            );
        }
    }

    /// Maps one record `(rank, key)` as partition 0's mapper, whose
    /// ranks 0..=3 are the blocks w, x, y, z.
    fn map_one(rank: u32, key: &str) {
        let mut mapper = TwoSourceBlockSplitMapper::new(Arc::new(appendix_example::bdm()));
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
