//! Basic strategy for two sources: hash the blocking key, compare
//! cross-source pairs within each block. Not described explicitly in
//! the paper (which only evaluates one-source Basic) but needed as the
//! baseline for linkage workloads and by the null-key decomposition.

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction};
use er_core::result::MatchPair;
use er_core::SourceId;
use mr_engine::prelude::*;

use crate::compare::{GroupComparer, PairComparer};
use crate::keys::BlockSplitValue;
use crate::{Ent, Keyed};

/// Two-source Basic mapper: annotates each entity with its partition's
/// source side.
#[derive(Clone)]
pub struct TwoSourceBasicMapper {
    blocking: Arc<dyn BlockingFunction>,
    sources: Arc<Vec<SourceId>>,
    state: Option<(usize, SourceId)>,
}

impl TwoSourceBasicMapper {
    /// Creates the mapper; `sources[p]` is partition `p`'s side.
    pub fn new(blocking: Arc<dyn BlockingFunction>, sources: Arc<Vec<SourceId>>) -> Self {
        Self {
            blocking,
            sources,
            state: None,
        }
    }
}

impl Mapper for TwoSourceBasicMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BlockKey;
    type VOut = BlockSplitValue;
    type Side = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        self.state = Some((info.task_index, self.sources[info.task_index]));
    }

    fn map(
        &mut self,
        _key: &(),
        entity: &Ent,
        ctx: &mut MapContext<BlockKey, BlockSplitValue, ()>,
    ) {
        let (partition, source) = self.state.expect("setup ran");
        let mut keys = self.blocking.keys(entity);
        keys.sort();
        keys.dedup();
        if keys.is_empty() {
            ctx.add_counter(crate::bdm_job::NULL_KEY_ENTITIES, 1);
            return;
        }
        let all: Arc<[BlockKey]> = Arc::from(keys.into_boxed_slice());
        for key in all.iter() {
            ctx.emit(
                key.clone(),
                BlockSplitValue::with_source(
                    Keyed::replica(key.clone(), Arc::clone(&all), Arc::clone(entity)),
                    partition,
                    source,
                ),
            );
        }
    }
}

/// Two-source Basic reducer: cross-source pairs of one block.
#[derive(Clone)]
pub struct TwoSourceBasicReducer {
    driver: GroupComparer,
}

impl TwoSourceBasicReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer) -> Self {
        Self {
            driver: GroupComparer::new(comparer),
        }
    }
}

impl Reducer for TwoSourceBasicReducer {
    type KIn = BlockKey;
    type VIn = BlockSplitValue;
    type KOut = MatchPair;
    type VOut = f64;

    fn reduce(
        &mut self,
        group: Group<'_, BlockKey, BlockSplitValue>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        cross_sources(&mut self.driver, group.key(), &group, ctx);
    }
}

/// Evaluates R × S of `group` under `block` and flushes the counts: the
/// reduce step the two-source Basic and BlockSplit reducers share.
pub(crate) fn cross_sources<K>(
    driver: &mut GroupComparer,
    block: &BlockKey,
    group: &Group<'_, K, BlockSplitValue>,
    ctx: &mut ReduceContext<MatchPair, f64>,
) {
    let side = |r_side: bool| {
        group
            .values()
            .filter(move |v| (v.source == SourceId::R) == r_side)
            .map(|v| &v.keyed)
    };
    driver.cross(block, side(true), side(false), |pair, score| {
        ctx.emit(pair, score)
    });
    driver.flush(ctx);
}

/// Builds the two-source Basic job.
pub fn basic_two_source_job(
    blocking: Arc<dyn BlockingFunction>,
    sources: Arc<Vec<SourceId>>,
    comparer: PairComparer,
    reduce_tasks: usize,
) -> Job<TwoSourceBasicMapper, TwoSourceBasicReducer> {
    Job::builder(
        "er-basic-2src",
        TwoSourceBasicMapper::new(blocking, sources),
        TwoSourceBasicReducer::new(comparer),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(HashPartitioner)
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_source::appendix_example;
    use crate::COMPARISONS;
    use er_core::Matcher;
    use mr_engine::pool::WorkerPool;

    #[test]
    fn computes_the_12_cross_pairs() {
        let job = basic_two_source_job(
            crate::running_example::blocking(),
            Arc::new(appendix_example::partition_sources()),
            PairComparer::count_only(Arc::new(Matcher::paper_default())),
            3,
        );
        let out = job
            .run_on(&WorkerPool::new(1), appendix_example::entity_partitions())
            .unwrap();
        assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
    }

    #[test]
    fn blocks_stay_whole() {
        let job = basic_two_source_job(
            crate::running_example::blocking(),
            Arc::new(appendix_example::partition_sources()),
            PairComparer::count_only(Arc::new(Matcher::paper_default())),
            5,
        );
        let out = job
            .run_on(&WorkerPool::new(1), appendix_example::entity_partitions())
            .unwrap();
        // Per-task loads must be sums of whole-block pair counts
        // ({4, 2, 0, 6} here).
        for load in out.metrics.per_reduce_counter(COMPARISONS) {
            assert!(
                [0, 2, 4, 6, 8, 10, 12].contains(&load),
                "load {load} is not a sum of whole blocks"
            );
        }
    }
}
