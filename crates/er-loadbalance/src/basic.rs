//! The Basic strategy (paper Section III): hash blocking keys to
//! reduce tasks. One MR job, no BDM — and no skew resistance: an
//! entire block is matched inside a single reduce task, so the largest
//! block lower-bounds the job's execution time.

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction};
use er_core::result::MatchPair;
use mr_engine::prelude::*;

use crate::compare::{GroupComparer, PairComparer};
use crate::{Ent, Keyed};

/// Basic mapper: derive the blocking key(s), emit `(key, entity)`.
#[derive(Clone)]
pub struct BasicMapper {
    blocking: Arc<dyn BlockingFunction>,
    /// The current entity's replicas; empty between records.
    replicas: Vec<Keyed>,
}

impl BasicMapper {
    /// Creates the mapper.
    pub fn new(blocking: Arc<dyn BlockingFunction>) -> Self {
        Self {
            blocking,
            replicas: Vec::new(),
        }
    }
}

impl Mapper for BasicMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BlockKey;
    type VOut = Keyed;
    type Side = ();

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<BlockKey, Keyed, ()>) {
        if Keyed::derive_into(self.blocking.as_ref(), entity, &mut self.replicas) == 0 {
            ctx.add_counter(crate::bdm_job::NULL_KEY_ENTITIES, 1);
        }
        for keyed in self.replicas.drain(..) {
            ctx.emit(keyed.key.clone(), keyed);
        }
    }
}

/// Basic reducer: all pairs of one block.
///
/// Every entity of the block must be buffered — the memory problem the
/// paper points out ("a reduce task must therefore store all entities
/// passed to a reduce call in main memory"). Each entity is prepared
/// once as it enters the driver's columns; the O(b²) pairs run block
/// at a time on those.
#[derive(Clone)]
pub struct BasicReducer {
    driver: GroupComparer,
}

impl BasicReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer) -> Self {
        Self {
            driver: GroupComparer::new(comparer),
        }
    }
}

impl Reducer for BasicReducer {
    type KIn = BlockKey;
    type VIn = Keyed;
    type KOut = MatchPair;
    type VOut = f64;

    fn reduce(
        &mut self,
        group: Group<'_, BlockKey, Keyed>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        self.driver.load(group.key(), group.values());
        self.driver.all_pairs(|pair, score| ctx.emit(pair, score));
        self.driver.flush(ctx);
    }
}

/// Builds the Basic job: hash-partition on the blocking key, sort and
/// group on the full key.
pub fn basic_job(
    blocking: Arc<dyn BlockingFunction>,
    comparer: PairComparer,
    reduce_tasks: usize,
) -> Job<BasicMapper, BasicReducer> {
    Job::builder(
        "er-basic",
        BasicMapper::new(blocking),
        BasicReducer::new(comparer),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(HashPartitioner)
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COMPARISONS;
    use er_core::blocking::PrefixBlocking;
    use er_core::{Entity, Matcher};
    use mr_engine::pool::WorkerPool;

    fn input() -> Partitions<(), Ent> {
        let e = |id: u64, t: &str| ((), Arc::new(Entity::new(id, [("title", t)])));
        vec![
            vec![e(0, "aa same title x"), e(1, "bb other")],
            vec![
                e(2, "aa same title y"),
                e(3, "aa unrelated zz"),
                e(4, "bb other"),
            ],
        ]
    }

    fn run(r: usize) -> (Vec<(MatchPair, f64)>, JobMetrics) {
        let job = basic_job(
            Arc::new(PrefixBlocking::new("title", 2)),
            PairComparer::new(Arc::new(Matcher::paper_default())),
            r,
        );
        let out = job.run_on(&WorkerPool::new(1), input()).unwrap();
        let metrics = out.metrics.clone();
        (out.into_records(), metrics)
    }

    #[test]
    fn finds_matches_within_blocks() {
        let (records, metrics) = run(3);
        // Block "aa": {0,2,3} -> 3 comparisons; block "bb": {1,4} -> 1.
        assert_eq!(metrics.counters.get(COMPARISONS), 4);
        // 0 and 2 differ by one char at length 15 -> sim 14/15 > 0.8;
        // 1 and 4 are identical.
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn map_output_equals_input_size_no_replication() {
        let (_, metrics) = run(2);
        assert_eq!(
            metrics.map_output_records(),
            5,
            "Basic never replicates entities (paper Figure 12)"
        );
    }

    #[test]
    fn whole_block_lands_on_one_reduce_task() {
        let (_, metrics) = run(4);
        // Each reduce task's comparison count must equal a sum of whole
        // blocks (3 or 1 here) — never a fraction of one.
        for t in &metrics.reduce_tasks {
            let c = t.counter(COMPARISONS);
            assert!(matches!(c, 0 | 1 | 3 | 4), "got {c}");
        }
    }
}
