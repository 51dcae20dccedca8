//! The Basic strategy (paper Section III): hash blocking keys to
//! reduce tasks. One MR job, no BDM — and no skew resistance: an
//! entire block is matched inside a single reduce task, so the largest
//! block lower-bounds the job's execution time.
//!
//! Between two sources (the baseline of linkage workloads and of the
//! null-key decomposition; the paper evaluates one-source Basic only)
//! the job is told its partitions' source tags and compares the R × S
//! pairs of each block.

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction};
use er_core::result::MatchPair;
use er_core::SourceId;
use mr_engine::prelude::*;

use crate::compare::{EntityInterner, EntityTable, GroupComparer, PairComparer};
use crate::keys::BlockSplitValue;
use crate::{Ent, Keyed};

/// Basic mapper: derive the blocking key(s) and emit `(key, handle)`
/// per key, the entity prepared once however many keys it has. Its
/// input partition is the handle's `arena`.
#[derive(Clone)]
pub struct BasicMapper {
    blocking: Arc<dyn BlockingFunction>,
    /// The current entity's replicas; empty between records.
    replicas: Vec<Keyed>,
    interner: EntityInterner,
}

impl BasicMapper {
    /// Creates the mapper, preparing entities for `comparer`.
    pub fn new(blocking: Arc<dyn BlockingFunction>, comparer: &PairComparer) -> Self {
        Self {
            blocking,
            replicas: Vec::new(),
            interner: EntityInterner::new(comparer),
        }
    }
}

impl Mapper for BasicMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BlockKey;
    type VOut = BlockSplitValue;
    type Side = ();
    type Product = EntityTable;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.interner.setup(info);
    }

    fn map(
        &mut self,
        _key: &(),
        entity: &Ent,
        ctx: &mut MapContext<BlockKey, BlockSplitValue, ()>,
    ) {
        if Keyed::derive_into(self.blocking.as_ref(), entity, &mut self.replicas) == 0 {
            ctx.add_counter(crate::bdm_job::NULL_KEY_ENTITIES, 1);
            return;
        }
        let prepared = self.interner.intern(entity, &self.replicas[0].all_keys);
        for keyed in self.replicas.drain(..) {
            ctx.emit(keyed.key, prepared);
        }
    }

    fn finish(&mut self, ctx: &mut MapContext<BlockKey, BlockSplitValue, ()>) {
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

/// Basic reducer: all pairs of one block.
///
/// Every entity of the block must be buffered — the memory problem the
/// paper points out ("a reduce task must therefore store all entities
/// passed to a reduce call in main memory"). Each entity enters the
/// driver's columns with the prepared form its map task made; the
/// O(b²) pairs run block at a time on those.
#[derive(Clone)]
pub struct BasicReducer {
    driver: GroupComparer,
    /// The partitions' source tags; `None` for one source.
    sources: Option<Arc<[SourceId]>>,
}

impl BasicReducer {
    /// Creates the reducer; `sources[p]` — partition `p`'s side —
    /// restricts it to R × S pairs.
    pub fn new(comparer: PairComparer, sources: Option<Arc<[SourceId]>>) -> Self {
        Self {
            driver: GroupComparer::new(comparer),
            sources,
        }
    }
}

impl Reducer for BasicReducer {
    type KIn = BlockKey;
    type VIn = BlockSplitValue;
    type KOut = MatchPair;
    type VOut = f64;
    type Product = EntityTable;

    fn reduce(
        &mut self,
        group: Group<'_, BlockKey, BlockSplitValue, EntityTable>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let emit = |pair, score| ctx.emit(pair, score);
        let sources = self.sources.as_deref();
        block_pairs(&mut self.driver, group.key(), &group, sources, emit);
        self.driver.flush(ctx);
    }
}

/// Evaluates a group holding a whole block under `block`: every pair
/// of its members, or — given the partitions' `sources` — each of its
/// R members against each of its S members ("the reduce tasks read all
/// entities of R and compare each entity of S to all entities of R"),
/// a member's source being its partition's, i.e. its arena's. The
/// reduce step Basic shares with BlockSplit's `k.*` task.
pub(crate) fn block_pairs<K>(
    driver: &mut GroupComparer,
    block: &BlockKey,
    group: &Group<'_, K, BlockSplitValue, EntityTable>,
    sources: Option<&[SourceId]>,
    emit: impl FnMut(MatchPair, f64),
) {
    let tables = group.products();
    if let Some(sources) = sources {
        let side = |source: SourceId| {
            group
                .values()
                .filter(move |member| sources[member.arena as usize] == source)
                .copied()
        };
        driver.cross(tables, block, side(SourceId::R), side(SourceId::S), emit);
    } else {
        driver.load(tables, block, group.values().copied());
        driver.all_pairs(tables, emit);
    }
}

/// Builds the Basic job: hash-partition on the blocking key, sort and
/// group on the full key. `sources` — one tag per input partition —
/// makes it a two-source job.
pub fn basic_job(
    blocking: Arc<dyn BlockingFunction>,
    sources: Option<Arc<[SourceId]>>,
    comparer: PairComparer,
    reduce_tasks: usize,
) -> Job<BasicMapper, BasicReducer> {
    let mapper = BasicMapper::new(blocking, &comparer);
    let reducer = BasicReducer::new(comparer, sources);
    Job::builder("er-basic", mapper, reducer)
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
            None,
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
