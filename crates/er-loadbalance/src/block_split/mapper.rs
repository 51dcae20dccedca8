//! BlockSplit map function (Algorithm 1, lines 1–44).

use std::sync::{Arc, OnceLock};

use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};

use super::assign::TaskAssignment;
use super::match_tasks::{create_match_tasks, fits_average};
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{EntityInterner, EntityTable, PairComparer};
use crate::keys::{key_index, BlockSplitKey, BlockSplitValue};
use crate::{Ent, Ranks};

/// The BlockSplit mapper. In the paper's `map_configure` every map
/// task reads the BDM and computes the same deterministic match-task
/// assignment; here the job's map tasks are clones of one mapper, so
/// the assignment is planned once — by whichever task's `setup` runs
/// first — and shared. Each routed entity is prepared once, however
/// many match tasks of however many of its blocks receive it.
#[derive(Clone)]
pub struct BlockSplitMapper {
    bdm: Arc<BlockDistributionMatrix>,
    /// The job's plan, shared by all clones of this mapper.
    plan: Arc<OnceLock<TaskAssignment>>,
    state: Option<TaskState>,
    interner: EntityInterner,
    /// The blocks of the record in hand that have a pair.
    blocks: Vec<u32>,
}

#[derive(Clone, Copy)]
struct TaskState {
    partition: usize,
    m: usize,
    r: usize,
}

impl BlockSplitMapper {
    /// Creates the mapper over a computed BDM, preparing entities for
    /// `comparer`.
    pub fn new(bdm: Arc<BlockDistributionMatrix>, comparer: &PairComparer) -> Self {
        Self {
            bdm,
            plan: Arc::default(),
            state: None,
            interner: EntityInterner::new(comparer),
            blocks: Vec::new(),
        }
    }
}

impl Mapper for BlockSplitMapper {
    type KIn = Ranks;
    type VIn = Ent;
    type KOut = BlockSplitKey;
    type VOut = BlockSplitValue;
    type Side = ();
    type Product = EntityTable;

    fn setup(&mut self, info: &MapTaskInfo) {
        let r = info.num_reduce_tasks;
        let plan = self
            .plan
            .get_or_init(|| TaskAssignment::greedy(create_match_tasks(&self.bdm, r), r));
        assert_eq!(
            plan.loads().len(),
            r,
            "a BlockSplitMapper and its clones serve one job: the shared plan is for another r"
        );
        self.state = Some(TaskState {
            partition: info.task_index,
            m: info.num_map_tasks,
            r,
        });
        self.interner.setup(info);
    }

    fn map(
        &mut self,
        ranks: &Ranks,
        entity: &Ent,
        ctx: &mut MapContext<BlockSplitKey, BlockSplitValue, ()>,
    ) {
        let state = self.state.expect("setup ran");
        let assignment = self.plan.get().expect("setup planned the job");
        // A pruned block has no pair, hence no match task.
        self.bdm
            .live_blocks(state.partition, ranks, &mut self.blocks);
        // Interned at its first emission; the interner hands the later
        // ones the same handle.
        let interner = &mut self.interner;
        let mut value = || interner.intern(entity, &self.blocks);
        for &block in &self.blocks {
            let k = block as usize;
            let comps = self.bdm.pairs_in_block(k);
            if fits_average(comps, self.bdm.total_pairs(), state.r) {
                if comps > 0 {
                    let rt = assignment
                        .reduce_task_for(k, 0, 0)
                        .expect("unsplit task exists for non-empty block");
                    ctx.emit(
                        BlockSplitKey {
                            reduce_task: key_index(rt, "reduce task index"),
                            block,
                            i: 0,
                            j: 0,
                        },
                        value(),
                    );
                }
                continue;
            }
            // Split block: emit for the own sub-block and every
            // existing pairing with another partition's sub-block
            // (between two sources there is no own sub-block task and
            // no pairing within a source).
            for i in 0..state.m {
                let hi = state.partition.max(i);
                let lo = state.partition.min(i);
                if let Some(rt) = assignment.reduce_task_for(k, hi, lo) {
                    ctx.emit(
                        BlockSplitKey {
                            reduce_task: key_index(rt, "reduce task index"),
                            block,
                            i: key_index(hi, "input partition index"),
                            j: key_index(lo, "input partition index"),
                        },
                        value(),
                    );
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut MapContext<BlockSplitKey, BlockSplitValue, ()>) {
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::running_example;
    use mr_engine::mapper::MapTaskInfo;

    fn run_partition(p: usize) -> Vec<(BlockSplitKey, String)> {
        let bdm = Arc::new(running_example_bdm());
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let mut mapper = BlockSplitMapper::new(bdm, &comparer);
        let info = MapTaskInfo {
            task_index: p,
            num_map_tasks: 2,
            num_reduce_tasks: 3,
        };
        mapper.setup(&info);
        let mut out = Vec::new();
        let input = running_example::annotated_partitions();
        for (ranks, entity) in &input[p] {
            let mut ctx = MapContext::for_testing(info);
            mapper.map(ranks, entity, &mut ctx);
            let name = entity.get("name").unwrap();
            for (k, v) in ctx.output() {
                assert_eq!(v.arena as usize, p, "the map task's table");
                out.push((*k, name.to_string()));
            }
        }
        out
    }

    #[test]
    fn replication_only_for_the_split_block() {
        // 14 entities; the 5 entities of block z are emitted twice
        // (m = 2) -> 19 key-value pairs total (paper: "The replication
        // of the five entities for the split block leads to 19
        // key-value pairs for the 14 input entities").
        let total = run_partition(0).len() + run_partition(1).len();
        assert_eq!(total, 19);
    }

    #[test]
    fn entity_m_goes_to_its_sub_block_and_the_cross_task() {
        // M (partition 1, block z=3): sub-block task 3.1 at reduce 2
        // and cross task 3.1x0 at reduce 1 (Figure 5).
        let outputs = run_partition(1);
        let m_keys: Vec<&BlockSplitKey> = outputs
            .iter()
            .filter(|(_, name)| name == "M")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(m_keys.len(), 2);
        assert!(m_keys
            .iter()
            .any(|k| (k.reduce_task, k.block, k.i, k.j) == (2, 3, 1, 1)));
        assert!(m_keys
            .iter()
            .any(|k| (k.reduce_task, k.block, k.i, k.j) == (1, 3, 1, 0)));
    }

    #[test]
    fn unsplit_entities_emit_once_with_assigned_reduce_task() {
        // A (partition 0, block w=0) -> single emission to reduce 0.
        let outputs = run_partition(0);
        let a_keys: Vec<&BlockSplitKey> = outputs
            .iter()
            .filter(|(_, name)| name == "A")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(a_keys.len(), 1);
        assert_eq!(
            (
                a_keys[0].reduce_task,
                a_keys[0].block,
                a_keys[0].i,
                a_keys[0].j
            ),
            (0, 0, 0, 0)
        );
    }

    fn map_one(rank: u32) {
        let bdm = Arc::new(running_example_bdm());
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let mapper = BlockSplitMapper::new(bdm, &comparer);
        running_example::map_one(mapper, 2, rank);
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn rank_past_the_partitions_blocks_panics() {
        map_one(4);
    }
}
