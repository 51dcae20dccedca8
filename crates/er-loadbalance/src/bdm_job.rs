//! MR Job 1: computing the BDM (paper Algorithm 3).
//!
//! * `map` derives the blocking key(s) of each entity, emits
//!   `((blocking key, partition index), 1)` and side-writes the
//!   annotated entity to the simulated DFS (`additionalOutput`);
//! * pairs are partitioned by the *blocking key* component so one block
//!   is counted by one reduce task;
//! * `reduce` sums the counts per `(blocking key, partition index)` —
//!   a row-wise enumeration of the non-zero BDM cells;
//! * an optional combiner pre-aggregates counts per map task (the
//!   optimization of the paper's footnote 2).

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction};
use mr_engine::combiner::sum_u64_combiner;
use mr_engine::prelude::*;

use crate::bdm::BlockDistributionMatrix;
use crate::keys::key_index;
use crate::{Ent, Keyed};

/// Counter: entities skipped because they had no valid blocking key
/// (`R_∅` — handled separately by [`crate::null_keys`]).
pub const NULL_KEY_ENTITIES: &str = "er.null_key.entities";

/// The count key: `(blocking key, partition index)`.
pub type BdmKey = (BlockKey, u32);

/// Mapper of Algorithm 3.
#[derive(Clone)]
pub struct BdmMapper {
    blocking: Arc<dyn BlockingFunction>,
    partition: Option<u32>,
}

impl BdmMapper {
    /// Creates the mapper with the given blocking function.
    pub fn new(blocking: Arc<dyn BlockingFunction>) -> Self {
        Self {
            blocking,
            partition: None,
        }
    }
}

impl Mapper for BdmMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BdmKey;
    type VOut = u64;
    type Side = (BlockKey, Keyed);

    fn setup(&mut self, info: &MapTaskInfo) {
        self.partition = Some(key_index(info.task_index, "input partition index"));
    }

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<BdmKey, u64, Self::Side>) {
        let partition = self.partition.expect("setup ran");
        let replicas = Keyed::derive_all(self.blocking.as_ref(), entity);
        if replicas.is_empty() {
            ctx.add_counter(NULL_KEY_ENTITIES, 1);
            return;
        }
        for keyed in replicas {
            ctx.emit((keyed.key.clone(), partition), 1);
            ctx.side_output((keyed.key.clone(), keyed));
        }
    }
}

/// Reducer of Algorithm 3: sums the 1s per `(blocking key, partition)`
/// — the generic count-sum reducer shared with er-sn's sort-key
/// distribution job.
pub type BdmReducer = mr_engine::reducer::SumReducer<BdmKey>;

/// Builds the BDM job. Partitioning is on the blocking-key component;
/// sorting and grouping use the entire `(key, partition)` pair.
pub fn bdm_job(
    blocking: Arc<dyn BlockingFunction>,
    reduce_tasks: usize,
    use_combiner: bool,
) -> Job<BdmMapper, BdmReducer> {
    bdm_job_named("bdm", blocking, reduce_tasks, use_combiner)
}

/// [`bdm_job`] under a caller-chosen job name — for workflows that run
/// the distribution job more than once (e.g. er-lsh's adaptive rounds,
/// one signature job per `(bands, rows)` rung) and need the rounds
/// distinguishable in the stage metrics.
pub fn bdm_job_named(
    name: &str,
    blocking: Arc<dyn BlockingFunction>,
    reduce_tasks: usize,
    use_combiner: bool,
) -> Job<BdmMapper, BdmReducer> {
    let mut builder = Job::builder(name, BdmMapper::new(blocking), BdmReducer::default())
        .reduce_tasks(reduce_tasks)
        .partitioner(FnPartitioner::new(|key: &BdmKey, r: usize| {
            HashPartitioner::bucket(&key.0, r)
        }));
    if use_combiner {
        builder = builder.combiner(sum_u64_combiner());
    }
    builder.build()
}

/// Products of a completed BDM job: the matrix, the annotated input
/// partitions `Π'_i` for Job 2, and the job metrics.
pub type BdmProducts = (
    BlockDistributionMatrix,
    Partitions<BlockKey, Keyed>,
    JobMetrics,
);

/// Runs the BDM job as a stage of `workflow` and assembles its
/// [`BdmProducts`]. The side outputs it returns are chained into the
/// matching job by the workflow layer, which enforces the identical-
/// partitioning invariant the BDM's partition indices rely on.
pub fn compute_bdm_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    blocking: Arc<dyn BlockingFunction>,
    reduce_tasks: usize,
    use_combiner: bool,
    spill_threshold: Option<usize>,
) -> Result<BdmProducts, MrError> {
    compute_bdm_named_in(
        workflow,
        "bdm",
        input,
        blocking,
        reduce_tasks,
        use_combiner,
        spill_threshold,
    )
}

/// [`compute_bdm_in`] under a caller-chosen stage name (see
/// [`bdm_job_named`]).
pub fn compute_bdm_named_in(
    workflow: &mut Workflow,
    name: &str,
    input: Partitions<(), Ent>,
    blocking: Arc<dyn BlockingFunction>,
    reduce_tasks: usize,
    use_combiner: bool,
    spill_threshold: Option<usize>,
) -> Result<BdmProducts, MrError> {
    let m = input.len();
    let job = bdm_job_named(name, blocking, reduce_tasks, use_combiner)
        .with_spill_threshold(spill_threshold);
    let out = workflow.chained_stage(&job, input)?;
    let bdm = BlockDistributionMatrix::from_counts(
        m,
        out.reduce_outputs
            .into_iter()
            .flatten()
            .map(|((key, p), count)| (key, p as usize, count)),
    );
    Ok((bdm, out.side_outputs, out.metrics))
}

/// Runs the BDM job standalone (outside a larger workflow), on a pool
/// of `parallelism` workers built for this one call, and assembles its
/// [`BdmProducts`].
pub fn compute_bdm(
    input: Partitions<(), Ent>,
    blocking: Arc<dyn BlockingFunction>,
    reduce_tasks: usize,
    parallelism: usize,
    use_combiner: bool,
) -> Result<BdmProducts, MrError> {
    if parallelism == 0 {
        return Err(MrError::ZeroParallelism);
    }
    let mut workflow = Workflow::on_pool("bdm", Arc::new(WorkerPool::new(parallelism)));
    compute_bdm_in(
        &mut workflow,
        input,
        blocking,
        reduce_tasks,
        use_combiner,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::blocking::PrefixBlocking;
    use er_core::Entity;

    fn entity(id: u64, title: &str) -> ((), Ent) {
        ((), Arc::new(Entity::new(id, [("title", title)])))
    }

    fn example_input() -> Partitions<(), Ent> {
        // Mirrors the paper's Figure 3 layout: keys w,w,x,y,y,z,z in
        // partition 0 and w,w,x,y,z,z,z in partition 1 (titles start
        // with the blocking key).
        vec![
            vec![
                entity(0, "w A"),
                entity(1, "w B"),
                entity(2, "x C"),
                entity(3, "y D"),
                entity(4, "y E"),
                entity(5, "z F"),
                entity(6, "z G"),
            ],
            vec![
                entity(7, "w H"),
                entity(8, "w J"),
                entity(9, "x K"),
                entity(10, "y L"),
                entity(11, "z M"),
                entity(12, "z N"),
                entity(13, "z O"),
            ],
        ]
    }

    fn blocking() -> Arc<dyn BlockingFunction> {
        Arc::new(PrefixBlocking::new("title", 1))
    }

    #[test]
    fn bdm_job_reproduces_figure4() {
        let (bdm, side, metrics) =
            compute_bdm(example_input(), blocking(), 3, 1, false).expect("job runs");
        assert_eq!(bdm, crate::bdm::running_example_bdm());
        // Side outputs: every entity annotated, partition-aligned.
        assert_eq!(side.len(), 2);
        assert_eq!(side[0].len(), 7);
        assert_eq!(side[1].len(), 7);
        assert_eq!(side[1][4].0.as_str(), "z", "M's annotation");
        assert_eq!(metrics.map_output_records(), 14);
    }

    #[test]
    fn combiner_preaggregates_but_preserves_the_bdm() {
        let (plain, _, m1) = compute_bdm(example_input(), blocking(), 3, 1, false).unwrap();
        let (combined, _, m2) = compute_bdm(example_input(), blocking(), 3, 1, true).unwrap();
        assert_eq!(plain, combined);
        // Partition 0 has keys w,w,x,y,y,z,z -> 4 distinct (key, part)
        // pairs; partition 1 likewise -> 8 total after combining vs 14.
        assert_eq!(m1.map_output_records(), 14);
        assert_eq!(m2.map_output_records(), 8);
    }

    #[test]
    fn entities_without_keys_are_counted_and_skipped() {
        let mut input = example_input();
        input[0].push(((), Arc::new(Entity::new(99, [("brand", "no title")]))));
        let job = bdm_job(blocking(), 2, false);
        let out = job.run_on(&WorkerPool::new(1), input).unwrap();
        assert_eq!(out.metrics.counters.get(NULL_KEY_ENTITIES), 1);
        let total: u64 = out.records().map(|(_, c)| c).sum();
        assert_eq!(total, 14, "the keyless entity is not counted");
    }

    #[test]
    fn multipass_blocking_replicates_entities() {
        use er_core::blocking::{AttributeBlocking, MultiPassBlocking};
        let mp: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
            Arc::new(PrefixBlocking::new("title", 1)),
            Arc::new(AttributeBlocking::new("brand")),
        ]));
        let input = vec![vec![(
            (),
            Arc::new(Entity::new(0, [("title", "w thing"), ("brand", "acme")])),
        )]];
        let job = bdm_job(mp, 2, false);
        let out = job.run_on(&WorkerPool::new(1), input).unwrap();
        // Two keys -> two count records and two side records.
        assert_eq!(out.num_records(), 2);
        assert_eq!(out.side_outputs[0].len(), 2);
        let keyed = &out.side_outputs[0][0].1;
        assert_eq!(keyed.all_keys.len(), 2);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let (a, _, _) = compute_bdm(example_input(), blocking(), 4, 1, false).unwrap();
        let (b, _, _) = compute_bdm(example_input(), blocking(), 4, 4, false).unwrap();
        assert_eq!(a, b);
    }
}
