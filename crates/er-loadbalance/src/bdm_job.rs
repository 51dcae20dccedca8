//! MR Job 1: computing the BDM (paper Algorithm 3).
//!
//! * `map` derives the blocking key(s) of each entity and buffers the
//!   annotated replicas of its partition;
//! * `finish` numbers the partition's distinct keys `0, 1, …` in
//!   lexicographic order — the key's *rank* — and side-writes every
//!   replica as `(rank, annotated entity)`, in input order, to the
//!   simulated DFS (`additionalOutput`). The matching job turns a rank
//!   into a block index with one array load
//!   ([`BlockDistributionMatrix::block_of_rank`]) instead of looking
//!   the key up;
//! * counts are aggregated in the mapper — the combiner of the paper's
//!   footnote 2, realised where the keys are already grouped: `finish`
//!   emits one `((blocking key, partition index), (count, rank))` cell
//!   per distinct key, in key order, so the map-side sort meets sorted
//!   buckets (the engine itself has no combiner). With `use_combiner`
//!   off `finish` emits Algorithm 3's record count instead — one
//!   `(1, rank)` per replica — from the same place, because the rank
//!   is known only there;
//! * pairs are partitioned and *grouped* by the blocking-key component
//!   and sorted by `(blocking key, partition index)`, so one reduce
//!   call sees one whole block, its cells in partition order;
//! * `reduce` sums the block's cells per partition and writes them,
//!   each under the `(partition, rank)` its mapper gave the key — a
//!   row-wise enumeration of the non-zero BDM cells — unless the block
//!   has fewer than two entities. Such a block has no pair, and the
//!   matrix plans pairs: it is dropped here, the first place that
//!   knows a block's global size, and counted under
//!   [`PRUNED_BLOCKS`] / [`PRUNED_ENTITIES`]. (A mapper cannot drop
//!   its singletons: their partners may sit in another partition.) Of
//!   its one entity the reducer writes a sixteen-byte note — the same
//!   `(partition, rank)` and the hash of the key ([`RankedKey::Lone`])
//!   — which is what Basic, hashing keys to reduce tasks, would need
//!   to place it, so that [`crate::analysis`] stays exact. Every key a
//!   mapper ranked thus comes back once, and the matrix builds each
//!   partition's rank → block remap from the job's output alone.
//!
//! The mapper buffers exactly what it side-writes — the side output
//! was always one record per replica of the partition. The cells
//! `finish` emits, at most one per replica, reach the map-side spiller
//! together; there the spill threshold bounds them as before.

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction};
use mr_engine::prelude::*;

use crate::bdm::{key_head, BlockDistributionMatrix, RankedKey};
use crate::keys::key_index;
use crate::{Ent, Keyed};

/// Counter: entities skipped because they had no valid blocking key
/// (`R_∅` — handled separately by [`crate::null_keys`]).
pub const NULL_KEY_ENTITIES: &str = "er.null_key.entities";

/// Counter: blocks the reducer dropped because they have no pair
/// (`|Φ_k| < 2`); they are not in the matrix.
pub const PRUNED_BLOCKS: &str = "er.bdm.pruned_blocks";

/// Counter: entities (replicas, under multi-pass blocking) of the
/// dropped blocks. With the block sizes of the matrix it sums to the
/// replicas the mappers side-wrote.
pub const PRUNED_ENTITIES: &str = "er.bdm.pruned_entities";

/// The count key: `(blocking key, partition index)`.
pub type BdmKey = (BlockKey, u32);

/// The count value: `(entities, rank of the key in its partition)`.
pub type BdmCell = (u64, u32);

/// Numbers the distinct keys of one partition's `replicas` `0, 1, …`
/// in lexicographic order and returns every replica, in input order,
/// with the rank of its key; `cell(rank, key, count)` is called once
/// per distinct key, in key order.
pub(crate) fn rank_annotated(
    replicas: Vec<Keyed>,
    mut cell: impl FnMut(u32, &BlockKey, u64),
) -> Vec<(u32, Keyed)> {
    // `(key_head, position)`: with the head inline, most comparisons
    // never follow the key's pointer (as in the BDM's assembly).
    let mut order: Vec<(u64, usize)> = replicas
        .iter()
        .map(|keyed| key_head(&keyed.key))
        .zip(0..)
        .collect();
    let key_of = |&(head, at): &(u64, usize)| (head, &replicas[at].key);
    order.sort_unstable_by(|a, b| key_of(a).cmp(&key_of(b)));
    let mut ranks = vec![0u32; replicas.len()];
    for (rank, group) in order.chunk_by(|a, b| key_of(a) == key_of(b)).enumerate() {
        let rank = key_index(rank, "distinct blocking keys of a partition");
        for &(_, at) in group {
            ranks[at] = rank;
        }
        cell(rank, &replicas[group[0].1].key, group.len() as u64);
    }
    ranks.into_iter().zip(replicas).collect()
}

/// Mapper of Algorithm 3.
#[derive(Clone)]
pub struct BdmMapper {
    blocking: Arc<dyn BlockingFunction>,
    /// Emit one count per distinct key (footnote 2) instead of a `1`
    /// per replica.
    aggregate: bool,
    partition: Option<u32>,
    /// The partition's annotated replicas so far, in input order.
    replicas: Vec<Keyed>,
}

impl BdmMapper {
    /// Creates the mapper with the given blocking function;
    /// `use_combiner` aggregates its counts (see the module header).
    pub fn new(blocking: Arc<dyn BlockingFunction>, use_combiner: bool) -> Self {
        Self {
            blocking,
            aggregate: use_combiner,
            partition: None,
            replicas: Vec::new(),
        }
    }
}

impl Mapper for BdmMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BdmKey;
    type VOut = BdmCell;
    type Side = (u32, Keyed);
    type Product = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        self.partition = Some(key_index(info.task_index, "input partition index"));
    }

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<BdmKey, BdmCell, Self::Side>) {
        if Keyed::derive_into(self.blocking.as_ref(), entity, &mut self.replicas) == 0 {
            ctx.add_counter(NULL_KEY_ENTITIES, 1);
        }
    }

    fn finish(&mut self, ctx: &mut MapContext<BdmKey, BdmCell, Self::Side>) {
        let partition = self.partition.expect("setup ran");
        let annotated = rank_annotated(std::mem::take(&mut self.replicas), |rank, key, count| {
            let (records, each) = if self.aggregate {
                (1, count)
            } else {
                (count, 1)
            };
            for _ in 0..records {
                ctx.emit((key.clone(), partition), (each, rank));
            }
        });
        for record in annotated {
            ctx.side_output(record);
        }
    }
}

/// Reducer of Algorithm 3, one call per block: sums the block's counts
/// per partition and writes the cells — or, of a block without a pair,
/// the note of its one entity (see the module header).
#[derive(Debug, Clone, Default)]
pub struct BdmReducer {
    pruned_blocks: u64,
    pruned_entities: u64,
}

impl Reducer for BdmReducer {
    type KIn = BdmKey;
    type VIn = BdmCell;
    /// `(partition index, rank)`.
    type KOut = (u32, u32);
    type VOut = RankedKey;
    type Product = ();

    fn reduce(
        &mut self,
        block: Group<'_, BdmKey, BdmCell>,
        ctx: &mut ReduceContext<(u32, u32), RankedKey>,
    ) {
        let size: u64 = block.values().map(|&(count, _)| count).sum();
        let mut records = block
            .iter()
            .map(|(&(_, partition), &cell)| (partition, cell));
        let key = &block.key().0;
        let (mut partition, (mut count, mut rank)) = records.next().expect("never empty");
        if size < 2 {
            self.pruned_blocks += 1;
            self.pruned_entities += size;
            ctx.emit(
                (partition, rank),
                RankedKey::Lone(HashPartitioner::hash(key)),
            );
            return;
        }
        // Sorted by partition: the records of one cell (several only
        // with `use_combiner` off) are adjacent.
        for (next, (more, next_rank)) in records {
            if next == partition {
                count += more;
            } else {
                ctx.emit((partition, rank), RankedKey::Cell(key.clone(), count));
                (partition, count, rank) = (next, more, next_rank);
            }
        }
        ctx.emit((partition, rank), RankedKey::Cell(key.clone(), count));
    }

    fn finish(&mut self, ctx: &mut ReduceContext<(u32, u32), RankedKey>) {
        ctx.add_counter(PRUNED_BLOCKS, self.pruned_blocks);
        ctx.add_counter(PRUNED_ENTITIES, self.pruned_entities);
    }
}

/// Builds the BDM job. Partitioning and grouping are on the
/// blocking-key component; sorting uses the entire `(key, partition)`
/// pair.
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
    let mapper = BdmMapper::new(blocking, use_combiner);
    Job::builder(name, mapper, BdmReducer::default())
        .reduce_tasks(reduce_tasks)
        .partitioner(FnPartitioner::new(|key: &BdmKey, r: usize| {
            HashPartitioner::bucket(&key.0, r)
        }))
        .group_by(Arc::new(|a: &BdmKey, b: &BdmKey| a.0.cmp(&b.0)))
        .build()
}

/// Products of a completed BDM job: the matrix, the rank-annotated
/// input partitions `Π'_i` for Job 2, and the job metrics.
pub type BdmProducts = (BlockDistributionMatrix, Partitions<u32, Keyed>, JobMetrics);

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
) -> Result<BdmProducts, MrError> {
    compute_bdm_named_in(workflow, "bdm", input, blocking, reduce_tasks, use_combiner)
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
) -> Result<BdmProducts, MrError> {
    let job = bdm_job_named(name, blocking, reduce_tasks, use_combiner);
    let out = workflow.chained_stage(&job, input)?;
    let bdm = BlockDistributionMatrix::from_job_output(
        out.side_outputs.len(),
        out.reduce_outputs.into_iter().flatten(),
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
    compute_bdm_in(&mut workflow, input, blocking, reduce_tasks, use_combiner)
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
        assert_eq!(side[1][4].1.key.as_str(), "z", "M's annotation");
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
        let count = |ranked: &RankedKey| match ranked {
            RankedKey::Cell(_, count) => *count,
            RankedKey::Lone(_) => 1,
        };
        let total: u64 = out.records().map(|(_, ranked)| count(ranked)).sum();
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
        // Two keys -> two count records and two side records; both
        // blocks are singletons, so the reducer drops them and leaves
        // a note of each.
        assert_eq!(out.metrics.map_output_records(), 2);
        assert_eq!(out.side_outputs[0].len(), 2);
        let keyed = &out.side_outputs[0][0].1;
        assert_eq!(keyed.all_keys.len(), 2);
        let mut notes: Vec<_> = out.records().cloned().collect();
        notes.sort_by_key(|&(ranked, _)| ranked);
        let lone = |key: &str| RankedKey::Lone(HashPartitioner::hash(&BlockKey::new(key)));
        assert_eq!(notes, [((0, 0), lone("acme")), ((0, 1), lone("w"))]);
        assert_eq!(out.metrics.counters.get(PRUNED_BLOCKS), 2);
        assert_eq!(out.metrics.counters.get(PRUNED_ENTITIES), 2);
    }

    /// Keys that collide, nest and share their first eight bytes
    /// (`key_head` cannot tell the three skus apart); `None` is an
    /// absent attribute, i.e. no key from that pass.
    const KEYS: [Option<&str>; 9] = [
        None,
        Some("a"),
        Some("ab"),
        Some("b"),
        Some("zz"),
        Some("sku00123"),
        Some("sku0012345"),
        Some("sku0012399"),
        Some("名前"),
    ];

    /// What a side partition says, comparably: rank, replica key, the
    /// entity's key list, entity id.
    type SideView = Vec<Vec<(u32, String, Vec<String>, u64)>>;

    fn side_view(side: &Partitions<u32, Keyed>) -> SideView {
        let text = |key: &BlockKey| key.as_str().to_string();
        side.iter()
            .map(|partition| {
                partition
                    .iter()
                    .map(|(rank, keyed)| {
                        let all = keyed.all_keys.iter().map(text).collect();
                        (*rank, text(&keyed.key), all, keyed.entity.id().0)
                    })
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn ranks_remap_to_blocks_whatever_the_emission_mode(
            m in 1usize..=8,
            raw in proptest::collection::vec((0usize..8, 0usize..9, 0usize..9), 0..60),
        ) {
            use er_core::blocking::{AttributeBlocking, MultiPassBlocking};
            use proptest::prelude::*;
            // Two passes: an entity has zero (null-key), one or two
            // keys; small `m` and few entities leave partitions empty.
            let two_pass: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
                Arc::new(AttributeBlocking::new("first")),
                Arc::new(AttributeBlocking::new("second")),
            ]));
            let mut input: Partitions<(), Ent> = vec![Vec::new(); m];
            for (id, &(partition, first, second)) in raw.iter().enumerate() {
                let attributes = [("first", KEYS[first]), ("second", KEYS[second])];
                let attributes = attributes.into_iter().filter_map(|(name, key)| Some((name, key?)));
                input[partition % m].push(((), Arc::new(Entity::new(id as u64, attributes))));
            }
            // The oracle: each entity's sorted keys, in input order.
            let expected: Vec<Vec<(BlockKey, u64)>> = input
                .iter()
                .map(|partition| {
                    partition
                        .iter()
                        .flat_map(|(_, e)| two_pass.keys(e).into_iter().map(|key| (key, e.id().0)))
                        .collect()
                })
                .collect();
            let null_keyed = input.iter().flatten().filter(|(_, e)| two_pass.keys(e).is_empty()).count();
            let key_lists: Vec<Vec<BlockKey>> = expected
                .iter()
                .map(|partition| partition.iter().map(|(key, _)| key.clone()).collect())
                .collect();
            let model = BlockDistributionMatrix::from_key_partitions(&key_lists);
            let replicas: usize = key_lists.iter().map(Vec::len).sum();
            let cells: usize = key_lists
                .iter()
                .map(|keys| keys.iter().collect::<std::collections::BTreeSet<_>>().len())
                .sum();
            let mut global_count = std::collections::BTreeMap::new();
            for key in key_lists.iter().flatten() {
                *global_count.entry(key).or_insert(0u64) += 1;
            }
            let singletons = global_count.values().filter(|&&count| count == 1).count();

            let pool = Arc::new(WorkerPool::new(2));
            let mut first_side = None;
            for use_combiner in [true, false] {
                for spill_threshold in [None, Some(1)] {
                    let mut workflow = Workflow::on_pool("bdm", Arc::clone(&pool))
                        .with_spill_threshold(spill_threshold);
                    let (bdm, side, metrics) = compute_bdm_in(
                        &mut workflow,
                        input.clone(),
                        Arc::clone(&two_pass),
                        3,
                        use_combiner,
                    )
                    .expect("job runs");
                    prop_assert_eq!(&bdm, &model);
                    prop_assert_eq!(
                        metrics.map_output_records() as usize,
                        if use_combiner { cells } else { replicas }
                    );
                    prop_assert_eq!(metrics.counters.get(NULL_KEY_ENTITIES) as usize, null_keyed);
                    // Every ranked key comes back once, as a cell or
                    // as the note of a lone entity.
                    let written = metrics.counters.get(mr_engine::counters::REDUCE_OUTPUT_RECORDS);
                    prop_assert_eq!(written as usize, cells);
                    // Singleton blocks are dropped and counted, the
                    // rest is in the matrix: no replica is lost.
                    prop_assert_eq!(bdm.num_blocks(), global_count.len() - singletons);
                    prop_assert_eq!(metrics.counters.get(PRUNED_BLOCKS) as usize, singletons);
                    let kept: u64 = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum();
                    prop_assert_eq!(
                        kept + metrics.counters.get(PRUNED_ENTITIES),
                        replicas as u64
                    );
                    for (p, partition) in side.iter().enumerate() {
                        // Input order, every replica once.
                        let order: Vec<(BlockKey, u64)> = partition
                            .iter()
                            .map(|(_, keyed)| (keyed.key.clone(), keyed.entity.id().0))
                            .collect();
                        prop_assert_eq!(&order, &expected[p]);
                        // Dense ranks that remap to the key's block, or
                        // to none iff the key is alone in the input.
                        let mut seen = vec![false; bdm.blocks_in(p).len()];
                        for (rank, keyed) in partition {
                            let block = bdm.block_of_rank(p, *rank, &keyed.key);
                            prop_assert_eq!(block, bdm.block_index(&keyed.key));
                            prop_assert_eq!(block.is_none(), global_count[&keyed.key] == 1);
                            prop_assert_eq!(
                                bdm.blocks_in(p)[*rank as usize],
                                block.unwrap_or(BlockDistributionMatrix::PRUNED)
                            );
                            seen[*rank as usize] = true;
                        }
                        prop_assert!(seen.iter().all(|&s| s), "ranks of partition {} are not dense", p);
                    }
                    let view = side_view(&side);
                    prop_assert_eq!(first_side.get_or_insert_with(|| view.clone()), &view);
                }
            }
        }
    }

    #[test]
    fn deterministic_across_parallelism() {
        let (a, _, _) = compute_bdm(example_input(), blocking(), 4, 1, false).unwrap();
        let (b, _, _) = compute_bdm(example_input(), blocking(), 4, 4, false).unwrap();
        assert_eq!(a, b);
    }
}
