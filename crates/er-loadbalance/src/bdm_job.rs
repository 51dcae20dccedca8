//! MR Job 1: computing the BDM (paper Algorithm 3).
//!
//! * `map` writes the text of each entity's blocking key(s) into the
//!   partition's flat key column ([`KeyText`],
//!   [`BlockingFunction::write_keys`]) and, if they are not strictly
//!   increasing already, sorts them and drops repeats there — no
//!   allocation per key;
//! * `finish` hashes every key once ([`HashPartitioner::hash`] of its
//!   text) and numbers the partition's distinct keys `0, 1, …` in the
//!   order of their hashes — the key's *rank*; keys that share a hash
//!   by text — by sorting an index of `(hash, position)` pairs: one
//!   in-place bucket pass on the hashes' top bits, about one key per
//!   bucket, then a sort of each fuller bucket that reads a key's text
//!   only where two hashes tie. It side-writes every entity once, in
//!   input order, as a [`RankedEntity`]: the ranks of its keys,
//!   ascending (one inline `u32` under single-key blocking; none for an
//!   entity without a key), and the entity, to the simulated DFS
//!   (`additionalOutput`). The paper annotates an entity with its key;
//!   the rank is the key's stand-in, which the matching job turns into
//!   a block with one array load
//!   ([`BlockDistributionMatrix::block_of_rank`]) and, where the block
//!   has a pair, back into the key through the matrix
//!   ([`BlockDistributionMatrix::live_blocks`]);
//! * counts are aggregated in the mapper — the combiner of the paper's
//!   footnote 2, realised where the keys are already grouped: `finish`
//!   emits one `((key hash, partition index), (count, rank))` cell per
//!   distinct key, in rank order — ascending hash, so every bucket of
//!   the engine's map-side spiller arrives as one sorted run and its
//!   seal sorts nothing (the engine itself has no combiner). With
//!   `use_combiner` off `finish` emits Algorithm 3's record count
//!   instead — one `(1, rank)` per key of an entity — from the same
//!   place, because the rank is known only there. The shuffle record
//!   is four integers: the key travels as its
//!   [`HashPartitioner::hash`], which is also what places the block on
//!   a reduce task, so sorting, merging and grouping never follow a
//!   pointer;
//! * pairs are partitioned and *grouped* by the hash and sorted by
//!   `(hash, partition index)`, so one reduce call sees every block
//!   with that hash — one block, but for a 64-bit collision — its
//!   cells in partition order;
//! * `reduce` sums the block's cells per partition and writes them,
//!   each under the `(partition, rank)` its mapper gave the key — a
//!   row-wise enumeration of the non-zero BDM cells — unless the block
//!   has fewer than two entities. Such a block has no pair, and the
//!   matrix plans pairs: it is dropped here, the first place that
//!   knows a block's global size, and counted under
//!   [`PRUNED_BLOCKS`] / [`PRUNED_ENTITIES`]. (A mapper cannot drop
//!   its singletons: their partners may sit in another partition.) Of
//!   its one entity the reducer writes a sixteen-byte note — the same
//!   `(partition, rank)` and the key hash ([`RankedKey::Lone`]) — which
//!   is what Basic, hashing keys to reduce tasks, would need to place
//!   it, so that [`crate::analysis`] stays exact. Every key a mapper
//!   ranked thus comes back once, and the matrix builds each
//!   partition's rank → block remap from the job's output alone.
//!
//! **Key text from the products.** A map task's product
//! ([`Mapper::into_product`]) is its partition's distinct keys in rank
//! order, back to back in one buffer ([`KeyColumn`]); the engine lends
//! every reduce task all of them ([`Group::products`]), so the key of
//! a record is `products[partition].get(rank)`, a `&str`. A group of
//! one record counting one entity — a lone key, nearly every key under
//! sparse blocking — is written without reading its text. Any other
//! group reads its keys there: equal keys are folded as one block, and
//! keys that merely share a hash are sorted apart, eight-byte heads
//! (`key_head`) first, and folded one by one, so a collision costs a sort and
//! never a wrong cell. Only a block with a pair becomes a
//! [`BlockKey`], one per block, shared by its cells and the matrix.
//! The products live until the job ends and are then freed on the
//! pool, one map task's buffer per pool task; the full per-entity key
//! column is dropped when `finish` returns.
//! The mapper hashes a key's text (`key_hash`), which equals the hash
//! of the key's `BlockKey`: reduce placement, the notes' hashes and the
//! ranks do not depend on the form the key takes. The
//! cells `finish` emits, at most one per key of the partition, reach
//! the map-side spiller together; there the spill threshold bounds
//! them as before.

use std::cmp::Ordering;
use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction, KeyText};
use mr_engine::prelude::*;

use crate::bdm::{key_hash, key_head, BlockDistributionMatrix, RankedKey};
use crate::keys::key_index;
use crate::{Ent, RankedEntity, Ranks};

/// Counter: entities without a valid blocking key (`R_∅`). They are
/// in no block; [`crate::driver::run_er_in`] compares them in its `⊥`
/// stages when this counter is not zero.
pub const NULL_KEY_ENTITIES: &str = "er.null_key.entities";

/// Counter: blocks the reducer dropped because they have no pair
/// (`|Φ_k| < 2`); they are not in the matrix.
pub const PRUNED_BLOCKS: &str = "er.bdm.pruned_blocks";

/// Counter: entities (replicas, under multi-pass blocking) of the
/// dropped blocks. With the block sizes of the matrix it sums to the
/// keys the mappers ranked, one per key of each keyed entity.
pub const PRUNED_ENTITIES: &str = "er.bdm.pruned_entities";

/// The count key: `(`[`HashPartitioner::hash`]` of the blocking key,
/// partition index)`.
pub type BdmKey = (u64, u32);

/// The count value: `(entities, rank of the key in its partition)`.
pub type BdmCell = (u64, u32);

/// One map task's distinct blocking keys in rank order, back to back
/// in one buffer — the BDM job's map-task product: entry `j` is the key
/// ranked `j`.
pub type KeyColumn = KeyText;

/// An order of blocking keys read the cheap way: by an integer each
/// key determines, which `int` gives, and by their text, which `text`
/// gives, only where two integers tie. The mappers rank by the key's
/// [`key_hash`]; the reducer's collision split sorts by its
/// [`key_head`] — the first eight bytes, zero-padded and big-endian,
/// so that two heads that differ order their keys as the text does.
fn key_order<'k, T>(
    int: impl Fn(&T) -> u64,
    text: impl Fn(&T) -> &'k str,
) -> impl Fn(&T, &T) -> Ordering {
    move |a, b| int(a).cmp(&int(b)).then_with(|| text(a).cmp(text(b)))
}

/// Sorts `(hash, position)` entries by `order`, which must order them
/// by hash first: one in-place bucket pass on the hashes' top bits
/// (American flag sort) with at least as many buckets as entries, then
/// `order` within each bucket that holds more than one entry. A hash
/// is close to uniform, so nearly every bucket holds one entry or
/// none. Beside the entries the pass needs one `u32` per bucket.
fn sort_by_hash(
    entries: &mut [(u64, usize)],
    order: impl Fn(&(u64, usize), &(u64, usize)) -> Ordering,
) {
    if entries.len() < 2 {
        return;
    }
    u32::try_from(entries.len()).expect("a partition's keys fit the u32 bucket table");
    let bits = entries.len().next_power_of_two().trailing_zeros();
    let bucket = |&(hash, _): &(u64, usize)| (hash >> (64 - bits)) as usize;
    // `ends[b]`: one past the unfilled slots of bucket `b`. The pass
    // fills each bucket from its end, so an entry sits in its place
    // once it is at or past its bucket's `ends`.
    let mut ends = vec![0u32; 1 << bits];
    for entry in entries.iter() {
        ends[bucket(entry)] += 1;
    }
    let mut end = 0;
    for slot in &mut ends {
        end += *slot;
        *slot = end;
    }
    // Slot by slot, every bucket before the slot's is full: an entry
    // not yet in place belongs to the slot's bucket or a later one.
    // Carry it to its bucket's last unfilled slot, then the entry found
    // there, until one lands in the slot.
    for at in 0..entries.len() {
        let mut entry = entries[at];
        let mut b = bucket(&entry);
        if ends[b] as usize <= at {
            continue;
        }
        loop {
            ends[b] -= 1;
            let slot = ends[b] as usize;
            if slot == at {
                entries[at] = entry;
                break;
            }
            entry = std::mem::replace(&mut entries[slot], entry);
            b = bucket(&entry);
        }
    }
    for run in entries.chunk_by_mut(|a, b| bucket(a) == bucket(b)) {
        if run.len() > 1 {
            run.sort_unstable_by(&order);
        }
    }
}

/// Numbers the distinct keys of one partition's key column `0, 1, …`
/// in `(hash(key), key)` order — the job passes [`key_hash`] — and
/// returns the rank of every entry; `cell(rank, hash, key, count)` is
/// called once per distinct key, in rank order: by ascending hash, the
/// order the engine's map-side sort puts the job's cells in. Each key
/// is hashed once, and its text is read only where two hashes tie.
pub(crate) fn rank_keys(
    keys: &KeyText,
    hash: impl Fn(&str) -> u64,
    mut cell: impl FnMut(u32, u64, &str, u64),
) -> Vec<u32> {
    let mut order: Vec<(u64, usize)> = keys.iter().map(hash).zip(0..).collect();
    let by_key = key_order(|&(hash, _)| hash, |&(_, at)| keys.get(at));
    sort_by_hash(&mut order, &by_key);
    let mut ranks = vec![0u32; keys.len()];
    for (rank, group) in order.chunk_by(|a, b| by_key(a, b).is_eq()).enumerate() {
        let rank = key_index(rank, "distinct blocking keys of a partition");
        for &(_, at) in group {
            ranks[at] = rank;
        }
        let (hash, at) = group[0];
        cell(rank, hash, keys.get(at), group.len() as u64);
    }
    ranks
}

/// Mapper of Algorithm 3.
#[derive(Clone)]
pub struct BdmMapper {
    blocking: Arc<dyn BlockingFunction>,
    /// Emit one count per distinct key (footnote 2) instead of a `1`
    /// per key of an entity.
    aggregate: bool,
    partition: Option<u32>,
    /// The partition's keys so far, entity after entity (each entity's
    /// sorted and distinct).
    keys: KeyText,
    /// The partition's entities so far, in input order, each with the
    /// end of its keys in `keys` (a keyless entity's keys end where
    /// they start).
    entities: Vec<(usize, Ent)>,
    /// The partition's distinct keys in rank order, set by `finish`:
    /// the product.
    distinct: KeyColumn,
}

impl BdmMapper {
    /// Creates the mapper with the given blocking function;
    /// `use_combiner` aggregates its counts (see the module header).
    pub fn new(blocking: Arc<dyn BlockingFunction>, use_combiner: bool) -> Self {
        Self {
            blocking,
            aggregate: use_combiner,
            partition: None,
            keys: KeyText::new(),
            entities: Vec::new(),
            distinct: KeyText::new(),
        }
    }
}

impl Mapper for BdmMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = BdmKey;
    type VOut = BdmCell;
    type Side = RankedEntity;
    type Product = KeyColumn;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.partition = Some(key_index(info.task_index, "input partition index"));
    }

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<BdmKey, BdmCell, Self::Side>) {
        let start = self.keys.len();
        self.blocking.write_keys(entity, &mut self.keys);
        if self.keys.len() == start {
            ctx.add_counter(NULL_KEY_ENTITIES, 1);
        }
        self.keys.sort_and_dedup_from(start);
        self.entities.push((self.keys.len(), Arc::clone(entity)));
    }

    fn finish(&mut self, ctx: &mut MapContext<BdmKey, BdmCell, Self::Side>) {
        let partition = self.partition.expect("setup ran");
        let keys = std::mem::take(&mut self.keys);
        let mut ranks = rank_keys(&keys, key_hash, |rank, hash, key, count| {
            let (records, each) = if self.aggregate {
                (1, count)
            } else {
                (count, 1)
            };
            for _ in 0..records {
                ctx.emit((hash, partition), (each, rank));
            }
            self.distinct.push(key);
        });
        let mut start = 0;
        for (end, entity) in std::mem::take(&mut self.entities) {
            // An entity's keys are in key order, their ranks in hash
            // order.
            let own = &mut ranks[start..end];
            own.sort_unstable();
            ctx.side_output((Ranks::from(&*own), entity));
            start = end;
        }
    }

    fn into_product(self) -> KeyColumn {
        self.distinct
    }
}

/// One shuffle record of the BDM job as the reducer reads it:
/// `(partition, count, rank)`.
type Record = (u32, u64, u32);

/// Reducer of Algorithm 3, one call per key hash: sums each block's
/// counts per partition and writes the cells — or, of a block without
/// a pair, the note of its one entity (see the module header).
#[derive(Debug, Clone, Default)]
pub struct BdmReducer {
    pruned_blocks: u64,
    pruned_entities: u64,
}

impl BdmReducer {
    /// Writes the note of the one entity of a block without a pair.
    fn lone(
        &mut self,
        (partition, _, rank): Record,
        hash: u64,
        ctx: &mut ReduceContext<(u32, u32), RankedKey>,
    ) {
        self.pruned_blocks += 1;
        self.pruned_entities += 1;
        ctx.emit((partition, rank), RankedKey::Lone(hash));
    }
}

/// Writes the cells of the block of `key`, whose records arrive sorted
/// by partition: those of one cell (several only with `use_combiner`
/// off) are adjacent. The cells share one [`BlockKey`].
fn cells(
    key: &str,
    mut records: impl Iterator<Item = Record>,
    ctx: &mut ReduceContext<(u32, u32), RankedKey>,
) {
    let key = BlockKey::new(key);
    let (mut partition, mut count, mut rank) = records.next().expect("never empty");
    for (next, more, next_rank) in records {
        if next == partition {
            count += more;
        } else {
            ctx.emit((partition, rank), RankedKey::Cell(key.clone(), count));
            (partition, count, rank) = (next, more, next_rank);
        }
    }
    ctx.emit((partition, rank), RankedKey::Cell(key, count));
}

impl Reducer for BdmReducer {
    type KIn = BdmKey;
    type VIn = BdmCell;
    /// `(partition index, rank)`.
    type KOut = (u32, u32);
    type VOut = RankedKey;
    type Product = KeyColumn;

    fn reduce(
        &mut self,
        group: Group<'_, BdmKey, BdmCell, KeyColumn>,
        ctx: &mut ReduceContext<(u32, u32), RankedKey>,
    ) {
        let hash = group.key().0;
        let records = || {
            group
                .iter()
                .map(|(&(_, partition), &(count, rank))| (partition, count, rank))
        };
        let first = records().next().expect("never empty");
        if group.len() == 1 && first.1 == 1 {
            return self.lone(first, hash, ctx);
        }
        let products = group.products();
        let key_of =
            |&(partition, _, rank): &Record| products[partition as usize].get(rank as usize);
        let key = key_of(&first);
        if records().all(|record| key_of(&record) == key) {
            return cells(key, records(), ctx);
        }
        // Keys that share a 64-bit hash: split the group by key,
        // keeping each key's records in partition order.
        let mut split: Vec<(u64, Record)> = records()
            .map(|record| (key_head(key_of(&record)), record))
            .collect();
        let by_key = key_order(|&(head, _)| head, |(_, record)| key_of(record));
        split.sort_by(&by_key);
        for block in split.chunk_by(|a, b| by_key(a, b).is_eq()) {
            match *block {
                [(_, record @ (_, 1, _))] => self.lone(record, hash, ctx),
                _ => cells(
                    key_of(&block[0].1),
                    block.iter().map(|&(_, record)| record),
                    ctx,
                ),
            }
        }
    }

    fn finish(&mut self, ctx: &mut ReduceContext<(u32, u32), RankedKey>) {
        ctx.add_counter(PRUNED_BLOCKS, self.pruned_blocks);
        ctx.add_counter(PRUNED_ENTITIES, self.pruned_entities);
    }
}

/// Builds the BDM job. Partitioning and grouping are on the key-hash
/// component — the reduce task of a block is the one
/// [`HashPartitioner::bucket`] gives its key; sorting uses the entire
/// `(hash, partition)` pair.
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
            HashPartitioner::bucket_of_hash(key.0, r)
        }))
        .group_by(Arc::new(|a: &BdmKey, b: &BdmKey| a.0.cmp(&b.0)))
        .build()
}

/// Products of a completed BDM job: the matrix, the rank-annotated
/// input partitions `Π'_i` for Job 2, and the job metrics.
pub type BdmProducts = (BlockDistributionMatrix, Partitions<Ranks, Ent>, JobMetrics);

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
    use mr_engine::counters::REDUCE_INPUT_GROUPS;

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
        let (ranks, m) = &side[1][4];
        assert_eq!(m.get("title"), Some("z M"));
        let block = bdm.block_of_rank(1, ranks[0]).expect("z has pairs");
        assert_eq!(bdm.key(block as usize).as_str(), "z", "M's annotation");
        assert_eq!(metrics.map_output_records(), 14);
    }

    /// The shuffle record is plain integers: nothing to clone, drop or
    /// follow on either side of the shuffle.
    #[test]
    fn the_shuffle_record_is_pointer_free() {
        assert!(!std::mem::needs_drop::<(BdmKey, BdmCell)>());
        assert!(std::mem::size_of::<(BdmKey, BdmCell)>() <= 32);
    }

    /// What a reducer writes: its output records.
    type Written = Vec<((u32, u32), RankedKey)>;

    /// Runs one reducer over `groups`, one reduce call each, lending
    /// `products`: its output and its pruning counters.
    fn reduce_groups(
        groups: &[Vec<(BdmKey, BdmCell)>],
        products: &[KeyColumn],
    ) -> (Written, u64, u64) {
        let mut reducer = BdmReducer::default();
        let mut ctx = ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: products.len(),
        });
        for entries in groups {
            reducer.reduce(
                Group::for_testing(entries).with_products(products),
                &mut ctx,
            );
        }
        reducer.finish(&mut ctx);
        let counter = |name| ctx.counters().get(name);
        (
            ctx.output().to_vec(),
            counter(PRUNED_BLOCKS),
            counter(PRUNED_ENTITIES),
        )
    }

    /// Two keys that share a hash arrive in one group; the reducer
    /// splits it by key, and writes what each key writes in a group of
    /// its own — whether the keys meet in one partition or in two,
    /// lone or with a pair, one record per cell or one per entity.
    #[test]
    fn a_hash_collision_splits_the_group_by_key() {
        const HASH: u64 = 42;
        // Entities of "a" and of "b" per partition; both partitions
        // also rank a key "0" that is not in the group.
        let shapes: [([u64; 2], [u64; 2]); 6] = [
            ([1, 0], [0, 1]),
            ([1, 0], [1, 0]),
            ([1, 1], [0, 1]),
            ([0, 2], [1, 0]),
            ([2, 1], [1, 3]),
            ([1, 2], [2, 1]),
        ];
        for (a, b) in shapes {
            let counts = [("a", a), ("b", b)];
            let products: Vec<KeyColumn> = (0..2)
                .map(|p| {
                    let present = counts.iter().filter(|(_, n)| n[p] > 0);
                    std::iter::once("0")
                        .chain(present.map(|&(key, _)| key))
                        .collect()
                })
                .collect();
            for use_combiner in [true, false] {
                // Each key's records in partition order, as its mappers
                // emit them.
                let records = |&(key, n): &(&str, [u64; 2])| -> Vec<(BdmKey, BdmCell)> {
                    let mut records = Vec::new();
                    for (p, &count) in n.iter().enumerate().filter(|(_, &c)| c > 0) {
                        let rank = products[p].iter().position(|k| k == key).unwrap() as u32;
                        let (times, each) = if use_combiner { (1, count) } else { (count, 1) };
                        records.extend((0..times).map(|_| ((HASH, p as u32), (each, rank))));
                    }
                    records
                };
                let alone: Vec<_> = counts.iter().map(records).collect();
                // The shuffle sorts the collided group by partition
                // only: within a partition "b" may come first.
                let mut collided: Vec<_> = alone.iter().rev().flatten().copied().collect();
                collided.sort_by_key(|&((_, p), _)| p);
                assert_eq!(
                    reduce_groups(&[collided], &products),
                    reduce_groups(&alone, &products),
                    "a {a:?}, b {b:?}, combiner {use_combiner}"
                );
            }
        }
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
        // Two keys -> two count records and one side record with both
        // ranks, ascending: "w" hashes below "acme", so it is ranked 0.
        // Both blocks are singletons, so the reducer drops them and
        // leaves a note of each.
        assert_eq!(out.metrics.map_output_records(), 2);
        assert_eq!(out.side_outputs[0].len(), 1);
        assert_eq!(*out.side_outputs[0][0].0, [0, 1]);
        let mut notes: Vec<_> = out.records().cloned().collect();
        notes.sort_by_key(|&(ranked, _)| ranked);
        // The mapper hashed the key's text (`&str`): equal to the hash
        // of its `BlockKey`, as this comparison pins.
        let lone = |key: &str| RankedKey::Lone(HashPartitioner::hash(&BlockKey::new(key)));
        assert_eq!(notes, [((0, 0), lone("w")), ((0, 1), lone("acme"))]);
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

    /// What a side partition says, comparably: the entity's ranks and
    /// its id.
    type SideView = Vec<Vec<(Vec<u32>, u64)>>;

    fn side_view(side: &Partitions<Ranks, Ent>) -> SideView {
        side.iter()
            .map(|partition| {
                partition
                    .iter()
                    .map(|(ranks, entity)| (ranks.to_vec(), entity.id().0))
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
            // The oracle: each entity's sorted keys (none when it is
            // keyless) and id, in input order.
            let expected: Vec<Vec<(Vec<BlockKey>, u64)>> = input
                .iter()
                .map(|partition| {
                    partition
                        .iter()
                        .map(|(_, e)| (two_pass.keys(e), e.id().0))
                        .collect()
                })
                .collect();
            let null_keyed = input.iter().flatten().filter(|(_, e)| two_pass.keys(e).is_empty()).count();
            let key_lists: Vec<Vec<BlockKey>> = expected
                .iter()
                .map(|partition| partition.iter().flat_map(|(keys, _)| keys.iter().cloned()).collect())
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
                    // One reduce call per distinct key.
                    let groups = metrics.counters.get(REDUCE_INPUT_GROUPS);
                    prop_assert_eq!(groups as usize, global_count.len());
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
                        // Input order, every entity once.
                        let order: Vec<u64> = partition.iter().map(|(_, e)| e.id().0).collect();
                        let expected_order: Vec<u64> = expected[p].iter().map(|&(_, id)| id).collect();
                        prop_assert_eq!(&order, &expected_order);
                        // A key's rank is its place among the
                        // partition's distinct keys in `(hash, key)`
                        // order.
                        let distinct: std::collections::BTreeSet<(u64, &BlockKey)> = key_lists[p]
                            .iter()
                            .map(|key| (HashPartitioner::hash(key), key))
                            .collect();
                        let rank_of = |key: &BlockKey| distinct.iter().position(|&(_, k)| k == key).unwrap() as u32;
                        // Dense ranks, one per key, ascending, that
                        // remap to the key's block, or to none iff the
                        // key is alone in the input.
                        let mut seen = vec![false; bdm.blocks_in(p).len()];
                        for ((ranks, _), (keys, _)) in partition.iter().zip(&expected[p]) {
                            let mut expected_ranks: Vec<u32> = keys.iter().map(rank_of).collect();
                            expected_ranks.sort_unstable();
                            prop_assert_eq!(&**ranks, &expected_ranks[..]);
                            for key in keys {
                                let rank = rank_of(key);
                                let block = bdm.block_of_rank(p, rank);
                                prop_assert_eq!(block, bdm.block_index(key));
                                prop_assert_eq!(block.is_none(), global_count[key] == 1);
                                prop_assert_eq!(
                                    bdm.blocks_in(p)[rank as usize],
                                    block.unwrap_or(BlockDistributionMatrix::PRUNED)
                                );
                                seen[rank as usize] = true;
                            }
                        }
                        prop_assert!(seen.iter().all(|&s| s), "ranks of partition {} are not dense", p);
                    }
                    let view = side_view(&side);
                    prop_assert_eq!(first_side.get_or_insert_with(|| view.clone()), &view);
                }
            }
        }
    }

    /// Keys that are hard to tell apart: three skus that share their
    /// first eight bytes, a key beside itself zero-padded, nested keys
    /// and multi-byte text. Under the low-entropy [`HASHES`] many of
    /// them share a hash, and only their text orders them.
    const TIED: [&str; 16] = [
        "",
        "\0",
        "a",
        "ab",
        "ab\0",
        "ab\0\0\0\0\0\0",
        "abc",
        "sku00123",
        "sku00123\0",
        "sku0012345",
        "sku0012399",
        "e",
        "é",
        "名",
        "名前",
        "名前a",
    ];

    /// Hashes for `rank_keys` besides the job's own: low-entropy ones
    /// under which distinct keys share a hash — a real 64-bit collision
    /// cannot be built — spread over the top bits the bucket pass reads
    /// or kept below them, and one that ties every key.
    const HASHES: [fn(&str) -> u64; 4] = [
        key_hash,
        |key| (key.len() as u64 % 3).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        |key| key.bytes().next().map_or(0, u64::from) % 4,
        |_| 7,
    ];

    proptest::proptest! {
        /// `rank_keys` against a sorted map of the column's `(hash,
        /// key)` pairs to their counts: every entry's rank, and one
        /// `cell` call per distinct key, in that order, with its hash,
        /// text and count. Columns repeat keys and may be empty.
        #[test]
        fn rank_keys_numbers_keys_as_a_sorted_map_does(
            picks in proptest::collection::vec(0usize..TIED.len(), 0..40),
            hash in 0usize..HASHES.len(),
        ) {
            use proptest::prelude::*;
            use std::collections::BTreeMap;
            let hash = HASHES[hash];
            let column: KeyText = picks.iter().map(|&i| TIED[i]).collect();
            let mut reference = BTreeMap::<(u64, String), u64>::new();
            for &i in &picks {
                *reference.entry((hash(TIED[i]), TIED[i].to_owned())).or_default() += 1;
            }
            let mut calls = Vec::new();
            let ranks = rank_keys(&column, hash, |rank, hash, key, count| {
                calls.push((rank, hash, key.to_owned(), count));
            });
            let expected_calls: Vec<(u32, u64, String, u64)> = reference
                .iter()
                .enumerate()
                .map(|(rank, ((hash, key), &count))| (rank as u32, *hash, key.clone(), count))
                .collect();
            prop_assert_eq!(calls, expected_calls);
            let rank_of = |key: &str| reference.keys().position(|(_, k)| k == key).unwrap() as u32;
            let expected_ranks: Vec<u32> = picks.iter().map(|&i| rank_of(TIED[i])).collect();
            prop_assert_eq!(ranks, expected_ranks);
        }

        /// The bucket pass and its per-bucket sorts against one sort of
        /// the whole index, on hashes that repeat, crowd one bucket or
        /// differ only in their low bits.
        #[test]
        fn sort_by_hash_sorts_as_a_full_sort_does(
            hashes in proptest::collection::vec((0u64..4, 0u64..64, 0u64..u64::MAX), 0..300),
        ) {
            use proptest::prelude::*;
            let mut entries: Vec<(u64, usize)> = hashes
                .iter()
                .map(|&(shape, small, any)| match shape {
                    0 => any,
                    1 => small,
                    2 => small << 58,
                    _ => u64::MAX - small,
                })
                .zip(0..)
                .collect();
            let mut expected = entries.clone();
            expected.sort_unstable();
            sort_by_hash(&mut entries, |a, b| a.cmp(b));
            prop_assert_eq!(entries, expected);
        }
    }

    /// The cells one map task emits, in emission order: the order the
    /// engine's map-side sort receives them in.
    fn emitted(
        blocking: Arc<dyn BlockingFunction>,
        use_combiner: bool,
        partition: &[((), Ent)],
    ) -> Vec<(BdmKey, BdmCell)> {
        let info = MapTaskInfo {
            task_index: 1,
            num_map_tasks: 2,
            num_reduce_tasks: 3,
        };
        let mut mapper = BdmMapper::new(blocking, use_combiner);
        mapper.setup(&info);
        let mut ctx = MapContext::for_testing(info);
        for (key, entity) in partition {
            mapper.map(key, entity, &mut ctx);
        }
        mapper.finish(&mut ctx);
        ctx.output().to_vec()
    }

    /// `finish` emits its cells in ascending `(hash, partition)` order —
    /// the engine's shuffle order — so each of the map-side spiller's
    /// buckets arrives as one sorted run and its seal sorts nothing.
    /// Under single-key and two-pass blocking, with and without the
    /// mapper's aggregation.
    #[test]
    fn finish_emits_cells_in_shuffle_order() {
        use er_core::blocking::{AttributeBlocking, MultiPassBlocking};
        let two_pass: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
            Arc::new(AttributeBlocking::new("first")),
            Arc::new(AttributeBlocking::new("second")),
        ]));
        let keys = |id: usize| (KEYS[id % KEYS.len()], KEYS[id * 7 % KEYS.len()]);
        let input: Vec<((), Ent)> = (0..60)
            .map(|id| {
                let (first, second) = keys(id);
                let attributes = [("first", first), ("second", second)]
                    .into_iter()
                    .filter_map(|(name, key)| Some((name, key?)));
                ((), Arc::new(Entity::new(id as u64, attributes)))
            })
            .collect();
        let one_key: Arc<dyn BlockingFunction> = Arc::new(AttributeBlocking::new("first"));
        for (name, blocking) in [("one key", one_key), ("two passes", two_pass)] {
            for use_combiner in [true, false] {
                let cells = emitted(Arc::clone(&blocking), use_combiner, &input);
                let distinct: std::collections::BTreeSet<u64> =
                    cells.iter().map(|&((hash, _), _)| hash).collect();
                assert!(distinct.len() > 4, "{name}: {} keys", distinct.len());
                assert!(cells.iter().all(|&((_, p), _)| p == 1), "{name}");
                assert!(
                    cells.is_sorted_by_key(|&(key, _)| key),
                    "{name}, combiner {use_combiner}: cells out of shuffle order"
                );
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
