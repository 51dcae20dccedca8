//! The sort side of every Sorted Neighborhood job: each map task sorts
//! its own run, and each key-range task selects and merges its slice
//! of the global order.
//!
//! SN's global order is `(sort key, map task, record index)`, and a map
//! task's own entities, sorted by `(sort key, record index)`, are a run
//! of it. So nothing has to be shuffled to sort. [`RunMapper`] writes
//! each entity's [`routing_key`] into one flat
//! [`KeyText`], interns the entity into its
//! task's table once, and sorts the task's `(key head, record)` column
//! heads first: the 8-byte big-endian [`key_head`]s decide, and the key
//! text is read only where two heads tie. In that order it lays out
//! its product, a [`SortedRun`] — the heads, the key text and the
//! entities' rows, each column at its exact size, beside the table —
//! which the engine lends to every reduce task of the job. The shuffle
//! carries one trigger record per reduce task, from map task 0, so that
//! every range task runs.
//!
//! Reduce task `q` owns key range `q` of [`SnRanges`], cut from the
//! entity count alone. It finds, in every run, how many entries precede
//! the global ranks that bound its slice (`cut`: exact multisequence
//! selection, no sample) and merges those slices in global order
//! (`slice`). Everything is a pure function of the input, at any
//! parallelism and spill threshold.
//!
//! # Null sort keys
//!
//! Entities whose sort key cannot be derived are **never dropped
//! silently**: [`routing_key`] routes them under [`SortKey::empty`],
//! collated at the very front of the global order, and the mapper
//! counts them under [`crate::NULL_SORT_KEYS`].

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use er_core::blocking::KeyText;
use er_core::sortkey::{SortKey, SortKeyFunction};
use er_core::{Entity, PreparedArena, PreparedHandle, PreparedId};
use er_loadbalance::bdm::key_head;
use er_loadbalance::compare::{EntityInterner, EntityTable, PairComparer};
use er_loadbalance::keys::key_index;
use er_loadbalance::Ent;
use mr_engine::prelude::*;

use crate::keys::{range_partitioner, SnRanges, SN_BLOCK};
use crate::NULL_SORT_KEYS;

/// The key `entity` is routed under: its derived sort key, or
/// [`SortKey::empty`] when it has none. The mapper and the
/// brute-force oracles share this one function, so the routing of
/// keyless entities can never drift between them.
pub fn routing_key(sort_key: &dyn SortKeyFunction, entity: &Entity) -> SortKey {
    sort_key.sort_key(entity).unwrap_or_else(SortKey::empty)
}

/// The input's entities in global sort order: by [`routing_key`],
/// ties in `(input partition, record order)` — the order the runs'
/// merge produces, which the oracles reproduce.
pub(crate) fn sorted_order(
    input: &Partitions<(), Ent>,
    sort_key: &dyn SortKeyFunction,
) -> Vec<Ent> {
    let mut keyed: Vec<(SortKey, &Ent)> = input
        .iter()
        .flatten()
        .map(|((), entity)| (routing_key(sort_key, entity), entity))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0)); // stable: ties keep input order
    keyed
        .into_iter()
        .map(|(_, entity)| Arc::clone(entity))
        .collect()
}

/// Every window pair of `sorted` as `(earlier, later)`: for each
/// position `j`, its predecessors at `j − (w − 1)..j` in ascending
/// order — the one enumeration every brute-force oracle walks.
pub(crate) fn window_pairs(sorted: &[Ent], window: usize) -> impl Iterator<Item = (&Ent, &Ent)> {
    sorted.iter().enumerate().flat_map(move |(j, later)| {
        sorted[j.saturating_sub(window - 1)..j]
            .iter()
            .map(move |earlier| (earlier, later))
    })
}

/// One map task's product: its entities, each prepared once, in
/// `(routing key, record index)` order. Position `p` is the `p`-th
/// entity in that order; every column below is indexed by position.
#[derive(Debug, Clone, Default)]
pub struct SortedRun {
    /// The map task: the table's index among the stage's products.
    task: u32,
    /// The key's first eight bytes, zero-padded, big-endian
    /// ([`key_head`]).
    heads: Vec<u64>,
    /// The routing key.
    keys: KeyText,
    /// The entity's row in `table`.
    ids: Vec<PreparedId>,
    table: EntityTable,
}

impl SortedRun {
    /// Number of entities in the run.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True for a run of an empty input partition.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The row of the entity at `position` in the stage's tables.
    pub fn handle(&self, position: u32) -> PreparedHandle {
        PreparedHandle {
            arena: self.task,
            id: self.ids[position as usize],
        }
    }

    /// Test support: the id of the entity at `position`.
    #[cfg(test)]
    pub(crate) fn id(&self, position: u32) -> u64 {
        self.table.entity_ref(self.ids[position as usize]).id.0
    }
}

impl AsRef<EntityTable> for SortedRun {
    fn as_ref(&self) -> &EntityTable {
        &self.table
    }
}

impl AsRef<PreparedArena> for SortedRun {
    fn as_ref(&self) -> &PreparedArena {
        self.table.as_ref()
    }
}

/// An entry of a run: `(run, position)`.
type Entry = (usize, usize);

/// The global order: by key — heads first, the text only where two
/// heads tie, as heads that differ order their keys as the text does —
/// then run (the map task), then position.
fn global_cmp(runs: &[SortedRun], (a, p): Entry, (b, q): Entry) -> Ordering {
    let (x, y) = (&runs[a], &runs[b]);
    x.heads[p]
        .cmp(&y.heads[q])
        .then_with(|| x.keys.get(p).cmp(y.keys.get(q)))
        .then(a.cmp(&b))
        .then(p.cmp(&q))
}

/// The mapper of every Sorted Neighborhood job: builds its task's
/// [`SortedRun`]; map task 0 also emits one trigger record per reduce
/// task, keyed by the task's key range.
#[derive(Clone)]
pub struct RunMapper {
    sort_key: Arc<dyn SortKeyFunction>,
    interner: EntityInterner,
    /// The map task.
    task: u32,
    /// The task's routing keys and rows, in record order.
    keys: KeyText,
    ids: Vec<PreparedId>,
}

impl RunMapper {
    /// Creates the mapper, preparing entities for `comparer`.
    pub fn new(sort_key: Arc<dyn SortKeyFunction>, comparer: &PairComparer) -> Self {
        Self {
            sort_key,
            interner: EntityInterner::new(comparer),
            task: 0,
            keys: KeyText::new(),
            ids: Vec::new(),
        }
    }
}

impl Mapper for RunMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = u32;
    type VOut = ();
    type Side = ();
    type Product = SortedRun;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.interner.setup(info);
        self.task = key_index(info.task_index, "map task index");
    }

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<u32, (), ()>) {
        let key = routing_key(self.sort_key.as_ref(), entity);
        if key.is_empty() {
            ctx.add_counter(NULL_SORT_KEYS, 1);
        }
        self.keys.push(key.as_str());
        self.ids.push(self.interner.intern(entity, &[SN_BLOCK]).id);
    }

    fn finish(&mut self, ctx: &mut MapContext<u32, (), ()>) {
        self.interner.finish(ctx);
        let info = ctx.info();
        if info.task_index == 0 {
            for range in 0..info.num_reduce_tasks {
                ctx.emit(key_index(range, "key range index"), ());
            }
        }
    }

    /// Sorts the task's `(key head, record)` column heads first, then
    /// lays the run out in that order, each column at its exact size,
    /// and frees the record-order columns before the table is built.
    fn into_product(self) -> SortedRun {
        let (keys, ids) = (self.keys, self.ids);
        let mut order: Vec<(u64, usize)> = keys.iter().map(key_head).zip(0..).collect();
        order.sort_unstable_by(|&(a, i), &(b, j)| {
            a.cmp(&b)
                .then_with(|| keys.get(i).cmp(keys.get(j)))
                .then(i.cmp(&j))
        });
        let bytes = keys.iter().map(str::len).sum();
        let mut run = SortedRun {
            task: self.task,
            heads: order.iter().map(|&(head, _)| head).collect(),
            keys: KeyText::with_capacity(order.len(), bytes),
            ids: order.iter().map(|&(_, record)| ids[record]).collect(),
            ..SortedRun::default()
        };
        for &(_, record) in &order {
            run.keys.push(keys.get(record));
        }
        drop((keys, ids, order));
        run.table = self.interner.into_table();
        run
    }
}

/// A Sorted Neighborhood job named `name`: `mapper` under `reducer`,
/// one reduce task per key range, each reached by its trigger record.
pub(crate) fn sn_job<R>(
    name: &str,
    mapper: RunMapper,
    reducer: R,
    ranges: usize,
) -> Job<RunMapper, R>
where
    R: Reducer<KIn = u32, VIn = (), Product = SortedRun>,
{
    Job::builder(name, mapper, reducer)
        .reduce_tasks(ranges)
        .partitioner(range_partitioner())
        .build()
}

/// The first of the positions `0..len` at which `before` fails; it
/// must hold on a prefix of them.
fn partition_point(len: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// For each run, how many of its entries hold a global rank below
/// `rank`: exact multisequence selection (Varman et al., JPDC 1991).
///
/// Every run keeps an interval `[lo, hi)` that holds its cut. A round
/// takes the midpoint of every open interval, picks their median
/// weighted by interval width as the pivot, and places the pivot by one
/// binary search per run. If fewer than `rank` entries precede the
/// pivot, the pivot and everything before it lie below the cut, else
/// the pivot and everything after it lie above. Either way at least a
/// quarter of the open width closes, so a cut costs `O(log n)` rounds
/// of `O(m log n)` key compares over `m` runs of `n` entries.
///
/// # Panics
/// If `rank` exceeds the runs' total length.
pub(crate) fn cut(runs: &[SortedRun], rank: u64) -> Vec<usize> {
    let mut lo = vec![0usize; runs.len()];
    let mut hi: Vec<usize> = runs.iter().map(SortedRun::len).collect();
    let total = |bounds: &[usize]| bounds.iter().map(|&b| b as u64).sum::<u64>();
    assert!(rank <= total(&hi), "rank {rank} past the runs' end");
    let mut mids: Vec<Entry> = Vec::with_capacity(runs.len());
    loop {
        if total(&lo) == rank {
            return lo;
        }
        if total(&hi) == rank {
            return hi;
        }
        mids.clear();
        mids.extend(
            (0..runs.len())
                .filter(|&j| lo[j] < hi[j])
                .map(|j| (j, lo[j] + (hi[j] - lo[j]) / 2)),
        );
        mids.sort_unstable_by(|&a, &b| global_cmp(runs, a, b));
        let width: usize = (0..runs.len()).map(|j| hi[j] - lo[j]).sum();
        let mut covered = 0;
        let &pivot = mids
            .iter()
            .find(|&&(j, _)| {
                covered += hi[j] - lo[j];
                2 * covered >= width
            })
            .expect("the widths sum to the open width");
        let below: Vec<usize> = (0..runs.len())
            .map(|j| partition_point(runs[j].len(), |p| global_cmp(runs, (j, p), pivot).is_lt()))
            .collect();
        let (run, position) = pivot;
        if total(&below) < rank {
            for (lo, below) in lo.iter_mut().zip(&below) {
                *lo = (*lo).max(*below);
            }
            lo[run] = position + 1;
        } else {
            for (hi, below) in hi.iter_mut().zip(&below) {
                *hi = (*hi).min(*below);
            }
        }
    }
}

/// The entries of global ranks `ranks`, in global order, as
/// `(run, position)`: [`cut`] at both ends, then a lazy merge of the
/// runs' slices between the cuts — nothing of the range is
/// materialized.
pub(crate) fn slice(runs: &[SortedRun], ranks: Range<u64>) -> Merge<'_> {
    Merge {
        runs,
        at: cut(runs, ranks.start),
        end: cut(runs, ranks.end),
    }
}

/// The merge [`slice`] returns.
pub(crate) struct Merge<'a> {
    runs: &'a [SortedRun],
    /// Per run: the next entry, and the end of its slice.
    at: Vec<usize>,
    end: Vec<usize>,
}

impl Iterator for Merge<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let mut next: Option<Entry> = None;
        for j in (0..self.runs.len()).filter(|&j| self.at[j] < self.end[j]) {
            let entry = (j, self.at[j]);
            if next.is_none_or(|best| global_cmp(self.runs, entry, best).is_lt()) {
                next = Some(entry);
            }
        }
        let (run, position) = next?;
        self.at[run] += 1;
        Some((
            key_index(run, "map task index"),
            key_index(position, "a run's position"),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self
            .end
            .iter()
            .zip(&self.at)
            .map(|(end, at)| end - at)
            .sum();
        (left, Some(left))
    }
}

impl ExactSizeIterator for Merge<'_> {}

/// What the task of key range `range` (of `ranges`) walks, in global
/// order: the `w − 1` entries before the range's start (RepSN primes
/// its window with them), then the range's own. Returns how many of
/// them lead as replicas.
pub(crate) fn range_entries(
    runs: &[SortedRun],
    window: usize,
    range: u32,
    ranges: usize,
) -> (usize, Merge<'_>) {
    let entities = runs.iter().map(|run| run.len() as u64).sum();
    let span = SnRanges::new(entities, window, ranges).range(range as usize);
    let reach = u64::try_from(window - 1).unwrap_or(u64::MAX);
    let from = span.start.saturating_sub(reach);
    ((span.start - from) as usize, slice(runs, from..span.end))
}

/// Test support: the mapper of the tests' jobs, preparing for the
/// paper matcher.
#[cfg(test)]
pub(crate) fn test_mapper(sort_key: Arc<dyn SortKeyFunction>) -> RunMapper {
    let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
    RunMapper::new(sort_key, &comparer)
}

/// Test support: the runs `input`'s map tasks build under `sort_key`.
#[cfg(test)]
pub(crate) fn runs_of(
    input: &Partitions<(), Ent>,
    sort_key: Arc<dyn SortKeyFunction>,
) -> Vec<SortedRun> {
    let prototype = test_mapper(sort_key);
    input
        .iter()
        .enumerate()
        .map(|(task, partition)| {
            let info = MapTaskInfo {
                task_index: task,
                num_map_tasks: input.len(),
                num_reduce_tasks: 1,
            };
            let mut mapper = prototype.clone();
            let mut ctx = MapContext::for_testing(info);
            mapper.setup(&info);
            for (key, entity) in partition {
                mapper.map(key, entity, &mut ctx);
            }
            mapper.finish(&mut ctx);
            mapper.into_product()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::sortkey::AttributeSortKey;
    use mr_engine::workflow::Workflow;

    fn ent(id: u64, title: Option<&str>) -> ((), Ent) {
        match title {
            Some(t) => ((), Arc::new(Entity::new(id, [("title", t)]))),
            None => ((), Arc::new(Entity::new(id, [("brand", "keyless")]))),
        }
    }

    fn titles(ts: &[&str]) -> Partitions<(), Ent> {
        vec![ts
            .iter()
            .enumerate()
            .map(|(i, t)| ent(i as u64, Some(t)))
            .collect()]
    }

    fn sort_key() -> Arc<dyn SortKeyFunction> {
        Arc::new(AttributeSortKey::title())
    }

    /// The ids of `ranks` of the global order.
    fn ids(runs: &[SortedRun], ranks: Range<u64>) -> Vec<u64> {
        slice(runs, ranks)
            .map(|(run, position)| runs[run as usize].id(position))
            .collect()
    }

    #[test]
    fn a_run_sorts_its_entities_and_tables_each_once() {
        let runs = runs_of(&titles(&["dd", "aa", "cc", "bb"]), sort_key());
        assert_eq!(runs.len(), 1, "one run per map task");
        assert_eq!(runs[0].len(), 4, "every entity in the run");
        assert_eq!(ids(&runs, 0..4), [1, 3, 2, 0], "aa, bb, cc, dd");
        for (position, id) in [1, 3, 2, 0].into_iter().enumerate() {
            let handle = runs[0].handle(position as u32);
            let table: &EntityTable = runs[0].as_ref();
            assert_eq!(table.entity_ref(handle.id).id.0, id);
            assert_eq!(table.keys(handle.id), [SN_BLOCK]);
        }
        // Under w = 2 the ranks carry 0, 1, 1, 1 window pairs: two
        // even ranges are {aa, bb, cc} | {dd}.
        let (replicas, entries) = range_entries(&runs, 2, 1, 2);
        assert_eq!(replicas, 1, "cc primes range 1");
        assert_eq!(entries.collect::<Vec<_>>(), [(0, 2), (0, 3)]);
    }

    #[test]
    fn tied_keys_keep_map_task_then_record_order() {
        let input = vec![
            vec![ent(0, Some("aa")), ent(1, Some("bb")), ent(2, Some("aa"))],
            vec![ent(3, Some("aa")), ent(4, Some("a"))],
        ];
        let runs = runs_of(&input, sort_key());
        assert_eq!(ids(&runs, 0..5), [4, 0, 2, 3, 1]);
        assert_eq!(cut(&runs, 3), [2, 1], "a, aa, aa | aa, bb");
    }

    #[test]
    fn reduce_input_is_identical_across_spill_thresholds() {
        // Heavy ties over three map tasks: the shuffle carries only the
        // triggers, so every reduce task sees one record whatever the
        // threshold, and the output is the same.
        let titles = ["aa", "bb", "aa", "aa", "cc", "bb", "aa", "cc", "aa"];
        let input: Partitions<(), Ent> = titles
            .chunks(3)
            .enumerate()
            .map(|(p, chunk)| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, t)| ent((3 * p + i) as u64, Some(t)))
                    .collect()
            })
            .collect();
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let run = |threshold: Option<usize>| {
            let mut workflow = Workflow::on_pool("sn", Arc::new(WorkerPool::new(2)))
                .with_spill_threshold(threshold);
            let job = crate::repsn::repsn_job(sort_key(), comparer.clone(), 3, 4);
            let out = workflow.chained_stage(&job, input.clone()).unwrap();
            let inputs = out
                .metrics
                .per_reduce_counter(mr_engine::counters::REDUCE_INPUT_RECORDS);
            (inputs, out.metrics.map_output_records(), out.reduce_outputs)
        };
        let (inputs, records, outputs) = run(None);
        assert_eq!(inputs, [1, 1, 1, 1], "one trigger per range");
        assert_eq!(records, 4);
        for threshold in [Some(1), Some(3)] {
            assert_eq!(run(threshold), (inputs.clone(), records, outputs.clone()));
        }
    }

    #[test]
    fn sort_first_policy_routes_keyless_entities_to_the_front() {
        let input = vec![vec![ent(0, Some("mm title")), ent(1, None), ent(2, None)]];
        let runs = runs_of(&input, sort_key());
        assert_eq!(runs[0].len(), 3, "keyless entities stay routed");
        assert_eq!(ids(&runs, 0..3), [1, 2, 0], "the empty key sorts first");
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let out = crate::repsn::repsn_job(sort_key(), comparer, 2, 1)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        assert_eq!(out.metrics.counters.get(NULL_SORT_KEYS), 2);
    }

    #[test]
    fn routing_key_is_the_derived_key_or_the_empty_key() {
        let title = AttributeSortKey::title();
        let keyless = Entity::new(9, [("brand", "x")]);
        assert_eq!(routing_key(&title, &keyless), SortKey::empty());
        let keyed = Entity::new(1, [("title", " Abc ")]);
        assert_eq!(routing_key(&title, &keyed), SortKey::new("abc"));
    }

    /// A run entry is two integers: sorting and selecting moves no
    /// pointer, and only a tie of 8-byte heads reads key text.
    #[test]
    fn a_run_entry_is_pointer_free() {
        assert!(!std::mem::needs_drop::<(u64, u32)>());
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use er_core::sortkey::AttributeSortKey;
    use mr_engine::workflow::Workflow;
    use proptest::prelude::*;

    /// Titles whose heads tie: the first three share their first eight
    /// bytes and differ only past them (`\0` sorts before `4`, and the
    /// key-head pads with `\0` too).
    const TITLES: [&str; 7] = [
        "sku00123",
        "sku00123\0",
        "sku0012345",
        "sku0012",
        "b",
        "b",
        "sku00124",
    ];

    /// `picks` dealt over `m` map tasks by `tasks`: a pick divisible by
    /// 8 is keyless, any other a title from [`TITLES`] — few distinct
    /// keys, so ties are heavy, and a task may get no entity at all.
    fn input(picks: &[(usize, usize)], m: usize) -> Partitions<(), Ent> {
        let mut input: Partitions<(), Ent> = vec![Vec::new(); m];
        for (i, &(pick, task)) in picks.iter().enumerate() {
            let entity = if pick % 8 == 0 {
                Entity::new(i as u64, [("brand", "keyless")])
            } else {
                Entity::new(i as u64, [("title", TITLES[pick % 8 - 1])])
            };
            input[task % m].push(((), Arc::new(entity)));
        }
        input
    }

    proptest! {
        /// At every rank `0..=n`, the selection cuts every run exactly
        /// where a full stable merge of the runs does — over 1 to 8
        /// runs, empty ones among them, heavy ties, heads that tie past
        /// byte 8 and keyless entities — and the merge from every rank
        /// to the end is that merge's suffix.
        #[test]
        fn selection_cuts_every_run_where_a_full_merge_does(
            picks in proptest::collection::vec((0usize..64, 0usize..64), 0..48),
            m in 1usize..=8,
        ) {
            let input = input(&picks, m);
            let runs = runs_of(&input, Arc::new(AttributeSortKey::title()));
            // The full merge: every entry with its run, stably sorted
            // by key text — ties keep (run, position) order.
            let mut merged: Vec<(String, u32, u32)> = runs
                .iter()
                .enumerate()
                .flat_map(|(j, run)| {
                    (0..run.len() as u32).map(move |position| {
                        (run.keys.get(position as usize).to_owned(), j as u32, position)
                    })
                })
                .collect();
            merged.sort_by(|a, b| a.0.cmp(&b.0));
            let n = merged.len();
            for rank in 0..=n {
                let mut expected = vec![0usize; m];
                for &(_, j, _) in &merged[..rank] {
                    expected[j as usize] += 1;
                }
                prop_assert_eq!(cut(&runs, rank as u64), expected, "rank {}", rank);
                let suffix: Vec<(u32, u32)> =
                    merged[rank..].iter().map(|&(_, j, position)| (j, position)).collect();
                let merge = slice(&runs, rank as u64..n as u64);
                prop_assert_eq!(merge.len(), n - rank);
                prop_assert_eq!(merge.collect::<Vec<_>>(), suffix, "rank {}", rank);
            }
        }

        /// Run through the engine at 1 to 8 map tasks and spill
        /// thresholds `None` and `Some(1)`, the key ranges' slices,
        /// concatenated in range order, are the oracles' global order,
        /// and each range holds exactly the ranks between its starts.
        #[test]
        fn positions_number_the_entities_in_global_order(
            picks in proptest::collection::vec((0usize..64, 0usize..64), 0..48),
            m in 1usize..=8,
            ranges in 1usize..=6,
            w in 2usize..=12,
        ) {
            /// Emits its range's entities' ids, in the slice's order.
            #[derive(Clone)]
            struct Ids(usize);
            impl Reducer for Ids {
                type KIn = u32;
                type VIn = ();
                type KOut = ();
                type VOut = u64;
                type Product = SortedRun;
                fn reduce(&mut self, group: Group<'_, u32, (), SortedRun>, ctx: &mut ReduceContext<(), u64>) {
                    let runs = group.products();
                    let ranges = ctx.info().num_reduce_tasks;
                    let entities = runs.iter().map(|run| run.len() as u64).sum();
                    let span = SnRanges::new(entities, self.0, ranges).range(*group.key() as usize);
                    for (run, position) in slice(runs, span) {
                        ctx.emit((), runs[run as usize].id(position));
                    }
                }
            }
            let input = input(&picks, m);
            let sort_key: Arc<dyn SortKeyFunction> = Arc::new(AttributeSortKey::title());
            let sorted: Vec<u64> = sorted_order(&input, sort_key.as_ref())
                .iter()
                .map(|entity| entity.id().0)
                .collect();
            let bounds = SnRanges::new(picks.len() as u64, w, ranges);
            for threshold in [None, Some(1)] {
                let mut workflow = Workflow::on_pool("sn", Arc::new(WorkerPool::new(2)))
                    .with_spill_threshold(threshold);
                let job = sn_job("sn-ids", test_mapper(Arc::clone(&sort_key)), Ids(w), ranges);
                let out = workflow.chained_stage(&job, input.clone()).unwrap();
                let sizes: Vec<usize> = out.reduce_outputs.iter().map(Vec::len).collect();
                let spans: Vec<usize> = (0..ranges)
                    .map(|q| {
                        let span = bounds.range(q);
                        (span.end - span.start) as usize
                    })
                    .collect();
                prop_assert_eq!(sizes, spans, "{:?}", threshold);
                let order: Vec<u64> = out.records().map(|&((), id)| id).collect();
                prop_assert_eq!(&order, &sorted, "{:?}", threshold);
            }
        }
    }
}
