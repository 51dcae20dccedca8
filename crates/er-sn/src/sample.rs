//! MR Job 1 of the SN workflow: the sort-key distribution job.
//!
//! The analogue of the load-balancing paper's BDM job (Algorithm 3),
//! specialized to a total order. The map side derives every entity's
//! *sort key*, side-writes the entity to the simulated DFS (so the
//! matching job reads the same partitioning) and emits one
//! `(sort key, (map task, record index))` record per entity. The job
//! runs with **one** reduce task, whose heap merge is the global sort:
//! it meets every entity in `(sort key, map task, record index)` order,
//! numbers them `0, 1, …` — each entity's global *position* — and
//! emits one `(position, (map task, record index))` record per entity.
//! The coordinator scatters each position into its entity's
//! side-output record (`O(n)`, no comparison, no allocation per key).
//! Nothing of the sort keys outlives the job: the key ranges are cut
//! over positions from `(n, w, r)` alone ([`SnRanges`](crate::SnRanges)),
//! the window jobs route, sort and group on `(range, position)`
//! integers only, and RepSN knows from a position alone which ranges
//! need its entity as a replica. Everything is a pure function of the
//! input, at any parallelism.
//!
//! # Null sort keys
//!
//! Entities whose sort key cannot be derived are **never dropped
//! silently**: [`routing_key`] routes them under [`SortKey::empty`],
//! collated at the very front of the global order, and the mapper
//! counts them under [`crate::NULL_SORT_KEYS`].

use std::sync::Arc;

use er_core::sortkey::{SortKey, SortKeyFunction};
use er_core::Entity;
use er_loadbalance::keys::key_index;
use er_loadbalance::Ent;
use mr_engine::prelude::*;

use crate::NULL_SORT_KEYS;

/// The key `entity` is routed under: its derived sort key, or
/// [`SortKey::empty`] when it has none. The mapper and the
/// brute-force oracles share this one function, so the routing of
/// keyless entities can never drift between them.
pub fn routing_key(sort_key: &dyn SortKeyFunction, entity: &Entity) -> SortKey {
    sort_key.sort_key(entity).unwrap_or_else(SortKey::empty)
}

/// The input's entities in global sort order: by [`routing_key`],
/// ties in `(input partition, record order)` — the engine's stable
/// shuffle order, which the oracles reproduce.
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

/// Mapper of the distribution job: annotate, and address each entity's
/// sort key by `(map task, record index)`.
#[derive(Clone)]
pub struct SampleMapper {
    sort_key: Arc<dyn SortKeyFunction>,
    /// This task's index.
    task: u32,
    /// The index of the next record in this task's input.
    next: u32,
}

impl SampleMapper {
    /// Creates the mapper.
    pub fn new(sort_key: Arc<dyn SortKeyFunction>) -> Self {
        Self {
            sort_key,
            task: 0,
            next: 0,
        }
    }
}

impl Mapper for SampleMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = SortKey;
    type VOut = (u32, u32);
    /// `(position, entity)`: the position is a placeholder until the
    /// coordinator scatters the reduce task's positions into it.
    type Side = (u32, Ent);
    type Product = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        self.task = key_index(info.task_index, "map task index");
        self.next = 0;
    }

    fn map(
        &mut self,
        _key: &(),
        entity: &Ent,
        ctx: &mut MapContext<SortKey, (u32, u32), Self::Side>,
    ) {
        let key = routing_key(self.sort_key.as_ref(), entity);
        if key.is_empty() {
            ctx.add_counter(NULL_SORT_KEYS, 1);
        }
        ctx.side_output((0, Arc::clone(entity)));
        ctx.emit(key, (self.task, self.next));
        self.next = self
            .next
            .checked_add(1)
            .expect("a map task's record index fits in u32");
    }
}

/// Reducer of the distribution job — its one reduce task sees every
/// entity in global order, a group per distinct sort key whose members
/// arrive in `(map task, record index)` order, and numbers them: one
/// `(position, (map task, record index))` record per entity.
#[derive(Debug, Clone, Default)]
pub struct PositionReducer {
    /// Entities numbered so far: the next entity's position.
    entities: u64,
}

impl Reducer for PositionReducer {
    type KIn = SortKey;
    type VIn = (u32, u32);
    type KOut = u32;
    type VOut = (u32, u32);
    type Product = ();

    fn setup(&mut self, _info: &ReduceTaskInfo) {
        self.entities = 0;
    }

    fn reduce(
        &mut self,
        group: Group<'_, SortKey, (u32, u32)>,
        ctx: &mut ReduceContext<u32, (u32, u32)>,
    ) {
        for &address in group.values() {
            ctx.emit(key_index(self.entities, "entity position"), address);
            self.entities += 1;
        }
    }
}

/// Builds the distribution job: one `(sort key, address)` record per
/// entity, numbered by a single reduce task.
pub fn sample_job(sort_key: Arc<dyn SortKeyFunction>) -> Job<SampleMapper, PositionReducer> {
    Job::builder(
        "sn-sample",
        SampleMapper::new(sort_key),
        PositionReducer::default(),
    )
    .reduce_tasks(1)
    .build()
}

/// Products of a completed distribution job.
#[derive(Debug)]
pub struct SampleProducts {
    /// The input, identically partitioned, each entity annotated with
    /// its global position.
    pub annotated: Partitions<u32, Ent>,
    /// The job's metrics.
    pub metrics: JobMetrics,
}

/// Runs the distribution job as a stage of `workflow` and scatters
/// the positions into its side outputs. The annotated side outputs it
/// returns are chained into the window job by the workflow layer,
/// which enforces the identical-partitioning invariant.
pub fn sample_distribution_in(
    workflow: &mut mr_engine::workflow::Workflow,
    input: Partitions<(), Ent>,
    sort_key: Arc<dyn SortKeyFunction>,
) -> Result<SampleProducts, MrError> {
    let out = workflow.chained_stage(&sample_job(sort_key), input)?;
    let mut annotated = out.side_outputs;
    for (position, (task, index)) in out.reduce_outputs.into_iter().flatten() {
        annotated[task as usize][index as usize].0 = position;
    }
    Ok(SampleProducts {
        annotated,
        metrics: out.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::sortkey::AttributeSortKey;
    use mr_engine::pool::WorkerPool;
    use mr_engine::workflow::Workflow;

    /// Runs the distribution job alone, inline, without spilling.
    fn sample_distribution(input: Partitions<(), Ent>) -> Result<SampleProducts, MrError> {
        let mut workflow = Workflow::on_pool("sn-sample", Arc::new(WorkerPool::new(1)));
        sample_distribution_in(&mut workflow, input, sort_key())
    }

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

    #[test]
    fn full_sampling_builds_even_boundaries_and_annotates_everything() {
        let input = titles(&["dd", "aa", "cc", "bb"]);
        let products = sample_distribution(input).unwrap();
        assert_eq!(products.annotated.len(), 1, "partition shape preserved");
        assert_eq!(products.annotated[0].len(), 4, "every entity annotated");
        assert_eq!(
            products.metrics.map_output_records(),
            4,
            "every entity counted"
        );
        let positions: Vec<u32> = products.annotated[0].iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![3, 0, 2, 1], "dd, aa, cc, bb");
        // Under w = 2 the positions carry 0, 1, 1, 1 window pairs: two
        // even ranges are {aa, bb, cc} | {dd}.
        let ranges = crate::SnRanges::new(4, 2, 2);
        assert_eq!(ranges.starts(), [3]);
        let routed: Vec<usize> = positions.iter().map(|&p| ranges.partition_of(p)).collect();
        assert_eq!(routed, vec![1, 0, 0, 0]);
    }

    #[test]
    fn reducer_sums_duplicate_keys() {
        let input = titles(&["aa", "aa", "aa", "bb"]);
        let out = sample_job(sort_key())
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        assert_eq!(out.metrics.map_output_records(), 4, "one record per entity");
        assert_eq!(out.reduce_outputs.len(), 1, "one reduce task");
        let records: Vec<(u32, (u32, u32))> = out.records().cloned().collect();
        assert_eq!(
            records,
            vec![(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (0, 3))],
            "a position per entity, tied keys in record order"
        );
    }

    #[test]
    fn reduce_input_is_identical_across_spill_thresholds() {
        // Heavy ties spread over three map tasks: a map-side aggregate
        // applied once per seal would shrink the reduce input by a
        // threshold-dependent amount. Without one, every reduce task
        // sees the same records whatever the threshold.
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
        let run = |threshold: Option<usize>| {
            let mut workflow = Workflow::on_pool("sn-sample", Arc::new(WorkerPool::new(2)))
                .with_spill_threshold(threshold);
            let out = workflow
                .chained_stage(&sample_job(sort_key()), input.clone())
                .unwrap();
            let inputs: Vec<u64> = out
                .metrics
                .reduce_tasks
                .iter()
                .map(|t| t.counter(mr_engine::counters::REDUCE_INPUT_RECORDS))
                .collect();
            (inputs, out.reduce_outputs)
        };
        let (inputs, outputs) = run(None);
        for threshold in [Some(1), Some(3)] {
            let (spilled_inputs, spilled_outputs) = run(threshold);
            assert_eq!(
                spilled_inputs, inputs,
                "threshold {threshold:?}: reduce input"
            );
            assert_eq!(
                spilled_outputs, outputs,
                "threshold {threshold:?}: reduce output"
            );
        }
        assert_eq!(inputs.iter().sum::<u64>(), titles.len() as u64);
    }

    #[test]
    fn sort_first_policy_routes_keyless_entities_to_the_front() {
        let input = vec![vec![ent(0, Some("mm title")), ent(1, None), ent(2, None)]];
        let products = sample_distribution(input).unwrap();
        assert_eq!(products.metrics.counters.get(NULL_SORT_KEYS), 2);
        assert_eq!(
            products.annotated[0].len(),
            3,
            "keyless entities stay routed"
        );
        let positions: Vec<u32> = products.annotated[0].iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![2, 0, 1], "the empty key sorts first");
    }

    #[test]
    fn routing_key_is_the_derived_key_or_the_empty_key() {
        let title = AttributeSortKey::title();
        let keyless = Entity::new(9, [("brand", "x")]);
        assert_eq!(routing_key(&title, &keyless), SortKey::empty());
        let keyed = Entity::new(1, [("title", " Abc ")]);
        assert_eq!(routing_key(&title, &keyed), SortKey::new("abc"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use er_core::sortkey::AttributeSortKey;
    use mr_engine::pool::WorkerPool;
    use mr_engine::workflow::Workflow;
    use proptest::prelude::*;

    /// `picks` dealt round-robin over `m` map tasks: a pick divisible
    /// by 5 is keyless, any other a title from the first `letters`
    /// two-letter words — few distinct keys, so ties are heavy.
    fn input(picks: &[usize], letters: usize, m: usize) -> Partitions<(), Ent> {
        let mut input: Partitions<(), Ent> = vec![Vec::new(); m];
        for (i, &pick) in picks.iter().enumerate() {
            let entity = if pick % 5 == 0 {
                Entity::new(i as u64, [("brand", "keyless")])
            } else {
                let word = pick / 5 % letters;
                let title = format!("{}{}", char::from(b'a' + (word % 3) as u8), word);
                Entity::new(i as u64, [("title", title)])
            };
            input[i % m].push(((), Arc::new(entity)));
        }
        input
    }

    proptest! {
        /// Every side-output position is its entity's index in the
        /// oracles' global order, at every map-task count and spill
        /// threshold; so the ranges cut from the entity count hold
        /// exactly the positions between their starts.
        #[test]
        fn positions_number_the_entities_in_global_order(
            picks in proptest::collection::vec(0usize..60, 0..48),
            letters in 1usize..=9,
            m in 1usize..=8,
            partitions in 1usize..=6,
            w in 2usize..=12,
        ) {
            let input = input(&picks, letters, m);
            let sort_key: Arc<dyn SortKeyFunction> = Arc::new(AttributeSortKey::title());
            let sorted = sorted_order(&input, sort_key.as_ref());
            for threshold in [None, Some(1)] {
                let mut workflow = Workflow::on_pool("sn-sample", Arc::new(WorkerPool::new(2)))
                    .with_spill_threshold(threshold);
                let products =
                    sample_distribution_in(&mut workflow, input.clone(), Arc::clone(&sort_key))
                        .unwrap();
                prop_assert_eq!(products.annotated.len(), m);
                let ranges = crate::SnRanges::new(picks.len() as u64, w, partitions);
                let mut sizes = vec![0u64; partitions];
                for (annotated, original) in products.annotated.iter().zip(&input) {
                    prop_assert_eq!(annotated.len(), original.len());
                    for ((position, entity), ((), expected)) in annotated.iter().zip(original) {
                        prop_assert!(Arc::ptr_eq(entity, expected));
                        let key = routing_key(sort_key.as_ref(), entity);
                        let oracle = sorted.iter().position(|e| Arc::ptr_eq(e, entity));
                        prop_assert_eq!(Some(*position as usize), oracle, "{:?} {:?}", key, threshold);
                        sizes[ranges.partition_of(*position)] += 1;
                    }
                }
                let starts = ranges.starts().iter().copied();
                let bounds: Vec<u64> =
                    std::iter::once(0).chain(starts).chain([picks.len() as u64]).collect();
                let spans: Vec<u64> = bounds.windows(2).map(|b| b[1] - b[0]).collect();
                prop_assert_eq!(sizes, spans);
            }
        }
    }
}
