//! MR Job 1 of the SN workflow: the sort-key distribution job.
//!
//! The analogue of the load-balancing paper's BDM job (Algorithm 3),
//! specialized to a total order: the map side derives every entity's
//! *sort key*, side-writes the annotated entity to the simulated DFS
//! (so the matching job reads the same partitioning, annotation
//! included), and emits one `(sort key, 1)` record per entity; the
//! reduce side is the engine's [`SumReducer`], which sums those `1`s
//! per key (the shuffle carries no map-side aggregate: on the
//! benchmark corpora every title is its own key, so there is
//! nothing to fold before the reduce). The resulting exact
//! histogram feeds [`RangePartitioner::from_counts`], yielding the
//! order-preserving partition boundaries both JobSN and RepSN route
//! by — a pure function of the input, at any parallelism.
//!
//! # Null sort keys
//!
//! Entities whose sort key cannot be derived are **never dropped
//! silently**: [`routing_key`] routes them under [`SortKey::empty`],
//! collated at the very front of the global order, and the mapper
//! counts them under [`crate::NULL_SORT_KEYS`].

use std::sync::Arc;

use er_core::runs::merge_runs;
use er_core::sortkey::{RangePartitioner, SortKey, SortKeyFunction};
use er_core::Entity;
use er_loadbalance::Ent;
use mr_engine::prelude::*;
use mr_engine::reducer::SumReducer;

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

/// Mapper of the distribution job: annotate + count.
#[derive(Clone)]
pub struct SampleMapper {
    sort_key: Arc<dyn SortKeyFunction>,
}

impl SampleMapper {
    /// Creates the mapper.
    pub fn new(sort_key: Arc<dyn SortKeyFunction>) -> Self {
        Self { sort_key }
    }
}

impl Mapper for SampleMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = SortKey;
    type VOut = u64;
    type Side = (SortKey, Ent);
    type Product = ();

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<SortKey, u64, Self::Side>) {
        let key = routing_key(self.sort_key.as_ref(), entity);
        if key.is_empty() {
            ctx.add_counter(NULL_SORT_KEYS, 1);
        }
        ctx.side_output((key.clone(), Arc::clone(entity)));
        ctx.emit(key, 1);
    }
}

/// Builds the distribution job: one `(sort key, 1)` record per entity,
/// summed per key by the reducer.
pub fn sample_job(
    sort_key: Arc<dyn SortKeyFunction>,
    reduce_tasks: usize,
) -> Job<SampleMapper, SumReducer<SortKey>> {
    Job::builder(
        "sn-sample",
        SampleMapper::new(sort_key),
        SumReducer::default(),
    )
    .reduce_tasks(reduce_tasks)
    .build()
}

/// Products of a completed distribution job: the range partitioner
/// over the requested number of contiguous key ranges, the annotated
/// input partitions for the matching job, and the job metrics.
pub type SampleProducts = (
    RangePartitioner<SortKey>,
    Partitions<SortKey, Ent>,
    JobMetrics,
);

/// Runs the distribution job as a stage of `workflow` and assembles
/// its [`SampleProducts`]. The annotated side outputs it returns are
/// chained into the window job by the workflow layer, which enforces
/// the identical-partitioning invariant.
pub fn sample_distribution_in(
    workflow: &mut mr_engine::workflow::Workflow,
    input: Partitions<(), Ent>,
    sort_key: Arc<dyn SortKeyFunction>,
    partitions: usize,
) -> Result<SampleProducts, MrError> {
    let job = sample_job(sort_key, partitions);
    let out = workflow.chained_stage(&job, input)?;
    // One ascending run per reduce task: merged, never re-sorted.
    let histogram = merge_runs(out.reduce_outputs, |sum, count| *sum += count);
    let partitioner = RangePartitioner::from_counts(histogram, partitions);
    Ok((partitioner, out.side_outputs, out.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::sortkey::AttributeSortKey;
    use mr_engine::pool::WorkerPool;
    use mr_engine::workflow::Workflow;

    /// Runs the distribution job alone, inline, without spilling.
    fn sample_distribution(
        input: Partitions<(), Ent>,
        partitions: usize,
    ) -> Result<SampleProducts, MrError> {
        let mut workflow = Workflow::on_pool("sn-sample", Arc::new(WorkerPool::new(1)));
        sample_distribution_in(&mut workflow, input, sort_key(), partitions)
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
        let (partitioner, annotated, metrics) = sample_distribution(input, 2).unwrap();
        assert_eq!(partitioner.num_partitions(), 2);
        assert_eq!(annotated.len(), 1, "partition shape preserved");
        assert_eq!(annotated[0].len(), 4, "every entity annotated");
        assert_eq!(metrics.map_output_records(), 4, "every entity counted");
        // Keys aa,bb route left of cc,dd.
        let p = |s: &str| partitioner.partition_of(&SortKey::new(s));
        assert!(p("aa") < p("cc"));
        assert_eq!(p("aa"), p("bb"));
    }

    #[test]
    fn reducer_sums_duplicate_keys() {
        let input = titles(&["aa", "aa", "aa", "bb"]);
        let out = sample_job(sort_key(), 2)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        assert_eq!(out.metrics.map_output_records(), 4, "one record per entity");
        assert_eq!(
            merge_runs(out.reduce_outputs, |sum, count| *sum += count),
            vec![(SortKey::new("aa"), 3), (SortKey::new("bb"), 1)]
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
                .chained_stage(&sample_job(sort_key(), 2), input.clone())
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
        let (partitioner, annotated, metrics) = sample_distribution(input, 2).unwrap();
        assert_eq!(metrics.counters.get(NULL_SORT_KEYS), 2);
        assert_eq!(annotated[0].len(), 3, "keyless entities stay routed");
        let keyless: Vec<&SortKey> = annotated[0]
            .iter()
            .filter(|(k, _)| k.is_empty())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keyless.len(), 2);
        assert_eq!(partitioner.partition_of(&SortKey::empty()), 0);
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
