//! MR Job 1 of the SN workflow: the sort-key distribution job.
//!
//! The analogue of the load-balancing paper's BDM job (Algorithm 3),
//! specialized to a total order: the map side derives every entity's
//! *sort key*, side-writes the annotated entity to the simulated DFS
//! (so the matching job reads the same partitioning, annotation
//! included), and emits a **sampled** `(sort key, 1)` stream; the
//! reduce side is the engine's [`SumReducer`]. The resulting histogram
//! feeds [`RangePartitioner::from_counts`], yielding the
//! order-preserving partition boundaries both JobSN and RepSN route
//! by.
//!
//! Sampling uses the deterministic
//! [`er_loadbalance::distribution::StrideSampler`] — one per map task,
//! admitting every k-th keyed entity — so the boundaries (and with
//! them the entire match output) are a pure function of the input, at
//! any parallelism.
//!
//! # Null sort keys
//!
//! Entities whose sort key cannot be derived are **never dropped
//! silently**: they are counted under [`crate::NULL_SORT_KEYS`] and
//! routed by the configured [`NullKeyPolicy`] — by default collated at
//! the very front of the global order under [`SortKey::empty`].

use std::sync::Arc;

use er_core::sortkey::{RangePartitioner, SortKey, SortKeyFunction};
use er_core::Entity;
use er_loadbalance::distribution::{key_histogram, StrideSampler};
use er_loadbalance::Ent;
use mr_engine::combiner::sum_u64_combiner;
use mr_engine::prelude::*;
use mr_engine::reducer::SumReducer;

use crate::{NullKeyPolicy, NULL_SORT_KEYS};

/// How an entity's sort key resolved under the null-key policy. The
/// mapper and the brute-force oracle share this one function, so the
/// routing of keyless entities can never drift between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedKey {
    /// A derived sort key.
    Key(SortKey),
    /// No key; routed under [`SortKey::empty`] (policy `SortFirst`) —
    /// collated at the front of the global order.
    RoutedFirst,
    /// No key; excluded from matching (policy `Skip`).
    Skipped,
}

impl ResolvedKey {
    /// The key the entity is routed under, or `None` when skipped.
    pub fn routing_key(self) -> Option<SortKey> {
        match self {
            ResolvedKey::Key(key) => Some(key),
            ResolvedKey::RoutedFirst => Some(SortKey::empty()),
            ResolvedKey::Skipped => None,
        }
    }

    /// True when the entity had no derivable sort key.
    pub fn is_null(&self) -> bool {
        !matches!(self, ResolvedKey::Key(_))
    }
}

/// Applies the null-key policy to the derived key of `entity`.
pub fn resolve_sort_key(
    function: &dyn SortKeyFunction,
    policy: NullKeyPolicy,
    entity: &Entity,
) -> ResolvedKey {
    match function.sort_key(entity) {
        Some(key) => ResolvedKey::Key(key),
        None => match policy {
            NullKeyPolicy::SortFirst => ResolvedKey::RoutedFirst,
            NullKeyPolicy::Skip => ResolvedKey::Skipped,
        },
    }
}

/// Mapper of the distribution job: annotate + sample.
#[derive(Clone)]
pub struct SampleMapper {
    sort_key: Arc<dyn SortKeyFunction>,
    policy: NullKeyPolicy,
    sampler: StrideSampler,
}

impl SampleMapper {
    /// Creates the mapper; `sample_rate ∈ (0, 1]` controls the
    /// admission stride.
    pub fn new(
        sort_key: Arc<dyn SortKeyFunction>,
        policy: NullKeyPolicy,
        sample_rate: f64,
    ) -> Self {
        Self {
            sort_key,
            policy,
            sampler: StrideSampler::with_rate(sample_rate),
        }
    }
}

impl Mapper for SampleMapper {
    type KIn = ();
    type VIn = Ent;
    type KOut = SortKey;
    type VOut = u64;
    type Side = (SortKey, Ent);

    fn map(&mut self, _key: &(), entity: &Ent, ctx: &mut MapContext<SortKey, u64, Self::Side>) {
        let resolved = resolve_sort_key(self.sort_key.as_ref(), self.policy, entity);
        if resolved.is_null() {
            ctx.add_counter(NULL_SORT_KEYS, 1);
        }
        let Some(key) = resolved.routing_key() else {
            return;
        };
        ctx.side_output((key.clone(), Arc::clone(entity)));
        if self.sampler.admit() {
            ctx.emit(key, 1);
        }
    }
}

/// Builds the distribution job.
pub fn sample_job(
    sort_key: Arc<dyn SortKeyFunction>,
    policy: NullKeyPolicy,
    sample_rate: f64,
    reduce_tasks: usize,
    use_combiner: bool,
) -> Job<SampleMapper, SumReducer<SortKey>> {
    let mut builder = Job::builder(
        "sn-sample",
        SampleMapper::new(sort_key, policy, sample_rate),
        SumReducer::default(),
    )
    .reduce_tasks(reduce_tasks);
    if use_combiner {
        builder = builder.combiner(sum_u64_combiner());
    }
    builder.build()
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
#[allow(clippy::too_many_arguments)]
pub fn sample_distribution_in(
    workflow: &mut mr_engine::workflow::Workflow,
    input: Partitions<(), Ent>,
    sort_key: Arc<dyn SortKeyFunction>,
    policy: NullKeyPolicy,
    sample_rate: f64,
    partitions: usize,
    use_combiner: bool,
    spill_threshold: Option<usize>,
) -> Result<SampleProducts, MrError> {
    let job = sample_job(sort_key, policy, sample_rate, partitions, use_combiner)
        .with_spill_threshold(spill_threshold);
    let out = workflow.chained_stage(&job, input)?;
    let histogram = key_histogram(out.reduce_outputs.into_iter().flatten());
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
        sort_key: Arc<dyn SortKeyFunction>,
        policy: NullKeyPolicy,
        sample_rate: f64,
        partitions: usize,
        use_combiner: bool,
    ) -> Result<SampleProducts, MrError> {
        let mut workflow = Workflow::on_pool("sn-sample", Arc::new(WorkerPool::new(1)));
        sample_distribution_in(
            &mut workflow,
            input,
            sort_key,
            policy,
            sample_rate,
            partitions,
            use_combiner,
            None,
        )
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
        let (partitioner, annotated, metrics) =
            sample_distribution(input, sort_key(), NullKeyPolicy::SortFirst, 1.0, 2, false)
                .unwrap();
        assert_eq!(partitioner.num_partitions(), 2);
        assert_eq!(annotated.len(), 1, "partition shape preserved");
        assert_eq!(annotated[0].len(), 4, "every entity annotated");
        assert_eq!(metrics.map_output_records(), 4, "rate 1.0 samples all");
        // Keys aa,bb route left of cc,dd.
        let p = |s: &str| partitioner.partition_of(&SortKey::new(s));
        assert!(p("aa") < p("cc"));
        assert_eq!(p("aa"), p("bb"));
    }

    #[test]
    fn stride_sampling_thins_the_histogram_but_not_the_annotation() {
        let ts: Vec<String> = (0..30).map(|i| format!("t{i:02}")).collect();
        let refs: Vec<&str> = ts.iter().map(String::as_str).collect();
        let (_, annotated, metrics) = sample_distribution(
            titles(&refs),
            sort_key(),
            NullKeyPolicy::SortFirst,
            0.1,
            4,
            false,
        )
        .unwrap();
        assert_eq!(annotated[0].len(), 30);
        assert_eq!(metrics.map_output_records(), 3, "1 in 10 sampled");
    }

    #[test]
    fn combiner_preaggregates_duplicate_keys() {
        let input = titles(&["aa", "aa", "aa", "bb"]);
        let plain = sample_job(sort_key(), NullKeyPolicy::SortFirst, 1.0, 2, false)
            .run_on(&WorkerPool::new(1), input.clone())
            .unwrap();
        let combined = sample_job(sort_key(), NullKeyPolicy::SortFirst, 1.0, 2, true)
            .run_on(&WorkerPool::new(1), input)
            .unwrap();
        assert_eq!(plain.metrics.map_output_records(), 4);
        assert_eq!(combined.metrics.map_output_records(), 2);
        assert_eq!(
            key_histogram(plain.reduce_outputs.into_iter().flatten()),
            key_histogram(combined.reduce_outputs.into_iter().flatten())
        );
    }

    #[test]
    fn sort_first_policy_routes_keyless_entities_to_the_front() {
        let input = vec![vec![ent(0, Some("mm title")), ent(1, None), ent(2, None)]];
        let (partitioner, annotated, metrics) =
            sample_distribution(input, sort_key(), NullKeyPolicy::SortFirst, 1.0, 2, false)
                .unwrap();
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
    fn skip_policy_counts_and_excludes_keyless_entities() {
        let input = vec![vec![ent(0, Some("mm title")), ent(1, None)]];
        let (_, annotated, metrics) =
            sample_distribution(input, sort_key(), NullKeyPolicy::Skip, 1.0, 2, false).unwrap();
        assert_eq!(metrics.counters.get(NULL_SORT_KEYS), 1);
        assert_eq!(annotated[0].len(), 1, "skipped entities leave the flow");
    }

    #[test]
    fn resolve_sort_key_reports_policy_outcomes() {
        let keyless = Entity::new(9, [("brand", "x")]);
        let first = resolve_sort_key(
            &AttributeSortKey::title(),
            NullKeyPolicy::SortFirst,
            &keyless,
        );
        assert_eq!(first, ResolvedKey::RoutedFirst);
        assert!(first.is_null());
        assert_eq!(first.routing_key(), Some(SortKey::empty()));
        let skipped = resolve_sort_key(&AttributeSortKey::title(), NullKeyPolicy::Skip, &keyless);
        assert_eq!(skipped.clone().routing_key(), None);
        let keyed = Entity::new(1, [("title", "Abc")]);
        let resolved = resolve_sort_key(&AttributeSortKey::title(), NullKeyPolicy::Skip, &keyed);
        assert!(!resolved.is_null());
        assert_eq!(resolved.routing_key(), Some(SortKey::new("abc")));
    }
}
