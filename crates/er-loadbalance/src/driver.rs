//! The end-to-end ER workflow (paper Figure 2).
//!
//! [`run_er_in`] compiles its scenario — one source, or two when the
//! input partitions come with source tags — onto a caller-owned
//! [`mr_engine::workflow::Workflow`]: the BDM job's side
//! outputs are chained into the matching job with the
//! identical-partitioning invariant enforced by the layer (a violation
//! is the typed [`MrError::StageShapeMismatch`], not a debug
//! assertion), and the workflow rolls the per-job metrics up when the
//! caller finishes it. [`run_match_stage`] is the matching job of
//! every BDM-balanced family (er-lsh runs it over its band buckets).

use std::sync::Arc;

use er_core::blocking::{BlockingFunction, PrefixBlocking};
use er_core::result::MatchPair;
use er_core::{MatchResult, Matcher, SourceId};
use mr_engine::engine::Job;
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::mapper::Mapper;
use mr_engine::metrics::JobMetrics;
use mr_engine::reducer::Reducer;
use mr_engine::runtime::DEFAULT_REDUCE_TASKS;
use mr_engine::workflow::Workflow;

use crate::basic::basic_job;
use crate::bdm::BlockDistributionMatrix;
use crate::bdm_job::compute_bdm_in;
use crate::block_split::block_split_job;
use crate::compare::PairComparer;
use crate::pair_range::{pair_range_job, RangePolicy};
use crate::{Ent, Keyed, StrategyKind};

/// Configuration of one ER run: what [`run_er_in`] reads, and nothing
/// else. How the stages run — spill threshold, fault policy and plan,
/// trace sink, tenant — is the caller's [`Workflow`]'s. The balancing
/// itself has no knob:
/// BlockSplit splits a block only on its share of the pairs
/// (Algorithm 1), PairRange cuts ranges of `⌈P/r⌉` pairs
/// ([`RangePolicy::CeilDiv`]) and the BDM job pre-aggregates its
/// counts, as in the paper.
#[derive(Clone)]
pub struct ErConfig {
    /// Blocking function (paper default: first 3 letters of `title`).
    pub blocking: Arc<dyn BlockingFunction>,
    /// Match rule (paper default: edit distance ≥ 0.8 on `title`).
    pub matcher: Arc<Matcher>,
    /// Which strategy runs the matching job.
    pub strategy: StrategyKind,
    /// Reduce tasks `r` of both jobs.
    pub reduce_tasks: usize,
}

impl ErConfig {
    /// Paper-default configuration for a strategy.
    pub fn new(strategy: StrategyKind) -> Self {
        Self {
            blocking: Arc::new(PrefixBlocking::title3()),
            matcher: Arc::new(Matcher::paper_default()),
            strategy,
            reduce_tasks: DEFAULT_REDUCE_TASKS,
        }
    }

    /// Overrides the blocking function.
    pub fn with_blocking(mut self, blocking: Arc<dyn BlockingFunction>) -> Self {
        self.blocking = blocking;
        self
    }

    /// Overrides the matcher.
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.matcher = matcher;
        self
    }

    /// Overrides the reduce-task count `r`.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        self.reduce_tasks = reduce_tasks;
        self
    }

    pub(crate) fn comparer(&self) -> PairComparer {
        PairComparer::new(Arc::clone(&self.matcher))
    }
}

impl std::fmt::Debug for ErConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErConfig")
            .field("strategy", &self.strategy)
            .field("reduce_tasks", &self.reduce_tasks)
            .finish_non_exhaustive()
    }
}

/// Products of the ER stages executed inside a caller-owned
/// [`Workflow`] — what [`run_er_in`] produces and the facade crate's
/// `Resolver` wraps into its outcome.
#[derive(Debug)]
pub struct ErStages {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The BDM (absent for Basic, which runs without preprocessing),
    /// source-tagged when the run linked two sources. It holds the
    /// blocks that have a pair; `bdm_metrics` counts the others under
    /// [`PRUNED_BLOCKS`](crate::bdm_job::PRUNED_BLOCKS) and
    /// [`PRUNED_ENTITIES`](crate::bdm_job::PRUNED_ENTITIES).
    pub bdm: Option<Arc<BlockDistributionMatrix>>,
    /// Metrics of the BDM job (absent for Basic).
    pub bdm_metrics: Option<JobMetrics>,
    /// Metrics of the matching job.
    pub match_metrics: JobMetrics,
}

impl ErStages {
    /// Comparison counts per reduce task of the matching job — the
    /// distribution the paper's strategies balance.
    pub fn reduce_loads(&self) -> Vec<u64> {
        self.match_metrics.per_reduce_counter(crate::COMPARISONS)
    }

    /// Total comparisons across all reduce tasks.
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_loads().iter().sum()
    }
}

/// What the matching job reads.
pub enum MatchInput {
    /// Basic derives the blocking keys of the raw entities itself.
    Entities {
        /// The input partitions.
        input: Partitions<(), Ent>,
        /// Their source tags, for two-source matching.
        sources: Option<Vec<SourceId>>,
    },
    /// BlockSplit and PairRange read the BDM job's products.
    Annotated {
        /// The BDM; source-tagged for two-source matching.
        bdm: Arc<BlockDistributionMatrix>,
        /// The rank-annotated partitions the BDM was counted over.
        annotated: Partitions<u32, Keyed>,
    },
}

/// Builds the matching job of `config.strategy` and runs it as the
/// next stage of `workflow` — the one match stage of [`run_er_in`] and
/// of er-lsh's candidate job. The BDM's side outputs are chained into
/// the job by the workflow layer, which enforces the
/// identical-partitioning invariant Algorithms 1–3 require.
///
/// # Panics
/// If `input` is not what the strategy reads.
pub fn run_match_stage(
    workflow: &mut Workflow,
    config: &ErConfig,
    input: MatchInput,
) -> Result<(MatchResult, JobMetrics), MrError> {
    let r = config.reduce_tasks;
    match (config.strategy, input) {
        (StrategyKind::Basic, MatchInput::Entities { input, sources }) => {
            let blocking = Arc::clone(&config.blocking);
            let job = basic_job(blocking, sources.map(Arc::from), config.comparer(), r);
            run_job(workflow, job, input)
        }
        (StrategyKind::BlockSplit, MatchInput::Annotated { bdm, annotated }) => {
            let job = block_split_job(bdm, config.comparer(), r);
            run_job(workflow, job, annotated)
        }
        (StrategyKind::PairRange, MatchInput::Annotated { bdm, annotated }) => {
            let job = pair_range_job(bdm, config.comparer(), RangePolicy::CeilDiv, r);
            run_job(workflow, job, annotated)
        }
        (strategy, _) => panic!("{strategy} was handed another strategy's input"),
    }
}

/// Runs a matching job and collects its output.
fn run_job<M, R>(
    workflow: &mut Workflow,
    job: Job<M, R>,
    input: Partitions<M::KIn, M::VIn>,
) -> Result<(MatchResult, JobMetrics), MrError>
where
    M: Mapper,
    M::KOut: Ord + Sync,
    M::VOut: Sync,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, KOut = MatchPair, VOut = f64, Product = M::Product>,
{
    let out = workflow.chained_stage(&job, input)?;
    let result = MatchResult::from_runs(out.reduce_outputs);
    Ok((result, out.metrics))
}

/// Executes the ER scenario (paper Figure 2) as stages of `workflow` —
/// the scenario compiler the facade crate's `Resolver` drives. The
/// workflow decides *where* stages run (which pool, under which cap,
/// tenant, fault policy and trace sink); the stages are the same on
/// any of them, so outputs are byte-identical.
///
/// `sources` selects the workload: `None` deduplicates one source;
/// `Some(tags)` links two (paper Appendix I: `tags[p]` labels input
/// partition `p` as `R` or `S`, and only cross-source pairs within
/// shared blocks are compared). The tags, not the entities' own
/// sources, say which side a partition is — [`crate::null_keys`] links
/// the keyed and keyless entities of *one* source this way.
///
/// Entities without a valid blocking key are *skipped* (counted under
/// [`crate::bdm_job::NULL_KEY_ENTITIES`]); use
/// [`crate::null_keys::deduplicate_with_null_keys`] to include them
/// via the paper's Cartesian decomposition.
///
/// Basic runs one stage, the matching job; BlockSplit and PairRange
/// run the BDM job (whose matrix is then tagged with `sources`) and
/// feed its products to the matching job.
pub fn run_er_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &ErConfig,
) -> Result<ErStages, MrError> {
    if config.strategy == StrategyKind::Basic {
        let input = MatchInput::Entities { input, sources };
        let (result, match_metrics) = run_match_stage(workflow, config, input)?;
        return Ok(ErStages {
            result,
            bdm: None,
            bdm_metrics: None,
            match_metrics,
        });
    }
    let (bdm, annotated, bdm_metrics) = compute_bdm_in(
        workflow,
        input,
        Arc::clone(&config.blocking),
        config.reduce_tasks,
        true,
    )?;
    let bdm = Arc::new(match sources {
        Some(tags) => bdm.with_sources(tags),
        None => bdm,
    });
    let input = MatchInput::Annotated {
        bdm: Arc::clone(&bdm),
        annotated,
    };
    let (result, match_metrics) = run_match_stage(workflow, config, input)?;
    Ok(ErStages {
        result,
        bdm: Some(bdm),
        bdm_metrics: Some(bdm_metrics),
        match_metrics,
    })
}

/// Test helper of this crate: compiles `config` onto a single-slot
/// pool, so every stage runs inline on the calling thread.
#[cfg(test)]
pub(crate) fn run_er_inline(input: Partitions<(), Ent>, config: &ErConfig) -> ErStages {
    let pool = Arc::new(mr_engine::pool::WorkerPool::new(1));
    let mut workflow = Workflow::on_pool(format!("er-{}", config.strategy), pool);
    run_er_in(&mut workflow, input, None, config).expect("the scenario compiles and runs")
}

/// Reference implementation: per-block all-pairs matching with no
/// MapReduce — the ground truth every strategy must reproduce exactly.
pub fn naive_reference(entities: &[Ent], config: &ErConfig) -> MatchResult {
    use std::collections::BTreeMap;
    let mut blocks: BTreeMap<er_core::blocking::BlockKey, Vec<crate::Keyed>> = BTreeMap::new();
    let mut replicas = Vec::new();
    for e in entities {
        crate::Keyed::derive_into(config.blocking.as_ref(), e, &mut replicas);
    }
    for keyed in replicas {
        blocks.entry(keyed.key.clone()).or_default().push(keyed);
    }
    let mut result = MatchResult::new();
    // Prepared once per entity across *all* of its blocks (multi-pass
    // blocking replicates entities), via the memoizing cache.
    let mut cache = er_core::MatcherCache::new(Arc::clone(&config.matcher));
    for (block_key, members) in &blocks {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (a, b) = (&members[i], &members[j]);
                if !a.should_compare_in(b, block_key) {
                    continue;
                }
                if let Some(score) = cache.matches(&a.entity, &b.entity) {
                    result.insert(
                        er_core::result::MatchPair::new(
                            a.entity.entity_ref(),
                            b.entity.entity_ref(),
                        ),
                        score,
                    );
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::running_example;

    fn example_config(strategy: StrategyKind) -> ErConfig {
        ErConfig::new(strategy)
            .with_blocking(running_example::blocking())
            .with_reduce_tasks(3)
    }

    fn run(config: &ErConfig) -> ErStages {
        run_er_inline(running_example::entity_partitions(), config)
    }

    #[test]
    fn all_strategies_compute_exactly_20_comparisons_on_the_example() {
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            assert_eq!(
                run(&example_config(strategy)).total_comparisons(),
                20,
                "{strategy} must evaluate each of the 20 pairs exactly once"
            );
        }
    }

    #[test]
    fn block_split_loads_match_figure5() {
        let mut loads = run(&example_config(StrategyKind::BlockSplit)).reduce_loads();
        loads.sort_unstable();
        assert_eq!(loads, vec![6, 7, 7]);
    }

    #[test]
    fn pair_range_loads_match_figure6() {
        let stages = run(&example_config(StrategyKind::PairRange));
        assert_eq!(stages.reduce_loads(), vec![7, 7, 6]);
    }

    #[test]
    fn basic_has_no_bdm() {
        let stages = run(&example_config(StrategyKind::Basic));
        assert!(stages.bdm.is_none());
        assert!(stages.bdm_metrics.is_none());
    }

    #[test]
    fn load_balanced_strategies_expose_the_bdm() {
        let stages = run(&example_config(StrategyKind::BlockSplit));
        let bdm = stages.bdm.expect("BDM computed");
        assert_eq!(bdm.total_pairs(), 20);
        assert!(stages.bdm_metrics.is_some());
    }
}
