//! One front door: a [`Resolver`] session API over a shared
//! [`Runtime`], unifying every entity-resolution scenario.
//!
//! One declarative surface covers all workload classes (blocking-based
//! dedup and linkage, single- and multi-pass Sorted Neighborhood,
//! banded-MinHash LSH dedup and linkage):
//!
//! 1. create a [`Runtime`] once — its worker pool is spawned **once**
//!    and shared by every subsequent run;
//! 2. build a [`Resolver`] and set the workload knobs (blocking
//!    function, matcher, window, …) — each shared knob is
//!    stored exactly once and reaches every scenario family;
//! 3. describe *what* to resolve with a [`Scenario`] value and call
//!    [`Resolver::resolve`], which compiles the scenario into
//!    [`Workflow`](mr_engine::workflow::Workflow) stages on the
//!    runtime's pool (the `run_*_in` compilers of the family crates)
//!    and returns one unified [`Outcome`] or [`ResolveError`].
//!
//! ```
//! use std::sync::Arc;
//! use dedupe_mr::prelude::*;
//!
//! let entities: Vec<Ent> = vec![
//!     Arc::new(Entity::new(0, [("title", "canon eos 5d mark iii")])),
//!     Arc::new(Entity::new(1, [("title", "canon eos 5d mark iri")])),
//!     Arc::new(Entity::new(2, [("title", "nikon d800 body only")])),
//! ];
//! let input = partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 2);
//!
//! let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
//! let resolver = Resolver::new(&runtime);
//!
//! // Same session, two scenarios, one thread pool:
//! let dedup = resolver
//!     .resolve(&Scenario::Dedup { strategy: StrategyKind::BlockSplit }, input.clone())
//!     .unwrap();
//! let sn = resolver
//!     .resolve(&Scenario::sorted_neighborhood(SnStrategy::RepSn), input)
//!     .unwrap();
//! assert_eq!(dedup.result.len(), 1);
//! assert_eq!(sn.result.len(), 1);
//! ```

use std::sync::Arc;

use er_core::blocking::BlockingFunction;
use er_core::sortkey::{AttributeSortKey, SortKeyFunction};
use er_core::{MatchResult, Matcher, SourceId};
use er_loadbalance::driver::{run_er_in, ErStages};
use er_loadbalance::{BlockDistributionMatrix, Ent, StrategyKind};
use er_lsh::driver::run_lsh_in;
use er_lsh::{LshConfig, LshParams, LshRound};
use er_sn::driver::run_sorted_neighborhood_in;
use er_sn::multipass::run_multipass_sn_in;
use er_sn::{SnConfig, SnPassReport, SnStages, SnStrategy};
use mr_engine::error::MrError;
use mr_engine::fault::{FaultPlan, FaultPolicy};
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::{Runtime, RuntimeConfig};
use mr_engine::trace::TraceSink;
use mr_engine::workflow::WorkflowMetrics;

use er_loadbalance::ErConfig;

/// A declarative description of *what* to resolve; the [`Resolver`]
/// compiles it into the matching multi-stage workflow.
///
/// Each family has one rule for an entity without a key:
///
/// | Scenario | Scenario compiler | An entity without a key |
/// |---|---|---|
/// | `Dedup` | [`er_loadbalance::driver::run_er_in`] | is compared with every other entity: the paper's decomposition, run as further `⊥` stages |
/// | `Linkage` | [`er_loadbalance::driver::run_er_in`], source-tagged | is compared with every entity of the other source, likewise |
/// | `SortedNeighborhood` (no passes) | [`er_sn::driver::run_sorted_neighborhood_in`] | has the empty sort key and sorts first, counted under [`er_sn::NULL_SORT_KEYS`] |
/// | `SortedNeighborhood` (explicit passes) | [`er_sn::multipass::run_multipass_sn_in`] | likewise, per pass |
/// | `Lsh` | [`er_lsh::driver::run_lsh_in`] | has zero shingles, hence no band key: it is counted under [`er_loadbalance::bdm_job::NULL_KEY_ENTITIES`] and compared with no entity |
#[derive(Clone)]
pub enum Scenario {
    /// Single-source deduplication via blocking (paper Figure 2) under
    /// one of the three load-balancing strategies.
    Dedup {
        /// Matching-job strategy (Basic / BlockSplit / PairRange).
        strategy: StrategyKind,
    },
    /// Two-source record linkage (paper Appendix I): `sources[p]` tags
    /// input partition `p` as `R` or `S`; only cross-source pairs
    /// within shared blocks, or with a keyless member, are compared.
    Linkage {
        /// Matching-job strategy.
        strategy: StrategyKind,
        /// One source tag per input partition.
        sources: Vec<SourceId>,
    },
    /// Sorted Neighborhood blocking: sliding window over a total sort
    /// order, range boundaries covered by replication (RepSN).
    ///
    /// With `passes` empty, a single pass sorts by the full normalized
    /// `title` (the sort key of [`SnConfig::new`]). With explicit
    /// `passes`, one window workflow runs per key function
    /// and the pair sets union under the first-pass-wins dedup gate —
    /// multi-pass SN.
    SortedNeighborhood {
        /// Sort keys for multi-pass SN; empty = single pass by
        /// `title`.
        passes: Vec<Arc<dyn SortKeyFunction>>,
    },
    /// Banded-MinHash (LSH) blocking, load-balanced over the banded
    /// key space by BlockSplit: oversized band buckets split into
    /// balanced sub-tasks.
    ///
    /// With `params` fixed, one signature round runs under that
    /// banding; with `params: None` the adaptive driver walks the
    /// session's `(bands, rows)` ladder until the enumerated candidate
    /// workload fits the configured budget (see
    /// [`Resolver::with_lsh_ladder`] /
    /// [`Resolver::with_lsh_budget`]), reporting every round in the
    /// outcome's [`ScenarioDetails::Lsh`].
    Lsh {
        /// Fixed banding, or `None` for the adaptive ladder.
        params: Option<LshParams>,
        /// `None` deduplicates one source; `Some(tags)` links two
        /// (`tags[p]` labels input partition `p`; only cross-source
        /// pairs within shared band buckets are compared).
        sources: Option<Vec<SourceId>>,
    },
}

impl Scenario {
    /// Single-pass Sorted Neighborhood, sorted by `title`. RepSN is the
    /// one strategy; [`SnStrategy`] says why the argument stays.
    pub fn sorted_neighborhood(_strategy: SnStrategy) -> Self {
        Scenario::SortedNeighborhood { passes: Vec::new() }
    }

    /// Multi-pass Sorted Neighborhood over the given sort keys.
    pub fn multipass_sn(passes: impl IntoIterator<Item = Arc<dyn SortKeyFunction>>) -> Self {
        Scenario::SortedNeighborhood {
            passes: passes.into_iter().collect(),
        }
    }

    /// Single-source LSH deduplication under a fixed banding.
    pub fn lsh(params: LshParams) -> Self {
        Scenario::Lsh {
            params: Some(params),
            sources: None,
        }
    }

    /// Single-source LSH deduplication under the session's adaptive
    /// `(bands, rows)` ladder.
    pub fn lsh_adaptive() -> Self {
        Scenario::Lsh {
            params: None,
            sources: None,
        }
    }

    /// Two-source LSH linkage (fixed banding when `params` is `Some`,
    /// adaptive otherwise).
    pub fn lsh_linkage(params: Option<LshParams>, sources: Vec<SourceId>) -> Self {
        Scenario::Lsh {
            params,
            sources: Some(sources),
        }
    }

    /// The workflow name this scenario compiles to (the name its
    /// metrics roll-up and trace events carry).
    pub fn workflow_name(&self) -> String {
        match self {
            Scenario::Dedup { strategy } => format!("er-{strategy}"),
            Scenario::Linkage { strategy, .. } => format!("linkage-{strategy}"),
            // The names carry the strategy's label, RepSN: trace
            // streams and tenant names are keyed by them.
            Scenario::SortedNeighborhood { passes } if passes.is_empty() => "sn-RepSN".to_string(),
            Scenario::SortedNeighborhood { .. } => "sn-multipass-RepSN".to_string(),
            Scenario::Lsh { sources: None, .. } => "lsh".to_string(),
            Scenario::Lsh {
                sources: Some(_), ..
            } => "lsh-linkage".to_string(),
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Dedup { strategy } => {
                f.debug_struct("Dedup").field("strategy", strategy).finish()
            }
            Scenario::Linkage { strategy, sources } => f
                .debug_struct("Linkage")
                .field("strategy", strategy)
                .field("sources", sources)
                .finish(),
            Scenario::SortedNeighborhood { passes } => f
                .debug_struct("SortedNeighborhood")
                .field("passes", &passes.len())
                .finish(),
            Scenario::Lsh { params, sources } => f
                .debug_struct("Lsh")
                .field("params", params)
                .field("sources", sources)
                .finish(),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.workflow_name())
    }
}

/// The one error type of the unified surface, composing every layer's
/// failures so `?` works across them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The MapReduce engine rejected the run (configuration or
    /// input-shape problem; no task ran).
    Mr(MrError),
    /// A linkage scenario's `sources` do not describe its input
    /// partitions ([`Scenario::Linkage`], [`Scenario::Lsh`] with tags);
    /// no task ran.
    SourceTags(SourceTagError),
    /// The session's settings cannot run the scenario; no task ran.
    InvalidConfig(ConfigError),
}

/// Which session setting cannot run the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// [`Scenario::Lsh`] without fixed `params` on a session whose
    /// adaptive ladder ([`Resolver::with_lsh_ladder`]) is empty.
    EmptyLshLadder,
    /// An LSH banding with zero bands or zero rows.
    ZeroLshBanding(LshParams),
    /// A Sorted Neighborhood scenario with a window below 2
    /// ([`Resolver::with_window`]): a window of one compares nothing.
    SnWindowTooSmall(usize),
    /// Zero reduce tasks ([`Resolver::with_reduce_tasks`]): every
    /// scenario's jobs need one — for Sorted Neighborhood, one key
    /// range.
    ZeroReduceTasks,
    /// A spill threshold of zero records
    /// ([`Resolver::with_spill_threshold`], or the session's
    /// [`RuntimeConfig::spill_threshold`]): a seal needs at least one.
    ZeroSpillThreshold,
    /// More reduce tasks ([`Resolver::with_reduce_tasks`]) — for
    /// Sorted Neighborhood, key ranges — than the `u32` component of a
    /// composite map-output key can address.
    TooManyReduceTasks(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyLshLadder => {
                f.write_str("the adaptive LSH ladder needs at least one rung")
            }
            ConfigError::ZeroLshBanding(params) => {
                write!(f, "LSH banding {params} needs at least one band and row")
            }
            ConfigError::SnWindowTooSmall(window) => {
                write!(
                    f,
                    "a sliding window must span at least 2 slots, got {window}"
                )
            }
            ConfigError::ZeroReduceTasks => {
                f.write_str("a scenario needs at least one reduce task")
            }
            ConfigError::ZeroSpillThreshold => {
                f.write_str("a spill threshold must be at least one record")
            }
            ConfigError::TooManyReduceTasks(n) => {
                write!(f, "{n} reduce tasks do not fit a u32 map-output key")
            }
        }
    }
}

/// What is wrong with the source tags of a linkage scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceTagError {
    /// There is not exactly one tag per input partition.
    Count {
        /// Tags given.
        tags: usize,
        /// Input partitions given.
        partitions: usize,
    },
    /// A partition is tagged with a source other than `R` and `S`.
    Unknown {
        /// The offending partition.
        partition: usize,
        /// Its tag.
        tag: SourceId,
    },
    /// A partition holds an entity of another source than its tag.
    Mismatch {
        /// The offending partition.
        partition: usize,
        /// Its tag.
        tag: SourceId,
        /// The source of the first entity that contradicts it.
        entity: SourceId,
    },
}

impl SourceTagError {
    /// Checks that `sources` tags every partition of `input` `R` or
    /// `S` and that each partition holds entities of its tag only.
    fn check(input: &Partitions<(), Ent>, sources: &[SourceId]) -> Result<(), Self> {
        if sources.len() != input.len() {
            return Err(SourceTagError::Count {
                tags: sources.len(),
                partitions: input.len(),
            });
        }
        for (partition, (records, &tag)) in input.iter().zip(sources).enumerate() {
            if tag != SourceId::R && tag != SourceId::S {
                return Err(SourceTagError::Unknown { partition, tag });
            }
            if let Some(((), stray)) = records.iter().find(|((), e)| e.source() != tag) {
                let entity = stray.source();
                return Err(SourceTagError::Mismatch {
                    partition,
                    tag,
                    entity,
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for SourceTagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SourceTagError::Count { tags, partitions } => write!(
                f,
                "{tags} source tags for {partitions} input partitions; need one per partition"
            ),
            SourceTagError::Unknown { partition, tag } => write!(
                f,
                "partition {partition} is tagged {tag}; two-source matching knows only R and S"
            ),
            SourceTagError::Mismatch {
                partition,
                tag,
                entity,
            } => write!(
                f,
                "partition {partition} is tagged {tag} but holds an entity of source {entity}"
            ),
        }
    }
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Mr(e) => write!(f, "MapReduce error: {e}"),
            ResolveError::SourceTags(e) => write!(f, "bad source tags: {e}"),
            ResolveError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ResolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResolveError::Mr(e) => Some(e),
            ResolveError::SourceTags(_) | ResolveError::InvalidConfig(_) => None,
        }
    }
}

impl From<MrError> for ResolveError {
    fn from(e: MrError) -> Self {
        ResolveError::Mr(e)
    }
}

/// Per-scenario extras of an [`Outcome`], beyond the match result and
/// the workflow roll-up every scenario shares.
#[derive(Debug)]
pub enum ScenarioDetails {
    /// Blocking-based scenarios ([`Scenario::Dedup`],
    /// [`Scenario::Linkage`]).
    Blocked {
        /// The BDM (absent for Basic, which runs without
        /// preprocessing) — see [`ScenarioDetails::bdm`] for what it
        /// holds.
        bdm: Option<Arc<BlockDistributionMatrix>>,
        /// Metrics of the BDM job (absent for Basic).
        bdm_metrics: Option<JobMetrics>,
        /// Metrics of the matching job.
        match_metrics: JobMetrics,
    },
    /// Single-pass Sorted Neighborhood (single-key
    /// [`Scenario::SortedNeighborhood`]).
    Sorted {
        /// Always empty — no tasks, no counters, zero wall: SN runs no
        /// distribution job, as each map task sorts its own run. Kept
        /// because the performance ledger reads it as
        /// `sn.sample_stage_s`, which therefore reads 0.
        sample_metrics: JobMetrics,
        /// Metrics of the matching job.
        match_metrics: JobMetrics,
    },
    /// Multi-pass Sorted Neighborhood: one report per pass.
    MultiPass {
        /// Per-pass reports, in pass order.
        passes: Vec<SnPassReport>,
    },
    /// Banded-MinHash scenarios ([`Scenario::Lsh`]).
    Lsh {
        /// The accepted banding.
        params: LshParams,
        /// One report per executed adaptive round, in ladder order.
        rounds: Vec<LshRound>,
        /// The accepted rung's band-bucket distribution matrix — see
        /// [`ScenarioDetails::bdm`] for what it holds.
        bdm: Arc<BlockDistributionMatrix>,
        /// Metrics of the accepted signature job.
        bdm_metrics: JobMetrics,
        /// Metrics of the candidate/matching job.
        match_metrics: JobMetrics,
    },
}

impl ScenarioDetails {
    /// The matching job's metrics, for scenarios with exactly one
    /// matching job (`None` for multi-pass runs — see
    /// [`ScenarioDetails::passes`]).
    pub fn match_metrics(&self) -> Option<&JobMetrics> {
        match self {
            ScenarioDetails::Blocked { match_metrics, .. }
            | ScenarioDetails::Sorted { match_metrics, .. }
            | ScenarioDetails::Lsh { match_metrics, .. } => Some(match_metrics),
            ScenarioDetails::MultiPass { .. } => None,
        }
    }

    /// The Block Distribution Matrix, when the scenario computed one
    /// (for LSH scenarios: the accepted rung's band-bucket matrix).
    ///
    /// It holds the blocks that have a pair (`|Φ_k| ≥ 2`), in
    /// lexicographic key order: `num_blocks`, `size` and the block
    /// indexes do not cover the rest, which the BDM job's reducer
    /// drops and the outcome's workflow counters report instead —
    /// [`PRUNED_BLOCKS`](er_loadbalance::bdm_job::PRUNED_BLOCKS) and
    /// [`PRUNED_ENTITIES`](er_loadbalance::bdm_job::PRUNED_ENTITIES);
    /// the latter (also the matrix's `pruned_entities()`) plus
    /// `Σ size(k)` is every keyed replica of the input.
    pub fn bdm(&self) -> Option<&Arc<BlockDistributionMatrix>> {
        match self {
            ScenarioDetails::Blocked { bdm, .. } => bdm.as_ref(),
            ScenarioDetails::Lsh { bdm, .. } => Some(bdm),
            _ => None,
        }
    }

    /// The accepted banding, for LSH scenarios.
    pub fn lsh_params(&self) -> Option<LshParams> {
        match self {
            ScenarioDetails::Lsh { params, .. } => Some(*params),
            _ => None,
        }
    }

    /// Per-round adaptive reports, for LSH scenarios.
    pub fn lsh_rounds(&self) -> Option<&[LshRound]> {
        match self {
            ScenarioDetails::Lsh { rounds, .. } => Some(rounds),
            _ => None,
        }
    }

    /// Per-pass reports, for multi-pass SN scenarios.
    pub fn passes(&self) -> Option<&[SnPassReport]> {
        match self {
            ScenarioDetails::MultiPass { passes } => Some(passes),
            _ => None,
        }
    }
}

/// Everything a completed [`Resolver::resolve`] produces, uniformly
/// across scenarios.
#[derive(Debug)]
pub struct Outcome {
    /// The deduplicated match result (cross-source only for the
    /// linkage scenarios).
    pub result: MatchResult,
    /// Rolled-up metrics of the whole run: per-stage walls, end-to-end
    /// wall, merged counters, peak-memory gauges.
    pub workflow: WorkflowMetrics,
    /// Per-scenario extras (BDM, per-stage metrics, pass reports, …).
    pub details: ScenarioDetails,
}

impl Outcome {
    /// Total pair comparisons across every stage of the run — the
    /// workload unit the paper's strategies balance. Uniform over all
    /// scenarios (summed passes for multi-pass).
    pub fn total_comparisons(&self) -> u64 {
        self.workflow.counters.get(er_loadbalance::COMPARISONS)
    }

    /// Comparison counts per reduce task of the matching job (`None`
    /// for multi-pass runs, which have one matching job per pass).
    pub fn reduce_loads(&self) -> Option<Vec<u64>> {
        self.details
            .match_metrics()
            .map(|m| m.per_reduce_counter(er_loadbalance::COMPARISONS))
    }
}

/// The unified session front end: borrows a [`Runtime`] (whose pool
/// outlives any single run) and compiles [`Scenario`]s into workflows.
///
/// A resolver is a configured *session*: workload knobs set once apply
/// to every subsequent [`Resolver::resolve`] call, and any number of
/// scenarios can be resolved back to back — all on the runtime's
/// persistent worker pool. Every knob is stored exactly once: the
/// facts all families share (the session's [`RuntimeConfig`], matcher
/// and fault plan) plus each family's own parameters;
/// [`Resolver::er_config`], [`Resolver::sn_config`] and
/// [`Resolver::lsh_config`] assemble a family's config from them on
/// demand. The balancing runs the paper's constants: BlockSplit splits
/// a block only on its share of the pairs, PairRange cuts ranges of
/// `⌈P/r⌉` pairs, the BDM job pre-aggregates its counts, SN cuts its
/// key ranges at window-pair quantiles, and LSH's candidate job is
/// BlockSplit.
///
/// # Concurrency contract
///
/// `Resolver` is `Send + Sync` (asserted at compile time):
/// [`Resolver::resolve`] may be called from any number of threads at
/// once — on one shared resolver, or on per-tenant clones of it
/// (cloning is cheap; the configs are `Arc`-backed). Concurrent
/// resolves interleave task by task on the runtime's pool, and each
/// produces the same [`Outcome`] — byte-identical result, exact
/// per-workflow metrics — it would produce running alone. Give each
/// tenant's clone its own [`Resolver::with_tenant`] label to make
/// [`mr_engine::pool::PoolStats`] and the per-tenant trace report
/// section attribute work correctly. One
/// tenant's failure (even an injected panic) never stalls another's
/// dispatch — see [`Runtime`]'s concurrency contract.
#[derive(Clone)]
pub struct Resolver<'rt> {
    runtime: &'rt Runtime,
    /// The session's copy of the shared knobs, seeded from the
    /// runtime's; `parallelism` belongs to the runtime's pool and is
    /// never overridden here.
    shared: RuntimeConfig,
    matcher: Arc<Matcher>,
    fault_plan: FaultPlan,
    /// Blocking family.
    blocking: Arc<dyn BlockingFunction>,
    /// Sorted Neighborhood family; its key-range count is
    /// `shared.reduce_tasks`.
    window: usize,
    /// LSH family.
    lsh_ladder: Vec<LshParams>,
    lsh_budget: Option<u64>,
    /// Tenant label this session's workflows are attributed to on the
    /// shared pool; `None` uses the pool's `"default"` tenant.
    tenant: Option<Arc<str>>,
    /// Session-level trace sink; overrides the runtime's when set.
    trace_sink: Option<Arc<dyn TraceSink>>,
}

/// Compile-time pin of the concurrency contract: sessions must stay
/// shareable across threads so one runtime can serve many concurrent
/// tenants.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Resolver<'_>>();
    assert_send_sync::<Scenario>();
};

// Manual: the `dyn` function objects carry no `Debug` bound.
impl std::fmt::Debug for Resolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolver")
            .field("runtime", &self.runtime)
            .field("shared", &self.shared)
            .field("fault_plan", &self.fault_plan)
            .field("window", &self.window)
            .field("lsh_ladder", &self.lsh_ladder)
            .field("tenant", &self.tenant)
            .field("traced", &self.trace_sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'rt> Resolver<'rt> {
    /// Starts a session on `runtime`, inheriting its defaults
    /// (`reduce_tasks`, `spill_threshold`, `fault_policy`), no fault
    /// plan, and the family crates' paper-default workload settings.
    pub fn new(runtime: &'rt Runtime) -> Self {
        // The family crates own the paper defaults.
        let er = ErConfig::new(StrategyKind::Basic);
        let sn = SnConfig::new();
        let lsh = LshConfig::new();
        Self {
            runtime,
            shared: *runtime.config(),
            matcher: er.matcher,
            fault_plan: FaultPlan::new(),
            blocking: er.blocking,
            window: sn.window,
            lsh_ladder: lsh.ladder,
            lsh_budget: lsh.candidate_budget,
            tenant: None,
            trace_sink: None,
        }
    }

    /// The runtime this session executes on.
    pub fn runtime(&self) -> &'rt Runtime {
        self.runtime
    }

    /// Overrides the blocking function of the blocking-based scenarios
    /// (paper default: first 3 letters of `title`).
    pub fn with_blocking(mut self, blocking: Arc<dyn BlockingFunction>) -> Self {
        self.blocking = blocking;
        self
    }

    /// Overrides the matcher for every scenario (paper default: edit
    /// distance ≥ 0.8 on `title`).
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.matcher = matcher;
        self
    }

    /// Overrides the SN window size (`w ≥ 2`, checked when an SN
    /// scenario runs).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Overrides the number of reduce tasks for this session — both
    /// jobs of the blocking and LSH scenarios *and* the SN key-range
    /// count (the ranges are the reduce tasks of SN's matching job).
    /// Zero is checked when a scenario runs.
    pub fn with_reduce_tasks(mut self, r: usize) -> Self {
        self.shared.reduce_tasks = r;
        self
    }

    /// Sets the map-side spill threshold for this session, overriding
    /// the runtime default: every stage of every scenario seals its
    /// shuffle buckets into sorted runs every `threshold` open
    /// records, bounding map-phase resident memory. `None` restores
    /// the spill-free default; outputs are byte-identical at any
    /// threshold. `Some(0)` is checked when a scenario runs.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        self.shared.spill_threshold = threshold;
        self
    }

    /// Overrides the per-task fault-tolerance policy (retry budget) for
    /// this session, replacing the runtime's
    /// [`RuntimeConfig::fault_policy`] default. Retried tasks never
    /// change the match result — outputs stay byte-identical to a
    /// fault-free run.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.shared.fault_policy = policy;
        self
    }

    /// Installs a deterministic fault-injection schedule for every
    /// scenario this session resolves — the test/bench harness that
    /// exercises the retry path at exact task coordinates. An empty
    /// plan (the default) injects nothing.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Replaces the LSH adaptive `(bands, rows)` ladder, widest rung
    /// first — what [`Scenario::lsh_adaptive`] walks until the
    /// candidate workload fits the budget.
    pub fn with_lsh_ladder(mut self, ladder: Vec<LshParams>) -> Self {
        self.lsh_ladder = ladder;
        self
    }

    /// Sets the candidate budget the adaptive LSH rounds tighten
    /// towards (`None`, the default, accepts the widest rung
    /// immediately).
    pub fn with_lsh_budget(mut self, budget: Option<u64>) -> Self {
        self.lsh_budget = budget;
        self
    }

    /// Labels every workflow this session resolves with `tenant` on
    /// the runtime's shared pool — the identity
    /// [`mr_engine::pool::PoolStats`] reports inflight work by, and
    /// the trace report's per-tenant section aggregates on. Typical use: clone one configured resolver per
    /// tenant and give each clone its own label. Purely operational —
    /// outputs are byte-identical under any labeling.
    pub fn with_tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant label of this session, if one is set.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Attaches a [`TraceSink`] receiving structured execution events
    /// (task attempts, retries, spills, pool scheduling;
    /// see [`mr_engine::trace`]) from every scenario this session
    /// resolves — overriding any sink on the runtime. The default (no
    /// sink) resolves untraced at zero cost.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// The blocking-scenario config this session compiles for
    /// `strategy` — what [`Resolver::resolve`] hands to the stage
    /// compilers, exposed for oracles
    /// ([`er_loadbalance::driver::naive_reference`]) and tests.
    pub fn er_config(&self, strategy: StrategyKind) -> ErConfig {
        ErConfig {
            blocking: Arc::clone(&self.blocking),
            matcher: Arc::clone(&self.matcher),
            strategy,
            reduce_tasks: self.shared.reduce_tasks,
        }
    }

    /// The SN config this session compiles: sorted by `title`, over
    /// `reduce_tasks` key ranges. Every field is built here, so no
    /// default (and no core count) is computed per resolve. RepSN is
    /// the one strategy; [`SnStrategy`] says why the argument stays.
    pub fn sn_config(&self, _strategy: SnStrategy) -> SnConfig {
        SnConfig {
            sort_key: Arc::new(AttributeSortKey::title()),
            matcher: Arc::clone(&self.matcher),
            window: self.window,
            reduce_tasks: self.shared.reduce_tasks,
        }
    }

    /// The LSH config this session compiles — a one-rung ladder when
    /// `params` fixes the banding, the session's adaptive ladder
    /// otherwise. Exposed for oracles ([`er_lsh::lsh_oracle`]) and
    /// tests.
    ///
    /// # Panics
    /// If `params` is `None` and the session's ladder is empty.
    pub fn lsh_config(&self, params: Option<LshParams>) -> LshConfig {
        LshConfig {
            ladder: Vec::new(),
            candidate_budget: self.lsh_budget,
            matcher: Arc::clone(&self.matcher),
            reduce_tasks: self.shared.reduce_tasks,
        }
        .with_ladder(params.map_or_else(|| self.lsh_ladder.clone(), |p| vec![p]))
    }

    /// Checks the settings [`Resolver::lsh_config`] and the signature
    /// job would assert on: the ladder `params` selects and every
    /// rung's banding.
    fn check_lsh(&self, params: Option<&LshParams>) -> Result<(), ConfigError> {
        let ladder = params.map_or(&self.lsh_ladder[..], std::slice::from_ref);
        if ladder.is_empty() {
            return Err(ConfigError::EmptyLshLadder);
        }
        match ladder.iter().find(|p| p.bands == 0 || p.rows == 0) {
            Some(&rung) => Err(ConfigError::ZeroLshBanding(rung)),
            None => Ok(()),
        }
    }

    /// Checks the setting the SN stages would assert on: the window.
    fn check_sn(&self) -> Result<(), ConfigError> {
        if self.window < 2 {
            return Err(ConfigError::SnWindowTooSmall(self.window));
        }
        Ok(())
    }

    /// Resolves one scenario over pre-partitioned input (each inner
    /// `Vec` is one input partition == one map task), executing on the
    /// runtime's persistent pool.
    ///
    /// The outcome's `result` and counters are byte-identical at any
    /// pool size, cap and tenant mix.
    pub fn resolve(
        &self,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
    ) -> Result<Outcome, ResolveError> {
        self.resolve_in(None, scenario, input)
    }

    /// Like [`Resolver::resolve`], but caps how many of the runtime's
    /// persistent workers this run may occupy — no new threads are
    /// spawned and none are torn down; the run simply schedules its
    /// tasks onto at most `max_parallelism` of the existing pool.
    ///
    /// Lets one shared runtime serve latency-sensitive foreground runs
    /// next to throughput batch runs. Outputs are byte-identical to
    /// [`Resolver::resolve`] at any cap; a cap of zero is the typed
    /// [`MrError::ZeroParallelism`].
    pub fn resolve_with(
        &self,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
        max_parallelism: usize,
    ) -> Result<Outcome, ResolveError> {
        self.resolve_in(Some(max_parallelism), scenario, input)
    }

    /// Checks the scenario against the session, then compiles it onto
    /// a workflow of the runtime, capped at `max_parallelism` slots
    /// when one is given.
    fn resolve_in(
        &self,
        max_parallelism: Option<usize>,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
    ) -> Result<Outcome, ResolveError> {
        // Tags come from outside: check them here, once, before any
        // worker sees them.
        if let Scenario::Linkage { sources, .. }
        | Scenario::Lsh {
            sources: Some(sources),
            ..
        } = scenario
        {
            SourceTagError::check(&input, sources).map_err(ResolveError::SourceTags)?;
        }
        // So are the session's spill threshold, its reduce-task count
        // and its LSH and SN settings, which would otherwise panic while
        // the workflow, a job or the config is assembled, or inside a
        // map task.
        if self.shared.spill_threshold == Some(0) {
            return Err(ResolveError::InvalidConfig(ConfigError::ZeroSpillThreshold));
        }
        match scenario {
            Scenario::Lsh { params, .. } => self.check_lsh(params.as_ref()),
            Scenario::SortedNeighborhood { .. } => self.check_sn(),
            Scenario::Dedup { .. } | Scenario::Linkage { .. } => Ok(()),
        }
        .and_then(|()| check_reduce_tasks(self.shared.reduce_tasks))
        .map_err(ResolveError::InvalidConfig)?;
        let mut workflow = self.runtime.workflow(scenario.workflow_name());
        if let Some(cap) = max_parallelism {
            workflow = workflow.with_parallelism_cap(cap);
        }
        // Session-level settings override the runtime defaults the
        // workflow was seeded with.
        workflow = workflow
            .with_fault_policy(self.shared.fault_policy)
            .with_fault_plan(self.fault_plan.clone())
            .with_spill_threshold(self.shared.spill_threshold);
        if let Some(tenant) = &self.tenant {
            workflow = workflow.with_tenant(Arc::clone(tenant));
        }
        if let Some(sink) = &self.trace_sink {
            workflow = workflow.with_trace_sink(Arc::clone(sink));
        }
        let (result, details) = match scenario {
            Scenario::Dedup { strategy } => {
                let config = self.er_config(*strategy);
                blocked(run_er_in(&mut workflow, input, None, &config)?)
            }
            Scenario::Linkage { strategy, sources } => {
                let config = self.er_config(*strategy);
                let sources = Some(sources.clone());
                blocked(run_er_in(&mut workflow, input, sources, &config)?)
            }
            Scenario::SortedNeighborhood { passes } if passes.is_empty() => {
                let config = self.sn_config(SnStrategy::RepSn);
                sorted(run_sorted_neighborhood_in(&mut workflow, input, &config)?)
            }
            Scenario::SortedNeighborhood { passes } => {
                let config = self.sn_config(SnStrategy::RepSn);
                let stages = run_multipass_sn_in(&mut workflow, input, &config, passes)?;
                let details = ScenarioDetails::MultiPass {
                    passes: stages.passes,
                };
                (stages.result, details)
            }
            Scenario::Lsh { params, sources } => {
                let config = self.lsh_config(*params);
                let stages = run_lsh_in(&mut workflow, input, sources.clone(), &config)?;
                let details = ScenarioDetails::Lsh {
                    params: stages.params,
                    rounds: stages.rounds,
                    bdm: stages.bdm,
                    bdm_metrics: stages.bdm_metrics,
                    match_metrics: stages.match_metrics,
                };
                (stages.result, details)
            }
        };
        Ok(Outcome {
            result,
            details,
            workflow: workflow.finish(),
        })
    }
}

/// Every scenario's jobs need a reduce task (for SN, a key range), and
/// composite map-output keys carry it as a `u32`; a count past that
/// would be truncated or, in a map task, panic.
fn check_reduce_tasks(reduce_tasks: usize) -> Result<(), ConfigError> {
    match u32::try_from(reduce_tasks) {
        Ok(0) => Err(ConfigError::ZeroReduceTasks),
        Ok(_) => Ok(()),
        Err(_) => Err(ConfigError::TooManyReduceTasks(reduce_tasks)),
    }
}

/// The outcome parts of a blocking-based scenario's stages.
fn blocked(stages: ErStages) -> (MatchResult, ScenarioDetails) {
    let details = ScenarioDetails::Blocked {
        bdm: stages.bdm,
        bdm_metrics: stages.bdm_metrics,
        match_metrics: stages.match_metrics,
    };
    (stages.result, details)
}

/// The outcome parts of a single-pass SN scenario's stages.
fn sorted(stages: SnStages) -> (MatchResult, ScenarioDetails) {
    let details = ScenarioDetails::Sorted {
        sample_metrics: JobMetrics {
            job_name: String::new(),
            map_tasks: Vec::new(),
            reduce_tasks: Vec::new(),
            counters: Default::default(),
            shuffle_wall: Default::default(),
            wall: Default::default(),
        },
        match_metrics: stages.match_metrics,
    };
    (stages.result, details)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::input::partition_evenly;
    use mr_engine::runtime::RuntimeConfig;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::new().with_parallelism(1))
    }

    fn tiny_input() -> Partitions<(), Ent> {
        let entities: Vec<Ent> = [
            "canon eos 5d mark iii",
            "canon eos 5d mark iri",
            "nikon d800 body only",
        ]
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect();
        partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 2)
    }

    #[test]
    fn scenario_names_mirror_the_legacy_workflows() {
        assert_eq!(
            Scenario::Dedup {
                strategy: StrategyKind::BlockSplit
            }
            .workflow_name(),
            "er-BlockSplit"
        );
        assert_eq!(
            Scenario::Linkage {
                strategy: StrategyKind::Basic,
                sources: vec![]
            }
            .workflow_name(),
            "linkage-Basic"
        );
        assert_eq!(
            Scenario::sorted_neighborhood(SnStrategy::RepSn).to_string(),
            "sn-RepSN"
        );
        assert_eq!(
            Scenario::multipass_sn([
                Arc::new(er_core::sortkey::AttributeSortKey::title()) as Arc<dyn SortKeyFunction>
            ])
            .workflow_name(),
            "sn-multipass-RepSN"
        );
    }

    #[test]
    fn resolve_error_composes_with_question_mark() {
        fn run() -> Result<(), ResolveError> {
            Err(MrError::NoMapTasks)?
        }
        assert_eq!(run().unwrap_err(), ResolveError::Mr(MrError::NoMapTasks));
        // Error::source threads the engine error through.
        use std::error::Error;
        let mr: ResolveError = MrError::NoMapTasks.into();
        assert!(mr.source().is_some());
    }

    #[test]
    fn a_thin_interior_range_resolves_to_the_oracle() {
        // Five entities hold 9 window pairs under w = 4, cut into
        // ranges of 3, 1 and 1 entities: the third and fifth entity are
        // two boundaries apart and still one window apart.
        let runtime = runtime();
        let resolver = Resolver::new(&runtime).with_window(4).with_reduce_tasks(3);
        let entities: Vec<Ent> = [
            "canon eos 5d mark iii",
            "canon eos 5d mark iij",
            "canon eos 5d mark iik",
            "canon eos 5d mark iri",
            "canon eos 5d mark ixi",
        ]
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect();
        let input: Partitions<(), Ent> = vec![entities.into_iter().map(|e| ((), e)).collect()];
        let ranges = er_sn::SnRanges::new(5, 4, 3);
        let sizes: Vec<u64> = (0..3)
            .map(|q| ranges.range(q).end - ranges.range(q).start)
            .collect();
        assert_eq!(sizes, [3, 1, 1]);
        let outcome = resolver
            .resolve(
                &Scenario::sorted_neighborhood(SnStrategy::RepSn),
                input.clone(),
            )
            .unwrap();
        assert_eq!(outcome.reduce_loads().expect("one matching job"), [3, 3, 3]);
        let oracle = er_sn::sn_oracle(&input, &resolver.sn_config(SnStrategy::RepSn));
        assert_eq!(oracle.len(), 9, "every window pair matches");
        assert_eq!(outcome.result.pair_set(), oracle.pair_set());
        assert_eq!(outcome.total_comparisons(), er_sn::oracle_comparisons(5, 4));
    }

    #[test]
    fn outcome_exposes_uniform_accessors() {
        let runtime = runtime();
        let resolver = Resolver::new(&runtime);
        let outcome = resolver
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                tiny_input(),
            )
            .unwrap();
        assert_eq!(outcome.result.len(), 1);
        assert!(outcome.total_comparisons() >= 1);
        assert_eq!(
            outcome.reduce_loads().expect("one matching job").len(),
            runtime.config().reduce_tasks
        );
        assert!(outcome.details.bdm().is_some());
        assert!(outcome.details.match_metrics().is_some());
        assert!(outcome.details.passes().is_none());
        assert_eq!(outcome.workflow.num_stages(), 2);
    }

    #[test]
    fn session_knobs_flow_into_compiled_configs() {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(1)
                .with_reduce_tasks(9),
        );
        // Untouched, a session reads the runtime's reduce-task default
        // back from every family — SN's key ranges included.
        let inherited = Resolver::new(&runtime).with_window(6);
        let sn = inherited.sn_config(SnStrategy::RepSn);
        assert_eq!(sn.window, 6);
        for (family, reduce_tasks) in [
            (
                "er",
                inherited.er_config(StrategyKind::PairRange).reduce_tasks,
            ),
            ("sn", sn.reduce_tasks),
            ("lsh", inherited.lsh_config(None).reduce_tasks),
        ] {
            assert_eq!(reduce_tasks, 9, "{family}: runtime default");
        }

        // The knobs a family config reads, set once on the session...
        let matcher = Arc::new(Matcher::paper_default());
        let session = Resolver::new(&runtime)
            .with_reduce_tasks(3)
            .with_matcher(Arc::clone(&matcher));
        // ...read back identically from all three families.
        let er = session.er_config(StrategyKind::BlockSplit);
        let sn = session.sn_config(SnStrategy::RepSn);
        let lsh = session.lsh_config(Some(LshParams::new(8, 4)));
        for (family, reduce_tasks, family_matcher) in [
            ("er", er.reduce_tasks, &er.matcher),
            ("sn", sn.reduce_tasks, &sn.matcher),
            ("lsh", lsh.reduce_tasks, &lsh.matcher),
        ] {
            assert_eq!(reduce_tasks, 3, "{family}: reduce tasks");
            assert!(Arc::ptr_eq(family_matcher, &matcher), "{family}: matcher");
        }
        assert_eq!(runtime.config().reduce_tasks, 9, "runtime stays untouched");
    }
}
