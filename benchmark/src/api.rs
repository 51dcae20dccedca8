//! Every touch-point between the benchmark and the program's API:
//! corpus recipes, session and scenario construction, oracles, metric
//! extraction from `Outcome` and from the `TraceRecorder` stream, and
//! the layer probes. When the program's surface changes (ROADMAP's
//! "collapse" direction), this is the one benchmark file to follow up.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dedupe_mr::{Outcome, Resolver, RuntimeConfig, Scenario, ScenarioDetails};
use er_core::blocking::{BlockingFunction, PrefixBlocking};
use er_core::sortkey::{AttributeSortKey, SortKeyFunction};
use er_core::{Entity, GoldStandard, MatchPair, MatchResult, MatcherCache, QualityReport};
use er_datagen::duplicates::{perturb_title, rs_code, EditOps};
use er_datagen::rng::stream_rng;
use er_datagen::vocab::{block_prefix, PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use er_datagen::{ds1_spec, exponential_block_sizes, generate_products};
use er_loadbalance::bdm_job::compute_bdm;
use er_loadbalance::driver::naive_reference;
use er_loadbalance::{
    analyze, BlockDistributionMatrix, Ent, RangePolicy, StrategyKind, COMPARISONS,
};
use er_lsh::{lsh_oracle, LshParams};
use er_sn::{sn_oracle, SnStrategy, REPLICAS};
use mr_engine::counters::{MAP_OUTPUT_RECORDS_PRECOMBINE, REDUCE_INPUT_GROUPS};
use mr_engine::fault::FaultKind;
use mr_engine::input::{partition_evenly, Partitions};
use mr_engine::metrics::JobMetrics;
use mr_engine::trace::{TraceEvent, TraceEventData, TraceRecorder, TraceReport};
use mr_engine::{ClosureMapper, ClosureReducer, Group, Job, MapContext, ReduceContext};

pub use dedupe_mr::Runtime;
pub use mr_engine::json::Json;

/// A configured `Resolver` session on a [`Runtime`].
pub type Session<'rt> = Resolver<'rt>;

/// Map partitions of every run (`m`).
pub const MAP_TASKS: usize = 8;
/// Reduce tasks of every run (`r`).
pub const REDUCE_TASKS: usize = 32;
/// Spill threshold of the spilling twin of the pass-through probe.
const PROBE_SPILL_THRESHOLD: usize = 16_384;
/// Entities the per-entity probes walk at most.
const PROBE_ENTITIES: usize = 50_000;

pub type Input = Partitions<(), Ent>;

/// Which scenario a resolve runs, with the session knobs it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Scenario::Dedup` on the first three title letters, BlockSplit.
    BlockSplit,
    /// The same under PairRange.
    PairRange,
    /// BlockSplit over the first ten characters of `sku`: hundreds of
    /// thousands of one- and two-entity blocks, almost no comparisons.
    ScanSku,
    /// `Scenario::sorted_neighborhood(RepSn)` under this window.
    RepSn { window: usize },
    /// `Scenario::lsh` under a fixed banding.
    Lsh { bands: usize, rows: usize },
}

impl Family {
    pub fn scenario(self) -> Scenario {
        match self {
            Family::BlockSplit | Family::PairRange | Family::ScanSku => Scenario::Dedup {
                strategy: self.strategy(),
            },
            Family::RepSn { .. } => Scenario::sorted_neighborhood(SnStrategy::RepSn),
            Family::Lsh { bands, rows } => Scenario::lsh(LshParams::new(bands, rows)),
        }
    }

    /// A configured session on `runtime`.
    pub fn session(self, runtime: &Runtime) -> Resolver<'_> {
        let resolver = Resolver::new(runtime);
        match self {
            Family::BlockSplit | Family::PairRange | Family::Lsh { .. } => resolver,
            Family::ScanSku => resolver.with_blocking(Arc::new(PrefixBlocking::new("sku", 10))),
            Family::RepSn { window } => resolver.with_window(window),
        }
    }

    /// The function that derives this family's map-side keys, when it
    /// is a blocking function (Sorted Neighborhood sorts instead).
    fn blocking(self, session: &Resolver<'_>) -> Option<Arc<dyn BlockingFunction>> {
        match self {
            Family::BlockSplit | Family::PairRange | Family::ScanSku => {
                Some(session.er_config(self.strategy()).blocking)
            }
            Family::RepSn { .. } => None,
            Family::Lsh { bands, rows } => {
                let params = LshParams::new(bands, rows);
                Some(Arc::new(
                    session.lsh_config(Some(params)).blocking_for(params),
                ))
            }
        }
    }

    fn strategy(self) -> StrategyKind {
        match self {
            Family::PairRange => StrategyKind::PairRange,
            _ => StrategyKind::BlockSplit,
        }
    }

    /// The brute-force reference this family must reproduce byte for
    /// byte: `naive_reference`, `sn_oracle` or `lsh_oracle`.
    pub fn oracle(self, session: &Resolver<'_>, input: &Input) -> MatchResult {
        let entities: Vec<Ent> = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
        match self {
            Family::BlockSplit | Family::PairRange | Family::ScanSku => {
                naive_reference(&entities, &session.er_config(self.strategy()))
            }
            Family::RepSn { .. } => sn_oracle(input, &session.sn_config(SnStrategy::RepSn)),
            Family::Lsh { bands, rows } => {
                let params = LshParams::new(bands, rows);
                lsh_oracle(&entities, &session.lsh_config(Some(params)), params, false)
            }
        }
    }
}

/// A generated corpus with its injected-duplicate gold standard.
pub struct Corpus {
    pub entities: Vec<Ent>,
    pub gold: GoldStandard,
}

/// The DS1-like product corpus at `scale` (1.0 = 114 000 entities).
pub fn products(seed: u64, scale: f64) -> Corpus {
    let dataset = generate_products(&ds1_spec(seed).scaled(scale));
    Corpus {
        entities: dataset.entities.into_iter().map(Arc::new).collect(),
        gold: dataset.gold,
    }
}

/// The `fig_lsh` corpus recipe: `originals` entities over 100 equal
/// prefix blocks, each title carrying a globally unique `rs_code`, and
/// every 6th original cloned with at most 2 substitutions behind the
/// 4-character protected prefix.
///
/// `generate_products` cannot stand in: its codes repeat per block, so
/// titles of *different* blocks are near-identical and LSH (which does
/// not see block boundaries) reports millions of cross-block matches.
pub fn lsh_corpus(seed: u64, originals: usize) -> Corpus {
    const BLOCKS: usize = 100;
    const DUP_EVERY: usize = 6;
    let sizes = exponential_block_sizes(originals, BLOCKS, 0.0);
    let mut entities: Vec<Ent> = Vec::with_capacity(originals + originals / DUP_EVERY + 1);
    let mut gold = Vec::new();
    let mut id = 0u64;
    let mut index = 0usize;
    for (k, &size) in sizes.iter().enumerate() {
        let prefix = block_prefix(k);
        for j in 0..size {
            let qualifier = PRODUCT_QUALIFIERS[(index * 7 + j) % PRODUCT_QUALIFIERS.len()];
            let noun = PRODUCT_NOUNS[(index * 3 + k) % PRODUCT_NOUNS.len()];
            let title = format!("{prefix} {qualifier} {noun} {}", rs_code(index));
            let original = Entity::new(id, [("title", title.as_str())]);
            id += 1;
            if index.is_multiple_of(DUP_EVERY) {
                let mut rng = stream_rng(seed, index as u64);
                let (dup_title, _) = perturb_title(&mut rng, &title, 2, 4, EditOps::SubstituteOnly);
                let duplicate = Entity::new(id, [("title", dup_title.as_str())]);
                id += 1;
                gold.push(MatchPair::new(
                    original.entity_ref(),
                    duplicate.entity_ref(),
                ));
                entities.push(Arc::new(duplicate));
            }
            entities.push(Arc::new(original));
            index += 1;
        }
    }
    Corpus {
        entities,
        gold: GoldStandard::from_pairs(gold),
    }
}

/// Splits a corpus into the `m` contiguous map partitions.
pub fn partition(corpus: &Corpus) -> Input {
    partition_evenly(
        corpus
            .entities
            .iter()
            .map(|e| ((), Arc::clone(e)))
            .collect(),
        MAP_TASKS,
    )
}

/// The shared runtime: a pool of `parallelism` workers, `r` reduce
/// tasks, everything else at the program's defaults.
pub fn runtime(parallelism: usize) -> Runtime {
    Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(parallelism)
            .with_reduce_tasks(REDUCE_TASKS),
    )
}

/// A tenant's clone of a session.
pub fn tenant_session<'rt>(session: &Resolver<'rt>, tenant: usize) -> Resolver<'rt> {
    session.clone().with_tenant(format!("tenant-{tenant}"))
}

/// One finished resolve: the outcome, the events its recorder saw
/// (empty when untraced) and when it ran.
pub struct Resolved {
    pub outcome: Outcome,
    pub events: Vec<TraceEvent>,
    pub started: Instant,
    pub finished: Instant,
}

/// How one resolve is to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Attach a `TraceRecorder` to the session.
    pub traced: bool,
    /// Occupy a single pool slot (`parallelism = 1`).
    pub single_slot: bool,
}

/// Runs one `Resolver::resolve`. The input is cloned before the clock
/// starts: `resolve` consumes its input, a caller would hand it over.
pub fn resolve(
    session: &Resolver<'_>,
    scenario: &Scenario,
    input: &Input,
    mode: Mode,
) -> Result<Resolved, String> {
    let input = input.clone();
    let recorder = mode.traced.then(|| Arc::new(TraceRecorder::new()));
    let traced_session;
    let session = match &recorder {
        Some(recorder) => {
            traced_session = session.clone().with_trace_sink(recorder.clone());
            &traced_session
        }
        None => session,
    };
    let started = Instant::now();
    let outcome = if mode.single_slot {
        session.resolve_with(scenario, input, 1)
    } else {
        session.resolve(scenario, input)
    };
    let finished = Instant::now();
    Ok(Resolved {
        outcome: outcome.map_err(|e| e.to_string())?,
        events: recorder.map(|r| r.events()).unwrap_or_default(),
        started,
        finished,
    })
}

/// The result as comparable bytes: every pair with its score's bits,
/// in pair order.
pub fn result_bytes(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

/// FNV-1a over [`result_bytes`].
pub fn digest(result: &MatchResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (pair, score) in result.iter() {
        for side in [pair.lo(), pair.hi()] {
            feed(u64::from(side.source.0));
            feed(side.id.0);
        }
        feed(score.to_bits());
    }
    hash
}

/// `(precision, recall)` of a result against the corpus gold standard.
pub fn quality(result: &MatchResult, gold: &GoldStandard) -> (f64, f64) {
    let report = QualityReport::evaluate(result, gold);
    (report.precision(), report.recall())
}

/// What one outcome's `workflow` metrics say, by layer. Additive over
/// the resolves of a batch ([`Facts::absorb`]).
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub output_pairs: f64,
    pub comparisons: f64,
    pub entities: f64,
    pub bdm_stage_s: f64,
    pub match_stage_s: f64,
    pub reduce_imbalance: f64,
    pub reduce_wall_sum_s: f64,
    pub reduce_wall_max_s: f64,
    pub map_output_records: f64,
    pub map_wall_sum_s: f64,
    pub shuffle_s: f64,
    pub spilled_runs: f64,
    pub peak_resident_records: f64,
    pub retries: f64,
    pub sn_sample_stage_s: f64,
    pub sn_window_stage_s: f64,
    pub sn_replicas: f64,
    pub lsh_signature_stage_s: f64,
    pub lsh_candidate_pairs: f64,
    /// Records and distinct keys the first (analysis) stage shuffles —
    /// the shape the engine pass-through probes replay.
    pub analysis_records: f64,
    pub analysis_keys: f64,
    /// Pairs the BDM predicts, when the scenario computed one.
    pub bdm_pairs: Option<f64>,
}

impl Facts {
    pub fn of(outcome: &Outcome, entities: usize) -> Self {
        let wf = &outcome.workflow;
        let secs = |job: &JobMetrics| job.wall.as_secs_f64();
        let matching = outcome.details.match_metrics();
        let reduce_walls: Vec<f64> = matching
            .map(|m| {
                m.reduce_tasks
                    .iter()
                    .map(|t| t.wall.as_secs_f64())
                    .collect()
            })
            .unwrap_or_default();
        let first = wf.stages.first();
        let mut facts = Facts {
            output_pairs: outcome.result.len() as f64,
            comparisons: outcome.total_comparisons() as f64,
            entities: entities as f64,
            match_stage_s: matching.map_or(0.0, secs),
            reduce_imbalance: matching.map_or(1.0, |m| m.reduce_imbalance(COMPARISONS)),
            reduce_wall_sum_s: reduce_walls.iter().sum(),
            reduce_wall_max_s: reduce_walls.iter().copied().fold(0.0, f64::max),
            map_output_records: matching.map_or(0.0, |m| m.map_output_records() as f64),
            map_wall_sum_s: wf
                .stages
                .iter()
                .flat_map(|s| &s.map_tasks)
                .map(|t| t.wall.as_secs_f64())
                .sum(),
            shuffle_s: wf.stages.iter().map(|s| s.shuffle_wall.as_secs_f64()).sum(),
            spilled_runs: wf.spilled_runs() as f64,
            peak_resident_records: wf.peak_resident_records() as f64,
            retries: (wf.task_failures() + wf.tasks_retried()) as f64,
            analysis_records: first.map_or(0.0, |s| {
                s.counters.get(MAP_OUTPUT_RECORDS_PRECOMBINE) as f64
            }),
            analysis_keys: first.map_or(0.0, |s| s.counters.get(REDUCE_INPUT_GROUPS) as f64),
            bdm_pairs: outcome.details.bdm().map(|b| b.total_pairs() as f64),
            ..Facts::default()
        };
        match &outcome.details {
            ScenarioDetails::Blocked { bdm_metrics, .. } => {
                facts.bdm_stage_s = bdm_metrics.as_ref().map_or(0.0, secs);
            }
            ScenarioDetails::Sorted {
                sample_metrics,
                match_metrics,
                ..
            } => {
                facts.sn_sample_stage_s = secs(sample_metrics);
                facts.sn_window_stage_s = secs(match_metrics);
                facts.sn_replicas = match_metrics.counters.get(REPLICAS) as f64;
            }
            ScenarioDetails::Lsh {
                rounds,
                bdm_metrics,
                ..
            } => {
                facts.bdm_stage_s = secs(bdm_metrics);
                facts.lsh_signature_stage_s = secs(bdm_metrics);
                facts.lsh_candidate_pairs = rounds
                    .iter()
                    .find(|r| r.accepted)
                    .map_or(0.0, |r| r.candidate_pairs as f64);
            }
            ScenarioDetails::MultiPass { .. } => {}
        }
        facts
    }

    /// Folds another resolve of the same batch in: times and counts
    /// add, worst-case gauges take the maximum.
    pub fn absorb(&mut self, other: &Facts) {
        self.output_pairs += other.output_pairs;
        self.comparisons += other.comparisons;
        self.entities += other.entities;
        self.bdm_stage_s += other.bdm_stage_s;
        self.match_stage_s += other.match_stage_s;
        self.reduce_imbalance = self.reduce_imbalance.max(other.reduce_imbalance);
        self.reduce_wall_sum_s += other.reduce_wall_sum_s;
        self.reduce_wall_max_s = self.reduce_wall_max_s.max(other.reduce_wall_max_s);
        self.map_output_records += other.map_output_records;
        self.map_wall_sum_s += other.map_wall_sum_s;
        self.shuffle_s += other.shuffle_s;
        self.spilled_runs += other.spilled_runs;
        self.peak_resident_records = self.peak_resident_records.max(other.peak_resident_records);
        self.retries += other.retries;
        self.sn_sample_stage_s += other.sn_sample_stage_s;
        self.sn_window_stage_s += other.sn_window_stage_s;
        self.sn_replicas += other.sn_replicas;
        self.lsh_signature_stage_s += other.lsh_signature_stage_s;
        self.lsh_candidate_pairs += other.lsh_candidate_pairs;
    }
}

/// A span rebuilt from the program's trace events, on the resolve's
/// own clock (seconds since its workflow started).
pub struct RebuiltSpan {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index (in the same list) of the stage span this one ran under;
    /// `None` for stage spans, which hang off the harness's `resolve`.
    pub stage: Option<usize>,
    /// Pool slot, for task spans.
    pub slot: Option<usize>,
}

/// What a traced resolve's event stream says.
pub struct TraceFacts {
    /// Σ stage walls as the trace reports them.
    pub stage_wall_sum_s: f64,
    /// When each reduce task of the matching job finished.
    pub reduce_finish_s: Vec<f64>,
    /// Mean busy share of the lanes that ran a task.
    pub slot_utilisation: f64,
    /// Every enqueue-to-start wait, in ms.
    pub queue_waits_ms: Vec<f64>,
    /// Stage, shuffle and task spans.
    pub spans: Vec<RebuiltSpan>,
}

/// Reads one resolve's `TraceRecorder` stream: stage and task spans
/// from the start/finish events already emitted, and the
/// `TraceReport` gauges.
pub fn reconstruct(resolved: &Resolved) -> TraceFacts {
    let events = &resolved.events;
    let match_job = resolved
        .outcome
        .details
        .match_metrics()
        .map(|m| m.job_name.clone());
    let mut spans: Vec<RebuiltSpan> = Vec::new();
    let mut stage_wall_sum_s = 0.0;
    // Stages first, so task spans can name their parent.
    let mut open: Vec<(String, f64)> = Vec::new();
    for event in events {
        match &event.data {
            TraceEventData::StageStarted { job, .. } => {
                open.push((job.clone(), event.at.as_secs_f64()));
            }
            TraceEventData::StageFinished { job, wall, .. } => {
                stage_wall_sum_s += wall.as_secs_f64();
                let at = open.iter().position(|(j, _)| j == job);
                let start_s = at.map_or(event.at.as_secs_f64() - wall.as_secs_f64(), |i| {
                    open.swap_remove(i).1
                });
                spans.push(RebuiltSpan {
                    name: format!("stage:{job}"),
                    start_s,
                    end_s: event.at.as_secs_f64(),
                    stage: None,
                    slot: None,
                });
            }
            _ => {}
        }
    }
    let stages = spans.len();
    let stage_of = |spans: &[RebuiltSpan], job: &str| {
        spans[..stages]
            .iter()
            .position(|s| s.name.strip_prefix("stage:") == Some(job))
    };
    let mut reduce_finish_s = Vec::new();
    let mut queue_waits_ms = Vec::new();
    for event in events {
        let end_s = event.at.as_secs_f64();
        match &event.data {
            TraceEventData::AttemptFinished {
                job, kind, wall, ..
            } => {
                let kind_name = match kind {
                    FaultKind::Map => "map",
                    FaultKind::Sort => "sort",
                    FaultKind::Reduce => "reduce",
                };
                if *kind == FaultKind::Reduce && Some(job) == match_job.as_ref() {
                    reduce_finish_s.push(end_s);
                }
                let stage = stage_of(&spans, job);
                spans.push(RebuiltSpan {
                    name: format!("task:{kind_name}"),
                    start_s: (end_s - wall.as_secs_f64()).max(0.0),
                    end_s,
                    stage,
                    slot: event.slot,
                });
            }
            TraceEventData::ShuffleCompleted { job, wall, .. } => {
                let stage = stage_of(&spans, job);
                spans.push(RebuiltSpan {
                    name: "shuffle".to_string(),
                    start_s: (end_s - wall.as_secs_f64()).max(0.0),
                    end_s,
                    stage,
                    slot: None,
                });
            }
            TraceEventData::QueueWaited { wait, .. } => {
                queue_waits_ms.push(wait.as_secs_f64() * 1e3);
            }
            _ => {}
        }
    }
    let report = TraceReport::from_events(events);
    let lanes = report.utilization();
    let slot_utilisation = if lanes.is_empty() {
        0.0
    } else {
        lanes.values().sum::<f64>() / lanes.len() as f64
    };
    TraceFacts {
        stage_wall_sum_s,
        reduce_finish_s,
        slot_utilisation,
        queue_waits_ms,
        spans,
    }
}

/// The layer probes: harness-timed calls into one layer's public
/// function on the workload's own corpus.
pub struct Probe<'a, 'rt> {
    pub family: Family,
    pub session: &'a Resolver<'rt>,
    pub corpus: &'a Corpus,
    pub input: &'a Input,
    /// The BDM of the traced resolve, when the scenario computed one.
    pub bdm: Option<Arc<BlockDistributionMatrix>>,
}

impl Probe<'_, '_> {
    fn sample(&self) -> &[Ent] {
        &self.corpus.entities[..self.corpus.entities.len().min(PROBE_ENTITIES)]
    }

    fn ns_per_entity(&self, mut body: impl FnMut(&Entity)) -> f64 {
        let sample = self.sample();
        let start = Instant::now();
        for entity in sample {
            body(entity);
        }
        start.elapsed().as_secs_f64() * 1e9 / sample.len() as f64
    }

    /// `BlockingFunction::keys` over the entities; 0 for Sorted
    /// Neighborhood, which derives no block key.
    pub fn blocking_ns_per_entity(&self) -> f64 {
        match self.family.blocking(self.session) {
            Some(blocking) => self.ns_per_entity(|e| {
                black_box(blocking.keys(black_box(e)));
            }),
            None => 0.0,
        }
    }

    /// `SortKeyFunction::sort_key` of the session's sort key.
    pub fn sortkey_ns_per_entity(&self) -> f64 {
        let sort_key: Arc<dyn SortKeyFunction> = match self.family {
            Family::RepSn { .. } => self.session.sn_config(SnStrategy::RepSn).sort_key,
            _ => Arc::new(AttributeSortKey::title()),
        };
        self.ns_per_entity(|e| {
            black_box(sort_key.sort_key(black_box(e)));
        })
    }

    /// `LshBlocking::signature` under the workload's banding (8 × 4
    /// where the workload is not LSH).
    pub fn signature_ns_per_entity(&self) -> f64 {
        let params = match self.family {
            Family::Lsh { bands, rows } => LshParams::new(bands, rows),
            _ => LshParams::new(8, 4),
        };
        let blocking = self.session.lsh_config(Some(params)).blocking_for(params);
        self.ns_per_entity(|e| {
            black_box(blocking.signature(black_box(e)));
        })
    }

    /// `MatcherCache::handle` on a cold cache: the prepare-once cost.
    pub fn prepare_ns_per_entity(&self) -> f64 {
        let matcher = self.session.er_config(StrategyKind::BlockSplit).matcher;
        let mut cache = MatcherCache::new(matcher);
        self.ns_per_entity(|e| {
            black_box(cache.handle(black_box(e)));
        })
    }

    /// `MatcherCache::matches` on a warm cache over `pairs` pairs of
    /// the largest three-letter title block (cycling through the
    /// block's pairs when it holds fewer).
    pub fn compare_ns_per_pair(&self, pairs: usize) -> f64 {
        let blocking = PrefixBlocking::title3();
        let mut blocks: std::collections::BTreeMap<_, Vec<&Ent>> = Default::default();
        for entity in &self.corpus.entities {
            if let Some(key) = blocking.key(entity) {
                blocks.entry(key).or_default().push(entity);
            }
        }
        let Some(block) = blocks.into_values().max_by_key(Vec::len) else {
            return 0.0;
        };
        // 1 415 entities span a million pairs.
        let side = ((2.0 * pairs as f64).sqrt() as usize + 2).min(block.len());
        let block = &block[..side];
        if block.len() < 2 {
            return 0.0;
        }
        let matcher = self.session.er_config(StrategyKind::BlockSplit).matcher;
        let mut cache = MatcherCache::new(matcher);
        for entity in block {
            cache.handle(entity);
        }
        let mut done = 0usize;
        let start = Instant::now();
        'sample: loop {
            for i in 0..block.len() {
                for j in i + 1..block.len() {
                    black_box(cache.matches(black_box(block[i]), black_box(block[j])));
                    done += 1;
                    if done == pairs {
                        break 'sample;
                    }
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / done as f64
    }

    /// Stand-alone `compute_bdm` under the family's blocking function
    /// (seconds); 0 for Sorted Neighborhood.
    pub fn bdm_job_s(&self, parallelism: usize) -> f64 {
        let Some(blocking) = self.family.blocking(self.session) else {
            return 0.0;
        };
        let input = self.input.clone();
        let start = Instant::now();
        let products = compute_bdm(input, blocking, REDUCE_TASKS, parallelism, true);
        let elapsed = start.elapsed().as_secs_f64();
        black_box(products.expect("the BDM job runs on a non-empty corpus"));
        elapsed
    }

    /// `analyze(bdm, strategy, r, CeilDiv)` in ms; 0 when the scenario
    /// has no BDM.
    pub fn analyze_ms(&self) -> f64 {
        let Some(bdm) = &self.bdm else {
            return 0.0;
        };
        let start = Instant::now();
        black_box(analyze(
            bdm,
            self.family.strategy(),
            REDUCE_TASKS,
            RangePolicy::CeilDiv,
        ));
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The reduce imbalance `analyze(.., Basic, ..)` predicts from the
    /// BDM without running anything; 0 when the scenario has no BDM.
    pub fn basic_imbalance(&self) -> f64 {
        self.bdm.as_ref().map_or(0.0, |bdm| {
            analyze(bdm, StrategyKind::Basic, REDUCE_TASKS, RangePolicy::CeilDiv).imbalance()
        })
    }
}

/// Records per second through an identity map and a counting reduce
/// on the runtime's pool: `records` records over `keys` distinct keys
/// in `m` partitions, `r` reduce tasks, optionally spilling.
pub fn passthrough_records_per_s(runtime: &Runtime, records: u64, keys: u64, spill: bool) -> f64 {
    let records = records.max(1);
    let keys = keys.max(1);
    let input: Partitions<u64, u64> =
        partition_evenly((0..records).map(|i| (i % keys, i)).collect(), MAP_TASKS);
    let mapper = ClosureMapper::new(|k: &u64, v: &u64, ctx: &mut MapContext<u64, u64, ()>| {
        ctx.emit(*k, *v);
    });
    let reducer = ClosureReducer::new(
        |group: Group<'_, u64, u64>, ctx: &mut ReduceContext<u64, u64>| {
            ctx.emit(*group.key(), group.len() as u64);
        },
    );
    let job = Job::builder("passthrough", mapper, reducer)
        .reduce_tasks(REDUCE_TASKS)
        .spill_threshold(spill.then_some(PROBE_SPILL_THRESHOLD))
        .build();
    let start = Instant::now();
    let out = job.run_on(runtime.pool(), input);
    let elapsed = start.elapsed().as_secs_f64();
    let out = out.expect("the pass-through job has map and reduce tasks");
    assert_eq!(out.num_records() as u64, keys.min(records));
    records as f64 / elapsed
}

/// Microseconds per task to push `tasks` empty tasks through
/// `WorkerPool::run_tasks`.
pub fn dispatch_us_per_task(runtime: &Runtime, tasks: usize) -> f64 {
    let start = Instant::now();
    black_box(runtime.pool().run_tasks(tasks, black_box));
    start.elapsed().as_secs_f64() * 1e6 / tasks as f64
}
