//! The adaptive LSH workflow: signature/BDM rounds over a
//! `(bands, rows)` ladder, then one load-balanced candidate job.
//!
//! Each round runs only the *signature job* — the BDM job under
//! [`LshBlocking`] — which is cheap (linear in the input) and yields
//! the exact enumerated candidate workload of that rung's banded key
//! space: `Σ_buckets C(|bucket|, 2)` for dedup,
//! `Σ_buckets |R| · |S|` for linkage. The first rung whose workload
//! fits the candidate budget is accepted (every rung also reports the
//! banding S-curve estimate of its recall at the target similarity);
//! with no budget the widest rung wins immediately, and if no rung
//! fits, the tightest runs as best effort. Only the accepted rung
//! pays for the matching job.
//!
//! The candidate job is the paper's BlockSplit matching job over the
//! accepted BDM: oversized band buckets split into balanced sub-tasks.
//! The comparers' smallest-common-block gate makes cross-band dedup
//! exact — a pair sharing several buckets is evaluated in its smallest
//! shared band key only.

use std::collections::BTreeSet;
use std::sync::Arc;

use er_core::blocking::BlockingFunction;
use er_core::result::MatchPair;
use er_core::{MatchResult, Matcher, MatcherCache, SourceId};
use er_loadbalance::bdm_job::compute_bdm_named_in;
use er_loadbalance::{
    run_match_stage, BlockDistributionMatrix, Ent, ErConfig, MatchInput, StrategyKind,
};
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::DEFAULT_REDUCE_TASKS;
use mr_engine::workflow::Workflow;

use crate::{LshBlocking, LshParams};

/// Configuration of one LSH run — the adaptive ladder, its candidate
/// budget and the matcher; every rung bands title trigrams
/// ([`LshConfig::blocking_for`]), its signature job pre-aggregates its
/// counts, and BlockSplit balances the accepted rung's banded key
/// space. How the stages run — spill threshold, fault policy and plan,
/// trace sink, tenant — is the caller's [`Workflow`]'s, as for
/// `ErConfig` and `SnConfig`.
#[derive(Clone)]
pub struct LshConfig {
    /// The adaptive ladder, widest (most bands / highest recall /
    /// most candidates) first. A fixed-parameter run is a one-rung
    /// ladder.
    pub ladder: Vec<LshParams>,
    /// Accept the first rung whose enumerated candidate workload is
    /// at most this (`None`: the widest rung is accepted
    /// immediately).
    pub candidate_budget: Option<u64>,
    /// Match rule candidates are evaluated under.
    pub matcher: Arc<Matcher>,
    /// Reduce tasks of every signature job and of the candidate job.
    pub reduce_tasks: usize,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl LshConfig {
    /// The workspace default: trigrams of `title`, a 16×2 → 8×4 → 4×8
    /// ladder (32 slots on every rung, each rung signing with its own
    /// `rows` hashes per shingle), no budget, the paper matcher.
    pub fn new() -> Self {
        Self {
            ladder: vec![
                LshParams::new(16, 2),
                LshParams::new(8, 4),
                LshParams::new(4, 8),
            ],
            candidate_budget: None,
            matcher: Arc::new(Matcher::paper_default()),
            reduce_tasks: DEFAULT_REDUCE_TASKS,
        }
    }

    /// Replaces the adaptive ladder (widest rung first).
    ///
    /// # Panics
    /// If `ladder` is empty.
    pub fn with_ladder(mut self, ladder: Vec<LshParams>) -> Self {
        assert!(!ladder.is_empty(), "the ladder needs at least one rung");
        self.ladder = ladder;
        self
    }

    /// Sets the candidate budget the adaptive rounds tighten towards.
    pub fn with_candidate_budget(mut self, budget: Option<u64>) -> Self {
        self.candidate_budget = budget;
        self
    }

    /// Overrides the reduce-task count of every job.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        self.reduce_tasks = reduce_tasks;
        self
    }

    /// The Jaccard similarity each round's recall is estimated at —
    /// the collision probability of a pair right at the match
    /// boundary.
    const TARGET_SIMILARITY: f64 = 0.8;

    /// The blocking function of one ladder rung: title trigrams
    /// ([`LshBlocking::title_trigrams`]).
    pub fn blocking_for(&self, params: LshParams) -> LshBlocking {
        LshBlocking::title_trigrams(params)
    }

    /// The BlockSplit matching-job configuration of the candidate job
    /// over the rung `params`' banded key space. Every field is built
    /// here, so no default is computed per rung.
    fn candidate_job(&self, params: LshParams) -> ErConfig {
        ErConfig {
            blocking: Arc::new(self.blocking_for(params)),
            matcher: Arc::clone(&self.matcher),
            strategy: StrategyKind::BlockSplit,
            reduce_tasks: self.reduce_tasks,
        }
    }
}

impl std::fmt::Debug for LshConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshConfig")
            .field("ladder", &self.ladder)
            .field("candidate_budget", &self.candidate_budget)
            .field("reduce_tasks", &self.reduce_tasks)
            .finish_non_exhaustive()
    }
}

/// What one adaptive round measured and decided.
#[derive(Debug, Clone)]
pub struct LshRound {
    /// The rung's banding.
    pub params: LshParams,
    /// Enumerated candidate workload of the rung's banded key space:
    /// `Σ_buckets C(n, 2)` for dedup, `Σ_buckets |R|·|S|` for linkage
    /// — what the reducers iterate (the smallest-band gate then
    /// evaluates each distinct pair once).
    pub candidate_pairs: u64,
    /// The banding S-curve estimate of recall at Jaccard similarity
    /// 0.8, the match boundary — low by up to ≈ 0.018 near a rung's
    /// threshold under the row-wise one-permutation signatures (see
    /// [`LshParams::collision_probability`]).
    pub est_recall: f64,
    /// Whether the workload fit the candidate budget.
    pub within_budget: bool,
    /// Whether this rung was accepted (rounds after an accepted rung
    /// never run).
    pub accepted: bool,
}

/// Products of the LSH stages executed inside a caller-owned
/// [`Workflow`] — what [`run_lsh_in`] produces and the facade
/// `Resolver` wraps into its outcome under `Scenario::Lsh`.
#[derive(Debug)]
pub struct LshStages {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The accepted banding.
    pub params: LshParams,
    /// One report per executed adaptive round, in ladder order.
    pub rounds: Vec<LshRound>,
    /// The accepted rung's band-bucket distribution matrix
    /// (source-tagged for linkage). It holds the buckets that have a
    /// pair; `bdm_metrics` counts the single-entity ones — most of a
    /// banded key space — under
    /// [`PRUNED_BLOCKS`](er_loadbalance::bdm_job::PRUNED_BLOCKS) and
    /// [`PRUNED_ENTITIES`](er_loadbalance::bdm_job::PRUNED_ENTITIES).
    pub bdm: Arc<BlockDistributionMatrix>,
    /// Metrics of the accepted signature job.
    pub bdm_metrics: JobMetrics,
    /// Metrics of the candidate/matching job.
    pub match_metrics: JobMetrics,
}

impl LshStages {
    /// Comparison counts per reduce task of the candidate job.
    pub fn reduce_loads(&self) -> Vec<u64> {
        self.match_metrics
            .per_reduce_counter(er_loadbalance::COMPARISONS)
    }

    /// Total pair comparisons (each distinct candidate pair exactly
    /// once, across all shared bands).
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_loads().iter().sum()
    }
}

/// Executes the LSH scenario as stages of `workflow` — the scenario
/// compiler the facade crate's `Resolver` drives for `Scenario::Lsh`.
///
/// `sources` selects the workload: `None` deduplicates one source;
/// `Some(tags)` links two (`tags[p]` labels input partition `p` as
/// `R` or `S`; only cross-source pairs within shared buckets are
/// compared).
///
/// One `lsh-sig-…` signature job runs per ladder rung until a rung is
/// accepted (later rungs never run), then the BlockSplit candidate job
/// runs over the accepted rung.
pub fn run_lsh_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &LshConfig,
) -> Result<LshStages, MrError> {
    assert!(
        !config.ladder.is_empty(),
        "the ladder needs at least one rung"
    );
    let last_rung = config.ladder.len() - 1;
    let mut rounds = Vec::new();
    let mut accepted = None;
    let mut input = Some(input);
    for (i, &params) in config.ladder.iter().enumerate() {
        // Only a rung a later one may follow — under a budget it can
        // overrun — reads a copy; the rung that must be accepted takes
        // the input itself.
        let later_rung_may_run = i < last_rung && config.candidate_budget.is_some();
        let rung_input = if later_rung_may_run {
            input.clone()
        } else {
            input.take()
        }
        .expect("the rung that takes the input is accepted");
        let (bdm, annotated, bdm_metrics) = compute_bdm_named_in(
            workflow,
            &format!("lsh-sig-{params}"),
            rung_input,
            Arc::new(config.blocking_for(params)),
            config.reduce_tasks,
            true,
        )?;
        let bdm = Arc::new(match &sources {
            Some(tags) => bdm.with_sources(tags.clone()),
            None => bdm,
        });
        let candidate_pairs = bdm.total_pairs();
        let within_budget = config
            .candidate_budget
            .is_none_or(|budget| candidate_pairs <= budget);
        let est_recall = params.collision_probability(LshConfig::TARGET_SIMILARITY);
        let accept = within_budget || i == last_rung;
        rounds.push(LshRound {
            params,
            candidate_pairs,
            est_recall,
            within_budget,
            accepted: accept,
        });
        if accept {
            accepted = Some((params, bdm, annotated, bdm_metrics));
            break;
        }
    }
    let (params, bdm, annotated, bdm_metrics) =
        accepted.expect("the last rung is accepted when no earlier one is");
    let match_input = MatchInput::Annotated {
        bdm: Arc::clone(&bdm),
        annotated,
    };
    let (result, match_metrics) =
        run_match_stage(workflow, &config.candidate_job(params), match_input)?;
    Ok(LshStages {
        result,
        params,
        rounds,
        bdm,
        bdm_metrics,
        match_metrics,
    })
}

/// Brute-force banded candidate enumeration — the oracle the MR
/// candidate set is proven against. A pair is a candidate iff the two
/// entities share at least one band bucket (and, when
/// `cross_source_only`, come from different sources). Quadratic in
/// the input; test/bench scale only.
pub fn lsh_candidate_pairs(
    entities: &[Ent],
    blocking: &LshBlocking,
    cross_source_only: bool,
) -> BTreeSet<MatchPair> {
    let keys: Vec<_> = entities.iter().map(|e| blocking.keys(e)).collect();
    let mut candidates = BTreeSet::new();
    for i in 0..entities.len() {
        let a = &keys[i];
        for j in (i + 1)..entities.len() {
            let b = &keys[j];
            if cross_source_only && entities[i].source() == entities[j].source() {
                continue;
            }
            // Sorted, band keys fall in one band order for every
            // entity: a key's `b<band>:` prefix decides it.
            if a.iter().zip(b).any(|(ka, kb)| ka == kb) {
                candidates.insert(MatchPair::new(
                    entities[i].entity_ref(),
                    entities[j].entity_ref(),
                ));
            }
        }
    }
    candidates
}

/// Reference implementation: evaluates the matcher on every
/// brute-force banded candidate — the ground truth the MR workflow
/// must reproduce exactly (same pairs, same scores, each candidate
/// evaluated once).
pub fn lsh_oracle(
    entities: &[Ent],
    config: &LshConfig,
    params: LshParams,
    cross_source_only: bool,
) -> MatchResult {
    let blocking = config.blocking_for(params);
    let by_ref: std::collections::BTreeMap<_, _> =
        entities.iter().map(|e| (e.entity_ref(), e)).collect();
    let mut cache = MatcherCache::new(Arc::clone(&config.matcher));
    let mut result = MatchResult::new();
    for pair in lsh_candidate_pairs(entities, &blocking, cross_source_only) {
        let a = by_ref[&pair.lo()];
        let b = by_ref[&pair.hi()];
        if let Some(score) = cache.matches(a, b) {
            result.insert(pair, score);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::input::partition_evenly;

    fn corpus() -> Vec<Ent> {
        // Three near-duplicate clusters plus singletons; titles are
        // long enough that one edit keeps trigram Jaccard high.
        [
            "canon eos five d mark three body",
            "canon eos five d mark three bodi",
            "nikon d eight hundred body only kit",
            "nikon d eight hundred body only kit",
            "olympus om d e m five mark two",
            "olympus om d e m five mark two",
            "sony alpha seven r four mirrorless",
            "fujifilm x t four mirrorless camera",
        ]
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect()
    }

    fn input(m: usize) -> Partitions<(), Ent> {
        partition_evenly(corpus().into_iter().map(|e| ((), e)).collect(), m)
    }

    fn config() -> LshConfig {
        LshConfig::new()
            .with_ladder(vec![LshParams::new(8, 2)])
            .with_reduce_tasks(3)
    }

    /// Compiles the scenario onto a single-slot (inline) pool.
    fn lsh_inline(
        input: Partitions<(), Ent>,
        sources: Option<Vec<SourceId>>,
        config: &LshConfig,
    ) -> Result<LshStages, MrError> {
        let pool = Arc::new(mr_engine::pool::WorkerPool::new(1));
        run_lsh_in(&mut Workflow::on_pool("lsh", pool), input, sources, config)
    }

    #[test]
    fn matches_the_brute_force_oracle() {
        let entities = corpus();
        let config = config();
        let outcome = lsh_inline(input(2), None, &config).unwrap();
        let oracle = lsh_oracle(&entities, &config, LshParams::new(8, 2), false);
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "match set must equal the banded oracle"
        );
        let blocking = config.blocking_for(LshParams::new(8, 2));
        let candidates = lsh_candidate_pairs(&entities, &blocking, false);
        assert_eq!(
            outcome.total_comparisons(),
            candidates.len() as u64,
            "every distinct candidate pair exactly once"
        );
    }

    #[test]
    fn cross_band_dedup_is_exact() {
        // Identical titles collide in *every* band; the smallest-band
        // gate must still evaluate the pair exactly once, so skipped +
        // compared = enumerated.
        let config = config();
        let outcome = lsh_inline(input(2), None, &config).unwrap();
        let skipped = outcome
            .match_metrics
            .counters
            .get(er_loadbalance::compare::MULTIPASS_SKIPPED);
        assert_eq!(
            outcome.total_comparisons() + skipped,
            outcome.bdm.total_pairs(),
            "every enumerated bucket pair is either compared once or gated"
        );
        assert!(skipped > 0, "duplicate clusters must share several bands");
    }

    #[test]
    fn the_signature_job_side_writes_each_entity_once_with_every_band_rank() {
        use er_core::blocking::BlockingFunction;
        use er_loadbalance::bdm_job::{compute_bdm_named_in, PRUNED_ENTITIES};
        let params = LshParams::new(8, 2);
        let blocking = config().blocking_for(params);
        let input = input(2);
        let pool = Arc::new(mr_engine::pool::WorkerPool::new(1));
        let mut workflow = Workflow::on_pool("lsh", pool);
        let (bdm, side, metrics) = compute_bdm_named_in(
            &mut workflow,
            "lsh-sig",
            input.clone(),
            Arc::new(blocking.clone()),
            3,
            true,
        )
        .unwrap();
        let mut ranked = 0;
        for (p, (partition, records)) in input.iter().zip(&side).enumerate() {
            assert_eq!(records.len(), partition.len(), "one record per entity");
            // The partition's distinct band keys in rank order: by
            // `(hash, key)`.
            let mut keys: Vec<_> = partition
                .iter()
                .flat_map(|(_, e)| blocking.keys(e))
                .map(|key| (mr_engine::partitioner::HashPartitioner::hash(&key), key))
                .collect();
            keys.sort();
            keys.dedup();
            for (((), entity), (ranks, written)) in partition.iter().zip(records) {
                assert_eq!(entity.id(), written.id(), "input order");
                let mut expected: Vec<u32> = blocking
                    .keys(entity)
                    .iter()
                    .map(|key| keys.iter().position(|(_, k)| k == key).unwrap() as u32)
                    .collect();
                expected.sort_unstable();
                assert_eq!(ranks.len(), 8, "one rank per band");
                assert_eq!(**ranks, *expected, "the ranks of its band keys, ascending");
                for &rank in ranks.iter() {
                    if let Some(block) = bdm.block_of_rank(p, rank) {
                        assert_eq!(bdm.key(block as usize), &keys[rank as usize].1);
                    }
                }
                ranked += ranks.len() as u64;
            }
        }
        let kept: u64 = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum();
        assert_eq!(kept + metrics.counters.get(PRUNED_ENTITIES), ranked);
    }

    #[test]
    fn adaptive_ladder_tightens_to_the_budget() {
        let entities = corpus();
        let wide = LshParams::new(16, 2);
        let tight = LshParams::new(4, 8);
        let wide_candidates =
            lsh_candidate_pairs(&entities, &config().blocking_for(wide), false).len() as u64;
        // A budget below the wide rung's enumerated workload forces
        // the driver down the ladder.
        let config = config()
            .with_ladder(vec![wide, tight])
            .with_candidate_budget(Some(wide_candidates.saturating_sub(1).max(1)));
        let outcome = lsh_inline(input(2), None, &config).unwrap();
        assert_eq!(outcome.rounds.len(), 2, "both rounds measured");
        assert!(!outcome.rounds[0].accepted);
        assert!(outcome.rounds[1].accepted);
        assert_eq!(outcome.params, tight);
        assert!(
            outcome.rounds[0].est_recall > outcome.rounds[1].est_recall,
            "tightening trades estimated recall for candidates"
        );
    }

    #[test]
    fn no_budget_accepts_the_widest_rung_immediately() {
        let config = config().with_ladder(vec![LshParams::new(16, 2), LshParams::new(4, 8)]);
        let outcome = lsh_inline(input(2), None, &config).unwrap();
        assert_eq!(outcome.rounds.len(), 1, "later rungs never run");
        assert!(outcome.rounds[0].accepted);
        assert_eq!(outcome.params, LshParams::new(16, 2));
    }

    #[test]
    fn linkage_compares_cross_source_candidates_only() {
        let entities = corpus();
        let half = entities.len() / 2;
        let tagged: Vec<Ent> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let source = if i < half { SourceId::R } else { SourceId::S };
                Arc::new(Entity::with_source(
                    source,
                    e.id().0,
                    [("title", e.get("title").unwrap())],
                )) as Ent
            })
            .collect();
        let partitions: Partitions<(), Ent> = vec![
            tagged[..half].iter().map(|e| ((), Arc::clone(e))).collect(),
            tagged[half..].iter().map(|e| ((), Arc::clone(e))).collect(),
        ];
        let sources = vec![SourceId::R, SourceId::S];
        let config = config();
        let outcome = lsh_inline(partitions, Some(sources), &config).unwrap();
        let oracle = lsh_oracle(&tagged, &config, LshParams::new(8, 2), true);
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "linkage must equal the cross-source banded oracle"
        );
        let blocking = config.blocking_for(LshParams::new(8, 2));
        let candidates = lsh_candidate_pairs(&tagged, &blocking, true);
        assert_eq!(outcome.total_comparisons(), candidates.len() as u64);
    }
}
