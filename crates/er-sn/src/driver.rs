//! The end-to-end Sorted Neighborhood workflow.
//!
//! A pass runs **one** matching job ([`crate::repsn`]): its map tasks
//! sort their own runs, and each reduce task owns a key range cut from
//! the entity count ([`crate::SnRanges`]), merges its replicas and its
//! slice of the global order out of the runs ([`crate::runs`]) and
//! slides its window over them. No preprocessing job runs, and no stage
//! has a single reduce task.
//!
//! # Determinism contract
//!
//! The match output is a pure function of `(input, SnConfig)`:
//! byte-identical at every `parallelism`, identical as a pair set at
//! every `reduce_tasks` count, and equal to the single-machine
//! sliding-window oracle [`sn_oracle`]. Ties between equal sort keys
//! resolve by `(input partition, record order)` — the order the runs'
//! merge produces — which the oracle reproduces with a stable sort
//! over the concatenated input.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::sortkey::{AttributeSortKey, SortKeyFunction};
use er_core::{MatchResult, Matcher, MatcherCache};
use er_loadbalance::compare::PairComparer;
use er_loadbalance::Ent;
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::DEFAULT_REDUCE_TASKS;
use mr_engine::workflow::Workflow;

use crate::repsn::repsn_job;
use crate::runs::{sorted_order, window_pairs};

/// The Sorted Neighborhood boundary strategy: replication (RepSN), the
/// only one there is.
///
/// Kolb, Thor & Rahm give a second, JobSN, which compares the pairs
/// that straddle range boundaries in a second job. It saved shipping
/// RepSN's replicas; here a range task reads its replicas in place out
/// of the map tasks' sorted runs, so nothing is shipped for them and
/// the second job has nothing left to save. The type is kept, with one
/// variant, because the performance ledger names it when it builds its
/// Sorted Neighborhood scenario and config
/// (`Scenario::sorted_neighborhood`, `Resolver::sn_config`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnStrategy {
    /// Replication: each range also reads the `w − 1` entities before
    /// its start out of the map tasks' runs.
    RepSn,
}

/// Configuration of one Sorted Neighborhood run: what
/// [`run_sn_stages`] reads, and nothing else. How the stages run —
/// spill threshold, fault policy and plan, trace sink, tenant — is the
/// caller's [`Workflow`]'s.
#[derive(Clone)]
pub struct SnConfig {
    /// Sort-key derivation (default: full normalized `title`).
    pub sort_key: Arc<dyn SortKeyFunction>,
    /// Match rule (default: the paper's edit distance ≥ 0.8 on
    /// `title`).
    pub matcher: Arc<Matcher>,
    /// Window size `w ≥ 2`: every pair within `w − 1` sort positions
    /// is compared.
    pub window: usize,
    /// Reduce tasks of the matching job — SN's key ranges, one
    /// contiguous range of the global sort order each.
    pub reduce_tasks: usize,
}

impl SnConfig {
    /// Defaults: window 4, [`DEFAULT_REDUCE_TASKS`] key ranges, the
    /// full normalized `title` as sort key.
    pub fn new() -> Self {
        Self {
            sort_key: Arc::new(AttributeSortKey::title()),
            matcher: Arc::new(Matcher::paper_default()),
            window: 4,
            reduce_tasks: DEFAULT_REDUCE_TASKS,
        }
    }

    /// Overrides the sort-key function.
    pub fn with_sort_key(mut self, sort_key: Arc<dyn SortKeyFunction>) -> Self {
        self.sort_key = sort_key;
        self
    }

    /// Overrides the matcher.
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.matcher = matcher;
        self
    }

    /// Overrides the window size.
    ///
    /// # Panics
    /// If `window < 2` — a window of one compares nothing.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 2, "a sliding window must span at least 2 slots");
        self.window = window;
        self
    }

    /// Overrides the number of key ranges — the reduce tasks of the
    /// matching job.
    ///
    /// # Panics
    /// If `reduce_tasks` is zero.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        assert!(reduce_tasks > 0, "at least one partition is required");
        self.reduce_tasks = reduce_tasks;
        self
    }

    pub(crate) fn comparer(&self) -> PairComparer {
        PairComparer::new(Arc::clone(&self.matcher))
    }
}

impl Default for SnConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SnConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnConfig")
            .field("window", &self.window)
            .field("reduce_tasks", &self.reduce_tasks)
            .finish_non_exhaustive()
    }
}

/// Products of one SN pass executed inside a caller-owned workflow —
/// what [`run_sn_stages`] returns to [`run_sorted_neighborhood_in`],
/// to the multi-pass driver, and through them to the facade crate's
/// `Resolver`.
#[derive(Debug)]
pub struct SnStages {
    /// The deduplicated match result of this pass.
    pub result: MatchResult,
    /// Metrics of the matching job.
    pub match_metrics: JobMetrics,
}

impl SnStages {
    /// Comparison counts per reduce task of the matching job.
    pub fn reduce_loads(&self) -> Vec<u64> {
        self.match_metrics
            .per_reduce_counter(er_loadbalance::COMPARISONS)
    }

    /// Total comparisons of the matching job.
    pub fn total_comparisons(&self) -> u64 {
        self.match_metrics.counters.get(er_loadbalance::COMPARISONS)
    }
}

/// Executes one plain (single-source, single-pass) SN pass as stages
/// of `workflow` with the config's own comparer — the scenario
/// compiler the facade crate's `Resolver` drives for single-key
/// `Scenario::SortedNeighborhood`.
pub fn run_sorted_neighborhood_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    config: &SnConfig,
) -> Result<SnStages, MrError> {
    run_sn_stages(workflow, input, config, config.comparer())
}

/// Executes one full SN pass — its one matching job — as a stage of
/// `workflow`, evaluating pairs through the given `comparer`: the hook
/// by which multi-pass SN installs its pair-level dedup gate.
pub fn run_sn_stages(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    config: &SnConfig,
    comparer: PairComparer,
) -> Result<SnStages, MrError> {
    assert!(
        config.window >= 2,
        "a sliding window must span at least 2 slots"
    );
    assert!(
        config.reduce_tasks > 0,
        "at least one partition is required"
    );
    let sort_key = Arc::clone(&config.sort_key);
    let job = repsn_job(sort_key, comparer, config.window, config.reduce_tasks);
    let out = workflow.chained_stage(&job, input)?;
    Ok(SnStages {
        result: MatchResult::from_runs(out.reduce_outputs),
        match_metrics: out.metrics,
    })
}

/// Test helper of this crate: a workflow on a single-slot pool, so
/// every stage runs inline on the calling thread.
#[cfg(test)]
pub(crate) fn inline_workflow(name: &str) -> Workflow {
    Workflow::on_pool(name, Arc::new(mr_engine::pool::WorkerPool::new(1)))
}

/// Reference implementation: single-machine sliding window over the
/// globally sorted input — the ground truth the MR jobs must
/// reproduce exactly, at every partition count and parallelism.
///
/// Entities are enumerated in `(input partition, record order)` and
/// stable-sorted by the same
/// [`routing_key`](crate::runs::routing_key) the mapper uses,
/// mirroring the runs' merge order.
pub fn sn_oracle(input: &Partitions<(), Ent>, config: &SnConfig) -> MatchResult {
    let sorted = sorted_order(input, config.sort_key.as_ref());
    let mut result = MatchResult::new();
    let mut cache = MatcherCache::new(Arc::clone(&config.matcher));
    for (a, b) in window_pairs(&sorted, config.window) {
        if let Some(score) = cache.matches(a, b) {
            result.insert(MatchPair::new(a.entity_ref(), b.entity_ref()), score);
        }
    }
    result
}

/// The number of window comparisons the oracle performs for `n` sorted
/// entities under window `w` — the count the MR jobs must hit exactly
/// (each pair compared once, no replica × replica extras).
pub fn oracle_comparisons(n: usize, window: usize) -> u64 {
    (0..n).map(|j| j.min(window - 1) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SnRanges;
    use crate::REPLICAS;
    use er_core::Entity;

    fn ent(id: u64, title: &str) -> ((), Ent) {
        ((), Arc::new(Entity::new(id, [("title", title)])))
    }

    fn input(titles: &[&str]) -> Partitions<(), Ent> {
        vec![titles
            .iter()
            .enumerate()
            .map(|(i, t)| ent(i as u64, t))
            .collect()]
    }

    fn config() -> SnConfig {
        SnConfig::new().with_window(3).with_reduce_tasks(2)
    }

    fn sn_inline(input: Partitions<(), Ent>, config: &SnConfig) -> Result<SnStages, MrError> {
        run_sorted_neighborhood_in(&mut inline_workflow("sn"), input, config)
    }

    /// The number of entities in each of `config`'s key ranges over
    /// `n` entities.
    fn range_sizes(n: u64, config: &SnConfig) -> Vec<u64> {
        let ranges = SnRanges::new(n, config.window, config.reduce_tasks);
        (0..config.reduce_tasks)
            .map(|q| ranges.range(q).end - ranges.range(q).start)
            .collect()
    }

    #[test]
    fn both_strategies_match_the_oracle_on_a_small_input() {
        let titles = [
            "canon eos 5d mark iii",
            "canon eos 5d mark iri",
            "canon eos 7d body",
            "nikon d800 body only",
            "nikon d800 body onlx",
            "sony alpha a7 ii kit",
        ];
        let cfg = config();
        let outcome = sn_inline(input(&titles), &cfg).unwrap();
        let oracle = sn_oracle(&input(&titles), &cfg);
        assert_eq!(outcome.result.pair_set(), oracle.pair_set());
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(titles.len(), cfg.window),
            "each window pair is compared exactly once"
        );
        assert!(!outcome.result.is_empty(), "near-duplicates must match");
    }

    #[test]
    fn repsn_covers_pairs_across_a_thin_interior_range() {
        // Five entities hold 9 window pairs under w = 4, cut into
        // three ranges of 3, 1 and 1 entities: the interior range holds
        // fewer than w - 1 = 3 entities, so the pair between its
        // neighbours spans two boundaries; replication must still
        // reach it.
        let titles = ["aa", "bb", "cc", "dd", "ee"];
        let cfg = SnConfig::new().with_window(4).with_reduce_tasks(3);
        assert_eq!(range_sizes(5, &cfg), [3, 1, 1]);
        let outcome = sn_inline(input(&titles), &cfg).unwrap();
        // Range 1 reads aa, bb, cc; range 2 bb, cc, dd.
        assert_eq!(outcome.match_metrics.counters.get(REPLICAS), 6);
        let oracle = sn_oracle(&input(&titles), &cfg);
        assert_eq!(outcome.result.pair_set(), oracle.pair_set());
        assert_eq!(outcome.reduce_loads(), [3, 3, 3]);
        assert_eq!(outcome.total_comparisons(), oracle_comparisons(5, 4));
    }

    #[test]
    fn repsn_accepts_thin_outer_ranges() {
        // Thin first and last ranges: four entities hold 6 window
        // pairs under w = 5, cut into 3 | 1, both below w - 1 = 4, so
        // the first range's whole content replicates forward.
        let cfg = SnConfig::new().with_window(5).with_reduce_tasks(2);
        assert_eq!(range_sizes(4, &cfg), [3, 1]);
        let titles = ["aa", "bb", "cc", "zz"];
        let outcome = sn_inline(input(&titles), &cfg).unwrap();
        assert_eq!(outcome.match_metrics.counters.get(REPLICAS), 3);
        let oracle = sn_oracle(&input(&titles), &cfg);
        assert_eq!(outcome.result.pair_set(), oracle.pair_set());
        assert_eq!(outcome.reduce_loads(), [3, 3]);
        assert_eq!(outcome.total_comparisons(), oracle_comparisons(4, 5));
    }

    #[test]
    fn single_partition_degenerates_to_a_plain_window() {
        let cfg = SnConfig::new().with_window(3).with_reduce_tasks(1);
        let outcome = sn_inline(input(&["b", "a", "c"]), &cfg).unwrap();
        assert_eq!(outcome.total_comparisons(), oracle_comparisons(3, 3));
        assert_eq!(outcome.match_metrics.counters.get(REPLICAS), 0);
    }

    #[test]
    fn outcome_exposes_loads_sizes_and_sampling() {
        let cfg = config();
        assert_eq!(range_sizes(6, &cfg).iter().sum::<u64>(), 6);
        let outcome = sn_inline(input(&["aa", "ab", "ac", "ba", "bb", "bc"]), &cfg).unwrap();
        assert_eq!(outcome.reduce_loads().len(), 2);
        assert_eq!(
            outcome.match_metrics.counters.get(REPLICAS),
            2,
            "w - 1 replicas cross the boundary"
        );
        assert_eq!(outcome.match_metrics.map_input_records(), 6);
        assert_eq!(
            outcome.match_metrics.map_output_records(),
            2,
            "one trigger per range"
        );
    }

    #[test]
    fn oracle_comparisons_counts_the_triangle_head() {
        assert_eq!(oracle_comparisons(0, 4), 0);
        assert_eq!(oracle_comparisons(1, 4), 0);
        assert_eq!(oracle_comparisons(5, 4), 1 + 2 + 3 + 3);
        assert_eq!(oracle_comparisons(3, 2), 2);
    }

    #[test]
    fn config_debug_and_display() {
        let dbg = format!("{:?}", config());
        assert!(dbg.contains("window: 3"), "{dbg}");
        assert!(dbg.contains("reduce_tasks: 2"), "{dbg}");
        assert_eq!(format!("{:?}", SnStrategy::RepSn), "RepSn");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn window_below_two_rejected() {
        let _ = SnConfig::new().with_window(1);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = SnConfig::new().with_reduce_tasks(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::keys::SnRanges;
    use crate::runs::{range_entries, sn_job, RunMapper, SortedRun};
    use crate::REPLICAS;
    use er_core::Entity;
    use mr_engine::prelude::*;
    use proptest::prelude::*;

    /// `picks` as entities dealt round-robin over `m` map tasks: a
    /// pick divisible by 7 is keyless (a brand, no title), any other
    /// is a one-letter title from the first `letters` letters.
    fn hostile_input(picks: &[usize], letters: usize, m: usize) -> Partitions<(), Ent> {
        let mut input: Partitions<(), Ent> = vec![Vec::new(); m];
        for (i, &pick) in picks.iter().enumerate() {
            let entity = if pick % 7 == 0 {
                Entity::new(i as u64, [("brand", "keyless")])
            } else {
                let letter = char::from(b'a' + (pick / 7 % letters) as u8);
                Entity::new(i as u64, [("title", letter.to_string())])
            };
            input[i % m].push(((), Arc::new(entity)));
        }
        input
    }

    /// What a RepSN range task walks: `(replica, entity id)` per
    /// entry, in walk order — the slice [`RepSnReducer`] primes and
    /// advances over, read inside a job.
    #[derive(Clone)]
    struct Arrivals {
        window: usize,
    }

    impl Reducer for Arrivals {
        type KIn = u32;
        type VIn = ();
        type KOut = ();
        type VOut = (bool, u64);
        type Product = SortedRun;

        fn reduce(
            &mut self,
            group: Group<'_, u32, (), SortedRun>,
            ctx: &mut ReduceContext<(), (bool, u64)>,
        ) {
            let runs = group.products();
            let ranges = ctx.info().num_reduce_tasks;
            let (replicas, entries) = range_entries(runs, self.window, *group.key(), ranges);
            for (i, (run, position)) in entries.into_iter().enumerate() {
                ctx.emit((), (i < replicas, runs[run as usize].id(position)));
            }
        }
    }

    proptest! {
        /// Heavy ties, keyless entities, and more ranges than window
        /// pairs, which leaves ranges thin or empty: the run still
        /// equals the oracle, comparing each window pair exactly once.
        #[test]
        fn both_strategies_equal_the_oracle_on_hostile_range_layouts(
            picks in proptest::collection::vec(0usize..84, 0..40),
            letters in 1usize..=12,
            m in 1usize..=5,
            r in 1usize..=9,
            w in 2usize..=16,
        ) {
            let input = hostile_input(&picks, letters, m);
            let config = SnConfig::new().with_window(w).with_reduce_tasks(r);
            let outcome =
                run_sorted_neighborhood_in(&mut inline_workflow("sn"), input.clone(), &config);
            prop_assert_eq!(outcome.as_ref().err(), None);
            let outcome = outcome.unwrap();
            prop_assert_eq!(
                outcome.result.pair_set(),
                sn_oracle(&input, &config).pair_set()
            );
            prop_assert_eq!(
                outcome.total_comparisons(),
                oracle_comparisons(picks.len(), w)
            );
        }

        /// Range `q`, starting at global rank `start_q`, walks exactly
        /// the replicas at ranks `max(0, start_q − (w − 1))..start_q`,
        /// then its own entities, both in global order — under heavy
        /// ties that run from several map tasks across a range start,
        /// thin and empty ranges, more ranges than entities, 1 to 8 map
        /// tasks and map-side spilling; the RepSN job counts exactly
        /// those replicas; and the run equals the oracle.
        #[test]
        fn replicas_are_exactly_the_positions_before_each_range_start(
            picks in proptest::collection::vec(0usize..84, 0..48),
            letters in 1usize..=6,
            m in 1usize..=8,
            r in 1usize..=9,
            w in 2usize..=12,
        ) {
            let input = hostile_input(&picks, letters, m);
            let config = SnConfig::new().with_window(w).with_reduce_tasks(r);
            let sort_key = Arc::clone(&config.sort_key);
            let sorted = sorted_order(&input, sort_key.as_ref());
            let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
            let ranges = SnRanges::new(picks.len() as u64, w, r);
            for threshold in [None, Some(1)] {
                let workflow = || {
                    Workflow::on_pool("sn", Arc::new(mr_engine::pool::WorkerPool::new(2)))
                        .with_spill_threshold(threshold)
                };
                let mut stages = workflow();
                let mapper = RunMapper::new(Arc::clone(&sort_key), &comparer);
                let job = sn_job("sn-repsn-arrivals", mapper, Arrivals { window: w }, r);
                let out = stages.chained_stage(&job, input.clone()).unwrap();
                let at = |replica: bool, p: u64| (replica, sorted[p as usize].id().0);
                let mut replicas = 0;
                for (q, arrivals) in out.reduce_outputs.iter().enumerate() {
                    let span = ranges.range(q);
                    let expected: Vec<(bool, u64)> = (span.start.saturating_sub(w as u64 - 1)..span.start)
                        .map(|p| at(true, p))
                        .chain(span.clone().map(|p| at(false, p)))
                        .collect();
                    let got: Vec<(bool, u64)> = arrivals.iter().map(|&((), v)| v).collect();
                    prop_assert_eq!(got, expected, "range {} at {:?}", q, threshold);
                    replicas += span.start.min(w as u64 - 1);
                }
                prop_assert_eq!(ranges.range(r - 1).end, picks.len() as u64);
                let job = crate::repsn::repsn_job(Arc::clone(&sort_key), comparer.clone(), w, r);
                let out = stages.chained_stage(&job, input.clone()).unwrap();
                prop_assert_eq!(out.metrics.counters.get(REPLICAS), replicas);
                let outcome =
                    run_sorted_neighborhood_in(&mut workflow(), input.clone(), &config).unwrap();
                prop_assert_eq!(
                    outcome.result.pair_set(),
                    sn_oracle(&input, &config).pair_set(),
                    "at {:?}", threshold
                );
                prop_assert_eq!(
                    outcome.total_comparisons(),
                    oracle_comparisons(picks.len(), w),
                    "at {:?}", threshold
                );
            }
        }
    }
}
