//! Multi-pass Sorted Neighborhood: several sort keys, one union of
//! window pair sets, each pair compared exactly once globally.
//!
//! A single sort key collates records by prefix: near-duplicates
//! differing early in the key (first-word typo, reordered tokens)
//! sort far apart and never meet in a window — the classic SN recall
//! ceiling. The standard remedy (*Data Partitioning for Parallel
//! Entity Matching*) is multi-pass SN: run the window workflow once
//! per sort key (e.g. title and reversed title) and union the pair
//! sets.
//!
//! The naive union would compare a pair once per pass whose windows
//! contain it. Mirroring multi-pass *blocking*'s smallest-common-block
//! rule ([`er_loadbalance::multipass`]), a pair is evaluated only in
//! the **first** pass whose window covers it: before pass `i` runs,
//! the driver derives the window pair sets of passes `0..i` from the
//! passes' sort orders (a pure function of the input — the same
//! enumeration [`crate::sn_oracle`] uses) and installs them as a
//! pair-level dedup gate
//! ([`er_loadbalance::compare::PairComparer::with_skip_pairs`]) on the
//! pass's comparer; gated pairs are counted under
//! [`er_loadbalance::compare::MULTIPASS_SKIPPED`], never re-scored.
//! Every pass runs as a chained stage of **one** [`Workflow`] — one SN
//! job per pass, through [`run_sn_stages`] — so the
//! whole multi-pass run reports a single rolled-up
//! [`mr_engine::workflow::WorkflowMetrics`].

use std::collections::BTreeSet;
use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::sortkey::SortKeyFunction;
use er_core::MatchResult;
use er_loadbalance::compare::MULTIPASS_SKIPPED;
use er_loadbalance::{Ent, COMPARISONS};
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::workflow::Workflow;

use crate::driver::{run_sn_stages, sn_oracle};
use crate::runs::{sorted_order, window_pairs};
use crate::SnConfig;

/// What one pass of a multi-pass run contributed.
#[derive(Debug)]
pub struct SnPassReport {
    /// Pairs this pass evaluated (its window pairs minus those an
    /// earlier pass already covered).
    pub comparisons: u64,
    /// Pairs the dedup gate suppressed in this pass.
    pub skipped: u64,
    /// Matches this pass added to the union.
    pub new_matches: u64,
    /// Metrics of the pass's matching job.
    pub match_metrics: JobMetrics,
}

/// Products of the multi-pass stages executed inside a caller-owned
/// workflow — what [`run_multipass_sn_in`] produces and the facade
/// crate's `Resolver` wraps into its outcome.
#[derive(Debug)]
pub struct MultiPassSnStages {
    /// The union of all passes' match results (deduplicated).
    pub result: MatchResult,
    /// Per-pass reports, in pass order.
    pub passes: Vec<SnPassReport>,
}

impl MultiPassSnStages {
    /// Total pair evaluations across all passes — equals the size of
    /// the union of per-pass window pair sets (each unioned pair is
    /// compared exactly once globally).
    pub fn total_comparisons(&self) -> u64 {
        self.passes.iter().map(|p| p.comparisons).sum()
    }

    /// Total pairs the dedup gate suppressed (already compared by an
    /// earlier pass).
    pub fn total_skipped(&self) -> u64 {
        self.passes.iter().map(|p| p.skipped).sum()
    }
}

/// Executes multi-pass Sorted Neighborhood as stages of `workflow`:
/// one window workflow per sort key in `passes`, unioned with the
/// first-pass-wins dedup gate. `config.sort_key` is ignored — each
/// pass routes by its own key function; everything else (window,
/// partitions, matcher) applies to every pass.
///
/// # Panics
/// If `passes` is empty.
pub fn run_multipass_sn_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    config: &SnConfig,
    passes: &[Arc<dyn SortKeyFunction>],
) -> Result<MultiPassSnStages, MrError> {
    assert!(!passes.is_empty(), "multi-pass SN needs at least one pass");
    // Pass `i + 1`'s dedup gate holds the window pairs of passes
    // `0..=i`.
    let mut seen = BTreeSet::<MatchPair>::new();
    let mut result = MatchResult::new();
    let mut reports = Vec::with_capacity(passes.len());
    for sort_key in passes {
        let pass_config = config.clone().with_sort_key(Arc::clone(sort_key));
        let comparer = pass_config
            .comparer()
            .with_skip_pairs((!seen.is_empty()).then(|| Arc::new(seen.clone())));
        let stages = run_sn_stages(workflow, input.clone(), &pass_config, comparer)?;
        let counters = &stages.match_metrics.counters;
        let before = result.len();
        result.union(&stages.result);
        reports.push(SnPassReport {
            comparisons: counters.get(COMPARISONS),
            skipped: counters.get(MULTIPASS_SKIPPED),
            new_matches: (result.len() - before) as u64,
            match_metrics: stages.match_metrics,
        });
        seen.extend(window_pair_set(&input, sort_key.as_ref(), config.window));
    }
    Ok(MultiPassSnStages {
        result,
        passes: reports,
    })
}

/// The window pair set of one pass: every unordered pair within
/// `window − 1` positions of the pass's global sort order (stable
/// ties in `(input partition, record order)` — the same enumeration
/// the MR jobs and [`sn_oracle`] realize). This is what the dedup
/// gate of later passes is built from; it involves no similarity
/// evaluation.
pub fn window_pair_set(
    input: &Partitions<(), Ent>,
    sort_key: &dyn SortKeyFunction,
    window: usize,
) -> BTreeSet<MatchPair> {
    let sorted = sorted_order(input, sort_key);
    window_pairs(&sorted, window)
        .map(|(a, b)| MatchPair::new(a.entity_ref(), b.entity_ref()))
        .collect()
}

/// Reference implementation: the union of the single-machine sliding
/// window oracle over every pass — the ground truth
/// [`run_multipass_sn_in`] must reproduce exactly.
pub fn multipass_sn_oracle(
    input: &Partitions<(), Ent>,
    config: &SnConfig,
    passes: &[Arc<dyn SortKeyFunction>],
) -> MatchResult {
    let mut result = MatchResult::new();
    for sort_key in passes {
        result.union(&sn_oracle(
            input,
            &config.clone().with_sort_key(Arc::clone(sort_key)),
        ));
    }
    result
}

/// The number of comparisons a multi-pass run must perform: the size
/// of the union of the per-pass window pair sets.
pub fn multipass_oracle_comparisons(
    input: &Partitions<(), Ent>,
    config: &SnConfig,
    passes: &[Arc<dyn SortKeyFunction>],
) -> u64 {
    let mut union = BTreeSet::new();
    for sort_key in passes {
        union.extend(window_pair_set(input, sort_key.as_ref(), config.window));
    }
    union.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{inline_workflow, run_sorted_neighborhood_in, SnStages};
    use er_core::sortkey::{AttributeSortKey, ReversedSortKey};
    use er_core::Entity;

    fn ent(id: u64, title: &str) -> ((), Ent) {
        ((), Arc::new(Entity::new(id, [("title", title)])))
    }

    fn multipass_inline(
        input: Partitions<(), Ent>,
        config: &SnConfig,
        passes: &[Arc<dyn SortKeyFunction>],
    ) -> Result<MultiPassSnStages, MrError> {
        run_multipass_sn_in(&mut inline_workflow("sn-multipass"), input, config, passes)
    }

    fn sn_inline(input: Partitions<(), Ent>, config: &SnConfig) -> Result<SnStages, MrError> {
        run_sorted_neighborhood_in(&mut inline_workflow("sn"), input, config)
    }

    fn passes() -> Vec<Arc<dyn SortKeyFunction>> {
        vec![
            Arc::new(AttributeSortKey::title()),
            Arc::new(ReversedSortKey::title()),
        ]
    }

    #[test]
    fn second_pass_recovers_a_prefix_divergent_duplicate() {
        // "xq..." and "zp..." share a long suffix: adjacent under the
        // reversed key, far apart under the forward key (w = 2 and the
        // interleaving non-duplicates keep them out of one window).
        let input = vec![vec![
            ent(0, "xq rocket skates xl"),
            ent(1, "zp rocket skates xl"),
            ent(2, "yy unrelated item aa"),
            ent(3, "ya other product bb"),
        ]];
        let config = SnConfig::new().with_window(2).with_reduce_tasks(2);
        let single = sn_inline(
            input.clone(),
            &config
                .clone()
                .with_sort_key(Arc::new(AttributeSortKey::title())),
        )
        .unwrap();
        let pair = MatchPair::new(
            Entity::new(0, [("t", "")]).entity_ref(),
            Entity::new(1, [("t", "")]).entity_ref(),
        );
        assert!(
            !single.result.contains(&pair),
            "the forward pass alone must miss the suffix duplicate"
        );
        let multi = multipass_inline(input.clone(), &config, &passes()).unwrap();
        assert!(
            multi.result.contains(&pair),
            "the reversed pass must recover it"
        );
        assert_eq!(
            multi.result.pair_set(),
            multipass_sn_oracle(&input, &config, &passes()).pair_set()
        );
    }

    #[test]
    fn every_unioned_window_pair_is_compared_exactly_once() {
        let input = vec![vec![
            ent(0, "aa same thing"),
            ent(1, "ab same thing"),
            ent(2, "ba other thing"),
            ent(3, "bb other thing"),
            ent(4, "ca third thing"),
        ]];
        let config = SnConfig::new().with_window(3).with_reduce_tasks(2);
        let outcome = multipass_inline(input.clone(), &config, &passes()).unwrap();
        assert_eq!(
            outcome.total_comparisons(),
            multipass_oracle_comparisons(&input, &config, &passes()),
            "union size"
        );
        // Overlapping window pairs exist (both passes cover the
        // adjacent same-suffix runs) and must be gated, not
        // re-evaluated.
        assert!(outcome.total_skipped() > 0, "gate engaged");
        assert_eq!(outcome.passes.len(), 2);
    }

    #[test]
    fn repsn_covers_thin_interior_ranges_in_every_pass() {
        // Five entities hold 7 window pairs under w = 3, cut into five
        // ranges of 3, 0, 1, 1 and 0 entities in both passes: thin
        // interior ranges, below w - 1 = 2, and empty ones.
        let input = vec![vec![
            ent(0, "aa same thing"),
            ent(1, "ab same thing"),
            ent(2, "ba other thing"),
            ent(3, "bb other thing"),
            ent(4, "ca third thing"),
        ]];
        let config = SnConfig::new().with_window(3).with_reduce_tasks(5);
        let outcome = multipass_inline(input.clone(), &config, &passes()).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            multipass_sn_oracle(&input, &config, &passes()).pair_set()
        );
        assert_eq!(
            outcome.total_comparisons(),
            multipass_oracle_comparisons(&input, &config, &passes())
        );
    }

    #[test]
    fn one_pass_degenerates_to_plain_sorted_neighborhood() {
        let input = vec![vec![
            ent(0, "canon eos 5d mark iii"),
            ent(1, "canon eos 5d mark iri"),
            ent(2, "nikon d800 body only"),
        ]];
        let config = SnConfig::new().with_window(2).with_reduce_tasks(1);
        let single_key: Vec<Arc<dyn SortKeyFunction>> = vec![Arc::new(AttributeSortKey::title())];
        let multi = multipass_inline(input.clone(), &config, &single_key).unwrap();
        let plain = sn_inline(input, &config).unwrap();
        assert_eq!(multi.result.pair_set(), plain.result.pair_set());
        assert_eq!(multi.total_comparisons(), plain.total_comparisons());
        assert_eq!(multi.total_skipped(), 0, "nothing to gate in one pass");
        assert_eq!(multi.passes[0].new_matches, multi.result.len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = multipass_inline(vec![vec![ent(0, "x")]], &SnConfig::new(), &[]);
    }
}
