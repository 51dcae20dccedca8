//! Two-source (R × S) Sorted Neighborhood: one interleaved sort
//! order, cross-source window pairs only.
//!
//! The SN paper's record-linkage variant, mirroring er-loadbalance's
//! blocking strategies over a source-tagged BDM: both sources are
//! annotated with the
//! *same* sort-key function and interleaved into one total order by
//! the regular distribution + window workflow — nothing about routing
//! or boundary handling changes, because window membership is purely
//! positional. The only difference is the comparison gate: entities of
//! the same source occupy window slots (they separate genuine R × S
//! neighbours exactly as in the sequential algorithm) but their pairs
//! are never evaluated
//! ([`er_loadbalance::compare::PairComparer::with_cross_source_only`],
//! counted under
//! [`er_loadbalance::compare::SAME_SOURCE_SKIPPED`]), so the output —
//! and the `er.comparisons` workload the strategies balance — contains
//! cross-source pairs only.
//!
//! Both boundary strategies work unchanged: JobSN's stitch job and
//! RepSN's replication operate on positions, and the driver threads
//! the gated comparer through every stage of the shared workflow.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::{MatchResult, MatcherCache, SourceId};
use er_loadbalance::Ent;
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::workflow::Workflow;

use crate::driver::{run_sn_stages, SnStages};
use crate::sample::{sorted_order, window_pairs};
use crate::SnConfig;

/// Executes two-source Sorted Neighborhood linkage as stages of
/// `workflow` — the scenario compiler the facade crate's `Resolver`
/// drives for `Scenario::TwoSourceSn`.
///
/// `sources[p]` tags input partition `p` as belonging to `R` or `S`;
/// only cross-source pairs within the window over the interleaved
/// order are compared. The gate reads each entity's own source, so the
/// caller must have checked that every entity of a partition carries
/// its partition's tag (`Resolver::resolve` does, as a typed error).
pub fn run_two_source_sn_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Vec<SourceId>,
    config: &SnConfig,
) -> Result<SnStages, MrError> {
    debug_assert!(
        sources.len() == input.len()
            && input.iter().zip(&sources).all(|(records, &tag)| {
                (tag == SourceId::R || tag == SourceId::S)
                    && records.iter().all(|((), e)| e.source() == tag)
            }),
        "every partition holds entities of its tag, R or S"
    );
    let comparer = config.comparer().with_cross_source_only(true);
    run_sn_stages(workflow, input, config, comparer)
}

/// Convenience: packages two already-tagged entity sets into input
/// partitions plus the matching source-tag vector (each source split
/// over `partitions_per_source` map tasks — the `MultipleInputs`
/// layout where every input partition holds one source).
///
/// # Panics
/// If `partitions_per_source` is zero or an entity's source disagrees
/// with the set it was passed in.
pub fn two_source_input(
    r: Vec<Ent>,
    s: Vec<Ent>,
    partitions_per_source: usize,
) -> (Partitions<(), Ent>, Vec<SourceId>) {
    assert!(
        partitions_per_source > 0,
        "at least one partition per source"
    );
    let mut partitions: Partitions<(), Ent> = Vec::new();
    let mut sources = Vec::new();
    for (entities, source) in [(r, SourceId::R), (s, SourceId::S)] {
        assert!(
            entities.iter().all(|e| e.source() == source),
            "every entity must carry the source of its set"
        );
        let chunk = entities.len().div_ceil(partitions_per_source).max(1);
        let mut iter = entities.into_iter().peekable();
        for _ in 0..partitions_per_source {
            let part: Vec<((), Ent)> = iter.by_ref().take(chunk).map(|e| ((), e)).collect();
            partitions.push(part);
            sources.push(source);
        }
    }
    (partitions, sources)
}

/// Reference implementation: the single-machine sliding window over
/// the interleaved order, evaluating cross-source pairs only — the
/// ground truth [`run_two_source_sn_in`] must reproduce exactly at every
/// partition count and parallelism.
pub fn two_source_sn_oracle(input: &Partitions<(), Ent>, config: &SnConfig) -> MatchResult {
    let sorted = sorted_order(input, config.sort_key.as_ref());
    let mut result = MatchResult::new();
    let mut cache = MatcherCache::new(Arc::clone(&config.matcher));
    for (a, b) in window_pairs(&sorted, config.window).filter(is_cross_source) {
        if let Some(score) = cache.matches(a, b) {
            result.insert(MatchPair::new(a.entity_ref(), b.entity_ref()), score);
        }
    }
    result
}

/// The number of cross-source window pairs — the exact comparison
/// count [`run_two_source_sn_in`] must report (same-source window slots
/// are skipped, not evaluated).
pub fn two_source_oracle_comparisons(input: &Partitions<(), Ent>, config: &SnConfig) -> u64 {
    let sorted = sorted_order(input, config.sort_key.as_ref());
    window_pairs(&sorted, config.window)
        .filter(is_cross_source)
        .count() as u64
}

fn is_cross_source((a, b): &(&Ent, &Ent)) -> bool {
    a.source() != b.source()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::inline_workflow;
    use crate::SnStrategy;
    use er_core::Entity;
    use er_loadbalance::compare::SAME_SOURCE_SKIPPED;

    fn src_ent(source: SourceId, id: u64, title: &str) -> Ent {
        Arc::new(Entity::with_source(source, id, [("title", title)]))
    }

    fn two_source_inline(
        input: Partitions<(), Ent>,
        sources: Vec<SourceId>,
        config: &SnConfig,
    ) -> Result<SnStages, MrError> {
        run_two_source_sn_in(
            &mut inline_workflow("sn-two-source"),
            input,
            sources,
            config,
        )
    }

    fn catalogs() -> (Vec<Ent>, Vec<Ent>) {
        let r = vec![
            src_ent(SourceId::R, 0, "canon eos 5d mark iii"),
            src_ent(SourceId::R, 1, "nikon d800 body only"),
            src_ent(SourceId::R, 2, "sony alpha a7 ii kit"),
        ];
        let s = vec![
            src_ent(SourceId::S, 0, "canon eos 5d mark iri"),
            src_ent(SourceId::S, 1, "nikon d800 body onlx"),
            src_ent(SourceId::S, 2, "pentax k-1 mark ii"),
        ];
        (r, s)
    }

    #[test]
    fn emits_only_cross_source_pairs_and_matches_the_oracle() {
        let (r, s) = catalogs();
        let (input, sources) = two_source_input(r, s, 1);
        for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
            let config = SnConfig::new(strategy).with_window(3).with_reduce_tasks(2);
            let outcome = two_source_inline(input.clone(), sources.clone(), &config).unwrap();
            assert!(
                outcome
                    .result
                    .iter()
                    .all(|(pair, _)| pair.lo().source != pair.hi().source),
                "{strategy}: a same-source pair leaked into the linkage output"
            );
            assert_eq!(
                outcome.result.pair_set(),
                two_source_sn_oracle(&input, &config).pair_set(),
                "{strategy} diverged from the cross-source oracle"
            );
            assert_eq!(
                outcome.total_comparisons(),
                two_source_oracle_comparisons(&input, &config),
                "{strategy}: cross-source pairs must be evaluated exactly once"
            );
            assert!(
                outcome.match_metrics.counters.get(SAME_SOURCE_SKIPPED) > 0,
                "{strategy}: interleaved same-source neighbours must be gated"
            );
            assert!(!outcome.result.is_empty(), "near-duplicates must link");
        }
    }

    #[test]
    fn repsn_links_across_thin_interior_ranges() {
        // One entity per range under w = 4: the R × S pair at the two
        // ends spans three boundaries and is still one window.
        let r = vec![
            src_ent(SourceId::R, 0, "canon eos 5d mark iia"),
            src_ent(SourceId::R, 1, "canon eos 5d mark iic"),
        ];
        let s = vec![
            src_ent(SourceId::S, 0, "canon eos 5d mark iib"),
            src_ent(SourceId::S, 1, "canon eos 5d mark iid"),
        ];
        let (input, sources) = two_source_input(r, s, 1);
        let config = SnConfig::new(SnStrategy::RepSn)
            .with_window(4)
            .with_reduce_tasks(4);
        let outcome = two_source_inline(input.clone(), sources, &config).unwrap();
        let oracle = two_source_sn_oracle(&input, &config);
        assert_eq!(oracle.len(), 4, "every cross-source pair links");
        assert_eq!(outcome.result.pair_set(), oracle.pair_set());
        assert_eq!(
            outcome.total_comparisons(),
            two_source_oracle_comparisons(&input, &config)
        );
    }

    #[test]
    fn two_source_input_shapes_partitions_per_source() {
        let (r, s) = catalogs();
        let (input, sources) = two_source_input(r, s, 2);
        assert_eq!(input.len(), 4);
        assert_eq!(
            sources,
            vec![SourceId::R, SourceId::R, SourceId::S, SourceId::S]
        );
        assert_eq!(input.iter().map(Vec::len).sum::<usize>(), 6);
    }
}
