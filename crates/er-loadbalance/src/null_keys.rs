//! Entities without a valid blocking key (paper Section III and
//! Appendix I).
//!
//! One source: `match(R) = matchB(R−R∅) ∪ match⊥(R−R∅, R∅) ∪
//! allPairs(R∅)`. Two sources: `matchB(R,S) = matchB(R−R∅, S−S∅) ∪
//! match⊥(R, S∅) ∪ match⊥(R∅, S−S∅)`.
//!
//! [`run_er_in`](crate::driver::run_er_in) runs `matchB` as its match
//! stage. Its first stage — the BDM job, or Basic's matching job —
//! side-writes every entity and counts the keyless ones; only when
//! that count is not zero does [`split_keyless`] read the side output,
//! and [`run_bottom_stages`] runs each `⊥` sub-problem with a pair as
//! one more, repartitioned, stage of the same workflow. Its one block
//! needs no BDM job: the matrix cell of partition `p` is `p`'s length,
//! and every entity holds rank 0. BlockSplit and PairRange balance the
//! block as any other; Basic sends it to one reduce task.

use std::sync::Arc;

use er_core::blocking::{BlockKey, ConstantBlocking};
use er_core::{MatchResult, SourceId};
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::workflow::Workflow;

use crate::bdm::BlockDistributionMatrix;
use crate::bdm_job::NULL_KEY_ENTITIES;
use crate::driver::{match_stage, ErConfig, MatchInput};
use crate::{Ent, Ranks, StrategyKind};

/// A side output's entities, partition by partition: `(keyed, keyless)`.
pub(crate) type Split = (Partitions<(), Ent>, Partitions<(), Ent>);

/// Splits `side`, the side output of the first stage that `metrics`
/// describe, into its keyed and its keyless entities, keeping the
/// partition shape and the input order; `None` — without reading
/// `side` — when that stage counted no keyless entity.
pub(crate) fn split_keyless<V>(
    metrics: &JobMetrics,
    side: &Partitions<V, Ent>,
    keyless: impl Fn(&V) -> bool,
) -> Option<Split> {
    if metrics.counters.get(NULL_KEY_ENTITIES) == 0 {
        return None;
    }
    let split = |partition: &Vec<(V, Ent)>| {
        let (out, kept): (Vec<_>, Vec<_>) = partition.iter().partition(|(v, _)| keyless(v));
        let strip =
            |records: Vec<&(V, Ent)>| records.iter().map(|(_, e)| ((), Arc::clone(e))).collect();
        (strip(kept), strip(out))
    };
    Some(side.iter().map(split).unzip())
}

/// Runs the `⊥` sub-problems of `(keyed, keyless)` — between the sides
/// `sources` tags, or within one source — as repartitioned stages of
/// `workflow` under `config.strategy`, crossing sides first, and
/// returns their matches. Sub-problem `i` (from 1, in the order of the
/// module's formulas) runs as the stage `<match job>-bottom-<i>`, and
/// one without a pair does not run.
pub(crate) fn run_bottom_stages(
    workflow: &mut Workflow,
    (keyed, keyless): Split,
    sources: Option<&[SourceId]>,
    config: &ErConfig,
) -> Result<MatchResult, MrError> {
    // Each sub-problem crosses its sides, or dedups the first.
    let sub_problems = match sources {
        // match⊥(R − R∅, R∅), then allPairs(R∅).
        None => vec![(keyed, Some(keyless.clone())), (keyless, None)],
        Some(tags) => {
            let side = |parts: &Partitions<(), Ent>, source: SourceId| -> Partitions<(), Ent> {
                let of_source = parts.iter().zip(tags).filter(|&(_, &tag)| tag == source);
                of_source.map(|(part, _)| part.clone()).collect()
            };
            let mut r = side(&keyed, SourceId::R);
            r.extend(side(&keyless, SourceId::R));
            // match⊥(R, S∅), then match⊥(R∅, S − S∅).
            vec![
                (r, Some(side(&keyless, SourceId::S))),
                (side(&keyless, SourceId::R), Some(side(&keyed, SourceId::S))),
            ]
        }
    };
    let config = config.clone().with_blocking(Arc::new(ConstantBlocking));
    let count = |parts: &Partitions<(), Ent>| parts.iter().map(Vec::len).sum::<usize>();
    let mut result = MatchResult::new();
    for (bottom, (mut partitions, s)) in (1..).zip(sub_problems) {
        let (nr, ns) = (count(&partitions), s.as_ref().map(count));
        if ns.map_or(nr < 2, |ns| nr == 0 || ns == 0) {
            continue; // no pair
        }
        let tags = s.map(|s| {
            let mut tags = vec![SourceId::R; partitions.len()];
            tags.resize(partitions.len() + s.len(), SourceId::S);
            partitions.extend(s);
            tags
        });
        let input = bottom_input(partitions, tags, config.strategy);
        result.union(&match_stage(workflow, &config, input, Some(bottom))?.0);
    }
    Ok(result)
}

/// The match stage input of one `⊥` sub-problem: the raw entities for
/// Basic, which derives the constant key itself; for BlockSplit and
/// PairRange a one-block matrix and every entity with rank 0.
fn bottom_input(
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    strategy: StrategyKind,
) -> MatchInput {
    if strategy == StrategyKind::Basic {
        return MatchInput::Entities { input, sources };
    }
    let bottom = BlockKey::new(ConstantBlocking::KEY);
    let cells = input.iter().enumerate();
    let cells = cells.map(|(p, part)| (bottom.clone(), p, part.len() as u64));
    let bdm = BlockDistributionMatrix::from_counts(input.len(), cells);
    let bdm = Arc::new(match sources {
        Some(tags) => bdm.with_sources(tags),
        None => bdm,
    });
    let ranked = |part: Vec<_>| part.into_iter().map(|((), e)| (Ranks::One(0), e)).collect();
    let annotated = input.into_iter().map(ranked).collect();
    MatchInput::Annotated { bdm, annotated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_er_in;
    use er_core::blocking::PrefixBlocking;
    use er_core::matcher::{MatchRule, Matcher};
    use er_core::similarity::NormalizedLevenshtein;
    use er_core::Entity;
    use mr_engine::pool::WorkerPool;
    use StrategyKind::{Basic, BlockSplit, PairRange};
    const R: SourceId = SourceId::R;
    const S: SourceId = SourceId::S;

    /// An entity of `source` that matches another on an equal `brand`;
    /// without a title it has no key.
    fn ent(source: SourceId, id: u64, title: Option<&str>, brand: &str) -> ((), Ent) {
        let attributes = [("brand", Some(brand)), ("title", title)];
        let attributes = attributes.into_iter().filter_map(|(a, v)| Some((a, v?)));
        ((), Arc::new(Entity::with_source(source, id, attributes)))
    }

    /// Resolves `input` under 2-letter title blocking: the matched id
    /// pairs, and how many stages ran beyond the first strategy stages.
    fn run(
        strategy: StrategyKind,
        input: &Partitions<(), Ent>,
        sources: Option<Vec<SourceId>>,
    ) -> (Vec<(u64, u64)>, usize) {
        let rule = |attribute| MatchRule::new(attribute, Arc::new(NormalizedLevenshtein));
        let matcher = Matcher::new(vec![rule("title"), rule("brand")], 0.4);
        let config = ErConfig::new(strategy)
            .with_blocking(Arc::new(PrefixBlocking::new("title", 2)))
            .with_matcher(Arc::new(matcher))
            .with_reduce_tasks(3);
        let mut workflow = Workflow::on_pool("er", Arc::new(WorkerPool::new(1)));
        let stages = run_er_in(&mut workflow, input.clone(), sources, &config).unwrap();
        let pairs = stages.result.iter();
        let ids = pairs.map(|(p, _)| (p.lo().id.0, p.hi().id.0));
        let first = if strategy == Basic { 1 } else { 2 };
        (ids.collect(), workflow.finish().num_stages() - first)
    }

    #[test]
    fn split_preserves_partition_shape() {
        let input = vec![
            vec![ent(R, 0, Some("aa x"), "b"), ent(R, 1, None, "b")],
            vec![ent(R, 2, None, "c"), ent(R, 3, Some("bb y"), "c")],
        ];
        let blocking = Arc::new(PrefixBlocking::new("title", 2));
        let (_, side, metrics) = crate::bdm_job::compute_bdm(input, blocking, 2, 1, true).unwrap();
        let (keyed, keyless) = split_keyless(&metrics, &side, |ranks| ranks.is_empty()).unwrap();
        let ids = |part: &Vec<((), Ent)>| part.iter().map(|(_, e)| e.id().0).collect();
        let ids: Vec<Vec<u64>> = keyed.iter().chain(&keyless).map(ids).collect();
        assert_eq!(
            ids,
            [[0], [3], [1], [2]],
            "keyed partitions, then keyless ones"
        );
    }

    #[test]
    fn keyless_duplicates_are_found_via_cartesian_parts() {
        // Keyless 1 duplicates keyed 0 — only match⊥ finds the pair —
        // and keyless 2 and 3 duplicate each other — only allPairs does.
        let input = vec![
            vec![ent(R, 0, Some("aa same"), "dup"), ent(R, 1, None, "dup")],
            vec![ent(R, 2, None, "zz unique"), ent(R, 3, None, "zz unique")],
        ];
        for strategy in [Basic, BlockSplit, PairRange] {
            let two_stages = (vec![(0, 1), (2, 3)], 2);
            assert_eq!(run(strategy, &input, None), two_stages, "{strategy}");
        }
    }

    #[test]
    fn no_null_keys_degenerates_to_plain_matching() {
        let input = vec![
            vec![
                ent(R, 0, Some("aa same"), "x"),
                ent(R, 1, Some("aa samX"), "x"),
            ],
            vec![ent(R, 2, Some("bb"), "y")],
        ];
        for strategy in [Basic, BlockSplit, PairRange] {
            assert_eq!(run(strategy, &input, None), (vec![(0, 1)], 0), "{strategy}");
        }
    }

    #[test]
    fn two_source_decomposition_covers_all_parts() {
        // Blocked: R#0 ~ S#10. match⊥(R, S∅): R#1 ~ S#11.
        // match⊥(R∅, S − S∅): R#2 ~ S#12.
        let input = vec![
            vec![ent(R, 0, Some("aa alpha"), "p"), ent(R, 1, Some("bb"), "q")],
            vec![ent(R, 2, None, "r")],
            vec![ent(S, 10, Some("aa alpha"), "p"), ent(S, 11, None, "q")],
            vec![ent(S, 12, Some("cc"), "r")],
        ];
        let expected = (vec![(0, 10), (1, 11), (2, 12)], 2);
        for strategy in [Basic, BlockSplit, PairRange] {
            let outcome = run(strategy, &input, Some(vec![R, R, S, S]));
            assert_eq!(outcome, expected, "{strategy}");
        }
    }
}
