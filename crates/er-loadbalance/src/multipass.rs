//! Multi-pass blocking (the paper's future-work extension, §VIII:
//! "we will extend our approaches to multi-pass blocking that assigns
//! multiple blocks per entity").
//!
//! With multiple blocking keys per entity, the same pair can share
//! several blocks and would naively be compared (and its match
//! emitted) once per shared block. The classic remedy — applied here —
//! is the *smallest common block* rule: a pair is evaluated only in
//! the lexicographically smallest block both entities belong to. The
//! rule needs each entity's full key set at comparison time, which is
//! why [`crate::Keyed`] carries `all_keys` through the map side and a
//! match stage's [`crate::compare::EntityTable`] keeps it, once per
//! entity and map task, for the reducers; the check lives in
//! [`crate::compare::PairComparer`] and therefore applies uniformly to
//! Basic, BlockSplit and PairRange (one- and two-source).
//!
//! Note the interplay with load balancing: the BDM counts an entity
//! once per key, so block sizes — and hence the planned workload —
//! include the pairs that the smallest-common-block rule later skips.
//! Skipped pairs are visible as the difference between planned
//! comparisons (BDM pair count) and the `er.comparisons` counter, and
//! are tracked explicitly under
//! [`crate::compare::MULTIPASS_SKIPPED`]. Folding the dedup rule into
//! the *planning* stage is an open problem the paper leaves to future
//! work. `tests/pipeline_determinism.rs` checks on a two-pass run that
//! compared plus skipped pairs equal the BDM's pair total.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::compare::MULTIPASS_SKIPPED;
    use crate::driver::{naive_reference, run_er_inline, ErConfig};
    use crate::{Ent, StrategyKind, COMPARISONS};
    use er_core::blocking::{
        AttributeBlocking, BlockingFunction, MultiPassBlocking, PrefixBlocking,
    };
    use er_core::Entity;
    use mr_engine::input::partition_evenly;

    /// Products where title prefix and brand overlap heavily, so many
    /// pairs share both blocks.
    fn entities() -> Vec<Ent> {
        let mk = |id: u64, title: &str, brand: &str| {
            Arc::new(Entity::new(id, [("title", title), ("brand", brand)]))
        };
        vec![
            mk(0, "acme rocket skates xl", "acme"),
            mk(1, "acme rocket skates xk", "acme"),
            mk(2, "acme anvil deluxe 500", "acme"),
            mk(3, "beta widget pro", "beta"),
            mk(4, "beta widget prX", "beta"),
            mk(5, "acme tunnel paint kit", "zeta"),
            mk(6, "gamma unrelated thing", "acme"),
        ]
    }

    /// Title-prefix blocking unioned with brand blocking.
    fn two_pass() -> Arc<dyn BlockingFunction> {
        Arc::new(MultiPassBlocking::new(vec![
            Arc::new(PrefixBlocking::title3()),
            Arc::new(AttributeBlocking::new("brand")),
        ]))
    }

    #[test]
    fn each_shared_pair_is_compared_once() {
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let cfg = ErConfig::new(strategy)
                .with_blocking(two_pass())
                .with_reduce_tasks(3);
            let input = partition_evenly(entities().into_iter().map(|e| ((), e)).collect(), 2);
            let outcome = run_er_inline(input, &cfg);
            // Entities 0,1,2 share both the "acm" title block and the
            // "acme" brand block: their 3 pairs must be skipped in one
            // of the two (the non-smallest).
            let skipped = outcome.match_metrics.counters.get(MULTIPASS_SKIPPED);
            assert!(skipped >= 3, "{strategy}: skipped = {skipped}");
            // Comparisons + skips == total candidate pairs the blocks
            // generate.
            let compared = outcome.match_metrics.counters.get(COMPARISONS);
            let planned = outcome.bdm.as_ref().map(|b| b.total_pairs());
            if let Some(p) = planned {
                assert_eq!(compared + skipped, p, "{strategy}");
            }
        }
    }

    #[test]
    fn multipass_result_matches_naive_reference() {
        let cfg = ErConfig::new(StrategyKind::PairRange)
            .with_blocking(two_pass())
            .with_reduce_tasks(4);
        let ents = entities();
        let input = partition_evenly(ents.iter().map(|e| ((), Arc::clone(e))).collect(), 3);
        let outcome = run_er_inline(input, &cfg);
        let reference = naive_reference(&ents, &cfg);
        assert_eq!(outcome.result.pair_set(), reference.pair_set());
    }

    #[test]
    fn multipass_finds_matches_single_pass_blocking_misses() {
        // Entities 3 and 4 match by title prefix; a brand-only single
        // pass would still find them, but a *title-prefix-only* pass
        // would miss a same-brand different-title duplicate. Construct
        // one: same brand, title differs in the first three letters.
        let mk = |id: u64, title: &str, brand: &str| {
            Arc::new(Entity::new(id, [("title", title), ("brand", brand)]))
        };
        let ents: Vec<Ent> = vec![
            mk(0, "xqj identical text", "acme"),
            mk(1, "zpw identical text", "acme"),
        ];
        let input = partition_evenly(ents.iter().map(|e| ((), Arc::clone(e))).collect(), 1);
        // Lower threshold: titles differ in 3 of 18 chars (sim 0.83).
        use er_core::matcher::{MatchRule, Matcher};
        use er_core::similarity::NormalizedLevenshtein;
        let matcher = Arc::new(Matcher::new(
            vec![MatchRule::new("title", Arc::new(NormalizedLevenshtein))],
            0.8,
        ));

        let single = ErConfig::new(StrategyKind::BlockSplit)
            .with_blocking(Arc::new(PrefixBlocking::title3()))
            .with_matcher(Arc::clone(&matcher))
            .with_reduce_tasks(2);
        let outcome_single = run_er_inline(input.clone(), &single);
        assert_eq!(outcome_single.result.len(), 0, "prefix blocking misses it");

        let multi = ErConfig::new(StrategyKind::BlockSplit)
            .with_blocking(two_pass())
            .with_matcher(matcher)
            .with_reduce_tasks(2);
        let outcome_multi = run_er_inline(input, &multi);
        assert_eq!(outcome_multi.result.len(), 1, "brand pass recovers it");
    }
}
