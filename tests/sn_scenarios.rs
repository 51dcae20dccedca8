//! Acceptance suite for the two workflow-composed SN scenarios:
//!
//! * **multi-pass SN** — union of window pair sets over several sort
//!   keys, each unioned pair compared exactly once globally (the
//!   first-pass-wins dedup gate), equal to the union-of-oracles ground
//!   truth, byte-identical across parallelism and invariant across
//!   partition counts;
//! * **two-source SN** — R and S interleaved in one sorted order,
//!   cross-source window pairs only, equal to the cross-source oracle
//!   with the same invariances.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(2012).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

fn passes() -> Vec<Arc<dyn SortKeyFunction>> {
    vec![
        Arc::new(AttributeSortKey::title()),
        Arc::new(ReversedSortKey::title()),
    ]
}

fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

fn runtime(parallelism: usize) -> Runtime {
    Runtime::new(RuntimeConfig::new().with_parallelism(parallelism))
}

fn multipass(strategy: SnStrategy) -> Scenario {
    Scenario::multipass_sn(strategy, passes())
}

fn two_source(strategy: SnStrategy, sources: &[SourceId]) -> Scenario {
    Scenario::TwoSourceSn {
        strategy,
        sources: sources.to_vec(),
    }
}

// ---- multi-pass SN -----------------------------------------------------

#[test]
fn multipass_equals_the_union_of_oracles_and_compares_each_pair_once() {
    let input = corpus(3);
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(5).with_reduce_tasks(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let config = resolver.sn_config(strategy);
        let outcome = resolver
            .resolve(&multipass(strategy), input.clone())
            .unwrap();
        let pass_reports = outcome.details.passes().expect("multi-pass reports");
        let oracle = multipass_sn_oracle(&input, &config, &passes());
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "{strategy} diverged from the union of per-pass oracles"
        );
        assert_eq!(
            outcome.total_comparisons(),
            multipass_oracle_comparisons(&input, &config, &passes()),
            "{strategy}: every unioned window pair exactly once"
        );
        assert!(
            pass_reports.iter().map(|p| p.skipped).sum::<u64>() > 0,
            "{strategy}: overlapping passes must engage the dedup gate"
        );
        // The reversed pass must contribute matches the forward pass
        // misses (the whole point of multi-pass SN).
        let forward = resolver
            .resolve(&Scenario::sorted_neighborhood(strategy), input.clone())
            .unwrap();
        assert!(
            outcome.result.len() > forward.result.len(),
            "{strategy}: the reversed-title pass must add recall \
             (multi {} vs single {})",
            outcome.result.len(),
            forward.result.len()
        );
        // Both passes' stages ran under one workflow.
        assert_eq!(
            outcome.workflow.num_stages(),
            pass_reports
                .iter()
                .map(|p| 2 + usize::from(p.stitch_metrics.is_some()))
                .sum::<usize>()
        );
    }
}

#[test]
fn multipass_output_is_byte_identical_across_parallelism() {
    let input = corpus(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let mut reference: Option<Vec<(MatchPair, u64)>> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = runtime(parallelism);
            let outcome = Resolver::new(&runtime)
                .with_window(4)
                .with_reduce_tasks(4)
                .resolve(&multipass(strategy), input.clone())
                .unwrap();
            let bits = result_bits(&outcome.result);
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(
                    r, &bits,
                    "{strategy} multi-pass output changed at parallelism {parallelism}"
                ),
            }
        }
    }
}

#[test]
fn multipass_pair_set_is_invariant_under_the_partition_count() {
    let input = corpus(3);
    let runtime = runtime(1);
    let base = Resolver::new(&runtime).with_window(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let oracle = multipass_sn_oracle(
            &input,
            &base.clone().with_reduce_tasks(1).sn_config(strategy),
            &passes(),
        );
        for partitions in [1usize, 2, 4, 8] {
            let resolver = base.clone().with_reduce_tasks(partitions);
            let config = resolver.sn_config(strategy);
            let outcome = resolver
                .resolve(&multipass(strategy), input.clone())
                .unwrap();
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{strategy} with {partitions} partitions"
            );
            assert_eq!(
                outcome.total_comparisons(),
                multipass_oracle_comparisons(&input, &config, &passes()),
                "{strategy}: comparison count must not depend on partitioning"
            );
        }
    }
}

// ---- two-source SN -----------------------------------------------------

/// Two catalogs over one title space: near-duplicates cross sources,
/// plus same-source near-duplicates that MUST NOT appear in linkage
/// output (they sit adjacently in the interleaved order, so they probe
/// the cross-source gate, not just the window).
fn two_source_corpus(partitions_per_source: usize) -> (Partitions<(), Ent>, Vec<SourceId>) {
    let ds = generate_products(&ds1_spec(7).scaled(0.002));
    let n = ds.entities.len();
    let mut r: Vec<Ent> = Vec::new();
    let mut s: Vec<Ent> = Vec::new();
    for (i, e) in ds.entities.into_iter().enumerate() {
        if i % 2 == 0 {
            r.push(Arc::new(e));
        } else {
            s.push(Arc::new(Entity::with_source(
                SourceId::S,
                e.id().0,
                e.attributes(),
            )));
        }
    }
    assert!(r.len() + s.len() == n);
    two_source_input(r, s, partitions_per_source)
}

#[test]
fn two_source_sn_equals_the_cross_source_oracle() {
    let (input, sources) = two_source_corpus(2);
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(5).with_reduce_tasks(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let config = resolver.sn_config(strategy);
        let outcome = resolver
            .resolve(&two_source(strategy, &sources), input.clone())
            .unwrap();
        let oracle = two_source_sn_oracle(&input, &config);
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "{strategy} diverged from the cross-source oracle"
        );
        assert_eq!(
            outcome.total_comparisons(),
            two_source_oracle_comparisons(&input, &config),
            "{strategy}: each cross-source window pair exactly once"
        );
        assert!(
            outcome
                .result
                .iter()
                .all(|(pair, _)| pair.lo().source == SourceId::R
                    && pair.hi().source == SourceId::S),
            "{strategy}: linkage output must contain only R × S pairs"
        );
        assert!(
            !outcome.result.is_empty(),
            "{strategy}: split duplicates must link across sources"
        );
        // Same-source neighbours exist in the interleaved order and
        // must be skipped (counted), never evaluated.
        assert!(
            outcome
                .workflow
                .counters
                .get(er_loadbalance::compare::SAME_SOURCE_SKIPPED)
                > 0,
            "{strategy}: the cross-source gate must have engaged"
        );
    }
}

#[test]
fn two_source_output_is_byte_identical_across_parallelism() {
    let (input, sources) = two_source_corpus(2);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let mut reference: Option<Vec<(MatchPair, u64)>> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = runtime(parallelism);
            let outcome = Resolver::new(&runtime)
                .with_window(4)
                .with_reduce_tasks(4)
                .resolve(&two_source(strategy, &sources), input.clone())
                .unwrap();
            let bits = result_bits(&outcome.result);
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(
                    r, &bits,
                    "{strategy} two-source output changed at parallelism {parallelism}"
                ),
            }
        }
    }
}

#[test]
fn two_source_pair_set_is_invariant_under_the_partition_count() {
    let (input, sources) = two_source_corpus(1);
    let runtime = runtime(1);
    let base = Resolver::new(&runtime).with_window(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let oracle = two_source_sn_oracle(
            &input,
            &base.clone().with_reduce_tasks(1).sn_config(strategy),
        );
        for partitions in [1usize, 2, 4, 8] {
            let outcome = base
                .clone()
                .with_reduce_tasks(partitions)
                .resolve(&two_source(strategy, &sources), input.clone())
                .unwrap();
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{strategy} with {partitions} partitions"
            );
        }
    }
}
