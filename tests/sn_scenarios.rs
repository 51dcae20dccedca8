//! Acceptance suite for the workflow-composed SN scenario, multi-pass
//! SN: the union of window pair sets over several sort keys, each
//! unioned pair compared exactly once globally (the first-pass-wins
//! dedup gate), equal to the union-of-oracles ground truth,
//! byte-identical across parallelism and invariant across partition
//! counts.

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

fn multipass() -> Scenario {
    Scenario::multipass_sn(passes())
}

#[test]
fn multipass_equals_the_union_of_oracles_and_compares_each_pair_once() {
    let input = corpus(3);
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(5).with_reduce_tasks(4);
    let config = resolver.sn_config(SnStrategy::RepSn);
    let outcome = resolver.resolve(&multipass(), input.clone()).unwrap();
    let pass_reports = outcome.details.passes().expect("multi-pass reports");
    let oracle = multipass_sn_oracle(&input, &config, &passes());
    assert_eq!(
        outcome.result.pair_set(),
        oracle.pair_set(),
        "diverged from the union of per-pass oracles"
    );
    assert_eq!(
        outcome.total_comparisons(),
        multipass_oracle_comparisons(&input, &config, &passes()),
        "every unioned window pair exactly once"
    );
    assert!(
        pass_reports.iter().map(|p| p.skipped).sum::<u64>() > 0,
        "overlapping passes must engage the dedup gate"
    );
    // The reversed pass must contribute matches the forward pass
    // misses (the whole point of multi-pass SN).
    let forward = resolver
        .resolve(
            &Scenario::sorted_neighborhood(SnStrategy::RepSn),
            input.clone(),
        )
        .unwrap();
    assert!(
        outcome.result.len() > forward.result.len(),
        "the reversed-title pass must add recall (multi {} vs single {})",
        outcome.result.len(),
        forward.result.len()
    );
    // Both passes' stages ran under one workflow, one stage each.
    assert_eq!(outcome.workflow.num_stages(), pass_reports.len());
}

#[test]
fn multipass_output_is_byte_identical_across_parallelism() {
    let input = corpus(4);
    let mut reference: Option<Vec<(MatchPair, u64)>> = None;
    for parallelism in PARALLELISM_LEVELS {
        let runtime = runtime(parallelism);
        let outcome = Resolver::new(&runtime)
            .with_window(4)
            .with_reduce_tasks(4)
            .resolve(&multipass(), input.clone())
            .unwrap();
        let bits = result_bits(&outcome.result);
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(
                r, &bits,
                "multi-pass output changed at parallelism {parallelism}"
            ),
        }
    }
}

#[test]
fn multipass_pair_set_is_invariant_under_the_partition_count() {
    let input = corpus(3);
    let runtime = runtime(1);
    let base = Resolver::new(&runtime).with_window(4);
    let oracle = multipass_sn_oracle(
        &input,
        &base
            .clone()
            .with_reduce_tasks(1)
            .sn_config(SnStrategy::RepSn),
        &passes(),
    );
    for partitions in [1usize, 2, 4, 8] {
        let resolver = base.clone().with_reduce_tasks(partitions);
        let config = resolver.sn_config(SnStrategy::RepSn);
        let outcome = resolver.resolve(&multipass(), input.clone()).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "{partitions} partitions"
        );
        assert_eq!(
            outcome.total_comparisons(),
            multipass_oracle_comparisons(&input, &config, &passes()),
            "comparison count must not depend on partitioning"
        );
    }
}
