//! End-to-end determinism: the full two-job ER pipeline must produce
//! byte-identical outputs regardless of worker parallelism, and the
//! side-output plumbing must preserve partition shape between jobs.
#![allow(clippy::type_complexity)]

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};

/// One default-session dedup with `r` reduce tasks on a pool of
/// `parallelism` workers.
fn dedup(
    strategy: StrategyKind,
    r: usize,
    parallelism: usize,
    input: Partitions<(), Ent>,
) -> Outcome {
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(parallelism)
            .with_reduce_tasks(r),
    );
    Resolver::new(&runtime)
        .resolve(&Scenario::Dedup { strategy }, input)
        .unwrap()
}

fn input(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(55).scaled(0.005));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

#[test]
fn results_are_identical_across_parallelism_levels() {
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let mut reference: Option<(Vec<(MatchPair, String)>, Vec<u64>)> = None;
        for parallelism in [1usize, 2, 8] {
            let outcome = dedup(strategy, 12, parallelism, input(5));
            let fingerprint: Vec<(MatchPair, String)> = outcome
                .result
                .iter()
                .map(|(p, s)| (p, format!("{s:.12}")))
                .collect();
            let loads = outcome.reduce_loads().expect("one matching job");
            match &reference {
                None => reference = Some((fingerprint, loads)),
                Some((fp, ld)) => {
                    assert_eq!(fp, &fingerprint, "{strategy} at parallelism {parallelism}");
                    assert_eq!(
                        ld, &loads,
                        "{strategy}: even per-task loads must be identical"
                    );
                }
            }
        }
    }
}

#[test]
fn sort_merge_shuffle_reproduces_byte_identical_reduce_outputs() {
    // The shuffle rework (map-side sorted runs + in-reduce k-way
    // merge) must keep the engine's strongest guarantee: the *exact*
    // per-reduce-task output structure — scores compared by bit
    // pattern, not epsilon — is independent of worker parallelism.
    use er_core::Matcher;
    use er_loadbalance::basic::basic_job;
    use er_loadbalance::compare::PairComparer;

    let mut reference: Option<Vec<Vec<(MatchPair, u64)>>> = None;
    for parallelism in [1usize, 2, 4, 8] {
        let job = basic_job(
            Arc::new(PrefixBlocking::title3()),
            None,
            PairComparer::new(Arc::new(Matcher::paper_default())),
            6,
        );
        let out = job.run_on(&WorkerPool::new(parallelism), input(4)).unwrap();
        let fingerprint: Vec<Vec<(MatchPair, u64)>> = out
            .reduce_outputs
            .into_iter()
            .map(|task| {
                task.into_iter()
                    .map(|(pair, score)| (pair, score.to_bits()))
                    .collect()
            })
            .collect();
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => assert_eq!(
                r, &fingerprint,
                "parallelism {parallelism} changed reduce_outputs"
            ),
        }
    }
}

#[test]
fn bdm_is_independent_of_reduce_task_count() {
    // The BDM describes the data, not the job configuration.
    let mut reference: Option<String> = None;
    for r in [2usize, 7, 31] {
        let outcome = dedup(StrategyKind::BlockSplit, r, 2, input(4));
        let tsv = outcome.details.bdm().unwrap().to_tsv();
        match &reference {
            None => reference = Some(tsv),
            Some(t) => assert_eq!(t, &tsv, "BDM changed with r={r}"),
        }
    }
}

#[test]
fn more_map_tasks_do_not_change_results() {
    let mut reference: Option<std::collections::BTreeSet<MatchPair>> = None;
    for m in [1usize, 3, 9] {
        let outcome = dedup(StrategyKind::PairRange, 8, 2, input(m));
        let pairs = outcome.result.pair_set();
        match &reference {
            None => reference = Some(pairs),
            Some(p) => assert_eq!(p, &pairs, "m={m} changed the result"),
        }
    }
}

#[test]
fn multipass_pipeline_is_deterministic_and_duplicate_free() {
    use er_core::blocking::{AttributeBlocking, MultiPassBlocking};
    let blocking: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
        Arc::new(PrefixBlocking::title3()),
        Arc::new(AttributeBlocking::new("sku")),
    ]));
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(9),
    );
    let resolver = Resolver::new(&runtime).with_blocking(blocking);
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    let a = resolver.resolve(&scenario, input(4)).unwrap();
    let b = resolver.resolve(&scenario, input(4)).unwrap();
    assert_eq!(a.result.pair_set(), b.result.pair_set());
    // Multi-pass may skip but never double-count: comparisons +
    // skipped == BDM pair total.
    let skipped = a
        .details
        .match_metrics()
        .expect("one matching job")
        .counters
        .get(er_loadbalance::compare::MULTIPASS_SKIPPED);
    assert_eq!(
        a.total_comparisons() + skipped,
        a.details.bdm().unwrap().total_pairs()
    );
}
