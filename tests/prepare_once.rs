//! A match stage prepares each entity once, in the map task that
//! routes it: the prepare counter (`er.prepared_entities`) equals the
//! distinct entities routed into the stage — not the map-output
//! records every reduce task used to re-prepare — and no reduce task
//! prepares anything. Pinned on the ledger's corpora: DS1 at 1/8 under
//! BlockSplit and PairRange (14 250; 23 231 and 36 924 map-output
//! records), DS1 at 1/10 under RepSN `w = 20` (11 400; 32 trigger
//! records and 589 replicas read from the map tasks' tables) and the
//! `lsh_8x4` corpus's candidate stage.

use std::collections::HashMap;
use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::duplicates::{perturb_title, rs_code, EditOps};
use er_datagen::rng::stream_rng;
use er_datagen::vocab::{block_prefix, PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use er_datagen::{ds1_spec, exponential_block_sizes, generate_products};
use er_loadbalance::compare::PREPARED_ENTITIES;
use mr_engine::metrics::JobMetrics;

/// The ledger's map-task count.
const MAP_TASKS: usize = 8;

fn partitioned(entities: Vec<Ent>) -> Partitions<(), Ent> {
    partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), MAP_TASKS)
}

/// The DS1-shaped product corpus at `scale`, as the ledger builds it.
fn products(seed: u64, scale: f64) -> Partitions<(), Ent> {
    let dataset = generate_products(&ds1_spec(seed).scaled(scale));
    partitioned(dataset.entities.into_iter().map(Arc::new).collect())
}

/// The `lsh_8x4` corpus: 5 700 originals over 100 equal title-prefix
/// blocks, each title with a unique code, every 6th followed by a copy
/// with at most 2 substitutions past its 4-character prefix.
fn lsh_corpus(seed: u64) -> Partitions<(), Ent> {
    let originals = 5_700;
    let mut entities: Vec<Ent> = Vec::new();
    let mut index = 0usize;
    for (k, &size) in exponential_block_sizes(originals, 100, 0.0)
        .iter()
        .enumerate()
    {
        let prefix = block_prefix(k);
        for j in 0..size {
            let qualifier = PRODUCT_QUALIFIERS[(index * 7 + j) % PRODUCT_QUALIFIERS.len()];
            let noun = PRODUCT_NOUNS[(index * 3 + k) % PRODUCT_NOUNS.len()];
            let title = format!("{prefix} {qualifier} {noun} {}", rs_code(index));
            let original = Entity::new(entities.len() as u64, [("title", title.as_str())]);
            if index.is_multiple_of(6) {
                let mut rng = stream_rng(seed, index as u64);
                let (copy, _) = perturb_title(&mut rng, &title, 2, 4, EditOps::SubstituteOnly);
                let copy = Entity::new(entities.len() as u64 + 1, [("title", copy.as_str())]);
                entities.push(Arc::new(copy));
            }
            entities.push(Arc::new(original));
            index += 1;
        }
    }
    partitioned(entities)
}

/// The stage's prepare count, after checking that only its map tasks
/// prepare.
fn prepared_by_map_tasks(stage: &JobMetrics) -> u64 {
    for task in &stage.reduce_tasks {
        assert_eq!(
            task.counter(PREPARED_ENTITIES),
            0,
            "reduce task {} of {} prepared entities",
            task.index,
            stage.job_name
        );
    }
    stage
        .map_tasks
        .iter()
        .map(|task| task.counter(PREPARED_ENTITIES))
        .sum()
}

/// `(prepared entities, map-output records, replicas)` of the
/// scenario's match stage, on the ledger's runtime shape (32 reduce
/// tasks) with the session `configure`d.
fn match_stage(
    configure: fn(Resolver<'_>) -> Resolver<'_>,
    scenario: &Scenario,
    input: Partitions<(), Ent>,
) -> (u64, u64, u64) {
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(32),
    );
    let outcome = configure(Resolver::new(&runtime))
        .resolve(scenario, input)
        .unwrap();
    let stage = outcome.details.match_metrics().expect("one match stage");
    let prepared = prepared_by_map_tasks(stage);
    assert_eq!(
        outcome.workflow.counters.get(PREPARED_ENTITIES),
        prepared,
        "only the match stage prepares"
    );
    let replicas = stage.counters.get(er_sn::REPLICAS);
    (prepared, stage.map_output_records(), replicas)
}

#[test]
fn block_split_and_pair_range_prepare_each_routed_entity_once() {
    for (strategy, records) in [
        (StrategyKind::BlockSplit, 23_231),
        (StrategyKind::PairRange, 36_924),
    ] {
        let scenario = Scenario::Dedup { strategy };
        let (prepared, routed, _) =
            match_stage(|session| session, &scenario, products(2012, 0.125));
        assert_eq!(routed, records, "{strategy} map-output records");
        assert_eq!(prepared, 14_250, "{strategy} prepares");
    }
}

#[test]
fn repsn_prepares_each_entity_once_and_its_replicas_never() {
    let scenario = Scenario::sorted_neighborhood(SnStrategy::RepSn);
    let (prepared, routed, replicas) = match_stage(
        |session| session.with_window(20),
        &scenario,
        products(2012, 0.1),
    );
    // The map tasks shuffle no entity: one trigger record per key
    // range. The range tasks read the (r − 1)(w − 1) replicas out of
    // the map tasks' tables.
    assert_eq!(routed, 32, "one trigger per key range");
    assert_eq!(replicas, 31 * 19);
    assert_eq!(prepared, 11_400);
}

#[test]
fn lsh_candidate_stage_prepares_each_routed_entity_once() {
    let params = LshParams::new(8, 4);
    let input = lsh_corpus(2012);
    // The entities that share a band bucket with another: the ones the
    // candidate stage routes, once per shared bucket (BlockSplit sends
    // a split bucket's entities to several match tasks on top).
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
    let blocking = Resolver::new(&runtime)
        .lsh_config(Some(params))
        .blocking_for(params);
    let keys: Vec<Vec<BlockKey>> = input
        .iter()
        .flatten()
        .map(|(_, entity)| blocking.keys(entity))
        .collect();
    let mut bucket_sizes: HashMap<&BlockKey, u64> = HashMap::new();
    for key in keys.iter().flatten() {
        *bucket_sizes.entry(key).or_default() += 1;
    }
    let shared = |key: &BlockKey| bucket_sizes[key] >= 2;
    let routed_entities = keys.iter().filter(|k| k.iter().any(shared)).count() as u64;
    let replicas = keys.iter().flatten().filter(|&k| shared(k)).count() as u64;

    let scenario = Scenario::lsh(params);
    let (prepared, routed, _) = match_stage(|session| session, &scenario, input);
    assert!(routed >= replicas);
    assert_eq!(prepared, routed_entities);
    assert_eq!((prepared, replicas, routed), (3_108, 6_872, 7_705));
}
