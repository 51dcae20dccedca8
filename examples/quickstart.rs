//! Quickstart: one `Runtime`, one `Resolver`, two scenarios — dedupe
//! a small product catalog with BlockSplit, then re-check it with
//! Sorted Neighborhood on the same worker pool.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_loadbalance::bdm_job::{PRUNED_BLOCKS, PRUNED_ENTITIES};

fn main() {
    // A toy catalog. Titles blocked on their first three letters;
    // matching is normalized edit distance with threshold 0.8 — the
    // paper's configuration.
    let catalog = [
        "canon eos 5d mark iii body",
        "canon eos 5d mark iri body", // typo'd duplicate
        "canon powershot g7x",
        "nikon d800 body only",
        "nikon d800 body onli", // typo'd duplicate
        "nikon coolpix p900",
        "sony alpha 7r iv kit",
        "dell ultrasharp 27 monitor",
    ];
    let entities: Vec<Ent> = catalog
        .iter()
        .enumerate()
        .map(|(id, title)| Arc::new(Entity::new(id as u64, [("title", *title)])))
        .collect();

    // Two input partitions == two map tasks, exactly like splitting an
    // input file on a distributed file system.
    let input = partition_evenly(entities.iter().map(|e| ((), Arc::clone(e))).collect(), 2);

    // The runtime is created once: its worker pool serves every run.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime);

    // Scenario 1: blocking-based dedup with skew-resistant balancing.
    let outcome = resolver
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            input.clone(),
        )
        .expect("pipeline runs");

    println!("matches found:");
    for (pair, score) in outcome.result.iter() {
        let title = |r: EntityRef| entities[r.id.0 as usize].get("title").unwrap().to_string();
        println!(
            "  {:.3}  {:?} == {:?}",
            score,
            title(pair.lo()),
            title(pair.hi())
        );
    }

    // The matrix plans pairs, so it holds the blocks that have one;
    // the BDM job counts the rest (here `del` and `son`, one offer
    // each) instead of handing them over.
    let bdm = outcome.details.bdm().expect("BlockSplit computes a BDM");
    let counters = &outcome.workflow.counters;
    println!(
        "\nblock distribution matrix ({} blocks with pairs; {} pair-less blocks of {} entities pruned):",
        bdm.num_blocks(),
        counters.get(PRUNED_BLOCKS),
        counters.get(PRUNED_ENTITIES)
    );
    for k in 0..bdm.num_blocks() {
        println!(
            "  block {:>2} key={:<4} entities={} pairs={}",
            k,
            bdm.key(k).to_string(),
            bdm.size(k),
            bdm.pairs_in_block(k)
        );
    }
    println!(
        "\nreduce-task comparison loads: {:?} (total {})",
        outcome.reduce_loads().expect("one matching job"),
        outcome.total_comparisons()
    );

    // Scenario 2: Sorted Neighborhood over the same input — same
    // resolver, same pool, no new threads.
    let sn = resolver
        .resolve(&Scenario::sorted_neighborhood(SnStrategy::RepSn), input)
        .expect("pipeline runs");
    println!(
        "\nsorted-neighborhood (window 4) agrees: {} matches, {} window comparisons",
        sn.result.len(),
        sn.total_comparisons()
    );
    assert_eq!(sn.result.pair_set(), outcome.result.pair_set());
    println!(
        "worker pool: {} threads spawned once, {} pooled tasks executed across both runs",
        runtime.pool().threads_spawned(),
        runtime.pool().tasks_executed()
    );
}
