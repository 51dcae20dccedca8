//! The paper's running example, end to end — every number from
//! Figures 3–7 and the Appendix's Figures 15–17, reproduced by the
//! real pipeline.
//!
//! ```sh
//! cargo run --example paper_example
//! ```

use dedupe_mr::prelude::*;
use er_loadbalance::appendix_example;
use er_loadbalance::bdm::running_example_bdm;
use er_loadbalance::block_split::{create_match_tasks, TaskAssignment};
use er_loadbalance::pair_range::ranges::RangeIndexer;
use er_loadbalance::running_example;

fn figure_3_and_4() {
    println!("== Figures 3 & 4: example data and its BDM ==\n");
    for (p, partition) in running_example::entity_partitions().iter().enumerate() {
        let names: Vec<String> = partition
            .iter()
            .map(|(_, e)| {
                format!(
                    "{}:{}",
                    e.get("name").unwrap(),
                    &e.get("title").unwrap()[..1]
                )
            })
            .collect();
        println!("  Π{p}: {}", names.join("  "));
    }
    let bdm = running_example_bdm();
    println!("\n  BDM (block × partition):");
    for k in 0..bdm.num_blocks() {
        println!(
            "    Φ{k} (key {}): Π0={} Π1={}  -> {} entities, {} pairs",
            bdm.key(k),
            bdm.size_in(k, 0),
            bdm.size_in(k, 1),
            bdm.size(k),
            bdm.pairs_in_block(k)
        );
    }
    println!(
        "\n  total P = {} pairs; largest block z holds {} = 50% of all comparisons\n",
        bdm.total_pairs(),
        bdm.pairs_in_block(3)
    );
}

fn figure_5_block_split(resolver: &Resolver<'_>) {
    println!("== Figure 5: BlockSplit match tasks and assignment (r = 3) ==\n");
    let bdm = running_example_bdm();
    let tasks = create_match_tasks(&bdm, 3);
    let assignment = TaskAssignment::greedy(tasks.clone(), 3);
    for t in &tasks {
        let rt = assignment.reduce_task_for(t.block, t.i, t.j).unwrap();
        // A block is split iff it owns more than one match task; the
        // (k,0,0) encoding is shared between "whole block" and
        // "sub-block 0", exactly as in the paper's pseudo-code.
        let block_is_split = tasks.iter().filter(|o| o.block == t.block).count() > 1;
        let label = if !block_is_split {
            format!("{}.*", t.block)
        } else if t.i == t.j {
            format!("{}.{}", t.block, t.i)
        } else {
            format!("{}.{}x{}", t.block, t.i, t.j)
        };
        println!(
            "  match task {label:<6} {} comparisons -> reduce task {rt}",
            t.comparisons
        );
    }
    println!(
        "  reduce loads: {:?} (paper: between six and seven)\n",
        assignment.loads()
    );

    let outcome = resolver
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            running_example::entity_partitions(),
        )
        .unwrap();
    println!(
        "  executed: map emitted {} KV pairs (paper: 19), loads {:?}\n",
        outcome
            .details
            .match_metrics()
            .expect("one matching job")
            .map_output_records(),
        outcome.reduce_loads().expect("one matching job")
    );
}

fn figures_6_and_7_pair_range(resolver: &Resolver<'_>) {
    println!("== Figures 6 & 7: PairRange enumeration and dataflow (r = 3) ==\n");
    let bdm = running_example_bdm();
    let ranges = RangeIndexer::new(
        bdm.total_pairs(),
        3,
        dedupe_mr::prelude::RangePolicy::CeilDiv,
    );
    println!(
        "  pair index blocks: o = [0, 6, 7, 10], P = {}",
        bdm.total_pairs()
    );
    for (k, (lo, hi)) in [
        (0usize, (0u64, 5u64)),
        (1, (6, 6)),
        (2, (7, 9)),
        (3, (10, 19)),
    ] {
        println!("    Φ{k} (key {}): pairs {lo}..={hi}", bdm.key(k));
    }
    println!(
        "\n  ranges: R0=[0,6] R1=[7,13] R2=[14,19] (sizes {}, {}, {})",
        ranges.range_size(0),
        ranges.range_size(1),
        ranges.range_size(2)
    );
    let m_pairs: Vec<u64> = [(0u64, 2u64), (1, 2), (2, 3), (2, 4)]
        .iter()
        .map(|&(x, y)| bdm.pair_index(3, x, y))
        .collect();
    println!(
        "  entity M (index 2 of Φ3): pairs {m_pairs:?} -> ranges {:?} (paper: 11,14,17,18 -> R1,R2)",
        m_pairs.iter().map(|&p| ranges.range_of(p)).collect::<std::collections::BTreeSet<_>>()
    );

    let outcome = resolver
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::PairRange,
            },
            running_example::entity_partitions(),
        )
        .unwrap();
    println!(
        "  executed: map emitted {} KV pairs, loads {:?} (paper: 7/7/6)\n",
        outcome
            .details
            .match_metrics()
            .expect("one matching job")
            .map_output_records(),
        outcome.reduce_loads().expect("one matching job")
    );
}

fn appendix_two_sources(resolver: &Resolver<'_>) {
    println!("== Appendix I (Figures 15-17): matching two sources ==\n");
    // Block y of the paper's figure is F alone (1 x 0): it has no
    // pair, so the matrix leaves it out and z is block 2.
    let bdm = appendix_example::bdm();
    println!("  blocks with pairs (R-count x S-count -> pairs):");
    for k in 0..bdm.num_blocks() {
        let (nr, ns) = bdm
            .side_sizes(k)
            .expect("the example's BDM is source-tagged");
        println!(
            "    Φ{k} (key {}): {nr} x {ns} -> {} pairs",
            bdm.key(k),
            bdm.pairs_in_block(k)
        );
    }
    println!("  total: {} pairs (paper: 12)\n", bdm.total_pairs());
    for strategy in [StrategyKind::BlockSplit, StrategyKind::PairRange] {
        let outcome = resolver
            .resolve(
                &Scenario::Linkage {
                    strategy,
                    sources: appendix_example::partition_sources(),
                },
                appendix_example::entity_partitions(),
            )
            .unwrap();
        println!(
            "  {strategy}: {} comparisons, loads {:?} (paper: three tasks of 4)",
            outcome.total_comparisons(),
            outcome.reduce_loads().expect("one matching job")
        );
    }
}

fn main() {
    // One session reproduces every executed figure: the paper's
    // blocking, r = 3, sequential execution for readability.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(3),
    );
    let resolver = Resolver::new(&runtime).with_blocking(running_example::blocking());
    figure_3_and_4();
    figure_5_block_split(&resolver);
    figures_6_and_7_pair_range(&resolver);
    appendix_two_sources(&resolver);
}
