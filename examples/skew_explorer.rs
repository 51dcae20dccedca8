//! Skew explorer: sweep the §VI-A skew factor on a real (small-scale)
//! execution and watch Basic's balance collapse while BlockSplit and
//! PairRange hold.
//!
//! ```sh
//! cargo run --release --example skew_explorer
//! ```

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::skew::exponential_dataset;

fn main() {
    const N: usize = 4_000;
    const BLOCKS: usize = 40;
    const M: usize = 8;
    const R: usize = 24;

    println!("n = {N} entities, b = {BLOCKS} blocks, m = {M}, r = {R}; real execution\n");
    println!(
        "{:>4} {:>10}  {:<28} {:<28} {:<28}",
        "s", "pairs", "Basic (imbal, max)", "BlockSplit (imbal, max)", "PairRange (imbal, max)"
    );
    // One session serves the whole sweep: 18 scenario runs (6 skews ×
    // 3 strategies) on one worker pool.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(R),
    );
    let resolver = Resolver::new(&runtime);
    for step in 0..=5 {
        let s = step as f64 * 0.4;
        let dataset = exponential_dataset(N, BLOCKS, s, 99);
        let input = partition_evenly(
            dataset
                .entities
                .iter()
                .map(|e| ((), Arc::new(e.clone())))
                .collect::<Vec<_>>(),
            M,
        );
        let mut row = format!("{s:>4.1}");
        let mut pairs_printed = false;
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let outcome = resolver
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            let match_metrics = outcome.details.match_metrics().expect("one matching job");
            let stats = WorkloadStats::from_metrics(strategy, match_metrics);
            if !pairs_printed {
                row.push_str(&format!(" {:>10}", stats.total_comparisons()));
                pairs_printed = true;
            }
            row.push_str(&format!(
                "  {:<28}",
                format!(
                    "imbal {:>5.2}  max {:>8}",
                    stats.imbalance(),
                    stats.max_comparisons()
                )
            ));
        }
        println!("{row}");
    }
    println!("\nreading: 'imbal' is max/mean comparisons per reduce task (1.00 = perfect);");
    println!("'max' bounds the reduce-phase makespan. Basic's max grows with the largest");
    println!("block; the balanced strategies keep it pinned near total/r at every skew.");
}
