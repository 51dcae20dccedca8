//! Ablation — the BDM job's combiner (paper footnote 2).
//!
//! Real execution of Algorithm 3 on a scaled DS1 with and without the
//! per-map-task combiner, reporting shuffled record counts and wall
//! time. Either way the mapper emits from `finish`, where a key's rank
//! is known: one `(count, rank)` record per (block, partition) with
//! the combiner, Algorithm 3's one `(1, rank)` record per entity
//! without it — the reducer folds those back into one cell. The
//! result is identical: the blocks that have a pair, the rest counted
//! as pruned.

use std::sync::Arc;
use std::time::Instant;

use er_bench::table::{fmt_count, fmt_ms, TextTable};
use er_bench::PAPER_SEED;
use er_core::blocking::PrefixBlocking;
use er_loadbalance::bdm_job::{compute_bdm_in, PRUNED_BLOCKS};
use mr_engine::input::partition_evenly;
use mr_engine::runtime::{Runtime, RuntimeConfig};

fn main() {
    println!("== Ablation: BDM-job combiner on/off (DS1-like @5%, m = 20, r = 20) ==\n");
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(0.05));
    let entities: Vec<((), er_loadbalance::Ent)> = ds
        .entities
        .iter()
        .map(|e| ((), Arc::new(e.clone())))
        .collect();
    let mut table = TextTable::new(&[
        "combiner",
        "shuffled records",
        "wall time",
        "bdm blocks",
        "pruned blocks",
    ]);
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(4));
    let mut shuffled = Vec::new();
    let mut bdms = Vec::new();
    for use_combiner in [false, true] {
        let input = partition_evenly(entities.clone(), 20);
        let start = Instant::now();
        let (bdm, _, metrics) = compute_bdm_in(
            &mut runtime.workflow("bdm"),
            input,
            Arc::new(PrefixBlocking::title3()),
            20,
            use_combiner,
            None,
        )
        .unwrap();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        shuffled.push(metrics.map_output_records());
        table.row(vec![
            if use_combiner { "on" } else { "off" }.into(),
            fmt_count(metrics.map_output_records()),
            fmt_ms(wall),
            bdm.num_blocks().to_string(),
            metrics.counters.get(PRUNED_BLOCKS).to_string(),
        ]);
        bdms.push(bdm);
    }
    table.print();
    println!(
        "\n[{}] combiner shrinks the shuffle {:.2}x without changing the BDM (equal: {})",
        if shuffled[1] < shuffled[0] && bdms[0] == bdms[1] {
            "PASS"
        } else {
            "WARN"
        },
        shuffled[0] as f64 / shuffled[1] as f64,
        bdms[0] == bdms[1]
    );
}
