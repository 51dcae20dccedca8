//! Figure 10 — execution times vs the number of reduce tasks (DS1).
//!
//! Fixed cluster of n = 10 nodes, m = 20 map tasks, r from 20 to 160
//! (paper §VI-B). Expected shape: Basic stays high (bounded below by
//! its largest block, ~70 % of all pairs) with collision peaks;
//! BlockSplit and PairRange improve by ~6× at r = 160; PairRange edges
//! ahead at large r (paper: 7 %).

use std::sync::Arc;

use dedupe_mr::{Resolver, Runtime, RuntimeConfig, Scenario};
use er_bench::table::{fmt_ms, TextTable};
use er_bench::{
    bdm_from_keys, simulate_strategy, write_bench_json, ExperimentCost, Json, Series, PAPER_SEED,
};
use er_datagen::dataset::key_sequence;
use er_datagen::ds1_spec;
use er_loadbalance::StrategyKind;

const NODES: usize = 10;
const M: usize = 20;

/// Laptop-scale engine sweep over `r`, reporting the streaming reduce
/// path's memory gauges for the same figure axis — the simulator
/// models time, these numbers show what the real engine buffers.
/// Returns one JSON record per (strategy, r).
fn engine_memory_sweep() -> Vec<Json> {
    let ds = er_datagen::generate_products(&ds1_spec(PAPER_SEED).scaled(0.005));
    let input: Vec<Vec<((), er_loadbalance::Ent)>> = mr_engine::input::partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        8,
    );
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_count_only(true),
    );
    let mut records = Vec::new();
    let mut table = TextTable::new(&[
        "strategy",
        "r",
        "input recs",
        "peak group",
        "peak resident",
        "resident/input",
    ]);
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        for r in [8usize, 16, 32] {
            let outcome = Resolver::new(&runtime)
                .with_reduce_tasks(r)
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            let m = outcome.details.match_metrics().expect("one matching job");
            let input_records: u64 = m.reduce_tasks.iter().map(|t| t.records_in).sum();
            let fraction = m.peak_resident_fraction();
            table.row(vec![
                strategy.to_string(),
                r.to_string(),
                input_records.to_string(),
                m.peak_group_len().to_string(),
                m.peak_resident_records().to_string(),
                format!("{fraction:.3}"),
            ]);
            records.push(Json::obj([
                ("strategy", Json::str(strategy.to_string())),
                ("reduce_tasks", Json::Num(r as f64)),
                ("reduce_input_records", Json::Num(input_records as f64)),
                ("peak_group_len", Json::Num(m.peak_group_len() as f64)),
                (
                    "peak_resident_records",
                    Json::Num(m.peak_resident_records() as f64),
                ),
                ("peak_resident_fraction", Json::Num(fraction)),
            ]));
        }
    }
    table.print();
    records
}

fn main() {
    println!("== Figure 10: execution times for DS1 vs number of reduce tasks ==");
    println!("   (n = {NODES}, m = {M}, r = 20..160)\n");
    let cost = ExperimentCost::calibrated();
    let keys = key_sequence(&ds1_spec(PAPER_SEED));
    let bdm_cache: Vec<_> = vec![bdm_from_keys(&keys, M)];
    let bdm = &bdm_cache[0];
    println!(
        "   DS1-like: {} entities, {} blocks with pairs, {} pairs\n",
        keys.len(),
        bdm.num_blocks(),
        bdm.total_pairs()
    );

    let strategies = [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ];
    let mut table = TextTable::new(&["r", "Basic", "BlockSplit", "PairRange"]);
    let mut series: Vec<Series> = strategies
        .iter()
        .map(|s| Series::new(s.to_string()))
        .collect();
    for r in (20..=160).step_by(20) {
        let mut cells = vec![r.to_string()];
        for (i, &strategy) in strategies.iter().enumerate() {
            let outcome = simulate_strategy(bdm, strategy, NODES, r, &cost);
            series[i].push(r as f64, outcome.total_ms);
            cells.push(fmt_ms(outcome.total_ms));
        }
        table.row(cells);
    }
    table.print();

    let basic = &series[0];
    let bs = &series[1];
    let pr = &series[2];
    let factor = basic.last_y() / bs.last_y().min(pr.last_y());
    println!(
        "\n[{}] At r=160 the balanced strategies are {:.1}x faster than Basic (paper: ~6x)",
        if factor > 3.0 { "PASS" } else { "WARN" },
        factor
    );
    println!(
        "[{}] Basic never leaves the largest-block lower bound (min {:.0}s vs balanced {:.0}s)",
        if basic.min_y() > 2.0 * bs.min_y() {
            "PASS"
        } else {
            "WARN"
        },
        basic.min_y() / 1e3,
        bs.min_y() / 1e3
    );
    println!(
        "[{}] BlockSplit is stable across r (max/min = {:.2})",
        if bs.max_y() / bs.min_y() < 2.0 {
            "PASS"
        } else {
            "WARN"
        },
        bs.max_y() / bs.min_y()
    );
    println!(
        "[{}] PairRange benefits from more reduce tasks (r=160 is {:.2}x faster than r=20)",
        if pr.first_y() / pr.last_y() > 1.0 {
            "PASS"
        } else {
            "WARN"
        },
        pr.first_y() / pr.last_y()
    );

    println!("\n-- engine check: streaming reduce memory vs r (DS1 0.5%, real run) --\n");
    let engine_memory = engine_memory_sweep();

    let sim_series: Vec<Json> = series.iter().map(|s| s.to_json("r", "total_ms")).collect();
    let json = Json::obj([
        ("bench", Json::str("fig10_reduce_tasks")),
        ("nodes", Json::Num(NODES as f64)),
        ("map_tasks", Json::Num(M as f64)),
        ("simulated_ms", Json::Arr(sim_series)),
        ("engine_memory", Json::Arr(engine_memory)),
    ]);
    write_bench_json("fig10_reduce_tasks", &json).expect("bench json export");
}
