//! Figure 13 — execution times and speedup vs cluster size (DS1).
//!
//! n from 1 to 100 nodes with m = 2n, r = 10n (paper §VI-C).
//! Expected shapes: Basic barely scales past 2 nodes (largest block ==
//! lower bound); BlockSplit and PairRange scale near-linearly to ~10
//! nodes, then flatten as per-task work shrinks toward task startup;
//! at n = 100 BlockSplit noses ahead of PairRange, whose extra map
//! output stops paying off on the small dataset.

use std::sync::Arc;

use dedupe_mr::{Resolver, Runtime, RuntimeConfig, Scenario};
use er_bench::table::{fmt_ms, TextTable};
use er_bench::{
    bdm_from_keys, simulate_strategy, write_bench_json, ExperimentCost, Json, Series, PAPER_SEED,
};
use er_datagen::dataset::key_sequence;
use er_datagen::ds1_spec;
use er_loadbalance::StrategyKind;
use mr_engine::trace::{TraceRecorder, TraceReport, TraceSink};

const NODE_STEPS: [usize; 7] = [1, 2, 5, 10, 20, 40, 100];

/// Laptop-scale engine sweep over worker parallelism (the local
/// analogue of the figure's cluster-size axis): wall time must fall
/// while the streaming reduce gauges — a function of (input, job),
/// not of scheduling — stay *identical*, the memory-side determinism
/// companion to the byte-identical `reduce_outputs` guarantee. Each
/// run carries a trace recorder, so the per-slot utilization series —
/// how evenly the scheduler kept the workers busy — lands in the
/// record next to the wall it explains.
/// Returns one JSON record per parallelism level.
fn engine_parallelism_sweep() -> Vec<Json> {
    let ds = er_datagen::generate_products(&ds1_spec(PAPER_SEED).scaled(0.01));
    let input: Vec<Vec<((), er_loadbalance::Ent)>> = mr_engine::input::partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        8,
    );
    let mut records = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    let mut table = TextTable::new(&[
        "parallelism",
        "wall",
        "peak group",
        "peak resident",
        "slot utilization",
    ]);
    for parallelism in [1usize, 2, 4] {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(parallelism)
                .with_reduce_tasks(40)
                .with_count_only(true),
        );
        let recorder = Arc::new(TraceRecorder::new());
        let concrete: Arc<TraceRecorder> = Arc::clone(&recorder);
        let sink: Arc<dyn TraceSink> = concrete;
        let outcome = Resolver::new(&runtime)
            .with_trace_sink(sink)
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                input.clone(),
            )
            .unwrap();
        let m = outcome.details.match_metrics().expect("one matching job");
        let gauges = (m.peak_group_len(), m.peak_resident_records());
        match &reference {
            None => reference = Some(gauges),
            Some(r) => assert_eq!(
                *r, gauges,
                "streaming memory gauges must not depend on parallelism"
            ),
        }
        let report = TraceReport::from_events(&recorder.events());
        let utilization: Vec<(usize, f64)> = report.utilization().into_iter().collect();
        let util_cells: Vec<String> = utilization
            .iter()
            .map(|(slot, frac)| format!("{slot}:{:.0}%", frac * 100.0))
            .collect();
        let wall_ms = m.wall.as_secs_f64() * 1e3;
        table.row(vec![
            parallelism.to_string(),
            fmt_ms(wall_ms),
            gauges.0.to_string(),
            gauges.1.to_string(),
            util_cells.join(" "),
        ]);
        records.push(Json::obj([
            ("parallelism", Json::Num(parallelism as f64)),
            ("wall_ms", Json::Num(wall_ms)),
            ("peak_group_len", Json::Num(gauges.0 as f64)),
            ("peak_resident_records", Json::Num(gauges.1 as f64)),
            (
                "peak_resident_fraction",
                Json::Num(m.peak_resident_fraction()),
            ),
            (
                "slot_utilization",
                Json::Arr(
                    utilization
                        .iter()
                        .map(|&(slot, frac)| {
                            Json::obj([
                                ("slot", Json::Num(slot as f64)),
                                ("busy_fraction", Json::Num(frac)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    table.print();
    records
}

fn main() {
    println!("== Figure 13: execution times and speedup for DS1 (n = 1..100) ==");
    println!("   (m = 2n, r = 10n)\n");
    let cost = ExperimentCost::calibrated();
    let keys = key_sequence(&ds1_spec(PAPER_SEED));

    let strategies = [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ];
    let mut series: Vec<Series> = strategies
        .iter()
        .map(|s| Series::new(s.to_string()))
        .collect();
    let mut table = TextTable::new(&["n", "m", "r", "Basic", "BlockSplit", "PairRange"]);
    for &n in &NODE_STEPS {
        let m = 2 * n;
        let r = 10 * n;
        let bdm = bdm_from_keys(&keys, m);
        let mut cells = vec![n.to_string(), m.to_string(), r.to_string()];
        for (i, &strategy) in strategies.iter().enumerate() {
            let outcome = simulate_strategy(&bdm, strategy, n, r, &cost);
            series[i].push(n as f64, outcome.total_ms);
            cells.push(fmt_ms(outcome.total_ms));
        }
        table.row(cells);
    }
    table.print();

    println!("\n-- speedup (relative to n = 1) --\n");
    let mut table = TextTable::new(&["n", "Basic", "BlockSplit", "PairRange"]);
    for (idx, &n) in NODE_STEPS.iter().enumerate() {
        table.row(vec![
            n.to_string(),
            format!("{:.1}", series[0].speedup().points[idx].1),
            format!("{:.1}", series[1].speedup().points[idx].1),
            format!("{:.1}", series[2].speedup().points[idx].1),
        ]);
    }
    table.print();

    let basic_speedup_100 = series[0].speedup().last_y();
    let bs_speedup_10 = series[1].speedup().points[3].1;
    let pr_speedup_10 = series[2].speedup().points[3].1;
    println!(
        "\n[{}] Basic does not scale: speedup at n=100 is only {:.1} (paper: ~flat beyond 2 nodes)",
        if basic_speedup_100 < 4.0 {
            "PASS"
        } else {
            "WARN"
        },
        basic_speedup_100
    );
    println!(
        "[{}] BlockSplit speedup at n=10 is {:.1} (near-linear regime, paper: ~linear to 10 nodes)",
        if bs_speedup_10 > 5.0 { "PASS" } else { "WARN" },
        bs_speedup_10
    );
    println!(
        "[{}] PairRange speedup at n=10 is {:.1}",
        if pr_speedup_10 > 5.0 { "PASS" } else { "WARN" },
        pr_speedup_10
    );
    let bs_100 = series[1].last_y();
    let pr_100 = series[2].last_y();
    println!(
        "[{}] BlockSplit ≤ PairRange at n=100 on the small dataset ({} vs {}; paper: BlockSplit wins)",
        if bs_100 <= pr_100 * 1.05 { "PASS" } else { "WARN" },
        fmt_ms(bs_100),
        fmt_ms(pr_100)
    );

    println!("\n-- engine check: wall vs parallelism, gauges invariant (DS1 1%, real run) --\n");
    let engine_scaling = engine_parallelism_sweep();

    let sim_series: Vec<Json> = series
        .iter()
        .map(|s| s.to_json("nodes", "total_ms"))
        .collect();
    let json = Json::obj([
        ("bench", Json::str("fig13_scalability_ds1")),
        ("max_nodes", Json::Num(*NODE_STEPS.last().unwrap() as f64)),
        ("simulated_ms", Json::Arr(sim_series)),
        ("engine_scaling", Json::Arr(engine_scaling)),
    ]);
    write_bench_json("fig13_scalability_ds1", &json).expect("bench json export");
}
