//! Sorted Neighborhood window sweep — the er-sn companion figure.
//!
//! Three experiments, all real engine runs on a DS1-shaped corpus:
//!
//! 1. **Window sweep** (w ∈ {2, 4, 8, 16}, fixed r): JobSN vs RepSN
//!    wall time, comparisons and gold recall — the classic SN
//!    recall-vs-cost trade-off, plus the strategy trade-off (stitch
//!    job vs replication overhead) at every point. Both strategies
//!    must produce the identical pair set.
//! 2. **Partition sweep** (r ∈ {2, 4, 8}, fixed w): replication
//!    overhead (map output / input) for RepSN vs JobSN's extra-job
//!    overhead; the pair set must not depend on r.
//! 3. **Skew comparison** (cf. *Data Partitioning for Parallel Entity
//!    Matching*): on a heavily skewed block distribution, SN's
//!    comparison count stays ~n·(w−1) with a near-flat per-range load,
//!    while blocking-based BlockSplit must still evaluate every
//!    skew-inflated block pair — balanced, but orders of magnitude
//!    more work.
//! 4. **Multi-pass sweep** (1 vs 2 passes, second pass on the
//!    reversed-title key): single-pass recall plateaus because
//!    prefix-divergent duplicates never collate; the reversed pass
//!    recovers suffix-equal pairs while the pair-level dedup gate
//!    keeps every unioned window pair at exactly one comparison —
//!    measuring the recall-per-comparison price of the extra pass.
//!
//! Exports `BENCH_fig_sn_window.json` (validated in CI by
//! `validate_bench_json`).

use std::sync::Arc;
use std::time::Instant;

use dedupe_mr::{Outcome, Resolver, Runtime, RuntimeConfig, Scenario, ScenarioDetails};
use er_bench::table::{fmt_count, fmt_ms, TextTable};
use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_core::sortkey::{AttributeSortKey, ReversedSortKey, SortKeyFunction};
use er_core::QualityReport;
use er_datagen::{ds1_spec, exponential_dataset, generate_products};
use er_loadbalance::{Ent, StrategyKind, WorkloadStats};
use er_sn::{multipass_oracle_comparisons, SnStrategy, REPLICAS};
use mr_engine::input::{partition_evenly, Partitions};
use mr_engine::metrics::JobMetrics;

const MAP_TASKS: usize = 4;
const SAMPLES: usize = 3;

fn corpus() -> (Partitions<(), Ent>, er_core::GoldStandard, usize) {
    let ds = generate_products(&ds1_spec(PAPER_SEED).scaled(0.02));
    let n = ds.len();
    let gold = ds.gold.clone();
    let input = partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        MAP_TASKS,
    );
    (input, gold, n)
}

/// The bench's SN session: 10 % key sampling under `window` over
/// `partitions` key ranges.
fn sn_session(runtime: &Runtime, window: usize, partitions: usize) -> Resolver<'_> {
    Resolver::new(runtime)
        .with_window(window)
        .with_partitions(partitions)
        .with_sample_rate(0.1)
}

/// Resolves `scenario` `SAMPLES` times; the last outcome and the
/// median wall in ms.
fn run_once(
    resolver: &Resolver<'_>,
    scenario: &Scenario,
    input: &Partitions<(), Ent>,
) -> (Outcome, f64) {
    let mut walls = Vec::with_capacity(SAMPLES);
    let mut outcome = None;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let run = resolver.resolve(scenario, input.clone()).expect("SN run");
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        outcome = Some(run);
    }
    (outcome.expect("at least one sample"), median_ms(&walls))
}

/// The matching and (JobSN, when boundaries had candidates) stitch job
/// metrics of a single-pass SN outcome.
fn sn_jobs(outcome: &Outcome) -> (&JobMetrics, Option<&JobMetrics>) {
    match &outcome.details {
        ScenarioDetails::Sorted {
            match_metrics,
            stitch_metrics,
            ..
        } => (match_metrics, stitch_metrics.as_ref()),
        other => panic!("expected a single-pass SN outcome, got {other:?}"),
    }
}

fn main() {
    println!("== fig_sn_window: Sorted Neighborhood window/partition sweeps (real runs) ==");
    let (input, gold, n) = corpus();
    println!("   corpus: {n} DS1-shaped products, m = {MAP_TASKS} map tasks\n");
    let runtime = Runtime::new(RuntimeConfig::new());
    let jobsn_scenario = Scenario::sorted_neighborhood(SnStrategy::JobSn);
    let repsn_scenario = Scenario::sorted_neighborhood(SnStrategy::RepSn);

    // ---- 1. window sweep ------------------------------------------------
    const R: usize = 4;
    println!("-- window sweep (r = {R}) --\n");
    let mut table = TextTable::new(&[
        "w",
        "pairs",
        "JobSN ms",
        "RepSN ms",
        "RepSN replicas",
        "recall",
    ]);
    let mut window_records = Vec::new();
    for window in [2usize, 4, 8, 16] {
        let session = sn_session(&runtime, window, R);
        let (jobsn, jobsn_ms) = run_once(&session, &jobsn_scenario, &input);
        let (repsn, repsn_ms) = run_once(&session, &repsn_scenario, &input);
        let replicas = sn_jobs(&repsn).0.counters.get(REPLICAS);
        assert_eq!(
            jobsn.result.pair_set(),
            repsn.result.pair_set(),
            "strategies diverged at w = {window}"
        );
        assert_eq!(jobsn.total_comparisons(), repsn.total_comparisons());
        let quality = QualityReport::evaluate(&jobsn.result, &gold);
        table.row(vec![
            window.to_string(),
            fmt_count(jobsn.total_comparisons()),
            fmt_ms(jobsn_ms),
            fmt_ms(repsn_ms),
            fmt_count(replicas),
            format!("{:.3}", quality.recall()),
        ]);
        window_records.push(Json::obj([
            ("window", Json::Num(window as f64)),
            ("comparisons", Json::Num(jobsn.total_comparisons() as f64)),
            ("jobsn_wall_ms", Json::Num(jobsn_ms)),
            ("repsn_wall_ms", Json::Num(repsn_ms)),
            ("repsn_replicas", Json::Num(replicas as f64)),
            ("recall", Json::Num(quality.recall())),
            ("precision", Json::Num(quality.precision())),
        ]));
    }
    table.print();

    // ---- 2. partition sweep --------------------------------------------
    const W: usize = 4;
    println!("\n-- partition sweep (w = {W}) --\n");
    let mut table = TextTable::new(&[
        "r",
        "JobSN ms",
        "RepSN ms",
        "RepSN map out/in",
        "stitch candidates",
        "load imbalance",
    ]);
    let mut partition_records = Vec::new();
    let mut reference_pairs = None;
    for partitions in [2usize, 4, 8] {
        let session = sn_session(&runtime, W, partitions);
        let (jobsn, jobsn_ms) = run_once(&session, &jobsn_scenario, &input);
        let (repsn, repsn_ms) = run_once(&session, &repsn_scenario, &input);
        assert_eq!(jobsn.result.pair_set(), repsn.result.pair_set());
        match &reference_pairs {
            None => reference_pairs = Some(jobsn.result.pair_set()),
            Some(r) => assert_eq!(
                r,
                &jobsn.result.pair_set(),
                "pair set must not depend on the partition count"
            ),
        }
        let repsn_match = sn_jobs(&repsn).0;
        let rep_factor =
            repsn_match.map_output_records() as f64 / repsn_match.map_input_records() as f64;
        let (jobsn_match, jobsn_stitch) = sn_jobs(&jobsn);
        let stitch_candidates = jobsn_stitch.map(|m| m.map_input_records()).unwrap_or(0);
        let balance = jobsn_match.reduce_imbalance(er_loadbalance::COMPARISONS);
        table.row(vec![
            partitions.to_string(),
            fmt_ms(jobsn_ms),
            fmt_ms(repsn_ms),
            format!("{rep_factor:.3}"),
            fmt_count(stitch_candidates),
            format!("{balance:.2}"),
        ]);
        partition_records.push(Json::obj([
            ("partitions", Json::Num(partitions as f64)),
            ("jobsn_wall_ms", Json::Num(jobsn_ms)),
            ("repsn_wall_ms", Json::Num(repsn_ms)),
            ("repsn_replication_factor", Json::Num(rep_factor)),
            (
                "jobsn_stitch_candidates",
                Json::Num(stitch_candidates as f64),
            ),
            ("load_imbalance", Json::Num(balance)),
        ]));
    }
    table.print();

    // ---- 3. SN vs BlockSplit under skew --------------------------------
    println!("\n-- skew comparison: SN vs BlockSplit (s = 1.0 exponential blocks) --\n");
    let skewed = exponential_dataset(8_000, 40, 1.0, PAPER_SEED);
    let skew_input: Partitions<(), Ent> = partition_evenly(
        skewed
            .entities
            .iter()
            .map(|e| ((), Arc::new(e.clone())))
            .collect(),
        MAP_TASKS,
    );
    const SKEW_R: usize = 8;
    let sn = sn_session(&runtime, W, SKEW_R)
        .resolve(&jobsn_scenario, skew_input.clone())
        .expect("SN skew run");
    let bs = Resolver::new(&runtime)
        .with_reduce_tasks(SKEW_R)
        .with_count_only(true)
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            skew_input,
        )
        .expect("BlockSplit skew run");
    let bs_stats = WorkloadStats::from_metrics(
        StrategyKind::BlockSplit,
        bs.details.match_metrics().expect("one matching job"),
    );
    let sn_total = sn.total_comparisons();
    let bs_total = bs_stats.total_comparisons();
    let sn_imb = sn_jobs(&sn).0.reduce_imbalance(er_loadbalance::COMPARISONS);
    let mut table = TextTable::new(&["strategy", "comparisons", "imbalance"]);
    table.row(vec![
        "SN (JobSN)".into(),
        fmt_count(sn_total),
        format!("{sn_imb:.2}"),
    ]);
    table.row(vec![
        "BlockSplit".into(),
        fmt_count(bs_total),
        format!("{:.2}", bs_stats.imbalance()),
    ]);
    table.print();
    let ratio = bs_total as f64 / sn_total as f64;
    println!(
        "\n[{}] SN's candidate set is skew-independent: BlockSplit evaluates {ratio:.1}x more pairs \
         on the skewed corpus (both balanced across reduce tasks)",
        if ratio > 5.0 { "PASS" } else { "WARN" }
    );
    println!(
        "[{}] SN per-range load stays near-flat under skew (imbalance {sn_imb:.2})",
        if sn_imb < 2.0 { "PASS" } else { "WARN" }
    );

    // ---- 4. multi-pass sweep -------------------------------------------
    const MP_WINDOW: usize = 16;
    println!("\n-- multi-pass sweep (w = {MP_WINDOW}, r = {R}; pass 2 = reversed title) --\n");
    let all_passes: Vec<Arc<dyn SortKeyFunction>> = vec![
        Arc::new(AttributeSortKey::title()),
        Arc::new(ReversedSortKey::title()),
    ];
    let mut table = TextTable::new(&[
        "passes",
        "comparisons",
        "gated",
        "wall ms",
        "recall",
        "precision",
    ]);
    let mut multipass_records = Vec::new();
    let mut recalls = Vec::new();
    for pass_count in 1..=all_passes.len() {
        let passes = &all_passes[..pass_count];
        let session = sn_session(&runtime, MP_WINDOW, R);
        let config = session.sn_config(SnStrategy::JobSn);
        let scenario = Scenario::multipass_sn(SnStrategy::JobSn, passes.iter().cloned());
        let (outcome, wall) = run_once(&session, &scenario, &input);
        let gated: u64 = outcome
            .details
            .passes()
            .expect("multi-pass reports")
            .iter()
            .map(|p| p.skipped)
            .sum();
        assert_eq!(
            outcome.total_comparisons(),
            multipass_oracle_comparisons(&input, &config, passes),
            "each unioned window pair must be compared exactly once"
        );
        let quality = QualityReport::evaluate(&outcome.result, &gold);
        table.row(vec![
            pass_count.to_string(),
            fmt_count(outcome.total_comparisons()),
            fmt_count(gated),
            fmt_ms(wall),
            format!("{:.3}", quality.recall()),
            format!("{:.3}", quality.precision()),
        ]);
        multipass_records.push(Json::obj([
            ("passes", Json::Num(pass_count as f64)),
            ("window", Json::Num(MP_WINDOW as f64)),
            ("comparisons", Json::Num(outcome.total_comparisons() as f64)),
            ("gated_pairs", Json::Num(gated as f64)),
            ("wall_ms", Json::Num(wall)),
            ("recall", Json::Num(quality.recall())),
            ("precision", Json::Num(quality.precision())),
            ("matches", Json::Num(outcome.result.len() as f64)),
        ]));
        recalls.push(quality.recall());
    }
    table.print();
    println!(
        "\n[{}] the reversed-title pass lifts recall {:.3} -> {:.3} past the single-pass plateau",
        if recalls.last() > recalls.first() {
            "PASS"
        } else {
            "WARN"
        },
        recalls.first().copied().unwrap_or(0.0),
        recalls.last().copied().unwrap_or(0.0)
    );

    let json = Json::obj([
        ("bench", Json::str("fig_sn_window")),
        ("entities", Json::Num(n as f64)),
        ("map_tasks", Json::Num(MAP_TASKS as f64)),
        ("window_sweep", Json::Arr(window_records)),
        ("partition_sweep", Json::Arr(partition_records)),
        ("multipass_sweep", Json::Arr(multipass_records)),
        (
            "skew",
            Json::obj([
                ("entities", Json::Num(skewed.len() as f64)),
                ("sn_comparisons", Json::Num(sn_total as f64)),
                ("blocksplit_comparisons", Json::Num(bs_total as f64)),
                ("sn_imbalance", Json::Num(sn_imb)),
                ("blocksplit_imbalance", Json::Num(bs_stats.imbalance())),
                ("comparison_ratio", Json::Num(ratio)),
            ]),
        ),
    ]);
    write_bench_json("fig_sn_window", &json).expect("bench json export");
}
