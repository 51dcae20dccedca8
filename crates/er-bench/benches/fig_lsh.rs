//! fig_lsh — the third-blocking-family figure: recall vs comparisons
//! for banded-MinHash (LSH) blocking against BlockSplit and Sorted
//! Neighborhood on skew-controlled corpora.
//!
//! Three experiments, all real engine runs:
//!
//! 1. **Skew study** (s ∈ {0, 0.5, 1.0}): on exponential block-size
//!    corpora with injected near-duplicates, prefix blocking's largest
//!    block grows with s and BlockSplit must still *evaluate* every
//!    within-block pair (balanced, but quadratic in the biggest
//!    block). LSH's candidate set depends on *similarity*, not block
//!    membership, so its comparison count stays flat while recall
//!    holds — the headline: at s = 1.0, LSH reaches recall ≥ 0.8 on a
//!    fraction of BlockSplit's comparisons with reduce-task imbalance
//!    ≤ 1.5 (the banded key space rides the same BDM load balancing).
//! 2. **Bands × rows sweep** (a 32-slot signature budget spent as
//!    32×1 … 4×8): the S-curve trade — more bands, higher recall,
//!    more candidates — with the measured recall tracking the
//!    analytic collision probability.
//! 3. **Adaptive ladder**: a candidate budget forces the driver down
//!    the ladder; every round's measured workload and estimated
//!    recall is reported, and only the accepted rung pays for
//!    matching.
//!
//! Exports `BENCH_fig_lsh.json` (validated in CI by
//! `validate_bench_json` against the stored baseline).

use std::sync::Arc;
use std::time::Instant;

use dedupe_mr::{Outcome, Resolver, Runtime, RuntimeConfig, Scenario};
use er_bench::table::{fmt_count, fmt_ms, TextTable};
use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_core::{Entity, GoldStandard, MatchPair, QualityReport};
use er_datagen::duplicates::{perturb_title, rs_code, EditOps};
use er_datagen::exponential_block_sizes;
use er_datagen::rng::stream_rng;
use er_datagen::vocab::{block_prefix, PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use er_loadbalance::{Ent, StrategyKind, COMPARISONS};
use er_lsh::LshParams;
use er_sn::SnStrategy;
use mr_engine::input::{partition_evenly, Partitions};

const MAP_TASKS: usize = 4;
const REDUCE_TASKS: usize = 8;
const SAMPLES: usize = 2;
/// The headline banding: 16 bands × 2 rows (32-slot signature).
const HEADLINE: LshParams = LshParams { bands: 16, rows: 2 };

/// A skew-controlled corpus with injected near-duplicates: `n`
/// originals over `b` exponential(s) prefix blocks, every
/// `dup_every`-th entity cloned with ≤ 2 character substitutions that
/// never touch the 4-char protected prefix (block key survives; edit
/// similarity stays ≈ 0.93 on the ~30-char titles, char-trigram
/// Jaccard ≳ 0.6 — inside both the matcher's and the headline
/// banding's catch zone).
fn skewed_dup_corpus(
    n: usize,
    b: usize,
    s: f64,
    dup_every: usize,
    seed: u64,
) -> (Vec<Ent>, GoldStandard) {
    let sizes = exponential_block_sizes(n, b, s);
    let mut entities: Vec<Entity> = Vec::new();
    let mut gold_pairs: Vec<MatchPair> = Vec::new();
    let mut id = 0u64;
    let mut index = 0usize;
    for (k, &size) in sizes.iter().enumerate() {
        let prefix = block_prefix(k);
        for j in 0..size {
            let qualifier = PRODUCT_QUALIFIERS[(index * 7 + j) % PRODUCT_QUALIFIERS.len()];
            let noun = PRODUCT_NOUNS[(index * 3 + k) % PRODUCT_NOUNS.len()];
            let title = format!("{prefix} {qualifier} {noun} {}", rs_code(index));
            let original = Entity::new(id, [("title", title.as_str())]);
            id += 1;
            if index.is_multiple_of(dup_every) {
                let mut rng = stream_rng(seed, index as u64);
                let (dup_title, _) = perturb_title(&mut rng, &title, 2, 4, EditOps::SubstituteOnly);
                let duplicate = Entity::new(id, [("title", dup_title.as_str())]);
                id += 1;
                gold_pairs.push(MatchPair::new(
                    original.entity_ref(),
                    duplicate.entity_ref(),
                ));
                entities.push(duplicate);
            }
            entities.push(original);
            index += 1;
        }
    }
    let gold = GoldStandard::from_pairs(gold_pairs);
    (
        entities.into_iter().map(|e| Arc::new(e) as Ent).collect(),
        gold,
    )
}

fn partitions(entities: &[Ent]) -> Partitions<(), Ent> {
    partition_evenly(
        entities.iter().map(|e| ((), Arc::clone(e))).collect(),
        MAP_TASKS,
    )
}

/// Resolves `scenario` `SAMPLES` times; the last outcome and the
/// median wall in ms.
fn timed(
    resolver: &Resolver<'_>,
    scenario: &Scenario,
    input: &Partitions<(), Ent>,
) -> (Outcome, f64) {
    let mut walls = Vec::with_capacity(SAMPLES);
    let mut outcome = None;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        outcome = Some(resolver.resolve(scenario, input.clone()).expect("resolve"));
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (outcome.expect("at least one sample"), median_ms(&walls))
}

fn reduce_imbalance(outcome: &Outcome) -> f64 {
    outcome
        .details
        .match_metrics()
        .expect("one matching job")
        .reduce_imbalance(COMPARISONS)
}

fn main() {
    println!("== fig_lsh: banded-MinHash vs BlockSplit vs SN on skewed corpora ==\n");
    const N: usize = 1_500;
    const BLOCKS: usize = 24;
    const DUP_EVERY: usize = 6;
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(MAP_TASKS)
            .with_reduce_tasks(REDUCE_TASKS),
    );
    let resolver = Resolver::new(&runtime);

    // ---- 1. skew study --------------------------------------------------
    println!("-- skew study (n = {N} originals + duplicates, b = {BLOCKS} blocks) --\n");
    let mut table = TextTable::new(&[
        "s",
        "LSH cmp",
        "BSplit cmp",
        "SN cmp",
        "LSH recall",
        "BSplit recall",
        "SN recall",
        "LSH imb",
        "LSH ms",
        "BSplit ms",
    ]);
    let mut skew_records = Vec::new();
    let mut headline = None;
    for s in [0.0f64, 0.5, 1.0] {
        let (entities, gold) = skewed_dup_corpus(N, BLOCKS, s, DUP_EVERY, PAPER_SEED);
        let input = partitions(&entities);

        let (lsh, lsh_ms) = timed(&resolver, &Scenario::lsh(HEADLINE), &input);
        let lsh_quality = QualityReport::evaluate(&lsh.result, &gold);
        let lsh_imbalance = reduce_imbalance(&lsh);

        let block_split = Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        };
        let (bs, bs_ms) = timed(&resolver, &block_split, &input);
        let bs_quality = QualityReport::evaluate(&bs.result, &gold);
        let bs_comparisons = bs.total_comparisons();

        let sn = resolver
            .clone()
            .with_window(4)
            .with_sample_rate(0.1)
            .resolve(
                &Scenario::sorted_neighborhood(SnStrategy::JobSn),
                input.clone(),
            )
            .expect("SN run");
        let sn_quality = QualityReport::evaluate(&sn.result, &gold);

        table.row(vec![
            format!("{s:.1}"),
            fmt_count(lsh.total_comparisons()),
            fmt_count(bs_comparisons),
            fmt_count(sn.total_comparisons()),
            format!("{:.3}", lsh_quality.recall()),
            format!("{:.3}", bs_quality.recall()),
            format!("{:.3}", sn_quality.recall()),
            format!("{lsh_imbalance:.2}"),
            fmt_ms(lsh_ms),
            fmt_ms(bs_ms),
        ]);
        skew_records.push(Json::obj([
            ("skew", Json::Num(s)),
            ("entities", Json::Num(entities.len() as f64)),
            ("lsh_comparisons", Json::Num(lsh.total_comparisons() as f64)),
            ("blocksplit_comparisons", Json::Num(bs_comparisons as f64)),
            ("sn_comparisons", Json::Num(sn.total_comparisons() as f64)),
            ("lsh_recall", Json::Num(lsh_quality.recall())),
            ("lsh_precision", Json::Num(lsh_quality.precision())),
            ("blocksplit_recall", Json::Num(bs_quality.recall())),
            ("sn_recall", Json::Num(sn_quality.recall())),
            ("lsh_imbalance", Json::Num(lsh_imbalance)),
            ("lsh_wall_ms", Json::Num(lsh_ms)),
            ("blocksplit_wall_ms", Json::Num(bs_ms)),
        ]));
        if s == 1.0 {
            headline = Some((
                lsh.total_comparisons(),
                bs_comparisons,
                sn.total_comparisons(),
                lsh_quality.recall(),
                lsh_imbalance,
                lsh_ms,
                bs_ms,
            ));
        }
    }
    table.print();

    let (lsh_cmp, bs_cmp, sn_cmp, lsh_recall, lsh_imb, lsh_ms, bs_ms) =
        headline.expect("s = 1.0 ran");
    assert!(
        lsh_recall >= 0.8,
        "headline criterion: LSH recall {lsh_recall:.3} must be >= 0.8 at s = 1.0"
    );
    assert!(
        lsh_cmp < bs_cmp,
        "headline criterion: LSH ({lsh_cmp}) must beat BlockSplit ({bs_cmp}) on comparisons"
    );
    assert!(
        lsh_imb <= 1.5,
        "headline criterion: LSH reduce imbalance {lsh_imb:.2} must stay <= 1.5"
    );
    println!(
        "\n[PASS] s = 1.0 headline: LSH recall {lsh_recall:.3} at {} comparisons vs \
         BlockSplit's {} ({:.1}x fewer), imbalance {lsh_imb:.2}",
        fmt_count(lsh_cmp),
        fmt_count(bs_cmp),
        bs_cmp as f64 / lsh_cmp as f64
    );

    // ---- 2. bands × rows sweep -----------------------------------------
    println!("\n-- bands x rows sweep (s = 1.0 corpus, 32-slot budget) --\n");
    let (entities, gold) = skewed_dup_corpus(N, BLOCKS, 1.0, DUP_EVERY, PAPER_SEED);
    let input = partitions(&entities);
    let mut table = TextTable::new(&[
        "bands x rows",
        "comparisons",
        "recall",
        "est recall @0.8",
        "imbalance",
    ]);
    let mut sweep_records = Vec::new();
    let mut prev_comparisons = u64::MAX;
    for params in [
        LshParams { bands: 32, rows: 1 },
        LshParams { bands: 16, rows: 2 },
        LshParams { bands: 8, rows: 4 },
        LshParams { bands: 4, rows: 8 },
    ] {
        let (outcome, _) = timed(&resolver, &Scenario::lsh(params), &input);
        let quality = QualityReport::evaluate(&outcome.result, &gold);
        let est = params.collision_probability(0.8);
        let imbalance = reduce_imbalance(&outcome);
        table.row(vec![
            params.to_string(),
            fmt_count(outcome.total_comparisons()),
            format!("{:.3}", quality.recall()),
            format!("{est:.3}"),
            format!("{imbalance:.2}"),
        ]);
        sweep_records.push(Json::obj([
            ("bands", Json::Num(params.bands as f64)),
            ("rows", Json::Num(params.rows as f64)),
            ("comparisons", Json::Num(outcome.total_comparisons() as f64)),
            ("recall", Json::Num(quality.recall())),
            ("est_recall", Json::Num(est)),
            ("imbalance", Json::Num(imbalance)),
        ]));
        assert!(
            outcome.total_comparisons() <= prev_comparisons,
            "tightening rows must not grow the candidate set"
        );
        prev_comparisons = outcome.total_comparisons();
    }
    table.print();
    println!("\n[PASS] candidate workload shrinks monotonically down the ladder");

    // ---- 3. adaptive ladder --------------------------------------------
    println!("\n-- adaptive ladder (budget forces tightening) --\n");
    let ladder = vec![
        LshParams { bands: 32, rows: 1 },
        LshParams { bands: 16, rows: 2 },
        LshParams { bands: 8, rows: 4 },
        LshParams { bands: 4, rows: 8 },
    ];
    // A budget between the tightest and widest rungs' workloads: the
    // driver must walk down until a rung fits.
    let budget = prev_comparisons.max(1) * 4;
    let adaptive = resolver
        .clone()
        .with_lsh_ladder(ladder)
        .with_lsh_budget(Some(budget))
        .resolve(&Scenario::lsh_adaptive(), input.clone())
        .expect("adaptive run");
    let rounds = adaptive.details.lsh_rounds().expect("LSH rounds");
    let accepted = adaptive.details.lsh_params().expect("accepted banding");
    let mut table = TextTable::new(&[
        "round",
        "bands x rows",
        "candidates",
        "est recall",
        "accepted",
    ]);
    let mut round_records = Vec::new();
    for (i, round) in rounds.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            round.params.to_string(),
            fmt_count(round.candidate_pairs),
            format!("{:.3}", round.est_recall),
            if round.accepted { "yes" } else { "no" }.to_string(),
        ]);
        round_records.push(Json::obj([
            ("bands", Json::Num(round.params.bands as f64)),
            ("rows", Json::Num(round.params.rows as f64)),
            ("candidate_pairs", Json::Num(round.candidate_pairs as f64)),
            ("est_recall", Json::Num(round.est_recall)),
            (
                "accepted",
                Json::Num(if round.accepted { 1.0 } else { 0.0 }),
            ),
        ]));
    }
    table.print();
    assert!(
        rounds.last().expect("rounds reported").accepted,
        "the final measured round is the accepted one"
    );
    assert!(
        rounds.len() > 1,
        "the budget {budget} must force at least one tightening step"
    );
    println!(
        "\n[PASS] ladder tightened over {} rounds to {} within budget {}",
        rounds.len(),
        accepted,
        fmt_count(budget)
    );

    let json = Json::obj([
        ("bench", Json::str("fig_lsh")),
        ("originals", Json::Num(N as f64)),
        ("blocks", Json::Num(BLOCKS as f64)),
        ("map_tasks", Json::Num(MAP_TASKS as f64)),
        ("reduce_tasks", Json::Num(REDUCE_TASKS as f64)),
        // Headline (s = 1.0) metrics as top-level numerics so the
        // drift guard pins them: counts/recall exactly, walls within
        // the noise band.
        ("lsh_comparisons_s1", Json::Num(lsh_cmp as f64)),
        ("blocksplit_comparisons_s1", Json::Num(bs_cmp as f64)),
        ("sn_comparisons_s1", Json::Num(sn_cmp as f64)),
        ("lsh_recall_s1", Json::Num(lsh_recall)),
        ("lsh_imbalance_s1", Json::Num(lsh_imb)),
        ("adaptive_rounds", Json::Num(rounds.len() as f64)),
        ("accepted_bands", Json::Num(accepted.bands as f64)),
        ("lsh_wall_ms", Json::Num(lsh_ms)),
        ("blocksplit_wall_ms", Json::Num(bs_ms)),
        ("skew_study", Json::Arr(skew_records)),
        ("band_sweep", Json::Arr(sweep_records)),
        ("adaptive_ladder", Json::Arr(round_records)),
    ]);
    let path = write_bench_json("fig_lsh", &json).expect("write export");
    println!("\nwrote {}", path.display());
}
