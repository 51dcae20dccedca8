//! LSH correctness contract: the MR banded-MinHash workflow must
//! reproduce the brute-force banded oracle exactly — same candidate
//! set (each distinct pair exactly once across all shared bands), same
//! matches, bit-identical scores — at every parallelism level, for
//! dedup and two-source linkage, and the adaptive ladder must tighten
//! deterministically to its candidate budget. On a skewed corpus LSH
//! must also keep its headline against blocking: fewer comparisons than
//! BlockSplit at high recall and a balanced reduce phase.

use std::sync::Arc;

use dedupe_mr::er_loadbalance::compare::MULTIPASS_SKIPPED;
use dedupe_mr::prelude::*;
use er_datagen::duplicates::{perturb_title, rs_code, EditOps};
use er_datagen::rng::stream_rng;
use er_datagen::vocab::{block_prefix, PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use er_datagen::{ds1_spec, exponential_block_sizes, generate_products};

const CONFIGS: [LshParams; 2] = [
    LshParams { bands: 8, rows: 2 },
    LshParams { bands: 4, rows: 4 },
];
const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

fn corpus() -> Vec<Ent> {
    generate_products(&ds1_spec(11).scaled(0.002))
        .entities
        .into_iter()
        .map(|e| Arc::new(e) as Ent)
        .collect()
}

fn dedup_input(m: usize) -> Partitions<(), Ent> {
    partition_evenly(corpus().into_iter().map(|e| ((), e)).collect(), m)
}

/// The corpus split into two tagged sources (even ids → R, odd → S).
fn linkage_corpus() -> (Vec<Ent>, Vec<Ent>) {
    let mut r = Vec::new();
    let mut s = Vec::new();
    for e in corpus() {
        if e.id().0.is_multiple_of(2) {
            r.push(e);
        } else {
            s.push(Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent);
        }
    }
    (r, s)
}

/// `Σ_buckets |R|·|S|` of `bdm` under the partitions' source tags.
fn cross_pairs(bdm: &BlockDistributionMatrix, sources: &[SourceId]) -> u64 {
    (0..bdm.num_blocks())
        .map(|k| {
            let side = |wanted: SourceId| -> u64 {
                (0..bdm.num_partitions())
                    .filter(|&p| sources[p] == wanted)
                    .map(|p| bdm.size_in(k, p))
                    .sum()
            };
            side(SourceId::R) * side(SourceId::S)
        })
        .sum()
}

/// `n` originals over `blocks` title-prefix blocks of size `∝ e^(−s·k)`,
/// every `dup_every`-th followed by a copy with ≤ 2 substitutions past
/// its 4-character prefix: the copy keeps the block key and stays
/// within both the matcher's and a 16 × 2 banding's reach. The
/// original–copy pairs are the gold standard.
fn skewed_dup_corpus(
    n: usize,
    blocks: usize,
    s: f64,
    dup_every: usize,
) -> (Vec<Ent>, GoldStandard) {
    let mut entities: Vec<Ent> = Vec::new();
    let mut gold = Vec::new();
    let mut index = 0usize;
    for (k, &size) in exponential_block_sizes(n, blocks, s).iter().enumerate() {
        let prefix = block_prefix(k);
        for j in 0..size {
            let qualifier = PRODUCT_QUALIFIERS[(index * 7 + j) % PRODUCT_QUALIFIERS.len()];
            let noun = PRODUCT_NOUNS[(index * 3 + k) % PRODUCT_NOUNS.len()];
            let title = format!("{prefix} {qualifier} {noun} {}", rs_code(index));
            let original = Entity::new(entities.len() as u64, [("title", title.as_str())]);
            if index.is_multiple_of(dup_every) {
                let mut rng = stream_rng(2012, index as u64);
                let (copy, _) = perturb_title(&mut rng, &title, 2, 4, EditOps::SubstituteOnly);
                let copy = Entity::new(entities.len() as u64 + 1, [("title", copy.as_str())]);
                gold.push(MatchPair::new(original.entity_ref(), copy.entity_ref()));
                entities.push(Arc::new(copy));
            }
            entities.push(Arc::new(original));
            index += 1;
        }
    }
    (entities, GoldStandard::from_pairs(gold))
}

/// Bit-exact fingerprint of a match result.
type Fingerprint = Vec<(MatchPair, u64)>;

fn fingerprint(result: &MatchResult) -> Fingerprint {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

#[test]
fn the_session_blocking_function_is_title_trigrams() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
    let resolver = Resolver::new(&runtime);
    let entities = corpus();
    for params in [
        LshParams { bands: 16, rows: 2 },
        LshParams { bands: 8, rows: 4 },
        LshParams { bands: 4, rows: 8 },
    ] {
        let session = resolver.lsh_config(Some(params)).blocking_for(params);
        let trigrams = LshBlocking::title_trigrams(params);
        for entity in &entities {
            assert_eq!(
                session.keys(entity),
                trigrams.keys(entity),
                "{params}: entity {}",
                entity.id().0
            );
        }
    }
}

#[test]
fn dedup_equals_the_banded_oracle_byte_identically_at_every_parallelism() {
    for params in CONFIGS {
        let mut reference: Option<(Fingerprint, Vec<u64>)> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = Runtime::new(
                RuntimeConfig::new()
                    .with_parallelism(parallelism)
                    .with_reduce_tasks(7),
            );
            let resolver = Resolver::new(&runtime);
            let outcome = resolver
                .resolve(&Scenario::lsh(params), dedup_input(4))
                .unwrap();

            // Candidate contract: the MR pair set equals brute force.
            let entities = corpus();
            let config = resolver.lsh_config(Some(params));
            let oracle = lsh_oracle(&entities, &config, params, false);
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{params}: match set must equal the banded oracle"
            );
            let blocking = config.blocking_for(params);
            let candidates = lsh_candidate_pairs(&entities, &blocking, false);
            assert_eq!(
                outcome.total_comparisons(),
                candidates.len() as u64,
                "{params}: every distinct banded candidate exactly once"
            );

            // Exactly-once across bands: what the reducers enumerated
            // but the smallest-band gate skipped accounts for every
            // extra band a pair shares.
            let bdm = outcome.details.bdm().expect("LSH computes a BDM");
            let skipped = outcome.workflow.counters.get(MULTIPASS_SKIPPED);
            assert_eq!(
                outcome.total_comparisons() + skipped,
                bdm.total_pairs(),
                "{params}: enumerated = compared once + cross-band skipped"
            );

            // Byte-identity across parallelism, including the exact
            // per-reduce-task comparison loads.
            let fp = fingerprint(&outcome.result);
            let loads = outcome.reduce_loads().expect("one matching job");
            match &reference {
                None => reference = Some((fp, loads)),
                Some((rf, rl)) => {
                    assert_eq!(rf, &fp, "{params} at parallelism {parallelism}");
                    assert_eq!(rl, &loads, "{params}: identical reduce loads");
                }
            }
        }
    }
}

#[test]
fn linkage_equals_the_cross_source_banded_oracle_at_every_parallelism() {
    let (r, s) = linkage_corpus();
    let all: Vec<Ent> = r.iter().chain(s.iter()).map(Arc::clone).collect();
    let (input, sources) = two_source_input(r, s, 2);
    for params in CONFIGS {
        let mut reference: Option<Fingerprint> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = Runtime::new(
                RuntimeConfig::new()
                    .with_parallelism(parallelism)
                    .with_reduce_tasks(5),
            );
            let resolver = Resolver::new(&runtime);
            let outcome = resolver
                .resolve(
                    &Scenario::lsh_linkage(Some(params), sources.clone()),
                    input.clone(),
                )
                .unwrap();

            let config = resolver.lsh_config(Some(params));
            let oracle = lsh_oracle(&all, &config, params, true);
            assert_eq!(
                fingerprint(&outcome.result),
                fingerprint(&oracle),
                "{params}: pairs and scores of the cross-source banded oracle"
            );
            let blocking = config.blocking_for(params);
            let candidates = lsh_candidate_pairs(&all, &blocking, true);
            assert_eq!(outcome.total_comparisons(), candidates.len() as u64);

            // Enumeration is structurally R×S per bucket, so the
            // exactly-once ledger balances against the buckets'
            // |R|·|S| products.
            let bdm = outcome.details.bdm().expect("LSH computes a BDM");
            assert_eq!(bdm.total_pairs(), cross_pairs(bdm, &sources));
            let skipped = outcome.workflow.counters.get(MULTIPASS_SKIPPED);
            assert_eq!(outcome.total_comparisons() + skipped, bdm.total_pairs());

            let fp = fingerprint(&outcome.result);
            match &reference {
                None => reference = Some(fp),
                Some(rf) => assert_eq!(rf, &fp, "{params} at parallelism {parallelism}"),
            }
        }
    }
}

/// LSH's candidate job balances with BlockSplit, its one strategy: at
/// six reduce tasks the linkage must still carry the oracle's pairs and
/// scores, with every cross-source candidate compared exactly once.
#[test]
fn every_balance_strategy_links_like_the_cross_source_oracle() {
    let (r, s) = linkage_corpus();
    let all: Vec<Ent> = r.iter().chain(s.iter()).map(Arc::clone).collect();
    let (input, sources) = two_source_input(r, s, 2);
    let params = LshParams { bands: 8, rows: 2 };
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(6),
    );
    let resolver = Resolver::new(&runtime);
    let outcome = resolver
        .resolve(&Scenario::lsh_linkage(Some(params), sources.clone()), input)
        .unwrap();
    let config = resolver.lsh_config(Some(params));
    let oracle = lsh_oracle(&all, &config, params, true);
    assert_eq!(
        fingerprint(&outcome.result),
        fingerprint(&oracle),
        "pairs and scores of the cross-source banded oracle"
    );
    let candidates = lsh_candidate_pairs(&all, &config.blocking_for(params), true);
    assert_eq!(
        outcome.total_comparisons(),
        candidates.len() as u64,
        "every cross-source candidate exactly once"
    );
    let bdm = outcome.details.bdm().expect("LSH computes a BDM");
    let skipped = outcome.workflow.counters.get(MULTIPASS_SKIPPED);
    assert_eq!(
        outcome.total_comparisons() + skipped,
        cross_pairs(bdm, &sources),
        "enumerated = compared once + cross-band skipped"
    );
}

#[test]
fn adaptive_ladder_reports_rounds_and_respects_the_budget() {
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(6),
    );
    let wide = LshParams { bands: 16, rows: 2 };
    let tight = LshParams { bands: 4, rows: 8 };

    // First measure the widest rung's workload, then set a budget just
    // below it: the driver must fall through to the tight rung.
    let probe = Resolver::new(&runtime)
        .resolve(&Scenario::lsh(wide), dedup_input(4))
        .unwrap();
    let wide_pairs = probe.details.bdm().unwrap().total_pairs();

    let resolver = Resolver::new(&runtime)
        .with_lsh_ladder(vec![wide, tight])
        .with_lsh_budget(Some(wide_pairs.saturating_sub(1).max(1)));
    let outcome = resolver
        .resolve(&Scenario::lsh_adaptive(), dedup_input(4))
        .unwrap();

    let rounds = outcome.details.lsh_rounds().expect("LSH reports rounds");
    assert_eq!(rounds.len(), 2, "both rungs measured");
    assert!(!rounds[0].within_budget && !rounds[0].accepted);
    assert!(rounds[1].accepted);
    assert_eq!(rounds[0].candidate_pairs, wide_pairs);
    assert!(
        rounds[0].est_recall > rounds[1].est_recall,
        "tightening trades estimated recall for candidates"
    );
    assert_eq!(outcome.details.lsh_params(), Some(tight));

    // The accepted rung's run is identical to resolving it directly.
    let direct = Resolver::new(&runtime)
        .resolve(&Scenario::lsh(tight), dedup_input(4))
        .unwrap();
    assert_eq!(fingerprint(&outcome.result), fingerprint(&direct.result));
    assert_eq!(outcome.total_comparisons(), direct.total_comparisons());

    // Without a budget the widest rung is accepted immediately and
    // later rungs never run.
    let eager = Resolver::new(&runtime)
        .with_lsh_ladder(vec![wide, tight])
        .resolve(&Scenario::lsh_adaptive(), dedup_input(4))
        .unwrap();
    let eager_rounds = eager.details.lsh_rounds().unwrap();
    assert_eq!(eager_rounds.len(), 1);
    assert!(eager_rounds[0].accepted && eager_rounds[0].within_budget);
    assert_eq!(eager.details.lsh_params(), Some(wide));
}

#[test]
fn exact_dedup_counts_for_multi_band_collisions() {
    // Three identical titles collide in *every* band; two unrelated
    // singletons collide in none. The cluster contributes exactly
    // C(3,2) = 3 comparisons — once per distinct pair, not once per
    // shared band — and everything else the buckets enumerate is
    // gated.
    let titles = [
        "canon eos five d mark three body",
        "canon eos five d mark three body",
        "canon eos five d mark three body",
        "nikon d eight hundred body only",
        "olympus om d e m five mark two",
    ];
    let entities: Vec<Ent> = titles
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect();
    let input = partition_evenly(entities.iter().map(|e| ((), Arc::clone(e))).collect(), 2);
    let params = LshParams { bands: 8, rows: 2 };
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime);
    let outcome = resolver.resolve(&Scenario::lsh(params), input).unwrap();

    let config = resolver.lsh_config(Some(params));
    let blocking = config.blocking_for(params);
    let candidates = lsh_candidate_pairs(&entities, &blocking, false);
    assert!(candidates.len() >= 3, "the cluster is fully connected");
    assert_eq!(outcome.total_comparisons(), candidates.len() as u64);
    assert_eq!(outcome.result.len(), 3, "exactly the three identical pairs");

    // The identical cluster shares all 8 bands: 3 pairs × 8 buckets
    // enumerated, 3 compared, the rest skipped by smallest-band-wins.
    let bdm = outcome.details.bdm().unwrap();
    let skipped = outcome.workflow.counters.get(MULTIPASS_SKIPPED);
    assert_eq!(outcome.total_comparisons() + skipped, bdm.total_pairs());
    assert!(skipped >= 3 * 7, "every extra shared band is gated");
}

#[test]
fn lsh_beats_block_split_on_comparisons_under_skew() {
    // At s = 1 the largest prefix block holds most of the corpus, and
    // BlockSplit must compare all of its pairs. LSH candidates follow
    // similarity, not blocks: far fewer comparisons, the near-duplicates
    // still found, and its banded key space balanced by the same BDM.
    let (entities, gold) = skewed_dup_corpus(1_500, 24, 1.0, 6);
    let input = partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 4);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(8),
    );
    let resolver = Resolver::new(&runtime);
    let lsh = resolver
        .resolve(
            &Scenario::lsh(LshParams { bands: 16, rows: 2 }),
            input.clone(),
        )
        .unwrap();
    let block_split = resolver
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            input.clone(),
        )
        .unwrap();
    let recall = QualityReport::evaluate(&lsh.result, &gold).recall();
    let imbalance = lsh
        .details
        .match_metrics()
        .expect("one matching job")
        .reduce_imbalance(COMPARISONS);
    let (lsh_comparisons, block_split_comparisons) =
        (lsh.total_comparisons(), block_split.total_comparisons());
    println!(
        "LSH 16x2: {lsh_comparisons} comparisons, recall {recall:.3}, imbalance {imbalance:.2}; \
         BlockSplit: {block_split_comparisons} comparisons"
    );
    assert!(
        lsh_comparisons < block_split_comparisons,
        "LSH {lsh_comparisons} vs BlockSplit {block_split_comparisons} comparisons"
    );
    assert!(recall >= 0.8, "LSH recall {recall:.3}");
    assert!(imbalance <= 1.5, "LSH reduce imbalance {imbalance:.2}");

    // Spending 32 signature slots on fewer, longer bands does not grow
    // the candidate set (each banding signs with its own family, so
    // this is the S-curve tightening, not one signature re-cut).
    let sweep = [(32, 1), (16, 2), (8, 4), (4, 8)].map(|(bands, rows)| {
        resolver
            .resolve(&Scenario::lsh(LshParams { bands, rows }), input.clone())
            .unwrap()
            .total_comparisons()
    });
    assert_eq!(sweep[1], lsh_comparisons);
    assert!(
        sweep.windows(2).all(|w| w[1] <= w[0]),
        "32x1, 16x2, 8x4, 4x8 comparisons: {sweep:?}"
    );
}
