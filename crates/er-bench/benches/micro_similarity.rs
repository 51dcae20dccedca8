//! Criterion micro-benchmarks for the similarity kernels — the inner
//! loop of every reduce task, and the constant the cluster simulator
//! calibrates.
//!
//! The `blocked_matching` group measures the prepare-once win:
//! all-pairs matching over one block through the naive per-pair string
//! path vs the prepare-once path (`Matcher::prepare` +
//! `matches_prepared`). The `thresholded_levenshtein` group times the
//! legs of the thresholded edit-distance cascade one pair at a time —
//! a pair the histogram filter rejects, a pair the bit-parallel
//! verifier accepts, and a pair past 64 scalars that falls back to the
//! banded DP — so a later change can tell which leg it moved. The
//! `pair_loop` group does the same for what a reduce task spends on one
//! large block: the compare driver's sweep over all its pairs, the bare
//! scalar kernel over the same pairs, and preparing its entities into a
//! cold cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use er_core::blocking::{BlockKey, BlockingFunction, PrefixBlocking};
use er_core::similarity::{
    levenshtein_distance, levenshtein_within, Jaccard, JaroWinkler, MongeElkan, NGram,
    NormalizedLevenshtein, Similarity,
};
use er_core::{Entity, MatchRule, Matcher, MatcherCache};
use er_datagen::{ds1_spec, generate_products};
use er_loadbalance::compare::{GroupComparer, PairComparer};
use er_loadbalance::Keyed;

const A: &str = "babpro k3vd9qmzx21ab camera";
const B: &str = "babpro k3vd9qmzx21ac camera";
const C: &str = "zzmax w8jf02qrty45cd printer";

/// One synthetic block of near-duplicate product titles.
fn block(size: usize) -> Vec<Entity> {
    (0..size)
        .map(|i| {
            Entity::new(
                i as u64,
                [(
                    "title",
                    format!("babpro k3vd9qmzx21ab camera kit rev{:02}", i % 17).as_str(),
                )],
            )
        })
        .collect()
}

fn all_pairs_naive(matcher: &Matcher, entities: &[Entity]) -> usize {
    let mut matches = 0;
    for i in 0..entities.len() {
        for j in (i + 1)..entities.len() {
            if matcher.matches(&entities[i], &entities[j]).is_some() {
                matches += 1;
            }
        }
    }
    matches
}

fn all_pairs_prepared(matcher: &Matcher, entities: &[Entity]) -> usize {
    let prepared: Vec<_> = entities.iter().map(|e| matcher.prepare(e)).collect();
    let mut matches = 0;
    for i in 0..prepared.len() {
        for j in (i + 1)..prepared.len() {
            if matcher
                .matches_prepared(&prepared[i], &prepared[j])
                .is_some()
            {
                matches += 1;
            }
        }
    }
    matches
}

fn bench_blocked_matching(c: &mut Criterion) {
    const BLOCK: usize = 48;
    let entities = block(BLOCK);
    let configs: Vec<(&str, Matcher)> = vec![
        (
            "levenshtein",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(NormalizedLevenshtein))],
                0.8,
            ),
        ),
        (
            "trigram",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(NGram::trigram()))],
                0.8,
            ),
        ),
        (
            "jaccard",
            Matcher::new(vec![MatchRule::new("title", Arc::new(Jaccard))], 0.5),
        ),
        (
            "monge-elkan",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(MongeElkan::default()))],
                0.8,
            ),
        ),
    ];
    let mut g = c.benchmark_group(format!("blocked_matching_b{BLOCK}"));
    for (name, matcher) in &configs {
        // Sanity: both paths must agree before we time them.
        assert_eq!(
            all_pairs_naive(matcher, &entities),
            all_pairs_prepared(matcher, &entities),
            "{name}: prepared path diverged"
        );
        g.bench_function(format!("{name}/naive"), |b| {
            b.iter(|| all_pairs_naive(black_box(matcher), black_box(&entities)))
        });
        g.bench_function(format!("{name}/prepared"), |b| {
            b.iter(|| all_pairs_prepared(black_box(matcher), black_box(&entities)))
        });
    }
    g.finish();
}

fn bench_thresholded_levenshtein(c: &mut Criterion) {
    const FLOOR: f64 = 0.8;
    let s = NormalizedLevenshtein;
    let long_a = format!("{A} {A} {A}");
    let long_b = format!("{A} {B} {A}");
    assert!(long_a.chars().count() > 64);
    // (leg, a, b, matches at FLOOR)
    let legs = [
        ("filter_reject", A, C, false),
        ("verify_accept", A, B, true),
        ("fallback_past_64", long_a.as_str(), long_b.as_str(), true),
    ];
    let mut g = c.benchmark_group("thresholded_levenshtein");
    for (leg, a, b, matches) in legs {
        let (pa, pb) = (s.prepare(a), s.prepare(b));
        assert_eq!(
            s.sim_prepared_at_least(&pa, &pb, FLOOR).is_some(),
            matches,
            "{leg}"
        );
        g.bench_function(leg, |bench| {
            bench.iter(|| s.sim_prepared_at_least(black_box(&pa), black_box(&pb), black_box(FLOOR)))
        });
    }
    g.finish();
}

/// One iteration of each leg is a whole block: divide `driver_sweep`
/// and `scalar_kernel_sweep` by the pair count and `prepare_cold` by
/// the entity count the header line prints.
fn bench_pair_loop(c: &mut Criterion) {
    // The largest title-prefix block of an eighth of DS1 — the block
    // the ledger's `ds1_*` workloads spend most of their reduce time in.
    let dataset = generate_products(&ds1_spec(2012).scaled(0.125));
    let blocking = PrefixBlocking::title3();
    let mut blocks: BTreeMap<BlockKey, Vec<Keyed>> = BTreeMap::new();
    for entity in dataset.entities.iter() {
        let key = blocking.key(entity).expect("every product has a title");
        let keyed = Keyed::single(key.clone(), Arc::new(entity.clone()));
        blocks.entry(key).or_default().push(keyed);
    }
    let (key, block) = blocks
        .into_iter()
        .max_by_key(|(_, members)| members.len())
        .expect("the dataset has blocks");
    let n = block.len();
    println!(
        "pair_loop: one block of {n} entities, {} pairs per sweep",
        n * (n - 1) / 2
    );

    let matcher = Arc::new(Matcher::paper_default());
    let mut driver = GroupComparer::new(PairComparer::new(Arc::clone(&matcher)));
    let driver_sweep = |driver: &mut GroupComparer| {
        let mut matches = 0usize;
        driver.load(&key, &block);
        driver.all_pairs(|_, _| matches += 1);
        matches
    };
    let measure = NormalizedLevenshtein;
    let prepared: Vec<_> = block
        .iter()
        .map(|k| measure.prepare(k.entity.get("title").expect("every product has a title")))
        .collect();
    let kernel_sweep = || {
        let mut matches = 0usize;
        for (j, b) in prepared.iter().enumerate() {
            for a in &prepared[..j] {
                matches += usize::from(measure.sim_prepared_at_least(a, b, 0.8).is_some());
            }
        }
        matches
    };
    // Sanity: the driver decides what the bare kernel decides.
    assert_eq!(driver_sweep(&mut driver), kernel_sweep());

    let mut g = c.benchmark_group("pair_loop");
    g.bench_function("driver_sweep", |b| {
        b.iter(|| driver_sweep(black_box(&mut driver)))
    });
    g.bench_function("scalar_kernel_sweep", |b| b.iter(kernel_sweep));
    g.bench_function("prepare_cold", |b| {
        b.iter(|| {
            let mut cache = MatcherCache::new(Arc::clone(&matcher));
            for keyed in &block {
                black_box(cache.handle(black_box(&keyed.entity)));
            }
        })
    });
    g.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let mut g = c.benchmark_group("similarity");
    g.bench_function("levenshtein/near", |b| {
        b.iter(|| levenshtein_distance(black_box(A), black_box(B)))
    });
    g.bench_function("levenshtein/far", |b| {
        b.iter(|| levenshtein_distance(black_box(A), black_box(C)))
    });
    g.bench_function("levenshtein_within/k5", |b| {
        b.iter(|| levenshtein_within(black_box(A), black_box(C), 5))
    });
    g.bench_function("normalized_levenshtein", |b| {
        let s = NormalizedLevenshtein;
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("jaro_winkler", |b| {
        let s = JaroWinkler::default();
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("jaccard", |b| {
        let s = Jaccard;
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("trigram", |b| {
        let s = NGram::trigram();
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_similarity, bench_thresholded_levenshtein, bench_blocked_matching, bench_pair_loop
}
criterion_main!(benches);
