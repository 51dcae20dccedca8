//! Differential test of the thresholded compare kernel on the corpus
//! shape the benchmarks run: every pair of the largest title-prefix
//! block of a DS1-shaped dataset, decided by the filter → verify
//! cascade (heap and arena forms) and by the full dynamic program, must
//! agree on the decision and on every bit of the score — and so must
//! the BlockSplit and PairRange reducers, which reach the same kernel
//! block at a time through the batch prefilter.

use std::collections::BTreeMap;
use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction, PrefixBlocking};
use er_core::{MatchPair, Matcher, MatcherCache, PreparedHandle, SourceId};
use er_datagen::{ds1_spec, generate_products};
use er_loadbalance::block_split::reducer::BlockSplitReducer;
use er_loadbalance::compare::{EntityInterner, EntityTable, PairComparer};
use er_loadbalance::keys::{BlockSplitKey, PairRangeKey};
use er_loadbalance::pair_range::mapper::relevant_ranges;
use er_loadbalance::pair_range::ranges::RangeIndexer;
use er_loadbalance::pair_range::reducer::PairRangeReducer;
use er_loadbalance::{BlockDistributionMatrix, Ent, KeyList, RangePolicy, COMPARISONS};
use mr_engine::mapper::MapTaskInfo;
use mr_engine::reducer::{Group, ReduceContext, ReduceTaskInfo, Reducer};

/// The largest title-prefix block of a 1 %-scale DS1 corpus.
fn largest_ds1_block() -> (BlockKey, Vec<Ent>) {
    let dataset = generate_products(&ds1_spec(7).scaled(0.01));
    let blocking = PrefixBlocking::title3();
    let mut blocks: BTreeMap<BlockKey, Vec<Ent>> = BTreeMap::new();
    for entity in dataset.entities.iter() {
        let key = blocking.key(entity).expect("every product has a title");
        blocks
            .entry(key)
            .or_default()
            .push(Arc::new(entity.clone()));
    }
    let (key, block) = blocks
        .into_iter()
        .max_by_key(|(_, entities)| entities.len())
        .expect("the dataset has blocks");
    assert!(block.len() >= 50, "largest block has {}", block.len());
    (key, block)
}

/// Every matching pair of `block` with its score bits, by the full
/// dynamic program and the plain threshold test.
fn full_dp_matches(matcher: &Matcher, block: &[Ent]) -> BTreeMap<MatchPair, u64> {
    let prepared: Vec<_> = block.iter().map(|e| matcher.prepare(e)).collect();
    let mut matches = BTreeMap::new();
    for i in 0..block.len() {
        for j in (i + 1)..block.len() {
            let score = matcher.score_prepared(&prepared[i], &prepared[j]);
            if score >= matcher.threshold() {
                let pair = MatchPair::new(block[i].entity_ref(), block[j].entity_ref());
                matches.insert(pair, score.to_bits());
            }
        }
    }
    matches
}

/// `block`, keyed by `key`, as a match stage's map tasks prepare it for
/// `comparer`: entity `x` by map task `partition_of(x)` of `m`. Returns
/// the stage's tables and each entity's handle.
fn staged(
    comparer: &PairComparer,
    key: &BlockKey,
    block: &[Ent],
    m: usize,
    partition_of: impl Fn(usize) -> usize,
) -> (Vec<EntityTable>, Vec<PreparedHandle>) {
    let keys = KeyList::One(key.clone());
    let mut interners: Vec<EntityInterner> = (0..m)
        .map(|task_index| {
            let mut interner = EntityInterner::new(comparer);
            let info = MapTaskInfo {
                task_index,
                num_map_tasks: m,
                num_reduce_tasks: 1,
            };
            interner.setup(&info);
            interner
        })
        .collect();
    let handles = block
        .iter()
        .enumerate()
        .map(|(x, e)| interners[partition_of(x)].intern(e, &keys))
        .collect();
    let tables = interners
        .into_iter()
        .map(EntityInterner::into_table)
        .collect();
    (tables, handles)
}

/// Runs one reduce group through `reducer` as task 0 of `tasks`, over
/// the stage's `tables`, collecting matches (each pair at most once
/// over all calls) and the comparison count.
fn reduce_group<R, K, V>(
    reducer: &mut R,
    tasks: usize,
    tables: &[EntityTable],
    entries: &[(K, V)],
    matches: &mut BTreeMap<MatchPair, u64>,
    comparisons: &mut u64,
) where
    R: Reducer<KIn = K, VIn = V, KOut = MatchPair, VOut = f64, Product = EntityTable>,
{
    let info = ReduceTaskInfo {
        task_index: 0,
        num_reduce_tasks: tasks,
        num_map_tasks: 1,
    };
    reducer.setup(&info);
    let mut ctx = ReduceContext::for_testing(info);
    reducer.reduce(Group::for_testing(entries).with_products(tables), &mut ctx);
    *comparisons += ctx.counters().get(COMPARISONS);
    for (pair, score) in ctx.output() {
        let again = matches.insert(*pair, score.to_bits());
        assert!(again.is_none(), "{pair} emitted twice");
    }
}

#[test]
fn reducers_equal_full_dp_on_the_largest_ds1_block() {
    let (key, block) = largest_ds1_block();
    let n = block.len() as u64;
    let matcher = Arc::new(Matcher::paper_default());
    let expected = full_dp_matches(&matcher, &block);
    assert!(!expected.is_empty() && (expected.len() as u64) < n * (n - 1) / 2);
    let bdm = Arc::new(BlockDistributionMatrix::from_counts(
        1,
        [(key.clone(), 0, n)],
    ));

    // BlockSplit: the block split in two sub-blocks is three match
    // tasks — each half's pairs, and their cross product.
    let (mut matches, mut comparisons) = (BTreeMap::new(), 0);
    let comparer = PairComparer::new(Arc::clone(&matcher));
    let half = block.len() / 2;
    let partition_of = |x: usize| usize::from(x >= half);
    let (tables, handles) = staged(&comparer, &key, &block, 2, partition_of);
    let mut reducer = BlockSplitReducer::new(Arc::clone(&bdm), comparer);
    let task = |i: u32, j: u32, members: std::ops::Range<usize>| -> Vec<_> {
        let key = BlockSplitKey {
            reduce_task: 0,
            block: 0,
            i,
            j,
        };
        members.map(|x| (key, handles[x])).collect()
    };
    for entries in [
        task(0, 0, 0..half),
        task(1, 1, half..block.len()),
        task(1, 0, 0..block.len()),
    ] {
        reduce_group(
            &mut reducer,
            1,
            &tables,
            &entries,
            &mut matches,
            &mut comparisons,
        );
    }
    assert_eq!(comparisons, n * (n - 1) / 2);
    assert_eq!(matches, expected, "BlockSplit diverged from the full DP");

    // PairRange: the block's pairs cut into seven ranges, each reduced
    // from the members the mapper would send it.
    let (mut matches, mut comparisons) = (BTreeMap::new(), 0);
    let tasks = 7;
    let ranges = RangeIndexer::new(bdm.total_pairs(), tasks, RangePolicy::CeilDiv);
    let comparer = PairComparer::new(Arc::clone(&matcher));
    let (tables, handles) = staged(&comparer, &key, &block, 1, |_| 0);
    let mut reducer = PairRangeReducer::new(Arc::clone(&bdm), comparer, RangePolicy::CeilDiv);
    for range in 0..tasks as u32 {
        let entries: Vec<_> = (0..n)
            .filter(|&x| {
                relevant_ranges(&bdm, &ranges, 0, SourceId::R, x).contains(&u64::from(range))
            })
            .map(|index| {
                let key = PairRangeKey {
                    range,
                    block: 0,
                    source: SourceId::R,
                    index,
                };
                (key, handles[index as usize])
            })
            .collect();
        reduce_group(
            &mut reducer,
            tasks,
            &tables,
            &entries,
            &mut matches,
            &mut comparisons,
        );
    }
    assert_eq!(comparisons, n * (n - 1) / 2);
    assert_eq!(matches, expected, "PairRange diverged from the full DP");
}

#[test]
fn cascade_equals_full_dp_on_the_largest_ds1_block() {
    let (_, block) = largest_ds1_block();

    let matcher = Arc::new(Matcher::paper_default());
    let mut cache = MatcherCache::new(Arc::clone(&matcher));
    let handles: Vec<_> = block.iter().map(|e| cache.handle(e)).collect();
    let prepared: Vec<_> = block.iter().map(|e| matcher.prepare(e)).collect();

    let (mut matches, mut pairs) = (0usize, 0usize);
    for i in 0..block.len() {
        for j in (i + 1)..block.len() {
            // `score_prepared` runs the unrestricted DP; the threshold
            // is then applied the way `Matcher::matches` applies it.
            let score = matcher.score_prepared(&prepared[i], &prepared[j]);
            let expected = (score >= matcher.threshold()).then(|| score.to_bits());
            let titles = || (block[i].get("title"), block[j].get("title"));
            assert_eq!(
                matcher
                    .matches_prepared(&prepared[i], &prepared[j])
                    .map(f64::to_bits),
                expected,
                "heap forms diverged on {:?}",
                titles()
            );
            assert_eq!(
                cache
                    .matches_handles(handles[i], handles[j])
                    .map(f64::to_bits),
                expected,
                "arena forms diverged on {:?}",
                titles()
            );
            matches += usize::from(expected.is_some());
            pairs += 1;
        }
    }
    assert!(
        matches > 0 && matches < pairs,
        "{matches} of {pairs} pairs match: both outcomes must occur"
    );
}
