//! The Algorithm-2 `return` typo, demonstrated.
//!
//! Listing 2 line 41 aborts the whole reduce group once a pair's range
//! exceeds the task's (`else if k > r then return`). That is safe only
//! per stream element: with a large block cut into many ranges, range
//! 0 covers a prefix of *column 0*, so while streaming entity `x` the
//! pair `(1, x)` overshoots (column 1 starts N−2 pairs later) — but
//! the *next* entity's pair `(0, x+1)` still belongs to range 0. A
//! literal `return` silently drops those pairs. Our reducer `break`s
//! the buffer scan instead; these tests construct the scenario and
//! prove completeness.

use std::sync::Arc;

use dedupe_mr::prelude::*;

/// One block of `n` identically-prefixed entities, spread over `m`
/// partitions round-robin.
fn one_block_input(n: usize, m: usize) -> Partitions<(), Ent> {
    let entities: Vec<Ent> = (0..n)
        .map(|id| {
            Arc::new(Entity::new(
                id as u64,
                [("title", format!("zz item {id:04}").as_str())],
            ))
        })
        .collect();
    partition_round_robin(entities.into_iter().map(|e| ((), e)).collect(), m)
}

/// PairRange over 2-letter title-prefix blocks with `r`
/// ranges on a pool of `parallelism` workers.
fn count_pair_range(input: Partitions<(), Ent>, r: usize, parallelism: usize) -> Outcome {
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(parallelism)
            .with_reduce_tasks(r),
    );
    Resolver::new(&runtime)
        .with_blocking(Arc::new(PrefixBlocking::new("title", 2)))
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::PairRange,
            },
            input,
        )
        .unwrap()
}

#[test]
fn many_ranges_over_one_block_lose_no_pairs() {
    // n = 30 entities -> 435 pairs; r = 60 ranges cuts column 0
    // (pairs 0..28) into several ranges: the exact scenario where the
    // listing's `return` would drop pairs.
    let n = 30;
    let input = one_block_input(n, 3);
    let outcome = count_pair_range(input, 60, 2);
    let expected = (n * (n - 1) / 2) as u64;
    assert_eq!(
        outcome.total_comparisons(),
        expected,
        "every pair must be computed exactly once"
    );
}

#[test]
fn a_return_style_reducer_would_drop_pairs() {
    // Simulate the listing's `return` semantics over the same pair
    // stream and show it computes fewer pairs — the regression the
    // break-fix prevents.
    use er_loadbalance::bdm::BlockDistributionMatrix;
    use er_loadbalance::pair_range::mapper::relevant_ranges;
    use er_loadbalance::pair_range::ranges::{RangeIndexer, RangePolicy};

    let n = 30u64;
    let bdm = BlockDistributionMatrix::from_counts(1, vec![(BlockKey::new("zz"), 0usize, n)]);
    let r = 60usize;
    let ranges = RangeIndexer::new(bdm.total_pairs(), r, RangePolicy::CeilDiv);

    let mut computed_break = 0u64;
    let mut computed_return = 0u64;
    for range in 0..r as u64 {
        // Entities relevant to this range, in index order (as the
        // shuffle would deliver them).
        let members: Vec<u64> = (0..n)
            .filter(|&x| relevant_ranges(&bdm, &ranges, 0, SourceId::R, x).contains(&range))
            .collect();
        // break semantics (ours).
        let mut buffer: Vec<u64> = Vec::new();
        for &x2 in &members {
            for &x1 in &buffer {
                let k = ranges.range_of(bdm.pair_index(0, x1, x2));
                if k == range {
                    computed_break += 1;
                } else if k > range {
                    break;
                }
            }
            buffer.push(x2);
        }
        // return semantics (the listing, read literally).
        let mut buffer: Vec<u64> = Vec::new();
        'group: for &x2 in &members {
            for &x1 in &buffer {
                let k = ranges.range_of(bdm.pair_index(0, x1, x2));
                if k == range {
                    computed_return += 1;
                } else if k > range {
                    break 'group;
                }
            }
            buffer.push(x2);
        }
    }
    let expected = n * (n - 1) / 2;
    assert_eq!(computed_break, expected, "break semantics are complete");
    assert!(
        computed_return < expected,
        "literal return semantics must demonstrably drop pairs \
         (computed {computed_return} of {expected}); if this ever fails, \
         the counterexample construction needs a bigger block"
    );
}

#[test]
fn every_range_holds_its_exact_share() {
    let n = 24;
    let input = one_block_input(n, 2);
    let r = 10;
    let outcome = count_pair_range(input, r, 1);
    let total = (n * (n - 1) / 2) as u64;
    let width = total.div_ceil(r as u64);
    let loads = outcome.reduce_loads().expect("one matching job");
    for (t, &load) in loads.iter().enumerate() {
        let start = (t as u64) * width;
        let expected = width.min(total.saturating_sub(start));
        assert_eq!(load, expected, "range {t}");
    }
}
