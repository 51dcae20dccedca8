//! Quantitative balance guarantees, as properties over random block
//! distributions.

use dedupe_mr::prelude::*;
use er_loadbalance::analysis::analyze;
use proptest::prelude::*;

fn bdm_strategy() -> impl Strategy<Value = BlockDistributionMatrix> {
    // Up to 12 blocks spread over up to 5 partitions with wildly
    // varying sizes (including the heavy-tail case).
    let cell = 0u64..40;
    proptest::collection::vec(proptest::collection::vec(cell, 2..6), 1..13).prop_map(|rows| {
        let m = rows.iter().map(Vec::len).max().unwrap();
        let mut counts = Vec::new();
        for (k, row) in rows.iter().enumerate() {
            for (p, &c) in row.iter().enumerate() {
                if c > 0 {
                    counts.push((BlockKey::new(format!("b{k:02}")), p, c));
                }
            }
        }
        BlockDistributionMatrix::from_counts(m, counts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn every_strategy_conserves_pairs(bdm in bdm_strategy(), r in 1usize..20) {
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let w = analyze(&bdm, strategy, r, RangePolicy::CeilDiv);
            prop_assert_eq!(w.total_comparisons(), bdm.total_pairs(), "{}", strategy);
        }
    }

    #[test]
    fn pair_range_ceildiv_load_is_at_most_ceil_p_over_r(bdm in bdm_strategy(), r in 1usize..20) {
        let w = analyze(&bdm, StrategyKind::PairRange, r, RangePolicy::CeilDiv);
        let bound = bdm.total_pairs().div_ceil(r as u64);
        prop_assert!(w.max_comparisons() <= bound);
    }

    #[test]
    fn pair_range_proportional_is_within_one_pair(bdm in bdm_strategy(), r in 1usize..20) {
        let w = analyze(&bdm, StrategyKind::PairRange, r, RangePolicy::Proportional);
        let max = w.max_comparisons();
        let min = w.reduce_comparisons.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "loads {:?}", w.reduce_comparisons);
    }

    #[test]
    fn block_split_is_within_lpt_bound_of_the_ideal(bdm in bdm_strategy(), r in 1usize..20) {
        // LPT: makespan <= 4/3 OPT + largest-task effects; OPT >=
        // max(mean, largest task). The largest match task can itself
        // exceed the mean when a block is confined to one partition —
        // the bound uses the actual task sizes.
        let tasks = er_loadbalance::block_split::create_match_tasks(&bdm, r);
        if tasks.is_empty() {
            return Ok(());
        }
        let total: u64 = tasks.iter().map(|t| t.comparisons).sum();
        let largest = tasks.iter().map(|t| t.comparisons).max().unwrap();
        let w = analyze(&bdm, StrategyKind::BlockSplit, r, RangePolicy::CeilDiv);
        let lower = (total as f64 / r as f64).max(largest as f64);
        prop_assert!(
            w.max_comparisons() as f64 <= lower * 4.0 / 3.0 + 1.0,
            "max load {} vs lower bound {}",
            w.max_comparisons(),
            lower
        );
    }

    #[test]
    fn balanced_strategies_never_lose_to_basic_on_max_load(
        bdm in bdm_strategy(),
        r in 2usize..20,
    ) {
        let basic = analyze(&bdm, StrategyKind::Basic, r, RangePolicy::CeilDiv);
        let pr = analyze(&bdm, StrategyKind::PairRange, r, RangePolicy::CeilDiv);
        // PairRange's max is ceil(P/r); Basic's max is at least the
        // largest block, which is at least ... in all cases PairRange
        // <= Basic + 1 (the +1 covers ceil rounding when Basic is
        // perfectly balanced).
        prop_assert!(
            pr.max_comparisons() <= basic.max_comparisons() + 1,
            "PairRange {} vs Basic {}",
            pr.max_comparisons(),
            basic.max_comparisons()
        );
    }

    #[test]
    fn block_split_replication_is_bounded_by_nonempty_partitions(
        bdm in bdm_strategy(),
        r in 1usize..20,
    ) {
        let w = analyze(&bdm, StrategyKind::BlockSplit, r, RangePolicy::CeilDiv);
        // Only the entities of blocks with a pair are in the matrix,
        // and only those are emitted at all.
        let entities: u64 = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum();
        prop_assert!(w.map_output_records <= entities * bdm.num_partitions() as u64);
    }
}
