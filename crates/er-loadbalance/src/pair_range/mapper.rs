//! PairRange map function (Algorithm 2, lines 1–26).
//!
//! For each entity the mapper determines its global entity index `x`
//! and every range that contains at least one of its pairs:
//!
//! * the *column run* `(x, x+1) … (x, N−1)` is contiguous in the pair
//!   index space, so all ranges from `range(p(x, x+1))` through
//!   `range(p(x, N−1))` are relevant;
//! * the *row pairs* `(0, x) … (x−1, x)` are scattered (one per
//!   column) — the literal reading of the listing's line 19–20 loop
//!   (`ranges ∪ {k}`) would insert raw loop counters instead of range
//!   indexes, which contradicts both the prose and the worked example,
//!   so we compute `rangeIndex(k, x, N, i)` as intended. The distance
//!   between consecutive row pairs shrinks as `k` grows, which lets
//!   [`for_each_relevant_interval`] report an entity's ranges in time
//!   proportional to their number instead of visiting every pair.

use std::sync::Arc;

use er_core::pairs::{rect_cell_index, triangle_cell_index};
use er_core::SourceId;
use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};

use super::enumeration::EntityIndexer;
use super::ranges::{RangeIndexer, RangePolicy};
use crate::bdm::BlockDistributionMatrix;
use crate::compare::{EntityInterner, EntityTable, PairComparer};
use crate::keys::{key_index, PairRangeKey, PairRangeValue};
use crate::Keyed;

/// The PairRange mapper. Each routed entity is prepared once, however
/// many ranges receive it.
#[derive(Clone)]
pub struct PairRangeMapper {
    bdm: Arc<BlockDistributionMatrix>,
    policy: RangePolicy,
    state: Option<MapState>,
    interner: EntityInterner,
}

#[derive(Clone)]
struct MapState {
    partition: usize,
    source: SourceId,
    indexer: EntityIndexer,
    ranges: RangeIndexer,
}

impl PairRangeMapper {
    /// Creates the mapper over a computed BDM, preparing entities for
    /// `comparer`.
    pub fn new(
        bdm: Arc<BlockDistributionMatrix>,
        policy: RangePolicy,
        comparer: &PairComparer,
    ) -> Self {
        Self {
            bdm,
            policy,
            state: None,
            interner: EntityInterner::new(comparer),
        }
    }
}

/// Reports the ranges relevant for the entity with index `x` of
/// `source` in `block` as disjoint inclusive intervals
/// `emit(first, last)` in ascending order — the one membership routine
/// the mapper and the analytic workload model share. `source` only
/// matters to a source-tagged BDM; one source is all `R`.
pub fn for_each_relevant_interval(
    bdm: &BlockDistributionMatrix,
    ranges: &RangeIndexer,
    block: usize,
    source: SourceId,
    x: u64,
    emit: impl FnMut(u64, u64),
) {
    let offset = bdm.pair_offset(block);
    match bdm.side_sizes(block) {
        None => triangle_intervals(ranges, bdm.size(block), offset, x, emit),
        Some(sides) => rectangle_intervals(ranges, sides, offset, source, x, emit),
    }
}

/// The intervals of entity `x` in a block of `n` entities whose pairs
/// start at `offset`.
///
/// Monotonicity argument. In pair-index order the entity's `N − 1`
/// pairs are its row pairs `(0, x) … (x−1, x)` followed by its column
/// run `(x, x+1) … (x, N−1)`. With the column-wise cell index,
/// consecutive row pairs are `N − k − 2` apart (`k ≤ x − 2`), the last
/// row pair and the first column pair `N − x`, column pairs 1: the
/// distances never grow. So there is one position `dense_from` before
/// which every pair is followed by a gap wider than any range — such a
/// pair is alone in its range — and from which on no gap can skip a
/// range (see [`RangeIndexer::min_width`]) — those pairs cover every
/// range from theirs to the last pair's. The cost is one `range_of`
/// per reported interval, never one per pair.
///
/// The column run always counts as gap-free, also when `r > P` under
/// [`RangePolicy::Proportional`] leaves empty ranges between
/// neighbouring pair indexes: the reducers ignore the surplus records,
/// and map output stays what Algorithm 2's `first..=last` loop emits.
fn triangle_intervals(
    ranges: &RangeIndexer,
    n: u64,
    offset: u64,
    x: u64,
    mut emit: impl FnMut(u64, u64),
) {
    if n < 2 {
        return;
    }
    // The entity's k-th pair in pair-index order, k in 0..=n−2.
    let range_of_pair = |k: u64| {
        let cell = if k < x {
            triangle_cell_index(k, x, n)
        } else {
            triangle_cell_index(x, k + 1, n)
        };
        ranges.range_of(cell + offset)
    };
    let width = ranges.min_width();
    // The gaps before the column run are N−2, N−3, …, N−x, N−x: if
    // the last one cannot skip a range, neither can those from row
    // N−2−width on.
    let dense_from = if x >= 1 && n - x <= width {
        (n - 2).saturating_sub(width).min(x - 1)
    } else {
        x.min(n - 2)
    };
    for k in 0..dense_from {
        let range = range_of_pair(k);
        emit(range, range);
    }
    emit(range_of_pair(dense_from), range_of_pair(n - 2));
}

/// The intervals of entity `x` of `source` in a block of `nr × ns`
/// cross pairs starting at `offset`.
///
/// An R entity's pairs are one contiguous run. An S entity's pairs
/// `(0, x), (1, x), …` are `|Φ_S|` apart: no wider than the narrowest
/// range (see [`RangeIndexer::min_width`]) they skip none, otherwise
/// no two of them share one — one `range_of` per reported interval
/// either way.
fn rectangle_intervals(
    ranges: &RangeIndexer,
    (nr, ns): (u64, u64),
    offset: u64,
    source: SourceId,
    x: u64,
    mut emit: impl FnMut(u64, u64),
) {
    if nr == 0 || ns == 0 {
        return;
    }
    let range_of_pair = |r: u64, s: u64| ranges.range_of(rect_cell_index(r, s, ns) + offset);
    if source == SourceId::R {
        // Row: pairs (x, 0) .. (x, ns−1) — contiguous.
        emit(range_of_pair(x, 0), range_of_pair(x, ns - 1));
    } else if ns <= ranges.min_width() {
        // Column: pairs (0, x) .. (nr−1, x) — stride ns.
        emit(range_of_pair(0, x), range_of_pair(nr - 1, x));
    } else {
        for r in 0..nr {
            let range = range_of_pair(r, x);
            emit(range, range);
        }
    }
}

/// The ranges [`for_each_relevant_interval`] reports, one by one in
/// ascending order (tests and benches; the mapper and the analysis
/// consume the intervals directly).
pub fn relevant_ranges(
    bdm: &BlockDistributionMatrix,
    ranges: &RangeIndexer,
    block: usize,
    source: SourceId,
    x: u64,
) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_relevant_interval(bdm, ranges, block, source, x, |first, last| {
        out.extend(first..=last)
    });
    out
}

impl Mapper for PairRangeMapper {
    type KIn = u32;
    type VIn = Keyed;
    type KOut = PairRangeKey;
    type VOut = PairRangeValue;
    type Side = ();
    type Product = EntityTable;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.state = Some(MapState {
            partition: info.task_index,
            source: self.bdm.source_of(info.task_index),
            indexer: EntityIndexer::for_partition(&self.bdm, info.task_index),
            ranges: RangeIndexer::new(self.bdm.total_pairs(), info.num_reduce_tasks, self.policy),
        });
        self.interner.setup(info);
    }

    fn map(
        &mut self,
        rank: &u32,
        keyed: &Keyed,
        ctx: &mut MapContext<PairRangeKey, PairRangeValue, ()>,
    ) {
        let state = self.state.as_mut().expect("setup ran");
        // A pruned block has no pair, hence no range to go to.
        let Some(block) = self.bdm.block_of_rank(state.partition, *rank, &keyed.key) else {
            return;
        };
        let x = state.indexer.next(block as usize);
        let source = state.source;
        // Interned at its first emission; the interner hands the later
        // ones the same handle.
        let interner = &mut self.interner;
        let emit = |first: u64, last: u64| {
            for range in first..=last {
                ctx.emit(
                    PairRangeKey {
                        range: key_index(range, "range index"),
                        block,
                        source,
                        index: x,
                    },
                    interner.intern(&keyed.entity, &keyed.all_keys),
                );
            }
        };
        for_each_relevant_interval(&self.bdm, &state.ranges, block as usize, source, x, emit);
    }

    fn finish(&mut self, ctx: &mut MapContext<PairRangeKey, PairRangeValue, ()>) {
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::running_example;
    use er_core::blocking::BlockKey;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The previous membership routine, kept as the oracle: one
    /// `range_of` and one set insert per row pair.
    fn brute_force_ranges(
        bdm: &BlockDistributionMatrix,
        ranges: &RangeIndexer,
        block: usize,
        x: u64,
    ) -> Vec<u64> {
        let n = bdm.size(block);
        let mut out = BTreeSet::new();
        if n < 2 {
            return Vec::new();
        }
        for k in 0..x {
            out.insert(ranges.range_of(bdm.pair_index(block, k, x)));
        }
        if x + 1 < n {
            let first = ranges.range_of(bdm.pair_index(block, x, x + 1));
            let last = ranges.range_of(bdm.pair_index(block, x, n - 1));
            out.extend(first..=last);
        }
        out.into_iter().collect()
    }

    proptest! {
        #[test]
        fn reported_ranges_equal_the_brute_force_walk(
            sizes in proptest::collection::vec(0u64..40, 1..6),
            r in 1usize..=200,
            policy in prop_oneof![Just(RangePolicy::CeilDiv), Just(RangePolicy::Proportional)],
            pick in 0u64..1_000,
        ) {
            let bdm = BlockDistributionMatrix::from_counts(
                1,
                sizes
                    .iter()
                    .enumerate()
                    .map(|(k, &n)| (BlockKey::new(format!("b{k}")), 0, n)),
            );
            let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
            for block in 0..bdm.num_blocks() {
                let n = bdm.size(block);
                if n == 0 {
                    continue;
                }
                for x in [0, 1, n.saturating_sub(2), n - 1, pick % n] {
                    if x < n {
                        prop_assert_eq!(
                            relevant_ranges(&bdm, &ranges, block, SourceId::R, x),
                            brute_force_ranges(&bdm, &ranges, block, x),
                            "block {} (N = {}), x = {}", block, n, x
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_blocks_equal_the_brute_force_walk_exhaustively() {
        // Every x of every block size 2..=14 behind a 3-pair block, at
        // every r from one range to more ranges than pairs.
        for n in 2u64..=14 {
            let bdm = BlockDistributionMatrix::from_counts(
                1,
                vec![(BlockKey::new("a"), 0, 3), (BlockKey::new("b"), 0, n)],
            );
            for r in 1..=bdm.total_pairs() as usize + 3 {
                for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
                    let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
                    for x in 0..n {
                        assert_eq!(
                            relevant_ranges(&bdm, &ranges, 1, SourceId::R, x),
                            brute_force_ranges(&bdm, &ranges, 1, x),
                            "N = {n}, r = {r}, {policy:?}, x = {x}"
                        );
                    }
                }
            }
        }
    }

    fn run_partition(p: usize) -> Vec<(PairRangeKey, String)> {
        let bdm = Arc::new(running_example_bdm());
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let mut mapper = PairRangeMapper::new(bdm, RangePolicy::CeilDiv, &comparer);
        let info = MapTaskInfo {
            task_index: p,
            num_map_tasks: 2,
            num_reduce_tasks: 3,
        };
        mapper.setup(&info);
        let mut out = Vec::new();
        let input = running_example::annotated_partitions();
        for (rank, keyed) in &input[p] {
            let mut ctx = MapContext::for_testing(info);
            mapper.map(rank, keyed, &mut ctx);
            let name = keyed.entity.get("name").unwrap();
            for (k, v) in ctx.output() {
                assert_eq!(v.arena as usize, p, "the map task's table");
                out.push((*k, name.to_string()));
            }
        }
        out
    }

    fn map_one(rank: u32, key: &str) {
        let bdm = Arc::new(running_example_bdm());
        let comparer = PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let mapper = PairRangeMapper::new(bdm, RangePolicy::CeilDiv, &comparer);
        running_example::map_one(mapper, 2, rank, key);
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn unknown_key_panics() {
        // An in-range rank whose block has another key.
        map_one(1, "nope");
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn rank_past_the_partitions_blocks_panics() {
        map_one(4, "z");
    }

    #[test]
    fn entity_m_is_sent_to_ranges_1_and_2() {
        // Paper: "map therefore outputs two tuples (1.3.2, M) and
        // (2.3.2, M)".
        let outputs = run_partition(1);
        let m: Vec<&PairRangeKey> = outputs
            .iter()
            .filter(|(_, n)| n == "M")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|k| (k.range, k.block, k.index) == (1, 3, 2)));
        assert!(m.iter().any(|k| (k.range, k.block, k.index) == (2, 3, 2)));
    }

    #[test]
    fn entity_f_is_only_in_range_1() {
        // F (block z, index 0) has pairs 10..13, all in range [7,13]
        // (paper: F "does not take part in any of the pairs with index
        // 14 through 19").
        let outputs = run_partition(0);
        let f: Vec<&PairRangeKey> = outputs
            .iter()
            .filter(|(_, n)| n == "F")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].range, f[0].block, f[0].index), (1, 3, 0));
    }

    #[test]
    fn block_w_entities_go_to_range_0_only() {
        // Block w's pairs are 0..=5, all within range [0,6].
        let outputs = run_partition(0);
        for name in ["A", "B"] {
            let keys: Vec<&PairRangeKey> = outputs
                .iter()
                .filter(|(_, n)| n == name)
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys.len(), 1, "{name}");
            assert_eq!(keys[0].range, 0, "{name}");
        }
    }

    #[test]
    fn total_map_output_for_the_example() {
        // Figure 7's dataflow: range 0 receives blocks w (4 entities)
        // and x (2); range 1 receives y (3) and all of z (5); range 2
        // receives z except F (4). Total = 18 emitted pairs.
        let total = run_partition(0).len() + run_partition(1).len();
        assert_eq!(total, 18);
    }

    #[test]
    fn relevant_ranges_cover_every_pair_exactly_once_per_range() {
        // Union over entities of {entity} × relevant_ranges must cover
        // each range's pairs: for every pair (x, y), both x and y are
        // sent to the pair's range.
        let bdm = running_example_bdm();
        for r in [1usize, 2, 3, 5, 20] {
            let ranges = RangeIndexer::new(bdm.total_pairs(), r, RangePolicy::CeilDiv);
            for block in 0..bdm.num_blocks() {
                let n = bdm.size(block);
                for x in 0..n {
                    for y in (x + 1)..n {
                        let range = ranges.range_of(bdm.pair_index(block, x, y));
                        let rx = relevant_ranges(&bdm, &ranges, block, SourceId::R, x);
                        let ry = relevant_ranges(&bdm, &ranges, block, SourceId::R, y);
                        assert!(rx.contains(&range), "x={x} y={y} r={r}");
                        assert!(ry.contains(&range), "x={x} y={y} r={r}");
                    }
                }
            }
        }
    }
}
