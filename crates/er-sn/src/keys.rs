//! Composite map-output keys of the Sorted Neighborhood jobs.
//!
//! The same composite-key discipline as the load-balancing strategies
//! (partition on a *component*, sort on the whole key) applied to a
//! total order: the window job routes on the range-partition index and
//! sorts on `(partition, position)` — the entity's global position from
//! the distribution job ([`crate::sample`]), so no key text is
//! compared, cloned or dropped after it — and each reduce task receives
//! one contiguous, fully sorted slice of the global order, a range of
//! [`SnRanges`]; concatenating reduce tasks in index order reproduces
//! it. The stitch job of JobSN routes on the boundary index and sorts
//! candidates left-side-first by distance from the boundary.

use er_core::PreparedHandle;
use er_loadbalance::Ent;
use mr_engine::comparator::{by_projection, KeyCmp};
use mr_engine::partitioner::FnPartitioner;

/// Map output key of the window jobs: `(partition, position)`, eight
/// bytes and no pointer.
///
/// `Ord` sorts by partition first, then position — the global sort
/// order, as positions number the entities in `(sort key, map task,
/// record index)` order; partitioning uses only the partition
/// component; grouping uses the *full* key, so every group is one
/// entity and the range is never materialized — the window reducers
/// carry their ring across groups instead. Ties between equal sort keys
/// are settled by the positions themselves, independent of the
/// partition count, which is what makes the match output invariant
/// under `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnKey {
    /// Range-partition index (== reduce task index).
    pub partition: u32,
    /// The entity's global position.
    pub position: u32,
}

impl SnKey {
    /// Partitioner: route on the partition component only.
    pub fn partitioner() -> FnPartitioner<SnKey> {
        FnPartitioner::new(|key: &SnKey, r: usize| (key.partition as usize) % r)
    }
}

impl std::fmt::Display for SnKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.partition, self.position)
    }
}

/// The key ranges of a Sorted Neighborhood run: `r` contiguous ranges
/// of global positions, cut so that each holds an equal share of the
/// window pairs.
///
/// A window pair belongs to the range of its later entity, and the
/// entity at position `j` is the later entity of `min(j, w − 1)`
/// pairs — PairRange's even split of the pair index space, applied to
/// SN's band of pairs. The cuts are therefore a function of `(n, w, r)`
/// alone: no key histogram, no key text. Each range holds `C(n) / r`
/// pairs give or take `w − 1`, however the sort keys tie, where
/// `C(k) = Σ_{j<k} min(j, w − 1)`. Ranges may be thin or empty when
/// there are fewer than `w − 1` window pairs per range; both strategies
/// are exact on any layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnRanges {
    /// `starts[q]`: the first position of range `q + 1`,
    /// non-decreasing and at most `n`.
    starts: Vec<u64>,
}

impl SnRanges {
    /// Cuts positions `0..entities` into `ranges` ranges of equal
    /// window-pair load under window `window`: the start of range `q`
    /// is the smallest `k` with `C(k) ≥ ⌈C(n) · q / r⌉`.
    ///
    /// # Panics
    /// If `window < 2` or `ranges` is zero.
    pub fn new(entities: u64, window: usize, ranges: usize) -> Self {
        assert!(window >= 2, "a sliding window must span at least 2 slots");
        assert!(ranges > 0, "at least one partition is required");
        let reach = u64::try_from(window - 1).unwrap_or(u64::MAX).min(entities);
        let total = pairs_before(entities, reach);
        let r = ranges as u128;
        let starts = (1..ranges as u128)
            .map(|q| {
                // ⌈total · q / r⌉, without forming total · q.
                let target = total / r * q + (total % r * q).div_ceil(r);
                let (mut lo, mut hi) = (0, entities);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if pairs_before(mid, reach) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            })
            .collect();
        Self { starts }
    }

    /// The range that holds `position`.
    pub fn partition_of(&self, position: u32) -> usize {
        self.starts
            .partition_point(|&start| start <= u64::from(position))
    }

    /// The first position of every range but range 0, in range order.
    pub(crate) fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The number of ranges, `r`.
    pub(crate) fn num_ranges(&self) -> usize {
        self.starts.len() + 1
    }

    /// Test support: the ranges that start at `starts`.
    #[cfg(test)]
    pub(crate) fn from_starts(starts: Vec<u64>) -> Self {
        assert!(starts.windows(2).all(|s| s[0] <= s[1]));
        Self { starts }
    }
}

/// `C(k) = Σ_{j<k} min(j, reach)`: the window pairs whose later entity
/// lies before position `k`. Exact in `u128` for every `u64` position.
fn pairs_before(k: u64, reach: u64) -> u128 {
    let (k, reach) = (u128::from(k), u128::from(reach));
    if k <= reach {
        k * k.saturating_sub(1) / 2
    } else {
        reach * (reach + 1) / 2 + (k - 1 - reach) * reach
    }
}

/// Map output value of the window jobs and of JobSN's stitch job: the
/// entity's row in its map task's table, its replica flag (RepSN's
/// in-map boundary replication; always `false` under JobSN) and the
/// entity itself, which JobSN publishes as a boundary candidate.
///
/// The row's key list is the one block every window compares under
/// ([`SN_BLOCK`]), so the sliding window reuses the prepared-entity
/// comparison path ([`er_loadbalance::compare::GroupComparer`])
/// unchanged — under a single constant block the multi-pass gate is
/// trivially open.
#[derive(Debug, Clone)]
pub struct SnEntity {
    /// The entity.
    pub entity: Ent,
    /// Its row in its map task's table (see
    /// [`er_loadbalance::compare::EntityInterner`]).
    pub prepared: PreparedHandle,
    /// True for a RepSN boundary replica (window-primer only; replica
    /// × replica pairs are never compared — they belong to an earlier
    /// partition).
    pub replica: bool,
}

impl SnEntity {
    /// An original (non-replicated) entity, prepared as `prepared`.
    pub fn original(entity: Ent, prepared: PreparedHandle) -> Self {
        Self {
            entity,
            prepared,
            replica: false,
        }
    }

    /// A RepSN boundary replica, prepared as `prepared`.
    pub fn replica(entity: Ent, prepared: PreparedHandle) -> Self {
        Self {
            replica: true,
            ..Self::original(entity, prepared)
        }
    }
}

/// Which side of a partition boundary a JobSN stitch candidate lies
/// on. `Left < Right`, so a stitch reduce group buffers the (few)
/// left-side entities before streaming the right side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundarySide {
    /// Last entities of the partition directly before the boundary.
    Left,
    /// First entities of the global order after the boundary (may span
    /// several thin partitions).
    Right,
}

/// Map output key of the JobSN stitch job:
/// `(boundary, side, distance)`.
///
/// `boundary` is the index of the gap after partition `boundary`;
/// `dist` is the 1-based number of global sort positions between the
/// entity and the boundary. A left entity at distance `dl` and a right
/// entity at distance `dr` are `dl + dr - 1` positions apart, so the
/// window-`w` condition is `dl + dr ≤ w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoundaryKey {
    /// Boundary index (between partitions `boundary` and `boundary+1`).
    pub boundary: u32,
    /// Which side of the boundary.
    pub side: BoundarySide,
    /// 1-based distance from the boundary.
    pub dist: u32,
}

impl BoundaryKey {
    /// Partitioner: route on the boundary component only.
    pub fn partitioner() -> FnPartitioner<BoundaryKey> {
        FnPartitioner::new(|key: &BoundaryKey, r: usize| (key.boundary as usize) % r)
    }

    /// Grouping comparator: boundary only — one group per boundary.
    pub fn group_cmp() -> KeyCmp<BoundaryKey> {
        by_projection(|k: &BoundaryKey| k.boundary)
    }
}

impl std::fmt::Display for BoundaryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = match self.side {
            BoundarySide::Left => "L",
            BoundarySide::Right => "R",
        };
        write!(f, "{}.{side}{}", self.boundary, self.dist)
    }
}

/// The one block every Sorted Neighborhood window compares under: an
/// SN map task interns each entity with the key list `[SN_BLOCK]`.
pub const SN_BLOCK: u32 = 0;

/// Test support: the entities of `entries` as one map task emits them
/// for `comparer` — originals with their handles — and the stage's
/// tables.
#[cfg(test)]
pub(crate) fn staged<K>(
    comparer: &er_loadbalance::compare::PairComparer,
    entries: Vec<(K, Ent)>,
) -> (
    Vec<(K, SnEntity)>,
    Vec<er_loadbalance::compare::EntityTable>,
) {
    let mut interner = er_loadbalance::compare::EntityInterner::new(comparer);
    let entries = entries
        .into_iter()
        .map(|(key, entity)| {
            let prepared = interner.intern(&entity, &[SN_BLOCK]);
            (key, SnEntity::original(entity, prepared))
        })
        .collect();
    (entries, vec![interner.into_table()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::partitioner::Partitioner;
    use std::sync::Arc;

    fn ent(id: u64) -> Ent {
        Arc::new(Entity::new(id, [("title", "t")]))
    }

    #[test]
    fn sn_key_orders_partition_first_then_key() {
        let a = SnKey {
            partition: 0,
            position: 9,
        };
        let b = SnKey {
            partition: 1,
            position: 0,
        };
        let c = SnKey {
            partition: 1,
            position: 1,
        };
        assert!(a < b, "partition dominates the position");
        assert!(b < c, "same partition: the position orders");
        assert_eq!(a.to_string(), "0.9");
    }

    #[test]
    fn sn_partitioner_routes_on_partition_component() {
        let p = SnKey::partitioner();
        let key = SnKey {
            partition: 2,
            position: 7,
        };
        assert_eq!(p.partition(&key, 4), 2);
        assert_eq!(p.partition(&key, 2), 0, "wraps when r shrank");
    }

    /// `0`, the starts, `n`: range `q` spans `bounds[q]..bounds[q + 1]`.
    fn bounds(ranges: &SnRanges, n: u64) -> Vec<u64> {
        let starts = ranges.starts().iter().copied();
        std::iter::once(0).chain(starts).chain([n]).collect()
    }

    /// Range `q`'s window pairs lie within `reach ≤ w − 1` of
    /// `C(n) / r`: `|load · r − C(n)| ≤ reach · r`.
    fn assert_even(load: u128, total: u128, reach: u64, r: usize) {
        let (r, reach) = (r as u128, u128::from(reach));
        assert!(
            load * r <= total + reach * r && total <= load * r + reach * r,
            "load {load} against {total} / {r}"
        );
    }

    /// Every cut over `n ≤ 40` entities, windows `2..=n + 2` and
    /// `usize::MAX`, `r ≤ 8`: the starts tile `[0, n)`, `partition_of`
    /// agrees with them, and each range holds `C(s_{q+1}) − C(s_q)`
    /// window pairs (counted one by one), within `w − 1` of `C(n) / r`.
    #[test]
    fn ranges_cut_the_window_pairs_evenly() {
        for n in 0..=40u64 {
            for w in (2..=n as usize + 2).chain([usize::MAX]) {
                let reach = (w as u64 - 1).min(n);
                let pairs_at = |j: u64| u128::from(j.min(reach));
                let total: u128 = (0..n).map(pairs_at).sum();
                assert_eq!(pairs_before(n, reach), total, "n {n}, w {w}");
                for r in 1..=8 {
                    let ranges = SnRanges::new(n, w, r);
                    assert_eq!(ranges.num_ranges(), r);
                    for (q, span) in bounds(&ranges, n).windows(2).enumerate() {
                        let (start, end) = (span[0], span[1]);
                        assert!(start <= end, "n {n}, w {w}, r {r}: {:?}", ranges);
                        for position in start..end {
                            assert_eq!(ranges.partition_of(position as u32), q);
                        }
                        let load: u128 = (start..end).map(pairs_at).sum();
                        let closed = pairs_before(end, reach) - pairs_before(start, reach);
                        assert_eq!(load, closed, "n {n}, w {w}, r {r}, range {q}");
                        assert_even(load, total, reach, r);
                    }
                }
            }
        }
    }

    /// `n = u32::MAX` under an unbounded window: `C(n)` nears `2^63`,
    /// and the quantile targets stay exact (no entity is allocated).
    #[test]
    fn ranges_over_u32_max_entities_do_not_overflow() {
        let n = u64::from(u32::MAX);
        let total = pairs_before(n, n);
        assert_eq!(total, u128::from(n) * u128::from(n - 1) / 2);
        for r in 1..=64 {
            let ranges = SnRanges::new(n, usize::MAX, r);
            for span in bounds(&ranges, n).windows(2) {
                assert!(span[0] <= span[1], "r {r}: {:?}", ranges);
                let load = pairs_before(span[1], n) - pairs_before(span[0], n);
                assert_even(load, total, n, r);
            }
            assert_eq!(ranges.partition_of(0), 0);
            assert_eq!(ranges.partition_of(u32::MAX - 1), r - 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_ranges_rejected() {
        let _ = SnRanges::new(4, 3, 0);
    }

    #[test]
    fn sn_natural_order_groups_by_distinct_full_key() {
        // Grouping == sorting for the window jobs: equal full keys
        // share a group, anything else separates.
        let a = SnKey {
            partition: 1,
            position: 0,
        };
        let b = SnKey {
            partition: 1,
            position: 25,
        };
        let same = SnKey {
            partition: 1,
            position: 0,
        };
        assert_eq!(a.cmp(&same), std::cmp::Ordering::Equal);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn boundary_key_sorts_left_before_right_by_distance() {
        let mk = |boundary, side, dist| BoundaryKey {
            boundary,
            side,
            dist,
        };
        let mut keys = [
            mk(0, BoundarySide::Right, 1),
            mk(0, BoundarySide::Left, 2),
            mk(0, BoundarySide::Left, 1),
            mk(1, BoundarySide::Left, 1),
        ];
        keys.sort();
        assert_eq!(keys[0], mk(0, BoundarySide::Left, 1));
        assert_eq!(keys[1], mk(0, BoundarySide::Left, 2));
        assert_eq!(keys[2], mk(0, BoundarySide::Right, 1));
        assert_eq!(keys[3].boundary, 1);
        assert_eq!(keys[0].to_string(), "0.L1");
        assert_eq!(keys[2].to_string(), "0.R1");
    }

    #[test]
    fn boundary_partitioner_and_grouping() {
        let p = BoundaryKey::partitioner();
        let key = BoundaryKey {
            boundary: 5,
            side: BoundarySide::Right,
            dist: 3,
        };
        assert_eq!(p.partition(&key, 4), 1);
        let cmp = BoundaryKey::group_cmp();
        let other = BoundaryKey {
            boundary: 5,
            side: BoundarySide::Left,
            dist: 1,
        };
        assert_eq!(cmp(&key, &other), std::cmp::Ordering::Equal);
    }

    #[test]
    fn sn_entity_wraps_under_the_bottom_key() {
        let comparer =
            er_loadbalance::compare::PairComparer::new(Arc::new(er_core::Matcher::paper_default()));
        let (entries, tables) = staged(&comparer, vec![((), ent(1)), ((), ent(2))]);
        let original = entries[0].1.clone();
        let replica = SnEntity::replica(ent(2), entries[1].1.prepared);
        assert!(!original.replica);
        assert!(replica.replica);
        assert_eq!(original.entity.id().0, 1);
        // Rows in the one window block alone keep the multi-pass gate
        // open.
        for value in [&original, &replica] {
            let row = value.prepared;
            assert_eq!(tables[row.arena as usize].keys(row.id), [SN_BLOCK]);
        }
    }

    /// The window jobs shuffle, sort and group integers: no key text is
    /// compared, cloned or dropped after the distribution job.
    #[test]
    fn an_sn_key_is_pointer_free() {
        assert!(!std::mem::needs_drop::<SnKey>());
        assert!(std::mem::size_of::<SnKey>() <= 8);
    }

    /// A window job moves one value per entity and per replica: the
    /// entity (JobSN publishes it), its row and its replica flag.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn an_sn_value_is_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<SnEntity>(), 24);
    }
}
