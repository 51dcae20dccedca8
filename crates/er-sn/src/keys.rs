//! Composite map-output keys of the Sorted Neighborhood jobs.
//!
//! The same composite-key discipline as the load-balancing strategies
//! (partition on a *component*, sort on the whole key) applied to a
//! total order: the window job routes on the range-partition index and
//! sorts on `(partition, sort key)`, so that each reduce task receives
//! one contiguous, fully sorted slice of the global order and
//! concatenating reduce tasks in index order reproduces it. The stitch
//! job of JobSN routes on the boundary index and sorts candidates
//! left-side-first by distance from the boundary.

use er_core::blocking::BlockKey;
use er_core::sortkey::SortKey;
use er_core::PreparedHandle;
use er_loadbalance::{Ent, Keyed};
use mr_engine::comparator::{by_projection, KeyCmp};
use mr_engine::partitioner::FnPartitioner;

/// Map output key of the window job: `(partition, sort key)`.
///
/// `Ord` sorts by partition first, then key; partitioning uses only
/// the partition component; grouping uses the *full* key, so the
/// reduce-side merge streams one small group per distinct sort key
/// and the range is never materialized — the window reducers carry
/// their ring across groups instead. Ties between equal sort keys
/// resolve by the engine's stable `(map task, emission order)`
/// guarantee — independent of the partition count, which is what
/// makes the match output invariant under `r`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnKey {
    /// Range-partition index (== reduce task index).
    pub partition: u32,
    /// The entity's sort key.
    pub key: SortKey,
}

impl SnKey {
    /// Partitioner: route on the partition component only.
    pub fn partitioner() -> FnPartitioner<SnKey> {
        FnPartitioner::new(|key: &SnKey, r: usize| (key.partition as usize) % r)
    }
}

impl std::fmt::Display for SnKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.partition, self.key)
    }
}

/// Map output value of the window jobs: the entity plus its replica
/// flag (RepSN's in-map boundary replication; always `false` under
/// JobSN).
///
/// The entity is wrapped as a [`Keyed`] under the constant `⊥` block
/// key so the sliding window can reuse the prepared-entity comparison
/// path ([`er_loadbalance::compare::PairComparer`]) unchanged — under
/// a single constant key the multi-pass gate is trivially open.
#[derive(Debug, Clone)]
pub struct SnEntity {
    /// The `⊥`-annotated entity.
    pub keyed: Keyed,
    /// Its prepared form in its map task's arena (see
    /// [`er_loadbalance::compare::EntityInterner`]).
    pub prepared: PreparedHandle,
    /// True for a RepSN boundary replica (window-primer only; replica
    /// × replica pairs are never compared — they belong to an earlier
    /// partition).
    pub replica: bool,
}

impl SnEntity {
    /// Wraps an original (non-replicated) entity, prepared as
    /// `prepared`.
    pub fn original(entity: Ent, prepared: PreparedHandle) -> Self {
        Self {
            keyed: bottom_keyed(entity),
            prepared,
            replica: false,
        }
    }

    /// Wraps a RepSN boundary replica, prepared as `prepared`.
    pub fn replica(entity: Ent, prepared: PreparedHandle) -> Self {
        Self {
            replica: true,
            ..Self::original(entity, prepared)
        }
    }

    /// The underlying entity.
    pub fn entity(&self) -> &Ent {
        &self.keyed.entity
    }

    /// The member a compare driver takes.
    pub fn member(&self) -> (&Keyed, PreparedHandle) {
        (&self.keyed, self.prepared)
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

/// Wraps a bare entity under the constant block key (shared by tests
/// and the oracle).
pub fn bottom_keyed(entity: Ent) -> Keyed {
    Keyed::single(BlockKey::bottom(), entity)
}

/// Test support: the entities of `entries` as one map task emits them
/// for `comparer` — originals with their handles — and the stage's
/// arenas.
#[cfg(test)]
pub(crate) fn staged<K>(
    comparer: &er_loadbalance::compare::PairComparer,
    entries: Vec<(K, Ent)>,
) -> (Vec<(K, SnEntity)>, Vec<er_core::PreparedArena>) {
    let mut interner = er_loadbalance::compare::EntityInterner::new(comparer);
    let entries = entries
        .into_iter()
        .map(|(key, entity)| {
            let prepared = interner.intern(&entity);
            (key, SnEntity::original(entity, prepared))
        })
        .collect();
    (entries, vec![interner.into_arena()])
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
            key: SortKey::new("zzz"),
        };
        let b = SnKey {
            partition: 1,
            key: SortKey::new("aaa"),
        };
        let c = SnKey {
            partition: 1,
            key: SortKey::new("bbb"),
        };
        assert!(a < b, "partition dominates the key");
        assert!(b < c, "same partition: sort key orders");
        assert_eq!(a.to_string(), "0.zzz");
    }

    #[test]
    fn sn_partitioner_routes_on_partition_component() {
        let p = SnKey::partitioner();
        let key = SnKey {
            partition: 2,
            key: SortKey::new("anything"),
        };
        assert_eq!(p.partition(&key, 4), 2);
        assert_eq!(p.partition(&key, 2), 0, "wraps when r shrank");
    }

    #[test]
    fn sn_natural_order_groups_by_distinct_full_key() {
        // Grouping == sorting for the window jobs: equal full keys
        // share a group, anything else separates.
        let a = SnKey {
            partition: 1,
            key: SortKey::new("a"),
        };
        let b = SnKey {
            partition: 1,
            key: SortKey::new("z"),
        };
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
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
        let (entries, _) = staged(&comparer, vec![((), ent(1)), ((), ent(2))]);
        let original = entries[0].1.clone();
        let replica = SnEntity::replica(ent(2), entries[1].1.prepared);
        assert!(!original.replica);
        assert!(replica.replica);
        assert_eq!(original.keyed.key, BlockKey::bottom());
        assert_eq!(original.entity().id().0, 1);
        // The bottom-keyed wrap keeps the multi-pass gate open.
        assert!(original
            .keyed
            .should_compare_in(&replica.keyed, &BlockKey::bottom()));
    }
}
