//! The appendix running example (paper Figure 15a) as shared test
//! data: 13 entities A–N over blocks w, x, y, z; source R in partition
//! Π0, source S in Π1 and Π2.
//!
//! Counts: w → R:2/S:2 (4 pairs), x → R:1/S:2 (2 pairs), y → R:1/S:0
//! (0 pairs), z → R:2/S:3 (6 pairs); 12 pairs total. Block y is F
//! alone: it has no pair, so it is not in the matrix, and with
//! lexicographic block order our indexes are w=0, x=1, z=2 (the paper's
//! figure keeps y and orders x differently; the pairs are the same).

use std::sync::Arc;

use er_core::blocking::{BlockKey, KeyText};
use er_core::{Entity, SourceId};
use mr_engine::input::Partitions;

use crate::bdm::{key_hash, BlockDistributionMatrix};
use crate::bdm_job::rank_keys;
use crate::{Ent, Ranks};

/// `(name, blocking key, partition)`; partition 0 is R, 1–2 are S.
pub const LAYOUT: &[(&str, &str, usize)] = &[
    ("A", "w", 0),
    ("B", "w", 0),
    ("C", "z", 0),
    ("D", "z", 0),
    ("E", "x", 0),
    ("F", "y", 0),
    ("G", "w", 1),
    ("H", "w", 1),
    ("J", "x", 1),
    ("K", "z", 1),
    ("L", "z", 1),
    ("M", "x", 2),
    ("N", "z", 2),
];

/// Source tags per partition.
pub fn partition_sources() -> Vec<SourceId> {
    vec![SourceId::R, SourceId::S, SourceId::S]
}

/// Raw entity partitions.
pub fn entity_partitions() -> Partitions<(), Ent> {
    let sources = partition_sources();
    let mut parts: Partitions<(), Ent> = vec![Vec::new(), Vec::new(), Vec::new()];
    for (id, (name, key, partition)) in LAYOUT.iter().enumerate() {
        let title = format!("{key} {name}");
        let entity = Entity::with_source(
            sources[*partition],
            id as u64,
            [("title", title.as_str()), ("name", name)],
        );
        parts[*partition].push(((), Arc::new(entity)));
    }
    parts
}

/// The blocking key of each entity of a partition: its title's first
/// letter.
fn keys_of(partition: &[((), Ent)]) -> KeyText {
    partition
        .iter()
        .map(|(_, entity)| &entity.get("title").unwrap()[..1])
        .collect()
}

/// Rank-annotated partitions (what the BDM job's side output
/// yields).
pub fn annotated_partitions() -> Partitions<Ranks, Ent> {
    entity_partitions()
        .into_iter()
        .map(|part| {
            let ranks = rank_keys(&keys_of(&part), key_hash, |_, _, _, _| {});
            let entities = part.into_iter().map(|(_, entity)| entity);
            ranks.into_iter().map(Ranks::One).zip(entities).collect()
        })
        .collect()
}

/// The example's source-tagged BDM.
pub fn bdm() -> BlockDistributionMatrix {
    let keys: Vec<Vec<BlockKey>> = entity_partitions()
        .iter()
        .map(|p| keys_of(p).iter().map(BlockKey::new).collect())
        .collect();
    BlockDistributionMatrix::from_key_partitions(&keys).with_sources(partition_sources())
}
