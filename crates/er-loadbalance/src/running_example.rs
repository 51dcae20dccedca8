//! The paper's running example as shared test data.
//!
//! Figure 3: 14 entities A–O (letter I unused) in two input partitions
//! with blocking keys w, x, y, z:
//!
//! ```text
//! Π0: A:w  B:w  C:x  D:y  E:y  F:z  G:z
//! Π1: H:w  J:w  K:x  L:y  M:z  N:z  O:z
//! ```
//!
//! This induces the Figure 4 BDM (`w:[2,2] x:[1,1] y:[2,1] z:[2,3]`),
//! P = 20 pairs, the Figure 5 BlockSplit distribution and the
//! Figure 6/7 PairRange enumeration. Entity "titles" here are the
//! single-letter names, so no two of them match: the paper's example
//! is about routing, not similarity.

use std::sync::Arc;

use er_core::blocking::KeyText;
use er_core::Entity;
use mr_engine::input::Partitions;

use crate::bdm::key_hash;
use crate::bdm_job::rank_keys;
use crate::{Ent, Ranks};

/// `(name, blocking key, partition)` for all 14 entities, in the
/// paper's order.
pub const LAYOUT: &[(&str, &str, usize)] = &[
    ("A", "w", 0),
    ("B", "w", 0),
    ("C", "x", 0),
    ("D", "y", 0),
    ("E", "y", 0),
    ("F", "z", 0),
    ("G", "z", 0),
    ("H", "w", 1),
    ("J", "w", 1),
    ("K", "x", 1),
    ("L", "y", 1),
    ("M", "z", 1),
    ("N", "z", 1),
    ("O", "z", 1),
];

/// Raw entity partitions (input of the BDM job). Each entity has a
/// `name` attribute (its letter) and a `title` equal to its blocking
/// key followed by the name, so `PrefixBlocking::new("title", 1)`
/// reproduces the paper's keys.
pub fn entity_partitions() -> Partitions<(), Ent> {
    let mut parts: Partitions<(), Ent> = vec![Vec::new(), Vec::new()];
    for (id, (name, key, partition)) in LAYOUT.iter().enumerate() {
        let title = format!("{key} {name}");
        let entity = Entity::new(id as u64, [("title", title.as_str()), ("name", name)]);
        parts[*partition].push(((), Arc::new(entity)));
    }
    parts
}

/// Rank-annotated partitions (input of the matching job — what the
/// BDM job's side output produces for this data).
pub fn annotated_partitions() -> Partitions<Ranks, Ent> {
    entity_partitions()
        .into_iter()
        .map(|part| {
            let keys: KeyText = part
                .iter()
                .map(|(_, entity)| &entity.get("title").unwrap()[..1])
                .collect();
            let ranks = rank_keys(&keys, key_hash, |_, _, _, _| {});
            let entities = part.into_iter().map(|(_, entity)| entity);
            ranks.into_iter().map(Ranks::One).zip(entities).collect()
        })
        .collect()
}

/// The blocking function reproducing the example keys from titles.
pub fn blocking() -> Arc<dyn er_core::blocking::BlockingFunction> {
    Arc::new(er_core::blocking::PrefixBlocking::new("title", 1))
}

/// Maps one record — an entity whose one key has rank `rank` —
/// through `mapper` as partition 0's map task of `m`: in this example
/// and the appendix's, the task whose ranks 0..=3 are its four keys
/// in hash order — w, y, z, x.
#[cfg(test)]
pub(crate) fn map_one<M>(mut mapper: M, m: usize, rank: u32)
where
    M: mr_engine::mapper::Mapper<KIn = Ranks, VIn = Ent, Side = ()>,
{
    let info = mr_engine::mapper::MapTaskInfo {
        task_index: 0,
        num_map_tasks: m,
        num_reduce_tasks: 3,
    };
    mapper.setup(&info);
    let entity = Arc::new(Entity::new(0, [("name", "X")]));
    let mut ctx = mr_engine::mapper::MapContext::for_testing(info);
    mapper.map(&Ranks::One(rank), &entity, &mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::bdm::BlockDistributionMatrix;
    use er_core::blocking::BlockKey;

    #[test]
    fn layout_matches_figure3() {
        assert_eq!(LAYOUT.len(), 14);
        let parts = entity_partitions();
        assert_eq!(parts[0].len(), 7);
        assert_eq!(parts[1].len(), 7);
    }

    #[test]
    fn annotated_partitions_induce_the_figure4_bdm() {
        // Every block of the example has a pair, so each entity's one
        // rank resolves to a block of the Figure 4 matrix — and that
        // block's key is the entity's own.
        let bdm = running_example_bdm();
        let annotated = annotated_partitions();
        let keys: Vec<Vec<BlockKey>> = annotated
            .iter()
            .enumerate()
            .map(|(p, part)| {
                part.iter()
                    .map(|(ranks, _)| {
                        let block = bdm.block_of_rank(p, ranks[0]).expect("a block with a pair");
                        bdm.key(block as usize).clone()
                    })
                    .collect()
            })
            .collect();
        for (part, keys) in annotated.iter().zip(&keys) {
            for ((_, entity), key) in part.iter().zip(keys) {
                assert_eq!(&entity.get("title").unwrap()[..1], key.as_str());
            }
        }
        assert_eq!(BlockDistributionMatrix::from_key_partitions(&keys), bdm);
    }

    #[test]
    fn blocking_function_reproduces_keys() {
        let blocking = blocking();
        for part in entity_partitions().iter() {
            for (_, e) in part {
                let expected = &e.get("title").unwrap()[..1];
                assert_eq!(blocking.key(e).unwrap().as_str(), expected);
            }
        }
    }
}
