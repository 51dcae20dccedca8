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

use er_core::blocking::BlockKey;
use er_core::Entity;
use mr_engine::input::Partitions;

use crate::bdm_job::rank_annotated;
use crate::{Ent, Keyed};

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
pub fn annotated_partitions() -> Partitions<u32, Keyed> {
    entity_partitions()
        .into_iter()
        .map(|part| {
            let replicas = part
                .into_iter()
                .map(|(_, entity)| {
                    let key = BlockKey::new(&entity.get("title").unwrap()[..1]);
                    Keyed::single(key, entity)
                })
                .collect();
            rank_annotated(replicas, |_, _, _| {})
        })
        .collect()
}

/// The blocking function reproducing the example keys from titles.
pub fn blocking() -> Arc<dyn er_core::blocking::BlockingFunction> {
    Arc::new(er_core::blocking::PrefixBlocking::new("title", 1))
}

/// Maps one record `(rank, key)` through `mapper` as partition 0's
/// map task of `m` — in this example and the appendix's, the task
/// whose ranks 0..=3 are the keys w, x, y, z.
#[cfg(test)]
pub(crate) fn map_one<M>(mut mapper: M, m: usize, rank: u32, key: &str)
where
    M: mr_engine::mapper::Mapper<KIn = u32, VIn = Keyed, Side = ()>,
{
    let info = mr_engine::mapper::MapTaskInfo {
        task_index: 0,
        num_map_tasks: m,
        num_reduce_tasks: 3,
    };
    mapper.setup(&info);
    let entity = Arc::new(Entity::new(0, [("name", "X")]));
    let mut ctx = mr_engine::mapper::MapContext::for_testing(info);
    mapper.map(&rank, &Keyed::single(BlockKey::new(key), entity), &mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::bdm::BlockDistributionMatrix;

    #[test]
    fn layout_matches_figure3() {
        assert_eq!(LAYOUT.len(), 14);
        let parts = entity_partitions();
        assert_eq!(parts[0].len(), 7);
        assert_eq!(parts[1].len(), 7);
    }

    #[test]
    fn annotated_partitions_induce_the_figure4_bdm() {
        let annotated = annotated_partitions();
        let keys: Vec<Vec<BlockKey>> = annotated
            .iter()
            .map(|p| p.iter().map(|(_, keyed)| keyed.key.clone()).collect())
            .collect();
        let bdm = BlockDistributionMatrix::from_key_partitions(&keys);
        assert_eq!(bdm, running_example_bdm());
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
