//! Matching two sources R and S (paper Appendix I).
//!
//! Each input partition holds entities of exactly one source (the
//! paper ensures this via Hadoop's `MultipleInputs`; here the caller
//! passes a side tag per partition). The BDM job is unchanged — the
//! partition index identifies the source — and the strategies restrict
//! comparisons to cross-source pairs:
//!
//! * block pair count becomes `|Φ_k,R| · |Φ_k,S|`,
//! * BlockSplit's split tasks pair an R partition with an S partition,
//! * PairRange enumerates the full `|Φ_k,R| × |Φ_k,S|` rectangle with
//!   `c(x, y, N_S) = x·N_S + y` and `o(i) = Σ |Φ_k,R|·|Φ_k,S|` (the
//!   paper's extra "−1" in `o(i)` is a typo: it would give the first
//!   pair index −1 and contradicts the worked example — see the tests
//!   pinning entity C's ranges).

pub mod basic;
pub mod block_split;
pub mod pair_range;

use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::pairs::rect_cell_index;
use er_core::{MatchResult, SourceId};
use mr_engine::error::MrError;
use mr_engine::input::Partitions;

use mr_engine::workflow::{StageGraph, Workflow};

use crate::bdm::BlockDistributionMatrix;
use crate::bdm_job::compute_bdm_in;
use crate::driver::ErConfig;
use crate::{Ent, StrategyKind};

/// A BDM interpreted for two sources: per-partition counts plus the
/// partition→source mapping.
#[derive(Debug, Clone)]
pub struct TwoSourceBdm {
    bdm: Arc<BlockDistributionMatrix>,
    sources: Arc<Vec<SourceId>>,
    size_r: Vec<u64>,
    size_s: Vec<u64>,
    pair_offsets: Vec<u64>,
}

impl TwoSourceBdm {
    /// Wraps a BDM with the source tag of each input partition.
    ///
    /// # Panics
    /// If `sources.len()` differs from the BDM's partition count or a
    /// tag other than `R`/`S` appears.
    pub fn new(bdm: Arc<BlockDistributionMatrix>, sources: Vec<SourceId>) -> Self {
        assert_eq!(
            sources.len(),
            bdm.num_partitions(),
            "one source tag per input partition"
        );
        assert!(
            sources
                .iter()
                .all(|&s| s == SourceId::R || s == SourceId::S),
            "two-source matching knows only R and S"
        );
        let mut size_r = Vec::with_capacity(bdm.num_blocks());
        let mut size_s = Vec::with_capacity(bdm.num_blocks());
        for k in 0..bdm.num_blocks() {
            let mut nr = 0;
            let mut ns = 0;
            for (p, &src) in sources.iter().enumerate() {
                if src == SourceId::R {
                    nr += bdm.size_in(k, p);
                } else {
                    ns += bdm.size_in(k, p);
                }
            }
            size_r.push(nr);
            size_s.push(ns);
        }
        let mut pair_offsets = Vec::with_capacity(bdm.num_blocks() + 1);
        let mut acc = 0u64;
        for k in 0..bdm.num_blocks() {
            pair_offsets.push(acc);
            acc += size_r[k] * size_s[k];
        }
        pair_offsets.push(acc);
        Self {
            bdm,
            sources: Arc::new(sources),
            size_r,
            size_s,
            pair_offsets,
        }
    }

    /// The underlying one-source BDM.
    pub fn bdm(&self) -> &BlockDistributionMatrix {
        &self.bdm
    }

    /// Source of input partition `p`.
    pub fn source_of(&self, p: usize) -> SourceId {
        self.sources[p]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.bdm.num_blocks()
    }

    /// Number of input partitions `m`.
    pub fn num_partitions(&self) -> usize {
        self.bdm.num_partitions()
    }

    /// |Φ_k,R|.
    pub fn size_r(&self, k: usize) -> u64 {
        self.size_r[k]
    }

    /// |Φ_k,S|.
    pub fn size_s(&self, k: usize) -> u64 {
        self.size_s[k]
    }

    /// Entities of block `k` in partition `p`.
    pub fn size_in(&self, k: usize, p: usize) -> u64 {
        self.bdm.size_in(k, p)
    }

    /// Cross-source comparisons of block `k`.
    pub fn pairs_in_block(&self, k: usize) -> u64 {
        self.size_r[k] * self.size_s[k]
    }

    /// o(k): cross-source pairs in earlier blocks.
    pub fn pair_offset(&self, k: usize) -> u64 {
        self.pair_offsets[k]
    }

    /// Total cross-source pairs P.
    pub fn total_pairs(&self) -> u64 {
        *self.pair_offsets.last().expect("never empty")
    }

    /// Global pair index of `(x ∈ R, y ∈ S)` in block `k`.
    pub fn pair_index(&self, k: usize, x: u64, y: u64) -> u64 {
        rect_cell_index(x, y, self.size_s[k]) + self.pair_offsets[k]
    }

    /// Entity-index offset: same-source entities of block `k` in
    /// partitions before `partition`.
    pub fn entity_index_offset(&self, k: usize, partition: usize) -> u64 {
        let src = self.sources[partition];
        (0..partition)
            .filter(|&q| self.sources[q] == src)
            .map(|q| self.bdm.size_in(k, q))
            .sum()
    }
}

/// Executes the two-source linkage scenario (paper Appendix I) as
/// stages of `workflow` — the scenario compiler the facade crate's
/// `Resolver` drives for `Scenario::Linkage`.
///
/// `sources[p]` tags input partition `p` as belonging to `R` or `S`;
/// only cross-source pairs within shared blocks are compared.
pub fn run_linkage_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Vec<SourceId>,
    config: &ErConfig,
) -> Result<crate::driver::ErStages, MrError> {
    use crate::driver::ErStages;
    use std::cell::RefCell;
    assert_eq!(
        sources.len(),
        input.len(),
        "one source tag per input partition"
    );
    let comparer = config.comparer();
    // The scenario compiles to a stage graph (Basic: one `match`
    // node; BDM strategies: `bdm → match`) whose node bodies hand
    // their task batches to the pool's shared ready-queue — see
    // `run_er_in`, whose structure this mirrors for cross-source
    // matching.
    let stages = RefCell::new(None);
    let products = RefCell::new(None);
    let mut graph: StageGraph<'_, MrError> = StageGraph::new();
    if config.strategy == StrategyKind::Basic {
        graph.node("match", &[], |wf| {
            let job = basic::basic_two_source_job(
                Arc::clone(&config.blocking),
                Arc::new(sources),
                comparer,
                config.runtime.reduce_tasks,
            )
            .with_spill_threshold(config.runtime.spill_threshold);
            let out = wf.chained_stage(&job, input)?;
            let mut result = MatchResult::new();
            for (pair, score) in out.reduce_outputs.into_iter().flatten() {
                result.insert(pair, score);
            }
            *stages.borrow_mut() = Some(ErStages {
                result,
                bdm: None,
                bdm_metrics: None,
                match_metrics: out.metrics,
            });
            Ok(())
        });
        graph.run(workflow)?;
        return Ok(stages
            .into_inner()
            .expect("match node populates the outcome"));
    }
    let bdm_node = graph.node("bdm", &[], |wf| {
        let (bdm, annotated, bdm_metrics) = compute_bdm_in(
            wf,
            input,
            Arc::clone(&config.blocking),
            config.runtime.reduce_tasks,
            config.use_combiner,
            config.runtime.spill_threshold,
        )?;
        *products.borrow_mut() = Some((Arc::new(bdm), annotated, bdm_metrics));
        Ok(())
    });
    graph.node("match", &[bdm_node], |wf| {
        let (bdm, annotated, bdm_metrics) = products
            .borrow_mut()
            .take()
            .expect("bdm node ran before match");
        let ts = Arc::new(TwoSourceBdm::new(Arc::clone(&bdm), sources));
        // The cross-source pair count is exact scheduling weight for
        // shortest-remaining-work, like the single-source driver.
        let weight = ts.total_pairs();
        let out = match config.strategy {
            StrategyKind::BlockSplit => {
                let job = block_split::block_split_two_source_job(
                    ts,
                    comparer,
                    config.runtime.reduce_tasks,
                )
                .with_spill_threshold(config.runtime.spill_threshold)
                .with_weight_hint(weight);
                wf.chained_stage(&job, annotated)?
            }
            StrategyKind::PairRange => {
                let job = pair_range::pair_range_two_source_job(
                    ts,
                    comparer,
                    config.range_policy,
                    config.runtime.reduce_tasks,
                )
                .with_spill_threshold(config.runtime.spill_threshold)
                .with_weight_hint(weight);
                wf.chained_stage(&job, annotated)?
            }
            StrategyKind::Basic => unreachable!("handled above"),
        };
        let mut result = MatchResult::new();
        for (pair, score) in out.reduce_outputs.into_iter().flatten() {
            result.insert(pair, score);
        }
        *stages.borrow_mut() = Some(ErStages {
            result,
            bdm: Some(bdm),
            bdm_metrics: Some(bdm_metrics),
            match_metrics: out.metrics,
        });
        Ok(())
    });
    graph.run(workflow)?;
    Ok(stages
        .into_inner()
        .expect("match node populates the outcome"))
}

/// The appendix running example (Figure 15a): 13 entities A–N over
/// blocks w, x, y, z; source R in partition Π0, source S in Π1 and Π2.
///
/// Counts: w → R:2/S:2 (4 pairs), x → R:1/S:2 (2 pairs), y → R:1/S:0
/// (0 pairs), z → R:2/S:3 (6 pairs); 12 pairs total. With lexicographic
/// block order our indexes are w=0, x=1, y=2, z=3 (the paper's figure
/// orders x and y differently; the structure is identical).
pub mod appendix_example {
    use super::*;
    use er_core::Entity;
    use mr_engine::input::Partitions;

    use crate::bdm_job::rank_annotated;
    use crate::{Ent, Keyed};

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

    /// Rank-annotated partitions (what the BDM job's side output
    /// yields).
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
                rank_annotated(replicas, |_, _| {})
            })
            .collect()
    }

    /// The example's two-source BDM.
    pub fn bdm() -> TwoSourceBdm {
        let keys: Vec<Vec<BlockKey>> = annotated_partitions()
            .iter()
            .map(|p| p.iter().map(|(_, keyed)| keyed.key.clone()).collect())
            .collect();
        TwoSourceBdm::new(
            Arc::new(BlockDistributionMatrix::from_key_partitions(&keys)),
            partition_sources(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::appendix_example;
    use super::*;

    #[test]
    fn appendix_bdm_counts() {
        let ts = appendix_example::bdm();
        assert_eq!(ts.num_blocks(), 4);
        // w=0, x=1, y=2, z=3 lexicographically.
        assert_eq!((ts.size_r(0), ts.size_s(0)), (2, 2));
        assert_eq!((ts.size_r(1), ts.size_s(1)), (1, 2));
        assert_eq!((ts.size_r(2), ts.size_s(2)), (1, 0));
        assert_eq!((ts.size_r(3), ts.size_s(3)), (2, 3));
        assert_eq!(ts.total_pairs(), 12, "paper: 12 overall pairs");
        assert_eq!(ts.pairs_in_block(2), 0, "block y has no S entities");
    }

    #[test]
    fn pair_offsets_skip_empty_blocks() {
        let ts = appendix_example::bdm();
        assert_eq!(ts.pair_offset(0), 0);
        assert_eq!(ts.pair_offset(1), 4);
        assert_eq!(ts.pair_offset(2), 6);
        assert_eq!(ts.pair_offset(3), 6, "y contributes nothing");
    }

    #[test]
    fn entity_c_ranges_match_the_paper() {
        // C ∈ R is the first entity (x = 0) of block z; its pairs are
        // 6, 7, 8. With ranges of size 4 ([0,3], [4,7], [8,11]) it
        // belongs to ranges 1 and 2 — the paper's statement. (With the
        // paper's "−1" offset the pairs would be 5,6,7 -> ranges {1}
        // only, contradicting the example.)
        let ts = appendix_example::bdm();
        let pairs: Vec<u64> = (0..3).map(|y| ts.pair_index(3, 0, y)).collect();
        assert_eq!(pairs, vec![6, 7, 8]);
        let ranges = crate::pair_range::ranges::RangeIndexer::new(
            12,
            3,
            crate::pair_range::ranges::RangePolicy::CeilDiv,
        );
        let hit: std::collections::BTreeSet<u64> =
            pairs.iter().map(|&p| ranges.range_of(p)).collect();
        assert_eq!(hit.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn entity_index_offsets_respect_sources() {
        let ts = appendix_example::bdm();
        // K is the first z-entity of S (partition 1): offset 0 even
        // though R's partition 0 holds two z entities.
        assert_eq!(ts.entity_index_offset(3, 1), 0);
        // N (partition 2) is preceded by 2 z-entities of S in Π1.
        assert_eq!(ts.entity_index_offset(3, 2), 2);
    }

    #[test]
    #[should_panic(expected = "one source tag per input partition")]
    fn source_count_must_match_partitions() {
        let bdm = Arc::new(BlockDistributionMatrix::from_counts(2, vec![]));
        let _ = TwoSourceBdm::new(bdm, vec![SourceId::R]);
    }

    #[test]
    fn pair_enumeration_is_a_bijection() {
        let ts = appendix_example::bdm();
        let mut seen = vec![false; ts.total_pairs() as usize];
        for k in 0..ts.num_blocks() {
            for x in 0..ts.size_r(k) {
                for y in 0..ts.size_s(k) {
                    let p = ts.pair_index(k, x, y) as usize;
                    assert!(!seen[p]);
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
