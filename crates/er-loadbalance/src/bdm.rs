//! The Block Distribution Matrix (paper Section III-B).
//!
//! A `b × m` matrix giving the number of entities of each of `b`
//! blocks in each of `m` input partitions. Both load-balancing
//! strategies read it at map-task initialization to plan the entity
//! redistribution.
//!
//! **Layout.** Flat, one allocation per column of the paper's figure:
//! `keys[k]` is block `k`'s blocking key; `prefix` is a row-major
//! `b × (m + 1)` matrix whose row `k` holds the running per-partition
//! sums `0, |Φ_k^0|, |Φ_k^0| + |Φ_k^1|, …, |Φ_k|`, so a cell, a block
//! size and the entity-index offset of a map task (Section V) are each
//! one or two loads; `pair_offsets[k]` is `o(k)`.
//!
//! **Pair geometry.** A block's pairs are the strict upper triangle of
//! its `|Φ_k| × |Φ_k|` comparison matrix — unless the matrix carries
//! its partitions' source tags
//! ([`BlockDistributionMatrix::with_sources`], paper Appendix I): then
//! they are the `|Φ_k,R| × |Φ_k,S|` rectangle, entities are enumerated
//! per block *and source*, and `c(x, y, N_S) = x·N_S + y` replaces the
//! triangle's cell index. (The appendix's extra "−1" in `o(i)` is a
//! typo: it would give the first pair index −1 and contradicts its own
//! worked example — pinned by `entity_c_ranges_match_the_paper`.) The
//! strategies ask the matrix and so have one implementation.
//!
//! **Block indexes are lexicographic in the blocking key** — a
//! deterministic stand-in for the paper's "(arbitrary) order of the
//! blocks from the reduce output", which in the running example is
//! lexicographic as well (w, x, y, z). Greedy tie-breaks, the pair
//! enumeration, reduce placement and every output digest depend on
//! that order and on nothing else about how the matrix was assembled.
//!
//! **Ranks instead of lookups.** `blocks_in(p)` lists, ascending, the
//! blocks with a non-zero cell in partition `p`. The BDM job's mapper
//! numbers its partition's distinct keys `0, 1, …` in lexicographic
//! order (see [`crate::bdm_job`]); block indexes are lexicographic
//! too, and the blocks with entities in `p` are exactly the keys the
//! mapper of `p` saw, so both number the same set in the same order:
//! rank `j` of partition `p` is block `blocks_in(p)[j]`. The matching
//! job resolves every record that way
//! ([`BlockDistributionMatrix::block_of_rank`]);
//! `block_index` is a binary search over the sorted keys, for tests
//! and tools.
//!
//! **Assembly is a sort, not a tree.** The BDM job hands over `r`
//! reduce outputs, each already sorted by `(key, partition)`; the
//! cells are collected and stable-sorted by key — a run-adaptive merge
//! sort does about `log₂ r` merge passes over them, comparing the
//! keys' first eight bytes inline before their text — and then grouped
//! in linear passes into a matrix allocated once.

use std::fmt::Write as _;

use er_core::blocking::BlockKey;
use er_core::pairs::{rect_cell_index, triangle_cell_index, triangle_pairs};
use er_core::SourceId;

use crate::keys::key_index;

/// The first eight bytes of a key, zero-padded, as a big-endian
/// integer: ordering by `(key_head, key)` is ordering by key, and
/// equal keys have equal heads.
pub(crate) fn key_head(key: &BlockKey) -> u64 {
    let bytes = key.as_str().as_bytes();
    let mut head = [0u8; 8];
    let len = bytes.len().min(8);
    head[..len].copy_from_slice(&bytes[..len]);
    u64::from_be_bytes(head)
}

/// The block distribution matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDistributionMatrix {
    /// Blocking keys, lexicographically sorted; position = block index.
    keys: Vec<BlockKey>,
    /// Row-major `b × (m + 1)` running per-partition sums (see the
    /// module header).
    prefix: Vec<u64>,
    /// `pair_offsets[k]` = o(k) = pairs in blocks 0..k; last entry = P.
    pair_offsets: Vec<u64>,
    /// Per partition, the ascending indexes of its non-empty blocks.
    blocks_in: Vec<Vec<u32>>,
    /// Set for two-source matching: `pair_offsets` then count
    /// rectangles.
    linkage: Option<Linkage>,
}

/// What [`BlockDistributionMatrix::with_sources`] adds to the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Linkage {
    /// The source of each input partition.
    sources: Vec<SourceId>,
    /// |Φ_k,R| per block; |Φ_k,S| is the rest of the block.
    size_r: Vec<u64>,
}

impl BlockDistributionMatrix {
    /// Builds a BDM from `(blocking key, partition index, count)`
    /// triples — the output records of the BDM job (Algorithm 3).
    ///
    /// Triples may arrive in any order; duplicate `(key, partition)`
    /// triples are summed. `m` is the total number of input partitions.
    ///
    /// # Panics
    /// If a partition index is `>= m`, or there are more than
    /// `u32::MAX` distinct keys.
    pub fn from_counts(m: usize, counts: impl IntoIterator<Item = (BlockKey, usize, u64)>) -> Self {
        // `(key_head, key, partition, count)`: with the head inline,
        // most comparisons below never follow the key's pointer.
        type Cell = (u64, BlockKey, usize, u64);
        let mut cells: Vec<Cell> = counts
            .into_iter()
            .map(|(key, partition, count)| (key_head(&key), key, partition, count))
            .collect();
        cells.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let same_block = |a: &Cell, b: &Cell| a.0 == b.0 && a.1 == b.1;
        let stride = m + 1;
        let blocks = cells.chunk_by(same_block).count();
        let mut prefix = vec![0u64; blocks * stride];
        let mut pair_offsets = Vec::with_capacity(blocks + 1);
        let mut blocks_in = vec![Vec::new(); m];
        let mut pairs = 0u64;
        for ((row, group), k) in prefix
            .chunks_exact_mut(stride)
            .zip(cells.chunk_by(same_block))
            .zip(0..key_index(blocks, "number of blocks"))
        {
            for &(_, _, partition, count) in group {
                assert!(
                    partition < m,
                    "partition index {partition} out of range (m = {m})"
                );
                row[1 + partition] += count;
            }
            for p in 1..stride {
                if row[p] > 0 {
                    blocks_in[p - 1].push(k);
                }
                row[p] += row[p - 1];
            }
            pair_offsets.push(pairs);
            pairs += triangle_pairs(row[m]);
        }
        pair_offsets.push(pairs);
        cells.dedup_by(|later, first| same_block(first, later));
        let keys: Vec<BlockKey> = cells.into_iter().map(|(_, key, _, _)| key).collect();
        Self {
            keys,
            prefix,
            pair_offsets,
            blocks_in,
            linkage: None,
        }
    }

    /// Tags input partition `p` as holding entities of `sources[p]`
    /// only (the paper ensures this via Hadoop's `MultipleInputs`) and
    /// switches the matrix to the two-source geometry: only `R × S`
    /// pairs within a block count.
    ///
    /// # Panics
    /// Unless there is one tag per partition, each `R` or `S`.
    pub fn with_sources(mut self, sources: Vec<SourceId>) -> Self {
        assert_eq!(
            sources.len(),
            self.num_partitions(),
            "one source tag per input partition"
        );
        assert!(
            sources
                .iter()
                .all(|&s| s == SourceId::R || s == SourceId::S),
            "two-source matching knows only R and S"
        );
        let size_r: Vec<u64> = (0..self.num_blocks())
            .map(|k| {
                let in_r = |&p: &usize| sources[p] == SourceId::R;
                (0..sources.len())
                    .filter(in_r)
                    .map(|p| self.size_in(k, p))
                    .sum()
            })
            .collect();
        let mut pairs = 0u64;
        for (k, &nr) in size_r.iter().enumerate() {
            self.pair_offsets[k] = pairs;
            pairs += nr * (self.size(k) - nr);
        }
        *self.pair_offsets.last_mut().expect("offsets never empty") = pairs;
        self.linkage = Some(Linkage { sources, size_r });
        self
    }

    /// The partitions' source tags, if the matrix has the two-source
    /// geometry.
    pub fn sources(&self) -> Option<&[SourceId]> {
        self.linkage.as_ref().map(|l| l.sources.as_slice())
    }

    /// The source of input partition `p`: its tag, or `R` — the one
    /// source — when the matrix carries none.
    pub fn source_of(&self, p: usize) -> SourceId {
        self.sources().map_or(SourceId::R, |sources| sources[p])
    }

    /// `(|Φ_k,R|, |Φ_k,S|)` under the two-source geometry, `None`
    /// under the triangle.
    pub fn side_sizes(&self, k: usize) -> Option<(u64, u64)> {
        let nr = self.linkage.as_ref()?.size_r[k];
        Some((nr, self.size(k) - nr))
    }

    /// Convenience: builds the BDM directly from per-partition blocking
    /// key sequences (used by the analytic experiment path, bypassing
    /// job execution).
    pub fn from_key_partitions(partitions: &[Vec<BlockKey>]) -> Self {
        let cells = partitions
            .iter()
            .enumerate()
            .flat_map(|(p, keys)| keys.iter().map(move |key| (key.clone(), p, 1)));
        Self::from_counts(partitions.len(), cells)
    }

    /// Number of blocks `b`.
    pub fn num_blocks(&self) -> usize {
        self.keys.len()
    }

    /// Number of input partitions `m`.
    pub fn num_partitions(&self) -> usize {
        self.blocks_in.len()
    }

    /// Index of the block with `key`, if present — a binary search
    /// over the sorted keys. The matching job never searches: it
    /// resolves ranks through [`Self::block_of_rank`].
    pub fn block_index(&self, key: &BlockKey) -> Option<u32> {
        self.keys.binary_search(key).ok().map(|k| k as u32)
    }

    /// The ascending indexes of the blocks with at least one entity in
    /// `partition` — the rank → block remap of that partition (see the
    /// module header).
    pub fn blocks_in(&self, partition: usize) -> &[u32] {
        &self.blocks_in[partition]
    }

    /// The block behind `rank`, the number the BDM job's mapper of
    /// `partition` gave `key` — as the `u32` the composite map-output
    /// keys carry.
    ///
    /// # Panics
    /// If the partition has no such rank or the block there has
    /// another key: the two jobs saw different data — a pipeline bug
    /// worth failing loudly on.
    pub fn block_of_rank(&self, partition: usize, rank: u32, key: &BlockKey) -> u32 {
        match self.blocks_in[partition].get(rank as usize) {
            Some(&block) if self.keys[block as usize] == *key => block,
            _ => panic!("blocking key {key} not present in the BDM"),
        }
    }

    /// The blocking key of block `k`.
    pub fn key(&self, k: usize) -> &BlockKey {
        &self.keys[k]
    }

    /// Row `k` of the running-sum matrix (`m + 1` entries).
    fn row(&self, k: usize) -> &[u64] {
        let stride = self.num_partitions() + 1;
        &self.prefix[k * stride..(k + 1) * stride]
    }

    /// |Φ_k|: entities in block `k`.
    pub fn size(&self, k: usize) -> u64 {
        self.row(k)[self.num_partitions()]
    }

    /// |Φ_k^i|: entities of block `k` in partition `i`.
    pub fn size_in(&self, k: usize, partition: usize) -> u64 {
        let row = self.row(k);
        row[partition + 1] - row[partition]
    }

    /// Number of comparisons within block `k`.
    pub fn pairs_in_block(&self, k: usize) -> u64 {
        self.pair_offsets[k + 1] - self.pair_offsets[k]
    }

    /// Comparisons of the pairing of block `k`'s sub-blocks in
    /// partitions `i >= j` — BlockSplit's match task `k.i×j`, or `k.i`
    /// when `i == j`. `None` when no such task exists: a sub-block is
    /// empty or, under the two-source geometry, both are of one source.
    pub fn sub_block_pairs(&self, k: usize, i: usize, j: usize) -> Option<u64> {
        let (size_i, size_j) = (self.size_in(k, i), self.size_in(k, j));
        if size_i * size_j == 0 {
            return None;
        }
        match &self.linkage {
            None if i == j => Some(triangle_pairs(size_i)),
            Some(l) if l.sources[i] == l.sources[j] => None,
            _ => Some(size_i * size_j),
        }
    }

    /// o(k): comparisons in all blocks before `k` (paper formula).
    pub fn pair_offset(&self, k: usize) -> u64 {
        self.pair_offsets[k]
    }

    /// P: total comparisons over all blocks.
    pub fn total_pairs(&self) -> u64 {
        *self.pair_offsets.last().expect("offsets never empty")
    }

    /// Entity-index offset: number of entities of block `k` (and of
    /// `partition`'s source) in partitions before `partition` — what a
    /// map task adds to its local enumeration to obtain global entity
    /// indexes (Section V).
    pub fn entity_index_offset(&self, k: usize, partition: usize) -> u64 {
        match &self.linkage {
            None => self.row(k)[partition],
            Some(l) => (0..partition)
                .filter(|&q| l.sources[q] == l.sources[partition])
                .map(|q| self.size_in(k, q))
                .sum(),
        }
    }

    /// The global pair index `p_k(x, y)`: of the entities with indexes
    /// `x < y` of block `k`, or of `x ∈ R` and `y ∈ S` under the
    /// two-source geometry.
    pub fn pair_index(&self, k: usize, x: u64, y: u64) -> u64 {
        let cell = match self.side_sizes(k) {
            None => triangle_cell_index(x, y, self.size(k)),
            Some((_, ns)) => rect_cell_index(x, y, ns),
        };
        cell + self.pair_offsets[k]
    }

    /// Serializes to a TSV string (`key<TAB>partition<TAB>count` per
    /// line, matching Algorithm 3's reduce output format).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (k, key) in self.keys.iter().enumerate() {
            for p in 0..self.num_partitions() {
                let count = self.size_in(k, p);
                if count > 0 {
                    let _ = writeln!(out, "{key}\t{p}\t{count}");
                }
            }
        }
        out
    }

    /// Parses the TSV format produced by [`Self::to_tsv`].
    ///
    /// Returns `None` on malformed input.
    pub fn from_tsv(m: usize, tsv: &str) -> Option<Self> {
        let mut counts = Vec::new();
        for line in tsv.lines() {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let key = BlockKey::new(fields.next()?);
            let partition: usize = fields.next()?.parse().ok()?;
            let count: u64 = fields.next()?.parse().ok()?;
            if partition >= m || fields.next().is_some() {
                return None;
            }
            counts.push((key, partition, count));
        }
        Some(Self::from_counts(m, counts))
    }
}

/// The paper's running example (Figures 3 and 4): 14 entities A–O in
/// two partitions, four blocks w, x, y, z with per-partition counts
/// `w:[2,2] x:[1,1] y:[2,1] z:[2,3]`. Exposed for tests, docs and the
/// `paper_example` binary.
pub fn running_example_bdm() -> BlockDistributionMatrix {
    BlockDistributionMatrix::from_counts(
        2,
        vec![
            (BlockKey::new("w"), 0, 2),
            (BlockKey::new("w"), 1, 2),
            (BlockKey::new("x"), 0, 1),
            (BlockKey::new("x"), 1, 1),
            (BlockKey::new("y"), 0, 2),
            (BlockKey::new("y"), 1, 1),
            (BlockKey::new("z"), 0, 2),
            (BlockKey::new("z"), 1, 3),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The previous tree-based BDM, kept as the model the flat layout
    /// is checked against: one `BTreeMap` insert per cell, one `Vec`
    /// per row, a second tree for lookup.
    struct TreeBdm {
        rows: Vec<(BlockKey, Vec<u64>)>,
        by_key: BTreeMap<BlockKey, usize>,
    }

    impl TreeBdm {
        fn from_counts(m: usize, counts: &[(BlockKey, usize, u64)]) -> Self {
            let mut per_key: BTreeMap<BlockKey, Vec<u64>> = BTreeMap::new();
            for (key, partition, count) in counts {
                per_key.entry(key.clone()).or_insert_with(|| vec![0; m])[*partition] += count;
            }
            let rows: Vec<_> = per_key.into_iter().collect();
            let by_key = rows
                .iter()
                .enumerate()
                .map(|(k, (key, _))| (key.clone(), k))
                .collect();
            Self { rows, by_key }
        }

        fn to_tsv(&self) -> String {
            let mut out = String::new();
            for (key, per_partition) in &self.rows {
                for (p, &count) in per_partition.iter().enumerate() {
                    if count > 0 {
                        let _ = writeln!(out, "{key}\t{p}\t{count}");
                    }
                }
            }
            out
        }
    }

    /// Every accessor of the flat BDM against the tree model.
    fn assert_matches_model(m: usize, cells: &[(BlockKey, usize, u64)], probes: &[BlockKey]) {
        let bdm = BlockDistributionMatrix::from_counts(m, cells.to_vec());
        let model = TreeBdm::from_counts(m, cells);
        assert_eq!(bdm.num_blocks(), model.rows.len());
        assert_eq!(bdm.num_partitions(), m);
        let mut pairs = 0u64;
        for (k, (key, per_partition)) in model.rows.iter().enumerate() {
            let total: u64 = per_partition.iter().sum();
            assert_eq!(bdm.key(k), key);
            assert_eq!(bdm.size(k), total);
            assert_eq!(bdm.pair_offset(k), pairs);
            pairs += triangle_pairs(total);
            for p in 0..m {
                assert_eq!(bdm.size_in(k, p), per_partition[p]);
                assert_eq!(
                    bdm.entity_index_offset(k, p),
                    per_partition[..p].iter().sum::<u64>()
                );
            }
        }
        assert_eq!(bdm.total_pairs(), pairs);
        for p in 0..m {
            let non_empty: Vec<u32> = (0u32..)
                .zip(&model.rows)
                .filter(|(_, (_, per_partition))| per_partition[p] > 0)
                .map(|(k, _)| k)
                .collect();
            assert_eq!(bdm.blocks_in(p), non_empty, "blocks_in({p})");
        }
        for key in probes.iter().chain(model.rows.iter().map(|(key, _)| key)) {
            assert_eq!(
                bdm.block_index(key).map(|k| k as usize),
                model.by_key.get(key).copied(),
                "lookup of {key:?}"
            );
        }
        assert_eq!(bdm.to_tsv(), model.to_tsv());
    }

    /// A tiny alphabet so random cells collide: the empty key, ASCII,
    /// multi-byte text, keys that are prefixes of one another (one by
    /// a NUL, which the zero-padded `key_head` cannot tell apart) and
    /// keys that differ only past their first eight bytes.
    const ALPHABET: [&str; 10] = [
        "",
        "a",
        "a\u{0}",
        "ab",
        "b",
        "zz",
        "é",
        "名前",
        "sku0012345",
        "sku0012399",
    ];

    fn alphabet_keys() -> Vec<BlockKey> {
        ALPHABET.iter().map(BlockKey::new).collect()
    }

    proptest! {
        #[test]
        fn flat_assembly_matches_the_tree_model(
            m in 1usize..=8,
            raw in proptest::collection::vec((0usize..10, 0usize..8, 0u64..5), 0..60),
        ) {
            let keys = alphabet_keys();
            let cells: Vec<_> = raw
                .iter()
                .map(|&(key, partition, count)| (keys[key].clone(), partition % m, count))
                .collect();
            assert_matches_model(m, &cells, &keys);
        }
    }

    #[test]
    fn edge_shapes_match_the_tree_model() {
        let keys = alphabet_keys();
        // Empty BDM (every key null: `m` empty remaps), also with no
        // partitions at all.
        assert_matches_model(3, &[], &keys);
        assert_matches_model(0, &[], &keys);
        // Cells that count nothing make a block no partition holds.
        let zeros: Vec<_> = keys.iter().map(|k| (k.clone(), 1, 0)).collect();
        assert_matches_model(2, &zeros, &keys);
        // One giant block spread over every partition.
        let giant: Vec<_> = (0..8).map(|p| (keys[5].clone(), p, 1_000_000)).collect();
        assert_matches_model(8, &giant, &keys);
        // Every cell in one partition, keys arriving in reverse order.
        let one_partition: Vec<_> = keys.iter().rev().map(|k| (k.clone(), 5, 2)).collect();
        assert_matches_model(8, &one_partition, &keys);
    }

    #[test]
    fn running_example_figure4() {
        let bdm = running_example_bdm();
        assert_eq!(bdm.num_blocks(), 4);
        assert_eq!(bdm.num_partitions(), 2);
        // Block order w, x, y, z as in the paper.
        assert_eq!(bdm.key(0).as_str(), "w");
        assert_eq!(bdm.key(3).as_str(), "z");
        // Sizes 4, 2, 3, 5 — "block sizes vary between 2 and 5".
        assert_eq!(bdm.size(0), 4);
        assert_eq!(bdm.size(1), 2);
        assert_eq!(bdm.size(2), 3);
        assert_eq!(bdm.size(3), 5);
        // The reduce output [z, 1, 3] of Figure 4.
        assert_eq!(bdm.size_in(3, 1), 3);
        assert_eq!(bdm.size_in(3, 0), 2);
        // "the largest block with key z entails 50% of all comparisons"
        assert_eq!(bdm.total_pairs(), 20);
        assert_eq!(bdm.pairs_in_block(3), 10);
        // Pair offsets of Figure 6: o = [0, 6, 7, 10].
        assert_eq!(bdm.pair_offset(0), 0);
        assert_eq!(bdm.pair_offset(1), 6);
        assert_eq!(bdm.pair_offset(2), 7);
        assert_eq!(bdm.pair_offset(3), 10);
    }

    #[test]
    fn entity_index_offsets_follow_partition_order() {
        let bdm = running_example_bdm();
        // M is the first z-entity of partition 1; two z-entities
        // precede it in partition 0 -> index offset 2 (paper: "M is
        // the third entity of Φ3 and is thus assigned entity index 2").
        assert_eq!(bdm.entity_index_offset(3, 1), 2);
        assert_eq!(bdm.entity_index_offset(3, 0), 0);
    }

    #[test]
    fn duplicate_counts_are_summed() {
        let bdm = BlockDistributionMatrix::from_counts(
            2,
            vec![
                (BlockKey::new("a"), 0, 1),
                (BlockKey::new("a"), 0, 2),
                (BlockKey::new("a"), 1, 4),
            ],
        );
        assert_eq!(bdm.size_in(0, 0), 3);
        assert_eq!(bdm.size(0), 7);
    }

    #[test]
    fn from_key_partitions_counts_correctly() {
        let k = |s: &str| BlockKey::new(s);
        let bdm = BlockDistributionMatrix::from_key_partitions(&[
            vec![k("w"), k("w"), k("x")],
            vec![k("x"), k("w")],
        ]);
        assert_eq!(bdm.size_in(0, 0), 2);
        assert_eq!(bdm.size_in(0, 1), 1);
        assert_eq!(bdm.size_in(1, 0), 1);
        assert_eq!(bdm.size_in(1, 1), 1);
    }

    #[test]
    fn block_lookup() {
        let bdm = running_example_bdm();
        assert_eq!(bdm.block_index(&BlockKey::new("y")), Some(2));
        assert_eq!(bdm.block_index(&BlockKey::new("nope")), None);
    }

    #[test]
    fn tsv_round_trip() {
        let bdm = running_example_bdm();
        let tsv = bdm.to_tsv();
        let parsed = BlockDistributionMatrix::from_tsv(2, &tsv).expect("parse");
        assert_eq!(parsed, bdm);
    }

    #[test]
    fn tsv_rejects_malformed_input() {
        assert!(BlockDistributionMatrix::from_tsv(2, "a\t5\t1").is_none()); // partition >= m
        assert!(BlockDistributionMatrix::from_tsv(2, "a\tnope\t1").is_none());
        assert!(BlockDistributionMatrix::from_tsv(2, "a\t0").is_none());
        assert!(BlockDistributionMatrix::from_tsv(2, "a\t0\t1\textra").is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_partition_index_panics() {
        let _ = BlockDistributionMatrix::from_counts(1, vec![(BlockKey::new("a"), 3, 1)]);
    }

    #[test]
    fn empty_bdm_is_valid() {
        let bdm = BlockDistributionMatrix::from_counts(3, vec![]);
        assert_eq!(bdm.num_blocks(), 0);
        assert_eq!(bdm.total_pairs(), 0);
    }
}
