//! The Block Distribution Matrix (paper Section III-B).
//!
//! A `b × m` matrix giving the number of entities of each of the `b`
//! blocks that have a pair in each of `m` input partitions. Both
//! load-balancing strategies read it at map-task initialization to
//! plan the entity redistribution.
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
//! **Only blocks that have a pair.** The matrix exists to plan the
//! redistribution of *pairs*, and a block with fewer than two entities
//! has none: it yields no match task, no pair index and no map output
//! of the matching job. Such blocks are not in the matrix — the BDM
//! job's reducer, the first place that knows a block's global size,
//! drops them ([`crate::bdm_job`]), and [`from_counts`] applies the
//! same rule to cells from anywhere else. `num_blocks`, `size` and the
//! block indexes all speak of the blocks with `|Φ_k| ≥ 2` only. (Under
//! the two-source geometry the rule is still `|Φ_k| ≥ 2`, whatever the
//! sources: the tags arrive after the job.) Of an entity alone in its
//! block the matrix keeps eight bytes, the hash of its key
//! ([`pruned_entities`] counts them): Basic ships such an entity like
//! any other, to reduce task `hash mod r`, and [`crate::analysis`]
//! predicts Basic's reduce inputs from the matrix, exactly.
//!
//! **Block indexes are lexicographic in the blocking key** — a
//! deterministic stand-in for the paper's "(arbitrary) order of the
//! blocks from the reduce output", which in the running example is
//! lexicographic as well (w, x, y, z). Greedy tie-breaks, the pair
//! enumeration, reduce placement and every output digest depend on
//! that order and on nothing else about how the matrix was assembled.
//!
//! **Ranks instead of lookups.** The BDM job's mapper numbers its
//! partition's distinct keys `0, 1, …` in the order of their hashes
//! ([`HashPartitioner::hash`]; keys that share one by text) — the
//! key's *rank* — and sends that rank with every cell it emits, beside
//! the key's hash; the reducer finds a key's text, where it needs it,
//! at that rank of the mapper's distinct keys, and writes one record
//! per `(partition, rank)`, a cell or the note of a lone entity
//! ([`RankedKey`]). `blocks_in(p)` is partition
//! `p`'s rank → block remap, one entry per such record: entry `j` is
//! the block of the key ranked `j`, or
//! [`PRUNED`](BlockDistributionMatrix::PRUNED) when that key's block
//! has no pair. The matching job reads ranks, not keys: it resolves
//! each with that one array load
//! ([`BlockDistributionMatrix::block_of_rank`]), skips pruned blocks,
//! and takes the keys an entity's table row needs from the matrix
//! ([`BlockDistributionMatrix::live_blocks`]); `block_index` is a
//! binary search over the sorted keys, for tests and tools.
//!
//! **Assembly is a sort, not a tree.** The BDM job hands over `r`
//! reduce outputs, each in the order of its keys' hashes (the job
//! shuffles hashes, not keys): an order the matrix cannot use. The
//! notes of lone entities go straight to their remap entry — one pass,
//! no key behind them; the cells, all of blocks with a pair, are
//! collected and sorted by key — comparing the keys' first eight bytes
//! inline before their text; the order of a block's cells is
//! immaterial, so the sort need not be stable — and then grouped in
//! linear passes into a matrix allocated once. Sort, matrix and key
//! vector are linear in the blocks that have pairs, not in the blocks
//! the input has; only the remaps (four bytes per ranked key, a lone
//! entity's entry marked in place) and the lone entities' hashes are as
//! long as the partitions' key lists. [`from_counts`] sorts its
//! triples by `(key, partition)` to sum them, numbers each partition's
//! keys in `(hash, key)` order as the mappers do, and goes through the
//! same routine, whose own sort then finds its input sorted.
//!
//! [`from_counts`]: BlockDistributionMatrix::from_counts
//! [`pruned_entities`]: BlockDistributionMatrix::pruned_entities

use std::fmt::Write as _;

use er_core::blocking::BlockKey;
use er_core::pairs::{rect_cell_index, triangle_cell_index, triangle_pairs};
use er_core::SourceId;
use mr_engine::partitioner::HashPartitioner;

use crate::keys::key_index;

/// The first eight bytes of a key, zero-padded, as a big-endian
/// integer: ordering by `(key_head, key)` is ordering by key, and
/// equal keys have equal heads.
pub fn key_head(key: &str) -> u64 {
    let bytes = key.as_bytes();
    let mut head = [0u8; 8];
    let len = bytes.len().min(8);
    head[..len].copy_from_slice(&bytes[..len]);
    u64::from_be_bytes(head)
}

/// The hash the BDM job ranks, shuffles and places a key by:
/// [`HashPartitioner::hash`] of the key's text, which equals that of
/// its [`BlockKey`].
pub(crate) fn key_hash(key: &str) -> u64 {
    HashPartitioner::hash(&key)
}

/// What the BDM job's reducer writes about one ranked key of one input
/// partition: the value of its output record `((partition, rank), _)`.
/// Every key a mapper ranked comes back as exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankedKey {
    /// The key's block has a pair: the key and the block's entities in
    /// the partition — a non-zero cell of the matrix.
    Cell(BlockKey, u64),
    /// The key's block is this one entity and not in the matrix: the
    /// key's [`HashPartitioner::hash`], all that is kept of it.
    Lone(u64),
}

/// The block distribution matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDistributionMatrix {
    /// Blocking keys of the blocks with a pair, lexicographically
    /// sorted; position = block index.
    keys: Vec<BlockKey>,
    /// Row-major `b × (m + 1)` running per-partition sums (see the
    /// module header).
    prefix: Vec<u64>,
    /// `pair_offsets[k]` = o(k) = pairs in blocks 0..k; last entry = P.
    pair_offsets: Vec<u64>,
    /// Per partition, its rank → block remap (`PRUNED` where the
    /// rank's block is not in the matrix).
    blocks_in: Vec<Vec<u32>>,
    /// The key hashes of the entities alone in their block — one per
    /// `PRUNED` entry of `blocks_in`, in `(partition, rank)` order.
    lone: Vec<u64>,
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

/// A non-zero cell on its way into the matrix: `(key_head, key,
/// partition, count, rank)`. With the head inline, most comparisons of
/// the assembly's sort never follow the key's pointer.
type Cell = (u64, BlockKey, u32, u64, u32);

/// The partitions' rank → block remaps while a matrix is assembled:
/// every ranked key claims the entry of its rank, for the block of its
/// cell or, marked [`Remaps::LONE`], for a lone entity, whose key hash
/// goes to the partition's `hashes` at the same place.
struct Remaps {
    blocks_in: Vec<Vec<u32>>,
    /// Per partition, by rank: the key hash where the entry is `LONE`
    /// (zero elsewhere; it ends at the partition's highest lone rank).
    hashes: Vec<Vec<u64>>,
    lone: usize,
}

impl Remaps {
    /// The entry of a lone entity's rank until [`Remaps::finish`] makes
    /// it [`BlockDistributionMatrix::PRUNED`]; a block index reaches it
    /// only in a matrix of `u32::MAX` blocks.
    const LONE: u32 = BlockDistributionMatrix::PRUNED - 1;

    fn new(m: usize) -> Self {
        Self {
            blocks_in: vec![Vec::new(); m],
            hashes: vec![Vec::new(); m],
            lone: 0,
        }
    }

    /// The key ranked `rank` in `partition` has `entry`: its block, or
    /// `LONE`. The remap grows to hold it.
    ///
    /// # Panics
    /// If the entry is claimed: a partition has one record per rank.
    fn claim(&mut self, partition: u32, rank: u32, entry: u32) {
        let blocks_in = &mut self.blocks_in[partition as usize];
        let at = rank as usize;
        if at >= blocks_in.len() {
            blocks_in.resize(at + 1, BlockDistributionMatrix::PRUNED);
        }
        assert!(
            blocks_in[at] == BlockDistributionMatrix::PRUNED,
            "partition {partition} has two keys ranked {rank}"
        );
        blocks_in[at] = entry;
    }

    /// The key ranked `rank` in `partition` hashes to `hash` and has
    /// one entity.
    fn claim_lone(&mut self, partition: u32, rank: u32, hash: u64) {
        self.claim(partition, rank, Self::LONE);
        let hashes = &mut self.hashes[partition as usize];
        let at = rank as usize;
        if at >= hashes.len() {
            hashes.resize(at + 1, 0);
        }
        hashes[at] = hash;
        self.lone += 1;
    }

    /// The remaps and, in `(partition, rank)` order, the lone
    /// entities' key hashes.
    ///
    /// # Panics
    /// If an entry below a partition's highest rank was never claimed.
    fn finish(mut self) -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut lone = Vec::with_capacity(self.lone);
        for (partition, (blocks_in, hashes)) in
            self.blocks_in.iter_mut().zip(self.hashes).enumerate()
        {
            for (rank, entry) in blocks_in.iter_mut().enumerate() {
                match *entry {
                    Self::LONE => {
                        lone.push(hashes[rank]);
                        *entry = BlockDistributionMatrix::PRUNED;
                    }
                    BlockDistributionMatrix::PRUNED => {
                        panic!("partition {partition} has no key ranked {rank}")
                    }
                    _ => {}
                }
            }
        }
        (self.blocks_in, lone)
    }
}

impl BlockDistributionMatrix {
    /// What [`Self::blocks_in`] holds for a rank whose block has no
    /// pair and is therefore not in the matrix.
    pub const PRUNED: u32 = u32::MAX;

    /// Builds a BDM from `(blocking key, partition index, count)`
    /// triples — Algorithm 3's reduce output format. Blocks with fewer
    /// than two entities are left out (see the module header).
    ///
    /// Triples may arrive in any order; duplicate `(key, partition)`
    /// triples are summed. `m` is the total number of input partitions.
    /// A key's rank in a partition is its position among the distinct
    /// keys with entities there in `(hash, key)` order, as the BDM
    /// job's mapper numbers them.
    ///
    /// # Panics
    /// If a partition index is `>= m`, or there are more than
    /// `u32::MAX` distinct keys.
    pub fn from_counts(m: usize, counts: impl IntoIterator<Item = (BlockKey, usize, u64)>) -> Self {
        let mut cells: Vec<Cell> = counts
            .into_iter()
            .map(|(key, partition, count)| {
                assert!(
                    partition < m,
                    "partition index {partition} out of range (m = {m})"
                );
                (key_head(key.as_str()), key, partition as u32, count, 0)
            })
            .collect();
        cells.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
        cells.dedup_by(|later, first| {
            let same_cell = (first.0, &first.1, first.2) == (later.0, &later.1, later.2);
            if same_cell {
                first.3 += later.3;
            }
            same_cell
        });
        cells.retain(|cell| cell.3 > 0);
        // A partition's keys are ranked in the mappers' order: by
        // `(key_hash, key)`.
        let mut by_rank: Vec<(u64, usize)> = cells
            .iter()
            .map(|cell| key_hash(cell.1.as_str()))
            .zip(0..)
            .collect();
        by_rank.sort_unstable_by(|a, b| (a.0, &cells[a.1].1).cmp(&(b.0, &cells[b.1].1)));
        let mut ranked = vec![0usize; m];
        for (_, at) in by_rank {
            let (_, _, partition, _, rank) = &mut cells[at];
            let keys = &mut ranked[*partition as usize];
            *rank = key_index(*keys, "distinct blocking keys of a partition");
            *keys += 1;
        }
        Self::assemble(m, cells, Remaps::new(m))
    }

    /// Builds a BDM from the output records of the BDM job over `m`
    /// input partitions: `((partition, rank), ranked key)`, one per key
    /// the mapper of `partition` ranked `0, 1, …` in the order of the
    /// keys' hashes (see [`crate::bdm_job`]). Records may arrive in any order.
    ///
    /// # Panics
    /// If a partition index is `>= m`, a cell counts nothing, the
    /// ranks of a partition are not `0, 1, …` with one record each, or
    /// there are more than `u32::MAX` distinct keys.
    pub fn from_job_output(
        m: usize,
        records: impl IntoIterator<Item = ((u32, u32), RankedKey)>,
    ) -> Self {
        let mut cells = Vec::new();
        let mut remaps = Remaps::new(m);
        for ((partition, rank), ranked) in records {
            assert!(
                (partition as usize) < m,
                "partition index {partition} out of range (m = {m})"
            );
            match ranked {
                RankedKey::Cell(key, count) => {
                    assert!(count > 0, "a ranked key has an entity ({key})");
                    cells.push((key_head(key.as_str()), key, partition, count, rank));
                }
                RankedKey::Lone(hash) => remaps.claim_lone(partition, rank, hash),
            }
        }
        Self::assemble(m, cells, remaps)
    }

    /// The one assembly routine: the non-zero `cells`, one per `(key,
    /// partition)`, in any order, and the `remaps` with the lone
    /// entities the caller has already told apart. Blocks without a
    /// pair that are still among the cells join them.
    fn assemble(m: usize, mut cells: Vec<Cell>, mut remaps: Remaps) -> Self {
        cells.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let same_block = |a: &Cell, b: &Cell| a.0 == b.0 && a.1 == b.1;
        let has_pair = |block: &&[Cell]| block.iter().map(|cell| cell.3).sum::<u64>() >= 2;
        let mut blocks = 0;
        for block in cells.chunk_by(same_block) {
            if has_pair(&block) {
                blocks += 1;
            } else {
                for (_, key, partition, _, rank) in block {
                    remaps.claim_lone(*partition, *rank, HashPartitioner::hash(key));
                }
            }
        }
        let stride = m + 1;
        let mut keys = Vec::with_capacity(blocks);
        let mut prefix = vec![0u64; blocks * stride];
        let mut pair_offsets = Vec::with_capacity(blocks + 1);
        let mut pairs = 0u64;
        for ((row, block), k) in prefix
            .chunks_exact_mut(stride)
            .zip(cells.chunk_by(same_block).filter(has_pair))
            .zip(0..key_index(blocks, "number of blocks"))
        {
            for &(_, _, partition, count, rank) in block {
                row[1 + partition as usize] += count;
                remaps.claim(partition, rank, k);
            }
            for p in 1..stride {
                row[p] += row[p - 1];
            }
            pair_offsets.push(pairs);
            pairs += triangle_pairs(row[m]);
            keys.push(block[0].1.clone());
        }
        pair_offsets.push(pairs);
        let (blocks_in, lone) = remaps.finish();
        Self {
            keys,
            prefix,
            pair_offsets,
            blocks_in,
            lone,
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

    /// The rank → block remap of `partition`: entry `j` is the block
    /// of the key ranked `j` — the partition's `j`-th key in `(hash,
    /// key)` order — or [`Self::PRUNED`] when that block has no pair
    /// (see the module header).
    pub fn blocks_in(&self, partition: usize) -> &[u32] {
        &self.blocks_in[partition]
    }

    /// The entities (replicas, under multi-pass blocking) that are
    /// alone in their block: they are in the input and in no block of
    /// the matrix. With the block sizes they sum to the replicas the
    /// matrix was counted from.
    pub fn pruned_entities(&self) -> u64 {
        self.lone.len() as u64
    }

    /// [`HashPartitioner::hash`] of the blocking key of each of the
    /// [`Self::pruned_entities`] — what places them under Basic.
    pub(crate) fn pruned_key_hashes(&self) -> &[u64] {
        &self.lone
    }

    /// The block behind `rank`, the number the BDM job's mapper of
    /// `partition` gave one of its keys — as the `u32` the composite
    /// map-output keys carry — or `None` when that block has no pair
    /// and was pruned: the key's entity has nothing to be compared with
    /// there.
    ///
    /// # Panics
    /// If the partition has no such rank: the two jobs saw different
    /// data — a pipeline bug worth failing loudly on.
    pub fn block_of_rank(&self, partition: usize, rank: u32) -> Option<u32> {
        match self.blocks_in[partition].get(rank as usize) {
            Some(&Self::PRUNED) => None,
            Some(&block) => Some(block),
            None => panic!("rank {rank} of partition {partition} is not present in the BDM"),
        }
    }

    /// Resolves an entity's `ranks` in `partition`, in any order: fills
    /// `blocks` with the blocks that have a pair, sorted — block order
    /// is key order, so this is the entity's sorted key list as the
    /// smallest-common-key rule reads it, and its table row in a match
    /// stage — and leaves it empty when every block was pruned and the
    /// entity has no pair.
    ///
    /// The list leaves out pruned blocks. Their keys are held by no
    /// other entity, so the smallest-common-block rule decides every
    /// pair as it would on the full list (`smallest_common_key_is`);
    /// and an entity left with one block passes the rule against the
    /// block's other single-block members without a per-pair test.
    ///
    /// # Panics
    /// As [`Self::block_of_rank`].
    pub fn live_blocks(&self, partition: usize, ranks: &[u32], blocks: &mut Vec<u32>) {
        blocks.clear();
        blocks.extend(
            ranks
                .iter()
                .filter_map(|&rank| self.block_of_rank(partition, rank)),
        );
        // Ranks follow the keys' hashes, block indexes the keys.
        blocks.sort_unstable();
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
    /// per row of a block with a pair, a second tree for lookup, and
    /// per partition the remap of its keys' ranks — in `(hash, key)`
    /// order, from a second tree keyed so — and the keys of its lone
    /// entities.
    struct TreeBdm {
        rows: Vec<(BlockKey, Vec<u64>)>,
        by_key: BTreeMap<BlockKey, usize>,
        remaps: Vec<Vec<u32>>,
        lone: Vec<Vec<BlockKey>>,
    }

    impl TreeBdm {
        fn from_counts(m: usize, counts: &[(BlockKey, usize, u64)]) -> Self {
            let mut per_key: BTreeMap<BlockKey, Vec<u64>> = BTreeMap::new();
            for (key, partition, count) in counts {
                per_key.entry(key.clone()).or_insert_with(|| vec![0; m])[*partition] += count;
            }
            // Blocks in key order; each key's remap entry by `(hash, key)`.
            let mut rows = Vec::new();
            let mut by_hash = BTreeMap::new();
            for (key, per_partition) in per_key {
                let has_pair = per_partition.iter().sum::<u64>() >= 2;
                let entry = if has_pair {
                    rows.len() as u32
                } else {
                    BlockDistributionMatrix::PRUNED
                };
                let hash = HashPartitioner::hash(&key);
                by_hash.insert((hash, key.clone()), (entry, per_partition.clone()));
                if has_pair {
                    rows.push((key, per_partition));
                }
            }
            let mut remaps = vec![Vec::new(); m];
            let mut lone = vec![Vec::new(); m];
            for ((_, key), (entry, per_partition)) in by_hash {
                for (p, _) in per_partition.iter().enumerate().filter(|(_, &c)| c > 0) {
                    remaps[p].push(entry);
                    if entry == BlockDistributionMatrix::PRUNED {
                        lone[p].push(key.clone());
                    }
                }
            }
            let by_key = rows
                .iter()
                .enumerate()
                .map(|(k, (key, _))| (key.clone(), k))
                .collect();
            Self {
                rows,
                by_key,
                remaps,
                lone,
            }
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
            assert_eq!(bdm.blocks_in(p), model.remaps[p], "blocks_in({p})");
        }
        let lone: Vec<u64> = model
            .lone
            .iter()
            .flatten()
            .map(HashPartitioner::hash)
            .collect();
        assert_eq!(bdm.pruned_key_hashes(), lone);
        assert_eq!(bdm.pruned_entities(), lone.len() as u64);
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
        // Cells that count nothing make no block.
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
    fn blocks_without_a_pair_are_left_out() {
        let k = |s: &str| BlockKey::new(s);
        // Partition 0 sees a, b, c, e; partition 1 sees b, d, e. Only
        // b (one entity in each) and c (two in one) have a pair.
        let bdm = BlockDistributionMatrix::from_key_partitions(&[
            vec![k("c"), k("a"), k("b"), k("c"), k("e")],
            vec![k("d"), k("b"), k("e"), k("e")],
        ]);
        let keys: Vec<&str> = (0..bdm.num_blocks()).map(|i| bdm.key(i).as_str()).collect();
        assert_eq!(keys, ["b", "c", "e"]);
        assert_eq!([bdm.size(0), bdm.size(1), bdm.size(2)], [2, 2, 3]);
        assert_eq!(bdm.total_pairs(), 1 + 1 + 3);
        // Ranks follow the keys' hashes: c, a, e, b in partition 0 and
        // d, e, b in partition 1 (`key_hash`'s golden values).
        const PRUNED: u32 = BlockDistributionMatrix::PRUNED;
        assert_eq!(bdm.blocks_in(0), [1, PRUNED, 2, 0]);
        assert_eq!(bdm.blocks_in(1), [PRUNED, 2, 0]);
        assert_eq!(bdm.block_of_rank(0, 1), None);
        assert_eq!(bdm.block_of_rank(0, 0), Some(1));
        assert_eq!(bdm.block_of_rank(1, 0), None);
        // An entity's ranks resolve to its live blocks: c, a (pruned),
        // e in partition 0; a (pruned), b; d (pruned) alone in 1.
        let mut blocks = Vec::new();
        bdm.live_blocks(0, &[0, 1, 2], &mut blocks);
        assert_eq!(blocks, [1, 2]);
        bdm.live_blocks(0, &[1, 3], &mut blocks);
        assert_eq!(blocks, [0]);
        bdm.live_blocks(1, &[0], &mut blocks);
        assert!(blocks.is_empty());
        assert_eq!(bdm.block_index(&k("a")), None);
        // Of a and d their hashes are left, in (partition, rank) order.
        assert_eq!(bdm.pruned_entities(), 2);
        let hashes = [k("a"), k("d")].map(|key| HashPartitioner::hash(&key));
        assert_eq!(bdm.pruned_key_hashes(), hashes);

        // The same matrix from what the BDM job writes, in any order.
        let cell = |key: &str, count| RankedKey::Cell(k(key), count);
        let records = vec![
            ((1, 1), cell("e", 2)),
            ((0, 2), cell("e", 1)),
            ((1, 0), RankedKey::Lone(hashes[1])),
            ((0, 0), cell("c", 2)),
            ((0, 3), cell("b", 1)),
            ((1, 2), cell("b", 1)),
            ((0, 1), RankedKey::Lone(hashes[0])),
        ];
        assert_eq!(
            BlockDistributionMatrix::from_job_output(2, records.clone()),
            bdm
        );
        // A block the job should have dropped is dropped here.
        let mut undropped = records;
        undropped[6] = ((0, 1), cell("a", 1));
        assert_eq!(BlockDistributionMatrix::from_job_output(2, undropped), bdm);
    }

    /// `key_hash` is [`HashPartitioner::hash`], std's `DefaultHasher`,
    /// whose algorithm std leaves free to change between releases.
    /// Reduce placement, Basic's analysis, the lone entities' notes and
    /// every BDM rank rest on it: a toolchain that changes it fails
    /// here, by name, instead of moving ranks silently. Each key's hash
    /// is also that of its `BlockKey`.
    #[test]
    fn key_hash_is_pinned_to_golden_values() {
        const GOLDEN: [(&str, u64); 8] = [
            ("", 3_476_900_567_878_811_119),
            ("a", 8_186_225_505_942_432_243),
            ("b", 16_993_177_596_579_750_922),
            ("w", 585_348_332_714_601_792),
            ("z", 6_922_738_411_592_503_159),
            ("acme", 1_111_676_390_585_429_433),
            ("sku0012345", 16_721_698_873_736_694_743),
            ("名前", 9_266_483_519_084_164_039),
        ];
        for (key, golden) in GOLDEN {
            assert_eq!(key_hash(key), golden, "{key:?}");
            assert_eq!(HashPartitioner::hash(&key), golden, "{key:?} as &str");
            assert_eq!(
                HashPartitioner::hash(&BlockKey::new(key)),
                golden,
                "{key:?} as BlockKey"
            );
        }
    }

    /// Ranks follow the keys' hashes and block indexes the keys, so a
    /// multi-key entity's ascending ranks can resolve to blocks out of
    /// key order; `live_blocks` sorts them, so their keys come out
    /// sorted, as the smallest-common-key rule reads them.
    #[test]
    fn live_blocks_sorts_an_entitys_blocks_into_key_order() {
        let k = |s: &str| BlockKey::new(s);
        let bdm = BlockDistributionMatrix::from_key_partitions(&[vec![
            k("b"),
            k("c"),
            k("e"),
            k("b"),
            k("c"),
            k("e"),
        ]]);
        let rank_of = |key: &str| {
            let block = bdm.block_index(&k(key)).unwrap();
            bdm.blocks_in(0).iter().position(|&b| b == block).unwrap() as u32
        };
        let mut ranks = ["b", "c", "e"].map(rank_of);
        ranks.sort_unstable();
        let in_rank_order: Vec<u32> = ranks
            .iter()
            .map(|&rank| bdm.block_of_rank(0, rank).unwrap())
            .collect();
        assert!(
            !in_rank_order.is_sorted(),
            "{in_rank_order:?}: no reordering to test"
        );
        let mut blocks = Vec::new();
        bdm.live_blocks(0, &ranks, &mut blocks);
        assert_eq!(blocks, [0, 1, 2]);
        let keys: Vec<&str> = blocks
            .iter()
            .map(|&b| bdm.key(b as usize).as_str())
            .collect();
        assert_eq!(keys, ["b", "c", "e"]);
    }

    /// The remaps come from the job's output alone, so it must name
    /// every rank of a partition once.
    #[test]
    fn job_output_with_a_missing_or_doubled_rank_panics() {
        let cell = |key: &str| RankedKey::Cell(BlockKey::new(key), 2);
        let panics = |records: Vec<((u32, u32), RankedKey)>| {
            std::panic::catch_unwind(|| BlockDistributionMatrix::from_job_output(1, records))
                .is_err()
        };
        assert!(!panics(vec![
            ((0, 0), cell("a")),
            ((0, 1), RankedKey::Lone(7))
        ]));
        // Rank 0 is missing; taken twice by cells, by notes, by both.
        assert!(panics(vec![((0, 1), cell("a"))]));
        assert!(panics(vec![((0, 1), RankedKey::Lone(7))]));
        assert!(panics(vec![((0, 0), cell("a")), ((0, 0), cell("b"))]));
        assert!(panics(vec![
            ((0, 0), RankedKey::Lone(7)),
            ((0, 0), RankedKey::Lone(8))
        ]));
        assert!(panics(vec![
            ((0, 0), cell("a")),
            ((0, 0), RankedKey::Lone(7))
        ]));
        // A partition the job does not have; a cell that counts nothing.
        assert!(panics(vec![((1, 0), cell("a"))]));
        assert!(panics(vec![(
            (0, 0),
            RankedKey::Cell(BlockKey::new("a"), 0)
        )]));
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
