//! Datasets, the shared skew-shaped builder, and block statistics.

use std::collections::BTreeMap;

use er_core::blocking::{BlockKey, BlockingFunction};
use er_core::pairs::triangle_pairs;
use er_core::result::{GoldStandard, MatchPair};
use er_core::Entity;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::duplicates::{code_capacity, perturb_title, rs_code, EditOps};
use crate::rng::stream_rng;
use crate::skew::zipf_block_sizes;
use crate::vocab::block_prefix;
use crate::DatasetSpec;

/// A generated dataset: entities (in arbitrary order) plus the gold
/// standard of injected duplicates.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name for reports.
    pub name: String,
    /// Entities in generation-shuffled ("arbitrary") order.
    pub entities: Vec<Entity>,
    /// True duplicate pairs.
    pub gold: GoldStandard,
}

impl Dataset {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

/// How titles (and extra attributes) are rendered; the distribution
/// machinery is shared between the product and publication generators.
pub(crate) trait RecordStyle {
    /// Renders the title for an original entity. `prefix` is the
    /// 3-letter blocking prefix, `code` the distance-guaranteeing
    /// codeword, `ordinal` the original's index within its block.
    fn title(&self, prefix: &str, code: &str, ordinal: usize) -> String;

    /// Extra (non-matched) attributes for flavour.
    fn extra_attributes(&self, rng: &mut rand::rngs::SmallRng) -> Vec<(String, String)>;
}

/// Maximum edits applied to a duplicate's title. One edit keeps a
/// provable margin between duplicates (similarity ≥ ~0.96) and
/// distinct originals (≤ ~0.79 given the code distance and the ≤29
/// character title cap enforced by [`build_skewed`]).
pub(crate) const DUP_MAX_EDITS: usize = 1;

/// Builds a dataset from a [`DatasetSpec`]: one dominant block plus a
/// Zipf tail, duplicates injected per block, order shuffled.
pub(crate) fn build_skewed(spec: &DatasetSpec, name: &str, style: &dyn RecordStyle) -> Dataset {
    let sizes = block_sizes(spec);
    let mut entities: Vec<Entity> = Vec::with_capacity(spec.n_entities);
    let mut gold_pairs: Vec<MatchPair> = Vec::new();
    let mut title_rng = stream_rng(spec.seed, 0xA11);
    let mut attr_rng = stream_rng(spec.seed, 0xA22);
    let mut id = 0u64;
    for (k, &size) in sizes.iter().enumerate() {
        if size == 0 {
            continue;
        }
        let prefix = block_prefix(k);
        let dups = ((size as f64) * spec.dup_rate).floor() as usize;
        let dups = dups.min(size.saturating_sub(1));
        let originals = size - dups;
        // Originals: code index == ordinal within the block.
        let mut original_slots: Vec<(u64, String)> = Vec::with_capacity(originals);
        for j in 0..originals {
            let code = rs_code(j % code_capacity());
            let title = style.title(&prefix, &code, j);
            debug_assert!(
                title.chars().count() <= 29,
                "title too long for the distance guarantee: {title:?}"
            );
            let mut attrs = vec![("title".to_string(), title.clone())];
            attrs.extend(style.extra_attributes(&mut attr_rng));
            entities.push(Entity::new(
                id,
                attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            ));
            original_slots.push((id, title));
            id += 1;
        }
        // Duplicates: perturbed copies of a random original of this
        // block; gold closure covers dup-original and dup-dup pairs.
        let mut dups_of: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for _ in 0..dups {
            let target = title_rng.gen_range(0..original_slots.len());
            let (orig_id, orig_title) = &original_slots[target];
            let (dup_title, _) = perturb_title(
                &mut title_rng,
                orig_title,
                DUP_MAX_EDITS,
                3,
                EditOps::SubstituteOnly,
            );
            let mut attrs = vec![("title".to_string(), dup_title)];
            attrs.extend(style.extra_attributes(&mut attr_rng));
            entities.push(Entity::new(
                id,
                attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())),
            ));
            let dup_ref = entities.last().unwrap().entity_ref();
            let orig_ref = entities[*orig_id as usize].entity_ref();
            gold_pairs.push(MatchPair::new(dup_ref, orig_ref));
            let siblings = dups_of.entry(target).or_default();
            for &sib in siblings.iter() {
                let sib_ref = entities[sib as usize].entity_ref();
                gold_pairs.push(MatchPair::new(dup_ref, sib_ref));
            }
            siblings.push(id);
            id += 1;
        }
    }
    let mut order_rng = stream_rng(spec.seed, 0xA33);
    entities.shuffle(&mut order_rng);
    Dataset {
        name: name.to_string(),
        entities,
        gold: GoldStandard::from_pairs(gold_pairs),
    }
}

/// The block sizes a spec induces: dominant block first, Zipf tail.
pub fn block_sizes(spec: &DatasetSpec) -> Vec<usize> {
    assert!(spec.n_blocks >= 1);
    assert!((0.0..1.0).contains(&spec.dominant_share));
    let dominant = ((spec.n_entities as f64) * spec.dominant_share).round() as usize;
    let dominant = dominant.min(spec.n_entities);
    if spec.n_blocks == 1 {
        return vec![spec.n_entities];
    }
    let tail = zipf_block_sizes(
        spec.n_entities - dominant,
        spec.n_blocks - 1,
        spec.zipf_exponent,
    );
    let mut sizes = Vec::with_capacity(spec.n_blocks);
    sizes.push(dominant);
    sizes.extend(tail);
    sizes
}

/// The blocking-key sequence a spec induces, in the same (shuffled)
/// order as the full dataset — but without materializing titles or
/// entities. This powers paper-scale workload analysis (1.4 M keys
/// instead of 1.4 M entities).
pub fn key_sequence(spec: &DatasetSpec) -> Vec<BlockKey> {
    let sizes = block_sizes(spec);
    let mut keys: Vec<BlockKey> = Vec::with_capacity(spec.n_entities);
    for (k, &size) in sizes.iter().enumerate() {
        if size == 0 {
            continue;
        }
        let key = BlockKey::new(block_prefix(k));
        keys.extend(std::iter::repeat_with(|| key.clone()).take(size));
    }
    let mut order_rng = stream_rng(spec.seed, 0xA33);
    keys.shuffle(&mut order_rng);
    keys
}

/// Block-distribution statistics of a dataset under a blocking
/// function (the numbers of the paper's Figure 8).
#[derive(Debug, Clone)]
pub struct BlockStats {
    /// Entities with a valid blocking key.
    pub n_entities: usize,
    /// Entities without a blocking key.
    pub n_null_key: usize,
    /// Number of distinct blocks.
    pub n_blocks: usize,
    /// Entities in the largest block.
    pub largest_block: usize,
    /// Comparison pairs in the largest block.
    pub largest_block_pairs: u64,
    /// Total comparison pairs over all blocks.
    pub total_pairs: u64,
}

impl BlockStats {
    /// Computes stats for `entities` under `blocking`.
    pub fn compute(entities: &[Entity], blocking: &dyn BlockingFunction) -> Self {
        let mut counts: BTreeMap<BlockKey, usize> = BTreeMap::new();
        let mut null_key = 0usize;
        for e in entities {
            match blocking.key(e) {
                Some(k) => *counts.entry(k).or_insert(0) += 1,
                None => null_key += 1,
            }
        }
        let largest = counts.values().copied().max().unwrap_or(0);
        let total_pairs: u64 = counts.values().map(|&c| triangle_pairs(c as u64)).sum();
        BlockStats {
            n_entities: entities.len() - null_key,
            n_null_key: null_key,
            n_blocks: counts.len(),
            largest_block: largest,
            largest_block_pairs: triangle_pairs(largest as u64),
            total_pairs,
        }
    }

    /// Share of entities in the largest block.
    pub fn largest_entity_share(&self) -> f64 {
        if self.n_entities == 0 {
            0.0
        } else {
            self.largest_block as f64 / self.n_entities as f64
        }
    }

    /// Share of comparison pairs contributed by the largest block —
    /// the paper reports >70 % for DS1.
    pub fn largest_pair_share(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.largest_block_pairs as f64 / self.total_pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::blocking::PrefixBlocking;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            n_entities: 400,
            n_blocks: 12,
            dominant_share: 0.3,
            zipf_exponent: 1.0,
            dup_rate: 0.1,
            seed: 11,
        }
    }

    struct PlainStyle;
    impl RecordStyle for PlainStyle {
        fn title(&self, prefix: &str, code: &str, _ordinal: usize) -> String {
            format!("{prefix} {code}")
        }
        fn extra_attributes(&self, _rng: &mut rand::rngs::SmallRng) -> Vec<(String, String)> {
            vec![]
        }
    }

    #[test]
    fn builder_produces_requested_count_and_gold() {
        let ds = build_skewed(&tiny_spec(), "tiny", &PlainStyle);
        assert_eq!(ds.len(), 400);
        assert!(!ds.gold.is_empty(), "dup_rate 0.1 must inject duplicates");
    }

    #[test]
    fn builder_is_deterministic() {
        let a = build_skewed(&tiny_spec(), "tiny", &PlainStyle);
        let b = build_skewed(&tiny_spec(), "tiny", &PlainStyle);
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.gold.len(), b.gold.len());
    }

    #[test]
    fn key_sequence_matches_full_dataset_layout() {
        let spec = tiny_spec();
        let ds = build_skewed(&spec, "tiny", &PlainStyle);
        let keys = key_sequence(&spec);
        assert_eq!(keys.len(), ds.len());
        let blocking = PrefixBlocking::title3();
        for (e, k) in ds.entities.iter().zip(keys.iter()) {
            assert_eq!(
                blocking.key(e).unwrap(),
                *k,
                "key sequence must mirror the dataset's shuffled layout"
            );
        }
    }

    #[test]
    fn block_stats_of_dominant_layout() {
        let spec = tiny_spec();
        let ds = build_skewed(&spec, "tiny", &PlainStyle);
        let stats = BlockStats::compute(&ds.entities, &PrefixBlocking::title3());
        assert_eq!(stats.n_entities, 400);
        assert_eq!(stats.n_null_key, 0);
        assert_eq!(stats.largest_block, 120, "dominant share 0.3 of 400");
        assert!(stats.largest_pair_share() > 0.5);
        assert!(stats.n_blocks <= spec.n_blocks);
    }

    #[test]
    fn stats_handle_null_keys() {
        let mut entities = vec![Entity::new(0, [("title", "abc thing")])];
        entities.push(Entity::new(1, [("brand", "no title")]));
        let stats = BlockStats::compute(&entities, &PrefixBlocking::title3());
        assert_eq!(stats.n_entities, 1);
        assert_eq!(stats.n_null_key, 1);
        assert_eq!(stats.total_pairs, 0);
        assert_eq!(stats.largest_pair_share(), 0.0);
    }
}
