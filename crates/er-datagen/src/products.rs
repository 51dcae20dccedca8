//! DS1-like generator: product descriptions.
//!
//! The paper's DS1 holds ~114 000 product descriptions blocked on the
//! first three title letters, with the largest block contributing more
//! than 70 % of all comparison pairs (§VI-B). The default spec below
//! reproduces those facts (verified by the tests below).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::dataset::{build_skewed, Dataset, RecordStyle};
use crate::vocab::{PRODUCT_NOUNS, PRODUCT_QUALIFIERS};
use crate::DatasetSpec;

/// The DS1-like default: 114 000 products, one dominant 3-letter
/// prefix holding 9 % of the entities — which, over the flat Zipf-0.5
/// tail, contributes >90 % of all pairs at full scale and >70 % at
/// every bench scale (the paper reports >70 % for DS1) — plus 5 %
/// injected duplicates.
pub fn ds1_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        n_entities: 114_000,
        n_blocks: 3_000,
        dominant_share: 0.09,
        zipf_exponent: 0.5,
        dup_rate: 0.05,
        seed,
    }
}

struct ProductStyle;

impl RecordStyle for ProductStyle {
    fn title(&self, prefix: &str, code: &str, ordinal: usize) -> String {
        // Short pools only: the 29-character title cap keeps the
        // duplicate/non-duplicate similarity margins provable.
        let quals: Vec<&str> = PRODUCT_QUALIFIERS
            .iter()
            .copied()
            .filter(|q| q.len() <= 5)
            .collect();
        let nouns: Vec<&str> = PRODUCT_NOUNS
            .iter()
            .copied()
            .filter(|n| n.len() <= 6)
            .collect();
        let q = quals[ordinal % quals.len()];
        let n = nouns[(ordinal / quals.len()) % nouns.len()];
        format!("{prefix}{q} {code} {n}")
    }

    fn extra_attributes(&self, rng: &mut SmallRng) -> Vec<(String, String)> {
        vec![
            (
                "price".to_string(),
                format!("{}.99", rng.gen_range(5..2000)),
            ),
            (
                "sku".to_string(),
                format!("SKU-{:07}", rng.gen_range(0..10_000_000)),
            ),
        ]
    }
}

/// Generates a DS1-like product dataset.
pub fn generate_products(spec: &DatasetSpec) -> Dataset {
    build_skewed(spec, "DS1-like products", &ProductStyle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::BlockStats;
    use er_core::blocking::PrefixBlocking;
    use er_core::Matcher;

    #[test]
    fn scaled_ds1_reproduces_figure8_facts() {
        // 5% scale keeps the test fast; shares are scale-invariant.
        let ds = generate_products(&ds1_spec(3).scaled(0.05));
        let stats = BlockStats::compute(&ds.entities, &PrefixBlocking::title3());
        assert!(
            stats.largest_pair_share() > 0.70,
            "paper: largest block >70% of pairs; got {:.3}",
            stats.largest_pair_share()
        );
        assert!(stats.n_blocks > 50);
        assert_eq!(stats.n_null_key, 0);
    }

    #[test]
    fn titles_satisfy_length_cap() {
        let ds = generate_products(&ds1_spec(3).scaled(0.01));
        for e in &ds.entities {
            let t = e.get("title").unwrap();
            assert!(
                t.chars().count() <= 29,
                "title exceeds margin cap: {t:?} ({})",
                t.chars().count()
            );
        }
    }

    #[test]
    fn gold_pairs_share_a_block_and_match() {
        let ds = generate_products(&ds1_spec(5).scaled(0.01));
        let blocking = PrefixBlocking::title3();
        let matcher = Matcher::paper_default();
        use er_core::blocking::BlockingFunction;
        let by_ref: std::collections::BTreeMap<_, _> =
            ds.entities.iter().map(|e| (e.entity_ref(), e)).collect();
        for pair in ds.gold.iter() {
            let a = by_ref[&pair.lo()];
            let b = by_ref[&pair.hi()];
            assert_eq!(
                blocking.key(a),
                blocking.key(b),
                "duplicates must stay in one block (prefix-protected perturbation)"
            );
            assert!(
                matcher.matches(a, b).is_some(),
                "gold pair must pass the 0.8 threshold: {:?} vs {:?}",
                a.get("title"),
                b.get("title")
            );
        }
    }

    #[test]
    fn matcher_finds_exactly_the_gold_pairs_within_blocks() {
        // The distance-margin design guarantees zero false positives:
        // brute-force every within-block pair of a small dataset.
        let ds = generate_products(&ds1_spec(7).scaled(0.004));
        let blocking = PrefixBlocking::title3();
        let matcher = Matcher::paper_default();
        use er_core::blocking::BlockingFunction;
        let mut blocks: std::collections::BTreeMap<_, Vec<&er_core::Entity>> = Default::default();
        for e in &ds.entities {
            blocks.entry(blocking.key(e).unwrap()).or_default().push(e);
        }
        let mut found = Vec::new();
        for members in blocks.values() {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    if matcher.matches(members[i], members[j]).is_some() {
                        found.push(er_core::result::MatchPair::new(
                            members[i].entity_ref(),
                            members[j].entity_ref(),
                        ));
                    }
                }
            }
        }
        let found_set: std::collections::BTreeSet<_> = found.into_iter().collect();
        let gold_set: std::collections::BTreeSet<_> = ds.gold.iter().collect();
        assert_eq!(
            found_set, gold_set,
            "matches within blocks must be exactly the injected duplicates"
        );
    }
}
