//! # er-lsh — banded-MinHash blocking as a MapReduce workload
//!
//! The engine's third blocking family, next to disjoint key blocking
//! (er-loadbalance) and Sorted Neighborhood (er-sn): entities are
//! shingled and MinHash-signed ([`er_core::minhash`]), the signature
//! is cut into `bands × rows`, and each band's digest becomes a
//! *blocking key* `b<band>:<digest>` — so the whole banded key space
//! rides the existing machinery:
//!
//! * the **signature job** is the block-distribution-matrix job run
//!   under [`LshBlocking`]: it counts every `(band key, partition)`
//!   and side-writes each entity once with the ranks of its band keys
//!   ([`er_loadbalance::RankedEntity`]), yielding the exact per-bucket
//!   pair counts of the banded key space;
//! * the **candidate job** is BlockSplit over that BDM:
//!   oversized buckets (near-duplicate clusters that collide in many
//!   bands) are split into balanced sub-tasks exactly as the paper
//!   splits skewed blocks;
//! * **cross-band dedup is free**: the candidate job's map task keeps
//!   each entity's live buckets — the matrix's indices of its buckets
//!   that have a pair, which it numbers in key order — in its entity
//!   table, and the reducers' smallest-common-block gate
//!   ([`er_loadbalance::compare::GroupComparer`]) evaluates a pair
//!   only in its lexicographically smallest shared band — the
//!   smallest-band-wins analogue of multi-pass blocking, counted
//!   under [`er_loadbalance::compare::MULTIPASS_SKIPPED`]. A band key
//!   no other entity holds cannot be shared, so leaving it out changes
//!   no decision, and an entity with one live band skips the per-pair
//!   gate altogether;
//! * the **adaptive driver** ([`driver::run_lsh_in`]) walks a ladder
//!   of `(bands, rows)` rungs from widest (highest recall, most
//!   candidates) to tightest, running only the cheap signature job
//!   per rung, until the enumerated candidate workload fits the
//!   configured budget — each round reported in the workflow metrics.
//!
//! Both single-source dedup and two-source R×S linkage are supported;
//! the facade crate serves them as `Scenario::Lsh`.

#![forbid(unsafe_code)]

pub mod driver;

use er_core::blocking::{BlockingFunction, KeyText};
use er_core::minhash::{band_hash, banding_probability, MinHasher, ShingleScheme};
use er_core::Entity;

pub use driver::{lsh_candidate_pairs, lsh_oracle, run_lsh_in, LshConfig, LshRound, LshStages};

/// Default seed of the MinHash family (stable across the workspace so
/// signatures, tests and benches agree).
pub const DEFAULT_LSH_SEED: u64 = 0x1CDE_2012;

/// One banding configuration: `bands` bands of `rows` signature rows
/// each (signature length `bands · rows`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bands — each a chance to collide.
    pub bands: usize,
    /// Rows per band — agreement demanded per chance.
    pub rows: usize,
}

impl LshParams {
    /// A `bands × rows` banding.
    ///
    /// # Panics
    /// If either dimension is zero.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands >= 1 && rows >= 1, "need at least one band and row");
        Self { bands, rows }
    }

    /// The signature length this banding consumes.
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// The probability two entities of Jaccard similarity `s` share at
    /// least one bucket — the banding S-curve
    /// ([`er_core::minhash::banding_probability`]). This is the
    /// *estimated recall at similarity `s`* the adaptive driver
    /// reports per round.
    ///
    /// The S-curve is exact for classic MinHash, whose slots are
    /// independent. The row-wise one-permutation family
    /// ([`er_core::MinHasher`]) splits each row's shingles over the
    /// bands, so two entities collide somewhat more often near the
    /// curve's threshold, and the estimate reads low there by up to
    /// ≈ 0.018: in a simulation over 200 000 pairs per point, 0.866
    /// collided against the curve's 0.848 at 16 × 2 with `s = 1/3`,
    /// 0.947 against 0.935 at 8 × 4 with `s = 0.733`, and 0.452
    /// against 0.437 at 4 × 8 with `s = 0.778`.
    pub fn collision_probability(&self, s: f64) -> f64 {
        banding_probability(s, self.bands, self.rows)
    }
}

impl std::fmt::Display for LshParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.bands, self.rows)
    }
}

/// Banded-MinHash blocking: an entity's blocking keys are the digests
/// of its signature bands, rendered as `b<band>:<digest hex>`. Under
/// the BDM job an entity thus has one rank per band and lands in every
/// band bucket it occupies — multi-pass blocking over the banded key
/// space — and the smallest-common-block rule turns into
/// *smallest-band-wins* exactly-once candidate dedup.
#[derive(Debug, Clone)]
pub struct LshBlocking {
    params: LshParams,
    hasher: MinHasher,
    scheme: ShingleScheme,
    attribute: String,
}

impl LshBlocking {
    /// Banded blocking over `attribute` with the given shingle scheme
    /// and MinHash seed.
    pub fn new(
        params: LshParams,
        scheme: ShingleScheme,
        attribute: impl Into<String>,
        seed: u64,
    ) -> Self {
        Self {
            params,
            hasher: MinHasher::new(params.bands, params.rows, seed),
            scheme,
            attribute: attribute.into(),
        }
    }

    /// The workspace default: character trigrams of `title` under
    /// [`DEFAULT_LSH_SEED`].
    pub fn title_trigrams(params: LshParams) -> Self {
        Self::new(
            params,
            ShingleScheme::CharGrams(3),
            "title",
            DEFAULT_LSH_SEED,
        )
    }

    /// The entity's MinHash signature, or `None` when the attribute is
    /// missing or shingles to the empty set. Such an entity has no band
    /// key: it is counted under
    /// [`er_loadbalance::bdm_job::NULL_KEY_ENTITIES`] and compared with
    /// no entity (LSH does not run the blocking families' `⊥` stages).
    pub fn signature(&self, entity: &Entity) -> Option<Vec<u64>> {
        let text = entity.get(&self.attribute)?;
        self.hasher.text_signature(text, self.scheme)
    }
}

/// The key text `b<band>:<digest>` — `format!("b{band:03}:{digest:016x}")`
/// written into a stack buffer (`format!` and its `String` were most
/// of the key's cost) and handed to `use_key`. The band index widens
/// past three digits from band 1000 on.
fn band_key<R>(band: usize, digest: u64, use_key: impl FnOnce(&str) -> R) -> R {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // 'b', up to 20 decimal digits of a 64-bit band, ':', 16 hex digits.
    const LEN: usize = 1 + 20 + 1 + 16;
    let mut text = [b'0'; LEN];
    let mut at = LEN;
    for nibble in 0..16 {
        at -= 1;
        text[at] = HEX[(digest >> (4 * nibble)) as usize & 0xf];
    }
    at -= 1;
    text[at] = b':';
    let colon = at;
    let mut rest = band;
    while rest > 0 || colon - at < 3 {
        at -= 1;
        text[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    at -= 1;
    text[at] = b'b';
    use_key(std::str::from_utf8(&text[at..]).expect("ASCII bytes are UTF-8"))
}

impl BlockingFunction for LshBlocking {
    /// The band keys in band order, band 0's first — strictly
    /// increasing below band 1000, so the BDM job's mapper need not
    /// sort them — written straight into `out`: the signature is the
    /// one allocation.
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        if let Some(signature) = self.signature(entity) {
            for band in 0..self.params.bands {
                let digest = band_hash(&signature, band, self.params.rows);
                band_key(band, digest, |key| out.push(key));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::blocking::BlockKey;
    use er_core::minhash::shingle_hashes;

    fn entity(id: u64, title: &str) -> Entity {
        Entity::new(id, [("title", title)])
    }

    #[test]
    fn params_expose_signature_length_and_s_curve() {
        let p = LshParams::new(16, 2);
        assert_eq!(p.signature_len(), 32);
        assert_eq!(p.to_string(), "16x2");
        assert!(p.collision_probability(0.9) > p.collision_probability(0.3));
        assert_eq!(p.collision_probability(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_rejected() {
        let _ = LshParams::new(0, 2);
    }

    #[test]
    fn band_keys_equal_their_format_string() {
        let digests = [
            0,
            1,
            0xf,
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            u64::MAX,
        ];
        for band in [0, 7, 10, 99, 100, 999, 1000, 12_345, usize::MAX] {
            for digest in digests {
                assert_eq!(
                    band_key(band, digest, str::to_owned),
                    format!("b{band:03}:{digest:016x}")
                );
            }
        }
    }

    #[test]
    fn keys_equal_the_stepwise_derivation() {
        // shingle set → signature → band digests → formatted keys, one
        // public step at a time, against the fused `keys`.
        let long = "Nikon  D800 ".repeat(20);
        for params in [
            LshParams::new(8, 4),
            LshParams::new(1, 1),
            LshParams::new(11, 3),
        ] {
            for scheme in [ShingleScheme::CharGrams(3), ShingleScheme::Tokens] {
                let blocking = LshBlocking::new(params, scheme, "title", 99);
                let hasher = MinHasher::new(params.bands, params.rows, 99);
                for title in ["Canon EOS\x0b5D  Mark III ", "ab", "ΟΔΟΣ\u{a0}5", &long] {
                    let signature = hasher.signature(&shingle_hashes(title, scheme));
                    let stepwise: Vec<BlockKey> = (0..params.bands)
                        .map(|band| {
                            let digest = band_hash(&signature, band, params.rows);
                            BlockKey::new(format!("b{band:03}:{digest:016x}"))
                        })
                        .collect();
                    let e = entity(1, title);
                    assert_eq!(blocking.keys(&e), stepwise, "{params} {scheme} {title:?}");
                    assert_eq!(blocking.key(&e).as_ref(), stepwise.first());
                }
            }
        }
    }

    #[test]
    fn one_band_key_per_band_grouped_by_band_index() {
        let blocking = LshBlocking::title_trigrams(LshParams::new(8, 4));
        let keys = blocking.keys(&entity(1, "canon eos 5d mark iii"));
        assert_eq!(keys.len(), 8);
        for (band, key) in keys.iter().enumerate() {
            assert!(
                key.as_str().starts_with(&format!("b{band:03}:")),
                "key {key} must carry its band index"
            );
        }
    }

    #[test]
    fn identical_titles_share_every_band_distinct_titles_rarely_any() {
        let blocking = LshBlocking::title_trigrams(LshParams::new(16, 2));
        let a = blocking.keys(&entity(1, "canon eos 5d mark iii"));
        let b = blocking.keys(&entity(2, "canon eos 5d mark iii"));
        assert_eq!(a, b, "equal text, equal buckets in every band");
        let c = blocking.keys(&entity(3, "completely unrelated product"));
        assert!(
            a.iter().filter(|k| c.contains(k)).count() < a.len() / 2,
            "unrelated text must not collide broadly"
        );
    }

    #[test]
    fn missing_or_empty_attribute_yields_no_keys() {
        let blocking = LshBlocking::title_trigrams(LshParams::new(4, 2));
        assert!(blocking.keys(&Entity::new(1, [("name", "x")])).is_empty());
        assert!(blocking.keys(&entity(2, "   ")).is_empty());
        assert!(blocking.key(&entity(3, "")).is_none());
    }

    #[test]
    fn keys_are_deterministic_across_instances() {
        let e = entity(7, "nikon d800 body only");
        let a = LshBlocking::title_trigrams(LshParams::new(8, 2)).keys(&e);
        let b = LshBlocking::title_trigrams(LshParams::new(8, 2)).keys(&e);
        assert_eq!(a, b);
    }
}
