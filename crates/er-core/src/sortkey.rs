//! Sort keys and range partitioning for Sorted Neighborhood blocking.
//!
//! Sorted Neighborhood (Hernández & Stolfo, 1995) replaces disjoint
//! blocks with a *total order*: entities are sorted by a sort key and
//! every pair within a sliding window of size `w` is compared. Mapping
//! that onto MapReduce (Kolb, Thor, Rahm; "Parallel Sorted Neighborhood
//! Blocking with MapReduce", 2010) needs exactly two primitives, both
//! provided here:
//!
//! * a [`SortKeyFunction`] deriving the sort key of an entity (the
//!   analogue of [`crate::blocking::BlockingFunction`], but producing a
//!   key whose *order* matters rather than a partition label) — its
//!   attribute form, [`AttributeSortKey`], derives ASCII values
//!   byte-wise with one allocation per key and keeps a char-wise path
//!   as the definition for all other text, and
//! * a [`RangePartitioner`] that routes keys to `p` contiguous,
//!   order-preserving ranges, built from a sampled key distribution —
//!   so that concatenating reduce partitions `0..p` in index order
//!   yields the globally sorted sequence.
//!
//! The partitioner is deliberately generic over the key type: the
//! er-sn crate instantiates it with [`SortKey`], and tests exercise it
//! with plain integers.

use std::fmt;
use std::sync::Arc;

use crate::entity::Entity;

/// A sort key. Cheap to clone (shared storage) because keys travel
/// inside every shuffled composite key, exactly like
/// [`crate::blocking::BlockKey`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortKey(Arc<str>);

impl SortKey {
    /// Creates a key from any string-ish value.
    pub fn new(s: impl AsRef<str>) -> Self {
        SortKey(Arc::from(s.as_ref()))
    }

    /// The empty key — sorts before every non-empty key. Used as the
    /// deterministic destination for entities without a valid sort key
    /// (see er-sn).
    pub fn empty() -> Self {
        SortKey::new("")
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the [`SortKey::empty`] key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for SortKey {
    fn from(s: &str) -> Self {
        SortKey::new(s)
    }
}

/// Derives sort keys from entities.
///
/// `sort_key` returns `None` when the entity has no usable key (missing
/// or empty attribute); er-sn routes such entities under
/// [`SortKey::empty`] — never drops them silently.
pub trait SortKeyFunction: Send + Sync {
    /// The sort key of `entity`, if one can be derived.
    fn sort_key(&self, entity: &Entity) -> Option<SortKey>;
}

/// Sort key from one attribute value: lower-cased, whitespace-trimmed,
/// optionally truncated to a character prefix (the classic SN sort key
/// is a short prefix so that near-duplicates collate adjacently).
///
/// Trimming is [`str::trim`] (Unicode `White_Space`, which includes
/// `\x0b`). When the key's head — the whole trimmed value, or its
/// first `len` bytes under a prefix — is ASCII and at most 64 bytes,
/// every character is one byte that lowercases to one byte, so the key
/// is cut and lowercased byte-wise into a stack buffer and costs one
/// allocation (the key). Any other value takes the char-wise path,
/// which defines the key.
#[derive(Debug, Clone)]
pub struct AttributeSortKey {
    attribute: String,
    prefix_len: Option<usize>,
}

impl AttributeSortKey {
    /// Sorts on the full (normalized) value of `attribute`.
    pub fn new(attribute: impl Into<String>) -> Self {
        Self {
            attribute: attribute.into(),
            prefix_len: None,
        }
    }

    /// Sorts on the first `len` characters of the normalized value.
    ///
    /// # Panics
    /// If `len` is zero — an empty prefix cannot order anything.
    pub fn prefix(attribute: impl Into<String>, len: usize) -> Self {
        assert!(len > 0, "a sort-key prefix needs at least one character");
        Self {
            attribute: attribute.into(),
            prefix_len: Some(len),
        }
    }

    /// The paper-style default: the full normalized `title`.
    pub fn title() -> Self {
        Self::new("title")
    }

    /// Longest ASCII key the fast path lowercases on the stack.
    const STACK_KEY: usize = 64;

    /// The defining normalization, for any text.
    fn general_key(&self, value: &str) -> Option<SortKey> {
        // Normalize first, then truncate: lowercasing can expand a
        // character (e.g. 'İ' → "i\u{307}"), and a prefix must be a
        // prefix of the *normalized* value or equal inputs would stop
        // collating together.
        let lowered = value.trim().chars().flat_map(char::to_lowercase);
        let normalized: String = match self.prefix_len {
            Some(len) => lowered.take(len).collect(),
            None => lowered.collect(),
        };
        if normalized.is_empty() {
            None
        } else {
            Some(SortKey::new(normalized))
        }
    }
}

impl SortKeyFunction for AttributeSortKey {
    fn sort_key(&self, entity: &Entity) -> Option<SortKey> {
        let value = entity.get(&self.attribute)?;
        let trimmed = value.trim().as_bytes();
        let head = match self.prefix_len {
            Some(len) => trimmed.get(..len).unwrap_or(trimmed),
            None => trimmed,
        };
        // An ASCII head is exactly the first `len` characters, each
        // lowercasing to one byte; a non-ASCII byte anywhere in it
        // (the cut may even split a character), or a head longer than
        // the stack buffer, hands the value to the general path.
        if head.len() > Self::STACK_KEY || !head.is_ascii() {
            return self.general_key(value);
        }
        if head.is_empty() {
            return None;
        }
        let mut buffer = [0u8; Self::STACK_KEY];
        let lowered = &mut buffer[..head.len()];
        for (out, &byte) in lowered.iter_mut().zip(head) {
            *out = byte.to_ascii_lowercase();
        }
        let key = std::str::from_utf8(lowered).expect("ASCII bytes are UTF-8");
        Some(SortKey::new(key))
    }
}

/// Reverses the character order of an inner function's sort key — the
/// classic second pass of multi-pass Sorted Neighborhood.
///
/// A single sort key collates records by their *prefix*: entities
/// differing early in the key (a typo in the first word, a reordered
/// token) sort far apart and never share a window. Re-running SN on
/// the reversed key collates records by their *suffix* instead, so the
/// union of the two passes' window pair sets recovers most of those
/// misses (cf. *Data Partitioning for Parallel Entity Matching*, which
/// uses multi-pass blocking as the standard recall lever).
#[derive(Clone)]
pub struct ReversedSortKey {
    inner: Arc<dyn SortKeyFunction>,
}

impl ReversedSortKey {
    /// Reverses the keys derived by `inner`.
    pub fn new(inner: Arc<dyn SortKeyFunction>) -> Self {
        Self { inner }
    }

    /// The paper-style default reversed: the full normalized `title`,
    /// characters in reverse order.
    pub fn title() -> Self {
        Self::new(Arc::new(AttributeSortKey::title()))
    }
}

impl SortKeyFunction for ReversedSortKey {
    fn sort_key(&self, entity: &Entity) -> Option<SortKey> {
        let key = self.inner.sort_key(entity)?;
        Some(SortKey::new(key.as_str().chars().rev().collect::<String>()))
    }
}

impl fmt::Debug for ReversedSortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReversedSortKey").finish_non_exhaustive()
    }
}

/// An order-preserving partitioner over `p` contiguous key ranges.
///
/// Built from a sampled key distribution: boundary `i` (for
/// `i ∈ 1..p`) is the smallest sampled key whose cumulative sample
/// weight reaches `⌈total·i/p⌉`. Partition `i` then receives the keys
/// in `(boundary[i-1], boundary[i]]` (partition 0 everything up to and
/// including the first boundary, the last partition everything above
/// the last boundary).
///
/// Two invariants hold by construction, regardless of how biased the
/// sample is:
///
/// * **monotonicity** — `k₁ ≤ k₂ ⇒ partition_of(k₁) ≤ partition_of(k₂)`,
///   so concatenating partitions in index order is globally sorted;
/// * **equal keys collocate** — `partition_of` is a pure function of
///   the key, so duplicate keys can never straddle a partition
///   boundary.
///
/// When the sample has fewer distinct keys than requested partitions
/// (including the degenerate all-duplicate-keys sample) consecutive
/// boundaries coincide and the ranges between them are simply *empty*:
/// the requested partition count is preserved and both invariants
/// continue to hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartitioner<K> {
    /// Upper (inclusive) bounds of partitions `0..p-1`, non-decreasing.
    boundaries: Vec<K>,
}

impl<K: Ord + Clone> RangePartitioner<K> {
    /// Builds the partitioner from a weighted sample: `counts` must be
    /// sorted ascending by key with strictly positive weights (the
    /// natural shape of a key histogram).
    ///
    /// An empty sample yields a single catch-all partition. The weight
    /// total and the quantile targets are computed in `u128`, so counts
    /// whose `total × partitions` passes `u64::MAX` still place exact
    /// boundaries.
    ///
    /// # Panics
    /// If `partitions` is zero or `counts` is not sorted ascending.
    pub fn from_counts(counts: impl IntoIterator<Item = (K, u64)>, partitions: usize) -> Self {
        assert!(partitions > 0, "at least one partition is required");
        let counts: Vec<(K, u64)> = counts.into_iter().collect();
        assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "key counts must be sorted ascending by distinct key"
        );
        let total: u128 = counts
            .iter()
            .try_fold(0u128, |sum, &(_, c)| sum.checked_add(u128::from(c)))
            .expect("a histogram's total weight fits in u128");
        if total == 0 || partitions == 1 {
            return Self {
                boundaries: Vec::new(),
            };
        }
        let mut boundaries = Vec::with_capacity(partitions - 1);
        let mut cumulative = 0u128;
        let mut idx = 0usize;
        let mut last_key: Option<K> = None;
        for i in 1..partitions {
            // Boundary i: the smallest key whose cumulative weight
            // reaches the i-th quantile target. When a heavy key
            // already passed several targets, boundaries repeat and
            // the ranges between them are empty.
            let target = total
                .checked_mul(i as u128)
                .expect("a quantile target fits in u128")
                .div_ceil(partitions as u128);
            while cumulative < target {
                let (key, count) = &counts[idx];
                cumulative += u128::from(*count);
                last_key = Some(key.clone());
                idx += 1;
            }
            boundaries.push(last_key.clone().expect("a positive target consumes a key"));
        }
        Self { boundaries }
    }

    /// Builds the partitioner from an unweighted sample (unsorted,
    /// duplicates allowed).
    pub fn from_sample(mut sample: Vec<K>, partitions: usize) -> Self {
        sample.sort();
        let mut counts: Vec<(K, u64)> = Vec::new();
        for key in sample {
            match counts.last_mut() {
                Some((k, c)) if *k == key => *c += 1,
                _ => counts.push((key, 1)),
            }
        }
        Self::from_counts(counts, partitions)
    }

    /// The partition index of `key` — monotone in the key order.
    pub fn partition_of(&self, key: &K) -> usize {
        self.boundaries.partition_point(|b| b < key)
    }

    /// Number of partitions (`boundaries + 1`).
    pub fn num_partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The boundary keys, non-decreasing; partition `i < p-1` holds
    /// keys `≤ boundaries[i]` (and above the previous boundary).
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_basics() {
        let k = SortKey::new("canon eos");
        assert_eq!(k.as_str(), "canon eos");
        assert_eq!(k.to_string(), "canon eos");
        assert!(!k.is_empty());
        assert!(SortKey::empty().is_empty());
        assert!(SortKey::empty() < SortKey::new("a"), "empty sorts first");
        assert_eq!(SortKey::from("x"), SortKey::new("x"));
    }

    #[test]
    fn attribute_sort_key_normalizes() {
        let f = AttributeSortKey::title();
        let e = Entity::new(1, [("title", "  Canon EOS 5D  ")]);
        assert_eq!(f.sort_key(&e).unwrap().as_str(), "canon eos 5d");
    }

    #[test]
    fn attribute_sort_key_prefix_truncates_by_chars() {
        let f = AttributeSortKey::prefix("title", 3);
        let e = Entity::new(1, [("title", "Äbcdef")]);
        assert_eq!(f.sort_key(&e).unwrap().as_str(), "äbc");
    }

    #[test]
    fn prefix_truncates_after_normalization() {
        // 'İ' lowercases to two chars ("i\u{307}"); the prefix must be
        // taken from the normalized form so equal normalized values
        // keep equal keys.
        let f = AttributeSortKey::prefix("title", 3);
        let upper = Entity::new(1, [("title", "İstanbul")]);
        let lower = Entity::new(2, [("title", "i\u{307}stanbul")]);
        assert_eq!(f.sort_key(&upper), f.sort_key(&lower));
        assert_eq!(f.sort_key(&upper).unwrap().as_str().chars().count(), 3);
    }

    #[test]
    fn missing_or_blank_attribute_yields_none() {
        let f = AttributeSortKey::title();
        assert_eq!(f.sort_key(&Entity::new(1, [("brand", "x")])), None);
        assert_eq!(f.sort_key(&Entity::new(1, [("title", "   ")])), None);
    }

    #[test]
    #[should_panic(expected = "at least one character")]
    fn zero_length_prefix_rejected() {
        let _ = AttributeSortKey::prefix("title", 0);
    }

    #[test]
    fn reversed_sort_key_reverses_the_normalized_key() {
        let f = ReversedSortKey::title();
        let e = Entity::new(1, [("title", "  Canon EOS  ")]);
        assert_eq!(f.sort_key(&e).unwrap().as_str(), "soe nonac");
        // Keyless entities stay keyless — they route under the empty
        // key identically in every pass.
        assert_eq!(f.sort_key(&Entity::new(2, [("brand", "x")])), None);
        // Suffix-equal titles collate adjacently under the reversed
        // key even though their prefixes differ.
        let a = f
            .sort_key(&Entity::new(3, [("title", "xq rocket skates")]))
            .unwrap();
        let b = f
            .sort_key(&Entity::new(4, [("title", "zp rocket skates")]))
            .unwrap();
        assert_eq!(a.as_str()[..13], b.as_str()[..13]);
        assert!(format!("{f:?}").contains("ReversedSortKey"));
    }

    #[test]
    fn range_partitioner_splits_a_uniform_sample_evenly() {
        let sample: Vec<u32> = (0..100).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        assert_eq!(p.num_partitions(), 4);
        let mut sizes = vec![0usize; 4];
        for k in 0..100u32 {
            sizes[p.partition_of(&k)] += 1;
        }
        assert_eq!(sizes, vec![25, 25, 25, 25]);
    }

    #[test]
    fn partition_of_is_monotone_and_collocates_equal_keys() {
        let p = RangePartitioner::from_sample(vec![5u32, 1, 9, 5, 5, 2], 3);
        for a in 0..12u32 {
            for b in a..12u32 {
                assert!(
                    p.partition_of(&a) <= p.partition_of(&b),
                    "monotonicity violated at ({a}, {b})"
                );
            }
            assert_eq!(p.partition_of(&a), p.partition_of(&a.clone()));
        }
    }

    #[test]
    fn all_duplicate_keys_collapse_into_one_occupied_partition() {
        let p = RangePartitioner::from_sample(vec![7u32; 50], 4);
        assert_eq!(p.num_partitions(), 4, "requested count is preserved");
        // Every key <= 7 lands in partition 0; keys beyond the sampled
        // range go to the last partition. Either way, equal keys share
        // a partition and order is preserved.
        assert_eq!(p.partition_of(&7), 0);
        assert_eq!(p.partition_of(&3), 0);
        assert_eq!(p.partition_of(&8), 3);
        assert!(p.boundaries().iter().all(|&b| b == 7));
    }

    #[test]
    fn fewer_distinct_keys_than_partitions_yields_empty_ranges_not_panics() {
        let p = RangePartitioner::from_sample(vec![1u32, 1, 1, 2, 2, 2], 4);
        assert_eq!(p.num_partitions(), 4);
        // Keys route deterministically; at most two ranges are occupied
        // by the sampled keys.
        let occupied: std::collections::BTreeSet<usize> =
            [1u32, 2].iter().map(|k| p.partition_of(k)).collect();
        assert!(occupied.len() <= 2);
        assert!(p.partition_of(&1) <= p.partition_of(&2));
    }

    #[test]
    fn empty_sample_yields_a_single_catch_all_partition() {
        let p = RangePartitioner::<u32>::from_sample(vec![], 8);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partition_of(&42), 0);
    }

    #[test]
    fn single_partition_never_builds_boundaries() {
        let p = RangePartitioner::from_sample(vec![3u32, 1, 2], 1);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.partition_of(&999), 0);
    }

    #[test]
    fn weighted_counts_shift_boundaries_toward_heavy_keys() {
        // Key 0 carries 90 % of the weight: with two partitions the
        // boundary must sit at 0 so the heavy key does not drag the
        // whole tail into partition 0.
        let p = RangePartitioner::from_counts(vec![(0u32, 90), (1, 5), (2, 5)], 2);
        assert_eq!(p.partition_of(&0), 0);
        assert_eq!(p.partition_of(&1), 1);
        assert_eq!(p.partition_of(&2), 1);
    }

    #[test]
    fn counts_whose_total_passes_u64_place_exact_boundaries() {
        // Σ counts itself passes u64::MAX here, and so does total × i:
        // the walk must still split three heavy keys one per range.
        let heavy = u64::MAX / 2;
        let p = RangePartitioner::from_counts(vec![(0u32, heavy), (1, heavy), (2, heavy)], 3);
        assert_eq!(p.boundaries(), &[0, 1]);
        assert_eq!(
            (0..3u32).map(|k| p.partition_of(&k)).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // The total fits, `total × 2` does not.
        let quarter = u64::MAX / 8;
        let p = RangePartitioner::from_counts((0..4u32).map(|k| (k, quarter)), 3);
        assert_eq!(p.boundaries(), &[1, 2]);
    }

    #[test]
    fn a_heavy_key_repeats_boundaries_and_leaves_empty_ranges() {
        // A heavy key passes all three targets: the ranges between the
        // repeated boundaries are empty.
        let p = RangePartitioner::from_counts(vec![(0u32, 10), (1, 1), (2, 1)], 4);
        assert_eq!(p.boundaries(), &[0, 0, 0]);
        assert_eq!(
            (0..3u32).map(|k| p.partition_of(&k)).collect::<Vec<_>>(),
            vec![0, 3, 3]
        );
        let catch_all = RangePartitioner::from_counts(vec![(5u32, 3), (6, 4)], 1);
        assert!(catch_all.boundaries().is_empty());
        let empty = RangePartitioner::<u32>::from_counts(vec![], 4);
        assert!(empty.boundaries().is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_counts_rejected() {
        let _ = RangePartitioner::from_counts(vec![(2u32, 1), (1, 1)], 2);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = RangePartitioner::<u32>::from_sample(vec![1], 0);
    }

    #[test]
    fn sort_key_partitioner_end_to_end() {
        let sample: Vec<SortKey> = ["apple", "banana", "cherry", "damson", "elder", "fig"]
            .iter()
            .map(SortKey::new)
            .collect();
        let p = RangePartitioner::from_sample(sample, 3);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.partition_of(&SortKey::empty()), 0);
        assert!(p.partition_of(&SortKey::new("apple")) <= p.partition_of(&SortKey::new("fig")));
        assert_eq!(p.partition_of(&SortKey::new("zzz")), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// How many leading letters of [`ALPHABET`] are ASCII.
    const ASCII: usize = 12;

    /// Sort-key text: ASCII of both cases, the whitespace `str::trim`
    /// strips (`\x0b` among it, which `trim_ascii` keeps), and
    /// characters whose lowercase differs in length ('İ' → "i\u{307}")
    /// or that have no one-byte form ('ẞ', NBSP).
    const ALPHABET: [char; 16] = [
        'a', 'Z', 'q', 'M', '5', '-', ' ', '\t', '\x0b', '\x0c', '\r', '\n', 'İ', 'ẞ', '\u{a0}',
        'é',
    ];

    proptest! {
        /// The satellite contract: boundaries derived from *any*
        /// sample preserve sort order — routing is monotone, equal
        /// keys collocate, and indices stay within the requested
        /// partition count.
        #[test]
        fn sampled_boundaries_preserve_sort_order(
            sample in proptest::collection::vec(0u32..64, 0..80),
            probes in proptest::collection::vec(0u32..64, 2..60),
            partitions in 1usize..10,
        ) {
            let p = RangePartitioner::from_sample(sample, partitions);
            prop_assert!(p.num_partitions() <= partitions.max(1));
            let mut sorted = probes.clone();
            sorted.sort();
            let mut last = 0usize;
            for key in &sorted {
                let idx = p.partition_of(key);
                prop_assert!(idx < p.num_partitions());
                prop_assert!(idx >= last, "monotonicity violated");
                last = idx;
            }
            // Equal keys always share a partition.
            for key in &probes {
                prop_assert_eq!(p.partition_of(key), p.partition_of(&key.clone()));
            }
        }

        /// The ASCII fast path of `AttributeSortKey` derives exactly
        /// the key of the char-wise path, whole-value and under every
        /// prefix length, and so does a `ReversedSortKey` on top.
        #[test]
        fn ascii_fast_path_equals_the_char_wise_path(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..80),
            ascii_only in 0usize..2,
        ) {
            // Half the values stay ASCII, so the fast path is taken
            // (and, past its 64-byte buffer, left), not just left.
            let alphabet = if ascii_only == 1 { ASCII } else { ALPHABET.len() };
            let value: String = picks.iter().map(|&i| ALPHABET[i % alphabet]).collect();
            let entity = Entity::new(1, [("title", value.as_str())]);
            let mut functions = vec![AttributeSortKey::title()];
            functions.extend((1..=value.len() + 2).map(|n| AttributeSortKey::prefix("title", n)));
            for f in functions {
                let oracle = f.general_key(&value);
                prop_assert_eq!(f.sort_key(&entity), oracle.clone());
                let reversed = ReversedSortKey::new(Arc::new(f));
                let reversed_oracle = oracle
                    .map(|k| SortKey::new(k.as_str().chars().rev().collect::<String>()));
                prop_assert_eq!(reversed.sort_key(&entity), reversed_oracle);
            }
        }

        /// from_sample and from_counts agree on identical data.
        #[test]
        fn sample_and_counts_constructions_agree(
            sample in proptest::collection::vec(0u32..16, 1..60),
            partitions in 1usize..8,
        ) {
            let by_sample = RangePartitioner::from_sample(sample.clone(), partitions);
            let mut sorted = sample;
            sorted.sort();
            let mut counts: Vec<(u32, u64)> = Vec::new();
            for k in sorted {
                match counts.last_mut() {
                    Some((key, c)) if *key == k => *c += 1,
                    _ => counts.push((k, 1)),
                }
            }
            let by_counts = RangePartitioner::from_counts(counts, partitions);
            prop_assert_eq!(by_sample, by_counts);
        }
    }
}
