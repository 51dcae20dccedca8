//! Sort keys for Sorted Neighborhood blocking.
//!
//! Sorted Neighborhood (Hernández & Stolfo, 1995) replaces disjoint
//! blocks with a *total order*: entities are sorted by a sort key and
//! every pair within a sliding window of size `w` is compared. Mapping
//! that onto MapReduce (Kolb, Thor, Rahm; "Parallel Sorted Neighborhood
//! Blocking with MapReduce", 2010) starts from a [`SortKeyFunction`]
//! deriving the sort key of an entity (the analogue of
//! [`crate::blocking::BlockingFunction`], but producing a key whose
//! *order* matters rather than a partition label). Its attribute form,
//! [`AttributeSortKey`], derives ASCII values byte-wise with one
//! allocation per key and keeps a char-wise path as the definition for
//! all other text. The er-sn crate sorts by these keys once and cuts
//! its key ranges over the resulting positions.

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
    }
}
