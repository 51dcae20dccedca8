//! Blocking: partitioning entities into candidate blocks.
//!
//! Blocking restricts matching to entities sharing a *blocking key*
//! derived from attribute values (Baxter et al., 2003). The paper's
//! evaluation derives keys as the first three letters of the title; the
//! degree of key skew is exactly what the load-balancing strategies
//! must survive.
//!
//! A blocking function writes an entity's keys back to back into one
//! [`KeyText`] ([`BlockingFunction::write_keys`], the trait's one
//! method), with no allocation per key: that is how the BDM job's map
//! task derives, compares and counts them. A [`BlockKey`] is one shared
//! heap string, made to travel; [`BlockingFunction::key`] and
//! [`BlockingFunction::keys`] build them from what `write_keys` wrote.

use std::fmt;
use std::sync::Arc;

use crate::entity::Entity;

/// A blocking key. Cheap to clone (shared storage) because keys travel
/// inside every shuffled composite key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey(Arc<str>);

impl BlockKey {
    /// Creates a key from any string-ish value.
    pub fn new(s: impl AsRef<str>) -> Self {
        BlockKey(Arc::from(s.as_ref()))
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for BlockKey {
    fn from(s: &str) -> Self {
        BlockKey::new(s)
    }
}

/// Blocking keys as one flat column: the text of every key back to
/// back in one `String`, and the end of each in a `Vec<u32>`. Entry `i`
/// is `text[ends[i - 1]..ends[i]]`; pushing a key copies its bytes and
/// allocates only when a buffer grows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyText {
    text: String,
    ends: Vec<u32>,
}

impl KeyText {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty column with room for `keys` keys of `bytes` bytes in
    /// all.
    pub fn with_capacity(keys: usize, bytes: usize) -> Self {
        Self {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(keys),
        }
    }

    /// Appends `key` as the last entry.
    ///
    /// # Panics
    /// If the column's text would pass `u32::MAX` bytes.
    pub fn push(&mut self, key: &str) {
        self.text.push_str(key);
        let end = u32::try_from(self.text.len()).expect("key text fits u32 offsets");
        self.ends.push(end);
    }

    /// The key at entry `i`.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Keeps the first `len` keys and drops the rest (no-op if there
    /// are at most `len`).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            let end = if len == 0 { 0 } else { self.ends[len - 1] };
            self.text.truncate(end as usize);
            self.ends.truncate(len);
        }
    }

    /// The keys in entry order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Sorts the keys from entry `start` on and drops repeats among
    /// them — one entity's keys, as an entity enters each of its blocks
    /// once. Keys already strictly increasing (every single key, and
    /// the band keys of LSH blocking) are left as they are, with no
    /// allocation.
    pub fn sort_and_dedup_from(&mut self, start: usize) {
        if (start + 1..self.len()).all(|i| self.get(i - 1) < self.get(i)) {
            return;
        }
        let mut keys: Vec<String> = (start..self.len())
            .map(|i| self.get(i).to_owned())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        self.truncate(start);
        keys.iter().for_each(|key| self.push(key));
    }
}

impl<S: AsRef<str>> FromIterator<S> for KeyText {
    fn from_iter<I: IntoIterator<Item = S>>(keys: I) -> Self {
        let mut column = Self::new();
        keys.into_iter().for_each(|key| column.push(key.as_ref()));
        column
    }
}

/// Derives blocking keys from entities.
///
/// [`write_keys`](Self::write_keys) is the one method to implement;
/// [`key`](Self::key) and [`keys`](Self::keys) read what it writes. An
/// entity it writes no key for (e.g. a product without manufacturer)
/// is in no block. Each family states what becomes of it: blocking
/// dedup and linkage compare it with every other entity (the paper's
/// decomposition, `er_loadbalance::driver::run_er_in`), and LSH
/// compares it with none.
pub trait BlockingFunction: Send + Sync {
    /// Appends the text of every blocking key of `entity` to `out` —
    /// none when it has no valid key, more than one under multi-pass
    /// blocking, in any order and repeats allowed — and leaves the
    /// entries already there as they are. The BDM job's mapper then
    /// sorts and deduplicates one entity's keys in place
    /// ([`KeyText::sort_and_dedup_from`]).
    fn write_keys(&self, entity: &Entity, out: &mut KeyText);

    /// The first key [`write_keys`](Self::write_keys) writes — the
    /// single-pass key — or `None` when it writes none.
    fn key(&self, entity: &Entity) -> Option<BlockKey> {
        let mut out = KeyText::new();
        self.write_keys(entity, &mut out);
        (!out.is_empty()).then(|| BlockKey::new(out.get(0)))
    }

    /// The keys [`write_keys`](Self::write_keys) writes, sorted and
    /// deduplicated: the blocks `entity` enters, each once.
    fn keys(&self, entity: &Entity) -> Vec<BlockKey> {
        let mut out = KeyText::new();
        self.write_keys(entity, &mut out);
        out.sort_and_dedup_from(0);
        out.iter().map(BlockKey::new).collect()
    }
}

/// Prefix blocking: the lower-cased first `len` characters of an
/// attribute — the paper's "first three letters of the product or
/// publication title".
#[derive(Debug, Clone)]
pub struct PrefixBlocking {
    attribute: String,
    len: usize,
}

impl PrefixBlocking {
    /// Blocks on the first `len` characters of `attribute`.
    pub fn new(attribute: impl Into<String>, len: usize) -> Self {
        Self {
            attribute: attribute.into(),
            len,
        }
    }

    /// The paper's default: first three letters of `title`.
    pub fn title3() -> Self {
        Self::new("title", 3)
    }

    /// Longest prefix the ASCII fast path of `write_keys` builds on
    /// the stack.
    const STACK_PREFIX: usize = 32;

    /// The defining normalization, for any text: appends the key to
    /// `out` unless it is empty.
    fn write_general_key(&self, value: &str, out: &mut KeyText) {
        let normalized: String = value
            .chars()
            .filter(|c| c.is_alphanumeric())
            .take(self.len)
            .flat_map(char::to_lowercase)
            .collect();
        if !normalized.is_empty() {
            out.push(&normalized);
        }
    }
}

impl BlockingFunction for PrefixBlocking {
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        let Some(value) = entity.get(&self.attribute) else {
            return;
        };
        if self.len > Self::STACK_PREFIX {
            return self.write_general_key(value, out);
        }
        // ASCII fast path: on ASCII, `is_alphanumeric` and
        // `to_lowercase` are their one-byte `is_ascii_*` forms, so the
        // prefix is built in a stack buffer, with no allocation. The
        // first non-ASCII byte met before the prefix is complete hands
        // the whole value to the general path.
        let mut prefix = [0u8; Self::STACK_PREFIX];
        let mut filled = 0;
        for &byte in value.as_bytes() {
            if filled == self.len {
                break;
            }
            if !byte.is_ascii() {
                return self.write_general_key(value, out);
            }
            if byte.is_ascii_alphanumeric() {
                prefix[filled] = byte.to_ascii_lowercase();
                filled += 1;
            }
        }
        if filled > 0 {
            out.push(std::str::from_utf8(&prefix[..filled]).expect("ASCII bytes are UTF-8"));
        }
    }
}

/// Blocks on the full (lower-cased) value of one attribute — e.g.
/// "partition products by manufacturer" from the paper's introduction.
#[derive(Debug, Clone)]
pub struct AttributeBlocking {
    attribute: String,
}

impl AttributeBlocking {
    /// Blocks on the full value of `attribute`.
    pub fn new(attribute: impl Into<String>) -> Self {
        Self {
            attribute: attribute.into(),
        }
    }
}

impl BlockingFunction for AttributeBlocking {
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        let trimmed = entity.get(&self.attribute).unwrap_or_default().trim();
        if !trimmed.is_empty() {
            out.push(&trimmed.to_lowercase());
        }
    }
}

/// Assigns every entity the same key, [`ConstantBlocking::KEY`] —
/// turning blocking-based matching into the full Cartesian product.
/// The `⊥` stages of the null-key decomposition (paper, Appendix I)
/// block under it.
#[derive(Debug, Clone, Default)]
pub struct ConstantBlocking;

impl ConstantBlocking {
    /// The one key, `⊥`.
    pub const KEY: &'static str = "\u{22A5}";
}

impl BlockingFunction for ConstantBlocking {
    fn write_keys(&self, _entity: &Entity, out: &mut KeyText) {
        out.push(Self::KEY);
    }
}

/// Multi-pass blocking: the union of keys from several pass functions
/// (the paper's future-work extension, §VIII). An entity belongs to
/// every block any pass assigns it; duplicate keys are removed so an
/// entity enters a block at most once.
pub struct MultiPassBlocking {
    passes: Vec<Arc<dyn BlockingFunction>>,
}

impl MultiPassBlocking {
    /// Combines the given passes.
    pub fn new(passes: Vec<Arc<dyn BlockingFunction>>) -> Self {
        Self { passes }
    }
}

impl BlockingFunction for MultiPassBlocking {
    /// Every pass's keys, pass after pass: the first key written, the
    /// "primary" one, is the first pass's that has one.
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        for pass in &self.passes {
            pass.write_keys(entity, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn product(title: &str) -> Entity {
        Entity::new(1, [("title", title)])
    }

    /// The key of `value` by the general (non-fast) path.
    fn general_key(blocking: &PrefixBlocking, value: &str) -> Option<BlockKey> {
        let mut out = KeyText::new();
        blocking.write_general_key(value, &mut out);
        (!out.is_empty()).then(|| BlockKey::new(out.get(0)))
    }

    proptest! {
        #[test]
        fn prefix_fast_path_equals_the_general_path(
            pieces in proptest::collection::vec(
                prop_oneof![
                    "[a-zA-Z0-9]{0,6}",
                    "[ -/:-@]{0,4}",
                    "\\PC{0,3}",
                    Just("İ".to_string()),
                    Just("ǅ".to_string()),
                    Just("e\u{301}".to_string()),
                    Just("ß".to_string()),
                ],
                0..8,
            ),
            len in prop_oneof![Just(0usize), 1usize..12, Just(32usize), Just(33usize), Just(40usize)],
        ) {
            let value = pieces.concat();
            let blocking = PrefixBlocking::new("title", len);
            prop_assert_eq!(blocking.key(&product(&value)), general_key(&blocking, &value));
        }
    }

    #[test]
    fn prefix_fast_path_edge_inputs() {
        for len in [0, 1, 3, 32, 33, 64] {
            let blocking = PrefixBlocking::new("title", len);
            for value in [
                "",
                "---",
                " \t.,;",
                "İstanbul",
                "abİ",
                "ǅungla",
                "e\u{301}cole",
                "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJ",
                "ABC-DEF ghi_jkl mno.pqr stu,vwx yz0 123 456 789 ǅ",
                "abc\u{e9}",
                "ab\u{e9}",
            ] {
                assert_eq!(
                    blocking.key(&product(value)),
                    general_key(&blocking, value),
                    "len {len}, value {value:?}"
                );
            }
        }
        // Text past a complete ASCII prefix is never inspected.
        let b = PrefixBlocking::title3();
        assert_eq!(b.key(&product("Canİ")).unwrap().as_str(), "can");
    }

    #[test]
    fn prefix_blocking_takes_first_letters_lowercased() {
        let b = PrefixBlocking::title3();
        assert_eq!(b.key(&product("Canon EOS")).unwrap().as_str(), "can");
        assert_eq!(b.key(&product("caNoN")).unwrap().as_str(), "can");
    }

    #[test]
    fn prefix_blocking_skips_non_alphanumeric() {
        let b = PrefixBlocking::title3();
        assert_eq!(b.key(&product("  A-B C")).unwrap().as_str(), "abc");
        assert_eq!(b.key(&product("№ 1a")).unwrap().as_str(), "1a");
    }

    #[test]
    fn prefix_blocking_of_short_values_uses_what_exists() {
        let b = PrefixBlocking::title3();
        assert_eq!(b.key(&product("ab")).unwrap().as_str(), "ab");
    }

    #[test]
    fn missing_or_empty_attribute_yields_no_key() {
        let b = PrefixBlocking::title3();
        assert_eq!(b.key(&Entity::new(1, [("brand", "x")])), None);
        assert_eq!(b.key(&product("---")), None);
        assert_eq!(b.key(&product("")), None);
    }

    #[test]
    fn attribute_blocking_uses_whole_value() {
        let b = AttributeBlocking::new("brand");
        let e = Entity::new(1, [("brand", " Canon ")]);
        assert_eq!(b.key(&e).unwrap().as_str(), "canon");
        assert_eq!(b.key(&Entity::new(2, [("brand", "  ")])), None);
    }

    #[test]
    fn constant_blocking_assigns_bottom_to_everything() {
        let b = ConstantBlocking;
        assert_eq!(b.key(&product("anything")).unwrap().as_str(), "⊥");
        assert_eq!(b.keys(&Entity::new(1, [("x", "y")])), [BlockKey::new("⊥")]);
    }

    #[test]
    fn multipass_unions_and_dedups_keys() {
        let mp = MultiPassBlocking::new(vec![
            Arc::new(PrefixBlocking::title3()),
            Arc::new(AttributeBlocking::new("brand")),
        ]);
        let e = Entity::new(1, [("title", "Canon EOS"), ("brand", "canon")]);
        let keys: Vec<String> = mp.keys(&e).iter().map(|k| k.as_str().to_string()).collect();
        assert_eq!(keys, vec!["can", "canon"]);

        // Identical keys from different passes collapse.
        let mp2 = MultiPassBlocking::new(vec![
            Arc::new(PrefixBlocking::title3()),
            Arc::new(PrefixBlocking::title3()),
        ]);
        assert_eq!(mp2.keys(&e).len(), 1);
    }

    #[test]
    fn block_key_ordering_is_lexicographic() {
        let mut ks = [BlockKey::new("z"), BlockKey::new("a"), BlockKey::new("m")];
        ks.sort();
        let s: Vec<&str> = ks.iter().map(BlockKey::as_str).collect();
        assert_eq!(s, vec!["a", "m", "z"]);
    }

    #[test]
    fn key_text_holds_keys_back_to_back() {
        let mut column: KeyText = ["can", "", "名前", "b000:ff"].into_iter().collect();
        assert_eq!(column.len(), 4);
        assert_eq!(column.get(1), "");
        assert_eq!(column.get(2), "名前");
        assert_eq!(
            column.iter().collect::<Vec<_>>(),
            ["can", "", "名前", "b000:ff"]
        );
        column.truncate(5);
        assert_eq!(column.len(), 4);
        column.truncate(2);
        column.push("x");
        assert_eq!(column.iter().collect::<Vec<_>>(), ["can", "", "x"]);
        column.truncate(0);
        assert!(column.is_empty());
        column.push("y");
        assert_eq!(column, ["y"].into_iter().collect());
    }

    #[test]
    fn key_text_sorts_and_dedups_only_the_tail() {
        let mut column: KeyText = ["z", "a", "m", "b", "m", "a"].into_iter().collect();
        column.sort_and_dedup_from(2);
        assert_eq!(column.iter().collect::<Vec<_>>(), ["z", "a", "a", "b", "m"]);
        // Sorted keys with a repeat are not strictly increasing.
        let mut repeated: KeyText = ["a", "b", "b"].into_iter().collect();
        repeated.sort_and_dedup_from(0);
        assert_eq!(repeated.iter().collect::<Vec<_>>(), ["a", "b"]);
        // Strictly increasing keys stay where they are.
        let mut increasing: KeyText = ["b", "a", "b", "c"].into_iter().collect();
        let before = increasing.clone();
        increasing.sort_and_dedup_from(1);
        assert_eq!(increasing, before);
        increasing.sort_and_dedup_from(4);
        assert_eq!(increasing, before);
    }
}
