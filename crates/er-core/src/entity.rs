//! The entity model.
//!
//! An [`Entity`] is an attributed record — a product offer, a
//! publication, a customer row. Entities carry a [`SourceId`] so the
//! same types serve both deduplication within one source `R` and
//! linkage across two sources `R` and `S` (the paper's Appendix I).
//!
//! An entity's attributes live in one packed block: every name and
//! value back to back in one string, beside one `(name end, value end)`
//! offset pair per attribute. Blocking keys, sort keys, MinHash
//! shingling and the matcher's prepare all read attributes through
//! [`Entity::get`] / [`Entity::get_hinted`], so each read touches the
//! entity's two buffers and nothing else.

use std::fmt;

/// Identifier of an entity, unique *within its source*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u64);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a data source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u8);

impl SourceId {
    /// The first (or only) source, `R` in the paper's notation.
    pub const R: SourceId = SourceId(0);
    /// The second source, `S` in the paper's notation.
    pub const S: SourceId = SourceId(1);
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "R"),
            1 => write!(f, "S"),
            n => write!(f, "src{n}"),
        }
    }
}

/// A globally unique reference to an entity: `(source, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityRef {
    /// Which source the entity belongs to.
    pub source: SourceId,
    /// The entity id within that source.
    pub id: EntityId,
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.source, self.id)
    }
}

/// An attributed record.
///
/// Entities in ER workloads have a handful of attributes, and an
/// ordered list beats a map both in memory and lookup time at that
/// size. The list is packed: the names and values back to back in one
/// string, and per attribute the two offsets where its name and its
/// value end. Construction allocates these two buffers, and a scratch
/// list of its input, whatever the attribute count; a lookup compares
/// a name's length from the offsets before it reads any text.
/// Replicating an entity to several reduce tasks (BlockSplit sends
/// split-block entities to `m` tasks) clones the `Arc<Entity>` that
/// carries it, never the block; a clone of the entity itself copies
/// the two buffers.
///
/// Equality and hashing are those of `(id, source, attribute list)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Entity {
    id: EntityId,
    source: SourceId,
    /// Every attribute name and value, back to back in insertion order.
    text: Box<str>,
    /// Per attribute, the offsets into `text` where its name and its
    /// value end. A name starts where the previous value ends.
    ends: Box<[(u32, u32)]>,
    /// Whether some name occurs twice. A hinted lookup then scans, so
    /// that it finds the first occurrence as [`Entity::get`] does.
    repeated_names: bool,
}

impl Entity {
    /// Creates an entity in source [`SourceId::R`].
    ///
    /// # Panics
    ///
    /// As [`Entity::with_source`].
    pub fn new(
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        Self::with_source(SourceId::R, id, attributes)
    }

    /// Creates an entity in an explicit source.
    ///
    /// # Panics
    ///
    /// If the attribute names and values together exceed 4 GiB
    /// (`u32::MAX` bytes).
    pub fn with_source(
        source: SourceId,
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        let pairs: Vec<_> = attributes.into_iter().collect();
        let mut end = 0;
        let ends: Box<[(u32, u32)]> = pairs
            .iter()
            .map(|(name, value)| {
                let name_end = advance(end, name.as_ref());
                end = advance(name_end, value.as_ref());
                (name_end, end)
            })
            .collect();
        let mut text = String::with_capacity(at(end));
        for (name, value) in &pairs {
            text.push_str(name.as_ref());
            text.push_str(value.as_ref());
        }
        let repeated_names = pairs.iter().enumerate().any(|(i, (name, _))| {
            pairs[..i]
                .iter()
                .any(|(earlier, _)| earlier.as_ref() == name.as_ref())
        });
        Self {
            id: EntityId(id),
            source,
            text: text.into_boxed_str(),
            ends,
            repeated_names,
        }
    }

    /// The entity id within its source.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The source this entity belongs to.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Global reference `(source, id)`.
    pub fn entity_ref(&self) -> EntityRef {
        EntityRef {
            source: self.source,
            id: self.id,
        }
    }

    /// Value of attribute `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.find(name).map(|(_, value)| value)
    }

    /// [`Entity::get`] for callers that look the same attribute up on
    /// entity after entity: tries position `*hint` — where the previous
    /// entity had it — before scanning, and leaves the position found
    /// in `*hint`. Entities of one source share a schema, so the scan
    /// all but never runs. The value is always [`Entity::get`]'s, also
    /// when a name repeats.
    pub fn get_hinted(&self, name: &str, hint: &mut usize) -> Option<&str> {
        if let Some(&ends) = self.ends.get(*hint).filter(|_| !self.repeated_names) {
            let start = match hint.checked_sub(1) {
                Some(previous) => at(self.ends[previous].1),
                None => 0,
            };
            if let Some(value) = self.value_if_named(start, ends, name) {
                return Some(value);
            }
        }
        let (position, value) = self.find(name)?;
        *hint = position;
        Some(value)
    }

    /// Iterates `(name, value)` attribute pairs in insertion order.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &str)> {
        self.ends
            .iter()
            .scan(0, move |start, &(name_end, value_end)| {
                let (name_end, value_end) = (at(name_end), at(value_end));
                let pair = (
                    &self.text[*start..name_end],
                    &self.text[name_end..value_end],
                );
                *start = value_end;
                Some(pair)
            })
    }

    /// Number of attributes.
    pub fn attribute_count(&self) -> usize {
        self.ends.len()
    }

    /// Position and value of the first attribute called `name`.
    fn find(&self, name: &str) -> Option<(usize, &str)> {
        let mut start = 0;
        for (position, &ends) in self.ends.iter().enumerate() {
            if let Some(value) = self.value_if_named(start, ends, name) {
                return Some((position, value));
            }
            start = at(ends.1);
        }
        None
    }

    /// The value of the attribute whose name spans `start..ends.0`, if
    /// that name is `name`. The length is compared before the bytes.
    fn value_if_named(&self, start: usize, ends: (u32, u32), name: &str) -> Option<&str> {
        let (name_end, value_end) = (at(ends.0), at(ends.1));
        (name_end - start == name.len()
            && &self.text.as_bytes()[start..name_end] == name.as_bytes())
        .then(|| &self.text[name_end..value_end])
    }
}

/// The offset `end` moved past `piece`, checked to fit `u32`.
fn advance(end: u32, piece: &str) -> u32 {
    u32::try_from(piece.len())
        .ok()
        .and_then(|len| end.checked_add(len))
        .expect("an entity's attribute text exceeds u32::MAX bytes")
}

/// An offset back as an index; `u32` always fits `usize` on the
/// targets `std` supports.
fn at(offset: u32) -> usize {
    usize::try_from(offset).expect("u32 fits usize")
}

impl fmt::Debug for Entity {
    /// The derive's shape, `Entity { id, source, attributes: [(name,
    /// value), ..] }`, with the attributes unpacked.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Attributes<'a>(&'a Entity);
        impl fmt::Debug for Attributes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.attributes()).finish()
            }
        }
        f.debug_struct("Entity")
            .field("id", &self.id)
            .field("source", &self.source)
            .field("attributes", &Attributes(self))
            .finish()
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.entity_ref())?;
        for (i, (k, v)) in self.attributes().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use super::*;
    use proptest::prelude::*;

    fn hash_of(e: &Entity) -> u64 {
        let mut hasher = DefaultHasher::new();
        e.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn construction_and_lookup() {
        let e = Entity::new(7, [("title", "Canon EOS 5D"), ("brand", "Canon")]);
        assert_eq!(e.id(), EntityId(7));
        assert_eq!(e.source(), SourceId::R);
        assert_eq!(e.get("title"), Some("Canon EOS 5D"));
        assert_eq!(e.get("brand"), Some("Canon"));
        assert_eq!(e.get("price"), None);
        assert_eq!(e.attribute_count(), 2);
    }

    #[test]
    fn hinted_lookup_equals_plain_lookup_whatever_the_hint() {
        let e = Entity::new(7, [("title", "Canon EOS 5D"), ("brand", "Canon")]);
        for name in ["title", "brand", "price"] {
            for start in 0..4 {
                let mut hint = start;
                assert_eq!(e.get_hinted(name, &mut hint), e.get(name));
                if e.get(name).is_some() {
                    assert_eq!(e.attributes().nth(hint).unwrap().0, name);
                } else {
                    assert_eq!(hint, start, "a miss keeps the hint");
                }
            }
        }
    }

    #[test]
    fn entity_ref_orders_source_first() {
        let r = Entity::with_source(SourceId::R, 9, [("t", "x")]).entity_ref();
        let s = Entity::with_source(SourceId::S, 1, [("t", "x")]).entity_ref();
        assert!(r < s, "all of R sorts before all of S");
    }

    #[test]
    fn display_forms() {
        let e = Entity::with_source(SourceId::S, 3, [("title", "x"), ("year", "2012")]);
        assert_eq!(e.entity_ref().to_string(), "S#3");
        assert_eq!(SourceId(4).to_string(), "src4");
        assert_eq!(e.to_string(), r#"S#3{title="x", year="2012"}"#);
        assert_eq!(
            format!("{e:?}"),
            r#"Entity { id: EntityId(3), source: SourceId(1), attributes: [("title", "x"), ("year", "2012")] }"#
        );
        let empty = Entity::new(0, [] as [(&str, &str); 0]);
        assert_eq!(empty.to_string(), "R#0{}");
        assert_eq!(
            format!("{empty:?}"),
            "Entity { id: EntityId(0), source: SourceId(0), attributes: [] }"
        );
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let e = Entity::new(
            1,
            [
                ("title", "some fairly long product title here"),
                ("sku", "SKU-0000042"),
            ],
        );
        let c = e.clone();
        assert_eq!(e, c);
        assert_eq!(hash_of(&e), hash_of(&c));
        assert!(c.attributes().eq(e.attributes()));
        // A clone copies the two packed buffers (the allocation count is
        // pinned in `tests/entity_alloc.rs`); replication shares the
        // `Arc<Entity>` instead.
        assert_ne!(e.text.as_ptr(), c.text.as_ptr());
        assert_eq!(e.text, c.text);
        assert_eq!(e.ends, c.ends);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX bytes")]
    fn offsets_past_u32_panic_instead_of_truncating() {
        assert_eq!(advance(u32::MAX - 2, "ab"), u32::MAX);
        advance(u32::MAX - 1, "ab");
    }

    /// Names and values that stress the packing: empty strings,
    /// repeats, multi-byte text and pieces whose concatenations
    /// collide (`"ti" + "tle"` against `"title" + ""`).
    fn piece() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            Just("ti".to_string()),
            Just("tle".to_string()),
            Just("title".to_string()),
            Just("日本".to_string()),
            "[a-c]{1,3}",
            "\\PC{0,4}",
        ]
    }

    fn entity(list: &[(String, String)]) -> Entity {
        Entity::new(5, list.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }

    proptest! {
        #[test]
        fn packed_entity_equals_the_attribute_list_it_was_built_from(
            list in proptest::collection::vec((piece(), piece()), 0..9),
            other in proptest::collection::vec((piece(), piece()), 0..9),
            probe in piece(),
        ) {
            let e = entity(&list);
            let n = list.len();
            prop_assert!(e.attributes().eq(list.iter().map(|(k, v)| (k.as_str(), v.as_str()))));
            prop_assert_eq!(e.attribute_count(), n);

            let names = list.iter().map(|(k, _)| k.as_str()).chain([probe.as_str()]);
            for name in names {
                let scan = list.iter().position(|(k, _)| k == name);
                prop_assert_eq!(e.get(name), scan.map(|i| list[i].1.as_str()));
                for start in 0..=n + 1 {
                    let mut hint = start;
                    prop_assert_eq!(e.get_hinted(name, &mut hint), e.get(name));
                    prop_assert_eq!(hint, scan.unwrap_or(start));
                }
            }

            // Against a random list, a rebuild of the same list, and every
            // list that packs to the same text with one name shortened
            // into its value.
            let mut variants = vec![other, list.clone()];
            for i in 0..n {
                let mut shifted = list.clone();
                if let Some(c) = shifted[i].0.pop() {
                    shifted[i].1.insert(0, c);
                    variants.push(shifted);
                }
            }
            for variant in &variants {
                let f = entity(variant);
                prop_assert_eq!(e == f, list == *variant);
                if list == *variant {
                    prop_assert_eq!(hash_of(&e), hash_of(&f));
                }
            }
        }
    }
}
