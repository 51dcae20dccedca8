//! The entity model.
//!
//! An [`Entity`] is an attributed record — a product offer, a
//! publication, a customer row. Entities carry a [`SourceId`] so the
//! same types serve both deduplication within one source `R` and
//! linkage across two sources `R` and `S` (the paper's Appendix I).

use std::fmt;
use std::sync::Arc;

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
/// Attribute storage is a small ordered vector — entities in ER
/// workloads have a handful of attributes, and a vector beats a map
/// both in memory and lookup time at that size. Attribute names are
/// interned per entity via `Arc<str>` so that replicating an entity to
/// multiple reduce tasks (BlockSplit sends split-block entities to `m`
/// tasks) clones cheaply.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entity {
    id: EntityId,
    source: SourceId,
    attributes: Vec<(Arc<str>, Arc<str>)>,
}

impl Entity {
    /// Creates an entity in source [`SourceId::R`].
    pub fn new(
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        Self::with_source(SourceId::R, id, attributes)
    }

    /// Creates an entity in an explicit source.
    pub fn with_source(
        source: SourceId,
        id: u64,
        attributes: impl IntoIterator<Item = (impl AsRef<str>, impl AsRef<str>)>,
    ) -> Self {
        Self {
            id: EntityId(id),
            source,
            attributes: attributes
                .into_iter()
                .map(|(k, v)| (Arc::from(k.as_ref()), Arc::from(v.as_ref())))
                .collect(),
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
        self.attributes
            .iter()
            .find(|(k, _)| k.as_ref() == name)
            .map(|(_, v)| v.as_ref())
    }

    /// [`Entity::get`] for callers that look the same attribute up on
    /// entity after entity: tries position `*hint` — where the previous
    /// entity had it — before scanning, and leaves the position found
    /// in `*hint`. Entities of one source share a schema, so the scan
    /// all but never runs.
    pub fn get_hinted(&self, name: &str, hint: &mut usize) -> Option<&str> {
        if let Some((k, v)) = self.attributes.get(*hint) {
            if k.as_ref() == name {
                return Some(v.as_ref());
            }
        }
        let position = self
            .attributes
            .iter()
            .position(|(k, _)| k.as_ref() == name)?;
        *hint = position;
        Some(self.attributes[position].1.as_ref())
    }

    /// Iterates `(name, value)` attribute pairs in insertion order.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attributes
            .iter()
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Number of attributes.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Sets (or replaces) an attribute, returning `self` for chaining.
    pub fn with_attribute(mut self, name: &str, value: &str) -> Self {
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| k.as_ref() == name) {
            slot.1 = Arc::from(value);
        } else {
            self.attributes.push((Arc::from(name), Arc::from(value)));
        }
        self
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
    use super::*;

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
                    assert_eq!(e.attributes[hint].0.as_ref(), name);
                } else {
                    assert_eq!(hint, start, "a miss keeps the hint");
                }
            }
        }
    }

    #[test]
    fn with_attribute_replaces_or_appends() {
        let e = Entity::new(1, [("title", "a")])
            .with_attribute("title", "b")
            .with_attribute("year", "2012");
        assert_eq!(e.get("title"), Some("b"));
        assert_eq!(e.get("year"), Some("2012"));
        assert_eq!(e.attribute_count(), 2);
    }

    #[test]
    fn entity_ref_orders_source_first() {
        let r = Entity::with_source(SourceId::R, 9, [("t", "x")]).entity_ref();
        let s = Entity::with_source(SourceId::S, 1, [("t", "x")]).entity_ref();
        assert!(r < s, "all of R sorts before all of S");
    }

    #[test]
    fn display_forms() {
        let e = Entity::with_source(SourceId::S, 3, [("title", "x")]);
        assert_eq!(e.entity_ref().to_string(), "S#3");
        assert_eq!(SourceId(4).to_string(), "src4");
        assert!(e.to_string().contains("title=\"x\""));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let e = Entity::new(1, [("title", "some fairly long product title here")]);
        let c = e.clone();
        assert_eq!(e, c);
        // Attribute storage is shared, not duplicated.
        let (_, v1) = &e.attributes[0];
        let (_, v2) = &c.attributes[0];
        assert!(Arc::ptr_eq(v1, v2));
    }
}
