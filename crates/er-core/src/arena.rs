//! Arena-backed storage for prepared entities — the allocation-free
//! compare loop's backing store.
//!
//! [`crate::matcher::Matcher::prepare`] produces a heap
//! [`crate::matcher::PreparedEntity`]: one boxed [`Prepared`] per match
//! rule, each owning its own `Vec` (char buffer or hash set). That is
//! fine for a handful of entities, but a reduce task preparing a whole
//! block allocates O(entities × rules) separate heap objects, and the
//! O(b²) pair loop then chases them through pointer indirections.
//!
//! A [`PreparedArena`] instead packs every prepared value of one reduce
//! task into a few contiguous, type-segregated slabs:
//!
//! | slab | element | feeds |
//! |---|---|---|
//! | `chars` | `char` | edit-distance family (`Chars`) |
//! | `histograms` | `[u8; 32]` | `Chars` values prepared by `NormalizedLevenshtein` (its reject filter) |
//! | `hashes` | `u64` | set-overlap family (`HashedSet`) |
//! | `slots` | `Option<ArenaValue>` | one per match rule per entity, 16 bytes each |
//!
//! [`PreparedArena::intern_with`] lays one entity's rule slots down,
//! each value written in place by its measure
//! ([`crate::similarity::Similarity::prepare_into`]: the edit-distance
//! family decodes straight into the `chars` slab, [`crate::Jaccard`]
//! copies a heap-prepared temporary), and returns a [`PreparedId`] — a
//! [`Span`] into `slots` plus the entity's reference;
//! [`PreparedArena::intern`] copies an already heap-prepared entity
//! instead. After interning, scoring a pair
//! reads slices straight out of the slabs through
//! [`crate::similarity::PreparedView`] borrows: **zero allocations per
//! comparison**, all warm-up cost confined to the first sighting of
//! each entity. The slabs only ever grow (amortized `Vec` doubling), so
//! a `PreparedId` stays valid until [`PreparedArena::clear`].
//!
//! Offsets are `u32` [`Span`]s rather than references: half the size of
//! a fat pointer, trivially `Copy`, and immune to the self-referential
//! borrow problems an owning-arena-with-references design would hit.

use crate::entity::EntityRef;
use crate::similarity::{char_histogram, Prepared, PreparedView, HISTOGRAM_BUCKETS};

/// A contiguous `u32` range into one arena slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, len: usize) -> Self {
        let (Ok(start), Ok(len)) = (u32::try_from(start), u32::try_from(len)) else {
            panic!("arena slab exceeds the u32 address space");
        };
        Self { start, len }
    }

    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// One prepared value stored in arena form: the same two families as
/// [`Prepared`], but holding slab [`Span`]s instead of owned `Vec`s.
#[derive(Debug, Clone, Copy)]
pub enum ArenaValue {
    /// Span into the `chars` slab, plus the index of the value's
    /// histogram in the `histograms` slab when it was prepared with one.
    Chars {
        /// The scalar values.
        chars: Span,
        /// Index into the `histograms` slab.
        histogram: Option<u32>,
    },
    /// Span into the `hashes` slab (sorted, deduplicated).
    HashedSet(Span),
}

/// Handle to one interned entity: a span over the rule slots plus the
/// `(source, id)` it was prepared from. `Copy`, valid until the owning
/// arena is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedId {
    entity_ref: EntityRef,
    slots: Span,
}

impl PreparedId {
    /// The `(source, id)` of the entity this was interned from.
    pub fn entity_ref(self) -> EntityRef {
        self.entity_ref
    }
}

/// The bump-allocated slab store. One per reduce task (reducers clone
/// their prototype, and each clone owns its own arena); not shared
/// across threads.
#[derive(Debug, Clone, Default)]
pub struct PreparedArena {
    chars: Vec<char>,
    histograms: Vec<[u8; HISTOGRAM_BUCKETS]>,
    hashes: Vec<u64>,
    slots: Vec<Option<ArenaValue>>,
    interned: usize,
}

impl PreparedArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies one prepared entity (one `Option<Prepared>` per match
    /// rule) into the slabs, returning its handle. The temporary heap
    /// form can be dropped afterwards — the arena owns a full copy.
    pub fn intern(&mut self, entity_ref: EntityRef, values: &[Option<Prepared>]) -> PreparedId {
        self.intern_with(entity_ref, values.len(), |arena, rule| {
            values[rule].as_ref().map(|p| arena.intern_value(p))
        })
    }

    /// Interns one entity of `rules` rule slots whose values are
    /// written by `value(arena, rule)` — through
    /// [`PreparedArena::intern_value`], [`PreparedArena::intern_chars`]
    /// or a measure's `prepare_into` — as the slots are laid down, so
    /// no per-entity temporary exists.
    pub fn intern_with(
        &mut self,
        entity_ref: EntityRef,
        rules: usize,
        mut value: impl FnMut(&mut Self, usize) -> Option<ArenaValue>,
    ) -> PreparedId {
        let start = self.slots.len();
        for rule in 0..rules {
            let value = value(self, rule);
            self.slots.push(value);
        }
        assert_eq!(
            self.slots.len(),
            start + rules,
            "interning a value must not lay down rule slots"
        );
        self.interned += 1;
        PreparedId {
            entity_ref,
            slots: Span::new(start, rules),
        }
    }

    /// Appends `chars` to the char slab and, when `with_histogram`,
    /// their bucketed counts to the histogram slab: the arena form of
    /// a `Prepared::Chars`, built without the heap one.
    pub fn intern_chars(
        &mut self,
        chars: impl Iterator<Item = char>,
        with_histogram: bool,
    ) -> ArenaValue {
        let start = self.chars.len();
        self.chars.extend(chars);
        let chars = Span::new(start, self.chars.len() - start);
        let histogram = with_histogram.then(|| {
            let histogram = char_histogram(&self.chars[chars.range()]);
            self.push_histogram(histogram)
        });
        ArenaValue::Chars { chars, histogram }
    }

    fn push_histogram(&mut self, histogram: [u8; HISTOGRAM_BUCKETS]) -> u32 {
        let index =
            u32::try_from(self.histograms.len()).expect("arena slab exceeds the u32 address space");
        self.histograms.push(histogram);
        index
    }

    /// Copies one heap-prepared value into the slabs.
    pub fn intern_value(&mut self, p: &Prepared) -> ArenaValue {
        match p {
            Prepared::Chars { chars, histogram } => {
                let start = self.chars.len();
                self.chars.extend_from_slice(chars);
                let histogram = histogram.as_deref().map(|h| self.push_histogram(*h));
                ArenaValue::Chars {
                    chars: Span::new(start, chars.len()),
                    histogram,
                }
            }
            Prepared::HashedSet(h) => {
                let start = self.hashes.len();
                self.hashes.extend_from_slice(h);
                ArenaValue::HashedSet(Span::new(start, h.len()))
            }
        }
    }

    /// The number of rule slots `id` was interned with — must equal the
    /// scoring matcher's rule count.
    pub fn rule_slots(&self, id: PreparedId) -> usize {
        id.slots.len()
    }

    /// A borrow of rule `rule`'s prepared value for `id`, or `None`
    /// when the entity lacked that rule's attribute.
    ///
    /// # Panics
    /// If `id` came from a different (or since-cleared) arena, or
    /// `rule` is out of range.
    pub fn value(&self, id: PreparedId, rule: usize) -> Option<PreparedView<'_>> {
        self.slots[id.slots.range()][rule].map(|v| self.view(v))
    }

    pub(crate) fn view(&self, value: ArenaValue) -> PreparedView<'_> {
        match value {
            ArenaValue::Chars { chars, histogram } => PreparedView::Chars {
                chars: &self.chars[chars.range()],
                histogram: histogram.map(|h| &self.histograms[h as usize]),
            },
            ArenaValue::HashedSet(s) => PreparedView::HashedSet(&self.hashes[s.range()]),
        }
    }

    /// Entities interned so far.
    pub fn len(&self) -> usize {
        self.interned
    }

    /// True before anything was interned.
    pub fn is_empty(&self) -> bool {
        self.interned == 0
    }

    /// Total slab elements resident (chars + histograms + hashes +
    /// slots) — a cheap proxy for the arena's memory footprint.
    pub fn slab_len(&self) -> usize {
        self.chars.len() + self.histograms.len() + self.hashes.len() + self.slots.len()
    }

    /// Drops every interned entity. **Invalidates all outstanding
    /// [`PreparedId`]s** — using one afterwards panics (span out of
    /// range) or reads another entity's data; callers must drop their
    /// handles along with the clear. Slab capacity is retained, so an
    /// arena reused across inputs stays allocation-free.
    pub fn clear(&mut self) {
        self.chars.clear();
        self.histograms.clear();
        self.hashes.clear();
        self.slots.clear();
        self.interned = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{Jaccard, JaroWinkler, NormalizedLevenshtein, Similarity};
    use crate::Entity;

    /// Interns `s` the way the matcher cache does: written in place by
    /// the measure's `prepare_into`.
    fn intern_one(arena: &mut PreparedArena, m: &dyn Similarity, s: &str) -> PreparedId {
        let e = Entity::new(7, [("t", s)]);
        arena.intern_with(e.entity_ref(), 1, |arena, _| Some(m.prepare_into(s, arena)))
    }

    #[test]
    fn interned_views_score_bit_exact_with_heap_forms() {
        let measures: Vec<Box<dyn Similarity>> = vec![
            Box::new(NormalizedLevenshtein),
            Box::new(JaroWinkler::default()),
            Box::new(Jaccard),
        ];
        for m in &measures {
            let mut arena = PreparedArena::new();
            let (a, b) = ("canon eos 5d kit", "canon eos 7d kit");
            let (ia, ib) = (
                intern_one(&mut arena, m.as_ref(), a),
                intern_one(&mut arena, m.as_ref(), b),
            );
            let (va, vb) = (
                arena.value(ia, 0).expect("attribute present"),
                arena.value(ib, 0).expect("attribute present"),
            );
            let via_arena = m.sim_view(&va, &vb);
            let via_heap = m.sim_prepared(&m.prepare(a), &m.prepare(b));
            assert_eq!(
                via_arena.to_bits(),
                via_heap.to_bits(),
                "{} diverged between arena and heap",
                m.name()
            );
            // Written in place or copied from the heap form: the same
            // value either way, histogram included.
            let in_place = format!("{va:?}");
            let copied = arena.intern(ia.entity_ref(), &[Some(m.prepare(a))]);
            let copied = arena.value(copied, 0).expect("attribute present");
            assert_eq!(in_place, format!("{copied:?}"), "{}", m.name());
        }
    }

    #[test]
    fn missing_rule_values_stay_missing() {
        let mut arena = PreparedArena::new();
        let e = Entity::new(1, [("brand", "canon")]);
        let id = arena.intern(
            e.entity_ref(),
            &[
                None,
                Some(Prepared::Chars {
                    chars: vec!['x'],
                    histogram: None,
                }),
            ],
        );
        assert_eq!(arena.rule_slots(id), 2);
        assert!(arena.value(id, 0).is_none());
        assert!(arena.value(id, 1).is_some());
        assert_eq!(id.entity_ref(), e.entity_ref());
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut arena = PreparedArena::new();
        let _ = intern_one(&mut arena, &NormalizedLevenshtein, "abcdef");
        assert_eq!(arena.len(), 1);
        assert!(!arena.is_empty());
        assert!(arena.slab_len() > 0);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.slab_len(), 0);
    }

    /// Every entity pays one rule slot per match rule, so the slot's
    /// width is a per-entity cost of every reduce task: a variant that
    /// widens it must be a deliberate choice.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_rule_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<ArenaValue>>(), 16);
        assert_eq!(std::mem::size_of::<PreparedView<'_>>(), 24);
    }
}
