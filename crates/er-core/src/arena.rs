//! Arena-backed storage for prepared entities — the allocation-free
//! compare loop's backing store.
//!
//! [`crate::matcher::Matcher::prepare`] produces a heap
//! [`crate::matcher::PreparedEntity`]: one boxed [`Prepared`] per match
//! rule, each owning its own `Vec` (char buffer or hash set). That is
//! fine for a handful of entities, but preparing a whole partition
//! that way allocates O(entities × rules) separate heap objects, and
//! the O(b²) pair loop then chases them through pointer indirections.
//!
//! A [`PreparedArena`] instead packs every prepared value of one
//! *map task* of a match stage into a few contiguous, type-segregated
//! slabs:
//!
//! | slab | element | feeds |
//! |---|---|---|
//! | `bytes` | `u8` | edit-distance values prepared with a histogram whose scalars are all ASCII (`Ascii`) |
//! | `chars` | `char` | every other edit-distance value (`Chars`) |
//! | `histograms` | `[u8; 32]` | values prepared by `NormalizedLevenshtein` (its reject filter) |
//! | `hashes` | `u64` | set-overlap family (`HashedSet`) |
//! | `slots` | `Option<ArenaValue>` | one per match rule per entity, 16 bytes each |
//!
//! [`PreparedArena::intern_with`] lays one entity's rule slots down,
//! each value written in place by its measure
//! ([`crate::similarity::Similarity::prepare_into`]: the edit-distance
//! family writes straight into the `bytes` or `chars` slab,
//! [`crate::Jaccard`] copies a heap-prepared temporary), and returns a
//! [`PreparedId`] — a
//! [`Span`] into `slots`; [`PreparedArena::intern`] copies an already
//! heap-prepared entity instead. The map task interns each entity it
//! routes exactly once, however many reduce tasks receive it; after the
//! map barrier every reduce task of the stage reads all the stage's
//! arenas, each entity addressed by a [`PreparedHandle`] — its arena
//! (the map task) and its id there. Scoring a pair reads slices
//! straight out of the slabs through [`crate::similarity::PreparedView`]
//! borrows: **zero allocations per comparison**. The slabs only ever
//! grow (amortized `Vec` doubling), so a `PreparedId` stays valid until
//! [`PreparedArena::clear`].
//!
//! Offsets are `u32` [`Span`]s rather than references: half the size of
//! a fat pointer, trivially `Copy`, and immune to the self-referential
//! borrow problems an owning-arena-with-references design would hit.

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
    /// A `Chars` value with a histogram whose scalars are all ASCII:
    /// a span into the `bytes` slab, one byte per scalar.
    Ascii {
        /// The scalar values.
        bytes: Span,
        /// Index into the `histograms` slab.
        histogram: u32,
    },
    /// Span into the `hashes` slab (sorted, deduplicated).
    HashedSet(Span),
}

/// Handle to one interned entity within its arena: a span over the
/// rule slots. `Copy`, valid until the owning arena is cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedId {
    slots: Span,
}

impl PreparedId {
    /// The id the `index`-th entity interned into an empty arena gets
    /// when every entity has `rules` rule slots.
    pub(crate) fn nth(index: usize, rules: usize) -> Self {
        Self {
            slots: Span::new(index * rules, rules),
        }
    }
}

/// One prepared entity among the arenas of a match stage: the arena
/// that holds it — the map task that interned it — and its id there.
/// What the stage's shuffle records carry and a
/// [`crate::PreparedColumn`] addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedHandle {
    /// Index of the arena among the stage's arenas (the map task).
    pub arena: u32,
    /// The entity's id in that arena.
    pub id: PreparedId,
}

/// The bump-allocated slab store: one per map task of a match stage,
/// written by that task alone and read — after the map barrier — by
/// every reduce task of the stage (the oracles' `MatcherCache` owns
/// one too).
#[derive(Debug, Clone, Default)]
pub struct PreparedArena {
    bytes: Vec<u8>,
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
    pub fn intern(&mut self, values: &[Option<Prepared>]) -> PreparedId {
        self.intern_with(values.len(), |arena, rule| {
            values[rule].as_ref().map(|p| arena.intern_value(p))
        })
    }

    /// Interns one entity of `rules` rule slots whose values are
    /// written by `value(arena, rule)` — through
    /// [`PreparedArena::intern_value`], [`PreparedArena::intern_text`]
    /// or a measure's `prepare_into` — as the slots are laid down, so
    /// no per-entity temporary exists.
    pub fn intern_with(
        &mut self,
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
            slots: Span::new(start, rules),
        }
    }

    /// Reserves room for `entities` more entities of `rules` rule
    /// slots each whose values hold `text` bytes of ASCII text in all,
    /// so an arena whose contents are known up front is laid down
    /// without regrowing a slab.
    pub(crate) fn reserve(&mut self, entities: usize, rules: usize, text: usize) {
        self.slots.reserve_exact(entities.saturating_mul(rules));
        self.histograms.reserve_exact(entities);
        self.bytes.reserve_exact(text);
    }

    /// Appends the scalars of `s` and, when `with_histogram`, their
    /// bucketed counts: the arena form of a `Prepared::Chars`, built
    /// without the heap one — one byte per scalar when `s` is ASCII and
    /// has a histogram, one `char` otherwise.
    pub fn intern_text(&mut self, s: &str, with_histogram: bool) -> ArenaValue {
        if with_histogram && s.is_ascii() {
            let start = self.bytes.len();
            self.bytes.extend_from_slice(s.as_bytes());
            let histogram = self.push_histogram(char_histogram(s.as_bytes()));
            return ArenaValue::Ascii {
                bytes: Span::new(start, s.len()),
                histogram,
            };
        }
        let start = self.chars.len();
        self.chars.extend(s.chars());
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

    /// Copies one heap-prepared value into the slabs (in the form
    /// [`PreparedArena::intern_text`] gives it).
    pub fn intern_value(&mut self, p: &Prepared) -> ArenaValue {
        match p {
            Prepared::Chars {
                chars,
                histogram: Some(histogram),
            } if chars.iter().all(char::is_ascii) => {
                let start = self.bytes.len();
                // ASCII scalars are their own bytes.
                self.bytes.extend(chars.iter().map(|&c| c as u8));
                ArenaValue::Ascii {
                    bytes: Span::new(start, chars.len()),
                    histogram: self.push_histogram(**histogram),
                }
            }
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
            ArenaValue::Ascii { bytes, histogram } => PreparedView::Ascii {
                bytes: &self.bytes[bytes.range()],
                histogram: &self.histograms[histogram as usize],
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

    /// Total slab elements resident (bytes + chars + histograms +
    /// hashes + slots) — a cheap proxy for the arena's memory
    /// footprint.
    pub fn slab_len(&self) -> usize {
        self.bytes.len()
            + self.chars.len()
            + self.histograms.len()
            + self.hashes.len()
            + self.slots.len()
    }

    /// Drops every interned entity. **Invalidates all outstanding
    /// [`PreparedId`]s** — using one afterwards panics (span out of
    /// range) or reads another entity's data; callers must drop their
    /// handles along with the clear. Slab capacity is retained, so an
    /// arena reused across inputs stays allocation-free.
    pub fn clear(&mut self) {
        self.bytes.clear();
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

    /// Interns `s` the way an `ArenaBuilder` does: written in place by
    /// the measure's `prepare_into`.
    fn intern_one(arena: &mut PreparedArena, m: &dyn Similarity, s: &str) -> PreparedId {
        arena.intern_with(1, |arena, _| Some(m.prepare_into(s, arena)))
    }

    #[test]
    fn interned_views_score_bit_exact_with_heap_forms() {
        let measures: Vec<Box<dyn Similarity>> = vec![
            Box::new(NormalizedLevenshtein),
            Box::new(JaroWinkler::default()),
            Box::new(Jaccard),
        ];
        // ASCII and non-ASCII values, which the edit distance keeps in
        // different forms, paired every way.
        let pairs = [
            ("canon eos 5d kit", "canon eos 7d kit"),
            ("canon eos 5d kit", "cañon eos 5d kit"),
            ("cañon eos 5d kit", "canon eos 5d kit"),
            ("", "ñ"),
        ];
        for (m, (a, b)) in measures
            .iter()
            .flat_map(|m| pairs.iter().map(move |&pair| (m, pair)))
        {
            let mut arena = PreparedArena::new();
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
                "{} diverged between arena and heap on {a:?} / {b:?}",
                m.name()
            );
            for floor in [0.0, 0.8, 0.9375, 1.0] {
                assert_eq!(
                    m.sim_view_at_least(&va, &vb, floor).map(f64::to_bits),
                    m.sim_prepared_at_least(&m.prepare(a), &m.prepare(b), floor)
                        .map(f64::to_bits),
                    "{} at {floor} on {a:?} / {b:?}",
                    m.name()
                );
            }
            // Written in place or copied from the heap form: the same
            // value either way, histogram included.
            let in_place = format!("{va:?}");
            let copied = arena.intern(&[Some(m.prepare(a))]);
            let copied = arena.value(copied, 0).expect("attribute present");
            assert_eq!(in_place, format!("{copied:?}"), "{}", m.name());
        }
    }

    #[test]
    fn missing_rule_values_stay_missing() {
        let mut arena = PreparedArena::new();
        arena.reserve(1, 2, 1);
        let id = arena.intern(&[
            None,
            Some(Prepared::Chars {
                chars: vec!['x'],
                histogram: None,
            }),
        ]);
        assert_eq!(arena.rule_slots(id), 2);
        assert!(arena.value(id, 0).is_none());
        assert!(arena.value(id, 1).is_some());
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

    /// Every entity pays one rule slot per match rule, and every
    /// shuffle record of a match stage carries a handle — a bare one:
    /// every match stage prepares, so no record carries an `Option`
    /// tag. A variant that widens either must be a deliberate choice.
    /// (The view grew from 24 to 32 bytes with its byte form, which
    /// quarters the arenas' text; it lives on the stack of one pair's
    /// kernel call.)
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_rule_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<ArenaValue>>(), 16);
        assert_eq!(std::mem::size_of::<PreparedView<'_>>(), 32);
        assert_eq!(std::mem::size_of::<PreparedHandle>(), 12);
    }
}
