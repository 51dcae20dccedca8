//! String similarity measures.
//!
//! Every measure maps a pair of strings to `[0, 1]`, is symmetric, and
//! returns `1.0` for identical inputs — invariants enforced by property
//! tests. The paper's evaluation uses normalized edit distance with a
//! minimum similarity of `0.8`; Jaro-Winkler and token Jaccard are the
//! two alternatives the tests and examples exercise.
//!
//! # The prepared-representation API
//!
//! Blocked entity resolution evaluates each entity against every other
//! member of its block: an entity in a block of size *b* takes part in
//! *b − 1* comparisons. The naive [`Similarity::sim`] entry point
//! re-derives the measure's internal representation (char buffer or
//! token hash set) from the raw string on **every call**, so that work
//! is repeated *b − 1* times per entity — the dominant allocation cost
//! of the match phase.
//!
//! [`Similarity::prepare`] factors that work out: it converts a string
//! into the measure's cached [`Prepared`] form **once**, and
//! [`Similarity::sim_prepared`] compares two prepared forms without
//! touching the raw strings again. `sim` is a provided method defined
//! as `sim_prepared(prepare(a), prepare(b))`, which makes the two
//! paths bit-exact *by construction* — a property the test suite
//! additionally asserts over a randomized corpus.
//!
//! Prepared forms per measure:
//!
//! | measure | [`Prepared`] variant | contents |
//! |---|---|---|
//! | [`NormalizedLevenshtein`] | `Chars` | Unicode scalar values + a 32-byte bucketed character histogram |
//! | [`JaroWinkler`] | `Chars` | Unicode scalar values (no histogram) |
//! | [`Jaccard`] | `HashedSet` | sorted FNV-1a hashes of lowercased tokens |
//!
//! [`Jaccard`] compares 64-bit hashes with a linear merge walk
//! instead of allocating `BTreeSet<String>`s per pair; a collision
//! between two *distinct* tokens of the same corpus (probability
//! ≈ 2⁻⁶⁴ per pair) is the only way the hashed result could diverge
//! from exact string sets, and both `sim` and `sim_prepared` share it.
//!
//! Thresholded matching ([`Similarity::sim_view_at_least`]) is where
//! the histogram pays: of the pairs a blocking key throws together,
//! nearly all are far apart, and [`NormalizedLevenshtein`] rejects them
//! on the two lengths and the two histograms alone — a lower bound on
//! the edit distance that never rejects a pair the full computation
//! would accept. Only the survivors get an edit distance, bit-parallel
//! when the shorter string fits a 64-bit word and by the banded DP
//! otherwise; either returns the true distance, so decisions and
//! scores equal the unthresholded path's bit for bit.
//!
//! A compare loop that holds a whole block can go one step further:
//! [`Similarity::survivors_at_least`] applies the same two bounds to a
//! dense column of [`Sketch`]es (count and histogram, 36 bytes a
//! value) and names the members still worth a kernel call — a
//! prefilter only, so it cannot change a decision or a score.
//!
//! Every kernel is written against borrowed [`PreparedView`]s, so the
//! same code path serves heap [`Prepared`] values and entities
//! interned into a [`crate::arena::PreparedArena`] slab; kernels keep
//! their mutable state in thread-local scratch buffers, making a pair
//! comparison allocation-free once the scratch has grown to the
//! corpus's longest string.
//!
//! Higher-level call sites prepare each entity once — see
//! [`crate::matcher::PreparedEntity`] and [`crate::matcher::ArenaBuilder`].

use crate::arena::{ArenaValue, PreparedArena};

mod jaccard;
mod jaro;
mod levenshtein;

pub use jaccard::Jaccard;
pub use jaro::JaroWinkler;
pub(crate) use levenshtein::char_histogram;
pub use levenshtein::{
    levenshtein_distance, levenshtein_distance_chars, levenshtein_within, NormalizedLevenshtein,
};

/// Buckets of the character histogram a [`Prepared::Chars`] may carry:
/// 32 saturating `u8` counts are two SSE registers (one AVX2 register),
/// so the L1 distance of two histograms is a handful of instructions.
pub(crate) const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-size digest of one prepared value — its scalar count and its
/// bucketed character histogram — laid out so that a column of them is
/// one dense array. [`Similarity::survivors_at_least`] decides on
/// sketches alone, so a block-at-a-time compare loop touches 36 bytes
/// per member instead of chasing each value through its slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sketch {
    pub(crate) histogram: [u8; HISTOGRAM_BUCKETS],
    pub(crate) len: u32,
}

impl Sketch {
    /// The sketch of the empty string.
    pub const EMPTY: Sketch = Sketch {
        histogram: [0; HISTOGRAM_BUCKETS],
        len: 0,
    };
}

/// A measure-specific preprocessed representation of one string.
///
/// Produced by [`Similarity::prepare`]; only meaningful when handed
/// back to the **same** measure's [`Similarity::sim_prepared`]
/// (mismatched variants panic — a programming error, not data skew).
#[derive(Debug, Clone, PartialEq)]
pub enum Prepared {
    /// Unicode scalar values of the string (edit-distance family).
    Chars {
        /// The scalar values, in order.
        chars: Vec<char>,
        /// Bucketed character counts of `chars`, stored only by
        /// [`NormalizedLevenshtein`], whose thresholded kernel rejects
        /// most non-matching pairs on it before any edit distance runs.
        /// Boxed so that a value without one — [`JaroWinkler`]'s — does
        /// not carry 32 unused bytes.
        histogram: Option<Box<[u8; HISTOGRAM_BUCKETS]>>,
    },
    /// Sorted, deduplicated 64-bit element hashes (set-overlap family).
    HashedSet(Vec<u64>),
}

impl Prepared {
    /// A borrowed view of this prepared form — the representation the
    /// similarity kernels actually consume. The same [`PreparedView`]
    /// can also be produced from an interned
    /// [`crate::arena::PreparedArena`] slot, which is how the heap and
    /// arena storage paths share one set of kernels (and are bit-exact
    /// by construction).
    pub fn view(&self) -> PreparedView<'_> {
        match self {
            Prepared::Chars { chars, histogram } => PreparedView::Chars {
                chars,
                histogram: histogram.as_deref(),
            },
            Prepared::HashedSet(h) => PreparedView::HashedSet(h),
        }
    }
}

/// A borrowed prepared representation: slices into either a heap
/// [`Prepared`] or a [`crate::arena::PreparedArena`] slab. `Copy`, so
/// the O(b²) compare loop passes it around without touching the heap.
#[derive(Debug, Clone, Copy)]
pub enum PreparedView<'a> {
    /// Unicode scalar values (edit-distance family).
    Chars {
        /// The scalar values, in order.
        chars: &'a [char],
        /// Bucketed character counts, when the measure stored them.
        histogram: Option<&'a [u8; HISTOGRAM_BUCKETS]>,
    },
    /// An all-ASCII `Chars` value with a histogram, as an arena keeps
    /// it: one byte per scalar, a quarter of the `char` form.
    Ascii {
        /// The scalar values, in order.
        bytes: &'a [u8],
        /// Bucketed character counts.
        histogram: &'a [u8; HISTOGRAM_BUCKETS],
    },
    /// Sorted, deduplicated element hashes (set-overlap family).
    HashedSet(&'a [u64]),
}

/// The scalars of an edit-distance value, in either stored form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Text<'a> {
    /// All ASCII, one byte per scalar.
    Ascii(&'a [u8]),
    /// Any scalars.
    Wide(&'a [char]),
}

impl Text<'_> {
    /// Number of scalars.
    pub(crate) fn len(self) -> usize {
        match self {
            Text::Ascii(bytes) => bytes.len(),
            Text::Wide(chars) => chars.len(),
        }
    }
}

impl<'a> PreparedView<'a> {
    /// The char buffer, panicking on a foreign variant (or the byte
    /// form, which only measures storing a histogram produce).
    pub(crate) fn chars(self) -> &'a [char] {
        match self {
            PreparedView::Chars { chars, .. } => chars,
            other => panic!("expected Prepared::Chars, got {other:?}"),
        }
    }

    /// The scalars with their histogram (if the preparing measure
    /// stored one), panicking on a foreign variant.
    pub(crate) fn text_and_histogram(self) -> (Text<'a>, Option<&'a [u8; HISTOGRAM_BUCKETS]>) {
        match self {
            PreparedView::Chars { chars, histogram } => (Text::Wide(chars), histogram),
            PreparedView::Ascii { bytes, histogram } => (Text::Ascii(bytes), Some(histogram)),
            other => panic!("expected Prepared::Chars, got {other:?}"),
        }
    }

    /// The value's [`Sketch`]: `Some` exactly for char buffers prepared
    /// with a histogram (and short enough for a `u32` count).
    pub fn sketch(self) -> Option<Sketch> {
        let (len, histogram) = match self {
            PreparedView::Chars {
                chars,
                histogram: Some(histogram),
            } => (chars.len(), histogram),
            PreparedView::Ascii { bytes, histogram } => (bytes.len(), histogram),
            _ => return None,
        };
        Some(Sketch {
            histogram: *histogram,
            len: u32::try_from(len).ok()?,
        })
    }

    /// The hashed element set, panicking on a foreign variant.
    pub(crate) fn hashed_set(self) -> &'a [u64] {
        match self {
            PreparedView::HashedSet(h) => h,
            other => panic!("expected Prepared::HashedSet, got {other:?}"),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte stream: deterministic across runs and platforms
/// (important: prepared forms must never make job output depend on
/// hasher seeding).
#[inline]
pub(crate) fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the UTF-8 encoding of a char slice, allocation-free:
/// the textbook form the shingle hashing is tested against.
#[cfg(test)]
pub(crate) fn fnv1a_chars(chars: &[char]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut buf = [0u8; 4];
    for &c in chars {
        for &b in c.encode_utf8(&mut buf).as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Sorts and deduplicates a hash multiset into set form.
pub(crate) fn into_hash_set(mut hashes: Vec<u64>) -> Vec<u64> {
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

/// `|A ∩ B| / |A ∪ B|` over two sorted deduplicated hash slices via a
/// linear merge walk; the kernel of [`Jaccard`].
/// Both sets empty compares as identical (`1.0`).
pub(crate) fn jaccard_of_sorted_sets(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// A symmetric string similarity in `[0, 1]`.
///
/// Implementors define [`prepare`](Similarity::prepare) and the view
/// kernel [`sim_view`](Similarity::sim_view);
/// [`sim_prepared`](Similarity::sim_prepared) and the string-level
/// [`sim`](Similarity::sim) are derived, so every entry point —
/// string, heap-prepared, or arena-interned — agrees bit-exactly by
/// construction.
pub trait Similarity: Send + Sync {
    /// Preprocesses `s` into this measure's cached representation.
    ///
    /// Call once per string, then evaluate all its pairs through
    /// [`sim_prepared`](Similarity::sim_prepared) (or intern into a
    /// [`crate::arena::PreparedArena`] and use
    /// [`sim_view`](Similarity::sim_view)).
    fn prepare(&self, s: &str) -> Prepared;

    /// [`prepare`](Similarity::prepare) written straight into `arena`'s
    /// slabs. The default prepares on the heap and copies; measures
    /// whose prepared form is one flat buffer override it to skip the
    /// temporary. Either way the interned value views exactly like
    /// `prepare(s)`.
    fn prepare_into(&self, s: &str, arena: &mut PreparedArena) -> ArenaValue {
        arena.intern_value(&self.prepare(s))
    }

    /// Similarity of two prepared views; `1.0` means identical. The
    /// single kernel both storage paths (heap [`Prepared`] and arena
    /// slabs) funnel into — implementations must not allocate per
    /// call beyond thread-local scratch, which is what keeps the
    /// blocked O(b²) compare loop allocation-free after warm-up.
    ///
    /// # Panics
    /// If either argument was prepared by a different measure family.
    fn sim_view(&self, a: &PreparedView<'_>, b: &PreparedView<'_>) -> f64;

    /// Similarity of two prepared strings; `1.0` means identical.
    ///
    /// Provided as `sim_view(a.view(), b.view())`.
    ///
    /// # Panics
    /// If either argument was prepared by a different measure family.
    fn sim_prepared(&self, a: &Prepared, b: &Prepared) -> f64 {
        self.sim_view(&a.view(), &b.view())
    }

    /// Similarity of `a` and `b`; `1.0` means identical.
    ///
    /// Provided as `sim_prepared(prepare(a), prepare(b))` — override
    /// only with an implementation that preserves that equality.
    fn sim(&self, a: &str, b: &str) -> f64 {
        self.sim_prepared(&self.prepare(a), &self.prepare(b))
    }

    /// Threshold-aware comparison: `Some(sim)` iff `sim >= floor`,
    /// where the returned value is **bit-identical** to
    /// [`sim_view`](Similarity::sim_view).
    ///
    /// The default computes the full similarity and compares. Measures
    /// that can bound the similarity more cheaply override it to
    /// abandon hopeless pairs early — [`NormalizedLevenshtein`] rejects
    /// on lengths and character histograms before computing any edit
    /// distance, which is what makes thresholded matching at paper
    /// scale affordable.
    fn sim_view_at_least(
        &self,
        a: &PreparedView<'_>,
        b: &PreparedView<'_>,
        floor: f64,
    ) -> Option<f64> {
        let s = self.sim_view(a, b);
        (s >= floor).then_some(s)
    }

    /// Batch prefilter of
    /// [`sim_view_at_least`](Similarity::sim_view_at_least): appends to
    /// `survivors`, in ascending order, the position in `members` of
    /// every value whose pair with `probe` **may** reach `floor`. All
    /// sketches are of values this measure prepared.
    ///
    /// The contract is one-sided: a position left out is a pair for
    /// which `sim_view_at_least` returns `None`; a position kept
    /// promises nothing, and the caller hands it to
    /// `sim_view_at_least`. Decisions and scores therefore cannot
    /// depend on the filter. The default keeps everything;
    /// [`NormalizedLevenshtein`] drops what its length and histogram
    /// bounds already reject, at two loads and a 32-byte L1 a pair.
    fn survivors_at_least(
        &self,
        probe: &Sketch,
        members: &[Sketch],
        floor: f64,
        survivors: &mut Vec<u32>,
    ) {
        let _ = (probe, floor);
        let len = u32::try_from(members.len()).expect("a sketch column fits u32 positions");
        survivors.extend(0..len);
    }

    /// [`sim_view_at_least`](Similarity::sim_view_at_least) over heap
    /// prepared forms.
    fn sim_prepared_at_least(&self, a: &Prepared, b: &Prepared, floor: f64) -> Option<f64> {
        self.sim_view_at_least(&a.view(), &b.view(), floor)
    }

    /// Short identifier for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_measures() -> Vec<Box<dyn Similarity>> {
        vec![
            Box::new(NormalizedLevenshtein),
            Box::new(JaroWinkler::default()),
            Box::new(Jaccard),
        ]
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            all_measures().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values guard against accidental hasher changes, which
        // would silently invalidate any persisted prepared forms.
        assert_eq!(fnv1a_bytes(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_chars(&['a']), fnv1a_bytes(*b"a"));
        assert_eq!(fnv1a_chars(&['é']), fnv1a_bytes("é".bytes()));
    }

    #[test]
    fn jaccard_kernel_merge_walk() {
        assert_eq!(jaccard_of_sorted_sets(&[], &[]), 1.0);
        assert_eq!(jaccard_of_sorted_sets(&[1], &[]), 0.0);
        assert_eq!(jaccard_of_sorted_sets(&[1, 2], &[1, 2]), 1.0);
        assert!((jaccard_of_sorted_sets(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected Prepared::Chars")]
    fn mismatched_prepared_variant_panics() {
        let lev = NormalizedLevenshtein;
        let wrong = Jaccard.prepare("some tokens");
        let ok = lev.prepare("abc");
        let _ = lev.sim_prepared(&ok, &wrong);
    }

    proptest! {
        #[test]
        fn identity_is_one(s in "\\PC{0,24}") {
            for m in all_measures() {
                prop_assert!((m.sim(&s, &s) - 1.0).abs() < 1e-12,
                    "{} not 1.0 on identical inputs {s:?}", m.name());
            }
        }

        #[test]
        fn symmetric(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            for m in all_measures() {
                let ab = m.sim(&a, &b);
                let ba = m.sim(&b, &a);
                prop_assert!((ab - ba).abs() < 1e-12,
                    "{} asymmetric on {a:?}/{b:?}: {ab} vs {ba}", m.name());
            }
        }

        #[test]
        fn bounded(a in "\\PC{0,16}", b in "\\PC{0,16}") {
            for m in all_measures() {
                let s = m.sim(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s),
                    "{} out of bounds on {a:?}/{b:?}: {s}", m.name());
            }
        }

        #[test]
        fn prepared_path_is_bit_exact(a in "\\PC{0,20}", b in "\\PC{0,20}") {
            // The contract the load-balance reducers rely on: caching
            // prepared entities must never change a match decision.
            // Bit-exact equality, not epsilon closeness.
            for m in all_measures() {
                let (pa, pb) = (m.prepare(&a), m.prepare(&b));
                let prepared = m.sim_prepared(&pa, &pb);
                let direct = m.sim(&a, &b);
                prop_assert!(
                    prepared == direct && prepared.to_bits() == direct.to_bits(),
                    "{} prepared path diverged on {a:?}/{b:?}: {prepared} vs {direct}",
                    m.name()
                );
            }
        }

        #[test]
        fn threshold_kernel_agrees_for_every_measure(
            a in "\\PC{0,16}",
            b in "\\PC{0,16}",
            floor_steps in 0u32..11,
        ) {
            let floor = floor_steps as f64 / 10.0;
            for m in all_measures() {
                let (pa, pb) = (m.prepare(&a), m.prepare(&b));
                let s = m.sim_prepared(&pa, &pb);
                prop_assert_eq!(
                    m.sim_prepared_at_least(&pa, &pb, floor).map(f64::to_bits),
                    (s >= floor).then(|| s.to_bits()),
                    "{} diverged on {:?}/{:?} at floor {}", m.name(), a, b, floor
                );
            }
        }

        #[test]
        fn prepare_is_pure(s in "\\PC{0,20}") {
            for m in all_measures() {
                prop_assert_eq!(m.prepare(&s), m.prepare(&s),
                    "{} prepare not deterministic", m.name());
            }
        }
    }
}
