//! Edit distance (Levenshtein) and its normalized similarity — the
//! paper's match function: "Two entities were compared by computing
//! the edit distance of their title. Two entities with a minimal
//! similarity of 0.8 were regarded as matches."
//!
//! The thresholded path ([`Similarity::sim_view_at_least`]) is an exact
//! filter → verify cascade: a length check and a bucketed character
//! histogram reject every pair that provably cannot reach the floor,
//! and the survivors get their true distance from a bit-parallel
//! (Myers/Hyyrö) kernel — or, past 64 scalars, from the banded DP.

use std::cell::RefCell;

use super::{Prepared, PreparedView, Similarity, Sketch, Text, HISTOGRAM_BUCKETS};
use crate::arena::{ArenaValue, PreparedArena};

/// One scalar as the kernels read it: a byte of ASCII text, or a
/// `char`. Both forms compare, hash and bucket as the `char` they are,
/// so a kernel gives the same answer over either.
pub(crate) trait Scalar: Copy {
    /// The scalar as a `char`.
    fn char(self) -> char;

    /// `scalars` as ASCII bytes, when this is the byte form.
    fn ascii(scalars: &[Self]) -> Option<&[u8]>;
}

/// A byte scalar is ASCII: [`Text::Ascii`] holds nothing else.
impl Scalar for u8 {
    fn char(self) -> char {
        char::from(self)
    }

    fn ascii(scalars: &[u8]) -> Option<&[u8]> {
        Some(scalars)
    }
}

impl Scalar for char {
    fn char(self) -> char {
        self
    }

    fn ascii(_: &[char]) -> Option<&[u8]> {
        None
    }
}

/// Binds `$a` and `$b` to the scalar slices of the [`Text`]s `$ta` and
/// `$tb` and evaluates `$body` — once per combination of stored forms,
/// each a monomorphic kernel.
macro_rules! with_scalars {
    (($a:ident, $b:ident) = ($ta:expr, $tb:expr) => $body:expr) => {
        match ($ta, $tb) {
            (Text::Ascii($a), Text::Ascii($b)) => $body,
            (Text::Ascii($a), Text::Wide($b)) => $body,
            (Text::Wide($a), Text::Ascii($b)) => $body,
            (Text::Wide($a), Text::Wide($b)) => $body,
        }
    };
}

thread_local! {
    /// The two DP rows both Levenshtein DP kernels work in. Thread-local
    /// so the O(b²) compare loop performs zero heap allocations after
    /// the rows have grown to the corpus's longest string; `RefCell`
    /// borrows are confined to one (non-recursive) kernel invocation.
    static DP_ROWS: RefCell<(Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };

    /// The bit-parallel kernel's pattern masks, rebuilt per pair.
    static PATTERN_MASKS: RefCell<PatternMasks> = const { RefCell::new(PatternMasks::new()) };

    /// The same masks for an ASCII pattern against ASCII text, indexed
    /// by byte. All zero between calls: a call clears the entries its
    /// pattern set.
    static ASCII_MASKS: RefCell<[u64; 128]> = const { RefCell::new([0; 128]) };

    /// The batch prefilter's [`max_distance`] table, kept across calls.
    static MAX_DISTANCES: RefCell<MaxDistances> = const { RefCell::new(MaxDistances::new()) };
}

/// Bucketed character counts of `chars`: scalar value → one of
/// [`HISTOGRAM_BUCKETS`] saturating `u8` counters.
pub(crate) fn char_histogram<S: Scalar>(chars: &[S]) -> [u8; HISTOGRAM_BUCKETS] {
    let mut histogram = [0u8; HISTOGRAM_BUCKETS];
    for &c in chars {
        // Fibonacci hashing: the top five bits of the product spread
        // neighbouring code points (a script's letters, the digits)
        // over all 32 buckets.
        let bucket =
            (c.char() as u32).wrapping_mul(0x9E37_79B1) >> (32 - HISTOGRAM_BUCKETS.ilog2());
        let count = &mut histogram[bucket as usize];
        *count = count.saturating_add(1);
    }
    histogram
}

/// `Σ |a[i] − b[i]|` — a lower bound on the L1 distance of the exact
/// (unbucketed, unsaturated) character counts, since merging buckets
/// and clamping counts can only bring two histograms closer.
///
/// Summed as `u32` (32 · 255 fits easily): that is the width at which
/// the compiler turns the whole loop into two `psadbw`.
fn histogram_l1(a: &[u8; HISTOGRAM_BUCKETS], b: &[u8; HISTOGRAM_BUCKETS]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u32::from(x.abs_diff(y)))
        .sum()
}

/// Longest pattern the bit-parallel kernel handles: one bit per scalar
/// of the shorter string in a `u64`.
const WORD: usize = 64;

/// `char → u64` map of the positions each scalar occupies in the
/// pattern: an open-addressed table indexed by the scalar's low byte
/// (so ASCII never probes) that holds at most [`WORD`] entries.
/// Entries carry the generation that wrote them, so starting the next
/// pattern is one increment instead of a sweep over the table.
struct PatternMasks {
    slots: [MaskSlot; Self::SLOTS],
    generation: u32,
}

#[derive(Clone, Copy)]
struct MaskSlot {
    scalar: char,
    generation: u32,
    mask: u64,
}

impl PatternMasks {
    /// Four times the most entries ever resident, so probe runs stay
    /// short whatever the script.
    const SLOTS: usize = 4 * WORD;

    const fn new() -> Self {
        Self {
            slots: [MaskSlot {
                scalar: '\0',
                generation: 0,
                mask: 0,
            }; Self::SLOTS],
            generation: 0,
        }
    }

    /// Forgets the previous pattern and records `pattern`'s positions.
    fn load<S: Scalar>(&mut self, pattern: &[S]) {
        debug_assert!(pattern.len() <= WORD);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: entries of 2³² patterns ago would read as live.
            self.slots.iter_mut().for_each(|s| s.generation = 0);
            self.generation = 1;
        }
        for (i, c) in pattern.iter().map(|&c| c.char()).enumerate() {
            let slot = self.slot_of(c);
            let slot = &mut self.slots[slot];
            if slot.generation != self.generation {
                *slot = MaskSlot {
                    scalar: c,
                    generation: self.generation,
                    mask: 0,
                };
            }
            slot.mask |= 1 << i;
        }
    }

    /// The slot holding `c`, or the free slot where its probe run ends.
    fn slot_of(&self, c: char) -> usize {
        let mut i = c as usize % Self::SLOTS;
        while self.slots[i].generation == self.generation && self.slots[i].scalar != c {
            i = (i + 1) % Self::SLOTS;
        }
        i
    }

    /// Bit `i` set iff `pattern[i] == c`.
    fn mask(&self, c: char) -> u64 {
        let slot = &self.slots[self.slot_of(c)];
        if slot.generation == self.generation {
            slot.mask
        } else {
            0
        }
    }
}

/// Levenshtein distance by Myers' bit-parallel algorithm in Hyyrö's
/// global-distance form: one `u64` holds a whole DP column as vertical
/// ±1 deltas, so each scalar of `text` costs a dozen word operations
/// instead of `|pattern|` cell updates. Two ASCII sides look their
/// masks up by byte; any other pair probes [`PatternMasks`].
///
/// `pattern` must hold 1 to [`WORD`] scalars.
fn levenshtein_bit_parallel<P: Scalar, T: Scalar>(pattern: &[P], text: &[T]) -> usize {
    debug_assert!((1..=WORD).contains(&pattern.len()));
    if let (Some(pattern), Some(text)) = (P::ascii(pattern), T::ascii(text)) {
        return ASCII_MASKS.with(|masks| {
            let mut masks = masks.borrow_mut();
            for (i, &b) in pattern.iter().enumerate() {
                masks[usize::from(b)] |= 1 << i;
            }
            let distance = myers(pattern.len(), text.iter().map(|&b| masks[usize::from(b)]));
            for &b in pattern {
                masks[usize::from(b)] = 0;
            }
            distance
        });
    }
    PATTERN_MASKS.with(|masks| {
        let mut masks = masks.borrow_mut();
        masks.load(pattern);
        myers(pattern.len(), text.iter().map(|&c| masks.mask(c.char())))
    })
}

/// The bit-parallel column walk over a pattern of `len` scalars, given
/// each text scalar's match mask (bit `i` set iff `pattern[i]` equals
/// it).
fn myers(len: usize, masks: impl Iterator<Item = u64>) -> usize {
    let last_row = 1u64 << (len - 1);
    // Vertical deltas of the current column: +1 everywhere in column 0
    // (D[i][0] = i), whose bottom cell is |pattern|.
    let (mut plus_v, mut minus_v) = (!0u64, 0u64);
    let mut distance = len;
    for eq in masks {
        let diag_zero = (((eq & plus_v).wrapping_add(plus_v)) ^ plus_v) | eq | minus_v;
        let plus_h = minus_v | !(diag_zero | plus_v);
        let minus_h = diag_zero & plus_v;
        distance += usize::from(plus_h & last_row != 0);
        distance -= usize::from(minus_h & last_row != 0);
        // Row 0 grows by one per column (D[0][j] = j).
        let plus_h = (plus_h << 1) | 1;
        let minus_h = minus_h << 1;
        plus_v = minus_h | !(diag_zero | plus_h);
        minus_v = plus_h & diag_zero;
    }
    distance
}

/// Unrestricted Levenshtein distance over Unicode scalar values.
///
/// Convenience wrapper over [`levenshtein_distance_chars`] for one-off
/// string pairs; hot loops should decode to chars once and call the
/// slice form directly.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_distance_chars(&a_chars, &b_chars)
}

/// Levenshtein distance over pre-decoded scalar values, two-row
/// dynamic programming, `O(|a|·|b|)` time and `O(min)` space — the
/// rows live in thread-local scratch, so steady-state calls do not
/// allocate.
pub fn levenshtein_distance_chars(a_chars: &[char], b_chars: &[char]) -> usize {
    distance(a_chars, b_chars)
}

/// [`levenshtein_distance_chars`] over either stored form.
fn distance<A: Scalar, B: Scalar>(a: &[A], b: &[B]) -> usize {
    // Keep the inner row the shorter one for cache friendliness.
    if a.len() >= b.len() {
        distance_ordered(a, b)
    } else {
        distance_ordered(b, a)
    }
}

fn distance_ordered<L: Scalar, S: Scalar>(long: &[L], short: &[S]) -> usize {
    if short.is_empty() {
        return long.len();
    }
    DP_ROWS.with(|rows| {
        let mut rows = rows.borrow_mut();
        let (prev, cur) = &mut *rows;
        prev.clear();
        prev.extend(0..=short.len());
        cur.clear();
        cur.resize(short.len() + 1, 0);
        for (i, &lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc.char() != sc.char());
                let del = prev[j + 1] + 1;
                let ins = cur[j] + 1;
                cur[j + 1] = sub.min(del).min(ins);
            }
            std::mem::swap(prev, cur);
        }
        prev[short.len()]
    })
}

/// Banded early-exit check: is `levenshtein_distance(a, b) <= k`?
///
/// Runs in `O(k·max(|a|,|b|))` by evaluating only a diagonal band of
/// width `2k+1`, which is what makes thresholded matching at paper
/// scale affordable: a 0.8 similarity threshold on titles bounds the
/// permissible distance to 20 % of the longer title.
pub fn levenshtein_within(a: &str, b: &str, k: usize) -> bool {
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a_chars, &b_chars, k).is_some()
}

/// Banded Levenshtein over pre-decoded scalars: `Some(d)` with the
/// *exact* distance when `d <= k`, `None` when the distance exceeds
/// `k` (detected early, without filling the full DP matrix).
///
/// [`NormalizedLevenshtein`]'s thresholded kernel verifies with this
/// only when both strings exceed 64 scalars (shorter ones take the
/// bit-parallel kernel); it is also the oracle the tests hold that
/// kernel against.
pub fn levenshtein_bounded_chars(a_chars: &[char], b_chars: &[char], k: usize) -> Option<usize> {
    bounded(a_chars, b_chars, k)
}

/// [`levenshtein_bounded_chars`] over either stored form.
fn bounded<A: Scalar, B: Scalar>(a_chars: &[A], b_chars: &[B], k: usize) -> Option<usize> {
    let (n, m) = (a_chars.len(), b_chars.len());
    if n.abs_diff(m) > k {
        return None;
    }
    if n == 0 {
        return (m <= k).then_some(m);
    }
    if m == 0 {
        return (n <= k).then_some(n);
    }
    const BIG: usize = usize::MAX / 2;
    DP_ROWS.with(|rows| {
        let mut rows = rows.borrow_mut();
        let (prev, cur) = &mut *rows;
        // prev[j] = distance for prefix lengths (i, j); band-limited.
        // clear + resize refills every cell with BIG, so reusing the
        // scratch rows is bit-identical to freshly allocated ones.
        prev.clear();
        prev.resize(m + 1, BIG);
        for (j, p) in prev.iter_mut().enumerate().take(k.min(m) + 1) {
            *p = j;
        }
        cur.clear();
        cur.resize(m + 1, BIG);
        for i in 1..=n {
            let lo = i.saturating_sub(k).max(1);
            let hi = (i + k).min(m);
            if lo > hi {
                return None;
            }
            cur[lo - 1] = if lo == 1 { i } else { BIG };
            let mut row_min = cur[lo - 1];
            for j in lo..=hi {
                let sub = prev[j - 1] + usize::from(a_chars[i - 1].char() != b_chars[j - 1].char());
                let del = prev[j].saturating_add(1);
                let ins = cur[j - 1].saturating_add(1);
                cur[j] = sub.min(del).min(ins);
                row_min = row_min.min(cur[j]);
            }
            if hi < m {
                cur[hi + 1] = BIG;
            }
            if row_min > k {
                return None;
            }
            std::mem::swap(prev, cur);
        }
        (prev[m] <= k).then_some(prev[m])
    })
}

/// The distance of `short` and `long` (`|short| ≤ |long|`) for the
/// thresholded kernel: exact from the bit-parallel kernel (shorter
/// string ≤ 64 scalars, any distance), else from the banded DP — which
/// gives up, `None`, past `k`.
fn verify<S: Scalar, L: Scalar>(short: &[S], long: &[L], k: usize) -> Option<usize> {
    if short.is_empty() {
        Some(long.len())
    } else if short.len() <= WORD {
        Some(levenshtein_bit_parallel(short, long))
    } else {
        bounded(short, long, k)
    }
}

/// The similarity of two strings `d` edits apart, the longer `max_len`
/// scalars long.
fn similarity_at(d: usize, max_len: usize) -> f64 {
    1.0 - d as f64 / max_len as f64
}

/// Largest distance two strings, the longer `max_len > 0` scalars long,
/// can be apart and still reach `floor` — under the *exact f64
/// predicate* the slow path applies. Derived by nudging a float
/// estimate down until the predicate holds, so threshold-boundary pairs
/// (e.g. distance 2 at length 10 against floor 0.8) behave identically
/// to `sim_prepared(..) >= floor`. The estimate is the product
/// truncated, plus one: above the product, which is within rounding
/// error (far below 1) of any distance the predicate admits, hence
/// never below the bound — and at most two steps above it, without a
/// call into libm's `ceil`.
fn max_distance(max_len: usize, floor: f64) -> usize {
    let mut k = (((1.0 - floor) * max_len as f64) as usize + 1).min(max_len);
    while k > 0 && similarity_at(k, max_len) < floor {
        k -= 1;
    }
    k
}

/// [`max_distance`] by `max_len` for one floor, filled on demand: the
/// batch prefilter looks `k` up instead of deriving it per pair.
struct MaxDistances {
    floor_bits: u64,
    by_max_len: Vec<u32>,
}

impl MaxDistances {
    const fn new() -> Self {
        Self {
            floor_bits: 0,
            by_max_len: Vec::new(),
        }
    }

    /// Forgets the table when it was filled for another floor.
    fn reset_for(&mut self, floor: f64) {
        if self.floor_bits != floor.to_bits() {
            self.floor_bits = floor.to_bits();
            self.by_max_len.clear();
        }
    }

    /// `max_distance(max_len, floor)`; `floor` is the one last passed
    /// to [`reset_for`](Self::reset_for).
    fn get(&mut self, max_len: u32, floor: f64) -> u32 {
        if let Some(&k) = self.by_max_len.get(max_len as usize) {
            return k;
        }
        for len in self.by_max_len.len()..=max_len as usize {
            // `k ≤ len ≤ max_len`, so it fits.
            self.by_max_len.push(max_distance(len, floor) as u32);
        }
        self.by_max_len[max_len as usize]
    }
}

/// `1 − d(a,b) / max(|a|,|b|)`: the similarity the paper thresholds at
/// 0.8. Empty-vs-empty compares as identical (similarity 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedLevenshtein;

impl Similarity for NormalizedLevenshtein {
    fn prepare(&self, s: &str) -> Prepared {
        let chars: Vec<char> = s.chars().collect();
        let histogram = Some(Box::new(char_histogram(&chars)));
        Prepared::Chars { chars, histogram }
    }

    fn sim_view(&self, a: &PreparedView<'_>, b: &PreparedView<'_>) -> f64 {
        let ((at, _), (bt, _)) = (a.text_and_histogram(), b.text_and_histogram());
        let max_len = at.len().max(bt.len());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - with_scalars!((x, y) = (at, bt) => distance(x, y)) as f64 / max_len as f64
    }

    /// Filter → verify: only distances `d ≤ k` with
    /// `1 − k/max_len >= floor` can match, so a pair is rejected
    /// without any edit-distance work when its lengths differ by more
    /// than `k`, or when its character histograms are further apart
    /// than `k` edits can bring them. Survivors are verified by the
    /// bit-parallel kernel (shorter string ≤ 64 scalars) or the banded
    /// DP (both longer). Bit-exact with the unrestricted path: both
    /// filters only reject pairs whose distance exceeds `k`, both
    /// verifiers return the true distance, and the similarity is
    /// computed by the same expression.
    fn sim_view_at_least(
        &self,
        a: &PreparedView<'_>,
        b: &PreparedView<'_>,
        floor: f64,
    ) -> Option<f64> {
        let ((at, ah), (bt, bh)) = (a.text_and_histogram(), b.text_and_histogram());
        let max_len = at.len().max(bt.len());
        if max_len == 0 {
            return (1.0 >= floor).then_some(1.0);
        }
        if 1.0 < floor || floor.is_nan() {
            // Nothing reaches an unattainable (or NaN) floor; mirrors
            // `sim >= floor` being false for every pair.
            return None;
        }
        let k = max_distance(max_len, floor);
        let length_gap = at.len().abs_diff(bt.len());
        if length_gap > k {
            return None;
        }
        if let (Some(ah), Some(bh)) = (ah, bh) {
            // `d` edits are `i ≥ length_gap` insertions/deletions, each
            // moving one count by one, and `d − i` substitutions, each
            // moving two: the exact counts differ by at most
            // `2d − length_gap` in L1, and the bucketed ones by no more.
            if histogram_l1(ah, bh) as usize > 2 * k - length_gap {
                return None;
            }
        }
        let d = with_scalars!((x, y) = (at, bt) => if x.len() <= y.len() {
            verify(x, y, k)
        } else {
            verify(y, x, k)
        })?;
        (d <= k).then(|| similarity_at(d, max_len))
    }

    /// The first two stages of
    /// [`sim_view_at_least`](Similarity::sim_view_at_least) — the
    /// length gap and the histogram bound against the same
    /// `max_distance` — over a dense column: whatever they reject
    /// here the scalar kernel rejects too, and everything else is left
    /// to it.
    fn survivors_at_least(
        &self,
        probe: &Sketch,
        members: &[Sketch],
        floor: f64,
        survivors: &mut Vec<u32>,
    ) {
        MAX_DISTANCES.with(|table| {
            let mut table = table.borrow_mut();
            table.reset_for(floor);
            for (position, member) in (0u32..).zip(members) {
                let k = u64::from(table.get(probe.len.max(member.len), floor));
                let gap = u64::from(probe.len.abs_diff(member.len));
                let l1 = u64::from(histogram_l1(&probe.histogram, &member.histogram));
                // One rarely-taken branch: the two tests are evaluated
                // together so the common reject never mispredicts.
                if (gap <= k) & (l1 + gap <= 2 * k) {
                    survivors.push(position);
                }
            }
        });
    }

    fn prepare_into(&self, s: &str, arena: &mut PreparedArena) -> ArenaValue {
        arena.intern_text(s, true)
    }

    fn name(&self) -> &'static str {
        "levenshtein"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PreparedArena;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    /// `s` in the arena's byte form, when it is ASCII.
    fn bytes(s: &str) -> Option<&[u8]> {
        s.is_ascii().then_some(s.as_bytes())
    }

    /// `a` after a few random substitutions, insertions and deletions —
    /// the pairs independent draws almost never produce: close enough
    /// to pass the filter and to sit on either side of a floor.
    fn near(base: &'static str) -> BoxedStrategy<(String, String)> {
        (base, vec((0u8..3, 0usize..400, "\\PC{1}"), 0..12))
            .prop_map(|(a, edits)| {
                let mut b = chars(&a);
                for (op, at, c) in edits {
                    let c = c.chars().next().expect("one char");
                    match op {
                        0 if !b.is_empty() => {
                            let at = at % b.len();
                            b[at] = c;
                        }
                        1 if !b.is_empty() => {
                            b.remove(at % b.len());
                        }
                        _ => b.insert(at % (b.len() + 1), c),
                    }
                }
                (a, b.into_iter().collect())
            })
            .boxed()
    }

    /// String pairs over every shape the cascade branches on: arbitrary
    /// Unicode, a two-letter alphabet (many equal histograms), runs of
    /// one character past the 255 a bucket saturates at, and lengths on
    /// both sides of the 64-scalar word — drawn independently and as
    /// near-duplicates.
    fn string_pairs() -> impl Strategy<Value = (String, String)> {
        prop_oneof![
            ("\\PC{0,80}", "\\PC{0,80}"),
            // An ASCII string against one that may not be: the arena
            // keeps the two in different forms.
            ("[ab]{0,70}", "[abé]{0,70}"),
            ("[ab]{0,90}", "[ab]{0,90}"),
            ("a{0,300}[ab]{0,8}", "a{0,300}[ab]{0,8}"),
            near("\\PC{0,80}"),
            near("[ab]{0,90}"),
            near("a{200,300}b{0,70}"),
        ]
    }

    fn floors() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..1.0,
            (0u32..21).prop_map(|step| f64::from(step) / 20.0),
            Just(0.0),
            Just(1.0),
            Just(1.5),
            Just(f64::NAN),
        ]
    }

    /// `sim_view_at_least` over the arena-interned forms of `a` and `b`.
    fn arena_at_least(a: &Prepared, b: &Prepared, floor: f64) -> Option<f64> {
        let mut arena = PreparedArena::new();
        let ia = arena.intern(&[Some(a.clone())]);
        let ib = arena.intern(&[Some(b.clone())]);
        let (va, vb) = (arena.value(ia, 0).unwrap(), arena.value(ib, 0).unwrap());
        NormalizedLevenshtein.sim_view_at_least(&va, &vb, floor)
    }

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
        assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", ""), 3);
        assert_eq!(levenshtein_distance("", ""), 0);
        assert_eq!(levenshtein_distance("same", "same"), 0);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
        assert_eq!(levenshtein_distance("日本語", "日本"), 1);
    }

    #[test]
    fn normalized_similarity_examples() {
        let s = NormalizedLevenshtein;
        assert!((s.sim("abcd", "abcd") - 1.0).abs() < 1e-12);
        assert!((s.sim("abcde", "abcdX") - 0.8).abs() < 1e-12);
        assert!((s.sim("", "") - 1.0).abs() < 1e-12);
        assert_eq!(s.sim("", "xyz"), 0.0);
    }

    #[test]
    fn banded_check_agrees_on_fixed_cases() {
        assert!(levenshtein_within("kitten", "sitting", 3));
        assert!(!levenshtein_within("kitten", "sitting", 2));
        assert!(levenshtein_within("", "", 0));
        assert!(!levenshtein_within("abcdef", "", 3));
        assert!(levenshtein_within("abc", "abc", 0));
    }

    #[test]
    fn bounded_returns_exact_distance_or_none() {
        let c = |s: &str| s.chars().collect::<Vec<char>>();
        assert_eq!(
            levenshtein_bounded_chars(&c("kitten"), &c("sitting"), 3),
            Some(3)
        );
        assert_eq!(
            levenshtein_bounded_chars(&c("kitten"), &c("sitting"), 2),
            None
        );
        assert_eq!(levenshtein_bounded_chars(&c(""), &c(""), 0), Some(0));
        assert_eq!(levenshtein_bounded_chars(&c("abc"), &c("abc"), 0), Some(0));
        assert_eq!(levenshtein_bounded_chars(&c("abcdef"), &c(""), 3), None);
    }

    #[test]
    fn thresholded_kernel_handles_the_exact_boundary() {
        // Distance 2 at length 10 is similarity 0.8 — must match a 0.8
        // floor, exactly like the full-scoring path (the paper's `>=`).
        let s = NormalizedLevenshtein;
        let (pa, pb) = (s.prepare("abcdefghij"), s.prepare("abcdefghXY"));
        let fast = s.sim_prepared_at_least(&pa, &pb, 0.8);
        assert_eq!(fast, Some(s.sim_prepared(&pa, &pb)));
        // One more edit falls below the floor.
        let pc = s.prepare("abcdefgXYZ");
        assert_eq!(s.sim_prepared_at_least(&pa, &pc, 0.8), None);
        // Unattainable and NaN floors match nothing.
        assert_eq!(s.sim_prepared_at_least(&pa, &pb, 1.5), None);
        assert_eq!(s.sim_prepared_at_least(&pa, &pb, f64::NAN), None);
        // Floor 0 accepts everything, still with the exact score.
        assert_eq!(
            s.sim_prepared_at_least(&pa, &pc, 0.0),
            Some(s.sim_prepared(&pa, &pc))
        );
    }

    #[test]
    fn batch_prefilter_drops_far_pairs_and_keeps_near_ones() {
        let s = NormalizedLevenshtein;
        let sketch = |t: &str| s.prepare(t).view().sketch().expect("has a histogram");
        let column: Vec<Sketch> = [
            "abcdefghij",           // identical
            "abcdefghXY",           // two substitutions: exactly 0.8
            "abcdefgXYZ",           // three: the histograms are 6 apart
            "abcdefghijklmnopqrst", // same letters and more: the gap decides
            "jihgfedcba",           // an anagram: only the kernel can tell
            "",
        ]
        .map(sketch)
        .into();
        let survivors = |probe: &str, floor: f64| {
            let mut out = Vec::new();
            s.survivors_at_least(&sketch(probe), &column, floor, &mut out);
            out
        };
        assert_eq!(survivors("abcdefghij", 0.8), [0, 1, 4]);
        assert_eq!(survivors("abcdefghij", 1.0), [0, 4]);
        assert_eq!(survivors("abcdefghij", 0.0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(survivors("", 0.8), [5]);
        // The table restarts when the floor changes back.
        assert_eq!(survivors("abcdefghij", 0.8), [0, 1, 4]);
    }

    #[test]
    fn bit_parallel_kernel_on_fixed_cases() {
        let d = |p: &str, t: &str| levenshtein_bit_parallel(&chars(p), &chars(t));
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("a", ""), 1);
        assert_eq!(d("abc", "abc"), 0);
        assert_eq!(d("日本語", "日本"), 1);
        // A full word: bit 63 is the last row, and the row-0 carry
        // shifts out of it.
        let word = "abcdefgh".repeat(8);
        assert_eq!(word.chars().count(), WORD);
        assert_eq!(d(&word, &word), 0);
        assert_eq!(d(&word, &word.replace('h', "x")), 8);
        assert_eq!(d(&word, &"z".repeat(100)), 100);
        // Scalars that share a low byte probe past each other.
        assert_eq!(d("a\u{161}\u{261}", "\u{261}a\u{161}"), 2);
    }

    #[test]
    fn ascii_masks_are_clear_between_patterns() {
        let d = |p: &str, t: &str| levenshtein_bit_parallel(p.as_bytes(), t.as_bytes());
        assert_eq!(d("kitten", "sitting"), 3);
        // Every byte of the last pattern is gone before the next one.
        assert_eq!(d("abc", "xyz"), 3);
        assert_eq!(d("xyz", "abc"), 3);
        ASCII_MASKS.with(|masks| assert!(masks.borrow().iter().all(|&m| m == 0)));
        // Repeated bytes, a full word, and the one ASCII byte past 'z'.
        let word = "abcdefgh".repeat(8);
        assert_eq!(d(&word, &word.replace('h', "x")), 8);
        assert_eq!(d("\x7f\x7f", "\x7f"), 1);
        // A byte pattern against wide text takes the probing path.
        assert_eq!(levenshtein_bit_parallel(b"cafe", &chars("caf\u{e9}")), 1);
    }

    #[test]
    fn pattern_masks_survive_the_generation_wrap() {
        let mut masks = PatternMasks::new();
        masks.load(&chars("ab"));
        masks.generation = u32::MAX;
        masks.load(&chars("ba"));
        assert_eq!(
            (masks.mask('b'), masks.mask('a'), masks.mask('c')),
            (1, 2, 0)
        );
        assert_eq!(masks.generation, 1);
    }

    #[test]
    fn cascade_past_the_word_and_past_saturation() {
        let s = NormalizedLevenshtein;
        let run = "a".repeat(300);
        for (a, b) in [
            // Both past 64 scalars: the banded DP verifies.
            ("x".repeat(65), "x".repeat(64) + "y"),
            ("ab".repeat(40), "ab".repeat(39) + "ba"),
            // One bucket saturated on both sides: the histograms are
            // equal although 44 edits separate the strings.
            (run.clone(), "a".repeat(256)),
            (run.clone(), "a".repeat(280) + &"b".repeat(20)),
            // 64 vs 65: bit-parallel with the longer string as text.
            ("q".repeat(64), "q".repeat(65)),
        ] {
            let (pa, pb) = (s.prepare(&a), s.prepare(&b));
            let slow = s.sim_prepared(&pa, &pb);
            for step in 0..=20 {
                let floor = f64::from(step) / 20.0;
                let expected = (slow >= floor).then(|| slow.to_bits());
                assert_eq!(
                    s.sim_prepared_at_least(&pa, &pb, floor).map(f64::to_bits),
                    expected,
                    "{} vs {} scalars at floor {floor}",
                    a.chars().count(),
                    b.chars().count()
                );
                assert_eq!(arena_at_least(&pa, &pb, floor).map(f64::to_bits), expected);
            }
        }
        // The fallback is still the banded DP, callable on its own.
        assert_eq!(
            levenshtein_bounded_chars(&chars(&"x".repeat(65)), &chars(&("x".repeat(64) + "y")), 1),
            Some(1)
        );
    }

    proptest! {
        #[test]
        fn bit_parallel_equals_full_dp(pair in string_pairs()) {
            let (a, b) = if pair.0.chars().count() <= pair.1.chars().count() {
                (&pair.0, &pair.1)
            } else {
                (&pair.1, &pair.0)
            };
            let (short, long) = (chars(a), chars(b));
            if (1..=WORD).contains(&short.len()) {
                let dp = levenshtein_distance_chars(&short, &long);
                prop_assert_eq!(levenshtein_bit_parallel(&short, &long), dp);
                // Each ASCII side in its byte form: mixed pairs probe,
                // ASCII × ASCII indexes by byte.
                if let Some(s) = bytes(a) {
                    prop_assert_eq!(levenshtein_bit_parallel(s, &long), dp);
                }
                if let Some(l) = bytes(b) {
                    prop_assert_eq!(levenshtein_bit_parallel(&short, l), dp);
                }
                if let (Some(s), Some(l)) = (bytes(a), bytes(b)) {
                    prop_assert_eq!(levenshtein_bit_parallel(s, l), dp);
                }
            }
        }

        #[test]
        fn histogram_filter_never_rejects_a_pair_within_k(pair in string_pairs()) {
            // The filter rejects when L1 > 2k − gap; with d ≤ k that
            // never happens iff L1 ≤ 2d − gap.
            let (a, b) = (chars(&pair.0), chars(&pair.1));
            let d = levenshtein_distance_chars(&a, &b);
            let l1 = histogram_l1(&char_histogram(&a), &char_histogram(&b)) as usize;
            prop_assert!(l1 + a.len().abs_diff(b.len()) <= 2 * d, "l1={} d={}", l1, d);
        }

        #[test]
        fn cascade_is_bit_exact_with_slow_path(pair in string_pairs(), floor in floors()) {
            let s = NormalizedLevenshtein;
            let (pa, pb) = (s.prepare(&pair.0), s.prepare(&pair.1));
            let slow = s.sim_prepared(&pa, &pb);
            let expected = (slow >= floor).then(|| slow.to_bits());
            prop_assert_eq!(s.sim_prepared_at_least(&pa, &pb, floor).map(f64::to_bits), expected);
            prop_assert_eq!(arena_at_least(&pa, &pb, floor).map(f64::to_bits), expected);
        }

        #[test]
        fn batch_prefilter_never_drops_a_pair_the_kernel_accepts(
            probe in string_pairs(),
            others in vec(string_pairs(), 0..6),
            floor in floors(),
        ) {
            // One column out of every shape `string_pairs` draws; the
            // probe's near-duplicate is a member, so survivors exist.
            let s = NormalizedLevenshtein;
            let members: Vec<String> = std::iter::once(probe.1)
                .chain(others.into_iter().flat_map(|(a, b)| [a, b]))
                .collect();
            let prepared: Vec<Prepared> = members.iter().map(|m| s.prepare(m)).collect();
            let sketch = |p: &Prepared| p.view().sketch().expect("prepared with a histogram");
            let column: Vec<Sketch> = prepared.iter().map(sketch).collect();
            let probe = s.prepare(&probe.0);
            // Stale content must survive the call: survivors are appended.
            let mut survivors = vec![u32::MAX];
            s.survivors_at_least(&sketch(&probe), &column, floor, &mut survivors);
            prop_assert_eq!(survivors.remove(0), u32::MAX);
            prop_assert!(survivors.windows(2).all(|w| w[0] < w[1]), "{:?}", survivors);
            for (position, member) in (0u32..).zip(&prepared) {
                if s.sim_prepared_at_least(&probe, member, floor).is_some() {
                    prop_assert!(
                        survivors.contains(&position),
                        "dropped {:?} at floor {}", members[position as usize], floor
                    );
                }
            }
        }

        #[test]
        fn banded_agrees_with_full_dp(a in "[a-d]{0,12}", b in "[a-d]{0,12}", k in 0usize..6) {
            let d = levenshtein_distance(&a, &b);
            prop_assert_eq!(levenshtein_within(&a, &b, k), d <= k,
                "a={:?} b={:?} d={} k={}", a, b, d, k);
        }

        #[test]
        fn bounded_distance_is_exact_within_band(
            a in "[a-d]{0,12}",
            b in "[a-d]{0,12}",
            k in 0usize..8,
        ) {
            let d = levenshtein_distance(&a, &b);
            let ac: Vec<char> = a.chars().collect();
            let bc: Vec<char> = b.chars().collect();
            prop_assert_eq!(
                levenshtein_bounded_chars(&ac, &bc, k),
                (d <= k).then_some(d),
                "a={:?} b={:?} d={} k={}", a, b, d, k
            );
        }

        #[test]
        fn thresholded_kernel_is_bit_exact_with_slow_path(
            a in "[a-c]{0,14}",
            b in "[a-c]{0,14}",
            floor_steps in 0u32..21,
        ) {
            // Sweep floors over [0, 1] incl. awkward fractions; the
            // banded decision and score must equal the full path's.
            let floor = floor_steps as f64 / 20.0;
            let s = NormalizedLevenshtein;
            let (pa, pb) = (s.prepare(&a), s.prepare(&b));
            let slow = s.sim_prepared(&pa, &pb);
            let expected = (slow >= floor).then(|| slow.to_bits());
            let got = s.sim_prepared_at_least(&pa, &pb, floor).map(f64::to_bits);
            prop_assert_eq!(got, expected,
                "a={:?} b={:?} floor={}", a, b, floor);
            // The arena keeps both sides as bytes: the ASCII kernel.
            prop_assert_eq!(arena_at_least(&pa, &pb, floor).map(f64::to_bits), expected);
        }

        #[test]
        fn triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = levenshtein_distance(&a, &b);
            let bc = levenshtein_distance(&b, &c);
            let ac = levenshtein_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn distance_bounded_by_longer_string(a in "\\PC{0,10}", b in "\\PC{0,10}") {
            let d = levenshtein_distance(&a, &b);
            let max = a.chars().count().max(b.chars().count());
            let min = a.chars().count().min(b.chars().count());
            prop_assert!(d <= max);
            prop_assert!(d >= max - min);
        }
    }
}
