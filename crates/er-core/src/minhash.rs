//! MinHash signatures and banded locality-sensitive hashing.
//!
//! The third blocking family (after disjoint key blocking and Sorted
//! Neighborhood): entities are shingled into token/character-gram
//! sets, each set is compressed into a [`MinHasher`] signature of
//! `bands · rows` minimum hash values, and the signature is cut into
//! `bands` bands of `rows` values each. Two entities land in the same
//! *bucket* of band `i` when their band-`i` rows hash identically —
//! which happens with probability `s^rows` for Jaccard similarity `s`,
//! so the probability of colliding in *at least one* band follows the
//! classic S-curve `1 − (1 − s^rows)^bands` (see
//! [`banding_probability`]).
//!
//! Everything here is deterministic and platform-independent: shingle
//! hashing reuses the crate's FNV-1a kernels, and the per-row hash
//! functions are derived from a caller-supplied seed via a SplitMix64
//! stream — the same signature is produced for the same text on every
//! run, at every parallelism, on every machine (MR job output must
//! never depend on hasher seeding).
//!
//! # Why the kernel is written as it is
//!
//! The signature job runs this module once per entity, so text →
//! signature is one pass with no per-shingle allocation: ASCII text is
//! normalised into a stack buffer and its byte windows are hashed in
//! place, and every shingle hash goes straight into the signature
//! slots ([`MinHasher::text_signature`]). The slots take the hash
//! *multiset* — `min` is idempotent — so only the public
//! [`shingle_hashes`] pays for the sort + dedup of set form.
//!
//! The slot loop `min(slot, mix64(x ^ salt))` carries a
//! `std::hint::black_box` on the shingle. On the default `x86_64`
//! target (SSE2 only) LLVM vectorises that loop and has to *emulate*
//! both the 64-bit multiply (three `pmuludq` and shifts per product)
//! and the unsigned 64-bit minimum, which costs more than it saves.
//! Per 32-slot signature of ≈ 29 trigrams on the 2.1 GHz reference
//! container:
//!
//! | the slot loop                                         | µs   |
//! |-------------------------------------------------------|------|
//! | plain, default build (SSE2 auto-vectorised)           | 2.3  |
//! | plain, `-C no-vectorize-loops -C no-vectorize-slp`    | 1.0  |
//! | `black_box` on the shingle, default build             | 1.15 |
//! | the same with shingling, inside `LshBlocking`         | 1.3  |
//!
//! 1.0 µs is ≈ 2.3 cycles per hash, the bound of two `imul`s; the
//! opaque value keeps the loop scalar for the price of one stack
//! round trip per hash. An `#[inline(never)]` per salt, a `u128`
//! widening multiply, an `if h < m` branch and a four-accumulator
//! unroll were all still vectorised (2.3 µs). Re-measure with the
//! ledger's `core.minhash.signature_ns_per_entity` (text → signature)
//! and `core.blocking.ns_per_entity` (text → band keys) on a traced
//! `lsh_8x4` run; the textbook forms the kernel is pinned to
//! bit-for-bit live in this module's tests.

use std::hint::black_box;

use crate::similarity::{fnv1a_bytes, into_hash_set};

/// How text is cut into the shingle set a signature summarizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShingleScheme {
    /// Overlapping character `n`-grams of the normalized text (the
    /// default, `n = 3`): robust to single-character edits, which
    /// change only `n` of the grams.
    CharGrams(usize),
    /// Whitespace-separated tokens: coarser — one edit replaces a
    /// whole token — but cheaper and natural for long documents.
    Tokens,
}

impl Default for ShingleScheme {
    fn default() -> Self {
        ShingleScheme::CharGrams(3)
    }
}

impl std::fmt::Display for ShingleScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShingleScheme::CharGrams(n) => write!(f, "char{n}"),
            ShingleScheme::Tokens => write!(f, "tokens"),
        }
    }
}

/// The signature slot of an empty shingle set: no shingle ever hashes
/// to it (the minimum over a non-empty set is a mixed hash, which is
/// `u64::MAX` with probability 2⁻⁶⁴ per slot), so empty-text
/// signatures compare equal only to other empty-text signatures.
pub const EMPTY_SLOT: u64 = u64::MAX;

/// Cuts `text` into its shingle *set*: sorted, deduplicated FNV-1a
/// hashes of the scheme's units over the normalized text (lower-cased,
/// whitespace collapsed to single spaces, trimmed).
///
/// Empty or all-whitespace text yields an empty set. Text shorter than
/// a `CharGrams(n)` window yields one shingle covering the whole text.
///
/// # Panics
/// If the scheme is `CharGrams(0)`.
pub fn shingle_hashes(text: &str, scheme: ShingleScheme) -> Vec<u64> {
    let mut hashes = Vec::new();
    for_each_shingle(text, scheme, |hash| hashes.push(hash));
    into_hash_set(hashes)
}

/// Longest ASCII text normalised on the stack.
const STACK_TEXT: usize = 128;

/// Calls `emit` with the hash of every shingle of `text`, in text
/// order and with repeats — the multiset [`shingle_hashes`] reduces to
/// set form.
fn for_each_shingle(text: &str, scheme: ShingleScheme, mut emit: impl FnMut(u64)) {
    if let ShingleScheme::CharGrams(n) = scheme {
        assert!(n >= 1, "character grams need a positive width");
    }
    if !text.is_ascii() {
        return for_each_unicode_shingle(text, scheme, emit);
    }
    let mut stack = [0u8; STACK_TEXT];
    let mut heap = Vec::new();
    let buffer = if text.len() <= STACK_TEXT {
        &mut stack[..]
    } else {
        heap.resize(text.len(), 0);
        &mut heap[..]
    };
    let normalized = normalize_ascii(text.as_bytes(), buffer);
    if normalized.is_empty() {
        return;
    }
    match scheme {
        // Text shorter than the width is its own single gram.
        ShingleScheme::CharGrams(n) => normalized
            .windows(n.min(normalized.len()))
            .for_each(|gram| emit(fnv1a_bytes(gram.iter().copied()))),
        ShingleScheme::Tokens => normalized
            .split(|&byte| byte == b' ')
            .for_each(|token| emit(fnv1a_bytes(token.iter().copied()))),
    }
}

/// Writes `text` lower-cased, with every whitespace run collapsed to
/// one space and none leading or trailing, into `out` (at least as
/// long as `text`) and returns the written prefix.
///
/// On ASCII `char::is_whitespace` is `\t`..=`\r` and space
/// (`u8::is_ascii_whitespace` leaves `\x0b` out) and
/// `char::to_lowercase` is `to_ascii_lowercase`.
fn normalize_ascii<'a>(text: &[u8], out: &'a mut [u8]) -> &'a [u8] {
    let mut len = 0;
    let mut pending_space = false;
    for &byte in text {
        if matches!(byte, b'\t'..=b'\r' | b' ') {
            pending_space = len > 0;
            continue;
        }
        if pending_space {
            out[len] = b' ';
            len += 1;
            pending_space = false;
        }
        out[len] = byte.to_ascii_lowercase();
        len += 1;
    }
    &out[..len]
}

/// [`for_each_shingle`] for text with a non-ASCII scalar: the same
/// normal form in a `String`, grams cut at its `char` boundaries.
fn for_each_unicode_shingle(text: &str, scheme: ShingleScheme, mut emit: impl FnMut(u64)) {
    match scheme {
        // Whitespace is neither cased nor case-ignorable, so the
        // final-sigma rule of `str::to_lowercase` sees every token of
        // the whole text as it would see the token alone.
        ShingleScheme::Tokens => text
            .to_lowercase()
            .split_whitespace()
            .for_each(|token| emit(fnv1a_bytes(token.bytes()))),
        ShingleScheme::CharGrams(n) => {
            let mut normalized = String::with_capacity(text.len());
            for word in text.split_whitespace() {
                if !normalized.is_empty() {
                    normalized.push(' ');
                }
                normalized.extend(word.chars().flat_map(char::to_lowercase));
            }
            // Text shorter than the width has no `n`-th boundary: its
            // end is the only gram end, and the whole text the only
            // gram.
            let starts = normalized.char_indices().map(|(at, _)| at);
            let ends = starts.clone().skip(n).chain([normalized.len()]);
            for (start, end) in starts.zip(ends) {
                emit(fnv1a_bytes(normalized[start..end].bytes()));
            }
        }
    }
}

/// SplitMix64 step: advances `state` and returns the next stream
/// value. The standard mixer — full 64-bit avalanche, deterministic.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// SplitMix64 finalizer: bijective 64-bit avalanche.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A family of `num_hashes` independent hash functions producing
/// MinHash signatures: slot `i` of a signature is the minimum of
/// `h_i(x)` over the shingle set, where `h_i(x) = mix64(x ⊕ salt_i)`
/// and the salts are drawn from a SplitMix64 stream seeded by the
/// caller. Equal seeds give equal families — signatures are stable
/// across runs, machines, and parallelism.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seed: u64,
    salts: Vec<u64>,
}

impl MinHasher {
    /// A family of `num_hashes` functions derived from `seed`.
    ///
    /// # Panics
    /// If `num_hashes` is zero.
    pub fn new(num_hashes: usize, seed: u64) -> Self {
        assert!(num_hashes > 0, "a signature needs at least one hash");
        let mut state = seed;
        let salts = (0..num_hashes).map(|_| splitmix64(&mut state)).collect();
        Self { seed, salts }
    }

    /// Signature length (the number of hash functions).
    pub fn num_hashes(&self) -> usize {
        self.salts.len()
    }

    /// The seed this family was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The MinHash signature of a shingle set: slot `i` holds
    /// `min h_i(x)`. The empty set signs as all-[`EMPTY_SLOT`].
    ///
    /// Order- and multiplicity-insensitive: any permutation or
    /// duplication of `shingles` produces the identical signature.
    pub fn signature(&self, shingles: &[u64]) -> Vec<u64> {
        let mut signature = vec![EMPTY_SLOT; self.salts.len()];
        for &shingle in shingles {
            self.absorb(&mut signature, shingle);
        }
        signature
    }

    /// The signature of `text`'s shingle set —
    /// `signature(&shingle_hashes(text, scheme))` in one pass, without
    /// materialising the set — or `None` when the set is empty.
    ///
    /// # Panics
    /// If the scheme is `CharGrams(0)`.
    pub fn text_signature(&self, text: &str, scheme: ShingleScheme) -> Option<Vec<u64>> {
        let mut signature = vec![EMPTY_SLOT; self.salts.len()];
        let mut shingled = false;
        for_each_shingle(text, scheme, |shingle| {
            shingled = true;
            self.absorb(&mut signature, shingle);
        });
        shingled.then_some(signature)
    }

    /// Lowers every slot of `signature` to its hash of `shingle`.
    #[inline]
    fn absorb(&self, signature: &mut [u64], shingle: u64) {
        for (slot, &salt) in signature.iter_mut().zip(&self.salts) {
            // Opaque to the vectoriser: see the module header.
            *slot = (*slot).min(mix64(black_box(shingle) ^ salt));
        }
    }
}

/// The Jaccard estimate two signatures encode: the fraction of slots
/// that agree. Unbiased with expectation `J(A, B)`; the standard error
/// is `√(J(1−J)/num_hashes)`.
///
/// # Panics
/// If the signatures have different lengths (different families never
/// compare meaningfully).
pub fn estimate_jaccard(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signatures must share a hash family");
    assert!(!a.is_empty(), "empty signatures carry no estimate");
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

/// The banded digest of one band: FNV-1a over the little-endian bytes
/// of signature slots `[band · rows, (band + 1) · rows)`. Two entities
/// share a band-`band` bucket exactly when these digests are equal.
///
/// # Panics
/// If the band's row range exceeds the signature.
pub fn band_hash(signature: &[u64], band: usize, rows: usize) -> u64 {
    assert!(rows >= 1, "a band needs at least one row");
    let start = band * rows;
    assert!(
        start + rows <= signature.len(),
        "band {band} x {rows} rows exceeds a {}-slot signature",
        signature.len()
    );
    fnv1a_bytes(
        signature[start..start + rows]
            .iter()
            .flat_map(|v| v.to_le_bytes()),
    )
}

/// The banding S-curve: the probability that two sets of Jaccard
/// similarity `s` collide in at least one of `bands` bands of `rows`
/// rows — `1 − (1 − s^rows)^bands`. Monotone in `s`; the curve's
/// threshold (steepest point) sits near `(1/bands)^(1/rows)`.
pub fn banding_probability(s: f64, bands: usize, rows: usize) -> f64 {
    assert!(bands >= 1 && rows >= 1, "need at least one band and row");
    let s = s.clamp(0.0, 1.0);
    1.0 - (1.0 - s.powi(rows as i32)).powi(bands as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::fnv1a_chars;
    use proptest::prelude::*;

    /// The definition of the shingle set, as first written: normalise
    /// into a `Vec<char>`, hash its windows (or its lower-cased
    /// tokens), sort and deduplicate.
    fn textbook_shingle_hashes(text: &str, scheme: ShingleScheme) -> Vec<u64> {
        match scheme {
            ShingleScheme::CharGrams(n) => {
                let mut chars: Vec<char> = Vec::with_capacity(text.len());
                let mut pending_space = false;
                for c in text.trim().chars() {
                    if c.is_whitespace() {
                        pending_space = !chars.is_empty();
                        continue;
                    }
                    if pending_space {
                        chars.push(' ');
                        pending_space = false;
                    }
                    chars.extend(c.to_lowercase());
                }
                if chars.is_empty() {
                    return Vec::new();
                }
                if chars.len() < n {
                    return vec![fnv1a_chars(&chars)];
                }
                into_hash_set(chars.windows(n).map(fnv1a_chars).collect())
            }
            ShingleScheme::Tokens => into_hash_set(
                text.split_whitespace()
                    .map(|t| fnv1a_bytes(t.to_lowercase().into_bytes()))
                    .collect(),
            ),
        }
    }

    /// The definition of the signature: per salt, the minimum mixed
    /// hash over the shingles.
    fn textbook_signature(hasher: &MinHasher, shingles: &[u64]) -> Vec<u64> {
        if shingles.is_empty() {
            return vec![EMPTY_SLOT; hasher.salts.len()];
        }
        hasher
            .salts
            .iter()
            .map(|&salt| {
                shingles
                    .iter()
                    .map(|&x| mix64(x ^ salt))
                    .min()
                    .expect("non-empty shingle set")
            })
            .collect()
    }

    /// Text pieces that reach every branch of the normaliser: ASCII
    /// and not, mixed case (with the final-sigma and expanding
    /// lower-casings), every ASCII whitespace including `\x0b`/`\x0c`
    /// (which `u8::is_ascii_whitespace` disagrees on), non-ASCII
    /// whitespace, and a run long enough to leave the stack buffer.
    fn text_pieces() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                "[a-zA-Z0-9]{0,6}",
                "[ -~]{0,4}",
                "[a-z]{40,70}",
                "\\PC{0,3}",
                " {1,3}",
                Just("\t".to_string()),
                Just("\n\r".to_string()),
                Just("\x0b".to_string()),
                Just("\x0c".to_string()),
                Just("\x1c\x1f".to_string()),
                Just("\u{a0}".to_string()),
                Just("\u{85}\u{2003}".to_string()),
                Just("ΟΔΟΣ".to_string()),
                Just("Σ".to_string()),
                Just("İ".to_string()),
                Just("ǅ".to_string()),
                Just("e\u{301}".to_string()),
            ],
            0..8,
        )
        .prop_map(|pieces| pieces.concat())
    }

    fn schemes() -> impl Strategy<Value = ShingleScheme> {
        prop_oneof![
            (1usize..6).prop_map(ShingleScheme::CharGrams),
            Just(ShingleScheme::CharGrams(200)),
            Just(ShingleScheme::Tokens),
        ]
    }

    proptest! {
        #[test]
        fn shingling_and_text_signatures_equal_the_textbook_forms(
            text in text_pieces(),
            scheme in schemes(),
            slots in prop_oneof![Just(1usize), Just(7usize), Just(32usize), Just(33usize)],
            seed in 0u64..1_000_000,
        ) {
            let set = textbook_shingle_hashes(&text, scheme);
            prop_assert_eq!(&shingle_hashes(&text, scheme), &set, "{:?} {}", text, scheme);
            let hasher = MinHasher::new(slots, seed);
            let expected = (!set.is_empty()).then(|| textbook_signature(&hasher, &set));
            prop_assert_eq!(
                hasher.text_signature(&text, scheme),
                expected,
                "{:?} {}",
                text,
                scheme
            );
        }

        #[test]
        fn signatures_of_multisets_equal_the_textbook_form(
            shingles in proptest::collection::vec(
                prop_oneof![0u64..50, 0u64..u64::MAX],
                0..60,
            ),
            dup in 0usize..8,
            slots in prop_oneof![Just(1usize), Just(7usize), Just(32usize), Just(33usize)],
            seed in 0u64..1_000_000,
        ) {
            let mut multiset = shingles.clone();
            multiset.extend(shingles.iter().take(dup));
            let hasher = MinHasher::new(slots, seed);
            prop_assert_eq!(
                hasher.signature(&multiset),
                textbook_signature(&hasher, &shingles)
            );
        }
    }

    #[test]
    fn normaliser_edge_inputs_equal_the_textbook_form() {
        let long = "Canon  EOS ".repeat(30);
        for text in [
            "",
            " ",
            " \t\x0b\x0c\r\n ",
            "ab",
            " ab ",
            "a\x0bb",
            "a\x1cb",
            "A  B\u{a0}C",
            "\u{a0}",
            "\u{a0}ab\u{a0}",
            "ΟΔΟΣ ΟΔΟΣ. Σ ΑΣ",
            "İstanbul",
            "日本",
            "Canon  EOS\t5D Mark III",
            long.as_str(),
            &"x".repeat(STACK_TEXT),
            &"x".repeat(STACK_TEXT + 1),
            &" x".repeat(STACK_TEXT),
        ] {
            for scheme in [
                ShingleScheme::CharGrams(1),
                ShingleScheme::CharGrams(3),
                ShingleScheme::CharGrams(5),
                ShingleScheme::Tokens,
            ] {
                assert_eq!(
                    shingle_hashes(text, scheme),
                    textbook_shingle_hashes(text, scheme),
                    "{text:?} {scheme}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn zero_width_grams_are_rejected() {
        let _ = shingle_hashes("abc", ShingleScheme::CharGrams(0));
    }

    #[test]
    fn shingles_normalize_case_and_whitespace() {
        let a = shingle_hashes("Canon  EOS\t5D", ShingleScheme::CharGrams(3));
        let b = shingle_hashes("canon eos 5d", ShingleScheme::CharGrams(3));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let t1 = shingle_hashes("Canon EOS", ShingleScheme::Tokens);
        let t2 = shingle_hashes("eos  canon", ShingleScheme::Tokens);
        assert_eq!(t1, t2, "token sets ignore order");
    }

    #[test]
    fn empty_and_short_text_edge_cases() {
        assert!(shingle_hashes("", ShingleScheme::CharGrams(3)).is_empty());
        assert!(shingle_hashes("  \t ", ShingleScheme::CharGrams(3)).is_empty());
        assert!(shingle_hashes("", ShingleScheme::Tokens).is_empty());
        // Shorter than the window: one whole-text shingle.
        assert_eq!(shingle_hashes("ab", ShingleScheme::CharGrams(3)).len(), 1);
    }

    #[test]
    fn signatures_are_deterministic_and_order_insensitive() {
        let hasher = MinHasher::new(16, 42);
        let shingles = shingle_hashes("canon eos 5d mark iii", ShingleScheme::CharGrams(3));
        let mut reversed = shingles.clone();
        reversed.reverse();
        assert_eq!(hasher.signature(&shingles), hasher.signature(&reversed));
        assert_eq!(
            MinHasher::new(16, 42).signature(&shingles),
            hasher.signature(&shingles),
            "equal seeds give equal families"
        );
        assert_ne!(
            MinHasher::new(16, 43).signature(&shingles),
            hasher.signature(&shingles),
            "different seeds give different families"
        );
    }

    #[test]
    fn empty_set_signs_as_sentinel() {
        let hasher = MinHasher::new(4, 7);
        assert_eq!(hasher.signature(&[]), vec![EMPTY_SLOT; 4]);
    }

    #[test]
    fn identical_sets_estimate_one_disjoint_zero() {
        let hasher = MinHasher::new(64, 1);
        let a = shingle_hashes("alpha beta gamma", ShingleScheme::Tokens);
        let b = shingle_hashes("delta epsilon zeta", ShingleScheme::Tokens);
        assert_eq!(
            estimate_jaccard(&hasher.signature(&a), &hasher.signature(&a)),
            1.0
        );
        assert_eq!(
            estimate_jaccard(&hasher.signature(&a), &hasher.signature(&b)),
            0.0
        );
    }

    #[test]
    fn band_hash_covers_exact_row_ranges() {
        let sig: Vec<u64> = (0..8).collect();
        // Bands of 2 rows: digests of disjoint slot pairs.
        let digests: Vec<u64> = (0..4).map(|b| band_hash(&sig, b, 2)).collect();
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "distinct rows give distinct digests");
        // Equal rows, equal digest.
        let other: Vec<u64> = vec![0, 1, 99, 99, 4, 5, 99, 99];
        assert_eq!(band_hash(&sig, 0, 2), band_hash(&other, 0, 2));
        assert_eq!(band_hash(&sig, 2, 2), band_hash(&other, 2, 2));
        assert_ne!(band_hash(&sig, 1, 2), band_hash(&other, 1, 2));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn band_hash_rejects_out_of_range_bands() {
        let sig: Vec<u64> = (0..8).collect();
        let _ = band_hash(&sig, 4, 2);
    }

    #[test]
    fn banding_probability_is_monotone_s_curve() {
        assert_eq!(banding_probability(0.0, 16, 2), 0.0);
        assert_eq!(banding_probability(1.0, 16, 2), 1.0);
        let lo = banding_probability(0.3, 16, 2);
        let hi = banding_probability(0.8, 16, 2);
        assert!(lo < hi);
        // More bands at fixed rows catch more.
        assert!(banding_probability(0.5, 32, 2) > banding_probability(0.5, 8, 2));
        // More rows at fixed bands demand more agreement.
        assert!(banding_probability(0.5, 8, 8) < banding_probability(0.5, 8, 2));
    }
}
