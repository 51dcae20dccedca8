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
//! A hash costs two `imul`s, so the kernel's cost is the number of
//! hashes it makes. Classic MinHash makes `bands × rows` per shingle
//! (32 under 8 × 4); row-wise one-permutation hashing makes `rows`
//! (4), each of which fills one of the row's `bands` bins, and
//! densification fills the bins no shingle reached (0.7 of the 32
//! slots per signature on the titles below). Rows take separate
//! passes: a single permutation cut into `bands · rows` bins lets the
//! rows of a band borrow the same bins, so its band collisions drift
//! off the S-curve on small sets (`minhash_props`' band-collision test
//! fails it: under 4 × 8, pairs of 8 shingles with 6 shared collide at
//! 0.078 against the curve's 0.066, 7σ), and with ≈ 13 of 32 bins to
//! densify it is no faster (365 ns). Per 8 × 4 signature of ≈ 29
//! trigrams (the ledger's `lsh_8x4` titles) on the 2-core 2.1 GHz Xeon
//! reference container, one thread:
//!
//! | step                                                       | ns  |
//! |------------------------------------------------------------|-----|
//! | classic MinHash, text → signature (32 hashes per shingle)  | 905 |
//! | 4 hashes per shingle, binned, no densification             | 155 |
//! | … densified, from a shingle set ([`MinHasher::signature`]) | 180 |
//! | … from text ([`MinHasher::text_signature`])                | 290 |
//! | 8 band digests, FNV-1a over each band's bytes              | 137 |
//! | 8 band digests, a `mix64` fold over each band's words      | 38  |
//!
//! 155 ns is ≈ 2.8 cycles per hash, about the throughput of a hash's
//! dozen instructions; a shift in place of the bin's multiply-high
//! (equal when `bands` is a power of two) saved 3 %. The row loop
//! scatters into data-dependent slots, so LLVM leaves it scalar: the
//! `black_box` the classic slot loop needed against SSE2
//! auto-vectorisation is gone, and put back it costs 2 %. `min` must
//! stay branch-free: with an `if h < slot` store, which mispredicts,
//! the binned loop took 700 ns. Re-measure with the ledger's
//! `core.minhash.signature_ns_per_entity` (text → signature) and
//! `core.blocking.ns_per_entity` (text → band keys) on a traced
//! `lsh_8x4` run; the textbook forms the kernel is pinned to
//! bit-for-bit live in this module's tests.

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
/// While a signature is built it marks the bins no shingle reached,
/// which densification then fills.
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
/// Its period is 2⁶⁴ and it returns every 64-bit value once per period.
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

/// The bin of `bins` that the top of `hash` picks: `⌊hash · bins / 2⁶⁴⌋`.
#[inline]
fn bin_of(hash: u64, bins: usize) -> usize {
    ((u128::from(hash) * bins as u128) >> 64) as usize
}

/// A seeded MinHash family producing `bands × rows` signatures by
/// row-wise one-permutation hashing (Li, Owen and Zhang, "One
/// Permutation Hashing", NIPS 2012) with optimal densification
/// (Shrivastava, "Optimal Densification for Fast and Accurate Minwise
/// Hashing", ICML 2017).
///
/// Row `r` hashes each shingle once, `h = mix64(x ⊕ salt_r)`. The top
/// of `h` picks a bin `b = ⌊h · bands / 2⁶⁴⌋`, and slot `b · rows + r`
/// keeps the minimum: row `r`'s pass is one permutation cut into
/// `bands` bins. A slot that no shingle reached is *empty*; it takes
/// the value of the first non-empty bin of the same row along the
/// probe sequence of its `(row, bin)` — a SplitMix64 stream seeded by
/// the pair, which reaches every bin. Each slot then agrees between
/// two sets with probability their Jaccard similarity, and the rows of
/// a band come from independent passes, so a band agrees with
/// probability `J^rows`, as under classic MinHash.
///
/// The layout is band-major: band `b` is slots `[b · rows, (b + 1) ·
/// rows)`. With `bands = 1` every shingle lands in the one bin, and
/// the signature is classic MinHash with `rows` salts. The salts, then
/// the probe seed, are drawn from a SplitMix64 stream seeded by the
/// caller: equal seeds give equal families, so signatures are stable
/// across runs, machines and parallelism.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seed: u64,
    bands: usize,
    /// One salt per row.
    salts: Vec<u64>,
    /// Seeds the probe sequence of every `(row, bin)`.
    probe_seed: u64,
}

impl MinHasher {
    /// The `bands × rows` family derived from `seed`. A plain `K`-slot
    /// signature is `new(K, 1, seed)`, one hash per shingle;
    /// `new(1, K, seed)` is classic MinHash, `K` hashes per shingle.
    ///
    /// # Panics
    /// If `bands` or `rows` is zero.
    pub fn new(bands: usize, rows: usize, seed: u64) -> Self {
        assert!(
            bands >= 1 && rows >= 1,
            "a signature needs a band and a row"
        );
        let mut state = seed;
        let salts = (0..rows).map(|_| splitmix64(&mut state)).collect();
        let probe_seed = splitmix64(&mut state);
        Self {
            seed,
            bands,
            salts,
            probe_seed,
        }
    }

    /// The seed this family was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The MinHash signature of a shingle set, `bands · rows` slots.
    /// The empty set signs as all-[`EMPTY_SLOT`].
    ///
    /// Order- and multiplicity-insensitive: any permutation or
    /// duplication of `shingles` produces the identical signature.
    pub fn signature(&self, shingles: &[u64]) -> Vec<u64> {
        let mut signature = self.empty_signature();
        for &shingle in shingles {
            self.absorb(&mut signature, shingle);
        }
        if !shingles.is_empty() {
            self.densify(&mut signature);
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
        let mut signature = self.empty_signature();
        let mut shingled = false;
        for_each_shingle(text, scheme, |shingle| {
            shingled = true;
            self.absorb(&mut signature, shingle);
        });
        shingled.then(|| {
            self.densify(&mut signature);
            signature
        })
    }

    fn empty_signature(&self) -> Vec<u64> {
        vec![EMPTY_SLOT; self.bands * self.salts.len()]
    }

    /// Lowers, in each row, the slot of the bin `shingle`'s hash picks.
    #[inline]
    fn absorb(&self, signature: &mut [u64], shingle: u64) {
        let rows = self.salts.len();
        for (row, &salt) in self.salts.iter().enumerate() {
            let hash = mix64(shingle ^ salt);
            let slot = &mut signature[bin_of(hash, self.bands) * rows + row];
            *slot = (*slot).min(hash);
        }
    }

    /// Fills every empty slot from the first non-empty bin of its row
    /// along its probe sequence. A slot holds its own bin's minimum
    /// exactly when that value picks its bin (a borrowed value picks
    /// its source's), so filling in place never lends a borrowed value
    /// on. Every row has a non-empty bin once a shingle is absorbed.
    fn densify(&self, signature: &mut [u64]) {
        let (bands, rows) = (self.bands, self.salts.len());
        for at in 0..signature.len() {
            if signature[at] != EMPTY_SLOT {
                continue;
            }
            // The probe sequence of `(row, bin)`, `bin · rows + row = at`.
            let (bin, row) = (at / rows, at % rows);
            let mut state = mix64(self.probe_seed ^ (row * bands + bin) as u64);
            signature[at] = loop {
                let source = bin_of(splitmix64(&mut state), bands);
                let value = signature[source * rows + row];
                if value != EMPTY_SLOT && bin_of(value, bands) == source {
                    break value;
                }
            };
        }
    }
}

/// The Jaccard estimate two signatures encode: the fraction of slots
/// that agree. Each slot agrees with probability `J(A, B)`, so the
/// estimate is unbiased; its standard error is at most about
/// `√(J(1−J)/slots)`.
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

/// The banded digest of one band: signature slots `[band · rows,
/// (band + 1) · rows)` folded word by word, `d ← mix64(d ⊕ slot)`. Two
/// entities share a band-`band` bucket exactly when these digests are
/// equal.
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
    signature[start..start + rows]
        .iter()
        .fold(BAND_DIGEST_SEED, |digest, &slot| mix64(digest ^ slot))
}

/// The start of every band digest (the FNV-1a offset basis; any
/// non-zero constant would do, as `mix64(0) = 0`).
const BAND_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

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

    /// The definition of the `bands × rows` signature, written out
    /// plainly: draw the row salts, then the probe seed, from the
    /// seed's SplitMix64 stream; per row, hash every shingle, bin it by
    /// the top of its hash and keep each bin's minimum (a bin whose
    /// minimum is [`EMPTY_SLOT`] counts as empty); then give each empty
    /// bin the minimum of the first non-empty bin of the same row along
    /// its probe sequence, generated here one step at a time.
    fn textbook_signature(bands: usize, rows: usize, seed: u64, shingles: &[u64]) -> Vec<u64> {
        let mut signature = vec![EMPTY_SLOT; bands * rows];
        if shingles.is_empty() {
            return signature;
        }
        let mut stream = seed;
        let salts: Vec<u64> = (0..rows).map(|_| splitmix64(&mut stream)).collect();
        let probe_seed = splitmix64(&mut stream);
        let bin = |hash: u64| ((u128::from(hash) * bands as u128) >> 64) as usize;
        for (row, salt) in salts.into_iter().enumerate() {
            let mut minima = vec![EMPTY_SLOT; bands];
            for &x in shingles {
                let hash = mix64(x ^ salt);
                minima[bin(hash)] = minima[bin(hash)].min(hash);
            }
            for (b, &minimum) in minima.iter().enumerate() {
                let mut value = minimum;
                let mut probe = mix64(probe_seed ^ (row * bands + b) as u64);
                while value == EMPTY_SLOT {
                    probe = probe.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    value = minima[bin(mix64(probe))];
                }
                signature[b * rows + row] = value;
            }
        }
        signature
    }

    /// Classic MinHash with `slots` salts from the seed's SplitMix64
    /// stream: slot `i` is the minimum of `mix64(x ⊕ salt_i)`.
    fn classic_signature(slots: usize, seed: u64, shingles: &[u64]) -> Vec<u64> {
        let mut stream = seed;
        let salts = (0..slots).map(|_| splitmix64(&mut stream));
        let minimum = |salt: u64| shingles.iter().map(|&x| mix64(x ^ salt)).min();
        salts
            .map(|salt| minimum(salt).unwrap_or(EMPTY_SLOT))
            .collect()
    }

    fn bandings() -> impl Strategy<Value = (usize, usize)> {
        let bands = prop_oneof![Just(1usize), Just(7), Just(8), Just(16), Just(33)];
        let rows = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
        (bands, rows)
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
            banding in bandings(),
            seed in 0u64..1_000_000,
        ) {
            let (bands, rows) = banding;
            let set = textbook_shingle_hashes(&text, scheme);
            prop_assert_eq!(&shingle_hashes(&text, scheme), &set, "{:?} {}", text, scheme);
            let hasher = MinHasher::new(bands, rows, seed);
            let expected = (!set.is_empty()).then(|| textbook_signature(bands, rows, seed, &set));
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
            banding in bandings(),
            seed in 0u64..1_000_000,
        ) {
            let (bands, rows) = banding;
            let mut multiset = shingles.clone();
            multiset.extend(shingles.iter().take(dup));
            let hasher = MinHasher::new(bands, rows, seed);
            prop_assert_eq!(
                hasher.signature(&multiset),
                textbook_signature(bands, rows, seed, &shingles)
            );
        }

        #[test]
        fn one_band_is_classic_minhash(
            shingles in proptest::collection::vec(0u64..u64::MAX, 0..40),
            rows in 1usize..40,
            seed in 0u64..1_000_000,
        ) {
            prop_assert_eq!(
                MinHasher::new(1, rows, seed).signature(&shingles),
                classic_signature(rows, seed, &shingles)
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
        let hasher = MinHasher::new(8, 2, 42);
        let shingles = shingle_hashes("canon eos 5d mark iii", ShingleScheme::CharGrams(3));
        let mut reversed = shingles.clone();
        reversed.reverse();
        assert_eq!(hasher.signature(&shingles), hasher.signature(&reversed));
        assert_eq!(
            MinHasher::new(8, 2, 42).signature(&shingles),
            hasher.signature(&shingles),
            "equal seeds give equal families"
        );
        assert_ne!(
            MinHasher::new(8, 2, 43).signature(&shingles),
            hasher.signature(&shingles),
            "different seeds give different families"
        );
    }

    #[test]
    fn empty_set_signs_as_sentinel() {
        let hasher = MinHasher::new(2, 2, 7);
        assert_eq!(hasher.signature(&[]), vec![EMPTY_SLOT; 4]);
    }

    #[test]
    fn identical_sets_estimate_one_disjoint_zero() {
        let hasher = MinHasher::new(64, 1, 1);
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
