//! Property suite for the MinHash/banding primitives backing the
//! er-lsh blocking family:
//!
//! * signatures are a pure function of (shingle *set*, seed) —
//!   deterministic across hasher instances, invariant under shingle
//!   permutation and duplication — so band digests (and hence LSH
//!   blocking keys) are stable across any map-task assignment or
//!   parallelism level;
//! * the Jaccard estimator is probabilistically sound: estimates stay
//!   in `[0, 1]` and, with 256 bins, land within a generous error band
//!   of the true set Jaccard (deterministic shim seeding keeps this
//!   reproducible);
//! * the banding S-curve is a proper probability, monotone in
//!   similarity, and consistent with its `(bands, rows)` structure;
//! * at every rung of the default LSH ladder, pairs of exact Jaccard
//!   similarity collide in a band as often as the S-curve and classic
//!   MinHash say they should.

use std::collections::BTreeSet;

use er_core::minhash::{band_hash, banding_probability, estimate_jaccard, MinHasher};
use proptest::prelude::*;

fn true_jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

proptest! {
    /// Same shingle multiset (in any order, with any duplication),
    /// same seed → the same signature and the same digest in every
    /// band. This is the determinism the MR signature job relies on:
    /// an entity's band keys cannot depend on which map task sees it.
    #[test]
    fn signatures_are_order_and_duplication_invariant(
        shingles in proptest::collection::vec(0u64..100_000, 1..60),
        seed in 0u64..1_000_000,
        dup in 0usize..8,
    ) {
        let hasher = MinHasher::new(8, 2, seed);
        let reference = hasher.signature(&shingles);

        // Reverse the order and append duplicated elements.
        let mut mutated: Vec<u64> = shingles.iter().rev().copied().collect();
        mutated.extend(shingles.iter().take(dup).copied());
        let fresh = MinHasher::new(8, 2, seed);
        let again = fresh.signature(&mutated);
        prop_assert_eq!(&reference, &again);

        for band in 0..8 {
            prop_assert_eq!(
                band_hash(&reference, band, 2),
                band_hash(&again, band, 2),
                "band {} digest must be stable",
                band
            );
        }
    }

    /// Different seeds give (almost always) different hash families;
    /// a colliding full signature across seeds would break the
    /// independence assumption behind the banding S-curve.
    #[test]
    fn seeds_select_distinct_hash_families(
        shingles in proptest::collection::vec(0u64..100_000, 4..40),
        seed in 0u64..1_000_000,
    ) {
        let a = MinHasher::new(8, 4, seed).signature(&shingles);
        let b = MinHasher::new(8, 4, seed ^ 0xDEAD_BEEF).signature(&shingles);
        prop_assert!(a != b, "32 slots agreeing across seeds is ~impossible");
    }

    /// The estimator is a proportion of agreeing slots: always within
    /// `[0, 1]`, exactly 1 for identical input sets.
    #[test]
    fn estimates_are_proportions(
        shingles in proptest::collection::vec(0u64..100_000, 1..60),
        seed in 0u64..1_000_000,
    ) {
        let hasher = MinHasher::new(24, 1, seed);
        let sig = hasher.signature(&shingles);
        prop_assert_eq!(estimate_jaccard(&sig, &sig), 1.0);
        let other = hasher.signature(&shingles[..1.max(shingles.len() / 2)]);
        let est = estimate_jaccard(&sig, &other);
        prop_assert!((0.0..=1.0).contains(&est));
    }

    /// With 256 bins the MinHash estimate concentrates around the true
    /// Jaccard (σ ≤ √(J(1−J)/256) ≤ 0.032); a 0.2 tolerance is > 6σ,
    /// and the shim's deterministic seeding makes the check
    /// reproducible run over run.
    #[test]
    fn estimate_tracks_true_jaccard(
        a in proptest::collection::vec(0u64..500, 5..80),
        b in proptest::collection::vec(0u64..500, 5..80),
        seed in 0u64..1_000_000,
    ) {
        let sa: BTreeSet<u64> = a.iter().copied().collect();
        let sb: BTreeSet<u64> = b.iter().copied().collect();
        let truth = true_jaccard(&sa, &sb);
        let hasher = MinHasher::new(256, 1, seed);
        let va: Vec<u64> = sa.iter().copied().collect();
        let vb: Vec<u64> = sb.iter().copied().collect();
        let est = estimate_jaccard(&hasher.signature(&va), &hasher.signature(&vb));
        prop_assert!(
            (est - truth).abs() <= 0.2,
            "estimate {} vs true {} drifted past the 6σ band",
            est,
            truth
        );
    }

    /// The S-curve is a probability, monotone in similarity, and
    /// degenerate cases collapse correctly: s = 1 always collides,
    /// s = 0 never does.
    #[test]
    fn banding_s_curve_is_a_monotone_probability(
        bands in 1usize..40,
        rows in 1usize..12,
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let p_lo = banding_probability(lo, bands, rows);
        let p_hi = banding_probability(hi, bands, rows);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!(p_lo <= p_hi + 1e-12, "must be monotone in s");
        prop_assert_eq!(banding_probability(1.0, bands, rows), 1.0);
        prop_assert_eq!(banding_probability(0.0, bands, rows), 0.0);
        // More bands at fixed rows can only raise the collision odds.
        prop_assert!(
            banding_probability(hi, bands + 1, rows) >= p_hi - 1e-12
        );
    }
}

/// The SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: the test's seeded source of shingles and salts.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// Classic MinHash, written out here so that it does not share the
/// code under test: `slots` salts, slot `i` the minimum of
/// `mix64(x ⊕ salt_i)` over the (non-empty) set.
fn classic_signature(slots: usize, seed: u64, shingles: &[u64]) -> Vec<u64> {
    let mut stream = seed;
    let salts = (0..slots).map(|_| splitmix64(&mut stream));
    let minimum = |salt: u64| shingles.iter().map(|&x| mix64(x ^ salt)).min();
    salts
        .map(|salt| minimum(salt).expect("a non-empty set"))
        .collect()
}

/// Whether two `bands × rows` signatures share a band bucket.
fn share_a_band(a: &[u64], b: &[u64], bands: usize, rows: usize) -> bool {
    (0..bands).any(|band| band_hash(a, band, rows) == band_hash(b, band, rows))
}

/// At every rung of the default LSH ladder, pairs of sets of 8 and 26
/// shingles with exactly `shared` in common (Jaccard `shared / (2·size
/// − shared)`) share a band bucket as often as the S-curve
/// `1 − (1 − J^rows)^bands` says, within 4σ of a binomial over the
/// trials — under this family and under classic MinHash with
/// `bands · rows` salts alike. The pairs sit on the S-curve's lower
/// tail (0.007 ≤ S ≤ 0.3), where the bulk of an LSH run's candidates
/// lie. A single permutation cut into `bands · rows` bins fails it:
/// the rows of a band borrow the same bins, and at 4 × 8 over 8
/// shingles with 6 shared its rate sits 7σ above the curve.
#[test]
fn band_collisions_follow_the_s_curve_at_every_ladder_rung() {
    const TRIALS: u32 = 20_000;
    let rungs = [
        (16, 2, [(8, 1), (8, 2), (26, 3), (26, 4)]),
        (8, 4, [(8, 3), (8, 4), (26, 8), (26, 13)]),
        (4, 8, [(8, 5), (8, 6), (26, 18), (26, 22)]),
    ];
    let mut stream = 2012;
    for (bands, rows, pairs) in rungs {
        for (size, shared) in pairs {
            let jaccard = shared as f64 / (2 * size - shared) as f64;
            let expected = banding_probability(jaccard, bands, rows);
            let (mut banded, mut classic) = (0u32, 0u32);
            for seed in 0..u64::from(TRIALS) {
                let mut a: Vec<u64> = (0..size).map(|_| splitmix64(&mut stream)).collect();
                let mut b = a[..shared].to_vec();
                b.extend((shared..size).map(|_| splitmix64(&mut stream)));
                a.reverse();
                let family = MinHasher::new(bands, rows, seed);
                let (sa, sb) = (family.signature(&a), family.signature(&b));
                banded += u32::from(share_a_band(&sa, &sb, bands, rows));
                let sa = classic_signature(bands * rows, seed, &a);
                let sb = classic_signature(bands * rows, seed, &b);
                classic += u32::from(share_a_band(&sa, &sb, bands, rows));
            }
            let sigma = (expected * (1.0 - expected) / f64::from(TRIALS)).sqrt();
            let rate = |hits: u32| f64::from(hits) / f64::from(TRIALS);
            let (banded, classic) = (rate(banded), rate(classic));
            let label = format!(
                "{bands}x{rows}, {size} shingles, {shared} shared: S-curve {expected:.4}, \
                 this family {banded:.4}, classic MinHash {classic:.4}, σ {sigma:.4}"
            );
            assert!(
                (classic - expected).abs() <= 4.0 * sigma,
                "classic off: {label}"
            );
            assert!((banded - expected).abs() <= 4.0 * sigma, "{label}");
        }
    }
}
