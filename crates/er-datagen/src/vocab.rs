//! Embedded vocabulary for plausible-looking synthetic records.
//!
//! Block identity is controlled by deterministic 3-letter prefixes
//! ([`block_prefix`]); vocabulary words only fill out the rest of the
//! titles so that similarity computation operates on realistic string
//! lengths and alphabets.

/// Product category nouns.
pub const PRODUCT_NOUNS: &[&str] = &[
    "camera",
    "lens",
    "printer",
    "laptop",
    "monitor",
    "keyboard",
    "router",
    "speaker",
    "headphones",
    "tablet",
    "charger",
    "battery",
    "tripod",
    "flash",
    "projector",
    "scanner",
    "microphone",
    "webcam",
    "dock",
    "adapter",
    "enclosure",
    "drive",
    "memory",
    "case",
    "backpack",
    "mouse",
    "display",
    "receiver",
    "amplifier",
    "turntable",
    "console",
    "drone",
];

/// Product qualifier words.
pub const PRODUCT_QUALIFIERS: &[&str] = &[
    "pro", "max", "ultra", "mini", "plus", "lite", "air", "neo", "prime", "elite", "sport",
    "studio", "compact", "wireless", "digital", "smart", "portable", "classic", "advanced",
    "premium",
];

/// Academic title words for publication records.
pub const ACADEMIC_WORDS: &[&str] = &[
    "analysis",
    "approach",
    "algorithm",
    "adaptive",
    "framework",
    "distributed",
    "parallel",
    "efficient",
    "scalable",
    "query",
    "processing",
    "optimization",
    "learning",
    "model",
    "system",
    "network",
    "database",
    "index",
    "storage",
    "memory",
    "cache",
    "transaction",
    "stream",
    "graph",
    "cluster",
    "partition",
    "schema",
    "integration",
    "resolution",
    "entity",
    "matching",
    "similarity",
    "join",
    "aggregation",
    "sampling",
    "estimation",
    "evaluation",
    "benchmark",
    "workload",
    "skew",
    "balancing",
    "mapreduce",
    "cloud",
    "replication",
    "consistency",
    "recovery",
    "concurrency",
    "locking",
    "logging",
    "compression",
];

/// Publication venue names.
pub const VENUES: &[&str] = &[
    "ICDE", "SIGMOD", "VLDB", "EDBT", "CIKM", "KDD", "ICDM", "WWW", "SOCC", "OSDI", "NSDI",
    "EuroSys", "ATC", "CIDR", "DASFAA",
];

/// Author surnames.
pub const SURNAMES: &[&str] = &[
    "Smith", "Mueller", "Chen", "Kumar", "Garcia", "Kim", "Olsen", "Rossi", "Novak", "Silva",
    "Tanaka", "Ivanov", "Kowalski", "Andersen", "Dubois", "Haas", "Weber", "Schmidt", "Lang",
    "Becker", "Vogel", "Koch", "Wolf", "Krause", "Peters",
];

const ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "q", "r", "s", "t", "v", "w", "x",
    "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "y"];

/// Deterministic 3-letter block prefix for block index `k`, pairwise
/// distinct — so blocks stay apart under a three-character prefix key
/// such as `PrefixBlocking::title3()` — for every `k < 12 800`.
///
/// The first 20 · 6 · 20 = 2 400 are consonant-vowel-consonant ("bab",
/// "bac", …); the next 20 · 20 · 26 = 10 400 are consonant-consonant-
/// letter ("bba", "bbb", …), which no CVC prefix can equal. From
/// `k = 12 800` on the prefix is `zz` plus a number: still distinct as
/// a whole string, but its first three characters repeat (`zz1`,
/// `zz10`, …), so a three-character key folds those blocks together.
pub fn block_prefix(k: usize) -> String {
    let cvc = ONSETS.len() * VOWELS.len() * ONSETS.len();
    let ccl = ONSETS.len() * ONSETS.len() * 26;
    if k < cvc {
        let onset = ONSETS[k / (VOWELS.len() * ONSETS.len())];
        let vowel = VOWELS[(k / ONSETS.len()) % VOWELS.len()];
        let coda = ONSETS[k % ONSETS.len()];
        format!("{onset}{vowel}{coda}")
    } else if k < cvc + ccl {
        let k = k - cvc;
        let first = ONSETS[k / (ONSETS.len() * 26)];
        let second = ONSETS[(k / 26) % ONSETS.len()];
        let third = char::from(b'a' + (k % 26) as u8);
        format!("{first}{second}{third}")
    } else {
        format!("zz{}", k - cvc - ccl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prefixes_are_distinct() {
        // Past the three-letter space too, where only the whole string
        // still tells blocks apart.
        let n = 13_000;
        let set: HashSet<String> = (0..n).map(block_prefix).collect();
        assert_eq!(set.len(), n);
    }

    #[test]
    fn first_three_characters_are_distinct_below_10_000() {
        // What `PrefixBlocking::title3()` keys on. Whole-string
        // distinctness is not enough: `zz1` and `zz10` differ, their
        // three-character keys do not.
        let n = 10_000;
        let keys: HashSet<String> = (0..n)
            .map(|k| block_prefix(k).chars().take(3).collect())
            .collect();
        assert_eq!(keys.len(), n);
        assert!((0..n).all(|k| block_prefix(k).chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn cvc_prefixes_are_unchanged() {
        // Every committed corpus below 2 400 blocks depends on these.
        assert_eq!(block_prefix(0), "bab");
        assert_eq!(block_prefix(1), "bac");
        assert_eq!(block_prefix(20), "beb");
        assert_eq!(block_prefix(2399), "zyz");
        assert_eq!(block_prefix(2400), "bba");
        assert_eq!(block_prefix(12_799), "zzz");
        assert_eq!(block_prefix(12_800), "zz0");
    }

    #[test]
    fn cvc_prefixes_are_three_letters() {
        for k in 0..2400 {
            let p = block_prefix(k);
            assert_eq!(p.chars().count(), 3, "prefix {p} for k={k}");
            assert!(p.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn prefix_is_deterministic() {
        assert_eq!(block_prefix(17), block_prefix(17));
        assert_ne!(block_prefix(17), block_prefix(18));
    }

    #[test]
    fn vocab_lists_are_nonempty_and_lowercase_where_expected() {
        assert!(PRODUCT_NOUNS.len() >= 30);
        assert!(ACADEMIC_WORDS.len() >= 40);
        assert!(PRODUCT_NOUNS
            .iter()
            .all(|w| w.chars().all(|c| c.is_ascii_lowercase())));
    }
}
