//! Jaro and Jaro-Winkler similarity — the classic record-linkage
//! measure for short name-like strings.

use std::cell::RefCell;

use super::{Prepared, PreparedView, Similarity};
use crate::arena::{ArenaValue, PreparedArena};

thread_local! {
    /// Match bookkeeping (`b_used`, matched chars of each side) reused
    /// across calls so the hot compare loop never allocates once the
    /// buffers have grown to the corpus's longest string.
    static JARO_SCRATCH: RefCell<(Vec<bool>, Vec<char>, Vec<char>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

fn jaro(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    JARO_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (b_used, matches_a, matches_b) = &mut *scratch;
        b_used.clear();
        b_used.resize(b.len(), false);
        matches_a.clear();
        matches_b.clear();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches_a.push(ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        matches_b.extend(
            b.iter()
                .zip(b_used.iter())
                .filter(|(_, &used)| used)
                .map(|(&c, _)| c),
        );
        let transpositions = matches_a
            .iter()
            .zip(matches_b.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        let t = transpositions as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    })
}

/// Jaro-Winkler similarity: Jaro boosted by a common-prefix bonus of up
/// to four characters.
#[derive(Debug, Clone, Copy)]
pub struct JaroWinkler {
    /// Prefix scaling factor, conventionally `0.1` (capped at `0.25`
    /// so the result stays within `[0, 1]`).
    pub prefix_scale: f64,
}

impl Default for JaroWinkler {
    fn default() -> Self {
        Self { prefix_scale: 0.1 }
    }
}

impl Similarity for JaroWinkler {
    fn prepare(&self, s: &str) -> Prepared {
        Prepared::Chars {
            chars: s.chars().collect(),
            histogram: None,
        }
    }

    fn prepare_into(&self, s: &str, arena: &mut PreparedArena) -> ArenaValue {
        arena.intern_text(s, false)
    }

    fn sim_view(&self, a: &PreparedView<'_>, b: &PreparedView<'_>) -> f64 {
        let (ac, bc) = (a.chars(), b.chars());
        let j = jaro(ac, bc);
        let prefix = ac
            .iter()
            .zip(bc.iter())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        let scale = self.prefix_scale.clamp(0.0, 0.25);
        (j + prefix as f64 * scale * (1.0 - j)).clamp(0.0, 1.0)
    }

    fn name(&self) -> &'static str {
        "jaro-winkler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jw(a: &str, b: &str) -> f64 {
        JaroWinkler::default().sim(a, b)
    }

    #[test]
    fn textbook_values() {
        // Classic Winkler examples (to 3 decimal places).
        assert!((jw("MARTHA", "MARHTA") - 0.961).abs() < 1e-3);
        assert!((jw("DIXON", "DICKSONX") - 0.813).abs() < 1e-3);
        assert!((jw("JELLYFISH", "SMELLYFISH") - 0.896).abs() < 1e-3);
    }

    #[test]
    fn identical_and_disjoint() {
        assert!((jw("abc", "abc") - 1.0).abs() < 1e-12);
        assert_eq!(jw("abc", "xyz"), 0.0);
        assert!((jw("", "") - 1.0).abs() < 1e-12);
        assert_eq!(jw("", "abc"), 0.0);
    }

    #[test]
    fn prefix_bonus_raises_score() {
        let plain = JaroWinkler { prefix_scale: 0.0 };
        assert!(jw("prefixed", "prefixes") > plain.sim("prefixed", "prefixes"));
    }

    #[test]
    fn oversized_scale_is_clamped() {
        let wild = JaroWinkler { prefix_scale: 9.0 };
        let s = wild.sim("abcd", "abcx");
        assert!((0.0..=1.0).contains(&s));
    }
}
