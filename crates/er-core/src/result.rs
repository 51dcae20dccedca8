//! Match results, gold standards, and quality metrics.

use std::collections::BTreeSet;

use crate::entity::EntityRef;
use crate::runs::merge_runs;

/// An unordered pair of distinct entities considered a match; stored
/// normalized (`lo < hi`) so `(a,b)` and `(b,a)` coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchPair {
    lo: EntityRef,
    hi: EntityRef,
}

impl MatchPair {
    /// Creates a normalized pair.
    ///
    /// # Panics
    /// If `a == b` — an entity never matches itself in ER output.
    pub fn new(a: EntityRef, b: EntityRef) -> Self {
        assert!(a != b, "self-pairs are not valid matches: {a}");
        if a < b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }

    /// The smaller endpoint.
    pub fn lo(&self) -> EntityRef {
        self.lo
    }

    /// The larger endpoint.
    pub fn hi(&self) -> EntityRef {
        self.hi
    }
}

impl std::fmt::Display for MatchPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

/// A deduplicated set of matches with their best similarity scores.
///
/// Load-balancing strategies may evaluate the same pair in different
/// reduce tasks only if the algorithm is broken; the one legitimate
/// duplication source is multi-pass blocking, where a pair can share
/// several blocks. Either way, inserting twice is safe: the set keeps
/// the maximum score seen.
///
/// A match stage's whole output is collected in bulk
/// ([`MatchResult::from_runs`]): a merge of the reduce tasks' sorted
/// runs and a bulk load, in place of a tree insert per pair.
/// [`MatchResult::insert`] serves callers that grow a result
/// incrementally.
#[derive(Debug, Clone, Default)]
pub struct MatchResult {
    pairs: std::collections::BTreeMap<MatchPair, f64>,
}

impl MatchResult {
    /// An empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a match; returns `true` if the pair was new.
    pub fn insert(&mut self, pair: MatchPair, score: f64) -> bool {
        match self.pairs.get_mut(&pair) {
            Some(existing) => {
                if score > *existing {
                    *existing = score;
                }
                false
            }
            None => {
                self.pairs.insert(pair, score);
                true
            }
        }
    }

    /// The result of a match stage, built in bulk from its reduce
    /// tasks' output runs: each run stably sorted by pair (a no-op
    /// pass for a run emitted in pair order), the runs k-way merged
    /// with a pair's best score kept, and the merged run bulk-loaded.
    ///
    /// Equal to inserting every record of the runs' concatenation in
    /// order: a pair's scores meet in that order, and a score replaces
    /// the kept one only when strictly greater.
    pub fn from_runs(mut runs: Vec<Vec<(MatchPair, f64)>>) -> Self {
        for run in &mut runs {
            run.sort_by_key(|&(pair, _)| pair);
        }
        let merged = merge_runs(runs, |kept, score| {
            if score > *kept {
                *kept = score;
            }
        });
        Self {
            pairs: merged.into_iter().collect(),
        }
    }

    /// Merges another result into this one.
    pub fn union(&mut self, other: &MatchResult) {
        for (&pair, &score) in &other.pairs {
            self.insert(pair, score);
        }
    }

    /// Does the result contain this pair?
    pub fn contains(&self, pair: &MatchPair) -> bool {
        self.pairs.contains_key(pair)
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates `(pair, score)` in pair order.
    pub fn iter(&self) -> impl Iterator<Item = (MatchPair, f64)> + '_ {
        self.pairs.iter().map(|(&p, &s)| (p, s))
    }

    /// The pair set without scores (for equality tests between
    /// strategies).
    pub fn pair_set(&self) -> BTreeSet<MatchPair> {
        self.pairs.keys().copied().collect()
    }
}

/// The set of truly matching pairs, for quality evaluation of
/// synthetic datasets with injected duplicates.
#[derive(Debug, Clone, Default)]
pub struct GoldStandard {
    pairs: BTreeSet<MatchPair>,
}

impl GoldStandard {
    /// Builds a gold standard from known duplicate pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = MatchPair>) -> Self {
        Self {
            pairs: pairs.into_iter().collect(),
        }
    }

    /// Number of true matches.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no gold pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Is the pair a true match?
    pub fn contains(&self, pair: &MatchPair) -> bool {
        self.pairs.contains(pair)
    }

    /// Iterates gold pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = MatchPair> + '_ {
        self.pairs.iter().copied()
    }
}

/// Precision / recall / F1 of a match result against a gold standard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Pairs reported and truly matching.
    pub true_positives: usize,
    /// Pairs reported but not in the gold standard.
    pub false_positives: usize,
    /// Gold pairs the result missed.
    pub false_negatives: usize,
}

impl QualityReport {
    /// Compares `result` with `gold`.
    pub fn evaluate(result: &MatchResult, gold: &GoldStandard) -> Self {
        let mut tp = 0;
        let mut fp = 0;
        for (pair, _) in result.iter() {
            if gold.contains(&pair) {
                tp += 1;
            } else {
                fp += 1;
            }
        }
        let fn_ = gold.len() - tp;
        Self {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
        }
    }

    /// `tp / (tp + fp)`; 1.0 for an empty result.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 for an empty gold standard.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityId, SourceId};

    fn eref(src: u8, id: u64) -> EntityRef {
        EntityRef {
            source: SourceId(src),
            id: EntityId(id),
        }
    }

    #[test]
    fn pairs_normalize_order() {
        let p1 = MatchPair::new(eref(0, 5), eref(0, 2));
        let p2 = MatchPair::new(eref(0, 2), eref(0, 5));
        assert_eq!(p1, p2);
        assert_eq!(p1.lo(), eref(0, 2));
        assert_eq!(p1.hi(), eref(0, 5));
    }

    #[test]
    #[should_panic(expected = "self-pairs")]
    fn self_pair_rejected() {
        let _ = MatchPair::new(eref(0, 1), eref(0, 1));
    }

    #[test]
    fn cross_source_pairs_are_valid() {
        let p = MatchPair::new(eref(1, 1), eref(0, 1));
        assert_eq!(p.lo().source, SourceId::R);
        assert_eq!(p.hi().source, SourceId::S);
    }

    #[test]
    fn insert_dedups_and_keeps_best_score() {
        let mut r = MatchResult::new();
        let p = MatchPair::new(eref(0, 1), eref(0, 2));
        assert!(r.insert(p, 0.8));
        assert!(!r.insert(p, 0.9));
        assert!(!r.insert(p, 0.5));
        assert_eq!(r.len(), 1);
        let (_, score) = r.iter().next().unwrap();
        assert!((score - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bulk_build_keeps_the_best_score_and_pair_order() {
        let p = MatchPair::new(eref(0, 1), eref(0, 2));
        let q = MatchPair::new(eref(0, 0), eref(0, 3));
        let r = MatchResult::from_runs(vec![
            vec![(p, 0.8), (q, 0.7)],
            vec![],
            vec![(p, 0.9), (p, 0.5)],
        ]);
        let got: Vec<(MatchPair, f64)> = r.iter().collect();
        assert_eq!(got, vec![(q, 0.7), (p, 0.9)]);
        assert!(MatchResult::from_runs(Vec::new()).is_empty());
    }

    #[test]
    fn union_merges() {
        let mut a = MatchResult::new();
        a.insert(MatchPair::new(eref(0, 1), eref(0, 2)), 0.9);
        let mut b = MatchResult::new();
        b.insert(MatchPair::new(eref(0, 1), eref(0, 2)), 0.95);
        b.insert(MatchPair::new(eref(0, 3), eref(0, 4)), 0.85);
        a.union(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn quality_metrics() {
        let gold = GoldStandard::from_pairs([
            MatchPair::new(eref(0, 1), eref(0, 2)),
            MatchPair::new(eref(0, 3), eref(0, 4)),
            MatchPair::new(eref(0, 5), eref(0, 6)),
        ]);
        let mut result = MatchResult::new();
        result.insert(MatchPair::new(eref(0, 1), eref(0, 2)), 0.9); // tp
        result.insert(MatchPair::new(eref(0, 3), eref(0, 4)), 0.9); // tp
        result.insert(MatchPair::new(eref(0, 7), eref(0, 8)), 0.9); // fp
        let q = QualityReport::evaluate(&result, &gold);
        assert_eq!(q.true_positives, 2);
        assert_eq!(q.false_positives, 1);
        assert_eq!(q.false_negatives, 1);
        assert!((q.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_quality_cases() {
        let empty_result = MatchResult::new();
        let empty_gold = GoldStandard::default();
        let q = QualityReport::evaluate(&empty_result, &empty_gold);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.f1(), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::entity::{EntityId, SourceId};
    use proptest::prelude::*;

    const SCORES: [f64; 7] = [0.8, 0.82, 0.84, 0.88, 0.0, -0.0, f64::NAN];

    fn pair(a: u64, b: u64) -> MatchPair {
        let eref = |id| EntityRef {
            source: SourceId(0),
            id: EntityId(id),
        };
        MatchPair::new(eref(a), eref(b + a + 1))
    }

    proptest! {
        /// The bulk build equals a fold of `insert` over the per-task
        /// runs a match stage collects, whatever the split: duplicates
        /// (within and across runs) keep the maximum score, runs may
        /// be empty. Compared bit for bit, with the scores on which
        /// the first-seen one wins (signed zeros, NaN) among them.
        #[test]
        fn bulk_build_equals_an_insert_fold_over_any_split(
            records in proptest::collection::vec((0u64..6, 0u64..4, 0usize..SCORES.len()), 0..60),
            cuts in proptest::collection::vec(0usize..60, 0..6),
        ) {
            let records: Vec<(MatchPair, f64)> = records
                .into_iter()
                .map(|(a, b, s)| (pair(a, b), SCORES[s]))
                .collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(records.len())).collect();
            cuts.push(0);
            cuts.push(records.len());
            cuts.sort_unstable();
            let runs: Vec<&[(MatchPair, f64)]> =
                cuts.windows(2).map(|w| &records[w[0]..w[1]]).collect();
            let mut folded = MatchResult::new();
            for &(p, score) in runs.iter().copied().flatten() {
                folded.insert(p, score);
            }
            let bulk = MatchResult::from_runs(runs.iter().map(|run| run.to_vec()).collect());
            let bits = |r: &MatchResult| -> Vec<(MatchPair, u64)> {
                r.iter().map(|(p, s)| (p, s.to_bits())).collect()
            };
            prop_assert_eq!(bits(&bulk), bits(&folded));
        }
    }
}
