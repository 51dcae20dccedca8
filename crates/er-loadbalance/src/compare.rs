//! Shared pair-comparison context used by every strategy's reducer.
//!
//! Reducers buffer a block's entities and evaluate all O(b²) pairs.
//! The prepared path keeps that quadratic loop allocation-free: each
//! entity is preprocessed **once** via [`PairComparer::prepare_cached`]
//! (backed by a per-task [`MatcherCache`], so even entities revisited
//! across groups — PairRange range replicas, multi-pass blocking — are
//! prepared a single time), and pairs are scored through
//! [`PairComparer::compare_prepared`] on the cached
//! [`PreparedHandle`]s. The default cache runs in arena mode, so the
//! handles are `Copy`-sized ids into contiguous slabs and the compare
//! loop allocates nothing after warm-up. In count-only mode
//! preparation is skipped entirely; the similarity measure never runs.
//!
//! The loop counts into a [`PairTally`] — three local integers — and
//! the reducer flushes it into the task's counters once per reduce
//! group: with the thresholded kernel at some ten nanoseconds a pair,
//! a by-name counter update per pair would cost more than the compare.

use std::collections::BTreeSet;
use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::result::MatchPair;
use er_core::{Matcher, MatcherCache, PreparedHandle};
use mr_engine::reducer::ReduceContext;

use crate::{Keyed, COMPARISONS};

/// Counter: pairs skipped by a multi-pass dedup gate — either the
/// smallest-common-block rule of multi-pass *blocking*, or the
/// already-compared-pair gate of multi-pass *Sorted Neighborhood*
/// ([`PairComparer::with_skip_pairs`]). Never incremented under
/// single-pass configurations.
pub const MULTIPASS_SKIPPED: &str = "er.multipass.skipped";

/// Counter: pairs skipped because both entities belong to the same
/// source under a cross-source-only comparer
/// ([`PairComparer::with_cross_source_only`]); two-source Sorted
/// Neighborhood interleaves R and S in one total order and must only
/// evaluate R × S window pairs.
pub const SAME_SOURCE_SKIPPED: &str = "er.two_source.same_source_skipped";

/// What one reduce group's pair loop has counted so far: evaluated
/// pairs ([`COMPARISONS`]) and pairs a gate skipped
/// ([`MULTIPASS_SKIPPED`], [`SAME_SOURCE_SKIPPED`]). Filled by
/// [`PairComparer::compare_prepared`]; the reducer must
/// [`flush`](PairTally::flush) it before its `reduce` returns, or the
/// counts are lost.
#[derive(Debug, Default)]
pub struct PairTally {
    comparisons: u64,
    multipass_skipped: u64,
    same_source_skipped: u64,
}

impl PairTally {
    /// Adds the tallied counts to `ctx`'s counters and resets the
    /// tally. A count of zero is not written, so a counter still exists
    /// only where at least one pair was counted under it.
    pub fn flush<KO, VO>(&mut self, ctx: &mut ReduceContext<KO, VO>) {
        for (name, count) in [
            (COMPARISONS, &mut self.comparisons),
            (MULTIPASS_SKIPPED, &mut self.multipass_skipped),
            (SAME_SOURCE_SKIPPED, &mut self.same_source_skipped),
        ] {
            if *count > 0 {
                ctx.add_counter(name, std::mem::take(count));
            }
        }
    }
}

/// Evaluates entity pairs inside reduce functions: applies the
/// multi-pass dedup gate, counts comparisons, and (unless in
/// count-only mode) runs the matcher and emits matches.
#[derive(Clone)]
pub struct PairComparer {
    matcher: Arc<Matcher>,
    count_only: bool,
    /// Capacity bound for caches created by [`PairComparer::new_cache`]
    /// (`None` = unbounded, the paper-scale batch default).
    cache_capacity: Option<usize>,
    /// Pairs an earlier pass of a multi-pass workload already
    /// evaluated; skipped here (first pass wins — the total-order
    /// analogue of the smallest-common-block rule).
    skip_pairs: Option<Arc<BTreeSet<MatchPair>>>,
    /// Evaluate only pairs whose entities come from different sources
    /// (two-source R × S workloads over one interleaved order).
    cross_source_only: bool,
}

impl PairComparer {
    /// A comparer that evaluates similarity and emits matches.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            matcher,
            count_only: false,
            cache_capacity: None,
            skip_pairs: None,
            cross_source_only: false,
        }
    }

    /// A comparer that only counts comparisons — used by the timing
    /// experiments, where the workload distribution matters but the
    /// match output does not.
    pub fn count_only(matcher: Arc<Matcher>) -> Self {
        Self {
            matcher,
            count_only: true,
            cache_capacity: None,
            skip_pairs: None,
            cross_source_only: false,
        }
    }

    /// Skips (without counting as comparisons) every pair in `pairs` —
    /// the pair-level dedup gate of multi-pass Sorted Neighborhood:
    /// pairs an earlier pass already evaluated are counted under
    /// [`MULTIPASS_SKIPPED`] instead of being compared again, so each
    /// unioned window pair is evaluated exactly once globally.
    pub fn with_skip_pairs(mut self, pairs: Option<Arc<BTreeSet<MatchPair>>>) -> Self {
        self.skip_pairs = pairs;
        self
    }

    /// Restricts evaluation to cross-source pairs: same-source pairs
    /// are counted under [`SAME_SOURCE_SKIPPED`] and skipped. Used by
    /// two-source Sorted Neighborhood, whose total order interleaves
    /// both sources but whose output must contain only R × S pairs.
    pub fn with_cross_source_only(mut self, cross_source_only: bool) -> Self {
        self.cross_source_only = cross_source_only;
        self
    }

    /// Whether this comparer evaluates only cross-source pairs.
    pub fn is_cross_source_only(&self) -> bool {
        self.cross_source_only
    }

    /// Applies every gate in order — smallest-common-block (multi-pass
    /// blocking), cross-source-only, already-compared (multi-pass SN) —
    /// and counts the pair under the counter it falls to. True iff the
    /// pair is to be evaluated.
    fn admit(&self, a: &Keyed, b: &Keyed, current: &BlockKey, tally: &mut PairTally) -> bool {
        if !a.should_compare_in(b, current) {
            tally.multipass_skipped += 1;
            return false;
        }
        if self.cross_source_only && a.entity.source() == b.entity.source() {
            tally.same_source_skipped += 1;
            return false;
        }
        if let Some(skip) = &self.skip_pairs {
            if skip.contains(&MatchPair::new(
                a.entity.entity_ref(),
                b.entity.entity_ref(),
            )) {
                tally.multipass_skipped += 1;
                return false;
            }
        }
        tally.comparisons += 1;
        true
    }

    /// Bounds every cache this comparer hands out (LRU eviction, see
    /// [`MatcherCache::with_capacity`]); `None` restores the unbounded
    /// default. Eviction only ever costs recompute, never correctness.
    ///
    /// # Panics
    /// If `capacity` is `Some(n)` with `n < 2` — comparing a pair
    /// needs both sides resident (checked here eagerly rather than
    /// when a reduce task first builds its cache).
    pub fn with_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        assert!(
            capacity.is_none_or(|n| n >= 2),
            "a bounded cache needs room for a pair"
        );
        self.cache_capacity = capacity;
        self
    }

    /// The cache bound applied by [`PairComparer::new_cache`], if any.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache_capacity
    }

    /// Whether this comparer skips similarity evaluation.
    pub fn is_count_only(&self) -> bool {
        self.count_only
    }

    /// Compares `a` and `b` within `current` block, emitting a match
    /// record if the pair reaches the matcher's threshold.
    ///
    /// One-shot entry point: both entities are preprocessed from
    /// scratch. Reducers evaluating whole blocks should use
    /// [`PairComparer::prepare_cached`] +
    /// [`PairComparer::compare_prepared`] instead.
    pub fn compare(
        &self,
        a: &Keyed,
        b: &Keyed,
        current: &BlockKey,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let mut tally = PairTally::default();
        let admitted = self.admit(a, b, current, &mut tally);
        tally.flush(ctx);
        if !admitted || self.count_only {
            return;
        }
        if let Some(score) = self.matcher.matches(&a.entity, &b.entity) {
            ctx.emit(
                MatchPair::new(a.entity.entity_ref(), b.entity.entity_ref()),
                score,
            );
        }
    }

    /// A fresh per-reduce-task cache for
    /// [`PairComparer::prepare_cached`], honouring the configured
    /// capacity bound.
    pub fn new_cache(&self) -> MatcherCache {
        match self.cache_capacity {
            Some(capacity) => MatcherCache::with_capacity(Arc::clone(&self.matcher), capacity),
            None => MatcherCache::new(Arc::clone(&self.matcher)),
        }
    }

    /// Wraps `keyed` with its cached prepared form, computing it on
    /// first sight of the entity. Count-only comparers skip
    /// preparation — the matcher never runs, so the work would be
    /// wasted.
    pub fn prepare_cached<'a>(
        &self,
        cache: &mut MatcherCache,
        keyed: &'a Keyed,
    ) -> PreparedRef<'a> {
        PreparedRef {
            keyed,
            prepared: self.prepare_owned(cache, keyed),
        }
    }

    /// The owned half of [`PairComparer::prepare_cached`]: just the
    /// cached prepared handle (`None` exactly when count-only), for
    /// buffers that outlive a borrow scope — e.g. a sliding window
    /// carried across reduce groups. Reassemble a comparison handle
    /// with [`PreparedRef::from_parts`].
    pub fn prepare_owned(&self, cache: &mut MatcherCache, keyed: &Keyed) -> Option<PreparedHandle> {
        (!self.count_only).then(|| cache.handle(&keyed.entity))
    }

    /// [`PairComparer::compare`] over prepared handles: same gate,
    /// same emissions — but similarity runs on the cached
    /// representations (through `cache`, which must be the one that
    /// issued the handles), bit-exact with the string path, and the
    /// pair is counted into `tally` instead of `ctx`'s counters: the
    /// caller [`flush`](PairTally::flush)es once per reduce group.
    pub fn compare_prepared(
        &self,
        cache: &MatcherCache,
        a: &PreparedRef<'_>,
        b: &PreparedRef<'_>,
        current: &BlockKey,
        tally: &mut PairTally,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        if let Some((pair, score)) = self.match_prepared(cache, a, b, current, tally) {
            ctx.emit(pair, score);
        }
    }

    /// [`PairComparer::compare_prepared`] without the emit: gate, tally
    /// and matching are identical, but a found match is returned — for
    /// reducers whose output type is not `(MatchPair, f64)` (er-sn's
    /// window reducer interleaves matches with boundary records).
    pub fn match_prepared(
        &self,
        cache: &MatcherCache,
        a: &PreparedRef<'_>,
        b: &PreparedRef<'_>,
        current: &BlockKey,
        tally: &mut PairTally,
    ) -> Option<(MatchPair, f64)> {
        if !self.admit(a.keyed, b.keyed, current, tally) || self.count_only {
            return None;
        }
        let (pa, pb) = (
            a.prepared.as_ref().expect("prepared under !count_only"),
            b.prepared.as_ref().expect("prepared under !count_only"),
        );
        let score = cache.matches_handles(pa, pb)?;
        let pair = MatchPair::new(a.keyed.entity.entity_ref(), b.keyed.entity.entity_ref());
        Some((pair, score))
    }
}

/// A block entity paired with its cached prepared handle — what the
/// strategy reducers buffer instead of bare [`Keyed`] references.
/// `prepared` is `None` exactly when the comparer is count-only.
#[derive(Debug, Clone)]
pub struct PreparedRef<'a> {
    /// The annotated entity.
    pub keyed: &'a Keyed,
    prepared: Option<PreparedHandle>,
}

impl<'a> PreparedRef<'a> {
    /// Reassembles a comparison handle from parts produced by
    /// [`PairComparer::prepare_owned`]. `prepared` must be the handle
    /// that comparer's cache returned for this entity (`None` exactly
    /// for count-only comparers) — handing a non-count-only comparer a
    /// `None` panics inside the compare call.
    pub fn from_parts(keyed: &'a Keyed, prepared: Option<PreparedHandle>) -> Self {
        Self { keyed, prepared }
    }
}

impl std::fmt::Debug for PairComparer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairComparer")
            .field("count_only", &self.count_only)
            .field("cross_source_only", &self.cross_source_only)
            .field("skip_pairs", &self.skip_pairs.as_ref().map(|s| s.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::reducer::ReduceTaskInfo;

    fn ctx() -> ReduceContext<MatchPair, f64> {
        ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        })
    }

    /// One pair through the prepared path as a reducer drives it:
    /// compare into a tally, then flush.
    fn compare_prepared(
        comparer: &PairComparer,
        cache: &MatcherCache,
        a: &PreparedRef<'_>,
        b: &PreparedRef<'_>,
        current: &BlockKey,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let mut tally = PairTally::default();
        comparer.compare_prepared(cache, a, b, current, &mut tally, ctx);
        tally.flush(ctx);
    }

    fn keyed(id: u64, title: &str) -> Keyed {
        Keyed::single(
            BlockKey::new("blk"),
            Arc::new(Entity::new(id, [("title", title)])),
        )
    }

    #[test]
    fn matching_pair_is_emitted_with_score() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut c = ctx();
        comparer.compare(
            &keyed(1, "abcdefghij"),
            &keyed(2, "abcdefghiX"),
            &BlockKey::new("blk"),
            &mut c,
        );
        assert_eq!(c.info().task_index, 0);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert_eq!(c.output().len(), 1);
        assert!((c.output()[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn non_matching_pair_is_counted_but_not_emitted() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut c = ctx();
        comparer.compare(
            &keyed(1, "abcdefghij"),
            &keyed(2, "zzzzzzzzzz"),
            &BlockKey::new("blk"),
            &mut c,
        );
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert!(c.output().is_empty());
    }

    #[test]
    fn count_only_skips_matching() {
        let comparer = PairComparer::count_only(Arc::new(Matcher::paper_default()));
        assert!(comparer.is_count_only());
        let mut c = ctx();
        comparer.compare(
            &keyed(1, "abcdefghij"),
            &keyed(2, "abcdefghij"),
            &BlockKey::new("blk"),
            &mut c,
        );
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert!(c.output().is_empty(), "count-only never emits");
    }

    #[test]
    fn prepared_path_matches_unprepared_path() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let block = BlockKey::new("blk");
        for (id, (ta, tb)) in [
            ("abcdefghij", "abcdefghiX"), // match at 0.9
            ("abcdefghij", "zzzzzzzzzz"), // counted, no match
        ]
        .into_iter()
        .enumerate()
        {
            // Distinct ids per case: the cache memoizes by entity ref.
            let (a, b) = (keyed(2 * id as u64, ta), keyed(2 * id as u64 + 1, tb));
            let mut direct = ctx();
            comparer.compare(&a, &b, &block, &mut direct);
            let mut prepared = ctx();
            let (pa, pb) = (
                comparer.prepare_cached(&mut cache, &a),
                comparer.prepare_cached(&mut cache, &b),
            );
            compare_prepared(&comparer, &cache, &pa, &pb, &block, &mut prepared);
            assert_eq!(direct.output(), prepared.output());
            assert_eq!(
                direct.counters().get(COMPARISONS),
                prepared.counters().get(COMPARISONS)
            );
        }
    }

    #[test]
    fn cache_capacity_threads_into_new_cache() {
        let comparer =
            PairComparer::new(Arc::new(Matcher::paper_default())).with_cache_capacity(Some(4));
        assert_eq!(comparer.cache_capacity(), Some(4));
        assert_eq!(comparer.new_cache().capacity(), Some(4));
        let unbounded = comparer.with_cache_capacity(None);
        assert_eq!(unbounded.cache_capacity(), None);
        assert_eq!(unbounded.new_cache().capacity(), None);
    }

    #[test]
    fn match_prepared_returns_the_match_and_counts_into_the_tally() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let (a, b) = (keyed(1, "abcdefghij"), keyed(2, "abcdefghiX"));
        let (pa, pb) = (
            comparer.prepare_cached(&mut cache, &a),
            comparer.prepare_cached(&mut cache, &b),
        );
        let mut tally = PairTally::default();
        let (pair, score) = comparer
            .match_prepared(&cache, &pa, &pb, &BlockKey::new("blk"), &mut tally)
            .expect("one edit in ten matches at 0.8");
        assert_eq!(
            pair,
            MatchPair::new(a.entity.entity_ref(), b.entity.entity_ref())
        );
        assert!((score - 0.9).abs() < 1e-12);
        // A reduce context whose output shape is NOT (MatchPair, f64)
        // can take the counts all the same.
        let mut ctx: ReduceContext<(), String> = ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        });
        tally.flush(&mut ctx);
        assert_eq!(ctx.counters().get(COMPARISONS), 1);
        assert_eq!(ctx.counters().len(), 1, "a zero count writes no counter");
        tally.flush(&mut ctx);
        assert_eq!(ctx.counters().get(COMPARISONS), 1, "flush resets the tally");
    }

    #[test]
    fn count_only_skips_preparation() {
        let comparer = PairComparer::count_only(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let a = keyed(1, "abcdefghij");
        let pa = comparer.prepare_cached(&mut cache, &a);
        assert!(cache.is_empty(), "count-only must not prepare entities");
        let mut c = ctx();
        compare_prepared(
            &comparer,
            &cache,
            &pa,
            &pa.clone(),
            &BlockKey::new("blk"),
            &mut c,
        );
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert!(c.output().is_empty());
    }

    #[test]
    fn prepared_cache_hits_across_groups() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let a = keyed(1, "abcdefghij");
        let _ = comparer.prepare_cached(&mut cache, &a);
        let _ = comparer.prepare_cached(&mut cache, &a);
        assert_eq!(cache.len(), 1, "same entity must be prepared once");
    }

    #[test]
    fn prepared_multipass_gate_skips_non_smallest_common_block() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let all: Arc<[BlockKey]> =
            Arc::from(vec![BlockKey::new("aaa"), BlockKey::new("zzz")].into_boxed_slice());
        let a = Keyed::replica(
            BlockKey::new("zzz"),
            Arc::clone(&all),
            Arc::new(Entity::new(1, [("title", "same title")])),
        );
        let b = Keyed::replica(
            BlockKey::new("zzz"),
            all,
            Arc::new(Entity::new(2, [("title", "same title")])),
        );
        let (pa, pb) = (
            comparer.prepare_cached(&mut cache, &a),
            comparer.prepare_cached(&mut cache, &b),
        );
        let mut c = ctx();
        compare_prepared(&comparer, &cache, &pa, &pb, &BlockKey::new("zzz"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
    }

    #[test]
    fn skip_pairs_gate_suppresses_already_compared_pairs() {
        let (a, b) = (keyed(1, "abcdefghij"), keyed(2, "abcdefghij"));
        let seen: BTreeSet<MatchPair> =
            [MatchPair::new(a.entity.entity_ref(), b.entity.entity_ref())].into();
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()))
            .with_skip_pairs(Some(Arc::new(seen)));
        let mut c = ctx();
        comparer.compare(&a, &b, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert!(c.output().is_empty(), "a gated pair is never re-emitted");
        // A pair outside the set still compares — through both paths.
        let fresh = keyed(3, "abcdefghij");
        comparer.compare(&a, &fresh, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        let mut cache = comparer.new_cache();
        let (pa, pb) = (
            comparer.prepare_cached(&mut cache, &a),
            comparer.prepare_cached(&mut cache, &b),
        );
        compare_prepared(&comparer, &cache, &pa, &pb, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 2);
        assert_eq!(c.counters().get(COMPARISONS), 1);
    }

    #[test]
    fn cross_source_gate_skips_same_source_pairs() {
        use er_core::SourceId;
        let comparer =
            PairComparer::new(Arc::new(Matcher::paper_default())).with_cross_source_only(true);
        assert!(comparer.is_cross_source_only());
        let r1 = keyed(1, "abcdefghij");
        let r2 = keyed(2, "abcdefghij");
        let s1 = Keyed::single(
            BlockKey::new("blk"),
            Arc::new(Entity::with_source(
                SourceId::S,
                1,
                [("title", "abcdefghij")],
            )),
        );
        let mut c = ctx();
        comparer.compare(&r1, &r2, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(SAME_SOURCE_SKIPPED), 1);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert!(c.output().is_empty());
        // Cross-source pairs pass both paths.
        comparer.compare(&r1, &s1, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert_eq!(c.output().len(), 1);
        let mut cache = comparer.new_cache();
        let (pr, ps) = (
            comparer.prepare_cached(&mut cache, &r2),
            comparer.prepare_cached(&mut cache, &s1),
        );
        compare_prepared(&comparer, &cache, &pr, &ps, &BlockKey::new("blk"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 2);
    }

    #[test]
    fn multipass_gate_skips_non_smallest_common_block() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let all: Arc<[BlockKey]> =
            Arc::from(vec![BlockKey::new("aaa"), BlockKey::new("zzz")].into_boxed_slice());
        let a = Keyed::replica(
            BlockKey::new("zzz"),
            Arc::clone(&all),
            Arc::new(Entity::new(1, [("title", "same title")])),
        );
        let b = Keyed::replica(
            BlockKey::new("zzz"),
            all,
            Arc::new(Entity::new(2, [("title", "same title")])),
        );
        let mut c = ctx();
        comparer.compare(&a, &b, &BlockKey::new("zzz"), &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert!(c.output().is_empty());
    }
}
