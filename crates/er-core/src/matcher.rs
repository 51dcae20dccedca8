//! Threshold matching of entity pairs.
//!
//! The hot path of every reduce task is [`Matcher::matches`] over all
//! O(b²) pairs of a block. [`Matcher::prepare`] converts an entity
//! into a [`PreparedEntity`] (one [`Prepared`] form per rule) exactly
//! once; [`Matcher::matches_prepared`] then scores pairs without
//! re-tokenizing. [`MatcherCache`] memoizes prepared entities by
//! [`EntityRef`] for reducers whose groups revisit the same entity
//! (PairRange replicas, multi-pass blocking). In its default arena
//! mode the cache prepares every entity straight into a
//! [`PreparedArena`], so the pair loop over [`PreparedHandle`]s
//! performs no heap allocation at all once each entity has been seen
//! once. Reducers do not score pair by pair: they fill a
//! [`PreparedColumn`] with a group's members and sweep it in strips
//! ([`MatcherCache::matches_strip`]), which settles what is common to
//! a strip once and lets the measure's batch prefilter discard most
//! pairs on a dense sketch column before the scalar kernel sees them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::arena::{PreparedArena, PreparedId};
use crate::entity::{Entity, EntityRef};
use crate::similarity::{NormalizedLevenshtein, Prepared, PreparedView, Similarity, Sketch};

/// One attribute-level comparison: similarity measure over one
/// attribute, with an optional weight for aggregation.
#[derive(Clone)]
pub struct MatchRule {
    /// Attribute whose values are compared.
    pub attribute: String,
    /// The similarity measure.
    pub similarity: Arc<dyn Similarity>,
    /// Relative weight within the aggregated score.
    pub weight: f64,
}

impl MatchRule {
    /// A rule with weight 1.
    pub fn new(attribute: impl Into<String>, similarity: Arc<dyn Similarity>) -> Self {
        Self {
            attribute: attribute.into(),
            similarity,
            weight: 1.0,
        }
    }

    /// Overrides the weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    fn score(&self, a: &Entity, b: &Entity) -> f64 {
        match (a.get(&self.attribute), b.get(&self.attribute)) {
            (Some(va), Some(vb)) => self.similarity.sim(va, vb),
            // A missing attribute contributes zero evidence, which is
            // the conservative choice for deduplication.
            _ => 0.0,
        }
    }
}

impl std::fmt::Debug for MatchRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchRule")
            .field("attribute", &self.attribute)
            .field("similarity", &self.similarity.name())
            .field("weight", &self.weight)
            .finish()
    }
}

/// A weighted-average multi-rule matcher with a decision threshold.
///
/// The paper's configuration is a single rule: normalized edit
/// distance on `title` with threshold `0.8` — see
/// [`Matcher::paper_default`].
#[derive(Clone, Debug)]
pub struct Matcher {
    rules: Vec<MatchRule>,
    threshold: f64,
    /// Cached `Σ weight` — every score divides by it, so it is
    /// computed once at construction, not per pair.
    total_weight: f64,
}

impl Matcher {
    /// Builds a matcher from rules and a threshold in `[0, 1]`.
    ///
    /// # Panics
    /// If `rules` is empty, total weight is zero, or the threshold is
    /// outside `[0, 1]`.
    pub fn new(rules: Vec<MatchRule>, threshold: f64) -> Self {
        assert!(!rules.is_empty(), "a matcher needs at least one rule");
        let total_weight: f64 = rules.iter().map(|r| r.weight).sum();
        assert!(total_weight > 0.0, "total rule weight must be positive");
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be within [0, 1]"
        );
        Self {
            rules,
            threshold,
            total_weight,
        }
    }

    /// The paper's match configuration: edit distance on the title with
    /// a minimal similarity of 0.8.
    pub fn paper_default() -> Self {
        Self::new(
            vec![MatchRule::new("title", Arc::new(NormalizedLevenshtein))],
            0.8,
        )
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Weighted-average similarity of an entity pair.
    pub fn score(&self, a: &Entity, b: &Entity) -> f64 {
        let weighted: f64 = self.rules.iter().map(|r| r.weight * r.score(a, b)).sum();
        weighted / self.total_weight
    }

    /// Returns `Some(score)` iff the pair's score reaches the
    /// threshold.
    pub fn matches(&self, a: &Entity, b: &Entity) -> Option<f64> {
        let s = self.score(a, b);
        (s >= self.threshold).then_some(s)
    }

    /// Preprocesses an entity once for repeated scoring: each rule's
    /// attribute value (if present) is converted into that rule's
    /// similarity measure's [`Prepared`] form.
    pub fn prepare(&self, e: &Entity) -> PreparedEntity {
        PreparedEntity {
            entity_ref: e.entity_ref(),
            values: self
                .rules
                .iter()
                .map(|r| e.get(&r.attribute).map(|v| r.similarity.prepare(v)))
                .collect(),
        }
    }

    /// Weighted-average similarity over prepared entities — bit-exact
    /// with [`Matcher::score`] on the same entities (the string path
    /// is defined in terms of the prepared path).
    ///
    /// # Panics
    /// If either argument was prepared by a matcher with a different
    /// rule list.
    pub fn score_prepared(&self, a: &PreparedEntity, b: &PreparedEntity) -> f64 {
        self.score_values(ValuesRef::Heap(a), ValuesRef::Heap(b))
    }

    /// Threshold decision over prepared entities; `Some(score)` iff
    /// the pair matches.
    ///
    /// For the common single-rule, unit-weight configuration (the
    /// paper's default) the score equals the rule similarity
    /// bit-exactly, so the decision is delegated to the measure's
    /// threshold-aware kernel ([`Similarity::sim_view_at_least`]),
    /// which may abandon hopeless pairs early (edit distance: length
    /// and histogram filter, then a bit-parallel verifier).
    /// Decisions and scores are identical to the exact path in all
    /// cases.
    pub fn matches_prepared(&self, a: &PreparedEntity, b: &PreparedEntity) -> Option<f64> {
        self.matches_values(ValuesRef::Heap(a), ValuesRef::Heap(b))
    }

    /// [`Matcher::score_prepared`] over arena-interned entities —
    /// reads the slabs directly, allocating nothing.
    ///
    /// # Panics
    /// If either id came from a different arena or a matcher with a
    /// different rule list.
    pub fn score_arena(&self, arena: &PreparedArena, a: PreparedId, b: PreparedId) -> f64 {
        self.score_values(ValuesRef::Arena(arena, a), ValuesRef::Arena(arena, b))
    }

    /// [`Matcher::matches_prepared`] over arena-interned entities —
    /// the allocation-free form of the O(b²) inner loop.
    ///
    /// # Panics
    /// If either id came from a different arena or a matcher with a
    /// different rule list.
    pub fn matches_arena(
        &self,
        arena: &PreparedArena,
        a: PreparedId,
        b: PreparedId,
    ) -> Option<f64> {
        self.matches_values(ValuesRef::Arena(arena, a), ValuesRef::Arena(arena, b))
    }

    fn score_values(&self, a: ValuesRef<'_>, b: ValuesRef<'_>) -> f64 {
        self.check_rule_slots(a);
        self.check_rule_slots(b);
        let weighted: f64 = self
            .rules
            .iter()
            .enumerate()
            .map(|(i, rule)| match (a.value(i), b.value(i)) {
                (Some(pa), Some(pb)) => rule.weight * rule.similarity.sim_view(&pa, &pb),
                // A missing attribute contributes zero evidence, same
                // as the string path.
                _ => 0.0,
            })
            .sum();
        weighted / self.total_weight
    }

    fn matches_values(&self, a: ValuesRef<'_>, b: ValuesRef<'_>) -> Option<f64> {
        self.check_rule_slots(b);
        ProbeKernel::new(self, a, true).matches(b)
    }

    /// The rule whose thresholded kernel decides a pair on its own: a
    /// single rule of unit weight (the paper's configuration), for
    /// which the score equals the rule similarity bit for bit.
    fn sole_rule(&self) -> Option<&MatchRule> {
        match self.rules.as_slice() {
            [rule] if rule.weight == 1.0 => Some(rule),
            _ => None,
        }
    }

    fn check_rule_slots(&self, values: ValuesRef<'_>) {
        assert_eq!(
            self.rules.len(),
            values.len(),
            "prepared entity {} does not match this matcher's rules",
            values.entity_ref()
        );
    }
}

/// Threshold decisions against one fixed entity, the *probe*: what
/// depends on the matcher and the probe alone — the single-rule
/// dispatch, the probe's rule-count check and its view — is settled
/// once, so a strip of pairs sharing the probe pays it once.
struct ProbeKernel<'a> {
    matcher: &'a Matcher,
    probe: ValuesRef<'a>,
    /// Whether the probe is the measure's left argument.
    probe_first: bool,
    /// Under a [sole rule](Matcher::sole_rule): its measure and the
    /// probe's view (`None`: the probe lacks the attribute).
    sole: Option<(&'a dyn Similarity, Option<PreparedView<'a>>)>,
}

impl<'a> ProbeKernel<'a> {
    fn new(matcher: &'a Matcher, probe: ValuesRef<'a>, probe_first: bool) -> Self {
        matcher.check_rule_slots(probe);
        let sole = matcher
            .sole_rule()
            .map(|rule| (rule.similarity.as_ref(), probe.value(0)));
        Self {
            matcher,
            probe,
            probe_first,
            sole,
        }
    }

    /// `Some(score)` iff the probe and `member` match (see
    /// [`Matcher::matches_prepared`]). `member` must have as many rule
    /// slots as the matcher has rules.
    fn matches(&self, member: ValuesRef<'a>) -> Option<f64> {
        let threshold = self.matcher.threshold;
        let Some((similarity, probe_view)) = &self.sole else {
            let (a, b) = self.ordered(self.probe, member);
            let s = self.matcher.score_values(a, b);
            return (s >= threshold).then_some(s);
        };
        match (probe_view, &member.value(0)) {
            // Matched by reference: the views are handed to the kernel
            // where they were built, not copied first.
            (Some(p), Some(m)) => {
                let (a, b) = self.ordered(p, m);
                similarity.sim_view_at_least(a, b, threshold)
            }
            // Missing attribute scores zero, exactly like the weighted
            // path.
            _ => (0.0 >= threshold).then_some(0.0),
        }
    }

    fn ordered<T>(&self, probe: T, member: T) -> (T, T) {
        if self.probe_first {
            (probe, member)
        } else {
            (member, probe)
        }
    }
}

/// The two storage forms a prepared entity can be scored from: a heap
/// [`PreparedEntity`] or an arena-interned [`PreparedId`]. Scoring is
/// defined once over this view and bit-identical across both.
#[derive(Clone, Copy)]
enum ValuesRef<'a> {
    Heap(&'a PreparedEntity),
    Arena(&'a PreparedArena, PreparedId),
}

impl<'a> ValuesRef<'a> {
    fn len(self) -> usize {
        match self {
            ValuesRef::Heap(p) => p.values.len(),
            ValuesRef::Arena(arena, id) => arena.rule_slots(id),
        }
    }

    fn value(self, rule: usize) -> Option<PreparedView<'a>> {
        match self {
            ValuesRef::Heap(p) => p.values[rule].as_ref().map(Prepared::view),
            ValuesRef::Arena(arena, id) => arena.value(id, rule),
        }
    }

    fn entity_ref(self) -> EntityRef {
        match self {
            ValuesRef::Heap(p) => p.entity_ref,
            ValuesRef::Arena(_, id) => id.entity_ref(),
        }
    }
}

/// An entity preprocessed against one [`Matcher`]: the `i`-th slot is
/// the [`Prepared`] form of the attribute rule `i` compares (or `None`
/// when the entity lacks that attribute).
#[derive(Debug, Clone)]
pub struct PreparedEntity {
    entity_ref: EntityRef,
    values: Vec<Option<Prepared>>,
}

impl PreparedEntity {
    /// The `(source, id)` of the entity this was prepared from.
    pub fn entity_ref(&self) -> EntityRef {
        self.entity_ref
    }
}

/// One resident cache entry: the prepared form plus the logical clock
/// tick of its most recent use (recency bookkeeping is skipped
/// entirely in unbounded mode, where `last_used` stays 0).
#[derive(Debug, Clone)]
struct CacheSlot {
    value: Arc<PreparedEntity>,
    last_used: u64,
}

/// A cheap, clonable handle to one cached prepared entity, as handed
/// out by [`MatcherCache::handle`] and consumed by
/// [`MatcherCache::matches_handles`].
///
/// Arena-mode caches hand out `Copy`-sized [`PreparedId`]s (valid
/// until the cache is cleared); bounded LRU caches hand out
/// `Arc`-shared heap entities that stay alive even after eviction.
#[derive(Debug, Clone)]
pub enum PreparedHandle {
    /// Interned in the cache's [`PreparedArena`].
    Arena(PreparedId),
    /// Heap-prepared, shared via `Arc` (bounded LRU mode).
    Heap(Arc<PreparedEntity>),
}

/// The cached prepared entities of one compare batch — the members of a
/// reduce group, or the ring of a sliding window — as columns: the
/// handles [`MatcherCache::push`] issued and, under a single-rule
/// matcher whose values carry one, each member's [`Sketch`] in a dense
/// array for the measure's batch prefilter
/// ([`Similarity::survivors_at_least`]). Owns no borrow, so it can be
/// kept and refilled across batches; positions are stable until
/// [`evict_front`](PreparedColumn::evict_front).
#[derive(Debug, Clone)]
pub struct PreparedColumn {
    handles: Vec<PreparedHandle>,
    /// One per handle while `sketched`, empty otherwise.
    sketches: Vec<Sketch>,
    /// False from the first member without a sketch until the column
    /// is emptied: the prefilter needs every member's.
    sketched: bool,
}

impl PreparedColumn {
    /// An empty column.
    pub fn new() -> Self {
        Self {
            handles: Vec::new(),
            sketches: Vec::new(),
            sketched: true,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when the column holds no member.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Drops the members from position `len` on, keeping the capacity.
    pub fn truncate(&mut self, len: usize) {
        self.handles.truncate(len);
        self.sketches.truncate(len);
        self.sketched |= len == 0;
    }

    /// Drops the first `n` members; the rest move down by `n`.
    pub fn evict_front(&mut self, n: usize) {
        self.handles.drain(..n);
        if self.sketched {
            self.sketches.drain(..n);
        }
    }
}

impl Default for PreparedColumn {
    fn default() -> Self {
        Self::new()
    }
}

/// Memoizing cache of prepared entities keyed by entity reference —
/// one prepare per distinct entity per cache lifetime, no matter how
/// many reduce groups (PairRange ranges, multi-pass replicas) revisit
/// it.
///
/// The cache is intended to live for one reduce task; clone-derived
/// copies start empty state-wise only if cloned before first use, so
/// reducers should create it in `setup` or hold it per instance.
///
/// # Arena mode (default)
///
/// [`MatcherCache::new`] backs the cache with a [`PreparedArena`]:
/// every first sighting of an entity is prepared once, straight into
/// contiguous slabs. Pair scoring via
/// [`MatcherCache::matches_handles`] then reads slab slices directly —
/// **zero allocations per comparison** once every entity of a block
/// has been seen, which is what keeps the O(b²) inner loop
/// allocation-free.
///
/// # Bounded LRU mode
///
/// [`MatcherCache::with_capacity`] instead caps the number of resident
/// prepared entities with least-recently-used eviction (a recency
/// index over a logical clock; `O(log n)` per touch). An evicted
/// entity is simply re-prepared on its next sighting — preparation is
/// deterministic, so eviction can never change match decisions, only
/// trade memory for recompute. Bound the cache for
/// long-running/streaming tasks whose key space grows without limit;
/// arena mode is right for the paper's batch reduce tasks (a task sees
/// each entity a bounded number of times).
#[derive(Debug, Clone)]
pub struct MatcherCache {
    matcher: Arc<Matcher>,
    store: Store,
    /// Per rule, where the last prepared entity kept the rule's
    /// attribute ([`Entity::get_hinted`]).
    attribute_hints: Vec<usize>,
}

/// The two backing stores of a [`MatcherCache`].
#[derive(Debug, Clone)]
enum Store {
    /// Unbounded arena interning (default).
    Arena {
        ids: HashMap<EntityRef, PreparedId>,
        arena: PreparedArena,
    },
    /// Bounded heap entries with LRU eviction.
    Lru {
        prepared: HashMap<EntityRef, CacheSlot>,
        capacity: usize,
        /// Logical clock driving LRU order; monotonically increasing.
        tick: u64,
        /// Recency index: `last_used tick -> entity` (ticks are
        /// unique).
        recency: BTreeMap<u64, EntityRef>,
        evictions: u64,
    },
}

impl MatcherCache {
    /// An empty, unbounded arena-mode cache bound to `matcher`.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            attribute_hints: vec![0; matcher.rules.len()],
            matcher,
            store: Store::Arena {
                ids: HashMap::new(),
                arena: PreparedArena::new(),
            },
        }
    }

    /// An empty LRU cache holding at most `capacity` prepared
    /// entities, evicting the least recently used beyond that.
    ///
    /// # Panics
    /// If `capacity < 2`: [`MatcherCache::matches`] prepares both
    /// sides of a pair before scoring, so the cache must be able to
    /// hold at least two entries.
    pub fn with_capacity(matcher: Arc<Matcher>, capacity: usize) -> Self {
        assert!(capacity >= 2, "a bounded cache needs room for a pair");
        Self {
            attribute_hints: vec![0; matcher.rules.len()],
            matcher,
            store: Store::Lru {
                prepared: HashMap::new(),
                capacity,
                tick: 0,
                recency: BTreeMap::new(),
                evictions: 0,
            },
        }
    }

    /// The matcher this cache prepares against.
    pub fn matcher(&self) -> &Arc<Matcher> {
        &self.matcher
    }

    /// The capacity bound, if any (`None` in arena mode).
    pub fn capacity(&self) -> Option<usize> {
        match &self.store {
            Store::Arena { .. } => None,
            Store::Lru { capacity, .. } => Some(*capacity),
        }
    }

    /// Entries evicted so far (always zero in arena mode).
    pub fn evictions(&self) -> u64 {
        match &self.store {
            Store::Arena { .. } => 0,
            Store::Lru { evictions, .. } => *evictions,
        }
    }

    /// The backing arena, if this cache runs in arena mode.
    pub fn arena(&self) -> Option<&PreparedArena> {
        match &self.store {
            Store::Arena { arena, .. } => Some(arena),
            Store::Lru { .. } => None,
        }
    }

    /// A handle to the prepared form of `e`, computing it on first
    /// sight (or on re-sighting after an eviction).
    pub fn handle(&mut self, e: &Entity) -> PreparedHandle {
        let key = e.entity_ref();
        match &mut self.store {
            Store::Arena { ids, arena } => {
                if let Some(&id) = ids.get(&key) {
                    return PreparedHandle::Arena(id);
                }
                // Each rule's measure writes its form straight into the
                // slabs; no heap `PreparedEntity` is built.
                let (rules, hints) = (&self.matcher.rules, &mut self.attribute_hints);
                let id = arena.intern_with(key, rules.len(), |arena, rule| {
                    let MatchRule {
                        attribute,
                        similarity,
                        ..
                    } = &rules[rule];
                    e.get_hinted(attribute, &mut hints[rule])
                        .map(|value| similarity.prepare_into(value, arena))
                });
                ids.insert(key, id);
                PreparedHandle::Arena(id)
            }
            Store::Lru {
                prepared,
                capacity,
                tick,
                recency,
                evictions,
            } => {
                *tick += 1;
                let tick = *tick;
                if let Some(slot) = prepared.get_mut(&key) {
                    recency.remove(&slot.last_used);
                    slot.last_used = tick;
                    recency.insert(tick, key);
                    return PreparedHandle::Heap(Arc::clone(&slot.value));
                }
                if prepared.len() >= *capacity {
                    let (_, victim) = recency
                        .pop_first()
                        .expect("a full bounded cache has recency entries");
                    prepared.remove(&victim);
                    *evictions += 1;
                }
                let value = Arc::new(self.matcher.prepare(e));
                prepared.insert(
                    key,
                    CacheSlot {
                        value: Arc::clone(&value),
                        last_used: tick,
                    },
                );
                recency.insert(tick, key);
                PreparedHandle::Heap(value)
            }
        }
    }

    /// Threshold decision over two handles previously issued by this
    /// cache. Takes `&self` — the hot pair loop holds handles and
    /// never mutates the cache, so this call allocates nothing in
    /// arena mode.
    ///
    /// # Panics
    /// If an [`PreparedHandle::Arena`] handle is passed to a bounded
    /// LRU cache (LRU caches never issue arena handles), or a handle
    /// outlived [`MatcherCache::clear`].
    pub fn matches_handles(&self, a: &PreparedHandle, b: &PreparedHandle) -> Option<f64> {
        let arena = self.arena();
        let va = Self::values_ref(arena, a);
        let vb = Self::values_ref(arena, b);
        self.matcher.matches_values(va, vb)
    }

    fn values_ref<'a>(
        arena: Option<&'a PreparedArena>,
        handle: &'a PreparedHandle,
    ) -> ValuesRef<'a> {
        match handle {
            PreparedHandle::Heap(p) => ValuesRef::Heap(p),
            PreparedHandle::Arena(id) => ValuesRef::Arena(
                arena.expect("arena handle requires an arena-mode cache"),
                *id,
            ),
        }
    }

    /// Appends the prepared form of `e` to `column` (preparing it on
    /// first sight, like [`MatcherCache::handle`]).
    pub fn push(&mut self, column: &mut PreparedColumn, e: &Entity) {
        let handle = self.handle(e);
        let values = Self::values_ref(self.arena(), &handle);
        self.matcher.check_rule_slots(values);
        if column.sketched {
            let sketch = self
                .matcher
                .sole_rule()
                .and_then(|_| match values.value(0) {
                    Some(view) => view.sketch(),
                    // A missing attribute sketches as the empty string. The
                    // prefilter drops a pair only when the measure provably
                    // scores it below the threshold; no measure scores
                    // below 0.0, so the threshold is then positive and the
                    // 0.0 a missing attribute scores falls short of it too.
                    None => Some(Sketch::EMPTY),
                });
            match sketch {
                Some(sketch) => column.sketches.push(sketch),
                None => {
                    column.sketched = false;
                    column.sketches.clear();
                }
            }
        }
        column.handles.push(handle);
    }

    /// Threshold decisions of `column`'s member `probe` against each
    /// member in `members`: calls `hit(position, score)` for the
    /// matching ones, in ascending position. `probe_first` puts the
    /// probe on the measures' left. Decisions and scores equal
    /// [`MatcherCache::matches_handles`] pair by pair; the strip just
    /// gets there cheaper — the measure's batch prefilter discards
    /// what it can on the sketch column, and only the survivors
    /// (positions relative to `members.start`, left in `scratch`) reach
    /// the scalar kernel. Allocates nothing once `scratch` has grown.
    ///
    /// # Panics
    /// If `column` was not filled by this cache's
    /// [`push`](MatcherCache::push), or a position is out of range.
    pub fn matches_strip(
        &self,
        column: &PreparedColumn,
        probe: usize,
        members: std::ops::Range<usize>,
        probe_first: bool,
        scratch: &mut Vec<u32>,
        hit: impl FnMut(usize, f64),
    ) {
        scratch.clear();
        match self.matcher.sole_rule() {
            Some(rule) if column.sketched => rule.similarity.survivors_at_least(
                &column.sketches[probe],
                &column.sketches[members.clone()],
                self.matcher.threshold,
                scratch,
            ),
            _ => scratch
                .extend(0..u32::try_from(members.len()).expect("a column fits u32 positions")),
        }
        self.matches_picked(column, probe, members.start, scratch, probe_first, hit);
    }

    /// [`MatcherCache::matches_strip`] over an explicit selection: the
    /// members at `base + offset` for each of `picked`, no prefilter.
    pub fn matches_picked(
        &self,
        column: &PreparedColumn,
        probe: usize,
        base: usize,
        picked: &[u32],
        probe_first: bool,
        mut hit: impl FnMut(usize, f64),
    ) {
        let arena = self.arena();
        let kernel = ProbeKernel::new(
            &self.matcher,
            Self::values_ref(arena, &column.handles[probe]),
            probe_first,
        );
        for &offset in picked {
            let member = base + offset as usize;
            if let Some(score) = kernel.matches(Self::values_ref(arena, &column.handles[member])) {
                hit(member, score);
            }
        }
    }

    /// Threshold decision using cached prepared forms for both sides.
    pub fn matches(&mut self, a: &Entity, b: &Entity) -> Option<f64> {
        let pa = self.handle(a);
        let pb = self.handle(b);
        self.matches_handles(&pa, &pb)
    }

    /// Number of entities currently resident.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Arena { ids, .. } => ids.len(),
            Store::Lru { prepared, .. } => prepared.len(),
        }
    }

    /// True when nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached entries (e.g. between unrelated inputs whose
    /// entity ids overlap). Keeps the mode and capacity bound; resets
    /// the eviction counter along with the entries. **Invalidates all
    /// outstanding [`PreparedHandle::Arena`] handles** — drop them
    /// along with the clear; `Heap` handles stay usable.
    pub fn clear(&mut self) {
        match &mut self.store {
            Store::Arena { ids, arena } => {
                ids.clear();
                arena.clear();
            }
            Store::Lru {
                prepared,
                recency,
                evictions,
                ..
            } => {
                prepared.clear();
                recency.clear();
                *evictions = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::Jaccard;

    fn e(id: u64, title: &str) -> Entity {
        Entity::new(id, [("title", title)])
    }

    #[test]
    fn paper_default_thresholds_at_0_8() {
        let m = Matcher::paper_default();
        // One edit on a ten-char title: similarity 0.9 -> match.
        assert!(m
            .matches(&e(1, "abcdefghij"), &e(2, "abcdefghiX"))
            .is_some());
        // Three edits on ten chars: similarity 0.7 -> no match.
        assert!(m
            .matches(&e(1, "abcdefghij"), &e(2, "abcdefgXYZ"))
            .is_none());
        // Exactly at the threshold: 8/10 -> match (>=).
        assert!(m
            .matches(&e(1, "abcdefghij"), &e(2, "abcdefghXY"))
            .is_some());
    }

    #[test]
    fn missing_attribute_scores_zero() {
        let m = Matcher::paper_default();
        let no_title = Entity::new(3, [("brand", "canon")]);
        assert_eq!(m.score(&e(1, "x"), &no_title), 0.0);
        assert!(m.matches(&e(1, "x"), &no_title).is_none());
    }

    #[test]
    fn weighted_aggregation() {
        let m = Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(NormalizedLevenshtein)).with_weight(3.0),
                MatchRule::new("brand", Arc::new(Jaccard)).with_weight(1.0),
            ],
            0.5,
        );
        let a = Entity::new(1, [("title", "same"), ("brand", "alpha")]);
        let b = Entity::new(2, [("title", "same"), ("brand", "beta")]);
        // title: 1.0 weighted 3, brand: 0.0 weighted 1 -> 0.75
        assert!((m.score(&a, &b) - 0.75).abs() < 1e-12);
        assert!(m.matches(&a, &b).is_some());
    }

    #[test]
    fn score_is_symmetric() {
        let m = Matcher::paper_default();
        let (a, b) = (e(1, "kitten"), e(2, "sitting"));
        assert!((m.score(&a, &b) - m.score(&b, &a)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn empty_rules_rejected() {
        let _ = Matcher::new(vec![], 0.5);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn bad_threshold_rejected() {
        let _ = Matcher::new(
            vec![MatchRule::new("title", Arc::new(NormalizedLevenshtein))],
            1.5,
        );
    }

    #[test]
    fn debug_shows_measure_name() {
        let m = Matcher::paper_default();
        assert!(format!("{m:?}").contains("levenshtein"));
    }

    #[test]
    fn prepared_scoring_is_bit_exact_with_string_scoring() {
        let m = Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(NormalizedLevenshtein)).with_weight(2.0),
                MatchRule::new("brand", Arc::new(Jaccard)),
            ],
            0.5,
        );
        let a = Entity::new(1, [("title", "canon eos 5d"), ("brand", "canon inc")]);
        let b = Entity::new(2, [("title", "canon eos 7d")]);
        let (pa, pb) = (m.prepare(&a), m.prepare(&b));
        assert_eq!(
            m.score(&a, &b).to_bits(),
            m.score_prepared(&pa, &pb).to_bits()
        );
        assert_eq!(m.matches(&a, &b), m.matches_prepared(&pa, &pb));
    }

    #[test]
    fn fast_path_decision_equals_exact_path() {
        // paper_default is single-rule unit-weight -> thresholded
        // kernel; decisions and scores must match the string path.
        let m = Matcher::paper_default();
        for (ta, tb) in [
            ("abcdefghij", "abcdefghij"),
            ("abcdefghij", "abcdefghiX"),
            ("abcdefghij", "abcdefghXY"), // exactly at 0.8
            ("abcdefghij", "abcdefgXYZ"), // just below
            ("abcdefghij", "zzzzzzzzzz"),
            ("", ""),
            ("", "abc"),
        ] {
            let (a, b) = (e(1, ta), e(2, tb));
            let (pa, pb) = (m.prepare(&a), m.prepare(&b));
            assert_eq!(
                m.matches_prepared(&pa, &pb).map(f64::to_bits),
                m.matches(&a, &b).map(f64::to_bits),
                "{ta:?} vs {tb:?}"
            );
        }
    }

    #[test]
    fn prepared_entity_tracks_missing_attributes() {
        let m = Matcher::paper_default();
        let no_title = Entity::new(3, [("brand", "canon")]);
        let p = m.prepare(&no_title);
        let q = m.prepare(&e(1, "x"));
        assert_eq!(m.score_prepared(&p, &q), 0.0);
        assert_eq!(p.entity_ref(), no_title.entity_ref());
    }

    #[test]
    #[should_panic(expected = "does not match this matcher's rules")]
    fn foreign_prepared_entity_is_rejected() {
        let one_rule = Matcher::paper_default();
        let two_rules = Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(NormalizedLevenshtein)),
                MatchRule::new("brand", Arc::new(Jaccard)),
            ],
            0.5,
        );
        let p1 = one_rule.prepare(&e(1, "a"));
        let p2 = two_rules.prepare(&e(2, "b"));
        let _ = two_rules.score_prepared(&p2, &p1);
    }

    /// Unwraps the `Heap` form an LRU cache must hand out.
    fn heap(h: PreparedHandle) -> Arc<PreparedEntity> {
        match h {
            PreparedHandle::Heap(p) => p,
            PreparedHandle::Arena(_) => panic!("expected a heap handle"),
        }
    }

    /// Unwraps the `Arena` form an arena-mode cache must hand out.
    fn interned(h: PreparedHandle) -> PreparedId {
        match h {
            PreparedHandle::Arena(id) => id,
            PreparedHandle::Heap(_) => panic!("expected an arena handle"),
        }
    }

    #[test]
    fn cache_prepares_each_entity_once() {
        let mut cache = MatcherCache::new(Arc::new(Matcher::paper_default()));
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), None, "arena mode is unbounded");
        let a = e(1, "abcdefghij");
        let b = e(2, "abcdefghiX");
        let first = interned(cache.handle(&a));
        let again = interned(cache.handle(&a));
        assert_eq!(first, again, "second lookup must hit");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.arena().expect("arena mode").len(), 1);
        assert!(cache.matches(&a, &b).is_some());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.arena().expect("arena mode").is_empty());
    }

    #[test]
    fn arena_cache_decisions_match_direct_prepared_path() {
        let matcher = Arc::new(Matcher::paper_default());
        let mut cache = MatcherCache::new(Arc::clone(&matcher));
        for (ta, tb) in [
            ("abcdefghij", "abcdefghiX"),
            ("abcdefghij", "abcdefghXY"), // exactly at 0.8
            ("abcdefghij", "zzzzzzzzzz"),
            ("", ""),
        ] {
            let (a, b) = (e(20, ta), e(21, tb));
            let (ha, hb) = (cache.handle(&a), cache.handle(&b));
            let via_handles = cache.matches_handles(&ha, &hb);
            let direct = matcher.matches_prepared(&matcher.prepare(&a), &matcher.prepare(&b));
            assert_eq!(
                via_handles.map(f64::to_bits),
                direct.map(f64::to_bits),
                "{ta:?} vs {tb:?}"
            );
            cache.clear();
        }
    }

    #[test]
    #[should_panic(expected = "arena handle requires an arena-mode cache")]
    fn arena_handle_rejected_by_lru_cache() {
        let matcher = Arc::new(Matcher::paper_default());
        let mut arena_cache = MatcherCache::new(Arc::clone(&matcher));
        let mut lru = MatcherCache::with_capacity(matcher, 2);
        let a = e(1, "aaaaaaaaaa");
        let ha = arena_cache.handle(&a);
        let hb = lru.handle(&a);
        let _ = lru.matches_handles(&ha, &hb);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut cache = MatcherCache::with_capacity(Arc::new(Matcher::paper_default()), 2);
        assert_eq!(cache.capacity(), Some(2));
        assert!(cache.arena().is_none(), "LRU mode has no arena");
        let (a, b, c) = (e(1, "aaaaaaaaaa"), e(2, "bbbbbbbbbb"), e(3, "cccccccccc"));
        let pa = heap(cache.handle(&a));
        let _ = cache.handle(&b);
        // Touch `a` so `b` becomes the LRU victim when `c` arrives.
        let pa_again = heap(cache.handle(&a));
        assert!(Arc::ptr_eq(&pa, &pa_again), "touching must be a hit");
        let _ = cache.handle(&c);
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.evictions(), 1);
        // `a` survived (recently used); preparing it again is a hit.
        let pa_third = heap(cache.handle(&a));
        assert!(Arc::ptr_eq(&pa, &pa_third), "recently used entry kept");
        // `b` was evicted: re-preparation yields a fresh allocation...
        let pb_new = heap(cache.handle(&b));
        assert_eq!(cache.evictions(), 2, "re-admitting b evicted c");
        // ...that scores bit-identically to an uncached preparation.
        let direct = Matcher::paper_default().prepare(&b);
        assert_eq!(
            cache.matcher().score_prepared(&pb_new, &pb_new).to_bits(),
            cache.matcher().score_prepared(&direct, &direct).to_bits()
        );
    }

    #[test]
    fn bounded_cache_decisions_match_unbounded() {
        // Thrash a capacity-2 cache across overlapping pairs; every
        // decision must equal the unbounded cache's, bit for bit —
        // eviction may only cost recompute, never correctness.
        let matcher = Arc::new(Matcher::paper_default());
        let mut bounded = MatcherCache::with_capacity(Arc::clone(&matcher), 2);
        let mut unbounded = MatcherCache::new(Arc::clone(&matcher));
        let entities: Vec<Entity> = [
            "abcdefghij",
            "abcdefghiX",
            "abcdefgXYZ",
            "zzzzzzzzzz",
            "abcdefghij",
        ]
        .iter()
        .enumerate()
        .map(|(i, t)| e(i as u64, t))
        .collect();
        for i in 0..entities.len() {
            for j in (i + 1)..entities.len() {
                let (a, b) = (&entities[i], &entities[j]);
                assert_eq!(
                    bounded.matches(a, b).map(f64::to_bits),
                    unbounded.matches(a, b).map(f64::to_bits),
                    "pair ({i}, {j})"
                );
            }
        }
        assert!(bounded.evictions() > 0, "the thrash must actually evict");
        assert_eq!(unbounded.evictions(), 0);
        assert!(bounded.len() <= 2);
        bounded.clear();
        assert_eq!(bounded.evictions(), 0, "clear resets the counter");
        assert_eq!(bounded.capacity(), Some(2), "clear keeps the bound");
    }

    #[test]
    #[should_panic(expected = "room for a pair")]
    fn bounded_cache_rejects_capacity_below_two() {
        let _ = MatcherCache::with_capacity(Arc::new(Matcher::paper_default()), 1);
    }

    #[test]
    fn cache_agrees_with_direct_matching() {
        let matcher = Arc::new(Matcher::paper_default());
        let mut cache = MatcherCache::new(Arc::clone(&matcher));
        assert!(Arc::ptr_eq(cache.matcher(), &matcher));
        for (ta, tb) in [
            ("abcdefghij", "abcdefghiX"),
            ("abcdefghij", "zzzzzzzzzz"),
            ("", ""),
            ("short", "short"),
        ] {
            let (a, b) = (e(10, ta), e(11, tb));
            assert_eq!(cache.matches(&a, &b), matcher.matches(&a, &b));
            cache.clear();
        }
    }
}
