//! Threshold matching of entity pairs.
//!
//! The hot path of every reduce task is [`Matcher::matches`] over all
//! O(b²) pairs of a block. [`Matcher::prepare`] converts an entity
//! into a [`PreparedEntity`] (one [`Prepared`] form per rule) exactly
//! once; [`Matcher::matches_prepared`] then scores pairs without
//! re-tokenizing. An [`ArenaBuilder`] writes the same forms straight
//! into a [`PreparedArena`]: a match stage's map tasks prepare each
//! entity they route once, into one arena per map task, and every
//! reduce task reads those arenas, so the pair loop performs no heap
//! allocation at all. Reducers do not score pair by pair: they fill a
//! [`PreparedColumn`] with a group's members — [`PreparedHandle`]s into
//! the stage's arenas — and sweep it in strips
//! ([`Matcher::matches_strip`]), which settles what is common to a
//! strip once and lets the measure's batch prefilter discard most
//! pairs on a dense sketch column before the scalar kernel sees them.
//! [`MatcherCache`], which memoizes prepared entities by [`EntityRef`]
//! in one arena, is the single-machine oracles' cache.

use std::collections::HashMap;
use std::sync::Arc;

use crate::arena::{PreparedArena, PreparedHandle, PreparedId};
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
            "a prepared entity of {} rule slots does not match this matcher's rules",
            values.len()
        );
    }

    /// Threshold decisions of `column`'s member `probe` against each
    /// member in `members`, all prepared under this matcher into
    /// `arenas`: calls `hit(position, score)` for the matching ones, in
    /// ascending position. `probe_first` puts the probe on the
    /// measures' left. Decisions and scores equal
    /// [`Matcher::matches_prepared`] pair by pair; the strip just gets
    /// there cheaper — the measure's batch prefilter discards what it
    /// can on the sketch column, and only the survivors (positions
    /// relative to `members.start`, left in `scratch`) reach the scalar
    /// kernel. Allocates nothing once `scratch` has grown.
    ///
    /// # Panics
    /// If `column` was not filled against `arenas` by
    /// [`PreparedColumn::push`] under this matcher, or a position is
    /// out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn matches_strip(
        &self,
        arenas: &[PreparedArena],
        column: &PreparedColumn,
        probe: usize,
        members: std::ops::Range<usize>,
        probe_first: bool,
        scratch: &mut Vec<u32>,
        hit: impl FnMut(usize, f64),
    ) {
        scratch.clear();
        match self.sole_rule() {
            Some(rule) if column.sketched => rule.similarity.survivors_at_least(
                &column.sketches[probe],
                &column.sketches[members.clone()],
                self.threshold,
                scratch,
            ),
            _ => scratch
                .extend(0..u32::try_from(members.len()).expect("a column fits u32 positions")),
        }
        self.matches_picked(
            arenas,
            column,
            probe,
            members.start,
            scratch,
            probe_first,
            hit,
        );
    }

    /// [`Matcher::matches_strip`] over an explicit selection: the
    /// members at `base + offset` for each of `picked`, no prefilter.
    #[allow(clippy::too_many_arguments)]
    pub fn matches_picked(
        &self,
        arenas: &[PreparedArena],
        column: &PreparedColumn,
        probe: usize,
        base: usize,
        picked: &[u32],
        probe_first: bool,
        mut hit: impl FnMut(usize, f64),
    ) {
        let kernel = ProbeKernel::new(self, column.values(arenas, probe), probe_first);
        for &offset in picked {
            let member = base + offset as usize;
            if let Some(score) = kernel.matches(column.values(arenas, member)) {
                hit(member, score);
            }
        }
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

/// The prepared members of one compare batch — the members of a
/// reduce group, or the ring of a sliding window — as columns: each
/// member's [`PreparedHandle`] into the stage's arenas and, under a
/// single-rule matcher whose values carry one, each member's
/// [`Sketch`] in a dense array for the measure's batch prefilter
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

    /// Appends `handle`, a member prepared under `matcher` into
    /// `arenas[handle.arena]`.
    ///
    /// # Panics
    /// If the member was prepared under a matcher with another rule
    /// count, or `handle` addresses no arena of `arenas`.
    pub fn push(&mut self, matcher: &Matcher, arenas: &[PreparedArena], handle: PreparedHandle) {
        let values = ValuesRef::Arena(&arenas[handle.arena as usize], handle.id);
        matcher.check_rule_slots(values);
        if self.sketched {
            let sketch = matcher.sole_rule().and_then(|_| match values.value(0) {
                Some(view) => view.sketch(),
                // A missing attribute sketches as the empty string. The
                // prefilter drops a pair only when the measure provably
                // scores it below the threshold; no measure scores
                // below 0.0, so the threshold is then positive and the
                // 0.0 a missing attribute scores falls short of it too.
                None => Some(Sketch::EMPTY),
            });
            match sketch {
                Some(sketch) => self.sketches.push(sketch),
                None => {
                    self.sketched = false;
                    self.sketches.clear();
                }
            }
        }
        self.handles.push(handle);
    }

    fn values<'a>(&self, arenas: &'a [PreparedArena], position: usize) -> ValuesRef<'a> {
        let handle = self.handles[position];
        ValuesRef::Arena(&arenas[handle.arena as usize], handle.id)
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

/// Prepares entities under one matcher, each straight into an arena's
/// slabs: every rule's measure writes its form in place, so no heap
/// [`PreparedEntity`] is built. What [`ArenaBuilder`] and
/// [`MatcherCache`] prepare with.
#[derive(Debug, Clone)]
struct Preparer {
    matcher: Arc<Matcher>,
    /// Per rule, where the last prepared entity kept the rule's
    /// attribute ([`Entity::get_hinted`]).
    attribute_hints: Vec<usize>,
}

impl Preparer {
    /// A preparer for `matcher`'s rules.
    fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            attribute_hints: vec![0; matcher.rules.len()],
            matcher,
        }
    }

    /// Interns the prepared form of `e` into `arena`.
    fn prepare_into(&mut self, e: &Entity, arena: &mut PreparedArena) -> PreparedId {
        let (rules, hints) = (&self.matcher.rules, &mut self.attribute_hints);
        arena.intern_with(rules.len(), |arena, rule| {
            let MatchRule {
                attribute,
                similarity,
                ..
            } = &rules[rule];
            e.get_hinted(attribute, &mut hints[rule])
                .map(|value| similarity.prepare_into(value, arena))
        })
    }
}

/// The arena of one match-stage map task, built from the entities the
/// task routes: each is queued as it is routed and gets its
/// [`PreparedId`] at once — an arena issues its ids in order — and
/// [`ArenaBuilder::build`] then prepares them all, reserving the slot,
/// histogram and byte slabs from their count and the length of their
/// compared attributes, so those slabs neither regrow nor carry slack.
#[derive(Debug, Clone)]
pub struct ArenaBuilder {
    preparer: Preparer,
    queued: Vec<Arc<Entity>>,
}

impl ArenaBuilder {
    /// An empty builder preparing for `matcher`.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            preparer: Preparer::new(matcher),
            queued: Vec::new(),
        }
    }

    /// Queues `entity`; returns the id its prepared form will have in
    /// the built arena.
    pub fn queue(&mut self, entity: &Arc<Entity>) -> PreparedId {
        let id = PreparedId::nth(self.queued.len(), self.preparer.matcher.rules.len());
        self.queued.push(Arc::clone(entity));
        id
    }

    /// Entities queued so far.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// True before anything was queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Prepares every queued entity, in queue order, into one arena.
    pub fn build(mut self) -> PreparedArena {
        let matcher = Arc::clone(&self.preparer.matcher);
        let mut text = 0;
        for entity in &self.queued {
            for (rule, hint) in matcher.rules.iter().zip(&mut self.preparer.attribute_hints) {
                // A value's UTF-8 length bounds its scalars (exactly,
                // for ASCII).
                text += entity.get_hinted(&rule.attribute, hint).map_or(0, str::len);
            }
        }
        let mut arena = PreparedArena::new();
        arena.reserve(self.queued.len(), matcher.rules.len(), text);
        for (index, entity) in self.queued.iter().enumerate() {
            let id = self.preparer.prepare_into(entity, &mut arena);
            debug_assert_eq!(id, PreparedId::nth(index, matcher.rules.len()));
        }
        arena
    }
}

/// Memoizing cache of prepared entities keyed by entity reference —
/// one prepare per distinct entity per cache lifetime, in one
/// [`PreparedArena`]. The single-machine oracles' cache (the reference
/// a match stage's reducers are held to), and the benchmark's probe of
/// the prepare and compare costs; the stages themselves prepare in
/// their map tasks ([`ArenaBuilder`]) and never hash an entity
/// reference.
///
/// Pair scoring via [`MatcherCache::matches_handles`] reads slab slices
/// directly — **zero allocations per comparison** once both entities
/// have been seen.
#[derive(Debug, Clone)]
pub struct MatcherCache {
    preparer: Preparer,
    ids: HashMap<EntityRef, PreparedId>,
    arena: PreparedArena,
}

impl MatcherCache {
    /// An empty cache bound to `matcher`.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            preparer: Preparer::new(matcher),
            ids: HashMap::new(),
            arena: PreparedArena::new(),
        }
    }

    /// The matcher this cache prepares against.
    pub fn matcher(&self) -> &Arc<Matcher> {
        &self.preparer.matcher
    }

    /// The arena the prepared entities live in.
    pub fn arena(&self) -> &PreparedArena {
        &self.arena
    }

    /// The arena id of the prepared form of `e`, computing it on first
    /// sight.
    pub fn handle(&mut self, e: &Entity) -> PreparedId {
        let key = e.entity_ref();
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.preparer.prepare_into(e, &mut self.arena);
        self.ids.insert(key, id);
        id
    }

    /// Threshold decision over two ids previously issued by this cache.
    /// Takes `&self` — the hot pair loop holds ids and never mutates
    /// the cache, so this call allocates nothing.
    ///
    /// # Panics
    /// If an id outlived [`MatcherCache::clear`].
    pub fn matches_handles(&self, a: PreparedId, b: PreparedId) -> Option<f64> {
        self.matcher().matches_values(
            ValuesRef::Arena(&self.arena, a),
            ValuesRef::Arena(&self.arena, b),
        )
    }

    /// Threshold decision using cached prepared forms for both sides.
    pub fn matches(&mut self, a: &Entity, b: &Entity) -> Option<f64> {
        let pa = self.handle(a);
        let pb = self.handle(b);
        self.matches_handles(pa, pb)
    }

    /// Number of entities currently resident.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached entries (e.g. between unrelated inputs whose
    /// entity ids overlap). **Invalidates all outstanding
    /// [`PreparedId`]s** — drop them along with the clear.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.arena.clear();
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

    #[test]
    fn cache_prepares_each_entity_once() {
        let mut cache = MatcherCache::new(Arc::new(Matcher::paper_default()));
        assert!(cache.is_empty());
        let a = e(1, "abcdefghij");
        let b = e(2, "abcdefghiX");
        let first = cache.handle(&a);
        let again = cache.handle(&a);
        assert_eq!(first, again, "second lookup must hit");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.arena().len(), 1);
        assert!(cache.matches(&a, &b).is_some());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.arena().is_empty());
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
            let via_handles = cache.matches_handles(ha, hb);
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
