//! The compare path every match stage shares, block at a time.
//!
//! The paper balances *comparisons*, so what one comparison costs
//! inside a reduce group is the constant every figure multiplies. A
//! reducer therefore never walks pairs itself: it hands its group to
//! the task's [`GroupComparer`], which works in four steps (1–4) on
//! what the stage's map tasks prepared (0).
//!
//! 0. **One entity table per map task.** Every map task of a match
//!    stage interns the entities it routes ([`EntityInterner`]) into
//!    one [`EntityTable`] — its product, which the engine lends to
//!    every reduce task of the stage after the map barrier
//!    ([`mr_engine::reducer::Group::products`]). The table holds each
//!    entity once per map task however many reduce tasks receive it:
//!    its prepared form in a [`PreparedArena`] (counted under
//!    [`PREPARED_ENTITIES`]), its [`EntityRef`] and its sorted keys, in
//!    one flat column per table: BDM block indices under BlockSplit,
//!    PairRange and LSH (the matrix numbers its blocks in key order),
//!    block `0` under Sorted Neighborhood, the keys themselves under
//!    Basic, which has no matrix. A shuffle record carries only the
//!    [`PreparedHandle`] `(arena, id)` of the entity's row — no `Arc` —
//!    and no reduce task prepares. A product may also hold its table
//!    beside other data (Sorted Neighborhood's sorted runs): the
//!    driver reads tables through [`StageTable`].
//! 1. **Handles → columns.** [`GroupComparer::push`] resolves each
//!    member's handle once: its [`EntityRef`] and whether its keys are
//!    the group's block alone (see 2.) come from its table, its
//!    prepared form goes into an [`er_core::PreparedColumn`] over the
//!    stage's arenas (a pair may span two tables; it is scored by the
//!    same kernel). The columns borrow nothing: they are refilled group
//!    after group, and a sliding window keeps them across groups,
//!    evicting from the front.
//! 2. **Gates, where they are cheapest.** The smallest-common-block
//!    rule is decided *per member*: for single-key rows it reads
//!    `a == b && a == block`, so a group whose members all have the
//!    group's block as their only key (all of single-pass blocking)
//!    needs no per-pair key test — O(n) key compares instead of O(n²).
//!    One member that is multi-key, or keyed elsewhere, drops the group
//!    to the per-pair rule, which reads the keys from the tables.
//!    `skip_pairs` is a property of the comparer, read once per strip.
//!    Linkage needs no gate here: its strategies take a member's side
//!    from its partition's source tag (`bdm.source_of(arena)`) and walk
//!    only the `R × S` cross product.
//! 3. **Strips.** Every shape a reducer needs — all pairs of a group,
//!    the cross product of two member ranges, a window's new arrival
//!    against its ring, a PairRange slice — is a sequence of *strips*:
//!    one probe member against a contiguous member range
//!    ([`GroupComparer::strip`]). An ungated strip counts its
//!    [`COMPARISONS`] in one addition.
//! 4. **Prefilter → kernel.** Under a single-rule matcher the
//!    measure's batch prefilter
//!    ([`er_core::Similarity::survivors_at_least`]) runs over the
//!    strip's dense sketch column — for edit distance two loads, the
//!    length gap and a 32-byte L1 per pair — and every member it cannot
//!    reject goes to the unchanged scalar kernel (`sim_view_at_least`),
//!    which decides and scores it.
//!
//! Both shortcuts are sound by construction. The per-member gate skips
//! the per-pair rule only where that rule is a tautology. The prefilter
//! may only drop pairs the kernel would reject and never decides a
//! match: every emitted pair and score bit comes from the same kernel
//! call the one-shot [`PairComparer::compare`] makes — the reference
//! the module's proptest holds the driver against, counters included.
//!
//! Counts go to two integers flushed once per reduce group
//! ([`GroupComparer::flush`]): at a few nanoseconds a pair, a by-name
//! counter update per pair would cost more than the compare.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::{
    ArenaBuilder, Entity, EntityRef, Matcher, PreparedArena, PreparedColumn, PreparedHandle,
    PreparedId,
};
use mr_engine::mapper::{MapContext, MapTaskInfo};
use mr_engine::reducer::ReduceContext;

use crate::{smallest_common_key_is, Ent, COMPARISONS};

/// Counter: entities a match stage's map tasks prepared — each entity
/// once per map task that routes it, however many reduce tasks receive
/// it. Reduce tasks never prepare, so no reduce task counts any.
pub const PREPARED_ENTITIES: &str = "er.prepared_entities";

/// Counter: pairs skipped by a multi-pass dedup gate — either the
/// smallest-common-block rule of multi-pass *blocking*, or the
/// already-compared-pair gate of multi-pass *Sorted Neighborhood*
/// ([`PairComparer::with_skip_pairs`]) — the only pairs a comparer
/// ever skips. Never incremented under single-pass configurations.
pub const MULTIPASS_SKIPPED: &str = "er.multipass.skipped";

/// Pairs counted since the last flush, by counter.
#[derive(Debug, Clone, Default)]
struct PairTally {
    comparisons: u64,
    multipass_skipped: u64,
}

impl PairTally {
    fn flush<KO, VO>(&mut self, ctx: &mut ReduceContext<KO, VO>) {
        for (name, count) in [
            (COMPARISONS, &mut self.comparisons),
            (MULTIPASS_SKIPPED, &mut self.multipass_skipped),
        ] {
            if *count > 0 {
                ctx.add_counter(name, std::mem::take(count));
            }
        }
    }
}

/// Evaluates entity pairs inside reduce functions: applies the
/// multi-pass dedup gate, counts comparisons, runs the matcher and
/// emits matches.
#[derive(Clone)]
pub struct PairComparer {
    matcher: Arc<Matcher>,
    /// Pairs an earlier pass of a multi-pass workload already
    /// evaluated; skipped here (first pass wins — the total-order
    /// analogue of the smallest-common-block rule).
    skip_pairs: Option<Arc<BTreeSet<MatchPair>>>,
}

impl PairComparer {
    /// A comparer that evaluates similarity and emits matches.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        Self {
            matcher,
            skip_pairs: None,
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

    /// Applies both gates in order — smallest-common-block (multi-pass
    /// blocking), then already-compared (multi-pass SN) — and counts
    /// the pair under the counter it falls to. True iff the pair is to
    /// be evaluated.
    fn admit<K: Ord>(
        &self,
        (a, a_keys): (EntityRef, &[K]),
        (b, b_keys): (EntityRef, &[K]),
        current: &K,
        tally: &mut PairTally,
    ) -> bool {
        if !smallest_common_key_is(a_keys, b_keys, current) {
            tally.multipass_skipped += 1;
            return false;
        }
        if let Some(skip) = &self.skip_pairs {
            if skip.contains(&MatchPair::new(a, b)) {
                tally.multipass_skipped += 1;
                return false;
            }
        }
        tally.comparisons += 1;
        true
    }

    /// Compares `a` and `b`, each with its sorted keys, within
    /// `current` block, emitting a match record if the pair reaches the
    /// matcher's threshold.
    ///
    /// One-shot: both entities are preprocessed from scratch, the pair
    /// gated, counted and scored on its own. Reducers go through a
    /// [`GroupComparer`]; this is the reference it is tested against.
    pub fn compare<K: Ord>(
        &self,
        (a, a_keys): (&Entity, &[K]),
        (b, b_keys): (&Entity, &[K]),
        current: &K,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        let mut tally = PairTally::default();
        let (a_ref, b_ref) = (a.entity_ref(), b.entity_ref());
        let admitted = self.admit((a_ref, a_keys), (b_ref, b_keys), current, &mut tally);
        tally.flush(ctx);
        if !admitted {
            return;
        }
        if let Some(score) = self.matcher.matches(a, b) {
            ctx.emit(MatchPair::new(a_ref, b_ref), score);
        }
    }
}

/// A match-stage map task's product (step 0 of the
/// [module documentation](self)): every entity the task routed, once,
/// in the order it was first routed — its prepared form in a
/// [`PreparedArena`], its [`EntityRef`] and its sorted keys. A
/// [`PreparedHandle`] addresses a row: `arena` is the table's map
/// task, `id` the entity's row there. A key `K` is a BDM block index
/// unless the stage has no matrix: Basic's are the keys themselves.
#[derive(Debug, Clone)]
pub struct EntityTable<K = u32> {
    arena: PreparedArena,
    refs: Vec<EntityRef>,
    /// Every row's keys back to back; row `i` ends at `key_ends[i]`.
    keys: Vec<K>,
    key_ends: Vec<u32>,
}

impl<K> EntityTable<K> {
    /// The reference of the entity at `id`.
    pub fn entity_ref(&self, id: PreparedId) -> EntityRef {
        self.refs[id.index()]
    }

    /// The sorted blocking keys of the entity at `id`.
    pub fn keys(&self, id: PreparedId) -> &[K] {
        let row = id.index();
        let start = if row == 0 { 0 } else { self.key_ends[row - 1] };
        &self.keys[start as usize..self.key_ends[row] as usize]
    }
}

impl<K> Default for EntityTable<K> {
    fn default() -> Self {
        Self {
            arena: PreparedArena::default(),
            refs: Vec::new(),
            keys: Vec::new(),
            key_ends: Vec::new(),
        }
    }
}

impl<K> AsRef<PreparedArena> for EntityTable<K> {
    fn as_ref(&self) -> &PreparedArena {
        &self.arena
    }
}

impl<K> AsRef<EntityTable<K>> for EntityTable<K> {
    fn as_ref(&self) -> &Self {
        self
    }
}

/// A match-stage map task's product as the compare path reads it: an
/// [`EntityTable`] itself, or a product that holds one beside other
/// data (Sorted Neighborhood's sorted runs).
pub trait StageTable<K = u32>: AsRef<EntityTable<K>> + AsRef<PreparedArena> {}

impl<K, T: AsRef<EntityTable<K>> + AsRef<PreparedArena>> StageTable<K> for T {}

/// The map side of the compare path (step 0 of the
/// [module documentation](self)): queues each entity a match-stage map
/// task routes for the task's [`EntityTable`] once, hands out the
/// [`PreparedHandle`] its shuffle records carry, and builds the table
/// when the task ends ([`ArenaBuilder`]: slabs sized exactly).
#[derive(Debug, Clone)]
pub struct EntityInterner<K = u32> {
    builder: ArenaBuilder,
    refs: Vec<EntityRef>,
    keys: Vec<K>,
    key_ends: Vec<u32>,
    /// The map task: the table's index among the stage's products.
    task: u32,
    /// The entity queued last, and its id: a mapper interns an entity
    /// at each of its emissions, one after another.
    last: Option<(EntityRef, PreparedId)>,
}

impl<K: Clone> EntityInterner<K> {
    /// An interner preparing under `comparer`'s matcher.
    pub fn new(comparer: &PairComparer) -> Self {
        Self {
            builder: ArenaBuilder::new(Arc::clone(&comparer.matcher)),
            refs: Vec::new(),
            keys: Vec::new(),
            key_ends: Vec::new(),
            task: 0,
            last: None,
        }
    }

    /// Readies the interner for map task `info`.
    pub fn setup(&mut self, info: &MapTaskInfo) {
        self.task = crate::keys::key_index(info.task_index, "map task index");
    }

    /// The handle of `entity`'s row, whose sorted blocking keys are
    /// `keys`, queueing it unless it is the entity queued last.
    pub fn intern(&mut self, entity: &Ent, keys: &[K]) -> PreparedHandle {
        let entity_ref = entity.entity_ref();
        let id = match self.last {
            Some((last, id)) if last == entity_ref => id,
            _ => {
                let id = self.builder.queue(entity);
                self.refs.push(entity_ref);
                self.keys.extend_from_slice(keys);
                let end = u32::try_from(self.keys.len()).expect("key column fits u32 offsets");
                self.key_ends.push(end);
                self.last = Some((entity_ref, id));
                id
            }
        };
        PreparedHandle {
            arena: self.task,
            id,
        }
    }

    /// Counts the task's prepared entities under [`PREPARED_ENTITIES`];
    /// the mapper's `finish` calls it.
    pub fn finish<KO, VO, S>(&self, ctx: &mut MapContext<KO, VO, S>) {
        if !self.builder.is_empty() {
            ctx.add_counter(PREPARED_ENTITIES, self.builder.len() as u64);
        }
    }

    /// Prepares the queued entities into the task's table — the
    /// mapper's product.
    pub fn into_table(self) -> EntityTable<K> {
        EntityTable {
            arena: self.builder.build(),
            refs: self.refs,
            keys: self.keys,
            key_ends: self.key_ends,
        }
    }
}

/// The group-level compare driver (see the [module documentation](self)):
/// one per reduce task, holding the member columns. A reducer
/// [`load`](Self::load)s a group, runs [`all_pairs`](Self::all_pairs),
/// [`cross`](Self::cross) or its own [`strip`](Self::strip)s, and
/// [`flush`](Self::flush)es the counts before its `reduce` returns.
/// Every call that reads members takes the stage's tables — the
/// group's [`products`](mr_engine::reducer::Group::products) — and a
/// member is the handle its map task gave it.
#[derive(Debug, Clone)]
pub struct GroupComparer<K = u32> {
    comparer: PairComparer,
    /// The block the members are compared under; `None` before the
    /// first group.
    block: Option<K>,
    refs: Vec<EntityRef>,
    /// Per member: false when its only key is `block` (it passes the
    /// smallest-common-block rule against every other such member),
    /// true when the per-pair rule reads its keys from its table.
    off_block: Vec<bool>,
    /// How many `off_block` are true.
    per_pair_members: usize,
    /// The members' handles and prepared forms.
    prepared: PreparedColumn,
    /// Member offsets a strip is about to score.
    picked: Vec<u32>,
    tally: PairTally,
}

impl<K: Ord> GroupComparer<K> {
    /// A driver with empty columns.
    pub fn new(comparer: PairComparer) -> Self {
        Self {
            comparer,
            block: None,
            refs: Vec::new(),
            off_block: Vec::new(),
            per_pair_members: 0,
            prepared: PreparedColumn::new(),
            picked: Vec::new(),
            tally: PairTally::default(),
        }
    }

    /// Starts a group compared under `block`: empties the columns.
    pub fn begin(&mut self, block: K) {
        self.block = Some(block);
        self.truncate(0);
    }

    /// [`begin`](Self::begin)s a group under `block` and
    /// [`push`](Self::push)es `members` in order.
    pub fn load(
        &mut self,
        tables: &[impl StageTable<K>],
        block: K,
        members: impl IntoIterator<Item = PreparedHandle>,
    ) {
        self.begin(block);
        for member in members {
            self.push(tables, member);
        }
    }

    /// Appends the member at `handle` in `tables` to the columns;
    /// returns its position.
    pub fn push(&mut self, tables: &[impl StageTable<K>], handle: PreparedHandle) -> usize {
        let table: &EntityTable<K> = tables[handle.arena as usize].as_ref();
        let off_block =
            !matches!(table.keys(handle.id), [only] if Some(only) == self.block.as_ref());
        self.per_pair_members += usize::from(off_block);
        self.off_block.push(off_block);
        self.refs.push(table.entity_ref(handle.id));
        self.prepared.push(&self.comparer.matcher, tables, handle);
        self.refs.len() - 1
    }

    /// Number of members in the columns.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// True when the columns hold no member.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Drops the members from position `len <= self.len()` on.
    pub fn truncate(&mut self, len: usize) {
        self.per_pair_members -= self.off_block.drain(len..).filter(|&off| off).count();
        self.refs.truncate(len);
        self.prepared.truncate(len);
    }

    /// Drops the first `n` members; the rest move down by `n` — how a
    /// sliding window forgets.
    pub fn evict_front(&mut self, n: usize) {
        self.per_pair_members -= self.off_block.drain(..n).filter(|&off| off).count();
        self.refs.drain(..n);
        self.prepared.evict_front(n);
    }

    /// Evaluates member `probe` against each of `members`, in ascending
    /// position, handing every match to `sink`. `probe_first` makes the
    /// probe the pair's first entity (the measures' left argument).
    pub fn strip(
        &mut self,
        tables: &[impl StageTable<K>],
        probe: usize,
        members: Range<usize>,
        probe_first: bool,
        mut sink: impl FnMut(MatchPair, f64),
    ) {
        let per_pair = self.per_pair_members > 0 || self.comparer.skip_pairs.is_some();
        if per_pair {
            let block = self.block.as_ref().expect("a group began");
            let gate_entry = |position: usize| {
                let keys = if self.off_block[position] {
                    let handle = self.prepared.handle(position);
                    let table: &EntityTable<K> = tables[handle.arena as usize].as_ref();
                    table.keys(handle.id)
                } else {
                    std::slice::from_ref(block)
                };
                (self.refs[position], keys)
            };
            let probe = gate_entry(probe);
            self.picked.clear();
            for (offset, member) in (0u32..).zip(members.clone()) {
                let (a, b) = ordered(probe_first, probe, gate_entry(member));
                if self.comparer.admit(a, b, block, &mut self.tally) {
                    self.picked.push(offset);
                }
            }
        } else {
            self.tally.comparisons += members.len() as u64;
        }
        let hit = |member: usize, score: f64| {
            let (a, b) = ordered(probe_first, self.refs[probe], self.refs[member]);
            sink(MatchPair::new(a, b), score);
        };
        let (matcher, prepared, picked) =
            (&self.comparer.matcher, &self.prepared, &mut self.picked);
        if per_pair {
            matcher.matches_picked(
                tables,
                prepared,
                probe,
                members.start,
                picked,
                probe_first,
                hit,
            );
        } else {
            matcher.matches_strip(tables, prepared, probe, members, probe_first, picked, hit);
        }
    }

    /// Every pair of the columns' members: each against all before it.
    pub fn all_pairs(
        &mut self,
        tables: &[impl StageTable<K>],
        mut sink: impl FnMut(MatchPair, f64),
    ) {
        for later in 1..self.len() {
            self.strip(tables, later, 0..later, false, &mut sink);
        }
    }

    /// Loads a group of two sides under `block` and evaluates their
    /// cross product: each of `first` against all of `second`.
    pub fn cross(
        &mut self,
        tables: &[impl StageTable<K>],
        block: K,
        first: impl IntoIterator<Item = PreparedHandle>,
        second: impl IntoIterator<Item = PreparedHandle>,
        mut sink: impl FnMut(MatchPair, f64),
    ) {
        self.load(tables, block, first);
        let split = self.len();
        for member in second {
            self.push(tables, member);
        }
        for probe in 0..split {
            self.strip(tables, probe, split..self.len(), true, &mut sink);
        }
    }

    /// Adds what the strips counted since the last flush to `ctx`'s
    /// counters; a zero count writes no counter.
    pub fn flush<KO, VO>(&mut self, ctx: &mut ReduceContext<KO, VO>) {
        self.tally.flush(ctx);
    }
}

/// `(probe, member)` in pair order.
fn ordered<T>(probe_first: bool, probe: T, member: T) -> (T, T) {
    if probe_first {
        (probe, member)
    } else {
        (member, probe)
    }
}

impl std::fmt::Debug for PairComparer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairComparer")
            .field("skip_pairs", &self.skip_pairs.as_ref().map(|s| s.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::similarity::{Prepared, PreparedView, Similarity};
    use er_core::{Entity, JaroWinkler, MatchRule, NormalizedLevenshtein, SourceId};
    use mr_engine::reducer::ReduceTaskInfo;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ctx() -> ReduceContext<MatchPair, f64> {
        ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        })
    }

    /// An entity and its sorted block indices, as a match stage's map
    /// task interns it.
    struct Member {
        entity: Ent,
        keys: Vec<u32>,
    }

    /// The one-shot [`PairComparer::compare`] of `a` and `b` in `block`.
    fn one_shot(
        comparer: &PairComparer,
        a: &Member,
        b: &Member,
        block: u32,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        comparer.compare((&a.entity, &a.keys), (&b.entity, &b.keys), &block, ctx);
    }

    /// `members` as a match stage of `tasks` map tasks delivers them:
    /// member `i` interned for `comparer` by map task `i % tasks`. Returns
    /// the stage's tables and each member's handle.
    fn staged(
        comparer: &PairComparer,
        members: &[&Member],
        tasks: usize,
    ) -> (Vec<EntityTable>, Vec<PreparedHandle>) {
        let mut interners: Vec<EntityInterner> = (0..tasks)
            .map(|task_index| {
                let mut interner = EntityInterner::new(comparer);
                let info = MapTaskInfo {
                    task_index,
                    num_map_tasks: tasks,
                    num_reduce_tasks: 1,
                };
                interner.setup(&info);
                interner
            })
            .collect();
        let handles = members
            .iter()
            .enumerate()
            .map(|(i, member)| interners[i % tasks].intern(&member.entity, &member.keys))
            .collect();
        let tables = interners
            .into_iter()
            .map(EntityInterner::into_table)
            .collect();
        (tables, handles)
    }

    /// `members` through `driver` as a reducer runs a block: staged by
    /// two map tasks, loaded, all pairs, flush.
    fn all_pairs(
        driver: &mut GroupComparer,
        block: u32,
        members: &[&Member],
    ) -> ReduceContext<MatchPair, f64> {
        let (tables, handles) = staged(&driver.comparer, members, 2);
        let mut c = ctx();
        driver.load(&tables, block, handles);
        driver.all_pairs(&tables, |pair, score| c.emit(pair, score));
        driver.flush(&mut c);
        c
    }

    fn paper_comparer() -> PairComparer {
        PairComparer::new(Arc::new(Matcher::paper_default()))
    }

    /// The block of the single-key members.
    const BLK: u32 = 0;

    fn keyed(id: u64, title: &str) -> Member {
        Member {
            entity: Arc::new(Entity::new(id, [("title", title)])),
            keys: vec![BLK],
        }
    }

    /// A pair of two-key entities, in blocks 0 and 2, meeting in their
    /// *larger* common block 2.
    fn multipass_pair() -> (Member, Member) {
        let member = |id| Member {
            entity: Arc::new(Entity::new(id, [("title", "same title")])),
            keys: vec![0, 2],
        };
        (member(1), member(2))
    }

    #[test]
    fn matching_pair_is_emitted_with_score() {
        let comparer = paper_comparer();
        let mut c = ctx();
        one_shot(
            &comparer,
            &keyed(1, "abcdefghij"),
            &keyed(2, "abcdefghiX"),
            BLK,
            &mut c,
        );
        assert_eq!(c.info().task_index, 0);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert_eq!(c.output().len(), 1);
        assert!((c.output()[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn non_matching_pair_is_counted_but_not_emitted() {
        let comparer = paper_comparer();
        let mut c = ctx();
        one_shot(
            &comparer,
            &keyed(1, "abcdefghij"),
            &keyed(2, "zzzzzzzzzz"),
            BLK,
            &mut c,
        );
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert!(c.output().is_empty());
    }

    #[test]
    fn prepared_path_matches_unprepared_path() {
        let comparer = paper_comparer();
        let mut driver = GroupComparer::new(comparer.clone());
        for (id, (ta, tb)) in [
            ("abcdefghij", "abcdefghiX"), // match at 0.9
            ("abcdefghij", "zzzzzzzzzz"), // counted, no match
        ]
        .into_iter()
        .enumerate()
        {
            let (a, b) = (keyed(2 * id as u64, ta), keyed(2 * id as u64 + 1, tb));
            let mut direct = ctx();
            one_shot(&comparer, &a, &b, BLK, &mut direct);
            let prepared = all_pairs(&mut driver, BLK, &[&a, &b]);
            assert_eq!(direct.output(), prepared.output());
            assert_eq!(
                direct.counters().get(COMPARISONS),
                prepared.counters().get(COMPARISONS)
            );
        }
    }

    #[test]
    fn strip_hands_matches_to_the_sink_and_flush_writes_each_count_once() {
        let mut driver = GroupComparer::new(paper_comparer());
        let (a, b) = (keyed(1, "abcdefghij"), keyed(2, "abcdefghiX"));
        let (tables, handles) = staged(&driver.comparer, &[&a, &b], 1);
        driver.load(&tables, BLK, handles);
        let mut matches = Vec::new();
        driver.strip(&tables, 1, 0..1, false, |pair, score| {
            matches.push((pair, score))
        });
        let [(pair, score)] = matches[..] else {
            panic!("one edit in ten matches at 0.8: {matches:?}");
        };
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
        driver.flush(&mut ctx);
        assert_eq!(ctx.counters().get(COMPARISONS), 1);
        assert_eq!(ctx.counters().len(), 1, "a zero count writes no counter");
        driver.flush(&mut ctx);
        assert_eq!(ctx.counters().get(COMPARISONS), 1, "flush resets the tally");
    }

    #[test]
    fn prepared_cache_hits_across_groups() {
        // A map task prepares an entity once however often it routes
        // it (one record per blocking key or match task), and every
        // group reads that one prepared form.
        let comparer = paper_comparer();
        let (a, b) = (keyed(1, "abcdefghij"), keyed(2, "abcdefghiX"));
        let (tables, handles) = staged(&comparer, &[&a, &a, &b, &b], 1);
        assert_eq!(
            AsRef::<PreparedArena>::as_ref(&tables[0]).len(),
            2,
            "same entity must be prepared once"
        );
        assert_eq!((handles[0], handles[2]), (handles[1], handles[3]));
        assert_eq!(tables[0].entity_ref(handles[2].id), b.entity.entity_ref());
        let mut c = ctx();
        let mut driver = GroupComparer::new(comparer);
        for _ in 0..2 {
            let members = [handles[0], handles[2]];
            driver.load(&tables, BLK, members);
            driver.all_pairs(&tables, |pair, score| c.emit(pair, score));
        }
        assert_eq!(c.output().len(), 2);
    }

    #[test]
    fn prepared_multipass_gate_skips_non_smallest_common_block() {
        let (a, b) = multipass_pair();
        let mut driver = GroupComparer::new(paper_comparer());
        let c = all_pairs(&mut driver, 2, &[&a, &b]);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert!(c.output().is_empty());
        // In their smallest common block the same two compare.
        let c = all_pairs(&mut driver, 0, &[&a, &b]);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        assert_eq!(c.output().len(), 1);
    }

    #[test]
    fn skip_pairs_gate_suppresses_already_compared_pairs() {
        let (a, b) = (keyed(1, "abcdefghij"), keyed(2, "abcdefghij"));
        let seen: BTreeSet<MatchPair> =
            [MatchPair::new(a.entity.entity_ref(), b.entity.entity_ref())].into();
        let comparer = paper_comparer().with_skip_pairs(Some(Arc::new(seen)));
        let mut c = ctx();
        one_shot(&comparer, &a, &b, BLK, &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert!(c.output().is_empty(), "a gated pair is never re-emitted");
        // A pair outside the set still compares — through both paths.
        let fresh = keyed(3, "abcdefghij");
        one_shot(&comparer, &a, &fresh, BLK, &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 1);
        let mut driver = GroupComparer::new(comparer);
        let c = all_pairs(&mut driver, BLK, &[&a, &b, &fresh]);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert_eq!(c.counters().get(COMPARISONS), 2);
        assert_eq!(c.output().len(), 2);
    }

    #[test]
    fn multipass_gate_skips_non_smallest_common_block() {
        let (a, b) = multipass_pair();
        let mut c = ctx();
        one_shot(&paper_comparer(), &a, &b, 2, &mut c);
        assert_eq!(c.counters().get(COMPARISONS), 0);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 1);
        assert!(c.output().is_empty());
    }

    #[test]
    fn eviction_and_truncation_keep_the_columns_in_step() {
        let mut driver = GroupComparer::new(paper_comparer());
        let (a, b) = multipass_pair();
        let plain: Vec<Member> = (10..14)
            .map(|id| Member {
                entity: Arc::new(Entity::new(id, [("title", "same title")])),
                keys: vec![0],
            })
            .collect();
        let members = [&a, &plain[0], &plain[1], &b, &plain[2]];
        let (tables, handles) = staged(&driver.comparer, &members, 3);
        driver.load(&tables, 0, handles[..4].iter().copied());
        // The multi-key member at the front leaves: what remains of the
        // first three is single-key, and the strip takes the bulk path.
        driver.truncate(3);
        driver.evict_front(1);
        assert_eq!(driver.len(), 2);
        let next = driver.push(&tables, handles[4]);
        let mut pairs = Vec::new();
        driver.strip(&tables, next, 0..next, false, |pair, _| pairs.push(pair));
        let refs = |i: usize| plain[i].entity.entity_ref();
        assert_eq!(
            pairs,
            [
                MatchPair::new(refs(0), refs(2)),
                MatchPair::new(refs(1), refs(2))
            ]
        );
        let mut c = ctx();
        driver.flush(&mut c);
        assert_eq!(c.counters().get(COMPARISONS), 2);
        assert_eq!(c.counters().get(MULTIPASS_SKIPPED), 0);
    }

    /// What the differential proptest draws per member:
    /// `(source, key choice, title choice)`.
    type MemberSpec = (u8, u8, u8);

    /// Titles around both interesting thresholds — 0 to 3 edits at ten
    /// scalars (0.8 sits at 2), identical twins for 1.0 — plus the
    /// kernel's branches: missing, empty, non-ASCII, past 64 scalars.
    fn title(choice: u8) -> Option<String> {
        let long = "the quick brown fox jumps over the lazy dog again and again ".repeat(2);
        Some(match choice {
            0 => return None,
            1 => String::new(),
            2 | 3 => "abcdefghij".into(),
            4 => "abcdefghiX".into(),
            5 => "abcdefghXY".into(),
            6 => "abcdefgXYZ".into(),
            7 => "abcdefghijk".into(),
            8 => "bcdefghij".into(),
            9 => "jihgfedcba".into(),
            10 => "àbcdéfghîj".into(),
            11 => "zz".into(),
            12 => long,
            13 => long.replacen("fox", "fax", 1),
            _ => long.replace("again", "agian"),
        })
    }

    /// Blocks `a < m < z`: the proptest's groups are compared under `m`.
    const A: u32 = 0;
    const M: u32 = 1;
    const Z: u32 = 2;

    /// Member `id` of a group compared under block `m`.
    fn member(id: u64, (source, keys, title_choice): MemberSpec) -> Member {
        let mut attributes = vec![("brand", "acme corp".to_string())];
        attributes.extend(title(title_choice).map(|t| ("title", t)));
        let entity = Arc::new(Entity::with_source(SourceId(source), id, attributes));
        let keys = match keys {
            // Single-pass blocking, keyed by the group's block.
            0 => vec![M],
            // Multi-pass: `m` is (1) or is not (2, 3) the smallest key.
            1 => vec![M, Z],
            2 => vec![A, M],
            3 => vec![A, M, Z],
            // A member the framework should never have sent here.
            _ => vec![A],
        };
        Member { entity, keys }
    }

    /// A measure that is *not* symmetric, so a driver that swapped a
    /// pair's entities would score it differently.
    struct LeftHeavy;

    impl Similarity for LeftHeavy {
        fn prepare(&self, s: &str) -> Prepared {
            Prepared::HashedSet(vec![s.chars().count() as u64])
        }

        fn sim_view(&self, a: &PreparedView<'_>, b: &PreparedView<'_>) -> f64 {
            let (PreparedView::HashedSet(a), PreparedView::HashedSet(b)) = (a, b) else {
                panic!("prepared by another measure");
            };
            (1 + a[0]) as f64 / (2 + a[0] + 2 * b[0]) as f64
        }

        fn name(&self) -> &'static str {
            "left-heavy"
        }
    }

    fn matcher(choice: u8) -> Matcher {
        let lev = || MatchRule::new("title", Arc::new(NormalizedLevenshtein));
        match choice {
            0 => Matcher::new(vec![lev()], 0.0),
            1 => Matcher::new(vec![lev()], 0.8),
            2 => Matcher::new(vec![lev()], 1.0),
            3 => Matcher::new(
                vec![
                    lev().with_weight(2.0),
                    MatchRule::new("brand", Arc::new(er_core::Jaccard)),
                ],
                0.5,
            ),
            4 => Matcher::new(
                vec![MatchRule::new("title", Arc::new(JaroWinkler::default()))],
                0.8,
            ),
            _ => Matcher::new(vec![MatchRule::new("title", Arc::new(LeftHeavy))], 0.3),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The driver against the one-shot `compare`: same matches with
        /// the same score bits in the same order, same two counters —
        /// whatever the group, the gates, the matcher and the shape.
        /// Every second group is pure single-pass and the skip gate is
        /// off three times in four, so the bulk path is drawn as often as
        /// the per-pair one; the members come from one to three map
        /// tasks' tables.
        #[test]
        fn driver_equals_one_shot_compare(
            specs in vec((0u8..2, 0u8..5, 0u8..15), 0..9),
            matcher_choice in 0u8..6,
            gates in (0u8..2, 0u8..4, vec(0usize..81, 1..6)),
            shape in (0u8..3, 0usize..9, 1usize..4),
            tasks in 1usize..4,
        ) {
            let (single_pass, skips, skipped) = gates;
            let members: Vec<Member> = (0u64..)
                .zip(specs)
                .map(|(id, (source, keys, title))| {
                    member(id, (source, if single_pass == 0 { 0 } else { keys }, title))
                })
                .collect();
            let n = members.len();
            let skip: BTreeSet<MatchPair> = skipped
                .into_iter()
                .map(|cell| (cell / 9, cell % 9))
                .filter(|&(i, j)| i < j && j < n)
                .map(|(i, j)| MatchPair::new(members[i].entity.entity_ref(), members[j].entity.entity_ref()))
                .collect();
            let matcher = Arc::new(matcher(matcher_choice));
            let comparer = PairComparer::new(matcher)
                .with_skip_pairs((skips == 0).then(|| Arc::new(skip)));
            // The strips of the drawn shape, as (probe, members, probe_first).
            let (kind, split, window) = shape;
            let split = split.min(n);
            let strips: Vec<(usize, Range<usize>, bool)> = match kind {
                0 => (1..n).map(|j| (j, 0..j, false)).collect(),
                1 => (0..split).map(|i| (i, split..n, true)).collect(),
                _ => (1..n).map(|j| (j, j.saturating_sub(window)..j, false)).collect(),
            };

            let mut expected = ctx();
            for (probe, partners, probe_first) in strips.clone() {
                for partner in partners {
                    let (a, b) = ordered(probe_first, &members[probe], &members[partner]);
                    one_shot(&comparer, a, b, M, &mut expected);
                }
            }

            let member_refs: Vec<&Member> = members.iter().collect();
            let (tables, handles) = staged(&comparer, &member_refs, tasks);
            let mut driver = GroupComparer::new(comparer);
            let mut got = ctx();
            driver.load(&tables, M, handles.iter().copied());
            match kind {
                0 => driver.all_pairs(&tables, |pair, score| got.emit(pair, score)),
                1 => driver.cross(
                    &tables,
                    M,
                    handles[..split].iter().copied(),
                    handles[split..].iter().copied(),
                    |pair, score| got.emit(pair, score),
                ),
                _ => for (probe, partners, probe_first) in strips {
                    driver.strip(&tables, probe, partners, probe_first, |pair, score| {
                        got.emit(pair, score)
                    });
                },
            }
            driver.flush(&mut got);

            let bits = |c: &ReduceContext<MatchPair, f64>| -> Vec<(MatchPair, u64)> {
                c.output().iter().map(|(pair, score)| (*pair, score.to_bits())).collect()
            };
            prop_assert_eq!(bits(&got), bits(&expected));
            for counter in [COMPARISONS, MULTIPASS_SKIPPED] {
                prop_assert_eq!(
                    got.counters().get(counter),
                    expected.counters().get(counter),
                    "{}", counter
                );
            }
        }
    }
}
