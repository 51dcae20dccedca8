//! The sliding-window kernel shared by every SN reducer.
//!
//! A [`WindowBuffer`] holds the `w − 1` immediate predecessors (in
//! global sort order) of the next entity as `Copy` rows in the columns
//! of a compare driver ([`GroupComparer`]: entity reference, table
//! handle, sketch) — nothing borrowed, so the buffer can live in
//! reducer state and slide **across** reduce groups: the window jobs
//! group by the full `(partition, key)`, so a reduce task streams one
//! small group per distinct sort key out of the engine's heap merge and
//! never materializes its whole range; only the ring (and the current
//! key run) is resident.
//!
//! [`WindowBuffer::advance`] compares the next entity against every
//! buffered predecessor — exactly the pairs at distance `≤ w − 1`, one
//! strip of the driver over rows read in place — then admits it,
//! forgetting the oldest. RepSN's reducers additionally
//! [`WindowBuffer::prime`] the buffer with boundary replicas so
//! cross-partition pairs are covered *without* comparing replica ×
//! replica (those pairs belong to an earlier partition).

use std::ops::Range;
use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::result::MatchPair;
use er_loadbalance::compare::{EntityTable, GroupComparer, PairComparer};
use er_loadbalance::Ent;
use mr_engine::reducer::ReduceContext;

use crate::keys::SnEntity;

/// The `w − 1` most recent entities, as the tail of a compare driver's
/// columns. Forgetting is amortized: the columns grow to twice the
/// ring before their stale front is dropped in one move.
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    /// All SN comparisons run under the constant `⊥` block key.
    driver: GroupComparer,
    /// The entity behind each driver row.
    entities: Vec<Ent>,
    capacity: usize,
    /// Column length at which the stale front is dropped: twice the
    /// ring, saturating for windows past `usize::MAX / 2`.
    evict_at: usize,
}

impl WindowBuffer {
    /// A buffer for window size `window`, comparing under `comparer`.
    ///
    /// # Panics
    /// If `window < 2` — a window of one compares nothing.
    pub fn new(comparer: PairComparer, window: usize) -> Self {
        assert!(window >= 2, "a sliding window must span at least 2 slots");
        let mut driver = GroupComparer::new(comparer);
        driver.begin(&BlockKey::bottom());
        let capacity = window - 1;
        Self {
            driver,
            entities: Vec::new(),
            capacity,
            evict_at: capacity.saturating_mul(2),
        }
    }

    /// Admits `member` without comparing it against the buffer — used
    /// to pre-load RepSN boundary replicas (keeping only the last
    /// `w − 1` primed entries, like any admission). `tables` are the
    /// stage's, which every member's handle addresses.
    pub fn prime(&mut self, tables: &[EntityTable], member: &SnEntity) {
        self.admit(tables, member);
    }

    /// Compares `member` against every buffered predecessor (counting
    /// comparisons and delivering matches to `sink`), then admits it.
    pub fn advance<KO, VO>(
        &mut self,
        tables: &[EntityTable],
        member: &SnEntity,
        ctx: &mut ReduceContext<KO, VO>,
        mut sink: impl FnMut(&mut ReduceContext<KO, VO>, MatchPair, f64),
    ) {
        let (ring, next) = self.admit(tables, member);
        self.driver.strip(tables, next, ring, false, |pair, score| {
            sink(ctx, pair, score)
        });
        self.driver.flush(ctx);
    }

    /// Appends `member`'s row; returns the ring as it was before, and
    /// the new row's position.
    fn admit(&mut self, tables: &[EntityTable], member: &SnEntity) -> (Range<usize>, usize) {
        if self.driver.len() == self.evict_at {
            self.driver.evict_front(self.capacity);
            self.entities.drain(..self.capacity);
        }
        let ring = self.ring();
        self.entities.push(Arc::clone(&member.entity));
        (ring, self.driver.push(tables, member.prepared))
    }

    /// The driver rows the ring currently spans.
    fn ring(&self) -> Range<usize> {
        let len = self.driver.len();
        len.saturating_sub(self.capacity)..len
    }

    /// The buffered entities, oldest first — i.e. the last
    /// `min(w − 1, admitted)` entities in admission order. JobSN reads
    /// this at task end to publish the partition's tail candidates.
    pub fn entries(&self) -> impl Iterator<Item = &Ent> + '_ {
        self.entities[self.ring()].iter()
    }

    /// Number of buffered predecessors.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// True before anything was admitted.
    pub fn is_empty(&self) -> bool {
        self.driver.is_empty()
    }

    /// Drops all buffered entries (the capacity stays).
    pub fn clear(&mut self) {
        self.driver.truncate(0);
        self.entities.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Entity, Matcher};
    use er_loadbalance::COMPARISONS;
    use mr_engine::reducer::ReduceTaskInfo;
    use std::sync::Arc;

    fn ctx() -> ReduceContext<MatchPair, f64> {
        ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        })
    }

    fn keyed(id: u64, title: &str) -> Ent {
        Arc::new(Entity::new(id, [("title", title)]))
    }

    /// `entities` prepared for `comparer` by one map task.
    fn staged(comparer: &PairComparer, entities: Vec<Ent>) -> (Vec<SnEntity>, Vec<EntityTable>) {
        let entries = entities.into_iter().map(|e| ((), e)).collect();
        let (entries, tables) = crate::keys::staged(comparer, entries);
        (entries.into_iter().map(|(_, e)| e).collect(), tables)
    }

    #[test]
    fn advance_compares_each_entity_to_its_w_minus_1_predecessors() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let entities = (0..5).map(|i| keyed(i, "distinct title x")).collect();
        let (entities, tables) = staged(&comparer, entities);
        let mut c = ctx();
        let mut window = WindowBuffer::new(comparer.clone(), 3);
        for e in &entities {
            window.advance(&tables, e, &mut c, |c, pair, score| c.emit(pair, score));
        }
        // n = 5, w = 3: pairs = 1 + 2 + 2 + 2 = 7.
        assert_eq!(c.counters().get(COMPARISONS), 7);
        assert_eq!(window.len(), 2, "ring never exceeds w - 1");
        // The ring holds the last two entities, oldest first.
        let ids: Vec<u64> = window.entries().map(|e| e.id().0).collect();
        assert_eq!(ids, vec![3, 4]);
        window.clear();
        assert!(window.is_empty());
    }

    #[test]
    fn primed_entries_compare_against_newcomers_but_not_each_other() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let entities = [0, 1, 10, 11].map(|i| keyed(i, "aaa")).to_vec();
        let (entities, tables) = staged(&comparer, entities);
        let (replicas, originals) = entities.split_at(2);
        let mut c = ctx();
        let mut window = WindowBuffer::new(comparer.clone(), 3);
        assert!(window.is_empty());
        for r in replicas {
            window.prime(&tables, r);
        }
        assert_eq!(
            c.counters().get(COMPARISONS),
            0,
            "priming must not compare replica x replica"
        );
        for o in originals {
            window.advance(&tables, o, &mut c, |c, pair, score| c.emit(pair, score));
        }
        // Original 10: vs both replicas (2). Original 11: vs replica 1
        // and original 10 (2) — replica 0 was evicted.
        assert_eq!(c.counters().get(COMPARISONS), 4);
        assert_eq!(c.output().len(), 4, "identical titles all match");
    }

    #[test]
    fn priming_beyond_capacity_keeps_only_the_last_w_minus_1() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let entities = (0..5).map(|i| keyed(i, "aaa")).collect();
        let (entities, tables) = staged(&comparer, entities);
        let mut window = WindowBuffer::new(comparer.clone(), 3);
        for e in &entities {
            window.prime(&tables, e);
        }
        let ids: Vec<u64> = window.entries().map(|e| e.id().0).collect();
        assert_eq!(ids, vec![3, 4], "only the freshest replicas stay");
    }

    #[test]
    fn matches_flow_through_the_sink() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let entities = vec![
            keyed(1, "abcdefghij"),
            keyed(2, "abcdefghiX"), // sim 0.9 -> match
            keyed(3, "zzzzzzzzzz"), // no match
        ];
        let (entities, tables) = staged(&comparer, entities);
        let mut c = ctx();
        let mut window = WindowBuffer::new(comparer.clone(), 4);
        for e in &entities {
            window.advance(&tables, e, &mut c, |c, pair, score| c.emit(pair, score));
        }
        assert_eq!(c.counters().get(COMPARISONS), 3);
        assert_eq!(c.output().len(), 1);
        assert!((c.output()[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn window_of_one_is_rejected() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let _ = WindowBuffer::new(comparer, 1);
    }
}
