//! The sliding-window kernel shared by every SN reducer.
//!
//! A [`WindowBuffer`] holds the `w − 1` immediate predecessors (in
//! global sort order) of the next entity, as *owned* `(Keyed,
//! prepared form)` pairs — owned so the buffer can live in reducer
//! state and slide **across** reduce groups: the window jobs group by
//! the full `(partition, key)`, so a reduce task streams one small
//! group per distinct sort key out of the engine's heap merge and
//! never materializes its whole range; only the ring (and the current
//! key run) is resident.
//!
//! [`WindowBuffer::advance`] compares the next entity against every
//! buffered predecessor — exactly the pairs at distance `≤ w − 1` —
//! then admits it, evicting the oldest. RepSN's reducers additionally
//! [`WindowBuffer::prime`] the buffer with boundary replicas so
//! cross-partition pairs are covered *without* comparing replica ×
//! replica (those pairs belong to the predecessor partition).

use std::collections::VecDeque;

use er_core::blocking::BlockKey;
use er_core::result::MatchPair;
use er_core::{MatcherCache, PreparedHandle};
use er_loadbalance::compare::{PairComparer, PairTally, PreparedRef};
use er_loadbalance::Keyed;
use mr_engine::reducer::ReduceContext;

/// Ring buffer of the `w − 1` most recent entities with their
/// prepared handles (cheap to hold: arena ids or `Arc`s all the way
/// down).
#[derive(Debug, Clone)]
pub struct WindowBuffer {
    ring: VecDeque<(Keyed, Option<PreparedHandle>)>,
    capacity: usize,
    /// The constant `⊥` block key all SN comparisons run under.
    block: BlockKey,
}

impl WindowBuffer {
    /// A buffer for window size `window`.
    ///
    /// # Panics
    /// If `window < 2` — a window of one compares nothing.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "a sliding window must span at least 2 slots");
        Self {
            ring: VecDeque::with_capacity(window - 1),
            capacity: window - 1,
            block: BlockKey::bottom(),
        }
    }

    /// Admits `keyed` without comparing it against the buffer — used
    /// to pre-load RepSN boundary replicas (keeping only the last
    /// `w − 1` primed entries, like any admission).
    pub fn prime(&mut self, comparer: &PairComparer, cache: &mut MatcherCache, keyed: &Keyed) {
        let prepared = comparer.prepare_owned(cache, keyed);
        self.push(keyed.clone(), prepared);
    }

    /// Compares `keyed` against every buffered predecessor (counting
    /// comparisons and delivering matches to `sink`), then admits it.
    pub fn advance<KO, VO>(
        &mut self,
        comparer: &PairComparer,
        cache: &mut MatcherCache,
        keyed: &Keyed,
        ctx: &mut ReduceContext<KO, VO>,
        mut sink: impl FnMut(&mut ReduceContext<KO, VO>, MatchPair, f64),
    ) {
        let prepared = comparer.prepare_owned(cache, keyed);
        let next = PreparedRef::from_parts(keyed, prepared.clone());
        let mut tally = PairTally::default();
        for (prev_keyed, prev_prepared) in &self.ring {
            let prev = PreparedRef::from_parts(prev_keyed, prev_prepared.clone());
            if let Some((pair, score)) =
                comparer.match_prepared(cache, &prev, &next, &self.block, &mut tally)
            {
                sink(ctx, pair, score);
            }
        }
        tally.flush(ctx);
        self.push(keyed.clone(), prepared);
    }

    fn push(&mut self, keyed: Keyed, prepared: Option<PreparedHandle>) {
        self.ring.push_back((keyed, prepared));
        if self.ring.len() > self.capacity {
            self.ring.pop_front();
        }
    }

    /// The buffered entities, oldest first — i.e. the last
    /// `min(w − 1, admitted)` entities in admission order. JobSN reads
    /// this at task end to publish the partition's tail candidates.
    pub fn entries(&self) -> impl Iterator<Item = &Keyed> + '_ {
        self.ring.iter().map(|(keyed, _)| keyed)
    }

    /// Number of buffered predecessors.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before anything was admitted.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Drops all buffered entries (the capacity stays).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::bottom_keyed;
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

    fn keyed(id: u64, title: &str) -> Keyed {
        bottom_keyed(Arc::new(Entity::new(id, [("title", title)])))
    }

    #[test]
    fn advance_compares_each_entity_to_its_w_minus_1_predecessors() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let entities: Vec<Keyed> = (0..5).map(|i| keyed(i, "distinct title x")).collect();
        let mut c = ctx();
        let mut window = WindowBuffer::new(3);
        for e in &entities {
            window.advance(&comparer, &mut cache, e, &mut c, |c, pair, score| {
                c.emit(pair, score)
            });
        }
        // n = 5, w = 3: pairs = 1 + 2 + 2 + 2 = 7.
        assert_eq!(c.counters().get(COMPARISONS), 7);
        assert_eq!(window.len(), 2, "ring never exceeds w - 1");
        // The ring holds the last two entities, oldest first.
        let ids: Vec<u64> = window.entries().map(|k| k.entity.id().0).collect();
        assert_eq!(ids, vec![3, 4]);
        window.clear();
        assert!(window.is_empty());
    }

    #[test]
    fn primed_entries_compare_against_newcomers_but_not_each_other() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let replicas: Vec<Keyed> = (0..2).map(|i| keyed(i, "aaa")).collect();
        let originals: Vec<Keyed> = (10..12).map(|i| keyed(i, "aaa")).collect();
        let mut c = ctx();
        let mut window = WindowBuffer::new(3);
        assert!(window.is_empty());
        for r in &replicas {
            window.prime(&comparer, &mut cache, r);
        }
        assert_eq!(
            c.counters().get(COMPARISONS),
            0,
            "priming must not compare replica x replica"
        );
        for o in &originals {
            window.advance(&comparer, &mut cache, o, &mut c, |c, pair, score| {
                c.emit(pair, score)
            });
        }
        // Original 10: vs both replicas (2). Original 11: vs replica 1
        // and original 10 (2) — replica 0 was evicted.
        assert_eq!(c.counters().get(COMPARISONS), 4);
        assert_eq!(c.output().len(), 4, "identical titles all match");
    }

    #[test]
    fn priming_beyond_capacity_keeps_only_the_last_w_minus_1() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let mut window = WindowBuffer::new(3);
        for i in 0..5 {
            window.prime(&comparer, &mut cache, &keyed(i, "aaa"));
        }
        let ids: Vec<u64> = window.entries().map(|k| k.entity.id().0).collect();
        assert_eq!(ids, vec![3, 4], "only the freshest replicas stay");
    }

    #[test]
    fn matches_flow_through_the_sink() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut cache = comparer.new_cache();
        let a = keyed(1, "abcdefghij");
        let b = keyed(2, "abcdefghiX"); // sim 0.9 -> match
        let z = keyed(3, "zzzzzzzzzz"); // no match
        let mut c = ctx();
        let mut window = WindowBuffer::new(4);
        for e in [&a, &b, &z] {
            window.advance(&comparer, &mut cache, e, &mut c, |c, pair, score| {
                c.emit(pair, score)
            });
        }
        assert_eq!(c.counters().get(COMPARISONS), 3);
        assert_eq!(c.output().len(), 1);
        assert!((c.output()[0].1 - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn window_of_one_is_rejected() {
        let _ = WindowBuffer::new(1);
    }
}
