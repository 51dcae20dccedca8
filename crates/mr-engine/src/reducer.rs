//! The reduce side of the programming model.

use crate::counters::CounterSet;

/// Information made available to a reduce task at `setup` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceTaskInfo {
    /// Index of this reduce task (`0..r`).
    pub task_index: usize,
    /// Total number of reduce tasks `r`.
    pub num_reduce_tasks: usize,
    /// Total number of map tasks `m` of the job.
    pub num_map_tasks: usize,
}

/// One reduce group: a maximal run of shuffle-sorted key-value pairs
/// whose keys compare equal under the *grouping* comparator.
///
/// Hadoop semantics preserved deliberately: when the grouping
/// comparator is coarser than the sort order (the key's `Ord`), the
/// *individual* keys within a group differ, and the framework exposes
/// the current key alongside each value. PairRange (Algorithm 2) depends on this —
/// it groups by (range, block) but needs each value's entity index,
/// which travels in the key. [`Group::iter`] yields `(&K, &V)` pairs.
///
/// A group also lends the job's map-task products
/// ([`Mapper::into_product`](crate::mapper::Mapper::into_product)), in
/// map-task order: [`Group::products`].
#[derive(Debug)]
pub struct Group<'a, K, V, P = ()> {
    entries: &'a [(K, V)],
    products: &'a [P],
}

impl<'a, K, V, P> Group<'a, K, V, P> {
    pub(crate) fn new(entries: &'a [(K, V)], products: &'a [P]) -> Self {
        debug_assert!(!entries.is_empty(), "reduce groups are never empty");
        Self { entries, products }
    }

    /// A standalone group for unit-testing reducers outside a job; it
    /// lends no products until [`Group::with_products`].
    ///
    /// # Panics
    /// If `entries` is empty (real groups never are).
    pub fn for_testing(entries: &'a [(K, V)]) -> Self {
        assert!(!entries.is_empty(), "reduce groups are never empty");
        Self::new(entries, &[])
    }

    /// The test group lending `products` as its job's map-task
    /// products.
    pub fn with_products(self, products: &'a [P]) -> Self {
        Self { products, ..self }
    }

    /// The products of the job's map tasks, indexed by map task — the
    /// same slice in every group of every reduce task of the job.
    pub fn products(&self) -> &'a [P] {
        self.products
    }

    /// The group key — by convention the first key of the run (all keys
    /// of the run compare equal under the grouping comparator).
    pub fn key(&self) -> &K {
        &self.entries[0].0
    }

    /// Iterates `(key, value)` pairs in shuffle-sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a K, &'a V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates values only, in shuffle-sorted order.
    pub fn values(&self) -> impl Iterator<Item = &'a V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Groups are never empty, but the method exists for completeness.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Output collector handed to [`Reducer::reduce`].
#[derive(Debug)]
pub struct ReduceContext<KO, VO> {
    pub(crate) info: ReduceTaskInfo,
    pub(crate) out: Vec<(KO, VO)>,
    pub(crate) counters: CounterSet,
}

impl<KO, VO> ReduceContext<KO, VO> {
    pub(crate) fn new(info: ReduceTaskInfo) -> Self {
        Self {
            info,
            out: Vec::new(),
            counters: CounterSet::new(),
        }
    }

    /// A standalone context for unit-testing reducers outside a job.
    pub fn for_testing(info: ReduceTaskInfo) -> Self {
        Self::new(info)
    }

    /// Task info (reduce index, `r`, `m`).
    pub fn info(&self) -> ReduceTaskInfo {
        self.info
    }

    /// Emits a final output record.
    pub fn emit(&mut self, key: KO, value: VO) {
        self.out.push((key, value));
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Records emitted so far (read access for tests of custom
    /// reducers).
    pub fn output(&self) -> &[(KO, VO)] {
        &self.out
    }

    /// Counters recorded so far.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }
}

/// A user-defined reduce function.
///
/// One clone of the reducer runs per reduce task; `setup` mirrors the
/// paper's `reduce_configure(m, r)`.
pub trait Reducer: Clone + Send + Sync {
    /// Intermediate key type (must match the mapper's `KOut`).
    type KIn: Clone + Send + Sync;
    /// Intermediate value type (must match the mapper's `VOut`).
    type VIn: Clone + Send + Sync;
    /// Final output key type.
    type KOut: Clone + Send + Sync;
    /// Final output value type.
    type VOut: Clone + Send + Sync;
    /// The map tasks' product type (must match the mapper's
    /// `Product`), lent to every group ([`Group::products`]).
    type Product: Send + Sync;

    /// Called once per task before the first group.
    fn setup(&mut self, _info: &ReduceTaskInfo) {}

    /// Called once per reduce group.
    fn reduce(
        &mut self,
        group: Group<'_, Self::KIn, Self::VIn, Self::Product>,
        ctx: &mut ReduceContext<Self::KOut, Self::VOut>,
    );

    /// Called once per task after the last group.
    fn finish(&mut self, _ctx: &mut ReduceContext<Self::KOut, Self::VOut>) {}
}

/// A reducer that sums `u64` counts per group, for count-style jobs
/// such as er-sn's sort-key distribution job.
#[derive(Debug)]
pub struct SumReducer<K>(std::marker::PhantomData<fn() -> K>);

// Manual impls: `K` only names the key type, so the reducer itself is
// always cloneable/constructible regardless of `K`'s bounds.
impl<K> Clone for SumReducer<K> {
    fn clone(&self) -> Self {
        SumReducer(std::marker::PhantomData)
    }
}

impl<K> Default for SumReducer<K> {
    fn default() -> Self {
        SumReducer(std::marker::PhantomData)
    }
}

impl<K: Clone + Send + Sync> Reducer for SumReducer<K> {
    type KIn = K;
    type VIn = u64;
    type KOut = K;
    type VOut = u64;
    type Product = ();

    fn reduce(&mut self, group: Group<'_, K, u64>, ctx: &mut ReduceContext<K, u64>) {
        ctx.emit(group.key().clone(), group.values().sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reducer_totals_group_values() {
        let entries = vec![("k", 2u64), ("k", 3), ("k", 5)];
        let mut reducer = SumReducer::<&'static str>::default().clone();
        let mut ctx = ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        });
        reducer.reduce(Group::for_testing(&entries), &mut ctx);
        assert_eq!(ctx.output(), &[("k", 10u64)]);
    }

    #[test]
    fn group_exposes_first_key_and_all_values() {
        let entries = vec![(("a", 1), 10), (("a", 2), 20), (("a", 3), 30)];
        let g: Group<'_, _, _> = Group::for_testing(&entries);
        assert_eq!(g.key(), &("a", 1));
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        let vals: Vec<i32> = g.values().copied().collect();
        assert_eq!(vals, vec![10, 20, 30]);
        // Keys within a coarsely grouped run remain observable:
        let seconds: Vec<i32> = g.iter().map(|(k, _)| k.1).collect();
        assert_eq!(seconds, vec![1, 2, 3]);
    }

    #[test]
    fn reduce_context_collects_output_and_counters() {
        let mut ctx: ReduceContext<String, u64> = ReduceContext::new(ReduceTaskInfo {
            task_index: 1,
            num_reduce_tasks: 4,
            num_map_tasks: 2,
        });
        ctx.emit("k".into(), 9);
        ctx.add_counter("comparisons", 3);
        assert_eq!(ctx.out, vec![("k".to_string(), 9)]);
        assert_eq!(ctx.counters.get("comparisons"), 3);
        assert_eq!(ctx.info().task_index, 1);
    }
}
