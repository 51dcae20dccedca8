//! Named counters, the MapReduce equivalent of Hadoop's `Counters`.
//!
//! Counters are the measurement backbone of the reproduction: the
//! per-reduce-task `comparisons` counter drives the load-balance
//! figures, and the engine-maintained record counters drive Figure 12
//! (map output size).

use std::collections::BTreeMap;

/// Engine-maintained counter: records consumed by map tasks.
pub const MAP_INPUT_RECORDS: &str = "mr.map.input.records";
/// Engine-maintained counter: key-value pairs emitted by map tasks,
/// i.e. what is shuffled.
pub const MAP_OUTPUT_RECORDS: &str = "mr.map.output.records";
/// Engine-maintained counter, always equal to [`MAP_OUTPUT_RECORDS`]:
/// the engine has no combiner. Kept only because the performance
/// ledger (`benchmark/src/api.rs`) still reads it.
pub const MAP_OUTPUT_RECORDS_PRECOMBINE: &str = "mr.map.output.records.precombine";
/// Engine-maintained counter: side-output records written by map tasks.
pub const MAP_SIDE_OUTPUT_RECORDS: &str = "mr.map.side.records";
/// Engine-maintained counter: key-value pairs consumed by reduce tasks.
pub const REDUCE_INPUT_RECORDS: &str = "mr.reduce.input.records";
/// Engine-maintained counter: reduce groups (reduce function calls).
pub const REDUCE_INPUT_GROUPS: &str = "mr.reduce.input.groups";
/// Engine-maintained counter: records emitted by reduce tasks.
pub const REDUCE_OUTPUT_RECORDS: &str = "mr.reduce.output.records";

/// A set of named monotonically increasing counters.
///
/// Counter names are ordinary strings; a `BTreeMap` keeps iteration
/// deterministic, which matters for reproducible reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counts: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counts.get_mut(name) {
            *v += delta;
        } else {
            self.counts.insert(name.to_string(), delta);
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Merges another counter set into this one (summing values).
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, v) in &other.counts {
            self.add(name, *v);
        }
    }

    /// Iterates `(name, value)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = CounterSet::new();
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.inc("x");
        assert_eq!(c.get("x"), 6);
        assert_eq!(c.get("y"), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = CounterSet::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let mut c = CounterSet::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        c.add("mid", 3);
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn len_and_empty() {
        let mut c = CounterSet::new();
        assert!(c.is_empty());
        c.inc("a");
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }
}
