//! # er-sn — Sorted Neighborhood blocking on MapReduce
//!
//! The second major ER workload class, alongside the disjoint-block
//! strategies of er-loadbalance: *Sorted Neighborhood* (Hernández &
//! Stolfo) derives a **sort key** per entity, totally orders the
//! dataset by it, and compares every pair within a sliding window of
//! size `w`. Mapped onto MapReduce following Kolb, Thor & Rahm's
//! *Parallel Sorted Neighborhood Blocking with MapReduce*:
//!
//! 1. **Sorted runs** ([`runs`]) — every map task derives its
//!    entities' sort keys into one flat key column, prepares each
//!    entity once, and sorts its own `(key head, record)` column heads
//!    first; the column, the key text and the prepared entities are the
//!    task's product, lent to every reduce task. SN's global order is
//!    `(sort key, map task, record index)`, so the runs fix it without a
//!    shuffle. Entities without a sort key collate first, under the
//!    empty key.
//! 2. **Key ranges** ([`SnRanges`]) — each reduce task cuts global
//!    ranks `0..n` into `r` contiguous ranges of equal *window-pair*
//!    load: the entity at rank `j` closes `min(j, w − 1)` pairs, so
//!    the cuts depend on `(n, w, r)` alone (PairRange's even split of
//!    the pair index space, applied to SN's band of pairs). No key text
//!    or histogram is needed, and a heavy tie of equal sort keys is
//!    split across ranges like any other run of ranks.
//! 3. **Window tasks** ([`repsn`]) — reduce task `q`, reached by one
//!    trigger record, finds the cuts of its range in every run by exact
//!    multisequence selection and merges the slices between them in
//!    global order; a `w`-sized ring buffer ([`window::WindowBuffer`])
//!    slides over the merge, so only `w − 1` entities are in the compare
//!    columns, scoring pairs on the entities the map tasks prepared
//!    (`er_loadbalance::compare`).
//! 4. **Boundary handling by replication** (RepSN) — each range task
//!    first reads the `w − 1` entities before its start out of the
//!    runs, primes its window with them and never compares replica ×
//!    replica, keeping the output duplicate-free. One job, exactly
//!    `min(w − 1, start)` replicas per range — however many map tasks —
//!    and nothing shipped for them; exact on every range layout, thin
//!    and empty ranges included. The paper's second-job alternative is
//!    not implemented ([`SnStrategy`] says why).
//!
//! All drivers execute their stages through the shared
//! [`mr_engine::workflow::Workflow`] layer (identical-partitioning
//! invariant enforced, per-stage metrics rolled into a
//! `WorkflowMetrics`), and [`multipass`] composes the same stages:
//! several sort keys (e.g. title and reversed title), union of window
//! pair sets, each pair compared exactly once globally via a
//! first-pass-wins dedup gate. Two-source linkage is a blocking
//! scenario (er-loadbalance's source-tagged BDM), not an SN one.
//!
//! The determinism contract matches the rest of the workspace: the
//! match output is byte-identical at every parallelism and equal — as
//! a pair set, with exactly one comparison per window pair — to the
//! single-machine oracle [`driver::sn_oracle`], at every partition
//! count.

#![forbid(unsafe_code)]

pub mod driver;
pub mod keys;
pub mod multipass;
pub mod repsn;
pub mod runs;
pub mod window;

pub use driver::{
    oracle_comparisons, run_sn_stages, run_sorted_neighborhood_in, sn_oracle, SnConfig, SnStages,
    SnStrategy,
};
pub use keys::SnRanges;
pub use multipass::{
    multipass_oracle_comparisons, multipass_sn_oracle, run_multipass_sn_in, window_pair_set,
    MultiPassSnStages, SnPassReport,
};
pub use window::WindowBuffer;

/// Counter: entities without a derivable sort key (routed under the
/// empty key, at the front of the global order — never dropped
/// silently).
pub const NULL_SORT_KEYS: &str = "er.sn.null_sort_keys";

/// Counter: boundary replicas RepSN's range tasks prime their windows
/// with.
pub const REPLICAS: &str = "er.sn.replicas";
