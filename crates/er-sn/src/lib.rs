//! # er-sn — Sorted Neighborhood blocking on MapReduce
//!
//! The second major ER workload class, alongside the disjoint-block
//! strategies of er-loadbalance: *Sorted Neighborhood* (Hernández &
//! Stolfo) derives a **sort key** per entity, totally orders the
//! dataset by it, and compares every pair within a sliding window of
//! size `w`. Mapped onto MapReduce following Kolb, Thor & Rahm's
//! *Parallel Sorted Neighborhood Blocking with MapReduce*:
//!
//! 1. **Distribution job** ([`sample`]) — derives each entity's sort
//!    key, side-writes the entity (the annotated input of the matching
//!    job, mirroring the BDM job's `Π'ᵢ` pattern) and emits the key
//!    with the entity's `(map task, record index)`. One reduce task —
//!    its heap merge is the global sort — numbers the entities
//!    `0, 1, …` in `(sort key, map task, record index)` order, each
//!    entity's global *position*, and writes every position back; the
//!    driver scatters them into the side output. Entities without a
//!    sort key collate first, under the empty key.
//! 2. **Key ranges** ([`SnRanges`]) — the driver cuts positions
//!    `0..n` into `r` contiguous ranges of equal *window-pair* load:
//!    the entity at position `j` closes `min(j, w − 1)` pairs, so the
//!    cuts depend on `(n, w, r)` alone (PairRange's even split of the
//!    pair index space, applied to SN's band of pairs). No key text or
//!    histogram is needed, and a heavy tie of equal sort keys is split
//!    across ranges like any other run of positions.
//! 3. **Window job** — a composite-key mapper emits
//!    `(partition, position)`, eight pointer-free bytes, so each
//!    reduce task owns one contiguous key range, streamed by the
//!    engine's heap merge one entity per group (grouping == sorting —
//!    the range is never materialized, and no key text is compared);
//!    the reducer carries a `w`-sized ring buffer
//!    ([`window::WindowBuffer`]) *across* groups, so only `w − 1`
//!    entities are resident, scoring pairs on the entities its map
//!    tasks prepared (`er_loadbalance::compare`).
//! 4. **Boundary handling**, one of two strategies
//!    ([`SnStrategy`]):
//!    * [`jobsn`] — **JobSN**: the window job publishes each range's
//!      first/last `w − 1` entities; a second, tiny MR job compares
//!      the pairs straddling range boundaries. Exact even for thin and
//!      empty ranges.
//!    * [`repsn`] — **RepSN**: the map phase replicates the entities
//!      at the `w − 1` positions before every range's start to that
//!      range; the reducer primes its window with them and never
//!      compares replica × replica, keeping the output duplicate-free.
//!      One job, exactly `min(w − 1, start)` replicas per range —
//!      however many map tasks — exact on every range layout.
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
//! count and under both strategies.

#![forbid(unsafe_code)]

pub mod driver;
pub mod jobsn;
pub mod keys;
pub mod multipass;
pub mod repsn;
pub mod sample;
pub mod window;

pub use driver::{
    oracle_comparisons, run_sn_stages, run_sorted_neighborhood_in, sn_oracle, SnConfig, SnStages,
    SnStrategy,
};
pub use keys::{BoundaryKey, BoundarySide, SnEntity, SnKey, SnRanges};
pub use multipass::{
    multipass_oracle_comparisons, multipass_sn_oracle, run_multipass_sn_in, window_pair_set,
    MultiPassSnStages, SnPassReport,
};
pub use window::WindowBuffer;

/// Counter: entities without a derivable sort key (routed under the
/// empty key, at the front of the global order — never dropped
/// silently).
pub const NULL_SORT_KEYS: &str = "er.sn.null_sort_keys";

/// Counter: boundary replicas shipped by RepSN's map phase.
pub const REPLICAS: &str = "er.sn.replicas";

/// Counter: original (non-replica) entities per key range, recorded by
/// the matching reducers — the fill levels JobSN's boundary assembly
/// and the balance stats read.
pub const PARTITION_ENTITIES: &str = "er.sn.partition_entities";
