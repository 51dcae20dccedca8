//! # mr-engine — an in-process MapReduce runtime
//!
//! A from-scratch implementation of the MapReduce execution model of
//! Dean & Ghemawat (OSDI 2004) as refined by Hadoop, providing exactly
//! the extension points that "Load Balancing for MapReduce-based Entity
//! Resolution" (Kolb, Thor, Rahm; ICDE 2012) relies on:
//!
//! * user-defined [`Mapper`] and [`Reducer`] functions over key/value
//!   pairs, executed in parallel over `m` map tasks and `r` reduce
//!   tasks;
//! * a [`Partitioner`] (`part`) that may inspect only *part* of a
//!   composite key to route map output to reduce tasks;
//! * a sort order (`comp`) over all keys of a reduce task — the key
//!   type's `Ord`, so composite keys sort by their fields in order;
//! * a grouping comparator (`group`) that may be *coarser* than the
//!   sort order, so a single `reduce` call can observe multiple
//!   distinct keys (the key is exposed per value, Hadoop-style);
//! * map-side *additional output* to a simulated distributed file
//!   system ([`Mapper::Side`]), partition-aligned so a follow-up job
//!   sees the same input partitioning (Algorithm 3 of the paper);
//! * named counters and per-task metrics (records, emitted pairs,
//!   custom counters such as `comparisons`, wall time).
//!
//! The shuffle is **deterministic, fully parallel, and streaming**:
//! every map task partitions and stable-sorts its output buckets on
//! the worker pool; the coordinator only
//! transposes buckets to reduce tasks; and each reduce task streams
//! reduce groups out of a stable k-way heap merge of its runs in
//! map-task order (ties break toward the lower map task), buffering
//! only the current group — never the merged run. Values with equal
//! keys therefore arrive in (map task index, emission order) —
//! the property Hadoop exhibits in practice and that the BlockSplit
//! reducer of the paper exploits — while the reduce-side merge buffers
//! only `O(largest group + m)` records beyond the input runs (no
//! second merged-run copy), measured per task by
//! [`TaskMetrics::peak_group_len`] and
//! [`TaskMetrics::peak_resident_records`]. Determinism holds on a
//! [`WorkerPool`] of any size; see [`engine`] for the full shuffle
//! architecture and [`merge`] for the merge kernels.
//!
//! ```
//! use mr_engine::prelude::*;
//!
//! // Word count: the "hello world" of MapReduce.
//! let mapper = ClosureMapper::new(|_k: &(), line: &String, ctx: &mut MapContext<String, u64, ()>| {
//!     for w in line.split_whitespace() {
//!         ctx.emit(w.to_string(), 1);
//!     }
//! });
//! let reducer = ClosureReducer::new(|group: Group<'_, String, u64>, ctx: &mut ReduceContext<String, u64>| {
//!     let total: u64 = group.values().sum();
//!     ctx.emit(group.key().clone(), total);
//! });
//! let input = partition_evenly(
//!     vec![((), "a b a".to_string()), ((), "b a".to_string())], 2);
//! let out = Job::builder("wordcount", mapper, reducer)
//!     .reduce_tasks(2)
//!     .build()
//!     .run_on(&WorkerPool::new(2), input)
//!     .unwrap();
//! let mut counts = out.into_records();
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

// A generic MapReduce surface is inherently type-heavy: mappers carry
// five type parameters and closures reference them all. Aliasing each
// shape would obscure, not clarify.
#![allow(clippy::type_complexity)]
// `pool` alone erases task-body lifetimes for its persistent threads;
// every other module is safe Rust, and the compiler holds it so.
#![deny(unsafe_code)]

pub mod adapters;
pub mod comparator;
pub mod counters;
pub mod engine;
pub mod error;
pub mod fault;
pub mod input;
pub mod json;
pub mod mapper;
pub mod merge;
pub mod metrics;
pub mod partitioner;
#[allow(unsafe_code)]
pub mod pool;
pub mod reducer;
pub mod runtime;
pub mod spill;
pub mod trace;
pub mod workflow;

pub use adapters::{ClosureMapper, ClosureReducer};
pub use comparator::{natural_order, KeyCmp};
pub use counters::CounterSet;
pub use engine::{Job, JobBuilder, JobOutput};
pub use error::MrError;
pub use fault::{FaultKind, FaultPlan, FaultPolicy, InjectedFault, TaskError};
pub use input::{partition_evenly, partition_round_robin, Partitions};
pub use mapper::{MapContext, MapTaskInfo, Mapper};
pub use merge::{merge_sorted_runs, ClonedRunIter, GroupStream};
pub use metrics::{JobMetrics, TaskKind, TaskMetrics};
pub use partitioner::{FnPartitioner, HashPartitioner, Partitioner};
pub use pool::{BatchTag, PoolStats, WorkerPool};
pub use reducer::{Group, ReduceContext, ReduceTaskInfo, Reducer, SumReducer};
pub use runtime::{Runtime, RuntimeConfig};
pub use trace::{JsonlSink, TraceEvent, TraceEventData, TraceRecorder, TraceReport, TraceSink};
pub use workflow::{Workflow, WorkflowMetrics};

/// Convenience glob-import for downstream crates and examples.
pub mod prelude {
    pub use crate::adapters::{ClosureMapper, ClosureReducer};
    pub use crate::comparator::natural_order;
    pub use crate::counters::CounterSet;
    pub use crate::engine::{Job, JobBuilder, JobOutput};
    pub use crate::error::MrError;
    pub use crate::fault::{FaultKind, FaultPlan, FaultPolicy, TaskError};
    pub use crate::input::{partition_evenly, partition_round_robin, Partitions};
    pub use crate::mapper::{MapContext, MapTaskInfo, Mapper};
    pub use crate::metrics::{JobMetrics, TaskKind, TaskMetrics};
    pub use crate::partitioner::{FnPartitioner, HashPartitioner, Partitioner};
    pub use crate::pool::{PoolStats, WorkerPool};
    pub use crate::reducer::{Group, ReduceContext, ReduceTaskInfo, Reducer, SumReducer};
    pub use crate::runtime::{Runtime, RuntimeConfig};
    pub use crate::trace::{TraceEvent, TraceEventData, TraceRecorder, TraceReport, TraceSink};
    pub use crate::workflow::{Workflow, WorkflowMetrics};
}
