//! # dedupe-mr
//!
//! Load-balanced MapReduce-based entity resolution: a full Rust
//! implementation of *"Load Balancing for MapReduce-based Entity
//! Resolution"* (Kolb, Thor, Rahm; ICDE 2012) — the **BlockSplit** and
//! **PairRange** skew-handling strategies, the **Block Distribution
//! Matrix** preprocessing job, the **Basic** baseline, two-source
//! matching, null-key handling and multi-pass blocking — together with
//! every substrate the paper depends on: an in-process MapReduce
//! runtime, an entity-resolution core (blocking, similarity,
//! matching), the companion paper's Sorted Neighborhood subsystem, an
//! adaptive banded-MinHash (LSH) blocking family whose banded key
//! space rides the same BDM load balancing, and synthetic workload
//! generators.
//!
//! ## One front door: `Runtime` + `Resolver`
//!
//! Every workload runs through one unified session API: a [`Runtime`]
//! owns a persistent worker pool (threads spawned **once**, shared by
//! every subsequent run) and the execution knobs; a [`Resolver`]
//! holds the workload configuration and compiles declarative
//! [`Scenario`] values into multi-stage MapReduce workflows.
//!
//! ```
//! use std::sync::Arc;
//! use dedupe_mr::prelude::*;
//!
//! // Three product offers; two are near-duplicates.
//! let entities: Vec<Ent> = vec![
//!     Arc::new(Entity::new(0, [("title", "canon eos 5d mark iii")])),
//!     Arc::new(Entity::new(1, [("title", "canon eos 5d mark iri")])),
//!     Arc::new(Entity::new(2, [("title", "nikon d800 body only")])),
//! ];
//! let input = partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 2);
//!
//! // Created once; back-to-back runs share its worker pool.
//! let runtime = Runtime::new(
//!     RuntimeConfig::new().with_parallelism(2).with_reduce_tasks(4),
//! );
//! let resolver = Resolver::new(&runtime);
//!
//! // Blocking-based dedup with skew-resistant load balancing...
//! let outcome = resolver
//!     .resolve(
//!         &Scenario::Dedup { strategy: StrategyKind::BlockSplit },
//!         input.clone(),
//!     )
//!     .unwrap();
//! assert_eq!(outcome.result.len(), 1); // the canon pair
//!
//! // ...and Sorted Neighborhood, on the same pool, same session:
//! let sn = resolver
//!     .resolve(&Scenario::sorted_neighborhood(SnStrategy::RepSn), input)
//!     .unwrap();
//! assert_eq!(sn.result.pair_set(), outcome.result.pair_set());
//! ```
//!
//! One configuration surface, one error type ([`ResolveError`]), one
//! outcome shape ([`Outcome`]), and no per-run thread spawning: the
//! scenario compilers (`run_er_in`, `run_sorted_neighborhood_in`, …)
//! the resolver drives run only as stages of a [`Runtime`]-issued
//! workflow.

#![forbid(unsafe_code)]

pub use er_core;
pub use er_datagen;
pub use er_loadbalance;
pub use er_lsh;
pub use er_sn;
pub use mr_engine;

pub mod resolver;

/// The shared execution runtime: [`runtime::Runtime`] (persistent
/// worker pool + engine handle) and [`runtime::RuntimeConfig`] (its
/// pool size and the defaults every session starts from). Re-exported from
/// [`mr_engine::runtime`], where the pool lives.
pub mod runtime {
    pub use mr_engine::runtime::{Runtime, RuntimeConfig};
}

pub use resolver::{
    ConfigError, Outcome, ResolveError, Resolver, Scenario, ScenarioDetails, SourceTagError,
};
pub use runtime::{Runtime, RuntimeConfig};

/// The most common imports for building ER pipelines.
pub mod prelude {
    pub use crate::resolver::{
        ConfigError, Outcome, ResolveError, Resolver, Scenario, ScenarioDetails, SourceTagError,
    };
    pub use er_core::blocking::{
        AttributeBlocking, BlockKey, BlockingFunction, ConstantBlocking, KeyText,
        MultiPassBlocking, PrefixBlocking,
    };
    pub use er_core::sortkey::{AttributeSortKey, ReversedSortKey, SortKey, SortKeyFunction};
    pub use er_core::{
        Entity, EntityId, EntityRef, GoldStandard, MatchPair, MatchResult, MatchRule, Matcher,
        QualityReport, SourceId,
    };
    pub use er_loadbalance::driver::{naive_reference, ErConfig};
    pub use er_loadbalance::two_source::two_source_input;
    pub use er_loadbalance::{
        BlockDistributionMatrix, Ent, RangePolicy, StrategyKind, WorkloadStats, COMPARISONS,
    };
    pub use er_lsh::{
        lsh_candidate_pairs, lsh_oracle, LshBlocking, LshConfig, LshParams, LshRound,
    };
    pub use er_sn::{
        multipass_oracle_comparisons, multipass_sn_oracle, sn_oracle, SnConfig, SnStrategy,
    };
    pub use mr_engine::fault::{FaultKind, FaultPlan, FaultPolicy, TaskError};
    pub use mr_engine::input::{partition_evenly, partition_round_robin, Partitions};
    pub use mr_engine::pool::WorkerPool;
    pub use mr_engine::runtime::{Runtime, RuntimeConfig};
    pub use mr_engine::workflow::{Workflow, WorkflowMetrics};
}
