//! BlockSplit — block-based load balancing (paper Section IV,
//! Algorithm 1).
//!
//! Blocks whose comparison count fits the average reduce workload
//! `P/r` stay whole (one *match task* `k.*`). Larger blocks are split
//! by input partition into `m` sub-blocks, producing match tasks for
//! each sub-block (`k.i`) and each sub-block pair (`k.i×j`), so the
//! block's Cartesian product is preserved exactly. Match tasks are
//! then assigned to reduce tasks greedily in descending size — LPT
//! scheduling, which keeps the makespan within 4/3 of optimal.
//!
//! Over a source-tagged BDM (Appendix I-A) the scheme is the same,
//! with `|Φ_k,R|·|Φ_k,S|` as a block's comparison count and split
//! tasks `k.i×j` only between an R and an S partition.

pub mod assign;
pub mod mapper;
pub mod match_tasks;
pub mod reducer;

use std::sync::Arc;

use mr_engine::engine::Job;

use crate::bdm::BlockDistributionMatrix;
use crate::compare::PairComparer;
use crate::keys::BlockSplitKey;

pub use assign::TaskAssignment;
pub use match_tasks::{create_match_tasks, MatchTask};

/// Builds the BlockSplit matching job over the BDM job's annotated
/// side output, splitting the blocks whose pairs exceed the average
/// reduce workload `P/r` (Algorithm 1).
pub fn block_split_job(
    bdm: Arc<BlockDistributionMatrix>,
    comparer: PairComparer,
    reduce_tasks: usize,
) -> Job<mapper::BlockSplitMapper, reducer::BlockSplitReducer> {
    let two_source = bdm.sources().is_some();
    Job::builder(
        "er-block-split",
        mapper::BlockSplitMapper::new(bdm, &comparer),
        reducer::BlockSplitReducer::new(comparer, two_source),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(BlockSplitKey::partitioner())
    .build()
}
