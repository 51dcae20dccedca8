//! PairRange — pair-based load balancing (paper Section V,
//! Algorithm 2).
//!
//! All comparison pairs are virtually enumerated (column-wise within a
//! block, blocks laid out consecutively via BDM offsets) and the index
//! space `0..P` is cut into `r` near-equal ranges; range `k` *is*
//! reduce task `k`. The map phase sends each entity to exactly the
//! ranges that contain at least one of its pairs; the reduce phase
//! regenerates pair indexes from the entity indexes travelling in the
//! composite keys and evaluates exactly the pairs of its own range.

pub mod enumeration;
pub mod mapper;
pub mod ranges;
pub mod reducer;

use std::sync::Arc;

use mr_engine::engine::Job;

use crate::bdm::BlockDistributionMatrix;
use crate::compare::PairComparer;
use crate::keys::PairRangeKey;

pub use ranges::{RangeIndexer, RangePolicy};

/// Builds the PairRange matching job over the BDM job's annotated side
/// output.
pub fn pair_range_job(
    bdm: Arc<BlockDistributionMatrix>,
    comparer: PairComparer,
    policy: RangePolicy,
    reduce_tasks: usize,
) -> Job<mapper::PairRangeMapper, reducer::PairRangeReducer> {
    Job::builder(
        "er-pair-range",
        mapper::PairRangeMapper::new(Arc::clone(&bdm), policy, &comparer),
        reducer::PairRangeReducer::new(bdm, comparer, policy),
    )
    .reduce_tasks(reduce_tasks)
    .partitioner(PairRangeKey::partitioner())
    .group_by(PairRangeKey::group_cmp())
    .build()
}
