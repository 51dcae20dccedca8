//! # er-core — entity resolution primitives
//!
//! The substrate the ICDE-2012 load-balancing strategies operate on:
//!
//! * an [`entity::Entity`] model (attributed records tagged with a
//!   source, for one- and two-source matching),
//! * [`blocking`] functions that derive blocking keys from attribute
//!   values (prefix blocking — "first three letters of the title" — is
//!   the paper's default; multi-pass blocking is its future-work
//!   extension),
//! * a [`similarity`] suite: the paper's normalized edit distance (a
//!   0.8 threshold on the title), Jaro-Winkler, and token Jaccard,
//! * a threshold [`matcher`] and a deduplicating [`result`] set with
//!   quality metrics against a gold standard, built from reduce tasks'
//!   output by the k-way merge of sorted [`runs`],
//! * an [`arena`] of contiguous slabs for prepared entities, backing
//!   the allocation-free O(b²) compare loop,
//! * the [`pairs`] enumeration arithmetic shared by PairRange and the
//!   analytic workload model,
//! * [`minhash`] signatures and banded LSH primitives (shingle sets,
//!   seeded [`MinHasher`] families, band digests and the banding
//!   S-curve), consumed by the er-lsh blocking family,
//! * [`sortkey`] derivation for Sorted Neighborhood blocking
//!   ([`SortKeyFunction`], consumed by the er-sn crate).

#![forbid(unsafe_code)]

pub mod arena;
pub mod blocking;
pub mod entity;
pub mod matcher;
pub mod minhash;
pub mod pairs;
pub mod result;
pub mod runs;
pub mod similarity;
pub mod sortkey;

pub use arena::{PreparedArena, PreparedHandle, PreparedId};
pub use blocking::{BlockKey, BlockingFunction, ConstantBlocking, PrefixBlocking};
pub use entity::{Entity, EntityId, EntityRef, SourceId};
pub use matcher::{ArenaBuilder, MatchRule, Matcher, MatcherCache, PreparedColumn, PreparedEntity};
pub use minhash::{
    band_hash, banding_probability, estimate_jaccard, shingle_hashes, MinHasher, ShingleScheme,
};
pub use result::{GoldStandard, MatchPair, MatchResult, QualityReport};
pub use similarity::{
    Jaccard, JaroWinkler, NormalizedLevenshtein, Prepared, PreparedView, Similarity, Sketch,
};
pub use sortkey::{AttributeSortKey, SortKey, SortKeyFunction};
