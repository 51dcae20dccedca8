//! # er-datagen — deterministic synthetic ER workloads
//!
//! The paper evaluates on two real-world datasets we cannot ship:
//! DS1 (~114 000 product descriptions) and DS2 (~1.4 M CiteSeerX
//! publication records), blocked on the first three letters of the
//! title. Load-balancing behaviour depends only on the *block size
//! distribution* (and entity count), so this crate generates datasets
//! that reproduce the distributional facts the paper reports:
//!
//! * DS1-like: the largest block carries **more than 70 % of all
//!   pairs** (paper §VI-B);
//! * DS2-like: an order of magnitude more entities, with a total pair
//!   count ~2 000× DS1's (paper §VI-C compares average comparisons per
//!   reduce task);
//! * §VI-A robustness workloads: `b = 100` blocks whose sizes follow
//!   `|Φ_k| ∝ e^(−s·k)` for a skew factor `s ≥ 0`.
//!
//! Generators also inject known duplicates (edit-perturbed copies) so
//! match quality can be evaluated against a [`er_core::GoldStandard`].
//! Everything is seeded and reproducible.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod duplicates;
pub mod products;
pub mod publications;
pub mod rng;
pub mod skew;
pub mod vocab;

pub use dataset::{BlockStats, Dataset};
pub use products::{ds1_spec, generate_products};
pub use publications::{ds2_spec, generate_publications};
pub use skew::{exponential_block_sizes, exponential_dataset, zipf_block_sizes};

/// Parameters for the skew-shaped dataset generators.
///
/// The block layout is: one *dominant* block holding
/// `dominant_share · n_entities` entities, with the remaining entities
/// spread over `n_blocks − 1` tail blocks whose sizes follow a Zipf
/// law with exponent `zipf_exponent`. A `dup_rate` fraction of each
/// block's entities are injected duplicates of other entities in the
/// same block (recorded in the gold standard).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Total number of entities to generate.
    pub n_entities: usize,
    /// Number of distinct blocks (3-letter prefixes).
    pub n_blocks: usize,
    /// Fraction of entities in the single largest block.
    pub dominant_share: f64,
    /// Zipf exponent shaping the tail blocks.
    pub zipf_exponent: f64,
    /// Fraction of entities that are injected duplicates.
    pub dup_rate: f64,
    /// RNG seed; equal specs generate identical datasets.
    pub seed: u64,
}

impl DatasetSpec {
    /// Scales the entity count by `factor` (shape-preserving); used to
    /// run paper-shaped experiments at laptop scale.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_entities = ((self.n_entities as f64 * factor).round() as usize).max(4);
        // Keep at least a handful of blocks; shrink the block count
        // sub-linearly so per-block sizes stay meaningful.
        let block_factor = factor.sqrt();
        self.n_blocks = ((self.n_blocks as f64 * block_factor).round() as usize).max(4);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_shape_parameters() {
        let spec = ds1_spec(42).scaled(0.1);
        assert_eq!(spec.n_entities, 11_400);
        assert!(spec.n_blocks >= 4);
        assert_eq!(spec.dominant_share, ds1_spec(42).dominant_share);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = ds1_spec(1).scaled(0.0);
    }
}
