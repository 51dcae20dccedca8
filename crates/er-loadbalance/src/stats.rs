//! Workload statistics extracted from executed jobs.

use mr_engine::metrics::JobMetrics;

use crate::{StrategyKind, COMPARISONS};

/// Summary of one matching job's workload distribution.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// The strategy that produced the workload.
    pub strategy: StrategyKind,
    /// Entities read by the map phase.
    pub map_input_records: u64,
    /// Key-value pairs emitted by the map phase — Figure 12's metric.
    pub map_output_records: u64,
    /// Comparisons per reduce task, in task order.
    pub reduce_comparisons: Vec<u64>,
}

impl WorkloadStats {
    /// Extracts stats from a matching job's metrics.
    pub fn from_metrics(strategy: StrategyKind, metrics: &JobMetrics) -> Self {
        Self {
            strategy,
            map_input_records: metrics.map_input_records(),
            map_output_records: metrics.map_output_records(),
            reduce_comparisons: metrics.per_reduce_counter(COMPARISONS),
        }
    }

    /// Total comparisons across reduce tasks.
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_comparisons.iter().sum()
    }

    /// Largest reduce-task comparison load.
    pub fn max_comparisons(&self) -> u64 {
        self.reduce_comparisons.iter().copied().max().unwrap_or(0)
    }

    /// Max/mean comparison load (1.0 = perfect balance). Reduce tasks
    /// with zero load still count toward the mean — an idle task is
    /// precisely the waste the paper's strategies eliminate.
    pub fn imbalance(&self) -> f64 {
        if self.reduce_comparisons.is_empty() {
            return 1.0;
        }
        let total = self.total_comparisons();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.reduce_comparisons.len() as f64;
        self.max_comparisons() as f64 / mean
    }

    /// Average number of replicas emitted per input entity (1.0 for
    /// Basic; BlockSplit and PairRange replicate split-block/
    /// multi-range entities).
    pub fn replication_factor(&self) -> f64 {
        if self.map_input_records == 0 {
            return 0.0;
        }
        self.map_output_records as f64 / self.map_input_records as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_er_inline, ErConfig};
    use crate::running_example;

    fn stats_for(strategy: StrategyKind) -> WorkloadStats {
        let config = ErConfig::new(strategy)
            .with_blocking(running_example::blocking())
            .with_reduce_tasks(3);
        let stages = run_er_inline(running_example::entity_partitions(), &config);
        WorkloadStats::from_metrics(strategy, &stages.match_metrics)
    }

    #[test]
    fn basic_replication_factor_is_one() {
        let s = stats_for(StrategyKind::Basic);
        assert_eq!(s.map_output_records, 14);
        assert!((s.replication_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_split_emits_19_pairs_on_the_example() {
        let s = stats_for(StrategyKind::BlockSplit);
        assert_eq!(s.map_output_records, 19, "paper: 19 KV pairs");
        assert!(s.replication_factor() > 1.0);
    }

    #[test]
    fn pair_range_emits_18_pairs_on_the_example() {
        let s = stats_for(StrategyKind::PairRange);
        assert_eq!(s.map_output_records, 18, "Figure 7 dataflow");
    }

    #[test]
    fn imbalance_reflects_balance_quality() {
        let balanced = stats_for(StrategyKind::PairRange);
        assert!(balanced.imbalance() < 1.1, "7/7/6 is near-perfect");
        assert_eq!(balanced.total_comparisons(), 20);
        assert_eq!(balanced.max_comparisons(), 7);
    }

    #[test]
    fn degenerate_stats() {
        let s = WorkloadStats {
            strategy: StrategyKind::Basic,
            map_input_records: 0,
            map_output_records: 0,
            reduce_comparisons: vec![],
        };
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.replication_factor(), 0.0);
        assert_eq!(s.max_comparisons(), 0);
    }
}
