//! Per-task and per-job execution metrics.
//!
//! They make the real in-process execution observable: wall time,
//! records and custom counters per task, which the per-task workloads
//! of `analyze()` can be checked against.

use std::time::Duration;

use crate::counters::{self, CounterSet};

/// Whether a task ran in the map or reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A map task (one per input partition).
    Map,
    /// A reduce task (one per configured reduce partition).
    Reduce,
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Map => write!(f, "map"),
            TaskKind::Reduce => write!(f, "reduce"),
        }
    }
}

/// Metrics for a single executed task.
#[derive(Debug, Clone)]
pub struct TaskMetrics {
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its phase (`0..m` or `0..r`).
    pub index: usize,
    /// All counters touched by this task, including the engine's
    /// record counts: [`counters::MAP_INPUT_RECORDS`] and
    /// [`counters::MAP_OUTPUT_RECORDS`] (post-combine) for a map task,
    /// [`counters::REDUCE_INPUT_RECORDS`] and
    /// [`counters::REDUCE_OUTPUT_RECORDS`] for a reduce task.
    pub counters: CounterSet,
    /// Wall-clock time of the task body (excludes scheduling waits).
    pub wall: Duration,
    /// Largest reduce group this task buffered (records). Reduce tasks
    /// only; zero for map tasks.
    pub peak_group_len: u64,
    /// Peak records simultaneously resident in this task's streaming
    /// machinery. For **reduce** tasks: the current group buffer plus
    /// one buffered head per unexhausted run — the *extra* buffering
    /// beyond the input runs themselves (whose inline storage lives
    /// until the task ends); the pre-streaming materialized merge
    /// held a full second copy, sitting at the task's
    /// [`counters::REDUCE_INPUT_RECORDS`] here. For
    /// **map** tasks: the high-water mark of unsorted records in the
    /// spiller's open bucket set — bounded by the job's spill
    /// threshold when one is configured, equal to the task's full
    /// post-map output when not.
    pub peak_resident_records: u64,
    /// Sorted runs this map task sealed because its open bucket set
    /// crossed the spill threshold (the final flush is not counted, so
    /// an unspilled map task reports zero). Always zero for reduce
    /// tasks.
    pub spilled_runs: u64,
    /// Attempt number that produced this task's output (1 = the first
    /// attempt succeeded). Attempts run one after another and only a
    /// caught panic starts the next, so `attempts − 1` is the task's
    /// failed-and-retried attempt count — the one fault accounting
    /// [`JobMetrics::tasks_retried`] sums. Deterministic under a
    /// deterministic [`FaultPlan`](crate::fault::FaultPlan).
    pub attempts: u32,
}

impl TaskMetrics {
    /// Value of a named counter for this task.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }
}

/// Metrics for one completed MapReduce job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub job_name: String,
    /// One entry per map task, in task order.
    pub map_tasks: Vec<TaskMetrics>,
    /// One entry per reduce task, in task order.
    pub reduce_tasks: Vec<TaskMetrics>,
    /// Aggregated counters over all tasks.
    pub counters: CounterSet,
    /// Coordinator-thread time spent in the shuffle between the map
    /// and reduce phases. With map-side sorted runs and reduce-side
    /// merging this is only the bucket transpose — sorting never runs
    /// on the coordinator (the merge cost shows up in reduce-task
    /// `wall` instead).
    pub shuffle_wall: Duration,
    /// Wall-clock duration of the whole job on the local worker pool.
    pub wall: Duration,
}

impl JobMetrics {
    /// Total key-value pairs emitted by the map phase (post-combine).
    ///
    /// This is the quantity plotted in the paper's Figure 12.
    pub fn map_output_records(&self) -> u64 {
        self.counters.get(counters::MAP_OUTPUT_RECORDS)
    }

    /// Total records consumed by map tasks.
    pub fn map_input_records(&self) -> u64 {
        self.counters.get(counters::MAP_INPUT_RECORDS)
    }

    /// Per-reduce-task values of an arbitrary counter, in task order.
    ///
    /// `per_reduce_counter("comparisons")` yields the reduce workload
    /// distribution that the paper's load-balancing strategies aim to
    /// flatten.
    pub fn per_reduce_counter(&self, name: &str) -> Vec<u64> {
        self.reduce_tasks.iter().map(|t| t.counter(name)).collect()
    }

    /// Largest reduce group any reduce task buffered, in records —
    /// the dominant term of the streaming reduce path's working set.
    pub fn peak_group_len(&self) -> u64 {
        self.reduce_tasks
            .iter()
            .map(|t| t.peak_group_len)
            .max()
            .unwrap_or(0)
    }

    /// Worst per-reduce-task peak of records resident in the merge +
    /// group machinery (current group buffer + buffered run heads).
    pub fn peak_resident_records(&self) -> u64 {
        self.reduce_tasks
            .iter()
            .map(|t| t.peak_resident_records)
            .max()
            .unwrap_or(0)
    }

    /// Worst per-**map**-task peak of unsorted records resident in the
    /// spiller's open bucket set — the map-side twin of
    /// [`JobMetrics::peak_resident_records`]. With a spill threshold
    /// configured this is bounded by the threshold; without one it
    /// equals the largest map task's post-map output (the legacy
    /// fully-buffered behavior). Invariant under parallelism, like
    /// every per-task gauge.
    pub fn map_peak_resident_records(&self) -> u64 {
        self.map_tasks
            .iter()
            .map(|t| t.peak_resident_records)
            .max()
            .unwrap_or(0)
    }

    /// Total sorted runs sealed by threshold-triggered spills across
    /// all map tasks; zero when no task ever crossed the spill
    /// threshold (including the unspilled `None` configuration).
    pub fn spilled_runs(&self) -> u64 {
        self.map_tasks.iter().map(|t| t.spilled_runs).sum()
    }

    /// Job-level memory ratio of the reduce phase's merge buffering:
    /// `Σ peak_resident_records / Σ REDUCE_INPUT_RECORDS` over reduce
    /// tasks —
    /// the size of the merge machinery's working set relative to the
    /// second full copy the materialized design allocated.
    ///
    /// The materialized-merge design this engine replaced pins every
    /// task at `peak ≈ input`, i.e. a ratio of ~1.0; the
    /// streaming path buffers only the current group plus `m` run
    /// heads, so the ratio tracks (largest group / task input) and
    /// drops well below 1 on multi-group workloads. Returns 1.0 for
    /// jobs with no reduce input (vacuously "at the bound").
    pub fn peak_resident_fraction(&self) -> f64 {
        let total_in: u64 = self
            .reduce_tasks
            .iter()
            .map(|t| t.counter(counters::REDUCE_INPUT_RECORDS))
            .sum();
        if total_in == 0 {
            return 1.0;
        }
        let total_peak: u64 = self
            .reduce_tasks
            .iter()
            .map(|t| t.peak_resident_records)
            .sum();
        total_peak as f64 / total_in as f64
    }

    /// Task attempts that panicked and were re-executed under the
    /// job's [`FaultPolicy`](crate::fault::FaultPolicy) retry budget:
    /// `Σ (attempts − 1)` over map and reduce tasks. A job that
    /// returned metrics retried every failure, so this is also its
    /// count of failed attempts.
    pub fn tasks_retried(&self) -> u64 {
        self.map_tasks
            .iter()
            .chain(&self.reduce_tasks)
            .map(|t| u64::from(t.attempts.saturating_sub(1)))
            .sum()
    }

    /// Max/mean ratio of a per-reduce-task counter: 1.0 is a perfect
    /// balance, large values indicate skew.
    pub fn reduce_imbalance(&self, name: &str) -> f64 {
        let loads = self.per_reduce_counter(name);
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = loads.iter().sum();
        if sum == 0 || loads.is_empty() {
            return 1.0;
        }
        let mean = sum as f64 / loads.len() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(kind: TaskKind, index: usize, cmp: u64) -> TaskMetrics {
        let mut counters = CounterSet::new();
        counters.add("comparisons", cmp);
        TaskMetrics {
            kind,
            index,
            counters,
            wall: Duration::from_millis(1),
            peak_group_len: 0,
            peak_resident_records: 0,
            spilled_runs: 0,
            attempts: 1,
        }
    }

    fn job(loads: &[u64]) -> JobMetrics {
        JobMetrics {
            job_name: "t".into(),
            map_tasks: vec![],
            reduce_tasks: loads
                .iter()
                .enumerate()
                .map(|(i, &l)| task(TaskKind::Reduce, i, l))
                .collect(),
            counters: CounterSet::new(),
            shuffle_wall: Duration::ZERO,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn per_reduce_counter_orders_by_task() {
        let j = job(&[5, 3, 8]);
        assert_eq!(j.per_reduce_counter("comparisons"), vec![5, 3, 8]);
    }

    #[test]
    fn imbalance_of_uniform_load_is_one() {
        let j = job(&[4, 4, 4, 4]);
        assert!((j.reduce_imbalance("comparisons") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        // One task does all the work among four: max/mean = 4.
        let j = job(&[12, 0, 0, 0]);
        assert!((j.reduce_imbalance("comparisons") - 4.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_empty_or_zero_load_is_one() {
        let j = job(&[0, 0]);
        assert_eq!(j.reduce_imbalance("comparisons"), 1.0);
        let j = job(&[]);
        assert_eq!(j.reduce_imbalance("comparisons"), 1.0);
    }

    #[test]
    fn peak_gauges_aggregate_as_maxima_and_ratio() {
        let mut j = job(&[0, 0, 0]);
        for (t, (input, group, resident)) in
            j.reduce_tasks
                .iter_mut()
                .zip([(100u64, 10u64, 14u64), (50, 40, 44), (50, 5, 9)])
        {
            t.counters.add(counters::REDUCE_INPUT_RECORDS, input);
            t.peak_group_len = group;
            t.peak_resident_records = resident;
        }
        assert_eq!(j.peak_group_len(), 40);
        assert_eq!(j.peak_resident_records(), 44);
        // (14 + 44 + 9) / (100 + 50 + 50)
        assert!((j.peak_resident_fraction() - 67.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn peak_gauges_of_an_empty_job_are_neutral() {
        let j = job(&[]);
        assert_eq!(j.peak_group_len(), 0);
        assert_eq!(j.peak_resident_records(), 0);
        assert_eq!(j.peak_resident_fraction(), 1.0);
        assert_eq!(j.map_peak_resident_records(), 0);
        assert_eq!(j.spilled_runs(), 0);
    }

    #[test]
    fn map_gauges_aggregate_as_max_and_sum() {
        let mut j = job(&[0]);
        j.map_tasks = (0..3).map(|i| task(TaskKind::Map, i, 0)).collect();
        for (t, (resident, spilled)) in j.map_tasks.iter_mut().zip([(12u64, 3u64), (40, 0), (7, 5)])
        {
            t.peak_resident_records = resident;
            t.spilled_runs = spilled;
        }
        assert_eq!(j.map_peak_resident_records(), 40, "max over map tasks");
        assert_eq!(j.spilled_runs(), 8, "sum over map tasks");
        // Reduce-side gauges must not pick up map-task values.
        assert_eq!(j.peak_resident_records(), 0);
    }

    #[test]
    fn retries_derive_from_task_attempts() {
        let mut j = job(&[0]);
        j.map_tasks = (0..2).map(|i| task(TaskKind::Map, i, 0)).collect();
        j.map_tasks[1].attempts = 3;
        j.reduce_tasks[0].attempts = 2;
        // Map attempts [1, 3] and reduce attempts [2]: 0 + 2 + 1.
        assert_eq!(j.tasks_retried(), 3);
        assert_eq!(job(&[0, 0]).tasks_retried(), 0, "first attempts only");
    }

    #[test]
    fn task_kind_display() {
        assert_eq!(TaskKind::Map.to_string(), "map");
        assert_eq!(TaskKind::Reduce.to_string(), "reduce");
    }
}
