//! Map-side spill-to-runs: bounding the map phase's resident set.
//!
//! Historically each map task buffered its *entire* output in `r`
//! partition buckets before sorting — the one remaining
//! unbounded-memory phase after the reduce side went streaming. The
//! `MapSpiller` closes that gap, mirroring Hadoop's spill files:
//! map output is partitioned into an **open bucket set** as it is
//! emitted, and whenever the open records cross the configured
//! [`spill threshold`](crate::engine::JobBuilder::spill_threshold)
//! the whole bucket set is **sealed** — each non-empty bucket is
//! stable-sorted by the key's `Ord` and appended as one immutable
//! sorted run for its reduce task. A map task therefore holds at most
//! `threshold` unsorted records plus the sealed runs' storage; the
//! engine's shuffle hands each reduce task the flattened
//! `m × (runs per task)` run list, which the k-way
//! [`GroupStream`](crate::merge::GroupStream) merge consumes exactly
//! like the single-run-per-task layout.
//!
//! # Determinism across thresholds
//!
//! The reduce input — and so the output — is byte-identical at *any*
//! threshold (including `None`, the unspilled legacy path):
//!
//! * runs are flattened in (map task, seal order) — seal `s` contains
//!   only records emitted before every record of seal `s+1`, and the
//!   merge breaks ties toward the lower run index;
//! * within a seal the sort is stable, preserving emission order;
//!
//! so equal keys still arrive in (map task, emission order) — the
//! engine-wide contract. A seal only sorts and never merges records,
//! so every reduce task sees the same records in the same order
//! whatever the threshold.

use crate::error::MrError;
use crate::partitioner::Partitioner;
use crate::trace::{SpillTrace, TraceEventData};

/// What a finished map task hands back to the engine.
pub(crate) struct SpillResult<K, V> {
    /// Sealed sorted runs per reduce task, in seal order. Empty
    /// buckets contribute no run.
    pub runs: Vec<Vec<Vec<(K, V)>>>,
    /// Runs sealed because the open set crossed the threshold; the
    /// final flush is not counted, so an unspilled task reports zero.
    pub spilled_runs: u64,
    /// High-water mark of unsorted records simultaneously resident in
    /// the open bucket set — the map-side twin of the reduce side's
    /// `peak_resident_records` gauge. Bounded by the threshold when
    /// one is set.
    pub peak_open_records: u64,
}

/// Per-map-task spill machinery: partitions records into an open
/// bucket set and seals it into immutable sorted runs whenever the
/// configured record threshold is crossed (and once more at
/// [`MapSpiller::finish`]).
pub(crate) struct MapSpiller<'j, K, V> {
    partitioner: &'j dyn Partitioner<K>,
    num_reduce_tasks: usize,
    /// Seal the open set once it holds this many records; `None`
    /// reproduces the unspilled single-run-per-bucket layout exactly.
    threshold: Option<usize>,
    open: Vec<Vec<(K, V)>>,
    open_records: usize,
    sealed: Vec<Vec<Vec<(K, V)>>>,
    spilled_runs: u64,
    peak_open_records: usize,
    /// Trace context for threshold-triggered seals; `None` (the
    /// default, and always when no sink is attached) emits nothing.
    trace: Option<SpillTrace>,
}

impl<'j, K: Ord, V> MapSpiller<'j, K, V> {
    pub(crate) fn new(
        partitioner: &'j dyn Partitioner<K>,
        num_reduce_tasks: usize,
        threshold: Option<usize>,
    ) -> Self {
        Self {
            partitioner,
            num_reduce_tasks,
            threshold,
            open: (0..num_reduce_tasks).map(|_| Vec::new()).collect(),
            open_records: 0,
            sealed: (0..num_reduce_tasks).map(|_| Vec::new()).collect(),
            spilled_runs: 0,
            peak_open_records: 0,
            trace: None,
        }
    }

    /// Attaches the trace context threshold-triggered seals report
    /// through. The engine passes `None` unless a sink is attached, so
    /// the untraced path never pays for the context's job-name clone.
    pub(crate) fn with_trace(mut self, trace: Option<SpillTrace>) -> Self {
        self.trace = trace;
        self
    }

    /// Routes one emitted record into its open bucket, sealing the
    /// bucket set if the threshold is now reached.
    pub(crate) fn push(&mut self, key: K, value: V) -> Result<(), MrError> {
        let p = self.partitioner.partition(&key, self.num_reduce_tasks);
        if p >= self.num_reduce_tasks {
            return Err(MrError::PartitionOutOfRange {
                got: p,
                num_reduce_tasks: self.num_reduce_tasks,
            });
        }
        self.open[p].push((key, value));
        self.open_records += 1;
        self.peak_open_records = self.peak_open_records.max(self.open_records);
        if self.threshold.is_some_and(|t| self.open_records >= t) {
            self.seal(true);
        }
        Ok(())
    }

    /// Seals the whole open bucket set: every non-empty bucket is
    /// stable-sorted and appended as one immutable run for its reduce
    /// task.
    fn seal(&mut self, threshold_triggered: bool) {
        if self.open_records == 0 {
            return;
        }
        for (j, bucket) in self.open.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut run = std::mem::take(bucket);
            // Stable, so equal keys keep emission order within the
            // seal — one third of the (map task, seal, emission)
            // determinism contract.
            run.sort_by(|a, b| a.0.cmp(&b.0));
            if threshold_triggered {
                self.spilled_runs += 1;
                // Emitted exactly where the `spilled_runs` gauge
                // increments, so trace count == gauge by construction.
                if let Some(t) = &self.trace {
                    t.tracer
                        .emit_with(t.slot, || TraceEventData::SpillRunSealed {
                            job: t.job.clone(),
                            task: t.task,
                            reduce_task: j,
                            records: run.len(),
                        });
                }
            }
            self.sealed[j].push(run);
        }
        self.open_records = 0;
    }

    /// Flushes whatever is still open (not counted as spilled — an
    /// unspilled task ends with exactly one run per non-empty bucket)
    /// and returns the sealed runs plus the task's spill gauges.
    pub(crate) fn finish(mut self) -> SpillResult<K, V> {
        self.seal(false);
        SpillResult {
            runs: self.sealed,
            spilled_runs: self.spilled_runs,
            peak_open_records: self.peak_open_records as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{FnPartitioner, HashPartitioner};

    fn spill_all(
        records: &[(u32, u64)],
        r: usize,
        threshold: Option<usize>,
    ) -> SpillResult<u32, u64> {
        let part = FnPartitioner::new(|k: &u32, r: usize| (*k as usize) % r);
        let mut spiller = MapSpiller::new(&part, r, threshold);
        for &(k, v) in records {
            spiller.push(k, v).unwrap();
        }
        spiller.finish()
    }

    /// Flattens a reduce task's runs through the reference merge — the
    /// byte-equivalence oracle against the unspilled layout.
    fn merged(result: SpillResult<u32, u64>, j: usize) -> Vec<(u32, u64)> {
        crate::merge::merge_sorted_runs(result.runs[j].clone())
    }

    #[test]
    fn no_threshold_reproduces_single_run_per_bucket() {
        let records: Vec<(u32, u64)> = (0..10).map(|i| (i % 4, i as u64)).collect();
        let out = spill_all(&records, 2, None);
        assert_eq!(out.spilled_runs, 0);
        assert_eq!(out.peak_open_records, 10);
        for runs in &out.runs {
            assert_eq!(runs.len(), 1, "one flush run per non-empty bucket");
        }
    }

    #[test]
    fn threshold_of_one_seals_every_record() {
        let records: Vec<(u32, u64)> = (0..6).map(|i| (i % 2, i as u64)).collect();
        let out = spill_all(&records, 2, Some(1));
        assert_eq!(out.spilled_runs, 6, "each record seals its own run");
        assert_eq!(out.peak_open_records, 1);
    }

    #[test]
    fn threshold_above_input_never_spills() {
        let records: Vec<(u32, u64)> = (0..5).map(|i| (i, i as u64)).collect();
        let out = spill_all(&records, 3, Some(100));
        assert_eq!(out.spilled_runs, 0);
        assert_eq!(out.peak_open_records, 5);
    }

    #[test]
    fn merged_runs_are_byte_identical_across_thresholds() {
        // Duplicate keys with distinct values: any stability drift
        // between seals changes the merged byte sequence.
        let records: Vec<(u32, u64)> = (0..40).map(|i| (i % 5, i as u64)).collect();
        let reference: Vec<Vec<(u32, u64)>> = (0..3)
            .map(|j| merged(spill_all(&records, 3, None), j))
            .collect();
        for threshold in [1usize, 2, 3, 7, 39, 40, 1000] {
            for (j, expected) in reference.iter().enumerate() {
                assert_eq!(
                    &merged(spill_all(&records, 3, Some(threshold)), j),
                    expected,
                    "threshold {threshold}, reduce task {j}"
                );
            }
        }
    }

    #[test]
    fn open_set_stays_bounded_by_the_threshold() {
        let records: Vec<(u32, u64)> = (0..100).map(|i| (i % 7, i as u64)).collect();
        for threshold in [1usize, 4, 10] {
            let out = spill_all(&records, 4, Some(threshold));
            assert!(
                out.peak_open_records <= threshold as u64,
                "threshold {threshold}: open peak {}",
                out.peak_open_records
            );
        }
    }

    #[test]
    fn empty_input_yields_no_runs() {
        let out = spill_all(&[], 3, Some(2));
        assert!(out.runs.iter().all(Vec::is_empty));
        assert_eq!(out.spilled_runs, 0);
        assert_eq!(out.peak_open_records, 0);
    }

    #[test]
    fn out_of_range_partition_is_reported() {
        let part = FnPartitioner::new(|_: &u32, _| 9);
        let mut spiller: MapSpiller<'_, u32, u64> = MapSpiller::new(&part, 2, None);
        assert_eq!(
            spiller.push(1, 1).unwrap_err(),
            MrError::PartitionOutOfRange {
                got: 9,
                num_reduce_tasks: 2
            }
        );
    }

    #[test]
    fn hash_partitioned_seals_route_like_the_unspilled_path() {
        // Same partitioner the engine defaults to: every record must
        // land in the same reduce task regardless of threshold.
        let part = HashPartitioner;
        let mut a: MapSpiller<'_, u32, u64> = MapSpiller::new(&part, 4, None);
        let mut b: MapSpiller<'_, u32, u64> = MapSpiller::new(&part, 4, Some(2));
        for i in 0..20u32 {
            a.push(i % 6, u64::from(i)).unwrap();
            b.push(i % 6, u64::from(i)).unwrap();
        }
        let (a, b) = (a.finish(), b.finish());
        for j in 0..4 {
            let flat_a: usize = a.runs[j].iter().map(Vec::len).sum();
            let flat_b: usize = b.runs[j].iter().map(Vec::len).sum();
            assert_eq!(flat_a, flat_b, "reduce task {j} record routing drifted");
        }
    }
}
