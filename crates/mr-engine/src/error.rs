//! Engine configuration and execution errors.

use std::fmt;

use crate::fault::TaskError;

/// Errors surfaced by [`crate::engine::Job::run_on`] and helpers.
///
/// User map/reduce functions are infallible by construction (mirroring
/// the paper's pseudo-code); most errors here are configuration or
/// input-shape problems detected before any task runs. The exception
/// is [`MrError::TaskFailed`]: a task *panic* caught at the task
/// boundary whose retry budget (see
/// [`FaultPolicy`](crate::fault::FaultPolicy)) ran out — the one error
/// produced mid-execution, and always instead of a propagated panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// A job was configured with zero reduce tasks.
    NoReduceTasks,
    /// A job received an empty list of input partitions (zero map tasks).
    NoMapTasks,
    /// The partitioner returned an out-of-range reduce task index.
    PartitionOutOfRange {
        /// Index the partitioner produced.
        got: usize,
        /// Number of configured reduce tasks.
        num_reduce_tasks: usize,
    },
    /// `parallelism` was zero.
    ZeroParallelism,
    /// A workflow stage received input whose partitioning diverges
    /// from the partitioning established earlier in the workflow.
    ///
    /// The paper's multi-job pattern (Figure 2) requires every chained
    /// job to see the *same* partitioning of the data as its
    /// predecessor ("by prohibiting the splitting of input files, it
    /// is ensured that the second MR job receives the same partitioning
    /// of the input data as the first job"); the
    /// [`crate::workflow::Workflow`] layer enforces that invariant and
    /// reports violations through this variant instead of scattered
    /// debug assertions.
    StageShapeMismatch {
        /// `workflow/stage` path of the offending stage.
        stage: String,
        /// Partitions the workflow's first chained stage established.
        expected: usize,
        /// Partitions the offending stage received.
        got: usize,
    },
    /// A task panicked on every allowed attempt; the payload names the
    /// job, stage, task kind/index, attempt count, and panic message.
    TaskFailed(TaskError),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::NoReduceTasks => write!(f, "job configured with zero reduce tasks"),
            MrError::NoMapTasks => write!(f, "job received no input partitions"),
            MrError::PartitionOutOfRange {
                got,
                num_reduce_tasks,
            } => write!(
                f,
                "partitioner returned reduce task {got} but only {num_reduce_tasks} exist"
            ),
            MrError::ZeroParallelism => write!(f, "parallelism must be at least 1"),
            MrError::StageShapeMismatch {
                stage,
                expected,
                got,
            } => write!(
                f,
                "stage `{stage}` received {got} input partitions but the workflow \
                 established {expected} — chained jobs must see the same partitioning"
            ),
            MrError::TaskFailed(task_error) => write!(f, "{task_error}"),
        }
    }
}

impl std::error::Error for MrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(MrError::NoReduceTasks.to_string().contains("zero reduce"));
        assert!(MrError::NoMapTasks.to_string().contains("no input"));
        let e = MrError::PartitionOutOfRange {
            got: 9,
            num_reduce_tasks: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
        assert!(MrError::ZeroParallelism.to_string().contains("at least 1"));
        let e = MrError::StageShapeMismatch {
            stage: "er/match".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("er/match"));
        assert!(e.to_string().contains("received 2 input partitions"));
        assert!(e.to_string().contains("established 3"));
        assert!(e.to_string().contains("same partitioning"));
        let e = MrError::TaskFailed(crate::fault::TaskError {
            job: "bdm".into(),
            stage: Some("er-BlockSplit/bdm".into()),
            kind: crate::fault::FaultKind::Map,
            task: 2,
            attempts: 3,
            payload: "boom".into(),
        });
        for needle in [
            "bdm",
            "er-BlockSplit/bdm",
            "map task 2",
            "3 attempts",
            "boom",
        ] {
            assert!(e.to_string().contains(needle), "missing {needle}: {e}");
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MrError::NoReduceTasks, MrError::NoReduceTasks);
        assert_ne!(MrError::NoReduceTasks, MrError::NoMapTasks);
    }
}
