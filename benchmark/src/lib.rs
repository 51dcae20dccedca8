//! perf_ledger — the repo's one benchmark: six workloads, four
//! end-to-end metrics, per-layer probes and a traced run. See
//! `README.md` for what is measured and why, `BENCHMARK.json` for the
//! declared names.

pub mod api;
pub mod cli;
pub mod harness;
pub mod registry;
pub mod spans;
pub mod stats;
