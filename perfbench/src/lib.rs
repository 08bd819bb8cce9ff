//! The repository benchmark: three single-worker campaign workloads, an
//! end-to-end measurement from untraced runs, a per-layer ledger from a
//! traced run, and a result-digest check on every run. See `README.md`
//! next to this crate for the workloads and metrics.

pub mod check;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
