//! End-to-end and per-layer benchmark of the compact similarity join
//! system.
//!
//! One run builds one workload's inputs from a seed, repeats its set-up,
//! proves each algorithm's reference output lossless, and then runs
//! timed passes (N-CSJ and CSJ(10) alternating) for a fixed time,
//! checking every pass's output against its reference. With tracing
//! on, traced passes through the forwarding wrappers of [`wrap`] are
//! interleaved with untraced ones and the per-layer metrics come from
//! them; with tracing off, only the end-to-end metrics are reported.
//! See `perfbench/README.md`.

pub mod check;
pub mod host;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
pub mod wrap;
