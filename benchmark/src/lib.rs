//! `bcc-benchmark`: one end-to-end serving benchmark for the
//! bandwidth-clusters stack, with per-layer attribution.
//!
//! One generator thread drives the real stack through its public API in a
//! closed loop — the API is synchronous, every caller waits for its reply —
//! and reports what a user sees (`--trace 0`) or where the time went
//! (`--trace 1`). See `README.md` beside this crate and `BENCHMARK.json` at
//! the repository root.

pub mod check;
pub mod cli;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod pass;
pub mod routed;
pub mod run;
pub mod sharded;
pub mod spans;
pub mod stats;
pub mod target;
pub mod universe;
