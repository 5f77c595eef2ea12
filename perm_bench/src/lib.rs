//! # perm_bench
//!
//! The repository's one benchmark: SQL text in, provenance rows out,
//! measured end to end through `Session::query` and layer by layer through
//! each crate's public functions. See the README next to this package for
//! the metric and workload definitions and `BENCHMARK.json` at the
//! repository root for the contract a run is checked against.

#![forbid(unsafe_code)]

pub mod cli;
pub mod data;
pub mod json;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod staged;
pub mod stats;
pub mod workloads;
