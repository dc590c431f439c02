//! # emvolt-bench
//!
//! Benchmark exporters for the emvolt workspace: `export_bench` writes
//! the `BENCH_*.json` floors and `bench_gate` checks them. This library
//! only hosts their shared fixtures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixtures;
