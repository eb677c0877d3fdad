//! # vf-bench
//!
//! The experiment harness of the VirtualFlow reproduction: one binary per
//! table/figure of the paper's evaluation (see DESIGN.md §4 for the full
//! index). Host-time benchmarking lives in `perf_bench/` at the repo root.
//!
//! Run a single experiment:
//!
//! ```sh
//! cargo run --release -p vf-bench --bin tab01_resnet_repro
//! ```
//!
//! Each binary prints the paper's rows/series and writes machine-readable
//! JSON into `results/`.

#![warn(missing_docs)]

pub mod report;
pub mod standins;
