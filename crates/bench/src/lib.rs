//! # vf-bench
//!
//! The experiment harness of the VirtualFlow reproduction: one `vf-bench`
//! binary whose table holds every table/figure of the paper's evaluation
//! (see DESIGN.md §4 for the full index), and this library of what its
//! experiments share. Host-time benchmarking lives in `perf_bench/` at the
//! repo root.
//!
//! ```sh
//! cargo run --release -p vf-bench -- tab01_resnet_repro   # one experiment
//! cargo run --release -p vf-bench -- all                  # every experiment
//! cargo run --release -p vf-bench -- list                 # names and tags
//! ```
//!
//! Each experiment prints the paper's rows/series and writes
//! machine-readable JSON into `results/`.

#![warn(missing_docs)]

pub mod report;
pub mod standins;
