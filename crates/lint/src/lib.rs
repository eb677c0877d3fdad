//! # vf-lint
//!
//! A std-only invariant auditor for the VirtualFlow workspace.
//!
//! VirtualFlow's headline guarantee — virtual-node execution is bit-equal
//! to the original schedule no matter how many devices or threads back it —
//! is easy to erode by accident: one `HashMap` iteration, one wall-clock
//! read inside the simulator, one ad-hoc thread writing an output buffer,
//! and trajectories stop replaying. Those per-site bans are clippy lints,
//! configured in the root `Cargo.toml` and `clippy.toml` (DESIGN.md §11).
//! `vf-lint` checks what clippy cannot express with types:
//!
//! * [`rules`] — the per-file rules `metric-cardinality` (no
//!   `format!`-built metric names) and `registry-dep` (path-only
//!   manifests), and the count of per-site clippy waivers.
//! * [`lexer`] — the minimal Rust lexer the rules run on (comments and
//!   string literals stripped, `#[cfg(test)]` regions mapped).
//! * [`workspace`] — discovery and the full audit pass.
//!
//! On top of the per-file rules sits the semantic engine (DESIGN.md §16):
//!
//! * [`parse`] — an item/expression-level parser over the token stream:
//!   functions, calls, lock acquisitions with guard scopes, closures and
//!   raw-pointer writes.
//! * [`symbols`] — the workspace-wide symbol index (free functions by
//!   name; methods same-file with a std-shadow deny-list).
//! * [`callgraph`] — the over-approximate call graph, with transitive
//!   lock/raw-write/claim/submit facts computed to a fixpoint.
//! * [`semantic`] — the two workspace-wide passes: `lock-order` and
//!   `claim-coverage`.
//! * [`report`] — the canonical-JSON audit report
//!   (`results/LINT_report.json`), byte-stable across runs.
//! * `surface` — the public-surface count: `pub` items declared by the
//!   library crates and the ones no non-test code names (a count
//!   published with the report, not a rule).
//!
//! Run it with `cargo run -p vf-lint -- --deny --json`; see DESIGN.md §11
//! for the rule catalog and policy. The dynamic complement to these static
//! checks is `vf_tensor::pool`'s debug-build race sanitizer, which verifies
//! at runtime that parallel chunks claim disjoint output regions.

#![warn(missing_docs)]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;
mod surface;
pub mod symbols;
pub mod workspace;

pub use diag::Diagnostic;
pub use rules::{check_manifest, check_source};
pub use workspace::{audit, find_root, Outcome};
