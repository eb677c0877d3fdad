//! # vf-lint
//!
//! A std-only invariant auditor for the VirtualFlow workspace.
//!
//! VirtualFlow's headline guarantee — virtual-node execution is bit-equal
//! to the original schedule no matter how many devices or threads back it —
//! is easy to erode by accident: one `HashMap` iteration, one wall-clock
//! read inside the simulator, one ad-hoc thread writing an output buffer,
//! and trajectories stop replaying. `vf-lint` turns those conventions into
//! checked invariants:
//!
//! * [`rules`] — the per-file catalog: `hash-iteration`, `ambient-time`,
//!   `ad-hoc-thread`, `registry-dep`, and the `panic-ratchet`.
//! * [`baseline`] — the one-way ratchet over panic-family call sites in
//!   library code (`lint-baseline.toml`).
//! * [`suppress`] — inline, reasoned waivers:
//!   `// vf-lint: allow(rule) — reason`.
//! * [`lexer`] — the minimal Rust lexer the rules run on (comments and
//!   string literals stripped, `#[cfg(test)]` regions mapped).
//! * [`workspace`] — discovery and the full audit pass.
//!
//! On top of the per-file rules sits the semantic engine (DESIGN.md §16):
//!
//! * [`parse`] — an item/expression-level parser over the token stream:
//!   functions, calls, lock acquisitions with guard scopes, closures,
//!   raw-pointer writes, `unsafe` sites, and `let _ =` discards.
//! * [`symbols`] — the workspace-wide symbol index (free functions by
//!   name; methods same-file with a std-shadow deny-list).
//! * [`callgraph`] — the over-approximate call graph, with transitive
//!   lock/raw-write/claim/submit facts computed to a fixpoint.
//! * [`semantic`] — the four workspace-wide passes: `lock-order`,
//!   `claim-coverage`, `safety-comment`, `discarded-result`.
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

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod suppress;
mod surface;
pub mod symbols;
pub mod workspace;

pub use baseline::{Baseline, BASELINE_FILE};
pub use diag::{Diagnostic, Severity};
pub use rules::{check_manifest, check_source};
pub use workspace::{audit, find_root, write_baseline, Outcome};
