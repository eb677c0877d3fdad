//! The semantic pass driver (DESIGN.md §16).
//!
//! The per-file rules in [`crate::rules`] see one file at a time; the
//! passes here run after every file is parsed, over the workspace-wide
//! [`crate::symbols::SymbolIndex`] and [`crate::callgraph::CallGraph`]:
//!
//! * [`lock_order`] — lock acquisition-order cycles are potential
//!   deadlocks (`lock-order`);
//! * [`claim_coverage`] — closures reaching pool submission that write
//!   through raw pointers must reach a sanitizer claim
//!   (`claim-coverage`).

pub mod claim_coverage;
pub mod lock_order;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::ParsedFile;
use crate::symbols::SymbolIndex;

/// Rule ids owned by the semantic passes, in catalog order.
pub const SEMANTIC_RULE_IDS: &[&str] = &["lock-order", "claim-coverage"];

/// Runs every semantic pass over the parsed workspace.
pub fn check_all(files: &[ParsedFile], index: &SymbolIndex, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lock_order::check(files, index, graph, &mut out);
    claim_coverage::check(files, index, graph, &mut out);
    out
}
