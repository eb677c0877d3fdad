//! `claim-coverage`: the compile-time complement of the pool's runtime
//! race sanitizer.
//!
//! A closure handed to the worker pool (`parallel_rows`, `parallel_tasks`,
//! `run_job`, or any workspace function that transitively reaches one)
//! runs on worker threads; when it writes through raw pointers, the
//! debug-build `ClaimSet` sanitizer can only catch overlapping writes
//! that some test actually executes. This pass makes the claim *statically
//! required*: if a submitted closure (or anything it calls) may write
//! through a raw pointer, it must also be able to reach a sanitizer claim
//! (`claim_region`/`claim`/`claim_bytes`).
//!
//! Closure discovery is syntactic: an inline `|…|` literal in the
//! argument list, or an argument identifier that names a `let`-bound
//! closure in the same function. A submission whose task argument is
//! opaque (a function parameter, a struct field) is skipped here — the
//! closure is checked where it is visibly constructed and submitted, and
//! the runtime sanitizer still covers the rest dynamically.

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::{CallSite, FnDef, ParsedFile, CLAIM_NAMES, SUBMIT_NAMES};
use crate::symbols::SymbolIndex;

/// Runs the pass, appending findings to `out`.
pub fn check(
    files: &[ParsedFile],
    index: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    for (fi, pf) in files.iter().enumerate() {
        for f in &pf.fns {
            if f.is_test {
                continue;
            }
            for c in &f.calls {
                let is_submit = SUBMIT_NAMES.contains(&c.name.as_str())
                    || index
                        .resolve(&c.name, c.method, fi)
                        .iter()
                        .any(|&id| graph.submit_reach[id]);
                if !is_submit {
                    continue;
                }
                let Some(body) = closure_range(pf, f, c) else {
                    continue;
                };
                let raw = may_write_raw(index, graph, fi, f, &body);
                if !raw {
                    continue;
                }
                let claimed = may_claim(index, graph, fi, f, &body);
                if claimed {
                    continue;
                }
                out.push(Diagnostic::error(
                    "claim-coverage",
                    &pf.path,
                    c.line,
                    format!(
                        "closure submitted to the pool via `{}` writes through raw pointers \
                         but cannot reach a ClaimSet claim; call pool::claim_region over the \
                         output range so the race sanitizer can audit overlap",
                        c.name
                    ),
                ));
            }
        }
    }
}

/// The token range of the closure a submission call hands to the pool:
/// an inline `|…|` literal inside the arguments, or a `let`-bound closure
/// named by a top-level argument identifier.
fn closure_range(
    pf: &ParsedFile,
    f: &FnDef,
    call: &CallSite,
) -> Option<std::ops::Range<usize>> {
    let text = |i: usize| pf.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut depth = 0i32;
    for i in call.args.clone() {
        match text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => {
                // Inline closure: from the parameter list to the end of the
                // argument list (a superset of the body; closures are in
                // practice the final argument).
                return Some(i..call.args.end);
            }
            t if depth == 0 && !t.is_empty() => {
                if let Some(bind) = f.closures.iter().find(|b| b.name == t) {
                    return Some(bind.body.clone());
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the range writes raw directly or calls something that may.
fn may_write_raw(
    index: &SymbolIndex,
    graph: &CallGraph,
    file: usize,
    f: &FnDef,
    range: &std::ops::Range<usize>,
) -> bool {
    if f.raw_writes.iter().any(|t| range.contains(t)) {
        return true;
    }
    f.calls
        .iter()
        .filter(|c| range.contains(&c.tok))
        .flat_map(|c| index.resolve(&c.name, c.method, file))
        .any(|id| graph.raw_reach[id])
}

/// Whether the range registers a claim directly or calls something that
/// may.
fn may_claim(
    index: &SymbolIndex,
    graph: &CallGraph,
    file: usize,
    f: &FnDef,
    range: &std::ops::Range<usize>,
) -> bool {
    for c in f.calls.iter().filter(|c| range.contains(&c.tok)) {
        if CLAIM_NAMES.contains(&c.name.as_str()) {
            return true;
        }
        if index
            .resolve(&c.name, c.method, file)
            .iter()
            .any(|&id| graph.claim_reach[id])
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parse};

    fn run(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(p, s)| parse::parse_file(p, &lexer::lex(s)))
            .collect();
        let index = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &index);
        let mut out = Vec::new();
        check(&files, &index, &graph, &mut out);
        out
    }

    const BAD: &str = "pub fn f(out: &mut [f32]) {\n\
        let p = out.as_mut_ptr();\n\
        let work = move |r: Range<usize>| {\n\
            for i in r { unsafe { *p.add(i) = 0.0; } }\n\
        };\n\
        parallel_rows(out.len(), work);\n\
    }\n";

    #[test]
    fn claim_free_pool_write_is_flagged() {
        let out = run(&[("crates/a/src/lib.rs", BAD)]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert_eq!(out[0].rule, "claim-coverage");
        assert_eq!(out[0].line, 6);
    }

    #[test]
    fn claim_inside_the_closure_is_clean() {
        let src = "pub fn f(out: &mut [f32]) {\n\
            let p = out.as_mut_ptr();\n\
            let work = move |r: Range<usize>| {\n\
                claim_region(p, r.clone());\n\
                for i in r { unsafe { *p.add(i) = 0.0; } }\n\
            };\n\
            parallel_rows(out.len(), work);\n\
        }\n";
        let out = run(&[("crates/a/src/lib.rs", src)]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn claim_reached_through_a_helper_is_clean() {
        let src = "fn claim_rows(p: *const f32, r: Range<usize>) { claim_region(p, r); }\n\
            pub fn f(out: &mut [f32]) {\n\
            let p = out.as_mut_ptr();\n\
            parallel_rows(out.len(), |r| { claim_rows(p, r.clone()); \
            unsafe { *p.add(r.start) = 0.0; } });\n\
        }\n";
        let out = run(&[("crates/a/src/lib.rs", src)]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn submission_through_a_wrapper_fn_is_still_checked() {
        let src = "pub fn par_chunks(n: usize, body: impl Fn(Range<usize>)) {\n\
            parallel_rows(n, body);\n\
        }\n\
        pub fn f(out: &mut [f32]) {\n\
            let p = out.as_mut_ptr();\n\
            let work = move |r: Range<usize>| { unsafe { *p.add(r.start) = 0.0; } };\n\
            par_chunks(out.len(), work);\n\
        }\n";
        let out = run(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert_eq!(out[0].line, 7, "flagged at the wrapper call site");
    }

    #[test]
    fn read_only_closures_are_clean() {
        let src = "pub fn f(xs: &[f32]) -> Vec<f32> {\n\
            parallel_tasks(xs.len(), |i| xs[i] * 2.0)\n\
        }\n";
        let out = run(&[("crates/a/src/lib.rs", src)]);
        assert!(out.is_empty(), "{:?}", out);
    }
}
