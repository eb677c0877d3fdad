//! `lock-order`: static deadlock detection over the lock-acquisition
//! graph.
//!
//! For every function, each lock the function acquires opens a window —
//! from the acquisition token to the end of the guard's scope (or its
//! explicit `drop`). Any lock acquired inside that window, directly or
//! through any function the window calls (using the call graph's
//! transitive `lock_reach` sets), adds a directed edge `held → acquired`
//! to a workspace-wide graph whose nodes are `file_stem::receiver` lock
//! keys. A cycle in that graph means two executions can acquire the same
//! locks in opposite orders — a potential deadlock, reported as one error
//! per cycle.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::ParsedFile;
use crate::symbols::SymbolIndex;

/// Acquisition-order observations: while `from` was held, `to` was
/// (possibly transitively) acquired, first at `path:line`.
type Edges = BTreeMap<(String, String), (String, u32)>;

/// A flattened `(from, to)` edge with its first reporting site.
type Edge = ((String, String), (String, u32));

/// Runs the pass, appending findings to `out`.
pub fn check(
    files: &[ParsedFile],
    index: &SymbolIndex,
    graph: &CallGraph,
    out: &mut Vec<Diagnostic>,
) {
    let mut edges: Edges = BTreeMap::new();
    for (fi, pf) in files.iter().enumerate() {
        for f in &pf.fns {
            if f.is_test {
                continue;
            }
            for l in &f.locks {
                let from = format!("{}::{}", pf.stem, l.key);
                let window = l.tok + 1..l.scope_end;
                for m in &f.locks {
                    if window.contains(&m.tok) {
                        add_edge(&mut edges, pf, &from, format!("{}::{}", pf.stem, m.key), m.line);
                    }
                }
                for c in &f.calls {
                    if !window.contains(&c.tok) {
                        continue;
                    }
                    for id in index.resolve(&c.name, c.method, fi) {
                        for key in &graph.lock_reach[id] {
                            add_edge(&mut edges, pf, &from, key.clone(), c.line);
                        }
                    }
                }
            }
        }
    }

    let edges: Vec<Edge> = edges.into_iter().collect();
    for cycle in &cycle_components(&edges) {
        // Anchor the error at the first edge site of the cycle; list every
        // in-cycle edge so the report names the opposing orders.
        let mut detail = String::new();
        let mut anchor: Option<(String, u32)> = None;
        for ((from, to), (path, line)) in &edges {
            if cycle.contains(from) && cycle.contains(to) {
                if !detail.is_empty() {
                    detail.push_str(", ");
                }
                detail.push_str(&format!("{from} -> {to} ({path}:{line})"));
                let site = (path.clone(), *line);
                if anchor.as_ref().is_none_or(|a| site < *a) {
                    anchor = Some(site);
                }
            }
        }
        let Some((path, line)) = anchor else { continue };
        let nodes: Vec<&str> = cycle.iter().map(String::as_str).collect();
        out.push(Diagnostic::error(
            "lock-order",
            &path,
            line,
            format!(
                "potential deadlock: locks {{{}}} can be acquired in opposing orders: {detail}; \
                 pick one acquisition order",
                nodes.join(", ")
            ),
        ));
    }
}

fn add_edge(edges: &mut Edges, pf: &ParsedFile, from: &str, to: String, line: u32) {
    edges
        .entry((from.to_string(), to))
        .or_insert_with(|| (pf.path.clone(), line));
}

/// The strongly-connected node sets that contain a cycle: components with
/// two or more mutually-reachable nodes, plus single nodes with a
/// self-edge. Deterministic (node sets are sorted).
fn cycle_components(edges: &[Edge]) -> Vec<BTreeSet<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for ((from, to), _) in edges {
        adj.entry(from).or_default().insert(to);
        nodes.insert(from);
        nodes.insert(to);
    }
    let reach = |start: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = adj.get(start).map(|s| s.iter().copied().collect()).unwrap_or_default();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        seen
    };
    let reachable: BTreeMap<&str, BTreeSet<&str>> =
        nodes.iter().map(|&n| (n, reach(n))).collect();
    let mut components: Vec<BTreeSet<String>> = Vec::new();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for &u in &nodes {
        if assigned.contains(u) {
            continue;
        }
        // u is cyclic when it can reach itself (covers self-edges too).
        if !reachable[u].contains(u) {
            continue;
        }
        let mut comp: BTreeSet<String> = BTreeSet::new();
        for &v in &nodes {
            if reachable[u].contains(v) && reachable[v].contains(u) && reachable[v].contains(v) {
                comp.insert(v.to_string());
                assigned.insert(v);
            }
        }
        comp.insert(u.to_string());
        assigned.insert(u);
        components.push(comp);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::symbols::SymbolIndex;
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

    #[test]
    fn opposing_orders_in_one_file_are_a_cycle() {
        let out = run(&[(
            "crates/a/src/s.rs",
            "impl S {\n\
             fn ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n\
             fn ba(&self) { let _b = self.b.lock(); let _a = self.a.lock(); }\n}\n",
        )]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert!(out[0].message.contains("s::a"));
        assert!(out[0].message.contains("s::b"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let out = run(&[(
            "crates/a/src/s.rs",
            "impl S {\n\
             fn ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n\
             fn ab2(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n}\n",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn cross_function_cycles_are_found_through_the_call_graph() {
        let out = run(&[(
            "crates/a/src/s.rs",
            "fn lock_b_only(s: &S) { let _b = s.b.lock(); }\n\
             fn f(s: &S) { let _a = s.a.lock(); lock_b_only(s); }\n\
             fn g(s: &S) { let _b = s.b.lock(); lock_a_only(s); }\n\
             fn lock_a_only(s: &S) { let _a = s.a.lock(); }\n",
        )]);
        assert_eq!(out.len(), 1, "{:?}", out);
    }

    #[test]
    fn explicit_drop_breaks_the_window() {
        let out = run(&[(
            "crates/a/src/s.rs",
            "fn f(s: &S) { let a = s.a.lock(); drop(a); let _b = s.b.lock(); }\n\
             fn g(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }\n",
        )]);
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn test_code_is_exempt() {
        let test_only = run(&[(
            "crates/a/src/s.rs",
            "#[cfg(test)]\nmod tests {\n\
             fn ab(s: &S) { let _a = s.a.lock(); let _b = s.b.lock(); }\n\
             fn ba(s: &S) { let _b = s.b.lock(); let _a = s.a.lock(); }\n}\n",
        )]);
        assert!(test_only.is_empty());
    }

    #[test]
    fn self_cycle_on_one_lock_is_reported() {
        let out = run(&[(
            "crates/a/src/s.rs",
            "fn f(s: &S) { let _a = s.a.lock(); helper(s); }\n\
             fn helper(s: &S) { let _a = s.a.lock(); }\n",
        )]);
        assert_eq!(out.len(), 1, "{:?}", out);
        assert!(out[0].message.contains("s::a"));
    }
}
