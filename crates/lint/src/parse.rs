//! An item/expression-level parser over the [`crate::lexer`] token stream.
//!
//! The semantic passes (DESIGN.md §16) need more structure than a flat
//! token list: which tokens belong to which function, where locks are
//! acquired and how long their guards live, which calls a body makes,
//! where closures are bound, and which regions are `unsafe`. This module
//! recovers exactly that shape — item boundaries (`fn`/`impl`/`mod`/
//! `trait`), call expressions, closure bindings, lock acquisitions and raw
//! pointer writes — without attempting to be a real Rust parser. Everything here is a deliberate over-approximation:
//! when the grammar is ambiguous at token level, the parser errs toward
//! *seeing more* (a guard scope extends to the innermost enclosing brace;
//! a nested function's calls also count toward its parent), because the
//! passes built on top only ever turn extra visibility into extra checks,
//! never into missed ones.

use crate::lexer::{LexedFile, Token};

/// Pool-submission entry points: a closure passed to one of these (or to
/// any workspace function that transitively reaches one) runs on pool
/// worker threads. `run_serial` is deliberately absent — it executes the
/// body inline on the calling thread with the sanitizer muted.
pub const SUBMIT_NAMES: &[&str] = &["parallel_rows", "parallel_tasks", "run_job"];

/// Calls that register a claim with the pool race sanitizer.
pub const CLAIM_NAMES: &[&str] = &["claim_region", "claim", "claim_bytes"];

/// One call expression (`name(…)` or `recv.name(…)`) inside a function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (last path segment; method name for `.x()`).
    pub name: String,
    /// True for method-call syntax (`recv.name(…)`).
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Token range of the argument list (between the parentheses).
    pub args: std::ops::Range<usize>,
}

/// One lock acquisition: `.lock()`, or zero-argument `.read()`/`.write()`.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The receiver's last field/binding name (the lock's identity within
    /// its file); `expr` when the receiver is not a simple path.
    pub key: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Token index of the `lock`/`read`/`write` identifier.
    pub tok: usize,
    /// Token index bounding the guard's live range: the innermost
    /// enclosing `}` — or an explicit `drop(binding)` when the guard was
    /// bound by `let` and dropped by name before the block ends.
    pub scope_end: usize,
}

/// A closure bound to a name: `let name = [move] |…| …;`.
#[derive(Debug, Clone)]
pub struct ClosureBind {
    /// The binding name.
    pub name: String,
    /// Token range of the closure body.
    pub body: std::ops::Range<usize>,
    /// 1-based line of the binding.
    pub line: u32,
}

/// One function definition (free, method, or nested).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Display path: enclosing modules/impl types joined with `::`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when defined in test-only code.
    pub is_test: bool,
    /// Token range of the body (empty for bodyless trait/extern decls).
    pub body: std::ops::Range<usize>,
    /// Calls made anywhere in the body (including nested closures/fns).
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockSite>,
    /// Named closure bindings in the body.
    pub closures: Vec<ClosureBind>,
    /// Token indexes of raw-pointer write sites in the body.
    pub raw_writes: Vec<usize>,
}

/// The parsed shape of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// File stem (`pool` for `crates/tensor/src/pool.rs`), namespacing
    /// lock keys so `state` in two files stays two distinct locks.
    pub stem: String,
    /// The token stream the ranges below index into.
    pub tokens: Vec<Token>,
    /// Every function definition, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "break", "continue", "ref", "mut", "await", "box", "yield", "true", "false", "Some", "None",
    "Ok", "Err", "self", "Self", "unsafe", "where", "impl", "dyn", "pub", "use", "const",
    "static", "struct", "enum", "union", "type",
];

/// Parses one lexed file into items, call sites, and unsafe regions.
/// `path` must be workspace-relative with forward slashes.
pub fn parse_file(path: &str, lexed: &LexedFile) -> ParsedFile {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_string();
    let mut pf = ParsedFile {
        path: path.to_string(),
        stem,
        tokens: lexed.tokens.clone(),
        ..ParsedFile::default()
    };

    let n = pf.tokens.len();
    let attr = attribute_spans(&pf.tokens);
    let (brace_match, encl_open) = match_braces(&pf.tokens);

    // Item walk: find fn/impl/mod/trait boundaries, and record which token
    // ranges are unsafe (blocks and unsafe fn bodies).
    let mut in_unsafe = vec![false; n];
    let mut walker = Walker {
        pf: &mut pf,
        lexed,
        attr: &attr,
        brace_match: &brace_match,
        in_unsafe: &mut in_unsafe,
    };
    walker.walk(0, n, &mut Vec::new());

    // Per-function body scans (calls, locks, closures, raw writes) run
    // after the walk so unsafe ranges are complete.
    for i in 0..pf.fns.len() {
        let body = pf.fns[i].body.clone();
        let scanned = scan_body(
            &pf.tokens,
            body,
            &attr,
            &brace_match,
            &encl_open,
            &in_unsafe,
        );
        let f = &mut pf.fns[i];
        f.calls = scanned.calls;
        f.locks = scanned.locks;
        f.closures = scanned.closures;
        f.raw_writes = scanned.raw_writes;
    }
    pf
}

/// Marks every token inside an outer (`#[…]`) or inner (`#![…]`)
/// attribute, including the delimiters.
fn attribute_spans(toks: &[Token]) -> Vec<bool> {
    let mut attr = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].text == "!" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "[" {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut k = j;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let end = k.min(toks.len() - 1);
        for a in attr.iter_mut().take(end + 1).skip(i) {
            *a = true;
        }
        i = end + 1;
    }
    attr
}

/// For every `{` token index, the index of its matching `}` (or
/// `toks.len()` when unbalanced); and for every token, the index of the
/// innermost enclosing `{` (or `usize::MAX` at top level).
fn match_braces(toks: &[Token]) -> (Vec<usize>, Vec<usize>) {
    let n = toks.len();
    let mut brace_match = vec![n; n];
    let mut encl_open = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        encl_open[i] = stack.last().copied().unwrap_or(usize::MAX);
        match toks[i].text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    brace_match[open] = i;
                }
            }
            _ => {}
        }
    }
    (brace_match, encl_open)
}

/// The recursive item walker. Mutates `pf.fns` and the `in_unsafe` token
/// map.
struct Walker<'a> {
    pf: &'a mut ParsedFile,
    lexed: &'a LexedFile,
    attr: &'a [bool],
    brace_match: &'a [usize],
    in_unsafe: &'a mut [bool],
}

impl Walker<'_> {
    fn text(&self, i: usize) -> &str {
        self.pf.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn walk(&mut self, start: usize, end: usize, ctx: &mut Vec<String>) {
        let mut i = start;
        let mut pending_unsafe_fn = false;
        while i < end {
            if self.attr[i] {
                i += 1;
                continue;
            }
            match self.text(i) {
                "unsafe" => {
                    let mut j = i + 1;
                    while j < end && self.attr[j] {
                        j += 1;
                    }
                    match self.text(j) {
                        "fn" | "extern" => pending_unsafe_fn = true,
                        "{" => {
                            let close = self.brace_match[j].min(self.in_unsafe.len());
                            for u in self.in_unsafe.iter_mut().take(close).skip(j) {
                                *u = true;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                "fn" => {
                    // `fn(` is a function-pointer type, not a definition.
                    if self.text(i + 1) == "(" {
                        i += 1;
                        continue;
                    }
                    let take_unsafe = std::mem::take(&mut pending_unsafe_fn);
                    i = self.parse_fn(i, end, ctx, take_unsafe);
                }
                "mod" => {
                    let name = self.text(i + 1).to_string();
                    if self.text(i + 2) == "{" {
                        let open = i + 2;
                        let close = self.brace_match[open].min(end);
                        ctx.push(name);
                        self.walk(open + 1, close, ctx);
                        ctx.pop();
                        i = close + 1;
                    } else {
                        i += 2; // `mod name;`
                    }
                }
                "impl" | "trait" => {
                    i = self.parse_impl_or_trait(i, end, ctx);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses a `fn` definition starting at token `i` (the `fn` keyword).
    /// Returns the index to resume the walk at.
    fn parse_fn(&mut self, i: usize, end: usize, ctx: &mut Vec<String>, is_unsafe: bool) -> usize {
        let name = self.text(i + 1).to_string();
        let line = self.pf.tokens[i].line;
        // Scan the signature for the body `{` or a terminating `;`,
        // tracking paren and angle depth (`>` after `-`/`=` is an arrow).
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut body = 0..0;
        while j < end {
            let t = self.text(j);
            match t {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" => angle += 1,
                ">" => {
                    let prev = self.text(j - 1);
                    if prev != "-" && prev != "=" && angle > 0 {
                        angle -= 1;
                    }
                }
                "{" if paren == 0 && angle == 0 => {
                    let close = self.brace_match[j].min(end);
                    body = j + 1..close;
                    break;
                }
                ";" if paren == 0 => break, // bodyless declaration
                _ => {}
            }
            j += 1;
        }
        let qual = if ctx.is_empty() {
            name.clone()
        } else {
            format!("{}::{}", ctx.join("::"), name)
        };
        if is_unsafe && !body.is_empty() {
            let hi = body.end.min(self.in_unsafe.len());
            for u in self.in_unsafe.iter_mut().take(hi).skip(body.start) {
                *u = true;
            }
        }
        let resume = if body.is_empty() { j + 1 } else { body.end + 1 };
        let body_range = body.clone();
        self.pf.fns.push(FnDef {
            name: name.clone(),
            qual,
            line,
            is_test: self.lexed.is_test_line(line),
            body,
            calls: Vec::new(),
            locks: Vec::new(),
            closures: Vec::new(),
            raw_writes: Vec::new(),
        });
        if !body_range.is_empty() {
            ctx.push(name);
            self.walk(body_range.start, body_range.end, ctx);
            ctx.pop();
        }
        resume
    }

    /// Parses an `impl`/`trait` item: recovers the (self-)type name for
    /// the qual context and walks the body for methods.
    fn parse_impl_or_trait(&mut self, i: usize, end: usize, ctx: &mut Vec<String>) -> usize {
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut after_for: Option<usize> = None;
        let mut open = end;
        while j < end {
            let t = self.text(j);
            match t {
                "<" => angle += 1,
                ">" => {
                    let prev = self.text(j - 1);
                    if prev != "-" && prev != "=" && angle > 0 {
                        angle -= 1;
                    }
                }
                "for" if angle == 0 => after_for = Some(j + 1),
                "{" if angle == 0 => {
                    open = j;
                    break;
                }
                ";" if angle == 0 => return j + 1, // e.g. `impl Trait for T;` (never valid, bail)
                _ => {}
            }
            j += 1;
        }
        if open >= end {
            return end;
        }
        // The self-type segment: after `for` when present, else after the
        // impl generics. Its name is the last ident of the leading path.
        let seg_start = after_for.unwrap_or(i + 1);
        let mut name = String::new();
        let mut k = seg_start;
        while k < open {
            let t = self.text(k);
            if t == "where" || t == "<" || t == "(" {
                break;
            }
            let first = t.chars().next().unwrap_or(' ');
            if first.is_alphabetic() || first == '_' {
                name = t.to_string();
            } else if t != "::" && t != "&" && !name.is_empty() {
                break;
            }
            k += 1;
        }
        let close = self.brace_match[open].min(end);
        if !name.is_empty() {
            ctx.push(name);
        }
        self.walk(open + 1, close, ctx);
        if !ctx.is_empty() {
            ctx.pop();
        }
        close + 1
    }
}

/// The expression-level facts recovered from one function body.
#[derive(Debug, Default)]
struct ScannedBody {
    calls: Vec<CallSite>,
    locks: Vec<LockSite>,
    closures: Vec<ClosureBind>,
    raw_writes: Vec<usize>,
}

/// True when `t` starts like an identifier.
fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// True when a called name is a raw-pointer write: mutable-slice
/// fabrication, `ptr::write`-family / `ptr::copy`-family (the `ptr::`
/// qualifier check keeps `io::Write::write` and store writes out), or a
/// SIMD store intrinsic.
fn is_raw_write_name(t: &str, prev: &str, prev2: &str) -> bool {
    t == "from_raw_parts_mut"
        || (matches!(
            t,
            "write" | "write_unaligned" | "write_volatile" | "copy" | "copy_nonoverlapping"
        ) && prev == "::"
            && prev2 == "ptr")
        || (t.starts_with("_mm") && t.contains("store"))
}

/// Scans a body token range for calls, locks, closures, and raw writes.
fn scan_body(
    toks: &[Token],
    body: std::ops::Range<usize>,
    attr: &[bool],
    brace_match: &[usize],
    encl_open: &[usize],
    in_unsafe: &[bool],
) -> ScannedBody {
    let mut out = ScannedBody::default();
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut i = body.start;
    while i < body.end {
        if attr[i] {
            i += 1;
            continue;
        }
        let t = text(i);

        // Calls: `name (` where `name` is not a keyword, not a macro
        // (`name ! (`), and not a definition header (`fn name (`).
        if is_ident(t)
            && text(i + 1) == "("
            && !NON_CALL_WORDS.contains(&t)
            && text(i.wrapping_sub(1)) != "fn"
        {
            let close = match_forward(toks, i + 1, "(", ")", body.end);
            let method = i > 0 && text(i - 1) == ".";
            let call = CallSite {
                name: t.to_string(),
                method,
                line: toks[i].line,
                tok: i,
                args: i + 2..close,
            };
            // Lock acquisition: `.lock()` with any arity, or a
            // zero-argument `.read()` / `.write()` (RwLock guards; an
            // arity restriction keeps `io::Write::write(buf)` and
            // store writes out of the lock graph).
            let is_lock = method
                && (t == "lock" || ((t == "read" || t == "write") && close == i + 2));
            if is_lock {
                let key = receiver_key(toks, i);
                let scope_end = guard_scope_end(toks, i, brace_match, encl_open, body.end);
                out.locks.push(LockSite {
                    key,
                    line: toks[i].line,
                    tok: i,
                    scope_end,
                });
            }
            out.calls.push(call);
            // A call can *also* be a raw-pointer write site (the call
            // branch consumes the token, so the check lives here).
            if is_raw_write_name(t, text(i.wrapping_sub(1)), text(i.wrapping_sub(2))) {
                out.raw_writes.push(i);
            }
            i += 1;
            continue;
        }
        // Deref assignment `*place = …` inside an unsafe region.
        if t == "*" && in_unsafe.get(i).copied().unwrap_or(false) {
            if let Some(eq) = deref_assign_target(toks, i, body.end) {
                let _ = eq;
                out.raw_writes.push(i);
            }
            i += 1;
            continue;
        }

        if t == "let" {
            // `let name = [move] |params| body` closure bindings.
            let mut j = i + 1;
            if text(j) == "mut" {
                j += 1;
            }
            if is_ident(text(j)) && text(j + 1) == "=" {
                let name = text(j).to_string();
                let mut k = j + 2;
                if text(k) == "move" {
                    k += 1;
                }
                if text(k) == "|" {
                    // Params end at the next `|` (or immediately for `||`).
                    let mut p = k + 1;
                    while p < body.end && text(p) != "|" {
                        p += 1;
                    }
                    let body_start = p + 1;
                    let body_range = if text(body_start) == "{" {
                        let close = brace_match
                            .get(body_start)
                            .copied()
                            .unwrap_or(body.end)
                            .min(body.end);
                        body_start + 1..close
                    } else {
                        // Expression closure: through the statement end.
                        let mut depth = 0i32;
                        let mut q = body_start;
                        while q < body.end {
                            match text(q) {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => {
                                    if depth == 0 {
                                        break;
                                    }
                                    depth -= 1;
                                }
                                ";" | "," if depth == 0 => break,
                                _ => {}
                            }
                            q += 1;
                        }
                        body_start..q
                    };
                    out.closures.push(ClosureBind {
                        name,
                        body: body_range,
                        line: toks[i].line,
                    });
                }
            }
            i += 1;
            continue;
        }

        i += 1;
    }
    out
}

/// The matching close delimiter for the opener at `open`, bounded by `end`.
fn match_forward(toks: &[Token], open: usize, op: &str, cl: &str, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        let t = toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
        if t == op {
            depth += 1;
        } else if t == cl {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// The last field/binding name of a lock call's receiver chain:
/// `pool.queue.lock()` → `queue`, `state.lock()` → `state`.
fn receiver_key(toks: &[Token], lock_tok: usize) -> String {
    if lock_tok < 2 {
        return "expr".to_string();
    }
    let recv = &toks[lock_tok - 2].text;
    if is_ident(recv) || recv.chars().all(|c| c.is_ascii_digit()) {
        recv.clone()
    } else {
        "expr".to_string()
    }
}

/// Where a lock guard's live range ends: the innermost enclosing `}` —
/// tightened to an explicit `drop(binding)` when the guard is let-bound
/// and dropped by name inside that block (honoring explicit releases
/// keeps sequential re-locks of the same mutex out of the lock graph).
fn guard_scope_end(
    toks: &[Token],
    lock_tok: usize,
    brace_match: &[usize],
    encl_open: &[usize],
    end: usize,
) -> usize {
    let open = encl_open.get(lock_tok).copied().unwrap_or(usize::MAX);
    let block_end = if open == usize::MAX {
        end
    } else {
        brace_match.get(open).copied().unwrap_or(end).min(end)
    };
    // Find a `let NAME =` heading this statement, scanning back to the
    // statement boundary.
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut name: Option<&str> = None;
    let mut b = lock_tok;
    while b > 0 {
        b -= 1;
        match text(b) {
            ";" | "{" | "}" => break,
            "let" => {
                let mut c = b + 1;
                if text(c) == "mut" {
                    c += 1;
                }
                if is_ident(text(c)) && text(c + 1) == "=" {
                    name = Some(text(c));
                }
                break;
            }
            _ => {}
        }
    }
    let Some(name) = name else { return block_end };
    let mut i = lock_tok;
    while i + 2 < block_end {
        if text(i) == "drop" && text(i + 1) == "(" && text(i + 2) == name && text(i + 3) == ")" {
            return i;
        }
        i += 1;
    }
    block_end
}

/// A deref assignment `* place = …` (not `==`): returns the index of the
/// `=` when the tokens after `star` form a place expression.
fn deref_assign_target(toks: &[Token], star: usize, end: usize) -> Option<usize> {
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut j = star + 1;
    let mut consumed = false;
    while j < end {
        let t = text(j);
        if is_ident(t) || t == "." || t == "::" {
            j += 1;
            consumed = true;
        } else if t == "(" {
            j = match_forward(toks, j, "(", ")", end) + 1;
            consumed = true;
        } else if t == "[" {
            j = match_forward(toks, j, "[", "]", end) + 1;
            consumed = true;
        } else {
            break;
        }
    }
    if consumed && text(j) == "=" && text(j + 1) != "=" {
        Some(j)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", &lexer::lex(src))
    }

    fn find<'a>(pf: &'a ParsedFile, name: &str) -> &'a FnDef {
        pf.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found in {:?}", pf.fns))
    }

    #[test]
    fn fns_in_mods_and_impls_get_quals() {
        let src = "mod a { pub struct S; impl S { pub fn m(&self) {} } pub fn free() {} }";
        let pf = parse(src);
        assert_eq!(find(&pf, "m").qual, "a::S::m");
        assert_eq!(find(&pf, "free").qual, "a::free");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type_name() {
        let src = "impl<T: Clone> Display for Wrapper<T> { fn fmt(&self) {} }";
        let pf = parse(src);
        assert_eq!(find(&pf, "fmt").qual, "Wrapper::fmt");
    }

    #[test]
    fn arrows_in_signatures_do_not_derail_body_detection() {
        let src = "fn c(f: impl Fn(u32) -> u32) -> u32 { f(1) }\n";
        let pf = parse(src);
        // The `-> u32` inside the Fn bound must not end the signature.
        assert_eq!(find(&pf, "c").calls.len(), 1);
    }

    #[test]
    fn calls_methods_and_macros_are_distinguished() {
        let src = "fn f() { g(); h.m(); mac!(x); path::free(2); }";
        let pf = parse(src);
        let calls: Vec<(&str, bool)> = find(&pf, "f")
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.method))
            .collect();
        assert_eq!(calls, vec![("g", false), ("m", true), ("free", false)]);
    }

    #[test]
    fn locks_capture_receiver_and_scope() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    self.other.do_it();\n}";
        let pf = parse(src);
        let f = find(&pf, "f");
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].key, "state");
        // Scope runs to the fn's closing brace, past the later call.
        assert!(f.locks[0].scope_end > f.calls.last().map(|c| c.tok).unwrap_or(0));
    }

    #[test]
    fn zero_arg_read_write_are_locks_but_io_write_is_not() {
        let src = "fn f(&self) { let a = self.rw.read(); let b = self.rw.write(); \
                   self.file.write(buf); }";
        let pf = parse(src);
        assert_eq!(find(&pf, "f").locks.len(), 2);
    }

    #[test]
    fn explicit_drop_truncates_guard_scope() {
        let src = "fn f(&self) { let g = self.a.lock(); use_it(); drop(g); self.b.lock(); }";
        let pf = parse(src);
        let f = find(&pf, "f");
        assert_eq!(f.locks.len(), 2);
        let second = f.locks[1].tok;
        assert!(
            f.locks[0].scope_end < second,
            "drop(g) should end the first guard before the second lock"
        );
    }

    #[test]
    fn closure_bindings_and_unsafe_blocks_are_found() {
        let src = "fn f(out: &mut [f32]) {\n\
                   let p = out.as_mut_ptr();\n\
                   let work = move |r: Range<usize>| { unsafe { *p.add(0) = 1.0; } };\n\
                   submit(len, work);\n}";
        let pf = parse(src);
        let f = find(&pf, "f");
        assert_eq!(f.closures.len(), 1);
        assert_eq!(f.closures[0].name, "work");
        assert_eq!(f.raw_writes.len(), 1, "deref assign in unsafe counts");
        assert!(f.raw_writes[0] >= f.closures[0].body.start);
        assert!(f.raw_writes[0] < f.closures[0].body.end);
    }

    #[test]
    fn deref_assign_outside_unsafe_is_not_a_raw_write() {
        let src = "fn f(x: &mut u32) { *x = 3; }";
        let pf = parse(src);
        assert!(find(&pf, "f").raw_writes.is_empty());
    }

    #[test]
    fn unsafe_fn_body_is_an_unsafe_region() {
        let src = "unsafe fn micro(p: *mut f32) { *p = 0.0; }\nfn safe(x: &mut f32) { *x = 0.0; }";
        let pf = parse(src);
        assert_eq!(find(&pf, "micro").raw_writes.len(), 1);
        assert!(find(&pf, "safe").raw_writes.is_empty());
    }

    #[test]
    fn raw_write_intrinsics_are_detected() {
        let src = "unsafe fn k(dst: *mut f32) { core::ptr::write(dst, 0.0); \
                   _mm512_storeu_ps(dst, acc); \
                   let s = std::slice::from_raw_parts_mut(dst, 4); s[0] = 1.0; }";
        let pf = parse(src);
        assert_eq!(find(&pf, "k").raw_writes.len(), 3);
    }

    #[test]
    fn test_regions_mark_fns() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { unsafe { x(); } }\n}\n";
        let pf = parse(src);
        assert!(!find(&pf, "lib").is_test);
        assert!(find(&pf, "t").is_test);
    }

    #[test]
    fn nested_fn_calls_also_count_toward_parent() {
        let src = "fn outer() { fn inner() { leaf(); } inner(); }";
        let pf = parse(src);
        let outer = find(&pf, "outer");
        assert!(outer.calls.iter().any(|c| c.name == "leaf"));
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        assert!(find(&pf, "inner").calls.iter().any(|c| c.name == "leaf"));
    }
}
