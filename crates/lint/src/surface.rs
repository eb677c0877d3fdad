//! The public-surface count: how many `pub` items the library crates
//! declare, and which of them nothing outside test code names.
//!
//! This is a count, not a rule: it produces no diagnostic and has no
//! waiver. It works on the token streams the audit already lexes
//! (comments and strings stripped, test regions known) and is name-level
//! on purpose — an item is *uncalled* when its identifier occurs in no
//! non-test token other than its own declaration, across the audited
//! files plus the reference-only sources (`examples/`, `perf_bench/src/`).
//! Two items sharing a name, or a field or local that happens to spell an
//! item's name, can hide a dead item; nothing can flag a live one, so
//! `lint/uncalled_pub` is a sound ratchet: it only ever under-reports.

use std::collections::BTreeMap;

use crate::lexer::LexedFile;

/// Item keywords that, after a bare `pub`, declare a counted item.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// Qualifiers that may stand between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["unsafe", "async", "extern", "\"str\""];

/// Accumulates declarations and identifier uses over the workspace.
#[derive(Debug, Default)]
pub(crate) struct Surface {
    /// Non-test occurrences of every identifier, declarations included.
    uses: BTreeMap<String, usize>,
    /// `(path, name)` of every counted declaration.
    decls: Vec<(String, String)>,
}

impl Surface {
    /// Counts every non-test identifier of `lexed` as a use and, when
    /// `declares` is set, records its non-test `pub` item declarations
    /// (`pub(…)` is not public surface and is skipped).
    pub(crate) fn add(&mut self, path: &str, lexed: &LexedFile, declares: bool) {
        let toks = &lexed.tokens;
        let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
        for (i, t) in toks.iter().enumerate() {
            if lexed.is_test_line(t.line) {
                continue;
            }
            if t.text.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                match self.uses.get_mut(&t.text) {
                    Some(n) => *n += 1,
                    None => {
                        self.uses.insert(t.text.clone(), 1);
                    }
                }
            }
            if !declares || t.text != "pub" || text(i + 1) == "(" {
                continue;
            }
            let mut j = i + 1;
            // `pub const fn`, `pub unsafe fn`, `pub extern "C" fn`, …
            while FN_QUALIFIERS.contains(&text(j))
                || (text(j) == "const" && (text(j + 1) == "fn" || FN_QUALIFIERS.contains(&text(j + 1))))
            {
                j += 1;
            }
            if !ITEM_KEYWORDS.contains(&text(j)) {
                continue;
            }
            j += if text(j + 1) == "mut" { 2 } else { 1 };
            self.decls.push((path.to_string(), text(j).to_string()));
        }
    }

    /// Number of `pub` items declared.
    pub(crate) fn pub_items(&self) -> usize {
        self.decls.len()
    }

    /// The declared items named nowhere but at their declaration, as
    /// sorted `path::name` strings.
    pub(crate) fn uncalled(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .decls
            .iter()
            .filter(|(_, name)| self.uses.get(name).copied().unwrap_or(0) <= 1)
            .map(|(path, name)| format!("{path}::{name}"))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn qualifiers_and_restricted_visibility() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub static mut C: u8 = 0;\n\
                   pub const D: u8 = 1;\npub(crate) fn e() {}\npub(super) struct F;\npub mod g {}\n\
                   pub struct H { pub field: u8 }\npub use other::thing;\n";
        let mut s = Surface::default();
        s.add("crates/x/src/lib.rs", &lex(src), true);
        let names: Vec<&str> = s.decls.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "C", "D", "H"]);
    }
}
