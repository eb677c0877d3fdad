//! A lightweight Rust lexer, just deep enough for invariant auditing.
//!
//! The rule engine does not need a full parse of the language — it needs a
//! token stream with comments and string/char literals stripped (so that
//! `"format!"` inside an error message never trips a rule), accurate line
//! numbers, and a map of which lines belong to test-only code
//! (`#[cfg(test)]` regions and `#[test]` functions). This module provides
//! exactly that and nothing more.

/// One lexical token: an identifier, number, or punctuation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text. Identifiers and numbers keep their spelling; string and
    /// char literals are collapsed to `"str"` / `'c'` placeholders; `::` is
    /// kept as one token, all other punctuation is one character per token.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Code tokens, in source order, literals collapsed.
    pub tokens: Vec<Token>,
    /// `test_lines[line - 1]` is true when `line` is inside test-only code.
    pub test_lines: Vec<bool>,
}

impl LexedFile {
    /// True when 1-based `line` lies inside a `#[cfg(test)]` region or a
    /// `#[test]` function.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }
}

/// Lexes `src` into tokens and a test-region line map.
pub fn lex(src: &str) -> LexedFile {
    let mut lx = Lexer::new(src);
    lx.run();
    let total_lines = src.lines().count().max(1);
    let mut out = LexedFile {
        tokens: lx.tokens,
        test_lines: vec![false; total_lines],
    };
    mark_test_regions(&mut out);
    out
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    src: std::marker::PhantomData<&'a str>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            src: std::marker::PhantomData,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push_token(&mut self, text: impl Into<String>, line: u32) {
        self.tokens.push(Token {
            text: text.into(),
            line,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                'r' | 'b' if self.raw_or_byte_string() => {}
                '\'' => self.char_or_lifetime(),
                c if c.is_alphabetic() || c == '_' => self.identifier(),
                c if c.is_ascii_digit() => self.number(),
                ':' if self.peek(1) == Some(':') => {
                    let line = self.line;
                    self.bump();
                    self.bump();
                    self.push_token("::", line);
                }
                c => {
                    let line = self.line;
                    self.bump();
                    self.push_token(c.to_string(), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Consumes a `"..."` literal (escapes honored) and emits a placeholder.
    fn string_literal(&mut self) {
        let line = self.line;
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push_token("\"str\"", line);
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, and `br#"…"#` prefixes. Returns
    /// false when the `r`/`b` at the cursor is a plain identifier start.
    fn raw_or_byte_string(&mut self) -> bool {
        let first = self.peek(0);
        let raw_byte = first == Some('b') && self.peek(1) == Some('r');
        let prefix_len = if raw_byte { 2 } else { 1 };
        let is_raw = raw_byte || first == Some('r');
        let mut hashes = 0usize;
        while self.peek(prefix_len + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(prefix_len + hashes) != Some('"') {
            return false;
        }
        if !is_raw && hashes > 0 {
            return false; // `b#"` is not a literal prefix
        }
        let line = self.line;
        for _ in 0..(prefix_len + hashes + 1) {
            self.bump();
        }
        if is_raw {
            // A raw string ends at `"` followed by `hashes` hash marks.
            loop {
                match self.bump() {
                    Some('"') if (0..hashes).all(|i| self.peek(i) == Some('#')) => {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    Some(_) => {}
                    None => break,
                }
            }
        } else {
            // Plain byte string: escapes are honored.
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        self.push_token("\"str\"", line);
        true
    }

    /// Disambiguates a char literal (`'x'`, `'\n'`) from a lifetime (`'a`).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Lifetime: `'` + ident char(s) not followed by a closing quote.
        if let Some(c1) = self.peek(1) {
            if (c1.is_alphabetic() || c1 == '_') && c1 != '\\' {
                let mut end = 2;
                while self
                    .peek(end)
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    end += 1;
                }
                if self.peek(end) != Some('\'') {
                    for _ in 0..end {
                        self.bump();
                    }
                    return; // lifetime — no token needed for auditing
                }
            }
        }
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push_token("'c'", line);
    }

    fn identifier(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                // Stop a method call on a literal (`1.max(…)`) from being
                // swallowed: only consume `.` when a digit follows.
                if c == '.' && !self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    break;
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(text, line);
    }
}

/// Marks the line span of every `#[cfg(test)]` item and `#[test]` function.
fn mark_test_regions(file: &mut LexedFile) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "#" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|t| t.text.as_str()) == Some("!") {
            j += 1; // inner attribute `#![…]` — never a test region
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let mut depth = 0usize;
        let mut body = Vec::new();
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
                _ => body.push(toks[k].text.as_str()),
            }
            k += 1;
        }
        if is_test_attribute(&body) {
            let start_line = toks[i].line;
            let end_line = item_end_line(toks, k + 1);
            let lo = start_line as usize - 1;
            let hi = (end_line as usize).min(file.test_lines.len());
            for l in file.test_lines.iter_mut().take(hi).skip(lo) {
                *l = true;
            }
            i = k + 1;
        } else {
            i = k + 1;
        }
    }
}

/// True for `#[test]` and `#[cfg(test)]`-style attributes (including
/// `cfg(any(test, …))`), but not for `#[cfg(not(test))]`.
fn is_test_attribute(body: &[&str]) -> bool {
    if body == ["test"] {
        return true;
    }
    if body.first() != Some(&"cfg") {
        return false;
    }
    // Walk the cfg predicate tracking whether any enclosing group is `not(…)`.
    let mut not_depths: Vec<bool> = Vec::new();
    let mut prev: Option<&str> = None;
    for &t in &body[1..] {
        match t {
            "(" => not_depths.push(prev == Some("not")),
            ")" => {
                not_depths.pop();
            }
            "test" if !not_depths.iter().any(|&n| n) => {
                return true;
            }
            _ => {}
        }
        prev = Some(t);
    }
    false
}

/// Returns the last line of the item that starts after token index `start`
/// (skipping further attributes), found by brace matching; items ending in
/// `;` before any `{` end on that line.
fn item_end_line(toks: &[Token], mut start: usize) -> u32 {
    // Skip any further outer attributes between the test attribute and item.
    while start < toks.len() && toks[start].text == "#" {
        let mut depth = 0usize;
        let mut k = start + 1;
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
        start = k + 1;
    }
    let mut i = start;
    while i < toks.len() {
        match toks[i].text.as_str() {
            ";" => return toks[i].line,
            "{" => {
                let mut depth = 0usize;
                while i < toks.len() {
                    match toks[i].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return toks[i].line;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                break;
            }
            _ => i += 1,
        }
    }
    toks.last().map(|t| t.line).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = lex("let x = \"panic!() inside\"; // panic! in comment\nlet y = 1;\n");
        assert!(f.tokens.iter().all(|t| t.text != "panic"));
        assert!(f.tokens.iter().any(|t| t.text == "y" && t.line == 2));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = lex("let x = r#\"unwrap() \" quote\"#; let y = 1;");
        assert!(f.tokens.iter().all(|t| t.text != "unwrap"));
        assert!(f.tokens.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';");
        assert!(f.tokens.iter().any(|t| t.text == "str"));
        assert!(f.tokens.iter().any(|t| t.text == "'c'"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let f = lex(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() {}\n";
        let f = lex(src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn test_fn_region_is_marked() {
        let src = "fn lib() {}\n#[test]\nfn t() {\n    body();\n}\nfn lib2() {}\n";
        let f = lex(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn block_comments_nest() {
        let f = lex("/* outer /* inner */ still comment */ fn f() {}");
        let texts: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["fn", "f", "(", ")", "{", "}"]);
    }
}
