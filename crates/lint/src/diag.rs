//! Diagnostics produced by the rule engine.

use std::fmt;

/// One violation at a source location. Every diagnostic fails the audit
/// under `--deny`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `lock-order`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// A violation (denied under `--deny`).
    pub fn error(rule: &'static str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: error[{}]: {}", self.path, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: error[{}]: {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }
}
