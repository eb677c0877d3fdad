//! Canonical JSON primitives shared by every vf-obs renderer.
//!
//! One escape routine and one float formatter, so the Chrome trace
//! renderer, the metrics registry, and the bench-history subsystem all
//! write byte-identical JSON. Reading goes through `serde_json`, a parser
//! independent of these renderers, so every round-trip test checks the
//! hand-written bytes against a second implementation.

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
///
/// `"` and `\` get their shorthand escapes, as do `\n`, `\r`, and `\t`;
/// every other control character below U+0020 renders as `\u00xx`. All
/// other characters pass through verbatim (JSON strings are UTF-8).
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Writes `v` with Rust's shortest-roundtrip formatter; non-finite values
/// render as `null` (JSON has no NaN/∞, and a gap is more honest than a
/// guess).
pub fn push_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_back(escaped: &str) -> String {
        let v: serde_json::Value =
            serde_json::from_str(&format!("\"{escaped}\"")).expect("escaped form parses");
        v.as_str().expect("a string").to_string()
    }

    /// Every control character, the quote, and the backslash must escape to
    /// text that (a) matches the documented form exactly and (b) parses
    /// back to the original character — exhaustively, not by sample.
    #[test]
    fn escaping_is_exhaustive_over_control_chars_quote_and_backslash() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("control chars are valid scalars");
            let mut out = String::new();
            escape_into(&c.to_string(), &mut out);
            let expected = match c {
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                _ => format!("\\u{code:04x}"),
            };
            assert_eq!(out, expected, "control char U+{code:04X}");
            assert_eq!(read_back(&out), c.to_string(), "U+{code:04X} round-trips");
        }
        for (c, expected) in [('"', "\\\""), ('\\', "\\\\")] {
            let mut out = String::new();
            escape_into(&c.to_string(), &mut out);
            assert_eq!(out, expected);
            assert_eq!(read_back(&out), c.to_string());
        }
        // Printable ASCII and non-ASCII, including a character outside the
        // BMP, pass through untouched and read back unchanged.
        let mut out = String::new();
        escape_into("aé∞ b😀", &mut out);
        assert_eq!(out, "aé∞ b😀");
        assert_eq!(read_back(&out), "aé∞ b😀");
        // A surrogate pair, as other writers escape astral characters.
        assert_eq!(read_back("\\ud83d\\ude00"), "😀");
    }

    #[test]
    fn push_f64_is_shortest_roundtrip_and_null_for_nonfinite() {
        let mut out = String::new();
        push_f64(0.1, &mut out);
        push_f64(2.0, &mut out);
        push_f64(f64::NAN, &mut out);
        push_f64(f64::INFINITY, &mut out);
        assert_eq!(out, "0.12nullnull");
    }

    #[test]
    fn chrome_and_metrics_renderers_round_trip_through_serde_json() {
        use crate::{Event, Metrics};
        let e = Event::complete("a\"b\u{1}", "train", 5, 7).with_arg("x", 0.25f64);
        let line = crate::chrome::render_event(&e);
        let v: serde_json::Value = serde_json::from_str(&line).expect("rendered event parses");
        assert_eq!(v.get("name").and_then(serde_json::Value::as_str), Some("a\"b\u{1}"));
        assert_eq!(v.get("args").and_then(|a| a.get("x")), Some(&serde_json::json!(0.25)));
        let m = Metrics::new();
        m.inc("steps\u{2}", 3);
        let v: serde_json::Value =
            serde_json::from_str(&m.to_json()).expect("rendered metrics parse");
        assert!(v.get("steps\u{2}").is_some());
    }
}
