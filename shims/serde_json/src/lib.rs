//! Std-only stand-in for `serde_json`.
//!
//! Renders and parses the [`Value`] tree defined by the serde shim. Supports
//! the surface this workspace uses: [`to_string`], [`to_string_pretty`],
//! [`from_str`], [`to_value`], the [`json!`] macro, and the
//! [`Value`]/[`Map`]/[`Number`]/[`Error`] types.

pub use serde::{Error, Map, Number, Value};

use serde::{Deserialize, Serialize};

mod parse;

/// Convert any serializable value into a [`Value`] tree.
///
/// (Real `serde_json::to_value` returns a `Result`; the shim's tree
/// construction is infallible, and the `json!` macro is the only caller.)
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Deserialize a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Render compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Render human-readable JSON with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse::parse(s)?;
    T::from_value(&v)
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Build a [`Value`] from JSON-like syntax, e.g.
/// `json!({ "key": expr, "nested": { "a": [1, 2] } })`.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

/// Implementation detail of [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_array_munch!([]; []; $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut __vf_map = $crate::Map::new();
        $crate::json_object_munch!(__vf_map; $($tt)+);
        $crate::Value::Object(__vf_map)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Implementation detail of [`json!`]: object entries.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_munch {
    ($map:ident; ) => {};
    ($map:ident; $key:literal : $($rest:tt)+) => {
        $crate::json_value_munch!($map; $key; []; $($rest)+);
    };
}

/// Implementation detail of [`json!`]: one object value (token accumulator).
#[doc(hidden)]
#[macro_export]
macro_rules! json_value_munch {
    ($map:ident; $key:literal; [$($val:tt)+]; , $($rest:tt)*) => {
        $map.insert(::std::string::String::from($key), $crate::json_internal!($($val)+));
        $crate::json_object_munch!($map; $($rest)*);
    };
    ($map:ident; $key:literal; [$($val:tt)+]; ) => {
        $map.insert(::std::string::String::from($key), $crate::json_internal!($($val)+));
    };
    ($map:ident; $key:literal; [$($val:tt)*]; $next:tt $($rest:tt)*) => {
        $crate::json_value_munch!($map; $key; [$($val)* $next]; $($rest)*);
    };
}

/// Implementation detail of [`json!`]: array elements (token accumulator).
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_munch {
    ([$($done:expr,)*]; [$($val:tt)+]; , $($rest:tt)*) => {
        $crate::json_array_munch!([$($done,)* $crate::json_internal!($($val)+),]; []; $($rest)*)
    };
    ([$($done:expr,)*]; [$($val:tt)+]; ) => {
        ::std::vec![$($done,)* $crate::json_internal!($($val)+)]
    };
    ([$($done:expr,)*]; [$($val:tt)*]; $next:tt $($rest:tt)*) => {
        $crate::json_array_munch!([$($done,)*]; [$($val)* $next]; $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for s in ["null", "true", "false", "0", "-7", "3.25", "\"hi\\n\""] {
            let v: Value = from_str(s).unwrap();
            assert_eq!(to_string(&v).unwrap(), s);
        }
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        for x in [0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 1e-40, 12345.678, 0.0, -0.0] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn json_macro_shapes() {
        let xs = vec![1u32, 2, 3];
        let v = json!({
            "a": 1,
            "b": xs,
            "nested": { "inner": [1, 2.5, "s"], "flag": true },
            "expr": 3 + 4,
        });
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(obj.get("expr").unwrap().as_u64(), Some(7));
        assert_eq!(
            obj.get("nested").unwrap().get("inner").unwrap().as_array().unwrap().len(),
            3
        );
        let text = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "", "{", "[1,", "[1, 2,]", "[1, }", "\"unterminated", "{\"a\": }", "1 2", "nul",
            "tru", "\"\\q\"", "-", "1.2.3",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_nested_and_empty_containers() {
        let v: Value =
            from_str(r#" {"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "e": "x", "f": {}, "g": []} "#)
                .unwrap();
        assert_eq!(v["a"], json!([1, -2.5, 1000.0]));
        assert_eq!(v["b"]["c"], true);
        assert!(v["b"]["d"].is_null());
        assert_eq!(v["e"], "x");
        assert_eq!(v["f"], json!({}));
        assert_eq!(v["g"], json!([]));
    }

    #[test]
    fn numbers_read_as_str_parse_reads_them() {
        for text in ["0", "-7", "3.25", "1e3", "-0", "18446744073709551616", "-9223372036854775809"] {
            let v: Value = from_str(text).unwrap();
            let want: f64 = text.parse().unwrap();
            assert_eq!(v.as_f64().map(f64::to_bits), Some(want.to_bits()), "{text}");
        }
        let max: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn unicode_escapes() {
        let v: Value = from_str("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }
}
