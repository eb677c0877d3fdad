//! Std-only stand-in for `serde`, built for an offline environment.
//!
//! Instead of serde's visitor architecture, this shim round-trips every type
//! through an in-memory JSON [`Value`] tree: `Serialize` produces a `Value`,
//! `Deserialize` consumes one. The companion `serde_json` shim renders and
//! parses the tree as JSON text. The derive macros come from the
//! `serde_derive` shim and target exactly these two traits.
//!
//! Fidelity notes:
//! - `f32`/`f64` round-trip bit-exactly for finite values (floats are widened
//!   to `f64`, printed with Rust's shortest-round-trip formatter, and narrowed
//!   back; every `f32` is exactly representable as `f64`). Non-finite floats
//!   serialize as `null`, like real `serde_json`.
//! - Missing `Option` fields deserialize as `None`; `#[serde(default)]`
//!   fields fall back to `Default::default()` — matching real serde's derive.
//! - Map keys are stringified on serialization (real `serde_json` does the
//!   same for integer-keyed maps) and re-parsed on deserialization.

#![allow(
    clippy::disallowed_types,
    reason = "the shim implements its traits for std's HashMap, as serde does; it renders the keys sorted"
)]

mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

/// Deserialization failure: a path-less human-readable message, mirroring the
/// role of `serde_json::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be rendered into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` into a JSON value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a JSON value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::new("expected bool")),
        }
    }
}

macro_rules! unsigned_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(Number::U64(n)) => <$t>::try_from(*n)
                        .map_err(|_| Error::new("unsigned integer out of range")),
                    Value::Number(Number::I64(n)) => u64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| Error::new("unsigned integer out of range")),
                    _ => Err(Error::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
unsigned_impl!(u8, u16, u32, u64, usize);

macro_rules! signed_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::Number(Number::U64(n as u64))
                } else {
                    Value::Number(Number::I64(n))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(Number::I64(n)) => <$t>::try_from(*n)
                        .map_err(|_| Error::new("signed integer out of range")),
                    Value::Number(Number::U64(n)) => i64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| Error::new("signed integer out of range")),
                    _ => Err(Error::new(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}
signed_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::F64(*self))
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(Error::new("expected f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // Widening f32 -> f64 is exact, so the tree (and its JSON rendering)
        // loses nothing; `f32::from_value` narrows back exactly.
        (*self as f64).to_value()
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64() as f32),
            _ => Err(Error::new("expected f32")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(Error::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::new("expected single-char string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items).map_err(|_| Error::new("wrong array length"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::new("expected array")),
        }
    }
}

macro_rules! tuple_impl {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $( + { let _ = $idx; 1 } )+;
                match v {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    _ => Err(Error::new("expected tuple array")),
                }
            }
        }
    )*};
}
tuple_impl! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Map keys: serialized as JSON object keys (strings), parsed back on the way
/// in. Mirrors `serde_json`'s stringification of integer-keyed maps.
fn key_to_string(v: &Value) -> Result<String, Error> {
    match v {
        Value::String(s) => Ok(s.clone()),
        Value::Number(n) => Ok(n.to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        _ => Err(Error::new("map key must serialize to a string or number")),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_value(&Value::String(s.to_owned())) {
        return Ok(k);
    }
    if let Ok(n) = s.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::U64(n))) {
            return Ok(k);
        }
    }
    if let Ok(n) = s.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::I64(n))) {
            return Ok(k);
        }
    }
    if let Ok(n) = s.parse::<f64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::F64(n))) {
            return Ok(k);
        }
    }
    Err(Error::new("cannot reconstruct map key"))
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            let key = key_to_string(&k.to_value()).expect("unsupported map key");
            map.insert(key, v.to_value());
        }
        Value::Object(map)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((key_from_string::<K>(k)?, V::from_value(v)?)))
                .collect(),
            _ => Err(Error::new("expected object for map")),
        }
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Route through BTreeMap-style ordered output for stable rendering.
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| {
                (
                    key_to_string(&k.to_value()).expect("unsupported map key"),
                    v.to_value(),
                )
            })
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs.into_iter().collect())
    }
}

impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((key_from_string::<K>(k)?, V::from_value(v)?)))
                .collect(),
            _ => Err(Error::new("expected object for map")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::from_value(v).map(Vec::into_boxed_slice)
    }
}
