//! Small shared pieces: order statistics, seed mixing, FNV, and the
//! JSON value plumbing over the vendored serde shim.

use serde::{Deserialize, Serialize, Value};

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Splitmix64 of `(seed, i)`: op `i`'s input seed. Every op of every
/// round gets its own, and equal `(seed, i)` always gives equal inputs.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64 folded over `bytes`, continuing from `state`.
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Lets a raw [`Value`] tree pass through `serde_json`, which only
/// speaks `Serialize`/`Deserialize`.
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

/// Parses JSON text into a [`Value`].
pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// Renders a [`Value`]; `pretty` indents by two spaces.
pub fn render_json(value: &Value, pretty: bool) -> String {
    let json = Json(value.clone());
    let out = if pretty {
        serde_json::to_string_pretty(&json)
    } else {
        serde_json::to_string(&json)
    };
    out.expect("benchmark values are finite")
}

/// An object from `(key, value)` pairs, order kept.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| Value::F64(*v)).collect())
}

/// A number as `f64`, whichever numeric variant the parser chose.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// A numeric field.
pub fn get_f64(value: &Value, key: &str) -> Option<f64> {
    value.get(key).and_then(as_f64)
}

/// A field holding an array of numbers.
pub fn get_nums(value: &Value, key: &str) -> Vec<f64> {
    match value.get(key) {
        Some(Value::Array(items)) => items.iter().filter_map(as_f64).collect(),
        _ => Vec::new(),
    }
}

/// A field as `&str`.
pub fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key)? {
        Value::Str(text) => Some(text),
        _ => None,
    }
}
