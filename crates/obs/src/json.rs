//! Minimal canonical JSON emission helpers.
//!
//! The golden-transcript suite asserts **byte-exact** snapshots, so the
//! serializer must be fully specified: 2-space indentation, `": "` after
//! keys, keys emitted in the order the caller supplies (callers iterate
//! `BTreeMap`s, so that order is itself deterministic), floats via
//! Rust's shortest round-trip `Display`.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quotes included).
pub(crate) fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` in canonical form (shortest round-trip).
///
/// Non-finite values cannot occur: gauges are set from simulator ratios
/// and finite durations; debug builds assert this at the recording site.
pub(crate) fn push_f64(out: &mut String, value: f64) {
    let _ = write!(out, "{value}");
}

/// Appends a `{"k": v, ...}` object, each value written by `value`.
pub(crate) fn push_object<V>(out: &mut String, pairs: &[(String, V)], value: fn(&mut String, &V)) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(out, k);
        out.push_str(": ");
        value(out, v);
    }
    out.push('}');
}

/// Appends a `{"k": "v", ...}` object from already-sorted label pairs.
pub(crate) fn push_label_object(out: &mut String, labels: &[(String, String)]) {
    push_object(out, labels, |out, v| push_str_literal(out, v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str_literal(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn floats_round_trip() {
        let mut out = String::new();
        push_f64(&mut out, 0.1);
        push_f64(&mut out, 2.0);
        assert_eq!(out, "0.12");
    }

    #[test]
    fn label_objects_are_compact() {
        let mut out = String::new();
        push_label_object(
            &mut out,
            &[("a".into(), "1".into()), ("b".into(), "2".into())],
        );
        assert_eq!(out, r#"{"a": "1", "b": "2"}"#);
    }
}
