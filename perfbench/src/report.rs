//! Metric records and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]` only.
    pub name: String,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`: Rust's shortest round-trip form, which keeps
/// every significant digit. Non-finite values have no JSON form.
fn json_number(v: f64) -> Result<String, String> {
    if !v.is_finite() {
        return Err(format!("non-finite value {v}"));
    }
    // `{:?}` prints integral floats as `3.0`, which JSON accepts.
    Ok(format!("{v:?}"))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
///
/// # Errors
///
/// An illegal metric name, a duplicate, or a non-finite value.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("illegal metric name {:?}", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {:?} reported twice", m.name));
        }
        let value =
            json_number(m.value).map_err(|e| format!("metric {:?}: {e}", m.name.as_str()))?;
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(m.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}
