//! Building, rendering and reading the JSON documents the benchmark's
//! processes exchange and write, over the vendored `serde::JsonValue`.

use serde::{JsonValue, JsonWriter};

/// A JSON number; `null` for a value that is not finite (a metric that
/// does not apply).
pub fn num(x: f64) -> JsonValue {
    if x.is_finite() {
        JsonValue::Num(format!("{x}"))
    } else {
        JsonValue::Null
    }
}

/// A JSON integer.
pub fn int(x: u64) -> JsonValue {
    JsonValue::Num(x.to_string())
}

/// A JSON string.
pub fn string(s: impl Into<String>) -> JsonValue {
    JsonValue::Str(s.into())
}

/// A JSON object with its members in the given order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON array.
pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
    JsonValue::Arr(items.into_iter().collect())
}

fn write(v: &JsonValue, w: &mut JsonWriter) {
    match v {
        JsonValue::Null => w.raw("null".into()),
        JsonValue::Bool(b) => w.raw(b.to_string()),
        JsonValue::Num(tok) => w.raw(tok.clone()),
        JsonValue::Str(s) => w.string(s),
        JsonValue::Arr(items) => {
            w.arr_begin();
            for item in items {
                w.arr_elem();
                write(item, w);
            }
            w.arr_end();
        }
        JsonValue::Obj(members) => {
            w.obj_begin();
            for (k, item) in members {
                w.obj_key(k);
                write(item, w);
            }
            w.obj_end();
        }
    }
}

/// `v` as JSON text, on one line unless `pretty`.
pub fn render(v: &JsonValue, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    write(v, &mut w);
    w.finish()
}

/// Reading members back out of a parsed document.
pub trait Get {
    /// The member as a number; `NaN` when absent, `null` or not a number.
    fn f64_of(&self, key: &str) -> f64;
    /// The member as a whole number; 0 when absent or not one.
    fn u64_of(&self, key: &str) -> u64;
    /// The member as a string; empty when absent or not a string.
    fn str_of(&self, key: &str) -> &str;
    /// The member's elements; empty when absent or not an array.
    fn arr_of(&self, key: &str) -> &[JsonValue];
    /// The member's members; empty when absent or not an object.
    fn obj_of(&self, key: &str) -> &[(String, JsonValue)];
}

impl Get for JsonValue {
    fn f64_of(&self, key: &str) -> f64 {
        match self.field(key) {
            JsonValue::Num(tok) => tok.parse().unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    }

    fn u64_of(&self, key: &str) -> u64 {
        match self.field(key) {
            JsonValue::Num(tok) => tok.parse().unwrap_or(0),
            _ => 0,
        }
    }

    fn str_of(&self, key: &str) -> &str {
        self.field(key).as_str().unwrap_or("")
    }

    fn arr_of(&self, key: &str) -> &[JsonValue] {
        match self.field(key) {
            JsonValue::Arr(items) => items,
            _ => &[],
        }
    }

    fn obj_of(&self, key: &str) -> &[(String, JsonValue)] {
        match self.field(key) {
            JsonValue::Obj(members) => members,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_renders_and_reads_back() {
        let doc = obj([
            ("a", num(1.5)),
            ("n", int(u64::MAX)),
            ("nan", num(f64::NAN)),
            ("s", string("x\"y")),
            ("l", arr([int(1), int(2)])),
        ]);
        let text = render(&doc, false);
        assert_eq!(
            text,
            r#"{"a":1.5,"n":18446744073709551615,"nan":null,"s":"x\"y","l":[1,2]}"#
        );
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.f64_of("a"), 1.5);
        assert_eq!(back.u64_of("n"), u64::MAX);
        assert!(back.f64_of("nan").is_nan());
        assert!(back.f64_of("missing").is_nan());
        assert_eq!(back.str_of("s"), "x\"y");
        assert_eq!(back.arr_of("l").len(), 2);
        assert!(back.obj_of("l").is_empty());
    }
}
