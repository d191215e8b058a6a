//! Hand-written JSON encoding/decoding.
//!
//! The workspace builds offline with no JSON library, so report
//! encoding is implemented by hand here: a small escaping [`Writer`]
//! for output and a strict recursive-descent [`Value`] parser for
//! round-trips. [`CommStats`]
//! gets first-class encode/decode since it is the unit of exchange
//! between runs, dashboards, and stored experiment records.

use bichrome_comm::CommStats;
use std::collections::BTreeMap;

/// Incremental writer for one JSON object; construct with
/// [`Writer::object`].
#[derive(Debug)]
pub struct Writer {
    buf: String,
    any: bool,
}

impl Writer {
    /// Starts an object.
    pub fn object() -> Self {
        Writer {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push_str(&escape(name));
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push_str(&escape(value));
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.buf.push_str(&value.to_string());
    }

    /// Adds a float field (rendered as `null` if not finite).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a `null` field.
    pub fn field_null(&mut self, name: &str) {
        self.key(name);
        self.buf.push_str("null");
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn field_raw(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes a string into a JSON string literal (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as f64; exact for integers below 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, key-ordered.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            chars: text.chars().peekable(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.peek().is_some() {
            return Err(format!("trailing garbage at char {}", p.pos));
        }
        Ok(v)
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as u64, if this is a nonnegative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Maximum nesting depth accepted by [`Value::parse`]; deeper input
/// is a syntax error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {c:?} at char {}, got {got:?}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Parser::object),
            Some('[') => self.nested(Parser::array),
            Some('"') => Ok(Value::String(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected {got:?} at char {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at char {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Object(map)),
                got => return Err(format!("expected ',' or '}}', got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Array(items)),
                got => return Err(format!("expected ',' or ']', got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let unit = self.hex4()?;
                        // Standard encoders escape non-BMP characters
                        // as UTF-16 surrogate pairs; recombine them.
                        let code = if (0xD800..0xDC00).contains(&unit) {
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return Err("lone high surrogate in \\u escape".into());
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate in \\u escape".into());
                            }
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err("lone low surrogate in \\u escape".into());
                        } else {
                            unit
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or("truncated \\u escape")?;
            code = code * 16 + c.to_digit(16).ok_or(format!("bad hex digit {c:?}"))?;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            self.bump();
            text.push('-');
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || "+-.eE".contains(c) {
                self.bump();
                text.push(c);
            } else {
                break;
            }
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Encodes a [`CommStats`] as a JSON object.
pub fn comm_stats_to_json(stats: &CommStats) -> String {
    let phases = |m: &BTreeMap<String, u64>| {
        let fields: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("{}:{}", escape(k), v))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let mut w = Writer::object();
    w.field_u64("bits_alice_to_bob", stats.bits_alice_to_bob);
    w.field_u64("bits_bob_to_alice", stats.bits_bob_to_alice);
    w.field_u64("rounds", stats.rounds);
    w.field_raw("bits_by_phase", &phases(&stats.bits_by_phase));
    w.field_raw("rounds_by_phase", &phases(&stats.rounds_by_phase));
    w.finish()
}

/// Decodes a [`CommStats`] from the JSON produced by
/// [`comm_stats_to_json`].
///
/// # Errors
///
/// Returns a description of the first syntax or shape error.
pub fn comm_stats_from_json(text: &str) -> Result<CommStats, String> {
    let v = Value::parse(text)?;
    let obj = v.as_object().ok_or("CommStats JSON must be an object")?;
    let get_u64 = |key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("missing or non-integer field {key:?}"))
    };
    let get_phases = |key: &str| -> Result<BTreeMap<String, u64>, String> {
        let m = obj
            .get(key)
            .and_then(Value::as_object)
            .ok_or(format!("missing or non-object field {key:?}"))?;
        m.iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("non-integer phase {k:?}"))
            })
            .collect()
    };
    Ok(CommStats {
        bits_alice_to_bob: get_u64("bits_alice_to_bob")?,
        bits_bob_to_alice: get_u64("bits_bob_to_alice")?,
        rounds: get_u64("rounds")?,
        bits_by_phase: get_phases("bits_by_phase")?,
        rounds_by_phase: get_phases("rounds_by_phase")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_roundtrip_empty() {
        let s = CommStats::default();
        let json = comm_stats_to_json(&s);
        assert_eq!(comm_stats_from_json(&json).expect("parses"), s);
    }

    #[test]
    fn comm_stats_roundtrip_full() {
        let mut s = CommStats {
            bits_alice_to_bob: 1234,
            bits_bob_to_alice: 567,
            rounds: 42,
            ..CommStats::default()
        };
        s.bits_by_phase.insert("rct".into(), 1000);
        s.bits_by_phase.insert("d1lc \"quoted\"\n".into(), 801);
        s.rounds_by_phase.insert("rct".into(), 40);
        let json = comm_stats_to_json(&s);
        let back = comm_stats_from_json(&json).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3], "b": {"x": "q\"\nA"}, "c": null, "d": true}"#)
            .expect("parses");
        let obj = v.as_object().expect("object");
        assert_eq!(
            obj["a"],
            Value::Array(vec![
                Value::Number(1.0),
                Value::Number(2.5),
                Value::Number(-3.0)
            ])
        );
        assert_eq!(
            obj["b"].as_object().expect("object")["x"].as_str(),
            Some("q\"\nA")
        );
        assert_eq!(obj["c"], Value::Null);
        assert_eq!(obj["d"], Value::Bool(true));
    }

    #[test]
    fn parser_recombines_surrogate_pairs() {
        // Python's json.dumps escapes 😀 (U+1F600) as a surrogate pair.
        let v = Value::parse(r#"{"label": "\ud83d\ude00 run"}"#).expect("parses");
        assert_eq!(
            v.as_object().expect("object")["label"].as_str(),
            Some("\u{1F600} run")
        );
        assert!(Value::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Value::parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
        assert!(Value::parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        // Deep nesting must error out, not overflow the stack.
        let deep = "[".repeat(200_000);
        assert!(Value::parse(&deep)
            .expect_err("too deep")
            .contains("nesting"));
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("{}x").is_err());
        assert!(Value::parse(r#"{"a" 1}"#).is_err());
        assert!(comm_stats_from_json("{}").is_err());
        assert!(comm_stats_from_json(r#"{"bits_alice_to_bob": "nope"}"#).is_err());
    }
}
