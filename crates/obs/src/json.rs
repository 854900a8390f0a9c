//! A minimal recursive-descent JSON validator, plus the string escaper
//! the hand-written JSON writers share. The workspace is offline (no
//! serde), and the only JSON consumers in-tree are the trace checker
//! and the coherence tests, which need exactly two things: "does this
//! parse as JSON?" and "how many elements does the `traceEvents` array
//! hold?".

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and every control character.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// What [`validate`] learned about the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonSummary {
    /// Total JSON values parsed (scalars, arrays, objects — every node).
    pub values: usize,
    /// Element count of the first `"traceEvents"` array encountered,
    /// if the document has one (at any nesting depth).
    pub trace_events: Option<usize>,
}

/// Validate a complete JSON document (a single value with nothing but
/// whitespace after it).
pub fn validate(s: &str) -> Result<JsonSummary, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0, values: 0, trace_events: None };
    p.ws();
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(JsonSummary { values: p.values, trace_events: p.trace_events })
}

/// Validate a single JSON value (used per JSONL line).
pub fn validate_value(s: &str) -> Result<(), String> {
    validate(s).map(|_| ())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    values: usize,
    trace_events: Option<usize>,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.values += 1;
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array().map(|_| ()),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            if key == "traceEvents" && self.peek() == Some(b'[') {
                let n = self.array()?;
                self.values += 1;
                if self.trace_events.is_none() {
                    self.trace_events = Some(n);
                }
            } else {
                self.value()?;
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<usize, String> {
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(0);
        }
        let mut n = 0usize;
        loop {
            self.ws();
            self.value()?;
            n += 1;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(n);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c as char);
                            self.i += 1;
                        }
                        Some(b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at byte {}",
                                            self.i
                                        ))
                                    }
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.i))
                }
                Some(c) => {
                    if c.is_ascii() {
                        out.push(c as char);
                    }
                    self.i += 1;
                }
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at byte {}", self.i));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at byte {}", self.i));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        validate("{}").unwrap();
        validate("[]").unwrap();
        validate(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny é"},"d":[true,false,null]}"#).unwrap();
        validate(" 42 ").unwrap();
        validate_value(r#"{"t_ns":1,"ph":"B"}"#).unwrap();
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate(r#"{"a" 1}"#).is_err());
        assert!(validate("1 2").is_err());
        assert!(validate(r#""unterminated"#).is_err());
        assert!(validate("01x").is_err());
        assert!(validate(r#"{"a":1.}"#).is_err());
        assert!(validate("").is_err());
    }

    #[test]
    fn counts_trace_events() {
        let s = validate(r#"{"displayTimeUnit":"ms","traceEvents":[{"ph":"B"},{"ph":"E"}]}"#)
            .unwrap();
        assert_eq!(s.trace_events, Some(2));
        let s = validate(r#"{"traceEvents":[]}"#).unwrap();
        assert_eq!(s.trace_events, Some(0));
        let s = validate(r#"{"other":[1,2,3]}"#).unwrap();
        assert_eq!(s.trace_events, None);
    }
}
