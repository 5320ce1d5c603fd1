//! A JSON value with a writer and a reader, enough for the result files
//! the benchmark writes and reads back itself.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept, so files diff line by line.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A 64-bit digest, as hex: a JSON number would lose its low bits.
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
    }

    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.s.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact, single-line JSON. Non-finite numbers have no JSON form and
/// are written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Indented rendering, two levels deep, for files people read.
pub fn pretty(v: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Json::Obj(fields) if depth < 3 && !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::str(k.as_str()).to_string());
                    out.push_str(": ");
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        let Some(&c) = self.s.get(self.at) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'n' if self.eat("null") => Ok(Json::Null),
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    fields.push((key, self.value()?));
                }
            }
            _ => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("unexpected input at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_the_writer_and_reader() {
        let v = Json::obj([
            ("name", Json::str("a \"quoted\"\nline\tµs")),
            ("digest", Json::hex(0xDEAD_BEEF_0123_4567)),
            ("xs", Json::nums(&[1.0, -2.5, 1.2034e-7, 3e21])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&pretty(&v)).unwrap(), v);
        assert_eq!(v.get("digest"), Some(&Json::str("deadbeef01234567")));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 0.1 + 0.2;
        let back = Json::parse(&Json::Num(x).to_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
