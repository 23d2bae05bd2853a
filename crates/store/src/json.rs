//! A minimal, dependency-free JSON document model with a deterministic
//! writer and a strict parser.
//!
//! serde is unavailable offline, so the experiment store hand-rolls its
//! serialization on top of this module. Two properties matter more here than
//! generality:
//!
//! * **Determinism** — [`Json::encode`] is a pure function of the document:
//!   object fields keep their insertion order, no whitespace is emitted, and
//!   floats are written with Rust's shortest round-trip formatting. Equal
//!   documents encode to equal bytes, so encoded keys can be hashed and
//!   encoded values can be compared bytewise.
//! * **Round-tripping** — for any document `d` produced by this module,
//!   `encode(parse(encode(d))) == encode(d)` byte-for-byte (the codec
//!   property test drives this with randomized documents).
//!
//! Numbers are split into unsigned, signed and floating variants at parse
//! time (a token without `.`/`e` is integral) so `u64` counters survive
//! round trips exactly, without detouring through `f64`.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The store and the
/// trace writer nest a handful of levels; the bound keeps a hostile or
/// corrupt file from overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integral number.
    UInt(u64),
    /// A negative integral number.
    Int(i64),
    /// A number with a fractional part or exponent (or an integral number
    /// too large for `u64`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; field order is preserved and reproduced by the writer.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Encodes the document compactly (no whitespace, insertion-ordered
    /// fields) — the deterministic byte form used for hashing and storage.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let mut buf = [0u8; 20];
                out.push_str(format_u64(*n, &mut buf));
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                // Rust's Display for f64 is the shortest decimal string that
                // parses back to the same value, so Float survives
                // encode→parse→encode unchanged. Non-finite values have no
                // JSON representation; the codec never produces them.
                assert!(x.is_finite(), "cannot encode non-finite float {x} as JSON");
                if *x == 0.0 {
                    // Negative zero would print as "-0", which re-parses as
                    // UInt(0) and re-encodes as "0": write that fixed point.
                    out.push('0');
                } else {
                    out.push_str(&x.to_string());
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(name, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a document from text.
    ///
    /// # Errors
    /// Returns a [`JsonError`] with a byte offset when the text is not a
    /// single well-formed JSON document or nests arrays and objects more
    /// than 128 deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// The field of an object, by name (`None` for missing fields and
    /// non-objects).
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This number as `f64`, whichever integral or floating variant holds it.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// This number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }
}

fn format_u64(n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

fn write_string(s: &str, out: &mut String) {
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

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal run of unescaped bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX escape must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?);
            }
            other => return Err(self.error(format!("invalid escape '\\{}'", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            value = value * 16 + digit as u32;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII by construction");
        if integral {
            if token.starts_with('-') {
                if let Ok(n) = token.parse::<i64>() {
                    return Ok(if n == 0 { Json::UInt(0) } else { Json::Int(n) });
                }
            } else if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            // Integral but out of 64-bit range: fall through to f64.
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => {
                Err(JsonError { message: format!("invalid number token {token:?}"), offset: start })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_workloads::TraceRng;

    fn roundtrip(doc: &Json) {
        let text = doc.encode();
        let parsed = Json::parse(&text).expect("own encoding must parse");
        assert_eq!(parsed.encode(), text, "document {text} did not round-trip");
    }

    #[test]
    fn scalars_roundtrip() {
        for doc in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Int(-1),
            Json::Int(i64::MIN),
            Json::Float(0.125),
            Json::Float(-123.456),
            Json::Float(1.0e-7),
            Json::Float(-0.0),
            Json::Str("plain".to_string()),
            Json::Str("quotes \" slashes \\ newline \n tab \t unicode ∞".to_string()),
        ] {
            roundtrip(&doc);
        }
    }

    #[test]
    fn containers_roundtrip_preserving_order() {
        let doc = Json::Object(vec![
            ("zeta".to_string(), Json::UInt(1)),
            ("alpha".to_string(), Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("nested".to_string(), Json::Object(vec![("x".to_string(), Json::Float(1.5))])),
        ]);
        roundtrip(&doc);
        assert_eq!(doc.encode(), r#"{"zeta":1,"alpha":[null,true],"nested":{"x":1.5}}"#);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let doc = Json::parse(" { \"a\" : [ 1 , -2 , 3.5 ] , \"s\" : \"\\u0041\\n\" } ").unwrap();
        assert_eq!(
            doc.field("a").unwrap(),
            &Json::Array(vec![Json::UInt(1), Json::Int(-2), Json::Float(3.5),])
        );
        assert_eq!(doc.field("s").unwrap(), &Json::Str("A\n".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "1e", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let doc = Json::parse(r#""😀""#).unwrap();
        assert_eq!(doc, Json::Str("😀".to_string()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn integral_floats_encode_via_uint_on_reparse() {
        // 1.0 encodes as "1", which re-parses as UInt(1): byte-stable even
        // though the variant changes. The codec's as_f64 accessor absorbs
        // the variant change.
        let text = Json::Float(1.0).encode();
        assert_eq!(text, "1");
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.as_f64(), Some(1.0));
        assert_eq!(reparsed.encode(), text);
    }

    #[test]
    fn numbers_classify_by_token_shape() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("-0").unwrap(), Json::UInt(0));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Float(42.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Integral but beyond u64: falls back to f64 instead of failing.
        assert!(matches!(Json::parse("18446744073709551616").unwrap(), Json::Float(_)));
    }

    #[test]
    fn field_lookup() {
        let doc = Json::parse(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(doc.field("a").and_then(Json::as_u64), Some(1));
        assert!(doc.field("missing").is_none());
        assert!(Json::Null.field("a").is_none());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        let err = Json::parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    /// A random document of at most `depth` levels.
    fn random_doc(rng: &mut TraceRng, depth: usize) -> Json {
        let pick = rng.range_usize(0..if depth == 0 { 6 } else { 8 });
        let text = |rng: &mut TraceRng| -> String {
            let alphabet = ['a', 'Z', '"', '\\', '\n', '\u{1}', '∞', '😀', '/'];
            (0..rng.range_usize(0..6))
                .map(|_| alphabet[rng.range_usize(0..alphabet.len())])
                .collect()
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.bool(0.5)),
            2 => Json::UInt(rng.next_u64() >> rng.range_u64(0..64)),
            3 => Json::Int(-((rng.next_u64() >> rng.range_u64(1..64)) as i64) - 1),
            4 => Json::Float((rng.f64() - 0.5) * 10f64.powi(rng.range_usize(0..40) as i32 - 20)),
            5 => Json::Str(text(rng)),
            6 => Json::Array(
                (0..rng.range_usize(0..4)).map(|_| random_doc(rng, depth - 1)).collect(),
            ),
            _ => Json::Object(
                (0..rng.range_usize(0..4))
                    .map(|_| (text(rng), random_doc(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Parsing never panics, and whatever parses re-encodes to text that
    /// parses back to a document with the same encoding.
    fn assert_parse_is_total(text: &str) {
        if let Ok(doc) = Json::parse(text) {
            let encoded = doc.encode();
            let reparsed = Json::parse(&encoded)
                .unwrap_or_else(|e| panic!("{text:?} re-encoded to unparseable {encoded:?}: {e}"));
            assert_eq!(reparsed.encode(), encoded, "{text:?} is not stable under re-encoding");
        }
    }

    #[test]
    fn random_and_corrupted_input_never_panics() {
        let mut rng = TraceRng::seed_from_u64(0x1f3c_0015);
        let tokens = [
            "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "d83d", "0", "-", "1", ".", "e", "+",
            "9", "null", "true", "fals", " ", "\n", "∞", "\u{0}",
        ];
        for _ in 0..2000 {
            // Random token soup.
            let soup: String = (0..rng.range_usize(0..24))
                .map(|_| tokens[rng.range_usize(0..tokens.len())])
                .collect();
            assert_parse_is_total(&soup);
            // Random bytes, made valid UTF-8 the way a corrupt file would be read.
            let bytes: Vec<u8> =
                (0..rng.range_usize(0..24)).map(|_| rng.next_u32() as u8).collect();
            assert_parse_is_total(&String::from_utf8_lossy(&bytes));
            // A valid encoding, truncated and with one token spliced in.
            let encoded = random_doc(&mut rng, 4).encode();
            assert_parse_is_total(&encoded);
            let chars: Vec<char> = encoded.chars().collect();
            let cut = rng.range_usize(0..chars.len() + 1);
            assert_parse_is_total(&chars[..cut].iter().collect::<String>());
            let at = rng.range_usize(0..chars.len() + 1);
            let token = tokens[rng.range_usize(0..tokens.len())];
            let mutated: String = chars[..at]
                .iter()
                .copied()
                .chain(token.chars())
                .chain(chars[at..].iter().skip(1).copied())
                .collect();
            assert_parse_is_total(&mutated);
        }
    }
}
