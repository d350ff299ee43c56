//! Snapshot manifest parsing for `fpsnr snapshot --manifest`.
//!
//! A manifest names the fields of one snapshot: raw file path, scalar
//! type, dimensions, and (for the weighted objective) a weight. The
//! format is a strict JSON subset, parsed by the hand-rolled reader
//! below — the toolchain builds fully offline with no serde, and a
//! manifest needs objects, arrays, strings and numbers only:
//!
//! ```json
//! {
//!   "fields": [
//!     {"name": "T",  "path": "T.f32",  "dims": [90, 180]},
//!     {"name": "PS", "path": "PS.f64", "type": "f64",
//!      "dims": [90, 180], "weight": 4.0}
//!   ]
//! }
//! ```
//!
//! A bare top-level array of field objects is accepted too. Paths are
//! resolved relative to the manifest file's directory by the caller.

/// One field entry of a snapshot manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestField {
    /// Field name (container label, output file stem).
    pub name: String,
    /// Raw data file path as written in the manifest.
    pub path: String,
    /// Scalar type: `"f32"` (default) or `"f64"`.
    pub dtype: String,
    /// Dimension extents, 1–3 axes.
    pub dims: Vec<usize>,
    /// Weighted-MSE weight (default 1).
    pub weight: f64,
}

/// Parse a manifest document into its field list.
///
/// # Errors
/// A human-readable message naming the malformed construct.
pub fn parse_manifest(text: &str) -> Result<Vec<ManifestField>, String> {
    let value = Parser::new(text).document()?;
    let list = match &value {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(pairs) => match pairs.iter().find(|(k, _)| k == "fields") {
            Some((_, Value::Arr(items))) => items.as_slice(),
            Some(_) => return Err("manifest key \"fields\" must be an array".into()),
            None => return Err("manifest object needs a \"fields\" array".into()),
        },
        _ => return Err("manifest must be an object or an array".into()),
    };
    let mut out = Vec::with_capacity(list.len());
    for (i, item) in list.iter().enumerate() {
        let Value::Obj(pairs) = item else {
            return Err(format!("manifest field {i} is not an object"));
        };
        let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let str_of = |key: &str| -> Result<Option<String>, String> {
            match get(key) {
                None => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("field {i}: \"{key}\" must be a string")),
            }
        };
        let name = str_of("name")?.ok_or_else(|| format!("field {i}: missing \"name\""))?;
        let path =
            str_of("path")?.ok_or_else(|| format!("field {i} ({name}): missing \"path\""))?;
        let dtype = str_of("type")?.unwrap_or_else(|| "f32".to_string());
        if dtype != "f32" && dtype != "f64" {
            return Err(format!(
                "field {i} ({name}): type must be f32 or f64, got {dtype}"
            ));
        }
        let dims = match get("dims") {
            Some(Value::Arr(items)) => {
                let mut dims = Vec::with_capacity(items.len());
                for d in items {
                    match d {
                        Value::Num(n) if *n >= 1.0 && n.fract() == 0.0 => {
                            dims.push(*n as usize);
                        }
                        _ => {
                            return Err(format!(
                                "field {i} ({name}): dims must be positive integers"
                            ))
                        }
                    }
                }
                dims
            }
            _ => return Err(format!("field {i} ({name}): missing \"dims\" array")),
        };
        if dims.is_empty() || dims.len() > 3 {
            return Err(format!("field {i} ({name}): dims must have 1-3 axes"));
        }
        let weight = match get("weight") {
            None => 1.0,
            Some(Value::Num(w)) if w.is_finite() && *w > 0.0 => *w,
            Some(_) => {
                return Err(format!(
                    "field {i} ({name}): weight must be a positive number"
                ))
            }
        };
        out.push(ManifestField {
            name,
            path,
            dtype,
            dims,
            weight,
        });
    }
    if out.is_empty() {
        return Err("manifest lists no fields".into());
    }
    Ok(out)
}

/// The JSON-subset value tree.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Recursive-descent reader over the raw bytes. Covers the JSON grammar
/// a manifest can use: objects, arrays, double-quoted strings with the
/// standard escapes, numbers, `true`/`false`/`null`. Nesting depth is
/// capped so a malicious document cannot blow the stack.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn document(&mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of manifest".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("manifest nests too deeply".into());
        }
        match self.peek()? {
            b'{' => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            b'[' => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        raw.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {raw:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-UTF-8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-borrow the byte as part of a UTF-8 sequence: back
                    // up and take the full char from the source.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "manifest is not valid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("non-empty rest");
                    if c == '\n' {
                        return Err("raw newline inside string".into());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_parses() {
        let doc = r#"{
            "fields": [
                {"name": "T", "path": "T.f32", "dims": [90, 180]},
                {"name": "PS", "path": "ps.f64", "type": "f64",
                 "dims": [10, 50, 50], "weight": 4.0}
            ]
        }"#;
        let fields = parse_manifest(doc).unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "T");
        assert_eq!(fields[0].dtype, "f32");
        assert_eq!(fields[0].dims, vec![90, 180]);
        assert_eq!(fields[0].weight, 1.0);
        assert_eq!(fields[1].dtype, "f64");
        assert_eq!(fields[1].dims, vec![10, 50, 50]);
        assert_eq!(fields[1].weight, 4.0);
    }

    #[test]
    fn bare_array_accepted() {
        let doc = r#"[{"name": "a", "path": "a.raw", "dims": [16]}]"#;
        let fields = parse_manifest(doc).unwrap();
        assert_eq!(fields[0].dims, vec![16]);
    }

    #[test]
    fn string_escapes_decode() {
        let doc = r#"[{"name": "aA\n\"b\"", "path": "p", "dims": [4]}]"#;
        let fields = parse_manifest(doc).unwrap();
        assert_eq!(fields[0].name, "aA\n\"b\"");
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            "",
            "{",
            "[1, 2",
            r#"{"fields": 3}"#,
            r#"{"fields": [{"path": "p", "dims": [4]}]}"#, // no name
            r#"{"fields": [{"name": "a", "dims": [4]}]}"#, // no path
            r#"{"fields": [{"name": "a", "path": "p"}]}"#, // no dims
            r#"{"fields": [{"name": "a", "path": "p", "dims": []}]}"#,
            r#"{"fields": [{"name": "a", "path": "p", "dims": [1,2,3,4]}]}"#,
            r#"{"fields": [{"name": "a", "path": "p", "dims": [0]}]}"#,
            r#"{"fields": [{"name": "a", "path": "p", "dims": [2.5]}]}"#,
            r#"{"fields": [{"name": "a", "path": "p", "dims": [4], "weight": -1}]}"#,
            r#"{"fields": [{"name": "a", "path": "p", "dims": [4], "type": "i8"}]}"#,
            r#"{"fields": []}"#,
            r#"[{"name": "a", "path": "p", "dims": [4]}] extra"#,
        ] {
            assert!(parse_manifest(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let doc = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(parse_manifest(&doc).is_err());
    }
}
