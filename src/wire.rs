//! The wire format shared by `skp-plan --format json` and `skp-serve`.
//!
//! Everything here is hand-rolled on `std` — the offline workspace has
//! no serde — and split into three layers:
//!
//! 1. **Encoding helpers** ([`esc`], [`num`], [`list`]) and one JSON
//!    grammar: a recursive-descent cursor over the borrowed text. The
//!    same cursor builds the public [`Json`] tree and drives the typed
//!    readers below, so there is exactly one notion of a well-formed
//!    document. Nesting deeper than 64 levels is refused with an error
//!    instead of recursing off the stack. [`Json`] numbers keep
//!    their *raw token text* so 64-bit seeds survive parsing without
//!    being squeezed through `f64` (which only holds 53 bits of integer
//!    precision).
//!    Typed reads sum a plain run of digits on an integer fast path and
//!    hand every other token to `str::parse`; a float field refuses a
//!    token that overflows to an infinity. A numeric list is read in one
//!    loop: a plain run of 1–18 digits with no leading zero, directly
//!    followed by `,` or `]` and below the element type's limit, is
//!    decoded in place; any other token is handed, at its first byte and
//!    inside the same loop, to the reader of a lone element, so values
//!    and errors are those of the element reader.
//! 2. **Report rendering and parsing**: [`write_report_fields`] emits
//!    the `"wire"` ([`WIRE_VERSION`]) / `"access"` / `"section_kind"` /
//!    `"section"` / `"events"` fragment, and [`write_run_document`]
//!    wraps it in the workload/backend/policy header: the one writer of
//!    the CLI's and the daemon's run document. The event log, the bulk of a traced reply, is
//!    five parallel columns, Apache Arrow's columnar layout in JSON (see
//!    [`EVENT_KINDS`]). Each column, and every other numeric list, is
//!    written by its own monomorphic loop, whole numbers two digits per
//!    divide and `kind` codes by a `match`. [`parse_report`] rebuilds a
//!    [`RunReport`] from it without building a tree, parsing each
//!    number token once, straight into its field; the event columns are
//!    read straight into the events. Keys may come in any order (the
//!    renderer's order is the cheapest), unknown keys are validated and
//!    dropped, and on a duplicate key the first one wins (as
//!    [`Json::get`] does). Population (`sharded`) sections
//!    round-trip **bit-identically**: `f64` values are printed with
//!    Rust's shortest-round-trip `Display` and re-parsed with
//!    `str::parse`, which restores the exact bits. Plan, trace and
//!    Monte-Carlo sections are render-only (their statistics carry
//!    private accumulator state that has no business on the wire).
//! 3. **Workload shipping**: [`WireRun`] is the population workload a
//!    `served:` backend posts to a daemon — policy and inner-backend
//!    registry specs, the retrieval catalog, and the Markov chain as
//!    explicit rows so the daemon rebuilds the *identical* chain and
//!    replays the identical simulation. It is read by the same typed
//!    cursor.

use std::borrow::Cow;
use std::fmt::Write as _;

use access_model::MarkovChain;
use distsys::scheduler::{EventKind, JobKind, ShardReport, ShardStats, SimEvent};
use distsys::stats::{AccessStats, Histogram};

use crate::engine::Engine;
use crate::error::Error;
use crate::report::{ReportSection, RunReport};
use crate::workload::Workload;

// ---------------------------------------------------------------------
// Encoding helpers. Everything is appended to one caller-owned buffer.
// ---------------------------------------------------------------------

/// Appends `raw` escaped for inclusion inside a JSON string literal,
/// copying the runs between escapes whole.
fn push_esc(out: &mut String, raw: &str) {
    let mut run = 0;
    for (i, b) in raw.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&raw[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&raw[run..]);
}

/// Appends `raw` as a quoted, escaped JSON string.
fn push_string(out: &mut String, raw: &str) {
    out.push('"');
    push_esc(out, raw);
    out.push('"');
}

/// The two ASCII digits of every value below 100, in order: numbers
/// are written two digits per divide.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Appends the one or two digits of `n < 100`.
fn push_small(out: &mut String, n: u64) {
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
    } else {
        push_pair(out, n);
    }
}

/// Appends the two digits of `n < 100`, a leading zero included.
fn push_pair(out: &mut String, n: u64) {
    let pair = 2 * n as usize;
    out.push(char::from(DIGIT_PAIRS[pair]));
    out.push(char::from(DIGIT_PAIRS[pair + 1]));
}

/// Appends the decimal digits of `n`. Event columns are mostly below
/// 10,000, which takes at most one divide; longer numbers are built
/// right to left, two digits per divide.
fn push_uint(out: &mut String, n: u64) {
    if n < 100 {
        push_small(out, n);
    } else if n < 10_000 {
        push_small(out, n / 100);
        push_pair(out, n % 100);
    } else {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = n;
        while n >= 100 {
            let pair = 2 * (n % 100) as usize;
            n /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        push_small(out, n);
        for &d in &digits[i..] {
            out.push(char::from(d));
        }
    }
}

/// Appends a finite `f64` in Rust's shortest-round-trip `Display` form
/// (re-parsing restores the exact bits); non-finite values become
/// `null`. Below 2^53 every integer is exact and its shortest form is
/// its digits, so whole values (common: simulated time runs in whole
/// units) take the integer path — same bytes, no float formatting.
fn push_num(out: &mut String, x: f64) {
    if x.is_sign_positive() && x < 9_007_199_254_740_992.0 && (x as u64) as f64 == x {
        push_uint(out, x as u64);
    } else if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `items` as a JSON array, each element written by `item`.
/// Every call site passes its own closure, so each list is one
/// monomorphic loop with no indirect call per element.
fn push_arr<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    if let Some((first, rest)) = items.split_first() {
        item(out, first);
        for x in rest {
            out.push(',');
            item(out, x);
        }
    }
    out.push(']');
}

fn push_nums(out: &mut String, xs: &[f64]) {
    push_arr(out, xs, |out, &x| push_num(out, x));
}

/// Writes one JSON object, member by member, into the buffer.
struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjWriter<'a> {
    fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjWriter { out, empty: true }
    }

    /// A member whose value `value` writes. Keys are plain identifiers,
    /// so they go out unescaped.
    fn with(mut self, key: &str, value: impl FnOnce(&mut String)) -> Self {
        self.out.push_str(if self.empty { "\"" } else { ",\"" });
        self.empty = false;
        self.out.push_str(key);
        self.out.push_str("\":");
        value(self.out);
        self
    }

    fn num(self, key: &str, x: f64) -> Self {
        self.with(key, |out| push_num(out, x))
    }

    fn uint(self, key: &str, n: u64) -> Self {
        self.with(key, |out| push_uint(out, n))
    }

    fn str(self, key: &str, s: &str) -> Self {
        self.with(key, |out| push_string(out, s))
    }

    fn end(self) {
        self.out.push('}');
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn esc(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    push_esc(&mut out, raw);
    out
}

/// Renders a finite `f64` with Rust's shortest-round-trip `Display`
/// (re-parsing restores the exact bits); non-finite values become
/// `null`.
pub fn num(x: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, x);
    out
}

/// Renders a slice as a JSON array using `f` for each element.
pub fn list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let mut out = String::new();
    push_arr(&mut out, items, |out, x| out.push_str(&f(x)));
    out
}

// ---------------------------------------------------------------------
// The JSON grammar: one cursor, a tree builder and typed reads.
// ---------------------------------------------------------------------

/// Deepest nesting of arrays and objects any wire document may use.
/// Reports and wire runs nest at most six levels and `/stats` about as
/// deep; the cap turns a hostile `[[[[…` body into a structured error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Numbers are kept as their raw source token ([`Json::Num`]) and only
/// converted on demand, so `u64` seeds and exact `f64` bit patterns are
/// both recoverable from the same parse.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as key/value pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, Error> {
        Parser::new(text, "wire JSON").document(Parser::value)
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number re-parsed as `f64` (exact for values printed by
    /// [`num`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number re-parsed as `u64` from its raw token, so integers
    /// beyond 2⁵³ keep every bit.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The cursor over one document's text: the only JSON grammar here.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// The kind of document being read, named in typed-read errors.
    what: &'static str,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, what: &'static str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            what,
        }
    }

    fn err(&self, detail: impl Into<String>) -> Error {
        Error::InvalidParam {
            what: "wire JSON",
            detail: format!("at byte {}: {}", self.pos, detail.into()),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// Reads one whole document with `read` and rejects trailing data.
    fn document<T>(mut self, read: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        let v = read(&mut self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Parses any value into a [`Json`] tree.
    fn value(&mut self) -> Result<Json, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|p, key| {
                    pairs.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let raw = self.number();
                if raw.parse::<f64>().is_err() {
                    return Err(self.bad_number(raw));
                }
                Ok(Json::Num(raw.to_string()))
            }
            Some(c) => Err(self.err(format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Validates and drops one value (an unknown key or a later
    /// duplicate).
    fn skip(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// Scans a number token. Callers validate it by parsing it into the
    /// type they want, once.
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn bad_number(&self, raw: &str) -> Error {
        self.err(format!("bad number '{raw}'"))
    }

    /// Reads a string, borrowed from the text unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => break,
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            let rest = &self.text[self.pos..];
            let Some(c) = rest.chars().next() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(Cow::Owned(out)),
                '\\' => {
                    let Some(e) = self.text[self.pos..].chars().next() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += e.len_utf8();
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        other => return Err(self.err(format!("unknown escape '\\{other}'"))),
                    }
                }
                c if (c as u32) < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                c => out.push(c),
            }
        }
    }

    /// Walks a `open … close` container, calling `item` once per
    /// comma-separated element. Nesting grows only through
    /// [`enter`](Self::enter), so the depth cap covers the tree builder
    /// and every typed read.
    fn nested(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.enter(open, close)? {
            loop {
                item(self)?;
                if self.next(close)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Opens an `open … close` container one level deeper. Returns
    /// `false`, with the container consumed, if it is empty.
    fn enter(&mut self, open: u8, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        self.eat(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// Steps past the separator after an element: `true` once `close`
    /// has ended the container.
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ => Err(self.err(format!("expected ',' or '{}'", close as char))),
        }
    }

    fn array(&mut self, item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
        self.nested(b'[', b']', item)
    }

    /// Walks an object, handing each member's key to `member`, which
    /// must consume the member's value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.nested(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            member(p, key)
        })
    }

    /// Consumes the key `"name"` if the text spells it with no escape.
    fn eat_key(&mut self, name: &str) -> bool {
        let rest = &self.bytes[self.pos..];
        let end = name.len() + 1;
        let hit = rest.len() > end
            && rest[0] == b'"'
            && &rest[1..end] == name.as_bytes()
            && rest[end] == b'"';
        if hit {
            self.pos += end + 1;
        }
        hit
    }

    /// Walks an object whose known keys are `names`, calling `member`
    /// with the index of each known key; unknown keys are validated and
    /// dropped. Documents usually list the keys in `names` order, so the
    /// key after the last one matched is tried first as a byte prefix;
    /// any other key is read as a string and looked up, which gives the
    /// same index.
    fn fields(
        &mut self,
        names: &[&str],
        mut member: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut next = 0;
        self.nested(b'{', b'}', |p| {
            p.skip_ws();
            let index = match names.get(next) {
                Some(name) if p.eat_key(name) => Some(next),
                _ => {
                    let key = p.string()?;
                    names.iter().position(|name| *name == key)
                }
            };
            p.skip_ws();
            p.eat(b':')?;
            match index {
                Some(i) => {
                    next = i + 1;
                    member(p, i)
                }
                None => p.skip(),
            }
        })
    }

    // Typed reads. Their errors name the document kind (`what`) and
    // the field being read.

    fn bad(&self, key: &str, expected: &str) -> Error {
        Error::InvalidParam {
            what: self.what,
            detail: format!("field '{key}' must be {expected}"),
        }
    }

    /// The value of a required member, or the error naming it.
    fn need<T>(&self, slot: Option<T>, key: &str) -> Result<T, Error> {
        slot.ok_or_else(|| Error::InvalidParam {
            what: self.what,
            detail: format!("missing field '{key}'"),
        })
    }

    /// Fills `slot` with `read` unless an earlier duplicate key already
    /// did; like [`Json::get`], the first occurrence wins and later ones
    /// are only validated.
    fn fill<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<(), Error> {
        if slot.is_some() {
            return self.skip();
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    fn expect(&mut self, open: u8, key: &str, expected: &str) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(open) {
            Ok(())
        } else {
            Err(self.bad(key, expected))
        }
    }

    /// An object-valued field whose known keys are `names` (see
    /// [`fields`](Self::fields)).
    fn members(
        &mut self,
        key: &str,
        names: &[&str],
        member: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{', key, "an object")?;
        self.fields(names, member)
    }

    /// An array-valued field; `expected` describes it on a mismatch.
    fn items(
        &mut self,
        key: &str,
        expected: &str,
        item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'[', key, expected)?;
        self.array(item)
    }

    /// An array field whose elements `read` decodes.
    fn list_of<T>(
        &mut self,
        key: &str,
        mut read: impl FnMut(&mut Self, &str) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        self.items(key, "an array", |p| {
            out.push(read(p, key)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// A number token parsed straight into `T`; `expected` describes the
    /// field when the value is not a number or does not fit `T`.
    fn number_as<T: std::str::FromStr>(&mut self, key: &str, expected: &str) -> Result<T, Error> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let raw = self.number();
                raw.parse().map_err(|_| match raw.parse::<f64>() {
                    Ok(_) => self.bad(key, expected),
                    Err(_) => self.bad_number(raw),
                })
            }
            _ => Err(self.bad(key, expected)),
        }
    }

    /// The fast path for a scalar field's common token: a plain run of
    /// digits (see [`plain_digits`]) ending at a delimiter. Its value is
    /// consumed only if it is below `limit`. Any other token (a sign, a
    /// fraction, an exponent, a leading zero, 19 or more digits, or the
    /// end of the text) returns `None` and is left for
    /// [`number_as`](Self::number_as).
    fn plain_uint(&mut self, limit: u64) -> Option<u64> {
        self.skip_ws();
        let (n, end) = plain_digits(self.bytes, self.pos)?;
        let delimited = matches!(
            self.bytes.get(end),
            Some(b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
        );
        (delimited && n < limit).then(|| {
            self.pos = end;
            n
        })
    }

    /// A finite `f64`; `expected` describes the field when the token is
    /// not a number or overflows to an infinity.
    fn finite(&mut self, key: &str, expected: &str) -> Result<f64, Error> {
        // Below 2^53 every integer converts to `f64` exactly.
        if let Some(n) = self.plain_uint(1 << 53) {
            return Ok(n as f64);
        }
        let x: f64 = self.number_as(key, expected)?;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(self.bad(key, expected))
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, Error> {
        self.finite(key, "a finite number")
    }

    /// A `u64`; `expected` describes the field on a mismatch.
    fn uint(&mut self, key: &str, expected: &str) -> Result<u64, Error> {
        match self.plain_uint(u64::MAX) {
            Some(n) => Ok(n),
            None => self.number_as(key, expected),
        }
    }

    fn u64(&mut self, key: &str) -> Result<u64, Error> {
        self.uint(key, "an unsigned integer")
    }

    fn usize(&mut self, key: &str) -> Result<usize, Error> {
        self.u64(key).map(|v| v as usize)
    }

    fn str(&mut self, key: &str) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"', key, "a string")?;
        self.string()
    }

    fn bool(&mut self, key: &str) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.bad(key, "a boolean")),
        }
    }

    /// An array field of numbers, read in one loop that hands each
    /// element to `put`. The common element — a plain run of digits (see
    /// [`plain_digits`]) directly followed by `,` or `]`, with a value
    /// below [`T::LIMIT`](Element::LIMIT) — is decoded in place. Any
    /// other element is handed, at its first byte, to [`Element::read`],
    /// the reader of a lone element: whitespace, a sign, a fraction, an
    /// exponent, a leading zero, a longer run, `null`, a value at or past
    /// the limit, or the end of the text. So every value and every error
    /// is the one `T::read` alone gives.
    fn numbers<T: Element>(&mut self, key: &str, mut put: impl FnMut(T)) -> Result<(), Error> {
        self.expect(b'[', key, "an array")?;
        if !self.enter(b'[', b']')? {
            return Ok(());
        }
        // The common element never touches the cursor: `pos` tracks it.
        let bytes = self.bytes;
        let mut pos = self.pos;
        loop {
            if let Some((n, end)) = plain_digits(bytes, pos) {
                if n < T::LIMIT {
                    match bytes.get(end) {
                        Some(b',') => {
                            put(T::plain(n));
                            pos = end + 1;
                            continue;
                        }
                        Some(b']') => {
                            put(T::plain(n));
                            self.pos = end + 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => {}
                    }
                }
            }
            self.pos = pos;
            put(T::read(self, key)?);
            if self.next(b']')? {
                return Ok(());
            }
            pos = self.pos;
        }
    }

    /// An array field of numbers (see [`numbers`](Self::numbers)).
    fn list<T: Element>(&mut self, key: &str) -> Result<Vec<T>, Error> {
        let mut out = Vec::new();
        self.numbers(key, |x| out.push(x))?;
        Ok(out)
    }

    /// Validates a value and returns where it starts, to be read later
    /// by a reader chosen from a sibling field.
    fn offset(&mut self, _key: &str) -> Result<usize, Error> {
        self.skip_ws();
        let start = self.pos;
        self.skip()?;
        Ok(start)
    }
}

/// The plain run of digits at `at` — 1 to 18 ASCII digits with no
/// leading zero — as its value (the one `str::parse` gives) and the
/// index just past it. `None` for any other token, a longer run
/// included, which is left to `str::parse`.
fn plain_digits(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut n = 0u64;
    let mut end = at;
    while let Some(&b) = bytes.get(end) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if end - at == 18 {
            return None;
        }
        n = n * 10 + u64::from(digit);
        end += 1;
    }
    match end - at {
        0 => None,
        1 => Some((n, end)),
        _ => (bytes[at] != b'0').then_some((n, end)),
    }
}

/// An element type of a numeric list (see [`Parser::numbers`]).
trait Element: Sized {
    /// Plain runs of digits below this value take the fast path.
    const LIMIT: u64;
    /// The element a plain run of digits below [`LIMIT`](Self::LIMIT)
    /// stands for.
    fn plain(n: u64) -> Self;
    /// Reads a lone element of the list `key`, any token at all.
    fn read(p: &mut Parser<'_>, key: &str) -> Result<Self, Error>;
}

impl Element for f64 {
    // Below 2^53 every integer converts to `f64` exactly.
    const LIMIT: u64 = 1 << 53;

    fn plain(n: u64) -> Self {
        n as f64
    }

    fn read(p: &mut Parser<'_>, key: &str) -> Result<Self, Error> {
        p.finite(key, "finite numbers")
    }
}

impl Element for u64 {
    const LIMIT: u64 = u64::MAX;

    fn plain(n: u64) -> Self {
        n
    }

    fn read(p: &mut Parser<'_>, key: &str) -> Result<Self, Error> {
        p.uint(key, "unsigned integers")
    }
}

/// A `kind` column element: its wire code, an index into
/// [`EVENT_KINDS`].
impl Element for EventKind {
    const LIMIT: u64 = EVENT_KINDS.len() as u64;

    fn plain(code: u64) -> Self {
        EVENT_KINDS[code as usize]
    }

    fn read(p: &mut Parser<'_>, key: &str) -> Result<Self, Error> {
        let code = u64::read(p, key)?;
        let unknown = || invalid(format!("field '{key}' has unknown kind code {code}"));
        EVENT_KINDS.get(code as usize).copied().ok_or_else(unknown)
    }
}

/// Reads one object into the fields listed, each named by its key and
/// decoded by a `fn(&mut Parser, key) -> Result<T, Error>`, and evaluates
/// to their values as a tuple in list order. The first occurrence of a
/// key wins, unknown keys and later duplicates are validated and
/// dropped, and a missing field is an error naming it (the first missing
/// one in list order). Keys are cheapest to read in list order (see
/// [`Parser::fields`]), so the report readers list their fields in the
/// order the renderer writes them.
macro_rules! read_fields {
    ($p:ident . $walk:ident ( $($arg:expr),* ) { $($field:ident: $read:expr),+ $(,)? }) => {{
        // The variants number the fields in list order.
        #[allow(non_camel_case_types)]
        enum Field { $($field),+ }
        $(let mut $field = None;)+
        $p.$walk($($arg,)* &[$(stringify!($field)),+], |p, index| {
            $(if index == Field::$field as usize {
                return p.fill(&mut $field, |p| $read(p, stringify!($field)));
            })+
            unreachable!("field index {index} is past the list")
        })?;
        ($($p.need($field, stringify!($field))?,)+)
    }};
}

// ---------------------------------------------------------------------
// RunReport rendering.
// ---------------------------------------------------------------------

/// Renders the common access-time summary block.
pub fn render_access(a: &AccessStats) -> String {
    let mut out = String::new();
    write_access(&mut out, a);
    out
}

fn write_access(out: &mut String, a: &AccessStats) {
    ObjWriter::new(out)
        .uint("count", a.count)
        .num("mean", a.mean)
        .num("p50", a.p50)
        .num("p99", a.p99)
        .num("min", a.min)
        .num("max", a.max)
        .end();
}

/// The version [`write_report_fields`] writes as `"wire"` and the only
/// one [`parse_report`] reads. Version 2 is the columnar event log.
pub const WIRE_VERSION: u64 = 2;

/// The event kinds by wire code: an event's `kind` column holds the
/// index of its kind here.
pub const EVENT_KINDS: [EventKind; 6] = [
    EventKind::Request,
    EventKind::Served,
    EventKind::TransferStart(JobKind::Prefetch),
    EventKind::TransferStart(JobKind::Demand),
    EventKind::TransferDone(JobKind::Prefetch),
    EventKind::TransferDone(JobKind::Demand),
];

/// The wire code of `kind`: its index in [`EVENT_KINDS`].
fn kind_code(kind: EventKind) -> u64 {
    match kind {
        EventKind::Request => 0,
        EventKind::Served => 1,
        EventKind::TransferStart(JobKind::Prefetch) => 2,
        EventKind::TransferStart(JobKind::Demand) => 3,
        EventKind::TransferDone(JobKind::Prefetch) => 4,
        EventKind::TransferDone(JobKind::Demand) => 5,
    }
}

/// Writes the event log as one object of five parallel columns, each
/// written by its own loop.
fn write_events(out: &mut String, events: &[SimEvent]) {
    ObjWriter::new(out)
        .with("at", |out| {
            push_arr(out, events, |out, e| push_num(out, e.at))
        })
        .with("client", |out| {
            push_arr(out, events, |out, e| push_uint(out, e.client as u64))
        })
        .with("shard", |out| {
            push_arr(out, events, |out, e| push_uint(out, e.shard as u64))
        })
        .with("item", |out| {
            push_arr(out, events, |out, e| push_uint(out, e.item as u64))
        })
        .with("kind", |out| {
            push_arr(out, events, |out, e| push_small(out, kind_code(e.kind)))
        })
        .end();
}

fn write_histogram(out: &mut String, h: &Histogram) {
    ObjWriter::new(out)
        .with("edges", |out| push_nums(out, h.edges()))
        .with("counts", |out| {
            push_arr(out, h.counts(), |out, &c| push_uint(out, c))
        })
        .num("sum", h.sum())
        .end();
}

fn write_shard(out: &mut String, s: &ShardStats) {
    ObjWriter::new(out)
        .uint("shard", s.shard as u64)
        .uint("jobs", s.jobs)
        .num("busy_time", s.busy_time)
        .num("utilisation", s.utilisation)
        .num("mean_queue_depth", s.mean_queue_depth)
        .uint("max_queue_depth", s.max_queue_depth as u64)
        .num("total_transfer", s.total_transfer)
        .num("outage_time", s.outage_time)
        .num("outage_delay", s.outage_delay)
        .num("service_scale", s.service_scale)
        .with("stalls", |out| write_histogram(out, &s.stalls))
        .end();
}

fn write_section(out: &mut String, section: &ReportSection, labels: &[String]) {
    let obj = ObjWriter::new(out);
    match section {
        ReportSection::Plan(r) => obj
            .with("items", |out| {
                push_arr(out, r.plan.items(), |out, &i| push_uint(out, i as u64))
            })
            .with("labels", |out| {
                push_arr(out, r.plan.items(), |out, &i| match labels.get(i) {
                    Some(label) => push_string(out, label),
                    None => push_string(out, &i.to_string()),
                })
            })
            .num("gain", r.gain)
            .num("stretch", r.stretch)
            .num("expected_access_time", r.expected_access_time)
            .num("upper_bound", r.upper_bound)
            .with("per_request", |out| push_nums(out, &r.per_request)),
        ReportSection::Trace(r) => obj
            .uint("requests", r.requests)
            .num("mean_access_time", r.mean_access_time)
            .num("hit_rate", r.hit_rate)
            .num("wasted_per_request", r.wasted_per_request),
        ReportSection::MonteCarlo(r) => obj
            .uint("iterations", r.iterations)
            .num("mean_access_time", r.access.mean())
            .num("std_err", r.access.std_err())
            .num("mean_gain", r.gain.mean()),
        ReportSection::Sharded(r) => obj
            .uint("requests", r.requests())
            .with("access", |out| write_access(out, &r.access))
            .num("utilisation", r.utilisation)
            .num("wasted_transfer", r.wasted_transfer)
            .num("total_transfer", r.total_transfer)
            .with("shards", |out| push_arr(out, &r.shards, write_shard)),
    }
    .end();
}

/// Appends a [`RunReport`] to `out` as the JSON object *fields*
/// `"wire":2,"access":…,"section_kind":…,"section":…,"events":…` (no
/// braces), so callers can write their own metadata keys around them in
/// the same buffer. Reserves room for the whole body up front.
///
/// `labels` are the catalog item labels (used by plan sections only;
/// pass `&[]` when there are none).
pub fn write_report_fields(out: &mut String, report: &RunReport, labels: &[String]) {
    // Usually under 24 bytes per event and 350 per shard.
    let shards = report.sharded().map_or(0, |r| r.shards.len());
    out.reserve(512 + 24 * report.events.len() + 384 * shards);
    let _ = write!(out, "\"wire\":{WIRE_VERSION},\"access\":");
    write_access(out, &report.access);
    out.push_str(",\"section_kind\":");
    push_string(out, report.section.name());
    out.push_str(",\"section\":");
    write_section(out, &report.section, labels);
    out.push_str(",\"events\":");
    write_events(out, &report.events);
}

/// The fields [`write_report_fields`] appends, as a new string.
pub fn render_report_fields(report: &RunReport, labels: &[String]) -> String {
    let mut out = String::new();
    write_report_fields(&mut out, report, labels);
    out
}

/// Appends the run document to `out`: the `"workload"`, `"backend"`
/// and `"policy"` header, then the [`write_report_fields`] body, in one
/// JSON object. `skp-plan run --format json` and the daemon's
/// `POST /run` answer both write it here, so a local run and a served
/// round trip are byte-comparable.
pub fn write_run_document(
    out: &mut String,
    workload: &str,
    engine: &Engine,
    report: &RunReport,
    labels: &[String],
) {
    out.push_str("{\"workload\":");
    push_string(out, workload);
    out.push_str(",\"backend\":");
    push_string(out, &engine.backend_spec_string());
    out.push_str(",\"policy\":");
    push_string(out, engine.policy_name());
    out.push(',');
    write_report_fields(out, report, labels);
    out.push('}');
}

// ---------------------------------------------------------------------
// RunReport parsing (population sections only).
// ---------------------------------------------------------------------

const REPORT: &str = "wire report";

fn invalid(detail: String) -> Error {
    Error::InvalidParam {
        what: REPORT,
        detail,
    }
}

fn read_access(p: &mut Parser<'_>, key: &str) -> Result<AccessStats, Error> {
    let (count, mean, p50, p99, min, max) = read_fields!(p.members(key) {
        count: Parser::u64,
        mean: Parser::f64,
        p50: Parser::f64,
        p99: Parser::f64,
        min: Parser::f64,
        max: Parser::f64,
    });
    Ok(AccessStats {
        count,
        mean,
        p50,
        p99,
        min,
        max,
    })
}

fn read_histogram(p: &mut Parser<'_>, key: &str) -> Result<Histogram, Error> {
    let (edges, counts, sum) = read_fields!(p.members(key) {
        edges: Parser::list::<f64>,
        counts: Parser::list::<u64>,
        sum: Parser::f64,
    });
    if edges.is_empty()
        || edges.windows(2).any(|w| w[0] >= w[1])
        || edges[0] <= 0.0
        || counts.len() != edges.len() + 2
        || counts
            .iter()
            .try_fold(0u64, |a, &c| a.checked_add(c))
            .is_none()
    {
        return Err(invalid(format!(
            "field '{key}' is not a valid histogram (edges must be increasing and positive, \
             with one count per bin and a total that fits in 64 bits)"
        )));
    }
    Ok(Histogram::from_parts(edges, counts, sum))
}

fn read_shard(p: &mut Parser<'_>, key: &str) -> Result<ShardStats, Error> {
    let (
        shard,
        jobs,
        busy_time,
        utilisation,
        mean_queue_depth,
        max_queue_depth,
        total_transfer,
        outage_time,
        outage_delay,
        service_scale,
        stalls,
    ) = read_fields!(p.members(key) {
        shard: Parser::usize,
        jobs: Parser::u64,
        busy_time: Parser::f64,
        utilisation: Parser::f64,
        mean_queue_depth: Parser::f64,
        max_queue_depth: Parser::usize,
        total_transfer: Parser::f64,
        outage_time: Parser::f64,
        outage_delay: Parser::f64,
        service_scale: Parser::f64,
        stalls: read_histogram,
    });
    Ok(ShardStats {
        shard,
        jobs,
        busy_time,
        utilisation,
        mean_queue_depth,
        max_queue_depth,
        total_transfer,
        outage_time,
        outage_delay,
        service_scale,
        stalls,
    })
}

fn read_shards(p: &mut Parser<'_>, key: &str) -> Result<Vec<ShardStats>, Error> {
    p.list_of(key, read_shard)
}

/// Reads the population section of the given kind.
fn read_section(p: &mut Parser<'_>, kind: &str) -> Result<ReportSection, Error> {
    Ok(match kind {
        "sharded" => {
            let (access, utilisation, wasted_transfer, total_transfer, shards) = read_fields!(p.members("section") {
                access: read_access,
                utilisation: Parser::f64,
                wasted_transfer: Parser::f64,
                total_transfer: Parser::f64,
                shards: read_shards,
            });
            ReportSection::Sharded(ShardReport {
                access,
                utilisation,
                wasted_transfer,
                total_transfer,
                shards,
            })
        }
        other => {
            return Err(invalid(format!(
                "field 'section_kind' is '{other}': only sharded reports round-trip"
            )))
        }
    })
}

/// Reads the version member, refusing any version but [`WIRE_VERSION`].
fn read_version(p: &mut Parser<'_>, key: &str) -> Result<u64, Error> {
    match p.u64(key)? {
        WIRE_VERSION => Ok(WIRE_VERSION),
        got => Err(invalid(format!(
            "field '{key}' is version {got}, but this reader reads version {WIRE_VERSION}"
        ))),
    }
}

/// An event the columns fill in field by field.
const BLANK_EVENT: SimEvent = SimEvent {
    at: 0.0,
    client: 0,
    shard: 0,
    item: 0,
    kind: EventKind::Request,
};

/// Reads the event column `key` straight into `log`, storing element
/// `i` in event `i` with `set`, and returns the column's length. The
/// log grows only as elements are parsed, so no buffer is sized from a
/// count the peer declares.
fn read_column<T: Element>(
    p: &mut Parser<'_>,
    key: &str,
    log: &mut Vec<SimEvent>,
    set: impl Fn(&mut SimEvent, T),
) -> Result<usize, Error> {
    let mut len = 0;
    p.numbers(key, |x| {
        if len == log.len() {
            log.push(BLANK_EVENT);
        }
        set(&mut log[len], x);
        len += 1;
    })?;
    Ok(len)
}

/// Reads the columnar event log, each column straight into the events.
fn read_events(p: &mut Parser<'_>, key: &str) -> Result<Vec<SimEvent>, Error> {
    let mut log = Vec::new();
    let (at, client, shard, item, kind) = read_fields!(p.members(key) {
        at: |p: &mut Parser<'_>, key: &str| read_column(p, key, &mut log, |e, at| e.at = at),
        client: |p: &mut Parser<'_>, key: &str| read_column(p, key, &mut log, |e, c: u64| e.client = c as usize),
        shard: |p: &mut Parser<'_>, key: &str| read_column(p, key, &mut log, |e, s: u64| e.shard = s as usize),
        item: |p: &mut Parser<'_>, key: &str| read_column(p, key, &mut log, |e, i: u64| e.item = i as usize),
        kind: |p: &mut Parser<'_>, key: &str| read_column(p, key, &mut log, |e, k| e.kind = k),
    });
    let lens = [at, client, shard, item, kind];
    if lens.iter().any(|&len| len != lens[0]) {
        return Err(invalid(format!(
            "field '{key}' has columns of unequal length (at, client, shard, item, kind: {lens:?})"
        )));
    }
    Ok(log)
}

/// Rebuilds a [`RunReport`] from a JSON document containing the fields
/// emitted by [`render_report_fields`] (extra metadata keys are
/// validated and ignored).
///
/// Only the population section (`sharded`) can be rebuilt — it is what
/// a `served:` round-trip carries — and its reconstruction is
/// bit-identical to the original report. A document whose `"wire"`
/// version is missing or is not [`WIRE_VERSION`] is refused.
pub fn parse_report(text: &str) -> Result<RunReport, Error> {
    let (_, access, kind, section, events) = Parser::new(text, REPORT).document(|p| {
        Ok(read_fields!(p.fields() {
            wire: read_version,
            access: read_access,
            section_kind: Parser::str,
            // The section's shape depends on its kind, which may come
            // after it: remember where it starts and read it below.
            section: Parser::offset,
            events: read_events,
        }))
    })?;
    let mut p = Parser::new(text, REPORT);
    p.pos = section;
    Ok(RunReport {
        access,
        section: read_section(&mut p, &kind)?,
        events,
        // Store counters and phase timings are not results, so they do
        // not travel: the wire form omits them (keeping warm and cold
        // bodies byte-identical) and the reconstruction reports zeros.
        plan_store: planstore::PlanStoreStats::default(),
        phases: Default::default(),
    })
}

// ---------------------------------------------------------------------
// Workload shipping: the body a served: backend posts to a daemon.
// ---------------------------------------------------------------------

const RUN: &str = "wire run";

/// A chain's `[successor, probability]` rows, in stored order.
fn read_rows(p: &mut Parser<'_>, key: &str) -> Result<Vec<Vec<(usize, f64)>>, Error> {
    const PAIRS: &str = "[successor, probability] pairs";
    let mut rows = Vec::new();
    p.items(key, "an array", |p| {
        let mut row = Vec::new();
        p.items(key, "an array of rows", |p| {
            let mut pair = (None, None);
            p.items(key, PAIRS, |p| {
                match pair {
                    (None, _) => pair.0 = Some(p.number_as::<u64>(key, PAIRS)?),
                    (Some(_), None) => pair.1 = Some(p.number_as::<f64>(key, PAIRS)?),
                    _ => return Err(p.bad(key, PAIRS)),
                }
                Ok(())
            })?;
            let (Some(j), Some(q)) = pair else {
                return Err(p.bad(key, PAIRS));
            };
            row.push((j as usize, q));
            Ok(())
        })?;
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

/// The shipped chain as `(viewing, rows)`.
#[allow(clippy::type_complexity)] // the two halves of MarkovChain::new
fn read_chain(p: &mut Parser<'_>, key: &str) -> Result<(Vec<f64>, Vec<Vec<(usize, f64)>>), Error> {
    let (rows, viewing) = read_fields!(p.members(key) {
        rows: read_rows,
        viewing: Parser::list::<f64>,
    });
    Ok((viewing, rows))
}

/// A population workload in transit: everything a daemon needs to
/// replay the run bit-identically — registry specs for the policy and
/// the inner backend, the retrieval catalog, and the Markov chain as
/// its exact stored rows.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRun {
    /// Workload kind; `"sharded"` is the only population kind.
    pub kind: String,
    /// Registry spec of the backend the daemon should run
    /// (e.g. `sharded:8x64:hash`).
    pub backend: String,
    /// Registry spec of the planning policy (e.g. `skp-exact`).
    pub policy: String,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// Simulation seed (full 64-bit precision preserved).
    pub seed: u64,
    /// Whether the mechanistic event log is wanted.
    pub traced: bool,
    /// Retrieval time per catalog item.
    pub retrievals: Vec<f64>,
    /// Per-state viewing times of the browsing chain.
    pub viewing: Vec<f64>,
    /// Exact per-state transition rows `(successor, probability)`, in
    /// stored order — sampling order matters for determinism.
    pub rows: Vec<Vec<(usize, f64)>>,
}

impl WireRun {
    /// Captures a population run's inputs for shipping.
    #[allow(clippy::too_many_arguments)] // mirrors the wire document's fields
    pub fn new(
        kind: &str,
        backend: &str,
        policy: &str,
        chain: &MarkovChain,
        retrievals: &[f64],
        requests_per_client: u64,
        seed: u64,
        traced: bool,
    ) -> Self {
        Self {
            kind: kind.to_string(),
            backend: backend.to_string(),
            policy: policy.to_string(),
            requests_per_client,
            seed,
            traced,
            retrievals: retrievals.to_vec(),
            viewing: (0..chain.n_states()).map(|i| chain.viewing(i)).collect(),
            rows: (0..chain.n_states())
                .map(|i| chain.successors(i).to_vec())
                .collect(),
        }
    }

    /// Renders the workload as one JSON document.
    pub fn render(&self) -> String {
        let pairs: usize = self.rows.iter().map(Vec::len).sum();
        let mut out = String::with_capacity(256 + 24 * (self.retrievals.len() + pairs));
        ObjWriter::new(&mut out)
            .str("kind", &self.kind)
            .str("backend", &self.backend)
            .str("policy", &self.policy)
            .uint("requests_per_client", self.requests_per_client)
            .uint("seed", self.seed)
            .with("traced", |out| {
                out.push_str(if self.traced { "true" } else { "false" })
            })
            .with("retrievals", |out| push_nums(out, &self.retrievals))
            .with("chain", |out| {
                ObjWriter::new(out)
                    .with("viewing", |out| push_nums(out, &self.viewing))
                    .with("rows", |out| {
                        push_arr(out, &self.rows, |out, row| {
                            push_arr(out, row, |out, &(j, p)| {
                                out.push('[');
                                push_uint(out, j as u64);
                                out.push(',');
                                push_num(out, p);
                                out.push(']');
                            })
                        })
                    })
                    .end()
            })
            .end();
        out
    }

    /// Parses a workload document produced by [`render`](Self::render).
    pub fn parse(text: &str) -> Result<Self, Error> {
        let (chain, kind, backend, policy, requests_per_client, seed, traced, retrievals) =
            Parser::new(text, RUN).document(|p| {
                Ok(read_fields!(p.fields() {
                    chain: read_chain,
                    kind: Parser::str,
                    backend: Parser::str,
                    policy: Parser::str,
                    requests_per_client: Parser::u64,
                    seed: Parser::u64,
                    traced: Parser::bool,
                    retrievals: Parser::list::<f64>,
                }))
            })?;
        let (viewing, rows) = chain;
        Ok(Self {
            kind: kind.into_owned(),
            backend: backend.into_owned(),
            policy: policy.into_owned(),
            requests_per_client,
            seed,
            traced,
            retrievals,
            viewing,
            rows,
        })
    }

    /// Builds the engine and workload this wire run describes, with
    /// `store` as the engine's plan store. Running
    /// `engine.run(&workload)` replays the original simulation
    /// bit-identically (same chain rows, same seed, same specs) on any
    /// store; `skp-serve` hands every request the daemon-wide one,
    /// which is what turns the second identical run into a store hit.
    pub fn instantiate_with_store(
        &self,
        store: std::sync::Arc<dyn planstore::PlanStore>,
    ) -> Result<(Engine, Workload), Error> {
        let chain = MarkovChain::new(self.rows.clone(), self.viewing.clone()).map_err(|e| {
            Error::InvalidParam {
                what: RUN,
                detail: format!("field 'chain' is not a valid markov chain: {e}"),
            }
        })?;
        let engine = Engine::builder()
            .policy(&self.policy)
            .catalog(self.retrievals.clone())
            .backend_spec(&self.backend)
            .plan_store_instance(store)
            .build()?;
        let workload = match self.kind.as_str() {
            "sharded" => Workload::sharded(chain, self.requests_per_client, self.seed),
            other => {
                return Err(Error::InvalidParam {
                    what: RUN,
                    detail: format!("field 'kind' must be sharded, not '{other}'"),
                })
            }
        };
        Ok((engine, workload.traced(self.traced)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_basics() {
        let doc = Json::parse(r#"{"a":[1,-2.5e3,true,null],"b":"x\n\"A"}"#).unwrap();
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\n\"A"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\":01x}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn u64_seeds_survive_without_f64_truncation() {
        let seed = u64::MAX - 1;
        let doc = Json::parse(&format!("{{\"seed\":{seed}}}")).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 1e300] {
            let parsed = Json::parse(&num(x)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{x} drifted");
        }
    }

    #[test]
    fn population_report_round_trips_bit_identically() {
        use crate::engine::Engine;
        let chain = MarkovChain::random(12, 2, 5, 3, 9, 7).unwrap();
        let retrievals: Vec<f64> = (0..12).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("sharded:3x4:hot-cold@2")
            .build()
            .unwrap();
        let report = engine
            .run(&Workload::sharded(chain, 25, 77).traced(true))
            .unwrap();
        assert!(!report.events.is_empty());
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        let rebuilt = parse_report(&json).unwrap();
        assert_eq!(report, rebuilt);
    }

    /// A `multi-client:<clients>` run reports a one-shard sharded
    /// section, which round-trips like any other.
    #[test]
    fn multi_client_report_round_trips() {
        let report = golden_one_shard();
        assert_eq!(report.section.name(), "sharded");
        assert_eq!(report.sharded().unwrap().shards.len(), 1);
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        assert_eq!(parse_report(&json).unwrap(), report);
    }

    #[test]
    fn non_population_sections_do_not_parse() {
        let scenario =
            crate::Scenario::new(vec![0.4, 0.3, 0.2, 0.1], vec![4.0, 3.0, 2.0, 1.0], 5.0).unwrap();
        let mut engine = Engine::builder().policy("skp-exact").build().unwrap();
        let report = engine.run(&Workload::plan(scenario)).unwrap();
        let json = format!("{{{}}}", render_report_fields(&report, &[]));
        let err = parse_report(&json).unwrap_err().to_string();
        assert!(err.contains("plan") && err.contains("round-trip"), "{err}");
    }

    #[test]
    fn parse_errors_name_the_field() {
        let err = parse_report("{\"access\":{\"count\":1}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'mean'"), "{err}");
        let err = WireRun::parse("{\"kind\":\"sharded\"}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'chain'"), "{err}");
        let err = WireRun::parse("{\"chain\":{\"viewing\":[],\"rows\":[]}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("'kind'"), "{err}");
        // `multi-client` is a backend spelling, not a wire kind: a reply
        // or a run that names it is a structured error, not a panic.
        let fields = render_report_fields(&golden_one_shard(), &[]);
        let reply = fields.replacen(
            "\"section_kind\":\"sharded\"",
            "\"section_kind\":\"multi-client\"",
            1,
        );
        assert_ne!(reply, fields);
        match parse_report(&format!("{{{reply}}}")) {
            Err(Error::InvalidParam { detail, .. }) => {
                assert!(detail.contains("'section_kind'"), "{detail}")
            }
            other => panic!("expected InvalidParam, got {other:?}"),
        }
        let chain = MarkovChain::random(3, 1, 2, 1, 9, 1).unwrap();
        let run = WireRun::new(
            "multi-client",
            "sharded:1x2",
            "skp-exact",
            &chain,
            &[1.0; 3],
            1,
            1,
            false,
        );
        let store = planstore::build_plan_store("none").unwrap();
        match WireRun::parse(&run.render()).and_then(|run| run.instantiate_with_store(store)) {
            Err(Error::InvalidParam { detail, .. }) => {
                assert!(detail.contains("'kind'"), "{detail}")
            }
            Err(other) => panic!("expected InvalidParam, got {other:?}"),
            Ok(_) => panic!("expected InvalidParam, got a runnable workload"),
        }
    }

    #[test]
    fn wire_run_round_trips_and_replays_identically() {
        let chain = MarkovChain::random(10, 2, 4, 3, 8, 42).unwrap();
        let retrievals: Vec<f64> = (0..10).map(|i| 1.5 + (i % 3) as f64).collect();
        let wire = WireRun::new(
            "sharded",
            "sharded:2x4:hash",
            "skp-exact",
            &chain,
            &retrievals,
            15,
            1999,
            true,
        );
        let parsed = WireRun::parse(&wire.render()).unwrap();
        assert_eq!(wire, parsed);

        // The shipped run replays bit-identically to the direct one.
        let mut direct = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("sharded:2x4:hash")
            .build()
            .unwrap();
        let expected = direct
            .run(&Workload::sharded(chain, 15, 1999).traced(true))
            .unwrap();
        let store = planstore::build_plan_store("none").unwrap();
        let (mut engine, workload) = parsed.instantiate_with_store(store).unwrap();
        assert_eq!(engine.run(&workload).unwrap(), expected);
    }

    /// Runs `f` on a thread with a 2 MiB stack, the default for spawned
    /// threads and so for the daemon's workers.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        on_small_stack(|| {
            // About 0.5 MB: under the daemon's 1 MiB body cap.
            let deep = "[".repeat(500_000);
            let under_key = format!("{{\"x\":{deep}");
            let err = Json::parse(&deep).unwrap_err().to_string();
            assert!(
                err.contains("wire JSON") && err.contains("nesting"),
                "{err}"
            );
            for text in [&deep, &under_key] {
                assert!(parse_report(text).is_err());
                assert!(WireRun::parse(text).is_err());
            }
            // Unknown keys are walked by the same capped cursor.
            for err in [
                parse_report(&under_key).unwrap_err(),
                WireRun::parse(&under_key).unwrap_err(),
            ] {
                assert!(err.to_string().contains("nesting"), "{err}");
            }
        });
    }

    #[test]
    fn depth_cap_sits_exactly_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn key_order_unknown_keys_and_duplicates() {
        let report = golden_one_shard();
        let fields = render_report_fields(&report, &[]);
        // Section before its kind, events first, an unknown nested key,
        // and a later duplicate `access` that must lose to the first.
        let (access, rest) = fields.split_once(",\"section_kind\":").unwrap();
        let text = format!(
            "{{\"events\":{{\"kind\":[],\"item\":[],\"at\":[],\"shard\":[],\"client\":[]}},\
             \"extra\":{{\"a\":[1,{{}},\"\\u00e9\"]}},\"section_kind\":{rest},{access},\"access\":7}}"
        );
        assert_eq!(parse_report(&text).unwrap(), report);
        let text = format!("{{\"x\":1,{fields},\"access\":{{}}}}");
        assert_eq!(parse_report(&text).unwrap(), report);
    }

    #[test]
    fn type_errors_name_the_field() {
        let err = parse_report("{\"access\":{\"count\":1.5}}").unwrap_err();
        assert!(
            err.to_string()
                .contains("'count' must be an unsigned integer"),
            "{err}"
        );
        let err = parse_report("{\"access\":[]}").unwrap_err();
        assert!(
            err.to_string().contains("'access' must be an object"),
            "{err}"
        );
        let err = WireRun::parse("{\"traced\":1}").unwrap_err();
        assert!(
            err.to_string().contains("'traced' must be a boolean"),
            "{err}"
        );
        let err = WireRun::parse("{\"chain\":{\"rows\":[[[1]]]}}").unwrap_err();
        assert!(
            err.to_string().contains("[successor, probability] pairs"),
            "{err}"
        );
    }

    #[test]
    fn histogram_totals_that_overflow_are_refused() {
        let fields = render_report_fields(&golden_sharded(), &[]);
        let m = u64::MAX;
        let text = fields.replacen("\"counts\":[1,0,", &format!("\"counts\":[{m},{m},"), 1);
        assert_ne!(text, fields);
        let err = parse_report(&format!("{{{text}}}")).unwrap_err();
        assert!(err.to_string().contains("not a valid histogram"), "{err}");
    }

    fn golden_sharded() -> RunReport {
        let chain = MarkovChain::random(12, 2, 5, 3, 9, 7).unwrap();
        let retrievals: Vec<f64> = (0..12).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("sharded:3x4:hot-cold@2")
            .build()
            .unwrap();
        engine
            .run(&Workload::sharded(chain, 2, 77).traced(true))
            .unwrap()
    }

    /// Four clients on one shared channel, spelled `multi-client:4`.
    fn golden_one_shard() -> RunReport {
        let chain = MarkovChain::random(8, 2, 4, 2, 6, 3).unwrap();
        let retrievals: Vec<f64> = (0..8).map(|i| 2.0 + i as f64).collect();
        let mut engine = Engine::builder()
            .policy("skp-exact")
            .catalog(retrievals)
            .backend_spec("multi-client:4")
            .build()
            .unwrap();
        engine.run(&Workload::sharded(chain, 20, 5)).unwrap()
    }

    /// The one-shard report carrying a hand-made event log: every
    /// event kind, fractional, signed-zero and huge times, and ids of
    /// several digits — what a simulation rarely produces.
    fn golden_events() -> RunReport {
        let event = |at, client, shard, item, kind| SimEvent {
            at,
            client,
            shard,
            item,
            kind,
        };
        let mut report = golden_one_shard();
        report.events = vec![
            event(0.0, 0, 0, 0, EventKind::Request),
            event(-0.0, 9, 10, 11, EventKind::Served),
            event(
                0.1 + 0.2,
                10,
                99,
                100,
                EventKind::TransferStart(JobKind::Prefetch),
            ),
            event(
                1e-7,
                1234,
                5,
                67890,
                EventKind::TransferStart(JobKind::Demand),
            ),
            event(
                4_503_599_627_370_495.5,
                1,
                2,
                3,
                EventKind::TransferDone(JobKind::Prefetch),
            ),
            event(
                9_007_199_254_740_991.0,
                4_294_967_295,
                12,
                345,
                EventKind::TransferDone(JobKind::Demand),
            ),
            event(9_007_199_254_740_992.0, 7, 8, 9, EventKind::Request),
            event(1e20, 10, 10, 10, EventKind::Served),
        ];
        report
    }

    fn golden_plan() -> (RunReport, Vec<String>) {
        let scenario =
            crate::Scenario::new(vec![0.4, 0.3, 0.2, 0.1], vec![4.0, 3.0, 2.0, 1.0], 5.0).unwrap();
        let mut engine = Engine::builder().policy("skp-exact").build().unwrap();
        let labels = ["say \"hi\"\\\t\n", "b", "c", "bell\u{7}é\r"]
            .map(String::from)
            .to_vec();
        (engine.run(&Workload::plan(scenario)).unwrap(), labels)
    }

    // `render_report_fields` output of the three reports above, wrapped
    // after commas for reading (the renderer never emits a raw newline).
    // Wire version 2 re-cut them: each differs from its version-1 form
    // only in the `wire` member and the columnar `events` value.
    const GOLDEN_SHARDED: &str = r#"
"wire":2,"access":{"count":8,"mean":2.125,"p50":0,"p99":6,"min":0,"max":6},
"section_kind":"sharded","section":{"requests":8,"access":{"count":8,"mean":2.125,"p50":0,
"p99":6,"min":0,"max":6},"utilisation":0.8771929824561404,"wasted_transfer":24,
"total_transfer":57,"shards":[{"shard":0,"jobs":9,"busy_time":12,
"utilisation":0.631578947368421,"mean_queue_depth":0.75,"max_queue_depth":3,
"total_transfer":12,"outage_time":0,"outage_delay":0,"service_scale":1,
"stalls":{"edges":[1,2,4,8,16,32,64,128,256],"counts":[1,0,0,0,0,0,0,0,0,0,0],"sum":0}},
{"shard":1,"jobs":8,"busy_time":23,"utilisation":1,"mean_queue_depth":1.5714285714285714,
"max_queue_depth":3,"total_transfer":23,"outage_time":0,"outage_delay":0,
"service_scale":1,"stalls":{"edges":[1,2,4,8,16,32,64,128,256],"counts":[3,0,0,0,2,0,0,0,
0,0,0],"sum":11}},{"shard":2,"jobs":8,"busy_time":22,"utilisation":1,
"mean_queue_depth":3.4285714285714284,"max_queue_depth":5,"total_transfer":22,
"outage_time":0,"outage_delay":0,"service_scale":1,"stalls":{"edges":[1,2,4,8,16,32,64,
128,256],"counts":[1,0,0,0,1,0,0,0,0,0,0],"sum":6}}]},"events":{"at":[0,0,0,1,1,2,2,3,3,3,
3,3,3,4,4,5,5,5,5,5,5,5,5,5,6,6,7,7,8,8,8,8,9,9,9,9,9,9,10,10,10,11,12,12,13,13,13,14,14,
15,15,15,15,16,17,17,17,18,18,19,19,19,19,19,19],"client":[1,1,0,1,2,1,3,0,0,2,3,3,3,2,3,
0,0,0,1,1,0,1,3,2,0,1,3,3,1,2,1,3,1,2,2,0,3,2,2,3,2,3,0,0,2,3,1,0,3,1,1,1,2,1,3,3,0,2,0,0,
1,0,0,0,3],"shard":[0,1,2,0,0,1,1,2,2,0,0,1,1,1,0,2,2,0,1,1,2,2,1,1,0,0,1,1,2,2,0,0,2,1,1,
1,0,0,2,2,0,1,0,0,2,2,2,1,1,2,2,0,2,0,1,1,1,2,2,1,2,1,1,0,1],"item":[0,6,7,0,1,6,5,7,11,1,
0,5,6,8,0,7,7,0,6,6,11,7,6,8,0,1,5,5,7,11,1,0,11,8,8,9,0,0,11,7,0,2,0,0,11,7,11,9,2,11,11,
0,7,0,2,2,6,7,3,6,7,6,6,1,8],"kind":[2,2,2,4,2,4,2,4,2,4,2,4,2,0,4,0,1,2,0,1,4,2,4,3,4,2,
0,1,4,2,4,2,0,5,1,2,4,2,4,2,4,0,0,1,0,4,2,4,2,4,1,2,2,4,4,1,2,4,2,0,0,4,1,2,2]}"#;

    const GOLDEN_PLAN: &str = r#"
"wire":2,"access":{"count":4,"mean":1.3000000000000003,"p50":0,"p99":3,"min":0,"max":3},
"section_kind":"plan","section":{"items":[0,3],"labels":["say \"hi\"\\\t\n",
"bell\u0007é\u000d"],"gain":1.7000000000000002,"stretch":0,
"expected_access_time":1.2999999999999998,"upper_bound":1.9000000000000001,
"per_request":[0,3,2,0]},"events":{"at":[],"client":[],"shard":[],"item":[],"kind":[]}"#;

    // The section is `golden_one_shard`'s; the events are hand-made.
    const GOLDEN_EVENTS: &str = r#"
"wire":2,"access":{"count":80,"mean":25.7,"p50":26,"p99":40,"min":0,"max":40},
"section_kind":"sharded","section":{"requests":80,"access":{"count":80,"mean":25.7,
"p50":26,"p99":40,"min":0,"max":40},"utilisation":1,"wasted_transfer":154,
"total_transfer":601,"shards":[{"shard":0,"jobs":121,"busy_time":601,"utilisation":1,
"mean_queue_depth":4.625,"max_queue_depth":7,"total_transfer":601,"outage_time":0,
"outage_delay":0,"service_scale":1,"stalls":{"edges":[1,2,4,8,16,32,64,128,256],
"counts":[1,0,0,0,2,5,55,17,0,0,0],"sum":2056}}]},"events":{"at":[0,-0,
0.30000000000000004,0.0000001,4503599627370495.5,9007199254740991,9007199254740992,
100000000000000000000],"client":[0,9,10,1234,1,4294967295,7,10],"shard":[0,10,99,5,2,12,8,
10],"item":[0,11,100,67890,3,345,9,10],"kind":[0,1,2,3,4,5,0,1]}"#;

    #[test]
    fn event_golden_round_trips_bit_for_bit() {
        let report = golden_events();
        let rebuilt = parse_report(&format!("{{{}}}", GOLDEN_EVENTS.replace('\n', ""))).unwrap();
        assert_eq!(rebuilt, report);
        // `==` holds for -0.0 against 0.0: compare the times' bits too.
        let bits = |r: &RunReport| r.events.iter().map(|e| e.at.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&report));
    }

    /// Integer-looking tokens in `u64`, `usize` and `f64` fields decode
    /// to what `str::parse` gives, or fail naming the field. Each token
    /// is tried alone and first, in the middle and last of a three-event
    /// log, so a list reader that hands an odd token on mid-column is
    /// pinned too; `kind` codes decode to their [`EVENT_KINDS`] entry.
    #[test]
    fn number_tokens_decode_as_str_parse_does() {
        let two53 = 1u64 << 53;
        let mut tokens: Vec<String> = ["0", "9", "10"].map(String::from).to_vec();
        for n in [
            two53 - 1,
            two53,
            two53 + 1,
            999_999_999_999_999_999,
            10u64.pow(18),
        ] {
            tokens.push(n.to_string());
        }
        tokens.extend(
            [
                "18446744073709551615",
                "18446744073709551616",
                "00",
                "0123",
                "-0",
                "1.0",
                "1e2",
                "42 ",
                "4503599627370496\n\t",
            ]
            .map(String::from),
        );
        let doc = |count: &str, mean: &str, events: &str| {
            format!(
                "{{\"wire\":2,\"access\":{{\"count\":{count},\"mean\":{mean},\"p50\":0,\"p99\":0,\"min\":0,\
                 \"max\":0}},\"section_kind\":\"sharded\",\"section\":{{\"access\":{{\"count\":0,\
                 \"mean\":0,\"p50\":0,\"p99\":0,\"min\":0,\"max\":0}},\"utilisation\":0,\
                 \"wasted_transfer\":0,\"total_transfer\":0,\"shards\":[]}},\"events\":{{{events}}}}}"
            )
        };
        let single = |mean: &str, item: &str| {
            format!(
                "\"at\":[{mean}],\"client\":[{item}],\"shard\":[0],\"item\":[{item}],\"kind\":[1]"
            )
        };
        // Three events whose column `name` is `list`, the others plain.
        let log = |name: &str, list: &str| {
            let column = |col: &str| if col == name { list } else { "0,1,2" };
            doc(
                "1",
                "1",
                &format!(
                    "\"at\":[{}],\"client\":[{}],\"shard\":[0,0,0],\"item\":[{}],\"kind\":[{}]",
                    column("at"),
                    column("client"),
                    column("item"),
                    column("kind")
                ),
            )
        };
        // `token` as element `slot` of a three-element list.
        let placed = |token: &str, slot: usize| {
            let mut list = ["0", "1", "2"];
            list[slot] = token;
            list.join(",")
        };
        let refused = |field: &str, expected: &str| {
            format!("invalid wire report: field '{field}' must be {expected}")
        };
        for token in &tokens {
            let raw = token.trim_end();
            let count = parse_report(&doc(token, "1", &single("1", "1"))).map(|r| r.access.count);
            match raw.parse::<u64>() {
                Ok(v) => assert_eq!(count.unwrap(), v, "{token:?}"),
                Err(_) => assert_eq!(
                    count.unwrap_err().to_string(),
                    refused("count", "an unsigned integer")
                ),
            }
            let item = parse_report(&doc("1", "1", &single("1", token))).map(|r| r.events[0].item);
            match raw.parse::<usize>() {
                Ok(v) => assert_eq!(item.unwrap(), v, "{token:?}"),
                Err(_) => assert_eq!(
                    item.unwrap_err().to_string(),
                    refused("client", "unsigned integers")
                ),
            }
            let report = parse_report(&doc("1", token, &single(token, "1"))).unwrap();
            let bits = raw.parse::<f64>().unwrap().to_bits();
            assert_eq!(report.access.mean.to_bits(), bits, "{token:?}");
            assert_eq!(report.events[0].at.to_bits(), bits, "{token:?}");
            for slot in 0..3 {
                let list = placed(token, slot);
                let report = parse_report(&log("at", &list)).unwrap();
                assert_eq!(report.events[slot].at.to_bits(), bits, "{list:?}");
                for name in ["client", "item"] {
                    let got = parse_report(&log(name, &list)).map(|r| {
                        let e = r.events[slot];
                        if name == "client" {
                            e.client
                        } else {
                            e.item
                        }
                    });
                    match raw.parse::<usize>() {
                        Ok(v) => assert_eq!(got.unwrap(), v, "{name} {list:?}"),
                        Err(_) => assert_eq!(
                            got.unwrap_err().to_string(),
                            refused(name, "unsigned integers"),
                            "{list:?}"
                        ),
                    }
                }
            }
        }
        for token in [
            "0",
            "5",
            "6",
            "05",
            "5 ",
            "-0",
            "1.0",
            "18446744073709551616",
        ] {
            let raw = token.trim_end();
            for slot in 0..3 {
                let list = placed(token, slot);
                let got = parse_report(&log("kind", &list)).map(|r| r.events[slot].kind);
                match raw.parse::<u64>() {
                    Ok(v) if v < 6 => assert_eq!(got.unwrap(), EVENT_KINDS[v as usize], "{list:?}"),
                    Ok(v) => assert_eq!(
                        got.unwrap_err().to_string(),
                        format!("invalid wire report: field 'kind' has unknown kind code {v}")
                    ),
                    Err(_) => assert_eq!(
                        got.unwrap_err().to_string(),
                        refused("kind", "unsigned integers"),
                        "{list:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn kind_codes_index_event_kinds() {
        for (code, &kind) in EVENT_KINDS.iter().enumerate() {
            assert_eq!(kind_code(kind), code as u64, "{kind:?}");
        }
    }

    #[test]
    fn overflowing_numbers_are_refused() {
        let fields = render_report_fields(&golden_sharded(), &[]);
        for (from, to, field) in [
            (
                "\"mean\":2.125",
                "\"mean\":1e999",
                "'mean' must be a finite number",
            ),
            (
                "\"at\":[0,",
                "\"at\":[1e400,",
                "'at' must be finite numbers",
            ),
            (
                "\"at\":[0,",
                "\"at\":[-1e400,",
                "'at' must be finite numbers",
            ),
            (
                "\"edges\":[1,",
                "\"edges\":[1e999,",
                "'edges' must be finite numbers",
            ),
        ] {
            let text = fields.replacen(from, to, 1);
            assert_ne!(text, fields);
            let err = parse_report(&format!("{{{text}}}")).unwrap_err();
            assert!(err.to_string().contains(field), "{to}: {err}");
        }
        let chain = MarkovChain::random(3, 1, 2, 1, 9, 1).unwrap();
        let run = WireRun::new(
            "sharded",
            "sharded:1x1",
            "skp-exact",
            &chain,
            &[1.0; 3],
            1,
            1,
            false,
        );
        let text = run
            .render()
            .replacen("\"retrievals\":[1,", "\"retrievals\":[1e999,", 1);
        let err = WireRun::parse(&text).unwrap_err();
        assert!(
            err.to_string()
                .contains("'retrievals' must be finite numbers"),
            "{err}"
        );
    }

    #[test]
    fn renderer_matches_the_byte_golden() {
        let (plan, labels) = golden_plan();
        for (name, rendered, golden) in [
            (
                "sharded",
                render_report_fields(&golden_sharded(), &[]),
                GOLDEN_SHARDED,
            ),
            ("plan", render_report_fields(&plan, &labels), GOLDEN_PLAN),
            (
                "events",
                render_report_fields(&golden_events(), &[]),
                GOLDEN_EVENTS,
            ),
        ] {
            assert!(
                !rendered.contains('\n'),
                "{name}: raw newline in the output"
            );
            assert_eq!(rendered, golden.replace('\n', ""), "{name}");
        }
    }
}
