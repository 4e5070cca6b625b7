//! Dependency-free JSON output for the experiment binaries.
//!
//! Every `fnp-bench` binary accepts `--json <path>` and writes its rows,
//! its parameters and its wall-clock timing as a pretty-printed JSON
//! document. The writer is deliberately tiny (the build is offline, so no
//! serde): a [`Json`] value tree, a deterministic pretty-printer with one
//! key per line, and [`ToJson`] impls for every experiment row type.
//!
//! Determinism matters here: the CI smoke job runs one binary twice and
//! diffs the outputs (ignoring the `wall_clock_ms` line), so everything
//! except the timing must be byte-identical across invocations. Rust's
//! default float formatting (shortest round-trip representation) provides
//! exactly that.
//!
//! The module also provides a small recursive-descent parser
//! ([`Json::parse`]) so that `bench_baseline` can read the committed
//! `BENCH_baseline.json` trajectory back and *append* to it instead of
//! clobbering it.

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialised without decimal point).
    Int(i64),
    /// An unsigned integer (serialised without decimal point).
    UInt(u64),
    /// A finite float; non-finite values serialise as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}
impl From<i64> for Json {
    fn from(value: i64) -> Self {
        Json::Int(value)
    }
}
impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::UInt(value)
    }
}
impl From<usize> for Json {
    fn from(value: usize) -> Self {
        Json::UInt(value as u64)
    }
}
impl From<u32> for Json {
    fn from(value: u32) -> Self {
        Json::UInt(u64::from(value))
    }
}
impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Num(value)
    }
}
impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::Str(value.to_string())
    }
}
impl From<String> for Json {
    fn from(value: String) -> Self {
        Json::Str(value)
    }
}
impl From<Vec<Json>> for Json {
    fn from(value: Vec<Json>) -> Self {
        Json::Arr(value)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(key, value)| (key.into(), value.into()))
                .collect(),
        )
    }

    /// Builds an array by converting each row with [`ToJson`].
    pub fn rows<'a, T: ToJson + 'a>(rows: impl IntoIterator<Item = &'a T>) -> Self {
        Json::Arr(rows.into_iter().map(ToJson::to_json).collect())
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Int(value) => out.push_str(&value.to_string()),
            Json::UInt(value) => out.push_str(&value.to_string()),
            Json::Num(value) => {
                if value.is_finite() {
                    // Shortest round-trip representation; deterministic.
                    out.push_str(&format!("{value}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(value) => write_escaped(out, value),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&" ".repeat(indent + STEP));
                    item.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&" ".repeat(indent + STEP));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Serialises the value as pretty-printed JSON (two-space indent, one
    /// key per line, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document.
    ///
    /// Numbers with neither fraction nor exponent parse as
    /// [`Json::Int`]/[`Json::UInt`] (matching what the printer emits);
    /// everything else numeric becomes [`Json::Num`]. A round-trip through
    /// [`Json::to_pretty_string`] and back is lossless for every value this
    /// module can print.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the offending byte offset for
    /// malformed input (including trailing garbage after the document) and
    /// for arrays or objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Borrowing lookup of an object key (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The numeric content as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(value) => Some(*value),
            Json::Int(value) => u64::try_from(*value).ok(),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            // Scalars print identically in both modes.
            scalar => scalar.write_pretty(out, 0),
        }
    }

    /// Serialises the value on a single line with no whitespace — the
    /// framing needed by line-delimited JSON transports such as `fnp-node`.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }
}

/// Error produced by [`Json::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts.
///
/// The parser spends stack frames per nesting level, so without a cap one
/// hostile line of `[[[…` overflows the stack and aborts the process. The
/// documents this workspace writes nest at most 6 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(escape) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let unit = self.hex_unit()?;
                            let code_point = match unit {
                                // High surrogate: must pair with a low one
                                // to form a supplementary code point.
                                0xd800..=0xdbff => {
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex_unit()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => return Err(self.error("unpaired low surrogate")),
                                scalar => scalar,
                            };
                            out.push(
                                char::from_u32(code_point)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(
                                self.error(format!("unsupported escape '\\{}'", other as char))
                            )
                        }
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at byte.
                    let start = self.pos - 1;
                    let len = utf8_len(byte);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// Parses the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed), returning the UTF-16 code unit.
    fn hex_unit(&mut self) -> Result<u32, ParseError> {
        let unit = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// Consumes a non-empty digit run, erroring on an empty one (JSON
    /// requires at least one digit in every numeric component).
    fn digits(&mut self, part: &str) -> Result<usize, ParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(format!("expected digits in number {part}")));
        }
        Ok(self.pos - start)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let integer_digits = self.digits("integer part")?;
        if leading_zero && integer_digits > 1 {
            return Err(self.error("leading zeros are not valid JSON"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits("fraction")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans ASCII bytes only");
        if integral {
            if let Ok(value) = text.parse::<u64>() {
                return Ok(Json::UInt(value));
            }
            if let Ok(value) = text.parse::<i64>() {
                return Ok(Json::Int(value));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number {text:?}")))
    }
}

/// Length of the UTF-8 sequence introduced by `first` (1 for ASCII).
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

fn write_escaped(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
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
}

/// Conversion of one experiment row into a [`Json`] object.
pub trait ToJson {
    /// The JSON representation of this row.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for fnp_adversary::PrivacySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::from(self.runs)),
            ("detection_probability", self.detection_probability.into()),
            (
                "mean_probability_on_origin",
                self.mean_probability_on_origin.into(),
            ),
            (
                "mean_anonymity_set_size",
                self.mean_anonymity_set_size.into(),
            ),
            ("mean_entropy_bits", self.mean_entropy_bits.into()),
        ])
    }
}

impl ToJson for crate::LandscapeRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("detection_probability", self.detection_probability.into()),
            ("mean_messages", self.mean_messages.into()),
            ("mean_latency_ms", self.mean_latency_ms.into()),
        ])
    }
}

impl ToJson for crate::FloodDeanonRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("first_spy", self.first_spy.to_json()),
            ("jordan_center", self.jordan_center.to_json()),
        ])
    }
}

impl ToJson for crate::DandelionRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("adversary_fraction", Json::from(self.adversary_fraction)),
            ("stem_probability", self.stem_probability.into()),
            ("detection_probability", self.detection_probability.into()),
            ("mean_stem_length", self.mean_stem_length.into()),
        ])
    }
}

impl ToJson for crate::DcNetCostRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("explicit_messages", self.explicit_messages.into()),
            ("keyed_messages", self.keyed_messages.into()),
            ("keyed_bytes", self.keyed_bytes.into()),
            (
                "idle_bytes_with_reservation",
                self.idle_bytes_with_reservation.into(),
            ),
            (
                "idle_bytes_without_reservation",
                self.idle_bytes_without_reservation.into(),
            ),
        ])
    }
}

impl ToJson for crate::ThreePhaseRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("d", self.d.into()),
            ("phase1", self.phase1.into()),
            ("phase2", self.phase2.into()),
            ("phase3", self.phase3.into()),
            ("total", self.total.into()),
            ("coverage", self.coverage.into()),
        ])
    }
}

impl ToJson for crate::MessageOverheadResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            (
                "adaptive_diffusion_messages",
                self.adaptive_diffusion_messages.into(),
            ),
            ("flood_messages", self.flood_messages.into()),
            ("flexible_messages", self.flexible_messages.into()),
            ("overhead_ratio", self.overhead_ratio.into()),
        ])
    }
}

impl ToJson for crate::PrivacyBoundsRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("d", self.d.into()),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("summary", self.summary.to_json()),
            ("group_bound", self.group_bound.into()),
            ("ideal", self.ideal.into()),
        ])
    }
}

impl ToJson for crate::GroupOverlapRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("group_size", Json::from(self.group_size)),
            ("overlap_degree", self.overlap_degree.into()),
            ("naive_worst_case", self.naive_worst_case.into()),
            ("smoothed_worst_case", self.smoothed_worst_case.into()),
            ("ideal", self.ideal.into()),
        ])
    }
}

impl ToJson for crate::LatencyRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("t50_ms", self.t50_ms.into()),
            ("t90_ms", self.t90_ms.into()),
            ("t100_ms", self.t100_ms.into()),
            ("messages", self.messages.into()),
        ])
    }
}

impl ToJson for crate::DissentStartupRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("startup_seconds", self.startup_seconds.into()),
            ("messages", self.messages.into()),
            ("bytes", self.bytes.into()),
            ("serial_steps", self.serial_steps.into()),
        ])
    }
}

impl ToJson for crate::FairnessRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("jain_index", self.jain_index.into()),
            ("gini", self.gini.into()),
            (
                "mean_inclusion_delay_ms",
                self.mean_inclusion_delay_ms.into(),
            ),
            ("orphaned_fraction", self.orphaned_fraction.into()),
        ])
    }
}

impl ToJson for crate::SteadyStateRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("rate_per_second", self.rate_per_second.into()),
            ("injected", self.injected.into()),
            ("delivered_fraction", self.delivered_fraction.into()),
            ("throughput_tx_per_s", self.throughput_tx_per_s.into()),
            ("p50_delivery_ms", self.p50_delivery_ms.into()),
            ("p95_delivery_ms", self.p95_delivery_ms.into()),
            ("p99_delivery_ms", self.p99_delivery_ms.into()),
            ("mean_messages_per_tx", self.mean_messages_per_tx.into()),
            ("peak_concurrent", self.peak_concurrent.into()),
            ("mempool_peak_len", self.mempool_peak_len.into()),
            ("mempool_mean_len", self.mempool_mean_len.into()),
            ("included_fraction", self.included_fraction.into()),
            (
                "mean_inclusion_delay_ms",
                self.mean_inclusion_delay_ms.into(),
            ),
            ("first_spy_detection", self.first_spy_detection.into()),
        ])
    }
}

impl ToJson for crate::ElectionAblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", Json::from(self.strategy)),
            ("summary", self.summary.to_json()),
        ])
    }
}

/// Writes one experiment report to `path`.
///
/// The document layout keeps `wall_clock_ms` on its own line so that
/// determinism checks can compare everything else byte for byte:
///
/// ```json
/// {
///   "experiment": "fig1_landscape",
///   "threads": 4,
///   "params": { ... },
///   "wall_clock_ms": 123.456,
///   "rows": [ ... ]
/// }
/// ```
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_report(
    path: &Path,
    experiment: &str,
    threads: usize,
    params: Json,
    rows: Json,
    wall_clock: Duration,
) -> std::io::Result<()> {
    let report = Json::Obj(vec![
        ("experiment".to_string(), Json::from(experiment)),
        ("threads".to_string(), Json::from(threads)),
        ("params".to_string(), params),
        (
            "wall_clock_ms".to_string(),
            Json::Num(wall_clock.as_secs_f64() * 1e3),
        ),
        ("rows".to_string(), rows),
    ]);
    let mut file = std::fs::File::create(path)?;
    file.write_all(report.to_pretty_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize_as_json() {
        assert_eq!(Json::Null.to_pretty_string(), "null\n");
        assert_eq!(Json::from(true).to_pretty_string(), "true\n");
        assert_eq!(Json::from(3u64).to_pretty_string(), "3\n");
        assert_eq!(Json::from(-5i64).to_pretty_string(), "-5\n");
        assert_eq!(Json::from(1.5).to_pretty_string(), "1.5\n");
        // Whole floats print without a fractional part but stay valid JSON.
        assert_eq!(Json::from(2.0).to_pretty_string(), "2\n");
        assert_eq!(Json::Num(f64::NAN).to_pretty_string(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).to_pretty_string(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let tricky = "a\"b\\c\nd\te\u{1}";
        assert_eq!(
            Json::from(tricky).to_pretty_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n"
        );
    }

    #[test]
    fn objects_and_arrays_pretty_print_one_key_per_line() {
        let value = Json::obj([
            ("name", Json::from("x")),
            ("items", Json::Arr(vec![Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::from(0.25))])),
        ]);
        let expected = "{\n  \"name\": \"x\",\n  \"items\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"nested\": {\n    \"k\": 0.25\n  }\n}\n";
        assert_eq!(value.to_pretty_string(), expected);
    }

    #[test]
    fn serialization_is_deterministic() {
        let rows = crate::group_overlap_with(&crate::TrialRunner::auto(), &[3, 5], &[1, 2]);
        let a = Json::rows(&rows).to_pretty_string();
        let b = Json::rows(&rows).to_pretty_string();
        assert_eq!(a, b);
        assert!(a.contains("\"group_size\": 3"));
    }

    #[test]
    fn parse_roundtrips_everything_the_printer_emits() {
        let value = Json::obj([
            ("null", Json::Null),
            ("flag", Json::from(true)),
            ("off", Json::from(false)),
            ("uint", Json::from(18_446_744_073_709_551_615u64)),
            ("int", Json::from(-42i64)),
            ("float", Json::from(0.125)),
            ("tricky", Json::from("a\"b\\c\nd\te\u{1}ü")),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("k", Json::from(3u64))]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty", Json::obj::<&str, Json>([])),
        ]);
        let text = value.to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, value);
        // And printing the parse yields the identical document again.
        assert_eq!(parsed.to_pretty_string(), text);
    }

    #[test]
    fn parse_handles_compact_and_exponent_forms() {
        let parsed = Json::parse(r#"{"a":[1,2.5,-3,1e3],"b":{"c":null}}"#).unwrap();
        assert_eq!(
            parsed.get("a"),
            Some(&Json::Arr(vec![
                Json::UInt(1),
                Json::Num(2.5),
                Json::Int(-3),
                Json::Num(1000.0),
            ]))
        );
        assert_eq!(parsed.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::from("x").as_str(), Some("x"));
        assert_eq!(Json::Null.as_str(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}extra",
            "\"bad \\q escape\"",
            // Non-JSON numeric forms must be rejected, not normalised.
            "1.",
            ".5",
            "5e",
            "01",
            "-01",
            "-",
            "2.e3",
            // Lone or mismatched surrogates.
            "\"\\ud83d\"",
            "\"\\ud83d x\"",
            "\"\\udc00\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Deep enough to overflow the stack without the cap.
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(300_000)).is_err());
    }

    #[test]
    fn compact_form_is_single_line_and_roundtrips() {
        let value = Json::obj([
            ("type", Json::from("send")),
            ("to", Json::from(3u64)),
            ("items", Json::Arr(vec![Json::from(1u64), Json::Null])),
            ("empty", Json::obj::<&str, Json>([])),
        ]);
        let compact = value.to_compact_string();
        assert_eq!(
            compact,
            r#"{"type":"send","to":3,"items":[1,null],"empty":{}}"#
        );
        assert!(!compact.contains('\n'));
        assert_eq!(Json::parse(&compact).unwrap(), value);
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Json::from(7u64).as_u64(), Some(7));
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::from("7").as_u64(), None);
        let arr = Json::Arr(vec![Json::Null]);
        assert_eq!(arr.as_array(), Some(&[Json::Null][..]));
        assert_eq!(Json::Null.as_array(), None);
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1f600}")
        );
        assert_eq!(Json::parse("\"\\u00fc\"").unwrap(), Json::from("ü"));
        // Strict number forms still parse.
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(Json::parse("-0.5e+2").unwrap(), Json::Num(-50.0));
    }

    #[test]
    fn write_report_produces_the_documented_layout() {
        let dir = std::env::temp_dir().join("fnp_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_report(
            &path,
            "unit_test",
            2,
            Json::obj([("n", Json::from(10u64))]),
            Json::Arr(vec![]),
            Duration::from_millis(5),
        )
        .unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("{\n  \"experiment\": \"unit_test\""));
        assert!(contents.contains("\n  \"wall_clock_ms\": 5"));
        assert!(contents.contains("\n  \"rows\": []"));
        assert!(contents.ends_with("}\n"));
        std::fs::remove_file(&path).unwrap();
    }
}
