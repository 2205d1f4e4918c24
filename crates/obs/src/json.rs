//! JSON, in one place: the only code in the crate that escapes a string
//! or renders a float for a JSON body, and the reader that parses those
//! bodies back.
//!
//! The workspace is zero-dependency, so both halves are hand-rolled and
//! sized to what the crate emits: [`Str`] and [`Num`] are `Display`
//! values written straight into a `format!`/`write!`, and `Parser`
//! reads flat objects of string/number/null values with one level of
//! nested string or number maps (span JSONL, history records).

use std::fmt::{self, Write as _};

/// A JSON string literal, quotes included: `"`, `\`, `\n`, `\r` and `\t`
/// get their short escapes, every other control character `\u00XX`;
/// everything else is written as it is.
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// A JSON number: `{v}` (shortest round-trip) when finite, `null`
/// otherwise — JSON has no NaN or infinity, and `Parser::f64` reads
/// `null` back as NaN.
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// Character-level cursor over one JSON document. It rejects malformed
/// input with a message quoting where it stopped, which is what makes the
/// trace reader double as the CI trace validator.
pub(crate) struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        Parser { rest: s }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    pub(crate) fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(format!("expected {c:?} at {:?}", truncate(self.rest))),
        }
    }

    pub(crate) fn try_consume(&mut self, c: char) -> bool {
        self.skip_ws();
        if let Some(rest) = self.rest.strip_prefix(c) {
            self.rest = rest;
            true
        } else {
            false
        }
    }

    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing input at {:?}", truncate(self.rest)))
        }
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let digits: usize = self.rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return Err(format!("expected number at {:?}", truncate(self.rest)));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse().map_err(|e| format!("bad number {num:?}: {e}"))
    }

    /// A JSON number as `f64`; a literal `null` parses as NaN (the
    /// history emitters write `null` for non-finite values, and NaN
    /// makes every regression comparison false, which is the safe read).
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        self.skip_ws();
        if let Some(rest) = self.rest.strip_prefix("null") {
            self.rest = rest;
            return Ok(f64::NAN);
        }
        let len = self
            .rest
            .bytes()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        if len == 0 {
            return Err(format!("expected number at {:?}", truncate(self.rest)));
        }
        let (num, rest) = self.rest.split_at(len);
        self.rest = rest;
        num.parse().map_err(|e| format!("bad number {num:?}: {e}"))
    }

    /// A `{"key": value, ...}` object whose values `value` reads, in
    /// document order (span attributes, the history config and metrics).
    pub(crate) fn object<V>(
        &mut self,
        value: impl Fn(&mut Self) -> Result<V, String>,
    ) -> Result<Vec<(String, V)>, String> {
        let mut pairs = Vec::new();
        self.expect('{')?;
        if self.try_consume('}') {
            return Ok(pairs);
        }
        loop {
            let key = self.string()?;
            self.expect(':')?;
            pairs.push((key, value(self)?));
            if !self.try_consume(',') {
                break;
            }
        }
        self.expect('}')?;
        Ok(pairs)
    }

    pub(crate) fn u64_or_null(&mut self) -> Result<Option<u64>, String> {
        self.skip_ws();
        if let Some(rest) = self.rest.strip_prefix("null") {
            self.rest = rest;
            Ok(None)
        } else {
            self.u64().map(Some)
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (i, c) = chars
                .next()
                .ok_or_else(|| "unterminated string".to_string())?;
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or_else(|| "dangling escape".to_string())?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars
                                    .next()
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                code = code * 16
                                    + h.to_digit(16)
                                        .ok_or_else(|| format!("bad hex digit {h:?}"))?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

fn truncate(s: &str) -> &str {
    let end = s
        .char_indices()
        .take(24)
        .last()
        .map_or(0, |(i, c)| i + c.len_utf8());
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{spans_jsonl, Source};
    use crate::history::RunRecord;
    use crate::report::parse_trace_jsonl;
    use crate::snapshot::{Snapshot, Span};
    use proptest::prelude::*;

    #[test]
    fn strings_and_numbers_use_the_short_escapes_and_null() {
        assert_eq!(Str("a\"b\\c\nd\r\te").to_string(), r#""a\"b\\c\nd\r\te""#);
        assert_eq!(
            Str("\u{1}\u{1f}\u{7f}é").to_string(),
            "\"\\u0001\\u001f\u{7f}é\""
        );
        let nums = [1.5, -0.0, 1e21, f64::NAN, f64::INFINITY, -f64::INFINITY].map(Num);
        let shown = nums.map(|n| n.to_string()).join(" ");
        assert_eq!(shown, "1.5 -0 1000000000000000000000 null null null");
    }

    /// A string that favours what the escaper must get right: every
    /// control character, quotes, backslashes, and non-ASCII up to the
    /// astral planes.
    fn text(seeds: &[u32]) -> String {
        let pick = |s: u32| match s % 4 {
            0 => char::from_u32(s / 4 % 0x20),
            1 => Some(['"', '\\', '/', '\u{7f}', '\u{2028}'][(s / 4 % 5) as usize]),
            2 => char::from_u32(0x20 + s / 4 % 0x5f),
            _ => char::from_u32(s / 4 % 0x11_0000),
        };
        seeds
            .iter()
            .map(|&s| pick(s).unwrap_or('\u{fffd}'))
            .collect()
    }

    fn float((kind, bits): (u8, u64)) -> f64 {
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]
            .get(kind as usize)
            .copied()
            .unwrap_or(f64::from_bits(bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn records_and_spans_round_trip_any_string_and_float(
            words in prop::collection::vec(prop::collection::vec(0u32..u32::MAX, 0..12), 4),
            floats in prop::collection::vec((0u8..8, 0u64..u64::MAX), 0..6),
        ) {
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| text(&words[i]));
            let mut record = RunRecord {
                label: a.clone(),
                graph: b.clone(),
                git_rev: c.clone(),
                unix_time: 7,
                ..RunRecord::default()
            };
            record.set_config(&d, &a);
            for (i, &f) in floats.iter().enumerate() {
                record.set_metric(&format!("{b}{i}"), float(f));
            }
            let back = RunRecord::from_json(&record.to_json()).unwrap();
            prop_assert_eq!((&back.label, &back.graph, &back.git_rev), (&a, &b, &c));
            prop_assert_eq!(&back.config, &record.config);
            prop_assert_eq!(back.metrics.len(), record.metrics.len());
            for (k, v) in &record.metrics {
                let expect = if v.is_finite() { v.to_bits() } else { f64::NAN.to_bits() };
                prop_assert_eq!(back.metrics[k].to_bits(), expect, "{}", k);
            }

            let span = Span {
                id: 3,
                parent: Some(1),
                name: a.clone(),
                thread: 2,
                start_ns: 5,
                dur_ns: 8,
                attrs: vec![(b.clone(), c.clone()), (d.clone(), a.clone())],
            };
            let snapshot = Snapshot { spans: vec![span.clone()], ..Snapshot::default() };
            let parsed = parse_trace_jsonl(&spans_jsonl(&[Source::Local(&snapshot)])).unwrap();
            prop_assert_eq!(parsed, vec![span]);
        }
    }
}
