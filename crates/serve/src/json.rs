//! Minimal JSON encoder.
//!
//! The workspace's vendored serde shim carries derives only — no JSON
//! backend — and the sanctioned dependency set has no JSON crate, so the
//! serve layer writes its wire format through this hand-rolled encoder: a
//! push-down writer with automatic comma placement, RFC 8259 string
//! escaping, and shortest-roundtrip float formatting (Rust's `{}` for
//! `f64`). Encode-only by design: the daemon never parses JSON.
//!
//! It is the only JSON encoder in the crate, and a response costs what
//! it writes:
//!
//! * a string is scanned once and its clean runs are copied whole; only
//!   a quote, a backslash or a control byte takes the escaping branch;
//! * an integer's digits come from a loop over a stack buffer, not from
//!   `core::fmt`;
//! * a fixed shape that every page repeats (a record, a flip) is written
//!   in one pass: the crate-private `value` hook places the comma and
//!   key, and the caller appends literal pieces and digits, with no
//!   nested container bookkeeping and no intermediate `String`.
//!
//! ```
//! use bgp_serve::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_obj();
//! w.field_u64("asn", 3356);
//! w.field_str("class", "tf");
//! w.begin_arr_field("tags");
//! w.elem_str("one");
//! w.elem_u64(2);
//! w.end_arr();
//! w.end_obj();
//! assert_eq!(w.finish(), r#"{"asn":3356,"class":"tf","tags":["one",2]}"#);
//! ```

use std::fmt::Write as _;

/// Whether `b` must be escaped inside a JSON string: the quote, the
/// backslash and the C0 controls. Every other byte, multi-byte UTF-8
/// included, is copied as is.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Append `s` to `out` as a JSON string literal (quotes included).
///
/// Runs of bytes that need no escape are copied whole; only a quote, a
/// backslash or a control byte takes the escaping branch. Those are all
/// ASCII, so every run boundary is a char boundary.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut clean = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// The decimal digits of `v`, written from the end of `buf`.
pub(crate) fn u64_digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[at..];
        }
    }
}

/// Append the decimal digits of `v` to `out`. Pushed as chars: a
/// `str::from_utf8` round trip costs more than the digits.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0; 20];
    out.extend(u64_digits(v, &mut buf).iter().map(|&d| char::from(d)));
}

/// A JSON value writer with automatic comma management.
///
/// Call `begin_obj`/`begin_arr` to open containers, the `field_*` methods
/// inside objects and `elem_*` methods inside arrays, and `finish` when
/// every container is closed. Misuse (a field outside an object, an
/// unclosed container at `finish`) panics — the encoder is an internal
/// tool for a fixed API surface, not a general serializer, so structural
/// bugs should fail loudly in tests.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has a first element
    /// (so the next element needs a comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The finished document. Panics if a container is still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    /// Grow the buffer for `additional` more bytes ahead of a long write.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// The buffer, positioned for one value: the comma and, inside an
    /// object, the `"key":` are written; the caller appends exactly one
    /// complete JSON value. The hook that lets a fixed shape (a record,
    /// a flip) be written as literal pieces and digits in one pass.
    pub(crate) fn value(&mut self, key: Option<&str>) -> &mut String {
        match key {
            Some(name) => self.key(name),
            None => self.comma(),
        }
        &mut self.out
    }

    fn comma(&mut self) {
        match self.stack.last_mut() {
            Some(first @ false) => *first = true,
            Some(_) => self.out.push(','),
            None => assert!(self.out.is_empty(), "two top-level JSON values"),
        }
    }

    /// Open the top-level (or a nested element-position) object.
    pub fn begin_obj(&mut self) {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) {
        self.stack.pop().expect("end_obj with no open container");
        self.out.push('}');
    }

    /// Open the top-level (or a nested element-position) array.
    pub fn begin_arr(&mut self) {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) {
        self.stack.pop().expect("end_arr with no open container");
        self.out.push(']');
    }

    fn key(&mut self, name: &str) {
        self.comma();
        write_escaped(&mut self.out, name);
        self.out.push(':');
    }

    /// `"name":{` — open an object-valued field.
    pub fn begin_obj_field(&mut self, name: &str) {
        self.key(name);
        self.out.push('{');
        self.stack.push(false);
    }

    /// `"name":[` — open an array-valued field.
    pub fn begin_arr_field(&mut self, name: &str) {
        self.key(name);
        self.out.push('[');
        self.stack.push(false);
    }

    /// `"name":"value"`.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        write_escaped(&mut self.out, value);
    }

    /// `"name":123`.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        push_u64(&mut self.out, value);
    }

    /// `"name":0.99` (shortest round-trip formatting).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null"); // JSON has no NaN/Inf
        }
    }

    /// `"name":true`.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// `"name":null`.
    pub fn field_null(&mut self, name: &str) {
        self.key(name);
        self.out.push_str("null");
    }

    /// A string array element.
    pub fn elem_str(&mut self, value: &str) {
        self.comma();
        write_escaped(&mut self.out, value);
    }

    /// An integer array element.
    pub fn elem_u64(&mut self, value: u64) {
        self.comma();
        push_u64(&mut self.out, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    #[test]
    fn escaping() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f""#);
    }

    /// The char-by-char escaper the run-copying one must agree with.
    fn reference_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for ch in s.chars() {
            match ch {
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
        out.push('"');
        out
    }

    /// A string mixing quotes, backslashes, control chars, multi-byte
    /// UTF-8 and plain ASCII, possibly empty.
    fn arb_string(rng: &mut TestRng) -> String {
        const WIDE: [char; 6] = ['\u{7f}', 'é', '€', '\u{2028}', '𝄞', '\u{10ffff}'];
        (0..rng.random_range(0..=24usize))
            .map(|_| match rng.random_range(0..8u32) {
                0 => '"',
                1 => '\\',
                2 => char::from(rng.random_range(0..0x20u8)),
                3 => WIDE[rng.random_range(0..WIDE.len())],
                _ => char::from(rng.random_range(0x20..0x7fu8)),
            })
            .collect()
    }

    fn check_case(case: u32) {
        let rng = &mut TestRng::for_case("json_encoder", case);
        for _ in 0..8 {
            let s = arb_string(rng);
            let mut out = String::from("[");
            write_escaped(&mut out, &s);
            assert_eq!(
                out,
                format!("[{}", reference_escaped(&s)),
                "case {case}: {s:?}"
            );
        }
        let edges = [0, 9, 10, 99, 100, u64::MAX];
        let random = [rng.next_u64(), rng.next_u64() >> rng.random_range(0..64u32)];
        for v in edges.into_iter().chain(random) {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, format!("{v}"), "case {case}");
        }

        // Through the writer: keys, strings and integers together.
        let (key, s, v) = (arb_string(rng), arb_string(rng), random[1]);
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str(&key, &s);
        w.field_u64("n", v);
        w.begin_arr_field("a");
        w.elem_u64(v);
        w.elem_str(&s);
        w.end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            format!(
                "{{{}:{},\"n\":{v},\"a\":[{v},{}]}}",
                reference_escaped(&key),
                reference_escaped(&s),
                reference_escaped(&s),
            ),
            "case {case}"
        );
    }

    #[test]
    fn every_control_char_and_power_of_ten_matches_the_reference() {
        let controls: String = (0..0x20u8).map(char::from).collect();
        let mut out = String::new();
        write_escaped(&mut out, &controls);
        assert_eq!(out, reference_escaped(&controls));
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            for v in [p - 1, p, p + 1] {
                let mut out = String::new();
                push_u64(&mut out, v);
                assert_eq!(out, v.to_string());
            }
            p = next;
        }
    }

    #[test]
    fn the_encoder_matches_the_reference() {
        for case in 0..64 {
            check_case(case);
        }
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn the_encoder_matches_the_reference_at_length() {
        for case in 0..2_000 {
            check_case(case);
        }
    }

    #[test]
    fn nested_structure() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("s", "x");
        w.field_u64("n", 7);
        w.field_f64("f", 0.99);
        w.field_bool("b", false);
        w.field_null("z");
        w.begin_obj_field("o");
        w.end_obj();
        w.begin_arr_field("a");
        w.begin_obj();
        w.field_u64("i", 1);
        w.end_obj();
        w.elem_u64(2);
        w.end_arr();
        w.end_obj();
        assert_eq!(
            w.finish(),
            r#"{"s":"x","n":7,"f":0.99,"b":false,"z":null,"o":{},"a":[{"i":1},2]}"#
        );
    }

    #[test]
    fn empty_array_and_nonfinite_floats() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.begin_arr_field("empty");
        w.end_arr();
        w.field_f64("nan", f64::NAN);
        w.end_obj();
        assert_eq!(w.finish(), r#"{"empty":[],"nan":null}"#);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_container_panics() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.finish();
    }
}
