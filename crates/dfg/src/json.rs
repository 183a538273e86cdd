//! Byte-stable JSON string quoting, shared by every crate that renders
//! JSON (the verifier's diagnostics and analysis reports, the solve
//! service's responses).

use core::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, every
/// other control character below U+0020 becomes `\u00XX`, and all other
/// characters pass through unchanged.
///
/// # Examples
///
/// ```
/// let mut out = String::from("name=");
/// rotsched_dfg::json::push_json_string(&mut out, "a\"b\\c\n\u{1}");
/// assert_eq!(out, r#"name="a\"b\\c\n\u0001""#);
/// ```
pub fn push_json_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
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
    out.push('"');
}
