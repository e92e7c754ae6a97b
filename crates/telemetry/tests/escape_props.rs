//! [`push_escaped`] copies unescaped runs whole; it must still produce
//! what escaping one `char` at a time produced.

use oodb_telemetry::metrics::push_escaped;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The per-`char` escaper `push_escaped` replaced, kept as the oracle.
fn push_escaped_by_char(out: &mut String, s: &str) {
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

/// Escapes at the start, the end, back to back and between multi-byte
/// characters, and long clean runs.
fn arb_text() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        "[ -~]{0,24}".prop_map(|s: String| s),
        Just(String::from("\"")),
        Just(String::from("\\")),
        Just(String::from("\\\\\"")),
        Just(String::from("\n\t\r")),
        Just(String::from("\0\u{1}\u{8}\u{b}\u{1f}")),
        Just(String::from("\u{7f}\u{80}é — €𝄞")),
        Just("x".repeat(300)),
    ];
    proptest::collection::vec(fragment, 0..8).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn run_copying_escaper_matches_the_per_char_one(s in arb_text()) {
        let (mut got, mut want) = (String::from("k:"), String::from("k:"));
        push_escaped(&mut got, &s);
        push_escaped_by_char(&mut want, &s);
        prop_assert_eq!(got, want);
    }
}
