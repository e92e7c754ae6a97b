//! Properties of the two things every result cell and every join key goes
//! through: [`Value::write_to`] renders exactly what `fmt` used to, and
//! [`Value::hash_key`] agrees with [`Value::partial_cmp_val`].

use oodb_object::{Date, Oid, TypeId, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

/// How `Display` rendered a value before the hand-written writer: the
/// `fmt` calls it replaced, kept here as the oracle.
fn fmt_display(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Int(i) => format!("{i}"),
        Value::Float(x) => format!("{x}"),
        Value::Bool(b) => format!("{b}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Date(d) => format!("{d}"),
        Value::Ref(o) => format!("@{}:{}", o.type_id().index(), o.seq()),
        Value::RefSet(s) => format!("{{{} refs}}", s.len()),
    }
}

/// Strings where `{:?}` escapes and the writer's fast path must not fire,
/// mixed with runs where it must.
fn arb_text() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        "[ -~]{0,24}".prop_map(|s: String| s),
        "[a-z0-9]{1,12}".prop_map(|s: String| s),
        Just(String::from("\"")),
        Just(String::from("\\")),
        Just(String::from("'")),
        Just(String::from("\n\t\r\0")),
        Just(String::from("\u{1}\u{8}\u{1f}")),
        Just(String::from("\u{7f}")),
        Just(String::from("\u{80}\u{9f}\u{a0}\u{ad}")),
        Just(String::from("é — €𝄞 日本")),
        // Combining marks: grapheme extenders, which `{:?}` escapes.
        Just(String::from("e\u{301}a\u{300}\u{20dd}")),
        Just(String::from("\u{200b}\u{feff}\u{e000}")),
        Just("x".repeat(300)),
    ];
    proptest::collection::vec(fragment, 0..6).prop_map(|v| v.concat())
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    (
        prop_oneof![0usize..12, Just(u32::MAX as usize)],
        any::<u32>(),
    )
        .prop_map(|(ty, seq)| Oid::new(TypeId::from_index(ty), seq))
}

fn arb_int() -> impl Strategy<Value = i64> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        any::<i64>(),
        -1000i64..1000,
        Just(i64::MIN),
        Just(i64::MAX),
        // Where widening to f64 starts to round.
        (TWO_53 - 4)..(TWO_53 + 4),
        (-TWO_53 - 4)..(-TWO_53 + 4),
        (i64::MAX - 2048)..i64::MAX,
    ]
}

fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        arb_int().prop_map(|i| i as f64),
        (-1000i64..1000).prop_map(|i| i as f64 / 4.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(9_223_372_036_854_775_808.0),
        Just(-9_223_372_036_854_775_808.0),
        Just(1.8446744073709552e19),
        Just(f64::MIN_POSITIVE),
        Just(1e300),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        arb_int().prop_map(Value::Int),
        arb_float().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        arb_text().prop_map(|s| Value::str(&s)),
        prop_oneof![any::<i32>(), -2000i32..2000, Just(i32::MIN), Just(i32::MAX)]
            .prop_map(|d| Value::Date(Date(d))),
        arb_oid().prop_map(Value::Ref),
        prop_oneof![
            Just(0usize),
            0usize..40,
            Just(10_000usize),
            Just(123_456usize)
        ]
        .prop_map(|n| {
            let set: Arc<[Oid]> = (0..n as u32)
                .map(|i| Oid::new(TypeId::from_index(1), i))
                .collect();
            Value::RefSet(set)
        }),
    ]
}

/// Pairs biased towards comparing `Equal` across representations.
fn arb_pair() -> impl Strategy<Value = (Value, Value)> {
    prop_oneof![
        (arb_value(), arb_value()),
        arb_value().prop_map(|v| (v.clone(), v)),
        arb_int().prop_map(|i| (Value::Int(i), Value::Float(i as f64))),
        arb_float().prop_map(|f| (Value::Float(f), Value::Int(f as i64))),
        arb_float().prop_map(|f| (Value::Float(f), Value::Float(-f))),
        // Two ints one float image apart compare equal to the same float.
        (arb_int(), -2i64..3)
            .prop_map(|(i, d)| (Value::Int(i.saturating_add(d)), Value::Float(i as f64))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn writer_matches_fmt_byte_for_byte(v in arb_value()) {
        let mut written = String::from("prefix ");
        v.write_to(&mut written);
        prop_assert_eq!(&written["prefix ".len()..], fmt_display(&v));
        prop_assert_eq!(v.to_string(), fmt_display(&v));
        if let Value::Ref(o) = &v {
            prop_assert_eq!(o.to_string(), fmt_display(&v));
        }
    }

    #[test]
    fn values_that_compare_equal_share_a_hash_key(pair in arb_pair()) {
        let (a, b) = pair;
        if a.partial_cmp_val(&b) == Some(Ordering::Equal) {
            prop_assert!(a.hash_key().is_some(), "{a:?} equals something but has no key");
            prop_assert_eq!(a.hash_key(), b.hash_key(), "{:?} == {:?}", a, b);
        }
        for v in [&a, &b] {
            let keyless = matches!(v, Value::Null | Value::RefSet(_));
            prop_assert_eq!(v.hash_key().is_none(), keyless, "{:?}", v);
        }
    }
}

#[test]
fn the_writer_handles_the_extremes() {
    for (v, want) in [
        (Value::Int(i64::MIN), "-9223372036854775808"),
        (Value::Int(0), "0"),
        (Value::Date(Date(-1)), "1899-12-31"),
        (Value::Date(Date(i32::MIN)), "-5770906-06-30"),
        (Value::Date(Date(-706_801)), "-001-12-31"),
        (Value::str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\""),
        (Value::str("\u{7f}"), "\"\\u{7f}\""),
        (Value::str(""), "\"\""),
        (Value::RefSet(Arc::from([])), "{0 refs}"),
    ] {
        assert_eq!(v.to_string(), want);
        assert_eq!(fmt_display(&v), want);
    }
}

#[test]
fn hash_keys_follow_comparison_not_representation() {
    let key = |v: Value| v.hash_key();
    assert_eq!(key(Value::Int(2)), key(Value::Float(2.0)));
    assert_eq!(key(Value::Float(0.0)), key(Value::Float(-0.0)));
    assert_eq!(key(Value::Int(0)), key(Value::Float(-0.0)));
    assert_eq!(
        key(Value::Int(i64::MAX)),
        key(Value::Float(9_223_372_036_854_775_808.0))
    );
    assert_ne!(key(Value::Float(2.5)), key(Value::Int(2)));
    // Equal payload bits in different variants stay apart.
    assert_ne!(key(Value::Int(0)), key(Value::Bool(false)));
    assert_ne!(key(Value::Int(1)), key(Value::Date(Date(1))));
    assert_ne!(key(Value::str("a")), key(Value::str("a\0")));
    assert_eq!(key(Value::Null), None);
    assert_eq!(key(Value::RefSet(Arc::from([]))), None);
}
