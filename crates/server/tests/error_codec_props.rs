//! Property-based round-trip of every [`ServiceError`] variant through
//! the server's hand-rolled JSON codec, with adversarial payload strings:
//! embedded quotes, lone and doubled backslashes, text that *looks like*
//! JSON escapes, raw control characters, multi-byte unicode, and long
//! unescaped runs. The typed value that comes back must equal the one
//! that went in — the wire never degrades an error to prose.

use oodb_server::json::{decode_error, encode_error, error_kind, parse, Json};
use oodb_service::{ServiceError, ShedReason};
use proptest::prelude::*;

/// Strings built to break naive escaping: each fragment targets one
/// codec hazard, and concatenation composes them in arbitrary orders.
fn adversarial() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just(String::from("\"")),
        Just(String::from("\\")),
        Just(String::from("\\\\\"")),
        // Text resembling an escape must survive as *text*.
        Just(String::from("\\u0022\\n")),
        Just(String::from("\n\t\r")),
        Just(String::from("\u{1}\u{8}\u{1f}")),
        Just(String::from("é — €𝄞")),
        // A long unescaped run exercises the copy-through fast path.
        Just("x".repeat(300)),
        "[ -~]{0,24}".prop_map(|s: String| s),
    ];
    proptest::collection::vec(fragment, 0..8).prop_map(|v| v.concat())
}

fn arb_shed_reason() -> impl Strategy<Value = ShedReason> {
    prop_oneof![
        Just(ShedReason::QueueFull),
        Just(ShedReason::CircuitOpen),
        Just(ShedReason::MemoryPressure),
    ]
}

/// All 13 wire shapes: the 11 enum variants, with `Overloaded` split per
/// shed reason (each reason is its own `reason` discriminant on the wire).
fn arb_error() -> impl Strategy<Value = ServiceError> {
    // Raw JSON numbers are f64 on the wire; stay within exact-integer
    // range so equality is byte-faithful (ids travel as hex strings and
    // may use all 64 bits).
    let num = 0u64..(1 << 53);
    prop_oneof![
        (
            adversarial(),
            prop_oneof![Just(None), (0usize..100_000).prop_map(Some)]
        )
            .prop_map(|(msg, pos)| ServiceError::Zql(zql::ZqlError { msg, pos })),
        Just(ServiceError::NoPlan),
        any::<u64>().prop_map(|id| ServiceError::UnknownStatement { id }),
        prop_oneof![Just("execute"), Just("optimize")]
            .prop_map(|stage| ServiceError::DeadlineExceeded { stage }),
        Just(ServiceError::Cancelled),
        num.clone()
            .prop_map(|budget| ServiceError::RowBudgetExceeded { budget }),
        arb_shed_reason().prop_map(|reason| ServiceError::Overloaded { reason }),
        (num.clone(), num)
            .prop_map(|(requested, budget)| ServiceError::MemoryExhausted { requested, budget }),
        (any::<bool>(), any::<u32>())
            .prop_map(|(transient, retries)| { ServiceError::StorageFault { transient, retries } }),
        adversarial().prop_map(ServiceError::Exec),
        adversarial().prop_map(ServiceError::Panicked),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_variant_round_trips_with_adversarial_strings(e in arb_error()) {
        let wire = encode_error(&e);
        // The encoder must never leak a raw control byte onto the wire.
        prop_assert!(
            !wire.bytes().any(|b| b < 0x20),
            "raw control byte in wire: {wire:?}"
        );
        let parsed = parse(&wire)
            .unwrap_or_else(|err| panic!("self-produced wire must parse: {err}\n{wire}"));
        prop_assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(error_kind(&e)),
            "kind discriminant"
        );
        // The human-readable message rides along regardless of variant.
        let msg = e.to_string();
        prop_assert_eq!(
            parsed.get("message").and_then(Json::as_str),
            Some(msg.as_str())
        );
        prop_assert_eq!(decode_error(&parsed), e);
    }
}
