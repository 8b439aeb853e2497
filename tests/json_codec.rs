//! The workspace JSON codec (`teapot_telemetry::json`): whatever the
//! writer spells, the reader reads back exactly, and no input — random
//! bytes, near-JSON noise or nesting deep enough to overflow an
//! unguarded recursive parser — makes the reader panic: it returns a
//! value or a typed `JsonError`.

use proptest::prelude::*;
use teapot_telemetry::json::{parse, JsonError, Layout, Obj, Value, MAX_DEPTH};

/// Characters the escaper treats specially, weighted in: quotes,
/// backslashes, every control character, DEL, and non-ASCII up to the
/// astral planes.
fn tricky_char(x: u32) -> char {
    const SPECIAL: [char; 8] = ['"', '\\', '\n', '\r', '\t', '/', '\u{7f}', '\u{2028}'];
    match x % 4 {
        0 => SPECIAL[(x / 4) as usize % SPECIAL.len()],
        1 => char::from_u32((x / 4) % 0x20).unwrap(),
        2 => char::from_u32(0x20 + (x / 4) % 0x5f).unwrap(),
        _ => char::from_u32((x / 4) % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

fn tricky_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..24)
        .prop_map(|xs| xs.into_iter().map(tricky_char).collect())
}

/// Bytes that are mostly JSON punctuation and literal fragments, so
/// random inputs get deep into the parser instead of failing at byte 0.
const NEAR_JSON: [&str; 22] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "dc00", "0", "-", "1.5e3", "true",
    "nul", " ", "\n", "\"k\"", "é", "\u{1}", "x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn writer_output_reads_back_exactly(
        key in tricky_string(),
        value in tricky_string(),
        items in proptest::collection::vec(tricky_string(), 0..4),
        layout in 0usize..3,
    ) {
        let layout = [Layout::Compact, Layout::Spaced, Layout::Lines][layout];
        let mut o = Obj::new(layout);
        o.field(&key, &value)
            .field("n", u64::MAX)
            .field("none", None::<&str>)
            .list("items", layout, layout, &items, |o, s| {
                o.field("s", s);
            })
            .obj("inner", Layout::Lines, |i| {
                i.field(&value, &key);
            });
        let text = o.finish();
        let v = parse(&text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
        let members = v.members().unwrap();
        prop_assert_eq!(&members[0], &(key.clone(), Value::Str(value.clone())));
        prop_assert_eq!(members[1].1.as_u64(), Some(u64::MAX));
        prop_assert_eq!(&members[2].1, &Value::Null);
        let read: Vec<&str> = members[3].1.as_array().unwrap()
            .iter()
            .map(|o| o.get("s").and_then(Value::as_str).unwrap())
            .collect();
        prop_assert_eq!(read, items.iter().map(String::as_str).collect::<Vec<_>>());
        let inner = v.get("inner").and_then(|i| i.get(&value));
        prop_assert_eq!(inner.and_then(Value::as_str), Some(key.as_str()));
    }

    #[test]
    fn reader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn reader_never_panics_on_near_json(
        picks in proptest::collection::vec(0usize..NEAR_JSON.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| NEAR_JSON[i]).collect();
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset <= text.len(), "{e} past the end of {text:?}");
        }
    }
}

/// A million open brackets would overflow the stack of a recursive
/// parser without a depth limit; this one stops at `MAX_DEPTH`.
#[test]
fn deep_nesting_is_a_typed_error() {
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(
            err,
            JsonError {
                offset: open.len() * MAX_DEPTH,
                expected: "at most 128 levels of nesting",
            }
        );
    }
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&ok).is_ok());
}
