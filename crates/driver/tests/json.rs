//! Writer → reader round trips and the reader's strictness.

use occusense_driver::json::{self, obj, Value};

fn round_trip(v: &Value) -> Value {
    let text = v.to_string();
    json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

#[test]
fn escapes_and_control_characters_round_trip() {
    let nasty = "quote \" backslash \\ slash / newline \n tab \t cr \r bell \u{7} nul \u{0} \
                 unit-sep \u{1f} del \u{7f} é ✓ 🦀";
    let v = Value::from(nasty);
    let text = v.to_string();
    assert!(!text.contains('\n'), "{text}");
    assert!(
        text.contains("\\u0007") && text.contains("\\u0000"),
        "{text}"
    );
    assert_eq!(round_trip(&v), v);
    // Keys are escaped the same way.
    let keyed = obj([(nasty, Value::Null)]);
    assert_eq!(round_trip(&keyed), keyed);
}

#[test]
fn the_reader_decodes_every_escape_form() {
    let v = json::parse(r#""\" \\ \/ \b \f \n \r \t \u00e9 \ud83e\udd80""#).unwrap();
    assert_eq!(v.as_str(), Some("\" \\ / \u{8} \u{c} \n \r \t é 🦀"));
}

#[test]
fn nesting_round_trips_and_keeps_key_order() {
    let v = obj([
        ("zeta", 1u64.into()),
        ("alpha", Value::Array(vec![])),
        (
            "nested",
            obj([
                ("list", vec![obj([("x", true.into())]), Value::Null].into()),
                ("empty", obj([])),
                (
                    "deep",
                    vec![vec![vec![Value::from(-1.5)].into()].into()].into(),
                ),
            ]),
        ),
    ]);
    let back = round_trip(&v);
    assert_eq!(back, v);
    let Value::Object(fields) = &back else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["zeta", "alpha", "nested"]);
}

#[test]
fn u64_counters_are_printed_exactly() {
    for n in [0, 1, 9_007_199_254_740_993, u64::MAX] {
        let v = obj([("count", n.into())]);
        assert_eq!(v.to_string(), format!("{{\"count\": {n}}}"));
        assert_eq!(round_trip(&v).get("count"), Some(&Value::UInt(n)));
    }
    // One past u64 still parses, as a float.
    let big = json::parse("18446744073709551616").unwrap();
    assert_eq!(big, Value::Float(18_446_744_073_709_551_616.0));
    assert_eq!(Value::from(-7i64), Value::Float(-7.0));
    assert_eq!(Value::from(7i64), Value::UInt(7));
}

#[test]
fn nan_infinity_and_null_round_trip_like_python() {
    let v = obj([
        ("nan", f64::NAN.into()),
        ("inf", f64::INFINITY.into()),
        ("ninf", f64::NEG_INFINITY.into()),
        ("null", Value::Null),
    ]);
    let text = v.to_string();
    assert_eq!(
        text,
        r#"{"nan": NaN, "inf": Infinity, "ninf": -Infinity, "null": null}"#
    );
    let back = json::parse(&text).unwrap();
    assert!(back.get("nan").and_then(Value::as_f64).unwrap().is_nan());
    assert_eq!(back.get("inf").and_then(Value::as_f64), Some(f64::INFINITY));
    assert_eq!(
        back.get("ninf").and_then(Value::as_f64),
        Some(f64::NEG_INFINITY)
    );
    assert_eq!(back.get("null"), Some(&Value::Null));
    assert_eq!(back.get("null").and_then(Value::as_f64), None);
}

#[test]
fn floats_round_trip_bitwise() {
    for x in [0.1, -2.5e-300, 1.7976931348623157e308, 123456.789, -0.0] {
        let back = round_trip(&Value::from(x)).as_f64().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x}");
    }
    assert_eq!(Value::fixed(0.0514, 3).to_string(), "0.051");
    // A float always prints as one, an integer never does.
    assert_eq!(Value::fixed(1945.4, 0).to_string(), "1945.0");
    assert_eq!(Value::from(-0.0).to_string(), "-0.0");
    assert_eq!(Value::from(1945u64).to_string(), "1945");
}

#[test]
fn layout_inlines_scalar_containers_and_indents_the_rest() {
    let v = obj([
        ("n", 1u64.into()),
        ("rtt", obj([("p50", 2.5.into()), ("samples", 3u64.into())])),
        ("rows", vec![obj([("a", 1u64.into())]), obj([])].into()),
        ("empty", Value::Array(vec![])),
    ]);
    assert_eq!(
        v.to_string(),
        "{\n  \"n\": 1,\n  \"rtt\": {\"p50\": 2.5, \"samples\": 3},\n  \"rows\": [\n    \
         {\"a\": 1},\n    {}\n  ],\n  \"empty\": []\n}"
    );
}

#[test]
fn to_line_writes_every_container_flat_and_reads_back() {
    let v = obj([
        ("n", 1u64.into()),
        ("rows", vec![obj([("a", 1u64.into())]), obj([])].into()),
        ("text", "two\nlines".into()),
    ]);
    let line = v.to_line();
    assert_eq!(
        line,
        r#"{"n": 1, "rows": [{"a": 1}, {}], "text": "two\nlines"}"#
    );
    assert_eq!(json::parse(&line).unwrap(), v);
    // Scalar-only values lay out the same either way.
    let flat = obj([("p50", 2.5.into())]);
    assert_eq!(flat.to_line(), flat.to_string());
}

#[test]
fn the_reader_is_strict() {
    for bad in [
        "",
        "   ",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "{a: 1}",
        "01",
        "1.",
        ".5",
        "-",
        "1e",
        "+1",
        "nan",
        "Inf",
        "tru",
        "\"unterminated",
        "\"raw\nnewline\"",
        "\"bad \\x escape\"",
        "\"\\ud800 lone surrogate\"",
        "\"\\u12\"",
        "{} trailing",
        "[1] [2]",
        "'single'",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(json::parse(&deep).is_err());
    let err = json::parse("[1, 2, x]").unwrap_err();
    assert_eq!(err.offset, 7);
    assert!(err.to_string().contains("byte 7"), "{err}");
}

#[test]
fn the_reader_accepts_standard_documents() {
    let v = json::parse(" {\"a\": [1, -2, 3.5e2, true, false, null, \"s\"], \"b\": {}} ").unwrap();
    let expected = vec![
        Value::UInt(1),
        Value::Float(-2.0),
        Value::Float(350.0),
        true.into(),
        false.into(),
        Value::Null,
        "s".into(),
    ];
    assert_eq!(v.get("a"), Some(&Value::Array(expected)));
    assert_eq!(v.get("b"), Some(&obj([])));
    assert_eq!(v.get("missing"), None);
    assert_eq!(Value::Null.get("a"), None);
}
