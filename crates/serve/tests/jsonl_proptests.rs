//! Property-based tests of the hand-rolled JSONL job schema: the
//! parser faces operator-authored request files, so its grammar gets
//! randomized scrutiny — string escapes, surrogate-free unicode,
//! numeric boundaries, duplicate keys — with every rejection checked
//! to stay aligned to its input line.

#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use ga_harness::json_escape;
use ga_serve::jsonl::{parse_job, parse_object, JsonValue};
use ga_serve::ServeError;
use proptest::prelude::*;

/// Any Unicode scalar value (surrogates excluded by construction, as
/// `char` requires).
fn any_scalar() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u32..0xD800).boxed(),
        (0xE000u32..0x11_0000).boxed(),
        // Weight the troublemakers: controls and the escaped pair.
        (0u32..0x20).boxed(),
        Just('"' as u32).boxed(),
        Just('\\' as u32).boxed(),
    ]
    .prop_map(|cp| char::from_u32(cp).expect("surrogate-free by construction"))
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_scalar(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// A value the flat schema can carry, paired with its rendering.
fn any_value() -> impl Strategy<Value = (String, JsonValue)> {
    prop_oneof![
        any_string()
            .prop_map(|s| (format!("\"{}\"", json_escape(&s)), JsonValue::Str(s)))
            .boxed(),
        any::<i64>()
            .prop_map(|n| (format!("{n}"), JsonValue::Num(n as f64)))
            .boxed(),
        // The numeric extremes the integer fields clamp against.
        prop_oneof![
            Just(0u64),
            Just(u8::MAX as u64),
            Just(u16::MAX as u64),
            Just(u32::MAX as u64),
            Just(u64::MAX),
        ]
        .prop_map(|n| (format!("{}", n as f64), JsonValue::Num(n as f64)))
        .boxed(),
        any::<bool>()
            .prop_map(|b| (format!("{b}"), JsonValue::Bool(b)))
            .boxed(),
        Just(("null".to_string(), JsonValue::Null)).boxed(),
    ]
}

/// Render pairs as one flat JSON object line.
fn render(pairs: &[(String, (String, JsonValue))]) -> String {
    let mut out = String::from("{");
    for (i, (k, (rendered, _))) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), rendered);
    }
    out.push('}');
    out
}

/// A syntactically valid job line, returned with its parts.
fn valid_job_line(pop: u8, gens: u32, xover: u8, mutation: u8, seed: u16) -> String {
    format!("{{\"fn\":\"F3\",\"pop\":{pop},\"gens\":{gens},\"xover\":{xover},\"mut\":{mutation},\"seed\":{seed}}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary flat objects (unique keys, escape-heavy strings,
    /// boundary numerics) round-trip exactly through render → parse.
    #[test]
    fn flat_objects_roundtrip(
        keys in prop::collection::vec(any_string(), 0..8),
        values in prop::collection::vec(any_value(), 8..9),
    ) {
        // Make keys unique by suffixing their index; values cycle.
        let pairs: Vec<(String, (String, JsonValue))> = keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (format!("{k}#{i}"), values[i % values.len()].clone()))
            .collect();
        let line = render(&pairs);
        let parsed = parse_object(&line);
        prop_assert!(parsed.is_ok(), "line {line:?} rejected: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.len(), pairs.len());
        for ((want_k, (_, want_v)), (got_k, got_v)) in pairs.iter().zip(&parsed) {
            prop_assert_eq!(want_k, got_k);
            prop_assert_eq!(want_v, got_v);
        }
    }

    /// Every integer field accepts exactly its documented range; a
    /// value one past the maximum is rejected with a parse error that
    /// carries the caller's line number.
    #[test]
    fn numeric_bounds_are_exact(line_no in 0usize..100_000) {
        // In-range extremes parse.
        for (pop, gens, xover, mutation, seed) in [
            (0u8, 0u32, 0u8, 0u8, 0u16),
            (u8::MAX, u32::MAX, u8::MAX, u8::MAX, u16::MAX),
        ] {
            let line = valid_job_line(pop, gens, xover, mutation, seed);
            let job = parse_job(&line, line_no);
            prop_assert!(job.is_ok(), "extremes must parse: {line} -> {job:?}");
        }
        // One past each field's max is a line-aligned parse error.
        for over in [
            r#"{"fn":"F3","pop":256,"gens":8,"xover":10,"mut":1,"seed":7}"#,
            r#"{"fn":"F3","pop":32,"gens":4294967296,"xover":10,"mut":1,"seed":7}"#,
            r#"{"fn":"F3","pop":32,"gens":8,"xover":256,"mut":1,"seed":7}"#,
            r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":256,"seed":7}"#,
            r#"{"fn":"F3","pop":32,"gens":8,"xover":10,"mut":1,"seed":65536}"#,
            r#"{"fn":"F3","pop":-1,"gens":8,"xover":10,"mut":1,"seed":7}"#,
        ] {
            match parse_job(over, line_no) {
                Err(ServeError::Parse { line, .. }) => prop_assert_eq!(line, line_no),
                other => prop_assert!(false, "accepted {over}: {other:?}"),
            }
        }
    }

    /// Duplicating any key of a valid job line turns it into a parse
    /// error aligned to the same line.
    #[test]
    fn duplicate_keys_rejected_line_aligned(
        line_no in 0usize..100_000,
        dup_idx in 0usize..6,
        pop in 2u8..=u8::MAX, gens in 1u32..1000, seed in 0u16..=u16::MAX,
    ) {
        let line = valid_job_line(pop, gens, 10, 1, seed);
        prop_assert!(parse_job(&line, line_no).is_ok(), "baseline must parse: {line}");
        let key = ["fn", "pop", "gens", "xover", "mut", "seed"][dup_idx];
        let dup_field = if key == "fn" {
            "\"fn\":\"F2\"".to_string()
        } else {
            format!("\"{key}\":1")
        };
        let dup = format!("{},{dup_field}}}", &line[..line.len() - 1]);
        match parse_job(&dup, line_no) {
            Err(ServeError::Parse { line, msg }) => {
                prop_assert_eq!(line, line_no, "diagnostic drifted off its line");
                prop_assert!(msg.contains("duplicate key"), "msg: {msg}");
            }
            other => prop_assert!(false, "accepted duplicate {key}: {other:?}"),
        }
    }

    /// Strings survive the full escape gauntlet: serialize with
    /// `json_escape`, parse back, compare code point for code point.
    #[test]
    fn strings_roundtrip_through_escaping(s in any_string()) {
        let line = format!("{{\"k\":\"{}\"}}", json_escape(&s));
        let parsed = parse_object(&line);
        prop_assert!(parsed.is_ok(), "string {s:?} rejected as {line:?}: {parsed:?}");
        prop_assert_eq!(&parsed.unwrap()[0].1, &JsonValue::Str(s));
    }

    /// Mangled lines never panic the parser and always carry the
    /// caller's line number in their diagnostics (the invariant the
    /// line-aligned output format depends on).
    #[test]
    fn mangled_lines_error_line_aligned(
        line_no in 0usize..100_000,
        cut in 1usize..40,
        junk in any_string(),
    ) {
        let base = valid_job_line(32, 8, 10, 1, 7);
        let cut = cut.min(base.len() - 1);
        for candidate in [base[..cut].to_string(), format!("{junk}{base}"), junk.clone()] {
            match parse_job(&candidate, line_no) {
                Ok(_) => {} // junk may happen to be empty-prefix valid
                Err(ServeError::Parse { line, .. }) => prop_assert_eq!(line, line_no),
                Err(ServeError::InvalidJob { .. }) => {} // width gate, still line-slotted by the driver
                Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            }
        }
    }
}
