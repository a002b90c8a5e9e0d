//! Property tests for the JSON parser: `write → parse` identity on
//! randomly generated documents (both encodings), bit-exact float
//! round-trips on edge cases, and rejection of malformed input. The
//! generator is brute-force random over a seeded deterministic PRNG, the
//! workspace's stand-in for proptest.

use triad_util::json::{parse, Json};
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{RngExt, SeedableRng};

/// A random document of bounded depth. Only finite `Num`s are generated:
/// the canonical writer encodes non-finite floats as `null`, which is
/// deliberately not identity (covered by `infinity_sentinel_is_lossy`).
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let scalar_only = depth == 0;
    match rng.random_range(0..if scalar_only { 6u32 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Int(rng.random_range(0u64..=u64::MAX) as i64),
        3 => {
            // Finite floats spanning many binades, including negatives,
            // subnormal-ish magnitudes and exact integers.
            let mantissa: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let exp = rng.random_range(0u32..640) as i32 - 320;
            let x = mantissa * 2f64.powi(exp);
            Json::Num(if x.is_finite() { x } else { 0.0 })
        }
        4 => Json::Num(rng.random_range(0u32..100) as f64), // integral floats
        5 => Json::Str(random_string(rng)),
        6 => {
            let n = rng.random_range(0usize..5);
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0usize..5);
            Json::Obj(
                (0..n)
                    .map(|i| (format!("k{i}_{}", random_string(rng)), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let n = rng.random_range(0usize..12);
    (0..n)
        .map(|_| {
            // Bias toward characters the escaper must handle.
            match rng.random_range(0..10u32) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\t',
                4 => '\u{1}',
                5 => 'é',
                6 => '\u{1D11E}',
                _ => (b'a' + rng.random_range(0u8..26)) as char,
            }
        })
        .collect()
}

#[test]
fn write_parse_roundtrip_identity() {
    let mut rng = StdRng::seed_from_u64(2020);
    for case in 0..500 {
        let doc = random_json(&mut rng, 4);
        let compact = doc.to_string_compact();
        let pretty = doc.to_string_pretty();
        assert_eq!(parse(&compact).as_ref(), Ok(&doc), "compact case {case}: {compact}");
        assert_eq!(parse(&pretty).as_ref(), Ok(&doc), "pretty case {case}: {pretty}");
    }
}

#[test]
fn float_edge_cases_roundtrip_bit_exactly() {
    let cases = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0, // subnormal
        f64::MAX,
        f64::EPSILON,
        1e15,
        -1e15,
        1.5e16,
        2.5e-7,
        -9.999999999999999e-5,
        std::f64::consts::PI,
        6.02214076e23,
    ];
    for &x in &cases {
        let text = Json::Num(x).to_string_compact();
        match parse(&text) {
            Ok(Json::Num(y)) => assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "float {x:e} must round-trip bit-exactly through {text:?}"
            ),
            other => panic!("float {x:e} encoded as {text:?} parsed to {other:?}"),
        }
    }
}

#[test]
fn negative_zero_keeps_its_sign() {
    let text = Json::Num(-0.0).to_string_compact();
    assert_eq!(text, "-0.0");
    match parse(&text) {
        Ok(Json::Num(y)) => assert!(y == 0.0 && y.is_sign_negative()),
        other => panic!("-0.0 parsed to {other:?}"),
    }
}

#[test]
fn infinity_sentinel_is_lossy_by_design() {
    // JSON has no infinity literal: the canonical writer emits `null` for
    // non-finite floats, so infeasible-entry sentinels (`f64::INFINITY` in
    // RM energy curves) must be encoded at the schema layer — the phase
    // database uses the strings "inf"/"-inf". The writer/parser pair's
    // contract is only that nothing panics and nulls stay nulls.
    for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let text = Json::Arr(vec![Json::Num(x)]).to_string_compact();
        assert_eq!(text, "[null]");
        assert_eq!(parse(&text), Ok(Json::Arr(vec![Json::Null])));
    }
}

#[test]
fn malformed_inputs_are_rejected_not_panicked() {
    let bad = [
        "",
        "   \n\t ",
        "{\"unclosed\": [1, 2",
        "[[[[",
        "{\"a\": 1 \"b\": 2}",
        "[1, , 2]",
        "\"ends with backslash\\",
        "12.",
        "12e+",
        "--1",
        "0x10",
        "'single'",
        "[\"\\uD834\"]", // lone high surrogate
        "{\"dup\" 1}",
        "[1] [2]",
        "truefalse",
    ];
    for src in bad {
        let err = parse(src).expect_err(&format!("should reject {src:?}"));
        // Errors must be reportable and carry an in-range offset.
        assert!(err.offset <= src.len());
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn deeply_nested_but_balanced_input_parses() {
    let depth = 200;
    let mut src = String::new();
    src.push_str(&"[".repeat(depth));
    src.push('1');
    src.push_str(&"]".repeat(depth));
    let mut doc = parse(&src).unwrap();
    for _ in 0..depth {
        match doc {
            Json::Arr(mut items) => {
                assert_eq!(items.len(), 1);
                doc = items.pop().unwrap();
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
    assert_eq!(doc, Json::Int(1));
}

#[test]
fn hostile_nesting_depth_is_an_error_not_a_stack_overflow() {
    // 300,000 levels: far past any stack's reach if the reader (or the
    // drop of the tree it builds) recursed once per level.
    let depth = 300_000;
    let src = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let err = parse(&src).expect_err("absurd nesting must be rejected");
    assert!(err.offset < src.len());
    assert!(!err.to_string().is_empty());
}

/// A document of `records` objects whose string values mix ASCII runs,
/// 2-, 3- and 4-byte UTF-8 scalars and escapes.
fn multibyte_document(records: usize) -> String {
    let rows: Vec<Json> = (0..records)
        .map(|i| {
            Json::obj()
                .set("name", format!("café-{i} naïve ∂x/∂t 𝄞 \"quoted\"\tTab"))
                .set("tags", Json::Arr(vec![Json::from("Größe"), Json::from("速度")]))
                .set("value", i as f64 * 0.5)
        })
        .collect();
    Json::Arr(rows).to_string_compact()
}

/// Seconds for one parse of `doc`.
fn parse_s(doc: &str) -> f64 {
    let t = std::time::Instant::now();
    std::hint::black_box(parse(std::hint::black_box(doc)).expect("valid document"));
    t.elapsed().as_secs_f64()
}

#[test]
fn string_parsing_scales_linearly() {
    let small = multibyte_document(500);
    let large = multibyte_document(1_000);
    assert!(large.len() >= 2 * small.len() - 2);
    assert_eq!(parse(&small).unwrap().to_string_compact(), small);
    // Fastest of 7 interleaved runs per size, so both sizes see the same
    // host load; a quadratic parser lands near 4x on every attempt, so
    // retrying a noisy attempt cannot hide one.
    let mut ratio = f64::INFINITY;
    for _ in 0..3 {
        let (mut s, mut l) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            s = s.min(parse_s(&small));
            l = l.min(parse_s(&large));
        }
        ratio = l / s;
        if ratio <= 2.5 {
            return;
        }
    }
    panic!("doubling the document multiplied parse time by {ratio:.2}");
}
