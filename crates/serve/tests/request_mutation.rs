//! Seeded mutation test of the request path.
//!
//! Valid bodies for all five POST endpoints are mutated — a field
//! dropped, a value's type changed, a number pushed out of range, an
//! unknown key added, a value nested deeply, the text truncated — and
//! decoded through `PostRequest::from_target`. Every outcome must be a
//! decoded request or a structured rejection whose JSON pointer is empty
//! (a `parse` error) or names a path of the mutated body (for a missing
//! field, the object it is missing from). No input may panic.

#![allow(clippy::unwrap_used)]

use fits_obs::json::{parse, Value, Writer};
use fits_rng::StdRng;
use fits_serve::PostRequest;

const SEED: u64 = 0x5eed_f175;
const MUTANTS_PER_ENDPOINT: usize = 400;

const VALID: &[(&str, &str)] = &[
    (
        "/synthesize",
        r#"{"kernel": "crc32", "scale": 64, "synth": {"toggle_aware": true, "reg_bits": 4,
            "space_budget": 0.7, "max_dict_bits": 6}}"#,
    ),
    (
        "/simulate",
        r#"{"kernel": "sha", "scale": 64, "scenario": "small-embedded", "tech": "65nm",
            "icache_bytes": 8192, "synth": {"reg_bits": 3}}"#,
    ),
    (
        "/analyze",
        r#"{"kernel": "crc32", "static_only": true, "scenario": "sa1100",
            "icache_bytes": 16384, "synth": {"max_dict_bits": 4}}"#,
    ),
    (
        "/sweep",
        r#"{"kernels": ["crc32", "sha"], "scale": 64, "scenario": "sa1100",
            "icache_bytes": [16384, 8192], "tech": ["sa1100", "65nm"],
            "synth": {"space_budget": 1}}"#,
    ),
    (
        "/synthesize-multi",
        r#"{"kernels": ["crc32", "sha", "fft"], "weights": [1, 2, 0], "scale": 64,
            "epsilon": 0.5, "synth": {"toggle_aware": false}}"#,
    ),
];

#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node of `v` as a path from the root (the root included).
fn paths(v: &Value, here: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(here.clone());
    match v {
        Value::Obj(members) => {
            for (key, child) in members {
                here.push(Step::Key(key.clone()));
                paths(child, here, out);
                here.pop();
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                here.push(Step::Index(i));
                paths(child, here, out);
                here.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(v, |node, step| match (node, step) {
        (Value::Obj(members), Step::Key(key)) => {
            &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
        }
        (Value::Arr(items), Step::Index(i)) => &mut items[*i],
        _ => unreachable!("paths come from the same tree"),
    })
}

fn write(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.raw("null"),
        Value::Bool(b) => w.bool(*b),
        Value::Num(n) => w.f64(*n),
        Value::Str(s) => w.str(s),
        Value::Arr(items) => {
            w.begin_arr();
            items.iter().for_each(|item| write(w, item));
            w.end_arr();
        }
        Value::Obj(members) => {
            w.begin_obj();
            for (key, child) in members {
                w.key(key);
                write(w, child);
            }
            w.end_obj();
        }
    }
}

fn render(v: &Value) -> String {
    let mut w = Writer::new();
    write(&mut w, v);
    w.finish()
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Applies one random mutation; returns the body text.
fn mutate(rng: &mut StdRng, doc: &mut Value) -> Option<String> {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    let path = pick(rng, &all).clone();
    let node = node_mut(doc, &path);
    match rng.gen_range(0..6u32) {
        // Drop a field.
        0 => {
            if let Value::Obj(members) = node {
                if !members.is_empty() {
                    let i = rng.gen_range(0..members.len());
                    members.remove(i);
                }
            }
        }
        // Change a value's type.
        1 => {
            let others = [
                Value::Null,
                Value::Bool(true),
                Value::Num(3.0),
                Value::Str("x".to_string()),
                Value::Arr(vec![Value::Num(1.0)]),
                Value::Obj(vec![("k".to_string(), Value::Null)]),
            ];
            *node = pick(rng, &others).clone();
        }
        // Push a number out of range.
        2 => {
            if let Value::Num(n) = node {
                *n = *pick(rng, &[-1.0, 0.0, 0.5, 1e9, -1e300, 1e300, 2.5e-7]);
            }
        }
        // Add an unknown key.
        3 => {
            if let Value::Obj(members) = node {
                let at = rng.gen_range(0..=members.len());
                members.insert(at, ("zz_unknown".to_string(), Value::Num(1.0)));
            }
        }
        // Nest deeply.
        4 => {
            for _ in 0..rng.gen_range(1..300usize) {
                *node = Value::Arr(vec![std::mem::replace(node, Value::Null)]);
            }
        }
        // Truncate the text.
        _ => {
            let text = render(doc);
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Some(text[..cut].to_string());
        }
    }
    None
}

fn resolves(doc: &Value, pointer: &str) -> bool {
    pointer
        .split('/')
        .skip(1)
        .try_fold(doc, |node, token| match node {
            Value::Obj(_) => node.get(token),
            Value::Arr(items) => token.parse::<usize>().ok().and_then(|i| items.get(i)),
            _ => None,
        })
        .is_some()
}

#[test]
fn mutated_requests_decode_or_point_into_the_body() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut accepted, mut rejected) = (0, 0);
    for &(target, valid) in VALID {
        assert!(
            matches!(PostRequest::from_target(target, valid), Ok(Some(_))),
            "{target}: the seed body must decode"
        );
        let seed = parse(valid).unwrap();
        for _ in 0..MUTANTS_PER_ENDPOINT {
            let mut doc = seed.clone();
            let mut text = None;
            for _ in 0..rng.gen_range(1..4u32) {
                text = mutate(&mut rng, &mut doc);
                if text.is_some() {
                    break;
                }
            }
            let text = text.unwrap_or_else(|| render(&doc));
            let err = match PostRequest::from_target(target, &text) {
                Ok(_) => {
                    accepted += 1;
                    continue;
                }
                Err(err) => err,
            };
            rejected += 1;
            if err.code == "parse" {
                assert_eq!(err.pointer, "", "{target} {text}: {err}");
                continue;
            }
            let body = if text.trim().is_empty() {
                Value::Obj(Vec::new())
            } else {
                parse(&text).unwrap_or_else(|e| panic!("{target} {text}: {err} but {e}"))
            };
            let named = if err.code == "missing_field" {
                let (parent, _) = err.pointer.rsplit_once('/').unwrap();
                resolves(&body, parent) && !resolves(&body, &err.pointer)
            } else {
                resolves(&body, &err.pointer)
            };
            assert!(named, "{target} {text}: {err} names no path of the body");
            assert!(
                ["missing_field", "bad_type", "bad_value", "unknown_field"].contains(&err.code),
                "{target} {text}: unexpected code {err}"
            );
        }
    }
    // Both outcomes are exercised.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
