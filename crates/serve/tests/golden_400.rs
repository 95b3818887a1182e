//! Golden 400 corpus: request bodies mapped to the exact structured
//! rejection (code, JSON pointer, message) and 400 body each produces.
//!
//! Covers every rejection branch of the five POST decoders, array-item
//! pointers, and bodies with two faults, which pin down which error is
//! reported first. Any change to request decoding that alters a single
//! byte of a 400 body fails here.

use fits_isa::spec::{AR32_SPEC_TEXT, T16_SPEC_TEXT};
use fits_obs::json::escape;
use fits_serve::{ApiError, PostRequest};

/// `(target, body, code, pointer, message)`.
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

#[rustfmt::skip]
const CORPUS: &[Case] = &[
    ("/synthesize", r#"not json"#, "parse", "", r#"JSON error at byte 0: expected 'null'"#),
    ("/synthesize", r#"{"kernel": "crc32""#, "parse", "", r#"JSON error at byte 18: expected ',' or '}'"#),
    ("/synthesize", r#"[1, 2]"#, "bad_type", "", r#"expected an object"#),
    ("/synthesize", r#""crc32""#, "bad_type", "", r#"expected an object"#),
    ("/synthesize", r#"{"kernel": "crc32", "bogus": 1}"#, "unknown_field", "/bogus", r#"unknown field (allowed: kernel, scale, synth, isa)"#),
    ("/synthesize", r#"{}"#, "missing_field", "/kernel", r#"a kernel name is required"#),
    ("/synthesize", r#"{"kernel": 5}"#, "bad_type", "/kernel", r#"expected a string"#),
    ("/synthesize", r#"{"kernel": "nope"}"#, "bad_value", "/kernel", r#"unknown kernel "nope""#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": "big"}"#, "bad_type", "/scale", r#"expected a number"#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": 0}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": 4097}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 4097"#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": 1.5}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 1.5"#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": -3}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got -3"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": 5}"#, "bad_type", "/synth", r#"expected an object"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": [1]}"#, "bad_type", "/synth", r#"expected an object"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"regbits": 3}}"#, "unknown_field", "/synth/regbits", r#"unknown field (allowed: toggle_aware, reg_bits, space_budget, max_dict_bits)"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"toggle_aware": 1}}"#, "bad_type", "/synth/toggle_aware", r#"expected a boolean"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"reg_bits": "4"}}"#, "bad_type", "/synth/reg_bits", r#"expected a number"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"reg_bits": 7}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 7"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"reg_bits": 2}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 2"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"reg_bits": 3.5}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 3.5"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"space_budget": "all"}}"#, "bad_type", "/synth/space_budget", r#"expected a number"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"space_budget": 0}}"#, "bad_value", "/synth/space_budget", r#"expected a fraction in (0, 1], got 0"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"space_budget": 1.5}}"#, "bad_value", "/synth/space_budget", r#"expected a fraction in (0, 1], got 1.5"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"space_budget": -0.25}}"#, "bad_value", "/synth/space_budget", r#"expected a fraction in (0, 1], got -0.25"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"max_dict_bits": 13}}"#, "bad_value", "/synth/max_dict_bits", r#"expected an integer in [0, 12], got 13"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"max_dict_bits": null}}"#, "bad_type", "/synth/max_dict_bits", r#"expected a number"#),
    ("/synthesize", r#"{"kernel": "crc32", "isa": 5}"#, "bad_type", "/isa", r#"expected a string"#),
    ("/synthesize", r#"{"kernel": "crc32", "isa": "isa broken {"}"#, "bad_value", "/isa", r#"ISA spec rejected: spec:1:12: expected an item or `}`, found end of spec"#),
    ("/synthesize", r#"{"kernel": "nope", "scale": 0}"#, "bad_value", "/kernel", r#"unknown kernel "nope""#),
    ("/synthesize", r#"{"kernel": 5, "bogus": 1}"#, "unknown_field", "/bogus", r#"unknown field (allowed: kernel, scale, synth, isa)"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"reg_bits": 9, "bogus": 1}}"#, "unknown_field", "/synth/bogus", r#"unknown field (allowed: toggle_aware, reg_bits, space_budget, max_dict_bits)"#),
    ("/synthesize", r#"{"kernel": "crc32", "scale": 0, "synth": 5}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/synthesize", r#"{"kernel": "crc32", "synth": {"max_dict_bits": 13, "reg_bits": 9}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 9"#),
    ("/synthesize", r#"{"scale": 0}"#, "missing_field", "/kernel", r#"a kernel name is required"#),
    ("/simulate", r#"{"kernel": "crc32", "wat": true}"#, "unknown_field", "/wat", r#"unknown field (allowed: kernel, scale, scenario, tech, icache_bytes, synth, isa)"#),
    ("/simulate", r#"{}"#, "missing_field", "/kernel", r#"a kernel name is required"#),
    ("/simulate", r#"{"kernel": "sha", "scale": 5000}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 5000"#),
    ("/simulate", r#"{"kernel": "crc32", "scenario": 5}"#, "bad_type", "/scenario", r#"expected a string"#),
    ("/simulate", r#"{"kernel": "crc32", "scenario": "nope"}"#, "bad_value", "/scenario", r#"unknown scenario preset "nope" (presets: sa1100 small-embedded modern-node)"#),
    ("/simulate", r#"{"kernel": "crc32", "tech": 65}"#, "bad_type", "/tech", r#"expected a string"#),
    ("/simulate", r#"{"kernel": "crc32", "tech": "3nm"}"#, "bad_value", "/tech", r#"unknown tech node "3nm" (nodes: sa1100 65nm)"#),
    ("/simulate", r#"{"kernel": "crc32", "icache_bytes": "16k"}"#, "bad_type", "/icache_bytes", r#"expected a number"#),
    ("/simulate", r#"{"kernel": "crc32", "icache_bytes": 100}"#, "bad_value", "/icache_bytes", r#"expected an integer in [256, 16777216], got 100"#),
    ("/simulate", r#"{"kernel": "crc32", "icache_bytes": 33554432}"#, "bad_value", "/icache_bytes", r#"expected an integer in [256, 16777216], got 33554432"#),
    ("/simulate", r#"{"kernel": "crc32", "icache_bytes": 1000}"#, "bad_value", "/icache_bytes", r#"icache: 1000 bytes not divisible into 32 ways of 32-byte lines"#),
    ("/simulate", r#"{"kernel": "crc32", "icache_bytes": 8192.5}"#, "bad_value", "/icache_bytes", r#"expected an integer in [256, 16777216], got 8192.5"#),
    ("/simulate", r#"{"kernel": "crc32", "synth": {"reg_bits": 5}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 5"#),
    ("/simulate", r#"{"kernel": "crc32", "isa": false}"#, "bad_type", "/isa", r#"expected a string"#),
    ("/simulate", r#"{"kernel": "crc32", "scenario": "nope", "synth": {"reg_bits": 9}}"#, "bad_value", "/scenario", r#"unknown scenario preset "nope" (presets: sa1100 small-embedded modern-node)"#),
    ("/simulate", r#"{"kernel": "crc32", "tech": "3nm", "icache_bytes": 100}"#, "bad_value", "/icache_bytes", r#"expected an integer in [256, 16777216], got 100"#),
    ("/simulate", r#"{"kernel": "crc32", "scenario": "nope", "tech": "3nm"}"#, "bad_value", "/scenario", r#"unknown scenario preset "nope" (presets: sa1100 small-embedded modern-node)"#),
    ("/analyze", r#"{"kernel": "crc32", "traced": true}"#, "unknown_field", "/traced", r#"unknown field (allowed: kernel, scale, scenario, tech, icache_bytes, synth, static_only, isa)"#),
    ("/analyze", r#"{}"#, "missing_field", "/kernel", r#"a kernel name is required"#),
    ("/analyze", r#"{"kernel": "crc32", "static_only": 1}"#, "bad_type", "/static_only", r#"expected a boolean"#),
    ("/analyze", r#"{"kernel": "crc32", "static_only": "yes"}"#, "bad_type", "/static_only", r#"expected a boolean"#),
    ("/analyze", r#"{"kernel": "crc32", "scale": 0}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/analyze", r#"{"kernel": "crc32", "scenario": "big-iron"}"#, "bad_value", "/scenario", r#"unknown scenario preset "big-iron" (presets: sa1100 small-embedded modern-node)"#),
    ("/analyze", r#"{"kernel": "crc32", "icache_bytes": 1000}"#, "bad_value", "/icache_bytes", r#"icache: 1000 bytes not divisible into 32 ways of 32-byte lines"#),
    ("/analyze", r#"{"kernel": "crc32", "synth": {"toggle_aware": "no"}}"#, "bad_type", "/synth/toggle_aware", r#"expected a boolean"#),
    ("/analyze", r#"{"kernel": "crc32", "isa": []}"#, "bad_type", "/isa", r#"expected a string"#),
    ("/analyze", r#"{"kernel": "crc32", "static_only": 1, "synth": {"reg_bits": 9}}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 9"#),
    ("/analyze", r#"{"kernel": "crc32", "synth": {"reg_bits": 9}, "static_only": 1}"#, "bad_value", "/synth/reg_bits", r#"expected an integer in [3, 4], got 9"#),
    ("/sweep", r#"{"kernel": "crc32"}"#, "unknown_field", "/kernel", r#"unknown field (allowed: kernels, scale, scenario, icache_bytes, tech, synth, isa)"#),
    ("/sweep", r#"{"kernels": "crc32"}"#, "bad_type", "/kernels", r#"expected an array"#),
    ("/sweep", r#"{"kernels": []}"#, "bad_value", "/kernels", r#"kernel list must not be empty"#),
    ("/sweep", r#"{"kernels": [5]}"#, "bad_type", "/kernels/0", r#"expected a string"#),
    ("/sweep", r#"{"kernels": ["crc32", 5]}"#, "bad_type", "/kernels/1", r#"expected a string"#),
    ("/sweep", r#"{"kernels": ["crc32", "nope"]}"#, "bad_value", "/kernels/1", r#"unknown kernel "nope""#),
    ("/sweep", r#"{"kernels": ["crc32", "crc32"]}"#, "bad_value", "/kernels/1", r#"duplicate kernel "crc32""#),
    ("/sweep", r#"{"kernels": ["nope", 5]}"#, "bad_value", "/kernels/0", r#"unknown kernel "nope""#),
    ("/sweep", r#"{"scale": 0}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/sweep", r#"{"scale": "64"}"#, "bad_type", "/scale", r#"expected a number"#),
    ("/sweep", r#"{"scenario": 5}"#, "bad_type", "/scenario", r#"expected a string"#),
    ("/sweep", r#"{"scenario": "nope"}"#, "bad_value", "/scenario", r#"unknown scenario preset "nope" (presets: sa1100 small-embedded modern-node)"#),
    ("/sweep", r#"{"icache_bytes": 16384}"#, "bad_type", "/icache_bytes", r#"expected an array"#),
    ("/sweep", r#"{"icache_bytes": []}"#, "bad_value", "/icache_bytes", r#"expected 1..=8 sizes"#),
    ("/sweep", r#"{"icache_bytes": [256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]}"#, "bad_value", "/icache_bytes", r#"expected 1..=8 sizes"#),
    ("/sweep", r#"{"icache_bytes": [16384, "8k"]}"#, "bad_type", "/icache_bytes/1", r#"expected a number"#),
    ("/sweep", r#"{"icache_bytes": [100]}"#, "bad_value", "/icache_bytes/0", r#"expected an integer byte count in [256, 2^24], got 100"#),
    ("/sweep", r#"{"icache_bytes": [33554432]}"#, "bad_value", "/icache_bytes/0", r#"expected an integer byte count in [256, 2^24], got 33554432"#),
    ("/sweep", r#"{"icache_bytes": [8192.5]}"#, "bad_value", "/icache_bytes/0", r#"expected an integer byte count in [256, 2^24], got 8192.5"#),
    ("/sweep", r#"{"icache_bytes": [1000]}"#, "bad_value", "/icache_bytes", r#"grid point (tech sa1100, icache 1000 B): 1000 bytes not divisible into 32 ways of 32-byte lines"#),
    ("/sweep", r#"{"icache_bytes": [16384, 1000]}"#, "bad_value", "/icache_bytes", r#"grid point (tech sa1100, icache 1000 B): 1000 bytes not divisible into 32 ways of 32-byte lines"#),
    ("/sweep", r#"{"tech": "65nm"}"#, "bad_type", "/tech", r#"expected an array"#),
    ("/sweep", r#"{"tech": []}"#, "bad_value", "/tech", r#"tech list must not be empty"#),
    ("/sweep", r#"{"tech": [65]}"#, "bad_type", "/tech/0", r#"expected a string"#),
    ("/sweep", r#"{"tech": ["sa1100", "3nm"]}"#, "bad_value", "/tech/1", r#"unknown tech node "3nm" (nodes: sa1100 65nm)"#),
    ("/sweep", r#"{"synth": {"max_dict_bits": -1}}"#, "bad_value", "/synth/max_dict_bits", r#"expected an integer in [0, 12], got -1"#),
    ("/sweep", r#"{"isa": 1}"#, "bad_type", "/isa", r#"expected a string"#),
    ("/sweep", r#"{"kernels": [], "scale": 0}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/sweep", r#"{"scale": 0, "kernels": [5]}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/sweep", r#"{"icache_bytes": [], "tech": 5}"#, "bad_value", "/icache_bytes", r#"expected 1..=8 sizes"#),
    ("/sweep", r#"{"icache_bytes": ["x", 100]}"#, "bad_type", "/icache_bytes/0", r#"expected a number"#),
    ("/sweep", r#"{"tech": ["3nm", 5]}"#, "bad_value", "/tech/0", r#"unknown tech node "3nm" (nodes: sa1100 65nm)"#),
    ("/sweep", r#"{"scenario": "nope", "icache_bytes": []}"#, "bad_value", "/scenario", r#"unknown scenario preset "nope" (presets: sa1100 small-embedded modern-node)"#),
    ("/sweep", r#"{"kernels": ["crc32"], "tech": ["3nm"], "synth": 5}"#, "bad_value", "/tech/0", r#"unknown tech node "3nm" (nodes: sa1100 65nm)"#),
    ("/synthesize-multi", r#"{}"#, "missing_field", "/kernels", r#"a kernel list is required"#),
    ("/synthesize-multi", r#"{"kernels": "crc32"}"#, "bad_type", "/kernels", r#"expected an array"#),
    ("/synthesize-multi", r#"{"kernels": []}"#, "bad_value", "/kernels", r#"kernel list must not be empty"#),
    ("/synthesize-multi", r#"{"kernels": [5]}"#, "bad_type", "/kernels/0", r#"expected a string"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "nope"]}"#, "bad_value", "/kernels/1", r#"unknown kernel "nope""#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "crc32"]}"#, "bad_value", "/kernels/1", r#"duplicate kernel "crc32""#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "weight": [1]}"#, "unknown_field", "/weight", r#"unknown field (allowed: kernels, weights, scale, epsilon, synth, isa)"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": 1}"#, "bad_type", "/weights", r#"expected an array"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [1]}"#, "bad_value", "/weights", r#"1 weights for 2 kernels"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [1, "x"]}"#, "bad_type", "/weights/1", r#"expected a number"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha", "fft"], "weights": [1, 2, true]}"#, "bad_type", "/weights/2", r#"expected a number"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [0, 0]}"#, "bad_value", "/weights", r#"all weights are zero"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [1, -1]}"#, "bad_value", "/weights", r#"weight 1 is negative"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [1, 1e12]}"#, "bad_value", "/weights", r#"weight 1 exceeds 1e9 times the smallest positive weight"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "epsilon": "1"}"#, "bad_type", "/epsilon", r#"expected a number"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "epsilon": 200}"#, "bad_value", "/epsilon", r#"expected a number in [-1, 100], got 200"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "epsilon": -2}"#, "bad_value", "/epsilon", r#"expected a number in [-1, 100], got -2"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "scale": 0}"#, "bad_value", "/scale", r#"expected an integer in [1, 4096], got 0"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "synth": {"space_budget": 2}}"#, "bad_value", "/synth/space_budget", r#"expected a fraction in (0, 1], got 2"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "isa": {}}"#, "bad_type", "/isa", r#"expected a string"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "isa": "isa broken {"}"#, "bad_value", "/isa", r#"ISA spec rejected: spec:1:12: expected an item or `}`, found end of spec"#),
    ("/synthesize-multi", r#"{"kernels": ["nope", 5]}"#, "bad_value", "/kernels/0", r#"unknown kernel "nope""#),
    ("/synthesize-multi", r#"{"kernels": [], "bogus": 1}"#, "unknown_field", "/bogus", r#"unknown field (allowed: kernels, weights, scale, epsilon, synth, isa)"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [1, "x", "y"]}"#, "bad_value", "/weights", r#"3 weights for 2 kernels"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": ["x", -1]}"#, "bad_type", "/weights/0", r#"expected a number"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "epsilon": 200, "scale": 0}"#, "bad_value", "/epsilon", r#"expected a number in [-1, 100], got 200"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32"], "scale": 0, "epsilon": 200}"#, "bad_value", "/epsilon", r#"expected a number in [-1, 100], got 200"#),
    ("/synthesize-multi", r#"{"kernels": ["crc32", "sha"], "weights": [0, 0], "epsilon": "x"}"#, "bad_value", "/weights", r#"all weights are zero"#),
    ("/synthesize-multi", r#"{"weights": [1], "kernels": 5}"#, "bad_type", "/kernels", r#"expected an array"#),
];

/// The 400 body, spelled out independently of `ApiError::body`.
fn expected_body(code: &str, pointer: &str, message: &str) -> String {
    format!(
        "{{\n  \"schema\": \"powerfits-serve-v1\",\n  \"endpoint\": \"error\",\n  \
         \"error\": {{\"code\": \"{}\", \"pointer\": \"{}\", \"message\": \"{}\"}}\n}}\n",
        escape(code),
        escape(pointer),
        escape(message)
    )
}

fn check(target: &str, body: &str, code: &'static str, pointer: &str, message: &str) {
    let err = match PostRequest::from_target(target, body) {
        Ok(_) => panic!("{target} accepted {body}"),
        Err(e) => e,
    };
    let want = ApiError {
        code,
        pointer: pointer.to_string(),
        message: message.to_string(),
    };
    assert_eq!(err, want, "{target} {body}");
    assert_eq!(
        err.body(),
        expected_body(code, pointer, message),
        "{target} {body}"
    );
}

#[test]
fn every_rejection_keeps_its_exact_400_body() {
    for &(target, body, code, pointer, message) in CORPUS {
        check(target, body, code, pointer, message);
    }
}

#[test]
fn isa_documents_rejected_by_width_and_lint_keep_their_400_body() {
    let body = |text: &str| format!("{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}", escape(text));
    check(
        "/synthesize",
        &body(T16_SPEC_TEXT),
        "bad_value",
        "/isa",
        "only a 32-bit (AR32-shaped) spec can replace the execution ISA, got word-width 16",
    );
    check(
        "/synthesize",
        &body(&AR32_SPEC_TEXT.replace("form swi", "form swj")),
        "bad_value",
        "/isa",
        "ISA spec fails validation (ISA004): spec does not compile into a decode engine: \
         spec:75:8: unknown AR32 form `swj`",
    );
}
