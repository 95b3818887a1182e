//! Golden synthesis digests: for every kernel under the three synthesis
//! presets of `isa_spec_differential.rs`, a 64-bit FNV-1a digest over the
//! synthesized `DecoderConfig`, the translated binary's final
//! `DecoderConfig` (with translator-appended dictionary entries) and its
//! FITS text words must equal the pinned value. Any change to the greedy
//! upgrade loop, its cost sums or its tie-breaking shows up here as a
//! changed digest, before it can reach a figure.

#![allow(clippy::unwrap_used)]

use powerfits::core::{FitsFlow, SynthOptions};
use powerfits::kernels::kernels::{Kernel, Scale};

/// The three synthesis presets the flow-level spec differential runs
/// under (default, toggle-blind, and a tight dictionary/space budget).
fn presets() -> [SynthOptions; 3] {
    [
        SynthOptions::default(),
        SynthOptions {
            toggle_aware: false,
            ..SynthOptions::default()
        },
        SynthOptions {
            max_dict_bits: 4,
            space_budget: 0.9,
            ..SynthOptions::default()
        },
    ]
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(kernel: Kernel, options: SynthOptions) -> u64 {
    let program = kernel.compile(Scale::test()).expect("kernel compiles");
    let flow = FitsFlow {
        options,
        ..FitsFlow::default()
    };
    let outcome = flow.run(&program).expect("flow accepts");
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, format!("{:?}", outcome.synthesis.config).as_bytes());
    h = fnv1a(h, format!("{:?}", outcome.fits.config).as_bytes());
    for word in &outcome.fits.instrs {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h
}

/// `(kernel, [default, toggle-blind, tight-budget])` digests.
const GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "bitcount",
        [0x287c9943c3f1320f, 0xc5178846a8dfacfb, 0xf7c5b57071818b39],
    ),
    (
        "qsort",
        [0x1f53db31031a26ef, 0x96b3254dc304a5ba, 0x5adb474b7e5874aa],
    ),
    (
        "susan.smoothing",
        [0xab0451c9efa84377, 0x0bf9aa45ccd1e019, 0xb272ebab0d331c21],
    ),
    (
        "susan.edges",
        [0x4d2ca326ada7e453, 0xa4d71ccf5d8f98b9, 0x50dbec2a13f0892e],
    ),
    (
        "susan.corners",
        [0x5d097041c688a126, 0x6a6919b03d1fcfaf, 0x05eafb03537802de],
    ),
    (
        "jpeg.dct",
        [0xd511610f47955222, 0x72c5386cde386569, 0xfedcaf8b99e5e262],
    ),
    (
        "lame.filter",
        [0x16f5d145705477e4, 0x1db91c7ed0910109, 0x02f3462e4853a437],
    ),
    (
        "dijkstra",
        [0x223d2b9b705c948a, 0x4c3be93cca189f5d, 0x6566d532e4b117a1],
    ),
    (
        "patricia",
        [0x812c974be57dd6f5, 0x01d6bb3c067963fa, 0x9a8c0e7b9f250f9d],
    ),
    (
        "stringsearch",
        [0xf5258d08f2599d5a, 0x81386afcf8d99c9a, 0xf5258d08f2599d5a],
    ),
    (
        "ispell",
        [0xf3fc13962961d855, 0x348d7f75c184f176, 0x1d239d58faa9a714],
    ),
    (
        "blowfish.enc",
        [0x11d62a3662cb9951, 0x61819b40ce0fd638, 0x9e508b04cc1cb5c3],
    ),
    (
        "blowfish.dec",
        [0x95c7486cd9238f76, 0xcb1fce23a2f8ac02, 0xd13b7d04a6338670],
    ),
    (
        "rijndael.enc",
        [0xb9733c790296ccfa, 0xfc8d779489b49e60, 0xed82a0940896866a],
    ),
    (
        "rijndael.dec",
        [0xe77ce89ce783aa24, 0x52e0da1d6c7697ea, 0x72e61b28610a89b0],
    ),
    (
        "sha",
        [0x4c421eef7fa53207, 0xc4a9bd4ed4911e1c, 0x63b9f59d2815676f],
    ),
    (
        "adpcm.enc",
        [0x2fa22546b979371e, 0xebc97c295d2dc19a, 0xb85c0af7ae56d015],
    ),
    (
        "adpcm.dec",
        [0x8272b154102565ce, 0xf2383a27166455bc, 0x2515061a77a4864c],
    ),
    (
        "crc32",
        [0x9219a1544b7ca7e0, 0x59daf53c7ff6fca4, 0x77ef8599016da3e4],
    ),
    (
        "fft",
        [0x1742fae2e1168849, 0x2ef47a781a81610d, 0x8739a157ec63cfdb],
    ),
    (
        "gsm",
        [0xeb530cc7816524bb, 0x428bcac7c1191c72, 0xd8c7d685165956f8],
    ),
];

#[test]
fn synthesis_digests_match_golden() {
    let mut actual = Vec::new();
    for &kernel in Kernel::ALL.iter() {
        let digests = presets().map(|options| digest(kernel, options));
        actual.push((kernel.to_string(), digests));
    }
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2]
            )
        })
        .collect();
    let golden: Vec<(String, [u64; 3])> = GOLDEN
        .iter()
        .map(|(name, d)| ((*name).to_string(), *d))
        .collect();
    assert_eq!(
        actual, golden,
        "synthesis output changed; the current table is:\n{table}"
    );
}
