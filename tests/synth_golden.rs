//! Golden synthesis digests: for every kernel under the three synthesis
//! presets of `isa_spec_differential.rs`, a 64-bit FNV-1a digest over the
//! synthesized `DecoderConfig`, the translated binary's final
//! `DecoderConfig` (with translator-appended dictionary entries) and its
//! FITS text words must equal the pinned value. Any change to the greedy
//! upgrade loop, its cost sums or its tie-breaking shows up here as a
//! changed digest, before it can reach a figure.
//!
//! Two more tables pin what that digest leaves out: the synthesis report
//! (upgrade count, opcode space spent, the bits of the predicted expansion)
//! with the flow's round count under the same three presets, and the
//! `fitspareto` grid presets the first table lacks (budgets 0.7 and 0.45 ×
//! dictionary widths 4, 6 and 8), where a rejected preset is pinned by its
//! error text.

#![allow(clippy::unwrap_used)]

use powerfits::core::{FitsFlow, FlowError, FlowOutcome, SynthOptions};
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn run(kernel: Kernel, options: SynthOptions) -> Result<FlowOutcome, FlowError> {
    let program = kernel.compile(Scale::test()).expect("kernel compiles");
    let flow = FitsFlow {
        options,
        ..FitsFlow::default()
    };
    flow.run(&program)
}

fn digest(kernel: Kernel, options: SynthOptions) -> u64 {
    output_digest(FNV_OFFSET, &run(kernel, options).expect("flow accepts"))
}

/// Folds the synthesized and final configurations and the FITS text.
fn output_digest(mut h: u64, outcome: &FlowOutcome) -> u64 {
    h = fnv1a(h, format!("{:?}", outcome.synthesis.config).as_bytes());
    h = fnv1a(h, format!("{:?}", outcome.fits.config).as_bytes());
    for word in &outcome.fits.instrs {
        h = fnv1a(h, &word.to_le_bytes());
    }
    h
}

/// Folds the synthesis report and the number of synthesize/translate
/// rounds the flow ran.
fn report_digest(mut h: u64, outcome: &FlowOutcome) -> u64 {
    let report = &outcome.synthesis.report;
    h = fnv1a(h, &(report.upgrades as u64).to_le_bytes());
    h = fnv1a(h, &report.space_used.to_le_bytes());
    h = fnv1a(h, &report.predicted_expansion.to_bits().to_le_bytes());
    fnv1a(h, &(outcome.iterations as u64).to_le_bytes())
}

/// The `fitspareto` grid points missing from [`presets`]: budgets 0.7 and
/// 0.45 × dictionary widths 4, 6 and 8, in grid order.
fn grid_presets() -> [SynthOptions; 6] {
    [
        (0.7, 4),
        (0.7, 6),
        (0.7, 8),
        (0.45, 4),
        (0.45, 6),
        (0.45, 8),
    ]
    .map(|(space_budget, max_dict_bits)| SynthOptions {
        space_budget,
        max_dict_bits,
        ..SynthOptions::default()
    })
}

/// A grid point's pinned result: the output and report digests of an
/// accepted flow, or the text of the error that rejected it.
fn grid_result(kernel: Kernel, options: SynthOptions) -> String {
    match run(kernel, options) {
        Ok(outcome) => format!(
            "{:#018x}",
            report_digest(output_digest(FNV_OFFSET, &outcome), &outcome)
        ),
        Err(e) => e.to_string(),
    }
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

/// `(kernel, [default, toggle-blind, tight-budget])` report digests.
const REPORT_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "bitcount",
        [0x06a2e5831ccb30bb, 0x06a2e5831ccb30bb, 0xdb372b22ed667063],
    ),
    (
        "qsort",
        [0xf3656fb73e87512a, 0xf3656fb73e87512a, 0x2a2c2b43c11504d2],
    ),
    (
        "susan.smoothing",
        [0x0d53795d166f5ff4, 0x0d53795d166f5ff4, 0xe7e7ac0f28cfd643],
    ),
    (
        "susan.edges",
        [0x83bbae1d6de03d1a, 0x83bbae1d6de03d1a, 0x3d0edc9accfd6cd2],
    ),
    (
        "susan.corners",
        [0x72553b6f8dfea4f8, 0x72553b6f8dfea4f8, 0x01353c185d07bf41],
    ),
    (
        "jpeg.dct",
        [0xf2304047ebc6ce38, 0xf2304047ebc6ce38, 0x77ecf3cdbbd428f3],
    ),
    (
        "lame.filter",
        [0xe8c949310082edbe, 0xe8c949310082edbe, 0x38d4989b3c25652f],
    ),
    (
        "dijkstra",
        [0xcce838bb9635dd13, 0xcce838bb9635dd13, 0xd18ceef70b10515b],
    ),
    (
        "patricia",
        [0xe547d954ba5480cb, 0xe547d954ba5480cb, 0x99fb9532f47e5145],
    ),
    (
        "stringsearch",
        [0xa2f3c315e22b8873, 0xa2f3c315e22b8873, 0xe5b8846720592c3d],
    ),
    (
        "ispell",
        [0x216c27727c825ffd, 0x216c27727c825ffd, 0x66c561302aa82de0],
    ),
    (
        "blowfish.enc",
        [0xf241c4a8b21bd484, 0xf241c4a8b21bd484, 0xb1da55735d0127eb],
    ),
    (
        "blowfish.dec",
        [0x78059c7cfd4f0fa8, 0x78059c7cfd4f0fa8, 0xf5f1de70d76398d3],
    ),
    (
        "rijndael.enc",
        [0x0b13f12c304f1992, 0x0b13f12c304f1992, 0x7101dcc900ee1c07],
    ),
    (
        "rijndael.dec",
        [0x0b13f12c304f1992, 0x0b13f12c304f1992, 0x7101dcc900ee1c07],
    ),
    (
        "sha",
        [0x3cd815653429279e, 0x3cd815653429279e, 0x7b8ec496c2d9380c],
    ),
    (
        "adpcm.enc",
        [0x1c81c612d633dd8c, 0x1c81c612d633dd8c, 0x32ed76135490a8f6],
    ),
    (
        "adpcm.dec",
        [0xdc0236d1a4049034, 0xdc0236d1a4049034, 0x178a77bdb23054f9],
    ),
    (
        "crc32",
        [0xc10ac3df95ff40d1, 0xc10ac3df95ff40d1, 0x0f29d78769567113],
    ),
    (
        "fft",
        [0x4877f5768bf85364, 0x4877f5768bf85364, 0x2f45f204965063af],
    ),
    (
        "gsm",
        [0x5adfac87b0071fdf, 0x5adfac87b0071fdf, 0x0e298e3c51fd723e],
    ),
];

#[test]
fn synthesis_reports_match_golden() {
    let mut actual = Vec::new();
    for &kernel in Kernel::ALL.iter() {
        let digests = presets()
            .map(|options| report_digest(FNV_OFFSET, &run(kernel, options).expect("flow accepts")));
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
    let golden: Vec<(String, [u64; 3])> = REPORT_GOLDEN
        .iter()
        .map(|(name, d)| ((*name).to_string(), *d))
        .collect();
    assert_eq!(
        actual, golden,
        "synthesis report changed; the current table is:\n{table}"
    );
}

/// `(kernel, [b070-d4, b070-d6, b070-d8, b045-d4, b045-d6, b045-d8])`:
/// a digest of an accepted flow's output and report, or the rejection text.
const GRID_GOLDEN: &[(&str, [&str; 6])] = &[
    (
        "bitcount",
        [
            "0xc1060ca17ae57d2f",
            "0x7af8418fdfa9d62f",
            "0x7af8418fdfa9d62f",
            "mapping rate 0.840 below floor 0.850 after all iterations",
            "mapping rate 0.840 below floor 0.850 after all iterations",
            "mapping rate 0.840 below floor 0.850 after all iterations",
        ],
    ),
    (
        "qsort",
        [
            "0x566ce962563b8e94",
            "0x72c69fd740e64648",
            "0x72c69fd740e64648",
            "0xe24da9f4789fb2b2",
            "0x0e7311572c6c56a1",
            "0x0e7311572c6c56a1",
        ],
    ),
    (
        "susan.smoothing",
        [
            "0xef5f90c7f1a22768",
            "0x999e44ebb61e28af",
            "0x999e44ebb61e28af",
            "mapping rate 0.837 below floor 0.850 after all iterations",
            "mapping rate 0.837 below floor 0.850 after all iterations",
            "mapping rate 0.837 below floor 0.850 after all iterations",
        ],
    ),
    (
        "susan.edges",
        [
            "0xb66b13d74b822a26",
            "0xd35640182ed56552",
            "0xd35640182ed56552",
            "0x220d2d1d323f58d2",
            "0xfacfc1d5718f0132",
            "0xfacfc1d5718f0132",
        ],
    ),
    (
        "susan.corners",
        [
            "0xb80b59cb2a12d23d",
            "0x8b1898a14d94dd71",
            "0x8b1898a14d94dd71",
            "0xbf77bd81f913d6d7",
            "0x76a7fca6bb629977",
            "0x76a7fca6bb629977",
        ],
    ),
    (
        "jpeg.dct",
        [
            "0x7c49e3a8696b859e",
            "0x902923b3e1a6a235",
            "0x902923b3e1a6a235",
            "mapping rate 0.722 below floor 0.850 after all iterations",
            "mapping rate 0.722 below floor 0.850 after all iterations",
            "mapping rate 0.722 below floor 0.850 after all iterations",
        ],
    ),
    (
        "lame.filter",
        [
            "0x0e87cda131ec17d8",
            "0x0e87cda131ec17d8",
            "0x0e87cda131ec17d8",
            "mapping rate 0.751 below floor 0.850 after all iterations",
            "mapping rate 0.751 below floor 0.850 after all iterations",
            "mapping rate 0.751 below floor 0.850 after all iterations",
        ],
    ),
    (
        "dijkstra",
        [
            "0xf0505dc2b8f67507",
            "0x1caf64b123ed1cd0",
            "0x1caf64b123ed1cd0",
            "0x2feb067f3a3339a0",
            "0x4ab8dcc77dcec729",
            "0x4ab8dcc77dcec729",
        ],
    ),
    (
        "patricia",
        [
            "0x87c5174e4aad51fd",
            "0xe03791e5abbf057b",
            "0xe03791e5abbf057b",
            "0xa7d1047fd3cb579b",
            "0xdfef89716a6a5202",
            "0xdfef89716a6a5202",
        ],
    ),
    (
        "stringsearch",
        [
            "0xb242916e103384f8",
            "0x6ee7333cd0402222",
            "0x6ee7333cd0402222",
            "0x5a2f3e019f71e305",
            "0x5969da1c7c382c1f",
            "0x5969da1c7c382c1f",
        ],
    ),
    (
        "ispell",
        [
            "0x573988010b117587",
            "0x7175a0c2e3d89d2d",
            "0x7175a0c2e3d89d2d",
            "0xceacc620fd2ff2e0",
            "0x0bdcbc86284668a2",
            "0x0bdcbc86284668a2",
        ],
    ),
    (
        "blowfish.enc",
        [
            "0xec0fcb26cd21353f",
            "0xa78fc6e683b6e6e9",
            "0xa78fc6e683b6e6e9",
            "0x74fd2d0b639db55c",
            "0xecfb8b8c739cedeb",
            "0xecfb8b8c739cedeb",
        ],
    ),
    (
        "blowfish.dec",
        [
            "0x68d77e60607c1660",
            "0xb87c0cc589287363",
            "0xb87c0cc589287363",
            "0x50b8fd979cbdb93e",
            "0xffd76b5e2a32d136",
            "0xffd76b5e2a32d136",
        ],
    ),
    (
        "rijndael.enc",
        [
            "0x97feca2736f07fc4",
            "0xfb6353f5c68e1741",
            "0xfb6353f5c68e1741",
            "0x5434d11a503d7a1b",
            "0x0dd8a0babf3c3eb5",
            "0x0dd8a0babf3c3eb5",
        ],
    ),
    (
        "rijndael.dec",
        [
            "0x472c872fb01baae0",
            "0x08a9a0fc1c34254d",
            "0x08a9a0fc1c34254d",
            "0x88e8e0fbadc79929",
            "0x3ddb2ce261c59ee3",
            "0x3ddb2ce261c59ee3",
        ],
    ),
    (
        "sha",
        [
            "0xfad483ced3896ffe",
            "0x2c3d36df3b2d9e39",
            "0x2c3d36df3b2d9e39",
            "0xdbf6a47dbdf2a956",
            "0x77706124a2057e49",
            "0x77706124a2057e49",
        ],
    ),
    (
        "adpcm.enc",
        [
            "0x0088660d90beda68",
            "0x7a23a3ccebe5770d",
            "0x7a23a3ccebe5770d",
            "mapping rate 0.824 below floor 0.850 after all iterations",
            "mapping rate 0.824 below floor 0.850 after all iterations",
            "mapping rate 0.824 below floor 0.850 after all iterations",
        ],
    ),
    (
        "adpcm.dec",
        [
            "0x493840c02b3bf836",
            "0xb9dc8b05199e6372",
            "0xb9dc8b05199e6372",
            "mapping rate 0.791 below floor 0.850 after all iterations",
            "mapping rate 0.791 below floor 0.850 after all iterations",
            "mapping rate 0.791 below floor 0.850 after all iterations",
        ],
    ),
    (
        "crc32",
        [
            "0x200546117f33352a",
            "0x8ba35483c9c2a4e4",
            "0x8ba35483c9c2a4e4",
            "0x3c35ea8e87b503ee",
            "0xd079e0e73d60bdbf",
            "0xd079e0e73d60bdbf",
        ],
    ),
    (
        "fft",
        [
            "0xebc77be7548eab1a",
            "0xdee4f0d2f40702a6",
            "0xdee4f0d2f40702a6",
            "mapping rate 0.734 below floor 0.850 after all iterations",
            "mapping rate 0.734 below floor 0.850 after all iterations",
            "mapping rate 0.734 below floor 0.850 after all iterations",
        ],
    ),
    (
        "gsm",
        [
            "0x2e6a8e730a10f231",
            "0xf779c7f03a93a66d",
            "0xf779c7f03a93a66d",
            "mapping rate 0.743 below floor 0.850 after all iterations",
            "mapping rate 0.743 below floor 0.850 after all iterations",
            "mapping rate 0.743 below floor 0.850 after all iterations",
        ],
    ),
];

#[test]
fn pareto_grid_presets_match_golden() {
    let mut actual = Vec::new();
    for &kernel in Kernel::ALL.iter() {
        let results = grid_presets().map(|options| grid_result(kernel, options));
        actual.push((kernel.to_string(), results));
    }
    let table: String = actual
        .iter()
        .map(|(name, r)| format!("    (\"{name}\", {r:?}),\n"))
        .collect();
    let golden: Vec<(String, [String; 6])> = GRID_GOLDEN
        .iter()
        .map(|(name, r)| ((*name).to_string(), r.map(str::to_string)))
        .collect();
    assert_eq!(
        actual, golden,
        "grid preset results changed; the current table is:\n{table}"
    );
}
