//! Dictionary widening, the flows' retry when a translation falls short:
//! no synthesis candidate asks for an index wider than
//! `WIDEST_DICT_BITS`, so every wider `max_dict_bits` synthesizes what
//! that width does, and widening stops there instead of re-running
//! identical synthesize + translate rounds.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use powerfits::core::{
    profile, synthesize, FitsFlow, FlowError, FlowObserver, FlowStage, SynthOptions,
    WIDEST_DICT_BITS,
};
use powerfits::kernels::kernels::{Kernel, Scale};

/// Counts synthesis rounds.
#[derive(Default)]
struct Rounds(AtomicUsize);

impl FlowObserver for Rounds {
    fn stage(&self, stage: FlowStage, _wall: Duration) {
        if stage == FlowStage::Synthesize {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Synthesis rounds of a flow whose mapping floor no translation reaches.
fn rounds_to_reject(max_dict_bits: u8) -> usize {
    let program = Kernel::Crc32.compile(Scale::test()).unwrap();
    let rounds = Arc::new(Rounds::default());
    let flow = FitsFlow {
        options: SynthOptions {
            max_dict_bits,
            ..SynthOptions::default()
        },
        min_static_rate: 1.5,
        ..FitsFlow::default()
    }
    .with_observer(rounds.clone());
    let err = flow.run(&program).unwrap_err();
    assert!(
        matches!(err, FlowError::RequirementsNotMet { .. }),
        "unexpected error: {err}"
    );
    rounds.0.load(Ordering::Relaxed)
}

#[test]
fn widening_stops_at_the_widest_candidate_width() {
    let default_bits = SynthOptions::default().max_dict_bits;
    assert_eq!(default_bits, WIDEST_DICT_BITS);
    assert_eq!(rounds_to_reject(default_bits), 1, "nothing left to widen");
    assert_eq!(rounds_to_reject(8), 1, "already past the widest width");
    assert_eq!(rounds_to_reject(WIDEST_DICT_BITS - 1), 2);
    assert_eq!(rounds_to_reject(4), 3, "4, 5 and 6 bits");
}

#[test]
fn widths_past_the_widest_synthesize_alike() {
    for &kernel in Kernel::ALL.iter() {
        let prof = profile(&kernel.compile(Scale::test()).unwrap()).unwrap();
        for space_budget in [1.0, 0.7, 0.45] {
            let at = |max_dict_bits| {
                synthesize(
                    &prof,
                    &SynthOptions {
                        space_budget,
                        max_dict_bits,
                        ..SynthOptions::default()
                    },
                )
            };
            let widest = at(WIDEST_DICT_BITS);
            for bits in [WIDEST_DICT_BITS + 1, 8, 12] {
                let wider = at(bits);
                let what = format!("{kernel} b{space_budget} d{bits}");
                assert_eq!(wider.config, widest.config, "{what}: config");
                assert_eq!(wider.report.upgrades, widest.report.upgrades, "{what}");
                assert_eq!(
                    wider.report.predicted_expansion.to_bits(),
                    widest.report.predicted_expansion.to_bits(),
                    "{what}: predicted expansion"
                );
            }
        }
    }
}
