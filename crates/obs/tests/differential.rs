//! The observability contract, enforced differentially: enabling trace
//! collection NEVER changes simulation results.
//!
//! Two layers of evidence:
//!
//! * end-to-end, real programs: for a grid of kernels × ISAs × I-cache
//!   sizes, [`trace_timed_run`]'s `(RunOutput, SimResult)` must be
//!   bit-identical to the interpreted oracle [`Machine::run_timed`], and
//!   the compiled replay's cache events and retire counts must match the
//!   oracle's, collected here from `run_observed` + `observe_with`;
//! * property-style, synthetic streams: for seeded random [`StepInfo`]
//!   streams (valid or not as real programs), `TimingModel::observe` and
//!   `observe_with(.., collector)` must accumulate identical results, and
//!   the collector's totals must agree with the model's counters.

#![allow(clippy::unwrap_used)]

use fits_core::FitsFlow;
use fits_isa::{InstrClass, Program, Reg, TEXT_BASE};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::trace::CacheEvents;
use fits_obs::{trace_timed_run, PcHistogram};
use fits_rng::StdRng;
use fits_sim::{
    Ar32Set, BranchOutcome, Machine, MemAccess, RunOutput, Sa1100Config, SimResult, StepInfo,
    TimingModel,
};

fn configs() -> [Sa1100Config; 2] {
    [Sa1100Config::icache_16k(), Sa1100Config::icache_8k()]
}

#[test]
fn tracing_is_invisible_to_arm_runs() {
    for kernel in [Kernel::Crc32, Kernel::Bitcount, Kernel::AdpcmEnc] {
        let program = kernel.compile(Scale::test()).unwrap();
        for cfg in configs() {
            let (ref_out, ref_sim) = Machine::new(Ar32Set::load(&program))
                .run_timed(&cfg)
                .unwrap();
            let (out, sim, trace) =
                trace_timed_run(&mut Machine::new(Ar32Set::load(&program)), &cfg).unwrap();
            assert_eq!(out, ref_out, "{kernel:?}: RunOutput must be bit-identical");
            assert_eq!(sim, ref_sim, "{kernel:?}: SimResult must be bit-identical");
            assert_eq!(trace.retired(), sim.retired);
        }
    }
}

#[test]
fn tracing_is_invisible_to_fits_runs() {
    for kernel in [Kernel::Crc32, Kernel::Sha] {
        let program = kernel.compile(Scale::test()).unwrap();
        let flow = FitsFlow::new().run(&program).unwrap();
        for cfg in configs() {
            let load = || fits_core::FitsSet::load(&flow.fits).unwrap();
            let (ref_out, ref_sim) = Machine::new(load()).run_timed(&cfg).unwrap();
            let (out, sim, trace) = trace_timed_run(&mut Machine::new(load()), &cfg).unwrap();
            assert_eq!(out, ref_out, "{kernel:?}: RunOutput must be bit-identical");
            assert_eq!(sim, ref_sim, "{kernel:?}: SimResult must be bit-identical");
            assert_eq!(
                trace.cache.fetches.total(),
                sim.icache.accesses,
                "{kernel:?}: every I-cache access produced exactly one event"
            );
            // The FITS trace strides at 2 bytes; every retired PC must land
            // in the histogram, none in the stray bucket.
            assert_eq!(trace.retires.stray(), 0);
        }
    }
}

/// The interpreted oracle's traced run: `run_observed` feeding
/// [`TimingModel::observe_with`] with a [`CacheEvents`] collector, plus the
/// retire count of every stepped PC.
fn interpreted_trace(
    program: &Program,
    cfg: &Sa1100Config,
) -> (RunOutput, SimResult, PcHistogram, CacheEvents) {
    let mut timing = TimingModel::new(cfg).unwrap();
    let mut retires = PcHistogram::new(TEXT_BASE, 4);
    let mut events = CacheEvents::new(cfg);
    let out = Machine::new(Ar32Set::load(program))
        .run_observed(|_, info| {
            retires.record(info.pc);
            timing.observe_with(info, &mut events);
        })
        .unwrap();
    let sim = timing.finish_with(&mut events);
    (out, sim, retires, events)
}

/// The compiled-replay path must be just as invisible as the interpreted
/// one: replaying a recorded trace with a [`CacheEvents`] observer attached
/// (`RecordedTrace::price_with`) must produce the same `SimResult` **and**
/// the same event stream as the interpreted oracle's collection, and
/// [`trace_timed_run`] must report the oracle's retire counts and events.
#[test]
fn compiled_replay_events_match_interpreted_trace() {
    for kernel in [Kernel::Crc32, Kernel::Bitcount] {
        let program = kernel.compile(Scale::test()).unwrap();
        for cfg in configs() {
            let (ref_out, ref_sim, ref_retires, ref_events) = interpreted_trace(&program, &cfg);

            let set = Ar32Set::load(&program);
            let compiled = fits_sim::CompiledProgram::compile(&set).unwrap();
            let trace = Machine::new(Ar32Set::load(&program))
                .run_recorded(&compiled)
                .unwrap();
            let mut events = CacheEvents::new(&cfg);
            let sim = trace.price_with(&compiled, &cfg, &mut events).unwrap();

            assert_eq!(trace.output, ref_out, "{kernel:?}: RunOutput diverged");
            assert_eq!(sim, ref_sim, "{kernel:?}: SimResult diverged");
            let (_, _, traced) =
                trace_timed_run(&mut Machine::new(Ar32Set::load(&program)), &cfg).unwrap();
            assert_eq!(
                traced.retires.iter().collect::<Vec<_>>(),
                ref_retires.iter().collect::<Vec<_>>(),
                "{kernel:?}: per-PC retire counts diverged"
            );
            for events in [&events, &traced.cache] {
                assert_eq!(
                    events.fetches.iter().collect::<Vec<_>>(),
                    ref_events.fetches.iter().collect::<Vec<_>>(),
                    "{kernel:?}: per-word fetch events diverged"
                );
                assert_eq!(events.fetches.stray(), ref_events.fetches.stray());
                assert_eq!(
                    events.icache_sets.sets(),
                    ref_events.icache_sets.sets(),
                    "{kernel:?}: per-set I-cache events diverged"
                );
                assert_eq!(
                    events.dcache, ref_events.dcache,
                    "{kernel:?}: D-cache totals diverged"
                );
            }
        }
    }
}

/// A random but plausible retired-instruction record. Values need not form
/// a runnable program — the timing model only folds them into counters —
/// which lets the property cover states real kernels rarely reach
/// (unexecuted predicated memory ops, dense branch runs, stores to the
/// text range).
fn random_step(rng: &mut StdRng, pc: u32) -> StepInfo {
    let class = match rng.gen_range(0..10u32) {
        0..=5 => InstrClass::Operate,
        6..=7 => InstrClass::Memory,
        8 => InstrClass::Branch,
        _ => InstrClass::Trap,
    };
    let executed = rng.gen_range(0..10u32) != 0;
    let mem = (class == InstrClass::Memory && executed).then(|| MemAccess {
        addr: rng.gen_range(0u32..0x1_0000) & !3,
        size: 4,
        is_load: rng.gen_range(0..2u32) == 0,
        data: rng.gen(),
    });
    let branch = (class == InstrClass::Branch && executed).then(|| BranchOutcome {
        taken: rng.gen_range(0..2u32) == 0,
        backward: rng.gen_range(0..2u32) == 0,
    });
    let reg = |r: &mut StdRng| Some(Reg::new(r.gen_range(0..13u32) as u8));
    StepInfo {
        pc,
        size: 4,
        fetch_word_addr: pc & !3,
        fetch_word_value: rng.gen(),
        class,
        reg_reads: rng.gen_range(0..3u32),
        reg_writes: rng.gen_range(0..2u32),
        executed,
        mem,
        branch,
        is_mul: class == InstrClass::Operate && rng.gen_range(0..8u32) == 0,
        dests: [reg(rng), None],
        sources: [reg(rng), reg(rng), None],
        sets_flags: rng.gen_range(0..4u32) == 0,
        reads_flags: rng.gen_range(0..4u32) == 0,
    }
}

/// Drives one random stream through an untraced and a traced model and
/// returns both results plus the collector.
fn run_property_stream(seed: u64, steps: usize) -> (SimResult, SimResult, CacheEvents) {
    let cfg = if seed.is_multiple_of(2) {
        Sa1100Config::icache_16k()
    } else {
        Sa1100Config::icache_8k()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pc = TEXT_BASE;
    let stream: Vec<StepInfo> = (0..steps)
        .map(|_| {
            let info = random_step(&mut rng, pc);
            // Mostly sequential, with occasional jumps (taken branches).
            pc = if info.branch.is_some_and(|b| b.taken) {
                TEXT_BASE + rng.gen_range(0u32..4096) * 4
            } else {
                pc.wrapping_add(4)
            };
            info
        })
        .collect();

    let mut plain = TimingModel::new(&cfg).unwrap();
    let mut traced = TimingModel::new(&cfg).unwrap();
    let mut collector = CacheEvents::new(&cfg);
    for info in &stream {
        plain.observe(info);
        traced.observe_with(info, &mut collector);
    }
    (
        plain.finish(),
        traced.finish_with(&mut collector),
        collector,
    )
}

#[test]
fn property_observed_streams_match_unobserved() {
    for seed in 0..32u64 {
        let steps = 200 + (seed as usize) * 37 % 800;
        let (plain, traced, collector) = run_property_stream(seed, steps);
        assert_eq!(
            plain, traced,
            "seed {seed}: observer must not perturb the timing model"
        );
        assert_eq!(
            collector.fetches.total() + collector.fetches.stray(),
            traced.icache.accesses,
            "seed {seed}: one event per I-cache access"
        );
        assert_eq!(
            collector
                .icache_sets
                .sets()
                .iter()
                .map(|s| s.misses)
                .sum::<u64>(),
            traced.icache.misses,
            "seed {seed}: per-set misses sum to the model's total"
        );
        assert_eq!(
            collector.dcache.reads + collector.dcache.writes,
            traced.dcache.accesses,
            "seed {seed}: one event per D-cache access"
        );
        assert_eq!(collector.dcache.misses, traced.dcache.misses, "seed {seed}");
    }
}
