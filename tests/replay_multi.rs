//! Differential guarantees of the execute-once/replay-many engine: feeding N
//! timing models from a single functional execution must be observationally
//! identical — bit-for-bit on every counter — to running each configuration
//! in its own machine, and the no-observer fast path must agree exactly with
//! the observed path.

#![allow(clippy::unwrap_used)]

use std::cell::Cell;
use std::rc::Rc;

use powerfits::core::{FitsFlow, FitsSet};
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::sim::{
    Ar32Set, CompiledProgram, ExecCtx, InstrSet, Machine, OpControl, OpMeta, RunOutput,
    Sa1100Config, SimError, SimResult, StepOutcome,
};

/// The four cache configurations the experiment harness sweeps.
fn sweep_configs() -> Vec<Sa1100Config> {
    [16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024]
        .into_iter()
        .map(|bytes| {
            Sa1100Config::icache_16k()
                .with_icache_bytes(bytes)
                .expect("sweep sizes divide the geometry")
        })
        .collect()
}

/// The lists `price_all` is checked on: the four-config sweep (the
/// batched engine) and a single configuration (the fused single-lane pass).
fn price_all_inputs() -> [Vec<Sa1100Config>; 2] {
    let sweep = sweep_configs();
    let single = vec![sweep[3].clone()];
    [sweep, single]
}

/// Records one execution of the machine's program and prices every
/// configuration from it: compile → `run_recorded` → `price_all`.
fn record_and_price<S: InstrSet>(
    mut machine: Machine<S>,
    cfgs: &[Sa1100Config],
) -> (RunOutput, Vec<SimResult>) {
    let compiled = machine.compile().expect("lifts");
    let trace = machine.run_recorded(&compiled).expect("recorded run");
    let sims = trace.price_all(&compiled, cfgs).expect("price all");
    (trace.output, sims)
}

/// One recording priced over N configs must be bit-identical to N
/// independent `run_timed` machines, for both instruction sets of every
/// kernel, whether `price_all` gets one config or several.
#[test]
fn replay_many_is_bit_identical_to_per_config_runs() {
    let scale = Scale::test();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let flow = FitsFlow::new().run(&program).expect("flow accepts");
        for cfgs in price_all_inputs() {
            let (multi_out, multi_sims) =
                record_and_price(Machine::new(Ar32Set::load(&program)), &cfgs);
            assert_eq!(multi_sims.len(), cfgs.len());
            for (cfg, multi_sim) in cfgs.iter().zip(&multi_sims) {
                let (out, sim) = Machine::new(Ar32Set::load(&program))
                    .run_timed(cfg)
                    .expect("single run");
                assert_eq!(out, multi_out, "{kernel}: AR32 RunOutput diverged");
                assert_eq!(
                    sim, *multi_sim,
                    "{kernel}: AR32 SimResult diverged at {} B icache",
                    cfg.icache.size_bytes
                );
            }

            let (multi_out, multi_sims) =
                record_and_price(Machine::new(FitsSet::load(&flow.fits).unwrap()), &cfgs);
            assert_eq!(multi_sims.len(), cfgs.len());
            for (cfg, multi_sim) in cfgs.iter().zip(&multi_sims) {
                let (out, sim) = Machine::new(FitsSet::load(&flow.fits).unwrap())
                    .run_timed(cfg)
                    .expect("single run");
                assert_eq!(out, multi_out, "{kernel}: FITS RunOutput diverged");
                assert_eq!(
                    sim, *multi_sim,
                    "{kernel}: FITS SimResult diverged at {} B icache",
                    cfg.icache.size_bytes
                );
            }
        }
    }
}

/// The dedicated no-observer fast path in `Machine::run` must produce the
/// same `RunOutput` as `run_observed` with a no-op observer.
#[test]
fn fast_path_agrees_with_observed_path() {
    let scale = Scale::test();
    for &kernel in Kernel::ALL.iter() {
        let program = kernel.compile(scale).expect("kernel compiles");
        let fast = Machine::new(Ar32Set::load(&program)).run().expect("fast");
        let observed = Machine::new(Ar32Set::load(&program))
            .run_observed(|_, _| {})
            .expect("observed");
        assert_eq!(fast, observed, "{kernel}: fast path diverged");
    }
}

/// An [`InstrSet`] wrapper counting `execute` calls, proving the replay
/// engine performs exactly one functional execution regardless of how many
/// timing models it feeds.
struct CountingSet<S> {
    inner: S,
    executes: Rc<Cell<u64>>,
}

impl<S: InstrSet> InstrSet for CountingSet<S> {
    type Op = S::Op;

    fn entry_pc(&self) -> u32 {
        self.inner.entry_pc()
    }
    fn op_size(&self) -> u32 {
        self.inner.op_size()
    }
    fn op_count(&self) -> usize {
        self.inner.op_count()
    }
    fn control_flow(&self, pc: u32, op: &Self::Op) -> OpControl {
        self.inner.control_flow(pc, op)
    }
    fn initial_data(&self) -> &[u8] {
        self.inner.initial_data()
    }
    fn op_at(&self, pc: u32) -> Result<&Self::Op, SimError> {
        self.inner.op_at(pc)
    }
    fn fetch_word(&self, word_addr: u32) -> u32 {
        self.inner.fetch_word(word_addr)
    }
    fn describe(&self, op: &Self::Op) -> OpMeta {
        self.inner.describe(op)
    }
    fn op_with_meta(&self, pc: u32) -> Result<(&Self::Op, &OpMeta), SimError> {
        self.inner.op_with_meta(pc)
    }
    fn execute(&self, op: &Self::Op, ctx: &mut ExecCtx<'_>) -> Result<StepOutcome, SimError> {
        self.executes.set(self.executes.get() + 1);
        self.inner.execute(op, ctx)
    }
}

#[test]
fn replay_many_executes_each_instruction_once() {
    let program = Kernel::Crc32.compile(Scale::test()).expect("compiles");
    let executes = Rc::new(Cell::new(0));
    let set = CountingSet {
        inner: Ar32Set::load(&program),
        executes: Rc::clone(&executes),
    };
    let (out, sims) = record_and_price(Machine::new(set), &sweep_configs());
    assert_eq!(sims.len(), 4);
    assert_eq!(
        executes.get(),
        out.steps,
        "four timing models must share one execution, not re-execute"
    );
}

/// The explicit compiled API — `CompiledProgram::compile`, then
/// `Machine::run_recorded`, then `RecordedTrace::price_all` — must agree
/// bit-for-bit with per-config interpreted `run_timed`, and a recorded trace
/// must be re-priceable any number of times with identical results.
#[test]
fn compiled_api_is_bit_identical_and_repriceable() {
    let scale = Scale::test();
    for (&kernel, cfgs) in [Kernel::Crc32, Kernel::JpegDct, Kernel::Dijkstra]
        .iter()
        .flat_map(|k| price_all_inputs().map(|cfgs| (k, cfgs)))
    {
        let program = kernel.compile(scale).expect("kernel compiles");
        let set = Ar32Set::load(&program);
        let compiled = CompiledProgram::compile(&set).expect("compiles to blocks");
        let trace = Machine::new(Ar32Set::load(&program))
            .run_recorded(&compiled)
            .expect("recorded run");

        let first = trace.price_all(&compiled, &cfgs).expect("price all");
        let again = trace.price_all(&compiled, &cfgs).expect("re-price");
        assert_eq!(first, again, "{kernel}: re-pricing the same trace diverged");

        for (cfg, sim) in cfgs.iter().zip(&first) {
            let (out, reference) = Machine::new(Ar32Set::load(&program))
                .run_timed(cfg)
                .expect("single run");
            assert_eq!(out, trace.output, "{kernel}: RunOutput diverged");
            assert_eq!(
                *sim, reference,
                "{kernel}: compiled replay diverged at {} B icache",
                cfg.icache.size_bytes
            );
        }
    }
}
